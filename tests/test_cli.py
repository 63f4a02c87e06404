import importlib
import inspect
import json
import sys

import numpy as np
import pytest

import oomlab as ol
from oomlab.cli import build_parser, main
from oomlab.model_io import save_model, serialize_model

import cli_snapshot
from conftest import fixture_path
from curated import overflowing_model, signed_coin_mixture, signed_qubit_mixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# basic commands


def test_dim_on_coin(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "--model", fixture_path("bernoulli05.json"), "--max-level", "4"
    )
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 1
    assert report["rank_by_level"] == {"1": 1, "2": 1, "3": 1, "4": 1}
    assert report["stabilized"] is True


def test_dim_inconclusive_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "--model", fixture_path("mixture_2bern.json"), "--max-level", "1"
    )
    assert code == 3
    assert json.loads(out)["dimension"] == "not stabilized"


def test_eval_word(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--model", fixture_path("bernoulli05.json"), "--word", "101"
    )
    assert code == 0
    assert json.loads(out)["probability"] == pytest.approx(0.125)


def test_eval_empty_word(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--model", fixture_path("bernoulli05.json"), "--word", ""
    )
    assert code == 0
    assert json.loads(out)["probability"] == 1.0


def test_eval_unknown_symbol_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--model", fixture_path("bernoulli05.json"), "--word", "10x"
    )
    assert code == 2
    assert "unknown symbol" in err


def test_validate_good_model(capsys):
    code, out, _ = run_cli(capsys, "validate", "--model", fixture_path("markov2.json"))
    assert code == 0
    assert json.loads(out)["validation"]["passed"] is True


def test_validate_bad_model_exits_one(capsys, tmp_path):
    payload = serialize_model(ol.bernoulli(0.5))
    payload["eval"] = [2.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "validate", "--model", str(path))
    assert code == 1
    assert json.loads(out)["validation"]["passed"] is False


def test_eval_of_an_overflowing_word_is_a_validation_error(capsys, tmp_path):
    path = tmp_path / "overflow.json"
    save_model(overflowing_model(), path)
    code, out, err = run_cli(capsys, "eval", "--model", str(path), "--word", "00")
    assert (code, out) == (1, "")
    assert err == (
        "error: word ('0', '0') has probability nan: "
        "its state image overflows the float range\n"
    )


def test_nc_eval_of_an_overflowing_word_is_a_validation_error(capsys, tmp_path):
    path = tmp_path / "overflow.json"
    save_model(overflowing_model(), path)
    code, out, err = run_cli(capsys, "nc-eval", "--model", str(path), "--word", "00")
    assert (code, out) == (1, "")
    assert err == (
        "error: the value on 2 factors is (nan+nanj): "
        "its state image overflows the float range\n"
    )


@pytest.mark.parametrize(
    "argv, embed, message",
    [
        (["dim", "--max-level", "3"], False, "a word up to length 4 has a non-finite value"),
        (["validate"], False, "a word up to length 8 has a non-finite value"),
        (["validate", "--check-stationarity"], False,
         "a word up to length 8 has a non-finite value"),
        (["validate"], True, "a word up to length 4 has a non-finite value"),
    ],
    ids=["dim", "validate", "validate-stationarity", "validate-embedded"],
)
def test_overflowing_model_is_refused_by_name(capsys, tmp_path, argv, embed, message):
    path = tmp_path / "overflow.json"
    model = overflowing_model()
    save_model(ol.embed_classical(model) if embed else model, path)
    code, out, err = run_cli(capsys, *argv, "--model", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {message}: its state image overflows the float range\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["eval", "--word", "0"], "--neg-tol"),
        (["dim", "--max-level", "3"], "--tol-rel"),
        (["minimize"], "--tol-rel"),
        (["causal", "--past-len", "2", "--horizon", "2"], "--cluster-tol"),
        (["causal", "--past-len", "2", "--horizon", "2"], "--tol-rel"),
        (["nc-dim", "--max-level", "2"], "--tol-rel"),
    ],
)
def test_tolerances_must_be_finite_and_nonnegative(capsys, argv, option, value):
    code, out, err = run_cli(
        capsys, *argv, "--model", fixture_path("markov2.json"), f"{option}={value}"
    )
    assert (code, out) == (2, "")
    assert err.endswith(
        f"error: argument {option}: must be a finite nonnegative number, got {value!r}\n"
    )


@pytest.mark.parametrize(
    "argv, field, at_default, at_option",
    [
        (["dim", "--max-level", "2", "--tol-rel", "0.5"], "rank_by_level",
         {"1": 2, "2": 2}, {"1": 1, "2": 1}),
        (["minimize", "--tol-rel", "0.5"], "dim_after", 2, 1),
        (["causal", "--past-len", "2", "--horizon", "2", "--cluster-tol", "1"], "n_states", 3, 1),
        (["causal", "--past-len", "2", "--horizon", "2", "--tol-rel", "0.5"],
         "causal_span_rank", 2, 1),
        (["nc-dim", "--max-level", "2", "--tol-rel", "0.5"], "rank_by_level",
         {"1": 2, "2": 2}, {"1": 1, "2": 1}),
    ],
    ids=["dim", "minimize", "causal-cluster-tol", "causal-tol-rel", "nc-dim"],
)
def test_valid_tolerances_reach_the_call(capsys, argv, field, at_default, at_option):
    model = ["--model", fixture_path("mixture_2bern.json")]
    _, out, _ = run_cli(capsys, *argv[:-2], *model)
    assert json.loads(out)[field] == at_default
    _, out, _ = run_cli(capsys, *argv, *model)
    assert json.loads(out)[field] == at_option


def test_a_valid_neg_tol_reaches_the_call(capsys, tmp_path):
    path = tmp_path / "signed.json"
    save_model(signed_coin_mixture(0.55), path)  # its first negative value is at length 19
    argv = ["eval", "--model", str(path), "--word", "1" * 19]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and "below -neg_tol=-1e-10" in err
    code, out, _ = run_cli(capsys, *argv, "--neg-tol", "1e-6")
    assert code == 0 and json.loads(out)["probability"] == 0


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
def test_validate_has_no_sampling_flags(capsys, flag):
    code, out, err = run_cli(
        capsys, "validate", "--model", fixture_path("qubit_product.json"), flag, "5"
    )
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag} 5" in err


def test_signed_qubit_mixture_is_refuted(capsys, tmp_path):
    save_model(signed_qubit_mixture(), tmp_path / "signed.json")
    code, out, _ = run_cli(capsys, "validate", "--model", str(tmp_path / "signed.json"))
    assert code == 1
    report = json.loads(out)["validation"]
    assert not report["passed"] and report["checked_depth"] == 4
    # 1.5 / 2^4 - 0.5 on E_00 tensored four times
    assert report["most_negative_eigenvalue"] == pytest.approx(-0.40625, abs=1e-15)
    code, out, err = run_cli(
        capsys, "nc-dim", "--model", str(tmp_path / "signed.json"), "--max-level", "2"
    )
    assert code == 1 and out == ""
    assert err == (
        "error: model failed validation: condition-1 residual 0.000000e+00, "
        "condition-2 residual 0.000000e+00, most negative eigenvalue -4.062500e-01 "
        "at depth 4, hermitian defect 0.000000e+00\n"
    )


def test_validate_with_stationarity(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate",
        "--model",
        fixture_path("qubit_product.json"),
        "--check-stationarity",
    )
    assert code == 0
    report = json.loads(out)
    assert report["stationarity"]["stationary"] is True


def test_validate_mixture_file(capsys):
    code, out, _ = run_cli(capsys, "validate", "--model", fixture_path("mixture_2bern.json"))
    assert code == 0
    report = json.loads(out)
    assert report["model_type"] == "OomModel"
    assert report["validation"]["passed"] is True


def test_validate_nc_mixture_file(capsys, tmp_path):
    alg = ol.construct_algebra([2])

    def product_state(p0, p1):
        return ol.NcOomModel(
            algebra=alg,
            op_per_basis=np.array([[[p0]], [[0.0]], [[0.0]], [[p1]]], dtype=complex),
            init=[1.0],
            eval=[1.0],
        )

    save_model(product_state(0.9, 0.1), tmp_path / "q1.json")
    save_model(product_state(0.3, 0.7), tmp_path / "q2.json")
    (tmp_path / "mix.json").write_text(
        json.dumps(
            {
                "type": "mixture",
                "parts": [
                    {"weight": 0.5, "path": "q1.json"},
                    {"weight": 0.5, "path": "q2.json"},
                ],
            }
        )
    )
    code, out, _ = run_cli(capsys, "validate", "--model", str(tmp_path / "mix.json"))
    assert code == 0
    report = json.loads(out)
    assert report["model_type"] == "NcOomModel"
    assert report["validation"]["passed"] is True


def test_schema_error_exits_two(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"type": "oom", "alphabet": ["0"]}')
    code, _, err = run_cli(capsys, "validate", "--model", str(path))
    assert code == 2
    assert "missing field" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "1e400", "int400"])
@pytest.mark.parametrize("command", [["validate"], ["eval", "--word", "0"]])
def test_non_finite_number_exits_two(capsys, tmp_path, literal, command):
    path = tmp_path / "m.json"
    path.write_text('{"type": "oom", "alphabet": ["0", "1"], "dim": 1, "operators": '
                    '{"0": [[%s]], "1": [[0.5]]}, "init": [1.0], "eval": [1.0]}' % literal)
    code, out, err = run_cli(capsys, *command, "--model", str(path))
    assert (code, out) == (2, "")
    assert err == """error: field "operators['0']" must be a finite number\n"""


def test_minimize_reports_reduction(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--model", fixture_path("mixture_2bern.json"))
    assert code == 0
    report = json.loads(out)
    assert report["dim_before"] == 2 and report["dim_after"] == 2
    assert report["equivalent"] is True
    assert report["model"]["type"] == "oom"


def test_minimize_writes_model_file(capsys, tmp_path):
    out_path = tmp_path / "mini.json"
    code, out, _ = run_cli(
        capsys,
        "minimize",
        "--model",
        fixture_path("mixture_2bern.json"),
        "--output",
        str(out_path),
    )
    assert code == 0
    reduced = ol.parse_model_file(out_path)
    assert reduced.dim == 2


def test_causal_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "causal",
        "--model",
        fixture_path("markov2.json"),
        "--past-len",
        "1",
        "--horizon",
        "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["n_states"] == 2
    assert report["causal_span_rank"] == 2
    assert report["topological_complexity_bits"] == 1
    assert report["statistical_complexity_bits"] == pytest.approx(np.log2(3) - 2 / 3)


def test_causal_rejects_nonstationary(capsys, tmp_path):
    skew = ol.markov_chain([[0, 1], [1, 0]], labels=["0", "1"], init=[1, 0])
    path = tmp_path / "skew.json"
    save_model(skew, path)
    code, _, err = run_cli(
        capsys, "causal", "--model", str(path), "--past-len", "1", "--horizon", "2"
    )
    assert code == 1
    assert "stationary" in err


def test_nc_eval_with_word(capsys):
    code, out, _ = run_cli(
        capsys,
        "nc-eval",
        "--model",
        fixture_path("bernoulli05.json"),
        "--word",
        "101",
    )
    assert code == 0
    assert json.loads(out)["value"] == [pytest.approx(0.125), 0.0]


def test_nc_eval_with_factors_file(capsys, tmp_path):
    factors = [
        {"unit": True},
        {"blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]]},
    ]
    path = tmp_path / "factors.json"
    path.write_text(json.dumps(factors))
    code, out, _ = run_cli(
        capsys,
        "nc-eval",
        "--model",
        fixture_path("qubit_product.json"),
        "--factors",
        str(path),
    )
    assert code == 0
    assert json.loads(out)["value"][0] == pytest.approx(0.6)  # tr(rho Z)


def test_nc_eval_require_positive_rejects_z(capsys, tmp_path):
    factors = [{"blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]]}]
    path = tmp_path / "factors.json"
    path.write_text(json.dumps(factors))
    code, _, err = run_cli(
        capsys,
        "nc-eval",
        "--model",
        fixture_path("qubit_product.json"),
        "--factors",
        str(path),
        "--require-positive",
    )
    assert code == 1
    assert "not positive" in err


def test_nc_eval_basis_index_factor(capsys, tmp_path):
    path = tmp_path / "factors.json"
    path.write_text(json.dumps([{"basis_index": 0}]))
    code, out, _ = run_cli(
        capsys,
        "nc-eval",
        "--model",
        fixture_path("qubit_product.json"),
        "--factors",
        str(path),
    )
    assert code == 0
    assert json.loads(out)["value"][0] == pytest.approx(0.8)


def test_nc_dim_on_embedded_classical(capsys):
    code, out, _ = run_cli(
        capsys,
        "nc-dim",
        "--model",
        fixture_path("mixture_2bern.json"),
        "--max-level",
        "3",
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 2


def test_sample_deterministic_and_env_seed(capsys, monkeypatch):
    code, out1, _ = run_cli(
        capsys, "sample", "--model", fixture_path("bernoulli05.json"),
        "--length", "20", "--seed", "7",
    )
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "sample", "--model", fixture_path("bernoulli05.json"),
        "--length", "20", "--seed", "7",
    )
    assert out1 == out2
    monkeypatch.setenv("OOMLAB_SEED", "7")
    code, out3, _ = run_cli(
        capsys, "sample", "--model", fixture_path("bernoulli05.json"), "--length", "20"
    )
    assert out3 == out1
    assert json.loads(out3)["seed"] == 7


def test_dim_flags_a_rank_cut_inside_the_spectrum(capsys, tmp_path):
    path = tmp_path / "hmm20.json"
    save_model(ol.hmm_to_oom(ol.random_hmm(20, "01", rng=1)), path)
    code, out, _ = run_cli(capsys, "dim", "--model", str(path), "--max-level", "8")
    assert code == 3
    report = json.loads(out)
    assert report["dimension"] == "not stabilized"
    assert report["rank_by_level"]["7"] == report["rank_by_level"]["8"]


def test_minimize_twelve_state_hmm(capsys, tmp_path):
    path = tmp_path / "hmm12.json"
    save_model(ol.hmm_to_oom(ol.random_hmm(12, "01", rng=0)), path)
    code, out, _ = run_cli(capsys, "minimize", "--model", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["equivalent"] is True
    assert report["equivalent_up_to_depth"] == 12 + report["dim_after"]


def test_minimize_twenty_state_hmm(capsys, tmp_path):
    path = tmp_path / "hmm20.json"
    save_model(ol.hmm_to_oom(ol.random_hmm(20, "01", rng=1)), path)
    code, out, _ = run_cli(capsys, "minimize", "--model", str(path))
    assert code == 0
    assert json.loads(out)["equivalent"] is True


def test_seven_symbol_model_validates_and_evaluates(capsys, tmp_path):
    path = tmp_path / "coin7.json"
    save_model(ol.iid({str(i): 1 / 7 for i in range(7)}), path)
    code, out, _ = run_cli(capsys, "eval", "--model", str(path), "--word", "0")
    assert code == 0
    assert json.loads(out)["probability"] == pytest.approx(1 / 7)
    for depth in ([], ["--depth", "8"]):
        code, out, _ = run_cli(capsys, "validate", "--model", str(path), *depth)
        assert code == 0
        assert json.loads(out)["validation"]["checked_depth"] == 8


@pytest.mark.parametrize("fixture", ["markov2.json", "qubit_product.json"])
def test_validate_rejects_negative_depth(capsys, fixture):
    code, out, err = run_cli(
        capsys, "validate", "--model", fixture_path(fixture), "--depth", "-1"
    )
    assert code == 2 and out == ""
    assert "l_val must be nonnegative" in err


# ---------------------------------------------------------------------------
# experiments


def test_experiment_run_writes_report_and_csv(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "experiment",
        "run",
        fixture_path("exp_additivity_2bern.json"),
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "points.csv").exists()
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == report
    csv_text = (tmp_path / "points.csv").read_text()
    assert csv_text.splitlines()[0].startswith("point,")


@pytest.mark.parametrize(
    "spec",
    [
        "exp_semicont_mixture_weight.json",
        "exp_semicont_coalescing.json",
        "exp_semicont_markov_merge.json",
        "exp_upperbound_markov2.json",
    ],
)
def test_shipped_experiment_specs_pass(capsys, tmp_path, spec):
    code, out, _ = run_cli(
        capsys, "experiment", "run", fixture_path(spec), "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_experiment_csv_stdout(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "experiment",
        "run",
        fixture_path("exp_upperbound_markov2.json"),
        "--out-dir",
        str(tmp_path),
        "--csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("point,")
    assert lines[1].startswith("process,")


def test_experiment_inconclusive_exit_code(capsys, tmp_path):
    spec = {
        "experiment": "additivity",
        "parts": [
            {"weight": 0.5, "path": fixture_path("bernoulli02.json")},
            {"weight": 0.5, "path": fixture_path("bernoulli07.json")},
        ],
        "max_level": 1,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        capsys, "experiment", "run", str(path), "--out-dir", str(tmp_path)
    )
    assert code == 3
    assert json.loads(out)["verdict"] == "INCONCLUSIVE"


def test_experiment_refusal_is_usage_error(capsys, tmp_path):
    spec = {
        "experiment": "additivity",
        "parts": [
            {"weight": 0.5, "path": fixture_path("bernoulli05.json")},
            {"weight": 0.5, "path": fixture_path("bernoulli05.json")},
        ],
        "max_level": 2,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(
        capsys, "experiment", "run", str(path), "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert "pairwise distinct" in err


_PARTS = [
    {"weight": 0.5, "path": fixture_path("bernoulli02.json")},
    {"weight": 0.5, "path": fixture_path("bernoulli07.json")},
]
_SPEC_ERRORS = {
    "unknown-kind": (
        {"experiment": "nope", "max_level": 2},
        "unknown experiment kind 'nope' in experiment file spec.json",
    ),
    "unknown-family-kind": (
        {"experiment": "semicontinuity", "family": {"kind": "nope", "grid": [0.1]},
         "max_level": 2},
        "unknown family kind 'nope' in experiment file spec.json",
    ),
    "additivity-no-max-level": (
        {"experiment": "additivity", "parts": _PARTS},
        'missing field "max_level" in experiment file spec.json',
    ),
    "semicontinuity-no-max-level": (
        {"experiment": "semicontinuity", "family": {"kind": "markov_merge", "grid": [0.1]}},
        'missing field "max_level" in experiment file spec.json',
    ),
    "upperbound-no-max-level": (
        {"experiment": "upperbound", "model": fixture_path("markov2.json"),
         "past_length": 1, "horizon": 2},
        'missing field "max_level" in experiment file spec.json',
    ),
    "part-not-an-object": (
        {"experiment": "additivity", "parts": [1], "max_level": 2},
        'field "parts[0]" must be an object with "weight" and "path"',
    ),
    "part-without-weight": (
        {"experiment": "additivity", "parts": [{"path": "bernoulli02.json"}], "max_level": 2},
        'missing field "weight" in experiment file spec.json, "parts[0]"',
    ),
    "path-not-a-string": (
        {"experiment": "additivity", "parts": [{"weight": 1.0, "path": 3}], "max_level": 2},
        'field "parts[0].path" must be a string',
    ),
    "operator-algebra-model": (
        {"experiment": "upperbound", "model": fixture_path("qubit_product.json"),
         "past_length": 1, "horizon": 2, "max_level": 2},
        'field "model" must reference a classical model',
    ),
    "unknown-field": (
        {"experiment": "additivity", "parts": _PARTS, "max_level": 2, "seed": 0},
        "unknown field(s) 'seed' in experiment file spec.json",
    ),
}


@pytest.mark.parametrize("spec, message", _SPEC_ERRORS.values(), ids=_SPEC_ERRORS)
def test_experiment_spec_errors_are_usage_errors(capsys, tmp_path, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(
        capsys, "experiment", "run", str(path), "--out-dir", str(tmp_path)
    )
    assert (code, out) == (2, "")
    assert message in err


def test_byte_identical_reports_across_runs(capsys, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = run_cli(
            capsys,
            "experiment",
            "run",
            fixture_path("exp_additivity_2bern.json"),
            "--out-dir",
            str(d),
        )
        assert code == 0
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "points.csv").read_bytes() == (d2 / "points.csv").read_bytes()


# ---------------------------------------------------------------------------
# surface coverage


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["dim"]) == 2  # missing required flags


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "dim", "--model", str(tmp_path / "nope.json"), "--max-level", "2"
    )
    assert code == 2
    assert "cannot read" in err


def test_nc_eval_needs_exactly_one_input(capsys, tmp_path):
    factors = tmp_path / "f.json"
    factors.write_text("[]")
    code, _, err = run_cli(
        capsys, "nc-eval", "--model", fixture_path("qubit_product.json"),
        "--factors", str(factors), "--word", "1",
    )
    assert code == 2
    assert "exactly one" in err
    code, _, err = run_cli(
        capsys, "nc-eval", "--model", fixture_path("qubit_product.json")
    )
    assert code == 2


def test_sample_length_zero(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--model", fixture_path("bernoulli05.json"),
        "--length", "0", "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)["word"] == []


def test_subcommand_set_is_exactly_the_interface():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    assert set(sub.choices) == {
        "validate", "eval", "dim", "minimize", "causal", "nc-eval", "nc-dim", "experiment",
        "sample",
    }


#: The defaulted parameters of the public functions. Each is set by a command-line
#: option, a spec field or the benchmark, or selects documented behaviour; every
#: other deciding value is a named constant of its module.
DEFAULTED = {
    "bernoulli": ["symbols"],
    "causal_span_rank": ["tol_rel"],
    "empirical_causal_states": ["n_windows", "seed", "cluster_tol"],
    "enumerate_causal_states": ["cluster_tol"],
    "equivalent": ["tol"],
    "markov_chain": ["labels", "init"],
    "minimize_oom": ["tol_rel"],
    "nc_evaluate": ["reverse_order"],
    "nc_process_dimension": ["tol_rel"],
    "nc_stationarity_check": ["l", "reverse_order"],
    "numerical_rank": ["tol_rel"],
    "parse_model_file": ["validate", "_depth"],
    "process_dimension": ["tol_rel"],
    "random_hmm": ["rng"],
    "run_additivity": ["tol_rel", "name"],
    "run_semicontinuity": ["tol_rel", "name"],
    "run_upperbound": ["tol_rel", "cluster_tol", "name"],
    "stationarity_check": ["l"],
    "validate_ncoom": ["l_val"],
    "validate_oom": ["l_val"],
    "word_probability": ["neg_tol"],
}


def test_defaulted_parameters_are_exactly_the_pinned_ones():
    """A new defaulted parameter of a public function is a deliberate change here."""
    found = {}
    for name in ol.__all__:
        fn = getattr(ol, name)
        if inspect.isfunction(fn):
            params = inspect.signature(fn).parameters.values()
            if defaulted := [p.name for p in params if p.default is not p.empty]:
                found[name] = defaulted
    assert found == DEFAULTED
    assert sum(map(len, found.values())) == 30


def test_every_public_operation_reachable_from_cli(monkeypatch, tmp_path):
    operations = {
        # algebra
        "construct_algebra", "unit_element", "is_positive", "basis_elements",
        # classical models
        "validate_oom", "word_probability", "hmm_to_oom", "mixture_direct_sum",
        "stationarity_check", "sample_trajectory",
        # dimension
        "build_hankel", "numerical_rank", "process_dimension", "minimize_oom", "equivalent",
        # causal states
        "predictive_distribution", "enumerate_causal_states",
        "statistical_complexity", "topological_complexity", "causal_span_rank",
        # operator-algebra models
        "validate_ncoom", "nc_evaluate", "embed_classical", "nc_hankel",
        "nc_process_dimension", "nc_mixture_direct_sum", "nc_stationarity_check",
        # harnesses
        "cylinder_distance", "run_additivity", "run_semicontinuity", "run_upperbound",
        # persistence and dispatch
        "parse_model_file", "dispatch",
    }
    # wrap each public function wherever an oomlab module binds it, as the
    # benchmark's tracer does, and record which ones the snapshot cases call
    called = set()
    public = {}
    for layer in ("oom", "dimension", "causal", "algebra", "ncoom", "experiments",
                  "model_io", "cli"):
        mod = importlib.import_module(f"oomlab.{layer}")
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name[0] != "_":
                public[id(fn)] = name, fn

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for mod_name, holder in list(sys.modules.items()):
        if mod_name == "oomlab" or mod_name.startswith("oomlab."):
            for attr, obj in list(vars(holder).items()):
                if id(obj) in public:
                    monkeypatch.setattr(holder, attr, recording(*public[id(obj)]))
    for _, argv in cli_snapshot.cases(str(tmp_path)):
        cli_snapshot.run_case(argv)
    missing = operations - called
    assert not missing, f"operations not reachable from any subcommand: {sorted(missing)}"
