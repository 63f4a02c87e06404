import json
import math
import os
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oomlab as ol
from oomlab import SchemaError, ValidationError, model_io
from oomlab.model_io import dumps_canonical, parse_model_file, save_model, serialize_model
from oomlab.oom import _certified, _direct_sum

from conftest import FIXTURES, fixture_path
from curated import markov2


# ---------------------------------------------------------------------------
# round trips


def _assert_oom_equal(a: ol.OomModel, b: ol.OomModel):
    assert a.alphabet == b.alphabet
    assert a.dim == b.dim
    for s in a.alphabet:
        assert np.array_equal(a.operators[s], b.operators[s])
    assert np.array_equal(a.init, b.init)
    assert np.array_equal(a.eval, b.eval)
    assert a.name == b.name and a.description == b.description


def test_oom_roundtrip_exact(tmp_path):
    m = ol.hmm_to_oom(ol.random_hmm(3, ("0", "1", "2"), rng=13))
    m.name = "random3"
    path = tmp_path / "m.json"
    save_model(m, path)
    _assert_oom_equal(parse_model_file(path), m)


def test_hmm_roundtrip_exact(tmp_path):
    h = markov2()
    h.name = "markov2"
    path = tmp_path / "h.json"
    save_model(h, path)
    back = parse_model_file(path)
    assert isinstance(back, ol.HmmModel)
    assert back.alphabet == h.alphabet and back.n_states == h.n_states
    for s in h.alphabet:
        assert np.array_equal(back.transition_emission[s], h.transition_emission[s])
    assert np.array_equal(back.init, h.init)


def test_ncoom_roundtrip_exact(tmp_path):
    alg = ol.construct_algebra([2])
    rho = np.array([[[0.8]], [[0.05]], [[0.05]], [[0.2]]], dtype=complex)
    rho[1], rho[2] = 0.05 + 0.01j, 0.05 - 0.01j
    m = ol.NcOomModel(algebra=alg, op_per_basis=rho, init=[1.0], eval=[1.0])
    path = tmp_path / "q.json"
    save_model(m, path)
    back = parse_model_file(path, validate=False)
    assert isinstance(back, ol.NcOomModel)
    assert back.algebra == m.algebra
    assert np.array_equal(back.op_per_basis, m.op_per_basis)
    assert np.array_equal(back.init, m.init)
    assert np.array_equal(back.eval, m.eval)


def test_float_bits_survive_roundtrip(tmp_path):
    m = ol.bernoulli(1.0 / 3.0)
    path = tmp_path / "third.json"
    save_model(m, path)
    back = parse_model_file(path)
    assert back.operators["1"][0, 0] == 1.0 / 3.0  # exact bits via 17 digits


def _coin(n_symbols: int) -> ol.OomModel:
    return ol.iid({str(i): 1 / n_symbols for i in range(n_symbols)})


def _signed_coin_mixture(n_symbols: int) -> ol.OomModel:
    """An even mixture of two different coins, conjugated by a rotation: a
    valid model with negative operator entries, so its signs certify nothing."""
    total = n_symbols * (n_symbols + 1) / 2
    skewed = ol.iid({str(i): (i + 1) / total for i in range(n_symbols)})
    mix = ol.mixture_direct_sum([(0.5, _coin(n_symbols)), (0.5, skewed)])
    a = np.array([[1.0, -1.0], [1.0, 1.0]])
    inv = np.linalg.inv(a)
    ops = {s: a @ t @ inv for s, t in mix.operators.items()}
    return ol.OomModel(mix.alphabet, ops, a @ mix.init, mix.eval @ inv)


@pytest.mark.parametrize(
    "n_symbols, depth", [(2, 8), (6, 8), (7, 8), (10, 8), (11, 7), (16, 6), (26, 5)]
)
def test_checked_depth_on_load(tmp_path, monkeypatch, n_symbols, depth):
    coin, signed = _coin(n_symbols), _signed_coin_mixture(n_symbols)
    rep = ol.validate_oom(coin)
    assert (rep.passed, rep.checked_depth) == (True, depth)
    assert not _certified(signed)
    reports = []

    def recording(model):
        reports.append(ol.validate_oom(model))
        return reports[-1]

    monkeypatch.setattr(model_io, "validate_oom", recording)
    for m in (coin, signed):
        path = tmp_path / "m.json"
        save_model(m, path)
        _assert_oom_equal(parse_model_file(path), m)
    # the nonnegative coin loads on its signs; the signed model is scanned
    assert [(r.passed, r.checked_depth) for r in reports] == [(True, depth)]


def _mixed_hmm_models(rng, count: int):
    """``count`` seeded pairs ``(a, b)`` of induced models of random HMMs over
    one alphabet, each of one to five states; ``b`` is a mixture every third time."""
    for i in range(count):
        alphabet = ("01", "abc", "abcdef")[i % 3]
        a, b, c = (
            ol.hmm_to_oom(ol.random_hmm(int(rng.integers(1, 6)), alphabet, rng=rng))
            for _ in range(3)
        )
        if i % 3 == 0:
            w = float(rng.uniform(0.1, 0.9))
            b = ol.mixture_direct_sum([(w, b), (1.0 - w, c)])
        yield a, b


def test_sign_certificate_on_seeded_models(tmp_path):
    rng = np.random.default_rng(1500)
    refused = 0
    for i, (a, b) in enumerate(_mixed_hmm_models(rng, 100)):
        for m in (a, b):
            assert _certified(m) and ol.validate_oom(m).passed, i
        # 1.2 P_a - 0.2 P_b: unit mass and mass preservation hold, signs do not
        parts = [(m.operator_stack, m.init, m.eval) for m in (a, b)]
        ops, init, evalv = _direct_sum((1.2, -0.2), parts, float)
        signed = ol.OomModel(a.alphabet, dict(zip(a.alphabet, ops)), init, evalv)
        assert not _certified(signed), i
        path = tmp_path / "signed.json"
        save_model(signed, path)
        rep = ol.validate_oom(signed)
        if rep.passed:
            parse_model_file(path)
            continue
        refused += 1
        with pytest.raises(ValidationError) as err:
            parse_model_file(path)
        assert str(err.value) == (
            "model failed validation: "
            f"condition-1 residual {rep.condition1_residual:.6e}, "
            f"condition-2 residual {rep.condition2_residual:.6e}, "
            f"most negative probability {rep.most_negative_probability:.6e} "
            f"at depth {rep.checked_depth}"
        ), i
    assert refused >= 50, refused  # 88 of the 100


# ---------------------------------------------------------------------------
# strict schema


def test_unknown_field_rejected(tmp_path):
    payload = serialize_model(ol.bernoulli(0.5))
    payload["extra"] = 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="'extra'"):
        parse_model_file(path)


def test_wrong_init_length_names_the_field(tmp_path):
    payload = serialize_model(ol.bernoulli(0.5))
    payload["init"] = [1.0, 0.0]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match='"init"'):
        parse_model_file(path)


def test_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"type": "oom",\n  "alphabet": [}')
    with pytest.raises(SchemaError, match="line 2"):
        parse_model_file(path)


def test_unknown_type_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"type": "what"}')
    with pytest.raises(SchemaError, match="unknown model type"):
        parse_model_file(path)


def test_non_string_type_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"type": ["oom"]}')
    with pytest.raises(SchemaError, match="unknown model type"):
        parse_model_file(path)


def test_validation_failure_on_load_quotes_residuals(tmp_path):
    payload = serialize_model(ol.bernoulli(0.5))
    payload["eval"] = [2.0]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="condition-1 residual"):
        parse_model_file(path)
    loaded = parse_model_file(path, validate=False)  # inspection path stays open
    assert loaded.eval[0] == 2.0


def test_bool_is_not_a_number(tmp_path):
    payload = serialize_model(ol.bernoulli(0.5))
    payload["init"] = [True]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match='"init"'):
        parse_model_file(path)


_BASE = {
    "type": "oom", "alphabet": ["0", "1"], "dim": 2,
    "operators": {"0": [[0.5, 0.0], [0.0, 0.5]], "1": [[0.5, 0.0], [0.0, 0.5]]},
    "init": [1.0, 0.0], "eval": [1.0, 1.0],
}
_MATRIX = """field "operators['1']" must be a 2x2 row-major matrix"""


@pytest.mark.parametrize("value", [True, "0.5", None, [0.5]])
@pytest.mark.parametrize(
    "where, message",
    [("matrix", """field "operators['1']" must be a number"""),
     ("vector", 'field "init" must be a number')],
)
def test_bad_entry_messages(tmp_path, value, where, message):
    data = json.loads(json.dumps(_BASE))
    if where == "matrix":
        data["operators"]["1"][1][0] = value
    else:
        data["init"][1] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError) as err:
        parse_model_file(path)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "matrix, message",
    [([[0.5, 0.0], [0.5]], _MATRIX),  # ragged
     ([[0.5, 0.0]], _MATRIX),  # one row short
     ([[0.5, 0.0], 0.5], _MATRIX),  # a row that is not a list
     ([[[0.5], 0.0], [0.5, 0.0]], """field "operators['1']" must be a number""")],
)
def test_bad_shape_messages(tmp_path, matrix, message):
    data = json.loads(json.dumps(_BASE))
    data["operators"]["1"] = matrix
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError) as err:
        parse_model_file(path)
    assert str(err.value) == message


_I2 = [[0.5, 0.0], [0.0, 0.5]]
_BASES = {
    "oom": _BASE,
    "hmm": {"type": "hmm", "alphabet": ["0", "1"], "n_states": 2,
            "transition_emission": {"0": _I2, "1": _I2}, "init": [1.0, 0.0]},
    "ncoom": {"type": "ncoom", "algebra": {"blocks": [2]}, "dim": 1,
              "op_per_basis": [[[[0.8, 0.0]]], [[[0.0, 0.0]]], [[[0.0, 0.0]]], [[[0.2, 0.0]]]],
              "init": [[1.0, 0.0]], "eval": [[1.0, 0.0]]},
}
_MISSING = object()
_BLOCKS = 'field "algebra.blocks" must be a non-empty list of positive integers'
_OPS_COUNT = 'field "op_per_basis" must list {} matrices (one per basis element)'


def _missing(kind, *fields):
    return [(kind, f, _MISSING, f'missing field "{f}" in model file m.json') for f in fields]


# every structural schema message of each model file type, with its field
@pytest.mark.parametrize(
    "kind, field, value, message",
    [
        *_missing("oom", "type", "alphabet", "dim", "operators", "init", "eval"),
        ("oom", "alphabet", [], 'field "alphabet" must be a non-empty list of strings'),
        ("oom", "alphabet", ["0", 1], 'field "alphabet" must be a non-empty list of strings'),
        ("oom", "dim", 2.0, 'field "dim" must be an integer'),
        ("oom", "dim", True, 'field "dim" must be an integer'),
        ("oom", "dim", 0, 'field "dim" must be a positive integer'),
        ("oom", "operators", [_I2, _I2],
         'field "operators" must have exactly one matrix per alphabet symbol'),
        ("oom", "operators", {"0": _I2},
         'field "operators" must have exactly one matrix per alphabet symbol'),
        ("oom", "operators", {"0": _I2, "1": _I2, "2": _I2},
         'field "operators" must have exactly one matrix per alphabet symbol'),
        ("oom", "operators", {"0": [[0.5]], "1": _I2},
         """field "operators['0']" must be a 2x2 row-major matrix"""),
        ("oom", "init", [1.0], 'field "init" must be a list of 2 numbers'),
        ("oom", "eval", 1.0, 'field "eval" must be a list of 2 numbers'),
        ("oom", "name", 3, 'field "name" must be a string'),
        ("oom", "description", ["x"], 'field "description" must be a string'),
        ("oom", "n_states", 2, "unknown field(s) 'n_states' in model file m.json"),
        *_missing("hmm", "alphabet", "n_states", "transition_emission", "init"),
        ("hmm", "alphabet", "01", 'field "alphabet" must be a non-empty list of strings'),
        ("hmm", "n_states", "2", 'field "n_states" must be an integer'),
        ("hmm", "n_states", -1, 'field "n_states" must be a positive integer'),
        ("hmm", "transition_emission", [_I2, _I2],
         'field "transition_emission" must have exactly one matrix per alphabet symbol'),
        ("hmm", "transition_emission", {"0": _I2},
         'field "transition_emission" must have exactly one matrix per alphabet symbol'),
        ("hmm", "transition_emission", {"0": _I2, "1": [[0.5, 0.0]]},
         """field "transition_emission['1']" must be a 2x2 row-major matrix"""),
        ("hmm", "init", [1.0, 0.0, 0.0], 'field "init" must be a list of 2 numbers'),
        ("hmm", "eval", [1.0, 1.0], "unknown field(s) 'eval' in model file m.json"),
        *_missing("ncoom", "algebra", "dim", "op_per_basis", "init", "eval"),
        ("ncoom", "algebra", [2], 'field "algebra" must be an object like {"blocks": [2, 1]}'),
        ("ncoom", "algebra", {"blocks": [2], "x": 1},
         "unknown field(s) 'x' in model file m.json, field \"algebra\""),
        ("ncoom", "algebra", {}, _BLOCKS),
        ("ncoom", "algebra", {"blocks": []}, _BLOCKS),
        ("ncoom", "algebra", {"blocks": 2}, _BLOCKS),
        ("ncoom", "algebra", {"blocks": [0]}, _BLOCKS),
        ("ncoom", "algebra", {"blocks": [True]}, _BLOCKS),
        ("ncoom", "algebra", {"blocks": [1.5]}, _BLOCKS),
        ("ncoom", "algebra", {"blocks": [1, 1]}, _OPS_COUNT.format(2)),
        ("ncoom", "dim", 0, 'field "dim" must be a positive integer'),
        ("ncoom", "op_per_basis", [[[[0.8, 0.0]]]] * 3, _OPS_COUNT.format(4)),
        ("ncoom", "op_per_basis", {"0": [[[0.8, 0.0]]]}, _OPS_COUNT.format(4)),
        ("ncoom", "op_per_basis", [[[[0.8, 0.0]]]] * 3 + [[[0.2, 0.0]]],
         'field "op_per_basis[3]" must be a 1x1 matrix of [re, im] pairs'),
        ("ncoom", "init", [[1.0, 0.0], [0.0, 0.0]],
         'field "init" must be a list of 1 [re, im] pairs'),
        ("ncoom", "eval", [1.0], 'field "eval" must hold complex numbers as [re, im] pairs'),
        ("ncoom", "alphabet", ["0"], "unknown field(s) 'alphabet' in model file m.json"),
    ],
)
def test_structural_schema_messages(tmp_path, kind, field, value, message):
    data = json.loads(json.dumps(_BASES[kind]))
    if value is _MISSING:
        del data[field]
    else:
        data[field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    for validate in (True, False):
        with pytest.raises(SchemaError) as err:
            parse_model_file(path, validate=validate)
        assert str(err.value) == message


@pytest.mark.parametrize("kind", _BASES)
def test_structural_schema_bases_round_trip(tmp_path, kind):
    # each case above differs from a valid file in its one field
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_BASES[kind]))
    assert serialize_model(parse_model_file(path)) == _BASES[kind]


# the literals json reads as NaN or +-inf, and an integer beyond the float range
_LITERALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "1e400": "1e400",
             "-1e400": "-1e400", "int400": "1" + "0" * 400}
non_finite = pytest.mark.parametrize("literal", list(_LITERALS.values()), ids=list(_LITERALS))


@non_finite
@pytest.mark.parametrize(
    "entry, number, field",
    [('"0": [[0.5, 0.0], [0.0, 0.5]]', "0.0", "operators['0']"),
     ('"init": [1.0, 0.0]', "0.0", "init"),
     ('"eval": [1.0, 1.0]', "1.0", "eval")],
)
def test_non_finite_numbers_are_schema_errors(tmp_path, literal, entry, number, field):
    text = json.dumps(_BASE).replace(entry, entry.replace(number, literal, 1))
    assert text != json.dumps(_BASE)
    path = tmp_path / "m.json"
    path.write_text(text)
    for validate in (True, False):
        with pytest.raises(SchemaError) as err:
            parse_model_file(path, validate=validate)
        assert str(err.value) == f'field "{field}" must be a finite number'


@non_finite
def test_non_finite_complex_entry_is_a_schema_error(tmp_path, literal):
    payload = json.dumps(serialize_model(ol.embed_classical(ol.bernoulli(0.5))))
    path = tmp_path / "q.json"
    path.write_text(payload.replace("[1.0, 0.0]", f"[1.0, {literal}]", 1))
    with pytest.raises(SchemaError, match="must be a finite number"):
        parse_model_file(path)


@non_finite
def test_non_finite_mixture_weight_is_a_schema_error(tmp_path, literal):
    save_model(ol.bernoulli(0.2), tmp_path / "a.json")
    (tmp_path / "mix.json").write_text(
        '{"type": "mixture", "parts": [{"weight": %s, "path": "a.json"}]}' % literal
    )
    with pytest.raises(SchemaError) as err:
        parse_model_file(tmp_path / "mix.json")
    assert str(err.value) == 'field "parts[0].weight" must be a finite number'


@non_finite
def test_non_finite_spec_number_is_a_schema_error(tmp_path, literal):
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"experiment": "upperbound", "model": "%s", "past_length": 2, "horizon": 2,'
        ' "max_level": 3, "tol_rel": %s}' % (fixture_path("markov2.json"), literal)
    )
    with pytest.raises(SchemaError) as err:
        model_io.parse_experiment_file(spec)
    assert str(err.value) == 'field "tol_rel" must be a finite number'


@pytest.mark.parametrize("field", ["tol_rel", "cluster_tol"])
def test_negative_spec_tolerance_is_a_schema_error(tmp_path, field):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "experiment": "upperbound", "model": fixture_path("markov2.json"),
        "past_length": 2, "horizon": 2, "max_level": 3, field: -1e-9,
    }))
    with pytest.raises(SchemaError) as err:
        model_io.parse_experiment_file(spec)
    assert str(err.value) == f'field "{field}" must be nonnegative'


def test_bulk_parse_matches_per_element_floats():
    ints = [0, -0, 1, -7, 2**53 + 1, -(2**53 + 1), 2**63 + 1, -(2**63 + 1), 2**64 + 3, 10**300]
    floats = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, 0.1]
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        pool = ints + floats + rng.normal(size=8).tolist()
        x = [[pool[int(rng.integers(len(pool)))] for _ in range(cols)] for _ in range(rows)]
        want = np.array([[float(v) for v in row] for row in x])
        got = model_io._as_matrix(x, "m", (rows, cols))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        bulk = model_io._real_array(x, [v for row in x for v in row], (rows, cols))
        assert bulk is not None and bulk.tobytes() == want.tobytes()
        got = model_io._as_vector(x[0], "v", cols)
        assert got.tobytes() == want[0].tobytes()
        assert model_io._real_array(x[0], x[0], (cols,)).tobytes() == want[0].tobytes()


# ---------------------------------------------------------------------------
# mixtures


def test_mixture_file_combines_parts():
    m = parse_model_file(fixture_path("mixture_2bern.json"))
    assert isinstance(m, ol.OomModel) and m.dim == 2
    assert ol.word_probability(m, "1") == pytest.approx(0.45, abs=1e-15)


def test_nested_mixture(tmp_path):
    save_model(ol.bernoulli(0.2), tmp_path / "a.json")
    save_model(ol.bernoulli(0.7), tmp_path / "b.json")
    (tmp_path / "inner.json").write_text(
        dumps_canonical(
            {
                "type": "mixture",
                "parts": [
                    {"weight": 0.5, "path": "a.json"},
                    {"weight": 0.5, "path": "b.json"},
                ],
            }
        )
    )
    (tmp_path / "outer.json").write_text(
        dumps_canonical(
            {
                "type": "mixture",
                "parts": [
                    {"weight": 0.5, "path": "inner.json"},
                    {"weight": 0.5, "path": "a.json"},
                ],
            }
        )
    )
    m = parse_model_file(tmp_path / "outer.json")
    expected = 0.5 * 0.45 + 0.5 * 0.2
    assert ol.word_probability(m, "1") == pytest.approx(expected, abs=1e-14)


def test_nc_mixture_file(tmp_path):
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
        dumps_canonical(
            {
                "type": "mixture",
                "parts": [
                    {"weight": 0.5, "path": "q1.json"},
                    {"weight": 0.5, "path": "q2.json"},
                ],
            }
        )
    )
    m = parse_model_file(tmp_path / "mix.json")
    assert isinstance(m, ol.NcOomModel) and m.dim == 2
    z = ol.AlgebraElement(alg, [np.diag([1.0, -1.0])])
    assert ol.nc_evaluate(m, [z]) == pytest.approx(0.2)


def test_mixed_classical_and_nc_parts_rejected(tmp_path):
    save_model(ol.bernoulli(0.5), tmp_path / "c.json")
    alg = ol.construct_algebra([2])
    q = ol.NcOomModel(
        algebra=alg,
        op_per_basis=np.array([[[0.8]], [[0.0]], [[0.0]], [[0.2]]], dtype=complex),
        init=[1.0],
        eval=[1.0],
    )
    save_model(q, tmp_path / "q.json")
    (tmp_path / "mix.json").write_text(
        dumps_canonical(
            {
                "type": "mixture",
                "parts": [
                    {"weight": 0.5, "path": "c.json"},
                    {"weight": 0.5, "path": "q.json"},
                ],
            }
        )
    )
    with pytest.raises(SchemaError, match="mixes classical"):
        parse_model_file(tmp_path / "mix.json")


# ---------------------------------------------------------------------------
# canonical emitter


def test_floats_emitted_with_17_significant_digits():
    text = dumps_canonical({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text


def test_canonical_output_is_stable():
    payload = serialize_model(ol.hmm_to_oom(ol.random_hmm(3, ("0", "1"), rng=7)))
    assert dumps_canonical(payload) == dumps_canonical(payload)


def test_non_finite_floats_rejected():
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("inf")})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", range(4))
def test_non_finite_float_anywhere_in_a_row_rejected(bad, position):
    row = [0.25, -0.0, 5e-324, 1e308]
    row[position] = bad
    for payload in (row, tuple(row), {"m": [[0.5] * 4, row]}, row + [math.nan]):
        with pytest.raises(ValueError) as err:
            dumps_canonical(payload)
        assert str(err.value) == f"cannot serialize non-finite float {bad!r}"


def _reference_canonical(obj) -> str:
    """The emitter written one element at a time."""

    def fmt(x, level: int) -> str:
        pad = " " * (2 * level)
        pad_in = " " * (2 * (level + 1))
        if x is None:
            return "null"
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            v = float(x)
            if not math.isfinite(v):
                raise ValueError(f"cannot serialize non-finite float {v!r}")
            return format(v, ".17g")
        if isinstance(x, str):
            return json.dumps(x)
        if isinstance(x, Mapping):
            if not x:
                return "{}"
            items = [f"{pad_in}{json.dumps(str(k))}: {fmt(v, level + 1)}" for k, v in x.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(x, (list, tuple, np.ndarray)):
            seq = list(x)
            if not seq:
                return "[]"
            items = [f"{pad_in}{fmt(v, level + 1)}" for v in seq]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(x).__name__}")

    return fmt(obj, 0) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e300, 1.0 / 3.0]
)
_leaves = (
    _finite
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.text(max_size=4)
    | _finite.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
)
_values = st.recursive(
    _leaves | st.lists(_finite, max_size=6) | st.lists(_finite, max_size=6).map(np.array),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_emitter_matches_per_element_reference(obj):
    assert dumps_canonical(obj) == _reference_canonical(obj)


def test_emitter_matches_reference_on_float_rows():
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e300]
    for _ in range(200):
        n = int(rng.integers(1, 40))
        row = (rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)).tolist()
        row[int(rng.integers(n))] = special[int(rng.integers(len(special)))]
        payload = {"row": row, "matrix": [row, row[::-1]], "mixed": row + [1]}
        assert dumps_canonical(payload) == _reference_canonical(payload)


_MODEL_FIXTURES = sorted(
    name for name in os.listdir(FIXTURES)
    if name.endswith(".json") and not name.startswith(("exp_", "mixture_"))
)


@pytest.mark.parametrize("name", _MODEL_FIXTURES)
def test_fixture_reserializes_byte_for_byte(name):
    path = fixture_path(name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert dumps_canonical(serialize_model(parse_model_file(path, validate=False))) == text


# ---------------------------------------------------------------------------
# shipped fixtures parse cleanly


@pytest.mark.parametrize(
    "name",
    [
        "bernoulli02.json",
        "bernoulli05.json",
        "bernoulli07.json",
        "bernoulli09.json",
        "markov2.json",
        "markov3.json",
        "period2.json",
        "period3.json",
        "mixture_2bern.json",
        "qubit_product.json",
    ],
)
def test_shipped_fixture_parses_and_validates(name):
    model = parse_model_file(fixture_path(name))
    assert model is not None
