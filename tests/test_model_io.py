import json

import numpy as np
import pytest

import oomlab as ol
from oomlab import SchemaError, ValidationError, model_io
from oomlab.model_io import dumps_canonical, parse_model_file, save_model, serialize_model

from conftest import fixture_path
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


@pytest.mark.parametrize(
    "n_symbols, depth", [(2, 8), (6, 8), (7, 8), (10, 8), (11, 7), (16, 6), (26, 5)]
)
def test_checked_depth_on_load(tmp_path, monkeypatch, n_symbols, depth):
    reports = []

    def recording(model):
        reports.append(ol.validate_oom(model))
        return reports[-1]

    monkeypatch.setattr(model_io, "validate_oom", recording)
    coin = ol.iid({str(i): 1 / n_symbols for i in range(n_symbols)})
    path = tmp_path / "coin.json"
    save_model(coin, path)
    _assert_oom_equal(parse_model_file(path), coin)
    assert [(r.passed, r.checked_depth) for r in reports] == [(True, depth)]


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
