import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oomlab as ol
from oomlab import ResourceLimitError, ValidationError, oom
from oomlab.dimension import _reduced
from oomlab.oom import _SAMPLE_BLOCK, DEFAULT_NEG_TOL, DEFAULT_RANK_TOL, STATIONARITY_TOL
from oomlab.oom import _classical_model, _functional_levels, _split_scan
from oomlab.processes import stationary_distribution

from curated import FUNCTIONAL_OVERFLOW, OVERFLOW, markov2, markov3, mixture_2bern
from curated import overflowing_model, phase0_p12
from curated import reversed_model, wide_models, wide_pair
from oracles import forward_probability, level_scan


# ---------------------------------------------------------------------------
# validation


def test_bernoulli_validates_with_zero_residuals():
    rep = ol.validate_oom(ol.bernoulli(0.5))
    assert rep.passed
    assert rep.condition1_residual == 0.0
    assert rep.condition2_residual == 0.0
    assert rep.most_negative_probability >= 0.0


def test_scaled_eval_fails_condition_one():
    m = ol.OomModel(
        alphabet=("0", "1"),
        operators={"0": [[0.5]], "1": [[0.5]]},
        init=[1.0],
        eval=[2.0],
    )
    rep = ol.validate_oom(m)
    assert not rep.passed
    assert rep.condition1_residual == pytest.approx(1.0)


def test_scaled_operator_fails_condition_two():
    base = ol.hmm_to_oom(ol.random_hmm(3, ("0", "1"), rng=5))
    ops = dict(base.operators)
    ops["1"] = 1.1 * ops["1"]
    broken = ol.OomModel(
        alphabet=base.alphabet, operators=ops, init=base.init, eval=base.eval
    )
    rep = ol.validate_oom(broken)
    expected = float(np.max(np.abs(broken.eval @ (sum(ops.values())) - broken.eval)))
    assert not rep.passed
    assert rep.condition2_residual == pytest.approx(expected, abs=0.0)


def test_shape_mismatch_raises():
    with pytest.raises(ValidationError):
        ol.OomModel(alphabet=("0", "1"), operators={"0": [[1.0]], "1": [[0.0, 0.0]]},
                    init=[1.0], eval=[1.0])
    with pytest.raises(ValidationError):
        ol.OomModel(alphabet=("0", "1"), operators={"0": [[1.0]], "1": [[0.0]]},
                    init=[1.0, 0.0], eval=[1.0])


# ---------------------------------------------------------------------------
# word probabilities


def test_bernoulli_word_probability():
    assert ol.word_probability(ol.bernoulli(0.5), "101") == pytest.approx(0.125, abs=1e-15)


def test_empty_word_is_one():
    assert ol.word_probability(ol.bernoulli(0.3), "") == 1.0


def test_unknown_symbol_rejected():
    with pytest.raises(ValueError, match="unknown symbol"):
        ol.word_probability(ol.bernoulli(0.3), "102")


def test_negativity_beyond_tolerance_raises():
    m = ol.OomModel(
        alphabet=("0", "1"),
        operators={"0": [[1.5]], "1": [[-0.5]]},
        init=[1.0],
        eval=[1.0],
    )
    with pytest.raises(ValidationError, match="below -neg_tol"):
        ol.word_probability(m, "1")


def test_tiny_negative_clamped_to_zero():
    eps = 1e-13
    m = ol.OomModel(
        alphabet=("0", "1"),
        operators={"0": [[1.0 + eps]], "1": [[-eps]]},
        init=[1.0],
        eval=[1.0],
    )
    assert ol.word_probability(m, "1") == 0.0


def test_hmm_oracle_matches_against_forward_on_random_words():
    hmm = ol.random_hmm(3, ("a", "b"), rng=11)
    m = ol.hmm_to_oom(hmm)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(0, 7))
        w = tuple(rng.choice(["a", "b"], size=n))
        assert ol.word_probability(m, w) == pytest.approx(
            forward_probability(hmm, w), abs=1e-12
        )


# ---------------------------------------------------------------------------
# hmm_to_oom


def test_one_state_hmm():
    hmm = ol.HmmModel(
        alphabet=("0", "1"),
        transition_emission={"0": [[0.3]], "1": [[0.7]]},
        init=[1.0],
    )
    m = ol.hmm_to_oom(hmm)
    assert m.dim == 1
    assert m.operators["1"][0, 0] == 0.7


def test_two_cycle_determinism_and_operator_order():
    m = ol.hmm_to_oom(ol.markov_chain([[0, 1], [1, 0]], labels=["A", "B"], init=[1, 0]))
    assert ol.word_probability(m, ("A", "B", "A", "B")) == pytest.approx(1.0)
    assert ol.word_probability(m, ("A", "A")) == 0.0
    # applying operators in the reverse order would claim "BA" instead
    state = m.operators["B"] @ (m.operators["A"] @ m.init)
    assert float(m.eval @ state) == pytest.approx(1.0)
    state_rev = m.operators["A"] @ (m.operators["B"] @ m.init)
    assert float(m.eval @ state_rev) == 0.0


def test_invalid_hmm_rejected(tmp_path):
    hmm = ol.HmmModel(("0", "1"), {"0": [[0.8]], "1": [[0.7]]}, init=[1.0])
    text = (
        "HMM failed validation: row-sum residual 5.000000e-01, "
        "init-sum residual 0.000000e+00, min entry 7.000000e-01"
    )
    with pytest.raises(ValidationError) as err:
        ol.hmm_to_oom(hmm)
    assert str(err.value) == text
    ol.save_model(hmm, tmp_path / "hmm.json")
    with pytest.raises(ValidationError) as err:
        ol.parse_model_file(tmp_path / "hmm.json")
    assert str(err.value) == text


def test_hmm_coercion_converts_once():
    hmm = markov2()
    induced = _classical_model(hmm)
    assert _classical_model(hmm) is induced
    assert ol.word_probability(hmm, "0110") == ol.word_probability(induced, "0110")
    # the public conversion still hands out a fresh model each call
    assert ol.hmm_to_oom(hmm) is not ol.hmm_to_oom(hmm)
    assert ol.hmm_to_oom(hmm) is not induced


def _arrays(m) -> list:
    """A model's operator stack, init and eval, as nested lists."""
    return [x.tolist() for x in (m.operator_stack, m.init, m.eval)]


@pytest.mark.parametrize(
    "call",
    [
        lambda p: ol.stationarity_check(p).to_dict(),
        lambda p: _arrays(ol.minimize_oom(p)),
        lambda p: ol.equivalent(p, ol.bernoulli(0.5), 4),
        lambda p: ol.sample_trajectory(p, 50, 3),
        lambda p: _arrays(ol.embed_classical(p)),
        lambda p: _arrays(ol.mixture_direct_sum([(0.5, p), (0.5, ol.bernoulli(0.3))])),
        lambda p: ol.run_additivity([(0.5, p), (0.5, ol.bernoulli(0.3))], 3).to_dict(),
        lambda p: ol.validate_oom(p).to_dict(),
        lambda p: ol.apply_tau(p, "0").tolist(),
    ],
    ids=["stationarity", "minimize", "equivalent", "sample", "embed", "mixture", "additivity",
         "validate", "apply_tau"],
)
def test_an_hmm_is_taken_as_the_model_it_induces(call):
    hmm = ol.periodic("01")
    assert call(hmm) == call(ol.hmm_to_oom(hmm))


# ---------------------------------------------------------------------------
# one operator stack


def _block_diagonal(a, b) -> np.ndarray:
    out = np.zeros((len(a) + len(b),) * 2)
    out[: len(a), : len(a)], out[len(a) :, len(a) :] = a, b
    return out


def _from_lists(tmp_path):
    ops = {"0": [[0.5, 0.25], [0.0, 0.125]], "1": [[0.25, 0.0], [0.5, 0.375]]}
    return ol.OomModel(("0", "1"), ops, [0.5, 0.5], [1.0, 1.0]), ops


def _induced(tmp_path):
    h = ol.random_hmm(5, "abc", rng=2)
    return ol.hmm_to_oom(h), {s: h.transition_emission[s].T for s in h.alphabet}


def _mixture(tmp_path):
    a, b = ol.bernoulli(0.3), ol.hmm_to_oom(markov2())
    ops = {s: _block_diagonal(a.operators[s], b.operators[s]) for s in a.alphabet}
    return ol.mixture_direct_sum([(0.5, a), (0.5, b)]), ops


def _minimized(tmp_path):
    m = ol.hmm_to_oom(ol.random_hmm(6, "01", rng=3))
    (ops, _, _), _ = _reduced(m, DEFAULT_RANK_TOL)
    return ol.minimize_oom(m), dict(zip(m.alphabet, ops))


def _parsed(tmp_path):
    m = ol.hmm_to_oom(ol.random_hmm(4, "xyz", rng=4))
    ol.save_model(m, tmp_path / "m.json")
    return ol.parse_model_file(tmp_path / "m.json"), m.operators


def _hmm(tmp_path):
    h = ol.random_hmm(4, "01", rng=5)
    mats = {s: h.transition_emission[s].copy() for s in h.alphabet}
    return ol.HmmModel(h.alphabet, mats, h.init), mats


@pytest.mark.parametrize("build", [_from_lists, _induced, _mixture, _minimized, _parsed, _hmm],
                         ids=["lists", "hmm_to_oom", "mixture", "minimize", "parsed", "hmm"])
def test_per_symbol_matrices_are_views_into_one_stack(build, tmp_path):
    model, inputs = build(tmp_path)
    views = getattr(model, "operators", None) or model.transition_emission
    stack = views[model.alphabet[0]].base
    assert stack.shape == (len(model.alphabet), *views[model.alphabet[0]].shape)
    assert stack.dtype == float and not stack.flags.writeable
    if isinstance(model, ol.OomModel):
        assert model.operator_stack is stack
    for i, s in enumerate(model.alphabet):
        view = views[s]
        assert view.base is stack and np.shares_memory(view, stack[i])
        assert view.flags.c_contiguous and not view.flags.writeable
        # converted into the stack: the model does not share its input's memory
        assert not np.shares_memory(view, np.asarray(inputs[s]))
        assert view.tobytes() == np.ascontiguousarray(inputs[s], dtype=float).tobytes()


def test_a_model_holds_its_operators_once():
    h = ol.random_hmm(120, string.ascii_lowercase, rng=0)
    stack = 26 * 120 * 120 * 8
    tracemalloc.start()
    try:
        m = ol.hmm_to_oom(h)
        peak = tracemalloc.get_traced_memory()[1]
        ol.stationarity_check(m)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # what the core call keeps beside the operators: their sum and the walk's factor
    kept = m.operator_sum.nbytes + sum(f.nbytes for _, f in vars(m)["_factor_walks"].values())
    assert held - kept <= 1.05 * stack
    assert peak <= 2.1 * stack


def test_the_closure_takes_no_svd_where_a_rank_is_known_or_unused(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    # depth 0 has one row a chain; the last depth's ranks are never compared
    for model, svds, level in (
        (markov2(), 1, 2),
        (markov3(), 2, 3),
        (ol.periodic("01"), 1, 2),
        (ol.periodic("012"), 2, 3),
        (mixture_2bern(), 1, 2),
    ):
        calls.clear()
        assert ol.stationarity_check(model, 6).level == level
        assert len(calls) == svds
    calls.clear()
    m = ol.minimize_oom(ol.hmm_to_oom(ol.random_hmm(16, "01", rng=0)))
    assert (m.dim, m._reduction["depth"], len(calls)) == (16, 6, 6)


# ---------------------------------------------------------------------------
# mixtures


def test_single_part_mixture_is_identity():
    b = ol.bernoulli(0.4)
    mix = ol.mixture_direct_sum([(1.0, b)])
    for w in ol.words_up_to(b.alphabet, 4):
        assert ol.word_probability(mix, w) == pytest.approx(
            ol.word_probability(b, w), abs=1e-14
        )


def test_two_part_mixture_value():
    mix = ol.mixture_direct_sum([(0.5, ol.bernoulli(0.2)), (0.5, ol.bernoulli(0.7))])
    assert ol.word_probability(mix, "1") == pytest.approx(0.45, abs=1e-15)


def test_three_part_mixture_linearity():
    parts = [(0.2, ol.bernoulli(0.1)), (0.3, ol.bernoulli(0.5)), (0.5, ol.bernoulli(0.8))]
    mix = ol.mixture_direct_sum(parts)
    for w in ol.words_up_to(mix.alphabet, 5):
        expected = sum(v * ol.word_probability(m, w) for v, m in parts)
        assert ol.word_probability(mix, w) == pytest.approx(expected, abs=1e-14)


def test_nested_mixtures_associate():
    a, b, c = ol.bernoulli(0.1), ol.bernoulli(0.5), ol.bernoulli(0.9)
    left = ol.mixture_direct_sum(
        [(0.6, ol.mixture_direct_sum([(0.5, a), (0.5, b)])), (0.4, c)]
    )
    flat = ol.mixture_direct_sum([(0.3, a), (0.3, b), (0.4, c)])
    for w in ol.words_up_to(a.alphabet, 5):
        assert ol.word_probability(left, w) == pytest.approx(
            ol.word_probability(flat, w), abs=1e-14
        )


def test_mixture_weight_sum_checked():
    with pytest.raises(ValidationError, match="sum"):
        ol.mixture_direct_sum([(0.5, ol.bernoulli(0.2)), (0.6, ol.bernoulli(0.7))])


@pytest.mark.parametrize(
    "weights", [(np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan), (0.5, np.inf)]
)
def test_mixture_weights_nan_or_inf_rejected(weights):
    parts = list(zip(weights, (ol.bernoulli(0.2), ol.bernoulli(0.7))))
    with pytest.raises(ValidationError, match="positive|sum"):
        ol.mixture_direct_sum(parts)


_HALF = 0.5 * np.eye(2)


def _with(x):
    return [[0.5, 0.0], [x, 0.5]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda x: ol.OomModel(("0", "1"), {"0": _HALF, "1": _HALF}, [0.5, 0.5], [1.0, x]),
         "eval"),
        (lambda x: ol.OomModel(("0", "1"), {"0": _HALF, "1": _HALF}, [x, 0.5], [1.0, 1.0]),
         "init"),
        (lambda x: ol.OomModel(("0", "1"), {"0": _HALF, "1": _with(x)}, [0.5, 0.5], [1.0, 1.0]),
         "operator for '1'"),
        (lambda x: ol.HmmModel(("0", "1"), {"0": _HALF, "1": _with(x)}, [0.5, 0.5]),
         "matrix for '1'"),
        (lambda x: ol.HmmModel(("0",), {"0": np.eye(2)}, [x, 1.0]), "init"),
        (lambda x: ol.NcOomModel(ol.construct_algebra([1]), [[[x]]], [1.0], [1.0]),
         "op_per_basis"),
        (lambda x: ol.NcOomModel(ol.construct_algebra([1]), [[[1.0]]], [1.0], [complex(1, x)]),
         "eval"),
    ],
)
def test_non_finite_entries_refused_by_the_constructors(build, field, bad):
    with pytest.raises(ValidationError, match=rf"^{field} has a non-finite entry$"):
        build(bad)


def test_nan_probability_refused_by_iid():
    with pytest.raises(ValidationError, match="non-finite"):
        ol.iid({"a": np.nan, "b": 1.0})


def test_mixture_alphabet_mismatch():
    with pytest.raises(ValidationError, match="alphabet"):
        ol.mixture_direct_sum(
            [(0.5, ol.bernoulli(0.2)), (0.5, ol.bernoulli(0.7, symbols=("a", "b")))]
        )


@pytest.mark.parametrize(
    "transition",
    [np.eye(3), [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]],
    ids=["identity", "two-classes"],
)
def test_several_stationary_distributions_rejected(transition):
    with pytest.raises(ValidationError, match="several stationary distributions"):
        stationary_distribution(transition)
    with pytest.raises(ValidationError, match="several stationary distributions"):
        ol.markov_chain(transition)


def test_reducible_chain_with_explicit_init():
    chain = ol.markov_chain(np.eye(2), init=[0.5, 0.5])
    assert ol.word_probability(chain, "00") == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# stationarity


def test_bernoulli_is_stationary_with_zero_residual():
    rep = ol.stationarity_check(ol.bernoulli(0.25))
    assert rep.stationary and rep.residual == 0.0


def _shift_gaps(m, depth):
    """``P(w) - sum_d P(dw)`` for every word up to ``depth``, from the
    enumerated functionals ``l T_w``."""
    shifted = m.init - m.operator_sum @ m.init
    return np.vstack(_functional_levels(m.operator_stack, m.eval, depth)) @ shifted


def test_two_cycle_phase_start_is_not_stationary():
    fixed = ol.hmm_to_oom(ol.markov_chain([[0, 1], [1, 0]], labels=["A", "B"], init=[1, 0]))
    rep = ol.stationarity_check(fixed)
    assert not rep.stationary and rep.level == 2  # its functional span closes at 2
    # P("B") = 0 but summing over one prepended symbol gives P("AB") = 1: at
    # each length one word of each phase is off by 1
    assert rep.residual == pytest.approx(np.linalg.norm(_shift_gaps(fixed, 2)), abs=1e-15)
    assert rep.residual == pytest.approx(2.0)
    uniform = ol.hmm_to_oom(
        ol.markov_chain([[0, 1], [1, 0]], labels=["A", "B"], init=[0.5, 0.5])
    )
    assert ol.stationarity_check(uniform).stationary


def test_mixture_of_stationary_parts_is_stationary():
    mix = ol.mixture_direct_sum(
        [(0.3, ol.bernoulli(0.2)), (0.7, ol.hmm_to_oom(markov2()))]
    )
    assert ol.stationarity_check(mix).stationary


def _random_stationarity_cases():
    """400 seeded induced models: random HMMs of 2-8 states over 2-3 symbols,
    each from its stationary init and from a random one."""
    rng = np.random.default_rng(2026)
    for i in range(200):
        n, k = int(rng.integers(2, 9)), int(rng.integers(2, 4))
        hmm = ol.random_hmm(n, [str(s) for s in range(k)], rng=i)
        total = sum(hmm.transition_emission[s] for s in hmm.alphabet)
        for init in (stationary_distribution(total), rng.dirichlet(np.ones(n))):
            yield ol.hmm_to_oom(ol.HmmModel(hmm.alphabet, hmm.transition_emission, init))


def test_complete_stationarity_check_matches_a_deep_scan():
    verdicts = []
    for m in _random_stationarity_cases():
        rep = ol.stationarity_check(m)
        shifted = m.init - m.operator_sum @ m.init
        deep = _split_scan(m.operator_stack, shifted, m.eval, 8)[1]
        assert rep.stationary == (deep <= STATIONARITY_TOL)
        assert rep.level <= m.dim
        for l in (0, 3, 6):
            shallow = ol.stationarity_check(m, l)
            assert shallow.level <= l
            gaps = np.linalg.norm(_shift_gaps(m, shallow.level))
            assert shallow.residual == pytest.approx(gaps, abs=1e-12, rel=0)
        verdicts.append(rep.stationary)
    assert 150 <= sum(verdicts) <= 250  # about one of each pair is stationary


def test_phase_started_period_twelve_is_not_stationary():
    m = phase0_p12()
    rep = ol.stationarity_check(m)
    assert not rep.stationary and rep.level == 12
    # the phases first differ at length 11: "0"*11 against "0"*10 + "1"
    assert rep.residual == pytest.approx(np.linalg.norm(_shift_gaps(m, 12)), abs=1e-15)
    assert rep.residual == pytest.approx(2.0)
    assert ol.stationarity_check(m, 10).stationary


# ---------------------------------------------------------------------------
# sampling


def test_degenerate_coin_samples_all_ones():
    assert ol.sample_trajectory(ol.bernoulli(1.0), 5, seed=0) == ("1",) * 5


def test_sampling_is_deterministic_given_seed():
    a = ol.sample_trajectory(ol.bernoulli(0.5), 200, seed=123)
    b = ol.sample_trajectory(ol.bernoulli(0.5), 200, seed=123)
    assert a == b
    c = ol.sample_trajectory(ol.bernoulli(0.5), 200, seed=124)
    assert a != c


def test_sampled_frequency_within_three_sigma():
    n = 100_000
    w = ol.sample_trajectory(ol.bernoulli(0.5), n, seed=2024)
    freq = sum(1 for s in w if s == "1") / n
    sigma = 0.5 / np.sqrt(n)
    assert abs(freq - 0.5) <= 3 * sigma


def test_long_trajectories_do_not_underflow():
    w = ol.sample_trajectory(ol.hmm_to_oom(markov2()), 5000, seed=9)
    assert len(w) == 5000 and set(w) <= {"0", "1"}


def reference_sample(m, length, seed, neg_tol=DEFAULT_NEG_TOL):
    """One scalar draw and a fresh conditional vector per step."""
    rng = np.random.default_rng(seed)
    ops = m.operator_stack
    state = m.init.copy()
    out = []
    for _ in range(length):
        cond = np.einsum("kij,j->ki", ops, state) @ m.eval
        if float(cond.min()) < -neg_tol:
            raise ValidationError(
                f"conditional mass {cond.min()} below -neg_tol while sampling; "
                "the model does not generate a probability distribution"
            )
        cond = np.clip(cond, 0.0, None)
        total = float(cond.sum())
        if total <= 0.0:
            raise ValidationError("no probability mass left while sampling")
        cond /= total
        u = rng.random()
        idx = min(int(np.searchsorted(np.cumsum(cond), u, side="right")), len(cond) - 1)
        sym = m.alphabet[idx]
        out.append(sym)
        state = m.operators[sym] @ state
        state /= float(m.eval @ state)
    return tuple(out)


def reference_hidden_sample(m, length, seed):
    """The hidden chain of a certified model with a positive eval, one scalar
    draw a step: from hidden coordinate ``i`` the pair ``(s, j)``, at flat
    index ``s * d + j``, with weight ``l_j T_s[j, i]``, and first with weight
    ``l_j (T_s v)_j``; a draw never lands past the first running sum that
    reaches the row's total."""
    rng = np.random.default_rng(seed)
    ops, d = m.operator_stack, m.dim
    weights = m.eval * (ops @ m.init)
    out = []
    for _ in range(length):
        sums = np.cumsum(weights.ravel())
        end = int(np.searchsorted(sums, sums[-1], side="left"))
        idx = min(int(np.searchsorted(sums, rng.random() * sums[-1], side="right")), end)
        s, i = divmod(idx, d)
        out.append(m.alphabet[s])
        weights = m.eval * ops[:, :, i]
    return tuple(out)


def test_sampler_matches_the_per_step_loop():
    alphabets = ("01", "abc", "abcdef", "abcdefghij")
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        h = ol.random_hmm(int(rng.integers(1, 13)), alphabets[seed % 4], rng=rng)
        m = ol.hmm_to_oom(h)
        assert ol.sample_trajectory(m, 40, seed) == reference_hidden_sample(m, 40, seed), seed


@pytest.mark.parametrize("blocks, extra", [(0, 0), (1, -1), (1, 0), (1, 1), (3, 0)])
def test_sampler_across_uniform_blocks(blocks, extra):
    length = blocks * _SAMPLE_BLOCK + extra
    m = ol.hmm_to_oom(ol.random_hmm(5, "abc", rng=4))
    w = ol.sample_trajectory(m, length, 17)
    assert len(w) == length and w == reference_hidden_sample(m, length, 17)


def similar(m, rng):
    """The same process through ``A T_s A^-1``, ``A v`` and ``l A^-1``, with
    the first row of ``A`` negated so that some entry of ``A v`` is negative."""
    a = rng.normal(size=(m.dim, m.dim)) + 2.0 * np.eye(m.dim)
    a[0] = -a[0] if (a @ m.init)[0] > 0 else a[0]
    inv = np.linalg.inv(a)
    ops = {s: a @ t @ inv for s, t in m.operators.items()}
    return ol.OomModel(m.alphabet, ops, a @ m.init, m.eval @ inv)


def test_sampler_matches_the_per_step_loop_on_signed_models():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        h = ol.random_hmm(int(rng.integers(2, 7)), ("01", "abc", "abcdef")[seed % 3], rng=rng)
        m = similar(ol.hmm_to_oom(h), rng)
        assert (m.init < 0).any()
        assert ol.sample_trajectory(m, 200, seed) == reference_sample(m, 200, seed), seed


@pytest.mark.parametrize(
    "m",
    [
        # signed, so that the belief walk carries, and rescales, its state
        similar(ol.hmm_to_oom(ol.random_hmm(5, "abcdefghij", rng=8)), np.random.default_rng(8)),
        ol.iid({chr(ord("a") + i): 1 / 26 for i in range(26)}),
    ],
    ids=["hmm10", "coin26"],
)
def test_sampler_rescales_masses_beyond_double_range(m):
    # the word's probability falls about 10x a step (26x for the coin), to below 1e-3000
    length = 3 * _SAMPLE_BLOCK + 5
    w = ol.sample_trajectory(m, length, 5)
    assert w == reference_sample(m, length, 5)
    assert len(set(w)) == len(m.alphabet)


def test_sampler_clamps_conditionals_within_tolerance():
    h = ol.hmm_to_oom(ol.random_hmm(3, "ab", rng=6))

    def negative_symbol(eps):
        # "n" takes eps of "a"'s operator with a minus sign: P(n | w) = -eps always
        shift = eps * np.eye(3)
        ops = {"a": h.operators["a"] + shift, "n": -shift, "b": h.operators["b"]}
        return ol.OomModel(("a", "n", "b"), ops, h.init, h.eval)

    m = negative_symbol(0.5 * DEFAULT_NEG_TOL)
    for seed in range(20):
        w = ol.sample_trajectory(m, 2000, seed)
        assert w == reference_sample(m, 2000, seed), seed
        assert "n" not in w
    with pytest.raises(ValidationError, match="below -neg_tol"):
        ol.sample_trajectory(negative_symbol(5 * DEFAULT_NEG_TOL), 10, 0)


def test_sampler_errors_keep_their_messages():
    signed = ol.OomModel(("0", "1"), {"0": [[1.2]], "1": [[-0.2]]}, [1.0], [1.0])
    negative = (
        "conditional mass -0.2 below -neg_tol while sampling; "
        "the model does not generate a probability distribution"
    )
    # e1 -> e2 under "0", then every operator kills e2
    dead_end = ol.OomModel(
        ("0", "1"), {"0": [[0.0, 0.0], [1.0, 0.0]], "1": np.zeros((2, 2))}, [1.0, 0.0], [1.0, 1.0]
    )
    assert ol.sample_trajectory(dead_end, 1, 0) == reference_sample(dead_end, 1, 0) == ("0",)
    for m, length, message in (
        (signed, 1, negative),
        (dead_end, 2, "no probability mass left while sampling"),
    ):
        for sample in (ol.sample_trajectory, reference_sample):
            with pytest.raises(ValidationError) as err:
                sample(m, length, 0)
            assert str(err.value) == message


def certified_model(seed):
    """HMMs of 1 to 12 states over 2 to 10 symbols, every fourth a mixture of
    two, and every third written in a positive diagonal basis, so that its
    ``eval`` is not all ones: each is certified, with a positive ``eval``."""
    rng = np.random.default_rng(seed)
    alphabet = "abcdefghij"[: 2 + seed % 9]

    def hmm():
        return ol.hmm_to_oom(ol.random_hmm(int(rng.integers(1, 13)), alphabet, rng=rng))

    if seed % 4 == 0:
        w = float(rng.uniform(0.1, 0.9))
        m = ol.mixture_direct_sum([(w, hmm()), (1.0 - w, hmm())])
    else:
        m = hmm()
    if seed % 3 == 0:
        scale = rng.uniform(0.1, 10.0, m.dim)
        ops = {s: scale[:, None] * t / scale for s, t in m.operators.items()}
        m = ol.OomModel(m.alphabet, ops, scale * m.init, m.eval / scale)
    assert oom._certified(m) and (m.eval > 0).all()
    return m


def split_values(ops, init, evalv, half=3):
    """``evalv T_w T_u init``, the value of the word ``u w``, at row ``u`` and
    column ``w`` for all words of up to ``half`` symbols, each length in lex
    order: the values of every word up to length ``2 half``."""
    states, functionals = [init[None]], [evalv[None]]
    for _ in range(half):
        states.append(np.einsum("kij,nj->nki", ops, states[-1]).reshape(-1, init.size))
        functionals.append(np.einsum("nj,kji->kni", functionals[-1], ops).reshape(-1, init.size))
    return np.vstack(states) @ np.vstack(functionals).T


def test_the_hidden_chain_has_the_models_law():
    # the forward sums over hidden paths of the kernel l_j T_s[j, i] / (l sum_s T_s)_i,
    # entered with weights l_j (T_s v)_j, that is from the hidden law
    # (l sum_s T_s)_i v_i over its total
    for seed in range(216):
        m = certified_model(seed)
        ops, l, v = m.operator_stack, m.eval, m.init
        rows = (l[:, None] * ops).sum(axis=(0, 1))
        kernel = l[:, None] * ops / rows
        start = rows * v / (rows @ v)
        law = split_values(ops, v, l)
        np.testing.assert_allclose(split_values(kernel, start, np.ones(m.dim)), law,
                                   rtol=1e-12, atol=0.0, err_msg=str(seed))
        k = len(m.alphabet)

        def at(word):
            shorter = sum(k**j for j in range(len(word)))
            return shorter + sum(s * k**j for j, s in enumerate(reversed(word)))

        for u, w in (([], []), ([0], []), ([k - 1, 0], [1]), ([0, k - 1, 1], [0, k - 1, 1])):
            expected = ol.word_probability(m, [m.alphabet[s] for s in u + w])
            assert law[at(u), at(w)] == pytest.approx(expected, rel=1e-12, abs=0.0), seed


def test_a_hidden_sample_has_the_word_frequencies_of_its_law():
    # started stationary, so that each window of two symbols has the same law
    hmm = ol.random_hmm(4, "abc", rng=5)
    pi = stationary_distribution(sum(hmm.transition_emission.values()))
    m = ol.hmm_to_oom(ol.HmmModel(hmm.alphabet, hmm.transition_emission, pi))
    n, batches = 100_000, 50
    w = ol.sample_trajectory(m, n, 7)
    for pair in ((a, b) for a in m.alphabet for b in m.alphabet):
        p = ol.word_probability(m, pair)
        hits = np.array([w[t : t + 2] == pair for t in range(n - 1)])
        means = hits[: (n - 1) // batches * batches].reshape(batches, -1).mean(axis=1)
        error = max(means.std(ddof=1) / np.sqrt(batches), np.sqrt(p * (1 - p) / (n - 1)))
        assert abs(hits.mean() - p) <= 6 * error, pair


def test_a_row_of_zero_total_takes_the_belief_walk():
    # l sum_s T_s = [1 + 5e-14, 0] is within the certified residual of l = [1, 1e-13],
    # but the hidden coordinate 2 has no way out
    ops = {"0": [[0.5, 0.0], [0.5, 0.0]], "1": [[0.5, 0.0], [0.0, 0.0]]}
    m = ol.OomModel(("0", "1"), ops, [1.0, 0.0], [1.0, 1e-13])
    assert oom._certified(m) and oom._hidden_table(m) is None
    for seed in range(10):
        assert ol.sample_trajectory(m, 2000, seed) == reference_sample(m, 2000, seed), seed


def test_the_hidden_chains_table_is_charged(monkeypatch):
    def make():
        return ol.hmm_to_oom(ol.random_hmm(5, "abc", rng=4))

    m = make()
    # a row for each of the 5 hidden coordinates and one for the first draw, of 3 * 5 pairs
    monkeypatch.setattr(oom, "MAX_HELD", 6 * 3 * 5)
    assert ol.sample_trajectory(m, 500, 3) == reference_hidden_sample(m, 500, 3)
    monkeypatch.setattr(oom, "MAX_HELD", 6 * 3 * 5 - 1)
    with pytest.raises(ResourceLimitError, match="^the hidden chain's 6 rows of 15 pairs"):
        ol.sample_trajectory(make(), 500, 3)
    # the model keeps its table, so its next sample builds and charges nothing
    assert ol.sample_trajectory(m, 500, 4) == reference_hidden_sample(m, 500, 4)


def test_a_sample_builds_the_hidden_chain_once(monkeypatch):
    m = ol.hmm_to_oom(ol.random_hmm(6, "abcd", rng=2))
    want = {seed: ol.sample_trajectory(ol.hmm_to_oom(ol.random_hmm(6, "abcd", rng=2)), 30, seed)
            for seed in range(20)}
    built = []
    table = oom._hidden_table
    monkeypatch.setattr(oom, "_hidden_table", lambda m: built.append(m) or table(m))
    assert all(ol.sample_trajectory(m, 30, seed) == want[seed] for seed in range(20))
    assert built == [m]


def test_the_belief_walk_is_charged_and_holds_no_more(monkeypatch):
    # signed by the change of basis, so that the belief walk samples it
    m = similar(ol.hmm_to_oom(ol.random_hmm(120, string.ascii_lowercase, rng=0)),
                np.random.default_rng(0))
    m.operator_sum, m._hidden_chain  # formed before tracing
    charged = []

    def spy(what, values, held):
        charged.append((what, values, held))
        budget(what, values, held)

    budget = oom._budget
    monkeypatch.setattr(oom, "_budget", spy)
    tracemalloc.start()
    try:
        w = ol.sample_trajectory(m, 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w == reference_sample(m, 10, 0)
    fused = 26 * (120 + 2 * 26) * 120  # the 26 operators G_s of 172 rows
    assert [(what, values) for what, values, _ in charged] == [
        ("the belief walk's 26 fused operators of 172 rows", fused)]
    assert peak <= 8 * charged[0][2]
    monkeypatch.setattr(oom, "MAX_HELD", fused)
    with pytest.raises(ResourceLimitError, match="^the belief walk's 26 fused operators"):
        ol.sample_trajectory(m, 10, 0)


# ---------------------------------------------------------------------------
# consistency invariants


@pytest.mark.parametrize(
    "model",
    [
        ol.bernoulli(0.5),
        ol.hmm_to_oom(markov2()),
        ol.mixture_direct_sum([(0.5, ol.bernoulli(0.2)), (0.5, ol.bernoulli(0.7))]),
    ],
    ids=["iid", "markov2", "mixture"],
)
def test_kolmogorov_consistency_to_depth_eight(model):
    assert ol.kolmogorov_residual(model, 8) <= 1e-10


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_kolmogorov_model_and_table_paths_agree(depth):
    # invalid on purpose: the symbol sum scales mass by 1.1, so every gap is
    # 0.1 P(w); the one-state span closes at depth 1, so the residual covers
    # the words up to min(depth - 1, 1)
    m = ol.OomModel(("0", "1"), {"0": [[0.6]], "1": [[0.5]]}, [1.0], [1.0])
    covered = min(depth - 1, 1)
    table = {w: ol.word_probability(m, w) for w in ol.words_up_to(m.alphabet, covered + 1)}
    table_path = np.linalg.norm(
        [sum(table[w + (d,)] for d in m.alphabet) - table[w]
         for w in ol.words_up_to(m.alphabet, covered)]
    ) if depth else 0.0
    model_path = ol.kolmogorov_residual(m, depth)
    assert model_path == pytest.approx(table_path, abs=1e-15)
    # 0.1 at the empty word, and 0.1 * sqrt(1 + 0.6^2 + 0.5^2) with words of length 1
    assert model_path == pytest.approx([0.0, 0.1, 0.1 * 1.61**0.5, 0.1 * 1.61**0.5][depth])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["a", "b"]), max_size=6))
def test_consistency_pointwise_random_words(word):
    hmm = ol.random_hmm(3, ("a", "b"), rng=21)
    m = ol.hmm_to_oom(hmm)
    w = tuple(word)
    total = sum(ol.word_probability(m, w + (d,)) for d in m.alphabet)
    assert total == pytest.approx(ol.word_probability(m, w), abs=1e-12)


def test_hmm_coerces_to_oracle_directly():
    hmm = markov2()
    assert ol.word_probability(hmm, "0") == pytest.approx(2 / 3, abs=1e-12)


def _block(b):
    return b.pasts, b.futures, b.matrix.tolist(), b.singular_values.tolist()


def _prediction(pd):
    return pd.past, pd.weight, pd.dist.tolist()


def _partition(c):
    return c.to_dict(), [s.representative.tolist() for s in c.states]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda p: ol.word_probability(p, "0110"), id="word_probability"),
        pytest.param(lambda p: ol.kolmogorov_residual(p, 6), id="kolmogorov_residual"),
        pytest.param(lambda p: _block(ol.build_hankel(p, 3, 2)), id="build_hankel"),
        pytest.param(lambda p: ol.process_dimension(p, 4).to_dict(), id="process_dimension"),
        pytest.param(lambda p: _prediction(ol.predictive_distribution(p, "01", 2)),
                     id="predictive_distribution"),
        pytest.param(lambda p: _partition(ol.enumerate_causal_states(p, 3, 2)),
                     id="enumerate_causal_states"),
        pytest.param(lambda p: _partition(ol.empirical_causal_states(p, 2, 1, n_windows=500)),
                     id="empirical_causal_states"),
        pytest.param(
            lambda p: (ol.cylinder_distance(p, ol.bernoulli(0.6), 5),
                       ol.cylinder_distance(ol.bernoulli(0.6), p, 5)),
            id="cylinder_distance",
        ),
        pytest.param(lambda p: ol.run_upperbound(p, 3, 2, 4).to_dict(), id="run_upperbound"),
    ],
)
def test_hmm_input_equals_its_induced_model(call):
    hmm = markov2()
    assert call(hmm) == call(ol.hmm_to_oom(hmm))
    with pytest.raises(TypeError, match=r"^expected an OomModel or HmmModel, got str$"):
        call("01")


def test_multicharacter_alphabets_need_explicit_sequences():
    m = ol.bernoulli(0.4, symbols=("lo", "hi"))
    assert ol.word_probability(m, ("hi", "lo")) == pytest.approx(0.4 * 0.6)
    with pytest.raises(ValueError, match="ambiguous"):
        ol.word_probability(m, "lohi")


# ---------------------------------------------------------------------------
# split-word scan and depths


def _scan_cases():
    """(ops, vector, covector, depth) for 216 seeded models, every depth 0-8
    for each kind: induced models of random HMMs, and unconstrained real
    models, which mostly take negative values."""
    rng = np.random.default_rng(606)
    cases = []
    for i in range(216):
        kind, depth = divmod(i, 9)
        k, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        if kind % 2 == 0:
            m = ol.hmm_to_oom(ol.random_hmm(d, [str(s) for s in range(k)], rng=i))
            cases.append((m.operator_stack, m.init, m.eval, depth))
            continue
        ops, v, l = rng.normal(size=(k, d, d)), rng.normal(size=d), rng.normal(size=d)
        cases.append((ops / (k * np.sqrt(d)), v, l, depth))
    return cases


def test_split_scan_matches_level_scan():
    negative = 0
    for ops, v, l, depth in _scan_cases():
        lowest, largest = _split_scan(ops, v, l, depth)
        ref_lowest, ref_largest = level_scan(ops, v, l, depth)
        scale = 1e-13 * max(1.0, ref_largest)
        assert lowest == pytest.approx(ref_lowest, abs=scale, rel=0)
        assert largest == pytest.approx(ref_largest, abs=scale, rel=0)
        negative += ref_lowest < 0
    assert negative >= 75  # most of the 108 unconstrained models are invalid


def _abs_chunk_scan(ops, v, l, depth):
    """``_split_scan`` with each chunk's largest magnitude taken as
    ``np.abs(block).max()``."""
    states = np.vstack(oom._state_levels(ops, v, (depth + 1) // 2))
    functionals = np.vstack(oom._functional_levels(ops, l, depth // 2)).T
    lowest, largest = np.inf, 0.0
    step = max(1, oom._SCAN_CHUNK // functionals.shape[1])
    for start in range(0, states.shape[0], step):
        block = states[start : start + step] @ functionals
        lowest = min(lowest, float(block.real.min()))
        largest = max(largest, float(np.abs(block).max()))
    return lowest, largest


@pytest.mark.parametrize("chunk", [oom._SCAN_CHUNK, 64])
def test_split_scan_equals_abs_formula_exactly(monkeypatch, chunk):
    monkeypatch.setattr(oom, "_SCAN_CHUNK", chunk)
    rng = np.random.default_rng(313)
    for i in range(60):
        k, d, depth = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(0, 9))
        a = ol.hmm_to_oom(ol.random_hmm(d, [str(s) for s in range(k)], rng=i))
        b = ol.hmm_to_oom(ol.random_hmm(int(rng.integers(1, 6)), a.alphabet, rng=1000 + i))
        for args in ((a.operator_stack, a.init, a.eval), oom._difference(a, b)):
            assert _split_scan(*args, depth) == _abs_chunk_scan(*args, depth)


def test_split_scan_guard_refuses_before_enumerating():
    ops = ol.bernoulli(0.5).operator_stack
    with pytest.raises(
        ResourceLimitError,
        match=r"^scanning to depth 26 would take 268402689 values and hold 294910 entries; "
        r"the budget is 134217728 values and 4194304 entries$",
    ):
        _split_scan(ops, np.ones(1), np.ones(1), 26)


_COIN = ol.bernoulli(0.5)


@pytest.mark.parametrize(
    "call",
    [
        # each factor walk of the wide model is refused at its step to depth 3
        pytest.param(lambda m, e: ol.build_hankel(m, 3, 3), id="hankel-model"),
        pytest.param(lambda m, e: ol.nc_hankel(e, 3, 3), id="nc-hankel"),
        pytest.param(lambda m, e: ol.minimize_oom(m), id="minimize"),
        pytest.param(lambda m, e: ol.stationarity_check(m), id="stationarity"),
        pytest.param(lambda m, e: ol.kolmogorov_residual(m, 8), id="kolmogorov-model"),
        pytest.param(lambda m, e: ol.nc_stationarity_check(e), id="nc-stationarity"),
        # the closure of the pair's difference, at its candidates of length 3
        pytest.param(lambda m, e: ol.equivalent(*wide_pair(), 3), id="equivalent"),
        pytest.param(lambda m, e: ol.enumerate_causal_states(_COIN, 12, 16), id="causal-model"),
        pytest.param(lambda m, e: ol.predictive_distribution(_COIN, "0", 23),
                     id="predictive-model"),
        pytest.param(lambda m, e: ol.empirical_causal_states(_COIN, 40, 22, n_windows=2),
                     id="empirical"),
        pytest.param(lambda m, e: ol.cylinder_distance(_COIN, ol.bernoulli(0.4), 26),
                     id="cylinder"),
    ],
)
def test_oversized_requests_are_refused_before_allocating(call):
    wide = wide_models()  # the inputs, formed before tracing
    wide_pair()
    tracemalloc.start()
    try:
        with pytest.raises(
            ResourceLimitError,
            match=r"^.+ would take \d+ values and hold \d+ entries; "
            r"the budget is 134217728 values and 4194304 entries$",
        ):
            call(*wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_stationarity_and_consistency_checks_list_no_word():
    """Each walks at most d + 1 factor steps, however deep it is asked to go."""
    tracemalloc.start()
    try:
        rep = ol.stationarity_check(_COIN, 26)
        nc = ol.nc_stationarity_check(ol.embed_classical(_COIN), 26)
        consistency = ol.kolmogorov_residual(_COIN, 27)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.residual, rep.level, nc.residual, nc.level, consistency) == (0.0, 1, 0.0, 1, 0.0)
    assert peak < 2**20


def test_validate_scans_to_the_asked_depth_within_the_guard():
    # binary depth 25 takes 134193153 word pairs, depth 26 twice the guard
    for asked, checked in [(0, 0), (3, 3), (30, 25)]:
        rep = ol.validate_oom(ol.bernoulli(0.5), l_val=asked)
        assert rep.passed and rep.checked_depth == checked


@pytest.mark.parametrize(
    "check, name",
    [
        (lambda m: ol.validate_oom(m, l_val=-1), "l_val"),
        (lambda m: ol.stationarity_check(m, l=-1), "l"),
        (lambda m: ol.kolmogorov_residual(m, -1), "depth"),
        (lambda m: ol.sample_trajectory(m, -1, 0), "length"),
        (lambda m: ol.build_hankel(m, 2, -1), "l_future"),
        (lambda m: ol.nc_hankel(ol.embed_classical(m), -1, 2), "l_past"),
        (lambda m: ol.equivalent(ol.bernoulli(0.3), ol.bernoulli(0.4), -1), "l"),
        (lambda m: ol.predictive_distribution(m, "0", -1), "horizon"),
        (lambda m: ol.enumerate_causal_states(m, 2, -1), "horizon"),
        (lambda m: ol.enumerate_causal_states(m, -1, 2), "past_length"),
        (lambda m: ol.empirical_causal_states(m, -1, 2), "past_length"),
        (lambda m: ol.empirical_causal_states(m, 2, -1), "horizon"),
        (lambda m: ol.cylinder_distance(m, ol.bernoulli(0.4), -1), "l"),
    ],
    ids=["validate", "stationarity", "kolmogorov-model", "sample", "hankel", "nc-hankel",
         "equivalent", "predictive", "causal-horizon", "causal-past", "empirical-past",
         "empirical-horizon", "cylinder"],
)
def test_negative_depths_rejected(check, name):
    with pytest.raises(ValueError, match=rf"^{name} must be nonnegative$"):
        check(ol.bernoulli(0.5))


def test_overflowing_word_values_are_not_dropped(tmp_path):
    m = overflowing_model()
    for check, depth in (
        (lambda: ol.validate_oom(m), 8),
        (lambda: ol.kolmogorov_residual(m, 6), 2),
    ):
        with pytest.raises(ValidationError) as err:
            check()
        assert str(err.value) == OVERFLOW.format(depth)
    # the check reads only the functionals l T_w, which stay finite: a fair coin
    rep = ol.stationarity_check(m, 6)
    assert rep.stationary and (rep.residual, rep.level) == (0.0, 2)
    assert ol.word_probability(m, "0") == 0.5
    with pytest.raises(
        ValidationError,
        match=r"^word \('0', '0'\) has probability nan: its state image overflows the float range$",
    ):
        ol.word_probability(m, "00")
    # its signs certify it, so it loads without the scan
    path = tmp_path / "overflow.json"
    ol.save_model(m, path)
    assert ol.parse_model_file(path).operators["0"][1, 0] == 1e308


@pytest.mark.parametrize(
    "call, message",
    [
        # the stationarity checks read functionals, which overflow in the reversal
        (lambda m: ol.stationarity_check(reversed_model(m)), FUNCTIONAL_OVERFLOW.format(2)),
        (lambda m: ol.kolmogorov_residual(m, 6), OVERFLOW.format(2)),
        (lambda m: ol.nc_stationarity_check(ol.embed_classical(reversed_model(m))),
         FUNCTIONAL_OVERFLOW.format(2)),
        (lambda m: ol.validate_ncoom(ol.embed_classical(m)), OVERFLOW.format(4)),
        (lambda m: ol.validate_oom(m), OVERFLOW.format(8)),
        (lambda m: ol.cylinder_distance(m, ol.bernoulli(0.5), 4), OVERFLOW.format(4)),
        (lambda m: ol.equivalent(m, ol.bernoulli(0.3), 4), OVERFLOW.format(4)),
        (lambda m: ol.equivalent(ol.bernoulli(0.3), m, 4), OVERFLOW.format(4)),
        (lambda m: ol.minimize_oom(m), OVERFLOW.format(2)),
        (lambda m: ol.minimize_oom(reversed_model(m)), FUNCTIONAL_OVERFLOW.format(2)),
        (lambda m: ol.run_additivity([(0.5, m), (0.5, ol.bernoulli(0.3))], 2),
         OVERFLOW.format(3)),
        (lambda m: ol.run_upperbound(m, 2, 2, 3), OVERFLOW.format(4)),
        # "1", "0", "0" and "0" are drawn, and the image of "100" has overflowed
        (lambda m: ol.sample_trajectory(m, 12, 0), OVERFLOW.format(5)),
        (lambda m: ol.enumerate_causal_states(m, 2, 2), OVERFLOW.format(4)),
    ],
    ids=["stationarity_check", "kolmogorov_residual", "nc_stationarity_check",
         "validate_ncoom", "validate_oom", "cylinder_distance", "equivalent",
         "equivalent-reversed", "minimize_oom", "minimize_oom-reversed", "run_additivity",
         "run_upperbound", "sample_trajectory", "enumerate_causal_states"],
)
def test_every_entry_point_refuses_an_overflow(call, message):
    """Each refuses through the scan, closure, density check or sampling step
    it runs, naming the image that overflowed, with no warning from the
    overflowed arithmetic."""
    with pytest.raises(ValidationError) as err:
        call(overflowing_model())
    assert str(err.value) == message


def test_parameters_summing_past_the_float_range_are_refused():
    # every word of length one has value 1e308; their sum and longer words overflow
    m = ol.OomModel(("0", "1"), {"0": [[1e308]], "1": [[1e308]]}, [1.0], [1.0])
    residuals = (
        "condition-1 residual 0.000000e+00, condition-2 residual inf: "
        "a sum of the model's parameters overflows the float range"
    )
    for model, validate in ((m, ol.validate_oom), (ol.embed_classical(m), ol.validate_ncoom)):
        with pytest.raises(ValidationError) as err:
            validate(model, 1)
        assert str(err.value) == residuals
    # each one-symbol value is finite; their sum is not, so no symbol is drawn
    with pytest.raises(ValidationError) as err:
        ol.sample_trajectory(m, 3, 0)
    assert str(err.value) == residuals
