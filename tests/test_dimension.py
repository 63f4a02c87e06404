from fractions import Fraction

import tracemalloc

import numpy as np
import pytest

import oomlab as ol
from oomlab import ResourceLimitError, ValidationError
from oomlab.dimension import MIN_RANK_MARGIN
from oomlab.oom import _SCAN_CHUNK, _clamp_probabilities, _functional_levels, _state_levels

from conftest import fixture_path
from curated import curated_suite, markov2, markov3, mixture_2bern, overflowing_model
from curated import signed_coin_mixture
from oracles import (
    RationalBernoulli,
    RationalMarkovChain,
    RationalMixture,
    enumerating_equivalent,
    rational_hankel,
    rational_model_dimension,
    rational_periodic,
    rational_rank,
)


# ---------------------------------------------------------------------------
# tau images


def test_empty_word_gives_initial_vector():
    m = ol.bernoulli(0.3)
    assert np.array_equal(ol.apply_tau(m, ""), m.init)


def test_single_symbol_image():
    assert ol.apply_tau(ol.bernoulli(0.3), "1") == pytest.approx([0.3])


def test_eval_of_tau_image_is_word_probability():
    m = ol.hmm_to_oom(ol.random_hmm(4, ("0", "1", "2"), rng=2))
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(0, 6))
        w = tuple(rng.choice(list(m.alphabet), size=n))
        lhs = float(m.eval @ ol.apply_tau(m, w))
        assert lhs == pytest.approx(ol.word_probability(m, w), abs=1e-12)


# ---------------------------------------------------------------------------
# Hankel blocks


def test_bernoulli_level_one_block():
    block = ol.build_hankel(ol.bernoulli(0.5), 1, 1)
    expected = np.array([[1, 0.5, 0.5], [0.5, 0.25, 0.25], [0.5, 0.25, 0.25]])
    assert np.allclose(block.matrix, expected, atol=1e-15)
    assert block.pasts[0] == () and block.pasts[1] == ("0",)


def test_first_row_is_future_marginals():
    m = ol.hmm_to_oom(markov2())
    block = ol.build_hankel(m, 2, 2)
    for j, w in enumerate(block.futures):
        assert block.matrix[0, j] == pytest.approx(ol.word_probability(m, w), abs=1e-14)


def test_mixture_entries_match_closed_form():
    mix = mixture_2bern(0.2, 0.7)
    block = ol.build_hankel(mix, 2, 2)
    for i, u in enumerate(block.pasts):
        for j, w in enumerate(block.futures):
            ones = sum(1 for s in u + w if s == "1")
            zeros = len(u + w) - ones
            expected = 0.5 * (0.2**ones * 0.8**zeros) + 0.5 * (0.7**ones * 0.3**zeros)
            assert block.matrix[i, j] == pytest.approx(expected, abs=1e-14)


def test_generic_oracle_path_matches_model_path():
    # markov2 as an exact-rational chain, evaluated word by word
    exact = RationalMarkovChain(
        [[Fraction(9, 10), Fraction(1, 10)], [Fraction(1, 5), Fraction(4, 5)]],
        ["0", "1"],
        [Fraction(2, 3), Fraction(1, 3)],
    )
    block = ol.build_hankel(ol.hmm_to_oom(markov2()), 3, 3)
    expected = np.array(rational_hankel(exact, 3, 3), dtype=float)
    assert np.allclose(block.matrix, expected, atol=1e-15, rtol=0)


def test_rectangular_blocks_for_diagnostics():
    m = ol.hmm_to_oom(markov2())
    block = ol.build_hankel(m, 3, 1)
    assert block.shape == (15, 3)
    assert block.matrix[0, 0] == pytest.approx(1.0)


def test_hankel_entry_guard():
    with pytest.raises(ResourceLimitError):
        ol.build_hankel(ol.bernoulli(0.5), 13, 13)


def test_reading_a_block_past_the_budget_is_refused():
    # building holds only the two stacks; reading the block would hold it all
    block = ol.build_hankel(ol.bernoulli(0.5), 12, 12)
    assert block.singular_values[0] > 0.0
    with pytest.raises(ResourceLimitError) as err:
        block.matrix
    assert str(err.value) == _BUDGET.format(
        "forming the block to depths 12 and 12", 67092481, 67092481)


# ---------------------------------------------------------------------------
# numerical rank


def test_rank_ignores_tiny_tail():
    assert ol.numerical_rank([1.0, 1e-16], tol_rel=1e-9) == 1


def test_rank_of_zero_spectrum():
    assert ol.numerical_rank([0.0]) == 0


def test_rank_two_mixture_with_exact_oracle():
    mix = mixture_2bern(0.2, 0.7)
    block = ol.build_hankel(mix, 3, 3)
    assert ol.numerical_rank(block.singular_values) == 2
    assert block.singular_values[2] < 1e-12 * block.singular_values[0]
    exact = RationalMixture(
        [
            (Fraction(1, 2), RationalBernoulli(Fraction(2, 10))),
            (Fraction(1, 2), RationalBernoulli(Fraction(7, 10))),
        ]
    )
    assert rational_rank(rational_hankel(exact, 3, 3)) == 2


def test_rank_is_scale_free():
    sv = np.array([3.0, 2.0, 1e-12])
    assert ol.numerical_rank(sv) == ol.numerical_rank(10.0 * sv)


# ---------------------------------------------------------------------------
# process dimension


def test_iid_dimension_stabilizes_at_level_one():
    rep = ol.process_dimension(ol.bernoulli(0.3), 1)
    assert rep.stabilized and rep.dimension == 1
    assert rep.rank_by_level == {1: 1}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_k_fold_bernoulli_mixture_has_dimension_k(k):
    params = [Fraction(1, 10), Fraction(3, 10), Fraction(5, 10), Fraction(7, 10), Fraction(9, 10)][:k]
    mix = ol.mixture_direct_sum([(1.0 / k, ol.bernoulli(float(p))) for p in params])
    rep = ol.process_dimension(mix, k + 1)
    assert rep.stabilized and rep.dimension == k
    exact = RationalMixture([(Fraction(1, k), RationalBernoulli(p)) for p in params])
    assert rational_rank(rational_hankel(exact, k + 1, k + 1)) == k


def test_period_two_has_dimension_two():
    rep = ol.process_dimension(ol.hmm_to_oom(ol.periodic(["0", "1"])), 3)
    assert rep.stabilized and rep.dimension == 2


def test_rank_ladder_monotone_on_curated_suite():
    for entry in curated_suite():
        rep = ol.process_dimension(entry.model, entry.l_max)
        ranks = [rep.rank_by_level[level] for level in sorted(rep.rank_by_level)]
        assert ranks == sorted(ranks), entry.name
        assert rep.stabilized and rep.dimension == entry.dim, entry.name


def test_dimension_never_exceeds_model_dimension():
    # canonical minimality: fifty random HMM-induced models
    for seed in range(50):
        n = 2 + seed % 3
        m = ol.hmm_to_oom(ol.random_hmm(n, ("0", "1"), rng=seed))
        rep = ol.process_dimension(m, 4)
        assert max(rep.rank_by_level.values()) <= n


def test_hankel_rank_bounded_by_model_dimension_each_level():
    for entry in curated_suite():
        for level in range(1, entry.l_max + 1):
            block = ol.build_hankel(entry.model, level, level)
            assert ol.numerical_rank(block.singular_values) <= entry.model.dim


def test_unstabilized_run_reports_no_dimension():
    mix = mixture_2bern(0.2, 0.7)
    rep = ol.process_dimension(mix, 1)  # rank jumps 1 -> 2 at the first level
    assert not rep.stabilized and rep.dimension is None
    assert rep.to_dict()["dimension"] == "not stabilized"


# ---------------------------------------------------------------------------
# minimization


def _junk_padded_bernoulli(p: float, junk_dim: int, seed: int) -> ol.OomModel:
    """Valid model with unobservable junk coordinates added to a coin."""
    rng = np.random.default_rng(seed)
    base = ol.bernoulli(p)
    d = 1 + junk_dim
    ops = {}
    for s in base.alphabet:
        m = np.zeros((d, d))
        m[:1, :1] = base.operators[s]
        m[1:, 1:] = rng.normal(size=(junk_dim, junk_dim)) / (2.0 * junk_dim)
        ops[s] = m
    init = np.zeros(d)
    init[0] = 1.0
    init[1:] = rng.normal(size=junk_dim)  # reachable junk, killed by eval = 0 there
    evalv = np.zeros(d)
    evalv[0] = 1.0
    return ol.OomModel(alphabet=base.alphabet, operators=ops, init=init, eval=evalv)


def test_padded_bernoulli_minimizes_to_dimension_one():
    padded = _junk_padded_bernoulli(0.5, 2, seed=3)
    assert ol.validate_oom(padded).passed
    mini = ol.minimize_oom(padded)
    assert mini.dim == 1
    assert ol.equivalent(padded, mini, padded.dim + mini.dim)


def test_duplicate_mixture_collapses():
    dup = ol.mixture_direct_sum([(0.5, ol.bernoulli(0.5)), (0.5, ol.bernoulli(0.5))])
    mini = ol.minimize_oom(dup)
    assert mini.dim == 1
    block = ol.build_hankel(dup, 2, 2)
    assert ol.numerical_rank(block.singular_values) == 1


def test_minimization_is_idempotent_and_preserves_probabilities():
    m = ol.hmm_to_oom(markov2())
    once = ol.minimize_oom(m)
    twice = ol.minimize_oom(once)
    assert once.dim == twice.dim == 2
    for w in ol.words_up_to(m.alphabet, 2 * (m.dim + 1)):
        assert ol.word_probability(once, w) == pytest.approx(
            ol.word_probability(m, w), abs=1e-12
        )


def test_minimized_model_still_validates():
    padded = _junk_padded_bernoulli(0.3, 3, seed=5)
    mini = ol.minimize_oom(padded)
    assert ol.validate_oom(mini).passed


# ---------------------------------------------------------------------------
# equivalence


def test_model_equivalent_to_itself():
    m = ol.hmm_to_oom(markov2())
    assert ol.equivalent(m, m, 4)


def test_model_equivalent_to_its_minimization():
    m = _junk_padded_bernoulli(0.7, 2, seed=11)
    mini = ol.minimize_oom(m)
    assert ol.equivalent(m, mini, m.dim + mini.dim)


def test_different_coins_not_equivalent():
    assert not ol.equivalent(ol.bernoulli(0.2), ol.bernoulli(0.3), 1, tol=1e-3)


def test_equivalence_needs_shared_alphabet():
    with pytest.raises(ValidationError, match="alphabet"):
        ol.equivalent(ol.bernoulli(0.2), ol.bernoulli(0.2, symbols=("a", "b")), 2)


@pytest.mark.parametrize("n_states", [20, 40])
def test_large_hmm_equivalent_to_its_minimization(n_states):
    m = ol.hmm_to_oom(ol.random_hmm(n_states, "01", rng=1))
    assert ol.equivalent(m, ol.minimize_oom(m), 2 * m.dim)


def test_equivalence_beyond_the_dimension_adds_no_work():
    assert ol.equivalent(ol.bernoulli(0.2), ol.bernoulli(0.2), 10**9)


def test_minimize_at_zero_tolerance_keeps_at_most_the_dimension():
    m = ol.hmm_to_oom(markov2())
    mini = ol.minimize_oom(m, tol_rel=0.0)
    assert mini.dim <= m.dim
    assert ol.equivalent(m, mini, m.dim + mini.dim)


def test_minimize_with_zero_eval_has_empty_basis():
    m = ol.OomModel(
        alphabet=("0", "1"),
        operators={"0": np.eye(2) / 2, "1": np.eye(2) / 2},
        init=[1.0, 0.0],
        eval=[0.0, 0.0],
    )
    with pytest.raises(ValidationError, match="^span enumeration produced an empty basis$"):
        ol.minimize_oom(m)


def _similar(m: ol.OomModel, rng) -> ol.OomModel:
    """The same process in another basis: ``A T A^-1``, ``A v``, ``l A^-1``."""
    a = np.eye(m.dim) + 0.3 * rng.normal(size=(m.dim, m.dim))
    a_inv = np.linalg.inv(a)
    ops = {s: a @ m.operators[s] @ a_inv for s in m.alphabet}
    return ol.OomModel(m.alphabet, ops, a @ m.init, m.eval @ a_inv)


def _equivalence_cases(
    n_cases: int, max_states: int = 4, max_l: int = 8, tols=(1e-9, 1e-3, 1e-2), seed: int = 41
):
    """Seeded (m1, m2, l, tol) cases: equivalent pairs (minimized, duplicated,
    changed basis), near pairs (a small admixture of another process, whose
    word differences straddle the tolerances) and unrelated pairs. The kinds
    cycle in that order with the case number modulo 5; ``m1`` has 1 to
    ``max_states`` states and ``l`` runs over 0..max_l."""
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        alphabet = ("0", "1") if case % 2 else ("a", "b", "c")
        m = ol.hmm_to_oom(ol.random_hmm(1 + case % max_states, alphabet, rng=case))
        other = ol.hmm_to_oom(ol.random_hmm(1 + case % 3, alphabet, rng=case + 1000))
        kind = case % 5
        if kind == 0:
            m2 = ol.minimize_oom(m)
        elif kind == 1:
            m2 = ol.mixture_direct_sum([(0.4, m), (0.6, m)])
        elif kind == 2:
            m2 = _similar(m, rng)
        elif kind == 3:
            eps = 10 ** rng.uniform(-5, -0.5)
            m2 = ol.mixture_direct_sum([(1 - eps, m), (eps, other)])
        else:
            m2 = other
        yield m, m2, int(rng.integers(0, max_l + 1)), float(rng.choice(tols))


def test_split_word_equivalence_matches_enumeration():
    outcomes = {True: 0, False: 0}
    lengths = set()
    for m1, m2, l, tol in _equivalence_cases(300):
        want = enumerating_equivalent(m1, m2, l, tol)
        assert ol.equivalent(m1, m2, l, tol) == want, (l, tol)
        outcomes[want] += 1
        lengths.add(l)
    assert lengths == set(range(9))
    assert min(outcomes.values()) >= 50, outcomes


def test_word_basis_equivalence_accepts_what_enumeration_accepts():
    refused = 0
    cases = _equivalence_cases(
        1000, max_states=6, max_l=10, tols=(1e-9, 1e-6, 1e-3, 1e-2), seed=43
    )
    for case, (m1, m2, l, tol) in enumerate(cases):
        if case % 5 < 3:  # minimized, duplicated or changed basis
            assert all(ol.equivalent(m1, m2, n, tol) for n in range(11)), (case, tol)
        if enumerating_equivalent(m1, m2, l, tol):
            assert ol.equivalent(m1, m2, l, tol), (case, l, tol)
        else:
            refused += 1
    assert refused >= 200, refused


# ---------------------------------------------------------------------------
# factored spectra against the dense blocks


def _dense_sv(block) -> np.ndarray:
    return np.linalg.svd(block.matrix, compute_uv=False)


def _dense_ranks(p, l_max: int) -> dict:
    """Ranks of the dense SVDs of the ``build_hankel`` blocks at depths 1..l_max."""
    return {
        level: ol.numerical_rank(_dense_sv(ol.build_hankel(p, level, level)))
        for level in range(1, l_max + 1)
    }


def test_block_spectrum_from_factors_matches_dense_svd():
    models = [entry.model for entry in curated_suite()]
    models += [ol.hmm_to_oom(ol.random_hmm(n, "01", rng=n)) for n in (3, 8, 20)]
    for m in models:
        for l_past, l_future in [(0, 0), (0, 3), (3, 1), (4, 4)]:
            block = ol.build_hankel(m, l_past, l_future)
            dense = _dense_sv(block)
            assert block.singular_values.shape == dense.shape
            assert np.allclose(block.singular_values, dense, rtol=0, atol=1e-12 * dense[0])


def test_factored_ranks_match_dense_on_curated_suite():
    for entry in curated_suite():
        rep = ol.process_dimension(entry.model, entry.l_max + 1)
        assert rep.rank_by_level == _dense_ranks(entry.model, entry.l_max + 1), entry.name


def test_factored_ranks_match_exact_rational_ranks():
    params = [Fraction(1, 10), Fraction(3, 10), Fraction(5, 10), Fraction(7, 10)]
    cases = [
        (
            ol.mixture_direct_sum([(1.0 / k, ol.bernoulli(float(p))) for p in params[:k]]),
            RationalMixture([(Fraction(1, k), RationalBernoulli(p)) for p in params[:k]]),
        )
        for k in (2, 3, 4)
    ]
    t = [[Fraction(9, 10), Fraction(1, 10)], [Fraction(2, 10), Fraction(8, 10)]]
    init = [Fraction(2, 3), Fraction(1, 3)]
    cases.append((ol.hmm_to_oom(markov2()), RationalMarkovChain(t, ["0", "1"], init)))
    cases.append((ol.hmm_to_oom(ol.periodic(["0", "1", "2"])), rational_periodic(["0", "1", "2"])))
    for model, exact in cases:
        rep = ol.process_dimension(model, 3)
        for level, rank in rep.rank_by_level.items():
            assert rank == rational_rank(rational_hankel(exact, level, level)), (exact, level)


def test_factored_ranks_match_dense_on_random_models():
    for seed in range(100):
        alphabet, depth = (("0", "1"), 6) if seed % 3 else (("a", "b", "c"), 4)
        m = ol.hmm_to_oom(ol.random_hmm(2 + seed % 9, alphabet, rng=seed))
        assert ol.process_dimension(m, depth).rank_by_level == _dense_ranks(m, depth), seed
    for seed in range(100):
        a = ol.hmm_to_oom(ol.random_hmm(1 + seed % 4, ("0", "1"), rng=seed))
        b = ol.hmm_to_oom(ol.random_hmm(1 + seed % 3, ("0", "1"), rng=seed + 500))
        mix = ol.mixture_direct_sum([(0.25, a), (0.35, a), (0.4, b)])
        rep = ol.process_dimension(mix, 6)
        assert rep.rank_by_level == _dense_ranks(mix, 6), seed
        assert rep.stabilized and rep.dimension == ol.minimize_oom(mix).dim, seed


def _random_complex_model(blocks, dim: int, seed: int) -> ol.NcOomModel:
    """Complex model doubled by a direct sum, so its blocks are rank-deficient."""
    rng = np.random.default_rng(seed)
    alg = ol.construct_algebra(blocks)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    m = ol.NcOomModel(alg, draw(alg.total_dim, dim, dim) / (2 * dim), draw(dim), draw(dim))
    return ol.nc_mixture_direct_sum([(0.5, m), (0.5, m)])


def test_factored_ranks_match_dense_on_operator_algebra_models():
    models = [ol.embed_classical(ol.hmm_to_oom(ol.random_hmm(n, "01", rng=n))) for n in (2, 3, 5)]
    models.append(ol.embed_classical(ol.hmm_to_oom(markov3())))
    models.append(ol.parse_model_file(fixture_path("qubit_product.json")))
    models += [_random_complex_model([2], 3, 0), _random_complex_model([1, 2], 2, 1)]
    for m in models:
        rep = ol.nc_process_dimension(m, 3)
        for level in range(1, 4):
            sv = _dense_sv(ol.nc_hankel(m, level, level))
            rank = ol.numerical_rank(sv)
            assert rep.rank_by_level[level] == rank, (m, level)
            kept = rep.margin_by_level[level][0]
            assert kept == pytest.approx(sv[rank - 1] / sv[0], rel=1e-8), (m, level)


def test_negative_noise_levels_keep_the_dense_spectrum():
    m = ol.minimize_oom(ol.hmm_to_oom(ol.periodic(["0", "1", "2"])))
    worst = min(float(m.eval @ ol.apply_tau(m, w)) for w in ol.words_up_to(m.alphabet, 2))
    assert -1e-15 < worst < 0.0  # level 1 already has negative round-off
    rep = ol.process_dimension(m, 5)
    for level in range(1, 6):
        block = ol.build_hankel(m, level, level)
        sv = _dense_sv(block)  # of the unclamped block
        assert block.matrix.min() < 0.0
        assert np.allclose(block.singular_values, sv, rtol=0, atol=1e-12 * sv[0])
        rank = ol.numerical_rank(sv)
        assert rep.rank_by_level[level] == rank
        kept, dropped = rep.margin_by_level[level]
        assert kept == pytest.approx(sv[rank - 1] / sv[0], rel=1e-12)
        assert dropped < 1e-13
    assert rep.stabilized and rep.dimension == 3


_NEGATIVE = "a word up to length {} has probability {}, below -neg_tol"
_BUDGET = ("{} would take {} values and hold {} entries; "
           "the budget is 134217728 values and 4194304 entries")
_OVERFLOW = "a word up to length {} has a non-finite value: its state image overflows the float range"


@pytest.mark.parametrize(
    "model, level, kind, message",
    [
        (signed_coin_mixture(), 2, ValidationError,
         _NEGATIVE.format(4, -0.09486931199999998)),
        # P(1^19) < 0 is the first negative value, among the depth-10 block's words
        (signed_coin_mixture(0.55), 10, ValidationError,
         _NEGATIVE.format(20, -1.3875960337173652e-07)),
        # refused on the values computed; the stacks held are small
        (ol.bernoulli(0.5), 13, ResourceLimitError,
         _BUDGET.format("Hankel block to depths 13 and 13", 268402689, 32766)),
        (ol.hmm_to_oom(markov3()), 9, ResourceLimitError,
         _BUDGET.format("Hankel block to depths 9 and 9", 871666576, 177144)),
        # certified, so it is not scanned: its factors are refused
        (overflowing_model(), 2, ValidationError, _OVERFLOW.format(4)),
    ],
    ids=["negative", "negative-at-depth-10", "guard", "guard-3-symbols", "overflow"],
)
def test_ladder_errors_fire_at_their_level(model, level, kind, message):
    with pytest.raises(kind) as err:
        ol.process_dimension(model, level)
    assert str(err.value) == message
    ol.process_dimension(model, level - 1)  # the level below still passes


def test_operator_algebra_guard_fires_at_its_level():
    m = ol.embed_classical(ol.bernoulli(0.5))
    with pytest.raises(ResourceLimitError) as err:
        ol.nc_process_dimension(m, 13)
    assert str(err.value) == _BUDGET.format("block to depths 13 and 13", 268402689, 32766)
    ol.nc_process_dimension(m, 12)


def test_operator_algebra_overflow_fires_at_its_level():
    m = ol.embed_classical(overflowing_model())
    with pytest.raises(ValidationError) as err:
        ol.nc_process_dimension(m, 2)
    assert str(err.value) == _OVERFLOW.format(4)
    ol.nc_process_dimension(m, 1)


def test_finite_factors_whose_product_overflows_are_refused():
    m = ol.OomModel(("0", "1"), {"0": [[1e200]], "1": [[0.5]]}, [1.0], [1.0])
    assert ol.build_hankel(m, 1, 0).matrix[1, 0] == 1e200
    with pytest.raises(ValidationError) as err:
        ol.build_hankel(m, 1, 1)  # P("00") is 1e400
    assert str(err.value) == _OVERFLOW.format(2)


def test_clamp_refuses_nan():
    h = np.array([[1.0, 0.5], [np.nan, -1e-12]])
    with pytest.raises(ValidationError) as err:
        _clamp_probabilities(h, "Hankel entry")
    assert str(err.value) == "a Hankel entry is nan: its state image overflows the float range"


# ---------------------------------------------------------------------------
# blocks formed when read, each exactly the product of its factors


def _factors(ops, init, evalv, l_past: int, l_future: int) -> tuple:
    return (np.vstack(_state_levels(ops, init, l_past)),
            np.vstack(_functional_levels(ops, evalv, l_future)))


def _assert_block_equals_dense(block, symbols, s, f, dense):
    """The block reads exactly as the dense block ``dense`` of factors ``s``
    and ``f`` over ``symbols``."""
    assert block.shape == dense.shape
    assert np.array_equal(block.states, s) and np.array_equal(block.functionals, f)
    assert np.array_equal(block.matrix, dense)
    assert "matrix" in vars(block) and block.matrix is block.matrix  # formed once
    assert block.pasts == ol.words_up_to(symbols, block.l_past)
    assert block.futures == ol.words_up_to(symbols, block.l_future)


@pytest.mark.parametrize("l_past, l_future", [(0, 0), (3, 2), (4, 4)])
def test_certified_block_is_formed_only_when_read(l_past, l_future):
    m = ol.hmm_to_oom(ol.random_hmm(5, "01", rng=3))
    block = ol.build_hankel(m, l_past, l_future)
    assert block.shape == (2 ** (l_past + 1) - 1, 2 ** (l_future + 1) - 1)
    assert "matrix" not in vars(block) and "pasts" not in vars(block)  # shape forms neither
    s, f = _factors(m.operator_stack, m.init, m.eval, l_past, l_future)
    _assert_block_equals_dense(block, m.alphabet, s, f, s @ f.T)


def test_signed_block_is_formed_only_when_read():
    m = ol.minimize_oom(ol.hmm_to_oom(markov2()))
    assert not m._nonnegative
    block = ol.build_hankel(m, 3, 3)
    assert "matrix" not in vars(block)  # its signs are checked by the scan
    s, f = _factors(m.operator_stack, m.init, m.eval, 3, 3)
    assert (s @ f.T).min() > 0.0
    _assert_block_equals_dense(block, m.alphabet, s, f, s @ f.T)


def test_signed_block_keeps_its_negative_round_off():
    m = ol.minimize_oom(ol.hmm_to_oom(ol.periodic(["0", "1", "2"])))
    block = ol.build_hankel(m, 2, 2)
    s, f = _factors(m.operator_stack, m.init, m.eval, 2, 2)
    raw = s @ f.T
    assert -1e-15 < raw.min() < 0.0  # round-off within the tolerance, not clamped
    _assert_block_equals_dense(block, m.alphabet, s, f, raw)
    dense = np.linalg.svd(raw, compute_uv=False)
    assert np.allclose(block.singular_values, dense, rtol=0, atol=1e-12 * dense[0])
    assert ol.numerical_rank(block.singular_values) == ol.numerical_rank(dense) == 3


@pytest.mark.parametrize("name", ["embedded", "qubit"])
def test_operator_algebra_block_is_formed_only_when_read(name):
    if name == "embedded":
        m = ol.embed_classical(ol.hmm_to_oom(markov3()))
    else:
        m = ol.parse_model_file(fixture_path("qubit_product.json"))
    block = ol.nc_hankel(m, 2, 1)
    assert "matrix" not in vars(block)
    s, f = _factors(m.op_per_basis, m.init, m.eval, 2, 1)
    _assert_block_equals_dense(block, tuple(range(m.algebra.total_dim)), s, f, s @ f.T)


def test_certified_ladder_holds_no_dense_block():
    m = ol.hmm_to_oom(ol.random_hmm(16, "01", rng=0))
    dense_top = 1023 * 1023 * 8  # the depth-9 block, 8.4 MB
    tracemalloc.start()
    try:
        ol.process_dimension(m, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_top / 8


def test_signed_ladder_holds_no_dense_block():
    m = ol.minimize_oom(ol.hmm_to_oom(ol.random_hmm(16, "01", rng=0)))
    assert not m._nonnegative
    dense_top = 1023 * 1023 * 8  # the depth-9 block, 8.4 MB
    tracemalloc.start()
    try:
        rep = ol.process_dimension(m, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.dimension == 16
    # the sign scan holds one chunk of its values at a time
    assert peak < _SCAN_CHUNK * 8 + dense_top / 8


# ---------------------------------------------------------------------------
# the ladder against the exact dimension of the model


def test_long_period_stabilizes_at_its_exact_dimension():
    m = ol.hmm_to_oom(ol.periodic(list("000000000001")))
    assert rational_model_dimension(m.operator_stack, m.init, m.eval) == 12
    rep = ol.process_dimension(m, 12)
    assert rep.rank_by_level[11] == rep.rank_by_level[12] == 12
    assert rep.stabilized and rep.dimension == 12


def test_ladder_and_minimization_match_the_exact_dimension():
    for seed in range(20):
        a = ol.hmm_to_oom(ol.random_hmm(1 + seed % 10, "01", rng=seed))
        b = ol.hmm_to_oom(ol.random_hmm(1 + seed % 4, "01", rng=seed + 100))
        doubled = ol.mixture_direct_sum([(0.5, a), (0.5, a)])
        mixed = ol.mixture_direct_sum([(0.3, a), (0.7, b)])
        for m in (a, doubled, mixed, ol.minimize_oom(a)):
            exact = rational_model_dimension(m.operator_stack, m.init, m.eval)
            assert exact <= m.dim, seed
            assert ol.minimize_oom(m).dim == exact, seed
            rep = ol.process_dimension(m, 8)
            assert rep.stabilized and rep.dimension == exact, seed


# ---------------------------------------------------------------------------
# rank-decision margin


def test_margin_holds_smallest_kept_and_largest_dropped():
    rep = ol.process_dimension(mixture_2bern(0.2, 0.7), 3)
    kept, dropped = rep.margin_by_level[3]
    assert 0.0 < kept <= 1.0 and dropped == 0.0  # a 2x2 core drops nothing
    dup = ol.mixture_direct_sum([(0.5, ol.bernoulli(0.3)), (0.5, ol.bernoulli(0.3))])
    rep = ol.process_dimension(dup, 3)
    kept, dropped = rep.margin_by_level[3]
    assert kept == 1.0 and dropped < 1e-13
    assert rep.stabilized and rep.dimension == 1
    assert rep.to_dict()["margin_by_level"] == {
        str(k): list(v) for k, v in rep.margin_by_level.items()
    }


def test_rank_cut_inside_spectrum_is_not_stabilized():
    m = ol.hmm_to_oom(ol.random_hmm(20, "01", rng=1))
    rep = ol.process_dimension(m, 8)
    assert rep.rank_by_level[7] == rep.rank_by_level[8]  # the ranks alone would agree
    kept, dropped = rep.margin_by_level[8]
    assert kept < MIN_RANK_MARGIN * dropped
    assert not rep.stabilized and rep.dimension is None
