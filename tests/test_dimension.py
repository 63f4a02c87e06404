from fractions import Fraction

import string
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oomlab as ol
from oomlab import ResourceLimitError, ValidationError, dimension, oom
from oomlab.dimension import DEFAULT_RANK_TOL, MIN_RANK_MARGIN, _model_block, _reduced
from oomlab.oom import _SCAN_CHUNK, _budget, _clamp_probabilities, _functional_levels
from oomlab.oom import _state_levels
from oomlab.words import word_count_up_to

from conftest import fixture_path
from curated import curated_suite, markov2, markov3, mixture_2bern, overflowing_model
from curated import in_basis, signed_coin_mixture, skewed_mixture, wide_models, wide_pair
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
    # the spectrum takes two one-row factor walks, whatever the block's word count
    block = ol.build_hankel(ol.bernoulli(0.5), 13, 13)
    assert block.singular_values.shape == (1,)
    with pytest.raises(ResourceLimitError):
        block.matrix


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: ol.numerical_rank([1.0, 0.5], tol_rel=1.0),
        lambda: ol.process_dimension(ol.bernoulli(0.3), 2, tol_rel=1.0),
        lambda: ol.minimize_oom(ol.bernoulli(0.3), tol_rel=1.0),
        lambda: ol.nc_process_dimension(ol.embed_classical(ol.bernoulli(0.3)), 2, tol_rel=2.0),
        lambda: ol.causal_span_rank(ol.enumerate_causal_states(ol.bernoulli(0.3), 2, 2), 1.0),
        lambda: ol.numerical_rank([1.0], tol_rel=float("nan")),
    ],
    ids=["numerical_rank", "process_dimension", "minimize_oom", "nc_process_dimension",
         "causal_span_rank", "nan"],
)
def test_a_rank_cut_that_keeps_nothing_is_refused(call):
    with pytest.raises(ValueError, match=r"^tol_rel must be below 1$"):
        call()


def test_rank_two_mixture_with_exact_oracle():
    mix = mixture_2bern(0.2, 0.7)
    block = ol.build_hankel(mix, 3, 3)
    assert ol.numerical_rank(block.singular_values) == 2
    _assert_dense_spectrum(block.singular_values, _dense_sv(block))
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
    with pytest.raises(ValidationError, match="^every word value is 0$"):
        ol.minimize_oom(m)


def _similar(m: ol.OomModel, rng) -> ol.OomModel:
    """The same process in a random basis near the identity."""
    return in_basis(m, np.eye(m.dim) + 0.3 * rng.normal(size=(m.dim, m.dim)))


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


def _assert_dense_spectrum(sv, dense):
    """``sv`` is the head of the dense spectrum ``dense``, and the rest of
    ``dense`` is round-off of the exact zeros it leaves out."""
    assert sv.size <= dense.size
    assert np.allclose(sv, dense[: sv.size], rtol=0, atol=1e-12 * dense[0])
    assert (dense[sv.size :] <= 1e-12 * dense[0]).all()


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
            assert block.singular_values.size <= m.dim
            _assert_dense_spectrum(block.singular_values, _dense_sv(block))


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
        for l_past, l_future in [(3, 1), (1, 4), (5, 2)]:
            block = ol.nc_hankel(m, l_past, l_future)
            dense = _dense_sv(block)
            assert block.singular_values.size <= m.dim
            assert ol.numerical_rank(block.singular_values) == ol.numerical_rank(dense)
            _assert_dense_spectrum(block.singular_values, dense)


# ---------------------------------------------------------------------------
# stack factors: computed once per model, the same whatever ran before


def _history_cases() -> list:
    """(model builder, ladder, depth): each builder makes a fresh model."""
    return [
        (lambda: ol.hmm_to_oom(ol.random_hmm(6, "01", rng=4)), ol.process_dimension, 5),
        (lambda: ol.hmm_to_oom(ol.random_hmm(4, "abc", rng=5)), ol.process_dimension, 4),
        (lambda: ol.minimize_oom(ol.hmm_to_oom(ol.random_hmm(6, "01", rng=6))),
         ol.process_dimension, 5),
        (lambda: ol.minimize_oom(ol.hmm_to_oom(markov3())), ol.process_dimension, 4),
        (lambda: ol.embed_classical(ol.hmm_to_oom(ol.random_hmm(3, "01", rng=7))),
         ol.nc_process_dimension, 4),
        (lambda: _random_complex_model([2], 3, 0), ol.nc_process_dimension, 3),
        (lambda: _random_complex_model([1, 2], 2, 1), ol.nc_process_dimension, 3),
    ]


def _reduced_arrays(m) -> list:
    """The operators, ``init`` and ``eval`` of ``minimize_oom(m)``, or of the
    same reduction of an operator-algebra model."""
    if isinstance(m, ol.OomModel):
        m = ol.minimize_oom(m)
        return [m.operator_stack, m.init, m.eval]
    return list(_reduced(m, m.op_per_basis, DEFAULT_RANK_TOL)[0])


@pytest.mark.parametrize(
    "make, ladder, depth",
    _history_cases(),
    ids=["hmm6", "hmm4-abc", "signed-hmm6", "signed-markov3", "embedded-hmm3",
         "complex-m2", "complex-c-m2"],
)
def test_ladder_is_bitwise_the_same_whatever_ran_before(make, ladder, depth):
    block = ol.nc_hankel if ladder is ol.nc_process_dimension else ol.build_hankel
    fresh = ladder(make(), depth).to_dict()
    reduced = _reduced_arrays(make())
    warmed = make()
    deep = block(warmed, depth + 2, depth + 1).singular_values  # deeper factors first
    assert all(map(np.array_equal, _reduced_arrays(warmed), reduced))
    assert ladder(warmed, depth).to_dict() == fresh
    assert ladder(warmed, depth).to_dict() == fresh  # a repeat starts over from step 0
    shallow_first = make()
    ladder(shallow_first, depth)
    # single-chain walks between and inside ladders replace the joint walk
    interleaved = make()
    block(interleaved, 2, 2)
    for _ in range(2):
        _walk_single_chains(interleaved, depth)
        assert ladder(interleaved, depth).to_dict() == fresh
    _walk_single_chains(interleaved, depth)
    for m in (warmed, shallow_first, interleaved):
        assert np.array_equal(block(m, depth + 2, depth + 1).singular_values, deep)


def _walk_single_chains(m, depth: int) -> None:
    """The stationarity check and the consistency residual, or the operator-
    algebra invariance check both ways: walks of one chain each."""
    if isinstance(m, ol.OomModel):
        ol.stationarity_check(m)
        ol.kolmogorov_residual(m, depth)
    else:
        ol.nc_stationarity_check(m)
        ol.nc_stationarity_check(m, reverse_order=True)


def _reference_chain(seed, gens, depth: int) -> list:
    """Steps 0..depth of one factor chain, one ``np.linalg.qr`` of the stacked
    rows a step, as a walk of that chain alone takes them."""
    r, factors = np.empty((0, seed.size)), []
    for _ in range(depth + 1):
        r = np.linalg.qr(np.vstack((seed, (r @ gens).reshape(-1, seed.size))), mode="r")
        factors.append(r)
    return factors


@pytest.mark.parametrize("k", [1, 2, 3, 8, 26])
@pytest.mark.parametrize("kind", ["real", "embedded", "complex"])
def test_joint_factors_are_bitwise_the_chains_alone(k, kind):
    symbols = string.ascii_lowercase[:k]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        m = ol.hmm_to_oom(ol.random_hmm(int(rng.integers(1, 21)), symbols, rng=rng))
        if kind == "embedded":
            m = ol.embed_classical(m)
        elif kind == "complex":
            m = ol.NcOomModel(ol.construct_algebra([1] * k), m.operator_stack * np.exp(0.3j),
                              m.init * (1 + 1j), m.eval)
        ops = m.operator_stack if kind == "real" else m.op_per_basis
        depth = 4 if k <= 8 else 2
        states = _reference_chain(m.init, ops.transpose(0, 2, 1), depth)
        functionals = _reference_chain(m.eval, ops, depth)
        for j in range(depth + 1):
            r_s, r_f = oom._stack_factors(m, ops, j, (True, False))
            for got, want in ((r_s, states[j]), (r_f, functionals[j])):
                assert got.dtype == want.dtype and np.array_equal(got, want), (seed, j)


def test_a_joint_step_past_the_budget_steps_one_chain_at_a_time(monkeypatch):
    charged = []

    def spy(what, values, held):
        charged.append(what)
        budget(what, values, held)

    budget = oom._budget
    monkeypatch.setattr(oom, "_budget", spy)
    # the step to depth 3 holds 2.7 million entries for one chain, 4.6 million for both
    m = ol.hmm_to_oom(ol.random_hmm(180, string.ascii_lowercase, rng=0))
    sv = ol.build_hankel(m, 3, 3).singular_values
    assert charged == ["the 2 factors to depth 0", "the 2 factors to depth 1",
                       "the 2 factors to depth 2", "the state factor to depth 3",
                       "the functional factor to depth 3"]
    (r_s,), (r_f,) = (oom._stack_factors(m, m.operator_stack, 3, (states,))
                      for states in (True, False))
    assert np.array_equal(sv, np.linalg.svd(r_s @ r_f.T, compute_uv=False))
    # a walk whose chains do not fit one at a time is refused as before
    with pytest.raises(ResourceLimitError) as err:
        ol.process_dimension(wide_models()[0], 3)
    assert str(err.value) == _BUDGET.format("the state factor to depth 3", 1375630, 4448386)
    assert charged[-2:] == ["the 2 factors to depth 2", "the state factor to depth 3"]


def test_stack_factors_follow_the_operators_they_were_built_from():
    def make():
        return ol.hmm_to_oom(ol.random_hmm(4, "01", rng=2))

    m = make()
    halved = m.operator_stack / 2
    ol.build_hankel(m, 3, 3)  # factors of m's own operators
    got = _model_block(m, halved, m.alphabet, 3, 3).singular_values
    assert np.array_equal(got, _model_block(make(), halved, m.alphabet, 3, 3).singular_values)


def test_concurrent_ladders_share_one_model_safely():
    def make():
        return ol.hmm_to_oom(ol.random_hmm(8, "01", rng=9))

    depths = (3, 5, 7) * 2  # more threads than cores
    want = {depth: ol.process_dimension(make(), depth).to_dict() for depth in depths}
    stationarity = ol.stationarity_check(make()).to_dict()
    m, results, checks = make(), [], []
    threads = [
        threading.Thread(target=lambda d=d: results.append((d, ol.process_dimension(m, d))))
        for d in depths
    ]
    # single-chain walks replace the joint walk that the ladders extend
    threads += [threading.Thread(target=lambda: checks.append(ol.stationarity_check(m)))
                for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(d for d, _ in results) == sorted(depths)
    assert all(rep.to_dict() == want[d] for d, rep in results)
    assert [rep.to_dict() for rep in checks] == [stationarity] * 2


def test_ladder_factors_each_depth_once(monkeypatch):
    shapes = []
    qr = np.linalg.qr

    def counting(*args, **kwargs):
        shapes.append(args[0].shape)
        return qr(*args, **kwargs)

    def stacks() -> int:
        """Stacks factored so far: a batched call factors one per leading index."""
        return sum(int(np.prod(shape[:-2])) for shape in shapes)

    monkeypatch.setattr(np.linalg, "qr", counting)
    m = ol.hmm_to_oom(ol.random_hmm(5, "01", rng=3))
    ol.process_dimension(m, 8)
    assert stacks() == 2 * 9  # one factor per stack and depth 0..8
    assert max(shape[-2] for shape in shapes) <= 1 + 2 * m.dim
    ol.build_hankel(m, 8, 8)
    assert stacks() == 18  # the last factors are kept
    ol.build_hankel(m, 9, 9)
    assert stacks() == 20  # one step deeper
    ol.process_dimension(m, 8)
    assert stacks() == 38  # shallower depths start over from step 0


def test_deep_single_symbol_block_holds_one_factor_per_stack():
    m = ol.hmm_to_oom(ol.random_hmm(16, "0", rng=0))
    tracemalloc.start()
    try:
        block = ol.build_hankel(m, 1000, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 1000 steps of each chain would hold 2 MB, the two stacks 0.26 MB
    assert peak < 0.1e6
    assert ol.numerical_rank(block.singular_values) == 1


def test_negative_noise_levels_keep_the_dense_spectrum():
    m = ol.minimize_oom(ol.hmm_to_oom(ol.periodic(["0", "1", "2"])))
    worst = min(float(m.eval @ ol.apply_tau(m, w)) for w in ol.words_up_to(m.alphabet, 2))
    assert -1e-15 < worst < 0.0  # level 1 already has negative round-off
    rep = ol.process_dimension(m, 5)
    for level in range(1, 6):
        block = ol.build_hankel(m, level, level)
        sv = _dense_sv(block)  # of the unclamped block
        assert block.matrix.min() < 0.0
        _assert_dense_spectrum(block.singular_values, sv)
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
    "make, level, kind, message",
    [
        (signed_coin_mixture, 2, ValidationError,
         _NEGATIVE.format(4, -0.09486931199999998)),
        # P(1^19) < 0 is the first negative value, among the depth-10 block's words
        (lambda: signed_coin_mixture(0.55), 10, ValidationError,
         _NEGATIVE.format(20, -1.3875960337173652e-07)),
        # refused on the step that would stack (1 + 26 * 230) 230 entries
        (lambda: wide_models()[0], 3, ResourceLimitError,
         _BUDGET.format("the state factor to depth 3", 1375630, 4448386)),
        # 1 + 3 * 540 rows of 540: the factor has its full 540 rows at depth 6
        (lambda: ol.hmm_to_oom(ol.random_hmm(540, "abc", rng=0)), 7, ResourceLimitError,
         _BUDGET.format("the state factor to depth 7", 875340, 4379716)),
        # certified, so it is not scanned: its factors are refused
        (overflowing_model, 2, ValidationError, _OVERFLOW.format(4)),
    ],
    ids=["negative", "negative-at-depth-10", "guard", "guard-3-symbols", "overflow"],
)
def test_ladder_errors_fire_at_their_level(make, level, kind, message):
    model = make()
    with pytest.raises(kind) as err:
        ol.process_dimension(model, level)
    assert str(err.value) == message
    ol.process_dimension(model, level - 1)  # the level below still passes


def test_operator_algebra_guard_fires_at_its_level():
    m = wide_models()[1]
    with pytest.raises(ResourceLimitError) as err:
        ol.nc_process_dimension(m, 3)
    assert str(err.value) == _BUDGET.format("the state factor to depth 3", 1375630, 4448386)
    ol.nc_process_dimension(m, 2)


def test_equivalence_closure_is_refused_at_the_length_it_outgrows():
    a, b = wide_pair()
    with pytest.raises(ResourceLimitError) as err:
        ol.equivalent(a, b, 3)
    assert str(err.value) == _BUDGET.format("the closure's images of length 3", 4162560, 4589824)
    assert not ol.equivalent(a, b, 2)  # its candidates of length 2 fit


@pytest.mark.parametrize("seed", range(12))
def test_a_closure_that_runs_peaks_below_its_charge(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    symbols = string.ascii_lowercase[: int(rng.integers(1, 27))]
    a, b = (ol.hmm_to_oom(ol.random_hmm(int(rng.integers(1, 41)), symbols, rng=rng))
            for _ in range(2))
    a.operator_stack, b.operator_stack  # formed before tracing
    charges = []

    def charge(what, values, held):
        charges.append(held)
        return _budget(what, values, held)

    monkeypatch.setattr(dimension, "_budget", charge)
    tracemalloc.start()
    try:
        ol.equivalent(a, b, a.dim + b.dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * max(charges)


def test_a_full_basis_still_checks_each_candidate():
    # the closure admits [1, 1] and T_0 [1, 1] = [1e100, 0.25], a full basis of
    # two, so T_0 T_0 [1, 1] = [1e200, 0.0625] at length 2 is only checked, and
    # its norm, 1e200 squared, is not finite
    a = ol.OomModel(("0", "1"), {"0": [[1e100]], "1": [[0.5]]}, [1.0], [1.0])
    b = ol.OomModel(("0", "1"), {"0": [[0.25]], "1": [[0.5]]}, [1.0], [1.0])
    assert not ol.equivalent(a, b, 1)
    with pytest.raises(ValidationError) as err:
        ol.equivalent(a, b, 2)
    assert str(err.value) == _OVERFLOW.format(2)


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
    _assert_dense_spectrum(block.singular_values, dense)
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


@pytest.mark.parametrize("k", [1, 2, 3, 8, 26])
def test_a_factor_walk_holds_no_more_than_it_charges(monkeypatch, k):
    """Every walk the budget admits peaks within the entries its largest step
    states as held, 8 bytes each: both chains, each walked from its seed."""
    charged = []

    def spy(what, values, held):
        charged.append(held)
        budget(what, values, held)

    budget = oom._budget
    monkeypatch.setattr(oom, "_budget", spy)
    admitted = 0
    for d in (1, 12, 60, 200, 250):
        hmm = ol.random_hmm(d, string.ascii_lowercase[:k], rng=d)
        # deep enough that the factors reach d rows, at most 60 steps
        depth = min(60, next(n for n in range(1, d + 1) if word_count_up_to(k, n - 1) >= d))
        for call in (lambda m: ol.build_hankel(m, depth, depth), ol.stationarity_check,
                     ol.minimize_oom):
            m = ol.hmm_to_oom(hmm)
            m.operator_sum  # the model's own arrays are formed before tracing
            charged.clear()
            tracemalloc.start()
            try:
                call(m)
                peak = tracemalloc.get_traced_memory()[1]
            except ResourceLimitError:
                continue
            finally:
                tracemalloc.stop()
            assert peak <= 8 * max(charged), (d, call)
            admitted += 1
    assert admitted >= 12


def test_certified_ladder_holds_no_dense_block():
    m = ol.hmm_to_oom(ol.random_hmm(16, "01", rng=0))
    tracemalloc.start()
    try:
        ol.process_dimension(m, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # neither the depth-9 block (8.4 MB) nor its two stacks (0.26 MB)
    assert peak < 0.2e6


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
    tracemalloc.start()
    try:
        rep = ol.process_dimension(m, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6  # the depth-12 stacks alone would hold 8191 x 12 x 8 bytes each
    assert rep.rank_by_level[11] == rep.rank_by_level[12] == 12
    assert rep.stabilized and rep.dimension == 12


def _exact_dimension_cases() -> list:
    """The two skewed mixtures, of exact dimension 2 in coordinates whose
    scales differ by 1e9 and 1e12, and 200 seeded models: 1 to 10 states
    with 2 symbols or 1 to 6 with 3, each alone, doubled, mixed with another
    and minimized."""
    models = [skewed_mixture(1e9), skewed_mixture(1e12)]
    for seed in range(50):
        alphabet, n = ("abc", 1 + seed % 6) if seed % 3 == 2 else ("01", 1 + seed % 10)
        a = ol.hmm_to_oom(ol.random_hmm(n, alphabet, rng=seed))
        b = ol.hmm_to_oom(ol.random_hmm(1 + seed % 4, alphabet, rng=seed + 100))
        doubled = ol.mixture_direct_sum([(0.5, a), (0.5, a)])
        mixed = ol.mixture_direct_sum([(0.3, a), (0.7, b)])
        models += [a, doubled, mixed, ol.minimize_oom(a)]
    return models


def test_ladder_and_minimization_match_the_exact_dimension():
    for case, m in enumerate(_exact_dimension_cases()):
        exact = rational_model_dimension(m.operator_stack, m.init, m.eval)
        assert exact <= m.dim, case
        reduced = ol.minimize_oom(m)
        assert reduced.dim == exact, case
        assert ol.equivalent(m, reduced, m.dim + reduced.dim), case
        rep = ol.process_dimension(m, 8)
        assert rep.stabilized and rep.dimension == exact, case


@pytest.mark.parametrize(
    "make",
    [lambda: ol.hmm_to_oom(ol.random_hmm(20, "01", rng=1)),
     lambda: ol.hmm_to_oom(ol.periodic(list("000000000001"))),
     lambda: ol.hmm_to_oom(markov3())],
    ids=["hmm20", "p12", "markov3"],
)
def test_minimize_cuts_the_rank_where_dim_does(make):
    m = make()
    reduced = ol.minimize_oom(m)
    depth, margin = reduced._reduction["depth"], reduced._reduction["margin"]
    rep = ol.process_dimension(make(), depth)
    assert reduced.dim == rep.rank_by_level[depth]
    # the same spectrum, up to the round-off of the largest value, between the
    # SVD with singular vectors and the one without
    assert margin == pytest.approx(rep.margin_by_level[depth], rel=0, abs=1e-15)


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
