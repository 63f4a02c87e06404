import tracemalloc

import numpy as np
import pytest

import oomlab as ol
from oomlab import ResourceLimitError
from oomlab import causal
from oomlab.causal import _components, _join, _predictive_matrix
from oomlab.dimension import DEFAULT_RANK_TOL, MIN_RANK_MARGIN
from oomlab.oom import _rank_cut
from oomlab.processes import stationary_distribution
from oomlab.words import words_of_length

from curated import curated_suite, markov2, mixture_2bern, signed_coin_mixture, stationary_p12


# ---------------------------------------------------------------------------
# predictive distributions


def test_iid_prediction_ignores_the_past():
    m = ol.bernoulli(0.4)
    d0 = ol.predictive_distribution(m, "00", 1)
    d1 = ol.predictive_distribution(m, "11", 1)
    assert np.allclose(d0.dist, d1.dist, atol=1e-14)
    assert d0.dist[1] == pytest.approx(0.4)  # futures ordered ("0",), ("1",)


def test_period_two_prediction_is_deterministic():
    m = ol.hmm_to_oom(ol.periodic(["0", "1"]))
    pd = ol.predictive_distribution(m, ("0", "1"), 2)
    # futures in lex order: 00, 01, 10, 11; the alternation continues with "01"
    assert np.allclose(pd.dist, [0, 1, 0, 0], atol=1e-14)
    assert pd.weight == pytest.approx(0.5)


def test_markov_rows_appear_as_predictions():
    m = ol.hmm_to_oom(markov2())
    from_zero = ol.predictive_distribution(m, "0", 1)
    from_one = ol.predictive_distribution(m, "1", 1)
    assert from_zero.dist[0] == pytest.approx(0.9)
    assert from_one.dist[0] == pytest.approx(0.2)


def test_impossible_past_yields_null_flag():
    m = ol.hmm_to_oom(ol.periodic(["0", "1"]))
    pd = ol.predictive_distribution(m, "00", 2)
    assert pd.is_null and pd.weight == 0.0 and pd.dist is None


def test_prediction_normalises():
    for entry in curated_suite():
        pd = ol.predictive_distribution(entry.model, ("0",) * entry.past_length, entry.horizon)
        if not pd.is_null:
            assert pd.dist.sum() == pytest.approx(1.0, abs=1e-10)


def test_negative_predictions_raise():
    m = signed_coin_mixture()  # P(110) > 0 > P(111)
    below = r" below -neg_tol=-1e-10; the model does not generate a probability distribution$"
    with pytest.raises(ol.ValidationError, match=r"^past probability -0\.02\d+" + below):
        ol.enumerate_causal_states(m, 3, 1)
    with pytest.raises(ol.ValidationError, match=r"^predictive entry -0\.02\d+" + below):
        ol.predictive_distribution(m, "11", 1)


def test_horizon_guard():
    with pytest.raises(ResourceLimitError):
        ol.predictive_distribution(ol.bernoulli(0.5), "0", 30)


def _traced(call, monkeypatch, module):
    """The tracemalloc peak of ``call()`` and the held entries of every
    charge it made to ``module._budget``."""
    charged = []

    def spy(what, values, held):
        charged.append(held)
        budget(what, values, held)

    budget = module._budget
    monkeypatch.setattr(module, "_budget", spy)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, charged


@pytest.mark.parametrize("m, past", [
    (ol.bernoulli(0.5), "0"),
    (ol.hmm_to_oom(ol.random_hmm(3, "cab", rng=1)), "ab"),
], ids=["binary", "ternary"])
def test_predictive_distribution_peaks_within_its_charge(m, past, monkeypatch):
    # the functional levels below the horizon are alive as the last is formed
    horizon = 16 if len(m.alphabet) == 2 else 9
    m.operator_stack  # the model's own arrays are formed before tracing
    peak, charged = _traced(lambda: ol.predictive_distribution(m, past, horizon),
                            monkeypatch, causal)
    assert len(charged) == 1 and peak <= 8 * charged[0]


# ---------------------------------------------------------------------------
# causal-state partitions


def test_iid_has_one_causal_state():
    part = ol.enumerate_causal_states(ol.bernoulli(0.5), 2, 2)
    assert part.n_states == 1
    assert part.states[0].weight == pytest.approx(1.0)


def test_markov_chain_states_and_weights():
    part = ol.enumerate_causal_states(ol.hmm_to_oom(markov2()), 1, 3)
    assert part.n_states == 2
    assert sorted(s.weight for s in part.states) == pytest.approx([1 / 3, 2 / 3], abs=1e-12)


def test_period_two_states_and_weights():
    part = ol.enumerate_causal_states(ol.hmm_to_oom(ol.periodic(["0", "1"])), 1, 2)
    assert part.n_states == 2
    assert [s.weight for s in part.states] == pytest.approx([0.5, 0.5])


def test_mixture_separates_count_statistics():
    part = ol.enumerate_causal_states(mixture_2bern(0.2, 0.7), 3, 2)
    assert part.n_states == 4  # one state per number of ones in the past
    sizes = sorted(len(s.member_pasts) for s in part.states)
    assert sizes == [1, 1, 3, 3]


def test_partition_weights_sum_to_one():
    for entry in curated_suite():
        part = ol.enumerate_causal_states(entry.model, entry.past_length, entry.horizon)
        assert part.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert part.n_states == entry.n_causal_states, entry.name


def test_members_close_to_representative_and_reps_separated():
    for entry in curated_suite():
        part = ol.enumerate_causal_states(entry.model, entry.past_length, entry.horizon)
        reps = [s.representative for s in part.states]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert ol.total_variation(reps[i], reps[j]) > part.cluster_tol
        for state in part.states:
            for past in state.member_pasts:
                pd = ol.predictive_distribution(entry.model, past, entry.horizon)
                assert ol.total_variation(pd.dist, state.representative) <= part.cluster_tol


def test_refining_horizon_never_merges_states():
    for entry in curated_suite():
        coarse = ol.enumerate_causal_states(entry.model, entry.past_length, entry.horizon)
        fine = ol.enumerate_causal_states(entry.model, entry.past_length, entry.horizon + 1)
        assert fine.n_states >= coarse.n_states, entry.name


def test_empirical_path_estimates_the_exact_partition():
    m = ol.hmm_to_oom(markov2())
    exact = ol.enumerate_causal_states(m, 1, 1)
    sampled = ol.empirical_causal_states(m, 1, 1, n_windows=40_000, seed=3)
    assert sampled.method == "empirical" and exact.method == "exact"
    assert sampled.n_states == exact.n_states == 2
    assert np.allclose(sorted(sampled.weights), sorted(exact.weights), atol=0.02)
    assert sampled.to_dict()["method"] == "empirical"


def test_empirical_path_lists_only_observed_pasts():
    # 2^40 pasts could not be listed; 100 windows observe at most 100 of them
    chain = ol.markov_chain([[0.9, 0.1], [0.2, 0.8]], labels=["b", "a"], init=[2 / 3, 1 / 3])
    m = ol.hmm_to_oom(chain)
    part = ol.empirical_causal_states(m, 40, 2, n_windows=100, seed=5)
    assert part.weights.sum() == pytest.approx(1.0)
    assert all(s.representative.sum() == pytest.approx(1.0) for s in part.states)

    def alphabet_order(u):
        return [m.alphabet.index(s) for s in u]

    firsts = [s.member_pasts[0] for s in part.states]
    assert firsts == sorted(firsts, key=alphabet_order)
    for s in part.states:
        assert all(len(u) == 40 for u in s.member_pasts)
        assert s.member_pasts == sorted(s.member_pasts, key=alphabet_order)


def test_empirical_path_is_deterministic_given_seed():
    m = ol.bernoulli(0.5)
    a = ol.empirical_causal_states(m, 2, 1, n_windows=5_000, seed=11)
    b = ol.empirical_causal_states(m, 2, 1, n_windows=5_000, seed=11)
    assert a.n_states == b.n_states == 1
    assert np.array_equal(a.weights, b.weights)


# ---------------------------------------------------------------------------
# clustering against the full pairwise loop


def reference_labels(dists, cluster_tol):
    """Single linkage comparing every pair of rows in full: union-find that
    keeps the smaller index as root, so each label is its component's first
    row."""
    parent = list(range(len(dists)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(dists)):
        tv = 0.5 * np.abs(dists[i + 1 :] - dists[i]).sum(axis=1)
        for off in np.flatnonzero(tv <= cluster_tol):
            a, b = sorted((find(i), find(i + 1 + int(off))))
            parent[b] = a
    return [find(i) for i in range(len(dists))]


def reference_groups(pasts, dists, cluster_tol):
    groups = {}
    for past, label in zip(pasts, reference_labels(dists, cluster_tol)):
        groups.setdefault(label, []).append(past)
    return [groups[label] for label in sorted(groups)]


def reference_empirical_rows(m, past_length, horizon, n_windows, seed):
    """Window counts kept per past in dicts, pasts sorted by alphabet index."""
    window = past_length + horizon
    traj = ol.sample_trajectory(m, window + n_windows - 1, seed)
    counts = {}
    for i in range(n_windows):
        by_future = counts.setdefault(traj[i : i + past_length], {})
        fut = traj[i + past_length : i + window]
        by_future[fut] = by_future.get(fut, 0) + 1
    k, index = len(m.alphabet), {s: i for i, s in enumerate(m.alphabet)}
    pasts = sorted(counts, key=lambda u: [index[s] for s in u])
    weights = np.empty(len(pasts))
    dists = np.zeros((len(pasts), k**horizon))
    for i, u in enumerate(pasts):
        total = sum(counts[u].values())
        weights[i] = total / n_windows
        for fut, c in counts[u].items():
            col = 0
            for s in fut:
                col = col * k + index[s]
            dists[i, col] = c / total
    return pasts, weights, dists


def seeded_model(seed):
    """Random HMMs of 1 to 6 states over 2, 3 or 4 symbols, every fourth one
    a mixture of two coins whose pasts tie by their count of ones."""
    rng = np.random.default_rng(seed)
    if seed % 4 == 0:
        p, q = rng.uniform(0.1, 0.9, 2)
        return ol.mixture_direct_sum([(0.5, ol.bernoulli(p)), (0.5, ol.bernoulli(q))])
    alphabet = ("01", "cab", "0123")[seed % 3]
    return ol.hmm_to_oom(ol.random_hmm(int(rng.integers(1, 7)), alphabet, rng=rng))


TOLS = (1e-8, 1e-3, 0.05)


@pytest.mark.parametrize("cluster_tol", TOLS)
def test_exact_partitions_match_the_pairwise_loop(cluster_tol):
    cases = [(e.model, e.past_length, e.horizon) for e in curated_suite()]
    for seed in range(200):
        m = seeded_model(seed)
        cases.append((m, *((4, 2) if len(m.alphabet) == 2 else (2, 1 + seed % 2))))
    for m, past_length, horizon in cases:
        part = ol.enumerate_causal_states(m, past_length, horizon, cluster_tol=cluster_tol)
        pasts, _, rows, _ = _predictive_matrix(m, past_length, horizon)
        assert [s.member_pasts for s in part.states] == reference_groups(pasts, rows, cluster_tol)


@pytest.mark.parametrize("cluster_tol", TOLS)
def test_empirical_partitions_match_the_pairwise_loop(cluster_tol):
    for seed in range(200):
        m = seeded_model(seed)
        past_length = 3 if len(m.alphabet) == 2 else 2
        part = ol.empirical_causal_states(m, past_length, 1, n_windows=400, seed=seed,
                                          cluster_tol=cluster_tol)
        pasts, _, dists = reference_empirical_rows(m, past_length, 1, 400, seed)
        assert [s.member_pasts for s in part.states] == reference_groups(
            pasts, dists, cluster_tol
        )


@pytest.mark.parametrize(
    "alphabet, past_length, horizon, n_windows",
    [(a, p, h, 3000) for a in ("01", "cab") for p in (1, 2, 4, 6) for h in (1, 2)]
    # binary pasts of length 70 have codes beyond int64
    + [("01", 70, 2, 300)],
)
def test_empirical_counts_match_per_past_dicts(alphabet, past_length, horizon, n_windows):
    for rng in range(3):
        m = ol.hmm_to_oom(ol.random_hmm(3 + rng, alphabet, rng=rng))
        part = ol.empirical_causal_states(m, past_length, horizon, n_windows=n_windows, seed=rng)
        pasts, weights, dists = reference_empirical_rows(
            m, past_length, horizon, n_windows, rng
        )
        labels = reference_labels(dists, part.cluster_tol)
        want = {}
        for i, label in enumerate(labels):
            want.setdefault(label, []).append(i)
        assert part.n_states == len(want)
        for state, members in zip(part.states, (want[label] for label in sorted(want))):
            rep = max(members, key=lambda i: (weights[i], -i))
            assert state.member_pasts == [pasts[i] for i in members]
            assert state.weight == float(weights[members].sum())
            assert state.representative_past == pasts[rep]
            assert np.array_equal(state.representative, dists[rep])


@pytest.mark.parametrize(
    "rows, cluster_tol, labels",
    [
        # a~b and b~c at 0.03, a and c 0.06 apart: one cluster through b
        ([[0.5, 0.5], [0.56, 0.44], [0.9, 0.1], [0.53, 0.47]], 0.05, [0, 0, 2, 0]),
        (np.tile([0.25, 0.75], (50, 1)), 1e-8, [0] * 50),
        (np.ones((7, 1)), 0.0, [0] * 7),
        # duplicates tie in any projection; interleaved, each keeps its first index
        (np.tile([[0.1, 0.9], [0.7, 0.3], [0.4, 0.6]], (6, 1)), 1e-8, [0, 1, 2] * 6),
        # a distance of exactly cluster_tol links
        ([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], 0.5, [0, 0, 0]),
        ([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], 0.4999, [0, 1, 2]),
        (np.zeros((0, 4)), 0.05, []),
    ],
    ids=["chain", "identical", "one-future", "ties", "at-tol", "below-tol", "empty"],
)
def test_hand_built_clusters(rows, cluster_tol, labels):
    rows = np.asarray(rows, dtype=float)
    assert _components(rows, cluster_tol).tolist() == labels
    assert reference_labels(rows, cluster_tol) == labels


@pytest.mark.parametrize("chunk", [None, 64])
@pytest.mark.parametrize("cluster_tol", TOLS)
def test_components_match_the_pairwise_loop(cluster_tol, chunk, monkeypatch):
    # a small chunk spreads one offset's merges over many relabellings
    if chunk is not None:
        monkeypatch.setattr(causal, "_CLUSTER_CHUNK", chunk)
    for seed in range(100):
        m = seeded_model(seed)
        past_length = 5 if len(m.alphabet) == 2 else 3
        rows = _predictive_matrix(m, past_length, 1)[2]
        assert _components(rows, cluster_tol).tolist() == reference_labels(rows, cluster_tol)


@pytest.mark.parametrize("seed, past_length, horizon", [(0, 8, 4), (1, 9, 6), (2, 10, 8), (3, 10, 5)])
def test_components_match_the_pairwise_loop_on_near_ties(seed, past_length, horizon, monkeypatch):
    # long pasts of a stationary 4-state HMM predict alike: at 1e-5 and 1e-4
    # their rows link in tens to thousands of pairs, and the first projection
    # alone passes 1.5 to 3.3 times as many pairs as both together
    hmm = ol.random_hmm(4, "01", rng=seed)
    pi = stationary_distribution(sum(hmm.transition_emission.values()))
    m = ol.hmm_to_oom(ol.HmmModel(hmm.alphabet, hmm.transition_emission, pi))
    rows = _predictive_matrix(m, past_length, horizon)[2]
    for cluster_tol in (1e-8, 1e-5, 1e-4):
        want = reference_labels(rows, cluster_tol)
        assert _components(rows, cluster_tol).tolist() == want
        with monkeypatch.context() as small:
            small.setattr(causal, "_CLUSTER_CHUNK", 64)
            assert _components(rows, cluster_tol).tolist() == want


@pytest.mark.parametrize("m, past_length, horizon, n_states, n_charges", [
    (ol.bernoulli(0.5), 10, 10, 1, 2),
    # 1013 of 1024 pasts have probability zero: the kept rows are gathered
    (stationary_p12(), 10, 4, 4, 2),
    # 8192 pasts of 13 symbols, every one kept
    (ol.hmm_to_oom(markov2()), 13, 2, 2, 2),
], ids=["coin", "period12", "markov2"])
def test_causal_states_peak_within_the_largest_charge(m, past_length, horizon, n_states,
                                                      n_charges, monkeypatch):
    m.operator_stack
    part = []
    peak, charged = _traced(
        lambda: part.append(ol.enumerate_causal_states(m, past_length, horizon)),
        monkeypatch, causal)
    assert part[0].n_states == n_states and len(charged) == n_charges
    assert peak <= 8 * max(charged)


def test_a_gather_of_kept_rows_is_charged(monkeypatch):
    charged = []
    monkeypatch.setattr(causal, "_budget", lambda what, values, held: charged.append((what, held)))
    pasts = _predictive_matrix(stationary_p12(), 8, 12)[0]
    # the block, its mask, and the 9 pasts of positive probability with their rows
    assert len(pasts) == 9
    assert charged[1] == ("2^8 pasts by 2^12 futures", 2**8 * 2**12 + 2**8 + 9 * (8 + 2**12))


def test_every_kept_past_is_charged(monkeypatch):
    charged = []
    monkeypatch.setattr(causal, "_budget", lambda what, values, held: charged.append((what, held)))
    pasts = _predictive_matrix(ol.hmm_to_oom(markov2()), 13, 2)[0]
    # no past has probability zero, so no row is gathered: the block, its mask
    # and the 8192 pasts of 13 symbols
    assert pasts == words_of_length(("0", "1"), 13)
    assert charged[1] == ("2^13 pasts by 2^2 futures", 2**13 * 2**2 + 2**13 + 2**13 * 13)


@pytest.mark.parametrize("past_length, horizon", [(10, 1), (12, 2), (8, 6)])
def test_empirical_states_peak_below_the_largest_charge(past_length, horizon, monkeypatch):
    m = ol.hmm_to_oom(ol.random_hmm(3, "01", rng=0))
    m.operator_stack
    peak, charged = _traced(lambda: ol.empirical_causal_states(m, past_length, horizon),
                            monkeypatch, causal)
    assert len(charged) == 2 and peak < 8 * max(charged)


def test_equal_weights_take_the_earliest_past():
    part = ol.enumerate_causal_states(ol.bernoulli(0.5), 3, 2)
    assert part.n_states == 1
    assert part.states[0].representative_past == ("0", "0", "0")


def test_join_maps_a_chain_to_its_lowest_label():
    labels = np.arange(8)
    _join(labels, np.array([0, 3, 7]), np.array([3, 5, 2]))
    assert labels.tolist() == [0, 1, 2, 0, 4, 0, 6, 2]


def test_join_matches_a_loop_over_the_pairs():
    # pairs already joined sit next to pairs that hook their root
    rng = np.random.default_rng(0)
    for n in (2, 5, 40):
        for _ in range(50):
            left, right = rng.integers(0, n, (2, int(rng.integers(1, 2 * n))))
            want = list(range(n))
            for a, b in zip(left.tolist(), right.tolist()):
                low, high = sorted((want[a], want[b]))
                want = [low if w == high else w for w in want]
            labels = np.arange(n)
            _join(labels, left, right)
            assert labels.tolist() == want


def test_identical_rows_form_one_component():
    part = ol.enumerate_causal_states(ol.bernoulli(0.5), 13, 8)
    assert part.n_states == 1 and len(part.states[0].member_pasts) == 2**13
    rows = np.tile([0.5, 0.5], (2**13, 1))
    assert not _components(rows, 1e-8).any()


# ---------------------------------------------------------------------------
# complexities


def test_single_state_zero_bits():
    part = ol.enumerate_causal_states(ol.bernoulli(0.9), 1, 1)
    assert ol.statistical_complexity(part) == 0.0
    assert ol.topological_complexity(part) == 0.0


def test_two_even_states_one_bit():
    part = ol.enumerate_causal_states(ol.hmm_to_oom(ol.periodic(["0", "1"])), 1, 2)
    assert ol.statistical_complexity(part) == pytest.approx(1.0)
    assert ol.topological_complexity(part) == pytest.approx(1.0)


def test_markov_entropy_closed_form():
    part = ol.enumerate_causal_states(ol.hmm_to_oom(markov2()), 1, 3)
    assert ol.statistical_complexity(part) == pytest.approx(np.log2(3) - 2 / 3, abs=1e-12)


def test_five_state_topological_complexity():
    part = ol.enumerate_causal_states(ol.hmm_to_oom(ol.periodic(list("01234"))), 1, 3)
    assert part.n_states == 5
    assert ol.topological_complexity(part) == pytest.approx(np.log2(5))


def test_entropy_bounded_by_log_count():
    for entry in curated_suite():
        part = ol.enumerate_causal_states(entry.model, entry.past_length, entry.horizon)
        assert ol.statistical_complexity(part) <= ol.topological_complexity(part) + 1e-12


# ---------------------------------------------------------------------------
# span rank (the finite-scale span identity)


def test_iid_span_rank_one():
    part = ol.enumerate_causal_states(ol.bernoulli(0.5), 2, 2)
    assert ol.causal_span_rank(part) == 1


def test_mixture_many_states_span_two():
    part = ol.enumerate_causal_states(mixture_2bern(0.2, 0.7), 3, 2)
    assert part.n_states == 4
    assert ol.causal_span_rank(part) == 2


def test_markov_span_two():
    part = ol.enumerate_causal_states(ol.hmm_to_oom(markov2()), 1, 3)
    assert ol.causal_span_rank(part) == 2


def span_rank_partitions():
    """Exact partitions of the curated suite; of signed coin mixtures with
    ``P(1^n) = 0``, whose computed value is a round-off below zero and is
    clamped; and of 200 seeded models, each followed by a sampled one."""
    for entry in curated_suite():
        yield ol.enumerate_causal_states(entry.model, entry.past_length, entry.horizon)
    for n in range(3, 9):
        yield ol.enumerate_causal_states(signed_coin_mixture(0.5 * 6 ** (1 / n)), n - 2, 2)
    for seed in range(200):
        m = seeded_model(seed)
        past_length, horizon = (4, 3) if len(m.alphabet) == 2 else (2, 2)
        yield ol.enumerate_causal_states(m, past_length, horizon)
        yield ol.empirical_causal_states(m, past_length, horizon, n_windows=500, seed=seed)


def test_span_rank_from_the_core_matches_the_dense_rows():
    clear = 0
    for part in span_rank_partitions():
        dense = np.linalg.svd(np.vstack([s.representative for s in part.states]),
                              compute_uv=False)
        core = np.linalg.svd(part.core, compute_uv=False)
        assert np.abs(core - dense[: core.size]).max() <= 1e-12 * dense[0]
        assert dense[core.size :].max(initial=0.0) <= 1e-12 * dense[0]
        rank, (kept, dropped) = _rank_cut(dense, DEFAULT_RANK_TOL)
        if kept >= MIN_RANK_MARGIN * dropped:
            assert ol.causal_span_rank(part) == rank
            clear += 1
    assert clear >= 300


def test_span_rank_recovers_dimension_on_curated_suite():
    for entry in curated_suite():
        assert entry.horizon >= entry.dim or entry.dim == 1
        part = ol.enumerate_causal_states(
            entry.model, entry.past_length, entry.horizon, cluster_tol=1e-8
        )
        assert ol.causal_span_rank(part) == entry.dim, entry.name
