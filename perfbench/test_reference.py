"""Tests of the benchmark's reference checks, on cases with known answers.

Run with ``python3 -m pytest perfbench``.
"""

import itertools

import numpy as np
import pytest

import reference as ref


def coin_mixture(ps, weights):
    """Direct sum of i.i.d. coins written out by hand: diagonal operators."""
    ops = [np.diag([1 - p for p in ps]), np.diag(list(ps))]
    return ops, np.asarray(weights, dtype=float), np.ones(len(ps))


def test_forward_probability_of_a_coin_word():
    ops, init, evalv = coin_mixture([0.3], [1.0])
    assert ref.forward_probability(ops, init, evalv, [1, 0, 1]) == pytest.approx(0.3 * 0.7 * 0.3)
    assert ref.forward_probability(ops, init, evalv, []) == 1.0


def test_hmm_forward_matches_the_transposed_model():
    rng = np.random.default_rng(0)
    rows = rng.random((3, 6))
    rows /= rows.sum(axis=1, keepdims=True)
    te = [rows[:, :3], rows[:, 3:]]
    init = np.array([0.2, 0.3, 0.5])
    ops = [m.T for m in te]
    for word in itertools.product((0, 1), repeat=4):
        assert ref.hmm_forward_probability(te, init, word) == pytest.approx(
            ref.forward_probability(ops, init, np.ones(3), word), rel=1e-12
        )


def test_word_probabilities_of_each_length_sum_to_one():
    ops, init, evalv = coin_mixture([0.2, 0.9], [0.4, 0.6])
    for n in range(4):
        total = sum(ref.forward_probability(ops, init, evalv, w)
                    for w in itertools.product((0, 1), repeat=n))
        assert total == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_coin_mixture_with_j_distinct_parts_has_dimension_j(j):
    ops, init, evalv = coin_mixture(np.linspace(0.1, 0.9, j), np.full(j, 1.0 / j))
    assert ref.model_dimension(ops, init, evalv, 6) == j


def test_repeated_coins_collapse():
    ops, init, evalv = coin_mixture([0.3, 0.3, 0.8], [0.2, 0.3, 0.5])
    assert ref.model_dimension(ops, init, evalv, 6) == 2


def test_hankel_block_entries_are_word_probabilities():
    ops, init, evalv = coin_mixture([0.2, 0.7], [0.5, 0.5])
    block = ref.hankel_block(ops, init, evalv, 2)
    assert block.shape == (7, 7)
    assert block[0, 0] == pytest.approx(1.0)
    assert sorted(block[0]) == pytest.approx(sorted(block[:, 0]))


def test_word_functionals_are_in_lexicographic_order():
    rng = np.random.default_rng(3)
    ops = [rng.random((3, 3)) for _ in range(2)]
    evalv = rng.random(3)
    rows = ref.word_functionals(ops, evalv, 2)
    # The word (1, 0): symbol 1 acts first, so its functional is l T_0 T_1.
    assert rows.shape == (4, 3)
    assert np.allclose(rows[2], evalv @ ops[0] @ ops[1])


def test_gap_dimension_finds_the_rank_of_a_low_rank_matrix():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 30))
    assert ref.gap_dimension(a) == 5


def test_gap_dimension_refuses_a_spectrum_without_a_gap():
    sv = 10.0 ** -np.arange(12)  # one decade between neighbours, never three
    with pytest.raises(ref.Mismatch):
        ref.gap_dimension(np.diag(sv))


def test_order_one_chain_stationary_weights_are_closed_form():
    p01, p11 = 0.3, 0.6  # P(next = 1 | last = 0), P(next = 1 | last = 1)
    t = ref.order_r_transition([p01, p11])
    assert np.allclose(t.sum(axis=1), 1.0)
    pi = ref.stationary(t)
    assert pi == pytest.approx([1 - p01 / (1 - p11 + p01), p01 / (1 - p11 + p01)])


def test_order_three_chain_has_eight_contexts_and_its_dimension():
    p_one = np.linspace(0.15, 0.85, 8)
    t = ref.order_r_transition(p_one)
    pi = ref.stationary(t)
    assert pi.shape == (8,) and pi.sum() == pytest.approx(1.0)
    # Observed model: each context emits its newest bit.
    ops = [(np.diag([float((s & 1) == b) for s in range(8)]) @ t).T for b in (0, 1)]
    assert ref.model_dimension(ops, pi, np.ones(8), 6) == 8


def test_stationary_refuses_a_reducible_chain():
    with pytest.raises(ref.Mismatch):
        ref.stationary(np.eye(3))


def test_entropy_bits():
    assert ref.entropy_bits(np.full(8, 0.125)) == pytest.approx(3.0)
    assert ref.entropy_bits([1.0, 0.0]) == 0.0


def test_frequency_z_accepts_a_fair_sample_and_rejects_a_biased_claim():
    rng = np.random.default_rng(2)
    traj = tuple(np.where(rng.random(20_000) < 0.3, "1", "0"))
    assert abs(ref.frequency_z(traj, ("0", "1"), ["1"], 0.3)) < ref.SIGMA_BOUND
    assert abs(ref.frequency_z(traj, ("0", "1"), ["1", "1"], 0.09)) < ref.SIGMA_BOUND
    assert abs(ref.frequency_z(traj, ("0", "1"), ["1"], 0.35)) > ref.SIGMA_BOUND
