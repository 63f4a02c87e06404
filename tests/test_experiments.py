import numpy as np
import pytest

import oomlab as ol
from oomlab import PreconditionError
from oomlab.processes import stationary_distribution

from curated import OVERFLOW, curated_suite, markov2, mixture_2bern, overflowing_model
from curated import signed_coin_mixture


# ---------------------------------------------------------------------------
# cylinder distance


def test_distance_to_self_is_zero():
    b = ol.bernoulli(0.5)
    assert ol.cylinder_distance(b, b, 3) == 0.0


def test_distance_between_nearby_coins():
    eps = 1e-3
    d = ol.cylinder_distance(ol.bernoulli(0.5), ol.bernoulli(0.5 + eps), 1)
    assert d == pytest.approx(eps, abs=1e-15)


def test_mixture_family_distance_shrinks_linearly():
    base, other = ol.bernoulli(0.5), ol.bernoulli(0.9)
    fam = ol.mixture_weight_family(base, other, [0.4, 0.2, 0.1])
    dists = [ol.cylinder_distance(fam.generator(t), base, 3) for t in fam.grid]
    assert dists[0] > dists[1] > dists[2] > 0
    # the gap is t times the largest cylinder deviation of the other part
    dev = ol.cylinder_distance(other, base, 3)
    for t, d in zip(fam.grid, dists):
        assert d <= t * dev + 1e-12


def test_model_pairs_match_the_word_loop():
    rng = np.random.default_rng(77)
    for i in range(120):
        alphabet = "01" if i % 3 else "abc"
        p, q = (
            ol.random_hmm(int(rng.integers(1, 5)), alphabet, rng=int(rng.integers(2**31)))
            for _ in range(2)
        )
        l = int(rng.integers(0, 6 if i % 3 else 4))
        expected = max(
            abs(ol.word_probability(p, w) - ol.word_probability(q, w))
            for w in ol.words_up_to(tuple(alphabet), l)
        )
        assert ol.cylinder_distance(p, q, l) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("first", [True, False])
def test_negative_word_values_raise(first):
    pair = (signed_coin_mixture(), ol.bernoulli(0.5))
    with pytest.raises(ol.ValidationError, match=r"^a word up to length 3 has probability "):
        ol.cylinder_distance(*(pair if first else pair[::-1]), 3)


@pytest.mark.parametrize("first", [True, False])
def test_overflowing_word_values_raise(first):
    pair = (overflowing_model(), ol.bernoulli(0.5))
    with pytest.raises(ol.ValidationError) as err:
        ol.cylinder_distance(*(pair if first else pair[::-1]), 4)
    assert str(err.value) == OVERFLOW.format(4)


def test_overflowing_distance_raises():
    huge = ol.OomModel(("0", "1"), {"0": [[1e200]], "1": [[0.5]]}, [1.0], [1.0])
    with pytest.raises(ol.ValidationError) as err:
        ol.cylinder_distance(huge, ol.bernoulli(0.5), 2)
    assert str(err.value) == OVERFLOW.format(2)


@pytest.mark.parametrize("limit", [True, False])
def test_overflowing_family_member_is_refused(limit):
    """Certified by its signs, the member reaches the distance scan."""
    family = ol.FamilySpec(
        "coin, and one member whose state images overflow",
        (1.0, 0.5),
        lambda t: overflowing_model() if t == (0.0 if limit else 0.5) else ol.bernoulli(0.5),
    )
    with pytest.raises(ol.ValidationError, match=r"overflows the float range$"):
        ol.run_semicontinuity(family, 3)


def test_distance_alphabet_mismatch():
    with pytest.raises(ol.ValidationError, match="alphabet"):
        ol.cylinder_distance(ol.bernoulli(0.5), ol.bernoulli(0.5, symbols=("a", "b")), 2)


# ---------------------------------------------------------------------------
# additivity


def test_two_distinct_coins_add_dimensions():
    rep = ol.run_additivity([(0.5, ol.bernoulli(0.2)), (0.5, ol.bernoulli(0.7))], 3)
    assert rep.verdict == "PASS"
    assert rep.points[-1]["dimension_report"]["dimension"] == 2


def test_identical_parts_are_refused():
    with pytest.raises(PreconditionError, match="pairwise distinct"):
        ol.run_additivity([(0.5, ol.bernoulli(0.5)), (0.5, ol.bernoulli(0.5))], 3)
    # and indeed the direct dimension is 1, not 2, which is why the refusal matters
    dup = ol.mixture_direct_sum([(0.5, ol.bernoulli(0.5)), (0.5, ol.bernoulli(0.5))])
    assert ol.process_dimension(dup, 2).dimension == 1


def test_nonstationary_part_is_refused():
    skewed = ol.hmm_to_oom(
        ol.markov_chain([[0, 1], [1, 0]], labels=["0", "1"], init=[1, 0])
    )
    with pytest.raises(PreconditionError, match="stationary"):
        ol.run_additivity([(0.5, ol.bernoulli(0.2)), (0.5, skewed)], 3)


def test_four_distinct_coins():
    parts = [(0.25, ol.bernoulli(p)) for p in (0.2, 0.5, 0.7, 0.9)]
    rep = ol.run_additivity(parts, 5)
    assert rep.verdict == "PASS"
    assert rep.points[-1]["dimension_report"]["dimension"] == 4


def test_heterogeneous_mixture_markov_plus_coin():
    rep = ol.run_additivity(
        [(0.5, ol.hmm_to_oom(markov2())), (0.5, ol.bernoulli(0.4))], 4
    )
    assert rep.verdict == "PASS"
    assert rep.points[-1]["dimension_report"]["dimension"] == 3


def _stationary_hmm(n_states: int, rng: int) -> ol.OomModel:
    h = ol.random_hmm(n_states, "01", rng=rng)
    init = stationary_distribution(sum(h.transition_emission.values()))
    return ol.hmm_to_oom(ol.HmmModel(h.alphabet, h.transition_emission, init))


def test_distinctness_of_thirteen_state_parts_is_checked():
    # distinctness is checked to length 26, past the reach of word enumeration
    rep = ol.run_additivity([(0.5, _stationary_hmm(13, 0)), (0.5, _stationary_hmm(13, 1))], 2)
    assert rep.points[-1]["model_dim"] == 26


def test_unstabilized_ladder_is_inconclusive():
    rep = ol.run_additivity([(0.5, ol.bernoulli(0.2)), (0.5, ol.bernoulli(0.7))], 1)
    assert rep.verdict == "INCONCLUSIVE"


# ---------------------------------------------------------------------------
# semicontinuity


def test_vanishing_mixture_weight_family():
    fam = ol.mixture_weight_family(ol.bernoulli(0.5), ol.bernoulli(0.9), [0.4, 0.2, 0.1, 0.05])
    rep = ol.run_semicontinuity(fam, 3)
    assert rep.verdict == "PASS"
    grid_dims = [p["dimension_report"]["dimension"] for p in rep.points[:-1]]
    assert grid_dims == [2, 2, 2, 2]
    assert rep.points[-1]["dimension_report"]["dimension"] == 1  # drop in the limit


def test_constant_family():
    fam = ol.FamilySpec(
        description="constant",
        grid=(0.3, 0.2, 0.1),
        generator=lambda t: ol.bernoulli(0.5),
    )
    rep = ol.run_semicontinuity(fam, 2)
    assert rep.verdict == "PASS"


def test_coalescing_coins_family():
    fam = ol.coalescing_bernoulli_family(0.5, [0.2, 0.1, 0.05])
    rep = ol.run_semicontinuity(fam, 3)
    assert rep.verdict == "PASS"
    assert rep.points[-1]["dimension_report"]["dimension"] == 1


def test_merging_markov_rows_family():
    fam = ol.markov_merge_family([0.3, 0.2, 0.1])
    rep = ol.run_semicontinuity(fam, 3)
    assert rep.verdict == "PASS"
    assert rep.points[0]["dimension_report"]["dimension"] == 2
    assert rep.points[-1]["dimension_report"]["dimension"] == 1


def test_seven_symbol_family_validates():
    fam = ol.mixture_weight_family(
        ol.iid({str(i): 1 / 7 for i in range(7)}),
        ol.iid({str(i): (i + 1) / 28 for i in range(7)}),
        [0.2, 0.1],
    )
    rep = ol.run_semicontinuity(fam, 2)
    assert rep.verdict == "PASS"
    assert rep.points[-1]["dimension_report"]["dimension"] == 1


def test_diverging_distances_are_refused():
    # a family whose members do not approach the claimed limit
    fam = ol.FamilySpec(
        description="wrong limit",
        grid=(0.3, 0.2, 0.1),
        generator=lambda t: ol.bernoulli(0.5 + t) if t > 0 else ol.bernoulli(0.9),
    )
    with pytest.raises(PreconditionError, match="nonincreasing"):
        ol.run_semicontinuity(fam, 2)


def test_invalid_family_member_is_refused():
    def gen(t):
        if t == 0.0:
            return ol.bernoulli(0.5)
        return ol.OomModel(
            alphabet=("0", "1"),
            operators={"0": [[0.5]], "1": [[0.5]]},
            init=[1.0],
            eval=[1.0 + t],  # breaks unit mass away from the limit
        )

    fam = ol.FamilySpec(description="invalid", grid=(0.2, 0.1), generator=gen)
    with pytest.raises(PreconditionError, match="validation"):
        ol.run_semicontinuity(fam, 2)

    # a signed member that meets both conditions but has negative word values
    signed = signed_coin_mixture()
    rep = ol.validate_oom(signed)
    fam = ol.FamilySpec(
        description="signed",
        grid=(0.2, 0.1),
        generator=lambda t: signed if t == 0.1 else ol.bernoulli(0.5),
    )
    with pytest.raises(PreconditionError) as err:
        ol.run_semicontinuity(fam, 2)
    assert str(err.value) == (
        "family member at t=0.1: model failed validation: "
        f"condition-1 residual {rep.condition1_residual:.6e}, "
        f"condition-2 residual {rep.condition2_residual:.6e}, "
        f"most negative probability {rep.most_negative_probability:.6e} at depth 8"
    )
    assert rep.most_negative_probability < 0.0


# ---------------------------------------------------------------------------
# upper bound


def test_iid_bound_is_tight_at_zero():
    rep = ol.run_upperbound(ol.bernoulli(0.5), 1, 1, 2)
    assert rep.verdict == "PASS"
    point = rep.points[0]
    assert point["n_causal_states"] == 1
    assert point["topological_complexity_bits"] == 0.0


def test_markov_bound_is_tight_at_one_bit():
    rep = ol.run_upperbound(ol.hmm_to_oom(markov2()), 1, 3, 3)
    assert rep.verdict == "PASS"
    point = rep.points[0]
    assert point["dimension_report"]["dimension"] == 2
    assert point["n_causal_states"] == 2
    assert point["causal_span_rank"] == 2


def test_mixture_bound_is_slack():
    rep = ol.run_upperbound(mixture_2bern(0.2, 0.7), 3, 2, 3)
    assert rep.verdict == "PASS"
    point = rep.points[0]
    assert point["dimension_report"]["dimension"] == 2
    assert point["n_causal_states"] == 4  # distinct count statistics at this past length


def test_bound_holds_across_curated_suite():
    for entry in curated_suite():
        rep = ol.run_upperbound(
            entry.model, entry.past_length, entry.horizon, entry.l_max
        )
        assert rep.verdict == "PASS", entry.name
        point = rep.points[0]
        assert point["dimension_report"]["dimension"] <= point["n_causal_states"]
        assert point["causal_span_rank"] == point["dimension_report"]["dimension"]


def test_nonstationary_process_is_refused():
    skewed = ol.hmm_to_oom(
        ol.markov_chain([[0, 1], [1, 0]], labels=["0", "1"], init=[1, 0])
    )
    with pytest.raises(PreconditionError, match="stationary"):
        ol.run_upperbound(skewed, 1, 2, 2)


# ---------------------------------------------------------------------------
# report reproducibility


def test_reports_are_bit_for_bit_reproducible():
    def run():
        rep = ol.run_additivity([(0.5, ol.bernoulli(0.2)), (0.5, ol.bernoulli(0.7))], 3)
        return ol.dumps_canonical(rep.to_dict())

    assert run() == run()


def test_runtime_not_serialized():
    rep = ol.run_upperbound(ol.bernoulli(0.5), 1, 1, 2)
    assert rep.runtime_seconds is not None
    assert "runtime" not in ol.dumps_canonical(rep.to_dict())


def test_growing_mixture_probe_is_unbounded():
    # finite sections of the uncountable-mixture picture: dimension grows with k
    params = [0.1, 0.3, 0.5, 0.7, 0.9]
    for k in range(1, 6):
        if k == 1:
            model = ol.bernoulli(params[0])
        else:
            model = ol.mixture_direct_sum(
                [(1.0 / k, ol.bernoulli(p)) for p in params[:k]]
            )
        rep = ol.process_dimension(model, k + 1)
        assert rep.stabilized and rep.dimension == k
