from fractions import Fraction

import numpy as np
import pytest

import oomlab as ol
from oomlab import ValidationError

from curated import curated_suite, markov2
from oracles import RationalProductStateMixture, rational_rank


def qubit_product(p0: float, p1: float) -> ol.NcOomModel:
    """One-dimensional model whose state is the product of tr(rho .) factors."""
    alg = ol.construct_algebra([2])
    ops = np.array([[[p0]], [[0.0]], [[0.0]], [[p1]]], dtype=complex)
    return ol.NcOomModel(algebra=alg, op_per_basis=ops, init=[1.0], eval=[1.0])


def pauli_z(alg: ol.CStarAlgebra) -> ol.AlgebraElement:
    return ol.AlgebraElement(alg, [np.diag([1.0, -1.0])])


# ---------------------------------------------------------------------------
# validation


def test_embedded_coin_validates_with_zero_residuals():
    rep = ol.validate_ncoom(ol.embed_classical(ol.bernoulli(0.5)))
    assert rep.passed
    assert rep.condition1_residual == 0.0
    assert rep.condition2_residual == 0.0
    assert rep.worst_negative_real >= 0.0


def test_perturbed_operator_breaks_condition_two_by_known_amount():
    m = ol.embed_classical(ol.bernoulli(0.5))
    delta = 1e-3
    ops = np.array(m.op_per_basis, dtype=complex)
    ops[0] = ops[0] + delta
    broken = ol.NcOomModel(algebra=m.algebra, op_per_basis=ops, init=m.init, eval=m.eval)
    rep = ol.validate_ncoom(broken, l_val=1, samples=5)
    assert not rep.passed
    assert rep.condition2_residual == pytest.approx(delta, abs=1e-15)


def test_qubit_product_state_validates():
    assert ol.validate_ncoom(qubit_product(0.8, 0.2)).passed


def test_validation_deterministic_given_seed():
    q = qubit_product(0.6, 0.4)
    a = ol.validate_ncoom(q, seed=5)
    b = ol.validate_ncoom(q, seed=5)
    assert a.to_dict() == b.to_dict()


def test_shape_mismatch_rejected():
    alg = ol.construct_algebra([2])
    with pytest.raises(ValidationError):
        ol.NcOomModel(algebra=alg, op_per_basis=np.zeros((3, 1, 1)), init=[1.0], eval=[1.0])


# ---------------------------------------------------------------------------
# evaluation


def test_unit_factors_evaluate_to_one():
    q = qubit_product(0.8, 0.2)
    one = ol.unit_element(q.algebra)
    assert ol.nc_evaluate(q, [one, one, one]) == pytest.approx(1.0)


def test_empty_tensor_evaluates_to_one():
    assert ol.nc_evaluate(qubit_product(0.8, 0.2), []) == pytest.approx(1.0)


def test_product_state_factorizes():
    q = qubit_product(0.8, 0.2)
    z = pauli_z(q.algebra)
    assert ol.nc_evaluate(q, [z]) == pytest.approx(0.6)  # tr(rho Z)
    assert ol.nc_evaluate(q, [z, z]) == pytest.approx(0.36)


def test_bilinearity_by_superposition():
    q = qubit_product(0.7, 0.3)
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = ol.random_element(q.algebra, rng)
        b = ol.random_element(q.algebra, rng)
        c = ol.random_element(q.algebra, rng)
        lam = complex(rng.normal(), rng.normal())
        lhs = ol.nc_evaluate(q, [a + lam * b, c])
        rhs = ol.nc_evaluate(q, [a, c]) + lam * ol.nc_evaluate(q, [b, c])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_selfadjoint_factors_give_real_values_on_validated_models():
    q = qubit_product(0.8, 0.2)
    rng = np.random.default_rng(29)
    for _ in range(50):
        b = ol.random_element(q.algebra, rng)
        a = b + b.adjoint()
        val = ol.nc_evaluate(q, [a])
        assert abs(val.imag) <= 1e-12


def test_algebra_mismatch_rejected():
    q = qubit_product(0.8, 0.2)
    other = ol.construct_algebra([1, 1])
    with pytest.raises(ValidationError):
        ol.nc_evaluate(q, [ol.unit_element(other)])


# ---------------------------------------------------------------------------
# classical embedding


def test_embedding_matches_classical_on_a_word():
    b = ol.bernoulli(0.5)
    e = ol.embed_classical(b)
    factors = ol.indicator_factors(e, b.alphabet, ("1", "0", "1"))
    assert ol.nc_evaluate(e, factors) == pytest.approx(0.125, abs=1e-15)


def test_commuting_diagram_on_curated_suite():
    for entry in curated_suite():
        e = ol.embed_classical(entry.model)
        for w in ol.words_up_to(entry.model.alphabet, 4):
            val = ol.nc_evaluate(e, ol.indicator_factors(e, entry.model.alphabet, w))
            assert abs(val.imag) <= 1e-12
            assert val.real == pytest.approx(
                ol.word_probability(entry.model, w), abs=1e-12
            )


def test_general_function_factors_expand_bilinearly():
    b = ol.bernoulli(0.4)
    e = ol.embed_classical(b)
    basis = ol.basis_elements(e.algebra)
    f = 0.3 * basis[0] + 1.7 * basis[1]
    g = (-0.5) * basis[0] + 2.0 * basis[1]
    expected = 0.0
    for i, fi in enumerate([0.3, 1.7]):
        for j, gj in enumerate([-0.5, 2.0]):
            w = (b.alphabet[i], b.alphabet[j])
            expected += fi * gj * ol.word_probability(b, w)
    assert ol.nc_evaluate(e, [f, g]) == pytest.approx(expected, abs=1e-12)


def test_embedding_preserves_dimension_on_curated_suite():
    for entry in curated_suite():
        e = ol.embed_classical(entry.model)
        assert e.dim == entry.model.dim
        nc = ol.nc_process_dimension(e, entry.l_max)
        cl = ol.process_dimension(entry.model, entry.l_max)
        assert nc.stabilized and cl.stabilized
        assert nc.dimension == cl.dimension == entry.dim, entry.name


# ---------------------------------------------------------------------------
# Hankel blocks and dimension


def test_product_state_blocks_are_rank_one():
    q = qubit_product(0.8, 0.2)
    for level in range(1, 4):
        block = ol.nc_hankel(q, level, level)
        assert ol.numerical_rank(block.singular_values) == 1


def test_empty_by_empty_entry_is_one():
    block = ol.nc_hankel(qubit_product(0.8, 0.2), 1, 1)
    assert block.matrix[0, 0] == pytest.approx(1.0)


def test_embedded_block_equals_classical_block():
    mix = ol.mixture_direct_sum([(0.5, ol.bernoulli(0.2)), (0.5, ol.bernoulli(0.7))])
    cl = ol.build_hankel(mix, 2, 2)
    nc = ol.nc_hankel(ol.embed_classical(mix), 2, 2)
    assert np.allclose(nc.matrix.imag, 0.0, atol=0.0)
    assert np.allclose(nc.matrix.real, cl.matrix, atol=1e-15)


def test_product_state_dimension_one():
    rep = ol.nc_process_dimension(qubit_product(0.8, 0.2), 3)
    assert rep.stabilized and rep.dimension == 1


def test_mixture_of_distinct_product_states_has_dimension_two():
    mix = ol.nc_mixture_direct_sum(
        [(0.5, qubit_product(0.9, 0.1)), (0.5, qubit_product(0.3, 0.7))]
    )
    rep = ol.nc_process_dimension(mix, 3)
    assert rep.stabilized and rep.dimension == 2
    exact = RationalProductStateMixture(
        2,
        [
            (Fraction(1, 2), [Fraction(9, 10), Fraction(1, 10)]),
            (Fraction(1, 2), [Fraction(3, 10), Fraction(7, 10)]),
        ],
    )
    assert rational_rank(exact.hankel(3, 3)) == 2


def test_embedded_mixture_dimension_equals_classical():
    for k, params in [(2, [0.2, 0.7]), (3, [0.2, 0.5, 0.9])]:
        mix = ol.mixture_direct_sum([(1.0 / k, ol.bernoulli(p)) for p in params])
        rep = ol.nc_process_dimension(ol.embed_classical(mix), k + 1)
        assert rep.stabilized and rep.dimension == k


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dimension_adds_over_distinct_state_mixtures(k):
    # each product state is one-dimensional and they are pairwise distinct
    weights = [(0.1, 0.9), (0.3, 0.7), (0.55, 0.45), (0.8, 0.2)][:k]
    parts = [(1.0 / k, qubit_product(p0, p1)) for p0, p1 in weights]
    for _, m in parts:
        assert ol.validate_ncoom(m, l_val=2, samples=50).passed
    mix = ol.nc_mixture_direct_sum(parts)
    rep = ol.nc_process_dimension(mix, k)
    assert rep.stabilized and rep.dimension == k == sum(m.dim for _, m in parts)


# ---------------------------------------------------------------------------
# NC mixtures


def test_single_part_nc_mixture_identity():
    q = qubit_product(0.8, 0.2)
    mix = ol.nc_mixture_direct_sum([(1.0, q)])
    rng = np.random.default_rng(31)
    for _ in range(20):
        factors = [ol.random_element(q.algebra, rng) for _ in range(3)]
        assert ol.nc_evaluate(mix, factors) == pytest.approx(
            ol.nc_evaluate(q, factors), abs=1e-13
        )


def test_two_product_states_mix_expectations():
    mix = ol.nc_mixture_direct_sum(
        [(0.5, qubit_product(0.9, 0.1)), (0.5, qubit_product(0.3, 0.7))]
    )
    z = pauli_z(mix.algebra)
    assert ol.nc_evaluate(mix, [z]) == pytest.approx(0.2)  # 0.5*0.8 + 0.5*(-0.4)


def test_three_part_mixture_is_componentwise_on_random_tensors():
    parts = [
        (0.2, qubit_product(0.9, 0.1)),
        (0.3, qubit_product(0.5, 0.5)),
        (0.5, qubit_product(0.2, 0.8)),
    ]
    mix = ol.nc_mixture_direct_sum(parts)
    rng = np.random.default_rng(37)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        factors = [ol.random_element(mix.algebra, rng) for _ in range(n)]
        expected = sum(w * ol.nc_evaluate(m, factors) for w, m in parts)
        assert ol.nc_evaluate(mix, factors) == pytest.approx(expected, abs=1e-12)


def test_nc_mixture_algebra_mismatch():
    q = qubit_product(0.8, 0.2)
    e = ol.embed_classical(ol.bernoulli(0.5))
    with pytest.raises(ValidationError, match="algebra"):
        ol.nc_mixture_direct_sum([(0.5, q), (0.5, e)])


@pytest.mark.parametrize(
    "mixture, part",
    [
        (ol.mixture_direct_sum, ol.bernoulli(0.5)),
        (ol.nc_mixture_direct_sum, ol.embed_classical(ol.bernoulli(0.5))),
    ],
    ids=["classical", "operator-algebra"],
)
@pytest.mark.parametrize(
    "weights, message",
    [
        ([], r"^mixture needs at least one part$"),
        ([0.5, 0.0], r"^mixture weights must be positive$"),
        ([0.25, 0.25], r"^mixture weights sum to 0\.5, not 1$"),
    ],
    ids=["empty", "non-positive", "sum"],
)
def test_mixture_weight_checks(mixture, part, weights, message):
    with pytest.raises(ValidationError, match=message):
        mixture([(w, part) for w in weights])


# ---------------------------------------------------------------------------
# stationarity


def test_product_state_is_stationary():
    rep = ol.nc_stationarity_check(qubit_product(0.8, 0.2))
    assert rep.stationary and rep.residual <= 1e-12


def test_embedded_stationary_model_stays_stationary():
    rep = ol.nc_stationarity_check(ol.embed_classical(ol.hmm_to_oom(markov2())))
    assert rep.stationary


def test_embedded_phase_start_is_not_stationary():
    cyc = ol.markov_chain([[0, 1], [1, 0]], labels=["A", "B"], init=[1, 0])
    m = ol.hmm_to_oom(cyc)
    e = ol.embed_classical(m)
    rep = ol.nc_stationarity_check(e)
    assert not rep.stationary
    # on indicator tuples the residual is exactly the classical one
    classical = ol.stationarity_check(m, l=2).residual
    worst = 0.0
    one = ol.unit_element(e.algebra)
    for w in ol.words_up_to(m.alphabet, 2):
        factors = ol.indicator_factors(e, m.alphabet, w)
        gap = abs(
            ol.nc_evaluate(e, [one] + factors) - ol.nc_evaluate(e, factors)
        )
        worst = max(worst, gap)
    assert worst == pytest.approx(classical, abs=1e-12)


def test_reverse_order_convention_is_invariant_by_construction():
    cyc = ol.markov_chain([[0, 1], [1, 0]], labels=["A", "B"], init=[1, 0])
    e = ol.embed_classical(ol.hmm_to_oom(cyc))
    rep = ol.nc_stationarity_check(e, reverse_order=True)
    assert rep.stationary and rep.residual <= 1e-12


@pytest.mark.parametrize("l", [1, 2, 3, 5])
def test_exact_invariance_on_basis_tuples(l):
    assert ol.nc_stationarity_check(qubit_product(0.8, 0.2), l=l).residual == 0.0
    stationary = ol.embed_classical(ol.hmm_to_oom(markov2()))
    assert ol.nc_stationarity_check(stationary, l=l).residual == 0.0
    m = ol.hmm_to_oom(ol.markov_chain([[0, 1], [1, 0]], labels=["A", "B"], init=[1, 0]))
    e = ol.embed_classical(m)
    rep = ol.nc_stationarity_check(e, l=l)
    assert rep.residual == pytest.approx(ol.stationarity_check(m, l=l).residual, abs=1e-15)
    assert rep.residual == pytest.approx(1.0) and not rep.stationary
    assert ol.nc_stationarity_check(e, l=l, reverse_order=True).residual <= 1e-12


def test_invariance_bound_on_general_tuples():
    # values are multilinear, so a general tuple's gap is at most the basis
    # residual times the product of its factors' coefficient 1-norms
    cyc = ol.markov_chain([[0.1, 0.9], [0.8, 0.2]], labels=["A", "B"], init=[1, 0])
    e = ol.embed_classical(ol.hmm_to_oom(cyc))
    residual = ol.nc_stationarity_check(e, l=3).residual
    one = ol.unit_element(e.algebra)
    rng = np.random.default_rng(5)
    for n in range(1, 4):
        factors = [ol.random_element(e.algebra, rng, normalize=True) for _ in range(n)]
        gap = abs(ol.nc_evaluate(e, [one] + factors) - ol.nc_evaluate(e, factors))
        bound = residual * np.prod([np.abs(a.coefficients()).sum() for a in factors])
        assert gap <= bound + 1e-12


@pytest.mark.parametrize(
    "check, name",
    [
        (lambda q: ol.validate_ncoom(q, l_val=-1), "l_val"),
        (lambda q: ol.nc_stationarity_check(q, l=-1), "l"),
    ],
    ids=["validate", "stationarity"],
)
def test_negative_depths_rejected(check, name):
    with pytest.raises(ValueError, match=rf"^{name} must be nonnegative$"):
        check(qubit_product(0.8, 0.2))
