from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oomlab as ol
from oomlab import ValidationError
from oomlab.ncoom import _densities
from oomlab.oom import _direct_sum

from curated import OVERFLOW, curated_suite, markov2, overflowing_model, random_element
from curated import signed_qubit_mixture
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
    assert rep.most_negative_eigenvalue >= 0.0


def test_perturbed_operator_breaks_condition_two_by_known_amount():
    m = ol.embed_classical(ol.bernoulli(0.5))
    delta = 1e-3
    ops = np.array(m.op_per_basis, dtype=complex)
    ops[0] = ops[0] + delta
    broken = ol.NcOomModel(algebra=m.algebra, op_per_basis=ops, init=m.init, eval=m.eval)
    rep = ol.validate_ncoom(broken, l_val=1)
    assert not rep.passed
    assert rep.condition2_residual == pytest.approx(delta, abs=1e-15)


def test_overflowing_values_fail_validation():
    with pytest.raises(ValidationError) as err:
        ol.validate_ncoom(ol.embed_classical(overflowing_model()))
    assert str(err.value) == OVERFLOW.format(4)


def test_qubit_product_state_validates():
    assert ol.validate_ncoom(qubit_product(0.8, 0.2)).passed


def cp_model(blocks, k: int, rng) -> ol.NcOomModel:
    """Finitely correlated model on ``k x k`` matrices, vectorised row-major:
    an isometry ``V: C^k -> C^D (x) C^k`` with ``D = sum(blocks)`` gives
    ``E_a(sigma) = Tr_D[(a (x) 1) V sigma V^*]``, read by the trace from a
    random density. Every such model is positive."""
    alg = ol.construct_algebra(blocks)
    n = sum(blocks)
    v = np.linalg.qr(rng.normal(size=(n * k, k)) + 1j * rng.normal(size=(n * k, k)))[0]
    ops = []
    for e in ol.basis_elements(alg):
        a, pos = np.zeros((n, n), dtype=complex), 0
        for b in e.blocks:
            a[pos : pos + len(b), pos : pos + len(b)] = b
            pos += len(b)
        lifted = np.kron(a, np.eye(k)) @ v
        # column p*k + q is the image of the matrix unit e_p e_q^T
        ops.append(np.stack([
            np.einsum("ikil->kl", np.outer(lifted[:, p], v[:, q].conj()).reshape(n, k, n, k))
            .reshape(-1)
            for p in range(k) for q in range(k)
        ], axis=1))
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    sigma = g @ g.conj().T
    return ol.NcOomModel(algebra=alg, op_per_basis=ops,
                         init=(sigma / np.trace(sigma)).reshape(-1), eval=np.eye(k).reshape(-1))


def brute_force_densities(m: ol.NcOomModel, n: int) -> list:
    """``phi[I, J] = phi(E_IJ)`` from :func:`nc_evaluate` on basis tuples, for
    every block tuple: sizes in lexicographic order, then block tuples."""
    basis, dims = ol.basis_elements(m.algebra), m.algebra.block_dims
    starts = np.cumsum([d * d for d in dims]) - [d * d for d in dims]
    out = []
    for sizes in product(sorted(set(dims)), repeat=n):
        for blocks in product(*([b for b, d in enumerate(dims) if d == s] for s in sizes)):
            rows = list(product(*(range(dims[b]) for b in blocks)))
            out.append(np.array([[
                ol.nc_evaluate(m, [basis[starts[b] + i * dims[b] + j]
                                   for b, i, j in zip(blocks, row, col)])
                for col in rows] for row in rows]))
    return out


@pytest.mark.parametrize("blocks", [[2], [2, 1], [1, 1, 1], [3]])
def test_densities_match_brute_force_on_cp_models(blocks):
    rng = np.random.default_rng(sum(blocks) * 10 + len(blocks))
    for k in (1, 2):
        m = cp_model(blocks, k, rng)
        lowest = 1.0
        for n in range(1, 4):
            fast = [phi for batch in _densities(m, n) for phi in batch]
            slow = brute_force_densities(m, n)
            assert len(fast) == len(slow)
            for a, b in zip(fast, slow):
                assert np.max(np.abs(a - b)) <= 1e-12
            lowest = min(lowest, *(np.linalg.eigvalsh(0.5 * (b + b.conj().T))[0] for b in slow))
            rep = ol.validate_ncoom(m, l_val=n)
            assert rep.passed and rep.checked_depth == n
            assert rep.hermitian_defect <= 1e-12
            assert rep.most_negative_eigenvalue == pytest.approx(lowest, abs=1e-12)


def _signed_hmm_mixtures():
    """200 seeded models over 1-3 symbols: induced models of random HMMs and
    ``(1 + w) P_A - w P_B`` for two of them, which satisfy both defining
    equalities and often take negative values."""
    rng = np.random.default_rng(909)
    out = []
    for i in range(200):
        alphabet = [str(s) for s in range(int(rng.integers(1, 4)))]
        a = ol.hmm_to_oom(ol.random_hmm(int(rng.integers(1, 4)), alphabet, rng=2 * i))
        if i % 2 == 0:
            out.append((a, int(rng.integers(0, 6))))
            continue
        b = ol.hmm_to_oom(ol.random_hmm(int(rng.integers(1, 4)), alphabet, rng=2 * i + 1))
        w = float(rng.uniform(0.05, 1.0))
        parts = [(m.operator_stack, m.init, m.eval) for m in (a, b)]
        ops, init, evalv = _direct_sum((1 + w, -w), parts, float)
        out.append((ol.OomModel(alphabet, dict(zip(alphabet, ops)), init, evalv),
                    int(rng.integers(0, 6))))
    return out


def test_embedded_models_reduce_to_word_nonnegativity():
    invalid = 0
    for m, depth in _signed_hmm_mixtures():
        classical = ol.validate_oom(m, l_val=depth)
        rep = ol.validate_ncoom(ol.embed_classical(m), l_val=depth)
        assert rep.checked_depth == classical.checked_depth == depth
        expected = classical.most_negative_probability
        assert abs(rep.most_negative_eigenvalue - expected) <= 4e-16 * max(1.0, abs(expected))
        assert rep.hermitian_defect == 0.0
        assert rep.passed == classical.passed
        invalid += not rep.passed
    assert invalid >= 20


def test_signed_mixture_passes_one_site_and_fails_two():
    m = signed_qubit_mixture()
    one = ol.validate_ncoom(m, l_val=1)
    assert one.passed and one.checked_depth == 1
    assert one.most_negative_eigenvalue == pytest.approx(0.25, abs=1e-15)
    two = ol.validate_ncoom(m, l_val=2)
    assert not two.passed and two.checked_depth == 2
    assert two.most_negative_eigenvalue == pytest.approx(-0.125, abs=1e-15)
    assert two.condition1_residual == two.condition2_residual == two.hermitian_defect == 0.0


def test_qubit_product_fixture_certified_to_depth_four(fixtures_dir):
    rep = ol.validate_ncoom(ol.parse_model_file(f"{fixtures_dir}/qubit_product.json"))
    assert rep.passed and rep.checked_depth == 4
    assert rep.most_negative_eigenvalue == pytest.approx(0.2**4, rel=1e-12)


@pytest.mark.parametrize(
    "model, asked, checked",
    [
        # depth 9 would take 8^9 = 2^27 eigenvalue work for its one 512 x 512 density
        (qubit_product(0.8, 0.2), 12, 8),
        # depth 5 would hold 2 * 26^5 entries, past the 2^22 of the budget
        (ol.embed_classical(ol.iid({str(i): 1 / 26 for i in range(26)})), 6, 4),
    ],
    ids=["qubit", "coin26"],
)
def test_budget_lowers_the_checked_depth(model, asked, checked):
    rep = ol.validate_ncoom(model, l_val=asked)
    assert rep.passed and rep.checked_depth == checked


@pytest.mark.parametrize(
    "d, parts",
    [
        (2, [(1, [Fraction(4, 5), Fraction(1, 5)])]),
        (2, [(Fraction(1, 3), [Fraction(9, 10), Fraction(1, 10)]),
             (Fraction(2, 3), [Fraction(1, 4), Fraction(3, 4)])]),
        (2, [(Fraction(3, 2), [Fraction(1, 2), Fraction(1, 2)]), (Fraction(-1, 2), [1, 0])]),
        (3, [(Fraction(6, 5), [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
             (Fraction(-1, 5), [Fraction(1, 10), Fraction(1, 10), Fraction(4, 5)])]),
    ],
    ids=["product", "mixture", "signed", "signed-qutrit"],
)
def test_diagonal_product_mixtures_match_the_rational_oracle(d, parts):
    exact = RationalProductStateMixture(d, parts)
    models = []
    for _, diag in exact.parts:
        ops = np.zeros((d * d, 1, 1), dtype=complex)
        ops[[i * d + i for i in range(d)], 0, 0] = [float(x) for x in diag]
        models.append((ops, np.ones(1), np.ones(1)))
    ops, init, evalv = _direct_sum([float(w) for w, _ in exact.parts], models, complex)
    m = ol.NcOomModel(algebra=ol.construct_algebra([d]), op_per_basis=ops, init=init, eval=evalv)
    lowest = Fraction(1)
    for n in range(1, 5):
        (phi,) = _densities(m, n)  # one block, so one block tuple
        assert not (phi[0] - np.diag(np.diag(phi[0]))).any()
        lowest = min(lowest, *(exact.value([i * d + i for i in t])
                               for t in product(range(d), repeat=n)))
        rep = ol.validate_ncoom(m, l_val=n)
        assert rep.most_negative_eigenvalue == pytest.approx(float(lowest), abs=1e-15)


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
        a = random_element(q.algebra, rng)
        b = random_element(q.algebra, rng)
        c = random_element(q.algebra, rng)
        lam = complex(rng.normal(), rng.normal())
        lhs = ol.nc_evaluate(q, [a + lam * b, c])
        rhs = ol.nc_evaluate(q, [a, c]) + lam * ol.nc_evaluate(q, [b, c])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_selfadjoint_factors_give_real_values_on_validated_models():
    q = qubit_product(0.8, 0.2)
    rng = np.random.default_rng(29)
    for _ in range(50):
        b = random_element(q.algebra, rng)
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


@pytest.mark.parametrize("weights", [(np.nan, 1.0), (1.0, np.nan), (0.5, np.inf)])
def test_nc_mixture_weights_nan_or_inf_rejected(weights):
    q = ol.embed_classical(ol.bernoulli(0.3))
    with pytest.raises(ValidationError, match="positive|sum"):
        ol.nc_mixture_direct_sum([(w, q) for w in weights])


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
        assert ol.validate_ncoom(m, l_val=2).passed
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
        factors = [random_element(q.algebra, rng) for _ in range(3)]
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
        factors = [random_element(mix.algebra, rng) for _ in range(n)]
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
        factors = [random_element(e.algebra, rng, normalize=True) for _ in range(n)]
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
