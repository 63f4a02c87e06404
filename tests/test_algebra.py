import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oomlab import ValidationError
from oomlab.algebra import (
    AlgebraElement,
    CStarAlgebra,
    basis_elements,
    construct_algebra,
    is_positive,
    unit_element,
)

from curated import random_element

SHAPES = [[1, 1], [2], [2, 1], [3], [1, 2, 1]]


def test_construct_commutative_two_symbols():
    a = construct_algebra([1, 1])
    assert a.total_dim == 2
    assert a.is_commutative


def test_construct_qubit_block():
    a = construct_algebra([2])
    assert a.total_dim == 4
    assert not a.is_commutative


def test_construct_mixed_blocks():
    assert construct_algebra([2, 1]).total_dim == 5


@pytest.mark.parametrize(
    "bad", [[], [0], [2, -1], [1.5], [2.5, True], [True], [np.float64(2.0)], ["2"]]
)
def test_construct_rejects_bad_dims(bad):
    with pytest.raises(ValidationError):
        construct_algebra(bad)
    with pytest.raises(ValidationError):
        CStarAlgebra(tuple(bad))


def test_block_sizes_become_python_ints():
    a = CStarAlgebra((np.int64(2), 1))
    assert a.block_dims == (2, 1) and {type(d) for d in a.block_dims} == {int}
    assert a == construct_algebra([2, 1])


def test_unit_element_commutative():
    a = construct_algebra([1, 1])
    one = unit_element(a)
    assert one.blocks[0][0, 0] == 1 and one.blocks[1][0, 0] == 1


def test_unit_is_identity_and_positive():
    a = construct_algebra([2, 1])
    one = unit_element(a)
    rng = np.random.default_rng(3)
    x = random_element(a, rng)
    assert (one * x).allclose(x) and (x * one).allclose(x)
    assert is_positive(one)


def test_is_positive_diagonal():
    a = construct_algebra([1, 1])
    el = AlgebraElement(a, [[[0.3]], [[0.7]]])
    assert is_positive(el)


def test_is_positive_rejects_flip_matrix():
    a = construct_algebra([2])
    x = AlgebraElement(a, [np.array([[0, 1], [1, 0]])])
    assert not is_positive(x)  # eigenvalues are +-1


def test_is_positive_rejects_non_selfadjoint():
    a = construct_algebra([2])
    x = AlgebraElement(a, [np.array([[0, 1], [0, 0]])])
    assert not is_positive(x)


@pytest.mark.parametrize("dims", SHAPES)
def test_b_star_b_is_positive(dims):
    a = construct_algebra(dims)
    rng = np.random.default_rng(7)
    for _ in range(100):
        b = random_element(a, rng, normalize=False)
        assert is_positive(b.adjoint() * b, tol=1e-10)


@pytest.mark.parametrize("dims", SHAPES)
def test_adjoint_antihomomorphism(dims):
    # the identity is blockwise; the two matmuls may differ by reassociation ulps
    a = construct_algebra(dims)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = random_element(a, rng, normalize=False)
        y = random_element(a, rng, normalize=False)
        assert (x * y).adjoint().allclose(y.adjoint() * x.adjoint(), tol=1e-12)


def test_adjoint_involution_exact():
    a = construct_algebra([2, 1])
    rng = np.random.default_rng(13)
    x = random_element(a, rng)
    assert x.adjoint().adjoint().allclose(x, tol=0.0)


def test_basis_count_and_order():
    a = construct_algebra([2])
    basis = basis_elements(a)
    assert len(basis) == 4
    # row-major matrix units: E00, E01, E10, E11
    expected_positions = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for el, (i, j) in zip(basis, expected_positions):
        m = el.blocks[0]
        assert m[i, j] == 1 and np.count_nonzero(m) == 1


def test_basis_spans_mixed_algebra():
    a = construct_algebra([2, 1])
    assert len(basis_elements(a)) == a.total_dim == 5


@pytest.mark.parametrize("dims", SHAPES)
def test_coefficient_roundtrip_exact(dims):
    a = construct_algebra(dims)
    rng = np.random.default_rng(17)
    x = random_element(a, rng, normalize=False)
    back = AlgebraElement.from_coefficients(a, x.coefficients())
    assert back.allclose(x, tol=0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3), st.integers())
def test_basis_expansion_reconstructs_any_element(dims, seed):
    a = construct_algebra(dims)
    rng = np.random.default_rng(seed % (2**32))
    x = random_element(a, rng, normalize=False)
    coeffs = x.coefficients()
    rebuilt = None
    for c, e in zip(coeffs, basis_elements(a)):
        term = c * e
        rebuilt = term if rebuilt is None else rebuilt + term
    assert rebuilt.allclose(x, tol=0.0)


def test_block_shape_mismatch_rejected():
    a = construct_algebra([2])
    with pytest.raises(ValidationError):
        AlgebraElement(a, [np.eye(3)])
    with pytest.raises(ValidationError):
        AlgebraElement(a, [np.eye(2), np.eye(1)])
