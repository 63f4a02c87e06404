"""Finite-dimensional operator algebras: direct sums of full complex matrix blocks.

An algebra is identified by its block sizes; elements are lists of square
complex matrices, one per block. Multiplication, adjoints and positivity are
all blockwise. The fully commutative case (every block of size one) is the
algebra of complex functions on a finite alphabet, which is how the classical
models of :mod:`oomlab.oom` embed into the operator-valued ones of
:mod:`oomlab.ncoom`.

A fixed basis of matrix units is used throughout: blocks in order, row-major
within each block. Operator lists of non-commutative models are coordinates
with respect to this basis, so the order is part of the file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

POSITIVE_TOL = 1e-10


@dataclass(frozen=True)
class CStarAlgebra:
    """Direct sum of full complex matrix blocks, identified by block sizes."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.block_dims)
        if not dims:
            raise ValidationError("an algebra needs at least one block")
        for d in dims:
            if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
                raise ValidationError(f"block sizes must be positive integers, got {d!r}")
        object.__setattr__(self, "block_dims", tuple(int(d) for d in dims))

    @property
    def total_dim(self) -> int:
        """Linear dimension: the sum of squared block sizes."""
        return sum(d * d for d in self.block_dims)

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def is_commutative(self) -> bool:
        return all(d == 1 for d in self.block_dims)


@dataclass(eq=False)
class AlgebraElement:
    """Element of a :class:`CStarAlgebra`: one complex matrix per block."""

    algebra: CStarAlgebra
    blocks: list

    def __post_init__(self):
        mats = []
        if len(self.blocks) != self.algebra.n_blocks:
            raise ValidationError(
                f"element has {len(self.blocks)} blocks, algebra has "
                f"{self.algebra.n_blocks}"
            )
        for k, (b, d) in enumerate(zip(self.blocks, self.algebra.block_dims)):
            m = np.array(b, dtype=complex)
            if m.shape != (d, d):
                raise ValidationError(f"block {k} must be {d}x{d}, got {m.shape}")
            m.setflags(write=False)
            mats.append(m)
        self.blocks = mats

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [b.conj().T for b in self.blocks])

    def coefficients(self) -> np.ndarray:
        """Coordinates in the matrix-unit basis (block-major, row-major)."""
        return np.concatenate([b.reshape(-1) for b in self.blocks])

    @classmethod
    def from_coefficients(cls, algebra: CStarAlgebra, coeffs) -> "AlgebraElement":
        c = np.asarray(coeffs, dtype=complex).reshape(-1)
        if c.size != algebra.total_dim:
            raise ValidationError(
                f"expected {algebra.total_dim} coefficients, got {c.size}"
            )
        blocks, pos = [], 0
        for d in algebra.block_dims:
            blocks.append(c[pos : pos + d * d].reshape(d, d))
            pos += d * d
        return cls(algebra, blocks)

    def _check_same_algebra(self, other: "AlgebraElement"):
        if self.algebra != other.algebra:
            raise ValidationError("elements belong to different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_algebra(other)
        return AlgebraElement(
            self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_algebra(other)
        return AlgebraElement(
            self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_same_algebra(other)
            return AlgebraElement(
                self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)]
            )
        return AlgebraElement(self.algebra, [other * b for b in self.blocks])

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, [scalar * b for b in self.blocks])

    def __neg__(self):
        return AlgebraElement(self.algebra, [-b for b in self.blocks])

    def allclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        self._check_same_algebra(other)
        return all(
            np.max(np.abs(a - b)) <= tol if a.size else True
            for a, b in zip(self.blocks, other.blocks)
        )

    def selfadjoint_defect(self) -> float:
        """Largest entrywise deviation from ``a == adjoint(a)``."""
        return max(float(np.max(np.abs(b - b.conj().T))) for b in self.blocks)


def construct_algebra(block_dims: Iterable[int]) -> CStarAlgebra:
    """Build the direct-sum algebra with the given block sizes.

    ``[1, 1, ..., 1]`` with n entries is the commutative algebra of functions
    on an n-symbol alphabet; ``[2]`` is the full 2x2 matrix algebra.
    """
    return CStarAlgebra(tuple(block_dims))


def unit_element(algebra: CStarAlgebra) -> AlgebraElement:
    """The multiplicative unit: the identity matrix in every block."""
    return AlgebraElement(algebra, [np.eye(d, dtype=complex) for d in algebra.block_dims])


def is_positive(a: AlgebraElement) -> bool:
    """Membership test for the positive cone.

    Returns True iff ``a`` is self-adjoint within ``POSITIVE_TOL``
    (entrywise) and the smallest eigenvalue of every block is at least
    ``-POSITIVE_TOL``. Non-self-adjoint input yields False, not an error.
    """
    if a.selfadjoint_defect() > POSITIVE_TOL:
        return False
    for b in a.blocks:
        herm = 0.5 * (b + b.conj().T)
        if float(np.linalg.eigvalsh(herm)[0]) < -POSITIVE_TOL:
            return False
    return True


def basis_elements(algebra: CStarAlgebra) -> list[AlgebraElement]:
    """The matrix units, in the fixed block-major, row-major order.

    They are linearly independent and span the algebra; ``coefficients`` of an
    element are exactly its expansion coefficients in this list.
    """
    out = []
    for k, d in enumerate(algebra.block_dims):
        for i in range(d):
            for j in range(d):
                blocks = [np.zeros((dd, dd), dtype=complex) for dd in algebra.block_dims]
                blocks[k][i, j] = 1.0
                out.append(AlgebraElement(algebra, blocks))
    return out

