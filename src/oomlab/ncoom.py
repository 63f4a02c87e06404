"""Operator-algebra-valued models: the non-commutative generalisation.

A model here replaces the finite alphabet with a finite-dimensional block
matrix algebra (:mod:`oomlab.algebra`). The bilinear map taking an algebra
element ``a`` and a state vector to a new state vector is stored concretely:
one complex matrix per matrix-unit basis element, with ``T_a`` assembled by
linearity from the coefficients of ``a``. Evaluating the generated state on
an elementary tensor ``a1 (x) ... (x) an`` composes the operators with the
FIRST factor applied first, mirroring the classical word convention. Under
the reverse convention (available as a toggle where it matters) the defining
mass-preservation condition makes generated states translation invariant by
construction; under the convention used here it does not, which is what
:func:`nc_stationarity_check` decides on basis tuples of every length.

Classical models embed via :func:`embed_classical` with the commutative
algebra whose basis elements are the symbol indicators; evaluation on
indicator tuples then reproduces word probabilities exactly and the two
notions of process dimension coincide.

A classical model is the commutative special case: the classical core
(:mod:`oomlab.oom`, :mod:`oomlab.dimension`) reads ``operator_stack`` (here
``op_per_basis``), ``operator_sum`` (here ``T(1)``), ``init`` and ``eval``
off either kind. Level enumeration, stack factors, Hankel blocks, the rank
ladder, reduction, direct sums and the invariance check come from that
core, run with complex dtype over basis-index tuples.

The generated state is positive when it is positive on every local algebra
``A^(x)n``, not only on elementary tensors of positives. At depth ``n`` its
values on the matrix-unit basis tuples are, block tuple by block tuple, the
entries of a density ``rho_n`` with ``phi(E_IJ) = (rho_n)_JI``, and it is
positive on ``A^(x)n`` iff every ``rho_n`` is Hermitian and positive
semidefinite (Fannes, Nachtergaele and Werner, CMP 144, 1992). Validation
checks exactly that, depth by depth; for a commutative algebra every density
is one word value, so the check is word nonnegativity.

A note on the canonical state space: for two-sided translation-invariant
states one can alternatively span the conditionals induced by finite left
blocks rather than the iterated one-step images used here. The two spans can
differ only through limit points, so whenever the dimension computed here is
finite they coincide and nothing further is implemented for the alternative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    CStarAlgebra,
    basis_elements,
    unit_element,
)
from .dimension import (
    DEFAULT_RANK_TOL,
    DimensionReport,
    HankelBlock,
    _model_block,
    _rank_ladder,
)
from .errors import ValidationError
from .oom import DEFAULT_CONDITION_TOL, DEFAULT_NEG_TOL, _classical_model
from .oom import _Report, _condition_residuals, _deepest, _frozen, _frozen_vectors
from .oom import _factor_residual, _functional_levels, _mixture, _overflow
from .oom import _overflow_to, _require_nonnegative, _state_levels
from .words import word_count_up_to

DEFAULT_IMAG_TOL = 1e-9
NC_STATIONARITY_TOL = 1e-9


@dataclass(eq=False)
class NcOomModel:
    """Model with operator-algebra output.

    ``op_per_basis[b]`` is the complex ``dim x dim`` operator attached to the
    b-th matrix-unit basis element of ``algebra``; the operator of a general
    element is the coefficient-weighted sum, so bilinearity is structural.
    """

    algebra: CStarAlgebra
    op_per_basis: Sequence
    init: np.ndarray
    eval: np.ndarray
    name: str | None = None
    description: str | None = None

    def __post_init__(self):
        self.init, self.eval = _frozen_vectors(self.init, self.eval, complex)
        self.op_per_basis = _frozen(self.op_per_basis, complex, "op_per_basis")
        d = self.init.size
        expected = (self.algebra.total_dim, d, d)
        if self.op_per_basis.shape != expected:
            raise ValidationError(
                f"op_per_basis must have shape {expected} "
                f"(one {d}x{d} operator per basis element), got {self.op_per_basis.shape}"
            )

    @property
    def dim(self) -> int:
        return self.init.size

    def operator_for(self, a: AlgebraElement) -> np.ndarray:
        """Assemble ``T_a`` from the element's basis coefficients."""
        if a.algebra != self.algebra:
            raise ValidationError("element belongs to a different algebra")
        return np.tensordot(a.coefficients(), self.op_per_basis, axes=(0, 0))

    @property
    def operator_stack(self) -> np.ndarray:
        """``op_per_basis``, under the name the core reads off either model."""
        return self.op_per_basis

    @cached_property
    def operator_sum(self) -> np.ndarray:
        return self.operator_for(unit_element(self.algebra))

    def __repr__(self):
        return (
            f"NcOomModel(blocks={list(self.algebra.block_dims)}, dim={self.dim})"
        )


@dataclass
class NcValidationReport(_Report):
    condition1_residual: float
    condition2_residual: float
    most_negative_eigenvalue: float
    hermitian_defect: float
    checked_depth: int
    neg_tol: float = field(default=DEFAULT_NEG_TOL, init=False)
    imag_tol: float = field(default=DEFAULT_IMAG_TOL, init=False)
    condition_tol: float = field(default=DEFAULT_CONDITION_TOL, init=False)
    passed: bool

    _failure = (
        "model failed validation: condition-1 residual {condition1_residual:.6e}, "
        "condition-2 residual {condition2_residual:.6e}, most negative eigenvalue "
        "{most_negative_eigenvalue:.6e} at depth {checked_depth}, "
        "hermitian defect {hermitian_defect:.6e}"
    )


@dataclass
class NcStationarityReport(_Report):
    residual: float
    level: int
    tol: float = field(default=NC_STATIONARITY_TOL, init=False)
    reverse_order: bool
    stationary: bool


def nc_evaluate(
    m: NcOomModel, factors: Sequence[AlgebraElement], reverse_order: bool = False
) -> complex:
    """Value of the generated state on an elementary tensor of factors.

    The first factor's operator is applied first; ``reverse_order`` flips
    this (the alternative composition convention). The empty tensor gives
    ``l(v)``, one for a valid model; a non-finite value is refused.
    """
    state = m.init
    with np.errstate(over="ignore", invalid="ignore"):
        for a in reversed(factors) if reverse_order else factors:
            state = m.operator_for(a) @ state
        value = complex(m.eval @ state)
    if not np.isfinite(value):
        raise _overflow(f"the value on {len(factors)} factors is {value}")
    return value


def _density_cost(algebra: CStarAlgebra, d: int, depth: int) -> tuple[int, int]:
    """Values and eigenvalue work of the densities of all depths up to
    ``depth``, and the entries held at ``depth``: the half-depth stacks, the
    values and the densities of one tuple of block sizes."""
    td, cubes = algebra.total_dim, sum(s**3 for s in algebra.block_dims)
    stacks = word_count_up_to(td, (depth + 1) // 2) + word_count_up_to(td, depth // 2)
    work = word_count_up_to(td, depth) + word_count_up_to(cubes, depth)
    return work, stacks * d + 2 * td**depth


def _densities(m: NcOomModel, n: int):
    """Yield, for each tuple of block sizes in lexicographic order, the
    transposed depth-``n`` densities of the block tuples ``K`` of those sizes,
    also in lexicographic order: ``phi[K, I, J] = phi(E_IJ) = rho_K[J, I]``,
    the multi-indices ``I`` and ``J`` first factor major. Each is one gather
    from the level-``n`` values, the flattened ``S F^T`` of half depth."""
    h, dims, td = (n + 1) // 2, np.array(m.algebra.block_dims), m.algebra.total_dim
    states = _state_levels(m.op_per_basis, m.init, h)[h]
    values = (states @ _functional_levels(m.op_per_basis, m.eval, n - h)[n - h].T).reshape(-1)
    starts = np.cumsum(dims**2) - dims**2
    # basis indices of the matrix units (block, i, j) of the blocks of each size
    units = {
        s: starts[dims == s][:, None, None] + s * np.arange(s)[:, None] + np.arange(s)
        for s in sorted(set(dims.tolist()))
    }
    for sizes in product(units, repeat=n):
        index = np.zeros((1, 1, 1), dtype=np.intp)
        for s in sizes:
            (b, r, c), u = index.shape, units[s]
            index = index[:, None, :, None, :, None] * td + u[None, :, None, :, None, :]
            index = index.reshape(b * len(u), r * s, c * s)
        yield values[index]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite density is refused
def validate_ncoom(m: NcOomModel, l_val: int = 4) -> NcValidationReport:
    """Check the defining conditions, and positivity exactly up to a depth.

    Conditions one and two are exact residuals. Positivity on ``A^(x)n`` is
    checked for every ``n`` up to ``checked_depth``: ``l_val``, or the deepest
    depth below it whose values and eigenvalue work fit the budget. Reported
    are the largest entry of ``|rho_n - rho_n^*|`` over all densities and the
    lowest eigenvalue of their Hermitian parts, for a commutative algebra the
    lowest word value. A non-finite value or residual, as where state images
    or sums of the operators overflow, raises :class:`ValidationError`. The
    verdict passes iff the conditions are within ``DEFAULT_CONDITION_TOL``,
    the defect within ``DEFAULT_IMAG_TOL`` and no eigenvalue is below
    ``-DEFAULT_NEG_TOL``; a pass certifies positivity up to ``checked_depth``.
    """
    _require_nonnegative(l_val=l_val)
    depth = _deepest(l_val, lambda n: _density_cost(m.algebra, m.dim, n))
    c1, c2 = _condition_residuals(m)
    lowest, defect = np.inf, 0.0
    for phi in chain.from_iterable(_densities(m, n) for n in range(depth + 1)):
        if not np.isfinite(phi).all():  # Python's min and max would drop a NaN
            raise _overflow_to(depth)
        adjoint = phi.conj().swapaxes(1, 2)
        defect = max(defect, float(np.abs(phi - adjoint).max()))
        # phi's Hermitian part is rho's conjugated, with the same spectrum
        lowest = min(lowest, float(np.linalg.eigvalsh(0.5 * (phi + adjoint))[:, 0].min()))
    positive = lowest >= -DEFAULT_NEG_TOL and defect <= DEFAULT_IMAG_TOL
    passed = max(c1, c2) <= DEFAULT_CONDITION_TOL and positive
    return NcValidationReport(
        condition1_residual=c1,
        condition2_residual=c2,
        most_negative_eigenvalue=lowest,
        hermitian_defect=defect,
        checked_depth=depth,
        passed=passed,
    )


def embed_classical(m) -> NcOomModel:
    """Embed a classical model, or the model an HMM induces, over the
    commutative algebra of its alphabet.

    Basis elements of the size-one blocks are the symbol indicators in
    alphabet order, so the operator list is the complexified classical
    operator list and evaluation on indicator tuples reproduces the word
    probabilities exactly. The dimension is preserved.
    """
    m = _classical_model(m)
    algebra = CStarAlgebra(tuple(1 for _ in m.alphabet))
    return NcOomModel(
        algebra=algebra,
        op_per_basis=m.operator_stack.astype(complex),
        init=m.init.astype(complex),
        eval=m.eval.astype(complex),
        name=m.name,
        description=m.description,
    )


def indicator_factors(m: NcOomModel, alphabet: Sequence[str], word) -> list[AlgebraElement]:
    """Indicator tuple of a classical word inside a commutative algebra.

    Valid for models whose algebra has one size-one block per symbol of
    ``alphabet`` in matching order, as produced by :func:`embed_classical`.
    """
    if not m.algebra.is_commutative or m.algebra.n_blocks != len(alphabet):
        raise ValidationError(
            "indicator factors need a commutative algebra with one block per symbol"
        )
    basis = basis_elements(m.algebra)
    index = {s: i for i, s in enumerate(alphabet)}
    factors = []
    for s in word:
        if s not in index:
            raise ValueError(f"unknown symbol {s!r}; alphabet is {list(alphabet)}")
        factors.append(basis[index[s]])
    return factors


def nc_hankel(
    m: NcOomModel,
    l_past: int,
    l_future: int,
) -> HankelBlock:
    """Complex block of state values over basis-element tuples.

    Rows are tuples of basis indices of length <= l_past, columns tuples of
    length <= l_future (length-then-lexicographic); the entry is the state
    evaluated on the concatenated tensor, row factors first. For an embedded
    classical model this is entrywise the classical probability block. As
    in :func:`~oomlab.dimension.build_hankel`, the singular values come from
    the stack factors and the block is formed only when first read.
    """
    _require_nonnegative(l_past=l_past, l_future=l_future)
    return _model_block(m, range(m.algebra.total_dim), l_past, l_future)


def nc_process_dimension(
    m: NcOomModel,
    l_max: int,
    tol_rel: float = DEFAULT_RANK_TOL,
) -> DimensionReport:
    """Rank ladder of square basis-tuple blocks, as in the classical case."""
    return _rank_ladder(lambda level: nc_hankel(m, level, level), l_max, tol_rel)


def nc_mixture_direct_sum(parts: Sequence[tuple]) -> NcOomModel:
    """Convex mixture of models over one algebra, as a block-diagonal sum.

    The mixture's state values are the weighted sums of the parts' values on
    every elementary tensor, exactly by block structure. A part that is not
    an :class:`NcOomModel` raises :class:`TypeError`.
    """
    for _, m in parts:
        if not isinstance(m, NcOomModel):
            raise TypeError(f"expected an NcOomModel, got {type(m).__name__}")
    algebra, ops, init, evalv = _mixture(parts, "algebra")
    return NcOomModel(algebra=algebra, op_per_basis=ops, init=init, eval=evalv)


def nc_stationarity_check(
    m: NcOomModel, l: int | None = None, reverse_order: bool = False
) -> NcStationarityReport:
    """Translation invariance on basis-element tuples.

    As :func:`~oomlab.oom.stationarity_check`, the 2-norm of ``value(1 (x)
    a1 .. an) - value(a1 .. an)`` over the tuples of matrix-unit basis
    elements up to ``level``, stationary within ``NC_STATIONARITY_TOL``: the
    functional factor against ``T_1 v - v``, or under ``reverse_order`` the
    state factor against ``eval T_1 - eval``. A general tuple's gap is at
    most this residual times the product of its factors' coefficient
    1-norms. With ``reverse_order`` the residual vanishes for any model
    meeting condition two, the alternative convention's built-in invariance.
    """
    _require_nonnegative(l=l)
    t, v, e = m.operator_sum, m.init, m.eval
    x = e @ t - e if reverse_order else t @ v - v
    level, residual = _factor_residual(m, reverse_order, x, l)
    return NcStationarityReport(residual=residual, level=level, reverse_order=reverse_order,
                                stationary=residual <= NC_STATIONARITY_TOL)
