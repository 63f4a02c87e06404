"""Desk-scale verification harnesses for the structural facts about process
dimension: additivity over distinct mixture components, lower semi-continuity
along convergent families, and the causal-state upper bound.

Each harness checks its preconditions and refuses (raises
:class:`PreconditionError`) when they fail, emits ``INCONCLUSIVE`` rather than
guessing when a rank ladder does not stabilize, and records a machine-checkable
predicate alongside per-point measurements. A ``FAIL`` is not by itself an
implementation bug: the additivity harness's precondition is weaker than the
mutual singularity its formula needs (see :func:`run_additivity`).
"""

from __future__ import annotations

import time
from itertools import combinations
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

from .causal import (
    DEFAULT_CLUSTER_TOL,
    causal_span_rank,
    enumerate_causal_states,
    statistical_complexity,
    topological_complexity,
)
from .dimension import DEFAULT_EQUIV_TOL, DEFAULT_RANK_TOL, equivalent, process_dimension
from .errors import PreconditionError, ValidationError
from .oom import (
    STATIONARITY_TOL,
    OomModel,
    _Report,
    _certified,
    _classical_model,
    _difference,
    _require_nonnegative,
    _require_probabilities,
    _split_scan,
    hmm_to_oom,
    mixture_direct_sum,
    stationarity_check,
    validate_oom,
)
from .processes import bernoulli, markov_chain

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class FamilySpec:
    """Parametric family of models converging to ``generator(0.0)``.

    ``grid`` lists strictly positive parameters in decreasing order; the
    limit point is the model at parameter zero.
    """

    description: str
    grid: tuple
    generator: Callable[[float], OomModel]

    def __post_init__(self):
        grid = tuple(float(t) for t in self.grid)
        if not grid or any(t <= 0 for t in grid):
            raise ValidationError("grid must be non-empty with positive parameters")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ValidationError("grid parameters must be strictly decreasing")
        self.grid = grid


@dataclass
class ExperimentReport(_Report):
    """Outcome of one harness run.

    Serialization (:meth:`to_dict`) is deterministic given the inputs; the
    wall-clock runtime is kept only as an in-memory attribute so that written
    reports are reproducible byte for byte.
    """

    name: str
    verdict: str
    predicate: str
    points: list
    tolerances: dict
    runtime_seconds: ClassVar[float | None] = None


def cylinder_distance(p, q, l: int) -> float:
    """Max absolute difference of word probabilities over words up to ``l``.

    This metrizes convergence of all finite-depth cylinder probabilities at
    the chosen depth, the sense of convergence in which dimension is lower
    semi-continuous. It is the largest magnitude of the split scan of the
    difference model of ``p`` and ``q``, the direct sum with the second eval
    negated. A word value of either below ``-DEFAULT_NEG_TOL``, which only a
    model with a negative parameter is scanned for, or a non-finite value
    where a state image overflows, raises :class:`ValidationError`.
    """
    _require_nonnegative(l=l)
    models = [_classical_model(p), _classical_model(q)]
    if models[0].alphabet != models[1].alphabet:
        raise ValidationError("alphabet mismatch")
    for m in models:
        _require_probabilities(m, l)
    return _split_scan(*_difference(*models), l)[1]


def _require_stationary(m: OomModel, what: str):
    rep = stationarity_check(m)
    if not rep.stationary:
        raise PreconditionError(
            f"{what} is not stationary (residual {rep.residual:.3e} > {rep.tol})"
        )


def _report(start: float, ladders: list, holds: Callable, **fields) -> ExperimentReport:
    """The harness report on the rank ladders ``ladders``: INCONCLUSIVE unless
    every ladder stabilized, otherwise PASS if ``holds`` is true of the list of
    their dimensions and FAIL if not, with the runtime counted from ``start``."""
    if not all(rep.stabilized for rep in ladders):
        verdict = INCONCLUSIVE
    else:
        verdict = PASS if holds([rep.dimension for rep in ladders]) else FAIL
    report = ExperimentReport(verdict=verdict, **fields)
    report.runtime_seconds = time.perf_counter() - start
    return report


def run_additivity(
    parts: Sequence[tuple],
    l_max: int,
    tol_rel: float = DEFAULT_RANK_TOL,
    name: str = "additivity",
) -> ExperimentReport:
    """Dimension of a mixture of pairwise distinct stationary parts versus
    the sum of the parts' dimensions.

    Preconditions (refused on failure): every part stationary on words of
    every length, and parts pairwise non-equivalent up to the sum of their
    dimensions. Without distinctness the equality genuinely fails (two
    identical parts collapse), which is why the harness refuses rather than
    reporting FAIL. Distinct parts need not be mutually singular, though:
    ``1/2 bern(0.2) + 1/2 bern(0.5)`` and ``1/2 bern(0.2) + 1/2 bern(0.8)``
    share an ergodic component, their even mixture has dimension 3 against
    parts of dimension 2 and 2, and the verdict is FAIL on correct code.
    """
    start = time.perf_counter()
    models = [m for _, m in parts]
    for i, m in enumerate(models):
        _require_stationary(m, f"part {i}")
    for (i, a), (j, b) in combinations(enumerate(models), 2):
        if equivalent(a, b, a.dim + b.dim):
            raise PreconditionError(
                f"parts {i} and {j} generate the same process; "
                "mixture components must be pairwise distinct"
            )
    named = [(f"part_{i}", m) for i, m in enumerate(models)]
    named.append(("mixture", mixture_direct_sum(list(parts))))
    ladders = [process_dimension(m, l_max, tol_rel) for _, m in named]
    points = [
        {"point": point, "dimension_report": rep.to_dict(), "model_dim": m.dim}
        for (point, m), rep in zip(named, ladders)
    ]
    return _report(
        start,
        ladders,
        lambda dims: dims[-1] == sum(dims[:-1]),
        name=name,
        predicate="dim(mixture) == sum(dim(part_k)), all ladders stabilized",
        points=points,
        tolerances={
            "tol_rel": tol_rel,
            "stationarity_tol": STATIONARITY_TOL,
            "equiv_tol": DEFAULT_EQUIV_TOL,
            "l_max": l_max,
        },
    )


def run_semicontinuity(
    f: FamilySpec,
    l_max: int,
    tol_rel: float = DEFAULT_RANK_TOL,
    name: str = "semicontinuity",
) -> ExperimentReport:
    """Dimension of the limit versus dimensions along a convergent family.

    Every model on the grid and the limit must validate (one with no
    negative parameter that meets both conditions does so on its signs, with
    no word scan); the cylinder distances to the limit, over words up to
    ``l_max``, must be nonincreasing along the grid (convergence evidence).
    PASS means the limit's dimension does not exceed the minimum over the
    grid; the dimension is allowed to drop in the limit, never to jump up.
    """
    start = time.perf_counter()
    limit = f.generator(0.0)
    grid_models = [f.generator(t) for t in f.grid]
    for t, m in [(0.0, limit)] + list(zip(f.grid, grid_models)):
        try:
            if not _certified(m):
                validate_oom(m).require()
        except ValidationError as e:
            raise PreconditionError(f"family member at t={t}: {e}") from e
    distances = [cylinder_distance(m, limit, l_max) for m in grid_models]
    for a, b in zip(distances, distances[1:]):
        if b > a + 1e-12:
            raise PreconditionError(
                f"cylinder distances to the limit are not nonincreasing: {distances}"
            )
    ladders = [process_dimension(m, l_max, tol_rel) for m in grid_models + [limit]]
    # the grid is strictly positive, so t == 0 marks the limit
    points = [
        {
            "point": f"t={t!r}" if t else "limit",
            "t": t,
            "distance_to_limit": dist,
            "dimension_report": rep.to_dict(),
        }
        for t, dist, rep in zip(f.grid + (0.0,), distances + [0.0], ladders)
    ]
    return _report(
        start,
        ladders,
        lambda dims: dims[-1] <= min(dims[:-1]),
        name=name,
        predicate="dim(limit) <= min over grid of dim(P_t), all ladders stabilized",
        points=points,
        tolerances={"tol_rel": tol_rel, "l_max": l_max, "distance_level": l_max},
    )


def run_upperbound(
    p,
    l_p: int,
    horizon: int,
    l_max: int,
    tol_rel: float = DEFAULT_RANK_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    name: str = "upperbound",
) -> ExperimentReport:
    """Log of the dimension versus the topological statistical complexity.

    Also records whether the span rank of the causal-state predictive rows
    equals the dimension (it should once the horizon reaches the dimension).
    The bound itself is compared as integers, dimension against state count,
    which is exact.
    """
    start = time.perf_counter()
    model = _classical_model(p)
    _require_stationary(model, "process")
    ladders = [process_dimension(model, l_max, tol_rel)]
    partition = enumerate_causal_states(model, l_p, horizon, cluster_tol=cluster_tol)
    points = [
        {
            "point": "process",
            "dimension_report": ladders[0].to_dict(),
            "n_causal_states": partition.n_states,
            "statistical_complexity_bits": statistical_complexity(partition),
            "topological_complexity_bits": topological_complexity(partition),
            "causal_span_rank": causal_span_rank(partition, tol_rel),
            "past_length": l_p,
            "horizon": horizon,
        }
    ]
    return _report(
        start,
        ladders,
        lambda dims: dims[0] <= partition.n_states,
        name=name,
        predicate=(
            "dim <= #causal states (log2 of both sides compared exactly as integers); "
            "span rank of predictive rows recorded against dim"
        ),
        points=points,
        tolerances={
            "tol_rel": tol_rel,
            "cluster_tol": cluster_tol,
            "l_max": l_max,
            "stationarity_tol": STATIONARITY_TOL,
        },
    )


# ---------------------------------------------------------------------------
# Built-in parametric families


def mixture_weight_family(base: OomModel, other: OomModel, grid) -> FamilySpec:
    """``(1-t) base + t other``: a second component vanishes in the limit."""

    def gen(t: float) -> OomModel:
        if t == 0.0:
            return base
        return mixture_direct_sum([(1.0 - t, base), (t, other)])

    return FamilySpec(
        description="mixture weight of a second component shrinking to zero",
        grid=tuple(grid),
        generator=gen,
    )


def coalescing_bernoulli_family(center: float, grid) -> FamilySpec:
    """Even mixture of two coins at ``center +- t`` merging into one coin."""

    def gen(t: float) -> OomModel:
        if t == 0.0:
            return bernoulli(center)
        return mixture_direct_sum(
            [(0.5, bernoulli(center - t)), (0.5, bernoulli(center + t))]
        )

    return FamilySpec(
        description="two coin parameters coalescing at the center",
        grid=tuple(grid),
        generator=gen,
    )


def markov_merge_family(grid) -> FamilySpec:
    """Two-state chain whose rows merge into the uniform i.i.d. process."""

    def gen(t: float) -> OomModel:
        transition = [[0.5 + t, 0.5 - t], [0.5 - t, 0.5 + t]]
        return hmm_to_oom(markov_chain(transition, init=[0.5, 0.5]))

    return FamilySpec(
        description="two-state chain rows merging at t=0",
        grid=tuple(grid),
        generator=gen,
    )
