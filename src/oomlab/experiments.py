"""Desk-scale verification harnesses for the structural facts about process
dimension: additivity over distinct mixture components, lower semi-continuity
along convergent families, and the causal-state upper bound.

Each harness checks its preconditions and refuses (raises
:class:`PreconditionError`) when they fail, emits ``INCONCLUSIVE`` rather than
guessing when a rank ladder does not stabilize, and records a machine-checkable
predicate alongside per-point measurements. A ``FAIL`` verdict would indicate
an implementation bug, not a counterexample.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar, Sequence

from .causal import (
    causal_span_rank,
    enumerate_causal_states,
    statistical_complexity,
    topological_complexity,
)
from .dimension import DEFAULT_RANK_TOL, equivalent, process_dimension
from .errors import PreconditionError, ValidationError
from .oom import (
    HmmModel,
    OomModel,
    OomOracle,
    _budget,
    _difference,
    _split_scan,
    as_oracle,
    hmm_to_oom,
    mixture_direct_sum,
    stationarity_check,
    validate_oom,
)
from .processes import bernoulli, markov_chain
from .words import word_count_up_to, words_up_to

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
class ExperimentReport:
    """Outcome of one harness run.

    Serialization (:meth:`to_dict`) is deterministic given the inputs and
    seed; the wall-clock runtime is kept only as an in-memory attribute so
    that written reports are reproducible byte for byte.
    """

    name: str
    verdict: str
    predicate: str
    points: list
    tolerances: dict
    seed: int
    runtime_seconds: ClassVar[float | None] = None

    to_dict = asdict


def cylinder_distance(p, q, l: int) -> float:
    """Max absolute difference of word probabilities over words up to ``l``.

    This metrizes convergence of all finite-depth cylinder probabilities at
    the chosen depth, the sense of convergence in which dimension is lower
    semi-continuous. For two models it is the largest magnitude of the split
    scan of their difference model, the direct sum with the second eval
    negated; other oracles are compared word by word. A word value below
    ``-neg_tol`` raises :class:`ValidationError`.
    """
    po = as_oracle(p)
    qo = as_oracle(q)
    if tuple(po.alphabet) != tuple(qo.alphabet):
        raise ValidationError("alphabet mismatch")
    if isinstance(po, OomOracle) and isinstance(qo, OomOracle):
        for ora in (po, qo):
            m = ora.model
            lowest = _split_scan(m.operator_stack, m.init, m.eval, l)[0]
            if lowest < -ora.neg_tol:
                raise ValidationError(
                    f"a word up to length {l} has probability {lowest}, below -neg_tol"
                )
        return _split_scan(*_difference(po.model, qo.model), l)[1]
    n_words = word_count_up_to(len(po.alphabet), l)
    _budget(f"cylinder distance to depth {l}", 2 * n_words, n_words)
    worst = 0.0
    for w in words_up_to(po.alphabet, l):
        worst = max(worst, abs(po.probability(w) - qo.probability(w)))
    return worst


def _require_stationary(m: OomModel, level: int, tol: float, what: str):
    rep = stationarity_check(m, l=level, tol=tol)
    if not rep.stationary:
        raise PreconditionError(
            f"{what} is not stationary (residual {rep.residual:.3e} > {tol})"
        )


def run_additivity(
    parts: Sequence[tuple],
    l_max: int,
    tol_rel: float = DEFAULT_RANK_TOL,
    stationarity_level: int = 4,
    stationarity_tol: float = 1e-10,
    equiv_tol: float = 1e-9,
    name: str = "additivity",
    seed: int = 0,
) -> ExperimentReport:
    """Dimension of a mixture of pairwise distinct stationary parts versus
    the sum of the parts' dimensions.

    Preconditions (refused on failure): every part stationary, and parts
    pairwise non-equivalent up to the sum of their dimensions, the computable
    stand-in for distinct mutually singular components. Without distinctness
    the equality genuinely fails (two identical parts collapse), which is why
    the harness refuses rather than reporting FAIL.
    """
    start = time.perf_counter()
    models = [m for _, m in parts]
    for i, m in enumerate(models):
        _require_stationary(m, stationarity_level, stationarity_tol, f"part {i}")
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            l_eq = models[i].dim + models[j].dim
            if equivalent(models[i], models[j], l_eq, tol=equiv_tol):
                raise PreconditionError(
                    f"parts {i} and {j} generate the same process; "
                    "mixture components must be pairwise distinct"
                )
    points = []
    dims = []
    all_stable = True
    for i, m in enumerate(models):
        rep = process_dimension(m, l_max, tol_rel)
        all_stable &= rep.stabilized
        dims.append(rep.dimension)
        points.append(
            {"point": f"part_{i}", "dimension_report": rep.to_dict(), "model_dim": m.dim}
        )
    mixture = mixture_direct_sum(list(parts))
    mix_rep = process_dimension(mixture, l_max, tol_rel)
    all_stable &= mix_rep.stabilized
    points.append(
        {
            "point": "mixture",
            "dimension_report": mix_rep.to_dict(),
            "model_dim": mixture.dim,
        }
    )
    if not all_stable:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS if mix_rep.dimension == sum(dims) else FAIL
    report = ExperimentReport(
        name=name,
        verdict=verdict,
        predicate="dim(mixture) == sum(dim(part_k)), all ladders stabilized",
        points=points,
        tolerances={
            "tol_rel": tol_rel,
            "stationarity_tol": stationarity_tol,
            "equiv_tol": equiv_tol,
            "l_max": l_max,
        },
        seed=seed,
    )
    report.runtime_seconds = time.perf_counter() - start
    return report


def run_semicontinuity(
    f: FamilySpec,
    l_max: int,
    tol_rel: float = DEFAULT_RANK_TOL,
    distance_level: int | None = None,
    name: str = "semicontinuity",
    seed: int = 0,
) -> ExperimentReport:
    """Dimension of the limit versus dimensions along a convergent family.

    Every model on the grid and the limit must validate; the cylinder
    distances to the limit must be nonincreasing along the grid (convergence
    evidence). PASS means the limit's dimension does not exceed the minimum
    over the grid; the dimension is allowed to drop in the limit, never to
    jump up.
    """
    start = time.perf_counter()
    if distance_level is None:
        distance_level = l_max
    limit = f.generator(0.0)
    grid_models = [f.generator(t) for t in f.grid]
    for t, m in [(0.0, limit)] + list(zip(f.grid, grid_models)):
        rep = validate_oom(m)
        if not rep.passed:
            raise PreconditionError(
                f"family member at t={t} fails validation "
                f"(c1={rep.condition1_residual:.3e}, c2={rep.condition2_residual:.3e}, "
                f"min P={rep.most_negative_probability:.3e})"
            )
    distances = [cylinder_distance(m, limit, distance_level) for m in grid_models]
    for a, b in zip(distances, distances[1:]):
        if b > a + 1e-12:
            raise PreconditionError(
                f"cylinder distances to the limit are not nonincreasing: {distances}"
            )
    points = []
    dims = []
    all_stable = True
    for t, m, dist in zip(f.grid, grid_models, distances):
        rep = process_dimension(m, l_max, tol_rel)
        all_stable &= rep.stabilized
        dims.append(rep.dimension)
        points.append(
            {
                "point": f"t={t!r}",
                "t": t,
                "distance_to_limit": dist,
                "dimension_report": rep.to_dict(),
            }
        )
    limit_rep = process_dimension(limit, l_max, tol_rel)
    all_stable &= limit_rep.stabilized
    points.append(
        {
            "point": "limit",
            "t": 0.0,
            "distance_to_limit": 0.0,
            "dimension_report": limit_rep.to_dict(),
        }
    )
    if not all_stable:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS if limit_rep.dimension <= min(dims) else FAIL
    report = ExperimentReport(
        name=name,
        verdict=verdict,
        predicate="dim(limit) <= min over grid of dim(P_t), all ladders stabilized",
        points=points,
        tolerances={"tol_rel": tol_rel, "l_max": l_max, "distance_level": distance_level},
        seed=seed,
    )
    report.runtime_seconds = time.perf_counter() - start
    return report


def run_upperbound(
    p,
    l_p: int,
    horizon: int,
    l_max: int,
    tol_rel: float = DEFAULT_RANK_TOL,
    cluster_tol: float = 1e-8,
    stationarity_level: int = 4,
    stationarity_tol: float = 1e-10,
    name: str = "upperbound",
    seed: int = 0,
) -> ExperimentReport:
    """Log of the dimension versus the topological statistical complexity.

    Also records whether the span rank of the causal-state predictive rows
    equals the dimension (it should once the horizon reaches the dimension).
    The bound itself is compared as integers, dimension against state count,
    which is exact.
    """
    start = time.perf_counter()
    if isinstance(p, OomModel):
        model = p
    elif isinstance(p, HmmModel):
        model = hmm_to_oom(p)
    else:
        raise PreconditionError("upper-bound harness needs a model, not a bare oracle")
    _require_stationary(model, stationarity_level, stationarity_tol, "process")
    dim_rep = process_dimension(model, l_max, tol_rel)
    partition = enumerate_causal_states(model, l_p, horizon, cluster_tol=cluster_tol)
    c_mu = statistical_complexity(partition)
    c_topo = topological_complexity(partition)
    span = causal_span_rank(partition, tol_rel)
    points = [
        {
            "point": "process",
            "dimension_report": dim_rep.to_dict(),
            "n_causal_states": partition.n_states,
            "statistical_complexity_bits": c_mu,
            "topological_complexity_bits": c_topo,
            "causal_span_rank": span,
            "past_length": l_p,
            "horizon": horizon,
        }
    ]
    if not dim_rep.stabilized:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS if dim_rep.dimension <= partition.n_states else FAIL
    report = ExperimentReport(
        name=name,
        verdict=verdict,
        predicate=(
            "dim <= #causal states (log2 of both sides compared exactly as integers); "
            "span rank of predictive rows recorded against dim"
        ),
        points=points,
        tolerances={
            "tol_rel": tol_rel,
            "cluster_tol": cluster_tol,
            "l_max": l_max,
            "stationarity_tol": stationarity_tol,
        },
        seed=seed,
    )
    report.runtime_seconds = time.perf_counter() - start
    return report


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
