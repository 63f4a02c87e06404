"""Finite-horizon causal states of a stationary process.

Pasts of a fixed length are grouped by their predictive distribution over
futures of a fixed horizon. Each group is a finite-horizon stand-in for a
causal state (an equivalence class of pasts inducing the same conditional
future); the entropy of the group weights is the statistical complexity and
the log of the group count the topological statistical complexity.

Two caveats are inherent to the finite surrogate and always reported with the
results: pasts are truncated at ``past_length``, and two pasts are merged
only when the chosen ``horizon`` fails to separate them. The span rank of the
representative predictive rows, :func:`causal_span_rank`, recovers the
process dimension once the horizon is at least that dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product

import numpy as np

from .dimension import DEFAULT_RANK_TOL, numerical_rank
from .oom import OomModel, sample_trajectory, word_probability
from .oom import _budget, _clamp_probabilities, _classical_model, _functional_levels
from .oom import _overflow_to, _propagate, _require_nonnegative, _state_levels
from .words import Word, normalize_word, word_count_up_to

DEFAULT_CLUSTER_TOL = 1e-8
#: Entries of the gathered row pairs :func:`_components` holds at once.
_CLUSTER_CHUNK = 2**18


@dataclass(eq=False)
class PredictiveDistribution:
    """Conditional distribution over length-``horizon`` futures given a past.

    ``weight`` is the past's own probability. A past of probability zero has
    ``dist=None`` (the null flag) and weight zero.
    """

    past: Word
    horizon: int
    dist: np.ndarray | None
    weight: float

    @property
    def is_null(self) -> bool:
        return self.dist is None


@dataclass(eq=False)
class CausalState:
    representative: np.ndarray
    weight: float
    member_pasts: list
    representative_past: Word


@dataclass(eq=False)
class CausalStatePartition:
    """Clusters of equal-prediction pasts with their stationary weights.

    ``method`` is "exact" when weights come from cylinder probabilities and
    "empirical" when they are sampled frequencies. ``core`` has a row per
    state and the singular values of the stacked representatives. For an
    exact partition a row is ``x R_F^T``, with ``x`` the representative past's
    state image over its weight and ``R_F`` the R factor of the horizon's
    functionals ``F = Q R_F``: the representative is ``x F^T = x R_F^T Q^T``
    and ``Q^T`` has orthonormal rows, so the core is at most ``d`` wide. For
    an empirical partition the rows are the representatives themselves.
    """

    past_length: int
    horizon: int
    cluster_tol: float
    states: list
    core: np.ndarray
    method: str = "exact"

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def weights(self) -> np.ndarray:
        return np.array([s.weight for s in self.states])

    def to_dict(self) -> dict:
        return {
            "past_length": self.past_length,
            "horizon": self.horizon,
            "cluster_tol": self.cluster_tol,
            "method": self.method,
            "n_states": self.n_states,
            "states": [
                {
                    "weight": s.weight,
                    "representative_past": list(s.representative_past),
                    "member_pasts": [list(p) for p in s.member_pasts],
                }
                for s in self.states
            ],
        }


def total_variation(d1: np.ndarray, d2: np.ndarray) -> float:
    """Total-variation distance between two finite distributions (half L1)."""
    return 0.5 * float(np.abs(np.asarray(d1) - np.asarray(d2)).sum())


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is refused
def _predictive_matrix(m: OomModel, past_length: int, horizon: int):
    """The pasts of exact length with positive probability, their weights,
    their rows ``P(future | past)`` and the rows' ``d``-wide core (each past's
    state image over its weight, times ``R_F^T`` for the R factor of the
    futures' functionals), from one block over every past: gathered only where
    a past has probability zero, and clamped and divided in place. Charged for
    the level lists and the row pairs :func:`_components` gathers, and again,
    once the positive pasts are known, for the block, the mask, the kept pasts
    and, before a gather, the kept rows. A value that is not finite, as where
    a state image overflows, raises."""
    k = len(m.alphabet)
    n_past, n_future = k**past_length, k**horizon
    what, block = f"{k}^{past_length} pasts by {k}^{horizon} futures", n_past * n_future
    levels = (word_count_up_to(k, past_length) + word_count_up_to(k, horizon)) * m.dim
    held = block + levels + 2 * max(_CLUSTER_CHUNK, 2 * n_future)
    # clustering may test up to pasts^2 candidate pairs of rows
    _budget(what, n_past * n_past + held, held)
    states = _state_levels(m.operator_stack, m.init, past_length)[past_length]
    functionals = _functional_levels(m.operator_stack, m.eval, horizon)[horizon]
    weights, rows = states @ m.eval, states @ functionals.T
    if not (np.isfinite(weights).all() and np.isfinite(rows).all()):
        raise _overflow_to(past_length + horizon)
    core = states @ np.linalg.qr(functionals, mode="r").T
    del states, functionals
    _clamp_probabilities(weights, "past probability")
    _clamp_probabilities(rows, "predictive entry")
    keep = weights > 0.0
    n_keep = int(np.count_nonzero(keep))
    gather = n_keep < n_past
    held = block + n_past + n_keep * (past_length + (n_future if gather else 0))
    _budget(what, n_keep * n_keep + held, held)
    # the lexicographic product filtered by the mask lists only the kept pasts
    pasts = list(compress(product(m.alphabet, repeat=past_length), keep.tolist()))
    if gather:
        weights, rows, core = weights[keep], rows[keep], core[keep]
    rows /= weights[:, None]
    core /= weights[:, None]
    return pasts, weights, rows, core


def predictive_distribution(p, past, horizon: int) -> PredictiveDistribution:
    """Distribution of the next ``horizon`` symbols conditional on ``past``.

    Entries are ``P(past + future) / P(past)`` over all futures of exactly
    ``horizon`` symbols in lexicographic order. Meaningful for stationary
    processes; a zero-probability past yields the null result.
    """
    _require_nonnegative(horizon=horizon)
    m = _classical_model(p)
    w = normalize_word(past, m.alphabet)
    k = len(m.alphabet)
    _budget(f"{k}^{horizon} futures", k**horizon, word_count_up_to(k, horizon) * m.dim + k**horizon)
    weight = word_probability(m, w)
    if weight <= 0.0:
        return PredictiveDistribution(past=w, horizon=horizon, dist=None, weight=0.0)
    dist = _functional_levels(m.operator_stack, m.eval, horizon)[horizon] @ _propagate(m, w)
    _clamp_probabilities(dist, "predictive entry")
    dist /= weight
    return PredictiveDistribution(past=w, horizon=horizon, dist=dist, weight=weight)


def _components(dists: np.ndarray, cluster_tol: float) -> np.ndarray:
    """Single-linkage components of the nonnegative rows of ``dists`` under
    total-variation distance ``<= cluster_tol``, each row labelled with its
    component's lowest index.

    For ``|r_j| <= 1``, ``|r.(x - y)| <= |x - y|_1 = 2 TV(x, y)``, so only rows
    whose projections on each of two fixed ``r`` lie within ``2 cluster_tol``
    (plus a round-off slack, from the largest row sum) can be linked. The
    sorted first projections give the candidate pairs, nearest neighbours
    first, in chunks of ``_CLUSTER_CHUNK`` gathered entries; a pair whose
    second projections lie farther apart is dropped. A pair is tested only
    while its rows are in different components, by ``0.5 * |d_j - d_i|.sum()``
    with ``j > i`` in full, so the components are those of testing every
    pair. The linked pairs of a chunk are joined on the labels by
    :func:`_join`. A position leaves the sweep once the run of equal labels
    that starts at it covers its reach.
    """
    n, n_future = dists.shape
    labels = np.arange(n)
    r, s = np.random.default_rng(0).uniform(-1.0, 1.0, (2, n_future))
    proj, second = dists @ r, dists @ s
    order = np.argsort(proj, kind="stable")
    sorted_proj = proj[order]
    scale = float(dists.sum(axis=1).max()) if n else 0.0
    slack = 4 * (n_future + 1) * np.finfo(float).eps * (scale + cluster_tol)
    bound = 2 * cluster_tol + slack
    reach = np.searchsorted(sorted_proj, sorted_proj + bound, side="right")
    step = max(1, _CLUSTER_CHUNK // (2 * n_future))
    active, offset, run_end = np.arange(n), 1, np.arange(1, n + 1)
    while True:
        # a position whose run of equal labels covers its reach has no open pair
        active = active[reach[active] > np.maximum(active + offset, run_end[active])]
        if not active.size:
            return labels
        left, right = order[active], order[active + offset]
        lo, hi = np.minimum(left, right), np.maximum(left, right)
        open_pair = (labels[lo] != labels[hi]) & (np.abs(second[hi] - second[lo]) <= bound)
        lo, hi, merged = lo[open_pair], hi[open_pair], False
        for start in range(0, lo.size, step):
            i, j = lo[start : start + step], hi[start : start + step]
            open_pair = labels[i] != labels[j]
            i, j = i[open_pair], j[open_pair]
            linked = 0.5 * np.abs(dists[j] - dists[i]).sum(axis=1) <= cluster_tol
            if linked.any():
                _join(labels, i[linked], j[linked])
                merged = True
        if merged:
            starts = np.flatnonzero(np.diff(labels[order])) + 1
            run_end = np.append(starts, n)[np.searchsorted(starts, np.arange(n), side="right")]
        offset += 1


def _join(labels: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Union-find on ``labels``, each index holding its group's lowest index:
    joins the groups of ``left[p]`` and ``right[p]`` in place, hooking larger
    roots onto smaller ones and every index onto its root until pairs agree."""
    while True:
        a, b = labels[left], labels[right]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while ((up := labels[labels]) != labels).any():
            labels[:] = up
        if (labels[left] == labels[right]).all():
            return


def _cluster(pasts, weights, dists, core, past_length, horizon, cluster_tol, method):
    """Partition of the rows ``dists`` into their :func:`_components`, each
    state's members in past order (one stable sort) and its representative
    its heaviest member, the earliest on ties (one ``lexsort``); the
    representatives' rows of ``core`` are the partition's core."""
    labels = _components(dists, cluster_tol)
    members = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(labels[members] == members)  # a label is its state's first member
    reps = np.lexsort((-weights, labels))[starts]
    ends = [*starts[1:].tolist(), labels.size]
    states = [
        CausalState(
            representative=row,
            weight=float(weights[members[a:b]].sum()),
            member_pasts=[pasts[i] for i in members[a:b].tolist()],
            representative_past=pasts[rep],
        )
        for row, a, b, rep in zip(dists[reps], starts.tolist(), ends, reps.tolist())
    ]
    return CausalStatePartition(
        past_length=past_length,
        horizon=horizon,
        cluster_tol=cluster_tol,
        states=states,
        core=core[reps],
        method=method,
    )


def enumerate_causal_states(
    p,
    past_length: int,
    horizon: int,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> CausalStatePartition:
    """Cluster all positive-probability pasts of length ``past_length`` by
    total-variation distance of their predictive distributions.

    Clustering is exact single linkage over pairs at distance <=
    ``cluster_tol``, deterministic in the lexicographic past order: clusters
    are listed by their first member. It sweeps rows sorted by a projection
    that cannot separate a linked pair by more than ``2 cluster_tol`` and
    skips a pair that a second such projection separates by more, so only
    nearby pairs are compared in full. Cluster weight is the summed past
    probability; pasts of exact length partition the process, so the weights
    sum to one. The representative is the highest-weight member (earliest on
    ties).
    """
    _require_nonnegative(past_length=past_length, horizon=horizon)
    rows = _predictive_matrix(_classical_model(p), past_length, horizon)
    return _cluster(*rows, past_length, horizon, cluster_tol, "exact")


def empirical_causal_states(
    m,
    past_length: int,
    horizon: int,
    n_windows: int = 20_000,
    seed: int = 0,
    cluster_tol: float = 0.05,
) -> CausalStatePartition:
    """Sampled stand-in for :func:`enumerate_causal_states`.

    For models whose past enumeration is out of reach, weights and predictive
    distributions are estimated from sliding windows of one sampled
    trajectory (stationary input assumed, as in the exact path). The result
    is flagged ``method="empirical"``; the default cluster tolerance is loose
    because the rows carry sampling noise of order ``n_windows**-0.5``.
    """
    _require_nonnegative(past_length=past_length, horizon=horizon)
    m = _classical_model(m)
    if n_windows < 1:
        raise ValueError("n_windows must be positive")
    window, k = past_length + horizon, len(m.alphabet)
    n_future, length = k**horizon, window + n_windows - 1
    # the trajectory and its symbol indices, and the past, future and pair codes;
    # then the pasts, their rows and the row pairs clustering gathers
    sampled = 2 * length + 3 * n_windows
    _budget(f"{n_windows} windows of {window} symbols", sampled, sampled)
    traj = sample_trajectory(m, length, seed)
    index = {s: i for i, s in enumerate(m.alphabet)}
    # past codes beyond int64 stay Python integers
    code_type = np.int64 if k**past_length < 2**63 else object
    digits = np.lib.stride_tricks.sliding_window_view(
        np.array([index[s] for s in traj], dtype=code_type), window
    )
    # base-k codes of equal-length words sort as words_of_length lists them
    _, first, past_ids = np.unique(
        _base_k_codes(digits[:, :past_length], k), return_index=True, return_inverse=True
    )
    n_past = len(first)
    held = sampled + n_past * (past_length + n_future) + 2 * max(_CLUSTER_CHUNK, 2 * n_future)
    # clustering may test up to pasts^2 candidate pairs of rows
    _budget(f"{n_past} pasts by {k}^{horizon} futures", n_past * n_past + held, held)
    futures = _base_k_codes(digits[:, past_length:].astype(np.int64, copy=False), k)
    cells, counts = np.unique(past_ids * n_future + futures, return_counts=True)
    totals = np.bincount(past_ids, minlength=n_past)
    rows = cells // n_future
    weights = totals / n_windows
    dists = np.zeros((n_past, n_future))
    dists[rows, cells % n_future] = counts / totals[rows]
    pasts = [traj[i : i + past_length] for i in first.tolist()]
    return _cluster(pasts, weights, dists, dists, past_length, horizon, cluster_tol, "empirical")


def _base_k_codes(digits: np.ndarray, k: int) -> np.ndarray:
    """Base-``k`` value of each row of ``digits``, most significant first."""
    codes = np.zeros(len(digits), dtype=digits.dtype)
    for col in digits.T:
        codes = codes * k + col
    return codes


def statistical_complexity(c: CausalStatePartition) -> float:
    """Shannon entropy of the state weights, in bits (0 log 0 = 0)."""
    w = c.weights
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


def topological_complexity(c: CausalStatePartition) -> float:
    """Log2 of the number of states."""
    if c.n_states == 0:
        raise ValueError("empty partition")
    return float(np.log2(c.n_states))


def causal_span_rank(c: CausalStatePartition, tol_rel: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of the matrix of representative predictive rows, cut by
    :func:`numerical_rank` on the singular values of the partition's
    ``core``, which are those of the rows: ``n_states x d`` for an exact
    partition however many futures the horizon has.

    With a horizon at least the process dimension this recovers that
    dimension, however many distinct states the finite past length produces.
    """
    if c.n_states == 0:
        raise ValueError("empty partition")
    return numerical_rank(np.linalg.svd(c.core, compute_uv=False), tol_rel)
