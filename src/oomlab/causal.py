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

import numpy as np

from .dimension import DEFAULT_RANK_TOL, numerical_rank
from .oom import OomModel, sample_trajectory, word_probability
from .oom import _budget, _clamp_probabilities, _classical_model, _functional_levels
from .oom import _overflow_to, _propagate, _require_nonnegative, _state_levels
from .words import Word, normalize_word, words_of_length

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
    "empirical" when they are sampled frequencies.
    """

    past_length: int
    horizon: int
    cluster_tol: float
    states: list
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
    """Pasts of exact length, their probabilities, and P(past+future) rows.
    A value that is not finite, as where a state image overflows, raises."""
    k = len(m.alphabet)
    n_past, n_future = k**past_length, k**horizon
    held = n_past * n_future + (n_past + n_future) * m.dim
    # clustering may test up to pasts^2 candidate pairs of rows
    _budget(f"{k}^{past_length} pasts by {k}^{horizon} futures", n_past * n_past + held, held)
    pasts = words_of_length(m.alphabet, past_length)
    states = _state_levels(m.operator_stack, m.init, past_length)[past_length]
    functionals = _functional_levels(m.operator_stack, m.eval, horizon)[horizon]
    weights = states @ m.eval
    numerators = states @ functionals.T
    if not (np.isfinite(weights).all() and np.isfinite(numerators).all()):
        raise _overflow_to(past_length + horizon)
    weights = _clamp_probabilities(weights, "past probability")
    numerators = _clamp_probabilities(numerators, "predictive entry")
    return pasts, weights, numerators


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
    _budget(f"{k}^{horizon} futures", k**horizon, k**horizon * m.dim)
    weight = word_probability(m, w)
    if weight <= 0.0:
        return PredictiveDistribution(past=w, horizon=horizon, dist=None, weight=0.0)
    numer = _functional_levels(m.operator_stack, m.eval, horizon)[horizon] @ _propagate(m, w)
    numer = _clamp_probabilities(numer, "predictive entry")
    return PredictiveDistribution(past=w, horizon=horizon, dist=numer / weight, weight=weight)


def _components(dists: np.ndarray, cluster_tol: float) -> np.ndarray:
    """Single-linkage components of the rows of ``dists`` under total-variation
    distance ``<= cluster_tol``, each row labelled with its component's lowest
    index.

    For ``|r_j| <= 1``, ``|r.(x - y)| <= |x - y|_1 = 2 TV(x, y)``, so only rows
    whose projections on a fixed ``r`` lie within ``2 cluster_tol`` (plus a
    round-off slack) can be linked. The sorted projections give those
    candidate pairs, nearest neighbours first, in chunks of
    ``_CLUSTER_CHUNK`` gathered entries. A pair is tested only while its rows
    are in different components, by ``0.5 * |d_j - d_i|.sum()`` with ``j > i``
    in full, so the components are those of testing every pair. The linked
    pairs of a chunk are joined by a union-find over their labels, and the
    labels rewritten in one pass. A position leaves the sweep once the run of
    equal labels that starts at it covers its reach.
    """
    n, n_future = dists.shape
    labels = np.arange(n)
    proj = dists @ np.random.default_rng(0).uniform(-1.0, 1.0, n_future)
    order = np.argsort(proj, kind="stable")
    sorted_proj = proj[order]
    scale = float(np.abs(dists).sum(axis=1).max()) if n else 0.0
    slack = 4 * (n_future + 1) * np.finfo(float).eps * (scale + cluster_tol)
    reach = np.searchsorted(sorted_proj, sorted_proj + (2 * cluster_tol + slack), side="right")
    step = max(1, _CLUSTER_CHUNK // (2 * n_future))
    active, offset, run_end = np.arange(n), 1, np.arange(1, n + 1)
    while True:
        # a position whose run of equal labels covers its reach has no open pair
        active = active[reach[active] > np.maximum(active + offset, run_end[active])]
        if not active.size:
            return labels
        left, right = order[active], order[active + offset]
        lo, hi = np.minimum(left, right), np.maximum(left, right)
        open_pair = labels[lo] != labels[hi]
        lo, hi, merged = lo[open_pair], hi[open_pair], False
        for start in range(0, lo.size, step):
            i, j = lo[start : start + step], hi[start : start + step]
            open_pair = labels[i] != labels[j]
            i, j = i[open_pair], j[open_pair]
            linked = 0.5 * np.abs(dists[j] - dists[i]).sum(axis=1) <= cluster_tol
            roots = _merge_labels(labels[i[linked]].tolist(), labels[j[linked]].tolist())
            if roots:
                relabel = np.arange(n)
                relabel[list(roots)] = list(roots.values())
                labels = relabel[labels]
                merged = True
        if merged:
            starts = np.flatnonzero(np.diff(labels[order])) + 1
            run_end = np.append(starts, n)[np.searchsorted(starts, np.arange(n), side="right")]
        offset += 1


def _merge_labels(left: list, right: list) -> dict:
    """Union-find over the label pairs ``(left[p], right[p])``: each merged
    label mapped to the lowest label of its merged group."""
    parent: dict[int, int] = {}

    def find(a):
        path = []
        while a in parent:
            path.append(a)
            a = parent[a]
        for p in path:
            parent[p] = a
        return a

    for a, b in zip(left, right):
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return {a: find(a) for a in list(parent)}


def _cluster(pasts, weights, dists, past_length, horizon, cluster_tol, method):
    clusters: dict[int, list[int]] = {}
    for i, root in enumerate(_components(dists, cluster_tol).tolist()):
        clusters.setdefault(root, []).append(i)
    states = []
    for root in sorted(clusters):
        members = clusters[root]
        weight = float(weights[members].sum())
        rep = max(members, key=lambda i: (weights[i], -i))
        states.append(
            CausalState(
                representative=dists[rep].copy(),
                weight=weight,
                member_pasts=[pasts[i] for i in members],
                representative_past=pasts[rep],
            )
        )
    return CausalStatePartition(
        past_length=past_length,
        horizon=horizon,
        cluster_tol=cluster_tol,
        states=states,
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
    that cannot separate a linked pair by more than ``2 cluster_tol``, so only
    nearby pairs are compared in full. Cluster weight is the summed past
    probability; pasts of exact length partition the process, so the weights
    sum to one. The representative is the highest-weight member (earliest on
    ties).
    """
    _require_nonnegative(past_length=past_length, horizon=horizon)
    pasts, weights, numerators = _predictive_matrix(_classical_model(p), past_length, horizon)
    keep = np.flatnonzero(weights > 0.0)
    pasts = [pasts[i] for i in keep]
    weights = weights[keep]
    dists = numerators[keep] / weights[:, None]
    return _cluster(pasts, weights, dists, past_length, horizon, cluster_tol, "exact")


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
    traj = sample_trajectory(m, window + n_windows - 1, seed)
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
    n_past, n_future = len(first), k**horizon
    held = n_past * n_future
    # clustering may test up to pasts^2 candidate pairs of rows
    _budget(f"{n_past} pasts by {k}^{horizon} futures", n_past * n_past + held, held)
    futures = _base_k_codes(digits[:, past_length:].astype(np.int64), k)
    cells, counts = np.unique(past_ids * n_future + futures, return_counts=True)
    totals = np.bincount(past_ids, minlength=n_past)
    rows = cells // n_future
    weights = totals / n_windows
    dists = np.zeros((n_past, n_future))
    dists[rows, cells % n_future] = counts / totals[rows]
    pasts = [traj[i : i + past_length] for i in first.tolist()]
    return _cluster(pasts, weights, dists, past_length, horizon, cluster_tol, "empirical")


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
    """Numerical rank of the matrix of representative predictive rows.

    With a horizon at least the process dimension this recovers that
    dimension, however many distinct states the finite past length produces.
    """
    if c.n_states == 0:
        raise ValueError("empty partition")
    mat = np.vstack([s.representative for s in c.states])
    sv = np.linalg.svd(mat, compute_uv=False)
    return numerical_rank(sv, tol_rel)
