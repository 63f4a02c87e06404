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
from functools import reduce

import numpy as np

from .dimension import DEFAULT_RANK_TOL, numerical_rank
from .oom import DEFAULT_NEG_TOL, OomOracle, as_oracle
from .oom import _budget, _clamp_probabilities, _functional_levels, _propagate, _state_levels
from .words import Word, normalize_word, words_of_length


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


def _predictive_matrix(ora, past_length: int, horizon: int, neg_tol: float):
    """Pasts of exact length, their probabilities, and P(past+future) rows."""
    k = len(ora.alphabet)
    n_past, n_future = k**past_length, k**horizon
    d = ora.model.dim if isinstance(ora, OomOracle) else 1
    held = n_past * n_future + (n_past + n_future) * d
    # clustering then compares the rows pairwise
    _budget(f"{k}^{past_length} pasts by {k}^{horizon} futures", n_past * n_past + held, held)
    pasts = words_of_length(ora.alphabet, past_length)
    if isinstance(ora, OomOracle):
        m = ora.model
        states = _state_levels(m.operator_stack, m.init, past_length)[past_length]
        functionals = _functional_levels(m.operator_stack, m.eval, horizon)[horizon]
        weights = states @ m.eval
        numerators = states @ functionals.T
    else:
        futures = words_of_length(ora.alphabet, horizon)
        weights = np.array([ora.probability(u) for u in pasts])
        numerators = np.array(
            [[ora.probability(u + w) for w in futures] for u in pasts], dtype=float
        )
    weights = _clamp_probabilities(weights, neg_tol, "past probability")
    numerators = _clamp_probabilities(numerators, neg_tol, "predictive entry")
    return pasts, weights, numerators


def predictive_distribution(
    p, past, horizon: int, neg_tol: float = DEFAULT_NEG_TOL
) -> PredictiveDistribution:
    """Distribution of the next ``horizon`` symbols conditional on ``past``.

    Entries are ``P(past + future) / P(past)`` over all futures of exactly
    ``horizon`` symbols in lexicographic order. Meaningful for stationary
    processes; a zero-probability past yields the null result.
    """
    ora = as_oracle(p, neg_tol=neg_tol)
    w = normalize_word(past, ora.alphabet)
    k = len(ora.alphabet)
    d = ora.model.dim if isinstance(ora, OomOracle) else 1
    _budget(f"{k}^{horizon} futures", k**horizon, k**horizon * d)
    weight = ora.probability(w)
    if weight <= 0.0:
        return PredictiveDistribution(past=w, horizon=horizon, dist=None, weight=0.0)
    if isinstance(ora, OomOracle):
        m = ora.model
        numer = _functional_levels(m.operator_stack, m.eval, horizon)[horizon] @ _propagate(m, w)
    else:
        numer = np.array(
            [ora.probability(w + fut) for fut in words_of_length(ora.alphabet, horizon)]
        )
    numer = _clamp_probabilities(numer, neg_tol, "predictive entry")
    return PredictiveDistribution(past=w, horizon=horizon, dist=numer / weight, weight=weight)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # keep the smaller index as root so cluster order is by first member
            if rj < ri:
                ri, rj = rj, ri
            self.parent[rj] = ri


def _cluster(pasts, weights, dists, past_length, horizon, cluster_tol, method):
    n = len(pasts)
    uf = _UnionFind(n)
    for i in range(n):
        tv = 0.5 * np.abs(dists[i + 1 :] - dists[i]).sum(axis=1)
        for off in np.flatnonzero(tv <= cluster_tol):
            uf.union(i, i + 1 + int(off))
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(uf.find(i), []).append(i)
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
    cluster_tol: float = 1e-8,
    neg_tol: float = DEFAULT_NEG_TOL,
) -> CausalStatePartition:
    """Cluster all positive-probability pasts of length ``past_length`` by
    total-variation distance of their predictive distributions.

    Clustering is single linkage over pairs at distance <= ``cluster_tol``
    (union-find), deterministic in the lexicographic past order. Cluster
    weight is the summed past probability; pasts of exact length partition
    the process, so the weights sum to one. The representative is the
    highest-weight member (earliest on ties).
    """
    ora = as_oracle(p, neg_tol=neg_tol)
    pasts, weights, numerators = _predictive_matrix(ora, past_length, horizon, neg_tol)
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
    from .oom import HmmModel, hmm_to_oom, sample_trajectory

    if isinstance(m, HmmModel):
        m = hmm_to_oom(m)
    if n_windows < 1:
        raise ValueError("n_windows must be positive")
    window = past_length + horizon
    traj = sample_trajectory(m, window + n_windows - 1, seed)
    counts: dict = {}
    for i in range(n_windows):
        past = traj[i : i + past_length]
        fut = traj[i + past_length : i + window]
        by_future = counts.setdefault(past, {})
        by_future[fut] = by_future.get(fut, 0) + 1
    k, index = len(m.alphabet), {s: i for i, s in enumerate(m.alphabet)}
    pasts = sorted(counts, key=lambda u: [index[s] for s in u])  # words_of_length order
    n_past, n_future = len(pasts), k**horizon
    held = n_past * n_future
    _budget(f"{n_past} pasts by {k}^{horizon} futures", n_past * n_past + held, held)
    weights = np.empty(n_past)
    dists = np.zeros((n_past, n_future))
    for i, u in enumerate(pasts):
        total = sum(counts[u].values())
        weights[i] = total / n_windows
        for fut, c in counts[u].items():
            dists[i, reduce(lambda j, s: j * k + index[s], fut, 0)] = c / total
    return _cluster(pasts, weights, dists, past_length, horizon, cluster_tol, "empirical")


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
