"""Canned process constructors used throughout tests and demos."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError
from .oom import HmmModel, OomModel


def bernoulli(p: float, symbols: Sequence[str] = ("0", "1")) -> OomModel:
    """I.i.d. coin: the second symbol has probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must be in [0, 1], got {p}")
    a, b = symbols
    return OomModel(
        alphabet=(a, b),
        operators={a: [[1.0 - p]], b: [[p]]},
        init=[1.0],
        eval=[1.0],
    )


def iid(dist: dict) -> OomModel:
    """I.i.d. process with the given symbol distribution (one-dimensional)."""
    symbols = tuple(dist)
    probs = np.array([float(dist[s]) for s in symbols])
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
        raise ValidationError("distribution must be nonnegative and sum to 1")
    return OomModel(
        alphabet=symbols,
        operators={s: [[float(dist[s])]] for s in symbols},
        init=[1.0],
        eval=[1.0],
    )


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Left fixed vector of a row-stochastic matrix, normalized to sum one.

    Raises :class:`ValidationError` when the chain has more than one
    stationary distribution (eigenvalue one of ``T^T`` with several
    independent eigenvectors), since none of them is distinguished.
    """
    t = np.asarray(transition, dtype=float)
    n = t.shape[0]
    if n - np.linalg.matrix_rank(t.T - np.eye(n)) > 1:
        raise ValidationError(
            "the chain has several stationary distributions; pass init explicitly"
        )
    vals, vecs = np.linalg.eig(t.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, idx])
    pi = np.clip(pi, 0.0, None) if pi.sum() >= 0 else np.clip(-pi, 0.0, None)
    s = pi.sum()
    if s <= 0:
        raise ValidationError("could not extract a stationary distribution")
    return pi / s


def markov_chain(
    transition,
    labels: Sequence[str] | None = None,
    init=None,
) -> HmmModel:
    """Markov chain observed through its state labels.

    At each step the CURRENT state's label is emitted, then the chain moves.
    Labels may repeat (distinct states sharing a symbol). ``init`` defaults
    to the stationary distribution of ``transition``, making the observed
    process stationary; a chain with several stationary distributions needs
    an explicit ``init``.
    """
    t = np.asarray(transition, dtype=float)
    n = t.shape[0]
    if t.shape != (n, n):
        raise ValidationError(f"transition must be square, got {t.shape}")
    if labels is None:
        labels = [str(i) for i in range(n)]
    labels = [str(x) for x in labels]
    if len(labels) != n:
        raise ValidationError("need one label per state")
    if init is None:
        init = stationary_distribution(t)
    alphabet = tuple(sorted(set(labels)))
    mats = {}
    for sym in alphabet:
        sel = np.diag([1.0 if lab == sym else 0.0 for lab in labels])
        mats[sym] = sel @ t
    return HmmModel(alphabet=alphabet, transition_emission=mats, init=init)


def periodic(pattern: Sequence[str]) -> HmmModel:
    """Deterministic cycle through ``pattern`` with uniformly random phase."""
    syms = [str(s) for s in pattern]
    n = len(syms)
    if n == 0:
        raise ValidationError("pattern is empty")
    t = np.zeros((n, n))
    for i in range(n):
        t[i, (i + 1) % n] = 1.0
    return markov_chain(t, labels=syms, init=np.full(n, 1.0 / n))


def random_hmm(
    n_states: int, alphabet: Sequence[str], rng: np.random.Generator | int = 0
) -> HmmModel:
    """Random dense HMM: each state's joint (symbol, successor) row is a
    uniformly random distribution, as is the initial vector."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    alphabet = tuple(alphabet)
    k = len(alphabet)
    rows = rng.gamma(1.0, 1.0, size=(n_states, k * n_states))
    rows /= rows.sum(axis=1, keepdims=True)
    mats = {
        s: rows[:, i * n_states : (i + 1) * n_states].copy()
        for i, s in enumerate(alphabet)
    }
    init = rng.gamma(1.0, 1.0, size=n_states)
    init /= init.sum()
    return HmmModel(alphabet=alphabet, transition_emission=mats, init=init)
