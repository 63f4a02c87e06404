"""Reference computations the benchmark checks oomlab's outputs against.

Nothing here imports oomlab. Each function works from plain numbers (operator
matrices, vectors, transition tables) with code written separately from the
library, so a fault in the library's enumeration, rank decision or clustering
cannot hide in the check.
"""

from __future__ import annotations

import math

import numpy as np

# Captured at import so that the traced run, which replaces numpy.linalg.svd
# with a timing wrapper, does not record the benchmark's own decompositions.
_svd = np.linalg.svd

#: Widest-gap dimensions are only trusted when the gap spans this many decades.
MIN_GAP_DECADES = 3.0
#: Relative singular values are clipped here before gaps are measured, so that
#: gaps between rounding-noise values (1e-16 .. 1e-30) are never the widest.
NOISE_FLOOR = 1e-15
#: Sampled frequencies must lie within this many standard errors.
SIGMA_BOUND = 6.0


class Mismatch(Exception):
    """An output of the program disagrees with its reference value."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# Word probabilities


def forward_probability(ops, init, evalv, word) -> float:
    """``l T_wn ... T_w1 v`` by a plain loop; ``word`` holds symbol indices."""
    state = np.asarray(init, dtype=float)
    for s in word:
        state = np.asarray(ops[s]) @ state
    return float(np.asarray(evalv) @ state)


def hmm_forward_probability(te, init, word) -> float:
    """Forward algorithm on an HMM: ``alpha <- alpha M_s``; the sum at the end."""
    alpha = np.asarray(init, dtype=float)
    for s in word:
        alpha = alpha @ np.asarray(te[s])
    return float(alpha.sum())


def stationary(transition) -> np.ndarray:
    """Stationary row vector of an irreducible row-stochastic matrix.

    Solves ``pi (P - I) = 0`` with ``sum(pi) = 1`` by least squares on the
    stacked system, rather than by the eigen-decomposition the library uses.
    """
    p = np.asarray(transition, dtype=float)
    n = p.shape[0]
    a = np.vstack([(p - np.eye(n)).T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    require(rank == n, "chain has more than one stationary vector")
    require(float(np.abs(pi @ p - pi).max()) < 1e-10, "no stationary vector found")
    return pi


# ---------------------------------------------------------------------------
# Hankel blocks and the widest-gap dimension


def _levels(start: np.ndarray, mats, depth: int) -> np.ndarray:
    """Rows ``start`` pushed through every product of up to ``depth`` matrices."""
    rows = [start.reshape(1, -1)]
    frontier = rows[0]
    for _ in range(depth):
        frontier = np.concatenate([frontier @ m for m in mats])
        rows.append(frontier)
    return np.concatenate(rows)


def word_functionals(ops, evalv, length: int) -> np.ndarray:
    """Rows ``l T_w`` for every word w of exactly ``length`` symbols, in
    lexicographic order (the first symbol varies slowest)."""
    ops = [np.asarray(o, dtype=float) for o in ops]
    return _levels(np.asarray(evalv, dtype=float), ops, length)[-(len(ops) ** length) :]


def hankel_block(ops, init, evalv, depth: int) -> np.ndarray:
    """Past-by-future block of ``P(uw)`` over all words of length <= depth.

    Row ``u`` is the state ``T_u v``; column ``w`` is the functional
    ``l T_w``. Row and column order differ from the library's, which leaves
    the singular values unchanged.
    """
    ops = [np.asarray(o, dtype=float) for o in ops]
    states = _levels(np.asarray(init, dtype=float), [o.T for o in ops], depth)
    functionals = _levels(np.asarray(evalv, dtype=float), ops, depth)
    return states @ functionals.T


def gap_dimension(block: np.ndarray, min_decades: float = MIN_GAP_DECADES) -> int:
    """Number of singular values above the widest gap of the log spectrum.

    Raises :class:`Mismatch` when the widest gap spans fewer than
    ``min_decades`` decades, because the block then does not decide the rank.
    """
    sv = _svd(np.asarray(block), compute_uv=False)
    rel = np.maximum(sv / sv[0], NOISE_FLOOR)
    gaps = -np.diff(np.log10(rel))
    require(gaps.size > 0, "block too small to show a gap")
    i = int(np.argmax(gaps))
    require(
        gaps[i] >= min_decades,
        f"widest spectral gap is {gaps[i]:.1f} decades, below {min_decades}",
    )
    return i + 1


def model_dimension(ops, init, evalv, depth: int) -> int:
    return gap_dimension(hankel_block(ops, init, evalv, depth))


# ---------------------------------------------------------------------------
# Order-r binary Markov chains


def order_r_transition(p_one) -> np.ndarray:
    """Transition matrix over the 2^r contexts of an order-r binary chain.

    Context ``s`` holds the last r symbols, newest in the low bit; from ``s``
    the next symbol is 1 with probability ``p_one[s]`` and the context shifts
    that symbol in.
    """
    n = len(p_one)
    r = n.bit_length() - 1
    require(n == 2**r, "need one probability per context")
    t = np.zeros((n, n))
    for s, p in enumerate(p_one):
        t[s, (s << 1) & (n - 1)] += 1.0 - p
        t[s, ((s << 1) | 1) & (n - 1)] += p
    return t


def entropy_bits(weights) -> float:
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


# ---------------------------------------------------------------------------
# Sampled words


def occupation_bound(weight: float, lam: float, n: int) -> float:
    """SIGMA_BOUND standard errors of a state's occupation frequency.

    Over ``n`` steps of a chain whose second-largest eigenvalue has modulus
    ``lam``, correlation inflates the binomial variance by at most
    ``(1 + lam) / (1 - lam)`` (exact for two states, an upper bound for
    reversible chains).
    """
    return SIGMA_BOUND * math.sqrt(weight * (1 - weight) * (1 + lam) / (1 - lam) / n)


def second_eigenvalue(transition) -> float:
    return float(np.sort(np.abs(np.linalg.eigvals(np.asarray(transition))))[-2])


def frequency_z(trajectory, symbols, word, probability: float, batches: int = 50) -> float:
    """Standardised deviation of a word's sliding-window frequency.

    The standard error comes from batch means over ``batches`` consecutive
    stretches, so correlation between overlapping windows widens it instead of
    being ignored.
    """
    index = {s: i for i, s in enumerate(symbols)}
    seq = np.fromiter((index[s] for s in trajectory), dtype=np.int64)
    n = seq.size - len(word) + 1
    hit = np.ones(n, dtype=bool)
    for j, s in enumerate(word):
        hit &= seq[j : j + n] == index[s]
    usable = n - n % batches
    means = hit[:usable].reshape(batches, -1).mean(axis=1)
    se = float(means.std(ddof=1)) / math.sqrt(batches)
    # Never trust a spread below that of independent draws: a rare word can
    # happen to look steady across batches.
    floor = math.sqrt(max(probability * (1 - probability), 1e-12) / usable)
    return (float(hit[:usable].mean()) - probability) / max(se, floor)
