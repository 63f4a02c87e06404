"""Independent oracles for the test suite.

Everything here deliberately avoids the library's evaluation paths: word
probabilities are exact rationals built from closed forms, matrix rank is
exact Gaussian elimination over fractions, and the HMM forward pass is a
plain-Python row-vector recursion. These anchor the derived expectations in
the tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np


class RationalBernoulli:
    """I.i.d. coin with an exact parameter."""

    def __init__(self, p, symbols=("0", "1")):
        self.p = Fraction(p)
        self.alphabet = tuple(symbols)

    def probability(self, word) -> Fraction:
        out = Fraction(1)
        for s in word:
            out *= self.p if s == self.alphabet[1] else 1 - self.p
        return out


class RationalMixture:
    def __init__(self, parts):
        self.parts = [(Fraction(w), proc) for w, proc in parts]
        self.alphabet = self.parts[0][1].alphabet
        assert sum(w for w, _ in self.parts) == 1

    def probability(self, word) -> Fraction:
        return sum((w * proc.probability(word) for w, proc in self.parts), Fraction(0))


class RationalMarkovChain:
    """Label-emitting chain: emit the current state's label, then move."""

    def __init__(self, transition, labels, init):
        self.t = [[Fraction(x) for x in row] for row in transition]
        self.labels = list(labels)
        self.init = [Fraction(x) for x in init]
        self.alphabet = tuple(sorted(set(self.labels)))
        self.n = len(self.init)

    def probability(self, word) -> Fraction:
        word = tuple(word)
        if not word:
            return Fraction(1)
        alpha = list(self.init)
        for step, sym in enumerate(word):
            alpha = [a if self.labels[i] == sym else Fraction(0) for i, a in enumerate(alpha)]
            if step < len(word) - 1:
                alpha = [
                    sum(alpha[i] * self.t[i][j] for i in range(self.n))
                    for j in range(self.n)
                ]
        return sum(alpha, Fraction(0))


def rational_periodic(pattern):
    n = len(pattern)
    t = [[Fraction(1) if j == (i + 1) % n else Fraction(0) for j in range(n)] for i in range(n)]
    return RationalMarkovChain(t, list(pattern), [Fraction(1, n)] * n)


def words_up_to(alphabet, max_length):
    out = []
    for n in range(max_length + 1):
        out.extend(product(alphabet, repeat=n))
    return out


def rational_hankel(proc, l_past, l_future):
    pasts = words_up_to(proc.alphabet, l_past)
    futures = words_up_to(proc.alphabet, l_future)
    return [[proc.probability(u + w) for w in futures] for u in pasts]


def rational_rank(matrix) -> int:
    """Exact rank by Gaussian elimination over fractions."""
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    n_cols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < n_cols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def enumerating_equivalent(m1, m2, l, tol=1e-9) -> bool:
    """Reference for ``equivalent``: the two models' values on every word up
    to length ``l``, enumerated level by level and compared word by word.

    Words within a level come in a different order than the library's, the
    same in both models, so each difference compares one word.
    """
    if m1.alphabet != m2.alphabet:
        raise ValueError("alphabet mismatch")
    lv1, lv2 = np.asarray(m1.init)[None, :], np.asarray(m2.init)[None, :]
    worst = 0.0
    for depth in range(max(l, 0) + 1):
        if depth:
            lv1 = np.concatenate([lv1 @ m1.operators[s].T for s in m1.alphabet])
            lv2 = np.concatenate([lv2 @ m2.operators[s].T for s in m2.alphabet])
        worst = max(worst, float(np.max(np.abs(lv1 @ m1.eval - lv2 @ m2.eval))))
    return worst <= tol


def level_scan(ops, vector, covector, depth):
    """Reference for ``oom._split_scan``: ``covector T_w vector`` on every
    word up to ``depth``, with every state image of each level held in full,
    as the lowest real part and the largest magnitude."""
    level = np.asarray(vector)[None, :]
    values = [level @ covector]
    for _ in range(depth):
        level = np.concatenate([level @ np.asarray(op).T for op in ops])
        values.append(level @ covector)
    values = np.concatenate(values)
    return float(values.real.min()), float(np.abs(values).max())


def forward_probability(hmm, word) -> float:
    """Plain forward pass over the HMM's symbol matrices (row recursion)."""
    alpha = [float(x) for x in hmm.init]
    n = hmm.n_states
    for s in word:
        m = hmm.transition_emission[s]
        alpha = [
            sum(alpha[i] * float(m[i][j]) for i in range(n)) for j in range(n)
        ]
    return float(sum(alpha))


class RationalProductStateMixture:
    """Mixture of product states of one full matrix block, diagonal densities.

    The value on a tuple of matrix-unit basis indices is the mixture of the
    per-part products of diagonal density entries; off-diagonal units give
    zero. Exact rationals throughout, mirroring the complex evaluation path
    with real numbers only.
    """

    def __init__(self, block_dim, parts):
        self.d = block_dim
        self.parts = [(Fraction(w), [Fraction(x) for x in diag]) for w, diag in parts]
        assert sum(w for w, _ in self.parts) == 1

    def _unit_value(self, beta, diag) -> Fraction:
        i, j = divmod(beta, self.d)
        return diag[i] if i == j else Fraction(0)

    def value(self, indices) -> Fraction:
        total = Fraction(0)
        for w, diag in self.parts:
            prod = Fraction(1)
            for beta in indices:
                prod *= self._unit_value(beta, diag)
            total += w * prod
        return total

    def hankel(self, l_past, l_future):
        total_dim = self.d * self.d
        tuples = lambda L: [
            t for n in range(L + 1) for t in product(range(total_dim), repeat=n)
        ]
        pasts, futures = tuples(l_past), tuples(l_future)
        return [[self.value(u + w) for w in futures] for u in pasts]
