"""Process dimension via finite Hankel blocks, plus model minimization.

The dimension of a process is the dimension of the span of its conditioned
one-step images (its canonical model), which equals the rank of the infinite
past-by-future matrix of word probabilities ``H[u, w] = P(uw)``. Finite
truncations only ever bound that rank from below, so :func:`process_dimension`
climbs square blocks of growing depth and reports a dimension only when the
numerical rank is stable across the last two levels and both of those rank
cuts fall in a clear gap of the spectrum; stabilization is evidence, not
proof.

For a model the block factors as ``H = S F^T``: the rows of the state stack
``S`` are the images ``T_u v`` of the pasts, those of the functional stack
``F`` the covectors ``l T_w`` of the futures, both ``d`` wide. The block's
nonzero singular values are those of the at most ``d x d`` core ``R_S
R_F^T`` of their R factors (Golub & Van Loan, *Matrix Computations*, section
5.4); the others are exact zeros. Each factor is one QR step, within the
budget, from the one a level shallower, which the model keeps
(:func:`oomlab.oom._stack_factors`). A square block steps both chains
together, their stacks of at most ``1 + k d`` rows factored by one batched
QR, so a ladder to depth ``L`` takes ``L + 1`` joint steps and lists no
word; the stacks, the block and the word lists are formed only when read. A
model with a negative parameter has the block's words scanned for a value
below ``-DEFAULT_NEG_TOL`` first, by the chunked split scan; overflow is
refused.

Each level also records its rank-decision margin: the smallest kept and the
largest dropped singular value, both relative to the largest. When the kept
one is less than :data:`MIN_RANK_MARGIN` times the dropped one at either of
the last two levels, the fixed cut ``tol_rel`` has landed inside the spectrum
rather than in a gap, and the ladder is not stabilized.

:func:`minimize_oom` reduces the core at the depth where both spans close
(:func:`oomlab.oom._closure`) and cuts its rank as the ladder does (the
balanced realization). :func:`equivalent` compares two models on every word
up to a length, in polynomial time, by a breadth-first span closure of their
difference model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .words import normalize_word, word_count_up_to, words_up_to
from .oom import (
    DEFAULT_RANK_TOL,
    OomModel,
    _budget,
    _classical_model,
    _closure,
    _functional_levels,
    _overflow_to,
    _propagate,
    _rank_cut,
    _require_nonnegative,
    _require_probabilities,
    _stack_factors,
    _state_levels,
)

DEFAULT_EQUIV_TOL = 1e-9
#: Least ratio of the smallest kept to the largest dropped singular value at
#: which a rank cut counts as falling in a gap of the spectrum.
MIN_RANK_MARGIN = 1e3


@dataclass(eq=False)
class HankelBlock:
    """Finite past-by-future block of word probabilities with its spectrum.

    ``matrix[i, j]`` is the probability (or state value, in the operator-
    algebra setting, where entries are complex and index tuples enumerate
    basis elements) of the concatenation ``pasts[i] + futures[j]``.

    The block is its model's ``ops``, ``init`` and ``eval`` over ``symbols``
    to depths ``l_past`` and ``l_future``, and the at most ``d`` singular values
    of its core (the rest are exactly zero). The rest is formed and budgeted
    when first read: ``states``, the images of the pasts, ``functionals``, the
    covectors of the futures, ``matrix``, their product, and the word lists.
    """

    ops: np.ndarray
    init: np.ndarray
    eval: np.ndarray
    symbols: tuple
    l_past: int
    l_future: int
    singular_values: np.ndarray

    @cached_property
    def states(self) -> np.ndarray:
        n = self.shape[0] * self.init.size  # held twice: as levels, then stacked
        _budget(f"stacking the images of the pasts to depth {self.l_past}", n, 2 * n)
        return np.vstack(_state_levels(self.ops, self.init, self.l_past))

    @cached_property
    def functionals(self) -> np.ndarray:
        n = self.shape[1] * self.eval.size
        _budget(f"stacking the functionals of the futures to depth {self.l_future}", n, 2 * n)
        return np.vstack(_functional_levels(self.ops, self.eval, self.l_future))

    @cached_property
    def matrix(self) -> np.ndarray:
        n = self.shape[0] * self.shape[1]
        _budget(f"forming the block to depths {self.l_past} and {self.l_future}", n, n)
        return self.states @ self.functionals.T

    @cached_property
    def pasts(self) -> list:
        _budget(f"listing the pasts to depth {self.l_past}", self.shape[0], self.shape[0])
        return words_up_to(self.symbols, self.l_past)

    @cached_property
    def futures(self) -> list:
        _budget(f"listing the futures to depth {self.l_future}", self.shape[1], self.shape[1])
        return words_up_to(self.symbols, self.l_future)

    @property
    def shape(self) -> tuple:
        k = len(self.symbols)
        return word_count_up_to(k, self.l_past), word_count_up_to(k, self.l_future)


@dataclass
class DimensionReport:
    """Rank ladder over square blocks and the stabilization verdict.

    ``margin_by_level[k]`` is ``[smallest kept, largest dropped]`` singular
    value at level k relative to the largest, with 0.0 where nothing is
    dropped. ``dimension`` is the final rank when the last two levels agree
    and both cuts have a margin of at least :data:`MIN_RANK_MARGIN`, and None
    otherwise; serialized reports spell the latter out as "not stabilized".
    """

    rank_by_level: dict
    margin_by_level: dict
    stabilized: bool
    dimension: int | None
    tol_rel: float

    def to_dict(self) -> dict:
        return {
            "rank_by_level": {str(k): int(v) for k, v in self.rank_by_level.items()},
            "margin_by_level": {
                str(k): [float(kept), float(dropped)]
                for k, (kept, dropped) in self.margin_by_level.items()
            },
            "stabilized": self.stabilized,
            "dimension": int(self.dimension) if self.stabilized else "not stabilized",
            "tol_rel": self.tol_rel,
        }


@np.errstate(over="ignore", invalid="ignore")  # an overflowed image is returned as it is
def apply_tau(m: OomModel, word) -> np.ndarray:
    """State image of a word: ``T_wn ... T_w1 v``.

    This is the coordinate representation of conditioning the process on the
    word (unnormalized); applying the evaluation covector gives the word's
    probability. The empty word returns the initial vector.
    """
    return _propagate(m, normalize_word(word, m.alphabet))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite factor or core is refused
def _model_block(m, ops: np.ndarray, symbols, l_past: int, l_future: int) -> HankelBlock:
    """Unformed block of ``m`` (its ``init`` and ``eval``) over the operator
    stack ``ops`` and ``symbols`` to depths ``l_past`` and ``l_future``, with
    the singular values of the core ``R_S R_F^T`` of the stack factors. A
    non-finite core raises. A square block walks both chains together."""
    if l_past == l_future:
        r_s, r_f = _stack_factors(m, ops, l_past, (True, False))
    else:
        (r_s,), (r_f,) = (_stack_factors(m, ops, l_past, (True,)),
                          _stack_factors(m, ops, l_future, (False,)))
    core = r_s @ r_f.T
    if not np.isfinite(core).all():
        raise _overflow_to(l_past + l_future)
    sv = np.linalg.svd(core, compute_uv=False)
    return HankelBlock(ops, m.init, m.eval, tuple(symbols), l_past, l_future, sv)


def build_hankel(p, l_past: int, l_future: int) -> HankelBlock:
    """Probability block over all pasts of length <= l_past and futures of
    length <= l_future, in length-then-lexicographic order, with its
    singular values.

    The at most ``d`` nonzero singular values come from the R factors of the
    model's state and functional stacks (or of the model an HMM induces) with
    no word listed; the stacks and the block are formed when first read. A
    model with a negative parameter first has its block's words scanned: a
    value below ``-DEFAULT_NEG_TOL`` raises.
    """
    m = _classical_model(p)
    _require_nonnegative(l_past=l_past, l_future=l_future)
    _require_probabilities(m, l_past + l_future)
    return _model_block(m, m.operator_stack, m.alphabet, l_past, l_future)


def numerical_rank(singular_values, tol_rel: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above ``tol_rel`` times the largest.

    A zero matrix has rank zero. The threshold is relative to the spectrum's
    own scale, which suits probability matrices whose entries are O(1).
    """
    return _rank_cut(singular_values, tol_rel)[0]


def _rank_ladder(block_at, l_max: int, tol_rel: float) -> DimensionReport:
    """Ranks and margins of the square :class:`HankelBlock` ``block_at(level)``
    at depths 0..l_max and the verdict on the last two depths."""
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    ranks, margins = {}, {}
    for level in range(l_max + 1):
        ranks[level], margins[level] = _rank_cut(block_at(level).singular_values, tol_rel)
    clear_cuts = all(
        kept >= MIN_RANK_MARGIN * dropped for kept, dropped in (margins[l_max - 1], margins[l_max])
    )
    stabilized = ranks[l_max] == ranks[l_max - 1] and clear_cuts
    rank_by_level = {k: r for k, r in ranks.items() if k >= 1}
    return DimensionReport(
        rank_by_level=rank_by_level,
        margin_by_level={k: m for k, m in margins.items() if k >= 1},
        stabilized=stabilized,
        dimension=rank_by_level[l_max] if stabilized else None,
        tol_rel=tol_rel,
    )


def process_dimension(p, l_max: int, tol_rel: float = DEFAULT_RANK_TOL) -> DimensionReport:
    """Rank ladder of square Hankel blocks at depths 1..l_max.

    The run is declared stabilized when the ranks at the last two depths
    agree (depth 0, whose block is the single entry P(empty) = 1, anchors the
    comparison when l_max is 1) and both rank cuts have a margin of at least
    :data:`MIN_RANK_MARGIN`; only then is a dimension reported.

    Examples
    --------
    >>> from oomlab.processes import bernoulli
    >>> process_dimension(bernoulli(0.3), 2).dimension
    1
    """
    return _rank_ladder(lambda level: build_hankel(p, level, level), l_max, tol_rel)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite core is refused
def _reduced(m, ops: np.ndarray, tol_rel: float) -> tuple:
    """Minimal model ``(ops, init, eval)`` of ``m`` with the operator stack
    ``ops``, and the ``depth`` of the core it reduced with its ``margin``.

    With the core ``C = R_S R_F^T = U S W^H`` where both spans close
    (:func:`_closure`) and ``r`` its rank, ``reduce = S_r^-1/2 conj(W^H)[:r]
    R_F`` and ``lift = R_S^T conj(U_r) S_r^-1/2`` give ``reduce lift = I_r``
    and the model ``(reduce T_s lift, reduce v, l lift)``, signed so that
    ``reduce v >= 0``.
    """
    depth, (r_s, r_f) = _closure(m, ops, (True, False), tol_rel)
    if not np.isfinite(core := r_s @ r_f.T).all():
        raise _overflow_to(2 * depth)
    u, sv, wh = np.linalg.svd(core, full_matrices=False)
    r, margin = _rank_cut(sv, tol_rel)
    if not r:
        raise ValidationError("every word value is 0")
    w = wh[:r].conj() @ r_f
    scale = np.where((w @ m.init).real < 0.0, -1.0, 1.0) / np.sqrt(sv[:r])
    reduce, lift = scale[:, None] * w, r_s.T @ (u[:, :r].conj() * scale)
    reduction = {"depth": depth, "margin": margin}
    return (reduce @ ops @ lift, reduce @ m.init, m.eval @ lift), reduction


def minimize_oom(m: OomModel, tol_rel: float = DEFAULT_RANK_TOL) -> OomModel:
    """Equivalent model of minimal dimension: the balanced realization of the
    stack factors' core (Ho and Kalman 1966; for OOMs Jaeger, Neural
    Computation 12(6), 2000), cut as :func:`process_dimension` cuts the block
    of that depth. The result keeps the depth and margin as ``_reduction``.
    """
    (ops, init, evalv), reduction = _reduced(m, m.operator_stack, tol_rel)
    reduced = OomModel(m.alphabet, dict(zip(m.alphabet, ops)), init, evalv,
                       name=m.name, description=m.description)
    reduced._reduction = reduction
    return reduced


@np.errstate(over="ignore", invalid="ignore")  # a non-finite norm is refused
def _closure_images(stacks, seed: np.ndarray, depth: int) -> list:
    """Images ``T_w seed`` of a prefix-closed set of words of length at most
    ``depth``, each independent of the earlier ones, that span the images of
    every word up to ``depth``, for the direct sum of the operator ``stacks``:
    each stack acts on its own block of ``seed``, so the sum is never formed.

    Breadth-first: every operator is applied to each image admitted at the
    length before, and a candidate is admitted when its component orthogonal
    to the current span is above ``DEFAULT_RANK_TOL`` times the running max
    candidate norm (floored at one, probabilities being O(1)). At most ``d``
    images are admitted in ``d`` dimensions, even where round-off is, so the
    span is invariant once ``depth`` reaches ``d`` and no more than ``d``
    levels are run; once ``d`` are admitted, a candidate is only checked to be
    finite. Each length is budgeted for what it holds: its candidates, and the
    basis and the images as they can be after it, every one ``d`` entries and
    an array header of about 16, plus ``2^12`` for the rest. A non-finite
    candidate norm raises.
    """
    dim, k = seed.size, len(stacks[0])
    cuts = np.cumsum([0] + [ops.shape[1] for ops in stacks])
    parts = [(ops, slice(lo, hi)) for ops, lo, hi in zip(stacks, cuts, cuts[1:])]
    basis, images, level, scale = np.empty((0, dim)), [], [seed], 1.0
    for n in range(min(depth, dim) + 1):
        if n:  # each operator on each image admitted at length n - 1
            count = k * (len(images) - start)
            kept = min(dim, len(images) + count)  # basis vectors and images after it
            _budget(f"the closure's images of length {n}", count * dim,
                    (count + 2 * kept) * (dim + 16) + 2**12)
            del level  # so that the candidates of two lengths do not share the peak
            level = [
                np.concatenate([ops[s] @ vec[part] for ops, part in parts])
                for vec in images[start:]
                for s in range(k)
            ]
        start = len(images)
        basis.resize((min(dim, start + len(level)), dim), refcheck=False)  # no view of it is kept
        for vec in level:
            if not np.isfinite(norm := float(np.linalg.norm(vec))):  # the threshold would be inf
                raise _overflow_to(depth)
            if len(images) == dim:  # nothing more can be admitted
                continue
            scale, r = max(scale, norm), vec.astype(float)
            for _ in range(2):  # classical Gram-Schmidt, twice for numerical safety
                r -= basis[: len(images)].T @ (basis[: len(images)] @ r)
            if (nrm := float(np.linalg.norm(r))) > DEFAULT_RANK_TOL * scale:
                basis[len(images)] = r / nrm
                images.append(vec)
    return images


def equivalent(m1: OomModel, m2: OomModel, l: int, tol: float = DEFAULT_EQUIV_TOL) -> bool:
    """Whether two models agree on every word of length at most ``l``.

    For minimal models this finite test is complete once ``l`` reaches the
    sum of the two dimensions (the standard equivalence bound for weighted
    automata); for non-minimal models it remains a sound necessary check.

    The test runs on the difference model, whose value on a word is the
    difference of the two models' values: their direct sum with ``m2``'s
    eval negated, applied block by block and never formed. Its state images
    up to length ``l`` are spanned by those of a few basis words, at most
    ``d1 + d2`` of them (Tzeng, SIAM J. Comput. 21(2), 1992), so every
    difference up to length ``l`` is a combination of the basis words'
    differences. ``tol`` bounds the difference on those basis words: exactly
    equivalent models pass, and so does every pair whose differences on all
    words up to ``l`` are within ``tol``.
    """
    _require_nonnegative(l=l)
    if m1.alphabet != m2.alphabet:
        raise ValidationError("alphabet mismatch")
    stacks = (m1.operator_stack, m2.operator_stack)
    images = _closure_images(stacks, np.concatenate((m1.init, m2.init)), l)
    evalv = np.concatenate((m1.eval, -m2.eval))
    return max((abs(float(vec @ evalv)) for vec in images), default=0.0) <= tol
