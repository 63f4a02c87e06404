"""Process dimension via finite Hankel blocks, plus model minimization.

The dimension of a process is the dimension of the span of its conditioned
one-step images (its canonical model), which equals the rank of the infinite
past-by-future matrix of word probabilities ``H[u, w] = P(uw)``. Finite
truncations only ever bound that rank from below, so :func:`process_dimension`
climbs square blocks of growing depth and reports a dimension only when the
numerical rank is stable across the last two levels and both of those rank
cuts fall in a clear gap of the spectrum; stabilization is evidence, not
proof.

For a model the block factors as ``H = S F^T``. The rows of the state stack
``S`` are the images ``T_u v`` of the pasts, the rows of the functional stack
``F`` are the covectors ``l T_w`` of the futures, and both have only ``d``
columns. :func:`build_hankel` takes the block's singular values from the core
``R_S R_F^T`` built from the QR factors of ``S`` and ``F``. The core is at
most ``d x d`` and has the block's nonzero singular values (Golub & Van Loan,
*Matrix Computations*, section 5.4); the remaining ones are exact zeros. The
block ``S F^T``, one matrix product, is formed only when its entries are
read. A model with a negative parameter has the block's words scanned for a
value below ``-DEFAULT_NEG_TOL`` first, by the chunked split scan; round-off
above that is kept. A word value that overflows the float range is refused.

Each level also records its rank-decision margin: the smallest kept and the
largest dropped singular value, both relative to the largest. When the kept
one is less than :data:`MIN_RANK_MARGIN` times the dropped one at either of
the last two levels, the fixed cut ``tol_rel`` has landed inside the spectrum
rather than in a gap, and the ladder is not stabilized.

:func:`minimize_oom` produces an equivalent model of minimal dimension by
restricting to the reachable span of state images and then quotienting by the
joint kernel of the word functionals. :func:`equivalent` compares two models
on every word up to a length through their difference model, the direct sum
with the second eval covector negated. The same breadth-first span closure
picks basis words whose state images span those of every word up to that
length, at most the sum of the two dimensions, in polynomial time; the
difference on every word is a combination of the differences on the basis
words, and the tolerance bounds those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .words import normalize_word, word_count_up_to, words_up_to
from .oom import (
    OomModel,
    _budget,
    _classical_model,
    _difference,
    _functional_levels,
    _overflow_to,
    _propagate,
    _require_nonnegative,
    _require_probabilities,
    _state_levels,
)

DEFAULT_RANK_TOL = 1e-9
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

    The block is its factors and their spectrum: ``states`` holds the images
    of the pasts, ``functionals`` the covectors of the futures, over
    ``symbols`` to depths ``l_past`` and ``l_future``. ``matrix`` is
    ``states @ functionals.T``, formed within the budget when first read, and
    the word lists are likewise listed when first read; ``shape`` forms neither.
    """

    states: np.ndarray
    functionals: np.ndarray
    symbols: tuple
    l_past: int
    l_future: int
    singular_values: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        n = self.shape[0] * self.shape[1]
        _budget(f"forming the block to depths {self.l_past} and {self.l_future}", n, n)
        return self.states @ self.functionals.T

    @cached_property
    def pasts(self) -> list:
        return words_up_to(self.symbols, self.l_past)

    @cached_property
    def futures(self) -> list:
        return words_up_to(self.symbols, self.l_future)

    @property
    def shape(self) -> tuple:
        return self.states.shape[0], self.functionals.shape[0]


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


def _block_budget(what: str, k: int, d: int, l_past: int, l_future: int) -> None:
    """Budget a block: its entries as values, and as held only the ``d``-wide
    stacks of its pasts and futures. A negative depth raises ``ValueError``."""
    if l_past < 0 or l_future < 0:
        raise ValueError("l_past and l_future must be nonnegative")
    rows, cols = word_count_up_to(k, l_past), word_count_up_to(k, l_future)
    _budget(f"{what} to depths {l_past} and {l_future}", rows * cols, (rows + cols) * d)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite factor or core is refused
def _model_block(ops, init, eval, symbols, l_past: int, l_future: int) -> HankelBlock:
    """Block of the state images of all words over ``symbols`` up to
    ``l_past`` against the functionals of all words up to ``l_future``, both
    over ``ops``, unformed. Its singular values come from the core
    ``R_S R_F^T`` and are padded with exact zeros to the block's size. A core
    that is not finite, as non-finite factors make it, raises an error."""
    states = np.vstack(_state_levels(ops, init, l_past))
    functionals = np.vstack(_functional_levels(ops, eval, l_future))
    core = np.linalg.qr(states, mode="r") @ np.linalg.qr(functionals, mode="r").T
    if not np.isfinite(core).all():
        raise _overflow_to(l_past + l_future)
    sv = np.zeros(min(states.shape[0], functionals.shape[0]))
    sv[: min(core.shape)] = np.linalg.svd(core, compute_uv=False)
    return HankelBlock(states, functionals, tuple(symbols), l_past, l_future, sv)


def build_hankel(p, l_past: int, l_future: int) -> HankelBlock:
    """Probability block over all pasts of length <= l_past and futures of
    length <= l_future, in length-then-lexicographic order, with its
    singular values.

    The block factors into the state images of the pasts and the linear
    functionals of the futures of the model (or of the model an HMM induces),
    and its singular values come from the factors; it is formed when its
    ``matrix`` is first read. A model with a negative parameter first has its
    block's words scanned: a value below ``-DEFAULT_NEG_TOL`` raises.
    """
    m = _classical_model(p)
    _block_budget("Hankel block", len(m.alphabet), m.dim, l_past, l_future)
    _require_probabilities(m, l_past + l_future)
    return _model_block(m.operator_stack, m.init, m.eval, m.alphabet, l_past, l_future)


def numerical_rank(singular_values, tol_rel: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above ``tol_rel`` times the largest.

    A zero matrix has rank zero. The threshold is relative to the spectrum's
    own scale, which suits probability matrices whose entries are O(1).
    """
    sv = np.asarray(singular_values, dtype=float).reshape(-1)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.count_nonzero(sv > tol_rel * sv[0]))


def _rank_margin(singular_values, rank: int) -> list:
    """``[smallest kept, largest dropped]`` singular value relative to the
    largest, each 0.0 where there is none."""
    sv = np.asarray(singular_values, dtype=float).reshape(-1)
    if sv.size == 0 or sv[0] <= 0.0:
        return [0.0, 0.0]
    kept = float(sv[rank - 1] / sv[0]) if rank else 0.0
    dropped = float(sv[rank] / sv[0]) if rank < sv.size else 0.0
    return [kept, dropped]


def _rank_ladder(block_at, l_max: int, tol_rel: float) -> DimensionReport:
    """Ranks and margins of the square :class:`HankelBlock` ``block_at(level)``
    at depths 0..l_max and the verdict on the last two depths."""
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    ranks, margins = {}, {}
    for level in range(l_max + 1):
        sv = block_at(level).singular_values
        ranks[level] = numerical_rank(sv, tol_rel)
        margins[level] = _rank_margin(sv, ranks[level])
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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite norm is refused
def _closure_basis(seeds, operators, tol_rel: float, depth: int) -> tuple:
    """Orthonormal basis of the span of the seeds' images under every word of
    length at most ``depth``, and the raw images it admitted.

    Breadth-first: each level applies every operator to the vectors added at
    the previous level and keeps components orthogonal to the current span.
    Admission threshold is tol_rel times the running max candidate norm
    (floored at one, probabilities being O(1)). The admitted images are
    ``T_w v`` for a prefix-closed set of words, each independent of the
    earlier ones, and span every image up to ``depth``. At most ``d``
    vectors are admitted in ``d`` dimensions, even at a tolerance that admits
    round-off, so the span is invariant once ``depth`` reaches ``d`` and no
    more than ``d`` levels are run. A non-finite candidate norm raises.
    """
    dim = seeds[0].shape[0]
    basis: list[np.ndarray] = []
    images: list[np.ndarray] = []
    scale = 1.0

    def try_add(vec: np.ndarray) -> bool:
        nonlocal scale
        if not np.isfinite(norm := float(np.linalg.norm(vec))):  # the threshold would be inf
            raise _overflow_to(depth)
        scale = max(scale, norm)
        r = vec.astype(float, copy=True)
        for _ in range(2):  # two-pass Gram-Schmidt for numerical safety
            for b in basis:
                r -= (b @ r) * b
        nrm = float(np.linalg.norm(r))
        if nrm > tol_rel * scale and len(basis) < dim:
            basis.append(r / nrm)
            images.append(vec)
            return True
        return False

    frontier = [s for s in seeds if try_add(s)]
    for _ in range(min(depth, dim)):
        frontier = [cand for vec in frontier for op in operators if try_add(cand := op @ vec)]
    if not basis:
        return np.zeros((dim, 0)), np.zeros((0, dim))
    return np.column_stack(basis), np.vstack(images)


def minimize_oom(m: OomModel, tol_rel: float = DEFAULT_RANK_TOL) -> OomModel:
    """Equivalent model of minimal dimension.

    First restricts to the span of the reachable state images (it is
    invariant under every operator), then quotients by the joint kernel of
    the word functionals. Both reductions preserve every word probability up
    to floating-point error; the result's dimension equals the process
    dimension of the generated process.
    """
    ops = [m.operators[s] for s in m.alphabet]
    q, _ = _closure_basis([m.init], ops, tol_rel, m.dim)
    restricted = [q.T @ op @ q for op in ops]
    v1 = q.T @ m.init
    l1 = m.eval @ q
    w, _ = _closure_basis([l1], [op.T for op in restricted], tol_rel, q.shape[1])
    if not w.size:  # also empty when q is
        raise ValidationError("span enumeration produced an empty basis")
    operators = {
        s: w.T @ restricted[i] @ w for i, s in enumerate(m.alphabet)
    }
    return OomModel(
        alphabet=m.alphabet,
        operators=operators,
        init=w.T @ v1,
        eval=l1 @ w,
        name=m.name,
        description=m.description,
    )


def equivalent(m1: OomModel, m2: OomModel, l: int, tol: float = DEFAULT_EQUIV_TOL) -> bool:
    """Whether two models agree on every word of length at most ``l``.

    For minimal models this finite test is complete once ``l`` reaches the
    sum of the two dimensions (the standard equivalence bound for weighted
    automata); for non-minimal models it remains a sound necessary check.

    The test runs on the difference model, whose value on a word is the
    difference of the two models' values. Its state images up to length
    ``l`` are spanned by those of a few basis words, at most ``d1 + d2`` of
    them (Tzeng, SIAM J. Comput. 21(2), 1992), so every difference up to
    length ``l`` is a combination of the basis words' differences. ``tol``
    bounds the difference on those basis words: exactly equivalent models
    pass, and so does every pair whose differences on all words up to ``l``
    are within ``tol``.
    """
    _require_nonnegative(l=l)
    if m1.alphabet != m2.alphabet:
        raise ValidationError("alphabet mismatch")
    ops, init, evalv = _difference(m1, m2)
    _, images = _closure_basis([init], ops, DEFAULT_RANK_TOL, l)
    return float(np.max(np.abs(images @ evalv), initial=0.0)) <= tol
