"""Observable operator models over a finite alphabet.

An observable operator model (OOM) is a family of square real matrices
``T_d``, one per symbol, together with an initial vector ``v`` and an
evaluation covector ``l``. It assigns to a word ``d1 .. dn`` the number
``l @ T_dn @ ... @ T_d1 @ v``; the operator of the FIRST symbol acts first.
When the defining conditions hold (unit mass ``l(v) = 1``, mass preservation
``l o sum_d T_d = l``, nonnegativity of all word values) these numbers are the
cylinder probabilities of a stochastic process on one-sided sequences.

The stationarity and consistency checks hold on words of every length: each
is the norm of one vector against the R factor of a stack whose span has
closed (:func:`_factor_residual`). Nonnegativity cannot in general be
certified by any finite check; :func:`validate_oom` scans all words up to a
depth in one block of two half-depth stacks (:func:`_split_scan`), so a pass
is necessary, not sufficient. Entrywise nonnegative parameters are a
sufficient certificate, at every depth: validation on load and the
semicontinuity harness accept such a model on its signs and its two
condition residuals (:func:`_certified`); ``oomlab validate`` still scans.
Values in ``[-DEFAULT_NEG_TOL, 0)`` are clamped to zero where probabilities
are consumed; anything below raises, and so does a non-finite value, which
every scan, closure, density check and sampling step refuses where it
computes it. Every word enumeration and every step of a factor walk, in
every module, states its cost to :func:`_budget` before it allocates: the
values it computes or compares and the entries it holds.

Hidden Markov models induce OOMs of the same size (:func:`hmm_to_oom`), and
convex mixtures of processes are realized structurally as direct sums
(:func:`mixture_direct_sum`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import accumulate
from math import frexp, isfinite, ldexp
from typing import Mapping, Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .words import Word, normalize_word, word_count_up_to

DEFAULT_NEG_TOL = 1e-10
DEFAULT_CONDITION_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-9
STATIONARITY_TOL = 1e-10
#: Word values one request may compute or compare: word pairs, block entries.
MAX_VALUES = 2**27
#: Entries one request may hold at once: stacked vectors, blocks, listed words.
MAX_HELD = 2**22
#: Entries of ``S F^T`` that :func:`_split_scan` holds at once.
_SCAN_CHUNK = 2**18
#: Uniforms :func:`sample_trajectory` draws from its generator at once.
_SAMPLE_BLOCK = 2**10
#: Totals outside this window rescale the sampler's state by a power of two.
_SCALE_LOW, _SCALE_HIGH = 2.0**-256, 2.0**256


@dataclass(eq=False)
class OomModel:
    """Observable operator model ``(alphabet, T_d, v, l)``.

    Parameters
    ----------
    alphabet : sequence of str
        Symbol order; it fixes word enumeration order everywhere.
    operators : mapping symbol -> (dim, dim) array
        One observable operator per symbol.
    init : (dim,) array
        Initial vector ``v``.
    eval : (dim,) array
        Evaluation covector ``l``.

    Models are immutable after construction; evaluation and sampling are pure
    given (model, seed).
    """

    alphabet: tuple
    operators: Mapping
    init: np.ndarray
    eval: np.ndarray
    name: str | None = None
    description: str | None = None

    def __post_init__(self):
        self.init, self.eval = _frozen_vectors(self.init, self.eval, float)
        self.alphabet, self.operators = _frozen_symbol_matrices(
            self.alphabet, self.operators, self.init.size, "operator", "operators"
        )

    @property
    def dim(self) -> int:
        return self.init.size

    @cached_property
    def operator_stack(self) -> np.ndarray:
        """Operators stacked in alphabet order, shape (n_symbols, dim, dim)."""
        return np.stack([self.operators[s] for s in self.alphabet])

    @cached_property
    @np.errstate(over="ignore")  # a sum past the float range is refused where it is read
    def operator_sum(self) -> np.ndarray:
        return self.operator_stack.sum(axis=0)

    @cached_property
    def _hidden_chain(self) -> tuple | None:
        """The sampler's table (:func:`_hidden_table`), built and charged by
        the first sample and kept for the next, as the factor walk is."""
        return _hidden_table(self)

    @cached_property
    def _nonnegative(self) -> bool:
        """No negative entry in the operators, ``init`` or ``eval``: then no
        word value ``l T_w v`` is negative, in floating point too."""
        return not any((a < 0.0).any() for a in (self.operator_stack, self.init, self.eval))

    def __repr__(self):
        return f"OomModel(alphabet={list(self.alphabet)}, dim={self.dim})"


@dataclass(eq=False)
class HmmModel:
    """Hidden Markov model as symbol-labelled transition matrices.

    ``transition_emission[d][i, j]`` is the joint probability of moving from
    state i to state j while outputting symbol d, so the sum over symbols is
    the row-stochastic transition matrix.
    """

    alphabet: tuple
    transition_emission: Mapping
    init: np.ndarray
    name: str | None = None
    description: str | None = None

    def __post_init__(self):
        self.init = _frozen(self.init, float, "init").reshape(-1)
        if self.init.size == 0:
            raise ValidationError("init vector is empty")
        self.alphabet, self.transition_emission = _frozen_symbol_matrices(
            self.alphabet, self.transition_emission, self.init.size, "matrix", "matrices"
        )

    @property
    def n_states(self) -> int:
        return self.init.size

    @cached_property
    def _induced(self) -> OomModel:
        """The induced model, built once for :func:`_classical_model`."""
        return hmm_to_oom(self)

    def __repr__(self):
        return f"HmmModel(alphabet={list(self.alphabet)}, n_states={self.n_states})"


class _Report:
    """Base of the report dataclasses. A validation report also sets
    ``_failure``, the text over its fields with which :meth:`require` fails."""

    def to_dict(self) -> dict:
        return asdict(self)

    def require(self) -> None:
        if not self.passed:
            raise ValidationError(self._failure.format_map(vars(self)))


@dataclass
class ValidationReport(_Report):
    """Residuals of the three defining conditions plus the verdict."""

    condition1_residual: float
    condition2_residual: float
    most_negative_probability: float
    checked_depth: int
    neg_tol: float = field(default=DEFAULT_NEG_TOL, init=False)
    condition_tol: float = field(default=DEFAULT_CONDITION_TOL, init=False)
    passed: bool

    _failure = (
        "model failed validation: condition-1 residual {condition1_residual:.6e}, "
        "condition-2 residual {condition2_residual:.6e}, most negative probability "
        "{most_negative_probability:.6e} at depth {checked_depth}"
    )


@dataclass
class HmmValidationReport(_Report):
    row_sum_residual: float
    init_sum_residual: float
    min_entry: float
    tol: float = field(default=DEFAULT_CONDITION_TOL, init=False)
    passed: bool

    _failure = (
        "HMM failed validation: row-sum residual {row_sum_residual:.6e}, "
        "init-sum residual {init_sum_residual:.6e}, min entry {min_entry:.6e}"
    )


@dataclass
class StationarityReport(_Report):
    """2-norm of ``P(w) - sum_d P(dw)`` over the words up to ``level``."""

    residual: float
    level: int
    tol: float = field(default=STATIONARITY_TOL, init=False)
    stationary: bool


# ---------------------------------------------------------------------------
# Linear-representation core, shared with the dimension, causal and ncoom
# modules. It takes an operator stack ``ops`` (``OomModel.operator_stack`` or
# ``NcOomModel.op_per_basis``) with an init vector and an eval covector.


def _frozen(x, dtype, what: str) -> np.ndarray:
    """``x`` as a new read-only array of finite entries, named ``what`` in errors."""
    a = np.array(x, dtype=dtype)
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has a non-finite entry")
    a.setflags(write=False)
    return a


def _frozen_vectors(init, eval, dtype) -> tuple:
    """``init`` and ``eval`` as read-only finite flat arrays of one nonzero length."""
    v = _frozen(init, dtype, "init").reshape(-1)
    l = _frozen(eval, dtype, "eval").reshape(-1)
    if v.size == 0:
        raise ValidationError("init vector is empty")
    if l.size != v.size:
        raise ValidationError(f"eval has length {l.size}, init has length {v.size}")
    return v, l


def _frozen_symbol_matrices(alphabet, matrices: Mapping, d: int, noun: str, nouns: str):
    """``alphabet`` as a tuple of distinct strings, and ``matrices`` as a dict
    of read-only finite ``d x d`` float arrays in alphabet order, one per
    symbol; ``noun`` and its plural ``nouns`` name them in errors."""
    alphabet = tuple(str(s) for s in alphabet)
    if not alphabet:
        raise ValidationError("alphabet is empty")
    if len(set(alphabet)) != len(alphabet):
        raise ValidationError("alphabet contains duplicate symbols")
    out = {}
    for s in alphabet:
        if s not in matrices:
            raise ValidationError(f"missing {noun} for symbol {s!r}")
        out[s] = _frozen(matrices[s], float, f"{noun} for {s!r}")
        if out[s].shape != (d, d):
            raise ValidationError(f"{noun} for {s!r} must be {d}x{d}, got {out[s].shape}")
    extra = set(matrices) - set(alphabet)
    if extra:
        raise ValidationError(f"{nouns} for symbols outside alphabet: {sorted(extra)}")
    return alphabet, out


def _require_nonnegative(**values: int | None) -> None:
    """Refuse a negative depth, length or horizon, naming the parameter."""
    for name, value in values.items():
        if value is not None and value < 0:
            raise ValueError(f"{name} must be nonnegative")


def _within_budget(values: int, held: int) -> bool:
    return values <= MAX_VALUES and held <= MAX_HELD


def _deepest(l_val: int, cost) -> int:
    """``l_val``, or the deepest depth below it whose ``cost(depth)``, a pair
    of values and held entries, fits the budget."""
    depth = 0
    while depth < l_val and _within_budget(*cost(depth + 1)):
        depth += 1
    return depth


def _budget(what: str, values: int, held: int) -> None:
    """Refuse, before it allocates, a request past either limit of the budget."""
    if not _within_budget(values, held):
        raise ResourceLimitError(
            f"{what} would take {values} values and hold {held} entries; "
            f"the budget is {MAX_VALUES} values and {MAX_HELD} entries"
        )


def _overflow(what: str, image: str = "state image") -> ValidationError:
    """The refusal of a non-finite word value, which ``what`` names: floating
    point evaluation of its ``image`` overflowed, whatever the values are."""
    return ValidationError(f"{what}: its {image} overflows the float range")


def _overflow_to(depth: int, states: bool = True) -> ValidationError:
    """How every scan, closure and density check refuses a non-finite value."""
    return _overflow(f"a word up to length {depth} has a non-finite value",
                     "state image" if states else "functional")


def _clamp_probabilities(h: np.ndarray, what: str) -> None:
    """Set the entries of ``h`` in ``[-DEFAULT_NEG_TOL, 0)`` to zero, in
    place, so that no second copy is held. An entry below that, or NaN,
    raises."""
    worst = float(h.min()) if h.size else 0.0
    if np.isnan(worst):  # the comparison below is false for NaN
        raise _overflow(f"a {what} is nan")
    if worst < -DEFAULT_NEG_TOL:
        raise ValidationError(
            f"{what} {worst} below -neg_tol={-DEFAULT_NEG_TOL}; "
            "the model does not generate a probability distribution"
        )
    if worst < 0.0:
        h[h < 0.0] = 0.0


def _propagate(m: OomModel, word: Word) -> np.ndarray:
    """State image ``T_wn ... T_w1 v`` of a normalized word."""
    state = m.init
    for s in word:
        state = m.operators[s] @ state
    return state


def _state_levels(ops: np.ndarray, init: np.ndarray, depth: int) -> list[np.ndarray]:
    """Level k holds the vectors ``T_w v`` for all |w| = k, in lex order."""
    levels = [init.reshape(1, -1)]
    for _ in range(depth):
        prev = levels[-1]
        # (n, k, d) with word u*d at flat index u*K + k: u major, symbol minor
        nxt = np.einsum("kij,nj->nki", ops, prev)
        levels.append(nxt.reshape(-1, prev.shape[1]))
    return levels


def _functional_levels(ops: np.ndarray, eval: np.ndarray, depth: int) -> list[np.ndarray]:
    """Level k holds the covectors ``l T_wk ... T_w1`` for all |w| = k.

    Built by prepending symbols: the functional of ``d w`` is the functional
    of ``w`` composed with ``T_d``, so flat index d*N + n keeps lex order.
    """
    levels = [eval.reshape(1, -1)]
    for _ in range(depth):
        prev = levels[-1]
        nxt = np.einsum("nj,kji->kni", prev, ops)
        levels.append(nxt.reshape(-1, prev.shape[1]))
    return levels


def _rank_cut(singular_values, tol_rel: float) -> tuple:
    """The rank decision: the count of singular values above ``tol_rel`` times
    the largest, and its margin, ``[smallest kept, largest dropped]`` relative
    to the largest, 0.0 where there is none. A ``tol_rel`` of 1 or more raises."""
    if not tol_rel < 1.0:
        raise ValueError("tol_rel must be below 1")
    sv = np.asarray(singular_values, dtype=float).reshape(-1)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0, [0.0, 0.0]
    rank = int(np.count_nonzero(sv > tol_rel * sv[0]))
    kept = float(sv[rank - 1] / sv[0]) if rank else 0.0
    dropped = float(sv[rank] / sv[0]) if rank < sv.size else 0.0
    return rank, [kept, dropped]


def _step_cost(k: int, rows: int, d: int, chains: int = 1) -> tuple[int, int]:
    """Values and held entries of a factor step of ``chains`` chains from
    factors of ``rows`` rows of ``d`` over ``k`` operators: the entries it
    stacks, and as held its peak, every chain's stack and the QR's copy of
    it, LAPACK's copy of one stack, six ``d``-wide arrays of at most ``d``
    rows a chain and ``2^12``."""
    stacked = (1 + k * rows) * d
    return chains * stacked, ((2 * chains + 1) * stacked
                              + 6 * chains * min(1 + k * rows, d) * d + 2**12)


def _stack_factors(m, ops: np.ndarray, depth: int, chains: tuple) -> np.ndarray:
    """R factors, one per ``states`` flag of ``chains``, of ``m``'s state stack
    (``states``), the rows ``(T_w v)^T``, or functional stack, the rows ``l
    T_w``, of the words up to ``depth`` over the operator stack ``ops``, up to
    row signs, as one array: ``R(0) = R(seed)``, ``R(j) = R([seed; R(j-1) G_1;
    ...; R(j-1) G_k])`` with the seed ``init`` and the ``G_s`` the ``T_s^T``,
    or ``eval`` and the ``T_s``, each step budgeted.

    A step of several chains writes their stacks into one buffer and factors
    them with one batched QR, charged for all of them (:func:`_step_cost`):
    at small ``d`` numpy's cost per call, not LAPACK's work, sets a step's
    time.
    Where that charge does not fit the budget, the chains step one at a time,
    each charged and refused as a walk of that chain alone, so a joint walk is
    admitted wherever its chains are. Each chain's factors are bitwise those
    of a walk of that chain alone. ``m`` keeps only the step computed last,
    with its ``ops``, ``chains`` and depth, as one private tuple replaced
    whole: a walk of the same chains extends it, any other request starts over
    from step 0. So every step is bitwise the same whatever ran on ``m``
    before, the model holds one factor of at most ``d x d`` per chain, and
    concurrent callers can at worst repeat work."""
    k, d, n = len(ops), m.dim, len(chains)
    walked_ops, walked, j, factors = vars(m).get("_factor_walk", (None, None, -1, None))
    if walked_ops is not ops or walked != chains or j > depth:
        j, factors = -1, np.empty((n, 0, d))
    # models keep init and eval in one dtype, so each chain's is its own
    dtype = np.result_type(ops, factors, m.init, m.eval)
    while j < depth:
        rows, j = factors.shape[1], j + 1
        if n > 1 and _within_budget(*(cost := _step_cost(k, rows, d, n))):
            _budget(f"the {n} factors to depth {j}", *cost)
            buf = np.empty((n, 1 + k * rows, d), dtype)
            for stack, states, r in zip(buf, chains, factors):
                _write_stack(stack, m, ops, states, r)
            factors = np.linalg.qr(buf, mode="r")
        else:  # one chain at a time
            step = []
            for states, r in zip(chains, factors):
                _budget(f"the {'state' if states else 'functional'} factor to depth {j}",
                        *_step_cost(k, rows, d))
                stack = _write_stack(np.empty((1 + k * rows, d), dtype), m, ops, states, r)
                step.append(np.linalg.qr(stack, mode="r"))
            factors = step[0][None] if n == 1 else np.stack(step)
    vars(m)["_factor_walk"] = (ops, chains, j, factors)
    return factors


def _write_stack(out: np.ndarray, m, ops: np.ndarray, states: bool, r: np.ndarray) -> np.ndarray:
    """``out``, filled with the stack of a step of ``m``'s state (``states``)
    or functional chain from its factor ``r``: the seed, then ``r G_s`` for
    each operator, computed in place."""
    out[0] = m.init if states else m.eval
    np.matmul(r, ops.transpose(0, 2, 1) if states else ops,
              out=out[1:].reshape(len(ops), len(r), out.shape[1]))
    return out


@np.errstate(over="ignore", invalid="ignore")  # a non-finite factor is refused
def _closure(m, ops: np.ndarray, chains: tuple, tol_rel: float, depth: int | None = None) -> tuple:
    """The depth where a walk of ``m``'s factor chains ``chains``, each a
    ``states`` flag of :func:`_stack_factors`, stops, and their factors there.
    It stops at ``depth``, or one step past the first depth at which no
    chain's numerical rank grows: a span is final once a level adds nothing,
    by depth ``d - 1``. The ranks of a step come from one batched SVD. A
    non-finite factor raises, naming its chain."""
    ranks, last = [], ops.shape[1] if depth is None else min(depth, ops.shape[1])
    for j in range(last + 1):
        factors = _stack_factors(m, ops, j, chains)
        if not np.isfinite(factors).all():
            raise _overflow_to(j, next(s for s, r in zip(chains, factors)
                                       if not np.isfinite(r).all()))
        if len(ranks) > 1 and ranks[-2] == ranks[-1]:
            break
        # numpy takes longer for a batch of one than for its matrix
        sv = np.linalg.svd(factors if len(chains) > 1 else factors[0], compute_uv=False)
        ranks.append([_rank_cut(s, tol_rel)[0] for s in sv.reshape(len(chains), -1)])
    return j, factors


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual is refused
def _factor_residual(m, ops: np.ndarray, states: bool, x, depth: int | None) -> tuple:
    """``(L, |R x|)`` for the state (``states``) or functional factor ``R`` of
    ``m`` where :func:`_closure` stops at most ``depth`` deep: the 2-norm of
    ``x^T T_w v``, or ``l T_w x``, over the words up to ``L``, and where the
    span has closed, 0 iff it is on every word. A non-finite value raises."""
    level, (r,) = _closure(m, ops, (states,), DEFAULT_RANK_TOL, depth)
    residual = float(np.linalg.norm(r @ x))
    if not isfinite(residual):
        raise _overflow_to(level, states)
    return level, residual


def _scan_cost(k: int, d: int, depth: int) -> tuple[int, int]:
    """Word pairs of :func:`_split_scan` to ``depth`` over ``k`` operators of
    size ``d``, and the entries of both stacks and one row chunk it holds."""
    rows, cols = word_count_up_to(k, (depth + 1) // 2), word_count_up_to(k, depth // 2)
    return rows * cols, (rows + cols) * d + max(_SCAN_CHUNK, cols)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is refused
def _split_scan(ops: np.ndarray, vector, covector, depth: int) -> tuple[float, float]:
    """Lowest value and largest magnitude of ``covector T_w vector`` over all
    words with ``|w| <= depth`` of a real model: the entries of ``S F^T`` for
    the images ``T_u vector``, ``|u| <= ceil(depth / 2)``, and the
    functionals ``covector T_s``, ``|s| <= floor(depth / 2)``, taken in row
    chunks. A value that is not finite, as ``0 * inf`` makes it where images
    overflow, raises :class:`ValidationError`."""
    _budget(f"scanning to depth {depth}", *_scan_cost(ops.shape[0], ops.shape[1], depth))
    states = np.vstack(_state_levels(ops, vector, (depth + 1) // 2))
    functionals = np.vstack(_functional_levels(ops, covector, depth // 2)).T
    lowest, largest = np.inf, 0.0
    step = max(1, _SCAN_CHUNK // functionals.shape[1])
    for start in range(0, states.shape[0], step):
        block = states[start : start + step] @ functionals
        low, high = float(block.min()), float(block.max())
        if not (isfinite(low) and isfinite(high)):  # Python's min and max would drop a NaN
            raise _overflow_to(depth)
        lowest, largest = min(lowest, low), max(largest, high, -low)
        del block  # so that the next chunk does not share the peak with it
    return lowest, largest


def _require_probabilities(m: OomModel, depth: int) -> None:
    """Refuse a word value up to ``depth`` below ``-DEFAULT_NEG_TOL``, or not
    finite, by the split scan; a model with no negative parameter has none."""
    if m._nonnegative:
        return
    lowest = _split_scan(m.operator_stack, m.init, m.eval, depth)[0]
    if lowest < -DEFAULT_NEG_TOL:
        raise ValidationError(
            f"a word up to length {depth} has probability {lowest}, below -neg_tol"
        )


def _mixture_weights(parts: Sequence[tuple]) -> np.ndarray:
    """Weights of (weight, model) mixture parts, checked to be positive and
    to sum to one."""
    if not parts:
        raise ValidationError("mixture needs at least one part")
    weights = np.array([float(w) for w, _ in parts])
    if not np.all(weights > 0):  # written so that a NaN weight fails
        raise ValidationError("mixture weights must be positive")
    if not abs(weights.sum() - 1.0) <= 1e-12:
        raise ValidationError(f"mixture weights sum to {float(weights.sum())!r}, not 1")
    return weights


def _direct_sum(weights, parts: list, dtype) -> tuple:
    """Block-diagonal ``(ops, init, eval)`` of ``(ops, init, eval)`` parts,
    each part's init scaled by its weight."""
    total = sum(v.size for _, v, _ in parts)
    ops = np.zeros((parts[0][0].shape[0], total, total), dtype=dtype)
    init = np.zeros(total, dtype=dtype)
    evalv = np.zeros(total, dtype=dtype)
    pos = 0
    for w, (stack, v, l) in zip(weights, parts):
        sl = slice(pos, pos + v.size)
        ops[:, sl, sl] = stack
        init[sl] = w * v
        evalv[sl] = l
        pos += v.size
    return ops, init, evalv


def _difference(m1: OomModel, m2: OomModel) -> tuple:
    """``(ops, init, eval)`` of the model whose word values are those of
    ``m1`` minus those of ``m2``: their direct sum, ``m2``'s eval negated."""
    parts = [(m.operator_stack, m.init, sign * m.eval) for m, sign in ((m1, 1), (m2, -1))]
    return _direct_sum((1.0, 1.0), parts, float)


# ---------------------------------------------------------------------------
# Operations


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual is refused
def _condition_residuals(total: np.ndarray, init, eval) -> tuple[float, float]:
    """``|l(v) - 1|`` and ``max |l T - l|`` for the sum ``T`` of a model's
    operators: how far it is from unit mass and from mass preservation. A
    residual that is not finite, where the parameters sum past the float
    range, raises :class:`ValidationError`."""
    c1 = abs(complex(eval @ init) - 1.0)
    c2 = float(np.max(np.abs(eval @ total - eval)))
    if not (isfinite(c1) and isfinite(c2)):
        raise ValidationError(
            f"condition-1 residual {c1:.6e}, condition-2 residual {c2:.6e}: "
            "a sum of the model's parameters overflows the float range"
        )
    return c1, c2


def _certified(m: OomModel) -> bool:
    """Whether the signs of ``m`` prove it valid at every depth: no negative
    parameter, and both condition residuals within ``DEFAULT_CONDITION_TOL``.
    A model that is not certified may still be valid; only a scan can tell."""
    if not m._nonnegative:
        return False
    return max(_condition_residuals(m.operator_sum, m.init, m.eval)) <= DEFAULT_CONDITION_TOL


def validate_oom(m: OomModel, l_val: int = 8) -> ValidationReport:
    """Check the three defining conditions up to word length ``l_val``.

    Returns the residual ``|l(v) - 1|``, the residual ``max |l sum_d T_d - l|``
    and the most negative word value over all words up to ``checked_depth``:
    ``l_val``, or the deepest depth below it whose scan fits the budget (8 for
    up to 10 symbols, 5 for 26, up to 176 states). The verdict passes iff the
    first two are within ``DEFAULT_CONDITION_TOL`` and the scan found nothing
    below ``-DEFAULT_NEG_TOL``. A pass certifies nonnegativity only up to that
    depth.
    """
    _require_nonnegative(l_val=l_val)
    depth = _deepest(l_val, lambda n: _scan_cost(len(m.alphabet), m.dim, n))
    c1, c2 = _condition_residuals(m.operator_sum, m.init, m.eval)
    most_negative = _split_scan(m.operator_stack, m.init, m.eval, depth)[0]
    passed = max(c1, c2) <= DEFAULT_CONDITION_TOL and most_negative >= -DEFAULT_NEG_TOL
    return ValidationReport(
        condition1_residual=c1,
        condition2_residual=c2,
        most_negative_probability=most_negative,
        checked_depth=depth,
        passed=passed,
    )


def validate_hmm(h: HmmModel) -> HmmValidationReport:
    """Check row-stochasticity of the symbol sum and normalisation of init,
    each within ``DEFAULT_CONDITION_TOL``."""
    total = sum(h.transition_emission[s] for s in h.alphabet)
    row_res = float(np.max(np.abs(total.sum(axis=1) - 1.0)))
    init_res = abs(float(h.init.sum()) - 1.0)
    min_entry = float(
        min(h.init.min(), *(h.transition_emission[s].min() for s in h.alphabet))
    )
    passed = max(row_res, init_res) <= DEFAULT_CONDITION_TOL and min_entry >= 0.0
    return HmmValidationReport(
        row_sum_residual=row_res,
        init_sum_residual=init_res,
        min_entry=min_entry,
        passed=passed,
    )


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is refused
def word_probability(p, word, neg_tol: float = DEFAULT_NEG_TOL) -> float:
    """Probability of the cylinder of ``word`` under the process.

    This is ``l(T_wn ... T_w1 v)`` for a model, or for the model an HMM
    induces; the empty word gives ``l(v)``, which is one for a valid model.
    Values below ``-neg_tol``, and non-finite values of a word whose state
    image overflows, raise :class:`ValidationError`; values in
    ``[-neg_tol, 0)`` are clamped to zero.

    Examples
    --------
    >>> from oomlab.processes import bernoulli
    >>> word_probability(bernoulli(0.5), "101")
    0.125
    >>> word_probability(bernoulli(0.5), "")
    1.0
    """
    m = _classical_model(p)
    w = normalize_word(word, m.alphabet)
    raw = float(m.eval @ _propagate(m, w))
    if not np.isfinite(raw):
        raise _overflow(f"word {w!r} has probability {raw}")
    if raw < -neg_tol:
        raise ValidationError(
            f"word {w!r} has probability {raw}, below -neg_tol={-neg_tol}; "
            "the model does not generate a probability distribution"
        )
    return 0.0 if raw < 0.0 else raw


def kolmogorov_residual(p, depth: int) -> float:
    """2-norm of ``sum_d P(wd) - P(w)`` over the words up to ``depth - 1``,
    or up to the depth where the state span closes if that is smaller (0 iff
    on every word): the state factor against ``l sum_d T_d - l``
    (:func:`_factor_residual`). 0.0 at depth 0, where there are no words."""
    _require_nonnegative(depth=depth)
    m = _classical_model(p)
    if depth == 0:
        return 0.0
    defect = m.eval @ m.operator_sum - m.eval
    return _factor_residual(m, m.operator_stack, True, defect, depth - 1)[1]


def hmm_to_oom(h: HmmModel) -> OomModel:
    """The model induced by an HMM: transposed matrices acting on column
    state distributions, all-ones evaluation covector.

    The induced model generates exactly the HMM's word probabilities and has
    dimension equal to the number of hidden states.
    """
    validate_hmm(h).require()
    ops = {s: h.transition_emission[s].T.copy() for s in h.alphabet}
    return OomModel(
        alphabet=h.alphabet,
        operators=ops,
        init=h.init.copy(),
        eval=np.ones(h.n_states),
        name=h.name,
        description=h.description,
    )


def _classical_model(p) -> OomModel:
    """``p`` as an :class:`OomModel`: a model as is, an HMM as its induced
    model, converted by :func:`hmm_to_oom` once per HMM and then reused."""
    if isinstance(p, OomModel):
        return p
    if isinstance(p, HmmModel):
        return p._induced
    raise TypeError(f"expected an OomModel or HmmModel, got {type(p).__name__}")


def mixture_direct_sum(parts: Sequence[tuple]) -> OomModel:
    """Convex mixture of models, realized as a block-diagonal direct sum.

    Takes (weight, model) pairs over a shared alphabet with positive weights
    summing to one. The direct sum's word probabilities are the weighted sums
    of the parts' word probabilities, exactly by block structure.
    """
    weights = _mixture_weights(parts)
    models = [m for _, m in parts]
    alphabet = models[0].alphabet
    for m in models[1:]:
        if m.alphabet != alphabet:
            raise ValidationError("alphabet mismatch between mixture parts")
    ops, init, evalv = _direct_sum(
        weights, [(m.operator_stack, m.init, m.eval) for m in models], float
    )
    return OomModel(alphabet=alphabet, operators=dict(zip(alphabet, ops)), init=init, eval=evalv)


def stationarity_check(m: OomModel, l: int | None = None) -> StationarityReport:
    """Test shift invariance of the generated process on observables.

    Reports the 2-norm of ``P(w) - sum_d P(dw)`` over the words up to
    ``level``, stationary when it is within ``STATIONARITY_TOL``: ``level`` is
    ``l``, or the depth where the functional span closes if that is smaller
    or ``l`` is None, and there the check covers words of every length. The
    algebraic condition ``(sum_d T_d) v = v`` is sufficient but not
    necessary; the functional factor against ``v - (sum_d T_d) v``
    (:func:`_factor_residual`) is the observable criterion.
    """
    _require_nonnegative(l=l)
    shifted = m.init - m.operator_sum @ m.init
    level, residual = _factor_residual(m, m.operator_stack, False, shifted, l)
    return StationarityReport(residual=residual, level=level,
                              stationary=residual <= STATIONARITY_TOL)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite mass is refused
def sample_trajectory(m: OomModel, length: int, seed: int) -> Word:
    """Draw a word of the given length from the generated process.

    A certified model (:func:`_certified`) whose ``eval`` is entrywise
    positive is a hidden Markov chain after the diagonal change of basis by
    ``eval``: from hidden coordinate ``i`` it emits ``s`` and moves to ``j``
    with weight ``l_j T_s[j, i]``, and its first pair ``(s, j)`` has weight
    ``l_j (T_s v)_j``. Row ``i`` of those weights sums to ``(l sum_s T_s)_i =
    l_i`` within the certified residual and the first row to ``l v = 1``, so
    the probability of a word, summed over hidden paths, telescopes to ``l
    T_w v``. Where every row has a positive finite total, the word is drawn
    on that chain (:func:`_hidden_walk`), which holds no state vector; its
    weights are probabilities, so it cannot overflow. The model builds the
    chain's table on its first sample and keeps it. Every other model,
    signed, with a zero ``eval`` entry, with a row of zero total or not
    certified, takes the belief walk (:func:`_belief_walk`), which carries
    the state ``T_w v``. The two walks draw the same law but, for one seed,
    different words. Both take one uniform a step, drawn from the generator
    in fixed blocks, the same stream as one draw per step. Deterministic
    given ``seed``.
    """
    _require_nonnegative(length=length)
    rng = np.random.default_rng(seed)
    mass = float(m.eval @ m.init)
    if abs(mass - 1.0) > 1e-6:
        raise ValidationError(f"initial mass is {mass}, expected 1")
    _condition_residuals(m.operator_sum, m.init, m.eval)  # refuses sums past the float range
    blocks = (rng.random(min(_SAMPLE_BLOCK, length - start)).tolist()
              for start in range(0, length, _SAMPLE_BLOCK))
    table = m._hidden_chain
    return _belief_walk(m, blocks) if table is None else _hidden_walk(m, table, blocks)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite total selects the belief walk
def _hidden_table(m: OomModel) -> tuple | None:
    """The running sums of the hidden chain's weights, one row per hidden
    coordinate ``i`` over the pairs ``(s, j)`` at ``s * d + j``, the weights
    ``l_j T_s[j, i]``, and a last row of the first draw's weights ``l_j (T_s
    v)_j``, formed in one array charged before it is allocated; and each
    row's end, the first entry that reaches its total. None where the model
    is not certified, or has an ``eval`` entry that is not positive or a row
    whose total is not positive and finite."""
    k, d = len(m.alphabet), m.dim
    if not (_certified(m) and (m.eval > 0.0).all()):
        return None
    _budget(f"the hidden chain's {d + 1} rows of {k * d} pairs", (d + 1) * k * d, (d + 1) * k * d)
    sums = np.empty((d + 1, k * d))
    np.multiply(m.operator_stack.transpose(2, 0, 1), m.eval, out=sums[:d].reshape(d, k, d))
    np.multiply(m.eval, m.operator_stack @ m.init, out=sums[d].reshape(k, d))
    np.cumsum(sums, axis=1, out=sums)
    totals = sums[:, -1]
    if not ((totals > 0.0) & (totals < np.inf)).all():
        return None
    return sums, np.count_nonzero(sums < totals[:, None], axis=1).tolist()


def _hidden_walk(m: OomModel, table: tuple, blocks) -> Word:
    """The word of :func:`_hidden_table`'s chain, started at its first-draw
    row: each step bisects the current row at the uniform times its total,
    clamped to the row's end so that no pair of weight zero is drawn. A row
    becomes a list when the walk first reaches it, so a short word of a wide
    model converts only the rows it visits."""
    sums, ends = table
    d = m.dim
    symbols = [s for s in m.alphabet for _ in range(d)]
    hidden = list(range(d)) * len(m.alphabet)
    rows = [None] * (d + 1)
    out, i = [], d
    for block in blocks:
        for u in block:
            row = rows[i]
            if row is None:
                row = rows[i] = sums[i].tolist()
            idx = bisect_right(row, u * row[-1], 0, ends[i])
            out.append(symbols[idx])
            i = hidden[idx]
    return tuple(out)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite total is refused
def _belief_walk(m: OomModel, blocks) -> Word:
    """The word drawn from sequential conditionals ``P(d | w) = P(wd) / P(w)``.

    With ``C`` the stack of covectors ``l T_e`` and ``R`` its running sums
    down the symbols, each step is one product of the state with ``G_s = [T_s
    ; C T_s ; R T_s]`` for the symbol ``s`` just drawn: the next state, its
    raw conditionals and their running sums. The next symbol is the first
    whose running sum exceeds the uniform times the last one, the total. The
    state is never divided by its mass: when the total leaves ``(2^-256,
    2^256)`` the state is scaled by a power of two, which adds no round-off,
    so arbitrarily long trajectories do not underflow. Only a step with a
    negative raw conditional or no positive total divides the conditionals by
    the mass ``l x`` (1 at the initial state), clamps those in
    ``[-DEFAULT_NEG_TOL, 0)`` to zero and raises below that or when no mass
    is left. A total that is not finite, where a state image overflows,
    raises :class:`ValidationError` before a symbol is drawn. Running sums
    taken as products round differently in the last bits from sums of
    normalised conditionals, so a symbol can differ from such a sampler only
    where a uniform lies within about ``1e-15`` of a boundary. The ``k (d +
    2k) d`` entries of the ``G_s`` are charged before they are formed.
    """
    ops, l, k, d = m.operator_stack, m.eval, len(m.alphabet), m.dim
    entries = k * (d + 2 * k) * d
    # held with them: the k covectors, the 2k rows of those and their sums, one product of the rows
    _budget(f"the belief walk's {k} fused operators of {d + 2 * k} rows", entries,
            entries + 5 * k * d + 2**12)
    covectors = l @ ops
    rows = np.vstack([covectors, np.cumsum(covectors, axis=0)])
    fused = [np.vstack([t, rows @ t]) for t in ops]
    # a model without negative entries has no negative conditional
    signed = not m._nonnegative
    nxt = np.concatenate([m.init, rows @ m.init])
    state, vals = nxt[:d], nxt.tolist()
    if not isfinite(vals[-1]):
        raise _overflow_to(1)
    # the first k - 1 running sums are bisected; a uniform past them picks the last symbol
    lo, hi = d + k, d + 2 * k - 1
    out = []
    for block in blocks:
        for u in block:
            total = vals[-1]
            if total > 0.0 and not (signed and min(vals[d:lo]) < 0.0):
                idx = bisect_right(vals, u * total, lo, hi) - lo
            else:
                # the initial state's mass counts as 1
                cond = (nxt[d:lo] / (l @ state) if out else nxt[d:lo]).tolist()
                lowest = min(cond)
                if lowest < -DEFAULT_NEG_TOL:
                    raise ValidationError(
                        f"conditional mass {lowest} below -neg_tol while sampling; "
                        "the model does not generate a probability distribution"
                    )
                sums = list(accumulate(max(c, 0.0) for c in cond))
                if sums[-1] <= 0.0:
                    raise ValidationError("no probability mass left while sampling")
                idx = min(bisect_right(sums, u * sums[-1]), k - 1)
            out.append(idx)
            nxt = fused[idx].dot(state)
            vals = nxt.tolist()
            if not _SCALE_LOW < vals[-1] < _SCALE_HIGH:
                if not isfinite(vals[-1]):
                    raise _overflow_to(len(out) + 1)
                nxt *= ldexp(1.0, -frexp(vals[-1])[1])
            state = nxt[:d]
    return tuple(m.alphabet[i] for i in out)
