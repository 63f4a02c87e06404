"""Inputs shared across test modules: the curated process suite of the
causal, experiment and acceptance tests, and random algebra elements.

Each suite entry fixes the model, its known dimension, and the past length,
horizon and ladder depth at which the causal-state analysis is expected to
resolve it.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cache

import numpy as np

import oomlab as ol


@dataclass
class Curated:
    name: str
    model: ol.OomModel
    dim: int
    past_length: int
    horizon: int
    l_max: int
    n_causal_states: int


def markov2():
    return ol.markov_chain([[0.9, 0.1], [0.2, 0.8]], init=[2 / 3, 1 / 3])


def markov3():
    return ol.markov_chain(
        [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]], init=[1 / 3, 1 / 3, 1 / 3]
    )


def mixture_2bern(p1=0.2, p2=0.7):
    return ol.mixture_direct_sum([(0.5, ol.bernoulli(p1)), (0.5, ol.bernoulli(p2))])


def in_basis(m: ol.OomModel, a) -> ol.OomModel:
    """The same process in the basis ``a``: ``A T A^-1``, ``A v``, ``l A^-1``."""
    a = np.asarray(a, dtype=float)
    a_inv = np.linalg.inv(a)
    ops = {s: a @ m.operators[s] @ a_inv for s in m.alphabet}
    return ol.OomModel(m.alphabet, ops, a @ m.init, m.eval @ a_inv)


def skewed_mixture(big: float) -> ol.OomModel:
    """``mixture_2bern(0.2, 0.8)`` in the basis ``[[1, 1], [0, big]]``, whose
    state coordinates differ in scale by about ``big``."""
    return in_basis(mixture_2bern(0.2, 0.8), [[1.0, 1.0], [0.0, big]])


def signed_coin_mixture(q=0.96) -> ol.OomModel:
    """``1.2 P_A - 0.2 P_B`` for coins with P(1) = 0.5 and ``q``. Both defining
    equalities hold, but long runs of ones are negative: P(111) = 0.15 - 0.2 q^3
    at the default ``q``, first P(1^19) at ``q = 0.55``."""
    ops = {"0": np.diag([0.5, 1.0 - q]), "1": np.diag([0.5, q])}
    return ol.OomModel(("0", "1"), ops, init=[1.2, -0.2], eval=[1.0, 1.0])


#: How every scan, closure and density check refuses a non-finite word value.
OVERFLOW = "a word up to length {} has a non-finite value: its state image overflows the float range"
#: The same, where the walk of the functionals ``l T_w`` meets the value.
FUNCTIONAL_OVERFLOW = OVERFLOW.replace("state image", "functional")


def overflowing_model() -> ol.OomModel:
    """A valid model whose second state coordinate overflows: ``l = [1, 0]``
    reads only the first, exactly ``2^-n`` after n symbols, but ``0 * inf``
    makes the floating-point value of ``"00"`` NaN."""
    ops = {"0": [[0.5, 0.0], [1e308, 1e308]], "1": 0.5 * np.eye(2)}
    return ol.OomModel(("0", "1"), ops, [1.0, 0.0], [1.0, 0.0])


def reversed_model(m: ol.OomModel) -> ol.OomModel:
    """The time reversal of ``m``: its transposed operators, with ``init`` and
    ``eval`` swapped. Of :func:`overflowing_model` it is the same fair coin,
    whose functionals ``l T_w`` overflow where that model's state images do."""
    ops = {s: m.operators[s].T for s in m.alphabet}
    return ol.OomModel(m.alphabet, ops, m.eval, m.init)


def phase0_p12() -> ol.OomModel:
    """The period-12 cycle of ``"000000000001"`` started in phase 0, not in
    its uniform stationary phase: it agrees with its shift on every word up
    to length 10 and first differs at 11."""
    cycle = np.roll(np.eye(12), 1, axis=1)
    return ol.hmm_to_oom(ol.markov_chain(cycle, labels=list("000000000001"), init=np.eye(12)[0]))


def stationary_p12() -> ol.OomModel:
    """The period-12 cycle of ``"000000000001"`` started in its uniform
    stationary phase: 11 of its 1024 pasts of length 10 have positive
    probability, and they fall into 4 causal states at horizon 4."""
    cycle = np.roll(np.eye(12), 1, axis=1)
    labels = list("000000000001")
    return ol.hmm_to_oom(ol.markov_chain(cycle, labels=labels, init=np.full(12, 1 / 12)))


def signed_qubit_mixture() -> ol.NcOomModel:
    """``1.5 qp(0.5, 0.5) - 0.5 qp(1, 0)``, with ``qp(a, b)`` the product state
    of ``diag(a, b)``: its value on ``E_00`` tensored n times is
    ``1.5 / 2^n - 0.5``, so it is positive on one site (density
    ``diag(0.25, 0.75)``) and ``-0.125`` on two."""
    ops = np.zeros((4, 2, 2), dtype=complex)
    ops[0], ops[3] = np.diag([0.5, 1.0]), np.diag([0.5, 0.0])
    return ol.NcOomModel(ol.construct_algebra([2]), ops, init=[1.5, -0.5], eval=[1.0, 1.0])


def curated_suite() -> list[Curated]:
    return [
        Curated("iid_05", ol.bernoulli(0.5), 1, 1, 1, 2, 1),
        Curated("iid_03", ol.bernoulli(0.3), 1, 2, 2, 2, 1),
        Curated(
            "iid_3sym", ol.iid({"0": 0.2, "1": 0.5, "2": 0.3}), 1, 1, 1, 2, 1
        ),
        Curated("markov2", ol.hmm_to_oom(markov2()), 2, 1, 3, 3, 2),
        Curated("markov3", ol.hmm_to_oom(markov3()), 3, 1, 3, 4, 3),
        Curated("period2", ol.hmm_to_oom(ol.periodic(["0", "1"])), 2, 1, 2, 3, 2),
        Curated("period3", ol.hmm_to_oom(ol.periodic(["0", "1", "2"])), 3, 1, 3, 4, 3),
        Curated("mix_02_07", mixture_2bern(0.2, 0.7), 2, 3, 2, 3, 4),
        Curated("mix_05_09", mixture_2bern(0.5, 0.9), 2, 3, 2, 3, 4),
    ]


def random_element(
    algebra: ol.CStarAlgebra, rng: np.random.Generator, normalize: bool = True
) -> ol.AlgebraElement:
    """Element with complex Gaussian entries; with ``normalize``, scaled to
    unit Frobenius norm over all blocks jointly."""
    blocks = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for d in algebra.block_dims
    ]
    if normalize:
        norm = np.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in blocks))
        if norm > 0:
            blocks = [b / norm for b in blocks]
    return ol.AlgebraElement(algebra, blocks)


@cache
def _wide_hmm() -> ol.HmmModel:
    return ol.random_hmm(230, string.ascii_lowercase, rng=0)


def wide_models() -> tuple:
    """A new model of a 230-state HMM over 26 symbols and its operator-algebra
    embedding, with no factor walked and every operator sum formed. Either
    factor's step to depth 3 stacks ``(1 + 26 * 230) 230 = 1375630`` entries
    and holds more than the budget admits; the steps to depth 2 fit."""
    m = ol.hmm_to_oom(_wide_hmm())
    e = ol.embed_classical(m)
    m.operator_sum, e.operator_sum  # formed here, before a test traces
    return m, e


@cache
def wide_pair() -> tuple:
    """Two 160-state HMMs' models over 48 symbols, operator stacks formed: the
    closure of their difference admits all 320 images by length 2, and its
    48 * 271 candidates of length 3 would hold more than the budget admits."""
    symbols = string.ascii_letters[:48]
    pair = tuple(ol.hmm_to_oom(ol.random_hmm(160, symbols, rng=r)) for r in (1, 2))
    for m in pair:
        m.operator_stack  # formed here, before a test traces
    return pair
