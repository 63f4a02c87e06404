"""Inputs shared across test modules: the curated process suite of the
causal, experiment and acceptance tests, and random algebra elements.

Each suite entry fixes the model, its known dimension, and the past length,
horizon and ladder depth at which the causal-state analysis is expected to
resolve it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def signed_coin_mixture(q=0.96) -> ol.OomModel:
    """``1.2 P_A - 0.2 P_B`` for coins with P(1) = 0.5 and ``q``. Both defining
    equalities hold, but long runs of ones are negative: P(111) = 0.15 - 0.2 q^3
    at the default ``q``, first P(1^19) at ``q = 0.55``."""
    ops = {"0": np.diag([0.5, 1.0 - q]), "1": np.diag([0.5, q])}
    return ol.OomModel(("0", "1"), ops, init=[1.2, -0.2], eval=[1.0, 1.0])


#: How every scan, closure and density check refuses a non-finite word value.
OVERFLOW = "a word up to length {} has a non-finite value: its state image overflows the float range"


def overflowing_model() -> ol.OomModel:
    """A valid model whose second state coordinate overflows: ``l = [1, 0]``
    reads only the first, exactly ``2^-n`` after n symbols, but ``0 * inf``
    makes the floating-point value of ``"00"`` NaN."""
    ops = {"0": [[0.5, 0.0], [1e308, 1e308]], "1": 0.5 * np.eye(2)}
    return ol.OomModel(("0", "1"), ops, [1.0, 0.0], [1.0, 0.0])


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
