"""The three workloads: seeded inputs, the fixed job list of one pass, and checks.

A job is one library call or one ``oomlab`` CLI subprocess. Its ``call`` is
timed; its ``check`` runs afterwards, untimed, against the reference module or
against properties the method must have. Reference values are computed on
first use and cached, so the first pass pays for them outside any timing.

All library calls go through the ``ol`` package namespace at call time, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import child
import oomlab as ol
import reference as ref
from reference import close, require

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join("tests", "fixtures")

#: Binary HMMs on which the fixed ``tol_rel=1e-9`` rank cut lands inside the
#: singular spectrum, so ``process_dimension(., 8)`` reports a stabilized
#: dimension below the widest-gap one (18-20 for 20 and 24 states). They do
#: not depend on the seed, and fail on every pass until the rank decision
#: reports its margin.
RANK_CUT_FAULTS = ((20, 1), (20, 2), (24, 0), (24, 1), (24, 2), (24, 3))

#: State counts of the seeded random HMMs in ``ladder``.
BINARY_SIZES = (4, 7, 10, 13, 16)  # ladder to depth 8
TERNARY_SIZES = (4, 8, 12)  # ladder to depth 5
EMBEDDED_SIZES = (3, 5, 6)  # embedded in a commutative algebra, depth 7
#: Redundant direct sums A + A + B, as (states of A, states of B). The
#: equivalence check enumerates words up to the summed dimensions, 15 and 18.
REDUNDANT_SUMS = ((2, 2), (4, 3))

#: Rounds of the fixture jobs in one pass. Fixture jobs take tens of
#: milliseconds in ``ladder`` and ``causal``; repeating them gives the
#: median of ``fixture_s`` more samples. ``files`` runs its CLI jobs once.
FIXTURE_ROUNDS = {"ladder": 3, "causal": 4, "files": 1}

#: Scaled model files for the ``files`` workload: (symbols, states).
FILE_MODELS = ((5, 12), (5, 30), (6, 12), (6, 50))


@dataclass
class Job:
    name: str
    scale: str  # "fixture" or "scaled"
    call: Callable[[], Any]
    check: Callable[[Any], None]
    kept_fault: bool = False
    argv: list = field(default_factory=list)  # CLI arguments, for CLI jobs
    #: The host-speed kernel whose kind of work this job does most (see
    #: ``hostspeed.py``): "numpy", "lapack", "stream" or "spawn".
    kind: str = "numpy"


def arrays(m):
    """The model's numbers: operators in alphabet order, init, eval."""
    return [m.operators[s] for s in m.alphabet], m.init, m.eval


def ref_dimension(m, depth: int) -> Callable[[], int]:
    """The widest-gap dimension, computed on first use."""
    return functools.cache(lambda: ref.model_dimension(*arrays(m), depth))


def next_seed(rng) -> int:
    return int(rng.integers(2**31))


def stationary_hmm(n: int, alphabet, rng_seed: int):
    """Seeded random HMM started in its stationary distribution."""
    h = ol.random_hmm(n, alphabet, rng=rng_seed)
    pi = ref.stationary(sum(h.transition_emission[s] for s in h.alphabet))
    return ol.HmmModel(h.alphabet, h.transition_emission, pi / pi.sum())


def fixture_model(name: str):
    """A shipped fixture built in memory from its numbers, without the loader."""
    with open(os.path.join(ROOT, FIXTURES, name), encoding="utf-8") as fh:
        d = json.load(fh)
    kind = d["type"]
    if kind == "oom":
        return ol.OomModel(d["alphabet"], d["operators"], d["init"], d["eval"])
    if kind == "hmm":
        return ol.hmm_to_oom(ol.HmmModel(d["alphabet"], d["transition_emission"], d["init"]))
    if kind == "mixture":
        return ol.mixture_direct_sum([(p["weight"], fixture_model(p["path"])) for p in d["parts"]])
    if kind == "ncoom":
        def cplx(pairs):
            return np.asarray(pairs, dtype=float) @ np.array([1.0, 1j])

        return ol.NcOomModel(
            ol.construct_algebra(d["algebra"]["blocks"]),
            cplx(d["op_per_basis"]),
            cplx(d["init"]),
            cplx(d["eval"]),
        )
    raise ValueError(f"unknown fixture type {kind!r}")


# ---------------------------------------------------------------------------
# Job makers shared by several workloads


def dimension_job(name, scale, m, depth, expected=None, kept_fault=False) -> Job:
    """``process_dimension`` checked against the widest-gap reference."""
    want = ref_dimension(m, depth)

    def check(rep):
        if expected is not None:
            require(want() == expected, f"reference dimension {want()} != {expected}")
        if kept_fault and not rep.stabilized:
            return  # an inconclusive ladder is an honest answer here
        require(rep.stabilized, "ladder did not stabilize")
        require(rep.dimension == want(), f"dimension {rep.dimension} != reference {want()}")

    kind = "lapack" if scale == "scaled" else "numpy"
    return Job(name, scale, lambda: ol.process_dimension(m, depth), check, kept_fault, kind=kind)


def harness_job(name, run, check_points=None) -> Job:
    def check(report):
        require(report.verdict == "PASS", f"verdict {report.verdict}")
        if check_points:
            check_points(report.points)

    return Job(name, "fixture", run, check)


def causal_check(m):
    """Checks every exact partition must pass, whatever the process."""
    ops, init, evalv = arrays(m)

    def check(out):
        part, c_mu, span = out
        w = part.weights
        require(close(float(w.sum()), 1.0), f"state weights sum to {w.sum()}")
        require(close(c_mu, ref.entropy_bits(w)), "statistical complexity != entropy of weights")
        require(span <= part.n_states, "span rank above the state count")
        # Representatives against a fresh forward computation, on a sample of states.
        futures = ref.word_functionals(ops, evalv, part.horizon)
        idx = {s: i for i, s in enumerate(m.alphabet)}
        for st in part.states[:8] + sorted(part.states, key=lambda s: -s.weight)[:8]:
            state = np.asarray(init, dtype=float)
            for s in st.representative_past:
                state = ops[idx[s]] @ state
            want = futures @ state / (np.asarray(evalv) @ state)
            gap = float(np.abs(want - st.representative).max())
            require(gap <= 1e-9, f"representative off by {gap:.2e}")
            weight = sum(
                ref.forward_probability(ops, init, evalv, [idx[s] for s in p])
                for p in st.member_pasts
            )
            require(close(weight, st.weight, abs_=1e-12), "state weight != summed past probability")

    return check


def causal_job(name, scale, m, past, horizon, check_extra=None) -> Job:
    base = causal_check(m)

    def call():
        part = ol.enumerate_causal_states(m, past, horizon)
        return part, ol.statistical_complexity(part), ol.causal_span_rank(part)

    def check(out):
        base(out)
        if check_extra:
            check_extra(*out)

    return Job(name, scale, call, check)


def markov_context_check(p_one, pi, dim):
    """Order-r chain with distinct rows: 2^r states, stationary context weights."""
    r = len(p_one).bit_length() - 1

    def check(part, c_mu, span):
        require(part.n_states == len(p_one), f"{part.n_states} states, want {len(p_one)}")
        for st in part.states:
            ctxs = {int("".join(p[-r:]), 2) for p in st.member_pasts}
            require(len(ctxs) == 1, "a state mixes pasts with different contexts")
            require(close(st.weight, pi[ctxs.pop()], abs_=1e-10), "state weight != context weight")
        require(close(c_mu, ref.entropy_bits(pi)), "complexity != entropy of context weights")
        require(span == dim(), f"span rank {span} != dimension {dim()}")

    return check


def sampling_check(m, length):
    """Same-seed samples identical across passes; word frequencies within bound."""
    ops, init, evalv = arrays(m)
    first = []

    def check(word):
        require(len(word) == length, "wrong trajectory length")
        if not first:
            first.append(word)
            k = len(m.alphabet)
            for n in (1, 2):
                for w in itertools.product(range(k), repeat=n):
                    p = ref.forward_probability(ops, init, evalv, w)
                    z = ref.frequency_z(word, m.alphabet, [m.alphabet[i] for i in w], p)
                    require(abs(z) <= ref.SIGMA_BOUND, f"word {w} frequency off by {z:.1f} sigma")
        require(word == first[0], "same seed gave a different trajectory")

    return check


# ---------------------------------------------------------------------------
# ladder: dimension and ncoom rank ladders


def build_ladder(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    # Sizes are fixed and only the numbers are seeded, so that work and
    # memory do not change with the seed.
    for n in BINARY_SIZES:
        m = ol.hmm_to_oom(ol.random_hmm(n, "01", rng=next_seed(rng)))
        jobs.append(dimension_job(f"dim-binary-n{n}", "scaled", m, 8))
    for n in TERNARY_SIZES:
        m = ol.hmm_to_oom(ol.random_hmm(n, "abc", rng=next_seed(rng)))
        jobs.append(dimension_job(f"dim-ternary-n{n}", "scaled", m, 5))
    for n, r in RANK_CUT_FAULTS:
        m = ol.hmm_to_oom(ol.random_hmm(n, "01", rng=r))
        jobs.append(dimension_job(f"dim-rankcut-n{n}-rng{r}", "scaled", m, 8, kept_fault=True))
    for j in (2, 3, 4):
        ps = np.linspace(0.1, 0.9, j) + rng.uniform(-0.04, 0.04, j)
        w = 1.0 + rng.uniform(0.0, 1.0, j)
        w = w / w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        mix = ol.mixture_direct_sum([(wi, ol.bernoulli(p)) for wi, p in zip(w, ps)])
        jobs.append(dimension_job(f"dim-coins-{j}", "scaled", mix, 8, expected=j))
    for na, nb in REDUNDANT_SUMS:
        a = ol.hmm_to_oom(ol.random_hmm(na, "01", rng=next_seed(rng)))
        b = ol.hmm_to_oom(ol.random_hmm(nb, "01", rng=next_seed(rng)))
        mix = ol.mixture_direct_sum([(0.25, a), (0.35, a), (0.4, b)])
        jobs.append(minimize_job(f"minimize-{na}+{na}+{nb}", mix, na + nb, rng))
    for n in EMBEDDED_SIZES:
        m = ol.hmm_to_oom(ol.random_hmm(n, "01", rng=next_seed(rng)))
        jobs.append(nc_dimension_job(f"nc-dim-embedded-n{n}", "scaled", m, 7))

    # Fixture scale: the shipped fixtures, built in memory.
    for name in (
        "bernoulli02", "bernoulli05", "bernoulli07", "bernoulli09", "markov2",
        "markov3", "period2", "period3", "mixture_2bern",
    ):
        jobs.append(dimension_job(f"dim-{name}", "fixture", fixture_model(f"{name}.json"), 4))
    qubit = fixture_model("qubit_product.json")
    jobs.append(Job("nc-dim-qubit_product", "fixture", lambda: ol.nc_process_dimension(qubit, 3),
                    lambda rep: require(rep.stabilized and rep.dimension == 1, f"{rep.to_dict()}")))
    jobs.append(nc_dimension_job("nc-dim-markov2", "fixture", fixture_model("markov2.json"), 4))
    jobs.append(Job("validate_ncoom-qubit_product", "fixture", lambda: ol.validate_ncoom(qubit),
                    lambda rep: require(rep.passed, "valid model failed validation")))
    jobs.extend(harness_jobs())
    return jobs


def minimize_job(name, mix, want_dim, rng) -> Job:
    ops, init, evalv = arrays(mix)
    reference_dim = ref_dimension(mix, 8)
    words = [rng.integers(0, 2, size=int(rng.integers(1, 13))) for _ in range(20)]

    def call():
        reduced = ol.minimize_oom(mix)
        return reduced, ol.equivalent(mix, reduced, mix.dim + reduced.dim)

    def check(out):
        reduced, same = out
        require(same, "minimized model not equivalent")
        require(reference_dim() == want_dim, f"reference dimension {reference_dim()} != {want_dim}")
        require(reduced.dim == want_dim, f"minimized to {reduced.dim}, want {want_dim}")
        r_ops, r_init, r_eval = arrays(reduced)
        for w in words:
            a = ref.forward_probability(ops, init, evalv, w)
            b = ref.forward_probability(r_ops, r_init, r_eval, w)
            require(close(a, b, rel=1e-8, abs_=1e-13), f"word probability {a} != {b}")

    return Job(name, "scaled", call, check)


def nc_dimension_job(name, scale, m, depth) -> Job:
    """An embedded classical model must keep the classical dimension."""
    want = ref_dimension(m, depth)
    embedded = ol.embed_classical(m)

    def check(rep):
        require(rep.stabilized and rep.dimension == want(), f"{rep.dimension} != {want()}")

    kind = "lapack" if scale == "scaled" else "numpy"
    return Job(name, scale, lambda: ol.nc_process_dimension(embedded, depth), check, kind=kind)


def harness_jobs() -> list:
    b = {p: fixture_model(f"bernoulli0{p}.json") for p in (2, 5, 7, 9)}
    markov2 = fixture_model("markov2.json")

    def additive(points):
        dims = [pt["dimension_report"]["dimension"] for pt in points]
        require(dims == [1, 1, 2], f"dimensions {dims}")

    def upper(points):
        pt = points[0]
        require(pt["n_causal_states"] == 2 and pt["causal_span_rank"] == 2, f"{pt}")

    return [
        harness_job("additivity-2bern",
                    lambda: ol.run_additivity([(0.5, b[2]), (0.5, b[7])], 3), additive),
        harness_job("semicont-coalescing",
                    lambda: ol.run_semicontinuity(
                        ol.coalescing_bernoulli_family(0.5, [0.2, 0.1, 0.05]), 3)),
        harness_job("semicont-markov-merge",
                    lambda: ol.run_semicontinuity(ol.markov_merge_family([0.3, 0.2, 0.1]), 3)),
        harness_job("semicont-mixture-weight",
                    lambda: ol.run_semicontinuity(
                        ol.mixture_weight_family(b[5], b[9], [0.4, 0.2, 0.1, 0.05]), 3)),
        harness_job("upperbound-markov2",
                    lambda: ol.run_upperbound(markov2, 1, 3, 3), upper),
    ]


# ---------------------------------------------------------------------------
# causal: clustering and the sampler


def order_r_chain(p_one):
    """Library model of an order-r binary chain, started stationary."""
    t = ref.order_r_transition(p_one)
    pi = ref.stationary(t)
    labels = [str(s & 1) for s in range(len(p_one))]
    return ol.hmm_to_oom(ol.markov_chain(t, labels, init=pi / pi.sum())), pi


def build_causal(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 2])
    jobs = []

    # Many states: every length-10 past of a 4-state HMM is its own state.
    many = ol.hmm_to_oom(stationary_hmm(4, "01", next_seed(rng)))
    many_dim = ref_dimension(many, 6)
    jobs.append(causal_job("causal-many-p10-h8", "scaled", many, 10, 8,
                           lambda part, c, span: require(span == many_dim(), f"span {span}")))

    # Few states: an order-3 chain with distinct rows has exactly 8.
    p3 = rng.permutation(np.linspace(0.15, 0.85, 8)) + rng.uniform(-0.02, 0.02, 8)
    chain3, pi3 = order_r_chain(p3)
    dim3 = ref_dimension(chain3, 6)
    jobs.append(causal_job("causal-order3-p10-h8", "scaled", chain3, 10, 8,
                           markov_context_check(p3, pi3, dim3)))

    # Sampled estimate on an order-2 chain whose rows sit 0.2 apart.
    p2 = rng.permutation(np.array([0.2, 0.4, 0.6, 0.8]))
    chain2, _ = order_r_chain(p2)
    jobs.append(empirical_job("empirical-order2", chain2, p2, 4, 30_000, next_seed(rng)))

    length = 20_000
    sample_seed = next_seed(rng)
    jobs.append(Job(f"sample-{length}", "scaled",
                    lambda: ol.sample_trajectory(many, length, sample_seed),
                    sampling_check(many, length)))

    # Fixture scale: the same calls at small past length and horizon.
    markov2 = fixture_model("markov2.json")
    for name, past, horizon, n_states in (
        ("markov2", 3, 2, 2), ("period2", 3, 2, 2), ("period3", 3, 2, 3),
        ("mixture_2bern", 2, 2, 3), ("bernoulli05", 3, 2, 1),
    ):
        m = fixture_model(f"{name}.json")
        jobs.append(causal_job(f"causal-{name}", "fixture", m, past, horizon,
                               count_check(n_states)))
    for name in ("markov2", "markov3", "period2", "period3", "mixture_2bern"):
        m = fixture_model(f"{name}.json")
        jobs.append(Job(f"stationarity-{name}", "fixture", lambda m=m: ol.stationarity_check(m, 6),
                        lambda rep: require(rep.stationary, f"residual {rep.residual}")))
    jobs.append(predictive_job(markov2, 2, 3))
    jobs.append(empirical_job("empirical-markov2", markov2, None, 2, 2_000, next_seed(rng),
                              past=1, scale="fixture"))
    period3 = fixture_model("period3.json")
    jobs.append(Job("sample-period3", "fixture", lambda: ol.sample_trajectory(period3, 300, 1),
                    cyclic_check(period3.alphabet)))
    return jobs


def count_check(n_states):
    return lambda part, c, span: require(part.n_states == n_states, f"{part.n_states} states")


def predictive_job(m, past_len, horizon) -> Job:
    ops, init, evalv = arrays(m)
    pasts = list(itertools.product(m.alphabet, repeat=past_len))
    idx = {s: i for i, s in enumerate(m.alphabet)}
    futures = list(itertools.product(range(len(ops)), repeat=horizon))

    def check(dists):
        for past, pd in zip(pasts, dists):
            u = [idx[s] for s in past]
            pu = ref.forward_probability(ops, init, evalv, u)
            want = [ref.forward_probability(ops, init, evalv, u + list(f)) / pu for f in futures]
            require(np.allclose(pd.dist, want, rtol=1e-9, atol=1e-12), f"past {past}")

    return Job(f"predictive-h{horizon}", "fixture",
               lambda: [ol.predictive_distribution(m, p, horizon) for p in pasts], check)


def empirical_job(name, m, p_one, n_states, n_windows, seed, past=2, scale="scaled") -> Job:
    """Sampled states of a Markov chain: one per context, near the true values.

    A context's weight is an occupation frequency, held to SIGMA_BOUND
    standard errors widened for the chain's correlation. Its next-symbol
    estimate is a binomial proportion given its count, held to SIGMA_BOUND
    binomial standard errors.
    """
    ops, init, evalv = arrays(m)
    idx = {s: i for i, s in enumerate(m.alphabet)}
    lam = ref.second_eigenvalue(m.operator_sum)

    def call():
        return ol.empirical_causal_states(m, past, 1, n_windows=n_windows, seed=seed,
                                          cluster_tol=0.1)

    def check(part):
        require(part.n_states == n_states, f"{part.n_states} states, want {n_states}")
        require(close(float(part.weights.sum()), 1.0), "weights do not sum to one")
        for st in part.states:
            u = st.representative_past
            exact = ref.forward_probability(ops, init, evalv, [idx[s] for s in u])
            require(abs(st.weight - exact) <= ref.occupation_bound(exact, lam, n_windows),
                    f"past {u} weight {st.weight} vs {exact}")
            if p_one is not None:
                p, n = p_one[int("".join(u[-past:]), 2)], st.weight * n_windows
                sigma = (p * (1 - p) / n) ** 0.5
                require(abs(st.representative[1] - p) <= ref.SIGMA_BOUND * sigma,
                        f"past {u} estimate {st.representative[1]} vs {p}")

    return Job(name, scale, call, check)


def cyclic_check(alphabet):
    def check(word):
        pos = [alphabet.index(s) for s in word]
        require(all((b - a) % len(alphabet) == 1 for a, b in zip(pos, pos[1:])),
                "periodic sample broke its cycle")

    return check


# ---------------------------------------------------------------------------
# files: model files, validation on load, and the CLI


def build_files(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 3])
    os.makedirs(workdir, exist_ok=True)
    jobs = []
    for k, d in FILE_MODELS:
        alphabet = [chr(ord("a") + i) for i in range(k)]
        hmm = ol.random_hmm(d, alphabet, rng=next_seed(rng))
        words = [rng.integers(0, k, size=int(rng.integers(1, 9))) for _ in range(10)]
        jobs.append(roundtrip_job(f"save-parse-k{k}-d{d}", hmm, os.path.join(workdir, f"k{k}_d{d}.json"), words))
    invalid = os.path.join(workdir, "invalid_scaled.json")
    ol.save_model(signed_mixture(ol.random_hmm(12, "abcde", rng=next_seed(rng))), invalid)
    jobs.append(invalid_job(invalid))

    # Fixture scale: every subcommand, and every shipped fixture, through the CLI.
    with open(os.path.join(workdir, "invalid.json"), "w", encoding="utf-8") as fh:
        json.dump({"type": "oom", "alphabet": ["0", "1"], "dim": 1,
                   "operators": {"0": [[-0.1]], "1": [[1.1]]}, "init": [1.0], "eval": [1.0]}, fh)
    with open(os.path.join(workdir, "unknown_field.json"), "w", encoding="utf-8") as fh:
        json.dump({"type": "oom", "alphabet": ["0", "1"], "dim": 1, "colour": "red",
                   "operators": {"0": [[0.5]], "1": [[0.5]]}, "init": [1.0], "eval": [1.0]}, fh)
    rel = os.path.relpath(workdir, ROOT)

    def fx(name):
        return os.path.join(FIXTURES, name)

    word = "".join(rng.choice(["0", "1"], size=6))
    b09 = fixture_model("bernoulli09.json")
    markov2 = fixture_model("markov2.json")
    sample_seed = next_seed(rng)

    def eval_check(out):
        want = ref.forward_probability(*arrays(b09), [int(c) for c in word])
        require(close(out["probability"], want, rel=1e-12), f"{out['probability']} != {want}")

    def causal_m2(out):
        require(out["n_states"] == 2 and out["causal_span_rank"] == 2, "markov2 states")
        weights = sorted(s["weight"] for s in out["states"])
        want = sorted(ref.forward_probability(*arrays(markov2), [c]) for c in (0, 1))
        require(np.allclose(weights, want, atol=1e-12), f"weights {weights}")

    def alternating(out):
        w = out["word"]
        require(out["seed"] == sample_seed and len(w) == 64, "sample header")
        require(all(a != b for a, b in zip(w, w[1:])), "period-2 sample does not alternate")

    def passed(key):
        return lambda out: require(out[key]["passed"], f"{key} did not pass")

    def verdict(out):
        require(out["verdict"] == "PASS", f"verdict {out['verdict']}")

    cli = [
        ("validate-markov3", ["validate", "--model", fx("markov3.json"), "--check-stationarity"], 0,
         lambda o: (passed("induced_model_validation")(o), require(o["stationarity"]["stationary"], "stationary"))),
        ("validate-invalid", ["validate", "--model", os.path.join(rel, "invalid.json")], 1,
         lambda o: require(not o["validation"]["passed"], "invalid model passed")),
        ("eval-bernoulli09", ["eval", "--model", fx("bernoulli09.json"), "--word", word], 0, eval_check),
        ("eval-unknown-field", ["eval", "--model", os.path.join(rel, "unknown_field.json"), "--word", "1"], 2, None),
        ("dim-period3", ["dim", "--model", fx("period3.json"), "--max-level", "4"], 0,
         lambda o: require(o["dimension"] == 3, f"{o}")),
        ("dim-period3-inconclusive", ["dim", "--model", fx("period3.json"), "--max-level", "1"], 3,
         lambda o: require(o["stabilized"] is False, f"{o}")),
        ("minimize-mixture_2bern", ["minimize", "--model", fx("mixture_2bern.json")], 0,
         lambda o: require(o["equivalent"] and o["dim_after"] == 2, f"{o['dim_after']}")),
        ("causal-markov2", ["causal", "--model", fx("markov2.json"), "--past-len", "3", "--horizon", "2"], 0, causal_m2),
        ("nc-eval-bernoulli05", ["nc-eval", "--model", fx("bernoulli05.json"), "--word", "101"], 0,
         lambda o: require(np.allclose(o["value"], [0.125, 0.0], atol=1e-15), f"{o}")),
        ("nc-dim-qubit_product", ["nc-dim", "--model", fx("qubit_product.json"), "--max-level", "3"], 0,
         lambda o: require(o["dimension"] == 1, f"{o}")),
        ("sample-period2", ["sample", "--model", fx("period2.json"), "--length", "64", "--seed", str(sample_seed)], 0,
         alternating),
    ]
    for spec in ("exp_additivity_2bern", "exp_semicont_coalescing", "exp_semicont_markov_merge",
                 "exp_semicont_mixture_weight", "exp_upperbound_markov2"):
        argv = ["experiment", "run", fx(f"{spec}.json"), "--out-dir", os.path.join(rel, f"cli_{spec}")]
        cli.append((f"experiment-{spec[4:]}", argv, 0, verdict))
    jobs.extend(cli_job(*entry) for entry in cli)
    return jobs


def roundtrip_job(name, hmm, path, words) -> Job:
    m = ol.hmm_to_oom(hmm)

    def call():
        ol.save_model(m, path)
        return ol.parse_model_file(path)

    def check(loaded):
        require(isinstance(loaded, ol.OomModel), f"loaded a {type(loaded).__name__}")
        require(loaded.alphabet == m.alphabet, "alphabet changed")
        for a, b in zip(arrays(loaded)[0] + [loaded.init, loaded.eval],
                        arrays(m)[0] + [m.init, m.eval]):
            require(np.array_equal(a, b), "numbers changed in the round trip")
        for w in words:
            a = ref.forward_probability(*arrays(loaded), w)
            b = ref.hmm_forward_probability([hmm.transition_emission[s] for s in hmm.alphabet],
                                            hmm.init, w)
            require(close(a, b, rel=1e-12, abs_=1e-15), f"word probability {a} != HMM {b}")

    return Job(name, "scaled", call, check, kind="stream")


def signed_mixture(hmm):
    """``1.2 P_A - 0.2 P_B``: both defining equalities hold, but long runs of
    the last symbol, near certain under B, get negative probability."""
    a = ol.hmm_to_oom(hmm)
    k, d = len(a.alphabet), a.dim
    size = d + 1
    ops = {}
    for i, s in enumerate(a.alphabet):
        op = np.zeros((size, size))
        op[:d, :d] = a.operators[s]
        op[d, d] = 0.96 if i == k - 1 else 0.04 / (k - 1)
        ops[s] = op
    init = np.concatenate([1.2 * a.init, [-0.2]])
    return ol.OomModel(a.alphabet, ops, init, np.concatenate([a.eval, [1.0]]))


def invalid_job(path) -> Job:
    def call():
        try:
            ol.parse_model_file(path)
        except ol.ValidationError as e:
            return e
        return None

    @functools.cache
    def really_invalid():
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        ops = [np.asarray(d["operators"][s]) for s in d["alphabet"]]
        run = [len(ops) - 1] * 8
        return min(ref.forward_probability(ops, d["init"], d["eval"], run[:n]) for n in range(9))

    def check(err):
        require(really_invalid() < -1e-10, "reference finds no negative word")
        require(isinstance(err, ol.ValidationError), "invalid model was accepted")

    return Job("parse-invalid-scaled", "scaled", call, check, kind="stream")


def cli_env() -> dict:
    """Environment for ``oomlab`` children: sources from this checkout, and no
    ``OOMLAB_SEED`` override."""
    env = dict(os.environ)
    env.pop("OOMLAB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


CLI = [sys.executable, "-m", "oomlab.cli"]


def cli_job(name, argv, code, check_out) -> Job:
    env = cli_env()

    def call():
        return child.run([*CLI, *argv], cwd=ROOT, env=env, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def check(proc):
        require(proc.returncode == code,
                f"exit {proc.returncode}, README documents {code}: {proc.stderr.strip()[-200:]}")
        if check_out is not None:
            check_out(json.loads(proc.stdout))

    return Job(f"cli-{name}", "fixture", call, check, argv=list(argv), kind="spawn")


BUILDERS = {"ladder": build_ladder, "causal": build_causal, "files": build_files}
