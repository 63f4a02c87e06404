"""Snapshot of the command line's observable output on the shipped fixtures.

Runs ``oomlab.cli.main`` in-process for every subcommand on every model file
under ``tests/fixtures/``, plus ``experiment run`` on each ``exp_*.json``
spec, requests on either side of the resource budget (``dim --max-level 6``
on ``markov3`` and ``dim --max-level 13`` on ``bernoulli05``, whose deepest
block has ``2^14 - 1`` words a side and which it admits, since it charges
the factor walks of a ladder and not the words of its blocks, and ``causal
--past-len 12 --horizon 16`` on ``bernoulli05``, which it refuses),
``sample --length 5000`` and ``causal
--past-len 8 --horizon 3`` on ``markov3`` and ``mixture_2bern``, which run the
sampler on their hidden chains and the clustering at more than toy size,
``causal --past-len 10
--horizon 3`` on ``markov2``, which groups 1024 pasts into two states of 512,
``causal --past-len 10 --horizon 8`` on a 4-state binary HMM started in its
stationary distribution, which clusters 1024 pasts by 256 futures into 895
states and takes its span rank from the core of the representatives,
``causal --past-len 10 --horizon 4`` on the period-12 cycle of
``000000000001`` started in its stationary phase, where 1013 of the 1024
pasts have probability zero and the kept rows of the other 11 are gathered
into 4 states, ``dim --max-level 8`` on a
20-state binary HMM whose fixed rank cut lands inside its spectrum,
``minimize`` on that HMM, on a 12-state binary HMM and on a two-coin mixture
written in the bases ``[[1, 1], [0, 1e9]]`` and ``[[1, 1], [0, 1e12]]``,
whose state coordinates differ in scale by that much, ``sample --length
5000`` on the first of those, which is signed, so that the sampler's belief
walk keeps a byte-pinned output, ``validate`` on 7- and
26-symbol coins, which pins the depth each is scanned to, ``validate
--check-stationarity`` on a phase-locked 2-cycle embedded as an
operator-algebra model and on the period-12 cycle of ``000000000001``
started in phase 0, which agrees with its shift on every word up to length
10, and ``validate`` and ``nc-dim`` on a signed mixture
of two qubit product states that is positive on one site and not on two, so
that both exit 1, ``dim --max-level 3``, ``validate``, ``causal --past-len
2 --horizon 2``, ``minimize`` and ``sample --length 12`` on a valid model
whose state images overflow, which all refuse its non-finite word values
with one message and no numpy warning (the sampler before it draws a symbol
from one), ``nc-eval --word 0,0`` on that model, which names the overflow
in the value, ``validate --depth 1`` on a model whose operators sum past the
float range, as a classical and as an operator-algebra file, which refuse
its non-finite condition residual, and ``validate`` on a model file with a
``NaN`` entry and ``eval`` on one with a 400-digit integer entry, which are
schema errors,
``validate`` on an operator-algebra mixture of two ``qubit_product`` parts and
``nc-eval --require-positive`` on ``bernoulli05``; together the cases reach
every operation that ``test_cli.py`` lists as reachable from the command line.
It writes one file per case into an output directory:
the exit code, standard output and standard error, with the wall-clock
``runtime:`` line dropped, and for ``experiment run`` the ``points.csv`` it
wrote (its ``report.json`` equals its standard output). Two checkouts can
then be compared with ``diff -r``, or with ``compare``:

    PYTHONPATH=<checkout-a>/src python3 tests/cli_snapshot.py snap-a
    PYTHONPATH=<checkout-b>/src python3 tests/cli_snapshot.py snap-b
    PYTHONPATH=<checkout-b>/src python3 tests/cli_snapshot.py compare snap-a snap-b

``compare`` lists each case that differs and says whether its two texts
agree once every float literal is masked; where they do, it prints the
largest absolute and relative change of the floats. It exits 1 when a case
differs outside its float literals, or is missing from one side.

It needs only oomlab and the standard library; pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

from oomlab import (
    HmmModel,
    NcOomModel,
    OomModel,
    construct_algebra,
    embed_classical,
    hmm_to_oom,
    iid,
    markov_chain,
    random_hmm,
    save_model,
)
from oomlab.cli import main
from oomlab.processes import stationary_distribution

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

# Every factor kind a factors file accepts; the first basis element works for
# any algebra, and the explicit blocks fit the qubit fixture's single 2x2 block.
FACTORS = [
    {"unit": True},
    {"basis_index": 0},
    {"blocks": [[[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]]},
]


def _alphabet(path: str):
    """Alphabet of a classical model file, following a mixture's first part;
    None for an operator-algebra file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["type"] == "mixture":
        return _alphabet(os.path.join(os.path.dirname(path), data["parts"][0]["path"]))
    return data.get("alphabet")


def cases(scratch: str) -> list:
    """(case name, argv) pairs, in a fixed order."""
    factors = os.path.join(scratch, "factors.json")
    with open(factors, "w", encoding="utf-8") as fh:
        json.dump(FACTORS, fh)
    out = []
    names = sorted(os.listdir(FIXTURES))
    for name in names:
        if not name.endswith(".json") or name.startswith("exp_"):
            continue
        stem = name[:-5]
        model = ["--model", os.path.join(FIXTURES, name)]
        alphabet = _alphabet(os.path.join(FIXTURES, name))
        word = ",".join((alphabet * 2)[:3]) if alphabet else None
        out += [
            (f"validate__{stem}", ["validate", *model]),
            (f"validate-stationarity__{stem}", ["validate", *model, "--check-stationarity"]),
            (f"eval__{stem}", ["eval", *model, "--word", word or "0"]),
            (f"dim__{stem}", ["dim", *model, "--max-level", "3"]),
            (f"minimize__{stem}", ["minimize", *model]),
            (f"causal__{stem}", ["causal", *model, "--past-len", "2", "--horizon", "2"]),
            (f"nc-eval__{stem}", ["nc-eval", *model, "--factors", factors]
             if word is None else ["nc-eval", *model, "--word", word]),
            (f"nc-dim__{stem}", ["nc-dim", *model, "--max-level", "2"]),
            (f"sample__{stem}", ["sample", *model, "--length", "20", "--seed", "3"]),
        ]
    for name in names:
        if name.startswith("exp_") and name.endswith(".json"):
            spec = os.path.join(FIXTURES, name)
            case = f"experiment__{name[:-5]}"
            out.append((case, ["experiment", "run", spec,
                               "--out-dir", os.path.join(scratch, case)]))
    out += [
        ("dim-level6__markov3",
         ["dim", "--model", os.path.join(FIXTURES, "markov3.json"), "--max-level", "6"]),
        ("dim-deep__bernoulli05",
         ["dim", "--model", os.path.join(FIXTURES, "bernoulli05.json"), "--max-level", "13"]),
        ("causal-p12-h16__bernoulli05",
         ["causal", "--model", os.path.join(FIXTURES, "bernoulli05.json"),
          "--past-len", "12", "--horizon", "16"]),
        ("causal-p10-h3__markov2",
         ["causal", "--model", os.path.join(FIXTURES, "markov2.json"),
          "--past-len", "10", "--horizon", "3"]),
    ]
    for stem in ("markov3", "mixture_2bern"):
        model = ["--model", os.path.join(FIXTURES, stem + ".json")]
        out += [
            (f"sample-5000__{stem}", ["sample", *model, "--length", "5000", "--seed", "3"]),
            (f"causal-p8-h3__{stem}", ["causal", *model, "--past-len", "8", "--horizon", "3"]),
        ]
    hmm20 = hmm_to_oom(random_hmm(20, "01", rng=1))
    hmm4 = random_hmm(4, "01", rng=8)
    pi4 = stationary_distribution(sum(hmm4.transition_emission.values()))
    hmm4 = HmmModel(hmm4.alphabet, hmm4.transition_emission, pi4)
    cycle = markov_chain([[0, 1], [1, 0]], labels=["A", "B"], init=[1, 0])
    # the period-12 cycle of "000000000001" started in phase 0, which first
    # differs from its shift at length 11
    shift = [[float(j == (i + 1) % 12) for j in range(12)] for i in range(12)]
    p12 = markov_chain(shift, labels=list("000000000001"), init=[1.0] + [0.0] * 11)
    # the same cycle started in its uniform stationary phase: 1013 of its
    # 1024 pasts of length 10 have probability zero
    p12_stationary = markov_chain(shift, labels=list("000000000001"), init=[1 / 12] * 12)
    # 1.5 qp(0.5, 0.5) - 0.5 qp(1, 0), with qp(a, b) the product state of diag(a, b)
    zero = [[0.0, 0.0], [0.0, 0.0]]
    signed = NcOomModel(construct_algebra([2]), [[[0.5, 0.0], [0.0, 1.0]], zero, zero,
                                                 [[0.5, 0.0], [0.0, 0.0]]],
                        init=[1.5, -0.5], eval=[1.0, 1.0])
    # a fair coin whose second state coordinate overflows, so that the float
    # value of "00" is 0 * inf
    overflow = OomModel(("0", "1"), {"0": [[0.5, 0.0], [1e308, 1e308]],
                                     "1": [[0.5, 0.0], [0.0, 0.5]]}, [1.0, 0.0], [1.0, 0.0])
    # mixture_2bern(0.2, 0.8) in the basis [[1, 1], [0, big]]: its state
    # coordinates differ in scale by about big
    skewed = {big: OomModel(("0", "1"), {"0": [[0.8, -0.6 / big], [0.0, 0.2]],
                                         "1": [[0.2, 0.6 / big], [0.0, 0.8]]},
                            [1.0, big / 2], [1.0, 0.0]) for big in (1e9, 1e12)}
    # finite operators whose sum, and every word value past length one, overflow
    sum_overflow = OomModel(("0", "1"), {"0": [[1e308]], "1": [[1e308]]}, [1.0], [1.0])
    for kind, stem, model, argv in (
        ("dim", "hmm20_rng1", hmm20, ["dim", "--max-level", "8"]),
        ("causal-p10-h8", "hmm4_stationary", hmm4,
         ["causal", "--past-len", "10", "--horizon", "8"]),
        ("minimize", "hmm12_rng0", hmm_to_oom(random_hmm(12, "01", rng=0)), ["minimize"]),
        ("minimize", "hmm20_rng1", hmm20, ["minimize"]),
        ("minimize", "skewed_mix_1e9", skewed[1e9], ["minimize"]),
        ("minimize", "skewed_mix_1e12", skewed[1e12], ["minimize"]),
        ("sample-5000", "skewed_mix_1e9", skewed[1e9],
         ["sample", "--length", "5000", "--seed", "3"]),
        ("validate", "coin7", iid({str(i): 1 / 7 for i in range(7)}), ["validate"]),
        ("validate", "coin26", iid({str(i): 1 / 26 for i in range(26)}), ["validate"]),
        ("validate-stationarity", "phase_cycle_nc", embed_classical(hmm_to_oom(cycle)),
         ["validate", "--check-stationarity"]),
        ("validate-stationarity", "phase0_p12", hmm_to_oom(p12),
         ["validate", "--check-stationarity"]),
        ("causal-p10-h4", "stationary_p12", hmm_to_oom(p12_stationary),
         ["causal", "--past-len", "10", "--horizon", "4"]),
        ("validate", "signed_qubit_mix", signed, ["validate"]),
        ("nc-dim", "signed_qubit_mix", signed, ["nc-dim", "--max-level", "2"]),
        ("dim", "overflow", overflow, ["dim", "--max-level", "3"]),
        ("validate", "overflow", overflow, ["validate"]),
        ("causal", "overflow", overflow, ["causal", "--past-len", "2", "--horizon", "2"]),
        ("minimize", "overflow", overflow, ["minimize"]),
        ("sample", "overflow", overflow, ["sample", "--length", "12"]),
        ("nc-eval", "overflow", overflow, ["nc-eval", "--word", "0,0"]),
        ("validate-depth1", "sum_overflow", sum_overflow, ["validate", "--depth", "1"]),
        ("validate-depth1", "sum_overflow_nc", embed_classical(sum_overflow),
         ["validate", "--depth", "1"]),
    ):
        path = os.path.join(scratch, stem + ".json")
        save_model(model, path)
        out.append((f"{kind}__{stem}", [*argv, "--model", path]))
    # numbers that json reads but that are not finite doubles
    for kind, stem, literal, argv in (
        ("validate", "nan_entry", "NaN", ["validate"]),
        ("eval", "int400_entry", "1" + "0" * 400, ["eval", "--word", "0"]),
    ):
        path = os.path.join(scratch, stem + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"type": "oom", "alphabet": ["0", "1"], "dim": 1, "operators": '
                     '{"0": [[%s]], "1": [[0.5]]}, "init": [1.0], "eval": [1.0]}' % literal)
        out.append((f"{kind}__{stem}", [*argv, "--model", path]))
    qubit = os.path.join(FIXTURES, "qubit_product.json")
    nc_mixture = os.path.join(scratch, "qubit_mixture.json")
    with open(nc_mixture, "w", encoding="utf-8") as fh:
        json.dump({"type": "mixture", "parts": [{"weight": 0.5, "path": qubit}] * 2}, fh)
    out += [
        ("validate__qubit_mixture", ["validate", "--model", nc_mixture]),
        ("nc-eval-positive__bernoulli05",
         ["nc-eval", "--model", os.path.join(FIXTURES, "bernoulli05.json"),
          "--word", "1", "--require-positive"]),
    ]
    return out


def run_case(argv: list) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = "".join(
        line for line in stderr.getvalue().splitlines(keepends=True)
        if not line.startswith("runtime:")
    )
    return f"exit: {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{err}"


def snapshot(out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    os.environ.pop("OOMLAB_SEED", None)
    with tempfile.TemporaryDirectory() as scratch:
        all_cases = cases(scratch)
        for case, argv in all_cases:
            # paths inside the output would differ between checkouts
            text = run_case(argv)
            points = os.path.join(scratch, case, "points.csv")
            if case.startswith("experiment__") and os.path.exists(points):
                with open(points, encoding="utf-8", newline="") as fh:
                    text += f"--- points.csv\n{fh.read()}"
            text = text.replace(FIXTURES, "<fixtures>").replace(scratch, "<scratch>")
            with open(os.path.join(out_dir, case + ".txt"), "w", encoding="utf-8") as fh:
                fh.write(text)
    return len(all_cases)


# a float literal as repr, json and csv write it: a fraction or an exponent,
# not part of a name or of a longer number
FLOAT = re.compile(r"(?<![\w.])-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)(?![\w.])")


def _read(path: str):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def compare(dir_a: str, dir_b: str) -> int:
    """Print each case that differs between two snapshot directories; 1 if
    any differs outside its float literals, else 0."""
    outside = 0
    for name in sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b))):
        a, b = _read(os.path.join(dir_a, name)), _read(os.path.join(dir_b, name))
        if a == b:
            continue
        case = name.removesuffix(".txt")
        if a is None or b is None:
            print(f"{case}: only in {dir_b if a is None else dir_a}")
            outside += 1
        elif FLOAT.sub("<float>", a) != FLOAT.sub("<float>", b):
            print(f"{case}: differs outside float literals")
            outside += 1
        else:
            pairs = [(float(x), float(y)) for x, y in zip(FLOAT.findall(a), FLOAT.findall(b))]
            absolute = max(abs(x - y) for x, y in pairs)
            moved = [(x, y) for x, y in pairs if x != y]
            relative = max((abs(x - y) / max(abs(x), abs(y)) for x, y in moved), default=0.0)
            print(f"{case}: floats only, largest change {absolute:.3g} absolute, "
                  f"{relative:.3g} relative")
    return 1 if outside else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit("usage: cli_snapshot.py OUT_DIR | cli_snapshot.py compare DIR_A DIR_B")
    print(f"{snapshot(sys.argv[1])} cases written to {sys.argv[1]}")
