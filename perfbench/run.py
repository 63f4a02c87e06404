"""Seeded benchmark for oomlab: one workload per process, whole passes, checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

A run builds the workload's seeded inputs, then repeats a fixed *pass* (the
workload's job list in a fixed order, then more rounds of its fixture jobs)
until another pass would not finish within ``--seconds``. Each job's output
is checked after its timing stops.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (``setup_s``, ``fixture_s``, ``scaled_s``,
``peak_rss_mb``); the times are corrected to a reference host speed, see
``hostspeed.py``. With ``--trace 1`` it holds the per-layer metrics, taken
from spans recorded around every public library function on alternate passes.
Both also give ``correct``, ``attempted`` and ``failed``. A fuller record goes
to ``perfbench/out/``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import child

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: One BLAS thread, in this process and every child it starts. The load
#: model is one client on one core; on a few shared vCPUs a second BLAS
#: thread competes with other tenants, and its waits are the host's, not
#: the library's.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Set-up is timed in this many fresh child processes, each starting Python,
#: importing numpy and oomlab and building the workload's inputs and files;
#: ``setup_s`` is their median, so one slow import does not decide it.
SETUP_REPEATS = 5
#: ``oomlab --help`` children timed for ``cli.startup_s``.
STARTUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["ladder", "causal", "files"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def run_pass(jobs, rounds: int, tracer=None, host=None) -> dict:
    """Run every job once, in order, then the fixture jobs ``rounds - 1``
    more times; time calls, then check outputs. Given a ``host``, time its
    kernels between jobs now and then, outside job times."""
    fixture = [j for j in jobs if j.scale == "fixture"]
    order = [(0, j) for j in jobs] + [(r, j) for r in range(1, rounds) for j in fixture]
    scaled, fixture_rounds = {}, [{} for _ in range(rounds)]  # kind -> summed seconds
    job_s = {j.name: [] for j in jobs}
    kept, unexpected = [], []
    start = time.perf_counter()
    for r, job in order:
        gc.collect()  # untimed: every job starts from a collected heap
        span = tracer.span(f"job:{job.scale}:{job.name}") if tracer else contextlib.nullcontext()
        t = time.perf_counter()
        with span:
            try:
                out, error = job.call(), None
            except Exception as e:  # the program failed this job: count it, go on
                out, error = None, e
        seconds = time.perf_counter() - t
        job_s[job.name].append(seconds)
        sums = scaled if job.scale == "scaled" else fixture_rounds[r]
        sums[job.kind] = sums.get(job.kind, 0.0) + seconds
        if error is None:
            try:
                job.check(out)
            except Exception as e:  # wrong or malformed output
                error = e
        if error is not None:
            (kept if job.kept_fault else unexpected).append(f"{job.name}: {error!r}"[:300])
        if host is not None:
            host.maybe_sample()
    return {"scaled": scaled, "fixture_rounds": fixture_rounds, "attempted": len(order),
            "job_s": job_s, "kept": kept, "unexpected": unexpected,
            "wall": time.perf_counter() - start}


def corrected(by_kind: dict, host) -> float:
    """Summed job time at the reference host speed."""
    return sum(t * host.factor(kind) for kind, t in by_kind.items())


def replay_cli(jobs, tracer) -> None:
    """Run the CLI jobs' argument lists in-process, for ``cli.dispatch_s``."""
    import oomlab.cli

    for job in jobs:
        if job.argv:
            with tracer.span("cli:in-process"), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                oomlab.cli.main(job.argv)


def setup_times(workload: str, seed: int, work: str, host) -> list:
    """Set-up children, each followed by a sample of ``host``'s spawn kernel."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
        "workloads.BUILDERS[sys.argv[3]](int(sys.argv[4]), sys.argv[5])"
    )
    times = []
    for i in range(SETUP_REPEATS):
        target = f"{work}-setup{i}"
        t = time.perf_counter()
        child.run([sys.executable, "-c", code, SRC, HERE, workload, str(seed), target],
                  cwd=ROOT, check=True)
        times.append(time.perf_counter() - t)
        shutil.rmtree(target, ignore_errors=True)
        host.sample("spawn")
    return times


def cli_startup() -> float:
    import workloads

    env = workloads.cli_env()
    times = []
    for _ in range(STARTUP_REPEATS):
        t = time.perf_counter()
        child.run([*workloads.CLI, "--help"], timeout_s=60, check=True, cwd=ROOT, env=env,
                  stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def measure(jobs, rounds: int, seconds: float, host, tracer=None) -> list:
    """Passes until the next one would overrun. Given a tracer, every other
    pass runs under it and the rest without it; the host kernels are timed
    on untraced passes only."""
    traced = tracer is not None
    deadline = time.perf_counter() + seconds
    records = []
    host.maybe_sample()
    while True:
        on = traced and len(records) % 2 == 1
        if on:
            tracer.install()
        try:
            rec = run_pass(jobs, rounds, tracer, None) if on else run_pass(jobs, rounds, None, host)
            if on and any(j.argv for j in jobs):
                replay_cli(jobs, tracer)
        finally:
            if on:
                tracer.uninstall()
        rec["traced"] = on
        records.append(rec)
        next_pass = statistics.median(r["wall"] for r in records)
        if time.perf_counter() + next_pass > deadline and (not traced or len(records) >= 2):
            return records


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oomlab", "__init__.py")):
        print(f"error: no oomlab sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.update(BLAS_THREADS)  # before numpy is imported
    sys.path.insert(0, SRC)
    import numpy as np

    import hostspeed
    import oomlab
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        setup_host = hostspeed.HostSpeed(["spawn"])
        setups = setup_times(args.workload, args.seed, work, setup_host)
        jobs = workloads.BUILDERS[args.workload](args.seed, work)
        startup_s = cli_startup() if args.trace and any(j.argv for j in jobs) else 0.0
        tracer = tracing.Tracer() if args.trace else None
        host = hostspeed.HostSpeed(j.kind for j in jobs)
        rounds = workloads.FIXTURE_ROUNDS[args.workload]
        records = measure(jobs, rounds, args.seconds, host, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kept = sorted({f for r in records for f in r["kept"]})
    unexpected = sorted({f for r in records for f in r["unexpected"]})
    failed = sum(len(r["kept"]) + len(r["unexpected"]) for r in records)
    plain = [r for r in records if not r["traced"]]
    raw_fixture = [[sum(f.values()) for f in r["fixture_rounds"]] for r in records]
    raw_scaled = [sum(r["scaled"].values()) for r in records]
    result = {
        "correct": not unexpected,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(records),
        "jobs": {s: [j.name for j in jobs if j.scale == s] for s in ("fixture", "scaled")},
        "setup_s": setups,
        "fixture_rounds": rounds,
        "pass_fixture_s": raw_fixture,
        "pass_scaled_s": raw_scaled,
        "traced_pass": [r["traced"] for r in records],
        "job_kind": {j.name: j.kind for j in jobs},
        "host_kernel_median_s": host.medians(),
        "host_factor": {k: host.factor(k) for k in host.times},
        "setup_kernel_median_s": setup_host.medians(),
        "job_s": {j.name: [r["job_s"][j.name] for r in records] for j in jobs},
        "kept_fault_failures": kept,
        "unexpected_failures": unexpected,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "oomlab": oomlab.__version__,
            "nproc": os.cpu_count(),
        },
    }
    if args.trace:
        traced = [r for r in records if r["traced"]]
        result["metrics"] = tracing.layer_metrics(tracer, len(traced), startup_s)
        busy = [statistics.median(sum(raw_fixture[i]) + raw_scaled[i]
                                  for i, r in enumerate(records) if r["traced"] == on)
                for on in (True, False)]
        detail["tracing_overhead"] = busy[0] / busy[1] - 1.0
        detail["self_time_shares"] = tracing.layer_shares(tracer)
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"], "spans": tracer.spans}, fh)
    else:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups) * setup_host.factor("spawn"), "unit": "s"},
            "fixture_s": {"value": statistics.median(corrected(f, host) for r in plain
                                                     for f in r["fixture_rounds"]),
                          "unit": "s"},
            "scaled_s": {"value": statistics.median(corrected(r["scaled"], host) for r in plain),
                         "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    detail.update(result)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for line in kept + unexpected:
        print(f"failed: {line}", file=sys.stderr)
    if args.trace:
        print(f"tracing overhead: {detail['tracing_overhead']:+.1%}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
