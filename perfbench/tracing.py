"""Spans recorded from outside the library, for the traced run only.

:class:`Tracer` replaces each public function of the measured oomlab modules,
on every loaded oomlab module that looks the name up, with a wrapper that
records a span (name, start, end, parent, work count). ``numpy.linalg.svd`` is
wrapped the same way. Spans live in memory until the run writes them out.
The untraced run never installs the wrappers, so it pays nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy as np

#: The library modules timed layer by layer. ``words``, ``processes`` and
#: ``errors`` are left out: enumeration runs inside ``dimension`` and
#: ``causal`` calls, and ``processes`` only builds inputs during set-up.
LAYERS = ("oom", "dimension", "causal", "algebra", "ncoom", "experiments", "model_io", "cli")

SVD = "numpy.linalg.svd"
#: ``numpy.linalg.svd`` time counts as its own layer only under these modules;
#: elsewhere (``causal_span_rank``) it stays in the caller's self time.
SVD_OWNERS = ("dimension", "ncoom")


def _k(model) -> int:
    return len(model.alphabet)


def _words_up_to(k: int, depth: int) -> int:
    return sum(k**i for i in range(depth + 1))


# Work counted at a call boundary, from the call's bound arguments.
COUNTERS = {
    "oom.validate_oom": lambda a: _words_up_to(_k(a["m"]), a["l_val"]),
    "oom.sample_trajectory": lambda a: a["length"],
    "dimension.build_hankel": lambda a: _words_up_to(_k(a["p"]), a["l_past"])
    * _words_up_to(_k(a["p"]), a["l_future"]),
    "causal.enumerate_causal_states": lambda a: _k(a["p"]) ** a["past_length"],
    "ncoom.nc_evaluate": lambda a: 1,
}


class Tracer:
    """Span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        # Each span is [name, start, end, parent index, work count].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one job."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if counter:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[idx][4] = counter(bound.arguments)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every public function of :data:`LAYERS` wherever it is bound."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"oomlab.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        holders = [m for n, m in list(sys.modules.items()) if n == "oomlab" or n.startswith("oomlab.")]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in targets:
                    name, fn = targets[id(obj)]
                    self._patch(holder, attr, self._wrap(name, fn))
        self._patch(np.linalg, "svd", self._wrap(SVD, np.linalg.svd))

    def _patch(self, holder, attr, value) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        out = [s[2] - s[1] for s in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent < 0:
                continue
            if name == SVD and self.spans[parent][0].split(".")[0] not in SVD_OWNERS:
                continue
            out[parent] -= end - start
        return out

    def job_root(self, idx: int) -> int:
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        return idx


def layer_metrics(tracer: Tracer, passes: int, startup_s: float) -> dict:
    """Per-layer metrics: self seconds per pass, or work per inclusive second."""
    selfs = tracer.self_times()
    self_by_name: dict[str, float] = {}
    incl_by_name: dict[str, float] = {}
    work_by_name: dict[str, int] = {}
    svd_owned = 0.0
    for (name, start, end, parent, work), own in zip(tracer.spans, selfs):
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        incl_by_name[name] = incl_by_name.get(name, 0.0) + (end - start)
        work_by_name[name] = work_by_name.get(name, 0) + work
        if name == SVD and parent >= 0 and tracer.spans[parent][0].split(".")[0] in SVD_OWNERS:
            svd_owned += end - start

    def per_pass(*names):
        return sum(self_by_name.get(n, 0.0) for n in names) / passes

    def rate(name):
        t = incl_by_name.get(name, 0.0)
        return work_by_name.get(name, 0) / t if t > 0 else 0.0

    s, r = "s", "1/s"
    metrics = {
        "oom.validate_oom_s": (per_pass("oom.validate_oom"), s),
        "oom.scan_words_per_s": (rate("oom.validate_oom"), r),
        "oom.sample_steps_per_s": (rate("oom.sample_trajectory"), r),
        "oom.stationarity_check_s": (per_pass("oom.stationarity_check"), s),
        "dimension.build_hankel_s": (per_pass("dimension.build_hankel"), s),
        "dimension.hankel_entries_per_s": (rate("dimension.build_hankel"), r),
        "dimension.svd_s": (svd_owned / passes, s),
        "dimension.process_dimension_s": (per_pass("dimension.process_dimension"), s),
        "dimension.minimize_oom_s": (per_pass("dimension.minimize_oom"), s),
        "dimension.equivalent_s": (per_pass("dimension.equivalent"), s),
        "causal.enumerate_causal_states_s": (per_pass("causal.enumerate_causal_states"), s),
        "causal.pasts_per_s": (rate("causal.enumerate_causal_states"), r),
        "causal.empirical_causal_states_s": (per_pass("causal.empirical_causal_states"), s),
        "causal.causal_span_rank_s": (per_pass("causal.causal_span_rank"), s),
        "causal.predictive_distribution_s": (per_pass("causal.predictive_distribution"), s),
        "ncoom.nc_process_dimension_s": (per_pass("ncoom.nc_process_dimension"), s),
        "ncoom.validate_ncoom_s": (per_pass("ncoom.validate_ncoom"), s),
        "ncoom.nc_evaluate_per_s": (rate("ncoom.nc_evaluate"), r),
        "algebra.random_element_s": (per_pass("algebra.random_element"), s),
        "experiments.harness_s": (
            per_pass(
                "experiments.run_additivity",
                "experiments.run_semicontinuity",
                "experiments.run_upperbound",
            ),
            s,
        ),
        "model_io.parse_model_file_s": (per_pass("model_io.parse_model_file"), s),
        "model_io.save_model_s": (per_pass("model_io.save_model"), s),
        "model_io.dumps_canonical_s": (per_pass("model_io.dumps_canonical"), s),
        "cli.startup_s": (startup_s, s),
        "cli.dispatch_s": (per_pass("cli.dispatch"), s),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def layer_shares(tracer: Tracer) -> dict:
    """Share of self time per layer and per function, by the enclosing job's scale.

    Job spans are named ``job:<scale>:<name>``; their own self time (glue in
    the benchmark, or waiting on a CLI child) is reported as ``bench``. SVD
    time counts towards the layer that called it.
    """
    selfs = tracer.self_times()
    totals: dict[str, dict[str, dict[str, float]]] = {}
    for idx, (name, _start, _end, parent, _work) in enumerate(tracer.spans):
        root = tracer.spans[tracer.job_root(idx)][0]
        if not root.startswith("job:"):
            continue
        if name == SVD:
            caller = tracer.spans[parent][0]
            if caller.split(".")[0] not in SVD_OWNERS:
                continue  # already inside the caller's self time
            name = caller
        layer = "bench" if name.startswith("job:") else name.split(".")[0]
        fn = "bench" if name.startswith("job:") else name
        scale = totals.setdefault(root.split(":")[1], {"layer": {}, "function": {}})
        scale["layer"][layer] = scale["layer"].get(layer, 0.0) + selfs[idx]
        scale["function"][fn] = scale["function"].get(fn, 0.0) + selfs[idx]
    out = {}
    for scale, groups in totals.items():
        out[scale] = {}
        for group, bucket in groups.items():
            total = sum(bucket.values()) or 1.0
            ranked = sorted(bucket.items(), key=lambda kv: -kv[1])
            out[scale][group] = {k: round(v / total, 4) for k, v in ranked if v / total >= 0.001}
    return out
