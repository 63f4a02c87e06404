"""Tests of the traced run's span recording and self-time arithmetic.

Run with ``python3 -m pytest perfbench``.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import oomlab as ol  # noqa: E402
import oomlab.dimension  # noqa: E402
import tracing  # noqa: E402


def test_install_wraps_every_binding_and_uninstall_restores_it():
    original = (ol.process_dimension, oomlab.dimension.build_hankel, np.linalg.svd)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ol.process_dimension is not original[0]
        assert oomlab.dimension.build_hankel is not original[1]
        ol.process_dimension(ol.bernoulli(0.3), 2)
    finally:
        tracer.uninstall()
    assert (ol.process_dimension, oomlab.dimension.build_hankel, np.linalg.svd) == original

    names = [s[0] for s in tracer.spans]
    assert names[0] == "dimension.process_dimension"
    assert names.count("dimension.build_hankel") == 3  # levels 0, 1, 2
    by_index = dict(enumerate(tracer.spans))
    for name, _start, _end, parent, _work in tracer.spans:
        if name == "dimension.build_hankel":
            assert by_index[parent][0] == "dimension.process_dimension"
        if name == tracing.SVD:
            assert by_index[parent][0] == "dimension.build_hankel"


def test_self_time_subtracts_children_and_counts_work():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("job:scaled:demo"):
            ol.process_dimension(ol.bernoulli(0.3), 3)
    finally:
        tracer.uninstall()
    selfs = tracer.self_times()
    for (name, start, end, *_), own in zip(tracer.spans, selfs):
        assert -1e-6 <= own <= end - start + 1e-9, name
    root = tracer.spans[0]
    assert abs(sum(selfs) - (root[2] - root[1])) < 1e-9  # self times tile the job

    metrics = tracing.layer_metrics(tracer, passes=1, startup_s=0.0)
    assert set(metrics) >= {"dimension.svd_s", "dimension.hankel_entries_per_s", "cli.dispatch_s"}
    assert metrics["dimension.hankel_entries_per_s"]["value"] > 0
    assert metrics["dimension.hankel_entries_per_s"]["unit"] == "1/s"
    shares = tracing.layer_shares(tracer)["scaled"]["layer"]
    assert "dimension" in shares


def test_svd_outside_dimension_stays_in_its_callers_self_time():
    tracer = tracing.Tracer()
    part = ol.enumerate_causal_states(ol.bernoulli(0.4), 2, 2)
    tracer.install()
    try:
        ol.causal_span_rank(part)
    finally:
        tracer.uninstall()
    rank = tracer.spans[0]
    assert rank[0] == "causal.causal_span_rank"
    children = [s for s in tracer.spans if s[3] == 0]
    assert tracing.SVD in [c[0] for c in children]
    others = sum(c[2] - c[1] for c in children if c[0] != tracing.SVD)
    assert abs(tracer.self_times()[0] - (rank[2] - rank[1] - others)) < 1e-12
    assert tracing.layer_metrics(tracer, 1, 0.0)["dimension.svd_s"]["value"] == 0.0
