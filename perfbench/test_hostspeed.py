"""Tests of the host-speed correction and of the timed child runner.

Run with ``python3 -m pytest perfbench``.
"""

import subprocess
import sys
import time

import pytest

import child
import hostspeed


def test_factor_is_reference_over_median():
    host = hostspeed.HostSpeed(["numpy"])
    host.times["numpy"] = [0.004, 0.002, 0.008]
    assert host.factor("numpy") == pytest.approx(hostspeed.REFERENCE_S["numpy"] / 0.004)
    assert host.medians() == {"numpy": 0.004}


def test_only_the_given_kinds_are_sampled_and_intervals_are_kept():
    host = hostspeed.HostSpeed(["lapack", "numpy", "numpy"])
    assert sorted(host.times) == ["lapack", "numpy"]
    host.maybe_sample()
    host.maybe_sample()  # within the 0.25 s interval: no second sample
    assert {k: len(v) for k, v in host.times.items()} == {"lapack": 1, "numpy": 1}
    assert all(t > 0 for v in host.times.values() for t in v)


def test_child_run_returns_output_and_exit_code():
    proc = child.run([sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"],
                     stdout=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stdout) == (3, "hi\n")
    with pytest.raises(subprocess.CalledProcessError):
        child.run([sys.executable, "-c", "raise SystemExit(1)"], check=True)


def test_child_run_kills_an_overrunning_child():
    t = time.perf_counter()
    with pytest.raises(subprocess.TimeoutExpired):
        child.run([sys.executable, "-c", "import time; time.sleep(30)"], timeout_s=0.5)
    assert time.perf_counter() - t < 10
