"""Timed child processes, waited for without polling.

``subprocess.run(..., timeout=...)`` waits for a child by polling, with sleeps
that grow to 50 ms, so a child's measured time is rounded up by as much as
that. :func:`run` blocks in ``waitpid`` instead, and a timer kills a child
that overruns.
"""

from __future__ import annotations

import subprocess
import threading


def run(argv, timeout_s: float = 120.0, check: bool = False, **popen_kwargs):
    """Run ``argv`` to its end and return a ``CompletedProcess``.

    Raises ``TimeoutExpired`` if the child had to be killed after
    ``timeout_s`` seconds, and ``CalledProcessError`` on a non-zero exit if
    ``check`` is set.
    """
    killed = []
    with subprocess.Popen(argv, **popen_kwargs) as proc:

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    if killed:
        raise subprocess.TimeoutExpired(argv, timeout_s, out, err)
    if check and proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv, out, err)
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)
