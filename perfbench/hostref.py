"""A fixed reference computation that times the host, not the program.

The benchmark runs on shared virtual machines whose speed drifts by a
fifth or more over tens of seconds, in CPU time as much as in wall time.
``run.py`` runs this computation between operations and rescales each
operation's time by ``NOMINAL_S`` over the reference time measured
around it, so the reported seconds are seconds on a host running at a
fixed speed.  The computation uses numpy and plain Python the way the
program does (small ``(2,)*k`` tables multiplied by broadcasting and
reduced by sum and max, tuple keys in dicts) but no maxerr code, so no
change to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of ``run()`` on an idle 2-vCPU Intel Xeon VM (Python 3,
# numpy 2); corrected times are in seconds of that host.
NOMINAL_S = 0.25
ROUNDS = 30_000

_TABLES = [np.random.default_rng(0).random((2,) * k) for k in range(1, 9)]


def run() -> float:
    """The reference computation; returns a checksum so it cannot be
    skipped."""
    tabs = _TABLES
    acc = 0.0
    seen: dict[tuple, int] = {}
    for i in range(ROUNDS):
        a = tabs[i % 8]
        b = tabs[(i * 3) % 8]
        k = min(a.ndim, b.ndim)
        if a.ndim > k:
            a = a.reshape(a.shape[:k] + (-1,)).sum(axis=-1)
        if b.ndim > k:
            b = b.reshape(b.shape[:k] + (-1,)).max(axis=-1)
        acc += float((a * b).sum())
        key = tuple(sorted((i % 17, i % 13, i % 7)))
        seen[key] = seen.get(key, 0) + 1
    return acc + len(seen)


def timed() -> float:
    """Wall seconds of one ``run()``."""
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def factors(refs: list[float]) -> list[float]:
    """For ops timed between consecutive reference runs ``refs``, the
    factor that turns each op's wall time into nominal-host seconds:
    ``NOMINAL_S`` over the mean of the two reference times around it."""
    return [NOMINAL_S / (0.5 * (a + b)) for a, b in zip(refs, refs[1:])]
