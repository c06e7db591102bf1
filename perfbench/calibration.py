"""A fixed unit of work that tracks the host's CPU speed.

On a shared host the CPU speed drifts by up to 2x over seconds to minutes:
the same op takes 18 ms or 35 ms, with CPU time equal to wall time. The
benchmark times this unit right after every op (and after every set-up)
and scales the measured times by ``REFERENCE_NS`` over the unit's time, so
that they read as on a host on which the unit takes ``REFERENCE_NS``. The
unit mixes interpreter work with NumPy calls on small arrays, the two
kinds of work the chain does, and never calls the program, so a change to
the program moves the scaled times and a change of host speed mostly does
not.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

REFERENCE_NS = 3_000_000
_A = np.random.default_rng(0).standard_normal((46, 384)).astype(np.float32)


def unit_ns() -> int:
    """Wall time of one unit of fixed work, in ns."""
    start = perf_counter_ns()
    x = _A
    for _ in range(30):
        x = np.sign(x) * np.maximum(np.abs(x).min(axis=0) - 0.5, 0) + _A
    acc, table = 0, {}
    for i in range(6000):
        acc += i * i % 7
        table[i & 63] = acc
    return perf_counter_ns() - start


def scale() -> float:
    """Factor that brings times measured just before this call to reference speed."""
    return REFERENCE_NS / unit_ns()
