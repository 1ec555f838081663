"""Calibration loops: fixed workloads that never touch qconvenc, run between
ops to measure how fast the machine is at that moment.

On a shared machine the speed at which the CPU runs code drifts by tens of
percent over minutes.  Dividing an op's time by the median time of a
calibration loop run alongside it removes most of that drift, provided the
loop stresses the machine the way the op does: `python_loop` for ops that
spend their time in the interpreter, `NumpyLoop` for the GR trellis decode,
which streams megabyte-sized index arrays through numpy.  Neither loop
tracks the other kind of op: on `gr-trellis`, ten runs spread 10% raw,
21% divided by `python_loop` and 5% divided by `NumpyLoop`.
"""

from __future__ import annotations

import time

import numpy as np


class _Cell:
    __slots__ = ("x", "z")

    def __init__(self, x: int, z: int) -> None:
        self.x = x
        self.z = z


def python_loop() -> float:
    """Seconds for integer arithmetic, small objects, a dict and a sort."""
    t0 = time.perf_counter()
    table = {}
    x = 1
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        cell = _Cell(x & 0xFFFF, x >> 16)
        table[cell.x & 0x3FF] = (cell, bin(cell.z).count("1"))
    sorted(table.values(), key=lambda v: v[1])
    return time.perf_counter() - t0


class NumpyLoop:
    """Seconds for four min-plus steps shaped like the GR Viterbi backward
    pass: 262,144 branches per step over 4,096 states.  The random index
    and weight arrays (24 MB) are made once, in the constructor."""

    STATES = 4096
    BRANCHES = 262144

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.steps = [
            tuple(rng.integers(0, hi, self.BRANCHES) for hi in (self.STATES, self.STATES, 4))
            for _ in range(4)
        ]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        beta = np.zeros(self.STATES, dtype=np.int64)
        for src, dst, wt in self.steps:
            cur = np.full(self.STATES, 1 << 40, dtype=np.int64)
            np.minimum.at(cur, src, wt + beta[dst])
            beta = cur
        return time.perf_counter() - t0
