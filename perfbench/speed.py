"""Machine-speed calibration for the timed figures.

The benchmark runs on shared machines whose speed drifts by up to a factor
of two for minutes at a time, without steal time showing.  Every measured
interval is therefore scaled by CALIB_REF_S over the time of a fixed kernel
measured next to it, which turns it into seconds at a reference speed.  The
kernel is benchmark code, not the program, so no change to the program
moves it.  NOTES.md records how well the two track each other.
"""

from __future__ import annotations

import time

import numpy as np

# time of one kernel run on the reference machine (2-vCPU Xeon virtual machine)
# when it ran fastest; a constant, so the scaled figures of two commits
# measured on one machine compare directly
CALIB_REF_S = 0.028


def calibrate() -> float:
    """Seconds for one run of the fixed kernel: Python tuple and dict churn
    like the F2 layers, then small numpy reductions like the theta sums."""
    start = time.perf_counter()
    counts: dict = {}
    acc = 0.0
    for i in range(20000):
        key = (i & 7, (i >> 3) & 7, i ^ 5)
        counts[key] = counts.get(key, 0) + 1
        acc += sum(a & b for a, b in zip(key, key[1:]))
    pts = np.arange(2197 * 3, dtype=float).reshape(-1, 3) * 1e-3
    m = np.eye(3) * (1 + 0.1j)
    for _ in range(40):
        q = np.einsum("ij,jk,ik->i", pts, m, pts)
        acc += float(np.exp(1j * np.pi * q).sum().real)
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite sum")
    return elapsed


def scale(before: float, after: float) -> float:
    """Factor that turns an interval measured between two kernel runs into
    seconds at the reference speed."""
    return CALIB_REF_S / ((before + after) / 2)
