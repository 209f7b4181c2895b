"""y_min sweep: cost and verification outcome of the double-precision engine
as the smallest eigenvalue of Im tau shrinks.

    python3 perfbench/ymin_sweep.py

For each level and each of two matrix rules, draws 6 matrices, builds
the bitangent frame (which validates tau), then runs jacobi and weber checks
at DEFAULT_TOLERANCE.  Prints one row per level and rule: radius, lattice
points, median frame and check times, failures over attempts and the worst
error among the checks that passed.  This is a record, not a gate: it shows
where the engine stops meeting its tolerance, which is why the small_ymin
workload stops at 0.20.

Rules:
  uniform  scale all of Im tau so its smallest eigenvalue equals the level
  single   move only the smallest eigenvalue to the level (small_ymin's rule)
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import workloads as W

LEVELS = (0.68, 0.45, 0.30, 0.20, 0.12, 0.07, 0.03)
MATRICES = 6
JACOBI_PER_MATRIX = 4
WEBER_PER_MATRIX = 8
SEED = 0


def uniform_tau(rng, level: float) -> np.ndarray:
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = 1j * np.eye(3) + 0.1 * (s + s.T) / 2
    m = (m + m.T) / 2
    y = m.imag * (level / np.linalg.eigvalsh(m.imag).min())
    return m.real + 1j * y


RULES = {"uniform": uniform_tau, "single": W.scaled_tau}


def sweep_level(rule, level: float, matrices: int, seed: int) -> dict:
    tc, verify = W.tc, W.verify
    theta_mod = importlib.import_module("thetachar.theta")
    evens = tc.even_forms(3)
    rng = np.random.default_rng(seed)
    frame_s, check_s = [], []
    attempted = failed = rejected = 0
    worst = 0.0
    for _ in range(matrices):
        tau = tc.RiemannMatrix(rule(rng, level))
        start = time.perf_counter()
        try:
            frame = tc.bitangent_frame(tau)
        except verify.TauRejectedError:
            rejected += 1
            attempted += JACOBI_PER_MATRIX + WEBER_PER_MATRIX
            failed += JACOBI_PER_MATRIX + WEBER_PER_MATRIX
            continue
        frame_s.append(time.perf_counter() - start)
        for k in range(JACOBI_PER_MATRIX + WEBER_PER_MATRIX):
            attempted += 1
            start = time.perf_counter()
            try:
                if k < JACOBI_PER_MATRIX:
                    err = tc.jacobi_check(tc.random_fundamental_system(rng), tau).residual
                else:
                    qs, qt = W._distinct_pair(rng, evens)
                    err = tc.weber_verify(qs, qt, tau, frame=frame).relative_error
                worst = max(worst, err)
            except verify.VerificationError:
                failed += 1
            check_s.append(time.perf_counter() - start)
    radius = theta_mod.auto_radius(level, 3, 1e-16)
    return {
        "radius": radius,
        "points": (2 * radius + 1) ** 3,
        "frame_ms": 1e3 * statistics.median(frame_s) if frame_s else float("nan"),
        "check_ms": 1e3 * statistics.median(check_s) if check_s else float("nan"),
        "failed": failed,
        "attempted": attempted,
        "rejected": rejected,
        "worst": worst,
    }


def main() -> int:
    W.tc.enumerate_aronhold_sets()
    print("| rule | y_min | R | points | frame ms | check ms | failed/attempted "
          "| rejected | worst passing error |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for name, rule in RULES.items():
        for level in LEVELS:
            r = sweep_level(rule, level, MATRICES, SEED)
            print(f"| {name} | {level:.2f} | {r['radius']} | {r['points']} | "
                  f"{r['frame_ms']:.0f} | {r['check_ms']:.1f} | "
                  f"{r['failed']}/{r['attempted']} | {r['rejected']} | {r['worst']:.1e} |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
