"""Bookkeeping for the end-to-end metrics: per-check latency percentiles,
failures against attempts, and accuracy in decimal digits."""

from __future__ import annotations

import math

# p90 is reported because it is the highest percentile that keeps at least
# TAIL_SAMPLES samples beyond it once a run holds MIN_SAMPLES checks
TAIL_SAMPLES = 10
MIN_SAMPLES = 100
TAIL_Q = 1 - TAIL_SAMPLES / MIN_SAMPLES

# smallest error reported; keeps -log10 finite when every error is exactly 0
ERROR_FLOOR = 1e-17


def rank(n: int, q: float) -> int:
    """0-based nearest-rank index of the q-quantile of n sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(0, math.ceil(q * n - 1e-9) - 1)


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - 1 - rank(n, q)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), q)]


class Tally:
    """Outcomes of the checks of one run.

    Every attempted check is counted; a failed check is counted, never
    raised and never dropped.  Errors are kept only for checks in the run's
    fixed accuracy window, so accuracy does not depend on how many checks
    fit in the measured seconds.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.errors: list[float] = []

    def add(self, latency_s: float, ok: bool, error: float | None,
            in_window: bool = True) -> None:
        self.attempted += 1
        self.latencies.append(latency_s)
        if not ok:
            self.failed += 1
        if in_window and error is not None:
            self.errors.append(error)

    def fail_late(self, n: int = 1) -> None:
        """Turn n already counted checks into failures (a deferred check failed)."""
        self.failed += n

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def digits(self, q: float) -> float:
        """-log10 of the q-quantile error in the window (q = 1: the largest)."""
        if not self.errors:
            return 0.0
        return -math.log10(max(percentile(self.errors, q), ERROR_FLOOR))
