"""The three benchmark workloads.

Each workload replays the call sequence of ``thetachar weber`` or
``thetachar jacobi`` through the public API, one caller in one thread.  A
run is a sequence of units generated from the seed alone: a weber batch, a
jacobi batch, or (small_ymin) one fresh matrix per level with its
preparation and its batches.  Batches draw their pairs and systems exactly
as the CLI does, so the first batch of each kind can be compared byte for
byte with the report of an in-process ``thetachar.cli.main`` call.

Library functions are looked up on their modules at call time, so the
bindings the tracer wraps are the ones called.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import thetachar as tc

import speed
from stats import MIN_SAMPLES, Tally

cli = importlib.import_module("thetachar.cli")
fmt = importlib.import_module("thetachar.formats")
verify = importlib.import_module("thetachar.verify")

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = {
    "s1": ROOT / "src" / "thetachar" / "data" / "tau_sample_1.json",
    "s2": ROOT / "src" / "thetachar" / "data" / "tau_sample_2.json",
}
TOL = verify.DEFAULT_TOLERANCE
FAILURES = (verify.VerificationError, verify.TauRejectedError)

# small_ymin levels: the smallest eigenvalue of Im tau.  auto_radius gives
# R = 7, 8, 10, i.e. 3375, 4913 and 9261 lattice points per series.  Below
# about 0.15 the double-precision engine misses the 1e-6 tolerance on some
# checks (see NOTES.md), and a workload must not fail at the parent commit.
LEVELS = (0.45, 0.30, 0.20)
LEVEL_LABELS = tuple(f"y{level:.2f}" for level in LEVELS)

WEBER_PAIRS = 24          # extra pairs per weber_pairs batch (25 checks)
JACOBI_RANDOM = 7         # extra systems per jacobi_families batch (8 checks)
SMALL_JACOBI_RANDOM = 5   # per small_ymin matrix: 6 jacobi checks
SMALL_WEBER_PAIRS = 2     # per small_ymin matrix: 3 weber checks
# the CLI draws --pairs distinct ordered pairs out of 1260 and never stops
# when asked for 1260 or more, so batches stay far below that
MAX_CLI_PAIRS = 1259


@dataclass(frozen=True)
class Prep:
    """Validate a fresh matrix and build its bitangent frame (small_ymin).
    The level label is also the key of the matrix in the run's context."""

    label: str
    entries: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class WeberBatch:
    """``thetachar weber --qs QS --qt QT --pairs N --seed S`` on one matrix."""

    key: str
    qs: object
    qt: object
    seed: int
    pairs: int
    label: str = ""


@dataclass(frozen=True)
class JacobiBatch:
    """``thetachar jacobi --random N --seed S`` on one matrix; with_iota adds
    the family product and its exact sign to every check."""

    key: str
    seed: int
    random: int
    with_iota: bool
    label: str = ""


@dataclass
class Context:
    """State built by set-up and carried through one run."""

    taus: dict = field(default_factory=dict)
    frames: dict = field(default_factory=dict)
    rejected: set = field(default_factory=set)  # keys of matrices validation rejected
    mirror: dict = field(default_factory=dict)  # kind -> (batch, report, tau)
    deferred: list = field(default_factory=list)  # (system, sign) to cross-check


# ---------------------------------------------------------------------------
# Seeded inputs.


def scaled_tau(rng, level: float) -> np.ndarray:
    """The small_ymin matrix rule.

    Draw i*I + 0.1*S with S complex symmetric and standard normal, as
    ``verify.random_tau`` does.  Keep Re tau.  Move the smallest eigenvalue
    of Im tau to exactly `level` along its own eigenvector, keeping the other
    two eigenvalues.
    """
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = (s + s.T) / 2
    m = 1j * np.eye(3) + 0.1 * s
    m = (m + m.T) / 2
    w, v = np.linalg.eigh(m.imag)
    y = m.imag + (level - w[0]) * np.outer(v[:, 0], v[:, 0])
    return m.real + 1j * y


def draw_pairs(batch: WeberBatch) -> list:
    """The ordered even pairs ``cmd_weber`` checks for the same arguments."""
    if batch.pairs > MAX_CLI_PAIRS:
        raise ValueError(f"at most {MAX_CLI_PAIRS} extra pairs exist")
    pairs = [(batch.qs, batch.qt)]
    rng = np.random.default_rng(batch.seed)
    evens = tc.even_forms(3)
    while len(pairs) < 1 + batch.pairs:
        i, j = rng.integers(0, len(evens), 2)
        if i != j and (evens[i], evens[j]) not in pairs:
            pairs.append((evens[i], evens[j]))
    return pairs


def _distinct_pair(rng, evens):
    while True:
        i, j = rng.integers(0, len(evens), 2)
        if i != j:
            return evens[i], evens[j]


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def weber_units(seed: int) -> Iterator[list]:
    rng = np.random.default_rng(seed)
    evens = tc.even_forms(3)
    for i in itertools.count():
        qs, qt = _distinct_pair(rng, evens)
        yield [WeberBatch(("s1", "s2")[i % 2], qs, qt, _seed(rng), WEBER_PAIRS)]


def jacobi_units(seed: int) -> Iterator[list]:
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        yield [JacobiBatch(("s1", "s2")[i % 2], _seed(rng), JACOBI_RANDOM, True)]


def small_units(seed: int) -> Iterator[list]:
    rng = np.random.default_rng(seed)
    evens = tc.even_forms(3)
    while True:
        unit = []
        for level, label in zip(LEVELS, LEVEL_LABELS):
            unit.append(Prep(label, scaled_tau(rng, level)))
            unit.append(JacobiBatch(label, _seed(rng), SMALL_JACOBI_RANDOM, False, label))
            qs, qt = _distinct_pair(rng, evens)
            unit.append(WeberBatch(label, qs, qt, _seed(rng), SMALL_WEBER_PAIRS, label))
        yield unit


# ---------------------------------------------------------------------------
# Set-up.


def _load_samples(ctx: Context, keys=("s1", "s2")) -> None:
    for key in keys:
        ctx.taus[key] = tc.load_tau(SAMPLES[key])


def setup_weber() -> Context:
    ctx = Context()
    _load_samples(ctx)
    tc.enumerate_aronhold_sets()
    for key in ("s1", "s2"):
        ctx.frames[key] = tc.bitangent_frame(ctx.taus[key])
    return ctx


def setup_jacobi() -> Context:
    ctx = Context()
    _load_samples(ctx)
    for key in ("s1", "s2"):
        verify.require_valid_tau(ctx.taus[key])
    return ctx


def setup_small() -> Context:
    # sample 1 is the well-conditioned matrix of the sign cross-check; the
    # enumeration is warmed here as in weber_pairs, so no check pays for it
    ctx = Context()
    _load_samples(ctx, ("s1",))
    tc.enumerate_aronhold_sets()
    return ctx


# ---------------------------------------------------------------------------
# Checks.


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def nearest_sign(value: complex) -> int:
    return 1 if abs(value - 1) <= abs(value + 1) else -1


def weber_check(ctx: Context, key: str, qs, qt, tracer=None):
    """One quartic-quotient check: the identity within tolerance, and the
    exact transported sign equal to the closed-form sign.

    Returns (ok, error, record); error is None when no value was computed.
    """
    if key in ctx.rejected:
        return False, None, {"qS": fmt.format_quadform(qs),
                             "qT": fmt.format_quadform(qt), "error": "matrix rejected"}
    try:
        res = tc.weber_verify(qs, qt, ctx.taus[key], frame=ctx.frames[key])
    except FAILURES as exc:
        return False, None, {"qS": fmt.format_quadform(qs),
                             "qT": fmt.format_quadform(qt), "error": str(exc)}
    exact = tc.sign_transport(tc.family_for_pair(qs, qt).numerators[0])
    with _span(tracer, "formats.report"):
        record = fmt.weber_record(res)
    return exact == res.sign, res.relative_error, record


def jacobi_check(ctx: Context, key: str, system, with_iota: bool, tracer=None):
    """One Riemann-Jacobi check: the quotient within tolerance of +-1.

    With with_iota, the family product of the system must also land within
    tolerance of +-1, with the sign of the exact transport.  Without it, the
    sign is queued for the cross-check at a well-conditioned matrix, since
    the quotient's sign does not depend on tau.
    """
    tau = ctx.taus[key]
    if key in ctx.rejected:
        return False, None, {"system": fmt.format_system(system),
                             "error": "matrix rejected"}
    try:
        res = tc.jacobi_check(system, tau)
    except FAILURES as exc:
        return False, None, {"system": fmt.format_system(system), "error": str(exc)}
    with _span(tracer, "formats.report"):
        record = {
            "system": fmt.format_system(system),
            "s_re": res.s_value.real,
            "s_im": res.s_value.imag,
            "sign": res.sign,
            "residual": res.residual,
        }
    if not with_iota:
        ctx.deferred.append((system, res.sign))
        return True, res.residual, record
    value = tc.iota_value(tc.family_from_fundamental(system), tau)
    sign = nearest_sign(value)
    residual = abs(value - sign)
    ok = residual <= TOL and sign == tc.sign_transport(system)
    return ok, max(res.residual, residual), record


# ---------------------------------------------------------------------------
# Running units.


def _report(ctx: Context, kind: str, batch, records, tracer) -> None:
    with _span(tracer, "formats.report"):
        text = json.dumps(records, indent=2, sort_keys=True)
    if kind not in ctx.mirror:
        ctx.mirror[kind] = (batch, text, ctx.taus[batch.key])


def _timed(tally: Tally, tracer, in_window: bool, check) -> dict:
    if tracer is not None:
        tracer.check_id = tally.attempted
    start = time.perf_counter()
    ok, error, record = check()
    tally.add(time.perf_counter() - start, ok, error, in_window)
    if tracer is not None:
        tracer.check_id = -1
    return record


def prepare(ctx: Context, prep: Prep) -> None:
    tau = tc.RiemannMatrix(prep.entries)
    ctx.taus[prep.label] = tau
    ctx.rejected.discard(prep.label)
    try:
        ctx.frames[prep.label] = tc.bitangent_frame(tau)
    except verify.TauRejectedError:
        ctx.rejected.add(prep.label)  # never redrawn: its checks all fail


def run_unit(ctx: Context, unit: list, tally: Tally, tracer=None,
             in_window: bool = True) -> None:
    for task in unit:
        if tracer is not None:
            tracer.label = task.label
        if isinstance(task, Prep):
            prepare(ctx, task)
        elif isinstance(task, WeberBatch):
            records = [
                _timed(tally, tracer, in_window,
                       lambda qs=qs, qt=qt: weber_check(ctx, task.key, qs, qt, tracer))
                for qs, qt in draw_pairs(task)
            ]
            _report(ctx, "weber", task, records, tracer)
        else:
            rng = np.random.default_rng(task.seed)
            records = []
            for n in range(1 + task.random):
                def check(n=n):
                    system = (tc.reference_fundamental_system() if n == 0
                              else tc.random_fundamental_system(rng))
                    return jacobi_check(ctx, task.key, system, task.with_iota, tracer)
                records.append(_timed(tally, tracer, in_window, check))
            _report(ctx, "jacobi", task, records, tracer)
    if tracer is not None:
        tracer.label = ""


def cross_check_signs(ctx: Context, tally: Tally) -> int:
    """Compare each deferred jacobi sign with the sign of the same system at
    sample 1; count each mismatch as a failure.  Returns the mismatches."""
    reference = {}
    bad = 0
    for system, sign in ctx.deferred:
        if system not in reference:
            reference[system] = tc.jacobi_check(system, ctx.taus["s1"]).sign
        if reference[system] != sign:
            bad += 1
    tally.fail_late(bad)
    ctx.deferred.clear()
    return bad


def cli_equivalence(ctx: Context, outdir: Path) -> list[str]:
    """Run the CLI in-process on the first batch of each kind and compare its
    JSON report with the one the benchmark built.  Returns the mismatches."""
    problems = []
    for kind, (batch, text, tau) in sorted(ctx.mirror.items()):
        if batch.key in SAMPLES:
            tau_path = SAMPLES[batch.key]
        else:
            tau_path = outdir / f"tau-{batch.key}.json"
            fmt.save_tau(tau, tau_path)
        out = outdir / f"cli-{kind}.json"
        argv = [kind, "--tau", str(tau_path), "--seed", str(batch.seed), "--out", str(out)]
        if kind == "weber":
            argv += ["--qs", fmt.format_quadform(batch.qs),
                     "--qt", fmt.format_quadform(batch.qt), "--pairs", str(batch.pairs)]
        else:
            argv += ["--random", str(batch.random)]
        expected_code = 1 if '"error"' in text else 0
        code = cli.main(argv)
        if code != expected_code:
            problems.append(f"{kind}: CLI exit {code}, expected {expected_code}")
        elif out.read_text(encoding="utf-8") != text + "\n":
            problems.append(f"{kind}: CLI report differs from the benchmark's")
    return problems


# ---------------------------------------------------------------------------
# The workloads.


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], Context]
    units: Callable[[int], Iterator[list]]
    checks_per_unit: int
    # units in one measured pass; the pass holds at least MIN_SAMPLES checks
    # for the p90 rule, and enough that seed-to-seed differences in its work
    # stay small.  The first pass is also the accuracy window.
    pass_units: int
    trace_units: int  # fixed work of the traced run, so its counts repeat

    def __post_init__(self):
        if self.pass_units * self.checks_per_unit < MIN_SAMPLES:
            raise ValueError(f"{self.name}: a pass must hold {MIN_SAMPLES} checks")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("weber_pairs", setup_weber, weber_units, 1 + WEBER_PAIRS, 8, 20),
        Workload("jacobi_families", setup_jacobi, jacobi_units, 1 + JACOBI_RANDOM, 13, 16),
        Workload("small_ymin", setup_small, small_units,
                 len(LEVELS) * (2 + SMALL_JACOBI_RANDOM + SMALL_WEBER_PAIRS), 4, 10),
    )
}

MIN_PASSES = 3


@dataclass
class Passes:
    """Outcome of the measured phase of an untraced run.  Times are
    speed-scaled (see speed.py) unless named raw."""

    tally: Tally           # every check of every pass
    unit_s: list           # per unit of the pass: median over passes
    check_s: list          # per check of the pass: median latency over passes
    passes: int
    first_pass_raw_s: float
    measured_raw_s: float  # time spent in units, without calibration or probes

    @property
    def checks_per_s(self) -> float:
        return len(self.check_s) / sum(self.unit_s)


def run_passes(wl: Workload, ctx: Context, seed: int, seconds: float,
               between: Callable[[float], None] | None = None) -> Passes:
    """Replay one pass of seeded units until `seconds` of units have run,
    and at least MIN_PASSES.

    After every unit the calibration kernel runs; the unit's time and its
    checks' latencies are scaled by the kernel times on either side.  Each
    unit and each check then reports its median over the passes.  `between`
    runs after every pass, outside the measured time, and gets the raw
    measured seconds so far.
    """
    units = list(itertools.islice(wl.units(seed), wl.pass_units))
    tally = Tally()
    unit_samples: list = [[] for _ in units]
    check_samples: list = []
    measured = first = 0.0
    passes = 0
    speed.calibrate()  # warm-up, discarded
    before = speed.calibrate()
    while passes < MIN_PASSES or measured < seconds:
        n_pass = len(tally.latencies)
        for i, unit in enumerate(units):
            n0 = len(tally.latencies)
            start = time.perf_counter()
            run_unit(ctx, unit, tally, in_window=passes == 0)
            elapsed = time.perf_counter() - start
            after = speed.calibrate()
            factor = speed.scale(before, after)
            before = after
            measured += elapsed
            unit_samples[i].append(elapsed * factor)
            for j, latency in enumerate(tally.latencies[n0:], start=n0 - n_pass):
                if passes == 0:
                    check_samples.append([])
                check_samples[j].append(latency * factor)
        if passes == 0:
            first = measured
        passes += 1
        if between is not None:
            between(measured)
    return Passes(tally, [statistics.median(v) for v in unit_samples],
                  [statistics.median(v) for v in check_samples], passes, first, measured)


def run_traced(wl: Workload, ctx: Context, seed: int, tracer) -> tuple[float, float, Tally]:
    """The traced run: a fixed number of units, so counts repeat exactly.

    Each unit runs twice, once plain and once traced, alternating which goes
    first, so that drift in machine speed cancels from the overhead ratio.
    Returns the plain wall time, the traced wall time and the traced tally.
    """
    plain, traced = Tally(), Tally()
    walls = {False: 0.0, True: 0.0}
    for i, unit in enumerate(itertools.islice(wl.units(seed), wl.trace_units)):
        for with_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if with_tracer:
                tracer.install()
            deferred = len(ctx.deferred)
            try:
                start = time.perf_counter()
                run_unit(ctx, unit, traced if with_tracer else plain,
                         tracer if with_tracer else None)
                walls[with_tracer] += time.perf_counter() - start
            finally:
                if with_tracer:
                    tracer.uninstall()
            if not with_tracer:
                del ctx.deferred[deferred:]  # the traced copy is cross-checked
    return walls[False], walls[True], traced
