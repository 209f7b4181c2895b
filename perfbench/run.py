"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced run
plus the tracing overhead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when every check passed, 1 when a check failed, 2 when the program
cannot be found or the arguments are invalid.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before anything imports numpy; set-up probes
# inherit the same environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("weber_pairs", "jacobi_families", "small_ymin")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time set-up in this fresh interpreter and print it")
    return p.parse_args(argv)


def environment() -> dict:
    """What the result was measured on."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe(name: str) -> dict:
    """Set-up time in this interpreter, from before the import of the
    program (and of numpy) through the state the first check needs; raw,
    and speed-scaled by calibration runs right after it."""
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name].setup()
    raw = time.perf_counter() - start
    import speed

    speed.calibrate()  # warm-up, discarded
    return {"raw_s": raw, "setup_s": raw * speed.scale(speed.calibrate(), speed.calibrate())}


def probe_setup(name: str, seed: int) -> dict:
    """Set-up time of one fresh interpreter running this file as a probe."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args):
    import workloads
    from stats import TAIL_Q, percentile

    wl = workloads.WORKLOADS[args.workload]
    # one probe before the first pass and one each time another share of the
    # measured seconds has passed, so their median samples the machine at
    # several moments of the run
    setup_samples = [probe_setup(wl.name, args.seed)]
    step = args.seconds / (SETUP_PROBES - 1)

    def between(measured: float) -> None:
        if measured >= step * len(setup_samples) and len(setup_samples) < SETUP_PROBES:
            setup_samples.append(probe_setup(wl.name, args.seed))

    ctx = wl.setup()
    run = workloads.run_passes(wl, ctx, args.seed, args.seconds, between)
    tally = run.tally
    deferred_bad = workloads.cross_check_signs(ctx, tally)
    problems = workloads.cli_equivalence(ctx, OUT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "checks_per_s": metric(run.checks_per_s, "checks/s"),
        "check_p50_ms": metric(1e3 * percentile(run.check_s, 0.5), "ms"),
        "check_p90_ms": metric(1e3 * percentile(run.check_s, TAIL_Q), "ms"),
        "setup_s": metric(statistics.median(p["setup_s"] for p in setup_samples), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "accuracy_digits": metric(tally.digits(TAIL_Q), "digits"),
        "pass_frac": metric(1.0 - tally.fail_frac, "fraction"),
    }
    notes = {
        "passes": run.passes,
        "latency_samples": len(run.check_s),
        "measured_raw_s": run.measured_raw_s,
        "first_pass_raw_checks_per_s": len(run.check_s) / run.first_pass_raw_s,
        "all_passes_raw_checks_per_s": tally.attempted / run.measured_raw_s,
        "fail_frac": tally.fail_frac,
        "accuracy_samples": len(tally.errors),
        "worst_error_digits": tally.digits(1.0),
        "setup_samples_s": setup_samples,
        "sign_cross_check_failures": deferred_bad,
        "cli_equivalence": problems or "identical",
    }
    return metrics, notes, tally, problems


def per_layer(args):
    import workloads
    from tracer import Tracer, aggregate

    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    tracer.install()
    try:
        ctx = wl.setup()
    finally:
        tracer.uninstall()
    wall_plain, wall_traced, tally = workloads.run_traced(wl, ctx, args.seed, tracer)
    deferred_bad = workloads.cross_check_signs(ctx, tally)
    problems = workloads.cli_equivalence(ctx, OUT)

    agg = aggregate(tracer.spans)
    calls, incl, self_s = agg["calls"], agg["s"], agg["self_s"]
    counts = tracer.counts
    points = sum(tracer.points.values())
    enum_attempts = agg["calls_under"][("aronhold.is_aronhold",
                                        "aronhold.enumerate_aronhold_sets")]
    metrics = {
        "theta.theta_null.calls": metric(calls["theta.theta_null"], "count"),
        "theta.theta_grad.calls": metric(calls["theta.theta_grad"], "count"),
        "theta.self_s": metric(self_s["theta"], "s"),
        "theta.lattice_points": metric(points, "count"),
        "theta.ns_per_point": metric(1e9 * self_s["theta"] / points if points else 0.0, "ns"),
    }
    for label in workloads.LEVEL_LABELS:
        metrics[f"theta.self_s.{label}"] = metric(agg["self_s_by_label"][("theta", label)], "s")
        metrics[f"theta.lattice_points.{label}"] = metric(tracer.points[label], "count")
    for name, unit_key in (
        ("verify.validate_tau", "s"), ("verify.bitangent_frame", "s"),
        ("verify.s_value", "calls"), ("verify.s_value", "s"),
        ("verify.iota_value", "s"), ("verify.jacobi_check", "s"),
        ("verify.weber_verify", "s"), ("verify.det3", "calls"),
        ("verify.sign_transport", "s"),
        ("aronhold.enumerate_aronhold_sets", "s"),
        ("aronhold.basis_for_pair", "calls"), ("aronhold.basis_for_pair", "s"),
        ("aronhold.weber_systems", "s"), ("aronhold.is_aronhold", "calls"),
        ("symplectic.find_sigma", "s"), ("symplectic.lift_sp", "s"),
        ("symplectic.phi_transform", "calls"), ("symplectic.random_symplectic_f2", "s"),
        ("symplectic.act_f2", "calls"),
        ("formats.load_tau", "s"), ("formats.report", "s"),
    ):
        if unit_key == "calls":
            metrics[f"{name}.calls"] = metric(calls[name], "count")
        else:
            metrics[f"{name}.s"] = metric(incl[name], "s")
    for label in workloads.LEVEL_LABELS:
        metrics[f"verify.bitangent_frame.s.{label}"] = metric(
            agg["s_by_label"][("verify.bitangent_frame", label)], "s")
    for layer in ("verify", "aronhold", "symplectic"):
        metrics[f"{layer}.self_s"] = metric(self_s[layer], "s")
    metrics["aronhold.enum_hit_ratio"] = metric(
        288 / enum_attempts if enum_attempts else 0.0, "ratio")
    for name in ("chars.sum3", "chars.arf", "chars.lift01"):
        metrics[f"{name}.calls"] = metric(counts[name], "count")
    metrics["trace.overhead_frac"] = metric(wall_traced / wall_plain - 1.0, "ratio")

    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    notes = {
        "units": wl.trace_units,
        "wall_untraced_s": wall_plain,
        "wall_traced_s": wall_traced,
        "spans": len(tracer.spans),
        "fail_frac": tally.fail_frac,
        "sign_cross_check_failures": deferred_bad,
        "cli_equivalence": problems or "identical",
        "lattice_points": "computed as sum of (2R+1)^3 with R from auto_radius",
    }
    return metrics, notes, tally, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "thetachar" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'thetachar'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload)))
        return 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = per_layer if args.trace else end_to_end
    metrics, notes, tally, problems = run(args)
    correct = tally.failed == 0 and not problems
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, notes=notes)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
