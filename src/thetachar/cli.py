"""Command-line front end: characteristic listings, Aronhold enumeration,
and batch verification with machine-readable JSON reports.

Exit codes: 0 all checks pass, 1 verification failure, 2 invalid input,
3 Riemann matrix rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .aronhold import (
    enumerate_aronhold_sets,
    form_sum,
    ordered_basis,
    save_aronhold_cache,
    weber_systems,
)
from .chars import arf, even_forms, odd_forms, reference_fundamental_system
from .formats import (
    InputFormatError,
    format_quadform,
    format_system,
    load_system,
    load_tau,
    parse_quadform,
    weber_record,
)
from .theta import DEFAULT_CONFIG, MAX_LATTICE_POINTS, ThetaEvalConfig, lattice_fits
from .verify import (
    DEFAULT_TOLERANCE,
    TauRejectedError,
    VerificationError,
    iota_value,
    jacobi_check,
    nearest_sign,
    random_fundamental_system,
    reference_family,
    require_valid_tau,
    weber_sign,
    weber_verify,
    bitangent_frame,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_TAU = 3

MAX_LISTING_GENUS = 5
# ordered pairs of distinct even genus-3 forms, less the one given by --qs/--qt
MAX_EXTRA_PAIRS = 36 * 35 - 1


def _eval_inputs(args):
    """Validated evaluation flags and genus-3 matrix of jacobi, weber and iota."""
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InputFormatError("--tol must be finite and positive")
    try:
        cfg = ThetaEvalConfig(radius=args.radius, target_tail=args.tail)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None
    tau = load_tau(args.tau)
    if tau.g != 3:
        raise InputFormatError(f"--tau must be a genus-3 matrix, got genus {tau.g}")
    if cfg.radius is not None and not lattice_fits(cfg.radius, tau.g):
        raise InputFormatError(
            f"--radius {cfg.radius} gives more than {MAX_LATTICE_POINTS} lattice points")
    return cfg, tau


def _write_report(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _even_form(text: str, what: str):
    q = parse_quadform(text)
    if q.g != 3 or arf(q) != 0:
        raise InputFormatError(f"{what} must be an even genus-3 characteristic")
    return q


def cmd_chars(args) -> int:
    if args.genus < 1:
        raise InputFormatError("--genus must be at least 1")
    if args.genus > MAX_LISTING_GENUS:
        raise InputFormatError(f"listing capped at genus {MAX_LISTING_GENUS}")
    ev = even_forms(args.genus)
    od = odd_forms(args.genus)
    for q in ev:
        print(f"{format_quadform(q)} even")
    for q in od:
        print(f"{format_quadform(q)} odd")
    print(f"genus {args.genus}: {len(ev)} even, {len(od)} odd")
    if args.out:
        _write_report(
            {
                "genus": args.genus,
                "even": [format_quadform(q) for q in ev],
                "odd": [format_quadform(q) for q in od],
            },
            args.out,
        )
    return EXIT_OK


def cmd_aronhold(args) -> int:
    sets = enumerate_aronhold_sets()
    save_aronhold_cache(sets, args.out)
    print(f"{len(sets)} Aronhold sets written to {args.out}")
    return EXIT_OK


def cmd_jacobi(args) -> int:
    cfg, tau = _eval_inputs(args)
    if args.random < 0:
        raise InputFormatError("--random must be non-negative")
    require_valid_tau(tau, cfg)
    systems = []
    if args.system:
        systems.append(load_system(args.system))
    else:
        systems.append(reference_fundamental_system())
    rng = np.random.default_rng(args.seed)
    for _ in range(args.random):
        systems.append(random_fundamental_system(rng))
    records = []
    failures = 0
    for system in systems:
        try:
            res = jacobi_check(system, tau, cfg, args.tol)
            records.append(
                {
                    "system": format_system(system),
                    "s_re": res.s_value.real,
                    "s_im": res.s_value.imag,
                    "sign": res.sign,
                    "residual": res.residual,
                }
            )
        except VerificationError as exc:
            failures += 1
            records.append({"system": format_system(system), "error": str(exc)})
    _write_report(records, args.out)
    return EXIT_VERIFICATION if failures else EXIT_OK


def cmd_weber(args) -> int:
    cfg, tau = _eval_inputs(args)
    if not 0 <= args.pairs <= MAX_EXTRA_PAIRS:
        raise InputFormatError(f"--pairs must be in [0, {MAX_EXTRA_PAIRS}]")
    q_s = _even_form(args.qs, "--qs")
    q_t = _even_form(args.qt, "--qt")
    if q_s == q_t:
        raise InputFormatError("--qs and --qt must differ")
    # a dict keeps the pairs in first-draw order; a repeated draw is a no-op
    pairs = {(q_s, q_t): None}
    if args.pairs:
        rng = np.random.default_rng(args.seed)
        evens = even_forms(3)
        while len(pairs) < 1 + args.pairs:
            i, j = rng.integers(0, len(evens), 2)
            if i != j:
                pairs[evens[i], evens[j]] = None
    frame = bitangent_frame(tau, cfg=cfg)
    records = []
    failures = 0
    for qs, qt in pairs:
        try:
            res = weber_verify(qs, qt, tau, cfg, args.tol, frame=frame)
            records.append(weber_record(res))
        except VerificationError as exc:
            failures += 1
            records.append(
                {"qS": format_quadform(qs), "qT": format_quadform(qt), "error": str(exc)}
            )
    _write_report(records, args.out)
    return EXIT_VERIFICATION if failures else EXIT_OK


def cmd_sign(args) -> int:
    q_s = _even_form(args.qs, "--qs")
    q_t = _even_form(args.qt, "--qt")
    if q_s == q_t:
        raise InputFormatError("--qs and --qt must differ")
    print(f"{weber_sign(q_s, q_t):+d}")
    return EXIT_OK


def cmd_iota(args) -> int:
    cfg, tau = _eval_inputs(args)
    require_valid_tau(tau, cfg)
    if (args.aronhold_index is None) != (args.qt is None):
        raise InputFormatError("--aronhold-index and --qt must be given together")
    if args.aronhold_index is None:
        family = reference_family()
    else:
        sets = enumerate_aronhold_sets()
        if not 0 <= args.aronhold_index < len(sets):
            raise InputFormatError(
                f"--aronhold-index must be in [0, {len(sets)})"
            )
        q_t = _even_form(args.qt, "--qt")
        candidate = sets[args.aronhold_index]
        if form_sum(candidate) == q_t:
            raise InputFormatError("--qt equals the total of the chosen basis")
        family = weber_systems(ordered_basis(candidate, q_t), q_t)
    value = iota_value(family, tau, cfg)
    sign, residual = nearest_sign(value)
    print(f"{sign:+d}")
    if args.out:
        _write_report(
            {"sign": sign, "residual": residual, "value_re": value.real,
             "value_im": value.imag},
            args.out,
        )
    if residual > args.tol:
        raise VerificationError(f"family product residual {residual:.3e} > {args.tol:.1e}")
    return EXIT_OK


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                   help="verification tolerance")
    p.add_argument("--radius", type=int, default=None, help="fixed lattice radius")
    p.add_argument("--tail", type=float, default=DEFAULT_CONFIG.target_tail,
                   help="series tail target")
    p.add_argument("--seed", type=int, default=0, help="seed for random draws")
    p.add_argument("--out", default=None, help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetachar",
        description="Theta characteristic calculus and theta-constant identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chars", help="list characteristics with parity")
    p.add_argument("--genus", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chars)

    p = sub.add_parser("aronhold", help="enumerate genus-3 Aronhold sets")
    p.add_argument("--out", default="aronhold_g3.json")
    p.set_defaults(func=cmd_aronhold)

    p = sub.add_parser("jacobi", help="check determinant/theta-product quotients")
    p.add_argument("--tau", required=True)
    p.add_argument("--system", default=None, help="JSON file with 8 characteristics")
    p.add_argument("--random", type=int, default=0, help="extra random systems")
    _add_eval_flags(p)
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("weber", help="verify the quartic theta-quotient identity")
    p.add_argument("--tau", required=True)
    p.add_argument("--qs", required=True)
    p.add_argument("--qt", required=True)
    p.add_argument("--pairs", type=int, default=0, help="extra random pairs")
    _add_eval_flags(p)
    p.set_defaults(func=cmd_weber)

    p = sub.add_parser("sign", help="closed-form sign of a pair of even forms")
    p.add_argument("--qs", required=True)
    p.add_argument("--qt", required=True)
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("iota", help="sign product of an eight-system family")
    p.add_argument("--tau", required=True)
    p.add_argument("--aronhold-index", type=int, default=None)
    p.add_argument("--qt", default=None)
    _add_eval_flags(p)
    p.set_defaults(func=cmd_iota)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TauRejectedError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_TAU
    except VerificationError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
