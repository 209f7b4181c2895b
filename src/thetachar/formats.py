"""Text and JSON formats: characteristics, fundamental systems, Riemann
matrices, and verification reports.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .chars import FundamentalSystem, QuadForm
from .theta import RiemannMatrix

__all__ = [
    "InputFormatError",
    "parse_quadform",
    "format_quadform",
    "parse_system",
    "format_system",
    "load_system",
    "tau_to_dict",
    "tau_from_dict",
    "load_tau",
    "save_tau",
    "sample_tau",
    "weber_record",
]


class InputFormatError(ValueError):
    """Malformed characteristic, system, or matrix input."""


def parse_quadform(text: str) -> QuadForm:
    """Parse `[1 0 0; 1 0 0]` or the compact `100/100` into a form."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1]
        parts = body.split(";")
        if len(parts) != 2:
            raise InputFormatError(f"expected one ';' in {text!r}")
        halves = []
        for part in parts:
            bits = part.split()
            if not bits:
                raise InputFormatError(f"empty half in {text!r}")
            halves.append(bits)
    elif "/" in text:
        halves = [list(h.strip()) for h in text.split("/")]
        if len(halves) != 2:
            raise InputFormatError(f"expected one '/' in {text!r}")
    else:
        raise InputFormatError(f"unrecognized characteristic syntax: {text!r}")
    try:
        eps = tuple(int(b) for b in halves[0])
        eps_prime = tuple(int(b) for b in halves[1])
    except ValueError as exc:
        raise InputFormatError(f"non-integer bit in {text!r}") from exc
    try:
        return QuadForm(len(eps), eps, eps_prime)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def format_quadform(q: QuadForm) -> str:
    left = " ".join(str(b) for b in q.eps)
    right = " ".join(str(b) for b in q.eps_prime)
    return f"[{left}; {right}]"


def parse_system(strings) -> FundamentalSystem:
    forms = [parse_quadform(s) for s in strings]
    if not forms:
        raise InputFormatError("empty system")
    g = forms[0].g
    try:
        return FundamentalSystem(g, tuple(forms))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def format_system(system: FundamentalSystem) -> list[str]:
    return [format_quadform(q) for q in system.forms]


def load_system(path: str | Path) -> FundamentalSystem:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(payload, list):
        raise InputFormatError(f"{path} must hold a JSON array of characteristics")
    return parse_system(payload)


def tau_to_dict(tau: RiemannMatrix) -> dict:
    return {
        "g": tau.g,
        "re": tau.entries.real.tolist(),
        "im": tau.entries.imag.tolist(),
    }


def tau_from_dict(payload: dict) -> RiemannMatrix:
    try:
        g = int(payload["g"])
        re = np.array(payload["re"], dtype=float)
        im = np.array(payload["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"matrix payload must hold g/re/im: {exc}") from exc
    if re.shape != (g, g) or im.shape != (g, g):
        raise InputFormatError(f"re/im must be {g} x {g} matrices")
    try:
        return RiemannMatrix(re + 1j * im)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def load_tau(path: str | Path) -> RiemannMatrix:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read matrix file {path}: {exc}") from exc
    return tau_from_dict(payload)


def save_tau(tau: RiemannMatrix, path: str | Path) -> None:
    Path(path).write_text(json.dumps(tau_to_dict(tau), indent=2, sort_keys=True),
                          encoding="utf-8")


def sample_tau(which: int = 1) -> RiemannMatrix:
    """One of the two validated genus-3 matrices shipped with the package."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    ref = resources.files("thetachar.data").joinpath(f"tau_sample_{which}.json")
    return tau_from_dict(json.loads(ref.read_text(encoding="utf-8")))


def weber_record(result) -> dict:
    """Wire record for one verified pair, with fixed key names."""
    return {
        "qS": format_quadform(result.q_s),
        "qT": format_quadform(result.q_t),
        "lhs_re": result.lhs.real,
        "lhs_im": result.lhs.imag,
        "rhs_re": result.rhs.real,
        "rhs_im": result.rhs.imag,
        "sign": result.sign,
        "relative_error": result.relative_error,
    }
