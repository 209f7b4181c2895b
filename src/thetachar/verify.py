"""Numerical verification pipeline for genus-3 Riemann matrices: theta-null
validation, bitangent coefficient frames, Riemann-Jacobi quotients, the
reference-family sign product, and the quartic theta-quotient determinant
identity with its sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .aronhold import (
    AronholdBasis,
    WeberFamily,
    basis_for_pair,
    family_from_fundamental,
    weber_systems,
)
from .chars import (
    FundamentalSystem,
    QuadForm,
    arf,
    even_forms,
    form_index,
    lift01,
    odd_forms,
    reference_fundamental_system,
    sum3,
    zero_form,
)
from .symplectic import find_sigma, lift_sp, phi_transform, random_fundamental_system
from .theta import (
    DEFAULT_CONFIG,
    RiemannMatrix,
    TauRejectedError,
    ThetaEvalConfig,
    theta_table,
)

__all__ = [
    "TauRejectedError",
    "VerificationError",
    "TauValidation",
    "validate_tau",
    "require_valid_tau",
    "random_tau",
    "random_fundamental_system",
    "BitangentFrame",
    "bitangent_frame",
    "det3",
    "nearest_sign",
    "JacobiCheckResult",
    "jacobi_check",
    "s_value",
    "iota_value",
    "iota",
    "weber_sign",
    "sign_transport",
    "WeberResult",
    "weber_verify",
    "reference_family",
    "family_for_pair",
]

DEFAULT_NULL_THRESHOLD = 1e-6
DEFAULT_TOLERANCE = 1e-6


class VerificationError(RuntimeError):
    """A verified identity missed its tolerance."""


@dataclass(frozen=True)
class TauValidation:
    ok: bool
    min_even_null: float
    vanishing: QuadForm | None


def validate_tau(tau: RiemannMatrix, cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> TauValidation:
    """Accept a genus-3 matrix iff all 36 even theta constants stay above
    DEFAULT_NULL_THRESHOLD in absolute value (rejection names the vanishing
    form)."""
    if tau.g != 3:
        raise ValueError("validation is defined for genus 3")
    evens = even_forms(3)
    moduli = np.abs(theta_table(tau, cfg).values[[form_index(q) for q in evens]])
    k = int(np.argmin(moduli))
    ok = bool(moduli[k] > DEFAULT_NULL_THRESHOLD)
    return TauValidation(ok, float(moduli[k]), None if ok else evens[k])


def require_valid_tau(tau: RiemannMatrix, cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> None:
    check = validate_tau(tau, cfg)
    if not check.ok:
        raise TauRejectedError(
            f"even theta constant {check.vanishing} has modulus "
            f"{check.min_even_null:.3e} <= {DEFAULT_NULL_THRESHOLD:.1e}"
        )


def random_tau(rng) -> RiemannMatrix:
    """i*I + 0.1 * (random complex symmetric), resampled up to 50 times until
    validation passes and the smallest eigenvalue of Im stays >= 0.5."""
    for _ in range(50):
        s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = (s + s.T) / 2
        m = 1j * np.eye(3) + 0.1 * s
        m = (m + m.T) / 2
        if np.linalg.eigvalsh(m.imag).min() < 0.5:
            continue
        tau = RiemannMatrix(m)
        if validate_tau(tau).ok:
            return tau
    raise RuntimeError("no valid matrix found in 50 tries")


# ---------------------------------------------------------------------------
# Bitangent coefficient frame.


@dataclass(frozen=True)
class BitangentFrame:
    """Coefficient row vectors of the 28 bitangent lines at a fixed tau.

    With omega1 = identity each row is exactly the theta gradient of the
    canonical lift of the odd form; any invertible omega1 (and any nonzero
    per-row rescaling) cancels in the verified quotients.
    """

    tau: RiemannMatrix
    omega1: np.ndarray
    beta: dict

    def rescaled(self, q: QuadForm, factor: complex) -> "BitangentFrame":
        new = dict(self.beta)
        new[q] = new[q] * factor
        return replace(self, beta=new)


def bitangent_frame(tau: RiemannMatrix, omega1: np.ndarray | None = None,
                    cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> BitangentFrame:
    """Gradient rows times omega1^-1 for all 28 odd forms at a validated tau."""
    require_valid_tau(tau, cfg)
    if omega1 is None:
        omega1 = np.eye(3, dtype=complex)
    omega1 = np.asarray(omega1, dtype=complex)
    inv = np.linalg.inv(omega1)
    odds = odd_forms(3)
    rows = theta_table(tau, cfg).grads[[form_index(q) for q in odds]] @ inv
    for q, row in zip(odds, rows):
        if np.abs(row).max() < 1e-8:
            raise TauRejectedError(f"gradient of odd form {q} is numerically zero")
    return BitangentFrame(tau, omega1, dict(zip(odds, rows)))


def det3(frame: BitangentFrame, qa: QuadForm, qb: QuadForm, qc: QuadForm) -> complex:
    """Determinant of three bitangent coefficient rows; antisymmetric."""
    forms = (qa, qb, qc)
    if len(set(forms)) != 3:
        raise ValueError("forms must be distinct")
    for q in forms:
        if arf(q) != 1:
            raise ValueError("determinant rows are indexed by odd forms")
    return complex(np.linalg.det(np.stack([frame.beta[q] for q in forms])))


# ---------------------------------------------------------------------------
# Riemann-Jacobi quotient.


def nearest_sign(value: complex) -> tuple[int, float]:
    """The nearer of +1 and -1 to value (+1 on a tie), and the distance to it."""
    sign = 1 if abs(value - 1) <= abs(value + 1) else -1
    return sign, abs(value - sign)


@dataclass(frozen=True)
class JacobiCheckResult:
    system: FundamentalSystem
    s_value: complex
    sign: int
    residual: float


def s_value(system: FundamentalSystem, tau: RiemannMatrix,
            cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> complex:
    """Jacobian Nullwert of the first three forms over the product of the
    theta constants of the last five, read from the theta table."""
    if system.g != 3 or tau.g != 3:
        raise ValueError("the quotient is defined for genus 3")
    table = theta_table(tau, cfg)
    index = [form_index(q) for q in system.forms]
    num = complex(np.linalg.det(table.grads[index[:3]].T) / math.pi**3)
    den = 1.0 + 0j
    for i in index[3:]:
        den *= complex(table.values[i])
    return num / den


def jacobi_check(system: FundamentalSystem, tau: RiemannMatrix,
                 cfg: ThetaEvalConfig = DEFAULT_CONFIG,
                 tol: float = DEFAULT_TOLERANCE) -> JacobiCheckResult:
    """Check that the quotient lands on +1 or -1 within tol."""
    value = s_value(system, tau, cfg)
    sign, residual = nearest_sign(value)
    if residual > tol:
        raise VerificationError(
            f"quotient {value} is {residual:.3e} away from {sign:+d} (tol {tol:.1e})"
        )
    return JacobiCheckResult(system, value, sign, residual)


def iota_value(family: WeberFamily, tau: RiemannMatrix,
               cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> complex:
    """Product over the family of numerator quotients over denominator ones."""
    out = 1.0 + 0j
    for num, den in zip(family.numerators, family.denominators):
        out *= s_value(num, tau, cfg) / s_value(den, tau, cfg)
    return out


def iota(family: WeberFamily, tau: RiemannMatrix,
         cfg: ThetaEvalConfig = DEFAULT_CONFIG,
         tol: float = DEFAULT_TOLERANCE) -> int:
    """The +-1 sign carried by a family of eight fundamental systems."""
    value = iota_value(family, tau, cfg)
    sign, residual = nearest_sign(value)
    if residual > tol:
        raise VerificationError(
            f"family product {value} is {residual:.3e} away from {sign:+d}"
        )
    return sign


# ---------------------------------------------------------------------------
# Sign determination.


def weber_sign(q_s: QuadForm, q_t: QuadForm) -> int:
    """(-1)^arf(q0 + q_s + q_t) for distinct even forms; symmetric."""
    if q_s == q_t:
        raise ValueError("forms must be distinct")
    if arf(q_s) != 0 or arf(q_t) != 0:
        raise ValueError("both forms must be even")
    return -1 if arf(sum3(zero_form(q_s.g), q_s, q_t)) else 1


def sign_transport(base: FundamentalSystem) -> int:
    """Sign of the eight-system family of `base`, computed exactly.

    Transports the reference family (whose sign is +1) onto the family of
    `base` by an integer symplectic lift and reads the parity of the phase
    exponents of the two last-slot characteristics.
    """
    ref = reference_fundamental_system()
    sigma_z = lift_sp(find_sigma(ref, base))
    n8 = lift01(ref.forms[-1])
    n8p = lift01(sum3(ref.forms[0], ref.forms[1], ref.forms[2]))
    delta = 8 * (phi_transform(n8p, sigma_z) - phi_transform(n8, sigma_z))
    if delta.denominator != 1:
        raise RuntimeError("phase exponent difference is not an integer")
    return -1 if int(delta) % 2 else 1


# ---------------------------------------------------------------------------
# The quartic theta-quotient identity.


@dataclass(frozen=True)
class WeberResult:
    q_s: QuadForm
    q_t: QuadForm
    lhs: complex
    rhs: complex
    sign: int
    relative_error: float


def _det_quotient(frame: BitangentFrame, basis: AronholdBasis,
                  q_s: QuadForm) -> complex:
    q1, q2, q3 = basis.forms[:3]
    pair = lambda a, b: sum3(q_s, a, b)
    q12, q13, q23 = pair(q1, q2), pair(q1, q3), pair(q2, q3)
    num = (
        det3(frame, q1, q2, q3)
        * det3(frame, q1, q12, q13)
        * det3(frame, q12, q2, q23)
        * det3(frame, q13, q23, q3)
    )
    den = (
        det3(frame, q23, q13, q12)
        * det3(frame, q23, q3, q2)
        * det3(frame, q3, q13, q1)
        * det3(frame, q2, q1, q12)
    )
    return num / den


def weber_verify(q_s: QuadForm, q_t: QuadForm, tau: RiemannMatrix,
                 cfg: ThetaEvalConfig = DEFAULT_CONFIG,
                 tol: float = DEFAULT_TOLERANCE,
                 basis: AronholdBasis | None = None,
                 frame: BitangentFrame | None = None) -> WeberResult:
    """Compare the fourth power of the theta-constant quotient of two distinct
    even genus-3 forms against the signed quotient of eight bitangent
    determinants."""
    if basis is None:
        basis = basis_for_pair(q_s, q_t)
    elif basis.total() != q_s or sum3(*basis.forms[:3]) != q_t:
        raise ValueError("basis does not match the requested pair")
    if frame is None:
        frame = bitangent_frame(tau, cfg=cfg)
    sign = weber_sign(q_s, q_t)
    values = theta_table(tau, cfg).values
    lhs = (complex(values[form_index(q_s)]) / complex(values[form_index(q_t)])) ** 4
    rhs = sign * _det_quotient(frame, basis, q_s)
    rel = abs(lhs - rhs) / abs(lhs)
    if rel > tol:
        raise VerificationError(
            f"determinant quotient misses theta quotient by {rel:.3e} (tol {tol:.1e})"
        )
    return WeberResult(q_s, q_t, lhs, rhs, sign, rel)


def reference_family() -> WeberFamily:
    """Eight-system family derived from the reference fundamental system."""
    return family_from_fundamental(reference_fundamental_system())


def family_for_pair(q_s: QuadForm, q_t: QuadForm) -> WeberFamily:
    """Eight-system family for a pair of distinct even forms."""
    return weber_systems(basis_for_pair(q_s, q_t), q_t)
