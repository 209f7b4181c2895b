"""Numerical theta functions with integer characteristics.

Series are summed over the integer lattice cube [-R, R]^g with R chosen so
the Gaussian tail is below a configurable target; all evaluations are plain
double-precision numpy reductions over a fixed index order, so results are
deterministic.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chars import IntCharacteristic, arf

__all__ = [
    "TauRejectedError",
    "RiemannMatrix",
    "ThetaEvalConfig",
    "DEFAULT_CONFIG",
    "MAX_LATTICE_POINTS",
    "lattice_fits",
    "auto_radius",
    "theta",
    "theta_null",
    "theta_grad",
    "jacobian_nullwert",
]

_SYMMETRY_TOL = 1e-12
# Most points (2R+1)^g one series may sum, about 24 MB per lattice array; at
# genus 3 it allows R <= 49, where the samples need R <= 10 and y_min = 0.034
# needs R = 23.
MAX_LATTICE_POINTS = 10**6


class TauRejectedError(ValueError):
    """Riemann matrix rejected: some even theta constant is numerically zero,
    or its series needs more than MAX_LATTICE_POINTS lattice points."""


@dataclass(frozen=True)
class RiemannMatrix:
    """Symmetric g x g complex matrix with positive-definite imaginary part."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if np.abs(m - m.T).max() > _SYMMETRY_TOL:
            raise ValueError("matrix is not symmetric")
        m = (m + m.T) / 2
        y_min = float(np.linalg.eigvalsh(m.imag).min())
        if y_min <= 0:
            raise ValueError("imaginary part is not positive definite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "y_min", y_min)

    @property
    def g(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ThetaEvalConfig:
    """Truncation control: fixed radius, or automatic from the tail target."""

    radius: int | None = None
    target_tail: float = 1e-16

    def __post_init__(self):
        if self.radius is not None and self.radius < 1:
            raise ValueError("radius must be a positive integer")
        if not (math.isfinite(self.target_tail) and self.target_tail > 0):
            raise ValueError("target_tail must be finite and positive")


DEFAULT_CONFIG = ThetaEvalConfig()


def _tail_bound(y_min: float, g: int, radius: int) -> float:
    return math.exp(-math.pi * y_min * (radius - 1) ** 2) * (2 * radius + 1) ** g


def lattice_fits(radius: int, g: int) -> bool:
    """True iff the cube [-radius, radius]^g has at most MAX_LATTICE_POINTS points."""
    return (2 * radius + 1) ** g <= MAX_LATTICE_POINTS


def auto_radius(y_min: float, g: int, target_tail: float) -> int:
    """Smallest radius whose Gaussian tail bound is below the target."""
    radius = 1
    while _tail_bound(y_min, g, radius) >= target_tail:
        radius += 1
        if not lattice_fits(radius, g):
            raise TauRejectedError(
                f"tail {target_tail} at y_min={y_min:.3g} needs more than "
                f"{MAX_LATTICE_POINTS} lattice points"
            )
    return radius


@functools.lru_cache(maxsize=32)
def _lattice(g: int, radius: int) -> np.ndarray:
    axis = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([axis] * g), indexing="ij")
    pts = np.stack([a.reshape(-1) for a in grids], axis=-1).astype(float)
    pts.setflags(write=False)
    return pts


def _resolve_radius(tau: RiemannMatrix, cfg: ThetaEvalConfig, z: np.ndarray) -> int:
    if cfg.radius is None:
        radius = auto_radius(tau.y_min, tau.g, cfg.target_tail)
        im_z = np.asarray(z).imag
        if np.any(im_z):
            # nonzero Im z shifts the Gaussian peak by -Y^{-1} Im z
            shift = np.linalg.solve(tau.entries.imag, im_z)
            radius += int(np.ceil(np.abs(shift).max())) + 1
    else:
        radius = cfg.radius
    if not lattice_fits(radius, tau.g):
        raise ValueError(f"radius {radius} gives more than {MAX_LATTICE_POINTS} lattice points")
    if cfg.radius is not None and _tail_bound(tau.y_min, tau.g, radius) >= cfg.target_tail:
        warnings.warn(
            f"radius {radius} gives tail above target {cfg.target_tail} "
            f"at y_min={tau.y_min:.3g}",
            stacklevel=4,
        )
    return radius


def _terms(char: IntCharacteristic, z, tau: RiemannMatrix,
           cfg: ThetaEvalConfig) -> tuple[np.ndarray, np.ndarray]:
    # shifted lattice c = n + eps/2 over the resolved cube, and the series
    # terms e(1/2 c tau c^T + c (z + eps'/2)^T) at z
    if char.g != tau.g:
        raise ValueError("characteristic and matrix genus differ")
    g = tau.g
    z = np.asarray(z, dtype=complex).reshape(g)
    radius = _resolve_radius(tau, cfg, z)
    c = _lattice(g, radius) + np.array(char.eps, dtype=float) / 2.0
    quad = np.einsum("ij,jk,ik->i", c, tau.entries, c)
    lin = c @ (z + np.array(char.eps_prime, dtype=float) / 2.0)
    return c, np.exp(1j * np.pi * quad + 2j * np.pi * lin)


def theta(char: IntCharacteristic, z, tau: RiemannMatrix,
          cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> complex:
    """Theta series sum_n e(1/2 (n+eps/2) tau (n+eps/2)^T + (n+eps/2)(z+eps'/2)^T)
    with e(x) = exp(2 pi i x), truncated to the cube of the resolved radius."""
    _, terms = _terms(char, z, tau, cfg)
    return complex(terms.sum())


def theta_null(char: IntCharacteristic, tau: RiemannMatrix,
               cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> complex:
    """Theta constant at z = 0; requires an even characteristic."""
    if arf(char.reduce()) != 0:
        raise ValueError("theta constant of an odd characteristic vanishes identically")
    return theta(char, np.zeros(tau.g), tau, cfg)


def theta_grad(char: IntCharacteristic, tau: RiemannMatrix,
               cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Gradient of the theta series in z at z = 0, by term-wise differentiation."""
    c, terms = _terms(char, np.zeros(tau.g), tau, cfg)
    return 2j * np.pi * (c * terms[:, None]).sum(axis=0)


def jacobian_nullwert(chars, tau: RiemannMatrix,
                      cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> complex:
    """pi^-g times the determinant of the gradient matrix of g odd
    characteristics (columns indexed by characteristic)."""
    chars = list(chars)
    g = tau.g
    if len(chars) != g:
        raise ValueError(f"need exactly {g} characteristics, got {len(chars)}")
    for ch in chars:
        if arf(ch.reduce()) != 1:
            raise ValueError("all characteristics must be odd")
    grads = np.stack([theta_grad(ch, tau, cfg) for ch in chars], axis=1)
    return complex(np.linalg.det(grads) / math.pi**g)
