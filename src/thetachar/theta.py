"""Numerical theta functions with integer characteristics.

Series are summed over the integer lattice cube [-R, R]^g with R chosen so
the Gaussian tail is below a configurable target; all evaluations are plain
double-precision numpy reductions over a fixed index order, so results are
deterministic.

At z = 0 every value comes from one table per matrix instance and config:
the theta constants and z-gradients of all 4^g characteristics with 0/1
entries, summed in one pass over the lattice (see `theta_table`).  Other
integer characteristics differ from those by a sign.  Only `theta` at a
general z sums its own series.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .chars import IntCharacteristic, arf, form_index

__all__ = [
    "TauRejectedError",
    "RiemannMatrix",
    "ThetaEvalConfig",
    "DEFAULT_CONFIG",
    "ThetaTable",
    "MAX_LATTICE_POINTS",
    "lattice_fits",
    "auto_radius",
    "theta_table",
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
_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


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
        # theta tables of this instance by config, filled by theta_table
        object.__setattr__(self, "_tables", {})

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
def _lattice(g: int, radius: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The cube [-radius, radius]^g sorted by parity class p = sum_k (n_k mod 2) 2^k,
    and the 2^g + 1 offsets that bound the classes: class p is pts[o[p]:o[p+1]]."""
    axis = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([axis] * g), indexing="ij")
    pts = np.stack([a.reshape(-1) for a in grids], axis=-1)
    parity = (pts & 1) @ (1 << np.arange(g))
    pts = pts[np.argsort(parity, kind="stable")].astype(float)
    pts.setflags(write=False)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(parity, minlength=2**g))))
    return pts, tuple(int(o) for o in offsets)


def _outside_stacklevel() -> int:
    # stacklevel, for a warning raised by the caller of this function, that
    # names the first frame outside this package
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


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
            stacklevel=_outside_stacklevel(),
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
    c = _lattice(g, radius)[0] + np.array(char.eps, dtype=float) / 2.0
    quad = np.einsum("ij,jk,ik->i", c, tau.entries, c)
    lin = c @ (z + np.array(char.eps_prime, dtype=float) / 2.0)
    return c, np.exp(1j * np.pi * quad + 2j * np.pi * lin)


@dataclass(frozen=True)
class ThetaTable:
    """Theta constants `values` and z-gradients `grads` at z = 0 of the 4^g
    characteristics with entries in {0, 1}, indexed by form index (eps bits
    low, eps' bits high; see `chars.form_index`)."""

    values: np.ndarray
    grads: np.ndarray


# i^k for k mod 4, exact
_I_POWERS = (1, 1j, -1, -1j)


def _build_table(tau: RiemannMatrix, cfg: ThetaEvalConfig) -> ThetaTable:
    # With c = n + eps/2 the eps' phase of a term is
    # e(c eps'/2) = i^(eps.eps') (-1)^(n.eps'), and (-1)^(n.eps') depends
    # only on the parity class p of n.  So per eps class one exponential
    # exp(i pi c tau c^T) over the lattice, summed per parity class (and
    # weighted by c for the gradients), gives all 2^g characteristics of the
    # class through the +-1 matrix (-1)^(p.eps').
    g = tau.g
    radius = _resolve_radius(tau, cfg, np.zeros(g))
    pts, offsets = _lattice(g, radius)
    classes = range(2**g)
    hadamard = np.array([[(-1) ** (a & b).bit_count() for b in classes] for a in classes])
    slices = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
    # indexed [eps', eps], so the flattened index is the form index
    values = np.empty((2**g, 2**g), dtype=complex)
    grads = np.empty((2**g, 2**g, g), dtype=complex)
    for eps in classes:
        c = pts + np.array([(eps >> k) & 1 for k in range(g)]) / 2.0
        base = np.exp(1j * np.pi * np.einsum("ij,jk,ik->i", c, tau.entries, c))
        sums = np.array([base[s].sum() for s in slices])
        weighted = np.array([c[s].T @ base[s] for s in slices])
        phase = np.array([_I_POWERS[(eps & ep).bit_count() % 4] for ep in classes])
        values[:, eps] = phase * (hadamard @ sums)
        grads[:, eps] = 2j * np.pi * phase[:, None] * (hadamard @ weighted)
    values, grads = values.reshape(-1), grads.reshape(-1, g)
    values.setflags(write=False)
    grads.setflags(write=False)
    return ThetaTable(values, grads)


def theta_table(tau: RiemannMatrix, cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> ThetaTable:
    """All theta constants and z-gradients of 0/1 characteristics at tau.

    Built on the first call for this matrix instance and config, then read
    from the instance: a second `RiemannMatrix` with equal entries builds
    its own table.
    """
    table = tau._tables.get(cfg)
    if table is None:
        table = tau._tables[cfg] = _build_table(tau, cfg)
    return table


def _signed_index(char: IntCharacteristic, tau: RiemannMatrix) -> tuple[int, int]:
    # theta[eps + 2m, eps' + 2n] = (-1)^(eps.n) theta[eps, eps'] for 0/1
    # eps, eps', and so for the gradient: that sign, and the table index of
    # the 0/1 characteristic
    if char.g != tau.g:
        raise ValueError("characteristic and matrix genus differ")
    flip = sum((e & 1) * (ep >> 1) for e, ep in zip(char.eps, char.eps_prime)) & 1
    return -1 if flip else 1, form_index(char.reduce())


def theta(char: IntCharacteristic, z, tau: RiemannMatrix,
          cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> complex:
    """Theta series sum_n e(1/2 (n+eps/2) tau (n+eps/2)^T + (n+eps/2)(z+eps'/2)^T)
    with e(x) = exp(2 pi i x), truncated to the cube of the resolved radius."""
    _, terms = _terms(char, z, tau, cfg)
    return complex(terms.sum())


def theta_null(char: IntCharacteristic, tau: RiemannMatrix,
               cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> complex:
    """Theta constant at z = 0, read from the theta table; requires an even
    characteristic."""
    if arf(char.reduce()) != 0:
        raise ValueError("theta constant of an odd characteristic vanishes identically")
    sign, index = _signed_index(char, tau)
    return complex(sign * theta_table(tau, cfg).values[index])


def theta_grad(char: IntCharacteristic, tau: RiemannMatrix,
               cfg: ThetaEvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Gradient of the theta series in z at z = 0, read from the theta table."""
    sign, index = _signed_index(char, tau)
    return sign * theta_table(tau, cfg).grads[index]


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
