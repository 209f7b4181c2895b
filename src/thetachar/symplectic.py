"""Symplectic maps over F2 and over Z, their actions on quadratic forms and
integer characteristics, and the transvection-based lift from Sp(2g, F2) to
Sp(2g, Z).

Matrices act on stacked column vectors (lam; mu).  Integer matrices are kept
as object arrays of Python ints so all arithmetic stays exact.  A product of
transvections is multiplied as plain matrices and checked once, as one map.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chars import (
    F2Vector,
    FundamentalSystem,
    IntCharacteristic,
    QuadForm,
    add_vector,
    basis_vector,
    diff_forms,
    evaluate_form,
    pairing,
    reference_fundamental_system,
)

__all__ = [
    "NotSymplecticError",
    "SymplecticMapF2",
    "SymplecticMapZ",
    "act_f2",
    "act_f2_vec",
    "act_z",
    "phi_transform",
    "find_sigma",
    "lift_sp",
    "transvection_factors",
    "random_symplectic_f2",
    "random_symplectic_z",
]


class NotSymplecticError(ValueError):
    """Matrix does not satisfy the symplectic block relations."""


def _gram(g: int) -> np.ndarray:
    # pairing matrix [[0, I], [-I, 0]] (over F2 the signs are immaterial)
    j = np.zeros((2 * g, 2 * g), dtype=object)
    for i in range(g):
        j[i, g + i] = 1
        j[g + i, i] = -1
    return j


def _is_symplectic(m: np.ndarray, g: int, modulus: int | None) -> bool:
    """M^T J M == J, exactly over Z or modulo `modulus`."""
    m = m.astype(object if modulus is None else np.int64)
    defect = m.T @ np.concatenate([m[g:], -m[:g]]) - _gram(g)
    if modulus is not None:
        defect %= modulus
    return not defect.any()


def _transvection(v: F2Vector) -> np.ndarray:
    # integer matrix of x -> x + <x,v> v for the 0/1 direction vector v
    col = np.array([*v.lam, *v.mu], dtype=object).reshape(-1, 1)
    return np.eye(2 * v.g, dtype=object) - col @ col.T @ _gram(v.g)


def _product(g: int, directions) -> np.ndarray:
    # integer matrix T(v_1) ... T(v_k), multiplied in the order given
    return functools.reduce(np.matmul, map(_transvection, directions),
                            np.eye(2 * g, dtype=object))


@dataclass(frozen=True)
class _SymplecticMap:
    """Validated read-only 2g x 2g symplectic matrix of integers.  A subclass
    fixes the ring: `_modulus` is 2 over F2 (entries stored as uint8 bits)
    and None over Z (Python ints), and `_ring` names the ring in errors."""

    g: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (2 * self.g, 2 * self.g):
            raise ValueError(f"matrix must be {2 * self.g} x {2 * self.g}")
        try:
            exact = np.array([[int(x) for x in row] for row in m], dtype=object)
        except (TypeError, OverflowError):
            exact = None
        if exact is None or (exact != m).any():
            raise ValueError("matrix entries must be integers")
        m = exact if self._modulus is None else (exact % self._modulus).astype(np.uint8)
        if not _is_symplectic(m, self.g, self._modulus):
            raise NotSymplecticError(f"matrix is not symplectic over {self._ring}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, g: int):
        return cls(g, np.eye(2 * g, dtype=np.int64))

    @classmethod
    def transvection(cls, v: F2Vector):
        """Transvection x -> x + <x,v> v; over Z the integer one for a 0/1
        direction vector."""
        return cls(v.g, _transvection(v))

    def blocks(self):
        g = self.g
        m = self.matrix
        return m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:]

    def compose(self, other):
        if self.g != other.g:
            raise ValueError("genus mismatch")
        return type(self)(self.g, self.matrix @ other.matrix)

    def __matmul__(self, other):
        return self.compose(other)

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.g == other.g
            and (self.matrix == other.matrix).all()
        )


@dataclass(frozen=True, eq=False)
class SymplecticMapF2(_SymplecticMap):
    """Element of Sp(2g, F2) stored as a 2g x 2g bit matrix."""

    _ring = "F2"
    _modulus = 2


@dataclass(frozen=True, eq=False)
class SymplecticMapZ(_SymplecticMap):
    """Element of Sp(2g, Z); entries are exact Python ints."""

    _ring = "Z"
    _modulus = None

    def reduce(self) -> SymplecticMapF2:
        return SymplecticMapF2(self.g, self.matrix)


# ---------------------------------------------------------------------------
# Actions.


def act_f2_vec(sigma: SymplecticMapF2, v: F2Vector) -> F2Vector:
    """Image of a vector under the symplectic map."""
    if sigma.g != v.g:
        raise ValueError("genus mismatch")
    g = v.g
    stacked = np.array([*v.lam, *v.mu], dtype=np.uint8)
    out = (sigma.matrix @ stacked) % 2
    return F2Vector(g, out[:g], out[g:])


def _act(sigma, q) -> tuple[list[int], list[int]]:
    # integer action [[d, -c], [-b, a]] plus the diagonal shift
    # (diag(c d^T), diag(a b^T)); over F2 the signs drop out
    if sigma.g != q.g:
        raise ValueError("genus mismatch")
    a, b, c, d = (blk.astype(object) for blk in sigma.blocks())
    eps = np.array(q.eps, dtype=object)
    eps_p = np.array(q.eps_prime, dtype=object)
    top = d @ eps - c @ eps_p + np.diag(c @ d.T)
    bot = -b @ eps + a @ eps_p + np.diag(a @ b.T)
    return [int(x) for x in top], [int(x) for x in bot]


def act_f2(sigma: SymplecticMapF2, q: QuadForm) -> QuadForm:
    """Pullback action on forms: (sigma . q)(sigma v) = q(v).

    The mod-2 reduction of the integer action `act_z`.
    """
    top, bot = _act(sigma, q)
    return QuadForm(q.g, tuple(x % 2 for x in top), tuple(x % 2 for x in bot))


def act_z(sigma: SymplecticMapZ, q: IntCharacteristic) -> IntCharacteristic:
    """Integer action [[d, -c], [-b, a]] plus the diagonal shift
    (diag(c d^T), diag(a b^T)).

    Reduces mod 2 to the F2 action on the underlying quadratic forms.
    """
    top, bot = _act(sigma, q)
    return IntCharacteristic(q.g, tuple(top), tuple(bot))


def phi_transform(q: IntCharacteristic, sigma: SymplecticMapZ) -> Fraction:
    """Exact characteristic-dependent phase exponent of the theta
    transformation under sigma; a rational with denominator dividing 8.

    Only parities of 8*phi are consumed downstream, which makes the result
    insensitive to the transpose ambiguity of the doubled cross terms.
    """
    if sigma.g != q.g:
        raise ValueError("genus mismatch")
    a, b, c, d = sigma.blocks()
    eps = np.array(q.eps, dtype=object)
    eps_p = np.array(q.eps_prime, dtype=object)
    shift = np.diag(a @ b.T)
    t1 = int(eps @ (b.T @ d) @ eps)
    t2 = int(eps @ (b.T @ c) @ eps_p)
    t3 = int(eps_p @ (a.T @ c) @ eps_p)
    t4 = int(shift @ (d.T @ eps - c @ eps_p))
    return Fraction(-(t1 - 2 * t2 + t3 - 2 * t4), 8)


# ---------------------------------------------------------------------------
# Constructive solve: map one fundamental system onto another.


def _difference_columns(system: FundamentalSystem) -> np.ndarray:
    # the first 2g forms minus the last, as columns (lam; mu) of a bit matrix
    last = system.forms[-1]
    vecs = [diff_forms(q, last) for q in system.forms[: 2 * system.g]]
    return np.array([[*v.lam, *v.mu] for v in vecs], dtype=np.int64).T


def find_sigma(source: FundamentalSystem, target: FundamentalSystem) -> SymplecticMapF2:
    """Symplectic map sending the source fundamental system onto the target,
    element by element.

    The differences U (W) of the first 2g source (target) forms with the last
    have Gram matrix U^T J U = 1 - I, as the system is azygetic, and
    (1 - I)^2 = I mod 2, so sigma = W (1 - I) U^T J.  The composition law
    forces the last form to follow; the mapping is verified before returning.
    """
    if source.g != target.g:
        raise ValueError("genus mismatch")
    g = source.g
    u, w = _difference_columns(source), _difference_columns(target)
    # mod 2, U^T J is U with its two halves of rows swapped, transposed
    u_inv = (1 - np.eye(2 * g, dtype=np.int64)) @ np.roll(u, g, axis=0).T
    sigma = SymplecticMapF2(g, w @ u_inv)
    for q_src, q_tgt in zip(source.forms, target.forms):
        if act_f2(sigma, q_src) != q_tgt:
            raise RuntimeError("constructed map fails to match the systems")
    return sigma


# ---------------------------------------------------------------------------
# Transvection decomposition and the lift to Sp(2g, Z).


@functools.cache
def _all_vectors(g: int) -> tuple[F2Vector, ...]:
    # the nonzero vectors in product order, which decides the bridge picked
    return tuple(F2Vector(g, bits[:g], bits[g:])
                 for bits in itertools.product((0, 1), repeat=2 * g) if any(bits))


def _steps_to(x: F2Vector, t: F2Vector, extra) -> list[F2Vector]:
    """Transvection directions mapping x to t while pairing trivially with
    everything in `extra` (pairs of (vector, parity))."""
    if x == t:
        return []
    if pairing(x, t) == 1:
        return [x + t]
    # smallest bridge z with <z, x> = <z, t> = 1 and the parities of `extra`
    conditions = [(x, 1), (t, 1), *extra]
    for z in _all_vectors(x.g):
        if all(pairing(z, vec) == par for vec, par in conditions):
            return [x + z, z + t]
    raise RuntimeError("no bridge vector found; decomposition failed")


def transvection_factors(sigma: SymplecticMapF2) -> list[F2Vector]:
    """Direction vectors v_1..v_k with sigma = T(v_1) ... T(v_k) over F2."""
    g = sigma.g
    e = [basis_vector(g, i, "e") for i in range(g)]
    f = [basis_vector(g, i, "f") for i in range(g)]
    # columns of the working matrix, reduced to the identity from the left
    work = [F2Vector(g, col[:g], col[g:]) for col in sigma.matrix.T]
    recorded: list[F2Vector] = []

    def apply(v: F2Vector) -> None:
        work[:] = [x + v if pairing(x, v) else x for x in work]
        recorded.append(v)

    for i in range(g):
        fixed = [(u, 0) for j in range(i) for u in (e[j], f[j])]
        for v in _steps_to(work[i], e[i], fixed):
            apply(v)
        # bridge vectors for the f-column must also pair 1 with e_i so the
        # resulting transvection directions pair 0 with it
        for v in _steps_to(work[g + i], f[i], fixed + [(e[i], 1)]):
            apply(v)

    if work != e + f:
        raise RuntimeError("transvection decomposition did not reach identity")
    # T(v)^2 = id over F2, so sigma is the recorded product in the same order
    return recorded


def lift_sp(sigma: SymplecticMapF2) -> SymplecticMapZ:
    """Integer symplectic lift of an F2 symplectic map.

    Decomposes into transvections over F2 and multiplies their integer
    transvection matrices as one plain product, checked once over Z and
    compared with the input mod 2 before returning.
    """
    lifted = SymplecticMapZ(sigma.g, _product(sigma.g, transvection_factors(sigma)))
    if (lifted.matrix % 2 != sigma.matrix).any():
        raise RuntimeError("integer lift does not reduce to the input map")
    return lifted


# ---------------------------------------------------------------------------
# Random elements (seeded, for tests and batch verification).


def _random_direction(g: int, rng) -> F2Vector:
    while True:
        bits = rng.integers(0, 2, size=2 * g)
        if bits.any():
            return F2Vector(g, bits[:g], bits[g:])


def _random_product(cls, g: int, rng, n_factors: int):
    return cls(g, _product(g, (_random_direction(g, rng) for _ in range(n_factors))))


def random_symplectic_f2(g: int, rng) -> SymplecticMapF2:
    """Product of 20 random transvections over F2."""
    return _random_product(SymplecticMapF2, g, rng, 20)


def random_symplectic_z(g: int, rng, n_factors: int = 12) -> SymplecticMapZ:
    """Product of random integer transvections (exact arithmetic)."""
    return _random_product(SymplecticMapZ, g, rng, n_factors)


def random_fundamental_system(rng) -> FundamentalSystem:
    """Image of the reference system under T(v_1) ... T(v_20), the map that
    `random_symplectic_f2(3, rng)` draws.  T(v_20) acts first, and T(v) moves
    a form q to q + v when q(v) = 0 and fixes it otherwise."""
    directions = [_random_direction(3, rng) for _ in range(20)]
    forms = reference_fundamental_system().forms
    for v in reversed(directions):
        forms = tuple(q if evaluate_form(q, v) else add_vector(q, v) for q in forms)
    return FundamentalSystem(3, forms)
