"""Quadratic forms on a symplectic F2-space and theta characteristics.

Vectors live in a 2g-dimensional F2-space with a fixed symplectic basis and
have coordinates (lam, mu).  Quadratic forms are the bit pairs [eps; eps_prime]
of their values on the basis vectors.  Both are stored as one packed int of
2g bits: eps in bits 0..g-1 and eps_prime in bits g..2g-1 for a form, mu in
bits 0..g-1 and lam in bits g..2g-1 for a vector.  With this layout a sum of
an odd number of forms is a form, a sum of an even number is a vector, and
adding a vector to a form is a form: each is one XOR of the packed ints.
Pairings, form values and Arf invariants are popcount parities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

__all__ = [
    "GenusMismatchError",
    "F2Vector",
    "QuadForm",
    "IntCharacteristic",
    "FundamentalSystem",
    "pairing",
    "evaluate_form",
    "arf",
    "add_vector",
    "diff_forms",
    "sum3",
    "arf_sum3",
    "eval_at_formsum",
    "is_azygetic",
    "is_fundamental",
    "shift_system",
    "zero_form",
    "zero_vector",
    "basis_vector",
    "all_forms",
    "even_forms",
    "odd_forms",
    "even_count",
    "odd_count",
    "form_index",
    "form_from_index",
    "lift01",
    "reference_fundamental_system",
]


class GenusMismatchError(ValueError):
    """Operands defined over symplectic spaces of different genus."""


def _half(bits: int, g: int) -> tuple[int, ...]:
    return tuple((bits >> i) & 1 for i in range(g))


def _parity(bits: int) -> int:
    return bits.bit_count() & 1


@dataclass(frozen=True, init=False, repr=False, slots=True)
class _Word:
    """Genus g and 2g coordinates packed into the int `bits`; equality and
    hashing go by type, genus and bits."""

    g: int
    bits: int

    def __init__(self, g: int, low, high, names: tuple[str, str]):
        # validating constructor: `low` goes to bits 0..g-1, `high` above it
        if g < 1:
            raise ValueError("genus must be positive")
        bits = 0
        for shift, half, what in ((0, low, names[0]), (g, high, names[1])):
            half = tuple(half)
            if len(half) != g or any(b not in (0, 1) for b in half):
                raise ValueError(f"{what} must be {g} bits, got {half!r}")
            bits |= sum(int(b) << (shift + i) for i, b in enumerate(half))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _from_bits(cls, g: int, bits: int):
        word = object.__new__(cls)
        object.__setattr__(word, "g", g)
        object.__setattr__(word, "bits", bits)
        return word

    def _swapped(self) -> int:
        # the packed halves exchanged
        return (self.bits >> self.g) | (self.bits & ((1 << self.g) - 1)) << self.g


class F2Vector(_Word):
    """Vector w = (lam, mu) in the genus-g symplectic F2-space."""

    __slots__ = ()
    lam = property(lambda self: _half(self.bits >> self.g, self.g))
    mu = property(lambda self: _half(self.bits, self.g))

    def __init__(self, g: int, lam, mu):
        super().__init__(g, mu, lam, ("mu", "lam"))

    def __repr__(self) -> str:
        return f"F2Vector(g={self.g}, lam={self.lam}, mu={self.mu})"

    def is_zero(self) -> bool:
        return not self.bits

    def __add__(self, other: "F2Vector") -> "F2Vector":
        _same_genus(self, other)
        return F2Vector._from_bits(self.g, self.bits ^ other.bits)


class QuadForm(_Word):
    """Quadratic form q = [eps; eps_prime], i.e. a theta characteristic mod 2.

    eps[i] is the value of q on the i-th e-basis vector, eps_prime[i] the
    value on the i-th f-basis vector.
    """

    __slots__ = ()
    eps = property(lambda self: _half(self.bits, self.g))
    eps_prime = property(lambda self: _half(self.bits >> self.g, self.g))

    def __init__(self, g: int, eps, eps_prime):
        super().__init__(g, eps, eps_prime, ("eps", "eps_prime"))

    def __repr__(self) -> str:
        return f"QuadForm(g={self.g}, eps={self.eps}, eps_prime={self.eps_prime})"


@dataclass(frozen=True)
class IntCharacteristic:
    """Integer characteristic [eps; eps_prime] in Z^g + Z^g.

    Carries the lift information that fixes theta-function signs; reduction
    mod 2 recovers the underlying quadratic form.
    """

    g: int
    eps: tuple[int, ...]
    eps_prime: tuple[int, ...]

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("genus must be positive")
        object.__setattr__(self, "eps", tuple(int(e) for e in self.eps))
        object.__setattr__(self, "eps_prime", tuple(int(e) for e in self.eps_prime))
        if len(self.eps) != self.g or len(self.eps_prime) != self.g:
            raise ValueError("characteristic halves must have length g")

    def reduce(self) -> QuadForm:
        bits = sum((e & 1) << i for i, e in enumerate(self.eps + self.eps_prime))
        return QuadForm._from_bits(self.g, bits)


def lift01(q: QuadForm) -> IntCharacteristic:
    """Canonical integer lift of a quadratic form, entries in {0, 1}."""
    return IntCharacteristic(q.g, q.eps, q.eps_prime)


def _same_genus(*objs) -> int:
    g = objs[0].g
    for o in objs[1:]:
        if o.g != g:
            raise GenusMismatchError(f"genus mismatch: {g} vs {o.g}")
    return g


def zero_vector(g: int) -> F2Vector:
    return F2Vector(g, (0,) * g, (0,) * g)


def zero_form(g: int) -> QuadForm:
    return QuadForm(g, (0,) * g, (0,) * g)


def basis_vector(g: int, i: int, half: str = "e") -> F2Vector:
    """The i-th (0-based) basis vector of the e- or f-half of the basis."""
    if not 0 <= i < g:
        raise ValueError(f"index {i} out of range for genus {g}")
    if half not in ("e", "f"):
        raise ValueError("half must be 'e' or 'f'")
    # e_i has lam_i = 1, f_i has mu_i = 1
    return F2Vector._from_bits(g, 1 << (g + i if half == "e" else i))


def pairing(u: F2Vector, v: F2Vector) -> int:
    """Symplectic pairing <u, v> = lam_u.mu_v + mu_u.lam_v over F2."""
    _same_genus(u, v)
    return _parity(u.bits & v._swapped())


def evaluate_form(q: QuadForm, w: F2Vector) -> int:
    """Value q(w) = eps.lam + eps_prime.mu + lam.mu over F2."""
    _same_genus(q, w)
    return _parity((q.bits & w._swapped()) ^ (w.bits & w.bits >> w.g))


def arf(q: QuadForm) -> int:
    """Arf invariant eps.eps_prime; 0 for even forms, 1 for odd."""
    return _parity(q.bits & (q.bits >> q.g))


def add_vector(q: QuadForm, v: F2Vector) -> QuadForm:
    """Translate a form by a vector: [eps; eps'] + (lam, mu) = [eps+mu; eps'+lam]."""
    _same_genus(q, v)
    return QuadForm._from_bits(q.g, q.bits ^ v.bits)


def diff_forms(q: QuadForm, q2: QuadForm) -> F2Vector:
    """Difference of two forms as the unique vector v with <v,.> = q + q2."""
    _same_genus(q, q2)
    return F2Vector._from_bits(q.g, q.bits ^ q2.bits)


def sum3(q1: QuadForm, q2: QuadForm, q3: QuadForm) -> QuadForm:
    """Sum of three forms, again a form: componentwise XOR of characteristics."""
    _same_genus(q1, q2, q3)
    return QuadForm._from_bits(q1.g, q1.bits ^ q2.bits ^ q3.bits)


def arf_sum3(q1: QuadForm, q2: QuadForm, q3: QuadForm) -> int:
    """Arf invariant of q1+q2+q3 via the composition law.

    Equals arf(q1) + arf(q2) + arf(q3) + <q1+q2, q1+q3>.
    """
    p = pairing(diff_forms(q1, q2), diff_forms(q1, q3))
    return (arf(q1) + arf(q2) + arf(q3) + p) & 1


def eval_at_formsum(q: QuadForm, q2: QuadForm, q3: QuadForm) -> int:
    """Value of q at the vector q2 + q3; equals arf_sum3(q,q2,q3) + arf(q)."""
    return evaluate_form(q, diff_forms(q2, q3))


def form_index(q: QuadForm) -> int:
    """The packed bits of a form, 0..4^g-1 (eps bits low, eps_prime bits high)."""
    return q.bits


def form_from_index(g: int, idx: int) -> QuadForm:
    """The form whose packed bits are idx; inverse of form_index."""
    if g < 1 or not 0 <= idx < 4**g:
        raise ValueError(f"index {idx} out of range for genus {g}")
    return QuadForm._from_bits(g, idx)


def all_forms(g: int) -> list[QuadForm]:
    """All 4^g quadratic forms in canonical (packed-index) order."""
    return [form_from_index(g, i) for i in range(4**g)]


def even_forms(g: int) -> list[QuadForm]:
    return [q for q in all_forms(g) if arf(q) == 0]


def odd_forms(g: int) -> list[QuadForm]:
    return [q for q in all_forms(g) if arf(q) == 1]


def even_count(g: int) -> int:
    """Closed form 2^(g-1) (2^g + 1) for the number of even forms."""
    return 2 ** (g - 1) * (2**g + 1)


def odd_count(g: int) -> int:
    """Closed form 2^(g-1) (2^g - 1) for the number of odd forms."""
    return 2 ** (g - 1) * (2**g - 1)


def is_azygetic(forms) -> bool:
    """True iff all pairwise pairings of differences with the first form are 1.

    The property is invariant under reordering of the family.
    """
    forms = list(forms)
    if len(forms) < 3:
        raise ValueError("azygetic test needs at least 3 forms")
    vecs = [diff_forms(forms[0], f) for f in forms[1:]]
    return all(
        pairing(u, v) == 1 for u, v in itertools.combinations(vecs, 2)
    )


def is_fundamental(forms) -> bool:
    """True iff the family is 2g+2 azygetic forms, first g odd, rest even."""
    forms = list(forms)
    g = _same_genus(*forms)
    parities = [arf(q) for q in forms]
    return parities == [1] * g + [0] * (g + 2) and is_azygetic(forms)


@dataclass(frozen=True)
class FundamentalSystem:
    """Ordered tuple of 2g+2 pairwise-azygetic forms, first g odd, rest even."""

    g: int
    forms: tuple[QuadForm, ...]

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        if len(self.forms) != 2 * self.g + 2:
            raise ValueError(
                f"fundamental system at genus {self.g} needs {2 * self.g + 2} forms"
            )
        if not is_fundamental(self.forms):
            raise ValueError("forms do not make a fundamental system")

    def __iter__(self):
        return iter(self.forms)

    def __getitem__(self, i):
        return self.forms[i]


def shift_system(system: FundamentalSystem, i: int) -> FundamentalSystem:
    """Translate a fundamental system by v_i = p_i + p_last, swapping slots i and last.

    i is 0-based in range(g).  The entries at positions i and 2g+1 are fixed,
    and the operation is an involution.
    """
    g = system.g
    if not 0 <= i < g:
        raise ValueError(f"shift index {i} out of range for genus {g}")
    v = diff_forms(system.forms[i], system.forms[-1])
    shifted = [add_vector(q, v) for q in system.forms]
    shifted[i], shifted[-1] = shifted[-1], shifted[i]
    return FundamentalSystem(g, tuple(shifted))


def _qf(eps: str, eps_prime: str) -> QuadForm:
    return QuadForm(3, tuple(map(int, eps)), tuple(map(int, eps_prime)))


# Fixed genus-3 fundamental system used as the anchor for all sign
# computations; its derived plus/minus family has total sign +1.
_REFERENCE = (
    _qf("100", "100"),
    _qf("010", "110"),
    _qf("001", "111"),
    _qf("100", "000"),
    _qf("010", "100"),
    _qf("001", "110"),
    _qf("000", "111"),
    _qf("000", "000"),
)


def reference_fundamental_system() -> FundamentalSystem:
    """The fixed genus-3 fundamental system anchoring sign determination."""
    return FundamentalSystem(3, _REFERENCE)
