"""Aronhold sets: recognition, exhaustive genus-3 enumeration, and the
fundamental-system constructions built on top of them.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from pathlib import Path

from .chars import (
    F2Vector,
    FundamentalSystem,
    QuadForm,
    _same_genus,
    add_vector,
    arf,
    diff_forms,
    form_from_index,
    form_index,
    odd_forms,
    pairing,
    shift_system,
    sum3,
)

__all__ = [
    "AronholdBasis",
    "form_sum",
    "vector_sum",
    "is_aronhold",
    "enumerate_aronhold_sets",
    "save_aronhold_cache",
    "load_aronhold_cache",
    "aronhold_to_fundamental",
    "aronhold_conjugate",
    "ordered_basis",
    "basis_for_pair",
    "weber_base_system",
    "WeberFamily",
    "family_from_fundamental",
    "weber_systems",
]


def _arf_target(g: int, weight: int) -> int:
    # required Arf invariant of a sum of `weight` basis forms (weight odd)
    corr = 0 if g % 4 in (0, 1) else 1
    return ((weight - 1) // 2 + corr) & 1


def form_sum(forms) -> QuadForm:
    """XOR-sum of an odd number of forms (a form again)."""
    forms = list(forms)
    if len(forms) % 2 == 0:
        raise ValueError("sum of an even number of forms is a vector, not a form")
    g = _same_genus(*forms)
    return form_from_index(g, functools.reduce(operator.xor, map(form_index, forms)))


def vector_sum(forms) -> F2Vector:
    """XOR-sum of an even number of forms (a vector)."""
    forms = list(forms)
    if len(forms) % 2 != 0:
        raise ValueError("sum of an odd number of forms is a form, not a vector")
    return diff_forms(form_sum(forms[1:]), forms[0])


def is_aronhold(forms) -> bool:
    """Check the full Aronhold condition on 2g+1 distinct forms.

    Every odd-weight 0/1-combination must hit a distinct form (there are
    exactly 2^(2g) of them, so they exhaust all forms) and its Arf invariant
    must follow the weight pattern (w-1)/2 plus the genus correction.
    """
    forms = list(forms)
    g = _same_genus(*forms)
    if len(forms) != 2 * g + 1:
        raise ValueError(f"an Aronhold set at genus {g} has {2 * g + 1} forms")
    if len(set(forms)) != len(forms):
        raise ValueError("Aronhold set members must be distinct")
    words = [form_index(q) for q in forms]
    seen = set()
    for r in range(1, len(words) + 1, 2):
        target = _arf_target(g, r)
        for combo in itertools.combinations(words, r):
            q = form_from_index(g, functools.reduce(operator.xor, combo))
            if arf(q) != target:
                return False
            seen.add(q)
    return len(seen) == 4**g


@dataclass(frozen=True)
class AronholdBasis:
    """Ordered Aronhold set of 2g+1 quadratic forms (validated on build)."""

    g: int
    forms: tuple[QuadForm, ...]

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        if not is_aronhold(self.forms):
            raise ValueError("forms do not make an Aronhold set")

    def __iter__(self):
        return iter(self.forms)

    def __getitem__(self, i):
        return self.forms[i]

    def total(self) -> QuadForm:
        """Sum of all 2g+1 forms (the even form the basis is attached to)."""
        return form_sum(self.forms)


# ---------------------------------------------------------------------------
# Exhaustive enumeration at genus 3.


def _triple_masks(odd):
    """For each pair (i, j) of odd-form indices, the bitmask of k making an
    azygetic triple with them."""
    n = len(odd)
    vecs = [[diff_forms(p, q) for q in odd] for p in odd]
    masks = [[0] * n for _ in range(n)]
    for i, j, k in itertools.permutations(range(n), 3):
        if pairing(vecs[i][j], vecs[i][k]):
            masks[i][j] |= 1 << k
    return masks


def enumerate_aronhold_sets():
    """All Aronhold sets at genus 3, each as an index-sorted 7-tuple of forms.

    Results are deterministic (lexicographic in packed form indices) and
    memoized in-process.
    """
    return list(_aronhold_sets())


@functools.cache
def _aronhold_sets() -> tuple[tuple[QuadForm, ...], ...]:
    odd = odd_forms(3)
    n = len(odd)
    masks = _triple_masks(odd)
    full = (1 << n) - 1
    found: list[tuple[QuadForm, ...]] = []

    def extend(chosen: list[int], allowed: int) -> None:
        if len(chosen) == 7:
            candidate = tuple(odd[i] for i in chosen)
            if is_aronhold(candidate):
                found.append(candidate)
            return
        m = allowed
        while m:
            k = (m & -m).bit_length() - 1
            m &= m - 1
            nxt = allowed & ~((1 << (k + 1)) - 1)
            for a in chosen:
                nxt &= masks[a][k]
            extend(chosen + [k], nxt)

    for first in range(n):
        extend([first], full & ~((1 << (first + 1)) - 1))

    found.sort(key=lambda t: tuple(map(form_index, t)))
    return tuple(found)


def save_aronhold_cache(sets, path: str | Path) -> None:
    """Persist an enumeration as a JSON list of 7-element characteristic arrays."""
    from .formats import format_quadform

    payload = [[format_quadform(q) for q in s] for s in sets]
    Path(path).write_text(json.dumps(payload, indent=0), encoding="utf-8")


def load_aronhold_cache(path: str | Path):
    """Load a cached enumeration, revalidating every set."""
    from .formats import parse_quadform

    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    sets = [tuple(parse_quadform(s) for s in row) for row in payload]
    for s in sets:
        if not is_aronhold(s):
            raise ValueError(f"cache at {path} contains a non-Aronhold set")
    return sets


# ---------------------------------------------------------------------------
# Constructions.


def aronhold_to_fundamental(basis: AronholdBasis) -> FundamentalSystem:
    """Turn an Aronhold basis into a fundamental system (genus 3 mod 4 only).

    The last g+1 forms are translated by their own vector sum, and the total
    sum of the basis is appended as the final even form.
    """
    g = basis.g
    if g % 4 != 3:
        raise ValueError("construction requires genus congruent to 3 mod 4")
    v = vector_sum(basis.forms[g:])
    total = form_sum(basis.forms)
    out = list(basis.forms[:g])
    out.extend(add_vector(q, v) for q in basis.forms[g:])
    out.append(total)
    return FundamentalSystem(g, tuple(out))


def aronhold_conjugate(basis: AronholdBasis) -> AronholdBasis:
    """Swap an ordered genus-3 Aronhold basis to the one attached to the sum
    of its first three forms.

    Requires q1+q2+q3 even and distinct from the basis total; the operation
    is an involution and exchanges the two attached even forms.
    """
    if basis.g != 3:
        raise ValueError("conjugate construction is genus-3 only")
    q_s = basis.total()
    q_t = sum3(basis[0], basis[1], basis[2])
    if arf(q_t) != 0:
        raise ValueError("first three forms must sum to an even form")
    if q_t == q_s:
        raise ValueError("first three forms must not sum to the basis total")
    pair = lambda i, j: sum3(q_s, basis[i], basis[j])
    out = (pair(1, 2), pair(0, 2), pair(0, 1)) + tuple(basis.forms[3:])
    conj = AronholdBasis(3, out)
    assert conj.total() == q_t
    assert sum3(conj[0], conj[1], conj[2]) == q_s
    return conj


def ordered_basis(forms, q_t: QuadForm) -> AronholdBasis:
    """A genus-3 Aronhold set ordered with its first triple (in combination
    order) that sums to q_t in front.  Its 35 triples hit the 35 even forms
    other than its total, so any other q_t raises ValueError."""
    for triple in itertools.combinations(range(7), 3):
        if sum3(*(forms[i] for i in triple)) == q_t:
            rest = [i for i in range(7) if i not in triple]
            return AronholdBasis(3, tuple(forms[i] for i in (*triple, *rest)))
    raise ValueError("no three forms of the set sum to q_t")


@functools.cache
def basis_for_pair(q_s: QuadForm, q_t: QuadForm) -> AronholdBasis:
    """Deterministically pick an Aronhold basis with total q_s whose first
    three forms sum to q_t (genus 3); built once per pair and process.

    The pick is the first enumerated set with total q_s, in `ordered_basis`
    order for q_t.
    """
    first = _first_set_by_total().get(q_s)
    if first is None or q_t == q_s:
        raise ValueError("two distinct even genus-3 forms required")
    return ordered_basis(first, q_t)


@functools.cache
def _first_set_by_total() -> dict[QuadForm, tuple[QuadForm, ...]]:
    # every even genus-3 form is the total of some enumerated set
    first = {}
    for candidate in _aronhold_sets():
        first.setdefault(form_sum(candidate), candidate)
    return first


def weber_base_system(basis: AronholdBasis) -> FundamentalSystem:
    """Base fundamental system (q1, q2, q3, q567, q467, q457, q456, q_total)
    of an ordered genus-3 Aronhold basis."""
    if basis.g != 3:
        raise ValueError("genus-3 basis required")
    q = basis.forms
    trip = lambda i, j, k: sum3(q[i], q[j], q[k])
    return FundamentalSystem(
        3,
        (q[0], q[1], q[2], trip(4, 5, 6), trip(3, 5, 6), trip(3, 4, 6),
         trip(3, 4, 5), basis.total()),
    )


@dataclass(frozen=True)
class WeberFamily:
    """Four numerator/denominator pairs of fundamental systems whose first
    three slots balance: every odd form used appears twice on each side."""

    numerators: tuple[FundamentalSystem, ...]
    denominators: tuple[FundamentalSystem, ...]

    @property
    def q_s(self) -> QuadForm:
        return self.numerators[0].forms[-1]

    @property
    def q_t(self) -> QuadForm:
        return self.denominators[0].forms[-1]


def family_from_fundamental(base: FundamentalSystem) -> WeberFamily:
    """Derive the eight-system family of a genus-3 fundamental system.

    The denominator base replaces the first three slots by the pairwise
    combinations p_last + p_i + p_j and the last slot by p1+p2+p3; the other
    six systems are the slot-0..2 shifts of the two bases.
    """
    if base.g != 3:
        raise ValueError("genus-3 system required")
    p = base.forms
    q_t = sum3(p[0], p[1], p[2])
    if arf(q_t) != 0:
        raise ValueError("first three forms must sum to an even form")
    pij = lambda i, j: sum3(p[7], p[i], p[j])
    primed = FundamentalSystem(
        3, (pij(1, 2), pij(0, 2), pij(0, 1), p[3], p[4], p[5], p[6], q_t)
    )
    nums = [base] + [shift_system(base, i) for i in range(3)]
    dens = [primed] + [shift_system(primed, i) for i in range(3)]
    return WeberFamily(tuple(nums), tuple(dens))


def weber_systems(basis: AronholdBasis, q_t: QuadForm) -> WeberFamily:
    """Eight fundamental systems attached to an ordered Aronhold basis whose
    first three forms sum to q_t."""
    if basis.g != 3:
        raise ValueError("genus-3 basis required")
    if sum3(basis[0], basis[1], basis[2]) != q_t:
        raise ValueError("basis must be ordered with its first three forms summing to q_t")
    if q_t == basis.total():
        raise ValueError("target form must differ from the basis total")
    return family_from_fundamental(weber_base_system(basis))
