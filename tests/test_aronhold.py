import collections
import itertools

import pytest

from thetachar import (
    AronholdBasis,
    aronhold_conjugate,
    aronhold_to_fundamental,
    arf,
    basis_for_pair,
    enumerate_aronhold_sets,
    even_forms,
    family_from_fundamental,
    form_sum,
    is_aronhold,
    is_azygetic,
    is_fundamental,
    odd_forms,
    reference_fundamental_system,
    sum3,
    vector_sum,
    weber_systems,
)
from thetachar import aronhold
from thetachar.aronhold import load_aronhold_cache, save_aronhold_cache, weber_base_system
from thetachar.chars import QuadForm


def qf(eps, epsp):
    return QuadForm(len(eps), tuple(map(int, eps)), tuple(map(int, epsp)))


def test_enumeration_count_and_determinism(aronhold_sets):
    assert len(aronhold_sets) == 288
    assert aronhold_sets == enumerate_aronhold_sets()


def test_every_enumerated_set_is_azygetic(aronhold_sets):
    for s in aronhold_sets:
        assert is_azygetic(s)


def test_is_aronhold_on_witness_and_perturbation(aronhold_sets):
    witness = aronhold_sets[0]
    assert is_aronhold(witness)
    outside = next(q for q in odd_forms(3) if q not in witness)
    assert not is_aronhold(witness[:6] + (outside,))


def test_is_aronhold_input_validation(aronhold_sets):
    with pytest.raises(ValueError):
        is_aronhold(aronhold_sets[0][:5])
    dup = aronhold_sets[0][:6] + (aronhold_sets[0][0],)
    with pytest.raises(ValueError):
        is_aronhold(dup)


def test_all_members_odd(aronhold_sets):
    for s in aronhold_sets[:50]:
        assert all(arf(q) == 1 for q in s)


def test_totals_cover_every_even_form(aronhold_sets):
    counts = collections.Counter(form_sum(s) for s in aronhold_sets)
    assert len(counts) == 36
    assert set(counts.values()) == {288 // 36}


def test_cache_roundtrip(tmp_path, aronhold_sets):
    path = tmp_path / "cache.json"
    save_aronhold_cache(aronhold_sets, path)
    loaded = load_aronhold_cache(path)
    assert loaded == aronhold_sets
    # corrupting an entry must be caught on reload
    text = path.read_text().replace("[1 0 0; 1 0 0]", "[1 0 0; 0 1 0]", 1)
    path.write_text(text)
    with pytest.raises(ValueError):
        load_aronhold_cache(path)


def test_form_and_vector_sum_parity_checks(aronhold_sets):
    s = aronhold_sets[0]
    with pytest.raises(ValueError):
        form_sum(s[:4])
    with pytest.raises(ValueError):
        vector_sum(s[:3])


def test_aronhold_to_fundamental_structure(aronhold_sets):
    for s in aronhold_sets[:25]:
        basis = AronholdBasis(3, s)
        fs = aronhold_to_fundamental(basis)
        assert is_fundamental(fs.forms)
        assert fs.forms[:3] == s[:3]
        assert fs.forms[-1] == basis.total()


def test_aronhold_to_fundamental_genus_restriction(aronhold_sets):
    basis = AronholdBasis(3, aronhold_sets[0])
    fake = object.__new__(AronholdBasis)
    object.__setattr__(fake, "g", 5)
    object.__setattr__(fake, "forms", basis.forms)
    with pytest.raises(ValueError):
        aronhold_to_fundamental(fake)


def _ordered_basis(aronhold_sets, k=0):
    s = aronhold_sets[k]
    q_s = form_sum(s)
    for triple in itertools.combinations(range(7), 3):
        q_t = sum3(*(s[i] for i in triple))
        if arf(q_t) == 0 and q_t != q_s:
            rest = [i for i in range(7) if i not in triple]
            return AronholdBasis(3, tuple(s[i] for i in (*triple, *rest)))
    raise AssertionError("no admissible ordering found")


def test_aronhold_conjugate_involution(aronhold_sets):
    for k in (0, 17, 101):
        basis = _ordered_basis(aronhold_sets, k)
        conj = aronhold_conjugate(basis)
        assert is_aronhold(conj.forms)
        assert conj.total() == sum3(basis[0], basis[1], basis[2])
        assert sum3(conj[0], conj[1], conj[2]) == basis.total()
        assert aronhold_conjugate(conj).forms == basis.forms


def test_basis_for_pair_contract(aronhold_sets):
    evens = even_forms(3)
    for q_s, q_t in [(evens[0], evens[1]), (evens[10], evens[3]), (evens[35], evens[0])]:
        basis = basis_for_pair(q_s, q_t)
        assert basis.total() == q_s
        assert sum3(basis[0], basis[1], basis[2]) == q_t
    with pytest.raises(ValueError):
        basis_for_pair(evens[0], evens[0])
    with pytest.raises(ValueError):
        basis_for_pair(odd_forms(3)[0], evens[0])


def test_basis_for_pair_is_first_set_first_triple(aronhold_sets):
    # oracle: a scan on (eps, eps') tuples for all 1260 ordered even pairs
    def xor(forms):
        bits = [q.eps + q.eps_prime for q in forms]
        return tuple(sum(col) % 2 for col in zip(*bits))

    first_with_total = {}
    for s in aronhold_sets:
        first_with_total.setdefault(xor(s), s)
    evens = even_forms(3)
    pairs = [(q_s, q_t) for q_s in evens for q_t in evens if q_s != q_t]
    assert len(pairs) == 1260
    for q_s, q_t in pairs:
        s = first_with_total[q_s.eps + q_s.eps_prime]
        triple = next(t for t in itertools.combinations(range(7), 3)
                      if xor(s[i] for i in t) == q_t.eps + q_t.eps_prime)
        order = [s[i] for i in triple] + [s[i] for i in range(7) if i not in triple]
        assert basis_for_pair(q_s, q_t).forms == tuple(order)


def test_basis_for_pair_validated_once(monkeypatch):
    evens = even_forms(3)
    first = basis_for_pair(evens[5], evens[20])
    calls = 0
    check = aronhold.is_aronhold

    def counting(forms):
        nonlocal calls
        calls += 1
        return check(forms)

    monkeypatch.setattr(aronhold, "is_aronhold", counting)
    assert basis_for_pair(evens[5], evens[20]) == first
    assert calls == 0


def test_weber_systems_explicit_slots(aronhold_sets):
    basis = _ordered_basis(aronhold_sets)
    q_s = basis.total()
    q_t = sum3(basis[0], basis[1], basis[2])
    fam = weber_systems(basis, q_t)
    base = weber_base_system(basis)
    p = base.forms
    pij = lambda i, j: sum3(p[7], p[i], p[j])

    assert fam.numerators[0].forms == p
    # numerator system from the slot-0 shift
    assert fam.numerators[1].forms == (
        p[0], pij(0, 1), pij(0, 2), pij(0, 3), pij(0, 4), pij(0, 5), pij(0, 6), p[7]
    )
    # denominator system from the slot-2 shift
    assert fam.denominators[3].forms == (
        p[1], p[0], pij(0, 1), pij(2, 3), pij(2, 4), pij(2, 5), pij(2, 6), q_t
    )
    assert fam.q_s == q_s and fam.q_t == q_t
    for system in fam.numerators + fam.denominators:
        assert is_fundamental(system.forms)


def test_weber_family_slot_multiset_balance(aronhold_sets):
    basis = _ordered_basis(aronhold_sets)
    fam = weber_systems(basis, sum3(basis[0], basis[1], basis[2]))
    num_slots = collections.Counter(
        q for system in fam.numerators for q in system.forms[:3]
    )
    den_slots = collections.Counter(
        q for system in fam.denominators for q in system.forms[:3]
    )
    assert num_slots == den_slots
    assert set(num_slots.values()) == {2}
    assert len(num_slots) == 6


def test_reference_family_matches_known_display():
    fam = family_from_fundamental(reference_fundamental_system())
    expected_primed = (
        qf("011", "001"),
        qf("101", "011"),
        qf("110", "010"),
        qf("100", "000"),
        qf("010", "100"),
        qf("001", "110"),
        qf("000", "111"),
        qf("111", "101"),
    )
    assert fam.denominators[0].forms == expected_primed


def test_weber_systems_rejects_bad_order(aronhold_sets):
    basis = _ordered_basis(aronhold_sets)
    wrong_target = basis.total()
    with pytest.raises(ValueError):
        weber_systems(basis, wrong_target)
