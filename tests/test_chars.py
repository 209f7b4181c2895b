import dataclasses
import itertools

import numpy as np
import pytest

from thetachar import (
    F2Vector,
    FundamentalSystem,
    GenusMismatchError,
    IntCharacteristic,
    QuadForm,
    add_vector,
    all_forms,
    arf,
    arf_sum3,
    diff_forms,
    eval_at_formsum,
    evaluate_form,
    even_count,
    even_forms,
    is_azygetic,
    is_fundamental,
    lift01,
    odd_count,
    odd_forms,
    pairing,
    reference_fundamental_system,
    shift_system,
    sum3,
    zero_form,
    zero_vector,
)
from thetachar.chars import basis_vector, form_from_index, form_index


def vec(lam, mu):
    return F2Vector(len(lam), tuple(map(int, lam)), tuple(map(int, mu)))


def qf(eps, epsp):
    return QuadForm(len(eps), tuple(map(int, eps)), tuple(map(int, epsp)))


def _halves(g):
    # every (first half, second half) pair of g-bit tuples
    bits = list(itertools.product((0, 1), repeat=g))
    return list(itertools.product(bits, bits))


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y)) % 2


def _xor(x, y):
    return tuple((a + b) % 2 for a, b in zip(x, y))


def test_operations_match_coordinate_definitions():
    # oracle: the coordinate formulas on plain tuples, over all inputs at g <= 2
    for g in (1, 2):
        vectors = [(lam, mu, F2Vector(g, lam, mu)) for lam, mu in _halves(g)]
        forms = [(eps, epsp, QuadForm(g, eps, epsp)) for eps, epsp in _halves(g)]
        for lam, mu, v in vectors:
            for lam2, mu2, v2 in vectors:
                assert pairing(v, v2) == (_dot(lam, mu2) + _dot(mu, lam2)) % 2
        for eps, epsp, q in forms:
            assert arf(q) == _dot(eps, epsp)
            for lam, mu, v in vectors:
                value = (_dot(eps, lam) + _dot(epsp, mu) + _dot(lam, mu)) % 2
                assert evaluate_form(q, v) == value
                assert add_vector(q, v) == QuadForm(g, _xor(eps, mu), _xor(epsp, lam))
            for eps2, epsp2, q2 in forms:
                assert diff_forms(q, q2) == F2Vector(g, _xor(epsp, epsp2), _xor(eps, eps2))


def test_constructor_accessor_roundtrip():
    for g in (1, 2, 3):
        for lam, mu in _halves(g):
            v = F2Vector(g, lam, mu)
            assert (v.g, v.lam, v.mu) == (g, lam, mu)
            assert repr(v) == f"F2Vector(g={g}, lam={lam}, mu={mu})"
            same = F2Vector(g, list(lam), np.array(mu))
            assert same == v and hash(same) == hash(v)
        for eps, epsp in _halves(g):
            q = QuadForm(g, eps, epsp)
            assert (q.g, q.eps, q.eps_prime) == (g, eps, epsp)
            assert repr(q) == f"QuadForm(g={g}, eps={eps}, eps_prime={epsp})"
            same = QuadForm(g, np.array(eps), list(epsp))
            assert same == q and hash(same) == hash(q)
    # equal bits in a form and a vector do not make them equal
    assert QuadForm(2, (1, 0), (0, 1)) != F2Vector(2, (0, 1), (1, 0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        zero_form(3).g = 2


def test_pairing_symplectic_basis():
    for g in (1, 2, 3):
        for i in range(g):
            e_i = basis_vector(g, i, "e")
            f_i = basis_vector(g, i, "f")
            assert pairing(e_i, f_i) == 1
            for j in range(g):
                assert pairing(e_i, basis_vector(g, j, "e")) == 0
                assert pairing(f_i, basis_vector(g, j, "f")) == 0
                if j != i:
                    assert pairing(e_i, basis_vector(g, j, "f")) == 0


def test_pairing_worked_example():
    assert pairing(vec("110", "010"), vec("011", "001")) == 1


def test_pairing_alternating_and_bilinear(rng):
    for _ in range(200):
        u = vec(rng.integers(0, 2, 3), rng.integers(0, 2, 3))
        v = vec(rng.integers(0, 2, 3), rng.integers(0, 2, 3))
        w = vec(rng.integers(0, 2, 3), rng.integers(0, 2, 3))
        assert pairing(u, u) == 0
        assert pairing(u, v) == pairing(v, u)
        assert pairing(u + v, w) == (pairing(u, w) + pairing(v, w)) % 2


def test_pairing_nondegenerate():
    g = 2
    vectors = [
        vec(bits[:g], bits[g:])
        for bits in itertools.product((0, 1), repeat=2 * g)
    ]
    for u in vectors:
        if all(pairing(u, v) == 0 for v in vectors):
            assert u.is_zero()


def test_pairing_genus_mismatch():
    with pytest.raises(GenusMismatchError):
        pairing(vec("10", "00"), vec("100", "000"))


def test_evaluate_form_examples():
    q0 = zero_form(3)
    assert evaluate_form(q0, vec("110", "010")) == 1
    assert evaluate_form(qf("100", "100"), basis_vector(3, 0, "e")) == 1
    assert evaluate_form(q0, zero_vector(3)) == 0


def test_characteristic_bits_are_form_values():
    # eps_i = q(e_i), eps'_i = q(f_i)
    for q in all_forms(2):
        for i in range(2):
            assert q.eps[i] == evaluate_form(q, basis_vector(2, i, "e"))
            assert q.eps_prime[i] == evaluate_form(q, basis_vector(2, i, "f"))


def test_quadratic_relation_exhaustive_small_genus():
    for g in (1, 2):
        vectors = [
            F2Vector(g, bits[:g], bits[g:])
            for bits in itertools.product((0, 1), repeat=2 * g)
        ]
        for q in all_forms(g):
            for u in vectors:
                for v in vectors:
                    lhs = evaluate_form(q, u + v)
                    rhs = (evaluate_form(q, u) + evaluate_form(q, v) + pairing(u, v)) % 2
                    assert lhs == rhs


def test_quadratic_relation_sampled_genus3(rng):
    forms = all_forms(3)
    for _ in range(500):
        q = forms[rng.integers(0, 64)]
        u = vec(rng.integers(0, 2, 3), rng.integers(0, 2, 3))
        v = vec(rng.integers(0, 2, 3), rng.integers(0, 2, 3))
        assert evaluate_form(q, u + v) == (
            evaluate_form(q, u) + evaluate_form(q, v) + pairing(u, v)
        ) % 2


def test_arf_examples_and_counts():
    assert arf(zero_form(3)) == 0
    assert arf(qf("111", "111")) == 1
    for g in (1, 2, 3):
        assert len(even_forms(g)) == even_count(g)
        assert len(odd_forms(g)) == odd_count(g)
        assert even_count(g) + odd_count(g) == 4**g


def test_add_vector_coordinate_rule(rng):
    # [0;0] + (lam, mu) = [mu; lam]
    for _ in range(50):
        lam = tuple(int(b) for b in rng.integers(0, 2, 3))
        mu = tuple(int(b) for b in rng.integers(0, 2, 3))
        q = add_vector(zero_form(3), F2Vector(3, lam, mu))
        assert q.eps == mu and q.eps_prime == lam


def test_add_diff_are_inverse_torsor_ops():
    forms = all_forms(2)
    vectors = [
        F2Vector(2, bits[:2], bits[2:])
        for bits in itertools.product((0, 1), repeat=4)
    ]
    for q in forms:
        assert diff_forms(q, q).is_zero()
        for v in vectors:
            assert diff_forms(add_vector(q, v), q) == v
        for q2 in forms:
            assert add_vector(q2, diff_forms(q, q2)) == q


def test_diff_forms_defining_property(rng):
    # <q + q2, u> = q(u) + q2(u) for all u
    forms = all_forms(3)
    for _ in range(200):
        q = forms[rng.integers(0, 64)]
        q2 = forms[rng.integers(0, 64)]
        v = diff_forms(q, q2)
        u = vec(rng.integers(0, 2, 3), rng.integers(0, 2, 3))
        assert pairing(v, u) == (evaluate_form(q, u) + evaluate_form(q2, u)) % 2


def test_sum3_is_componentwise_xor():
    ref = reference_fundamental_system()
    total = sum3(ref[0], ref[1], ref[2])
    # frozen by direct XOR of the reference characteristics
    assert total == qf("111", "101")
    assert sum3(ref[0], ref[0], ref[1]) == ref[1]


def test_composition_law_identities(rng):
    forms = all_forms(3)
    for _ in range(3000):
        q1, q2, q3 = (forms[i] for i in rng.integers(0, 64, 3))
        assert arf_sum3(q1, q2, q3) == arf(sum3(q1, q2, q3))
        assert eval_at_formsum(q1, q2, q3) == (arf_sum3(q1, q2, q3) + arf(q1)) % 2
    q = forms[17]
    assert arf_sum3(q, q, q) == arf(q)
    assert eval_at_formsum(q, q, q) == 0


def test_is_azygetic_basics(rng):
    ref = reference_fundamental_system()
    assert is_azygetic(ref.forms)
    repeated = (ref[0], ref[0], ref[1], ref[2])
    assert not is_azygetic(repeated)
    with pytest.raises(ValueError):
        is_azygetic(ref.forms[:2])


def test_is_azygetic_reordering_invariance(rng):
    ref = list(reference_fundamental_system().forms)
    for _ in range(20):
        perm = list(rng.permutation(8))
        assert is_azygetic([ref[i] for i in perm])


def test_is_fundamental_parity_pattern():
    ref = reference_fundamental_system()
    assert is_fundamental(ref.forms)
    swapped = (ref[3],) + ref.forms[1:3] + (ref[0],) + ref.forms[4:]
    assert not is_fundamental(swapped)
    with pytest.raises(ValueError):
        FundamentalSystem(3, swapped)


def test_shift_system_involution_and_fixed_slots():
    ref = reference_fundamental_system()
    for i in range(3):
        shifted = shift_system(ref, i)
        assert is_fundamental(shifted.forms)
        assert shifted[i] == ref[i]
        assert shifted[-1] == ref[-1]
        assert shift_system(shifted, i).forms == ref.forms
    with pytest.raises(ValueError):
        shift_system(ref, 3)
    with pytest.raises(ValueError):
        shift_system(ref, -1)


def test_form_index_roundtrip():
    for g in (1, 2, 3):
        for idx, q in enumerate(all_forms(g)):
            assert form_index(q) == idx
            assert form_from_index(g, idx) == q
    with pytest.raises(ValueError):
        form_from_index(3, 64)


def test_int_characteristic_reduce():
    ch = IntCharacteristic(3, (3, -1, 2), (0, 5, -2))
    assert ch.reduce() == qf("110", "010")
    q = qf("101", "011")
    assert lift01(q).reduce() == q
    assert all(b in (0, 1) for b in lift01(q).eps + lift01(q).eps_prime)


def test_bit_validation():
    with pytest.raises(ValueError):
        QuadForm(3, (1, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        QuadForm(3, (1, 0, 2), (0, 0, 0))
    with pytest.raises(ValueError):
        F2Vector(0, (), ())
    with pytest.raises(ValueError):
        F2Vector(2, (0, 1), (0, 2))
    with pytest.raises(ValueError):
        F2Vector(2, (0, 1), (0,))
