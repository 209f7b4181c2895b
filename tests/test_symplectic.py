import functools
import itertools

import numpy as np
import pytest

from thetachar import (
    F2Vector,
    IntCharacteristic,
    NotSymplecticError,
    SymplecticMapF2,
    SymplecticMapZ,
    act_f2,
    act_f2_vec,
    act_z,
    all_forms,
    arf,
    diff_forms,
    evaluate_form,
    find_sigma,
    is_azygetic,
    lift01,
    lift_sp,
    pairing,
    phi_transform,
    random_fundamental_system,
    random_symplectic_f2,
    random_symplectic_z,
    reference_fundamental_system,
)
from thetachar import symplectic
from thetachar.chars import add_vector, basis_vector
from thetachar.symplectic import transvection_factors


def all_vectors(g):
    return [
        F2Vector(g, bits[:g], bits[g:])
        for bits in itertools.product((0, 1), repeat=2 * g)
    ]


def test_identity_and_rejection():
    ident = SymplecticMapF2.identity(3)
    q = all_forms(3)[13]
    assert act_f2(ident, q) == q
    bad = np.eye(6, dtype=np.uint8)
    bad[0, 0] = 0
    with pytest.raises(NotSymplecticError):
        SymplecticMapF2(3, bad)


def _identity_with(row, col, value):
    m = np.eye(6, dtype=np.int64)
    m[row, col] = value
    return m


@pytest.mark.parametrize("cls, matrix, accepted", [
    # a[0,0] = 3 is 1 mod 2 but breaks a^T d - c^T b = I over Z
    (SymplecticMapF2, _identity_with(0, 0, 3), True),
    (SymplecticMapZ, _identity_with(0, 0, 3), False),
    # c = e_0 e_1^T makes a^T c asymmetric and keeps the other two relations
    (SymplecticMapF2, _identity_with(3, 1, 1), False),
    (SymplecticMapZ, _identity_with(3, 1, 1), False),
    # entries that are not integers are rejected, not truncated to the identity
    (SymplecticMapF2, 1.5 * np.eye(6), ValueError),
    (SymplecticMapZ, 1.7 * np.eye(6), ValueError),
])
def test_symplectic_check_in_both_rings(cls, matrix, accepted):
    # accepted: True, False (not symplectic), or the error of a malformed matrix
    if accepted is True:
        assert cls(3, matrix) == cls.identity(3)
    else:
        error = NotSymplecticError if accepted is False else accepted
        with pytest.raises(error) as info:
            cls(3, matrix)
        assert info.type is error


def test_transvections_are_symplectic_and_involutive(rng):
    for _ in range(20):
        bits = rng.integers(0, 2, 6)
        if not bits.any():
            continue
        v = F2Vector(3, tuple(bits[:3]), tuple(bits[3:]))
        t = SymplecticMapF2.transvection(v)
        assert (t.compose(t).matrix == np.eye(6, dtype=np.uint8)).all()


@pytest.mark.parametrize("g", [1, 2, 3])
def test_transvection_moves_form_by_one_xor(g):
    # T(v) sends q to q + v when q(v) = 0 and fixes q otherwise
    for v in all_vectors(g)[1:]:
        t = SymplecticMapF2.transvection(v)
        for q in all_forms(g):
            expected = q if evaluate_form(q, v) else add_vector(q, v)
            assert act_f2(t, q) == expected


def test_random_fundamental_system_is_image_under_random_map():
    ref = reference_fundamental_system()
    for seed in range(50):
        sigma = random_symplectic_f2(3, np.random.default_rng(seed))
        system = random_fundamental_system(np.random.default_rng(seed))
        assert system.forms == tuple(act_f2(sigma, q) for q in ref.forms)


def test_difference_basis_gram_is_ones_minus_identity(rng):
    # the fact find_sigma inverts by: U^T J U = 1 - I for the differences
    # with the last form, and (1 - I)^2 = I mod 2 at every even size
    ones_minus_identity = 1 - np.eye(6, dtype=int)
    systems = [reference_fundamental_system()]
    systems += [random_fundamental_system(rng) for _ in range(30)]
    for system in systems:
        diffs = [diff_forms(q, system.forms[-1]) for q in system.forms[:6]]
        gram = np.array([[pairing(u, v) for v in diffs] for u in diffs])
        assert (gram == ones_minus_identity).all()
    for n in (2, 4, 6, 8, 10):
        m = 1 - np.eye(n, dtype=int)
        assert ((m @ m) % 2 == np.eye(n, dtype=int)).all()


def test_each_returned_map_is_checked_once(monkeypatch, rng):
    calls = []
    check = symplectic._is_symplectic
    monkeypatch.setattr(symplectic, "_is_symplectic",
                        lambda *args: calls.append(1) or check(*args))
    sigma = random_symplectic_f2(3, rng)
    random_symplectic_z(3, rng)
    target = random_fundamental_system(rng)
    assert len(calls) == 2
    find_sigma(reference_fundamental_system(), target)
    lift_sp(sigma)
    assert len(calls) == 4


def test_action_is_pullback(rng):
    vectors = all_vectors(3)
    for _ in range(5):
        sigma = random_symplectic_f2(3, rng)
        for q in all_forms(3):
            sq = act_f2(sigma, q)
            assert arf(sq) == arf(q)
            for v in vectors:
                assert evaluate_form(sq, act_f2_vec(sigma, v)) == evaluate_form(q, v)


def test_action_is_compatible_with_translation(rng):
    forms = all_forms(3)
    vectors = all_vectors(3)
    for _ in range(200):
        sigma = random_symplectic_f2(3, rng)
        q = forms[rng.integers(0, 64)]
        v = vectors[rng.integers(0, 64)]
        lhs = act_f2(sigma, add_vector(q, v))
        rhs = add_vector(act_f2(sigma, q), act_f2_vec(sigma, v))
        assert lhs == rhs


def test_action_preserves_azygetic(rng):
    ref = reference_fundamental_system()
    for _ in range(10):
        sigma = random_symplectic_f2(3, rng)
        image = [act_f2(sigma, q) for q in ref.forms]
        assert is_azygetic(image)


def test_find_sigma_maps_elementwise(rng):
    ref = reference_fundamental_system()
    sigma = find_sigma(ref, ref)
    assert all(act_f2(sigma, q) == q for q in ref.forms)
    for _ in range(10):
        target = random_fundamental_system(rng)
        sigma = find_sigma(ref, target)
        assert all(
            act_f2(sigma, n) == p for n, p in zip(ref.forms, target.forms)
        )
        # and between two random systems
        other = random_fundamental_system(rng)
        sigma2 = find_sigma(target, other)
        assert all(
            act_f2(sigma2, p) == o for p, o in zip(target.forms, other.forms)
        )


def test_act_z_identity_and_shift(rng):
    ident = SymplecticMapZ.identity(3)
    ch = IntCharacteristic(3, (1, 0, 1), (0, 1, 1))
    assert act_z(ident, ch) == ch
    for _ in range(20):
        sz = random_symplectic_z(3, rng)
        a, b, c, d = sz.blocks()
        image = act_z(sz, IntCharacteristic(3, (0, 0, 0), (0, 0, 0)))
        assert image.eps == tuple(int(x) for x in np.diag(c @ d.T))
        assert image.eps_prime == tuple(int(x) for x in np.diag(a @ b.T))


def test_act_z_reduces_to_f2_action(rng):
    forms = all_forms(3)
    for _ in range(100):
        sz = random_symplectic_z(3, rng)
        q = forms[rng.integers(0, 64)]
        assert act_z(sz, lift01(q)).reduce() == act_f2(sz.reduce(), q)


def test_phi_identity_and_zero_characteristic(rng):
    ident = SymplecticMapZ.identity(3)
    for q in (IntCharacteristic(3, (1, 1, 1), (1, 0, 1)),
              IntCharacteristic(3, (0, 1, 0), (1, 1, 0))):
        assert phi_transform(q, ident) == 0
    zero = IntCharacteristic(3, (0, 0, 0), (0, 0, 0))
    for _ in range(50):
        sz = random_symplectic_z(3, rng)
        assert phi_transform(zero, sz) == 0


def test_phi_denominator_divides_eight(rng):
    for _ in range(100):
        sz = random_symplectic_z(3, rng)
        q = IntCharacteristic(3, tuple(rng.integers(-3, 4, 3)),
                              tuple(rng.integers(-3, 4, 3)))
        value = phi_transform(q, sz)
        assert 8 % value.denominator == 0


def _char_sum(a, b):
    return IntCharacteristic(
        a.g,
        tuple(x + y for x, y in zip(a.eps, b.eps)),
        tuple(x + y for x, y in zip(a.eps_prime, b.eps_prime)),
    )


def test_phi_parity_lemma_general(rng):
    # 8 phi_[q](sigma) == arf(sigma.[0] + sigma.[q] + [0]) + arf(q)  mod 2
    zero = IntCharacteristic(3, (0, 0, 0), (0, 0, 0))
    forms = all_forms(3)
    for _ in range(300):
        sz = random_symplectic_z(3, rng)
        q = forms[rng.integers(0, 64)]
        ch = lift01(q)
        delta = 8 * (phi_transform(ch, sz) - phi_transform(zero, sz))
        assert delta.denominator == 1
        img = _char_sum(act_z(sz, zero), act_z(sz, ch))
        assert int(delta) % 2 == (arf(img.reduce()) + arf(q)) % 2


def test_transvection_factors_reconstruct(rng):
    for _ in range(25):
        sigma = random_symplectic_f2(3, rng)
        product = SymplecticMapF2.identity(3)
        for v in transvection_factors(sigma):
            product = product @ SymplecticMapF2.transvection(v)
        assert product == sigma


def test_lift_sp_roundtrip(rng):
    assert lift_sp(SymplecticMapF2.identity(3)) == SymplecticMapZ.identity(3)
    for _ in range(100):
        sigma = random_symplectic_f2(3, rng)
        lifted = lift_sp(sigma)
        assert lifted.reduce() == sigma
        # the product of checked integer transvections, factor by factor
        factors = [SymplecticMapZ.transvection(v) for v in transvection_factors(sigma)]
        assert lifted == functools.reduce(SymplecticMapZ.compose, factors,
                                          SymplecticMapZ.identity(3))


def test_basis_transvection_01_lift_is_symplectic():
    # for basis-direction transvections the entrywise 0/1 lift of the F2
    # matrix already satisfies the integer block relations
    for g in (1, 2, 3):
        for i in range(g):
            for half in ("e", "f"):
                v = basis_vector(g, i, half)
                f2_matrix = SymplecticMapF2.transvection(v).matrix
                SymplecticMapZ(g, f2_matrix.astype(object))


def test_random_symplectic_z_entries_are_exact(rng):
    sz = SymplecticMapZ.identity(3)
    for _ in range(30):
        sz = sz @ random_symplectic_z(3, rng, n_factors=3)
    assert all(isinstance(int(x), int) for x in sz.matrix.ravel())
    assert sz.reduce().g == 3


def test_genus_mismatch_errors(rng):
    sigma = SymplecticMapF2.identity(2)
    with pytest.raises(ValueError):
        act_f2(sigma, all_forms(3)[0])
    with pytest.raises(ValueError):
        act_f2_vec(sigma, F2Vector(3, (0, 0, 0), (0, 0, 0)))
