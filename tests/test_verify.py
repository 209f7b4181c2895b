import itertools
import math

import numpy as np
import pytest

from thetachar import (
    AronholdBasis,
    RiemannMatrix,
    TauRejectedError,
    ThetaEvalConfig,
    VerificationError,
    arf,
    basis_for_pair,
    bitangent_frame,
    det3,
    even_forms,
    family_for_pair,
    form_sum,
    iota,
    iota_value,
    jacobi_check,
    jacobian_nullwert,
    lift01,
    s_value,
    odd_forms,
    random_fundamental_system,
    random_tau,
    reference_family,
    reference_fundamental_system,
    shift_system,
    sign_transport,
    sum3,
    theta_null,
    validate_tau,
    weber_sign,
    weber_systems,
    weber_verify,
)
from thetachar.chars import FundamentalSystem, zero_form


def test_validate_tau_accepts_shipped(tau1, tau2):
    for tau in (tau1, tau2):
        check = validate_tau(tau)
        assert check.ok
        assert check.min_even_null > 1e-2


def test_validate_tau_rejects_diagonal():
    check = validate_tau(RiemannMatrix(1j * np.eye(3)))
    assert not check.ok
    assert check.vanishing is not None
    assert arf(check.vanishing) == 0
    assert check.min_even_null < 1e-12


def test_validate_tau_rejects_near_degenerate(tau1):
    # slide from the valid matrix toward the decomposable diagonal point;
    # close enough to it some even theta constant drops below threshold
    t = 1e-5
    entries = (1 - t) * (1j * np.eye(3)) + t * tau1.entries
    check = validate_tau(RiemannMatrix(entries))
    assert not check.ok


def test_validate_tau_genus_guard():
    with pytest.raises(ValueError):
        validate_tau(RiemannMatrix(np.array([[1j]])))


def test_random_tau_reproducible():
    a = random_tau(np.random.default_rng(5))
    b = random_tau(np.random.default_rng(5))
    assert np.array_equal(a.entries, b.entries)
    assert validate_tau(a).ok


def test_bitangent_frame_rows(tau1):
    frame = bitangent_frame(tau1)
    assert len(frame.beta) == 28
    for q, row in frame.beta.items():
        assert arf(q) == 1
        assert np.abs(row).max() > 1e-6
    frame2 = bitangent_frame(RiemannMatrix(tau1.entries), np.eye(3))
    q = odd_forms(3)[11]
    assert np.allclose(frame.beta[q], frame2.beta[q])


def test_bitangent_frame_rejects_bad_tau():
    with pytest.raises(TauRejectedError):
        bitangent_frame(RiemannMatrix(1j * np.eye(3)))


def test_det3_antisymmetry_and_errors(tau1):
    frame = bitangent_frame(tau1)
    qa, qb, qc = odd_forms(3)[:3]
    assert det3(frame, qa, qb, qc) == pytest.approx(-det3(frame, qb, qa, qc))
    with pytest.raises(ValueError):
        det3(frame, qa, qa, qc)
    with pytest.raises(ValueError):
        det3(frame, qa, qb, even_forms(3)[0])


def test_det3_proportional_to_gradient_determinant(tau1, rng):
    # with an arbitrary frame matrix the ratio det3 / nullwert is the
    # constant pi^3 det(omega1^-1) across all determinants
    omega1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    frame = bitangent_frame(tau1, omega1)
    expected = math.pi**3 * np.linalg.det(np.linalg.inv(omega1))
    for _ in range(8):
        picks = rng.choice(28, size=3, replace=False)
        qa, qb, qc = (odd_forms(3)[i] for i in picks)
        det = det3(frame, qa, qb, qc)
        nullwert = jacobian_nullwert([lift01(qa), lift01(qb), lift01(qc)], tau1)
        assert det / nullwert == pytest.approx(expected, rel=1e-9)


def test_jacobi_check_reference(tau1, tau2):
    res1 = jacobi_check(reference_fundamental_system(), tau1)
    assert res1.sign in (-1, 1)
    assert res1.residual < 1e-6
    res2 = jacobi_check(reference_fundamental_system(), tau2)
    assert res2.sign == res1.sign


def test_jacobi_check_swap_flips_sign(tau1):
    ref = reference_fundamental_system()
    swapped = FundamentalSystem(
        3, (ref[1], ref[0]) + ref.forms[2:]
    )
    a = jacobi_check(ref, tau1)
    b = jacobi_check(swapped, tau1)
    assert a.sign == -b.sign


def test_jacobi_check_random_systems(tau1, tau2, rng):
    for _ in range(10):
        system = random_fundamental_system(rng)
        r1 = jacobi_check(system, tau1)
        r2 = jacobi_check(system, tau2)
        assert r1.residual < 1e-6 and r2.residual < 1e-6
        assert r1.sign == r2.sign


def test_table_reads_equal_lookups_by_characteristic(tau1, tau2, rng):
    # s_value and the weber lhs index the theta table by form; the lookups
    # through integer lifts are the oracle, bit for bit
    systems = [reference_fundamental_system()]
    systems += [random_fundamental_system(rng) for _ in range(10)]
    evens = even_forms(3)
    for tau in (tau1, tau2):
        for system in systems:
            chars = [lift01(q) for q in system.forms]
            den = 1.0 + 0j
            for ch in chars[3:]:
                den *= theta_null(ch, tau)
            assert s_value(system, tau) == jacobian_nullwert(chars[:3], tau) / den
        q_s, q_t = evens[9], evens[27]
        lhs = (theta_null(lift01(q_s), tau) / theta_null(lift01(q_t), tau)) ** 4
        assert weber_verify(q_s, q_t, tau).lhs == lhs
    with pytest.raises(ValueError):
        s_value(systems[0], RiemannMatrix(1j * np.eye(2)))


def test_jacobi_check_tolerance_enforced(tau1):
    with pytest.raises(VerificationError):
        jacobi_check(reference_fundamental_system(), tau1, tol=1e-18)


def test_iota_reference_family_is_plus_one(tau1, tau2):
    fam = reference_family()
    assert iota(fam, tau1) == 1
    assert iota(fam, tau2) == 1
    assert abs(iota_value(fam, tau1) - 1) < 1e-6


def test_weber_sign_closed_form():
    evens = even_forms(3)
    q0 = zero_form(3)
    for q_s, q_t in itertools.combinations(evens[:9], 2):
        expected = -1 if arf(sum3(q0, q_s, q_t)) else 1
        assert weber_sign(q_s, q_t) == expected
        assert weber_sign(q_t, q_s) == weber_sign(q_s, q_t)
    with pytest.raises(ValueError):
        weber_sign(evens[0], evens[0])
    with pytest.raises(ValueError):
        weber_sign(evens[0], odd_forms(3)[0])


def test_sign_transport_reference_is_plus_one():
    assert sign_transport(reference_fundamental_system()) == 1


def test_iota_matches_transport_and_closed_form(tau1, aronhold_sets, rng):
    # numeric family product == exact transported parity == closed-form sign
    for k in rng.choice(len(aronhold_sets), size=10, replace=False):
        s = aronhold_sets[k]
        q_s = form_sum(s)
        triples = [
            t for t in itertools.combinations(range(7), 3)
            if sum3(*(s[i] for i in t)) != q_s
        ]
        t = triples[rng.integers(0, len(triples))]
        rest = [i for i in range(7) if i not in t]
        basis = AronholdBasis(3, tuple(s[i] for i in (*t, *rest)))
        q_t = sum3(basis[0], basis[1], basis[2])
        fam = weber_systems(basis, q_t)
        numeric = iota(fam, tau1)
        transported = sign_transport(fam.numerators[0])
        assert numeric == transported == weber_sign(q_s, q_t)


def test_weber_verify_basic_pairs(tau1):
    evens = even_forms(3)
    frame = bitangent_frame(tau1)
    for q_s, q_t in [(evens[0], evens[1]), (evens[5], evens[12]), (evens[30], evens[2])]:
        res = weber_verify(q_s, q_t, tau1, frame=frame)
        assert res.relative_error < 1e-6
        assert res.sign == weber_sign(q_s, q_t)


def test_weber_verify_swap_inverts(tau1):
    evens = even_forms(3)
    frame = bitangent_frame(tau1)
    a = weber_verify(evens[3], evens[17], tau1, frame=frame)
    b = weber_verify(evens[17], evens[3], tau1, frame=frame)
    assert a.lhs * b.lhs == pytest.approx(1.0, rel=1e-8)
    assert a.rhs * b.rhs == pytest.approx(1.0, rel=1e-8)


def test_weber_verify_invariances(tau1, aronhold_sets, rng):
    evens = even_forms(3)
    q_s, q_t = evens[7], evens[22]
    base = weber_verify(q_s, q_t, tau1)

    # rescaling any single bitangent row cancels
    frame = bitangent_frame(tau1)
    scaled = frame.rescaled(odd_forms(3)[13], 2.7 - 0.4j)
    res = weber_verify(q_s, q_t, tau1, frame=scaled)
    assert res.rhs == pytest.approx(base.rhs, rel=1e-8)

    # a different invertible frame matrix cancels
    omega1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    res = weber_verify(q_s, q_t, tau1, frame=bitangent_frame(tau1, omega1))
    assert res.rhs == pytest.approx(base.rhs, rel=1e-8)
    assert res.lhs == pytest.approx(base.lhs, rel=1e-12)

    # a different admissible basis gives the same quotient
    matches = [
        s for s in aronhold_sets
        if form_sum(s) == q_s and s != tuple(basis_for_pair(q_s, q_t).forms)
    ]
    fallback = None
    for s in matches:
        for t in itertools.combinations(range(7), 3):
            if sum3(*(s[i] for i in t)) == q_t:
                rest = [i for i in range(7) if i not in t]
                fallback = AronholdBasis(3, tuple(s[i] for i in (*t, *rest)))
                break
        if fallback is not None:
            break
    assert fallback is not None
    res = weber_verify(q_s, q_t, tau1, basis=fallback)
    assert res.rhs == pytest.approx(base.rhs, rel=1e-8)


def test_weber_verify_second_tau(tau2):
    evens = even_forms(3)
    res = weber_verify(evens[9], evens[27], tau2)
    assert res.relative_error < 1e-6


def test_weber_verify_input_errors(tau1):
    evens = even_forms(3)
    with pytest.raises(ValueError):
        weber_verify(evens[0], evens[0], tau1)
    with pytest.raises(ValueError):
        weber_verify(odd_forms(3)[0], evens[0], tau1)
    with pytest.raises(ValueError):
        weber_verify(evens[0], evens[1], tau1,
                     basis=basis_for_pair(evens[0], evens[2]))


def test_family_for_pair_shape():
    evens = even_forms(3)
    fam = family_for_pair(evens[4], evens[8])
    assert fam.q_s == evens[4]
    assert fam.q_t == evens[8]
    assert len(fam.numerators) == len(fam.denominators) == 4


def test_shifted_systems_share_jacobi_sign_structure(tau1):
    # shifts keep a valid system; their quotients still land on +-1
    ref = reference_fundamental_system()
    for i in range(3):
        res = jacobi_check(shift_system(ref, i), tau1)
        assert res.residual < 1e-6


def test_theta_table_built_once_per_instance_and_config(tau1, request):
    tau = RiemannMatrix(tau1.entries)
    assert validate_tau(tau).ok
    request.getfixturevalue("no_lattice")  # from here on a series sum fails
    frame = bitangent_frame(tau)
    assert jacobi_check(reference_fundamental_system(), tau).residual < 1e-6
    assert abs(iota_value(reference_family(), tau) - 1) < 1e-6
    evens = even_forms(3)
    assert weber_verify(evens[3], evens[17], tau, frame=frame).relative_error < 1e-6
    # the table belongs to the instance and the config, not to tau's value
    with pytest.raises(AssertionError, match="lattice"):
        validate_tau(RiemannMatrix(tau1.entries))
    with pytest.raises(AssertionError, match="lattice"):
        validate_tau(tau, ThetaEvalConfig(radius=8))
