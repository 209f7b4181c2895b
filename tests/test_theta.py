import cmath
import importlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from thetachar import (
    IntCharacteristic,
    QuadForm,
    RiemannMatrix,
    TauRejectedError,
    ThetaEvalConfig,
    all_forms,
    arf,
    auto_radius,
    even_forms,
    jacobian_nullwert,
    lift01,
    odd_forms,
    theta,
    theta_grad,
    theta_null,
    theta_table,
    validate_tau,
)
from thetachar.theta import lattice_fits

theta_mod = importlib.import_module("thetachar.theta")


def direct_theta_g1(eps, epsp, z, tau, radius=30):
    """Independent scalar-series oracle for genus 1."""
    total = 0j
    for n in range(-radius, radius + 1):
        c = n + eps / 2
        total += cmath.exp(1j * math.pi * c * c * tau + 2j * math.pi * c * (z + epsp / 2))
    return total


def ch(eps, epsp):
    return IntCharacteristic(len(eps), tuple(eps), tuple(epsp))


TAU_I = RiemannMatrix(np.array([[1j]]))


def test_riemann_matrix_validation():
    with pytest.raises(ValueError):
        RiemannMatrix(np.array([[1j, 0.5], [0.4, 1j]]))
    with pytest.raises(ValueError):
        RiemannMatrix(np.array([[-1j]]))
    with pytest.raises(ValueError):
        RiemannMatrix(np.zeros((2, 3)))
    tau = RiemannMatrix(np.array([[1j, 0.2], [0.2, 2j]]))
    assert 0 < tau.y_min <= 1.0
    assert tau.g == 2


def test_config_validation():
    with pytest.raises(ValueError):
        ThetaEvalConfig(radius=0)
    for tail in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ThetaEvalConfig(target_tail=tail)


def test_scalar_value_against_series_oracle():
    value = theta(ch((0,), (0,)), [0.0], TAU_I)
    oracle = direct_theta_g1(0, 0, 0.0, 1j)
    assert abs(value - oracle) < 1e-13
    assert abs(value - 1.0864348112) < 1e-9


def test_one_half_characteristic_positive():
    value = theta_null(ch((1,), (0,)), TAU_I)
    assert abs(value.imag) < 1e-12
    assert value.real > 0
    assert abs(value - direct_theta_g1(1, 0, 0.0, 1j)) < 1e-13


def test_odd_characteristic_vanishes_at_origin(tau1):
    assert abs(theta(ch((1,), (1,)), [0.0], TAU_I)) < 1e-14
    for q in odd_forms(3)[:5]:
        assert abs(theta(lift01(q), np.zeros(3), tau1)) < 1e-12


def test_theta_null_rejects_odd(tau1):
    with pytest.raises(ValueError):
        theta_null(lift01(odd_forms(3)[0]), tau1)


def test_sign_change_lemma(tau1, rng):
    for _ in range(20):
        eps = rng.integers(0, 2, 3)
        epsp = rng.integers(0, 2, 3)
        m = rng.integers(-2, 3, 3)
        n = rng.integers(-2, 3, 3)
        z = rng.standard_normal(3) * 0.1
        base = theta(ch(tuple(eps), tuple(epsp)), z, tau1)
        shifted = theta(ch(tuple(eps + 2 * m), tuple(epsp + 2 * n)), z, tau1)
        sign = (-1) ** int(n @ eps)
        assert abs(shifted - sign * base) < 1e-12
        # eps'-only shifts reuse the same lattice window term by term
        same_window = theta(ch(tuple(eps), tuple(epsp + 2 * n)), z, tau1)
        assert abs(same_window - sign * base) < 1e-13


def test_parity(tau1, rng):
    for _ in range(20):
        q = all_forms(3)[rng.integers(0, 64)]
        z = rng.standard_normal(3) * 0.2 + 1j * rng.standard_normal(3) * 0.1
        lhs = theta(lift01(q), -z, tau1)
        rhs = (-1) ** arf(q) * theta(lift01(q), z, tau1)
        assert abs(lhs - rhs) < 1e-8


def test_quasi_periodicity(tau1, rng):
    tau = tau1.entries
    for _ in range(15):
        eps = rng.integers(0, 2, 3)
        epsp = rng.integers(0, 2, 3)
        lam = rng.integers(-2, 3, 3)
        mu = rng.integers(-2, 3, 3)
        z = rng.standard_normal(3) * 0.1 + 1j * rng.standard_normal(3) * 0.05
        half_period = (lam + tau @ mu) / 2
        factor = np.exp(2j * np.pi * (
            -(mu @ (epsp + lam)) / 4 - (mu @ z) / 2 - (mu @ tau @ mu) / 8
        ))
        lhs = theta(ch(tuple(eps), tuple(epsp)), z + half_period, tau1)
        rhs = factor * theta(ch(tuple(eps + mu), tuple(epsp + lam)), z, tau1)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_diagonal_tau_factorizes():
    taus = (1.3j, 0.2 + 0.9j, -0.4 + 1.7j)
    tau = RiemannMatrix(np.diag(taus))
    for q in (even_forms(3)[4], even_forms(3)[20], odd_forms(3)[7]):
        value = theta(lift01(q), np.zeros(3), tau)
        oracle = 1.0 + 0j
        for i in range(3):
            oracle *= direct_theta_g1(q.eps[i], q.eps_prime[i], 0.0, taus[i])
        assert abs(value - oracle) < 1e-10


def test_gradient_matches_finite_differences(rng):
    entries = 1j * np.eye(3) + 0.1 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    entries = (entries + entries.T) / 2
    entries += 1j * np.eye(3) * max(0.0, 0.6 - np.linalg.eigvalsh(entries.imag).min())
    tau = RiemannMatrix(entries)
    h = 1e-5
    for q in odd_forms(3)[:4]:
        grad = theta_grad(lift01(q), tau)
        for i in range(3):
            step = np.zeros(3, dtype=complex)
            step[i] = h
            fd = (theta(lift01(q), step, tau) - theta(lift01(q), -step, tau)) / (2 * h)
            assert abs(fd - grad[i]) / abs(grad[i]) < 1e-6


def test_even_gradient_vanishes(tau1):
    for q in even_forms(3)[:4]:
        assert np.abs(theta_grad(lift01(q), tau1)).max() < 1e-12


def test_genus1_jacobi_identity():
    for t in (1j, 2j, 0.3 + 1.1j):
        tau = RiemannMatrix(np.array([[t]]))
        lhs = theta_grad(ch((1,), (1,)), tau)[0] / math.pi
        rhs = -(
            theta_null(ch((0,), (0,)), tau)
            * theta_null(ch((1,), (0,)), tau)
            * theta_null(ch((0,), (1,)), tau)
        )
        assert abs(lhs - rhs) < 1e-10


def test_jacobian_nullwert_properties(tau1):
    odd3 = [lift01(q) for q in odd_forms(3)[:3]]
    base = jacobian_nullwert(odd3, tau1)
    swapped = jacobian_nullwert([odd3[1], odd3[0], odd3[2]], tau1)
    assert abs(base + swapped) < 1e-10 * max(1.0, abs(base))
    repeated = jacobian_nullwert([odd3[0], odd3[0], odd3[2]], tau1)
    assert abs(repeated) < 1e-10
    with pytest.raises(ValueError):
        jacobian_nullwert(odd3[:2], tau1)
    with pytest.raises(ValueError):
        jacobian_nullwert([odd3[0], odd3[1], lift01(even_forms(3)[0])], tau1)


def test_jacobian_nullwert_genus1():
    tau = RiemannMatrix(np.array([[0.3 + 1.1j]]))
    value = jacobian_nullwert([ch((1,), (1,))], tau)
    direct = theta_grad(ch((1,), (1,)), tau)[0] / math.pi
    assert abs(value - direct) < 1e-14


def test_auto_radius_and_doubling(tau1):
    radius = auto_radius(tau1.y_min, 3, 1e-16)
    cfg1 = ThetaEvalConfig(radius=radius)
    cfg2 = ThetaEvalConfig(radius=2 * radius)
    for q in even_forms(3)[:6]:
        a = theta_null(lift01(q), tau1, cfg1)
        b = theta_null(lift01(q), tau1, cfg2)
        assert abs(a - b) < 1e-14
    assert auto_radius(0.5, 3, 1e-16) >= auto_radius(2.0, 3, 1e-16)


def test_lattice_bound_checked_before_allocation(tau1, no_lattice):
    # (2R+1)^3 <= 10^6 holds up to R = 49
    assert lattice_fits(49, 3) and not lattice_fits(50, 3)
    q = lift01(even_forms(3)[0])
    with pytest.raises(ValueError, match="lattice points"):
        theta_null(q, tau1, ThetaEvalConfig(radius=50))
    with pytest.raises(ValueError, match="lattice points"):
        theta(q, [50j, 0, 0], tau1)
    with pytest.raises(TauRejectedError):
        auto_radius(1e-5, 3, 1e-16)
    # y_min = 0.034, the smallest value measured so far, needs R = 23
    assert auto_radius(0.034, 3, 1e-16) == 23


def test_insufficient_radius_warns_or_raises(tau1):
    # one warning per table build, naming the caller outside the package
    tau = RiemannMatrix(tau1.entries)
    cfg = ThetaEvalConfig(radius=2)
    q = lift01(even_forms(3)[0])
    odd3 = [lift01(p) for p in odd_forms(3)[:3]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        theta_null(q, tau, cfg)
        theta_grad(odd3[0], tau, cfg)
        jacobian_nullwert(odd3, tau, cfg)
        validate_tau(tau, cfg)
    assert len(caught) == 1
    assert "tail" in str(caught[0].message)
    assert caught[0].filename == __file__


def test_genus_mismatch(tau1):
    with pytest.raises(ValueError):
        theta(ch((0,), (0,)), [0.0], tau1)


def ymin_matrix(rng, level):
    """i*I + 0.1*S (S complex symmetric, standard normal) with the smallest
    eigenvalue of Im tau moved to `level` along its eigenvector."""
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = (s + s.T) / 2
    m = 1j * np.eye(3) + 0.1 * s
    m = (m + m.T) / 2
    w, v = np.linalg.eigh(m.imag)
    y = m.imag + (level - w[0]) * np.outer(v[:, 0], v[:, 0])
    return RiemannMatrix(m.real + 1j * y)


@pytest.fixture(scope="module")
def tau_ymin():
    tau = ymin_matrix(np.random.default_rng(20), 0.20)
    assert auto_radius(tau.y_min, 3, 1e-16) == 10
    return tau


@pytest.mark.parametrize("which", ["sample1", "sample2", "ymin0.20"])
def test_table_matches_direct_sums(which, tau1, tau2, tau_ymin):
    tau = {"sample1": tau1, "sample2": tau2, "ymin0.20": tau_ymin}[which]
    table = theta_table(tau)
    cfg = theta_mod.DEFAULT_CONFIG
    for q in all_forms(3):
        c, terms = theta_mod._terms(lift01(q), np.zeros(3), tau, cfg)
        value = terms.sum()
        grad = 2j * np.pi * (c * terms[:, None]).sum(axis=0)
        assert abs(table.values[q.bits] - value) <= 1e-14 * max(abs(value), 1)
        assert (np.abs(table.grads[q.bits] - grad).max()
                <= 1e-14 * max(np.abs(grad).max(), 1))
        if arf(q):
            assert abs(table.values[q.bits]) < 1e-12
        else:
            assert np.abs(table.grads[q.bits]).max() < 1e-12


def test_integer_characteristics_follow_sign_rule(tau1, rng):
    # theta[eps + 2m, eps' + 2n] = (-1)^(eps.n) theta[eps, eps'], read from
    # the table, and equal to the direct series of the shifted characteristic
    for _ in range(20):
        q = all_forms(3)[rng.integers(0, 64)]
        eps, epsp = np.array(q.eps), np.array(q.eps_prime)
        m = rng.integers(-2, 3, 3)
        n = rng.integers(-2, 3, 3)
        shifted = ch(tuple(eps + 2 * m), tuple(epsp + 2 * n))
        sign = (-1) ** int(n @ eps)
        grad = theta_grad(shifted, tau1)
        assert np.array_equal(grad, sign * theta_grad(lift01(q), tau1))
        if arf(q) == 0:
            value = theta_null(shifted, tau1)
            assert value == sign * theta_null(lift01(q), tau1)
            assert abs(value - theta(shifted, np.zeros(3), tau1)) < 1e-13


def test_table_matches_mpmath_series(tau1):
    mp = pytest.importorskip("mpmath")
    tau = [[mp.mpc(complex(x)) for x in row] for row in tau1.entries]
    axis = range(-7, 8)

    def series(q, weighted):
        # sum over the cube of e(1/2 c tau c + c eps'/2), c = n + eps/2,
        # times 2 pi i c when weighted (the z-gradient at z = 0)
        total = [mp.mpc(0)] * (3 if weighted else 1)
        shifts = [[n + mp.mpf(e) / 2 for n in axis] for e in q.eps]
        for cv in itertools.product(*shifts):
            quad = sum(tau[j][j] * cv[j] ** 2 for j in range(3)) + 2 * (
                tau[0][1] * cv[0] * cv[1] + tau[0][2] * cv[0] * cv[2]
                + tau[1][2] * cv[1] * cv[2])
            lin = sum(c for c, e in zip(cv, q.eps_prime) if e)
            term = mp.expjpi(quad + lin)
            if weighted:
                total = [t + 2j * mp.pi * c * term for t, c in zip(total, cv)]
            else:
                total[0] += term
        return np.array([complex(t) for t in total])

    table = theta_table(tau1)
    # three eps classes: 000 and 110 (even constants), 001 (odd gradient)
    with mp.workdps(30):
        for eps, epsp in (((0, 0, 0), (0, 0, 0)), ((1, 1, 0), (0, 0, 1))):
            q = QuadForm(3, eps, epsp)
            exact = series(q, weighted=False)[0]
            assert abs(table.values[q.bits] - exact) < 1e-14 * max(abs(exact), 1)
        q = QuadForm(3, (0, 0, 1), (0, 0, 1))
        exact = series(q, weighted=True)
    assert np.abs(table.grads[q.bits] - exact).max() < 1e-14 * max(np.abs(exact).max(), 1)


def test_table_build_memory_is_linear(tau_ymin):
    # the build keeps O(N) transients: less than one N x 8 complex array
    points = (2 * 10 + 1) ** 3
    theta_table(tau_ymin)  # the lattice of radius 10 is cached from here on
    tau = RiemannMatrix(tau_ymin.entries)
    tracemalloc.start()
    try:
        theta_table(tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 16 * points
