import importlib

import pytest

from tracer import Tracer, aggregate


def _span(name, start, end, parent, label=""):
    return [name, start, end, parent, 0, label]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("verify.jacobi_check", 0, 1000, -1),        # 0
        _span("theta.theta_grad", 100, 400, 0),           # 1
        _span("aronhold.basis_for_pair", 500, 900, 0),    # 2
        _span("theta.theta_null", 600, 700, 2, "y0.20"),  # 3
        _span("theta.theta", 620, 690, 3, "y0.20"),       # 4
    ]
    agg = aggregate(spans)
    ns = 1e-9
    assert agg["self_s"]["verify"] == pytest.approx((1000 - 300 - 400) * ns)
    assert agg["self_s"]["aronhold"] == pytest.approx((400 - 100) * ns)
    # theta_grad 300 + theta_null 100 - 70 + theta 70
    assert agg["self_s"]["theta"] == pytest.approx(400 * ns)
    assert agg["self_s_by_label"][("theta", "y0.20")] == pytest.approx(100 * ns)
    assert agg["s"]["theta.theta_null"] == pytest.approx(100 * ns)
    assert agg["calls"]["theta.theta"] == 1
    assert agg["calls_under"][("theta.theta", "theta.theta_null")] == 1
    total_self = sum(agg["self_s"].values())
    assert total_self == pytest.approx(1000 * ns)  # self times tile the root span


def test_install_wraps_every_binding_and_uninstall_restores():
    theta_mod = importlib.import_module("thetachar.theta")
    verify = importlib.import_module("thetachar.verify")
    import thetachar

    original = theta_mod.theta_null
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.theta_null is not original
        assert verify.theta_null is theta_mod.theta_null is thetachar.theta_null
        tau = thetachar.sample_tau(1)
        verify.s_value(thetachar.reference_fundamental_system(), tau)
    finally:
        tracer.uninstall()
    assert verify.theta_null is original and thetachar.theta_null is original
    agg = aggregate(tracer.spans)
    # s_value: jacobian_nullwert over 3 gradients, then 5 theta constants
    assert agg["calls"]["verify.s_value"] == 1
    assert agg["calls"]["theta.theta_grad"] == 3
    assert agg["calls"]["theta.theta_null"] == 5
    assert agg["calls_under"][("theta.theta_grad", "theta.jacobian_nullwert")] == 3
    assert tracer.counts["chars.lift01"] == 8
    radius = theta_mod.auto_radius(tau.y_min, 3, 1e-16)
    assert tracer.points[""] == 8 * (2 * radius + 1) ** 3
    assert all(s[2] >= s[1] for s in tracer.spans)
