"""Differential tests of the float control step.

The simulation loop calls each controller's command with plain floats taken
from polar_chart or line_chart. The public functions take state objects and
the PolarView/LineGeometry records. Both must give the same bits, on and off
smoothing and at the chart floors (e < EPS_DISTANCE, r <= EPS_RADIUS). The
``_ref_*`` functions are the state-object laws and charts as written before
the float kernel, kept here as the reference.
"""

import math
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrowheel import (
    BalanceController,
    BalanceGains,
    ContactPoint,
    DegenerateLineError,
    GeneralizedState,
    LineController,
    LineGains,
    PositionController,
    PositionGains,
    RobotParams,
    Smoothing,
    balance_control,
    balance_value,
    beta_jerk_coeffs,
    bundled_scenario_path,
    hard_sign,
    hard_step,
    lean_accel,
    line_control,
    line_geometry,
    parse_scenario,
    polar_view,
    position_control,
    smooth_sign,
    smooth_step,
    wrap_to_pi,
)
from gyrowheel.kinematics import EPS_DISTANCE, EPS_RADIUS, line_chart, polar_chart

PARAMS = RobotParams()


def _bits(values):
    return [struct.pack("<d", v) for v in values]


# ------------------------------------------------------------------ reference


def _ref_balance(st_, gains, V, sign0, params):
    k1, k2 = gains.k1, gains.k2
    x = st_.beta - math.pi / 2.0
    bd, bdd = st_.beta_dot, st_.beta_ddot
    u5 = -(st_.alpha_dot - sign0 * (k2 * V) ** 0.25)
    h1, h2, h3 = beta_jerk_coeffs(st_, params)
    target_jerk = (2.0 + k1) * x + (3.0 + 2.0 * k1) * bd + (2.0 + k1) * bdd
    return (u5, -(target_jerk + h1 * bd + h2 * u5) / h3)


def _ref_lean_switch(s_lean, smoothing):
    return hard_sign(s_lean) if smoothing is None else smooth_sign(s_lean, smoothing.k6)


def _ref_drive_floor(s_lean, beta, k3, params):
    Gm, Im, Jm = params.reduced()
    sb, cb = math.sin(beta), math.cos(beta)
    f1 = abs(Gm * cb + Im * cb * sb * k3 * k3)
    return (2.0 * abs(s_lean) + f1) / (Jm * sb * k3)


def _ref_position(st_, pv, gains, params):
    s_lean = (st_.beta - math.pi / 2.0) + st_.beta_dot
    side = hard_sign(math.cos(pv.psi))
    u_k = _ref_drive_floor(s_lean, st_.beta, gains.k3, params)
    return (-gains.k3 * side * _ref_lean_switch(s_lean, gains.smoothing),
            -(gains.k4 * pv.e + u_k) * side)


def _ref_line(st_, lg, gains, params):
    s_lean = (st_.beta - math.pi / 2.0) + st_.beta_dot
    s = hard_sign(math.sin(lg.phi - st_.alpha) * math.sin(lg.phi - lg.theta))
    u_k = _ref_drive_floor(s_lean, st_.beta, gains.k3, params)
    if gains.smoothing is None:
        f2 = gains.k5 * hard_step(lg.p * s)
    else:
        f2 = gains.k5 * smooth_step(lg.p * s, gains.smoothing.k7)
    return (-gains.k3 * s * _ref_lean_switch(s_lean, gains.smoothing), -(f2 + u_k) * s)


def _ref_polar(x_a, y_a, alpha, target):
    dx, dy = x_a - target[0], y_a - target[1]
    e = math.hypot(dx, dy)
    if e < EPS_DISTANCE:
        return (0.0, wrap_to_pi(alpha), 0.0)
    theta = math.atan2(dy, dx)
    return (e, theta, wrap_to_pi(theta - alpha))


def _ref_line_geometry(x_a, y_a, alpha, end, origin):
    ex, ey = end[0] - origin[0], end[1] - origin[1]
    ell = math.hypot(ex, ey)
    phi = math.atan2(ey, ex)
    rx, ry = x_a - origin[0], y_a - origin[1]
    r = math.hypot(rx, ry)
    theta = math.atan2(ry, rx) if r > EPS_RADIUS else phi
    e = r * abs(math.sin(phi - theta))
    d = math.hypot(x_a - end[0], y_a - end[1])
    p = r * math.cos(theta - alpha) - ell * math.cos(phi - alpha)
    return (r, e, d, theta, phi, p, ell)


# ----------------------------------------------------------------- strategies

leans = st.floats(0.05, math.pi - 0.05)
rates = st.floats(-5.0, 5.0)
angles = st.floats(-10.0, 10.0)
coords = st.floats(-10.0, 10.0)
# offsets of the contact point from a chart's base point, down to its floor
offsets = st.one_of(st.just(0.0), st.floats(-2e-9, 2e-9), st.floats(-2e-6, 2e-6),
                    st.floats(-5.0, 5.0))
smoothings = st.one_of(st.none(), st.builds(Smoothing, k6=st.floats(0.5, 50.0),
                                            k7=st.floats(0.5, 50.0)))
steer_rates = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(1e-3, 5.0)).map(
    lambda p: p[0] * p[1])


# ---------------------------------------------------------------------- tests


@settings(max_examples=300, deadline=None)
@given(beta=leans, alpha_dot=steer_rates, beta_dot=rates, gamma_dot=rates,
       k1=st.floats(0.0, 3.0), k2=st.floats(0.1, 3.0), alpha_dot0=steer_rates,
       cached=st.booleans())
def test_balance_command_matches_state_law(beta, alpha_dot, beta_dot, gamma_dot, k1, k2,
                                           alpha_dot0, cached):
    gains = BalanceGains(k1=k1, k2=k2)
    ctl = BalanceController(gains, PARAMS, alpha_dot0, alpha_dot_floor=1e-4)
    bdd = lean_accel(beta, alpha_dot, gamma_dot, PARAMS)
    state = GeneralizedState(beta=beta, alpha_dot=alpha_dot, beta_dot=beta_dot,
                             gamma_dot=gamma_dot, beta_ddot=bdd if cached else None)
    V = balance_value(beta, beta_dot, bdd, k1)
    assert ctl.certificate(state) == V
    got = ctl.command(beta, alpha_dot, beta_dot, gamma_dot, bdd, V)
    assert _bits(got) == _bits(balance_control(state, gains, V, ctl.sign0, PARAMS))
    assert _bits(got) == _bits(_ref_balance(replace(state, beta_ddot=bdd), gains, V,
                                            ctl.sign0, PARAMS))


@settings(max_examples=300, deadline=None)
@given(beta=leans, beta_dot=rates, alpha=angles, tx=coords, ty=coords, dx=offsets,
       dy=offsets, k3=st.floats(2.1, 6.0), k4_share=st.floats(0.01, 0.99),
       smoothing=smoothings)
def test_position_command_matches_state_law(beta, beta_dot, alpha, tx, ty, dx, dy, k3,
                                            k4_share, smoothing):
    gains = PositionGains(k3=k3, k4=k4_share * (k3 - 1.0), smoothing=smoothing)
    ctl = PositionController(gains, PARAMS, target=(tx, ty))
    x_a, y_a = tx + dx, ty + dy
    e, theta, psi = polar_chart(ctl.target)(x_a, y_a, alpha)
    state = GeneralizedState(alpha=alpha, beta=beta, beta_dot=beta_dot)
    pv = polar_view(ContactPoint(x_a, y_a), alpha, ctl.target)
    assert _bits((pv.e, pv.theta, pv.psi)) == _bits((e, theta, psi))
    assert _bits((e, theta, psi)) == _bits(_ref_polar(x_a, y_a, alpha, ctl.target))
    assert ctl.view(state, ContactPoint(x_a, y_a)) == pv
    got = ctl.command(beta, beta_dot, e, psi)
    assert _bits(got) == _bits(position_control(state, pv, gains, PARAMS))
    assert _bits(got) == _bits(_ref_position(state, pv, gains, PARAMS))


@settings(max_examples=300, deadline=None)
@given(beta=leans, beta_dot=rates, alpha=angles, ox=coords, oy=coords, sx=coords,
       sy=coords, dx=offsets, dy=offsets, k3=st.floats(2.1, 6.0), k5=st.floats(0.1, 3.0),
       smoothing=smoothings)
def test_line_command_matches_state_law(beta, beta_dot, alpha, ox, oy, sx, sy, dx, dy, k3,
                                        k5, smoothing):
    if math.hypot(sx - ox, sy - oy) < 1e-3:
        sx += 1.0
    gains = LineGains(k3=k3, k5=k5, smoothing=smoothing)
    ctl = LineController(gains, PARAMS, waypoints=((ox, oy), (sx, sy)))
    x_a, y_a = ox + dx, oy + dy
    chart = line_chart(*ctl.waypoints)
    r, e, d, theta, phi, p, ell = chart(x_a, y_a, alpha)
    state = GeneralizedState(alpha=alpha, beta=beta, beta_dot=beta_dot)
    lg = ctl.geometry(state, ContactPoint(x_a, y_a), 0)
    fields = (lg.r, lg.e, lg.d, lg.theta, lg.phi, lg.p, lg.ell)
    assert _bits(fields) == _bits((r, e, d, theta, phi, p, ell))
    assert _bits(fields) == _bits(_ref_line_geometry(x_a, y_a, alpha, (sx, sy), (ox, oy)))
    got = ctl.command(alpha, beta, beta_dot, theta, phi, p)
    assert _bits(got) == _bits(line_control(state, lg, gains, PARAMS))
    assert _bits(got) == _bits(_ref_line(state, lg, gains, PARAMS))


def test_chart_floors_are_reached():
    # the strategies above reach both floors; pin one point on each
    assert polar_chart((1.0, 2.0))(1.0 + 1e-7, 2.0, 0.5) == (0.0, wrap_to_pi(0.5), 0.0)
    r, _, _, theta, phi, _, _ = line_chart((1.0, 2.0), (4.0, 6.0))(1.0, 2.0 + 1e-10, 0.3)
    assert r <= EPS_RADIUS and theta == phi == math.atan2(4.0, 3.0)


def test_coincident_endpoints_raise():
    with pytest.raises(DegenerateLineError):
        line_chart((2.0, 3.0), (2.0, 3.0))
    ctl = LineController(LineGains(), PARAMS, waypoints=((0.0, 0.0), (1.0, 0.0), (1.0, 0.0)))
    with pytest.raises(DegenerateLineError):
        ctl.geometry(GeneralizedState(), ContactPoint(0.5, 0.0), 1)
    with pytest.raises(DegenerateLineError):
        line_geometry(ContactPoint(0.5, 0.0), 0.0, (1.0, 0.0), (1.0, 0.0))


def test_config_refuses_a_degenerate_segment():
    # refused when the config is built, not when the run reaches the segment
    cfg = parse_scenario(bundled_scenario_path("corridor_demo")).config
    with pytest.raises(DegenerateLineError, match=r"^waypoints\[2\]: coincides with waypoints\[1\]$"):
        replace(cfg, waypoints=((0.0, 0.0), (0.3, 0.0), (0.3, 0.0), (2.0, 0.5)))
