"""Differential tests of the control step and the RK4 steppers, and the loop's events at their thresholds.

tests/oracles.py writes each equation of the model once. Every subject
here must give the oracle's bits, or raise the same exception type with
the same message: the laws, charts and steppers the run loop calls (the
controllers' command methods and the chart and stepper closures, which
compute their switches, drive floor, jerk coefficients and inertia solve
in place), the state-object wrappers balance_control, position_control,
line_control, polar_view and line_geometry, and the controllers' view,
geometry and certificate methods. The steppers are plain arithmetic and
return the eight coordinates they integrate, so each is held to its
oracle, less the oracle's closing lean acceleration, under the oracle's
one failure rule, oracles._checked;
rk4_step, which forms that lean acceleration and applies the package's
rule as the run loop does, is held to the checked oracle on random steps
and at the failure edges of each mode. The strategies reach the edges where
the in-place forms could part from the equations: a lean switch at
exactly 0, an overshoot product p*s of 0, friction rates of exactly 0, a
stage lean at 0 or pi, NaN and infinite values, and the charts' floors
(e < EPS_DISTANCE, r <= EPS_RADIUS).

The run loop compares against threshold floats bound once per run and
builds an event only when its condition holds. The event tests put a
threshold exactly on the state a one-step run reaches, and one ulp past
it: the run must record what detect_events reports at that state, and the
events pinned here are those the loop recorded before the fusion.
"""

import ast
import importlib
import math
import struct
from math import pi
from pathlib import Path

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gyrowheel import (
    BalanceController,
    BalanceGains,
    DegenerateLeanError,
    DegenerateLineError,
    FrictionParams,
    InadmissibleStateError,
    LineController,
    LineGains,
    PositionController,
    PositionGains,
    RobotParams,
    SimConfig,
    Smoothing,
    Thresholds,
    WheelState,
    balance_control,
    beta_jerk_coeffs,
    bundled_scenario_path,
    detect_events,
    lean_accel,
    line_control,
    line_geometry,
    parse_scenario,
    polar_view,
    position_control,
    replace,
    rk4_step,
    run_closed_loop,
)
from gyrowheel import controllers, simulate
from gyrowheel.kinematics import EPS_DISTANCE, EPS_RADIUS, line_chart, polar_chart
from gyrowheel.params import Record
from gyrowheel.simulate import (
    MODES,
    _friction_stepper,
    _lag_stepper,
    _torque_stepper,
    _velocity_stepper,
)

PARAMS = RobotParams()
_HALF_PI = pi / 2.0


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _outcome(fn, *args):
    """The bits of fn's result, or the type and message of what it raised."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc))
    return _bits(out)


def _law_outcome(fn, *args):
    """_outcome with the sign bit of each NaN cleared, for the three laws.

    CPython 3.11 does not fix the sign of an add or a multiply of two NaNs
    of opposite sign: the float op that a warmed-up code object specializes
    to returns the other operand than the generic one, so the sign depends
    on how often the code has run. The balance, position and line examples
    all reach such an op from the lean (nan, -nan); the position one pinned
    below gave +nan and -nan on two calls with the same arguments. Every
    output format writes a NaN without its sign; every other value keeps
    its bits, and a NaN against a number still fails.
    """
    return _outcome(lambda *a: [abs(v) if v != v else v for v in fn(*a)], *args)


def test_the_oracle_stands_alone():
    # a reference that calls the law it checks cannot catch that law's faults
    tests = Path(__file__).parent
    imported = {}
    for node in ast.walk(ast.parse((tests / "oracles.py").read_text())):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "gyrowheel" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "gyrowheel":
            module = importlib.import_module(node.module)
            imported.update((a.name, getattr(module, a.name)) for a in node.names)
    # records, parameters and errors are classes, constants are not callable
    assert imported and [name for name, obj in imported.items()
                         if callable(obj) and not (
                             isinstance(obj, type) and issubclass(obj, (Record, Exception)))] == []
    copies = [f"{path.name}:{node.name}" for path in tests.rglob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_ref_")]
    assert copies == []


# ----------------------------------------------------------------- strategies

# ordinary values, for the controllers through their charts
open_leans = st.floats(0.05, pi - 0.05)
plain_rates = st.floats(-5.0, 5.0)
coords = st.floats(-10.0, 10.0)
# offsets of the contact point from a chart's base point, down to its floor
offsets = st.one_of(st.just(0.0), st.floats(-2e-9, 2e-9), st.floats(-2e-6, 2e-6),
                    st.floats(-5.0, 5.0))
steer_rates = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(1e-3, 5.0)).map(
    lambda p: p[0] * p[1])
smoothings = st.one_of(st.none(), st.builds(Smoothing, k6=st.floats(0.5, 50.0),
                                            k7=st.floats(0.5, 50.0)))

SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e200, -1e200)


def _values(lo, hi):
    """Mostly ordinary floats in [lo, hi], sometimes a zero, NaN, infinity or huge value."""
    return st.one_of(st.floats(lo, hi), st.floats(lo, hi), st.floats(lo, hi),
                     st.sampled_from(SPECIAL))


# the same with the edges, for the laws and the steppers
leans = st.one_of(open_leans, open_leans,
                  st.sampled_from((0.0, pi, -0.0, 1e-300, math.nan, math.inf, 4.0)))
rates = _values(-5.0, 5.0)
angles = _values(-10.0, 10.0)
# step commands and lean rates large enough to throw a stage lean out of (0, pi)
pushes = st.one_of(_values(-5.0, 5.0), st.floats(-400.0, 400.0))
steps = st.sampled_from((1e-3, 0.01, 0.1, -1e-3))
frictions = st.builds(
    lambda v, dyn, extra, D: FrictionParams(mu_v=v, mu_d=dyn,
                                            mu_s=tuple(a + b for a, b in zip(dyn, extra)), D=D),
    st.tuples(*[st.floats(0.0, 0.5)] * 2), st.tuples(*[st.floats(0.0, 0.5)] * 2),
    st.tuples(*[st.floats(0.0, 0.5)] * 2), st.floats(0.01, 0.5),
)


@st.composite
def lean_data(draw):
    """(beta, beta_dot), with the lean switch s_lean = (beta - pi/2) + beta_dot often exactly 0.

    s_lean is never -0.0: x - x is +0.0 in round-to-nearest, and beta - pi/2
    is +0.0 at beta = pi/2, so that branch of the switch is unreachable here.
    """
    beta = draw(leans)
    how = draw(st.sampled_from(("free", "cancel", "upright")))
    if how == "cancel":
        return beta, -(beta - _HALF_PI)
    if how == "upright":
        return _HALF_PI, draw(st.sampled_from((0.0, -0.0)))
    return beta, draw(rates)


# ---------------------------------------------------------------------- laws


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lean=lean_data(), alpha_dot=rates, gamma_dot=rates, beta_ddot=rates,
       V=st.one_of(st.floats(0.0, 10.0), st.sampled_from((0.0, math.inf, math.nan))),
       k1=st.floats(0.0, 3.0), k2=st.floats(0.1, 3.0), sign0=st.sampled_from((-1.0, 1.0)))
def test_balance_law_matches_reference(lean, alpha_dot, gamma_dot, beta_ddot, V, k1, k2,
                                       sign0):
    beta, beta_dot = lean
    gains = BalanceGains(k1=k1, k2=k2)
    args = (beta, alpha_dot, beta_dot, gamma_dot, beta_ddot, V)
    expected = _law_outcome(oracles.balance_law, *args, gains, sign0, PARAMS)
    assert _law_outcome(BalanceController(gains, PARAMS, sign0).command, *args) == expected
    # the state wrapper forms the state's own lean acceleration
    state = WheelState(beta=beta, alpha_dot=alpha_dot, beta_dot=beta_dot, gamma_dot=gamma_dot)
    assert _law_outcome(balance_control, state, gains, V, sign0, PARAMS) == _law_outcome(
        lambda: oracles.balance_law(beta, alpha_dot, beta_dot, gamma_dot, oracles.lean_accel(
            beta, alpha_dot, gamma_dot, PARAMS), V, gains, sign0, PARAMS))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lean=lean_data(), e=_values(0.0, 10.0), psi=angles, k3=st.floats(2.1, 6.0),
       k4_share=st.floats(0.01, 0.99), smoothing=smoothings)
@example(lean=(math.nan, -math.nan), e=-math.inf, psi=2.5492951178556105,
         k3=5.391703924141966, k4_share=0.20001493230516965,
         smoothing=Smoothing(k6=40.84948273814592, k7=42.42258051897613))
def test_position_law_matches_reference(lean, e, psi, k3, k4_share, smoothing):
    # the example (beta = nan, beta_dot = -nan, e = -inf, smoothing) returns
    # +nan or -nan by how warm the code is: see _law_outcome
    beta, beta_dot = lean
    gains = PositionGains(k3=k3, k4=k4_share * (k3 - 1.0), smoothing=smoothing)
    args = (beta, beta_dot, e, psi)
    expected = _law_outcome(oracles.position_law, *args, gains, PARAMS)
    assert _law_outcome(PositionController(gains, PARAMS).command, *args) == expected
    state = WheelState(beta=beta, beta_dot=beta_dot)
    assert _law_outcome(position_control, state, (e, 0.0, psi), gains, PARAMS) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lean=lean_data(), alpha=angles, theta=angles, phi=angles,
       p=st.one_of(st.sampled_from((0.0, -0.0)), _values(-10.0, 10.0)),
       k3=st.floats(2.1, 6.0), k5=st.floats(0.1, 3.0), smoothing=smoothings)
def test_line_law_matches_reference(lean, alpha, theta, phi, p, k3, k5, smoothing):
    beta, beta_dot = lean
    gains = LineGains(k3=k3, k5=k5, smoothing=smoothing)
    args = (alpha, beta, beta_dot, theta, phi, p)
    expected = _law_outcome(oracles.line_law, *args, gains, PARAMS)
    ctl = LineController(gains, PARAMS, waypoints=((0.0, 0.0), (1.0, 0.0)))
    assert _law_outcome(ctl.command, *args) == expected
    state = WheelState(alpha=alpha, beta=beta, beta_dot=beta_dot)
    line = (math.nan, math.nan, math.nan, theta, phi, p, math.nan)
    assert _law_outcome(line_control, state, line, gains, PARAMS) == expected


def test_law_edges_are_reached():
    # the strategies above reach these; pin one point on each
    hard = LineGains(smoothing=None)  # the hard switches' edges at s_lean = p*s = 0
    line = LineController(hard, PARAMS, waypoints=((0.0, 0.0), (1.0, 0.0)))
    assert _outcome(line.command, 0.3, _HALF_PI, -0.0, 1.0, 0.0, 0.0) == \
        _outcome(oracles.line_law, 0.3, _HALF_PI, -0.0, 1.0, 0.0, 0.0, hard, PARAMS)
    law = BalanceController(BalanceGains(), PARAMS, 1.0).command
    with pytest.raises(DegenerateLeanError, match="outside"):
        law(pi, 1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ZeroDivisionError, match="h3 vanished"):
        law(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


# --------------------------------------------------- controllers and charts


@settings(max_examples=300, deadline=None)
@given(beta=open_leans, alpha_dot=steer_rates, beta_dot=plain_rates,
       gamma_dot=plain_rates, k1=st.floats(0.0, 3.0),
       k2=st.floats(0.1, 3.0), alpha_dot0=steer_rates)
def test_balance_command_matches_state_law(beta, alpha_dot, beta_dot, gamma_dot, k1, k2,
                                           alpha_dot0):
    gains = BalanceGains(k1=k1, k2=k2)
    ctl = BalanceController(gains, PARAMS, alpha_dot0)
    sign0 = 1.0 if alpha_dot0 >= 0.0 else -1.0
    assert ctl.sign0 == sign0
    bdd = oracles.lean_accel(beta, alpha_dot, gamma_dot, PARAMS)
    assert _outcome(lambda: (lean_accel(beta, alpha_dot, gamma_dot, PARAMS),)) == _bits((bdd,))
    state = WheelState(beta=beta, alpha_dot=alpha_dot, beta_dot=beta_dot, gamma_dot=gamma_dot)
    assert _outcome(beta_jerk_coeffs, state, PARAMS) == _outcome(
        oracles.jerk_coeffs, beta, alpha_dot, gamma_dot, PARAMS)
    V = oracles.balance_certificate(beta, beta_dot, bdd, k1)
    assert _outcome(lambda: (ctl.certificate(state),)) == _bits((V,))
    args = (beta, alpha_dot, beta_dot, gamma_dot, bdd, V)
    expected = _outcome(oracles.balance_law, *args, gains, sign0, PARAMS)
    assert _outcome(ctl.command, *args) == expected
    assert _outcome(balance_control, state, gains, V, sign0, PARAMS) == expected


@settings(max_examples=300, deadline=None)
@given(beta=open_leans, beta_dot=plain_rates, alpha=coords, tx=coords,
       ty=coords, dx=offsets, dy=offsets, k3=st.floats(2.1, 6.0),
       k4_share=st.floats(0.01, 0.99), smoothing=smoothings)
def test_position_command_matches_state_law(beta, beta_dot, alpha, tx, ty, dx, dy, k3,
                                            k4_share, smoothing):
    gains = PositionGains(k3=k3, k4=k4_share * (k3 - 1.0), smoothing=smoothing)
    ctl = PositionController(gains, PARAMS, target=(tx, ty))
    x_a, y_a = tx + dx, ty + dy
    chart = oracles.polar_chart(x_a, y_a, alpha, ctl.target)
    state = WheelState(alpha=alpha, beta=beta, beta_dot=beta_dot, x_a=x_a, y_a=y_a)
    assert _outcome(polar_chart(ctl.target), x_a, y_a, alpha) == _bits(chart)
    assert _bits(polar_view(state, ctl.target)) == _bits(chart)
    assert _bits(ctl.view(state)) == _bits(chart)
    e, theta, psi = chart
    expected = _outcome(oracles.position_law, beta, beta_dot, e, psi, gains, PARAMS)
    assert _outcome(ctl.command, beta, beta_dot, e, psi) == expected
    assert _outcome(position_control, state, chart, gains, PARAMS) == expected


@settings(max_examples=300, deadline=None)
@given(beta=open_leans, beta_dot=plain_rates, alpha=coords, ox=coords,
       oy=coords, sx=coords, sy=coords, dx=offsets, dy=offsets, k3=st.floats(2.1, 6.0),
       k5=st.floats(0.1, 3.0), smoothing=smoothings)
def test_line_command_matches_state_law(beta, beta_dot, alpha, ox, oy, sx, sy, dx, dy, k3,
                                        k5, smoothing):
    if math.hypot(sx - ox, sy - oy) < 1e-3:
        sx += 1.0
    gains = LineGains(k3=k3, k5=k5, smoothing=smoothing)
    ctl = LineController(gains, PARAMS, waypoints=((ox, oy), (sx, sy)))
    x_a, y_a = ox + dx, oy + dy
    chart = oracles.line_chart(x_a, y_a, alpha, *ctl.waypoints)
    state = WheelState(alpha=alpha, beta=beta, beta_dot=beta_dot, x_a=x_a, y_a=y_a)
    assert _outcome(line_chart(*ctl.waypoints), x_a, y_a, alpha) == _bits(chart)
    assert _bits(line_geometry(state, (sx, sy), (ox, oy))) == _bits(chart)
    assert _bits(ctl.geometry(state, 0)) == _bits(chart)
    r, e, d, theta, phi, p, ell = chart
    expected = _outcome(oracles.line_law, alpha, beta, beta_dot, theta, phi, p, gains, PARAMS)
    assert _outcome(ctl.command, alpha, beta, beta_dot, theta, phi, p) == expected
    assert _outcome(line_control, state, chart, gains, PARAMS) == expected


def test_chart_floors_are_reached():
    # the strategies above reach both floors; pin one point on each
    e, _, psi = polar_chart((1.0, 2.0))(1.0 + 1e-7, 2.0, 0.5)
    assert (e, psi) == (0.0, 0.0)
    assert polar_chart((1.0, 2.0))(1.0 + 1e-7, 2.0, 0.5) == oracles.polar_chart(
        1.0 + 1e-7, 2.0, 0.5, (1.0, 2.0))
    r, _, _, theta, phi, _, _ = line_chart((1.0, 2.0), (4.0, 6.0))(1.0, 2.0 + 1e-10, 0.3)
    assert r <= EPS_RADIUS and theta == phi == math.atan2(4.0, 3.0)
    # one point exactly on each floor's edge: e = EPS_DISTANCE is off its floor, r = EPS_RADIUS on
    assert polar_chart((0.0, 0.0))(EPS_DISTANCE, 0.0, 0.5) == oracles.polar_chart(
        EPS_DISTANCE, 0.0, 0.5, (0.0, 0.0)) == (EPS_DISTANCE, 0.0, -0.5)
    chart = line_chart((0.0, 0.0), (3.0, 4.0))(EPS_RADIUS, 0.0, 0.3)
    assert chart == oracles.line_chart(EPS_RADIUS, 0.0, 0.3, (0.0, 0.0), (3.0, 4.0))
    assert chart[0] == EPS_RADIUS and chart[3] == chart[4] == math.atan2(4.0, 3.0)


def test_coincident_endpoints_raise():
    expected = _outcome(oracles.line_chart, 0.5, 0.0, 0.0, (1.0, 0.0), (1.0, 0.0))
    assert expected[0] == "DegenerateLineError"
    with pytest.raises(DegenerateLineError):
        line_chart((2.0, 3.0), (2.0, 3.0))
    ctl = LineController(LineGains(), PARAMS, waypoints=((0.0, 0.0), (1.0, 0.0), (1.0, 0.0)))
    assert _outcome(ctl.geometry, WheelState(x_a=0.5), 1) == expected
    assert _outcome(line_geometry, WheelState(x_a=0.5), (1.0, 0.0), (1.0, 0.0)) == expected


def test_config_refuses_a_degenerate_segment():
    # refused when the config is built, not when the run reaches the segment
    cfg = parse_scenario(bundled_scenario_path("corridor_demo")).config
    with pytest.raises(DegenerateLineError, match=r"^waypoints\[2\]: coincides with waypoints\[1\]$"):
        replace(cfg, waypoints=((0.0, 0.0), (0.3, 0.0), (0.3, 0.0), (2.0, 0.5)))


# ------------------------------------------------------------------ steppers


def _less_bdd(outcome):
    """An oracle's outcome less its lean acceleration slot; a raised error as it is.

    A stepper returns the eight coordinates it integrates and leaves the
    lean acceleration to its callers: the oracles' closing lean_accel, and
    the check of it, are held to rk4_step (test_rk4_step_matches_the_checked_oracle).
    """
    return outcome if isinstance(outcome, tuple) else outcome[:6] + outcome[7:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=angles, b=leans, g=angles, ad=rates, bd=pushes, gd=rates, bdd=rates, xa=angles,
       ya=angles, u5=pushes, u6=pushes, dt=steps)
def test_torque_stepper_matches_reference(a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6, dt):
    args = (a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6)
    assert _outcome(oracles._checked(_torque_stepper(PARAMS, dt)), *args) == _less_bdd(
        _outcome(oracles.torque_step, *args, PARAMS, dt))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=angles, b=leans, g=angles, ad=rates, bd=pushes, gd=rates, xa=angles, ya=angles,
       u5=pushes, u6=pushes, dt=steps, friction=frictions)
def test_friction_stepper_matches_reference(a, b, g, ad, bd, gd, xa, ya, u5, u6, dt,
                                            friction):
    args = (a, b, g, ad, bd, gd, 0.0, xa, ya, u5, u6)
    assert _outcome(oracles._checked(_friction_stepper(PARAMS, friction, dt)), *args) == \
        _less_bdd(_outcome(oracles.friction_step, *args, PARAMS, friction, dt))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=angles, b=leans, g=angles, bd=pushes, xa=angles, ya=angles, bdd=rates, ua=pushes,
       ug=pushes, dt=steps)
def test_velocity_stepper_matches_reference(a, b, g, bd, xa, ya, bdd, ua, ug, dt):
    args = (a, b, g, ua, bd, ug, bdd, xa, ya, ua, ug)  # the loop sets the rates to the command
    assert _outcome(oracles._checked(_velocity_stepper(PARAMS, dt)), *args) == _less_bdd(
        _outcome(oracles.velocity_step, *args, PARAMS, dt))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=angles, b=leans, g=angles, bd=pushes, xa=angles, ya=angles, za=rates, zg=rates,
       bdd=rates, ua=pushes, ug=pushes, dt=steps, tau=st.floats(0.01, 0.2))
def test_lag_stepper_matches_reference(a, b, g, bd, xa, ya, za, zg, bdd, ua, ug, dt, tau):
    args = (a, b, g, za, bd, zg, bdd, xa, ya, ua, ug)
    assert _outcome(oracles._checked(_lag_stepper(PARAMS, dt, tau)), *args) == _less_bdd(
        _outcome(oracles.lag_step, *args, PARAMS, dt, tau))


def _rk4_outcomes(state, mode, friction=None, steer=1.0, drive=0.0, dt=0.01):
    """rk4_step's outcome with the command (steer, drive) held for dt, and the checked oracle's.

    As in rk4_step, the lean accelerations at the step's start and at its
    end are inside the one check, and the result is the eight coordinates
    without the end value; the velocity oracle returns its start value, so
    the end value is formed from its result.
    """
    s, torque = state, mode == "torque"
    ad, gd = (s.alpha_dot, s.gamma_dot) if torque else (steer, drive)
    if friction is not None:
        raw, extra = oracles.friction_step.__wrapped__, (PARAMS, friction, dt)
    else:
        raw = (oracles.torque_step if torque else oracles.velocity_step).__wrapped__
        extra = (PARAMS, dt)

    @oracles._checked
    def expected():
        bdd = 0.0 if friction is not None else oracles.lean_accel(s.beta, ad, gd, PARAMS)
        out = raw(s.alpha, s.beta, s.gamma, ad, s.beta_dot, gd, bdd, s.x_a, s.y_a, steer, drive,
                  *extra)
        if torque:
            return out
        return out[:6] + (oracles.lean_accel(out[1], steer, drive, PARAMS),) + out[7:]

    def got():
        out = rk4_step(s, mode, steer, drive, PARAMS, dt, friction)
        return [getattr(out, name) for name in WheelState._fields]

    return _outcome(got), _less_bdd(_outcome(expected))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=angles, b=leans, g=angles, ad=rates, bd=pushes, gd=rates, xa=angles, ya=angles,
       steer=pushes, drive=pushes, dt=steps, mode=st.sampled_from(MODES),
       friction=st.one_of(st.none(), frictions))
def test_rk4_step_matches_the_checked_oracle(a, b, g, ad, bd, gd, xa, ya, steer, drive, dt,
                                             mode, friction):
    # the steppers leave the lean acceleration to their callers; rk4_step forms
    # it at the step's end and judges it with the step, as the oracles do
    state = WheelState(a, b, g, ad, bd, gd, xa, ya)
    got, reference = _rk4_outcomes(state, mode, friction if mode == "torque" else None,
                                   steer, drive, dt)
    assert got == reference


# (lean, lean rate, what the step raises) from rates of exactly 0 under the
# command (1, 0): each of the four stages is, in turn, the first whose lean
# leaves (0, pi) (test_the_lean_edges_reach_every_stage)
_LEAN_EDGES = [
    (0.0, 0.0, "DegenerateLeanError"),  # the step-start lean on the boundary
    (pi, 0.0, "DegenerateLeanError"),
    (1.0, -400.0, "DegenerateLeanError"),  # a later stage lean below 0: the second's
    (0.01, -1.99, "DegenerateLeanError"),  # the third's
    (0.003, -0.5, "DegenerateLeanError"),  # the fourth's
    (pi - 0.003, 0.5, "DegenerateLeanError"),  # the fourth's, above pi
    (math.nan, 0.0, "NonFiniteStateError"),
    (1.0, math.inf, "NonFiniteStateError"),
    (-math.inf, 0.0, "NonFiniteStateError"),
    (1.0, -math.inf, "NonFiniteStateError"),
]


@pytest.mark.parametrize("b, bd, expected", _LEAN_EDGES)
def test_friction_stage_lean_edges(b, bd, expected):
    state = WheelState(beta=b, beta_dot=bd)  # rates of exactly 0
    got, reference = _rk4_outcomes(state, "torque", FrictionParams())
    assert got == reference
    assert got[0] == expected


def test_the_lean_edges_reach_every_stage(monkeypatch):
    leans = []  # the lean of each solve the oracle makes
    solve = oracles.inertia_and_forces

    def recording(beta, *rest):
        leans.append(beta)
        return solve(beta, *rest)

    monkeypatch.setattr(oracles, "inertia_and_forces", recording)
    first = []
    for b, bd, _ in _LEAN_EDGES:
        leans.clear()
        _rk4_outcomes(WheelState(beta=b, beta_dot=bd), "torque", FrictionParams())
        # the oracle solves at the step start twice, to decouple the command
        # and as stage 1, and stops at the first lean outside (0, pi)
        stages = leans[:1] + leans[2:]
        assert [0.0 < lean < pi for lean in stages] == [True] * (len(stages) - 1) + [False]
        first.append(len(stages))
    assert first == [1, 1, 2, 3, 4, 4, 1, 2, 1, 2]


def test_friction_stage_lean_is_read_before_the_heading():
    # the heading enters only the contact point, formed after the four stages
    state = WheelState(alpha=math.inf, beta=1.0, beta_dot=-400.0)
    got, reference = _rk4_outcomes(state, "torque", FrictionParams())
    assert got == reference
    assert got[0] == "DegenerateLeanError"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("a, b, bd", [
    (0.0, 0.0, 0.0), (0.0, pi, 0.0), (0.0, 1.0, -400.0),  # finite: a step without friction
    (0.0, math.nan, 0.0), (0.0, 1.0, math.inf), (math.inf, 1.0, -400.0),
    (0.0, math.inf, 0.0),  # sin of an infinite lean, in the step-start lean acceleration
])
def test_rk4_step_fails_as_the_checked_oracle(mode, a, b, bd):
    # the friction stage's lean edges: without friction only a non-finite value fails a step
    got, reference = _rk4_outcomes(WheelState(alpha=a, beta=b, beta_dot=bd), mode)
    assert got == reference
    assert (got[0] == "NonFiniteStateError") is not all(map(math.isfinite, (a, b, bd)))


_STEPPER_CALLS = {"sin", "cos", "exp", "abs", "_require_open_lean"}


def _stepper_closures():
    """(factory name, the step closures it defines) for each of the four stepper factories."""
    tree = ast.parse(Path(simulate.__file__).read_text())
    factories = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name.endswith("_stepper") and node.name != "_stepper"]
    assert sorted(f.name for f in factories) == [
        "_friction_stepper", "_lag_stepper", "_torque_stepper", "_velocity_stepper"]
    found = []
    for factory in factories:
        closures = [node for node in ast.walk(factory) if isinstance(node, ast.FunctionDef)
                    and node is not factory]
        assert closures
        found.append((factory.name, closures))
    return found


def test_no_stepper_judges_its_own_step():
    # the step's failure rule lives in run_closed_loop and rk4_step, not in the kernels:
    # a stepper raises only DegenerateLeanError, and calls no helper that could raise another
    for name, closures in _stepper_closures():
        for node in (n for closure in closures for n in ast.walk(closure)):
            assert not isinstance(node, ast.Try), name
            names = (getattr(node, "id", None), getattr(node, "attr", None))
            assert "isfinite" not in names and "NonFiniteStateError" not in names, name
            if isinstance(node, ast.Call):
                assert getattr(node.func, "id", None) in _STEPPER_CALLS, \
                    (name, ast.unparse(node.func))


_LAW_CALLS = {"sin", "cos", "tanh", "exp", "abs", "_require_open_lean"}


def test_each_command_is_its_law():
    # the run loop calls command once per row: the law is its body, with the
    # constants bound at construction read through self once, and no call
    # through self or to a helper beyond the math functions and the lean check
    tree = ast.parse(Path(controllers.__file__).read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for name in ("BalanceController", "PositionController", "LineController"):
        (command,) = [node for node in classes[name].body
                      if isinstance(node, ast.FunctionDef) and node.name == "command"]
        raised = {id(node.exc) for node in ast.walk(command) if isinstance(node, ast.Raise)}
        reads = []
        for node in ast.walk(command):
            if isinstance(node, ast.Call) and id(node) not in raised:
                assert isinstance(node.func, ast.Name) and node.func.id in _LAW_CALLS, \
                    (name, ast.unparse(node.func))
            if isinstance(node, ast.Name) and node.id == "self":
                reads.append(node)
        assert len(reads) == 1, name
        (unpack,) = [node for node in command.body if isinstance(node, ast.Assign)
                     and ast.unparse(node.value) == "self._k"]
        assert isinstance(unpack.targets[0], ast.Tuple), name


def test_every_stepper_returns_the_eight_coordinates():
    # the lean acceleration is a value of the state, formed by the callers:
    # each closure returns (a, b, g, ad, bd, gd, xa, ya), eight expressions
    for name, closures in _stepper_closures():
        returns = [node for closure in closures for node in ast.walk(closure)
                   if isinstance(node, ast.Return)]
        assert returns, name
        for node in returns:
            assert isinstance(node.value, ast.Tuple) and len(node.value.elts) == 8, \
                (name, ast.unparse(node))


# ------------------------------------------------------------- event bounds


def _one_step(kind, **thresholds):
    """A one-step (two-row) run config of the given kind; the tracking laws switch hard."""
    common = dict(dt=0.01, t_end=0.01, thresholds=Thresholds(**thresholds))
    if kind == "balance":
        return SimConfig(kind="balance", gains=BalanceGains(),
                         initial=WheelState(beta=_HALF_PI + 0.05, alpha_dot=1.0), **common)
    if kind == "falling":  # a tracking run whose lean falls toward 0
        return SimConfig(kind="point_to_point", gains=PositionGains(smoothing=None),
                         initial=WheelState(beta=_HALF_PI - 1.0, beta_dot=-0.5, x_a=1.0),
                         **common)
    if kind == "rising":  # ... and toward pi
        return SimConfig(kind="point_to_point", gains=PositionGains(smoothing=None),
                         initial=WheelState(beta=_HALF_PI + 1.0, beta_dot=0.5, x_a=1.0),
                         **common)
    if kind == "point_to_point":
        return SimConfig(kind="point_to_point", gains=PositionGains(smoothing=None),
                         initial=WheelState(beta=_HALF_PI + 0.05, x_a=1.0), **common)
    return SimConfig(kind="line", gains=LineGains(smoothing=None),
                     waypoints=((0.0, 0.0), (5.0, 0.0)),
                     initial=WheelState(alpha=pi, beta=_HALF_PI + 0.05, x_a=0.01), **common)


def _last_row(kind):
    traj = run_closed_loop(_one_step(kind))
    assert traj.events == [] and traj.row_count == 2
    return {name: col[-1] for name, col in traj.channels.items()}


def _up(x):
    return math.nextafter(x, math.inf)


def _down(x):
    return math.nextafter(x, -math.inf)


def _boundary_cases():
    """name -> config whose threshold sits on, or one ulp past, the second row's state."""
    bal = _last_row("balance")
    low, high = _last_row("falling")["beta"], _last_row("rising")["beta"]
    p2p, line = _last_row("point_to_point")["e"], _last_row("line")
    assert low < _HALF_PI - 1.0 and high > _HALF_PI + 1.0
    assert pi - (pi - high) == high  # Sterbenz: the window's upper end is exactly the lean
    settled = dict(lean=abs(bal["beta"] - _HALF_PI), lean_rate=abs(bal["beta_dot"]),
                   steer_rate=abs(bal["alpha_dot"]), roll_rate=abs(bal["gamma_dot"]))
    return {
        "lean_at_margin": _one_step("falling", topple_margin=low),
        "lean_inside_margin": _one_step("falling", topple_margin=_down(low)),
        "lean_at_pi_minus_margin": _one_step("rising", topple_margin=pi - high),
        # one ulp of pi - margin is coarser than one of margin: move the window's end
        "lean_inside_pi_minus_margin": _one_step("rising", topple_margin=pi - _up(high)),
        "steer_rate_at_floor": _one_step("balance", alpha_dot_floor=abs(bal["alpha_dot"])),
        "steer_rate_below_floor": _one_step("balance",
                                            alpha_dot_floor=_up(abs(bal["alpha_dot"]))),
        "balance_at_tolerances": _one_step("balance", **settled),
        "balance_lean_past_tolerance": _one_step(
            "balance", **dict(settled, lean=_down(settled["lean"]))),
        "e_at_distance": _one_step("point_to_point", distance=p2p),
        "e_below_distance": _one_step("point_to_point", distance=_up(p2p)),
        "d_e_at_thresholds": _one_step("line", distance=line["d"], line_offset=line["e"]),
        "d_e_below_thresholds": _one_step("line", distance=_up(line["d"]),
                                          line_offset=_up(line["e"])),
        "e_below_d_at_threshold": _one_step("line", distance=line["d"],
                                            line_offset=_up(line["e"])),
    }


# (kind, time, detail) of every event each run recorded before the loop was fused
PINNED_EVENTS = {
    "balance_at_tolerances":
        [("Converged", 0.01, "lean, lean rate, steering rate, rolling rate all within thresholds")],
    "balance_lean_past_tolerance": [],
    "d_e_at_thresholds": [],
    "d_e_below_thresholds":
        [("Converged", 0.01, "d = 4.9778 m and line distance e = 0.0002 m within thresholds")],
    "e_at_distance": [],
    "e_below_d_at_threshold": [],
    "e_below_distance": [("Converged", 0.01, "e = 0.9878 m < 0.9878096536320828 m")],
    "lean_at_margin": [("Toppled", 0.01, "beta = 0.566053 rad")],
    "lean_at_pi_minus_margin": [("Toppled", 0.01, "beta = 2.575540 rad")],
    "lean_inside_margin": [],
    "lean_inside_pi_minus_margin": [],
    "steer_rate_at_floor": [],
    "steer_rate_below_floor":
        [("SingularSteering", 0.01, "|alpha_dot| = 9.958e-01 below floor 9.958e-01")],
}


@pytest.fixture(scope="module")
def boundary_cases():
    return _boundary_cases()


@pytest.mark.parametrize("name", sorted(PINNED_EVENTS))
def test_events_at_threshold_match_detect_events(name, boundary_cases):
    cfg = boundary_cases[name]
    traj = run_closed_loop(cfg)
    got = [(ev.kind, ev.time, ev.detail) for ev in traj.events]
    assert got == PINNED_EVENTS[name]
    t = traj.times[-1]
    segment = int(traj.channels["segment"][-1]) if "segment" in traj.channels else 0
    at_state = [(ev.kind, ev.time, ev.detail)
                for ev in detect_events(traj.final_state, cfg, t=t, segment=segment)
                if ev.kind != "DomainExit"]
    assert got == at_state


def test_nan_lean_is_refused_as_detect_events_reports():
    # a NaN lean never reaches the loop: the start check uses the same topple predicate
    cfg = replace(_one_step("balance"), initial=WheelState(beta=math.nan, alpha_dot=1.0))
    events = detect_events(cfg.initial, cfg)
    assert [ev.kind for ev in events] == ["Toppled", "DomainExit"]
    assert events[0].detail == "beta = nan rad"
    with pytest.raises(InadmissibleStateError) as exc:
        run_closed_loop(cfg)
    # the same text, which says "initial" where it refuses a start
    assert str(exc.value) == "initial " + events[1].detail
