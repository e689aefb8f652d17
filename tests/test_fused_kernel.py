"""Differential tests of the fused control step, and its events at their thresholds.

The float laws compute the jerk coefficients, the drive floor and the
switches in place, and each RK4 stepper tests its own result for
finiteness; the friction stepper solves each stage in one function. The
``_ref_*`` functions below are the laws and steppers as written before that
fusion, kept here as the reference: every fused law and stepper must give
the same bits, or raise the same error with the same message, on the
edges the fusion touches (a lean switch at exactly 0, an overshoot
product p*s of 0, friction rates of exactly 0, a stage lean at 0 or pi,
NaN and infinite stages).

The run loop compares against threshold floats bound once per run and
builds an event only when its condition holds. The event tests put a
threshold exactly on the state a one-step run reaches, and one ulp past
it: the run must record what detect_events reports at that state, and the
events pinned here are those the loop recorded before the fusion.
"""

import math
import struct
from dataclasses import replace
from math import cos, exp, isfinite, pi, sin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrowheel import (
    BalanceGains,
    DegenerateLeanError,
    FrictionParams,
    InadmissibleStateError,
    LineGains,
    NonFiniteStateError,
    PositionGains,
    RobotParams,
    SimConfig,
    SingularSteeringError,
    Smoothing,
    Thresholds,
    WheelState,
    detect_events,
    hard_sign,
    hard_step,
    run_closed_loop,
    smooth_sign,
    smooth_step,
)
from gyrowheel.controllers import _balance_law, _line_law, _position_law
from gyrowheel.dynamics import _require_open_lean
from gyrowheel.simulate import (
    _friction_stepper,
    _lag_stepper,
    _torque_stepper,
    _velocity_stepper,
)

PARAMS = RobotParams()
_HALF_PI = pi / 2.0


def _outcome(fn, *args):
    """The bits of fn's result, or the type and message of what it raised."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc))
    return [struct.pack("<d", v) for v in out]


# ------------------------------------------------------------------ reference


def _ref_jerk_coeffs(beta, ad, gd, Gm, Im, Jm):
    _require_open_lean(beta)
    sb, cb = math.sin(beta), math.cos(beta)
    s2b, c2b = math.sin(2.0 * beta), math.cos(2.0 * beta)
    h1 = Gm * sb - Im * c2b * ad**2 - Jm * cb * ad * gd
    h2 = -Im * s2b * ad - Jm * sb * gd
    h3 = -Jm * sb * ad
    return (h1, h2, h3)


def _ref_balance_law(gains, sign0, params):
    k2 = gains.k2
    c0, c1 = 2.0 + gains.k1, 3.0 + 2.0 * gains.k1
    Gm, Im, Jm = params.Gm, params.Im, params.Jm

    def law(beta, alpha_dot, beta_dot, gamma_dot, beta_ddot, V):
        x = beta - _HALF_PI
        u5 = -(alpha_dot - sign0 * (k2 * V) ** 0.25)
        h1, h2, h3 = _ref_jerk_coeffs(beta, alpha_dot, gamma_dot, Gm, Im, Jm)
        if h3 == 0.0:
            raise SingularSteeringError(
                "steering rate is zero: rolling-channel gain h3 vanished"
            )
        target_jerk = c0 * x + c1 * beta_dot + c0 * beta_ddot
        u6 = -(target_jerk + h1 * beta_dot + h2 * u5) / h3
        return (u5, u6)

    return law


def _ref_drive_floor(k3, params):
    Gm, Im, Jm = params.Gm, params.Im, params.Jm

    def drive_floor(s_lean, beta):
        sb, cb = sin(beta), cos(beta)
        f1 = abs(Gm * cb + Im * cb * sb * k3 * k3)
        return (2.0 * abs(s_lean) + f1) / (Jm * sb * k3)

    return drive_floor


def _ref_position_law(gains, params):
    k3, k4 = gains.k3, gains.k4
    k6 = None if gains.smoothing is None else gains.smoothing.k6
    drive_floor = _ref_drive_floor(k3, params)

    def law(beta, beta_dot, e, psi):
        s_lean = (beta - _HALF_PI) + beta_dot
        side = hard_sign(cos(psi))
        u_k = drive_floor(s_lean, beta)
        lean = hard_sign(s_lean) if k6 is None else smooth_sign(s_lean, k6)
        return (-k3 * side * lean, -(k4 * e + u_k) * side)

    return law


def _ref_line_law(gains, params):
    k3, k5 = gains.k3, gains.k5
    k6 = k7 = None
    if gains.smoothing is not None:
        k6, k7 = gains.smoothing.k6, gains.smoothing.k7
    drive_floor = _ref_drive_floor(k3, params)

    def law(alpha, beta, beta_dot, theta, phi, p):
        s_lean = (beta - _HALF_PI) + beta_dot
        s = hard_sign(sin(phi - alpha) * sin(phi - theta))
        u_k = drive_floor(s_lean, beta)
        if k7 is None:
            f2 = k5 * hard_step(p * s)
        else:
            f2 = k5 * smooth_step(p * s, k7)
        lean = hard_sign(s_lean) if k6 is None else smooth_sign(s_lean, k6)
        return (-k3 * s * lean, -(f2 + u_k) * s)

    return law


def _ref_nonfinite():
    return NonFiniteStateError("an RK4 stage produced a NaN or an infinity")


def _ref_checked(out):
    if isfinite(sum(out)) or all(map(isfinite, out)):
        return out
    raise _ref_nonfinite()


def _ref_torque_stepper(params, dt):
    R, Gm, Im, Jm = params.R, params.Gm, params.Im, params.Jm
    h2, h6 = 0.5 * dt, dt / 6.0

    def step(a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6):
        try:
            a2, b2 = a + h2 * ad, b + h2 * bd
            ad2, bd2, gd2 = ad + h2 * u5, bd + h2 * bdd, gd + h2 * u6
            sb, cb = sin(b2), cos(b2)
            l2 = -Gm * cb - Im * cb * sb * ad2**2 - Jm * sb * ad2 * gd2
            a3, b3, bd3 = a + h2 * ad2, b + h2 * bd2, bd + h2 * l2
            sb, cb = sin(b3), cos(b3)
            l3 = -Gm * cb - Im * cb * sb * ad2**2 - Jm * sb * ad2 * gd2
            a4, b4 = a + dt * ad2, b + dt * bd3
            ad4, bd4, gd4 = ad + dt * u5, bd + dt * l3, gd + dt * u6
            sb, cb = sin(b4), cos(b4)
            l4 = -Gm * cb - Im * cb * sb * ad4**2 - Jm * sb * ad4 * gd4
            x1, y1 = R * gd * cos(a), R * gd * sin(a)
            x2, y2 = R * gd2 * cos(a2), R * gd2 * sin(a2)
            x3, y3 = R * gd2 * cos(a3), R * gd2 * sin(a3)
            x4, y4 = R * gd4 * cos(a4), R * gd4 * sin(a4)
            b_n = b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4)
            ad_n = ad + h6 * (u5 + 2.0 * u5 + 2.0 * u5 + u5)
            gd_n = gd + h6 * (u6 + 2.0 * u6 + 2.0 * u6 + u6)
            sb, cb = sin(b_n), cos(b_n)
            return _ref_checked((
                a + h6 * (ad + 2.0 * ad2 + 2.0 * ad2 + ad4),
                b_n,
                g + h6 * (gd + 2.0 * gd2 + 2.0 * gd2 + gd4),
                ad_n,
                bd + h6 * (bdd + 2.0 * l2 + 2.0 * l3 + l4),
                gd_n,
                -Gm * cb - Im * cb * sb * ad_n**2 - Jm * sb * ad_n * gd_n,
                xa + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
                ya + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
            ))
        except (ValueError, OverflowError):
            raise _ref_nonfinite() from None

    return step


def _ref_lean_exit(beta):
    if not isfinite(beta):
        raise _ref_nonfinite()
    _require_open_lean(beta)


def _ref_friction_stepper(params, friction, dt):
    R, M22, Gm, Im, Jm = params.R, params.M22, params.Gm, params.Im, params.Jm
    m, Ix = params.m, params.Ix
    big = 2.0 * Ix + m * R**2
    disk = Ix + m * R**2
    ix2, disk2, mgr = 2.0 * Ix, 2.0 * disk, -m * params.g * R
    mv_a, _, mv_g = friction.mu_v
    md_a, _, md_g = friction.mu_d
    ms_a, _, ms_g = friction.mu_s
    D = friction.D
    h2, h6 = 0.5 * dt, dt / 6.0

    def forces(b, ad, bd, gd):
        if not 0.0 < b < pi:
            _ref_lean_exit(b)
        sb, cb, s2b = sin(b), cos(b), sin(2.0 * b)
        M11 = Ix * sb**2 + big * cb**2
        M13 = big * cb
        return (
            M11, M13, M11 * big - M13**2,
            disk * s2b * ad * bd + ix2 * sb * bd * gd,
            mgr * cb - big * sb * ad * gd - disk * cb * sb * ad**2,
            disk2 * sb * ad * bd,
        )

    def accel(f, ad, gd, u1, u2):
        M11, M13, M_rho, n1, n2, n3 = f
        s = 1.0 if ad > 0.0 else -1.0 if ad < 0.0 else 0.0
        rhs1 = n1 + (u1 - (mv_a * ad + (md_a + (ms_a - md_a) * exp(-abs(ad) / D)) * s))
        s = 1.0 if gd > 0.0 else -1.0 if gd < 0.0 else 0.0
        rhs3 = n3 + (u2 - (mv_g * gd + (md_g + (ms_g - md_g) * exp(-abs(gd) / D)) * s))
        return (
            (big * rhs1 - M13 * rhs3) / M_rho,
            n2 / M22,
            (-M13 * rhs1 + M11 * rhs3) / M_rho,
        )

    def step(a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6):
        try:
            f = forces(b, ad, bd, gd)
            M11, M13, _, n1, _, n3 = f
            u1 = (M11 * u5 + M13 * u6) - n1
            u2 = (M13 * u5 + big * u6) - n3
            add1, bdd1, gdd1 = accel(f, ad, gd, u1, u2)
            a2, b2 = a + h2 * ad, b + h2 * bd
            ad2, bd2, gd2 = ad + h2 * add1, bd + h2 * bdd1, gd + h2 * gdd1
            add2, bdd2, gdd2 = accel(forces(b2, ad2, bd2, gd2), ad2, gd2, u1, u2)
            a3, b3 = a + h2 * ad2, b + h2 * bd2
            ad3, bd3, gd3 = ad + h2 * add2, bd + h2 * bdd2, gd + h2 * gdd2
            add3, bdd3, gdd3 = accel(forces(b3, ad3, bd3, gd3), ad3, gd3, u1, u2)
            a4, b4 = a + dt * ad3, b + dt * bd3
            ad4, bd4, gd4 = ad + dt * add3, bd + dt * bdd3, gd + dt * gdd3
            add4, bdd4, gdd4 = accel(forces(b4, ad4, bd4, gd4), ad4, gd4, u1, u2)
            x1, y1 = R * gd * cos(a), R * gd * sin(a)
            x2, y2 = R * gd2 * cos(a2), R * gd2 * sin(a2)
            x3, y3 = R * gd3 * cos(a3), R * gd3 * sin(a3)
            x4, y4 = R * gd4 * cos(a4), R * gd4 * sin(a4)
            b_n = b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4)
            ad_n = ad + h6 * (add1 + 2.0 * add2 + 2.0 * add3 + add4)
            gd_n = gd + h6 * (gdd1 + 2.0 * gdd2 + 2.0 * gdd3 + gdd4)
            sb, cb = sin(b_n), cos(b_n)
            return _ref_checked((
                a + h6 * (ad + 2.0 * ad2 + 2.0 * ad3 + ad4),
                b_n,
                g + h6 * (gd + 2.0 * gd2 + 2.0 * gd3 + gd4),
                ad_n,
                bd + h6 * (bdd1 + 2.0 * bdd2 + 2.0 * bdd3 + bdd4),
                gd_n,
                -Gm * cb - Im * cb * sb * ad_n**2 - Jm * sb * ad_n * gd_n,
                xa + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
                ya + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
            ))
        except DegenerateLeanError:
            raise
        except (ValueError, OverflowError, ZeroDivisionError):
            raise _ref_nonfinite() from None

    return step


def _ref_velocity_stepper(params, dt):
    R, Gm, Im, Jm = params.R, params.Gm, params.Im, params.Jm
    h2, h6 = 0.5 * dt, dt / 6.0

    def step(a, b, g, bd, xa, ya, ad, gd, bdd, ua, ug):
        try:
            a2, b2, bd2 = a + h2 * ua, b + h2 * bd, bd + h2 * bdd
            sb, cb = sin(b2), cos(b2)
            l2 = -Gm * cb - Im * cb * sb * ua**2 - Jm * sb * ua * ug
            b3, bd3 = b + h2 * bd2, bd + h2 * l2
            sb, cb = sin(b3), cos(b3)
            l3 = -Gm * cb - Im * cb * sb * ua**2 - Jm * sb * ua * ug
            a4, b4, bd4 = a + dt * ua, b + dt * bd3, bd + dt * l3
            sb, cb = sin(b4), cos(b4)
            l4 = -Gm * cb - Im * cb * sb * ua**2 - Jm * sb * ua * ug
            x2, y2 = R * ug * cos(a2), R * ug * sin(a2)
            return _ref_checked((
                a + h6 * (ua + 2.0 * ua + 2.0 * ua + ua),
                b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4),
                g + h6 * (ug + 2.0 * ug + 2.0 * ug + ug),
                bd + h6 * (bdd + 2.0 * l2 + 2.0 * l3 + l4),
                xa + h6 * (R * ug * cos(a) + 2.0 * x2 + 2.0 * x2 + R * ug * cos(a4)),
                ya + h6 * (R * ug * sin(a) + 2.0 * y2 + 2.0 * y2 + R * ug * sin(a4)),
                ua,
                ug,
            ))
        except (ValueError, OverflowError):
            raise _ref_nonfinite() from None

    return step


def _ref_lag_stepper(params, dt, tau):
    R, Gm, Im, Jm = params.R, params.Gm, params.Im, params.Jm
    h2, h6 = 0.5 * dt, dt / 6.0

    def step(a, b, g, bd, xa, ya, za, zg, bdd, ua, ug):
        try:
            fa1, fg1 = (ua - za) / tau, (ug - zg) / tau
            a2, b2, bd2 = a + h2 * za, b + h2 * bd, bd + h2 * bdd
            za2, zg2 = za + h2 * fa1, zg + h2 * fg1
            sb, cb = sin(b2), cos(b2)
            l2 = -Gm * cb - Im * cb * sb * za2**2 - Jm * sb * za2 * zg2
            fa2, fg2 = (ua - za2) / tau, (ug - zg2) / tau
            a3, b3, bd3 = a + h2 * za2, b + h2 * bd2, bd + h2 * l2
            za3, zg3 = za + h2 * fa2, zg + h2 * fg2
            sb, cb = sin(b3), cos(b3)
            l3 = -Gm * cb - Im * cb * sb * za3**2 - Jm * sb * za3 * zg3
            fa3, fg3 = (ua - za3) / tau, (ug - zg3) / tau
            a4, b4, bd4 = a + dt * za3, b + dt * bd3, bd + dt * l3
            za4, zg4 = za + dt * fa3, zg + dt * fg3
            sb, cb = sin(b4), cos(b4)
            l4 = -Gm * cb - Im * cb * sb * za4**2 - Jm * sb * za4 * zg4
            fa4, fg4 = (ua - za4) / tau, (ug - zg4) / tau
            x1, y1 = R * zg * cos(a), R * zg * sin(a)
            x2, y2 = R * zg2 * cos(a2), R * zg2 * sin(a2)
            x3, y3 = R * zg3 * cos(a3), R * zg3 * sin(a3)
            x4, y4 = R * zg4 * cos(a4), R * zg4 * sin(a4)
            return _ref_checked((
                a + h6 * (za + 2.0 * za2 + 2.0 * za3 + za4),
                b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4),
                g + h6 * (zg + 2.0 * zg2 + 2.0 * zg3 + zg4),
                bd + h6 * (bdd + 2.0 * l2 + 2.0 * l3 + l4),
                xa + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
                ya + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
                za + h6 * (fa1 + 2.0 * fa2 + 2.0 * fa3 + fa4),
                zg + h6 * (fg1 + 2.0 * fg2 + 2.0 * fg3 + fg4),
            ))
        except (ValueError, OverflowError):
            raise _ref_nonfinite() from None

    return step


# ----------------------------------------------------------------- strategies

SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e200, -1e200)


def _values(lo, hi):
    """Mostly ordinary floats in [lo, hi], sometimes a zero, NaN, infinity or huge value."""
    return st.one_of(st.floats(lo, hi), st.floats(lo, hi), st.floats(lo, hi),
                     st.sampled_from(SPECIAL))


leans = st.one_of(st.floats(0.05, pi - 0.05), st.floats(0.05, pi - 0.05),
                  st.sampled_from((0.0, pi, -0.0, 1e-300, math.nan, math.inf, 4.0)))
rates = _values(-5.0, 5.0)
angles = _values(-10.0, 10.0)
# step commands and lean rates large enough to throw a stage lean out of (0, pi)
pushes = st.one_of(_values(-5.0, 5.0), st.floats(-400.0, 400.0))
smoothings = st.one_of(st.none(), st.builds(Smoothing, k6=st.floats(0.5, 50.0),
                                            k7=st.floats(0.5, 50.0)))
steps = st.sampled_from((1e-3, 0.01, 0.1, -1e-3))
frictions = st.builds(
    lambda v, dyn, extra, D: FrictionParams(mu_v=v, mu_d=dyn,
                                            mu_s=tuple(a + b for a, b in zip(dyn, extra)), D=D),
    st.tuples(*[st.floats(0.0, 0.5)] * 3), st.tuples(*[st.floats(0.0, 0.5)] * 3),
    st.tuples(*[st.floats(0.0, 0.5)] * 3), st.floats(0.01, 0.5),
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
    assert _outcome(_balance_law(gains, sign0, PARAMS), *args) == _outcome(
        _ref_balance_law(gains, sign0, PARAMS), *args)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lean=lean_data(), e=_values(0.0, 10.0), psi=angles, k3=st.floats(2.1, 6.0),
       k4_share=st.floats(0.01, 0.99), smoothing=smoothings)
def test_position_law_matches_reference(lean, e, psi, k3, k4_share, smoothing):
    beta, beta_dot = lean
    gains = PositionGains(k3=k3, k4=k4_share * (k3 - 1.0), smoothing=smoothing)
    args = (beta, beta_dot, e, psi)
    assert _outcome(_position_law(gains, PARAMS), *args) == _outcome(
        _ref_position_law(gains, PARAMS), *args)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lean=lean_data(), alpha=angles, theta=angles, phi=angles,
       p=st.one_of(st.sampled_from((0.0, -0.0)), _values(-10.0, 10.0)),
       k3=st.floats(2.1, 6.0), k5=st.floats(0.1, 3.0), smoothing=smoothings)
def test_line_law_matches_reference(lean, alpha, theta, phi, p, k3, k5, smoothing):
    beta, beta_dot = lean
    gains = LineGains(k3=k3, k5=k5, smoothing=smoothing)
    args = (alpha, beta, beta_dot, theta, phi, p)
    assert _outcome(_line_law(gains, PARAMS), *args) == _outcome(
        _ref_line_law(gains, PARAMS), *args)


def test_law_edges_are_reached():
    # the strategies above reach these; pin one point on each
    assert _outcome(_line_law(LineGains(), PARAMS), 0.3, _HALF_PI, -0.0, 1.0, 0.0, 0.0) == \
        _outcome(_ref_line_law(LineGains(), PARAMS), 0.3, _HALF_PI, -0.0, 1.0, 0.0, 0.0)
    law = _balance_law(BalanceGains(), 1.0, PARAMS)
    with pytest.raises(DegenerateLeanError, match="outside"):
        law(pi, 1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(SingularSteeringError, match="h3 vanished"):
        law(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


# ------------------------------------------------------------------ steppers


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=angles, b=leans, g=angles, ad=rates, bd=pushes, gd=rates, bdd=rates, xa=angles,
       ya=angles, u5=pushes, u6=pushes, dt=steps)
def test_torque_stepper_matches_reference(a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6, dt):
    args = (a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6)
    assert _outcome(_torque_stepper(PARAMS, dt), *args) == _outcome(
        _ref_torque_stepper(PARAMS, dt), *args)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=angles, b=leans, g=angles, ad=rates, bd=pushes, gd=rates, xa=angles, ya=angles,
       u5=pushes, u6=pushes, dt=steps, friction=frictions)
def test_friction_stepper_matches_reference(a, b, g, ad, bd, gd, xa, ya, u5, u6, dt,
                                            friction):
    args = (a, b, g, ad, bd, gd, 0.0, xa, ya, u5, u6)
    assert _outcome(_friction_stepper(PARAMS, friction, dt), *args) == _outcome(
        _ref_friction_stepper(PARAMS, friction, dt), *args)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=angles, b=leans, g=angles, bd=pushes, xa=angles, ya=angles, bdd=rates, ua=pushes,
       ug=pushes, dt=steps)
def test_velocity_stepper_matches_reference(a, b, g, bd, xa, ya, bdd, ua, ug, dt):
    args = (a, b, g, bd, xa, ya, ua, ug, bdd, ua, ug)
    assert _outcome(_velocity_stepper(PARAMS, dt), *args) == _outcome(
        _ref_velocity_stepper(PARAMS, dt), *args)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=angles, b=leans, g=angles, bd=pushes, xa=angles, ya=angles, za=rates, zg=rates,
       bdd=rates, ua=pushes, ug=pushes, dt=steps, tau=st.floats(0.01, 0.2))
def test_lag_stepper_matches_reference(a, b, g, bd, xa, ya, za, zg, bdd, ua, ug, dt, tau):
    args = (a, b, g, bd, xa, ya, za, zg, bdd, ua, ug)
    assert _outcome(_lag_stepper(PARAMS, dt, tau), *args) == _outcome(
        _ref_lag_stepper(PARAMS, dt, tau), *args)


@pytest.mark.parametrize("b, bd, expected", [
    (0.0, 0.0, "DegenerateLeanError"),  # the step-start lean on the boundary
    (pi, 0.0, "DegenerateLeanError"),
    (1.0, -400.0, "DegenerateLeanError"),  # a later stage lean below 0
    (math.nan, 0.0, "NonFiniteStateError"),
    (1.0, math.inf, "NonFiniteStateError"),
])
def test_friction_stage_lean_edges(b, bd, expected):
    fp = FrictionParams()
    args = (0.0, b, 0.0, 0.0, bd, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)  # rates of exactly 0
    got = _outcome(_friction_stepper(PARAMS, fp, 0.01), *args)
    assert got == _outcome(_ref_friction_stepper(PARAMS, fp, 0.01), *args)
    assert got[0] == expected


# ------------------------------------------------------------- event bounds


def _one_step(kind, **thresholds):
    """A one-step (two-row) run config of the given kind."""
    common = dict(dt=0.01, t_end=0.01, thresholds=Thresholds(**thresholds))
    if kind == "balance":
        return SimConfig(kind="balance", gains=BalanceGains(),
                         initial=WheelState(beta=_HALF_PI + 0.05, alpha_dot=1.0), **common)
    if kind == "falling":  # a tracking run whose lean falls toward 0
        return SimConfig(kind="point_to_point", gains=PositionGains(),
                         initial=WheelState(beta=_HALF_PI - 1.0, beta_dot=-0.5, x_a=1.0),
                         **common)
    if kind == "rising":  # ... and toward pi
        return SimConfig(kind="point_to_point", gains=PositionGains(),
                         initial=WheelState(beta=_HALF_PI + 1.0, beta_dot=0.5, x_a=1.0),
                         **common)
    if kind == "point_to_point":
        return SimConfig(kind="point_to_point", gains=PositionGains(),
                         initial=WheelState(beta=_HALF_PI + 0.05, x_a=1.0), **common)
    return SimConfig(kind="line", gains=LineGains(), waypoints=((0.0, 0.0), (5.0, 0.0)),
                     initial=WheelState(alpha=pi, beta=_HALF_PI + 0.05, x_a=0.01),
                     **common)


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
