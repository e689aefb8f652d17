import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrowheel import (
    DegenerateLineError,
    RobotParams,
    WheelState,
    line_chart,
    line_geometry,
    polar_view,
    rk4_step,
    wrap_to_pi,
)
from gyrowheel.kinematics import EPS_RADIUS

from oracles import polar_rates

# The first-order rolling constraints and the contact map. The package
# integrates only what they imply for the contact point, the pure heading
# motion R*gamma_dot*(cos(alpha), sin(alpha)) that is the x_a/y_a row of
# every stepper; the tests below derive that row from them.


def rolling_velocity(state, params):
    """Ground velocity (X_dot, Y_dot) of the wheel-center projection."""
    R = params.R
    sa, ca = math.sin(state.alpha), math.cos(state.alpha)
    sb, cb = math.sin(state.beta), math.cos(state.beta)
    ad, bd, gd = state.alpha_dot, state.beta_dot, state.gamma_dot
    x_dot = R * (gd * ca + ad * ca * cb - bd * sa * sb)
    y_dot = R * (gd * sa + ad * sa * cb + bd * ca * sb)
    return (x_dot, y_dot)


def contact_point(X, Y, alpha, beta, params):
    """Contact point (x_a, y_a) beneath the wheel given the center projection.

    The offsets are R*cos(beta) resolved along the heading normal; the two
    components carry opposite signs so that differentiating this map under
    the rolling constraints collapses to the pure-heading contact velocity.
    """
    cb = math.cos(beta)
    return (X - params.R * math.sin(alpha) * cb, Y + params.R * math.cos(alpha) * cb)


def stepper_contact_velocity(state, params, h=1e-5):
    """The torque stepper's x_a/y_a row at `state`, by a central difference of
    one RK4 step forward and one back from a contact point at the origin."""
    st0 = WheelState(
        alpha=state.alpha, beta=state.beta, alpha_dot=state.alpha_dot,
        beta_dot=state.beta_dot, gamma_dot=state.gamma_dot,
    )
    fwd = rk4_step(st0, "torque", 0.0, 0.0, params, h)
    back = rk4_step(st0, "torque", 0.0, 0.0, params, -h)
    return ((fwd.x_a - back.x_a) / (2 * h), (fwd.y_a - back.y_a) / (2 * h))


def test_wrap_boundary_convention():
    assert wrap_to_pi(math.pi) == pytest.approx(math.pi)
    assert wrap_to_pi(-math.pi) == pytest.approx(math.pi)
    assert wrap_to_pi(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_to_pi(0.0) == 0.0
    assert wrap_to_pi(2 * math.pi) == pytest.approx(0.0, abs=1e-12)


@given(angle=st.floats(-50.0, 50.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_wrap_lands_in_half_open_interval(angle):
    w = wrap_to_pi(angle)
    assert -math.pi < w <= math.pi
    # must differ from the input by a whole number of turns
    turns = (angle - w) / (2 * math.pi)
    assert abs(turns - round(turns)) < 1e-9


def test_rolling_velocity_upright_matches_contact_velocity(params):
    st_ = WheelState(alpha=0.7, beta=math.pi / 2, alpha_dot=0.4, gamma_dot=1.3)
    assert rolling_velocity(st_, params) == pytest.approx(
        stepper_contact_velocity(st_, params), abs=1e-9
    )


def test_contact_point_upright_is_under_center(params):
    assert contact_point(2.0, -1.0, 0.3, math.pi / 2, params) == pytest.approx(
        (2.0, -1.0), abs=1e-12
    )


def test_contact_point_lean_offset(params):
    # leaning with heading along +x shifts the contact along -y by R*cos(beta)
    x_a, y_a = contact_point(0.0, 0.0, 0.0, math.pi / 3, params)
    assert x_a == pytest.approx(0.0, abs=1e-12)
    assert y_a == pytest.approx(params.R * 0.5, abs=1e-12)


def test_contact_velocity_collapses_to_heading(params):
    # differentiate the contact map along the rolling flow: the lean and
    # steering contributions cancel, leaving the stepper's pure heading motion
    rng = random.Random(5)
    h = 1e-6
    for _ in range(30):
        st_ = WheelState(
            alpha=rng.uniform(-3, 3),
            beta=rng.uniform(0.4, math.pi - 0.4),
            alpha_dot=rng.uniform(-2, 2),
            beta_dot=rng.uniform(-1, 1),
            gamma_dot=rng.uniform(-3, 3),
        )
        X, Y = rng.uniform(-5, 5), rng.uniform(-5, 5)
        xd, yd = rolling_velocity(st_, params)
        plus = contact_point(
            X + h * xd, Y + h * yd,
            st_.alpha + h * st_.alpha_dot, st_.beta + h * st_.beta_dot, params,
        )
        minus = contact_point(
            X - h * xd, Y - h * yd,
            st_.alpha - h * st_.alpha_dot, st_.beta - h * st_.beta_dot, params,
        )
        fd = ((plus[0] - minus[0]) / (2 * h), (plus[1] - minus[1]) / (2 * h))
        assert fd == pytest.approx(stepper_contact_velocity(st_, params), abs=1e-6)


def test_contact_speed_is_rolling_speed(params):
    # a held rolling rate with the heading held moves the contact point
    # R*|gamma_dot| per second
    dt = 0.5
    for gd in (-2.5, -0.1, 0.0, 0.7, 3.0):
        st_ = rk4_step(WheelState(alpha=1.1), "velocity", 0.0, gd, params, dt)
        assert math.hypot(st_.x_a, st_.y_a) / dt == pytest.approx(
            params.R * abs(gd), abs=1e-12
        )


def test_polar_view_at_target_is_floored():
    e, _, psi = polar_view(WheelState(x_a=1e-9, y_a=-1e-9, alpha=0.4), target=(0.0, 0.0))
    assert e == 0.0
    assert psi == 0.0


def test_polar_view_aligned_heading():
    alpha = math.atan2(4.0, 3.0)
    e, theta, psi = polar_view(WheelState(x_a=3.0, y_a=4.0, alpha=alpha))
    assert e == pytest.approx(5.0, abs=1e-12)
    assert theta == pytest.approx(alpha, abs=1e-12)
    assert psi == pytest.approx(0.0, abs=1e-12)


def test_polar_view_respects_target_shift():
    e, theta, _ = polar_view(WheelState(x_a=3.0, y_a=4.0, alpha=0.0), target=(3.0, 3.0))
    assert e == pytest.approx(1.0, abs=1e-12)
    assert theta == pytest.approx(math.pi / 2, abs=1e-12)


def test_polar_rates_match_finite_differences(params):
    # exact zero-order-hold motion: alpha advances linearly, the contact
    # integrates R*u_gamma along the rotating heading
    rng = random.Random(9)
    h = 1e-5
    for _ in range(30):
        x0, y0 = rng.uniform(-4, 4), rng.uniform(-4, 4)
        if math.hypot(x0, y0) < 0.2:
            continue
        a0 = rng.uniform(-3, 3)
        ua = rng.uniform(0.1, 2.0) * rng.choice((-1, 1))
        ug = rng.uniform(-2.0, 2.0)

        def view_at(t):
            alpha_t = a0 + ua * t
            x_t = x0 + params.R * ug / ua * (math.sin(alpha_t) - math.sin(a0))
            y_t = y0 - params.R * ug / ua * (math.cos(alpha_t) - math.cos(a0))
            e, _, psi = polar_view(WheelState(x_a=x_t, y_a=y_t, alpha=alpha_t))
            return e, psi

        e, psi = view_at(0.0)
        (e_plus, psi_plus), (e_minus, psi_minus) = view_at(h), view_at(-h)
        e_dot_fd = (e_plus - e_minus) / (2 * h)
        psi_dot_fd = wrap_to_pi(psi_plus - psi_minus) / (2 * h)
        e_dot, psi_dot = polar_rates(e, psi, ua, ug, params)
        assert e_dot_fd == pytest.approx(e_dot, rel=1e-3, abs=1e-6)
        assert psi_dot_fd == pytest.approx(psi_dot, rel=1e-3, abs=1e-6)


def test_polar_rates_at_floor_drop_singular_term(params):
    e, _, psi = polar_view(WheelState(x_a=0.0, y_a=0.0, alpha=0.4))
    e_dot, psi_dot = polar_rates(e, psi, 0.7, 1.0, params)
    assert e_dot == pytest.approx(params.R * 1.0, abs=1e-12)
    assert psi_dot == pytest.approx(-0.7, abs=1e-12)


def test_line_geometry_point_on_segment():
    r, e, d, _, phi, _, ell = line_geometry(WheelState(x_a=2.0, y_a=0.0, alpha=0.0), (5.0, 0.0))
    assert r == pytest.approx(2.0, abs=1e-12)
    assert e == pytest.approx(0.0, abs=1e-12)
    assert d == pytest.approx(3.0, abs=1e-12)
    assert ell == pytest.approx(5.0, abs=1e-12)
    assert phi == pytest.approx(0.0, abs=1e-12)


def test_line_geometry_perpendicular_offset():
    r, e, *_ = line_geometry(WheelState(x_a=2.0, y_a=0.75, alpha=0.0), (5.0, 0.0))
    assert e == pytest.approx(0.75, abs=1e-12)
    assert r == pytest.approx(math.hypot(2.0, 0.75), abs=1e-12)


def test_line_geometry_offset_origin():
    r, e, d, _, phi, _, _ = line_geometry(
        WheelState(x_a=1.0, y_a=2.0, alpha=0.0), end=(1.0, 5.0), origin=(1.0, 1.0)
    )
    assert phi == pytest.approx(math.pi / 2, abs=1e-12)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert e == pytest.approx(0.0, abs=1e-12)
    assert d == pytest.approx(3.0, abs=1e-12)


def test_line_geometry_drive_gate_sign():
    # heading anti-aligned with the track from its start: the projection
    # overshoot is +ell, so the drive gate opens; aligned heading closes it
    p_rev = line_geometry(WheelState(x_a=0.0, y_a=0.0, alpha=math.pi), (5.0, 0.0))[5]
    p_fwd = line_geometry(WheelState(x_a=0.0, y_a=0.0, alpha=0.0), (5.0, 0.0))[5]
    assert p_rev == pytest.approx(5.0, abs=1e-12)
    assert p_fwd == pytest.approx(-5.0, abs=1e-12)


def test_line_geometry_projection_formula():
    rng = random.Random(21)
    for _ in range(50):
        x, y = rng.uniform(-4, 4), rng.uniform(-4, 4)
        alpha = rng.uniform(-3, 3)
        end = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        if math.hypot(*end) < 1e-3:
            continue
        r, _, _, theta, phi, p, ell = line_geometry(WheelState(x_a=x, y_a=y, alpha=alpha), end)
        expected = r * math.cos(theta - alpha) - ell * math.cos(phi - alpha)
        assert p == pytest.approx(expected, abs=1e-12)


@given(
    seed=st.integers(0, 10_000),
    rot=st.floats(-math.pi, math.pi, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_line_geometry_rotation_invariance(seed, rot):
    rng = random.Random(seed)
    x, y = rng.uniform(-4, 4), rng.uniform(-4, 4)
    alpha = rng.uniform(-3, 3)
    origin = (rng.uniform(-2, 2), rng.uniform(-2, 2))
    end = (origin[0] + rng.uniform(0.5, 4), origin[1] + rng.uniform(0.5, 4))

    def rotate(px, py):
        c, s = math.cos(rot), math.sin(rot)
        return (c * px - s * py, s * px + c * py)

    r, e, d, _, phi, p, ell = line_geometry(WheelState(x_a=x, y_a=y, alpha=alpha), end, origin)
    rx, ry = rotate(x, y)
    r2, e2, d2, _, phi2, p2, ell2 = line_geometry(
        WheelState(x_a=rx, y_a=ry, alpha=alpha + rot), rotate(*end), rotate(*origin)
    )
    assert r2 == pytest.approx(r, abs=1e-9)
    assert e2 == pytest.approx(e, abs=1e-9)
    assert d2 == pytest.approx(d, abs=1e-9)
    assert ell2 == pytest.approx(ell, abs=1e-9)
    assert p2 == pytest.approx(p, abs=1e-9)
    assert wrap_to_pi(phi2 - phi - rot) == pytest.approx(0.0, abs=1e-9)


def test_line_geometry_offset_never_exceeds_radius():
    rng = random.Random(13)
    for _ in range(200):
        x, y = rng.uniform(-5, 5), rng.uniform(-5, 5)
        r, e, *_ = line_geometry(
            WheelState(x_a=x, y_a=y, alpha=rng.uniform(-3, 3)),
            (rng.uniform(1, 5), rng.uniform(-5, 5)),
        )
        assert e <= r + 1e-12


def test_line_geometry_rejects_degenerate_segment():
    # the second pair is EPS_RADIUS apart, which SimConfig refuses as waypoints too
    for origin, end in (((2.0, 3.0), (2.0, 3.0)), ((0.0, 0.0), (EPS_RADIUS, 0.0))):
        with pytest.raises(DegenerateLineError):
            line_geometry(WheelState(x_a=1.0, y_a=1.0, alpha=0.0), end, origin)
        with pytest.raises(DegenerateLineError):
            line_chart(origin, end)


def test_default_params_radius_used():
    big = RobotParams(m=1.0, R=2.0, Ix=0.5)
    st_ = rk4_step(WheelState(alpha=0.0), "velocity", 0.0, 1.0, big, 0.25)
    assert (st_.x_a / 0.25, st_.y_a / 0.25) == pytest.approx((2.0, 0.0), abs=1e-12)
