import math
import random

import pytest

from gyrowheel import (
    BalanceController,
    BalanceGains,
    LineController,
    LineGains,
    PositionController,
    PositionGains,
    RobotParams,
    Smoothing,
    WheelState,
    balance_control,
    balance_value,
    beta_jerk_coeffs,
    lean_accel,
    line_control,
    polar_view,
    position_control,
    sigma,
)


def test_sigma_zero_at_rest():
    assert sigma(0.0, 0.0, 0.0) == 0.0


def _upright(alpha_dot=1.0, **kw):
    return WheelState(beta=math.pi / 2, alpha_dot=alpha_dot, **kw)


def _balance_command(ctl, st):
    """BalanceController.command at a state, with the lean acceleration and V filled in."""
    bdd = st.beta_ddot
    if bdd is None:
        bdd = lean_accel(st.beta, st.alpha_dot, st.gamma_dot, ctl.params)
    return ctl.command(st.beta, st.alpha_dot, st.beta_dot, st.gamma_dot, bdd, ctl.certificate(st))


class TestBalanceControl:
    def test_upright_rest_pure_steer_decay(self, params):
        st = _upright(beta_ddot=0.0)
        u5, u6 = balance_control(st, BalanceGains(), 0.0, +1.0, params)
        assert u5 == pytest.approx(-1.0, abs=1e-12)
        assert u6 == pytest.approx(0.0, abs=1e-12)

    def test_frozen_lean_offset_fixture(self, params):
        beta = math.pi / 2 + 0.1
        bdd = lean_accel(beta, 1.0, 0.0, params)
        assert bdd == pytest.approx(0.7515796541568082, abs=1e-12)
        V = balance_value(beta, 0.0, bdd)
        assert V == pytest.approx(0.4627519191025955, abs=1e-12)
        st = WheelState(beta=beta, alpha_dot=1.0, beta_ddot=bdd)
        u5, u6 = balance_control(st, BalanceGains(), V, +1.0, params)
        assert u5 == pytest.approx(-0.1752220208866403, abs=1e-12)
        assert u6 == pytest.approx(1.8994350542262772, abs=1e-12)

    def test_latched_negative_branch(self, params):
        st = _upright(alpha_dot=1.0, beta_ddot=0.0)
        u5, _ = balance_control(st, BalanceGains(), 0.0625, -1.0, params)
        # negative latch pushes the steering floor below zero: -(1 + 0.5)
        assert u5 == pytest.approx(-1.5, abs=1e-12)

    def test_closed_loop_jerk_cancellation(self, params):
        rng = random.Random(19)
        for k1 in (0.0, 1.0, 2.5):
            command = BalanceController(BalanceGains(k1=k1), params, 1.0).command
            for _ in range(50):
                st = WheelState(
                    beta=rng.uniform(0.5, math.pi - 0.5),
                    alpha_dot=rng.uniform(0.2, 2.0) * rng.choice((-1, 1)),
                    beta_dot=rng.uniform(-1, 1),
                    gamma_dot=rng.uniform(-2, 2),
                    beta_ddot=rng.uniform(-1, 1),
                )
                V = balance_value(st.beta, st.beta_dot, st.beta_ddot, k1)
                u5, u6 = command(st.beta, st.alpha_dot, st.beta_dot, st.gamma_dot,
                                 st.beta_ddot, V)
                h1, h2, h3 = beta_jerk_coeffs(st, params)
                jerk = h1 * st.beta_dot + h2 * u5 + h3 * u6
                x = st.beta - math.pi / 2
                want = -(
                    (2 + k1) * x + (3 + 2 * k1) * st.beta_dot + (2 + k1) * st.beta_ddot
                )
                assert jerk == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_zero_steering_rate_is_singular(self, params):
        st = WheelState(beta=math.pi / 2, alpha_dot=0.0, beta_ddot=0.0)
        with pytest.raises(ZeroDivisionError):
            balance_control(st, BalanceGains(), 0.0, 1.0, params)

    def test_gain_invariants(self):
        with pytest.raises(ValueError):
            BalanceGains(k2=0.0)
        with pytest.raises(ValueError):
            BalanceGains(k1=-0.1)


class TestBalanceController:
    def test_sign_latched_at_construction(self, params):
        ctl = BalanceController(BalanceGains(), params, alpha_dot0=-2.0)
        # the state's current sign is positive, but the latch stays negative
        u5, _ = _balance_command(ctl, _upright(alpha_dot=1.0, beta_ddot=0.0))
        assert u5 == pytest.approx(-1.0, abs=1e-12)
        ctl_pos = BalanceController(BalanceGains(), params, alpha_dot0=2.0)
        u5_pos, _ = _balance_command(ctl_pos, _upright(alpha_dot=1.0, beta_ddot=0.0))
        assert u5_pos == pytest.approx(-1.0, abs=1e-12)
        # with a nonzero certificate the branches separate
        st = WheelState(beta=math.pi / 2 + 0.05, alpha_dot=1.0)
        assert _balance_command(ctl, st)[0] < _balance_command(ctl_pos, st)[0]

    def test_certificate_fills_missing_lean_accel(self, params):
        ctl = BalanceController(BalanceGains(), params, alpha_dot0=1.0)
        st = WheelState(beta=math.pi / 2 + 0.1, alpha_dot=1.0)
        bdd = lean_accel(st.beta, 1.0, 0.0, params)
        assert ctl.certificate(st) == pytest.approx(
            balance_value(st.beta, 0.0, bdd), abs=1e-12
        )


class TestPositionControl:
    def test_worked_example_hard_switching(self, params):
        st = WheelState(beta=math.pi / 2, beta_dot=0.1)
        pv = (2.0, 0.0, math.pi / 3)
        gains = PositionGains(k3=3.0, k4=1.0, smoothing=None)
        u_alpha, u_gamma = position_control(st, pv, gains, params)
        assert u_alpha == pytest.approx(-3.0, abs=1e-12)
        assert u_gamma == pytest.approx(-2.05, abs=1e-12)

    def test_quiescent_at_goal(self, params):
        st = WheelState(beta=math.pi / 2)
        pv = (0.0, 0.0, 0.0)
        gains = PositionGains(smoothing=None)
        _, u_gamma = position_control(st, pv, gains, params)
        assert u_gamma == pytest.approx(0.0, abs=1e-12)

    def test_steering_magnitude_bound(self, params):
        rng = random.Random(29)
        hard = PositionGains(k3=3.0, k4=1.0, smoothing=None)
        soft = PositionGains(k3=3.0, k4=1.0, smoothing=Smoothing())
        for _ in range(100):
            st = WheelState(
                beta=rng.uniform(0.6, math.pi - 0.6),
                beta_dot=rng.uniform(-1, 1),
            )
            pv = (rng.uniform(0, 6), rng.uniform(-3, 3), rng.uniform(-3, 3))
            ua_hard, _ = position_control(st, pv, hard, params)
            ua_soft, _ = position_control(st, pv, soft, params)
            assert abs(ua_hard) == pytest.approx(3.0, abs=1e-12)
            assert abs(ua_soft) <= 3.0 + 1e-12

    def test_smoothed_agrees_in_sign_away_from_switch(self, params):
        rng = random.Random(37)
        k6 = 20.0
        hard = PositionGains(k3=3.0, k4=1.0, smoothing=None)
        soft = PositionGains(k3=3.0, k4=1.0, smoothing=Smoothing(k6=k6, k7=20.0))
        n_checked = 0
        for _ in range(300):
            s_lean = rng.uniform(-1, 1)
            if abs(s_lean) <= 5.0 / k6:
                continue
            st = WheelState(beta=math.pi / 2 + s_lean, beta_dot=0.0)
            pv = (1.0, 0.0, rng.uniform(-1.2, 1.2))
            ua_hard, _ = position_control(st, pv, hard, params)
            ua_soft, _ = position_control(st, pv, soft, params)
            assert math.copysign(1, ua_hard) == math.copysign(1, ua_soft)
            n_checked += 1
        assert n_checked > 100

    def test_lean_certificate_cross_term_inequality(self, params):
        # under the law, the commanded rates force the lean surface toward
        # zero at unit margin: s * beta_ddot <= -2 s^2 for admissible states
        rng = random.Random(43)
        command = PositionController(PositionGains(k3=3.0, k4=1.0, smoothing=None),
                                     params).command
        for _ in range(1000):
            st = WheelState(
                beta=rng.uniform(math.pi / 2 - 0.5, math.pi / 2 + 0.5),
                beta_dot=rng.uniform(-0.5, 0.5),
            )
            e, _, psi = (rng.uniform(0, 6), rng.uniform(-3, 3), rng.uniform(-3, 3))
            u_alpha, u_gamma = command(st.beta, st.beta_dot, e, psi)
            bdd = lean_accel(st.beta, u_alpha, u_gamma, params)
            s = (st.beta - math.pi / 2) + st.beta_dot
            assert s * bdd <= -2.0 * s * s + 1e-12

    def test_rotation_invariance(self, params):
        rng = random.Random(47)
        gains = PositionGains(k3=3.0, k4=1.0, smoothing=Smoothing())
        for _ in range(50):
            x, y = rng.uniform(-4, 4), rng.uniform(-4, 4)
            tx, ty = rng.uniform(-2, 2), rng.uniform(-2, 2)
            alpha = rng.uniform(-3, 3)
            rot = rng.uniform(-3, 3)
            st = WheelState(
                beta=rng.uniform(1.2, 2.0), beta_dot=rng.uniform(-0.5, 0.5),
                alpha=alpha,
            )
            pv = polar_view(WheelState(x_a=x, y_a=y, alpha=alpha), (tx, ty))
            base = position_control(st, pv, gains, params)
            c, s_ = math.cos(rot), math.sin(rot)
            pv_rot = polar_view(
                WheelState(x_a=c * x - s_ * y, y_a=s_ * x + c * y, alpha=alpha + rot),
                (c * tx - s_ * ty, s_ * tx + c * ty),
            )
            spun = position_control(st, pv_rot, gains, params)
            assert spun == pytest.approx(base, abs=1e-9)

    def test_gain_invariants(self):
        with pytest.raises(ValueError):
            PositionGains(k3=2.0)
        with pytest.raises(ValueError):
            PositionGains(k3=3.0, k4=0.0)
        with pytest.raises(ValueError):
            PositionGains(k3=3.0, k4=2.0)


def _synthetic_line(p, *, phi=0.0, theta=-0.4, alpha=-0.3, d=1.0):
    return (1.0, 0.3, d, theta, phi, p, 5.0)  # (r, e, d, theta, phi, p, ell)


class TestLineControl:
    def test_worked_example_full_drive(self, params):
        # both geometric products positive, projection overshoot ahead:
        # full drive magnitude k5, steering pegged at k3 via Sgn(0) = +1
        st = WheelState(beta=math.pi / 2, alpha=-0.3)
        lg = _synthetic_line(p=2.0)
        gains = LineGains(k3=3.0, k5=1.0, smoothing=None)
        u_alpha, u_gamma = line_control(st, lg, gains, params)
        assert u_gamma == pytest.approx(-1.0, abs=1e-12)
        assert u_alpha == pytest.approx(-3.0, abs=1e-12)

    def test_drive_halts_past_projection(self, params):
        st = WheelState(beta=math.pi / 2, beta_dot=0.2, alpha=-0.3)
        lg = _synthetic_line(p=-2.0)
        gains = LineGains(k3=3.0, k5=1.0, smoothing=None)
        _, u_gamma = line_control(st, lg, gains, params)
        Gm, Im, Jm = params.reduced()
        u_k = 2.0 * 0.2 / (Jm * 3.0)
        assert u_gamma == pytest.approx(-u_k, abs=1e-12)

    def test_quiescent_just_past_goal(self, params):
        st = WheelState(beta=math.pi / 2, alpha=-0.3)
        lg = _synthetic_line(p=-1e-9, d=0.0)
        _, u_gamma = line_control(st, lg, LineGains(smoothing=None), params)
        assert u_gamma == pytest.approx(0.0, abs=1e-12)

    def test_side_switch_flips_across_line(self, params):
        # contact above vs below the track flips theta's side and with it
        # the whole command pair
        from gyrowheel import line_geometry

        st = WheelState(beta=math.pi / 2 + 0.2, alpha=2.8)
        gains = LineGains(k3=3.0, k5=1.0, smoothing=None)
        above = line_geometry(WheelState(x_a=2.0, y_a=0.5, alpha=2.8), (5.0, 0.0))
        below = line_geometry(WheelState(x_a=2.0, y_a=-0.5, alpha=2.8), (5.0, 0.0))
        ua_above, ug_above = line_control(st, above, gains, params)
        ua_below, ug_below = line_control(st, below, gains, params)
        assert ua_above == pytest.approx(-ua_below, abs=1e-12)
        # drive magnitude differs (the overshoot gate sees p*s), but its
        # sign tracks the side switch
        assert math.copysign(1, ug_above) == -math.copysign(1, ug_below)

    def test_output_ignores_endpoint_distance_field(self, params):
        st = WheelState(beta=math.pi / 2 + 0.1, alpha=-0.3)
        gains = LineGains(k3=3.0, k5=1.5, smoothing=Smoothing())
        near = line_control(st, _synthetic_line(2.0, d=0.2), gains, params)
        far = line_control(st, _synthetic_line(2.0, d=4.0), gains, params)
        assert near == far

    def test_steering_magnitude_bound(self, params):
        rng = random.Random(53)
        hard = LineGains(k3=3.0, k5=1.0, smoothing=None)
        soft = LineGains(k3=3.0, k5=1.0, smoothing=Smoothing())
        for _ in range(100):
            st = WheelState(
                beta=rng.uniform(0.6, math.pi - 0.6),
                beta_dot=rng.uniform(-1, 1),
                alpha=rng.uniform(-3, 3),
            )
            lg = _synthetic_line(
                rng.uniform(-3, 3), phi=rng.uniform(-3, 3), theta=rng.uniform(-3, 3)
            )
            ua_hard, _ = line_control(st, lg, hard, params)
            ua_soft, _ = line_control(st, lg, soft, params)
            assert abs(ua_hard) == pytest.approx(3.0, abs=1e-12)
            assert abs(ua_soft) <= 3.0 + 1e-12

    def test_gain_invariants(self):
        with pytest.raises(ValueError):
            LineGains(k5=0.0)
        with pytest.raises(ValueError):
            LineGains(k3=1.5)


class TestControllerWrappers:
    def test_position_controller_binds_target(self, params):
        ctl = PositionController(PositionGains(), params, target=(3.0, 4.0))
        st = WheelState(beta=math.pi / 2, alpha=0.0, x_a=3.0, y_a=0.0)
        pv = ctl.view(st)
        e, _, psi = pv
        assert e == pytest.approx(4.0, abs=1e-12)
        direct = position_control(st, pv, ctl.gains, params)
        assert ctl.command(st.beta, st.beta_dot, e, psi) == direct

    def test_line_controller_segments(self, params):
        ctl = LineController(
            LineGains(), params, waypoints=((0.0, 0.0), (2.0, 0.0), (2.0, 3.0))
        )
        assert ctl.waypoints == ((0.0, 0.0), (2.0, 0.0), (2.0, 3.0))
        st = WheelState(beta=math.pi / 2, alpha=0.0, x_a=1.0, y_a=0.0)
        *_, first_phi, _, _ = ctl.geometry(st, 0)
        *_, second_phi, _, second_ell = ctl.geometry(st, 1)
        assert first_phi == pytest.approx(0.0, abs=1e-12)
        assert second_phi == pytest.approx(math.pi / 2, abs=1e-12)
        assert second_ell == pytest.approx(3.0, abs=1e-12)

    def test_line_controller_needs_two_waypoints(self, params):
        with pytest.raises(ValueError):
            LineController(LineGains(), params, waypoints=((0.0, 0.0),))
