import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrowheel import (
    DegenerateLeanError,
    FrictionParams,
    RobotParams,
    WheelState,
    beta_jerk_coeffs,
    cancel_and_decouple,
    friction_torque,
    full_accel,
    inertia_matrix,
    lean_accel,
    nonlinear_terms,
)

import oracles
from oracles import beta_jerk_coeffs_variant


def test_inertia_entries_upright(params):
    M11, M13, _, M33, M_rho = inertia_matrix(WheelState(beta=math.pi / 2), params)
    assert M11 == pytest.approx(0.5, abs=1e-12)
    assert M13 == pytest.approx(0.0, abs=1e-12)
    assert M33 == pytest.approx(2.0, abs=1e-12)
    assert M_rho == pytest.approx(1.0, abs=1e-12)


def test_inertia_entries_at_sixty_degrees(params):
    M11, M13, _, M33, M_rho = inertia_matrix(WheelState(beta=math.pi / 3), params)
    assert M11 == pytest.approx(0.875, abs=1e-12)
    assert M13 == pytest.approx(1.0, abs=1e-12)
    assert M33 == pytest.approx(2.0, abs=1e-12)
    assert M_rho == pytest.approx(0.75, abs=1e-12)


def test_inertia_determinant_positive_sweep(params):
    n = 10_000
    for i in range(1, n):
        beta = math.pi * i / n
        _, _, _, _, M_rho = inertia_matrix(WheelState(beta=beta), params)
        assert M_rho > 0.0


def test_inertia_rejects_flat_wheel(params):
    for beta in (0.0, math.pi, -0.2, math.pi + 0.2):
        with pytest.raises(DegenerateLeanError):
            inertia_matrix(WheelState(beta=beta), params)


def test_nonlinear_terms_upright_spinning(params):
    st_ = WheelState(beta=math.pi / 2, alpha_dot=1.0, beta_dot=0.0, gamma_dot=2.0)
    n1, n2, n3 = nonlinear_terms(st_, params)
    assert n1 == pytest.approx(0.0, abs=1e-12)
    assert n2 == pytest.approx(-4.0, abs=1e-12)
    assert n3 == pytest.approx(0.0, abs=1e-12)


def test_reduced_params_values(params):
    Gm, Im, Jm = params.reduced()
    assert Gm == pytest.approx(6.533333333333333, rel=1e-12)
    assert Im == pytest.approx(1.0, rel=1e-12)
    assert Jm == pytest.approx(1.3333333333333333, rel=1e-12)


def test_reduced_accel_upright_spinning(params):
    bdd = lean_accel(math.pi / 2, 1.0, 2.0, params)
    assert bdd == pytest.approx(-8.0 / 3.0, rel=1e-12)


def test_cancel_and_decouple_upright_steer(params):
    u1, u2 = cancel_and_decouple(1.0, 0.0, WheelState(beta=math.pi / 2), params)
    assert u1 == pytest.approx(0.5, abs=1e-12)
    assert u2 == pytest.approx(0.0, abs=1e-12)


def _random_state(rng):
    return WheelState(
        alpha=rng.uniform(-math.pi, math.pi),
        beta=rng.uniform(0.3, math.pi - 0.3),
        gamma=rng.uniform(-math.pi, math.pi),
        alpha_dot=rng.uniform(-2.0, 2.0),
        beta_dot=rng.uniform(-1.0, 1.0),
        gamma_dot=rng.uniform(-3.0, 3.0),
    )


def test_cancellation_round_trip(params):
    # full_accel's steering and rolling rows invert the cancellation layer
    rng = random.Random(42)
    for _ in range(200):
        st_ = _random_state(rng)
        u5, u6 = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        u1, u2 = cancel_and_decouple(u5, u6, st_, params)
        u5b, _, u6b = full_accel(st_, u1, u2, params)
        assert abs(u5b - u5) < 1e-10
        assert abs(u6b - u6) < 1e-10


def test_torque_layer_completion_is_consistent(params):
    # motor torques plus the cancelled forces (N1, N3) are the cancelled
    # layer, which is the steering/rolling inertia block times (u5, u6)
    rng = random.Random(7)
    for _ in range(50):
        st_ = _random_state(rng)
        u1, u2 = cancel_and_decouple(1.3, -0.4, st_, params)
        M11, M13, _, M33, _ = inertia_matrix(st_, params)
        n1, _, n3 = nonlinear_terms(st_, params)
        assert u1 + n1 == pytest.approx(M11 * 1.3 + M13 * -0.4, abs=1e-10)
        assert u2 + n3 == pytest.approx(M13 * 1.3 + M33 * -0.4, abs=1e-10)
        u5, _, u6 = full_accel(st_, u1, u2, params)
        assert (u5, u6) == (pytest.approx(1.3, abs=1e-10), pytest.approx(-0.4, abs=1e-10))


def test_decoupled_commands_realize_requested_accelerations(params):
    # push (u5, u6) down to motor torques, then solve the full dynamics:
    # the steering and rolling accelerations must come back as commanded
    rng = random.Random(3)
    for _ in range(50):
        st_ = _random_state(rng)
        u5, u6 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        u1, u2 = cancel_and_decouple(u5, u6, st_, params)
        add, bdd, gdd = full_accel(st_, u1, u2, params)
        assert add == pytest.approx(u5, abs=1e-9)
        assert gdd == pytest.approx(u6, abs=1e-9)
        assert bdd == pytest.approx(
            lean_accel(st_.beta, st_.alpha_dot, st_.gamma_dot, params), abs=1e-12
        )


def _rk4_free(y, params, friction, dt):
    def f(yy):
        st_ = WheelState(
            alpha=yy[0], beta=yy[1], gamma=yy[2],
            alpha_dot=yy[3], beta_dot=yy[4], gamma_dot=yy[5],
        )
        add, bdd, gdd = full_accel(st_, 0.0, 0.0, params, friction)
        return (yy[3], yy[4], yy[5], add, bdd, gdd)

    k1 = f(y)
    y2 = tuple(a + 0.5 * dt * b for a, b in zip(y, k1))
    k2 = f(y2)
    y3 = tuple(a + 0.5 * dt * b for a, b in zip(y, k2))
    k3 = f(y3)
    y4 = tuple(a + dt * b for a, b in zip(y, k3))
    k4 = f(y4)
    return tuple(
        a + dt / 6.0 * (b + 2.0 * c + 2.0 * d + e)
        for a, b, c, d, e in zip(y, k1, k2, k3, k4)
    )


def _energy(y, params):
    _, beta, _, ad, bd, gd = y
    M11, M13, M22, M33, _ = inertia_matrix(WheelState(beta=beta), params)
    kinetic = 0.5 * (
        M11 * ad**2 + M22 * bd**2 + M33 * gd**2 + 2.0 * M13 * ad * gd
    )
    return kinetic + params.m * params.g * params.R * math.sin(beta)


def test_unforced_dynamics_conserve_energy(params):
    y = (0.0, math.pi / 2 + 0.2, 0.0, 0.8, 0.3, 1.5)
    e0 = _energy(y, params)
    for _ in range(2000):
        y = _rk4_free(y, params, None, 1e-3)
    assert abs(_energy(y, params) - e0) / abs(e0) < 1e-9


def test_friction_only_dissipates(params):
    y = (0.0, math.pi / 2 + 0.1, 0.0, 1.0, 0.2, 2.0)
    friction = FrictionParams()
    energies = [_energy(y, params)]
    for _ in range(1500):
        y = _rk4_free(y, params, friction, 1e-3)
        energies.append(_energy(y, params))
    drops = [b - a for a, b in zip(energies, energies[1:])]
    assert all(d <= 1e-12 for d in drops)
    assert energies[-1] < energies[0] - 0.1


def test_pure_lean_dynamics_conserve_pendulum_energy(params):
    # with both rates zero the lean equation is a pendulum about the rim
    Gm = params.Gm
    beta, beta_dot = math.pi / 2 + 0.4, 0.0
    e0 = 0.5 * beta_dot**2 + Gm * math.sin(beta)
    dt = 1e-3
    for _ in range(3000):
        def f(b, bd):
            return (bd, lean_accel(b, 0.0, 0.0, params))

        k1 = f(beta, beta_dot)
        k2 = f(beta + 0.5 * dt * k1[0], beta_dot + 0.5 * dt * k1[1])
        k3 = f(beta + 0.5 * dt * k2[0], beta_dot + 0.5 * dt * k2[1])
        k4 = f(beta + dt * k3[0], beta_dot + dt * k3[1])
        beta += dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        beta_dot += dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    assert 0.5 * beta_dot**2 + Gm * math.sin(beta) == pytest.approx(e0, abs=1e-9)


def test_jerk_coefficients_upright_no_roll(params):
    st_ = WheelState(beta=math.pi / 2, alpha_dot=1.0, gamma_dot=0.0)
    h1, h2, h3 = beta_jerk_coeffs(st_, params)
    assert h1 == pytest.approx(6.533333333333333 + 1.0, rel=1e-12)
    assert h2 == pytest.approx(0.0, abs=1e-12)
    assert h3 == pytest.approx(-4.0 / 3.0, rel=1e-12)


def test_jerk_coefficients_are_lean_accel_partials(params):
    # the three coefficients are the partials of lean_accel with respect to
    # lean angle, steering rate, and rolling rate; check via the chain rule
    rng = random.Random(11)
    for _ in range(20):
        beta = rng.uniform(0.8, math.pi - 0.8)
        ad = rng.uniform(0.3, 2.0)
        bd = rng.uniform(-1.0, 1.0)
        gd = rng.uniform(-2.0, 2.0)
        u5, u6 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        st_ = WheelState(beta=beta, alpha_dot=ad, beta_dot=bd, gamma_dot=gd)
        h1, h2, h3 = beta_jerk_coeffs(st_, params)
        eps = 1e-6
        d_beta = (
            lean_accel(beta + eps, ad, gd, params) - lean_accel(beta - eps, ad, gd, params)
        ) / (2 * eps)
        d_ad = (
            lean_accel(beta, ad + eps, gd, params) - lean_accel(beta, ad - eps, gd, params)
        ) / (2 * eps)
        d_gd = (
            lean_accel(beta, ad, gd + eps, params) - lean_accel(beta, ad, gd - eps, params)
        ) / (2 * eps)
        jerk = h1 * bd + h2 * u5 + h3 * u6
        chain = d_beta * bd + d_ad * u5 + d_gd * u6
        assert jerk == pytest.approx(chain, rel=1e-5, abs=1e-7)


def test_variant_jerk_coefficients_differ(params):
    st_ = WheelState(beta=1.2, alpha_dot=1.1, beta_dot=0.4, gamma_dot=-0.8)
    assert beta_jerk_coeffs(st_, params) != beta_jerk_coeffs_variant(1.2, 1.1, -0.8, params)


def test_friction_torque_unit_rates():
    f = friction_torque((1.0, 1.0), FrictionParams(D=1.0))
    assert f[0] == pytest.approx(0.343576, abs=1e-6)
    # the rolling joint from the same formula: mu_v + mu_d + (mu_s - mu_d)/e
    assert f[1] == pytest.approx(0.16 + 0.03 * math.exp(-1.0), abs=1e-12)


def test_friction_torque_zero_rate_is_zero():
    assert friction_torque((0.0, 0.0), FrictionParams()) == (0.0, 0.0)


def test_friction_torque_takes_the_two_joint_rates_only():
    # a (steering, lean, rolling) triple would otherwise give the rolling joint the lean rate
    with pytest.raises(ValueError, match="zip"):
        friction_torque((1.0, 2.0, 3.0), FrictionParams())


@given(
    v=st.tuples(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
)
@settings(max_examples=100, deadline=None)
def test_friction_torque_is_odd(v):
    fp = FrictionParams()
    forward = friction_torque(v, fp)
    backward = friction_torque(tuple(-x for x in v), fp)
    for a, b in zip(forward, backward):
        assert a == pytest.approx(-b, abs=1e-12)


@given(
    beta=st.floats(1e-4, math.pi - 1e-4, allow_nan=False),
    ad=st.floats(-5, 5, allow_nan=False),
    gd=st.floats(-5, 5, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_inertia_positive_definite_random(beta, ad, gd):
    M11, M13, _, M33, M_rho = inertia_matrix(WheelState(beta=beta), RobotParams())
    assert M_rho > 0.0
    quad = M11 * ad**2 + 2.0 * M13 * ad * gd + M33 * gd**2
    assert quad >= -1e-12


# ------------------------------------------ the library layer against the oracle
#
# No run calls these functions: the friction stepper and the balance law write the
# same equations in place, and tests/test_fused_kernel.py holds those to
# tests/oracles.py. Each library function is held to the same oracle here, bit for
# bit or by the same exception, so the physics tests above, which exercise the
# library layer, speak for the equations the runs integrate.

_NEAR_FLAT = (5e-324, 1e-300, 1e-8, math.pi - 1e-8, math.nextafter(math.pi, 0.0))
_leans = st.one_of(st.floats(0.05, math.pi - 0.05), st.floats(5e-324, 1e-6),
                   st.floats(math.pi - 1e-6, math.nextafter(math.pi, 0.0)),
                   st.sampled_from(_NEAR_FLAT + (0.0, math.pi, math.pi / 2)))
_rates = st.one_of(st.floats(-5.0, 5.0), st.sampled_from((0.0, -0.0)))
_commands = st.one_of(_rates, st.floats(-400.0, 400.0))
_params = st.one_of(st.just(RobotParams()),
                    st.builds(RobotParams, m=st.floats(0.1, 10.0), R=st.floats(0.05, 2.0),
                              Ix=st.floats(0.01, 2.0)))
_frictions = st.builds(
    lambda v, dyn, extra, D: FrictionParams(mu_v=v, mu_d=dyn,
                                            mu_s=tuple(a + b for a, b in zip(dyn, extra)), D=D),
    *[st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 0.5))] * 2)] * 3, st.floats(0.01, 0.5),
)


def _outcome(fn, *args):
    """The bits of fn's result, flattened, or the type and message of what it raised."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    flat = [v for item in out for v in (item if isinstance(item, tuple) else (item,))]
    return [struct.pack("<d", v) for v in flat]


@given(beta=_leans, ad=_rates, bd=_rates, gd=_rates, params=_params)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_inertia_matrix_and_nonlinear_terms_are_the_oracles(beta, ad, bd, gd, params):
    state = WheelState(beta=beta, alpha_dot=ad, beta_dot=bd, gamma_dot=gd)

    def library():
        M11, M13, M22, M33, M_rho = inertia_matrix(state, params)
        assert M22 is params.M22 and M_rho == M11 * M33 - M13**2  # the oracle's minor
        return (M11, M13, M33), nonlinear_terms(state, params)

    assert _outcome(library) == _outcome(oracles.inertia_and_forces, beta, ad, bd, gd, params)


@given(beta=_leans, ad=_rates, bd=_rates, gd=_rates, u1=_commands, u2=_commands,
       params=_params, friction=_frictions)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_full_accel_with_friction_is_the_oracles(beta, ad, bd, gd, u1, u2, params, friction):
    state = WheelState(beta=beta, alpha_dot=ad, beta_dot=bd, gamma_dot=gd)
    assert (_outcome(full_accel, state, u1, u2, params, friction)
            == _outcome(oracles.full_accel, beta, ad, bd, gd, u1, u2, params, friction))


@given(q_dot=st.tuples(_rates, _rates), friction=_frictions)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_friction_torque_is_the_oracles_joint_friction(q_dot, friction):
    f = friction
    expected = [oracles.joint_friction(v, f.mu_v[i], f.mu_d[i], f.mu_s[i], f.D)
                for i, v in enumerate(q_dot)]
    assert _outcome(friction_torque, q_dot, f) == _outcome(lambda: expected)


@given(beta=_leans, ad=_rates, gd=_rates, params=_params)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_beta_jerk_coeffs_are_the_oracles(beta, ad, gd, params):
    state = WheelState(beta=beta, alpha_dot=ad, gamma_dot=gd)
    assert (_outcome(beta_jerk_coeffs, state, params)
            == _outcome(oracles.jerk_coeffs, beta, ad, gd, params))


@given(beta=_leans, ad=_rates, bd=_rates, gd=_rates, u5=_commands, u6=_commands,
       params=_params)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cancel_and_decouple_is_the_friction_steps_decoupling(beta, ad, bd, gd, u5, u6, params):
    state = WheelState(beta=beta, alpha_dot=ad, beta_dot=bd, gamma_dot=gd)
    assert (_outcome(cancel_and_decouple, u5, u6, state, params)
            == _outcome(oracles.decouple, beta, ad, bd, gd, u5, u6, params))
