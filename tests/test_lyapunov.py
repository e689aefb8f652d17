import math
import random
import sys
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gyrowheel import (
    BalanceController,
    BalanceGains,
    LineController,
    LineGains,
    PositionController,
    PositionGains,
    RobotParams,
    balance_value,
    decay_monitor,
    lean_tracking_value,
    sigma,
)
from gyrowheel.lyapunov import RATE_FLOOR, TOLERANCE

import oracles
from oracles import closed_form_alpha_dot, closed_form_beta, closed_form_beta_rates


def test_balance_value_at_goal_is_zero():
    assert balance_value(math.pi / 2, 0.0, 0.0) == 0.0


def test_balance_value_worked_example():
    assert balance_value(math.pi / 2 + 0.1, 0.0, 0.0) == pytest.approx(0.03, abs=1e-12)


def test_position_value_worked_example(p2p_traj):
    # the point-to-point certificate is V1 + e**2/2, V1 the lean certificate;
    # the run starts 5 m from the target, leaning 0.02 rad at rest
    ch = p2p_traj.channels
    assert ch["V"][0] == pytest.approx(12.5004, abs=1e-12)
    for i in range(p2p_traj.row_count):
        assert ch["V1"][i] == lean_tracking_value(ch["beta"][i], ch["beta_dot"][i])
        assert ch["V"][i] == ch["V1"][i] + 0.5 * ch["e"][i] ** 2


def test_steer_value_formula(balance_traj_20s):
    # the steering certificate sqrt(k2*V)/4 + alpha_dot**2/2 (k2 = 1) falls at
    # every step of the nominal balance run
    ch = balance_traj_20s.channels
    w = [math.sqrt(v) / 4.0 + 0.5 * ad * ad for v, ad in zip(ch["V"], ch["alpha_dot"])]
    assert all(b < a for a, b in zip(w, w[1:]))
    assert w[-1] < 1e-6 * w[0]


def test_line_value_sums_distances(line_traj, corridor_traj):
    # the line certificate is V1 + (e**2 + d**2)/2 on every segment
    for traj in (line_traj, corridor_traj):
        ch = traj.channels
        for i in range(traj.row_count):
            assert ch["V1"][i] == lean_tracking_value(ch["beta"][i], ch["beta_dot"][i])
            assert ch["V"][i] == ch["V1"][i] + 0.5 * (ch["e"][i] ** 2 + ch["d"][i] ** 2)


@given(
    a=st.floats(-1, 1, allow_nan=False),
    b=st.floats(-1, 1, allow_nan=False),
    c=st.floats(-1, 1, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_closed_form_starts_at_initial_offset(a, b, c):
    assert closed_form_beta(a, b, c, 0.0) == pytest.approx(a, abs=1e-12)
    x, xd, xdd = closed_form_beta_rates(a, b, c, 0.0)
    assert (x, xd, xdd) == pytest.approx((a, b, c), abs=1e-12)


def test_closed_form_reference_point():
    got = closed_form_beta(0.1, 0.0, 0.0, 1.0)
    assert got == pytest.approx(0.078012, abs=1e-4)
    assert got == pytest.approx(0.07800825245761929, abs=1e-12)


def test_closed_form_decays_to_zero():
    for a, b, c in ((0.1, 0.0, 0.0), (-0.3, 0.5, 0.2), (0.0, -1.0, 1.0)):
        assert abs(closed_form_beta(a, b, c, 40.0)) < 1e-15


def test_closed_form_rates_are_derivatives():
    h = 1e-5
    rng = random.Random(17)
    for _ in range(20):
        a, b, c = (rng.uniform(-0.5, 0.5) for _ in range(3))
        t = rng.uniform(0.0, 5.0)
        x, xd, xdd = closed_form_beta_rates(a, b, c, t)
        assert x == pytest.approx(closed_form_beta(a, b, c, t), abs=1e-14)
        fd1 = (
            closed_form_beta(a, b, c, t + h) - closed_form_beta(a, b, c, t - h)
        ) / (2 * h)
        assert fd1 == pytest.approx(xd, abs=1e-8)
        fd2 = (
            closed_form_beta(a, b, c, t + h)
            - 2 * closed_form_beta(a, b, c, t)
            + closed_form_beta(a, b, c, t - h)
        ) / (h * h)
        assert fd2 == pytest.approx(xdd, abs=1e-5)


def test_closed_form_satisfies_jerk_equation():
    # five-point third-derivative stencil against the linear jerk law
    h = 1e-3
    rng = random.Random(23)
    for _ in range(25):
        a, b, c = (rng.uniform(-0.5, 0.5) for _ in range(3))
        t = rng.uniform(0.1, 4.0)
        f = lambda tt: closed_form_beta(a, b, c, tt)
        third = (f(t + 2 * h) - 2 * f(t + h) + 2 * f(t - h) - f(t - 2 * h)) / (
            2 * h**3
        )
        x, xd, xdd = closed_form_beta_rates(a, b, c, t)
        # stencil truncation is ~h^2/4 * |fifth derivative| ~ 2.5e-6 here
        assert third == pytest.approx(-(3 * x + 5 * xd + 3 * xdd), abs=1e-5)


def test_closed_form_stays_inside_amplitude_envelope():
    rng = random.Random(31)
    for _ in range(100):
        a, b, c = (rng.uniform(-0.4, 0.4) for _ in range(3))
        bound = sigma(a, b, c)
        for i in range(200):
            t = i * 0.05
            assert abs(closed_form_beta(a, b, c, t)) <= bound + 1e-12


def test_sigma_worked_example():
    assert sigma(0.1, 0.0, 0.0) == pytest.approx(0.15 + 0.1 / math.sqrt(2) + 0.05,
                                                 abs=1e-12)


def test_steering_rate_initial_and_damping_only_cases():
    assert closed_form_alpha_dot(1.3, 0.5, 1.0, 0.0) == pytest.approx(1.3, abs=1e-12)
    for t in (0.0, 0.7, 2.5):
        assert closed_form_alpha_dot(1.3, 0.0, 1.0, t) == pytest.approx(
            1.3 * math.exp(-t), abs=1e-12
        )


def test_steering_rate_matches_ode_integration():
    # integrate alpha_ddot = -(alpha_dot - (k2*V)^(1/4)) with V = V0*exp(-2t)
    alpha_dot0, V0, k2 = 1.0, 0.03, 1.0
    dt = 1e-4
    ad = alpha_dot0
    t = 0.0
    for _ in range(20_000):
        def f(tt, a):
            return -(a - (k2 * V0 * math.exp(-2.0 * tt)) ** 0.25)

        k1_ = f(t, ad)
        k2_ = f(t + dt / 2, ad + dt / 2 * k1_)
        k3_ = f(t + dt / 2, ad + dt / 2 * k2_)
        k4_ = f(t + dt, ad + dt * k3_)
        ad += dt / 6 * (k1_ + 2 * k2_ + 2 * k3_ + k4_)
        t += dt
    assert closed_form_alpha_dot(alpha_dot0, V0, k2, 2.0) == pytest.approx(
        ad, abs=1e-6
    )


def test_steering_rate_never_crosses_zero():
    for alpha_dot0, V0 in ((1.0, 0.03), (0.2, 0.5), (2.0, 0.0)):
        for i in range(600):
            t = i * 0.05
            assert closed_form_alpha_dot(alpha_dot0, V0, 1.0, t) > 0.0
        assert closed_form_alpha_dot(-alpha_dot0, V0, 1.0, 10.0) < 0.0


def test_certificates_vanish_only_at_goal():
    rng = random.Random(41)
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5)
        xd = rng.uniform(-0.5, 0.5)
        xdd = rng.uniform(-0.5, 0.5)
        v = balance_value(math.pi / 2 + x, xd, xdd)
        assert v >= 0.0
        if v == 0.0:
            assert x == xd == xdd == 0.0
    assert lean_tracking_value(math.pi / 2, 0.0) == 0.0
    assert lean_tracking_value(math.pi / 2, 1e-3) > 0.0


# ---------------------------------------------- each law's certificate claim
#
# Each law's claim on its certificate's time derivative, at a state: dV/dt is
# formed from the commanded inputs through the oracle's lean equations, and
# checked to rounding: 64 units of rounding of the magnitudes of the terms
# it is formed from, plus 1e-300 for the terms that underflow.

_PARAMS = RobotParams()
_EPS = math.ulp(1.0)
_open_leans = st.floats(0.0, math.pi, exclude_min=True, exclude_max=True)
_wide = st.floats(-50.0, 50.0)
_angles = st.floats(-10.0, 10.0)


def _to_rounding(excess: float, scale: float) -> bool:
    return excess <= 64.0 * _EPS * scale + 1e-300


@settings(max_examples=500, deadline=None, derandomize=True)
@given(beta=_open_leans, alpha_dot=_wide, beta_dot=_wide, gamma_dot=_wide, beta_ddot=_wide,
       k1=st.floats(0.1, 5.0), k2=st.floats(0.1, 5.0))
def test_balance_law_certificate_identity(beta, alpha_dot, beta_dot, gamma_dot, beta_ddot,
                                          k1, k2):
    # the law makes the lean jerk h1*beta_dot + h2*u5 + h3*u6 that gives
    # dV/dt = -x**2 - k1*z2**2 - z3**2, so dV/dt <= -2*min(1, k1)*V
    h1, h2, h3 = oracles.jerk_coeffs(beta, alpha_dot, gamma_dot, _PARAMS)
    assume(abs(h3) >= sys.float_info.min)  # the law divides by h3
    V = balance_value(beta, beta_dot, beta_ddot, k1)
    ctl = BalanceController(BalanceGains(k1=k1, k2=k2), _PARAMS, alpha_dot)
    u5, u6 = ctl.command(beta, alpha_dot, beta_dot, gamma_dot, beta_ddot, V)
    assume(math.isfinite(u6))
    jerk = h1 * beta_dot + h2 * u5 + h3 * u6
    x = beta - math.pi / 2
    z2 = beta_dot + x
    z3 = beta_ddot + (1.0 + k1) * z2
    dz2 = beta_ddot + beta_dot  # z2's rate; x's is beta_dot, z3's jerk + (1 + k1)*dz2
    dV = x * beta_dot + z2 * dz2 + z3 * (jerk + (1.0 + k1) * dz2)
    claim = -x * x - k1 * z2 * z2 - z3 * z3
    scale = (abs(x * beta_dot) + abs(z2 * dz2) - claim
             + abs(z3) * (abs(h1 * beta_dot) + abs(h2 * u5) + abs(h3 * u6)
                          + (1.0 + k1) * (abs(beta_ddot) + abs(beta_dot))))
    assert _to_rounding(abs(dV - claim), scale)
    assert _to_rounding(dV + 2.0 * min(1.0, k1) * V, scale)


def _lean_tracking_excess(beta, beta_dot, u_alpha, u_gamma):
    """dV1/dt + 2*V1 under velocity commands, and the magnitude it is formed from."""
    bdd = oracles.lean_accel(beta, u_alpha, u_gamma, _PARAMS)
    x = beta - math.pi / 2
    s = x + beta_dot
    dV1 = x * beta_dot + s * (beta_dot + bdd)
    sb, cb = math.sin(beta), math.cos(beta)
    bdd_scale = (_PARAMS.Gm * abs(cb) + _PARAMS.Im * abs(cb * sb) * u_alpha**2
                 + _PARAMS.Jm * sb * abs(u_alpha * u_gamma))
    scale = abs(x * beta_dot) + abs(s) * (abs(beta_dot) + bdd_scale) + x * x + s * s
    return dV1 + (x * x + s * s), scale


@settings(max_examples=500, deadline=None, derandomize=True)
@given(beta=_open_leans, beta_dot=_wide, e=st.floats(0.0, 50.0), psi=_angles,
       k3=st.floats(2.01, 6.0), k4_share=st.floats(0.01, 0.99))
def test_hard_point_to_point_law_certificate_bound(beta, beta_dot, e, psi, k3, k4_share):
    # with the commanded rates in effect, dV1/dt <= -2*V1
    gains = PositionGains(k3=k3, k4=k4_share * (k3 - 1.0), smoothing=None)
    u_alpha, u_gamma = PositionController(gains, _PARAMS).command(beta, beta_dot, e, psi)
    assume(math.isfinite(u_gamma))
    assert _to_rounding(*_lean_tracking_excess(beta, beta_dot, u_alpha, u_gamma))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(alpha=_angles, beta=_open_leans, beta_dot=_wide, theta=_angles, phi=_angles, p=_wide,
       k3=st.floats(2.01, 6.0), k5=st.floats(0.1, 5.0))
def test_hard_line_law_certificate_bound(alpha, beta, beta_dot, theta, phi, p, k3, k5):
    ctl = LineController(LineGains(k3=k3, k5=k5, smoothing=None), _PARAMS,
                         ((0.0, 0.0), (1.0, 0.0)))
    u_alpha, u_gamma = ctl.command(alpha, beta, beta_dot, theta, phi, p)
    assume(math.isfinite(u_gamma))
    assert _to_rounding(*_lean_tracking_excess(beta, beta_dot, u_alpha, u_gamma))


def test_decay_monitor_is_none_for_an_empty_or_all_non_finite_series():
    assert decay_monitor([], 0.01) is None
    assert decay_monitor(array("d"), 0.01) is None
    assert decay_monitor([math.nan, math.inf, -math.inf], 0.01) is None
    assert decay_monitor(array("d", [math.nan]), 0.01) is None


def test_decay_monitor_constant_goal_series():
    report = decay_monitor([0.0, 0.0, 0.0], 0.5)
    assert report["violations"] == 0
    assert report["first_violation_time"] is None
    assert report["fitted_rate"] is None
    assert report["max_step_increase"] == 0.0


def test_decay_monitor_fits_exact_exponential():
    times = [0.01 * i for i in range(500)]
    values = [math.exp(-2.0 * t) for t in times]
    report = decay_monitor(values, 0.01)
    assert report["violations"] == 0
    assert report["fitted_rate"] == pytest.approx(-2.0, abs=1e-9)


def test_decay_monitor_flags_injected_increase():
    times = [0.01 * i for i in range(100)]
    values = [math.exp(-2.0 * t) for t in times]
    values[40] = values[39] + 0.05
    values[60] = values[59] + 0.01
    report = decay_monitor(values, 0.01)
    assert report["violations"] == 2
    assert report["first_violation_time"] == times[40]
    assert report["max_step_increase"] == pytest.approx(0.05, abs=1e-12)


def test_decay_monitor_single_sample():
    report = decay_monitor([1.0], 0.01)
    assert report["max_step_increase"] == 0.0
    assert report["fitted_rate"] is None
    assert report["violations"] == 0
    assert report["first_violation_time"] is None


def test_decay_monitor_fit_window_skips_floor():
    # everything after the floor crossing is numerical dust: the tail must
    # not drag the fitted slope away from the true rate
    times = [0.1 * i for i in range(200)]
    values = [max(math.exp(-2.0 * t), RATE_FLOOR / 10) for t in times]
    report = decay_monitor(values, 0.1)
    assert report["fitted_rate"] == pytest.approx(-2.0, abs=1e-6)


# ------------------------------------- decay_monitor against its loop form


def _loop_decay_monitor(values, dt):
    """decay_monitor as a per-sample loop: the reference for its C-level form."""
    times, kept = [], []
    for i, v in enumerate(values):  # the finite samples, each at its row's time
        if math.isfinite(v):
            times.append(i * dt)
            kept.append(v)
    if not kept:
        return None
    values = kept
    max_inc = -math.inf
    violations, first = 0, None
    for i in range(1, len(values)):
        inc = values[i] - values[i - 1]
        if inc > max_inc:
            max_inc = inc
        if inc > TOLERANCE:
            violations += 1
            if first is None:
                first = times[i]
    if len(values) == 1:
        max_inc = 0.0
    ts = [t for t, v in zip(times, values) if v > RATE_FLOOR]
    logs = [math.log(v) for v in values if v > RATE_FLOOR]
    fitted = None
    if len(ts) >= 2:
        n = float(len(ts))
        mx = sum(ts) / n
        my = sum(logs) / n
        sxx = sum((x - mx) ** 2 for x in ts)
        if sxx != 0.0:  # squared spreads that sum to 0 fit no rate
            sxy = sum((x - mx) * (y - my) for x, y in zip(ts, logs))
            fitted = sxy / sxx
            # nor does a slope within what rounding each log by eps * |log| can make it
            noise = sum(abs(x - mx) for x in ts) * math.ulp(1.0) * max(abs(y) for y in logs)
            if abs(fitted) <= noise / sxx:
                fitted = None
    return {"samples": len(values), "max_step_increase": max_inc, "fitted_rate": fitted,
            "violations": violations, "first_violation_time": first, "tolerance": TOLERANCE}


_certificate_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 10.0),
    st.sampled_from([0.0, -0.0, RATE_FLOOR, 2 * RATE_FLOOR, TOLERANCE, 2 * TOLERANCE,
                     math.nan, math.inf, -math.inf]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=st.lists(_certificate_values, min_size=1, max_size=40),
    dt=st.sampled_from([1e-3, 0.02, 0.5]),
    constant=st.booleans(),
)
def test_decay_monitor_matches_its_loop_form(values, dt, constant):
    if constant:  # one value throughout
        values = [values[0]] * len(values)
    expected = repr(_loop_decay_monitor(values, dt))
    assert repr(decay_monitor(values, dt)) == expected
    assert repr(decay_monitor(tuple(values), dt)) == expected
    assert repr(decay_monitor(array("d", values), dt)) == expected


@pytest.mark.parametrize("values", [
    [1.0], [math.nan], [math.inf], [2.0, 2.0, 2.0, 2.0],
    [math.nan, 1.0, 0.5], [1.0, math.nan, 2.0], [1.0, math.inf, 0.5, -math.inf],
    [math.inf, math.inf], [0.0, -0.0, 0.0],
    [0.0, TOLERANCE, 0.0, 2 * TOLERANCE],  # an increase of TOLERANCE is no violation
])
def test_decay_monitor_matches_its_loop_form_on_edge_series(values):
    assert repr(decay_monitor(values, 0.01)) == repr(_loop_decay_monitor(values, 0.01))


def test_decay_monitor_reads_doubles_as_it_reads_lists():
    # the command line keeps its series in array('d'); library callers pass lists
    values = [math.exp(-0.02 * i) for i in range(60)]
    values[5], values[9], values[14], values[20] = math.nan, math.inf, -0.0, -math.inf
    values[30:36] = [1e-13, 0.0, 5e-324, -0.0, 1e-12, 2e-12]  # at and below RATE_FLOOR
    values[40] = values[39] + 0.5  # a violation
    expected = decay_monitor(values, 0.01)
    # three non-finite samples are skipped; the rest keep their rows' times, and
    # the first violation is the step up from row 14's -0.0
    assert expected["samples"] == 57 and expected["first_violation_time"] == 15 * 0.01
    assert expected["fitted_rate"] is not None and expected["violations"]
    assert repr(decay_monitor(array("d", values), 0.01)) == repr(expected)
    finite = [v for v in values if math.isfinite(v)]  # all finite: no filtered copy
    assert repr(decay_monitor(array("d", finite), 0.01)) == repr(decay_monitor(finite, 0.01))
