"""End-to-end acceptance suite.

One test per acceptance criterion, each at its stated tolerance, so a
verbose pytest run reports one pass/fail line per criterion. Shared
closed-loop runs come from session-scoped fixtures in conftest, and the live
balance runs of criteria 02-04 from this module's balance_runs.
"""

import math
import random
import time

import pytest

from gyrowheel import (
    FrictionParams,
    RobotParams,
    WheelState,
    beta_jerk_coeffs,
    cancel_and_decouple,
    decay_monitor,
    friction_torque,
    full_accel,
    inertia_matrix,
    rk4_step,
    run_closed_loop,
    sigma,
    wrap_to_pi,
)

from conftest import make_balance_config
from oracles import (
    beta_jerk_coeffs_variant,
    closed_form_alpha_dot,
    closed_form_beta,
    polar_rates,
)

PARAMS = RobotParams()
DTS = (1e-3, 5e-4)  # each start runs at dt and at dt / 2


@pytest.fixture(scope="module")
def balance_runs():
    """Ten random admissible lean starts, each run for 5 s by run_closed_loop at each of DTS.

    Each start (a, b, c) comes with one (times, beta, alpha_dot, V[0]) per dt.
    """
    rng = random.Random(101)
    runs = []
    while len(runs) < 10:
        a, b, c = (rng.uniform(-0.5, 0.5) for _ in range(3))
        if sigma(a, b, c) >= math.pi / 2:
            continue
        by_dt = []
        for dt in DTS:
            traj = run_closed_loop(make_balance_config(
                lean_offset=a, lean_rate=b, lean_accel=c, dt=dt, t_end=5.0))
            by_dt.append((traj.times, traj.channel("beta"), traj.channel("alpha_dot"),
                          traj.channel("V")[0]))
        runs.append(((a, b, c), by_dt))
    return runs


def _first_order(start, errors):
    """Each run's largest error is at most 1.0 * its dt, and halving dt halves it."""
    for dt, err in zip(DTS, errors):
        assert err <= 1.0 * dt, (start, dt, err)
    assert 1.9 <= errors[0] / errors[1] <= 2.1, (start, errors)


def test_criterion_01_certificate_decays_at_rate_two():
    cfg = make_balance_config(t_end=5.0)
    start = time.perf_counter()
    traj = run_closed_loop(cfg)
    wall = time.perf_counter() - start

    times = traj.times
    values = traj.channel("V")
    report = decay_monitor(values, cfg.dt)
    assert -2.01 <= report["fitted_rate"] <= -1.99

    v0 = values[0]
    worst = max(
        abs(v - math.exp(-2.0 * t) * v0) / v0 for t, v in zip(times, values)
    )
    assert worst < 1e-3
    assert wall < 1.0


def test_criterion_02_lean_matches_closed_form(balance_runs):
    # the balance law makes the lean offset obey the linear jerk equation that
    # closed_form_beta solves; the loop holds its jerk command across each step,
    # so the live run's error is first order in dt
    for (a, b, c), by_dt in balance_runs:
        _first_order((a, b, c), [
            max(abs(beta - math.pi / 2 - closed_form_beta(a, b, c, t))
                for t, beta in zip(times, betas))
            for times, betas, _, _ in by_dt])


def test_criterion_03_lean_envelope_bounded(balance_runs):
    for (a, b, c), by_dt in balance_runs:
        bound = sigma(a, b, c)
        for dt, (_, betas, _, _) in zip(DTS, by_dt):
            peak = max(abs(beta - math.pi / 2) for beta in betas)
            assert peak <= bound + 1.0 * dt, (a, b, c, dt, peak, bound)
            assert all(0.0 < beta < math.pi for beta in betas)


def test_criterion_04_steering_never_stalls(balance_traj_20s, balance_runs):
    alpha_dots = balance_traj_20s.channel("alpha_dot")
    assert all(ad > 0.0 for ad in alpha_dots)
    assert abs(balance_traj_20s.channel("gamma_dot")[-1]) < 0.05
    # every run starts at alpha_dot = 1 with k2 = 1, and its certificate decays as exp(-2t)
    for start, by_dt in balance_runs:
        _first_order(start, [
            max(abs(ad - closed_form_alpha_dot(1.0, v0, 1.0, t)) for t, ad in zip(times, ads))
            for times, _, ads, v0 in by_dt])


def test_criterion_05_jerk_coefficients_match_finite_differences():
    # third derivative of the lean angle from a fine simulation against the
    # linear-in-command form; the variant coefficient set is the documented
    # negative control and must fail the same bound
    rng = random.Random(7)
    fine_dt = 1e-4
    delta = 1e-3

    def beta_after(state, cmd, n_steps, dt):
        st = state
        for _ in range(abs(n_steps)):
            st = rk4_step(st, *cmd, PARAMS, dt if n_steps > 0 else -dt)
        return st.beta

    derived_max = 0.0
    variant_failures = 0
    kept = 0
    while kept < 100:
        beta = rng.uniform(math.pi / 4, 3 * math.pi / 4)
        ad = rng.uniform(0.3, 2.0) * rng.choice((-1, 1))
        bd = rng.uniform(-1.0, 1.0)
        gd = rng.uniform(-2.0, 2.0)
        u5 = rng.uniform(-1.0, 1.0)
        u6 = rng.uniform(-1.0, 1.0)
        st = WheelState(beta=beta, alpha_dot=ad, beta_dot=bd, gamma_dot=gd)
        h1, h2, h3 = beta_jerk_coeffs(st, PARAMS)
        predicted = h1 * bd + h2 * u5 + h3 * u6
        if abs(predicted) < 0.5:
            continue
        kept += 1
        cmd = ("torque", u5, u6)
        fd3 = (
            beta_after(st, cmd, 15, fine_dt)
            - 3.0 * beta_after(st, cmd, 5, fine_dt)
            + 3.0 * beta_after(st, cmd, -5, fine_dt)
            - beta_after(st, cmd, -15, fine_dt)
        ) / delta**3
        rel = abs(fd3 - predicted) / abs(predicted)
        derived_max = max(derived_max, rel)

        v1, v2, v3 = beta_jerk_coeffs_variant(beta, ad, gd, PARAMS)
        alt = v1 * bd + v2 * u5 + v3 * u6
        if abs(fd3 - alt) / abs(alt) >= 1e-3:
            variant_failures += 1

    assert derived_max < 1e-3
    assert variant_failures >= 90


def test_criterion_06_point_to_point_converges(p2p_scenario, p2p_traj):
    assert p2p_traj.converged
    es = p2p_traj.channel("e")
    assert es[-1] < 0.05
    assert p2p_traj.times[-1] <= 60.0
    for beta in p2p_traj.channel("beta"):
        assert 0.0 < beta < math.pi
    v1 = p2p_traj.channel("V1")
    report = decay_monitor(v1, p2p_scenario.config.dt)
    assert report["max_step_increase"] <= 1e-6


def test_criterion_07_line_tracking_converges(line_traj):
    assert line_traj.converged
    assert line_traj.channel("d")[-1] < 0.05
    assert line_traj.channel("e")[-1] < 0.02
    assert line_traj.times[-1] <= 60.0
    for beta in line_traj.channel("beta"):
        assert abs(beta - math.pi / 2) < 0.15


def _check_contact_velocity(traj, mode, dt):
    R = PARAMS.R
    alphas = traj.channel("alpha")
    gds = traj.channel("gamma_dot")
    xs, ys = traj.channel("x_a"), traj.channel("y_a")
    n = traj.row_count
    checked = 0
    if mode == "torque":
        for i in range(1, n - 1):
            vx = R * gds[i] * math.cos(alphas[i])
            vy = R * gds[i] * math.sin(alphas[i])
            fx = (xs[i + 1] - xs[i - 1]) / (2 * dt)
            fy = (ys[i + 1] - ys[i - 1]) / (2 * dt)
            for fd, pred in ((fx, vx), (fy, vy)):
                if abs(pred) < 1e-3:
                    continue
                assert abs(fd - pred) / abs(pred) < 1e-3, (traj.kind, i)
                checked += 1
    else:
        # rates are held over each step: compare the forward difference
        # against the trapezoid of the held-rate velocity
        drives = traj.channel("u_drive")
        for i in range(n - 1):
            ug = drives[i]
            if math.isnan(ug):
                continue
            vx = 0.5 * R * ug * (math.cos(alphas[i]) + math.cos(alphas[i + 1]))
            vy = 0.5 * R * ug * (math.sin(alphas[i]) + math.sin(alphas[i + 1]))
            fx = (xs[i + 1] - xs[i]) / dt
            fy = (ys[i + 1] - ys[i]) / dt
            for fd, pred in ((fx, vx), (fy, vy)):
                if abs(pred) < 1e-3:
                    continue
                assert abs(fd - pred) / abs(pred) < 1e-3, (traj.kind, i)
                checked += 1
    assert checked > n // 2


def test_criterion_08_kinematic_consistency(
    balance_traj_20s, p2p_traj, line_traj, corridor_traj
):
    _check_contact_velocity(balance_traj_20s, "torque", 1e-3)
    for traj in (p2p_traj, line_traj, corridor_traj):
        _check_contact_velocity(traj, "velocity", 1e-3)

    # polar error rates along the point-to-point run while the wheel is
    # away from the target
    dt = 1e-3
    es = p2p_traj.channel("e")
    psis = p2p_traj.channel("psi")
    steers = p2p_traj.channel("u_steer")
    drives = p2p_traj.channel("u_drive")
    checked = 0
    for i in range(p2p_traj.row_count - 1):
        if es[i] <= 0.1 or es[i + 1] <= 0.1:
            continue
        ua, ug = steers[i], drives[i]
        now = polar_rates(es[i], psis[i], ua, ug, PARAMS)
        nxt = polar_rates(es[i + 1], psis[i + 1], ua, ug, PARAMS)
        fd_e = (es[i + 1] - es[i]) / dt
        fd_psi = wrap_to_pi(psis[i + 1] - psis[i]) / dt
        for fd, pred in (
            (fd_e, 0.5 * (now[0] + nxt[0])),
            (fd_psi, 0.5 * (now[1] + nxt[1])),
        ):
            if abs(pred) < 1e-3:
                continue
            assert abs(fd - pred) / abs(pred) < 1e-3, i
            checked += 1
    assert checked > 1000


def test_criterion_09_friction_model_exactness():
    f = friction_torque((1.0, 1.0, 1.0), FrictionParams(D=1.0))
    assert f[0] == pytest.approx(0.343576, abs=1e-6)
    # remaining components from the same formula:
    # mu_v*|v| + mu_d + (mu_s - mu_d)*exp(-1)
    assert f[0] == pytest.approx(0.27 + 0.20 * math.exp(-1.0), abs=1e-12)
    assert f[1] == pytest.approx(0.25 + 0.15 * math.exp(-1.0), abs=1e-12)
    assert f[2] == pytest.approx(0.16 + 0.03 * math.exp(-1.0), abs=1e-12)


def test_criterion_10_structural_invariants():
    # inertia positivity across the open lean domain
    n = 10_000
    for i in range(1, n):
        _, _, _, _, M_rho = inertia_matrix(WheelState(beta=math.pi * i / n), PARAMS)
        assert M_rho > 0.0

    # exact round trip through the cancellation layer and back up full_accel
    rng = random.Random(73)
    for _ in range(50):
        st = WheelState(
            beta=rng.uniform(0.3, math.pi - 0.3),
            alpha_dot=rng.uniform(-2, 2),
            beta_dot=rng.uniform(-1, 1),
            gamma_dot=rng.uniform(-3, 3),
        )
        u5, u6 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        back = full_accel(st, *cancel_and_decouple(u5, u6, st, PARAMS), PARAMS)
        assert abs(back[0] - u5) < 1e-10
        assert abs(back[2] - u6) < 1e-10

    # bitwise-identical repeat runs
    cfg = make_balance_config(t_end=1.0)
    first, second = run_closed_loop(cfg), run_closed_loop(cfg)
    for name in first.names:
        assert first.channel(name) == second.channel(name)

    # fourth-order convergence under step halving
    st0 = WheelState(beta=math.pi / 2 + 0.15, alpha_dot=0.9, beta_dot=0.2,
                     gamma_dot=1.1)

    def endpoint(dt):
        st = st0
        for _ in range(round(1.0 / dt)):
            st = rk4_step(st, "torque", 0.3, -0.2, PARAMS, dt)
        return st

    ref = endpoint(1e-4)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        st = endpoint(dt)
        errors.append(
            max(
                abs(st.beta - ref.beta),
                abs(st.beta_dot - ref.beta_dot),
                abs(st.alpha - ref.alpha),
                abs(st.x_a - ref.x_a),
            )
        )
    assert 12.0 < errors[0] / errors[1] < 20.0
    assert 12.0 < errors[1] / errors[2] < 20.0
