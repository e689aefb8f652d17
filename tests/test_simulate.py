import math
import random
from dataclasses import replace

import pytest

from gyrowheel import (
    ControlCommand,
    InadmissibleStateError,
    LineGains,
    NonFiniteStateError,
    RobotParams,
    Thresholds,
    UnknownChannelError,
    WheelState,
    bundled_scenario_path,
    closed_form_beta,
    detect_events,
    lean_accel,
    parse_scenario,
    rk4_step,
    run_closed_loop,
    run_lean_subsystem,
    scenario_from_mapping,
)

from conftest import make_balance_config, make_balance_mapping


def test_control_command_validates_mode():
    with pytest.raises(ValueError):
        ControlCommand("impulse", 0.0, 0.0)


def test_thresholds_must_be_positive():
    with pytest.raises(ValueError):
        Thresholds(topple_margin=0.0)
    with pytest.raises(ValueError):
        Thresholds(distance=-0.1)


def test_torque_equilibrium_is_fixed_point(params):
    st = WheelState(beta=math.pi / 2)
    cmd = ControlCommand("torque", 0.0, 0.0)
    for _ in range(100):
        st = rk4_step(st, cmd, params, 1e-2)
    assert st.beta == pytest.approx(math.pi / 2, abs=1e-12)
    assert st.beta_dot == pytest.approx(0.0, abs=1e-12)
    assert (st.x_a, st.y_a) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_velocity_step_advances_contact_exactly(params):
    # heading frozen at zero, unit rolling rate: one step moves the contact
    # forward by exactly R*u_gamma*dt
    st = WheelState(beta=math.pi / 2)
    out = rk4_step(st, ControlCommand("velocity", 0.0, 1.0), params, 0.01)
    assert out.x_a == 0.01
    assert out.y_a == pytest.approx(0.0, abs=1e-15)
    assert out.alpha_dot == 0.0
    assert out.gamma_dot == 1.0


def test_negative_dt_inverts_a_step(params):
    st0 = WheelState(
        alpha=0.4, beta=math.pi / 2 + 0.1, gamma=1.0,
        alpha_dot=0.8, beta_dot=-0.2, gamma_dot=1.5, x_a=0.3, y_a=-0.7,
    )
    for cmd in (ControlCommand("torque", 0.2, -0.4), ControlCommand("velocity", 0.8, 1.5)):
        fwd = rk4_step(st0, cmd, params, 1e-3)
        back = rk4_step(fwd, cmd, params, -1e-3)
        for name in ("alpha", "beta", "gamma", "beta_dot", "x_a", "y_a"):
            assert getattr(back, name) == pytest.approx(
                getattr(st0, name), abs=1e-10
            )


def test_integrator_is_fourth_order(params):
    # Richardson: halving dt should shrink the endpoint error ~16x
    st0 = WheelState(
        beta=math.pi / 2 + 0.15, alpha_dot=0.9, beta_dot=0.2, gamma_dot=1.1
    )
    cmd = ControlCommand("torque", 0.3, -0.2)

    def endpoint(dt):
        st = st0
        for _ in range(round(1.0 / dt)):
            st = rk4_step(st, cmd, params, dt)
        return st

    ref = endpoint(1e-4)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        st = endpoint(dt)
        errs.append(
            max(
                abs(st.beta - ref.beta),
                abs(st.beta_dot - ref.beta_dot),
                abs(st.alpha - ref.alpha),
                abs(st.x_a - ref.x_a),
            )
        )
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_velocity_mode_reduces_torque_lean_dynamics(params):
    # holding zero decoupled accelerations freezes the rates, and a velocity
    # command equal to those rates must then produce the same lean motion
    rng = random.Random(61)
    for _ in range(30):
        st = WheelState(
            alpha=rng.uniform(-3, 3),
            beta=rng.uniform(0.8, math.pi - 0.8),
            alpha_dot=rng.uniform(0.3, 2.0) * rng.choice((-1, 1)),
            beta_dot=rng.uniform(-0.5, 0.5),
            gamma_dot=rng.uniform(-2, 2),
        )
        tq = rk4_step(st, ControlCommand("torque", 0.0, 0.0), params, 1e-3)
        vel = rk4_step(
            st, ControlCommand("velocity", st.alpha_dot, st.gamma_dot), params, 1e-3
        )
        assert vel.beta == pytest.approx(tq.beta, abs=1e-12)
        assert vel.beta_dot == pytest.approx(tq.beta_dot, abs=1e-12)
        assert vel.x_a == pytest.approx(tq.x_a, abs=1e-12)


def test_config_mode_follows_kind():
    cfg = make_balance_config(t_end=1.0)
    assert cfg.mode == "torque"
    assert replace(cfg, kind="line", gains=LineGains(),
                   waypoints=((0.0, 0.0), (1.0, 0.0))).mode == "velocity"
    with pytest.raises(AttributeError):
        cfg.mode = "velocity"


def test_non_finite_state_raises(params):
    st = WheelState(beta=math.pi / 2, alpha_dot=math.nan, gamma_dot=1.0)
    with pytest.raises(NonFiniteStateError):
        rk4_step(st, ControlCommand("torque", 0.0, 0.0), params, 1e-3)


def test_run_is_bitwise_deterministic():
    cfg = make_balance_config(t_end=1.0)
    a = run_closed_loop(cfg)
    b = run_closed_loop(cfg)
    for name in a.names:
        va, vb = a.channel(name), b.channel(name)
        assert va == vb


def test_row_count_full_horizon(balance_traj_5s):
    assert balance_traj_5s.row_count == 5001
    assert balance_traj_5s.times[0] == 0.0
    assert balance_traj_5s.times[-1] == pytest.approx(5.0, abs=1e-9)


def test_row_count_non_divisible_horizon():
    cfg = make_balance_config(t_end=1.0, dt=0.3)
    traj = run_closed_loop(cfg)
    assert traj.row_count == 4
    assert traj.times[-1] == pytest.approx(0.9, abs=1e-12)


def test_unknown_channel_error(balance_traj_5s):
    with pytest.raises(UnknownChannelError) as exc:
        balance_traj_5s.channel("speed")
    assert "speed" in str(exc.value)
    assert "beta" in str(exc.value)


def test_balance_channels_present(balance_traj_5s):
    assert set(balance_traj_5s.names) == {
        "t", "alpha", "beta", "gamma", "alpha_dot", "beta_dot", "gamma_dot",
        "beta_ddot", "x_a", "y_a", "u_steer", "u_drive", "V",
    }
    for name in balance_traj_5s.names:
        assert len(balance_traj_5s.channel(name)) == balance_traj_5s.row_count


def test_topple_truncates_run():
    # a lean-rate kick whose transient peak crosses a tightened margin
    m = make_balance_mapping(lean_offset=0.0, lean_rate=0.3, t_end=5.0)
    m["thresholds"]["topple_margin"] = 1.45
    traj = run_closed_loop(scenario_from_mapping(m).config)
    ev = traj.terminal_event
    assert ev is not None and ev.kind == "Toppled"
    assert traj.row_count < 5001
    assert traj.times[-1] == pytest.approx(ev.time, abs=1e-12)
    assert math.isnan(traj.channel("u_steer")[-1])
    assert traj.channel("beta")[-1] >= math.pi - 1.45


def test_singular_steering_truncates_run():
    # raising the floor makes the decaying steering rate hit it mid-run
    m = make_balance_mapping(alpha_dot_floor=1e-4, t_end=20.0)
    traj = run_closed_loop(scenario_from_mapping(m).config)
    ev = traj.terminal_event
    assert ev is not None and ev.kind == "SingularSteering"
    assert ev.time == pytest.approx(18.065, abs=1e-9)
    assert abs(traj.channel("alpha_dot")[-1]) < 1e-4
    assert math.isnan(traj.channel("u_drive")[-1])


def test_converged_event_recorded_once(balance_traj_20s):
    kinds = [e.kind for e in balance_traj_20s.events]
    assert kinds.count("Converged") == 1
    ev = balance_traj_20s.events[0]
    assert ev.kind == "Converged"
    assert ev.time == pytest.approx(13.457, abs=1e-9)
    # stop_on_converged is off for this fixture: the run reaches the horizon
    assert balance_traj_20s.row_count == 20001
    assert balance_traj_20s.converged


def test_stop_on_converged_truncates():
    cfg = make_balance_config(t_end=20.0, stop_on_converged=True)
    traj = run_closed_loop(cfg)
    assert traj.terminal_event is not None
    assert traj.terminal_event.kind == "Converged"
    assert traj.row_count < 20001
    assert traj.times[-1] == pytest.approx(13.457, abs=1e-9)


def test_detect_events_toppled_example():
    cfg = make_balance_config(t_end=1.0)
    flat = WheelState(beta=0.005, alpha_dot=1.0)
    events = detect_events(flat, cfg, t=2.0)
    # a flat wheel also violates the initial-domain predicate, so the
    # diagnostic reports both facts, topple first
    assert [e.kind for e in events] == ["Toppled", "DomainExit"]
    assert events[0].time == 2.0
    # pure function: a second call sees the same state and reports the same
    assert detect_events(flat, cfg, t=2.0) == events


def test_detect_events_singular_steering_example():
    cfg = replace(make_balance_config(t_end=1.0), thresholds=Thresholds())
    slow = WheelState(beta=math.pi / 2, alpha_dot=1e-5, gamma_dot=0.5)
    kinds = [e.kind for e in detect_events(slow, cfg)]
    assert kinds == ["SingularSteering", "DomainExit"]


def test_detect_events_converged_balance():
    cfg = make_balance_config(t_end=1.0)
    goal = WheelState(beta=math.pi / 2, alpha_dot=5e-5, gamma_dot=1e-5)
    kinds = [e.kind for e in detect_events(goal, cfg)]
    assert "Converged" in kinds


def test_detect_events_nothing_at_nominal_state():
    cfg = make_balance_config(t_end=1.0)
    assert detect_events(cfg.initial, cfg) == []


def test_detect_events_converges_a_corridor_only_on_its_last_segment():
    # at each segment's end, heading along it: d = e = 0 on that segment's chart
    cfg = parse_scenario(bundled_scenario_path("corridor_demo")).config
    last = len(cfg.waypoints) - 2
    assert last > 0
    for segment in range(last + 1):
        (x0, y0), (x1, y1) = cfg.waypoints[segment], cfg.waypoints[segment + 1]
        end = WheelState(alpha=math.atan2(y1 - y0, x1 - x0), x_a=x1, y_a=y1)
        kinds = [ev.kind for ev in detect_events(end, cfg, t=1.0, segment=segment)]
        assert kinds == (["Converged"] if segment == last else [])


def test_corridor_advances_segments(corridor_traj):
    seg = corridor_traj.channel("segment")
    assert seg[0] == 0.0
    assert seg[-1] == 1.0
    switches = sum(1 for a, b in zip(seg, seg[1:]) if b != a)
    assert switches == 1
    assert corridor_traj.converged


def test_actuator_lag_smooths_rates_and_still_converges():
    sc = scenario_from_mapping(
        {
            "name": "lagged",
            "kind": "point_to_point",
            "dt": 1e-3,
            "t_end": 60.0,
            "initial": {
                "x_a": 3.0, "y_a": 4.0,
                "alpha": math.atan2(4.0, 3.0) + 0.022,
                "beta": math.pi / 2 + 0.02,
            },
            "target": {"x": 0.0, "y": 0.0},
            "gains": {"k3": 3.0, "k4": 1.0, "k6": 20.0, "k7": 20.0},
            "actuator_lag": 0.05,
        }
    )
    traj = run_closed_loop(sc.config)
    assert traj.converged
    # rates start from the state's rest values, not the first command
    assert traj.channel("alpha_dot")[0] == 0.0
    # no rate jump: one step moves the filter only ~dt/tau of the way
    ua0 = traj.channel("u_steer")[0]
    ad = traj.channel("alpha_dot")
    assert abs(ad[1]) < 0.05 * abs(ua0)
    assert abs(ad[1] - ua0 * (1.0 - math.exp(-1e-3 / 0.05))) < 1e-6


def test_inadmissible_balance_envelope():
    with pytest.raises(InadmissibleStateError):
        run_closed_loop(make_balance_config(lean_offset=1.5))


def test_inadmissible_low_steering_rate():
    with pytest.raises(InadmissibleStateError):
        run_closed_loop(make_balance_config(alpha_dot=1e-13))


def test_inadmissible_lean_outside_margin():
    m = make_balance_mapping(lean_offset=0.0)
    m["initial"] = {"beta": 0.005, "beta_dot": 0.0, "gamma_dot": 0.0,
                    "alpha_dot": 1.0}
    with pytest.raises(InadmissibleStateError):
        run_closed_loop(scenario_from_mapping(m).config)


def _p2p_mapping(**initial):
    base = {
        "x_a": 3.0, "y_a": 4.0,
        "alpha": math.atan2(4.0, 3.0), "beta": math.pi / 2,
    }
    base.update(initial)
    return {
        "name": "p2p_test",
        "kind": "point_to_point",
        "dt": 1e-3,
        "t_end": 1.0,
        "initial": base,
        "target": {"x": 0.0, "y": 0.0},
        "gains": {"k3": 3.0, "k4": 1.0},
    }


def test_inadmissible_p2p_at_target():
    with pytest.raises(InadmissibleStateError):
        run_closed_loop(scenario_from_mapping(_p2p_mapping(x_a=0.0, y_a=0.0)).config)


def test_inadmissible_p2p_lean_certificate():
    bad = _p2p_mapping(beta=math.pi / 2 + 1.2, beta_dot=0.9)
    with pytest.raises(InadmissibleStateError):
        run_closed_loop(scenario_from_mapping(bad).config)


def test_inadmissible_line_start_radius():
    sc = {
        "name": "far_start",
        "kind": "line",
        "dt": 1e-3,
        "t_end": 1.0,
        "initial": {"x_a": 0.0, "y_a": 1.0, "alpha": math.pi,
                    "beta": math.pi / 2},
        "waypoints": [[0.0, 0.0], [5.0, 0.0]],
        "gains": {"k3": 3.0, "k5": 1.5},
    }
    with pytest.raises(InadmissibleStateError):
        run_closed_loop(scenario_from_mapping(sc).config)


def test_run_lean_subsystem_tracks_closed_form():
    times, xs, _, _ = run_lean_subsystem(0.1, 0.0, 0.0, dt=1e-3, t_end=10.0)
    assert len(times) == 10001
    worst = max(
        abs(x - closed_form_beta(0.1, 0.0, 0.0, t)) for t, x in zip(times, xs)
    )
    assert worst < 1e-6


def test_scenario_beta_ddot_cached_in_torque_rows(balance_traj_5s):
    betas = balance_traj_5s.channel("beta")
    bdds = balance_traj_5s.channel("beta_ddot")
    ads = balance_traj_5s.channel("alpha_dot")
    gds = balance_traj_5s.channel("gamma_dot")
    p = RobotParams()
    for i in (0, 1000, 2500, 5000):
        assert bdds[i] == pytest.approx(
            lean_accel(betas[i], ads[i], gds[i], p), abs=1e-12
        )


def test_stage_overflow_ends_the_run_as_non_finite():
    # h3 ~ alpha_dot makes u6 ~ 1e199; the first step's stages overflow
    m = make_balance_mapping(
        lean_offset=0.05, alpha_dot=1e-200, alpha_dot_floor=1e-300, t_end=1.0
    )
    traj = run_closed_loop(scenario_from_mapping(m).config)
    ev = traj.terminal_event
    assert ev is not None and ev.kind == "NonFinite"
    assert traj.row_count >= 1
    assert traj.times[-1] == ev.time
    assert all(math.isfinite(v) for v in traj.channel("beta"))
    assert traj.final_state.beta == traj.channel("beta")[-1]
    # a direct call on the same step still raises
    cmd = ControlCommand(
        "torque", traj.channel("u_steer")[-1], traj.channel("u_drive")[-1]
    )
    with pytest.raises(NonFiniteStateError):
        rk4_step(traj.final_state, cmd, RobotParams(), 1e-3)


@pytest.mark.parametrize(
    "name", ["balance_default", "p2p_default", "line_5m", "corridor_demo"]
)
def test_detect_events_agrees_with_the_run_at_its_final_state(name):
    cfg = parse_scenario(bundled_scenario_path(name)).config
    traj = run_closed_loop(cfg)
    t_final = traj.times[-1]
    segment = int(traj.channel("segment")[-1]) if "segment" in traj.names else 0
    recorded = [ev.kind for ev in traj.events if ev.time == t_final]
    assert recorded
    found = detect_events(traj.final_state, cfg, t_final, segment)
    assert [ev.kind for ev in found] == recorded
