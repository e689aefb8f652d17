"""Shared fixtures: robot parameters and the expensive closed-loop runs.

The closed-loop trajectories are session-scoped; several test modules
inspect the same runs, and each run is deterministic, so there is no
point integrating twice.

pyproject.toml puts src/ on sys.path for the suite; PYTHONPATH is set here
too, so that interpreters the tests start import the same checkout.
"""

import math
import os
from pathlib import Path

import pytest

from gyrowheel import (
    RobotParams,
    bundled_scenario_path,
    parse_scenario,
    run_closed_loop,
    scenario_from_mapping,
)

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def params():
    return RobotParams()


def make_balance_mapping(
    lean_offset=0.1,
    lean_rate=0.0,
    lean_accel=0.0,
    alpha_dot=1.0,
    t_end=5.0,
    dt=1e-3,
    k1=1.0,
    k2=1.0,
    alpha_dot_floor=1e-12,
    stop_on_converged=False,
):
    return {
        "name": "balance_test",
        "kind": "balance",
        "dt": dt,
        "t_end": t_end,
        "stop_on_converged": stop_on_converged,
        "initial": {
            "lean_offset": lean_offset,
            "lean_rate": lean_rate,
            "lean_accel": lean_accel,
            "alpha_dot": alpha_dot,
        },
        "gains": {"k1": k1, "k2": k2},
        "thresholds": {"alpha_dot_floor": alpha_dot_floor},
    }


def make_balance_config(**kwargs):
    return scenario_from_mapping(make_balance_mapping(**kwargs)).config


def failed_step_mapping(stepper):
    """A schema-valid scenario whose first RK4 step, by the named stepper, is not finite.

    torque: u6 ~ 1/alpha_dot is -inf. friction: a finite u6 ~ 1e100 whose
    stage steering rate squares beyond the float range. velocity and lag:
    k4*e ~ 1e308 drives a contact point past the float range (an upright,
    smoothed lean switch of 0 keeps u_alpha at 0, and the row finite).
    """
    if stepper in ("torque", "friction"):
        m = make_balance_mapping(lean_offset=0.05, alpha_dot=1e-200 if stepper == "torque"
                                 else 1e-100, alpha_dot_floor=1e-300, t_end=1.0)
        return dict(m, friction={}) if stepper == "friction" else m
    m = {
        "name": f"{stepper}_overflow", "kind": "point_to_point", "dt": 1e-3, "t_end": 1.0,
        "initial": {"x_a": 1e153, "y_a": 0.0, "alpha": math.pi, "beta": math.pi / 2},
        "target": {"x": 0.0, "y": 0.0},
        "gains": {"k3": 1e156, "k4": 1e155, "k6": 1.0, "k7": 1.0},
    }
    return dict(m, actuator_lag=0.05) if stepper == "lag" else m


@pytest.fixture(scope="session")
def balance_traj_5s():
    return run_closed_loop(make_balance_config(t_end=5.0))


@pytest.fixture(scope="session")
def balance_traj_20s():
    return run_closed_loop(make_balance_config(t_end=20.0))


@pytest.fixture(scope="session")
def p2p_scenario():
    return parse_scenario(bundled_scenario_path("p2p_default"))


@pytest.fixture(scope="session")
def p2p_traj(p2p_scenario):
    return run_closed_loop(p2p_scenario.config)


@pytest.fixture(scope="session")
def line_scenario():
    return parse_scenario(bundled_scenario_path("line_5m"))


@pytest.fixture(scope="session")
def line_traj(line_scenario):
    return run_closed_loop(line_scenario.config)


@pytest.fixture(scope="session")
def corridor_traj():
    sc = parse_scenario(bundled_scenario_path("corridor_demo"))
    return run_closed_loop(sc.config)
