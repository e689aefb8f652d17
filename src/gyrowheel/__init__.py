"""Deterministic simulation and Lyapunov-certified control of a single-wheel robot.

The package models a rolling disk whose lean axis is unactuated: steering
and rolling torques must stabilize the lean through gyroscopic coupling.
Three controller families are provided, each carrying an explicit
certificate function that the simulator logs and the test suite audits:

* balance: keep the wheel upright at a standstill,
* point to point: drive the ground contact point to a target,
* line: track a straight segment (or a chain of segments).

Entry points: build a SimConfig and call run_closed_loop, or write a
scenario file and use the ``gyrowheel`` command-line tool.
"""

from importlib import resources
from pathlib import Path

from .params import FrictionParams, RobotParams
from .dynamics import (
    DegenerateLeanError,
    GeneralizedState,
    InertiaEntries,
    beta_jerk_coeffs,
    cancel_and_decouple,
    friction_torque,
    full_accel,
    inertia_matrix,
    lean_accel,
    nonlinear_terms,
)
from .kinematics import (
    ContactPoint,
    DegenerateLineError,
    LineGeometry,
    PolarView,
    line_geometry,
    polar_view,
    wrap_to_pi,
)
from .switching import hard_sign, hard_step, smooth_sign, smooth_step
from .lyapunov import (
    DecayReport,
    balance_value,
    closed_form_alpha_dot,
    closed_form_beta,
    closed_form_beta_rates,
    decay_monitor,
    lean_tracking_value,
)
from .controllers import (
    BalanceController,
    BalanceGains,
    LineController,
    LineGains,
    PositionController,
    PositionGains,
    SingularSteeringError,
    Smoothing,
    balance_control,
    line_control,
    position_control,
    sigma,
)
from .simulate import (
    CHANNEL_INFO,
    ControlCommand,
    Event,
    InadmissibleStateError,
    NonFiniteStateError,
    SimConfig,
    Thresholds,
    Trajectory,
    UnknownChannelError,
    WheelState,
    detect_events,
    rk4_step,
    run_closed_loop,
    run_lean_subsystem,
)
from .scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    scenario_from_mapping,
    scenario_to_mapping,
    serialize_scenario,
)

__version__ = "0.1.0"


def bundled_scenario_path(name: str) -> Path:
    """Path to a scenario file shipped with the package."""
    root = resources.files(__name__) / "scenarios"
    candidate = root / f"{name}.yaml"
    if not candidate.is_file():
        available = sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))
        raise ValueError(f"no bundled scenario {name!r}; available: {', '.join(available)}")
    return Path(str(candidate))
