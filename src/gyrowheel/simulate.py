"""Deterministic fixed-step simulation of the wheel's closed loops.

Two modes, four right-hand sides:

* torque mode: the state carries all three angle rates and the command is
  the decoupled acceleration pair (u5, u6). With friction disabled the
  decoupling is taken as exact and the integrator works directly at the
  acceleration layer. With friction enabled the command is converted to
  motor torques at the start of each step and the full inertia/force
  equations are integrated, friction subtracted on the motor axes.
* velocity mode: the command is the rate pair (u_alpha, u_gamma), applied
  instantaneously or through an optional first-order actuator lag; the
  integrated state is (angles, lean rate, contact point) plus, under lag,
  the filtered rates.

The kernel is single-pass and builds no object per row. Each right-hand
side has one RK4 stepper, unrolled over plain floats with the run's
constants bound once, and rk4_step wraps the same steppers; each stepper
tests its own result for finiteness, and the friction stepper solves the
inertia entries, forces and accelerations of a stage in one function. The
controller binds its gains and (Gm, Im, Jm) at construction; the polar
chart binds the target once per run and each line chart binds its
segment's length and bearing once, when the corridor first reaches it.
run_closed_loop keeps the state in local floats and computes each per-row
quantity once: the lean acceleration (also the first RK4 stage of the next
step), the balance certificate (also the balance law's input), and the
chart's coordinates (shared by the segment advance, the command, the
certificate and the convergence test). It calls the controller's command
once per row, with plain floats, and no other function of the package but
the chart and the stepper. Rows go straight into the trajectory columns.
The loop compares against the event thresholds, bound once per run, and
calls the predicate functions and the convergence table that detect_events
uses only once a condition holds, to build the event.

Commands are held constant across each RK4 step (zero-order hold), computed
from the state at the step start. Every step boundary emits one trajectory
row; terminal events truncate the run at the row where they fire, so the
last row's time is the event time. A step whose stages or result are not
finite ends the run with a NonFinite event at the time of its first row; a
friction step whose stage lean leaves (0, pi) ends it with a Toppled event
the same way.

Runs are bitwise deterministic: there is no randomness, no wall-clock
coupling, and no platform-dependent branching in the numeric path. The
order and grouping of every float expression are part of the output
contract: trajectory bytes are pinned by tests, so a rewrite must keep
``y + (0.5*dt)*k``, ``(dt/6.0)*(k1 + 2.0*k2 + 2.0*k3 + k4)``,
``R*gd*cos(a)`` and ``-Gm*cb - Im*cb*sb*ad**2 - Jm*sb*ad*gd`` exactly as
written (regrouping a product or hoisting a common factor changes bytes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from math import cos, exp, isfinite, pi, sin

from .controllers import (
    DEFAULT_ALPHA_DOT_FLOOR,
    BalanceController,
    BalanceGains,
    LineController,
    LineGains,
    PositionController,
    PositionGains,
    sigma,
)
from .dynamics import DegenerateLeanError, GeneralizedState, _require_open_lean, lean_accel
from .kinematics import EPS_DISTANCE, line_chart, polar_chart
from .lyapunov import lean_tracking_value
from .params import FrictionParams, RobotParams

__all__ = [
    "InadmissibleStateError",
    "NonFiniteStateError",
    "UnknownChannelError",
    "WheelState",
    "ControlCommand",
    "Thresholds",
    "SimConfig",
    "Event",
    "Trajectory",
    "CHANNEL_INFO",
    "rk4_step",
    "detect_events",
    "run_closed_loop",
    "run_lean_subsystem",
    "KINDS",
    "MODES",
]

# kind -> mode: balance works at the torque layer, the tracking controllers command rates
_KIND_MODE = {"balance": "torque", "point_to_point": "velocity", "line": "velocity",
              "corridor": "velocity"}
KINDS = tuple(_KIND_MODE)
MODES = ("torque", "velocity")

# Channel registry: name -> (unit, description). Which channels a run emits
# depends on its kind; see Trajectory.names.
CHANNEL_INFO = {
    "t": ("s", "simulation time"),
    "alpha": ("rad", "steering angle (heading of the contact line)"),
    "beta": ("rad", "lean angle; pi/2 is upright"),
    "gamma": ("rad", "rolling angle"),
    "alpha_dot": ("rad/s", "steering rate"),
    "beta_dot": ("rad/s", "lean rate"),
    "gamma_dot": ("rad/s", "rolling rate"),
    "beta_ddot": ("rad/s^2", "lean acceleration, recomputed from the dynamics"),
    "x_a": ("m", "contact point x"),
    "y_a": ("m", "contact point y"),
    "u_steer": ("rad/s^2 | rad/s", "steering command: u5 (torque mode) or u_alpha (velocity mode)"),
    "u_drive": ("rad/s^2 | rad/s", "rolling command: u6 (torque mode) or u_gamma (velocity mode)"),
    "V": ("-", "certificate of the active controller"),
    "V1": ("-", "lean-tracking certificate (tracking runs)"),
    "e": ("m", "distance to the target point (point-to-point) or to the tracked line (line runs)"),
    "psi": ("rad", "heading error theta - alpha (point-to-point runs)"),
    "d": ("m", "distance to the active segment end (line runs)"),
    "p": ("m", "heading-projection overshoot past the segment end (line runs)"),
    "segment": ("-", "active segment index (line runs)"),
}

_BASE_CHANNELS = (
    "t", "alpha", "beta", "gamma", "alpha_dot", "beta_dot", "gamma_dot",
    "beta_ddot", "x_a", "y_a", "u_steer", "u_drive", "V",
)
_KIND_CHANNELS = {
    "balance": _BASE_CHANNELS,
    "point_to_point": _BASE_CHANNELS + ("V1", "e", "psi"),
    "line": _BASE_CHANNELS + ("V1", "e", "d", "p", "segment"),
    "corridor": _BASE_CHANNELS + ("V1", "e", "d", "p", "segment"),
}


class InadmissibleStateError(ValueError):
    """Initial state violates the active controller's admissibility predicate."""


class NonFiniteStateError(RuntimeError):
    """Integration produced a NaN or infinity."""


class UnknownChannelError(KeyError):
    """Requested trajectory channel does not exist in this run."""

    def __init__(self, name: str, valid: tuple[str, ...]):
        super().__init__(name)
        self.name = name
        self.valid = valid

    def __str__(self) -> str:
        return f"unknown channel {self.name!r}; valid channels: {', '.join(self.valid)}"


@dataclass(frozen=True)
class WheelState(GeneralizedState):
    """Generalized state plus the ground contact point.

    In velocity mode alpha_dot and gamma_dot hold the rate commands in
    effect from this sample onward.
    """

    x_a: float = 0.0
    y_a: float = 0.0


@dataclass(frozen=True)
class ControlCommand:
    """A held command: (u5, u6) in torque mode, (u_alpha, u_gamma) in velocity mode."""

    mode: str
    steer: float
    drive: float

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class Thresholds:
    """Event thresholds. All are engineering choices, overridable per scenario."""

    topple_margin: float = 0.01
    alpha_dot_floor: float = DEFAULT_ALPHA_DOT_FLOOR
    lean: float = 1e-4
    lean_rate: float = 1e-4
    steer_rate: float = 1e-3
    roll_rate: float = 1e-3
    distance: float = 0.05
    line_offset: float = 0.02
    advance_radius: float = 0.05
    start_radius: float = 0.5
    start_lean: float = 0.3

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0.0:
                raise ValueError(f"threshold {f.name} must be positive")
        if self.topple_margin >= math.pi / 2:
            raise ValueError("topple_margin must be below pi/2")


@dataclass(frozen=True)
class Event:
    kind: str
    time: float
    detail: str = ""


@dataclass(frozen=True)
class SimConfig:
    """Everything one closed-loop run needs.

    kind selects the controller family; mode is the actuation layer the
    kind runs in.
    """

    kind: str
    dt: float
    t_end: float
    initial: WheelState
    gains: object
    params: RobotParams = RobotParams()
    target: tuple[float, float] = (0.0, 0.0)
    waypoints: tuple[tuple[float, float], ...] = ()
    friction: FrictionParams | None = None
    thresholds: Thresholds = Thresholds()
    stop_on_converged: bool = True
    actuator_lag: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("dt", "t_end", "actuator_lag"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite, got {getattr(self, name)}")
        if self.dt <= 0.0:
            raise ValueError(f"dt: must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end: must be at least dt, got {self.t_end}")
        if not isfinite(self.t_end / self.dt):
            raise ValueError(
                f"t_end: t_end / dt = {self.t_end} / {self.dt} is beyond the float range"
            )
        expected_gains = {
            "balance": BalanceGains,
            "point_to_point": PositionGains,
            "line": LineGains,
            "corridor": LineGains,
        }[self.kind]
        if not isinstance(self.gains, expected_gains):
            raise ValueError(
                f"kind {self.kind!r} needs {expected_gains.__name__}, "
                f"got {type(self.gains).__name__}"
            )
        if self.kind in ("line", "corridor") and len(self.waypoints) < 2:
            raise ValueError("line and corridor runs need at least two waypoints")
        if self.friction is not None and self.mode != "torque":
            raise ValueError(
                "friction: joint friction applies in torque mode (balance runs) only"
            )
        if self.actuator_lag < 0.0:
            raise ValueError(f"actuator_lag: must be non-negative, got {self.actuator_lag}")
        if self.actuator_lag > 0.0 and self.mode != "velocity":
            raise ValueError("actuator_lag: applies to velocity (tracking) kinds only")

    @property
    def mode(self) -> str:
        return _KIND_MODE[self.kind]

    @property
    def n_steps(self) -> int:
        # small slack so t_end = k*dt is not lost to representation error
        return int(math.floor(self.t_end / self.dt + 1e-9))


class Trajectory:
    """Columnar record of one run: channel arrays, events, final state.

    Built by run_closed_loop and treated as immutable afterwards.
    """

    def __init__(self, kind: str, mode: str):
        self.kind = kind
        self.mode = mode
        self.names: tuple[str, ...] = _KIND_CHANNELS[kind]
        self.channels: dict[str, list[float]] = {n: [] for n in self.names}
        self.events: list[Event] = []
        self.final_state: WheelState | None = None

    @property
    def row_count(self) -> int:
        return len(self.channels["t"])

    @property
    def times(self) -> list[float]:
        return self.channels["t"]

    def channel(self, name: str) -> list[float]:
        try:
            return self.channels[name]
        except KeyError:
            raise UnknownChannelError(name, self.names) from None

    @property
    def terminal_event(self) -> Event | None:
        return self.events[-1] if self.events else None

    @property
    def converged(self) -> bool:
        return any(ev.kind == "Converged" for ev in self.events)


# ---------------------------------------------------------------- steppers
#
# One unrolled RK4 stepper per right-hand side. A factory binds a run's
# constants once; the stepper maps the state at the step start and the held
# command to the state at the step end, and raises NonFiniteStateError when
# a stage or the result is not finite. Stage values the right-hand side
# never reads (gamma, the contact point) are not formed; stage values that
# coincide exactly are formed once.


def _nonfinite() -> NonFiniteStateError:
    return NonFiniteStateError("an RK4 stage produced a NaN or an infinity")


# Each stepper ends with the same finiteness test of its result tuple: the
# sum is finite unless some value is not, or the sum overflowed.


def _torque_stepper(params: RobotParams, dt: float):
    """Decoupled accelerations (u5, u6) held; the decoupling is exact."""
    R, Gm, Im, Jm = params.R, params.Gm, params.Im, params.Jm
    h2, h6 = 0.5 * dt, dt / 6.0

    def step(a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6):
        # bdd: lean acceleration at the step start, the first stage's
        try:
            nGm = -Gm
            a2, b2 = a + h2 * ad, b + h2 * bd
            ad2, bd2, gd2 = ad + h2 * u5, bd + h2 * bdd, gd + h2 * u6
            sq2 = ad2**2
            sb, cb = sin(b2), cos(b2)
            l2 = nGm * cb - Im * cb * sb * sq2 - Jm * sb * ad2 * gd2
            # held u5, u6 make the third stage's rates equal the second's
            a3, b3, bd3 = a + h2 * ad2, b + h2 * bd2, bd + h2 * l2
            sb, cb = sin(b3), cos(b3)
            l3 = nGm * cb - Im * cb * sb * sq2 - Jm * sb * ad2 * gd2
            a4, b4 = a + dt * ad2, b + dt * bd3
            ad4, bd4, gd4 = ad + dt * u5, bd + dt * l3, gd + dt * u6
            sb, cb = sin(b4), cos(b4)
            l4 = nGm * cb - Im * cb * sb * ad4**2 - Jm * sb * ad4 * gd4
            x1, y1 = R * gd * cos(a), R * gd * sin(a)
            x2, y2 = R * gd2 * cos(a2), R * gd2 * sin(a2)
            x3, y3 = R * gd2 * cos(a3), R * gd2 * sin(a3)
            x4, y4 = R * gd4 * cos(a4), R * gd4 * sin(a4)
            b_n = b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4)
            ad_n = ad + h6 * (u5 + 2.0 * u5 + 2.0 * u5 + u5)
            gd_n = gd + h6 * (u6 + 2.0 * u6 + 2.0 * u6 + u6)
            sb, cb = sin(b_n), cos(b_n)
            out = (
                a + h6 * (ad + 2.0 * ad2 + 2.0 * ad2 + ad4),
                b_n,
                g + h6 * (gd + 2.0 * gd2 + 2.0 * gd2 + gd4),
                ad_n,
                bd + h6 * (bdd + 2.0 * l2 + 2.0 * l3 + l4),
                gd_n,
                nGm * cb - Im * cb * sb * ad_n**2 - Jm * sb * ad_n * gd_n,
                xa + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
                ya + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
            )
        except (ValueError, OverflowError):  # sin/cos of inf, or ** overflow
            raise _nonfinite() from None
        if isfinite(sum(out)) or all(map(isfinite, out)):
            return out
        raise _nonfinite()

    return step


def _lean_exit(beta: float) -> None:
    """Raise for a stage lean outside (0, pi): non-finite, or a flat wheel."""
    if not isfinite(beta):
        raise _nonfinite()
    _require_open_lean(beta)


def _friction_stepper(params: RobotParams, friction: FrictionParams, dt: float):
    """Motor torques held, full inertia/force equations, joint friction.

    The decoupled command is converted to motor torques once, at the step
    start (cancel_and_decouple), from the step-start inertia entries and
    forces; each stage then solves the full equations (inertia_matrix,
    nonlinear_terms, full_accel) with friction_torque subtracted on the
    steering and rolling axes, all in one stage function. The returned lean
    acceleration is the reduced one (lean_accel), as the balance law reads.
    """
    R, M22, Gm, Im, Jm = params.R, params.M22, params.Gm, params.Im, params.Jm
    m, Ix = params.m, params.Ix
    big = 2.0 * Ix + m * R**2
    disk = Ix + m * R**2
    ix2, disk2, mgr = 2.0 * Ix, 2.0 * disk, -m * params.g * R
    mv_a, _, mv_g = friction.mu_v
    md_a, _, md_g = friction.mu_d
    ms_a, _, ms_g = friction.mu_s
    dm_a, dm_g = ms_a - md_a, ms_g - md_g
    D = friction.D
    h2, h6 = 0.5 * dt, dt / 6.0

    def stage(b, ad, bd, gd, u1, u2, decouple=False):
        # (alpha_ddot, beta_ddot, gamma_ddot) under motor torques (u1, u2) less
        # friction, and (u1, u2); at the step start the held (u5, u6) come in
        # as (u1, u2) and are decoupled here, from the same inertia and forces
        if not 0.0 < b < pi:
            _lean_exit(b)
        sb, cb = sin(b), cos(b)
        M11 = Ix * sb**2 + big * cb**2
        M13 = big * cb
        n1 = disk * sin(2.0 * b) * ad * bd + ix2 * sb * bd * gd
        n3 = disk2 * sb * ad * bd
        if decouple:
            u1, u2 = (M11 * u1 + M13 * u2) - n1, (M13 * u1 + big * u2) - n3
        s = 1.0 if ad > 0.0 else -1.0 if ad < 0.0 else 0.0
        rhs1 = n1 + (u1 - (mv_a * ad + (md_a + dm_a * exp(-abs(ad) / D)) * s))
        s = 1.0 if gd > 0.0 else -1.0 if gd < 0.0 else 0.0
        rhs3 = n3 + (u2 - (mv_g * gd + (md_g + dm_g * exp(-abs(gd) / D)) * s))
        M_rho = M11 * big - M13**2
        return (
            (big * rhs1 - M13 * rhs3) / M_rho,
            (mgr * cb - big * sb * ad * gd - disk * cb * sb * ad**2) / M22,
            (-M13 * rhs1 + M11 * rhs3) / M_rho,
            u1,
            u2,
        )

    def step(a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6):
        # bdd is unused: the first stage solves the full equations
        try:
            add1, bdd1, gdd1, u1, u2 = stage(b, ad, bd, gd, u5, u6, True)
            a2, b2 = a + h2 * ad, b + h2 * bd
            ad2, bd2, gd2 = ad + h2 * add1, bd + h2 * bdd1, gd + h2 * gdd1
            add2, bdd2, gdd2, _, _ = stage(b2, ad2, bd2, gd2, u1, u2)
            a3, b3 = a + h2 * ad2, b + h2 * bd2
            ad3, bd3, gd3 = ad + h2 * add2, bd + h2 * bdd2, gd + h2 * gdd2
            add3, bdd3, gdd3, _, _ = stage(b3, ad3, bd3, gd3, u1, u2)
            a4, b4 = a + dt * ad3, b + dt * bd3
            ad4, bd4, gd4 = ad + dt * add3, bd + dt * bdd3, gd + dt * gdd3
            add4, bdd4, gdd4, _, _ = stage(b4, ad4, bd4, gd4, u1, u2)
            x1, y1 = R * gd * cos(a), R * gd * sin(a)
            x2, y2 = R * gd2 * cos(a2), R * gd2 * sin(a2)
            x3, y3 = R * gd3 * cos(a3), R * gd3 * sin(a3)
            x4, y4 = R * gd4 * cos(a4), R * gd4 * sin(a4)
            b_n = b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4)
            ad_n = ad + h6 * (add1 + 2.0 * add2 + 2.0 * add3 + add4)
            gd_n = gd + h6 * (gdd1 + 2.0 * gdd2 + 2.0 * gdd3 + gdd4)
            sb, cb = sin(b_n), cos(b_n)
            out = (
                a + h6 * (ad + 2.0 * ad2 + 2.0 * ad3 + ad4),
                b_n,
                g + h6 * (gd + 2.0 * gd2 + 2.0 * gd3 + gd4),
                ad_n,
                bd + h6 * (bdd1 + 2.0 * bdd2 + 2.0 * bdd3 + bdd4),
                gd_n,
                -Gm * cb - Im * cb * sb * ad_n**2 - Jm * sb * ad_n * gd_n,
                xa + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
                ya + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
            )
        except DegenerateLeanError:
            raise
        except (ValueError, OverflowError, ZeroDivisionError):  # M_rho can underflow to 0
            raise _nonfinite() from None
        if isfinite(sum(out)) or all(map(isfinite, out)):
            return out
        raise _nonfinite()

    return step


def _velocity_stepper(params: RobotParams, dt: float):
    """Rates (u_alpha, u_gamma) held and applied at once."""
    R, Gm, Im, Jm = params.R, params.Gm, params.Im, params.Jm
    h2, h6 = 0.5 * dt, dt / 6.0

    def step(a, b, g, bd, xa, ya, ad, gd, bdd, ua, ug):
        # ad, gd: the rates in effect, replaced by the command at once;
        # bdd: lean acceleration at the step start under (ua, ug)
        try:
            nGm, sq = -Gm, ua**2
            a2, b2, bd2 = a + h2 * ua, b + h2 * bd, bd + h2 * bdd
            sb, cb = sin(b2), cos(b2)
            l2 = nGm * cb - Im * cb * sb * sq - Jm * sb * ua * ug
            b3, bd3 = b + h2 * bd2, bd + h2 * l2
            sb, cb = sin(b3), cos(b3)
            l3 = nGm * cb - Im * cb * sb * sq - Jm * sb * ua * ug
            a4, b4, bd4 = a + dt * ua, b + dt * bd3, bd + dt * l3
            sb, cb = sin(b4), cos(b4)
            l4 = nGm * cb - Im * cb * sb * sq - Jm * sb * ua * ug
            x2, y2 = R * ug * cos(a2), R * ug * sin(a2)  # stage 3 shares a2
            out = (
                a + h6 * (ua + 2.0 * ua + 2.0 * ua + ua),
                b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4),
                g + h6 * (ug + 2.0 * ug + 2.0 * ug + ug),
                bd + h6 * (bdd + 2.0 * l2 + 2.0 * l3 + l4),
                xa + h6 * (R * ug * cos(a) + 2.0 * x2 + 2.0 * x2 + R * ug * cos(a4)),
                ya + h6 * (R * ug * sin(a) + 2.0 * y2 + 2.0 * y2 + R * ug * sin(a4)),
                ua,
                ug,
            )
        except (ValueError, OverflowError):
            raise _nonfinite() from None
        if isfinite(sum(out)) or all(map(isfinite, out)):
            return out
        raise _nonfinite()

    return step


def _lag_stepper(params: RobotParams, dt: float, tau: float):
    """Rates relax toward the held command through a first-order lag tau."""
    R, Gm, Im, Jm = params.R, params.Gm, params.Im, params.Jm
    h2, h6 = 0.5 * dt, dt / 6.0

    def step(a, b, g, bd, xa, ya, za, zg, bdd, ua, ug):
        # (za, zg): the lag filter, which is the rates in effect;
        # bdd: lean acceleration at the step start under (za, zg)
        try:
            nGm = -Gm
            fa1, fg1 = (ua - za) / tau, (ug - zg) / tau
            a2, b2, bd2 = a + h2 * za, b + h2 * bd, bd + h2 * bdd
            za2, zg2 = za + h2 * fa1, zg + h2 * fg1
            sb, cb = sin(b2), cos(b2)
            l2 = nGm * cb - Im * cb * sb * za2**2 - Jm * sb * za2 * zg2
            fa2, fg2 = (ua - za2) / tau, (ug - zg2) / tau
            a3, b3, bd3 = a + h2 * za2, b + h2 * bd2, bd + h2 * l2
            za3, zg3 = za + h2 * fa2, zg + h2 * fg2
            sb, cb = sin(b3), cos(b3)
            l3 = nGm * cb - Im * cb * sb * za3**2 - Jm * sb * za3 * zg3
            fa3, fg3 = (ua - za3) / tau, (ug - zg3) / tau
            a4, b4, bd4 = a + dt * za3, b + dt * bd3, bd + dt * l3
            za4, zg4 = za + dt * fa3, zg + dt * fg3
            sb, cb = sin(b4), cos(b4)
            l4 = nGm * cb - Im * cb * sb * za4**2 - Jm * sb * za4 * zg4
            fa4, fg4 = (ua - za4) / tau, (ug - zg4) / tau
            x1, y1 = R * zg * cos(a), R * zg * sin(a)
            x2, y2 = R * zg2 * cos(a2), R * zg2 * sin(a2)
            x3, y3 = R * zg3 * cos(a3), R * zg3 * sin(a3)
            x4, y4 = R * zg4 * cos(a4), R * zg4 * sin(a4)
            out = (
                a + h6 * (za + 2.0 * za2 + 2.0 * za3 + za4),
                b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4),
                g + h6 * (zg + 2.0 * zg2 + 2.0 * zg3 + zg4),
                bd + h6 * (bdd + 2.0 * l2 + 2.0 * l3 + l4),
                xa + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
                ya + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
                za + h6 * (fa1 + 2.0 * fa2 + 2.0 * fa3 + fa4),
                zg + h6 * (fg1 + 2.0 * fg2 + 2.0 * fg3 + fg4),
            )
        except (ValueError, OverflowError):
            raise _nonfinite() from None
        if isfinite(sum(out)) or all(map(isfinite, out)):
            return out
        raise _nonfinite()

    return step


def rk4_step(
    state: WheelState,
    command: ControlCommand,
    params: RobotParams,
    dt: float,
    friction: FrictionParams | None = None,
) -> WheelState:
    """Advance one RK4 step with the command held constant.

    Runs the same stepper as run_closed_loop. dt may be negative (backward
    integration, used by finite-difference oracles). Raises
    NonFiniteStateError if the step produces a NaN or infinity.
    """
    st, u1, u2 = state, command.steer, command.drive
    if command.mode == "torque":
        if friction is None:
            step_ = _torque_stepper(params, dt)
            bdd = lean_accel(st.beta, st.alpha_dot, st.gamma_dot, params)
        else:
            step_, bdd = _friction_stepper(params, friction, dt), None
        a, b, g, ad, bd, gd, bdd, xa, ya = step_(
            st.alpha, st.beta, st.gamma, st.alpha_dot, st.beta_dot, st.gamma_dot,
            bdd, st.x_a, st.y_a, u1, u2,
        )
    else:
        a, b, g, bd, xa, ya, ad, gd = _velocity_stepper(params, dt)(
            st.alpha, st.beta, st.gamma, st.beta_dot, st.x_a, st.y_a, u1, u2,
            lean_accel(st.beta, u1, u2, params), u1, u2,
        )
        bdd = lean_accel(b, ad, gd, params)
    return WheelState(a, b, g, ad, bd, gd, bdd, xa, ya)


# ------------------------------------------------------------------ events


def _build_controller(cfg: SimConfig):
    if cfg.kind == "balance":
        return BalanceController(
            cfg.gains, cfg.params, cfg.initial.alpha_dot,
            alpha_dot_floor=cfg.thresholds.alpha_dot_floor,
        )
    if cfg.kind == "point_to_point":
        return PositionController(cfg.gains, cfg.params, cfg.target)
    return LineController(cfg.gains, cfg.params, cfg.waypoints)


def _shown(x: float, digits: int) -> str:
    """x to `digits` decimals, in e notation from 1e6 in magnitude: short text at any size."""
    return f"{x:.{digits}f}" if abs(x) < 1e6 else f"{x:.{digits}e}"


def _admissibility_violation(cfg: SimConfig, state: WheelState | None = None) -> str | None:
    """Name the violated domain predicate at `state`, or None if admissible.

    Without a state this is the initial-state check. The distance from the
    first waypoint is a fact about the start only, so a given state is not
    tested against it.
    """
    st = cfg.initial if state is None else state
    thr = cfg.thresholds
    if _topple_event(0.0, st.beta, thr) is not None:
        return (
            f"initial lean {_shown(st.beta, 6)} rad outside the topple margin window "
            f"({thr.topple_margin}, pi - {thr.topple_margin})"
        )
    if cfg.kind == "balance":
        a = st.beta - math.pi / 2.0
        b = st.beta_dot
        c = lean_accel(st.beta, st.alpha_dot, st.gamma_dot, cfg.params)
        s = sigma(a, b, c)
        if s >= math.pi / 2.0:
            return (
                f"sigma(a, b, c) = {_shown(s, 6)} >= pi/2 for initial lean data "
                f"({_shown(a, 6)}, {_shown(b, 6)}, {_shown(c, 6)})"
            )
        if abs(st.alpha_dot) < thr.alpha_dot_floor:
            return (
                f"initial |alpha_dot| = {abs(st.alpha_dot):.3e} below the "
                f"singularity floor {thr.alpha_dot_floor:.3e}"
            )
        return None
    if cfg.kind == "point_to_point":
        e0 = math.hypot(st.x_a - cfg.target[0], st.y_a - cfg.target[1])
        if e0 <= EPS_DISTANCE:
            return f"initial target distance e = {e0:.3e} is not positive"
        v1 = lean_tracking_value(st.beta, st.beta_dot)
        if math.sqrt(v1) >= math.pi / 2.0:
            return (
                f"initial lean data outside the tracking domain: "
                f"sqrt(V1) = {_shown(math.sqrt(v1), 6)} >= pi/2"
            )
        return None
    # line / corridor
    if state is None:
        x0, y0 = cfg.waypoints[0]
        r0 = math.hypot(st.x_a - x0, st.y_a - y0)
        if r0 > thr.start_radius:
            return (
                f"initial distance {_shown(r0, 4)} m from the segment start exceeds "
                f"the admissible radius {thr.start_radius} m"
            )
    if abs(st.beta - math.pi / 2.0) > thr.start_lean:
        return (
            f"initial lean offset {_shown(abs(st.beta - math.pi / 2.0), 4)} rad exceeds "
            f"the admissible lean {thr.start_lean} rad"
        )
    return None


# Event predicates and the convergence table, shared by run_closed_loop and detect_events.


def _topple_event(t: float, beta: float, thr: Thresholds) -> Event | None:
    if thr.topple_margin < beta < math.pi - thr.topple_margin:
        return None
    return Event("Toppled", t, f"beta = {beta:.6f} rad")


def _singular_event(t: float, alpha_dot: float, thr: Thresholds) -> Event | None:
    """Torque mode only: the balance law divides by the steering rate."""
    if not abs(alpha_dot) < thr.alpha_dot_floor:
        return None
    return Event(
        "SingularSteering", t,
        f"|alpha_dot| = {abs(alpha_dot):.3e} below floor {thr.alpha_dot_floor:.3e}",
    )


def _convergence(cfg: SimConfig, state: WheelState, e: float, d: float, segment: float) -> dict:
    """The Converged test: one (value, limit, passed) entry per threshold, in the report's order.

    The run converges where every entry passes. e and d are the chart's
    distances at the state (a balance run reads neither, a point-to-point
    run only e); a line run's distance passes only on its last segment.
    """
    thr = cfg.thresholds
    if cfg.kind == "balance":
        values = (abs(state.beta - math.pi / 2.0), abs(state.beta_dot),
                  abs(state.alpha_dot), abs(state.gamma_dot))
        limits = (thr.lean, thr.lean_rate, thr.steer_rate, thr.roll_rate)
        return {key: (v, lim, v <= lim) for key, v, lim in
                zip(("lean", "lean_rate", "steer_rate", "roll_rate"), values, limits)}
    if cfg.kind == "point_to_point":
        return {"distance": (e, thr.distance, e < thr.distance)}
    last = segment == len(cfg.waypoints) - 2
    return {"distance": (d, thr.distance, last and d < thr.distance),
            "line_offset": (e, thr.line_offset, e < thr.line_offset)}


def _converged_detail(kind: str, checks: dict) -> str:
    """The Converged event's text, from the entries of _convergence."""
    if kind == "balance":
        return "lean, lean rate, steering rate, rolling rate all within thresholds"
    if kind == "point_to_point":
        e, limit, _ = checks["distance"]
        return f"e = {e:.4f} m < {limit} m"
    d, e = checks["distance"][0], checks["line_offset"][0]
    return f"d = {d:.4f} m and line distance e = {e:.4f} m within thresholds"


def detect_events(state: WheelState, cfg: SimConfig, t: float = 0.0, segment: int = 0) -> list[Event]:
    """Evaluate all event predicates at one state. Pure and idempotent.

    Uses the charts, the predicates and the convergence test run_closed_loop
    fires its events with, so at the final state of a run this reports the
    events the run recorded at its final time (DomainExit aside, which the
    run does not record).
    """
    thr = cfg.thresholds
    events = [_topple_event(t, state.beta, thr)]
    e = d = math.nan
    if cfg.kind == "point_to_point":
        e, _, _ = polar_chart(cfg.target)(state.x_a, state.y_a, state.alpha)
    elif cfg.kind != "balance" and 0 <= segment < len(cfg.waypoints) - 1:
        chart = line_chart(cfg.waypoints[segment], cfg.waypoints[segment + 1])
        _, e, d, _, _, _, _ = chart(state.x_a, state.y_a, state.alpha)
    checks = _convergence(cfg, state, e, d, segment)
    if all(passed for _, _, passed in checks.values()):
        events.append(Event("Converged", t, _converged_detail(cfg.kind, checks)))
    if cfg.mode == "torque":
        events.append(_singular_event(t, state.alpha_dot, thr))
    violated = _admissibility_violation(cfg, state)
    if violated is not None:
        events.append(Event("DomainExit", t, violated))
    return [ev for ev in events if ev is not None]


# -------------------------------------------------------------------- loop


def run_closed_loop(cfg: SimConfig) -> Trajectory:
    """Integrate the configured closed loop and record every step.

    Raises InadmissibleStateError before any integration if the initial
    state violates the controller's domain predicate. Terminal events
    (Toppled, SingularSteering, NonFinite, and Converged when
    stop_on_converged is set) truncate the run; otherwise it ends at the
    horizon.
    """
    violated = _admissibility_violation(cfg)
    if violated is not None:
        raise InadmissibleStateError(violated)

    controller = _build_controller(cfg)
    command = controller.command
    kind, params, thr, dt = cfg.kind, cfg.params, cfg.thresholds, cfg.dt
    n = cfg.n_steps
    balance, p2p = kind == "balance", kind == "point_to_point"
    torque, lag = cfg.mode == "torque", cfg.actuator_lag > 0.0
    Gm, Im, Jm = params.Gm, params.Im, params.Jm
    k1p = 1.0 + cfg.gains.k1 if balance else 0.0
    waypoints = getattr(controller, "waypoints", ())
    last_segment = len(waypoints) - 2
    nan, half_pi = math.nan, math.pi / 2.0
    # the event thresholds, bound once; an event's predicate function, or
    # the convergence table, runs only once its condition holds, to build the event
    lo, hi = thr.topple_margin, math.pi - thr.topple_margin
    floor = thr.alpha_dot_floor if torque else 0.0  # |alpha_dot| < 0 never holds
    lean, lean_rate, steer_rate, roll_rate = thr.lean, thr.lean_rate, thr.steer_rate, thr.roll_rate
    distance, line_offset, advance_radius = thr.distance, thr.line_offset, thr.advance_radius

    traj = Trajectory(kind, cfg.mode)
    events = traj.events
    put = {name: col.append for name, col in traj.channels.items()}
    (put_t, put_a, put_b, put_g, put_ad, put_bd, put_gd, put_bdd, put_xa, put_ya,
     put_us, put_ud, put_V) = (put[name] for name in _BASE_CHANNELS)
    put_V1, put_e, put_psi, put_d, put_p, put_segment = (
        put.get(name) for name in ("V1", "e", "psi", "d", "p", "segment")
    )

    st = cfg.initial
    a, b, g, ad, bd, gd = st.alpha, st.beta, st.gamma, st.alpha_dot, st.beta_dot, st.gamma_dot
    xa, ya, bdd = st.x_a, st.y_a, st.beta_ddot
    if torque:
        bdd = lean_accel(b, ad, gd, params)
        if cfg.friction is None:
            advance = _torque_stepper(params, dt)
        else:
            advance = _friction_stepper(params, cfg.friction, dt)
    elif lag:
        advance = _lag_stepper(params, dt, cfg.actuator_lag)
    else:
        advance = _velocity_stepper(params, dt)

    segment = 0
    segment_value = 0.0  # one float object per segment, so the writers format it once
    if p2p:
        chart = polar_chart(controller.target)
    elif not balance:  # one line chart per segment reached
        chart = line_chart(waypoints[0], waypoints[1])
    e = d = nan  # the chart distances; a balance run has none, a point-to-point run no d
    converged_seen = False
    for i in range(n + 1):
        t = i * dt
        if not lo < b < hi:
            stop = _topple_event(t, b, thr)
        elif abs(ad) < floor:
            stop = _singular_event(t, ad, thr)
        else:
            stop = None
        if balance:  # balance_value, whose x is also the convergence test's lean offset
            x = b - half_pi
            z2 = bd + x
            z3 = bdd + k1p * z2
            V = 0.5 * (x * x + z2 * z2 + z3 * z3)
        elif p2p:
            e, theta, psi = chart(xa, ya, a)
        else:
            r, e, d, theta, phi, p, ell = chart(xa, ya, a)
            # advance the corridor, at most one segment, before the command for this row
            if stop is None and segment < last_segment and d < advance_radius:
                segment += 1
                segment_value = float(segment)
                chart = line_chart(waypoints[segment], waypoints[segment + 1])
                r, e, d, theta, phi, p, ell = chart(xa, ya, a)

        if stop is not None:
            us = ud = nan
        elif balance:
            us, ud = command(b, ad, bd, gd, bdd, V)
        else:
            if p2p:
                us, ud = command(b, bd, e, psi)
            else:
                us, ud = command(a, b, bd, theta, phi, p)
            if not lag:  # the commanded rates act at once
                ad, gd = us, ud
        try:
            if not torque:  # lean acceleration under the rates in effect for this row
                sb, cb = sin(b), cos(b)
                bdd = -Gm * cb - Im * cb * sb * ad**2 - Jm * sb * ad * gd
            if not balance:  # lean_tracking_value
                x = b - half_pi
                z2 = x + bd
                v1 = 0.5 * (x * x + z2 * z2)
                V = v1 + 0.5 * e**2 if p2p else v1 + 0.5 * (e**2 + d**2)
        except OverflowError:  # a finite rate or distance whose square is not
            events.append(Event("NonFinite", t, "a value of this row is beyond the float range"))
            break

        put_t(t)
        put_a(a)
        put_b(b)
        put_g(g)
        put_ad(ad)
        put_bd(bd)
        put_gd(gd)
        put_bdd(bdd)
        put_xa(xa)
        put_ya(ya)
        put_us(us)
        put_ud(ud)
        put_V(V)
        if not balance:
            put_V1(v1)
            put_e(e)
            if p2p:
                put_psi(psi)
            else:
                put_d(d)
                put_p(p)
                put_segment(segment_value)

        if stop is not None:
            events.append(stop)
            break
        if not converged_seen and (
            (abs(x) <= lean and abs(bd) <= lean_rate and abs(ad) <= steer_rate
             and abs(gd) <= roll_rate) if balance
            else e < distance if p2p
            else segment == last_segment and d < distance and e < line_offset
        ):
            converged_seen = True
            checks = _convergence(cfg, WheelState(a, b, g, ad, bd, gd, bdd, xa, ya), e, d, segment)
            events.append(Event("Converged", t, _converged_detail(kind, checks)))
            if cfg.stop_on_converged:
                break
        if i == n:
            break
        try:
            if torque:
                a, b, g, ad, bd, gd, bdd, xa, ya = advance(a, b, g, ad, bd, gd, bdd, xa, ya, us, ud)
            else:
                a, b, g, bd, xa, ya, ad, gd = advance(a, b, g, bd, xa, ya, ad, gd, bdd, us, ud)
        except NonFiniteStateError as exc:
            events.append(Event("NonFinite", t, str(exc)))
            break
        except DegenerateLeanError as exc:  # a stage lean left (0, pi)
            events.append(Event("Toppled", t, str(exc)))
            break

    traj.final_state = WheelState(a, b, g, ad, bd, gd, bdd, xa, ya)
    return traj


def run_lean_subsystem(
    a: float,
    b: float,
    c: float,
    k1: float = 1.0,
    dt: float = 1e-3,
    t_end: float = 10.0,
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Integrate the closed-loop lean-jerk subsystem x''' = -((2+k1)x + (3+2k1)x' + (2+k1)x'').

    This is the linear system the balance law imposes on the lean offset
    x = beta - pi/2; (a, b, c) are the initial (x, x', x''). Returns
    (times, x, x_dot, x_ddot). Used as the closed-form oracle target and
    for integrator order checks.
    """
    c0 = 2.0 + k1
    c1 = 3.0 + 2.0 * k1

    def f(y):
        x, xd, xdd = y
        return (xd, xdd, -(c0 * x + c1 * xd + c0 * xdd))

    n = int(math.floor(t_end / dt + 1e-9))
    times = [0.0]
    xs, xds, xdds = [a], [b], [c]
    y = (a, b, c)
    for i in range(n):
        y = _rk4(y, f, dt)
        times.append((i + 1) * dt)
        xs.append(y[0])
        xds.append(y[1])
        xdds.append(y[2])
    return times, xs, xds, xdds


def _rk4(y, f, dt):
    """Generic RK4 over tuples, for the lean-subsystem oracle."""
    k1 = f(y)
    y2 = tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k1))
    k2 = f(y2)
    y3 = tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k2))
    k3 = f(y3)
    y4 = tuple(yi + dt * ki for yi, ki in zip(y, k3))
    k4 = f(y4)
    return tuple(
        yi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )
