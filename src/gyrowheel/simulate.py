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
constants bound once; all four take the state in WheelState's field order
and return the eight coordinates they integrate. One selector, _stepper,
builds the stepper of a mode for both run_closed_loop and rk4_step, which
form the lean acceleration and judge each step: the steppers are plain
arithmetic. The friction stepper writes its four stages out in full, each
solving its inertia entries, forces and accelerations inline, with no call
per stage. Each controller's command is its law, with the gains, (Gm, Im,
Jm) and, for balance, the latched sign bound at construction; the polar
chart binds the target once per run and each line chart binds its
segment's length and bearing once, when the corridor first reaches it.
run_closed_loop keeps the state in local floats and computes each per-row
quantity once: the lean acceleration (also the first RK4 stage of the next
step), the balance certificate (also the balance law's input), and the
chart's coordinates (shared by the segment advance, the command, the
certificate and the convergence test). It calls the controller's command
once per row, with plain floats, and no other function of the package but
the chart and the stepper. Each row is one extend of its tuple into a flat
buffer; every _CHUNK_ROWS rows, and once at the end, the buffer's strided
slices (the columns, holding the rows' own float objects) go to the run's
sink, and the buffer is cleared.
The loop compares against the event thresholds, bound once per run, and
calls the predicate functions and the convergence table that detect_events
uses only once a condition holds, to build the event.

Commands are held constant across each RK4 step (zero-order hold), computed
from the state at the step start. Every step boundary emits one trajectory
row; terminal events truncate the run at the row where they fire, so the
last row's time is the event time. A step whose stages or result are not
finite ends the run with a NonFinite event at the time of its first row; a
friction step whose finite stage lean leaves (0, pi) ends it with a Toppled
event the same way. A row with a value that a power (**) takes beyond the
float range, or whose command divides by a value that underflowed to 0,
ends the run with a NonFinite event at its time, without the row. A product
or a quotient that overflows gives an infinity, not an error: the row is
kept, and the step from it ends the run with the step's NonFinite event.

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
from array import array
from collections import namedtuple
from math import cos, exp, inf, isfinite, pi, sin

from .controllers import (
    BalanceController,
    BalanceGains,
    LineController,
    LineGains,
    PositionController,
    PositionGains,
    sigma,
)
from .dynamics import DegenerateLeanError, WheelState, _require_open_lean, lean_accel
from .kinematics import EPS_DISTANCE, EPS_RADIUS, DegenerateLineError, line_chart, polar_chart
from .lyapunov import lean_tracking_value
from .params import FrictionParams, Record, RobotParams

__all__ = [
    "InadmissibleStateError",
    "NonFiniteStateError",
    "UnknownChannelError",
    "Thresholds",
    "SimConfig",
    "Event",
    "Trajectory",
    "CHANNEL_INFO",
    "rk4_step",
    "detect_events",
    "run_closed_loop",
    "KINDS",
    "MODES",
]

MODES = ("torque", "velocity")
_TORQUE_ONLY = "friction: joint friction applies in torque mode (balance runs) only"

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
_LINE_CHANNELS = _BASE_CHANNELS + ("V1", "e", "d", "p", "segment")

# kind -> its actuation mode (balance works at the torque layer, the tracking
# controllers command rates), its gains class, the channels a run emits, in
# order, cert, the certificate channel whose decay the report fits, and plots,
# the plot_channels of a scenario that names none
_Kind = namedtuple("_Kind", "mode gains channels cert plots")
_LINE_KIND = _Kind("velocity", LineGains, _LINE_CHANNELS, "V1", ("e", "d", "beta", "segment"))
_KINDS = {
    "balance": _Kind("torque", BalanceGains, _BASE_CHANNELS, "V",
                     ("beta", "alpha_dot", "gamma_dot", "V")),
    "point_to_point": _Kind("velocity", PositionGains, _BASE_CHANNELS + ("V1", "e", "psi"), "V1",
                            ("e", "psi", "beta", "V1")),
    "line": _LINE_KIND,
    "corridor": _LINE_KIND,
}
KINDS = tuple(_KINDS)


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


class Thresholds(Record):
    """Event thresholds. All are engineering choices, overridable per scenario."""

    topple_margin: float = 0.01
    # the balance law's u6 divides by h3 = -Jm*sin(beta)*alpha_dot: below
    # this steering rate the command is taken as unbounded
    alpha_dot_floor: float = 1e-4
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
        # written so that NaN fails each test
        for name in self._fields:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"threshold {name} must be positive")
        if not self.topple_margin < math.pi / 2:
            raise ValueError("topple_margin must be below pi/2")


class Event(Record):
    kind: str
    time: float
    detail: str = ""


class SimConfig(Record):
    """Everything one closed-loop run needs.

    kind selects the controller family; mode is the actuation layer the
    kind runs in.
    """

    kind: str
    dt: float = 1e-3
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
        if self.n_steps > 2**53:  # past it, the loop's t = i * dt rounds i: two rows, one time
            raise ValueError(f"t_end: t_end / dt = {self.t_end} / {self.dt} is over 2**53 steps, "
                             "past which a row's index is not exact as a double")
        expected_gains = _KINDS[self.kind].gains
        if not isinstance(self.gains, expected_gains):
            raise ValueError(
                f"kind {self.kind!r} needs {expected_gains.__name__}, "
                f"got {type(self.gains).__name__}"
            )
        if self.kind in ("line", "corridor") and len(self.waypoints) < 2:
            raise ValueError("line and corridor runs need at least two waypoints")
        for i in range(len(self.waypoints) - 1):
            (x0, y0), (x1, y1) = self.waypoints[i], self.waypoints[i + 1]
            if math.hypot(x1 - x0, y1 - y0) <= EPS_RADIUS:
                raise DegenerateLineError(f"waypoints[{i + 1}]: coincides with waypoints[{i}]")
        if self.friction is not None and self.mode != "torque":
            raise ValueError(_TORQUE_ONLY)
        if self.mode == "torque":
            try:
                self.initial.alpha_dot**2  # the lean dynamics square the steering rate
            except OverflowError:
                raise ValueError(
                    f"initial.alpha_dot: {self.initial.alpha_dot!r} is too large: the lean "
                    "acceleration squares it beyond the float range"
                ) from None
        if self.actuator_lag < 0.0:
            raise ValueError(f"actuator_lag: must be non-negative, got {self.actuator_lag}")
        if self.actuator_lag > 0.0 and self.mode != "velocity":
            raise ValueError("actuator_lag: applies to velocity (tracking) kinds only")

    @property
    def mode(self) -> str:
        return _KINDS[self.kind].mode

    @property
    def n_steps(self) -> int:
        # small slack so t_end = k*dt is not lost to representation error
        return int(math.floor(self.t_end / self.dt + 1e-9))


# rows per chunk handed to a run's sink: one chunk's text is the largest
# transient of a CLI run, so the chunk bounds its peak
_CHUNK_ROWS = 256


class Trajectory:
    """Columnar record of one run: channels, events, final state.

    Built by run_closed_loop and not changed afterwards. Each channel is an
    array('d'), 8 bytes a value (list(col) is JSON-ready). A run given a sink
    keeps its channels empty, so its row_count is 0: its rows went to the sink.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.names: tuple[str, ...] = _KINDS[kind].channels
        self.channels: dict[str, array] = {n: array("d") for n in self.names}
        self.events: list[Event] = []
        self.final_state: WheelState | None = None

    @property
    def mode(self) -> str:
        return _KINDS[self.kind].mode

    @property
    def row_count(self) -> int:
        return len(self.channels["t"])

    @property
    def times(self) -> array:
        return self.channels["t"]

    def channel(self, name: str) -> array:
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
# One unrolled RK4 stepper per right-hand side; _stepper picks a mode's, and
# its factory binds the run's constants once. Each stepper maps the step-start
# state, in WheelState's field order, and the held command to the eight
# coordinates it integrates at the step's end, (a, b, g, ad, bd, gd, xa, ya),
# a rate-layer stepper's rates being those in effect; the callers form the
# lean acceleration, a value of the state. Stage values the right-hand side
# never reads (gamma, the contact point) are not formed; stage values that
# coincide exactly are formed once. A stepper raises only DegenerateLeanError,
# when a finite friction stage lean leaves (0, pi); its two callers,
# run_closed_loop and rk4_step, judge the step: that error is a flat wheel,
# and any other error (sin of an infinity, an overflow, M_rho underflowed to
# 0) or a result whose sum is not finite (it is finite unless some value is
# not, or the sum overflowed) is a NaN or an infinity.

_NONFINITE = "an RK4 stage produced a NaN or an infinity"


def _torque_stepper(params: RobotParams, dt: float):
    """Decoupled accelerations (u5, u6) held; the decoupling is exact."""
    R, Gm, Im, Jm = params.R, params.Gm, params.Im, params.Jm
    h2, h6 = 0.5 * dt, dt / 6.0

    def step(a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6):
        # bdd: lean acceleration at the step start, the first stage's
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
        return (
            a + h6 * (ad + 2.0 * ad2 + 2.0 * ad2 + ad4),
            b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4),
            g + h6 * (gd + 2.0 * gd2 + 2.0 * gd2 + gd4),
            ad + h6 * (u5 + 2.0 * u5 + 2.0 * u5 + u5),
            bd + h6 * (bdd + 2.0 * l2 + 2.0 * l3 + l4),
            gd + h6 * (u6 + 2.0 * u6 + 2.0 * u6 + u6),
            xa + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
            ya + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
        )

    return step


def _friction_stepper(params: RobotParams, friction: FrictionParams, dt: float):
    """Motor torques held, full inertia/force equations, joint friction.

    The decoupled command is converted to motor torques once, at the step
    start (cancel_and_decouple), from the step-start inertia entries and
    forces; each stage then solves the full equations (inertia_matrix,
    nonlinear_terms, full_accel) with friction_torque subtracted on the
    steering and rolling axes, written out inline for each of the four
    stages (one stage body in a loop over the step sizes ran slower than
    the former per-stage call). The caller forms the lean acceleration at
    the step's end, the reduced one (lean_accel) that the balance law reads.
    """
    R, M22, m, Ix = params.R, params.M22, params.m, params.Ix
    big = 2.0 * Ix + m * R**2
    disk = Ix + m * R**2
    ix2, disk2, mgr = 2.0 * Ix, 2.0 * disk, -m * params.g * R
    mv_a, mv_g = friction.mu_v
    md_a, md_g = friction.mu_d
    ms_a, ms_g = friction.mu_s
    dm_a, dm_g = ms_a - md_a, ms_g - md_g
    D = friction.D
    h2, h6 = 0.5 * dt, dt / 6.0

    def step(a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6):
        # bdd is unused: the first stage solves the full equations. Each stage
        # gives (alpha_ddot, beta_ddot, gamma_ddot) under the motor torques
        # (u1, u2) less friction; the first also decouples the held (u5, u6)
        # into (u1, u2), from its inertia entries and forces. A stage's lean
        # is checked before its sin and cos; a NaN or infinite lean is the
        # callers' to judge.
        if not 0.0 < b < pi and abs(b) < inf:
            _require_open_lean(b)
        sb, cb = sin(b), cos(b)
        M11, M13 = Ix * sb**2 + big * cb**2, big * cb
        n1 = disk * sin(2.0 * b) * ad * bd + ix2 * sb * bd * gd
        n3 = disk2 * sb * ad * bd
        u1, u2 = (M11 * u5 + M13 * u6) - n1, (M13 * u5 + big * u6) - n3
        s = 1.0 if ad > 0.0 else -1.0 if ad < 0.0 else 0.0
        rhs1 = n1 + (u1 - (mv_a * ad + (md_a + dm_a * exp(-abs(ad) / D)) * s))
        s = 1.0 if gd > 0.0 else -1.0 if gd < 0.0 else 0.0
        rhs3 = n3 + (u2 - (mv_g * gd + (md_g + dm_g * exp(-abs(gd) / D)) * s))
        M_rho = M11 * big - M13**2
        add1 = (big * rhs1 - M13 * rhs3) / M_rho
        bdd1 = (mgr * cb - big * sb * ad * gd - disk * cb * sb * ad**2) / M22
        gdd1 = (-M13 * rhs1 + M11 * rhs3) / M_rho
        a2, b2 = a + h2 * ad, b + h2 * bd
        ad2, bd2, gd2 = ad + h2 * add1, bd + h2 * bdd1, gd + h2 * gdd1
        if not 0.0 < b2 < pi and abs(b2) < inf:
            _require_open_lean(b2)
        sb, cb = sin(b2), cos(b2)
        M11, M13 = Ix * sb**2 + big * cb**2, big * cb
        n1 = disk * sin(2.0 * b2) * ad2 * bd2 + ix2 * sb * bd2 * gd2
        n3 = disk2 * sb * ad2 * bd2
        s = 1.0 if ad2 > 0.0 else -1.0 if ad2 < 0.0 else 0.0
        rhs1 = n1 + (u1 - (mv_a * ad2 + (md_a + dm_a * exp(-abs(ad2) / D)) * s))
        s = 1.0 if gd2 > 0.0 else -1.0 if gd2 < 0.0 else 0.0
        rhs3 = n3 + (u2 - (mv_g * gd2 + (md_g + dm_g * exp(-abs(gd2) / D)) * s))
        M_rho = M11 * big - M13**2
        add2 = (big * rhs1 - M13 * rhs3) / M_rho
        bdd2 = (mgr * cb - big * sb * ad2 * gd2 - disk * cb * sb * ad2**2) / M22
        gdd2 = (-M13 * rhs1 + M11 * rhs3) / M_rho
        a3, b3 = a + h2 * ad2, b + h2 * bd2
        ad3, bd3, gd3 = ad + h2 * add2, bd + h2 * bdd2, gd + h2 * gdd2
        if not 0.0 < b3 < pi and abs(b3) < inf:
            _require_open_lean(b3)
        sb, cb = sin(b3), cos(b3)
        M11, M13 = Ix * sb**2 + big * cb**2, big * cb
        n1 = disk * sin(2.0 * b3) * ad3 * bd3 + ix2 * sb * bd3 * gd3
        n3 = disk2 * sb * ad3 * bd3
        s = 1.0 if ad3 > 0.0 else -1.0 if ad3 < 0.0 else 0.0
        rhs1 = n1 + (u1 - (mv_a * ad3 + (md_a + dm_a * exp(-abs(ad3) / D)) * s))
        s = 1.0 if gd3 > 0.0 else -1.0 if gd3 < 0.0 else 0.0
        rhs3 = n3 + (u2 - (mv_g * gd3 + (md_g + dm_g * exp(-abs(gd3) / D)) * s))
        M_rho = M11 * big - M13**2
        add3 = (big * rhs1 - M13 * rhs3) / M_rho
        bdd3 = (mgr * cb - big * sb * ad3 * gd3 - disk * cb * sb * ad3**2) / M22
        gdd3 = (-M13 * rhs1 + M11 * rhs3) / M_rho
        a4, b4 = a + dt * ad3, b + dt * bd3
        ad4, bd4, gd4 = ad + dt * add3, bd + dt * bdd3, gd + dt * gdd3
        if not 0.0 < b4 < pi and abs(b4) < inf:
            _require_open_lean(b4)
        sb, cb = sin(b4), cos(b4)
        M11, M13 = Ix * sb**2 + big * cb**2, big * cb
        n1 = disk * sin(2.0 * b4) * ad4 * bd4 + ix2 * sb * bd4 * gd4
        n3 = disk2 * sb * ad4 * bd4
        s = 1.0 if ad4 > 0.0 else -1.0 if ad4 < 0.0 else 0.0
        rhs1 = n1 + (u1 - (mv_a * ad4 + (md_a + dm_a * exp(-abs(ad4) / D)) * s))
        s = 1.0 if gd4 > 0.0 else -1.0 if gd4 < 0.0 else 0.0
        rhs3 = n3 + (u2 - (mv_g * gd4 + (md_g + dm_g * exp(-abs(gd4) / D)) * s))
        M_rho = M11 * big - M13**2
        add4 = (big * rhs1 - M13 * rhs3) / M_rho
        bdd4 = (mgr * cb - big * sb * ad4 * gd4 - disk * cb * sb * ad4**2) / M22
        gdd4 = (-M13 * rhs1 + M11 * rhs3) / M_rho
        x1, y1 = R * gd * cos(a), R * gd * sin(a)
        x2, y2 = R * gd2 * cos(a2), R * gd2 * sin(a2)
        x3, y3 = R * gd3 * cos(a3), R * gd3 * sin(a3)
        x4, y4 = R * gd4 * cos(a4), R * gd4 * sin(a4)
        return (
            a + h6 * (ad + 2.0 * ad2 + 2.0 * ad3 + ad4),
            b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4),
            g + h6 * (gd + 2.0 * gd2 + 2.0 * gd3 + gd4),
            ad + h6 * (add1 + 2.0 * add2 + 2.0 * add3 + add4),
            bd + h6 * (bdd1 + 2.0 * bdd2 + 2.0 * bdd3 + bdd4),
            gd + h6 * (gdd1 + 2.0 * gdd2 + 2.0 * gdd3 + gdd4),
            xa + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
            ya + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
        )

    return step


def _velocity_stepper(params: RobotParams, dt: float):
    """Rates (u_alpha, u_gamma) held and applied at once."""
    R, Gm, Im, Jm = params.R, params.Gm, params.Im, params.Jm
    h2, h6 = 0.5 * dt, dt / 6.0

    def step(a, b, g, ad, bd, gd, bdd, xa, ya, ua, ug):
        # ad, gd: the rates in effect, replaced by the command at once;
        # bdd: lean acceleration at the step start under (ua, ug)
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
        return (
            a + h6 * (ua + 2.0 * ua + 2.0 * ua + ua),
            b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4),
            g + h6 * (ug + 2.0 * ug + 2.0 * ug + ug),
            ua,
            bd + h6 * (bdd + 2.0 * l2 + 2.0 * l3 + l4),
            ug,
            xa + h6 * (R * ug * cos(a) + 2.0 * x2 + 2.0 * x2 + R * ug * cos(a4)),
            ya + h6 * (R * ug * sin(a) + 2.0 * y2 + 2.0 * y2 + R * ug * sin(a4)),
        )

    return step


def _lag_stepper(params: RobotParams, dt: float, tau: float):
    """Rates relax toward the held command through a first-order lag tau."""
    R, Gm, Im, Jm = params.R, params.Gm, params.Im, params.Jm
    h2, h6 = 0.5 * dt, dt / 6.0

    def step(a, b, g, za, bd, zg, bdd, xa, ya, ua, ug):
        # (za, zg): the lag filter, which is the rates in effect;
        # bdd: lean acceleration at the step start under (za, zg)
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
        return (
            a + h6 * (za + 2.0 * za2 + 2.0 * za3 + za4),
            b + h6 * (bd + 2.0 * bd2 + 2.0 * bd3 + bd4),
            g + h6 * (zg + 2.0 * zg2 + 2.0 * zg3 + zg4),
            za + h6 * (fa1 + 2.0 * fa2 + 2.0 * fa3 + fa4),
            bd + h6 * (bdd + 2.0 * l2 + 2.0 * l3 + l4),
            zg + h6 * (fg1 + 2.0 * fg2 + 2.0 * fg3 + fg4),
            xa + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
            ya + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
        )

    return step


def _stepper(mode: str, params: RobotParams, dt: float, friction=None, lag: float = 0.0):
    """The stepper of a mode: torque with or without friction, velocity with or without lag."""
    if mode == "torque":
        return (_torque_stepper(params, dt) if friction is None
                else _friction_stepper(params, friction, dt))
    if mode != "velocity":
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if friction is not None:
        raise ValueError(_TORQUE_ONLY)
    return _lag_stepper(params, dt, lag) if lag > 0.0 else _velocity_stepper(params, dt)


def rk4_step(
    state: WheelState,
    mode: str,
    steer: float,
    drive: float,
    params: RobotParams,
    dt: float,
    friction: FrictionParams | None = None,
) -> WheelState:
    """Advance one RK4 step with the command (steer, drive) held constant.

    The command is (u5, u6) in torque mode and (u_alpha, u_gamma) in
    velocity mode. Runs the same stepper as run_closed_loop. dt may be
    negative (backward integration, used by finite-difference oracles).
    It forms the lean acceleration at the step's end with lean_accel.
    Raises ValueError for a mode not in MODES or for friction outside
    torque mode, DegenerateLeanError if a finite friction stage lean leaves
    (0, pi), and NonFiniteStateError if the step or that lean acceleration
    is a NaN or infinity.
    """
    step = _stepper(mode, params, dt, friction)
    st, torque = state, mode == "torque"
    ad, gd = (st.alpha_dot, st.gamma_dot) if torque else (steer, drive)  # the rates in effect
    try:
        # the friction stepper solves its first stage in full and reads no bdd
        bdd = None if torque and friction is not None else lean_accel(st.beta, ad, gd, params)
        a, b, g, ad, bd, gd, xa, ya = step(st.alpha, st.beta, st.gamma, ad, st.beta_dot, gd, bdd,
                                           st.x_a, st.y_a, steer, drive)
        out = (a, b, g, ad, bd, gd, lean_accel(b, ad, gd, params), xa, ya)
    except DegenerateLeanError:
        raise
    except (ValueError, ArithmeticError):
        raise NonFiniteStateError(_NONFINITE) from None
    if not (isfinite(sum(out)) or all(map(isfinite, out))):
        raise NonFiniteStateError(_NONFINITE)
    return WheelState(*out)


# ------------------------------------------------------------------ events


def _build_controller(cfg: SimConfig):
    if cfg.kind == "balance":
        return BalanceController(cfg.gains, cfg.params, cfg.initial.alpha_dot)
    if cfg.kind == "point_to_point":
        return PositionController(cfg.gains, cfg.params, cfg.target)
    return LineController(cfg.gains, cfg.params, cfg.waypoints)


def _shown(x: float, digits: int) -> str:
    """x to `digits` decimals, in e notation from 1e6 in magnitude: short text at any size."""
    return f"{x:.{digits}f}" if abs(x) < 1e6 else f"{x:.{digits}e}"


def _outside_half_pi(x: float) -> str:
    """x and how it fails x < pi/2, as text: ">=" for a number, "is not below" for NaN."""
    return f"{_shown(x, 6)} {'>=' if x >= math.pi / 2.0 else 'is not below'} pi/2"


def _admissibility_violation(cfg: SimConfig, state: WheelState | None = None) -> str | None:
    """Name the violated domain predicate at `state`, or None if admissible.

    Without a state this is the initial-state check, and the text says
    "initial". The distance from the first waypoint is a fact about the
    start only, so a given state is not tested against it.
    """
    st, at = (cfg.initial, "initial ") if state is None else (state, "")
    thr = cfg.thresholds
    if _topple_event(0.0, st.beta, thr) is not None:
        return (
            f"{at}lean {_shown(st.beta, 6)} rad outside the topple margin window "
            f"({thr.topple_margin}, pi - {thr.topple_margin})"
        )
    if cfg.kind == "balance":
        a = st.beta - math.pi / 2.0
        b = st.beta_dot
        try:
            c = lean_accel(st.beta, st.alpha_dot, st.gamma_dot, cfg.params)
        except OverflowError:  # alpha_dot**2 is beyond the float range, and so is sigma
            c = math.inf
        s = sigma(a, b, c)
        if not s < math.pi / 2.0:  # so that a NaN sigma is inadmissible
            return (
                f"sigma(a, b, c) = {_outside_half_pi(s)} for {at}lean data "
                f"({_shown(a, 6)}, {_shown(b, 6)}, {_shown(c, 6)})"
            )
        if _singular_event(0.0, st.alpha_dot, thr) is not None:
            return (
                f"{at}|alpha_dot| = {abs(st.alpha_dot):.3e} below the "
                f"singularity floor {thr.alpha_dot_floor:.3e}"
            )
        return None
    if cfg.kind == "point_to_point":
        e0 = math.hypot(st.x_a - cfg.target[0], st.y_a - cfg.target[1])
        if e0 <= EPS_DISTANCE:
            return f"{at}target distance e = {e0:.3e} is not positive"
        v1 = lean_tracking_value(st.beta, st.beta_dot)
        if not math.sqrt(v1) < math.pi / 2.0:
            return (
                f"{at}lean data outside the tracking domain: "
                f"sqrt(V1) = {_outside_half_pi(math.sqrt(v1))}"
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
            f"{at}lean offset {_shown(abs(st.beta - math.pi / 2.0), 4)} rad exceeds "
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


def run_closed_loop(cfg: SimConfig, sink=None) -> Trajectory:
    """Integrate the configured closed loop and record every step.

    Raises InadmissibleStateError before any integration if the initial
    state violates the controller's domain predicate. Terminal events
    (Toppled, SingularSteering, NonFinite, and Converged when
    stop_on_converged is set) truncate the run; otherwise it ends at the
    horizon.

    The rows go to ``sink(columns)`` _CHUNK_ROWS at a time (the last chunk
    shorter; none for a run of no row), one list per channel in
    Trajectory.names order, holding the rows' own float objects. Without a
    sink each chunk is appended to the returned Trajectory's channels, as
    doubles; with one, it holds the events and final state.
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

    traj = Trajectory(kind)
    events = traj.events
    if sink is None:  # a library run keeps every row, 8 bytes a value
        def sink(chunk, cols=tuple(traj.channels.values())):
            for col, values in zip(cols, chunk):
                col.fromlist(values)  # extend() would take the slower iterator path

    width = len(traj.names)
    full = _CHUNK_ROWS * width
    rows = []  # the chunk being filled, row after row
    emit = rows.extend

    st = cfg.initial
    a, b, g, ad, bd, gd = st.alpha, st.beta, st.gamma, st.alpha_dot, st.beta_dot, st.gamma_dot
    xa, ya, bdd = st.x_a, st.y_a, lean_accel(b, ad, gd, params) if torque else st.beta_ddot
    advance = _stepper(cfg.mode, params, dt, cfg.friction, cfg.actuator_lag)

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

        try:
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
        except ZeroDivisionError as exc:  # drive floor, or balance h3
            events.append(Event("NonFinite", t, f"the command's divisor underflowed to 0: {exc}"))
            break

        if balance:
            emit((t, a, b, g, ad, bd, gd, bdd, xa, ya, us, ud, V))
        elif p2p:
            emit((t, a, b, g, ad, bd, gd, bdd, xa, ya, us, ud, V, v1, e, psi))
        else:
            emit((t, a, b, g, ad, bd, gd, bdd, xa, ya, us, ud, V, v1, e, d, p, segment_value))
        if len(rows) == full:
            sink([rows[k::width] for k in range(width)])
            rows.clear()

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
        try:  # a failed step ends the run at this row
            out = advance(a, b, g, ad, bd, gd, bdd, xa, ya, us, ud)
            if torque:  # the lean acceleration at the step's end, judged with the step
                sb, cb = sin(out[1]), cos(out[1])
                out += (-Gm * cb - Im * cb * sb * out[3]**2 - Jm * sb * out[3] * out[5],)
        except DegenerateLeanError as exc:
            events.append(Event("Toppled", t, str(exc)))
            break
        except (ValueError, ArithmeticError):
            out = (nan,)  # judged below as a result that is not finite
        if not (isfinite(sum(out)) or all(map(isfinite, out))):
            events.append(Event("NonFinite", t, _NONFINITE))
            break
        if torque:
            a, b, g, ad, bd, gd, xa, ya, bdd = out
        else:
            a, b, g, ad, bd, gd, xa, ya = out

    if rows:
        sink([rows[k::width] for k in range(width)])
    traj.final_state = WheelState(a, b, g, ad, bd, gd, bdd, xa, ya)
    return traj
