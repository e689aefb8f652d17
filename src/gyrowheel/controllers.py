"""The three feedback laws: balance, point-to-point, and line tracking.

Balance works at the torque level. It drives a chain of three errors (lean
offset, lean rate, lean acceleration) with a law whose closed-loop lean
jerk is exactly linear and stable, while the steering rate decays through
a quartic-root feedback that never crosses zero in finite time. The rolling
channel u6 divides by the jerk input gain h3, which is proportional to the
steering rate: hence the singularity floor.

Point-to-point and line tracking work at the velocity level, commanding
(u_alpha, u_gamma) directly. Both steer by switching the lean: tipping the
spinning wheel precesses its heading. The drive term u_k is sized so the
lean subsystem keeps a decreasing certificate no matter how the geometric
switches flip.

Smoothing scope. When smoothing is enabled, only the lean-error switch (and
the line controller's drive step) are softened. The geometric switches
(heading cosine, line-side product) stay hard: softening the heading switch
scales the lean authority by cos-like factors that vanish exactly broadside,
where the wheel then falls over; the simulation suite demonstrates this.
Hard geometric switching costs nothing here because those arguments are
state measurements, not sliding surfaces the trajectory rides on, except in
the line task where the induced drive duty-cycling is the intended
discrete-time sliding behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import GeneralizedState, beta_jerk_coeffs, lean_accel
from .kinematics import ContactPoint, LineGeometry, PolarView, line_geometry, polar_view
from .lyapunov import balance_value
from .params import RobotParams
from .switching import hard_sign, hard_step, smooth_sign, smooth_step

__all__ = [
    "SingularSteeringError",
    "BalanceGains",
    "Smoothing",
    "PositionGains",
    "LineGains",
    "sigma",
    "balance_value",
    "balance_control",
    "position_control",
    "line_control",
    "BalanceController",
    "PositionController",
    "LineController",
    "DEFAULT_ALPHA_DOT_FLOOR",
]

# Default steering-rate magnitude below which u6 is considered unbounded.
DEFAULT_ALPHA_DOT_FLOOR = 1e-4


class SingularSteeringError(RuntimeError):
    """Raised when the balance law is evaluated with |alpha_dot| below its floor."""


def _require(ok: bool, key: str, constraint: str, value: float) -> None:
    if not ok:
        raise ValueError(f"{key}: constraint {constraint} violated (got {value})")


@dataclass(frozen=True)
class BalanceGains:
    """Gains of the balance law.

    k2 scales the quartic-root steering feedback. k1 widens the lean-error
    weighting; k1 = 1 gives the nominal law whose certificate decays at
    exactly rate 2.
    """

    k2: float = 1.0
    k1: float = 1.0

    def __post_init__(self) -> None:
        _require(self.k1 >= 0.0, "k1", "k1 >= 0", self.k1)
        _require(self.k2 > 0.0, "k2", "k2 > 0", self.k2)


@dataclass(frozen=True)
class Smoothing:
    """Slopes for the saturating switch replacements (lean switch, drive step)."""

    k6: float = 20.0
    k7: float = 20.0

    def __post_init__(self) -> None:
        _require(self.k6 > 0.0, "k6", "k6 > 0", self.k6)
        _require(self.k7 > 0.0, "k7", "k7 > 0", self.k7)


@dataclass(frozen=True)
class PositionGains:
    """Gains of the point-to-point law.

    k3 is the steering-rate magnitude (rad/s) and must exceed 2 so the lean
    certificate decreases; k4 weights the distance term in the drive and
    must stay below k3 - 1 for the heading subsystem to keep up.
    """

    k3: float = 3.0
    k4: float = 1.0
    smoothing: Smoothing | None = None

    def __post_init__(self) -> None:
        _require(self.k3 > 2.0, "k3", "k3 > 2", self.k3)
        _require(0.0 < self.k4 < self.k3 - 1.0, "k4", "0 < k4 < k3 - 1", self.k4)


@dataclass(frozen=True)
class LineGains:
    """Gains of the line-tracking law: k3 as above, k5 the drive-rate magnitude."""

    k3: float = 3.0
    k5: float = 1.0
    smoothing: Smoothing | None = None

    def __post_init__(self) -> None:
        _require(self.k3 > 2.0, "k3", "k3 > 2", self.k3)
        _require(self.k5 > 0.0, "k5", "k5 > 0", self.k5)


def sigma(a: float, b: float, c: float) -> float:
    """Admissibility functional of the initial lean data.

    a, b, c are the initial lean offset from upright, lean rate, and lean
    acceleration. sigma bounds the closed-loop lean excursion:
    max_t |beta(t) - pi/2| <= sigma, so sigma < pi/2 keeps the wheel off
    the ground.
    """
    return (
        abs(3.0 * a + 2.0 * b + c) / 2.0
        + abs(a + 2.0 * b + c) / 2.0
        + abs(a + b) / math.sqrt(2.0)
    )


def balance_control(
    state: GeneralizedState,
    gains: BalanceGains,
    V: float,
    sign0: float,
    params: RobotParams,
) -> tuple[float, float]:
    """Balance law at the decoupled-acceleration level.

    sign0 is the latched sign of the initial steering rate; the steering
    channel decays toward a floor set by the shrinking certificate V, which
    keeps alpha_dot from crossing zero. The rolling channel u6 cancels the
    natural lean jerk and imposes the stable linear one; it requires the
    cached beta_ddot and a nonzero steering rate (h3 != 0).
    """
    k1, k2 = gains.k1, gains.k2
    x = state.beta - math.pi / 2.0
    bd = state.beta_dot
    bdd = state.beta_ddot
    if bdd is None:
        bdd = lean_accel(state.beta, state.alpha_dot, state.gamma_dot, params)
    u5 = -(state.alpha_dot - sign0 * (k2 * V) ** 0.25)
    h1, h2, h3 = beta_jerk_coeffs(state, params)
    if h3 == 0.0:
        raise SingularSteeringError(
            "steering rate is zero: rolling-channel gain h3 vanished"
        )
    target_jerk = (2.0 + k1) * x + (3.0 + 2.0 * k1) * bd + (2.0 + k1) * bdd
    u6 = -(target_jerk + h1 * bd + h2 * u5) / h3
    return (u5, u6)


def _lean_switch(s_lean: float, smoothing: Smoothing | None) -> float:
    if smoothing is None:
        return hard_sign(s_lean)
    return smooth_sign(s_lean, smoothing.k6)


def _drive_floor(s_lean: float, beta: float, k3: float, params: RobotParams) -> float:
    """Minimum drive magnitude u_k that keeps the lean certificate decreasing.

    Dominates the worst-case gravity and centrifugal push f1 plus a margin
    proportional to the lean error. Divides by sin(beta), positive on the
    open lean domain.
    """
    Gm, Im, Jm = params.reduced()
    sb, cb = math.sin(beta), math.cos(beta)
    f1 = abs(Gm * cb + Im * cb * sb * k3 * k3)
    return (2.0 * abs(s_lean) + f1) / (Jm * sb * k3)


def position_control(
    state: GeneralizedState, pv: PolarView, gains: PositionGains, params: RobotParams
) -> tuple[float, float]:
    """Point-to-point law at the velocity level.

    The heading switch cos(psi) decides whether the target lies ahead or
    behind; the lean switch steers; the drive combines the distance term
    k4*e with the certificate floor u_k. This controller has no heading
    feedback once psi settles, so scenario authoring must aim the initial
    transient (see the aiming study script).
    """
    s_lean = (state.beta - math.pi / 2.0) + state.beta_dot
    side = hard_sign(math.cos(pv.psi))
    u_k = _drive_floor(s_lean, state.beta, gains.k3, params)
    u_alpha = -gains.k3 * side * _lean_switch(s_lean, gains.smoothing)
    u_gamma = -(gains.k4 * pv.e + u_k) * side
    return (u_alpha, u_gamma)


def line_control(
    state: GeneralizedState, lg: LineGeometry, gains: LineGains, params: RobotParams
) -> tuple[float, float]:
    """Line-tracking law at the velocity level.

    The side switch s flips with the line-crossing product
    sin(phi - alpha) * sin(phi - theta), holding the wheel in a discrete
    sliding regime along the line; the drive adds k5 through a step in the
    overshoot projection p so the wheel brakes once past the segment end.
    """
    s_lean = (state.beta - math.pi / 2.0) + state.beta_dot
    s = hard_sign(math.sin(lg.phi - state.alpha) * math.sin(lg.phi - lg.theta))
    u_k = _drive_floor(s_lean, state.beta, gains.k3, params)
    if gains.smoothing is None:
        f2 = gains.k5 * hard_step(lg.p * s)
    else:
        f2 = gains.k5 * smooth_step(lg.p * s, gains.smoothing.k7)
    u_alpha = -gains.k3 * s * _lean_switch(s_lean, gains.smoothing)
    u_gamma = -(f2 + u_k) * s
    return (u_alpha, u_gamma)


class BalanceController:
    """Stateful wrapper binding gains, the latched steering sign, and the floor."""

    kind = "balance"

    def __init__(
        self,
        gains: BalanceGains,
        params: RobotParams,
        alpha_dot0: float,
        alpha_dot_floor: float = DEFAULT_ALPHA_DOT_FLOOR,
    ) -> None:
        self.gains = gains
        self.params = params
        self.sign0 = hard_sign(alpha_dot0)
        self.alpha_dot_floor = alpha_dot_floor

    def certificate(self, state: GeneralizedState) -> float:
        bdd = state.beta_ddot
        if bdd is None:
            bdd = lean_accel(state.beta, state.alpha_dot, state.gamma_dot, self.params)
        return balance_value(state.beta, state.beta_dot, bdd, self.gains.k1)

    def command(self, state: GeneralizedState, V: float | None = None) -> tuple[float, float]:
        """Balance command at `state`; V is its certificate, if the caller has it."""
        if abs(state.alpha_dot) < self.alpha_dot_floor:
            raise SingularSteeringError(
                f"|alpha_dot| = {abs(state.alpha_dot):.3e} below floor "
                f"{self.alpha_dot_floor:.3e}"
            )
        if V is None:
            V = self.certificate(state)
        return balance_control(state, self.gains, V, self.sign0, self.params)


class PositionController:
    """Point-to-point controller bound to a fixed target point."""

    kind = "point_to_point"

    def __init__(
        self,
        gains: PositionGains,
        params: RobotParams,
        target: tuple[float, float] = (0.0, 0.0),
    ) -> None:
        self.gains = gains
        self.params = params
        self.target = (float(target[0]), float(target[1]))

    def view(self, state: GeneralizedState, contact: ContactPoint) -> PolarView:
        return polar_view(contact, state.alpha, self.target)

    def command(
        self, state: GeneralizedState, contact: ContactPoint, view: PolarView | None = None
    ) -> tuple[float, float]:
        """Rate command at `state`; view is its polar view, if the caller has it."""
        if view is None:
            view = self.view(state, contact)
        return position_control(state, view, self.gains, self.params)


class LineController:
    """Line controller bound to a waypoint chain; segments share endpoints.

    The active segment index is owned by the simulation loop, keeping this
    object immutable and the geometry global-frame throughout.
    """

    kind = "line"

    def __init__(
        self,
        gains: LineGains,
        params: RobotParams,
        waypoints: tuple[tuple[float, float], ...],
    ) -> None:
        if len(waypoints) < 2:
            raise ValueError("need at least two waypoints")
        self.gains = gains
        self.params = params
        self.waypoints = tuple((float(x), float(y)) for x, y in waypoints)

    @property
    def segment_count(self) -> int:
        return len(self.waypoints) - 1

    def geometry(self, state: GeneralizedState, contact: ContactPoint, segment: int) -> LineGeometry:
        return line_geometry(
            contact,
            state.alpha,
            self.waypoints[segment + 1],
            origin=self.waypoints[segment],
        )

    def command(
        self,
        state: GeneralizedState,
        contact: ContactPoint,
        segment: int = 0,
        geometry: LineGeometry | None = None,
    ) -> tuple[float, float]:
        """Rate command at `state`; geometry is its segment geometry, if the caller has it."""
        if geometry is None:
            geometry = self.geometry(state, contact, segment)
        return line_control(state, geometry, self.gains, self.params)
