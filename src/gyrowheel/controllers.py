"""The three feedback laws: balance, point-to-point, and line tracking.

Balance works at the torque level. It drives a chain of three errors (lean
offset, lean rate, lean acceleration) with a law whose closed-loop lean
jerk is exactly linear and stable, while the steering rate decays through
a quartic-root feedback that never crosses zero in finite time. The rolling
channel u6 divides by the jerk input gain h3, which is proportional to the
steering rate: hence the singularity floor, Thresholds.alpha_dot_floor,
which the simulation loop tests before each command. A command tests no
threshold; a zero h3 raises ZeroDivisionError.

Point-to-point and line tracking work at the velocity level, commanding
(u_alpha, u_gamma) directly. Both steer by switching the lean: tipping the
spinning wheel precesses its heading. The drive term u_k is sized so the
lean subsystem keeps a decreasing certificate no matter how the geometric
switches flip.

Smoothing scope. The gains smooth by default (smoothing=None is the hard law),
and only the lean-error switch and the line controller's drive step are
softened. The geometric switches (heading cosine, line-side product) stay
hard: softening the heading switch scales the lean authority by cos-like
factors that vanish exactly broadside, where the wheel then falls over; the
simulation suite demonstrates this. Hard geometric switching costs nothing
here because those arguments are state measurements, not sliding surfaces the
trajectory rides on, except in the line task where the induced drive
duty-cycling is the intended discrete-time sliding behavior.

Each law is written once, over plain floats, as its controller's command
method. The controller binds the gains, the smoothing slopes, (Gm, Im, Jm)
and, for balance, the latched sign at construction; command unpacks them
in one line. The law computes in place what it reads of the rest of the
package: the switches of switching.py, the drive floor and, for balance,
the jerk coefficients of dynamics.beta_jerk_coeffs with their open-lean
check, each with the same float expressions, so a command calls no other
function of the package but, at a lean outside (0, pi), that check. It
takes only the floats the law reads and returns (steer, drive); the
simulation loop calls it once per row. balance_control, position_control
and line_control build a controller and call its command, for library
use: they take a WheelState and, for tracking, the tuple of the target's
polar chart or the segment's line chart (see kinematics.polar_chart and
line_chart).
"""

from __future__ import annotations

import math
from math import cos, exp, pi, sin, tanh

from .dynamics import WheelState, _require_open_lean, lean_accel
from .kinematics import line_geometry, polar_view
from .lyapunov import balance_value
from .params import Record, RobotParams

__all__ = [
    "BalanceGains",
    "Smoothing",
    "PositionGains",
    "LineGains",
    "sigma",
    "balance_control",
    "position_control",
    "line_control",
    "BalanceController",
    "PositionController",
    "LineController",
]

_HALF_PI = math.pi / 2.0


def _require(ok: bool, key: str, constraint: str, value: float) -> None:
    if not ok:
        raise ValueError(f"{key}: constraint {constraint} violated (got {value})")


class BalanceGains(Record):
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


class Smoothing(Record):
    """Slopes for the saturating switch replacements (lean switch, drive step)."""

    k6: float = 20.0
    k7: float = 20.0

    def __post_init__(self) -> None:
        _require(self.k6 > 0.0, "k6", "k6 > 0", self.k6)
        _require(self.k7 > 0.0, "k7", "k7 > 0", self.k7)


class PositionGains(Record):
    """Gains of the point-to-point law.

    k3 is the steering-rate magnitude (rad/s) and must exceed 2 so the lean
    certificate decreases; k4 weights the distance term in the drive and
    must stay below k3 - 1 for the heading subsystem to keep up.
    """

    k3: float = 3.0
    k4: float = 1.0
    smoothing: Smoothing | None = Smoothing()

    def __post_init__(self) -> None:
        _require(self.k3 > 2.0, "k3", "k3 > 2", self.k3)
        _require(0.0 < self.k4 < self.k3 - 1.0, "k4", "0 < k4 < k3 - 1", self.k4)


class LineGains(Record):
    """Gains of the line-tracking law: k3 as above, k5 the drive-rate magnitude."""

    k3: float = 3.0
    k5: float = 1.0
    smoothing: Smoothing | None = Smoothing()

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
    state: WheelState,
    gains: BalanceGains,
    V: float,
    sign0: float,
    params: RobotParams,
) -> tuple[float, float]:
    """Balance law at the decoupled-acceleration level.

    sign0 is the latched sign of the initial steering rate; the steering
    channel decays toward a floor set by the shrinking certificate V, which
    keeps alpha_dot from crossing zero. The rolling channel u6 cancels the
    natural lean jerk and imposes the stable linear one, reading the state's
    lean acceleration (lean_accel); it requires a nonzero steering rate
    (h3 != 0).
    """
    bdd = lean_accel(state.beta, state.alpha_dot, state.gamma_dot, params)
    # sign0 is +1 or -1, so the controller latches it as it is
    return BalanceController(gains, params, sign0).command(
        state.beta, state.alpha_dot, state.beta_dot, state.gamma_dot, bdd, V
    )


def position_control(
    state: WheelState, polar: tuple, gains: PositionGains, params: RobotParams
) -> tuple[float, float]:
    """Point-to-point law at the velocity level; polar is the target's (e, theta, psi).

    The heading switch cos(psi) decides whether the target lies ahead or
    behind; the lean switch steers; the drive combines the distance term
    k4*e with the certificate floor u_k. This controller has no heading
    feedback once psi settles, so scenario authoring must aim the initial
    transient (see the aiming study script).
    """
    e, _, psi = polar
    return PositionController(gains, params).command(state.beta, state.beta_dot, e, psi)


def line_control(
    state: WheelState, line: tuple, gains: LineGains, params: RobotParams
) -> tuple[float, float]:
    """Line-tracking law at the velocity level; line is the segment's line chart tuple.

    The side switch s flips with the line-crossing product
    sin(phi - alpha) * sin(phi - theta), holding the wheel in a discrete
    sliding regime along the line; the drive adds k5 through a step in the
    overshoot projection p so the wheel brakes once past the segment end.
    """
    _, _, _, theta, phi, p, _ = line
    # the law reads the chart, not the waypoints: any valid two-point chain builds it
    ctl = LineController(gains, params, ((0.0, 0.0), (1.0, 0.0)))
    return ctl.command(state.alpha, state.beta, state.beta_dot, theta, phi, p)


class BalanceController:
    """Balance controller: the law with its gains and latched steering sign bound once.

    The caller keeps |alpha_dot| above a floor; the simulation loop tests
    Thresholds.alpha_dot_floor before each command.
    """

    def __init__(self, gains: BalanceGains, params: RobotParams, alpha_dot0: float) -> None:
        self.gains = gains
        self.params = params
        self.sign0 = 1.0 if alpha_dot0 >= 0.0 else -1.0
        k1 = gains.k1
        self._k = (gains.k2, self.sign0, 2.0 + k1, 3.0 + 2.0 * k1, params.Gm, params.Im, params.Jm)

    def certificate(self, state: WheelState) -> float:
        bdd = lean_accel(state.beta, state.alpha_dot, state.gamma_dot, self.params)
        return balance_value(state.beta, state.beta_dot, bdd, self.gains.k1)

    def command(
        self,
        beta: float,
        alpha_dot: float,
        beta_dot: float,
        gamma_dot: float,
        beta_ddot: float,
        V: float,
    ) -> tuple[float, float]:
        """Balance command (u5, u6); V is the certificate at the same lean data.

        The jerk coefficients (h1, h2, h3) of beta_jerk_coeffs are computed
        in place, with the same open-lean check.
        """
        k2, sign0, c0, c1, Gm, Im, Jm = self._k
        x = beta - _HALF_PI
        u5 = -(alpha_dot - sign0 * (k2 * V) ** 0.25)
        if not 0.0 < beta < pi:
            _require_open_lean(beta)
        sb, cb = sin(beta), cos(beta)
        h1 = Gm * sb - Im * cos(2.0 * beta) * alpha_dot**2 - Jm * cb * alpha_dot * gamma_dot
        h2 = -Im * sin(2.0 * beta) * alpha_dot - Jm * sb * gamma_dot
        h3 = -Jm * sb * alpha_dot
        if h3 == 0.0:
            raise ZeroDivisionError("steering rate is zero: rolling-channel gain h3 vanished")
        target_jerk = c0 * x + c1 * beta_dot + c0 * beta_ddot
        u6 = -(target_jerk + h1 * beta_dot + h2 * u5) / h3
        return (u5, u6)


class PositionController:
    """Point-to-point controller bound to a fixed target point."""

    def __init__(
        self,
        gains: PositionGains,
        params: RobotParams,
        target: tuple[float, float] = (0.0, 0.0),
    ) -> None:
        self.gains = gains
        self.params = params
        self.target = (float(target[0]), float(target[1]))
        hk6 = None if gains.smoothing is None else 0.5 * gains.smoothing.k6
        self._k = (gains.k3, gains.k4, hk6, params.Gm, params.Im, params.Jm)

    def view(self, state: WheelState) -> tuple:
        return polar_view(state, self.target)

    def command(self, beta: float, beta_dot: float, e: float, psi: float) -> tuple[float, float]:
        """Rate command (u_alpha, u_gamma); e, psi come from the target's polar chart.

        u_k is the drive floor: the minimum drive magnitude that keeps the
        lean certificate decreasing. It dominates the worst-case gravity and
        centrifugal push f1 plus a margin proportional to the lean error, and
        divides by sin(beta), positive on the open lean domain.
        """
        k3, k4, hk6, Gm, Im, Jm = self._k
        s_lean = (beta - _HALF_PI) + beta_dot
        side = 1.0 if cos(psi) >= 0.0 else -1.0
        sb, cb = sin(beta), cos(beta)
        u_k = (2.0 * abs(s_lean) + abs(Gm * cb + Im * cb * sb * k3 * k3)) / (Jm * sb * k3)
        if hk6 is None:
            lean = 1.0 if s_lean >= 0.0 else -1.0
        else:
            lean = tanh(hk6 * s_lean)
        u_alpha = -k3 * side * lean
        u_gamma = -(k4 * e + u_k) * side
        return (u_alpha, u_gamma)


class LineController:
    """Line controller bound to a waypoint chain; segments share endpoints.

    The active segment index is owned by the simulation loop, keeping this
    object immutable and the geometry global-frame throughout.
    """

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
        sm = gains.smoothing
        hk6, k7 = (None, None) if sm is None else (0.5 * sm.k6, sm.k7)
        self._k = (gains.k3, gains.k5, hk6, k7, params.Gm, params.Im, params.Jm)

    def geometry(self, state: WheelState, segment: int) -> tuple:
        return line_geometry(state, self.waypoints[segment + 1], self.waypoints[segment])

    def command(
        self, alpha: float, beta: float, beta_dot: float, theta: float, phi: float, p: float
    ) -> tuple[float, float]:
        """Rate command (u_alpha, u_gamma); theta, phi, p come from the segment's line chart.

        The drive floor u_k is PositionController.command's.
        """
        k3, k5, hk6, k7, Gm, Im, Jm = self._k
        s_lean = (beta - _HALF_PI) + beta_dot
        s = 1.0 if sin(phi - alpha) * sin(phi - theta) >= 0.0 else -1.0
        sb, cb = sin(beta), cos(beta)
        u_k = (2.0 * abs(s_lean) + abs(Gm * cb + Im * cb * sb * k3 * k3)) / (Jm * sb * k3)
        if k7 is None:
            f2 = k5 * (1.0 if p * s >= 0.0 else 0.0)
            lean = 1.0 if s_lean >= 0.0 else -1.0
        else:
            kx = k7 * (p * s)  # smooth_step(p * s, k7)
            if kx >= 0.0:
                f2 = k5 * (1.0 / (1.0 + exp(-kx)))
            else:
                ex = exp(kx)
                f2 = k5 * (ex / (1.0 + ex))
            lean = tanh(hk6 * s_lean)
        u_alpha = -k3 * s * lean
        u_gamma = -(f2 + u_k) * s
        return (u_alpha, u_gamma)
