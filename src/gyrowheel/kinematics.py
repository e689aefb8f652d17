"""Contact-point geometry and tracking coordinates.

The wheel rolls without slipping, so the velocity of its center projection
(X, Y) is tied to the angle rates. The ground contact point A = (x_a, y_a)
sits offset from the center by the lean; remarkably its own velocity is
pure heading motion,

    x_a_dot = R * gamma_dot * cos(alpha)
    y_a_dot = R * gamma_dot * sin(alpha)

which is what makes A the natural point for all tracking geometry. These
two rates are the x_a and y_a rows of every stepper in simulate; the test
suite derives them from the rolling constraints. The error-polar chart
(e, theta, psi) expresses A relative to a target point; the line chart
expresses A relative to a directed segment.

Each chart is written once, over plain floats: polar_chart binds its target
and line_chart binds its segment, with the segment's length ell and bearing
phi computed once, and each returns a function of (x_a, y_a, alpha). The
simulation loop builds one polar chart per run and one line chart per
segment it reaches, and detect_events reads the same charts. polar_view and
line_geometry evaluate them at a WheelState's contact point and heading.
"""

from __future__ import annotations

import math
from math import atan2, cos, hypot, sin

from .dynamics import WheelState

__all__ = [
    "DegenerateLineError",
    "wrap_to_pi",
    "polar_chart",
    "polar_view",
    "line_chart",
    "line_geometry",
]

# Below this target distance the polar chart degenerates (1/e blows up);
# we switch to the convention e = 0, psi = 0.
EPS_DISTANCE = 1e-6

# Below this distance from the segment start the bearing theta is undefined;
# the convention theta = phi keeps the switching product well defined.
EPS_RADIUS = 1e-9


class DegenerateLineError(ValueError):
    """Raised when a tracking segment has coincident endpoints."""


def wrap_to_pi(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - angle) % (2.0 * math.pi)


def polar_chart(target: tuple[float, float] = (0.0, 0.0)):
    """Error-polar chart about a target: chart(x_a, y_a, alpha) -> (e, theta, psi).

    e: distance from the contact point to the target, >= 0.
    theta: inertial bearing of the contact point as seen from the target.
    psi: theta - alpha, wrapped to (-pi, pi]. psi = 0 means the wheel points
        straight away from the target, so backward rolling approaches it.
    Below EPS_DISTANCE the chart is replaced by the convention
    (0, wrap_to_pi(alpha), 0).
    """
    tx, ty = target[0], target[1]

    def chart(x_a, y_a, alpha):
        dx = x_a - tx
        dy = y_a - ty
        e = hypot(dx, dy)
        if e < EPS_DISTANCE:
            return (0.0, wrap_to_pi(alpha), 0.0)
        theta = atan2(dy, dx)
        return (e, theta, wrap_to_pi(theta - alpha))

    return chart


def polar_view(state: WheelState, target: tuple[float, float] = (0.0, 0.0)) -> tuple:
    """polar_chart's (e, theta, psi) at the state's contact point and heading."""
    return polar_chart(target)(state.x_a, state.y_a, state.alpha)


def line_chart(origin: tuple[float, float], end: tuple[float, float]):
    """Line chart of the directed segment origin -> end.

    Returns chart(x_a, y_a, alpha) -> (r, e, d, theta, phi, p, ell):

    r: distance from the segment start to the contact point.
    e: unsigned distance to the infinite line carrying the segment (e <= r).
    d: distance from the contact point to the segment end.
    theta: bearing of the contact point from the segment start.
    phi: bearing of the segment end from the segment start.
    p: heading-projection overshoot, r*cos(theta - alpha) -
       ell*cos(phi - alpha): how far the contact point sits past the
       segment end when both are projected onto the current heading.
    ell: segment length.

    All quantities are in the global frame; chained segments pass a
    different origin rather than re-basing coordinates. Raises
    DegenerateLineError when the endpoints coincide.
    """
    ox, oy = origin[0], origin[1]
    sx, sy = end[0], end[1]
    ex = sx - ox
    ey = sy - oy
    ell = hypot(ex, ey)
    if ell <= EPS_RADIUS:
        raise DegenerateLineError(f"segment endpoints {origin} and {end} coincide")
    phi = atan2(ey, ex)

    def chart(x_a, y_a, alpha):
        rx = x_a - ox
        ry = y_a - oy
        r = hypot(rx, ry)
        theta = atan2(ry, rx) if r > EPS_RADIUS else phi
        e = r * abs(sin(phi - theta))
        d = hypot(x_a - sx, y_a - sy)
        p = r * cos(theta - alpha) - ell * cos(phi - alpha)
        return (r, e, d, theta, phi, p, ell)

    return chart


def line_geometry(
    state: WheelState, end: tuple[float, float], origin: tuple[float, float] = (0.0, 0.0)
) -> tuple:
    """line_chart's (r, e, d, theta, phi, p, ell) of the segment origin -> end at the state."""
    return line_chart(origin, end)(state.x_a, state.y_a, state.alpha)
