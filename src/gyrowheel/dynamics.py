"""Equations of motion for the wheel robot.

The configuration is the angle triple q = (alpha, beta, gamma): steering,
lean, rolling. The model exists in three equivalent layers:

* full form: M(q) q_ddot = N(q, q_dot) + B u, with the 3x3 inertia matrix M,
  generalized-force vector N, and motor torques u = (u1, u2) acting on the
  steering and rolling axes (the lean axis is unactuated),
* cancelled form: torques (u3, u4) after the nonlinear steering/rolling
  force terms N1, N3 are cancelled,
* decoupled form: commanded accelerations (u5, u6) with alpha_ddot = u5 and
  gamma_ddot = u6 exactly.

cancel_and_decouple maps the decoupled layer down to motor torques; its
inverse is the steering and rolling rows of full_accel, so no separate
recovery map exists.

The lean equation is the same in all layers because lean is unactuated:

    beta_ddot = -Gm*cos(beta) - Im*cos(beta)*sin(beta)*alpha_dot**2
                - Jm*sin(beta)*alpha_dot*gamma_dot

with the reduced coefficients (Gm, Im, Jm) from RobotParams. This is a
second-order nonholonomic constraint: it restricts accelerations and cannot
be integrated into a configuration constraint.

The simulation loop calls only lean_accel from here: simulate's friction
stepper writes the same inertia entries, forces, friction and solve over
plain floats, and the balance law computes beta_jerk_coeffs in place. The
functions below are the same model over a WheelState, the package's one
state record, for library use.
"""

from __future__ import annotations

import math

from .params import FrictionParams, Record, RobotParams

__all__ = [
    "DegenerateLeanError",
    "WheelState",
    "inertia_matrix",
    "nonlinear_terms",
    "cancel_and_decouple",
    "lean_accel",
    "beta_jerk_coeffs",
    "friction_torque",
    "full_accel",
]


class DegenerateLeanError(ValueError):
    """Raised when the lean angle sits on the flat-wheel boundary {0, pi}.

    There the steering/rolling inertia block is singular (its determinant
    carries a sin(beta)**2 factor) and the decoupling maps do not exist.
    """


class WheelState(Record):
    """Angles, rates, the cached lean acceleration and the ground contact point.

    beta_ddot is not an independent coordinate: whenever present it must
    equal lean_accel(beta, alpha_dot, gamma_dot, params). It is cached
    because the balance law and the balance certificate both consume it.
    (x_a, y_a) is the contact point in metres. In velocity mode alpha_dot
    and gamma_dot hold the rate commands in effect from this sample onward.
    """

    alpha: float = 0.0
    beta: float = math.pi / 2
    gamma: float = 0.0
    alpha_dot: float = 0.0
    beta_dot: float = 0.0
    gamma_dot: float = 0.0
    beta_ddot: float | None = None
    x_a: float = 0.0
    y_a: float = 0.0


def _require_open_lean(beta: float) -> None:
    if not 0.0 < beta < math.pi:
        raise DegenerateLeanError(
            f"lean angle {beta} outside (0, pi): wheel is flat on the ground"
        )


def inertia_matrix(state: WheelState, params: RobotParams) -> tuple:
    """Nonzero inertia entries at the state's lean, plus their key minor.

    Returns (M11, M13, M22, M33, M_rho). Only beta enters. M31 equals M13
    by symmetry and is not returned. M_rho = M11*M33 - M13**2 is the
    determinant of the steering/rolling block; it must stay positive for
    the decoupling maps to exist.
    """
    _require_open_lean(state.beta)
    m, R, Ix = params.m, params.R, params.Ix
    sb, cb = math.sin(state.beta), math.cos(state.beta)
    big = 2.0 * Ix + m * R**2
    M11 = Ix * sb**2 + big * cb**2
    M13 = big * cb
    M33 = big
    M_rho = M11 * M33 - M13**2
    return (M11, M13, params.M22, M33, M_rho)


def nonlinear_terms(
    state: WheelState, params: RobotParams
) -> tuple[float, float, float]:
    """Generalized forces on the right-hand side of M q_ddot = N + B u.

    N2 bundles gravity, the gyroscopic steering/rolling coupling, and the
    centrifugal term (quadratic in the steering rate). N1 and N3 are not
    the plain Lagrangian Coriolis terms: the rolling contact reshuffles
    them, but the combination still conserves energy when u = 0.
    """
    m, R, Ix, g = params.m, params.R, params.Ix, params.g
    sb, cb = math.sin(state.beta), math.cos(state.beta)
    s2b = math.sin(2.0 * state.beta)
    ad, bd, gd = state.alpha_dot, state.beta_dot, state.gamma_dot
    disk = Ix + m * R**2
    big = 2.0 * Ix + m * R**2
    n1 = disk * s2b * ad * bd + 2.0 * Ix * sb * bd * gd
    n2 = -m * g * R * cb - big * sb * ad * gd - disk * cb * sb * ad**2
    n3 = 2.0 * disk * sb * ad * bd
    return (n1, n2, n3)


def cancel_and_decouple(
    u5: float, u6: float, state: WheelState, params: RobotParams
) -> tuple[float, float]:
    """Map commanded accelerations (u5, u6) to motor torques (u1, u2).

    Applying the result through full_accel at the same state reproduces
    alpha_ddot = u5 and gamma_ddot = u6 exactly.
    """
    M11, M13, _, M33, _ = inertia_matrix(state, params)
    n1, _, n3 = nonlinear_terms(state, params)
    u3 = M11 * u5 + M13 * u6
    u4 = M13 * u5 + M33 * u6
    return (u3 - n1, u4 - n3)


def lean_accel(
    beta: float, alpha_dot: float, gamma_dot: float, params: RobotParams
) -> float:
    """Lean acceleration as a function of lean angle and the two rates.

    Valid in every layer and in both simulation modes; in velocity mode the
    rates are the commanded values.
    """
    Gm, Im, Jm = params.reduced()
    sb, cb = math.sin(beta), math.cos(beta)
    return -Gm * cb - Im * cb * sb * alpha_dot**2 - Jm * sb * alpha_dot * gamma_dot


def beta_jerk_coeffs(
    state: WheelState, params: RobotParams
) -> tuple[float, float, float]:
    """Coefficients (h1, h2, h3) of the lean jerk.

    Differentiating the lean equation in time and substituting
    alpha_ddot = u5, gamma_ddot = u6 gives

        beta_jerk = h1*beta_dot + h2*u5 + h3*u6

    so h1, h2, h3 are the partials of lean_accel with respect to beta,
    alpha_dot, gamma_dot. h3 vanishes with the steering rate, which is why
    the balance law needs alpha_dot bounded away from zero.
    """
    _require_open_lean(state.beta)
    Gm, Im, Jm = params.reduced()
    sb, cb = math.sin(state.beta), math.cos(state.beta)
    s2b, c2b = math.sin(2.0 * state.beta), math.cos(2.0 * state.beta)
    ad, gd = state.alpha_dot, state.gamma_dot
    h1 = Gm * sb - Im * c2b * ad**2 - Jm * cb * ad * gd
    h2 = -Im * s2b * ad - Jm * sb * gd
    h3 = -Jm * sb * ad
    return (h1, h2, h3)


def friction_torque(
    q_dot: tuple[float, float], fp: FrictionParams
) -> tuple[float, float]:
    """Joint friction torques at the (steering, rolling) joint rates.

    Viscous term plus a dynamic level that relaxes exponentially from the
    static level as the rate grows. sgn(0) is taken as 0 so the model is
    quiescent at rest; this is the resistive magnitude, the simulator
    subtracts it from the motor torques.
    """
    out = []
    for v, mv, md, ms in zip(q_dot, fp.mu_v, fp.mu_d, fp.mu_s, strict=True):
        if v > 0.0:
            s = 1.0
        elif v < 0.0:
            s = -1.0
        else:
            s = 0.0
        level = md + (ms - md) * math.exp(-abs(v) / fp.D)
        out.append(mv * v + level * s)
    return (out[0], out[1])


def full_accel(
    state: WheelState,
    u1: float,
    u2: float,
    params: RobotParams,
    friction: FrictionParams | None = None,
) -> tuple[float, float, float]:
    """Solve the full equations of motion for (alpha_ddot, beta_ddot, gamma_ddot).

    u1 and u2 are motor torques on the steering and rolling axes. Friction,
    when given, is subtracted from those two motor torques only: it models
    the actuated joints, and the unactuated lean axis has no joint to rub.
    """
    M11, M13, M22, M33, M_rho = inertia_matrix(state, params)
    n1, n2, n3 = nonlinear_terms(state, params)
    if friction is not None:
        f1, f2 = friction_torque((state.alpha_dot, state.gamma_dot), friction)
        u1 = u1 - f1
        u2 = u2 - f2
    rhs1 = n1 + u1
    rhs3 = n3 + u2
    alpha_ddot = (M33 * rhs1 - M13 * rhs3) / M_rho
    gamma_ddot = (-M13 * rhs1 + M11 * rhs3) / M_rho
    beta_ddot = n2 / M22
    return (alpha_ddot, beta_ddot, gamma_ddot)
