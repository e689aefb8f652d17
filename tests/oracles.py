"""The model's equations, each written once over plain floats: the tests' reference.

No run evaluates these. tests/test_fused_kernel.py compares every law,
chart and RK4 stepper of the package against them, bit for bit or by the
same exception type and message, and tests/test_dynamics.py so compares
the library functions of gyrowheel.dynamics; the other test files derive
or refute the model's properties with them. They import only records,
parameters, errors and constants from gyrowheel, never a law, chart,
stepper or switch, so a fault in one of those cannot hide in its own
reference.
The closed forms of the nominal balance loop state the paper's balance
result: tests/test_acceptance.py holds run_closed_loop's lean offset and
steering rate to them within a first-order bound in dt.

The order and grouping of every float expression is the package's,
since the comparison is bitwise. The sections follow the README: the
model (lean equation, jerk coefficients, decoupling, full equations with
friction), the controllers (switches, drive floor, laws), the charts,
the closed forms of the nominal balance loop, and the RK4 steppers of
the two command modes.
"""

from functools import wraps
from math import atan2, cos, exp, hypot, isfinite, pi, sin, sqrt, tanh

from gyrowheel import (
    DegenerateLeanError,
    DegenerateLineError,
    NonFiniteStateError,
)
from gyrowheel.kinematics import EPS_DISTANCE, EPS_RADIUS

HALF_PI = pi / 2.0

# ---------------------------------------------------------------- the model


def lean_accel(beta, alpha_dot, gamma_dot, params):
    """beta_ddot = -Gm cos(beta) - Im cos(beta) sin(beta) alpha_dot^2 - Jm sin(beta) alpha_dot gamma_dot."""
    sb, cb = sin(beta), cos(beta)
    return (-params.Gm * cb - params.Im * cb * sb * alpha_dot**2
            - params.Jm * sb * alpha_dot * gamma_dot)


def open_lean(beta):
    """Refuse a lean on the flat-wheel boundary: beta must lie in (0, pi)."""
    if not 0.0 < beta < pi:
        raise DegenerateLeanError(
            f"lean angle {beta} outside (0, pi): wheel is flat on the ground")


def jerk_coeffs(beta, alpha_dot, gamma_dot, params):
    """(h1, h2, h3), the partials of lean_accel by beta, alpha_dot and gamma_dot.

    With alpha_ddot = u5 and gamma_ddot = u6 the lean jerk is
    h1*beta_dot + h2*u5 + h3*u6.
    """
    open_lean(beta)
    Gm, Im, Jm = params.Gm, params.Im, params.Jm
    sb, cb = sin(beta), cos(beta)
    h1 = Gm * sb - Im * cos(2.0 * beta) * alpha_dot**2 - Jm * cb * alpha_dot * gamma_dot
    h2 = -Im * sin(2.0 * beta) * alpha_dot - Jm * sb * gamma_dot
    h3 = -Jm * sb * alpha_dot
    return (h1, h2, h3)


def beta_jerk_coeffs_variant(beta, alpha_dot, gamma_dot, params):
    """Deliberately wrong jerk coefficients, the negative control of jerk_coeffs.

    This drops the gyroscopic term from h1 and squares the steering rate
    in h3. The finite-difference validation must reject these while
    accepting the right ones; one too loose to tell them apart proves
    nothing.
    """
    Gm, Im, Jm = params.Gm, params.Im, params.Jm
    sb = sin(beta)
    h1 = Gm * sb - Im * cos(2.0 * beta) * alpha_dot**2
    h2 = -Im * sin(2.0 * beta) * alpha_dot - Jm * sb * gamma_dot
    h3 = -Jm * sb * alpha_dot**2
    return (h1, h2, h3)


def _nonfinite():
    return NonFiniteStateError("an RK4 stage produced a NaN or an infinity")


def inertia_and_forces(beta, alpha_dot, beta_dot, gamma_dot, params):
    """(M11, M13, M33) of M(q) and (N1, N2, N3) of M(q) q_ddot = N + B u.

    M22 is params.M22 and M31 = M13. A lean that is not finite fails as a
    non-finite stage, one on {0, pi} as a flat wheel.
    """
    if not isfinite(beta):
        raise _nonfinite()
    open_lean(beta)
    m, R, Ix = params.m, params.R, params.Ix
    sb, cb = sin(beta), cos(beta)
    big, disk = 2.0 * Ix + m * R**2, Ix + m * R**2
    ad, bd, gd = alpha_dot, beta_dot, gamma_dot
    return (
        (Ix * sb**2 + big * cb**2, big * cb, big),
        (disk * sin(2.0 * beta) * ad * bd + 2.0 * Ix * sb * bd * gd,
         -m * params.g * R * cb - big * sb * ad * gd - disk * cb * sb * ad**2,
         2.0 * disk * sb * ad * bd),
    )


def joint_friction(rate, mu_v, mu_d, mu_s, D):
    """mu_v*rate + (mu_d + (mu_s - mu_d) exp(-|rate|/D)) sgn(rate), with sgn(0) = 0."""
    s = 1.0 if rate > 0.0 else -1.0 if rate < 0.0 else 0.0
    return mu_v * rate + (mu_d + (mu_s - mu_d) * exp(-abs(rate) / D)) * s


def decouple(beta, alpha_dot, beta_dot, gamma_dot, u5, u6, params):
    """Motor torques (u1, u2) = (M11 u5 + M13 u6 - N1, M13 u5 + M33 u6 - N3).

    They realize alpha_ddot = u5 and gamma_ddot = u6 exactly without friction.
    """
    (M11, M13, M33), (n1, _, n3) = inertia_and_forces(
        beta, alpha_dot, beta_dot, gamma_dot, params)
    return (M11 * u5 + M13 * u6) - n1, (M13 * u5 + M33 * u6) - n3


def full_accel(beta, alpha_dot, beta_dot, gamma_dot, u1, u2, params, friction):
    """(alpha_ddot, beta_ddot, gamma_ddot) under motor torques (u1, u2) less joint friction.

    Friction acts on the steering and rolling joints only; the lean axis
    is unactuated. The steering/rolling block is solved by its minor
    M_rho = M11*M33 - M13**2.
    """
    (M11, M13, M33), (n1, n2, n3) = inertia_and_forces(
        beta, alpha_dot, beta_dot, gamma_dot, params)
    f = friction
    rhs1 = n1 + (u1 - joint_friction(alpha_dot, f.mu_v[0], f.mu_d[0], f.mu_s[0], f.D))
    rhs3 = n3 + (u2 - joint_friction(gamma_dot, f.mu_v[1], f.mu_d[1], f.mu_s[1], f.D))
    M_rho = M11 * M33 - M13**2
    return ((M33 * rhs1 - M13 * rhs3) / M_rho, n2 / params.M22,
            (-M13 * rhs1 + M11 * rhs3) / M_rho)


# ---------------------------------------------------------- the controllers


def lean_switch(s_lean, smoothing):
    """sgn(s_lean), +1 at 0; smoothed, (1 - exp(-k6 s))/(1 + exp(-k6 s)) = tanh(k6 s / 2)."""
    if smoothing is None:
        return 1.0 if s_lean >= 0.0 else -1.0
    return tanh(0.5 * smoothing.k6 * s_lean)


def drive_step(x, smoothing):
    """1 at x >= 0, else 0; smoothed, the logistic 1/(1 + exp(-k7 x)), in a form that cannot overflow."""
    if smoothing is None:
        return 1.0 if x >= 0.0 else 0.0
    kx = smoothing.k7 * x
    if kx >= 0.0:
        return 1.0 / (1.0 + exp(-kx))
    return exp(kx) / (1.0 + exp(kx))


def drive_floor(s_lean, beta, k3, params):
    """u_k = (2|s_lean| + |Gm cos(beta) + Im cos(beta) sin(beta) k3^2|) / (Jm sin(beta) k3)."""
    sb, cb = sin(beta), cos(beta)
    return ((2.0 * abs(s_lean) + abs(params.Gm * cb + params.Im * cb * sb * k3 * k3))
            / (params.Jm * sb * k3))


def balance_certificate(beta, beta_dot, beta_ddot, k1):
    """V = (x^2 + z2^2 + z3^2)/2, x = beta - pi/2, z2 = beta_dot + x, z3 = beta_ddot + (1 + k1) z2."""
    x = beta - HALF_PI
    z2 = beta_dot + x
    z3 = beta_ddot + (1.0 + k1) * z2
    return 0.5 * (x * x + z2 * z2 + z3 * z3)


def balance_law(beta, alpha_dot, beta_dot, gamma_dot, beta_ddot, V, gains, sign0, params):
    """(u5, u6): u5 = -(alpha_dot - sign0 (k2 V)^(1/4)), and u6 sets the lean jerk.

    u6 solves h1*beta_dot + h2*u5 + h3*u6 = -((2+k1) x + (3+2k1) x' + (2+k1) x''),
    x = beta - pi/2, which needs h3, and so the steering rate, nonzero.
    """
    u5 = -(alpha_dot - sign0 * (gains.k2 * V) ** 0.25)
    h1, h2, h3 = jerk_coeffs(beta, alpha_dot, gamma_dot, params)
    if h3 == 0.0:
        raise ZeroDivisionError("steering rate is zero: rolling-channel gain h3 vanished")
    c0, c1 = 2.0 + gains.k1, 3.0 + 2.0 * gains.k1
    target_jerk = c0 * (beta - HALF_PI) + c1 * beta_dot + c0 * beta_ddot
    return (u5, -(target_jerk + h1 * beta_dot + h2 * u5) / h3)


def position_law(beta, beta_dot, e, psi, gains, params):
    """(u_alpha, u_gamma): steer k3 by the lean switch, drive k4*e + u_k, both signed by sgn(cos psi)."""
    s_lean = (beta - HALF_PI) + beta_dot
    side = 1.0 if cos(psi) >= 0.0 else -1.0
    u_k = drive_floor(s_lean, beta, gains.k3, params)
    return (-gains.k3 * side * lean_switch(s_lean, gains.smoothing),
            -(gains.k4 * e + u_k) * side)


def line_law(alpha, beta, beta_dot, theta, phi, p, gains, params):
    """(u_alpha, u_gamma): as position_law, signed by the line side s and driven by k5 step(p s) + u_k.

    s = sgn(sin(phi - alpha) sin(phi - theta)), +1 at 0.
    """
    s_lean = (beta - HALF_PI) + beta_dot
    s = 1.0 if sin(phi - alpha) * sin(phi - theta) >= 0.0 else -1.0
    u_k = drive_floor(s_lean, beta, gains.k3, params)
    f2 = gains.k5 * drive_step(p * s, gains.smoothing)
    return (-gains.k3 * s * lean_switch(s_lean, gains.smoothing), -(f2 + u_k) * s)


# ---------------------------------------------------------------- the charts


def wrap(angle):
    """The angle wrapped to (-pi, pi]."""
    return pi - (pi - angle) % (2.0 * pi)


def polar_chart(x_a, y_a, alpha, target):
    """(e, theta, psi): distance and bearing of the contact point from the target, psi = theta - alpha.

    Below EPS_DISTANCE the chart is (0, alpha, 0).
    """
    dx, dy = x_a - target[0], y_a - target[1]
    e = hypot(dx, dy)
    if e < EPS_DISTANCE:
        return (0.0, wrap(alpha), 0.0)
    theta = atan2(dy, dx)
    return (e, theta, wrap(theta - alpha))


def line_chart(x_a, y_a, alpha, origin, end):
    """(r, e, d, theta, phi, p, ell) of the contact point against the segment origin -> end.

    r, theta: distance and bearing from the origin (theta = phi within
    EPS_RADIUS); e = r |sin(phi - theta)|, the distance to the line; d,
    the distance to the end; p = r cos(theta - alpha) - ell cos(phi - alpha),
    the overshoot past the end along the heading; ell, phi: the segment's
    length and bearing.
    """
    ex, ey = end[0] - origin[0], end[1] - origin[1]
    ell = hypot(ex, ey)
    if ell < EPS_RADIUS:
        raise DegenerateLineError(f"segment endpoints {origin} and {end} coincide")
    phi = atan2(ey, ex)
    rx, ry = x_a - origin[0], y_a - origin[1]
    r = hypot(rx, ry)
    theta = atan2(ry, rx) if r > EPS_RADIUS else phi
    e = r * abs(sin(phi - theta))
    d = hypot(x_a - end[0], y_a - end[1])
    p = r * cos(theta - alpha) - ell * cos(phi - alpha)
    return (r, e, d, theta, phi, p, ell)


def polar_rates(e, psi, u_alpha, u_gamma, params):
    """(e_dot, psi_dot) of the polar chart under held rates (u_alpha, u_gamma).

    e_dot = R u_gamma cos(psi); psi_dot = -u_alpha - R u_gamma sin(psi)/e,
    whose 1/e term is dropped below EPS_DISTANCE, where the chart has psi = 0.
    """
    R = params.R
    e_dot = R * u_gamma * cos(psi)
    if e < EPS_DISTANCE:
        return (e_dot, -u_alpha)
    return (e_dot, -u_alpha - R * u_gamma * sin(psi) / e)


# -------------------------------------------------------- the closed forms


def closed_form_beta(a, b, c, t):
    """Lean offset beta(t) - pi/2 of the nominal balance loop (k1 = 1).

    Solution of the closed-loop linear lean-jerk equation
    x''' = -(3x + 5x' + 3x'') from initial data (a, b, c). The decaying
    modes sit at -1 and -1 +/- i*sqrt(2).
    """
    return closed_form_beta_rates(a, b, c, t)[0]


def closed_form_beta_rates(a, b, c, t):
    """(x, x_dot, x_ddot) of the closed-form lean solution at time t."""
    A = (3.0 * a + 2.0 * b + c) / 2.0
    B = (a + b) / sqrt(2.0)
    C = -(a + 2.0 * b + c) / 2.0
    r2 = sqrt(2.0)
    w = r2 * t
    ex = exp(-t)
    sw, cw = sin(w), cos(w)
    x = ex * (A + B * sw + C * cw)
    xd = ex * (-(A + B * sw + C * cw) + r2 * (B * cw - C * sw))
    xdd = ex * (
        (A + B * sw + C * cw)
        - 2.0 * r2 * (B * cw - C * sw)
        - 2.0 * (B * sw + C * cw)
    )
    return (x, xd, xdd)


def closed_form_alpha_dot(alpha_dot0, V0, k2, t):
    """Steering rate of the nominal balance loop under V(t) = V0*exp(-2t).

    alpha_dot(t) = exp(-t)*alpha_dot0
                   + sign(alpha_dot0)*2*(exp(-t/2) - exp(-t))*(k2*V0)**0.25

    Strictly one-signed for all finite t when alpha_dot0 != 0: the wheel
    never stops precessing, it only slows.
    """
    s = 1.0 if alpha_dot0 >= 0.0 else -1.0
    quart = (k2 * V0) ** 0.25
    return exp(-t) * alpha_dot0 + s * 2.0 * (exp(-t / 2.0) - exp(-t)) * quart


# ------------------------------------------------------------ the steppers
#
# Each stepper takes the same floats as the package's, in the same order,
# then the run's constants. The stages that fail raise NonFiniteStateError:
# sin or cos of an infinity, a power that overflows, a solve by M_rho = 0,
# or a result that is not finite. A friction stage whose lean is on {0, pi}
# raises DegenerateLeanError instead.


def _rk4(rates, y, k1, dt):
    """One classical RK4 step of y' = rates(*y) from y, whose rates k1 are given.

    Returns the new state and the four stage states.
    """
    h2 = 0.5 * dt
    y2 = tuple(v + h2 * k for v, k in zip(y, k1))
    k2 = rates(*y2)
    y3 = tuple(v + h2 * k for v, k in zip(y, k2))
    k3 = rates(*y3)
    y4 = tuple(v + dt * k for v, k in zip(y, k3))
    k4 = rates(*y4)
    h6 = dt / 6.0
    new = tuple(v + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
                for v, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4))
    return new, (y, y2, y3, y4)


def _contact(x_a, y_a, stages, R, dt):
    """The contact point after the step, from each stage's (alpha, gamma_dot).

    x_a_dot = R gamma_dot cos(alpha) and y_a_dot = R gamma_dot sin(alpha)
    with RK4's weights. Nothing reads the contact point back, so it is
    formed after the four stages.
    """
    xs = [R * gd * cos(a) for a, gd in stages]
    ys = [R * gd * sin(a) for a, gd in stages]
    h6 = dt / 6.0
    return (x_a + h6 * (xs[0] + 2.0 * xs[1] + 2.0 * xs[2] + xs[3]),
            y_a + h6 * (ys[0] + 2.0 * ys[1] + 2.0 * ys[2] + ys[3]))


def _checked(stepper):
    """The stepper with its failures raised as the package raises them, its result checked finite."""
    @wraps(stepper)
    def step(*args):
        try:
            out = stepper(*args)
        except DegenerateLeanError:
            raise
        except (ValueError, ArithmeticError):
            raise _nonfinite() from None
        if all(map(isfinite, out)):
            return out
        raise _nonfinite()

    return step


@_checked
def torque_step(a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6, params, dt):
    """alpha_ddot = u5, gamma_ddot = u6 held, beta_ddot = lean_accel; bdd is the first stage's."""
    def rates(a, b, g, ad, bd, gd, bdd=None):
        if bdd is None:
            bdd = lean_accel(b, ad, gd, params)
        return (ad, bd, gd, u5, bdd, u6)

    y = (a, b, g, ad, bd, gd)
    (a, b, g, ad, bd, gd), stages = _rk4(rates, y, rates(*y, bdd), dt)
    xa, ya = _contact(xa, ya, [(s[0], s[5]) for s in stages], params.R, dt)
    return (a, b, g, ad, bd, gd, lean_accel(b, ad, gd, params), xa, ya)


@_checked
def friction_step(a, b, g, ad, bd, gd, bdd, xa, ya, u5, u6, params, friction, dt):
    """(u5, u6) decoupled into motor torques at the step start and held; full equations.

    bdd is not read: the first stage solves the full equations too.
    """
    u1, u2 = decouple(b, ad, bd, gd, u5, u6, params)

    def rates(a, b, g, ad, bd, gd):
        add, bdd, gdd = full_accel(b, ad, bd, gd, u1, u2, params, friction)
        return (ad, bd, gd, add, bdd, gdd)

    y = (a, b, g, ad, bd, gd)
    (a, b, g, ad, bd, gd), stages = _rk4(rates, y, rates(*y), dt)
    xa, ya = _contact(xa, ya, [(s[0], s[5]) for s in stages], params.R, dt)
    return (a, b, g, ad, bd, gd, lean_accel(b, ad, gd, params), xa, ya)


@_checked
def velocity_step(a, b, g, ad, bd, gd, bdd, xa, ya, ua, ug, params, dt):
    """Rates (ua, ug) held and in effect at once; the rates before, ad and gd, are not read.

    Returns (ua, ug) as the rates and bdd as given: the lean acceleration at
    the step end depends on the next command.
    """
    def rates(a, b, g, bd, bdd=None):
        if bdd is None:
            bdd = lean_accel(b, ua, ug, params)
        return (ua, bd, ug, bdd)

    y = (a, b, g, bd)
    (a, b, g, bd), stages = _rk4(rates, y, rates(*y, bdd), dt)
    xa, ya = _contact(xa, ya, [(s[0], ug) for s in stages], params.R, dt)
    return (a, b, g, ua, bd, ug, bdd, xa, ya)


@_checked
def lag_step(a, b, g, za, bd, zg, bdd, xa, ya, ua, ug, params, dt, tau):
    """The rates in effect (za, zg) relax toward the held (ua, ug): z_dot = (u - z)/tau.

    Returns bdd as given, as velocity_step does.
    """
    def rates(a, b, g, bd, za, zg, bdd=None):
        if bdd is None:
            bdd = lean_accel(b, za, zg, params)
        return (za, bd, zg, bdd, (ua - za) / tau, (ug - zg) / tau)

    y = (a, b, g, bd, za, zg)
    (a, b, g, bd, za, zg), stages = _rk4(rates, y, rates(*y, bdd), dt)
    xa, ya = _contact(xa, ya, [(s[0], s[5]) for s in stages], params.R, dt)
    return (a, b, g, za, bd, zg, bdd, xa, ya)
