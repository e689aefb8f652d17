"""Formulas that more than one test file checks the package against.

None of these is part of the package: the run never evaluates them. They
are the model's statements that the tests derive or refute against the
live code.

* polar_rates: the time derivatives of the error-polar chart (e, psi)
  under held rates, which the point-to-point run's e and psi channels must
  follow.
* beta_jerk_coeffs_variant: a deliberately wrong set of lean-jerk
  coefficients, the negative control of the finite-difference check of
  dynamics.beta_jerk_coeffs.
"""

import math

from gyrowheel import GeneralizedState, PolarView, RobotParams
from gyrowheel.kinematics import EPS_DISTANCE


def polar_rates(
    pv: PolarView, u_alpha: float, u_gamma: float, params: RobotParams
) -> tuple[float, float]:
    """Time derivatives (e_dot, psi_dot) under rates (u_alpha, u_gamma).

    e_dot = R*u_gamma*cos(psi); psi_dot = -u_alpha - R*u_gamma*sin(psi)/e.
    At the chart floor the 1/e term is dropped per the e = 0 convention.
    """
    R = params.R
    e_dot = R * u_gamma * math.cos(pv.psi)
    if pv.e < EPS_DISTANCE:
        return (e_dot, -u_alpha)
    psi_dot = -u_alpha - R * u_gamma * math.sin(pv.psi) / pv.e
    return (e_dot, psi_dot)


def beta_jerk_coeffs_variant(
    state: GeneralizedState, params: RobotParams
) -> tuple[float, float, float]:
    """Deliberately wrong jerk coefficients kept as a negative control.

    Relative to beta_jerk_coeffs this drops the gyroscopic term from h1 and
    squares the steering rate in h3. The finite-difference validation must
    reject these coefficients while accepting the correct ones; a validation
    too loose to tell them apart would be meaningless.
    """
    Gm, Im, Jm = params.reduced()
    sb = math.sin(state.beta)
    s2b, c2b = math.sin(2.0 * state.beta), math.cos(2.0 * state.beta)
    ad, gd = state.alpha_dot, state.gamma_dot
    h1 = Gm * sb - Im * c2b * ad**2
    h2 = -Im * s2b * ad - Jm * sb * gd
    h3 = -Jm * sb * ad**2
    return (h1, h2, h3)
