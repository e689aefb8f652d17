"""Lyapunov certificates, closed-form oracles, and decay monitoring.

Every controller in this package ships with a scalar certificate that its
closed loop is supposed to decrease. This module evaluates those scalars,
provides the closed-form solutions of the balance loop's linear subsystems
(used as oracles by the test suite), and fits/monitors decay along recorded
trajectories.

Certificates:

* balance_value: half sum of squares of the chained lean errors
  (x, x + x_dot, x_ddot + (1+k1)(x + x_dot)) with x = beta - pi/2. At the
  nominal k1 = 1 the closed loop satisfies V_dot = -2V exactly.
* lean_tracking_value: the two-error lean certificate V1 used by the
  tracking controllers.

run_closed_loop computes both in place, with the same float expressions,
and records them as the V (balance) and V1 (tracking) channels. A tracking
run's V channel adds e**2/2 (point to point) or (e**2 + d**2)/2 (line) to
V1; the run writes that sum itself, and the trajectory is where to read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import gt, mul, sub
from typing import Sequence

__all__ = [
    "DecayReport",
    "balance_value",
    "lean_tracking_value",
    "closed_form_beta",
    "closed_form_beta_rates",
    "closed_form_alpha_dot",
    "decay_monitor",
]


def balance_value(
    beta: float, beta_dot: float, beta_ddot: float, k1: float = 1.0
) -> float:
    """Balance certificate: half sum of squares of the three chained errors."""
    x = beta - math.pi / 2.0
    z2 = beta_dot + x
    z3 = beta_ddot + (1.0 + k1) * z2
    return 0.5 * (x * x + z2 * z2 + z3 * z3)


def lean_tracking_value(beta: float, beta_dot: float) -> float:
    """Two-error lean certificate used by the tracking controllers."""
    x = beta - math.pi / 2.0
    s = x + beta_dot
    return 0.5 * (x * x + s * s)


def closed_form_beta(a: float, b: float, c: float, t: float) -> float:
    """Lean offset beta(t) - pi/2 of the nominal balance loop (k1 = 1).

    Solution of the closed-loop linear lean-jerk equation
    x''' = -(3x + 5x' + 3x'') from initial data (a, b, c). The decaying
    modes sit at -1 and -1 +/- i*sqrt(2).
    """
    return closed_form_beta_rates(a, b, c, t)[0]


def closed_form_beta_rates(
    a: float, b: float, c: float, t: float
) -> tuple[float, float, float]:
    """(x, x_dot, x_ddot) of the closed-form lean solution at time t."""
    A = (3.0 * a + 2.0 * b + c) / 2.0
    B = (a + b) / math.sqrt(2.0)
    C = -(a + 2.0 * b + c) / 2.0
    r2 = math.sqrt(2.0)
    w = r2 * t
    ex = math.exp(-t)
    sw, cw = math.sin(w), math.cos(w)
    x = ex * (A + B * sw + C * cw)
    xd = ex * (-(A + B * sw + C * cw) + r2 * (B * cw - C * sw))
    xdd = ex * (
        (A + B * sw + C * cw)
        - 2.0 * r2 * (B * cw - C * sw)
        - 2.0 * (B * sw + C * cw)
    )
    return (x, xd, xdd)


def closed_form_alpha_dot(
    alpha_dot0: float, V0: float, k2: float, t: float
) -> float:
    """Steering rate of the nominal balance loop under V(t) = V0*exp(-2t).

    alpha_dot(t) = exp(-t)*alpha_dot0
                   + sign(alpha_dot0)*2*(exp(-t/2) - exp(-t))*(k2*V0)**0.25

    Strictly one-signed for all finite t when alpha_dot0 != 0: the wheel
    never stops precessing, it only slows.
    """
    s = 1.0 if alpha_dot0 >= 0.0 else -1.0
    quart = (k2 * V0) ** 0.25
    return math.exp(-t) * alpha_dot0 + s * 2.0 * (
        math.exp(-t / 2.0) - math.exp(-t)
    ) * quart


@dataclass(frozen=True)
class DecayReport:
    """Summary of a certificate series along one trajectory.

    fitted_rate is the least-squares slope of log V over the window where
    V exceeds rate_floor (None when fewer than two points qualify).
    Violations are the times where a single step increased V by more than
    the tolerance.
    """

    values: tuple[float, ...]
    max_step_increase: float
    fitted_rate: float | None
    violation_times: tuple[float, ...]
    tolerance: float
    rate_floor: float = 1e-12

    @property
    def monotone(self) -> bool:
        return not self.violation_times

    def summary(self) -> dict:
        return {
            "samples": len(self.values),
            "max_step_increase": self.max_step_increase,
            "fitted_rate": self.fitted_rate,
            "violations": len(self.violation_times),
            "first_violation_time": (
                self.violation_times[0] if self.violation_times else None
            ),
            "tolerance": self.tolerance,
        }


def decay_monitor(
    times: Sequence[float],
    values: Sequence[float],
    tolerance: float = 1e-6,
    rate_floor: float = 1e-12,
) -> DecayReport:
    """Monitor a certificate series for decay.

    Reports the largest single-step increase, the timestamps of increases
    beyond `tolerance`, and the exponential rate fitted on the early window
    where the values are safely above the floating-point floor.
    """
    if len(times) != len(values):
        raise ValueError("times and values must have equal length")
    if not times:
        raise ValueError("empty trajectory")
    # the increases values[i] - values[i - 1]; max skips a NaN one, as `inc > max_inc` does
    max_inc = max(chain((-math.inf,), map(sub, islice(values, 1, None), values)))
    if len(values) == 1:
        max_inc = 0.0
    violations = []
    if max_inc > tolerance:  # then, and only then, some increase exceeds the tolerance
        incs = map(sub, islice(values, 1, None), values)
        violations = list(compress(islice(times, 1, None), map(gt, incs, repeat(tolerance))))
    if all(map(gt, values, repeat(rate_floor))):
        ts, logs = times, list(map(math.log, values))
    else:
        above = list(map(gt, values, repeat(rate_floor)))
        ts, logs = list(compress(times, above)), list(map(math.log, compress(values, above)))
    fitted = _slope(ts, logs) if len(ts) >= 2 else None
    return DecayReport(
        values=tuple(values),
        max_step_increase=max_inc,
        fitted_rate=fitted,
        violation_times=tuple(violations),
        tolerance=tolerance,
        rate_floor=rate_floor,
    )


def _slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = float(len(xs))
    mx = sum(xs) / n
    my = sum(ys) / n
    dx = list(map(sub, xs, repeat(mx)))  # x - mx
    sxx = sum(map(pow, dx, repeat(2.0)))  # (x - mx) ** 2, which is pow(x - mx, 2.0) too
    if sxx == 0.0:
        raise ValueError("cannot fit a rate to a single time point")
    sxy = sum(map(mul, dx, map(sub, ys, repeat(my))))  # (x - mx) * (y - my)
    return sxy / sxx
