"""Lyapunov certificates and decay monitoring.

Every controller in this package ships with a scalar certificate that its
closed loop is supposed to decrease. This module evaluates those scalars
and fits/monitors decay along recorded trajectories.

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
from array import array
from functools import reduce
from itertools import chain, compress, islice, repeat
from operator import add, gt, mul, sub
from typing import Sequence

from .params import Record

__all__ = [
    "DecayReport",
    "balance_value",
    "lean_tracking_value",
    "decay_monitor",
]

_EPS = math.ulp(1.0)  # machine epsilon: rounding moves a float by at most this, relatively


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


class DecayReport(Record):
    """Summary of a certificate series along one trajectory.

    samples is the length of the series. fitted_rate is the least-squares
    slope of log V over the window where V exceeds rate_floor (None when
    fewer than two points qualify, when their times' squared spread sums
    to 0, or when the slope is within what rounding of the logs can make
    it). Violations are the times where a single step increased V by more
    than the tolerance.
    """

    samples: int
    max_step_increase: float
    fitted_rate: float | None
    violation_times: tuple[float, ...]
    tolerance: float
    rate_floor: float = 1e-12

    def summary(self) -> dict:
        return {
            "samples": self.samples,
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
    where the values are safely above the floating-point floor. The rate is
    None when fewer than two values qualify, and when the squares of the
    qualifying times' spread about their mean sum to 0: times that are all
    equal, or so close (dt = 1e-300, say) that each square underflows. It is
    None too when no larger than the bound rounding of the logs puts on it,
    sum|t_i - t_mean| * eps * max|log V_i| / (that sum of squares): times so
    close (dt = 1e-155, say) that log V cannot change, or a flat series.
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
        ts, logs = times, array("d", map(math.log, values))
    else:
        # the mask is formed anew for each series, since a list of it holds 8 B a value
        ts = array("d", compress(times, map(gt, values, repeat(rate_floor))))
        logs = array("d", map(math.log, compress(values, map(gt, values, repeat(rate_floor)))))
    fitted = _slope(ts, logs) if len(ts) >= 2 else None
    return DecayReport(
        samples=len(values),
        max_step_increase=max_inc,
        fitted_rate=fitted,
        violation_times=tuple(violations),
        tolerance=tolerance,
        rate_floor=rate_floor,
    )


def _sum(values) -> float:
    """The floats' sum, added left to right from 0.0, as the built-in sum adds
    them on Python 3.11; from 3.12 the built-in compensates, which moves bits."""
    return reduce(add, values, 0.0)


def _slope(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """The least-squares slope of ys over xs; None when the xs' squared spread is 0,
    or when rounding each y by eps * |y| could account for the whole slope."""
    n = float(len(xs))
    mx = _sum(xs) / n
    my = _sum(ys) / n

    def dx():  # x - mx, formed anew for each sum, since holding it takes a third series
        return map(sub, xs, repeat(mx))

    sxx = _sum(map(pow, dx(), repeat(2.0)))  # (x - mx) ** 2, which is pow(x - mx, 2.0) too
    if sxx == 0.0:
        return None
    sxy = _sum(map(mul, dx(), map(sub, ys, repeat(my))))  # (x - mx) * (y - my)
    slope = sxy / sxx
    if abs(slope) <= _sum(map(abs, dx())) * _EPS * max(map(abs, ys)) / sxx:
        return None
    return slope
