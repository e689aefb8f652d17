"""Lyapunov certificates and decay monitoring.

Every controller in this package ships with a scalar certificate that its
closed loop is supposed to decrease. This module evaluates those scalars
and fits/monitors decay along recorded trajectories: decay_monitor(values,
dt) reads a certificate sampled once per row, row i at time i * dt, and is
the one rule for which samples report.json's certificate_decay block reads.
It reads only the finite samples, each at its own row's time, and gives
None when no sample is finite.

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
from itertools import compress, islice, repeat
from operator import add, countOf, gt, mul, sub
from typing import Callable, Iterable, Sequence

__all__ = [
    "balance_value",
    "lean_tracking_value",
    "decay_monitor",
]

_EPS = math.ulp(1.0)  # machine epsilon: rounding moves a float by at most this, relatively
TOLERANCE = 1e-6  # a step that increases the certificate by more is a violation
RATE_FLOOR = 1e-12  # the decay rate is fitted on the values above this


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


def decay_monitor(values: Sequence[float], dt: float) -> dict | None:
    """Monitor a certificate sampled once per row, row i at time i * dt, for
    decay: report.json's certificate_decay block, without its channel.

    Only the finite samples are read, each at its own row's time; the
    result is None when no sample is finite (an empty series included).
    Over those samples it returns, in this order: samples, their number;
    max_step_increase, the largest single-step increase (0.0 for one
    sample); fitted_rate, the least-squares slope of log V over the samples
    where V exceeds RATE_FLOOR; violations, the number of steps that
    increased V by more than TOLERANCE; first_violation_time, the time of
    the first such step (None without one); and tolerance, TOLERANCE.

    The rate is None when fewer than two values exceed the floor, and when
    the squares of their times' spread about the mean sum to 0: times that
    are all equal (dt = 0), or so close (dt = 1e-300, say) that each square
    underflows. It is None too when no larger than the bound rounding of
    the logs puts on it, sum|t_i - t_mean| * eps * max|log V_i| / (that sum
    of squares): times so close (dt = 1e-155, say) that log V cannot
    change, or a flat series.
    """
    rows = range(len(values))

    def times():  # row i's time, i * dt as the loop forms it, formed anew for each pass
        return map(mul, rows, repeat(dt))

    if not all(map(math.isfinite, values)):
        # the mask is formed anew for each series, since a list of it holds 8 B a value
        times = array("d", compress(times(), map(math.isfinite, values))).__iter__
        values = array("d", compress(values, map(math.isfinite, values)))
    if not values:
        return None

    def increases():  # values[i] - values[i - 1], formed anew for each pass
        return map(sub, islice(values, 1, None), values)

    max_inc = max(increases(), default=0.0)
    violations, first = 0, None
    if max_inc > TOLERANCE:  # then, and only then, some increase exceeds the tolerance
        violations = countOf(map(gt, increases(), repeat(TOLERANCE)), True)
        first = next(compress(islice(times(), 1, None), map(gt, increases(), repeat(TOLERANCE))))
    if all(map(gt, values, repeat(RATE_FLOOR))):
        ts, logs = times, array("d", map(math.log, values))
    else:
        ts = array("d", compress(times(), map(gt, values, repeat(RATE_FLOOR)))).__iter__
        logs = array("d", map(math.log, compress(values, map(gt, values, repeat(RATE_FLOOR)))))
    return {
        "samples": len(values),
        "max_step_increase": max_inc,
        "fitted_rate": _slope(ts, logs) if len(logs) >= 2 else None,
        "violations": violations,
        "first_violation_time": first,
        "tolerance": TOLERANCE,
    }


def _sum(values) -> float:
    """The floats' sum, added left to right from 0.0, as the built-in sum adds
    them on Python 3.11; from 3.12 the built-in compensates, which moves bits."""
    return reduce(add, values, 0.0)


def _slope(xs: Callable[[], Iterable[float]], ys: Sequence[float]) -> float | None:
    """The least-squares slope of ys over the xs that each xs() call forms anew;
    None when the xs' squared spread is 0, or when rounding each y by eps * |y|
    could account for the whole slope."""
    n = float(len(ys))
    mx = _sum(xs()) / n
    my = _sum(ys) / n

    def dx():  # x - mx, formed anew for each sum, since holding it takes a third series
        return map(sub, xs(), repeat(mx))

    sxx = _sum(map(pow, dx(), repeat(2.0)))  # (x - mx) ** 2, which is pow(x - mx, 2.0) too
    if sxx == 0.0:
        return None
    sxy = _sum(map(mul, dx(), map(sub, ys, repeat(my))))  # (x - mx) * (y - my)
    slope = sxy / sxx
    if abs(slope) <= _sum(map(abs, dx())) * _EPS * max(map(abs, ys)) / sxx:
        return None
    return slope
