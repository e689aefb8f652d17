"""Machine-speed calibration: a fixed pure-Python kernel timed between operations.

On a shared machine each vCPU flips, for seconds at a time, between a quiet
state and a contended one that runs Python about 1.6x slower, as
neighbours come and go. A 25 s run can sit mostly in either state, so its
median, and even its fastest pass, moves by tens of percent from run to
run. The benchmark times this kernel right after every operation and
divides the operation's host time by the kernel's slowdown around it
(``speed_factor``). The kernel does what the step kernel does, without any
of the program's code: frozen dataclass states, tuple arithmetic, ``math``
calls, a closure per step, an RK4 update and ``repr`` of every value, so
it slows down with the program; a bare arithmetic loop does so only in
part.

The result is reference-speed time: how long the work would take on a
machine that runs the kernel in ``NOMINAL_S``. The kernel and
``NOMINAL_S`` are fixed; a change to either is a change of the benchmark.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

NOMINAL_S = 0.011  # the kernel's time in a quiet spell on a 2-vCPU 2.1 GHz x86-64 VM


@dataclass(frozen=True)
class _State:
    angle: float
    lean: float
    rate: float
    spin: float


def _rhs(y, u):
    a, b, c, d = y
    return (c, d, u - 9.8 * math.sin(a) - 0.1 * c, -math.cos(b) * c * d)


def kernel() -> str:
    """Integrate a damped pendulum pair for 1000 steps and render every row."""
    y = (0.1, 1.5, 0.0, 0.2)
    dt = 1e-3
    rows = []
    for _ in range(1000):
        st = _State(*y)
        u = -2.0 * st.angle - st.rate if abs(st.angle) > 1e-9 else 0.0
        f = lambda yy: _rhs(yy, u)  # noqa: E731
        k1 = f(y)
        k2 = f(tuple(a + 0.5 * dt * k for a, k in zip(y, k1)))
        k3 = f(tuple(a + 0.5 * dt * k for a, k in zip(y, k2)))
        k4 = f(tuple(a + dt * k for a, k in zip(y, k3)))
        y = tuple(a + dt / 6.0 * (p + 2.0 * q + 2.0 * r + s)
                  for a, p, q, r, s in zip(y, k1, k2, k3, k4))
        rows.append(y)
    return ",".join(repr(v) for row in rows for v in row)


def kernel_time() -> float:
    """Host seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """How much slower than nominal the machine ran the kernel around some work."""
    return 0.5 * (before + after) / NOMINAL_S
