"""The switching functions of the tracking laws, for library use.

Two hard switches and their saturating replacements:

    hard_sign(x)  = +1 if x >= 0 else -1          (bipolar)
    hard_step(x)  = 1 if x >= 0 else 0            (unipolar)
    smooth_sign(x, k) = (1 - exp(-k*x)) / (1 + exp(-k*x))
    smooth_step(x, k) = 1 / (1 + exp(-k*x))

The smooth forms converge pointwise to the hard forms as k grows (for
x != 0) and exist because hard switching chatters under fixed-step
discretization. Note both hard functions return their upper value at
exactly 0; the friction model's sign convention (0 at 0) is different and
lives with the friction code. The laws in controllers compute these
switches in place, with the same float expressions, and so does
BalanceController's latch of the initial steering rate's sign: no module
of the package calls this one.
"""

from __future__ import annotations

import math

__all__ = ["hard_sign", "hard_step", "smooth_sign", "smooth_step"]


def hard_sign(x: float) -> float:
    return 1.0 if x >= 0.0 else -1.0


def hard_step(x: float) -> float:
    return 1.0 if x >= 0.0 else 0.0


def smooth_sign(x: float, k: float) -> float:
    # identical to (1 - exp(-k x)) / (1 + exp(-k x)), without overflow
    return math.tanh(0.5 * k * x)


def smooth_step(x: float, k: float) -> float:
    kx = k * x
    if kx >= 0.0:
        return 1.0 / (1.0 + math.exp(-kx))
    ex = math.exp(kx)
    return ex / (1.0 + ex)
