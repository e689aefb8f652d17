"""Deterministic simulation and Lyapunov-certified control of a single-wheel robot.

The package models a rolling disk whose lean axis is unactuated: steering
and rolling torques must stabilize the lean through gyroscopic coupling.
Three controller families are provided, each carrying an explicit
certificate function that the simulator logs and the test suite audits:

* balance: keep the wheel upright at a standstill,
* point to point: drive the ground contact point to a target,
* line: track a straight segment (or a chain of segments).

Entry points: build a SimConfig and call run_closed_loop, or write a
scenario file and use the ``gyrowheel`` command-line tool. The package
exports every name in its modules' ``__all__``; the command-line module
``gyrowheel.cli`` is imported on its own.
"""

from importlib import resources
from pathlib import Path

from .params import *
from .dynamics import *
from .kinematics import *
from .switching import *
from .lyapunov import *
from .controllers import *
from .simulate import *
from .scenario import *

__version__ = "0.1.0"


def bundled_scenario_path(name: str) -> Path:
    """Path to a scenario file shipped with the package."""
    root = resources.files(__name__) / "scenarios"
    candidate = root / f"{name}.yaml"
    if not candidate.is_file():
        available = sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))
        raise ValueError(f"no bundled scenario {name!r}; available: {', '.join(available)}")
    return Path(str(candidate))
