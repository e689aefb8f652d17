"""What the benchmark's tracer relies on in the package.

perfbench/tracing.py wraps the functions its LAYERS table names: module
functions under every module name bound to them, methods on the class that
defines them. A renamed or moved function, or a loop that stops calling it,
leaves its span at 0 without failing anything. These tests read the table
(loading the file executes it and changes nothing) and check each name
resolves where the tracer looks it up, and that the run loop calls the
controller's command once per row, as the traced command count assumes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gyrowheel import (
    FrictionParams,
    bundled_scenario_path,
    parse_scenario,
    replace,
    run_closed_loop,
)
from gyrowheel.controllers import BalanceController, LineController, PositionController

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_table", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


TARGETS = [(module, attr) for targets in _layers().values() for module, attr in targets]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_every_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"gyrowheel.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        assert meth in cls.__dict__, f"{attr} is not defined on the class itself"
        assert callable(cls.__dict__[meth])
    else:
        assert callable(getattr(owner, attr))


# the four bundled scenarios, and the friction and lag steppers, which
# perfbench's sweep_closed_loop also runs
_COMMAND_RUNS = [
    ("balance_default", BalanceController, {}),
    ("p2p_default", PositionController, {}),
    ("line_5m", LineController, {}),
    ("corridor_demo", LineController, {}),
    ("balance_default", BalanceController, {"friction": FrictionParams()}),
    ("line_5m", LineController, {"actuator_lag": 0.05}),
]


@pytest.mark.parametrize("name, cls, changes", _COMMAND_RUNS, ids=[
    f"{name}-{cls.__name__}" + "".join(f"-{key}" for key in changes)
    for name, cls, changes in _COMMAND_RUNS])
def test_run_calls_command_once_per_row(name, cls, changes, monkeypatch):
    calls = []
    original = cls.__dict__["command"]

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(cls, "command", counted)
    sc = parse_scenario(bundled_scenario_path(name))
    traj = run_closed_loop(replace(sc.config, t_end=0.5, **changes))
    assert traj.events == [] and traj.row_count == 501
    assert len(calls) == traj.row_count
