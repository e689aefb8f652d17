"""Counting and timing shims over the package's public functions.

The program carries no tracing of its own. ``Tracer.install`` wraps each
function named in ``LAYERS`` and rebinds the wrapper under every
``gyrowheel`` module name bound to the original (``lean_accel`` lives in
``dynamics`` but is called through ``simulate`` and ``controllers``);
methods are wrapped on their class. ``Tracer.restore`` puts every original
back.

Each call becomes a span: name, start, end, parent span and operation id,
kept in flat arrays in memory and written out by ``write_spans``. A span's
self time is its duration minus the durations of its child spans, all on
one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# layer -> (module, attribute) of each public function traced; "A.b" is method b of class A
LAYERS = {
    "scenario": [("scenario", "parse_scenario"), ("scenario", "scenario_from_mapping")],
    "simulate": [("simulate", "run_closed_loop"), ("simulate", "rk4_step")],
    "controllers": [
        ("controllers", "BalanceController.command"),
        ("controllers", "BalanceController.certificate"),
        ("controllers", "PositionController.command"),
        ("controllers", "PositionController.view"),
        ("controllers", "LineController.command"),
        ("controllers", "LineController.geometry"),
        ("controllers", "balance_control"),
        ("controllers", "position_control"),
        ("controllers", "line_control"),
        ("controllers", "sigma"),
    ],
    "dynamics": [
        ("dynamics", "lean_accel"),
        ("dynamics", "full_accel"),
        ("dynamics", "inertia_matrix"),
        ("dynamics", "nonlinear_terms"),
        ("dynamics", "friction_torque"),
        ("dynamics", "cancel_and_decouple"),
        ("dynamics", "beta_jerk_coeffs"),
    ],
    "kinematics": [("kinematics", "line_geometry"), ("kinematics", "polar_view")],
    "params": [("params", "RobotParams.reduced")],
    "switching": [
        ("switching", "hard_sign"),
        ("switching", "hard_step"),
        ("switching", "smooth_sign"),
        ("switching", "smooth_step"),
    ],
    "lyapunov": [
        ("lyapunov", "lean_tracking_value"),
        ("lyapunov", "balance_value"),
        ("lyapunov", "decay_monitor"),
    ],
    "cli": [
        ("cli", "main"),
        ("cli", "run_scenario"),
        ("cli", "write_trajectory_csv"),
        ("cli", "write_trajectory_json"),
        ("cli", "emit_plot_data"),
        ("cli", "build_report"),
    ],
}
OP_SPAN = "op"


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gyrowheel" or name.startswith("gyrowheel."))]


class Tracer:
    """Spans and per-function totals for the traced passes of one run."""

    def __init__(self):
        self.names = [OP_SPAN]
        self.layer_of = ["op"]
        for layer, targets in LAYERS.items():
            for module, attr in targets:
                self.names.append(f"{layer}.{attr}")
                self.layer_of.append(layer)
        self.layers = ["op"] + list(LAYERS)
        self._layer_index = [self.layers.index(layer) for layer in self.layer_of]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.layer_s = [0.0] * len(self.layers)  # outermost spans of each layer
        self._depth = [0] * len(self.layers)
        self.op = -1
        self.op_ids: list[str] = []
        self._pending: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.clear_spans()

    # -- spans --------------------------------------------------------------

    def clear_spans(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._child = [0.0]

    def _enter(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self._depth[self._layer_index[nid]] += 1
        return idx

    def _exit(self, nid: int, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        self.self_s[nid] += dur - self._child.pop()
        self._child[-1] += dur
        self.calls[nid] += 1
        self.total_s[nid] += dur
        layer = self._layer_index[nid]
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.layer_s[layer] += dur
        self.span_start[idx] = t0
        self.span_end[idx] = t1

    def _wrap(self, fn, nid: int):
        enter, leave, clock = self._enter, self._exit, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = enter(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(nid, idx, t0, clock())

        return shim

    # -- operations ---------------------------------------------------------

    @contextlib.contextmanager
    def operation(self, op_id: str):
        """Root span of one operation driven by the benchmark."""
        self.op_ids.append(op_id)
        self.op = len(self.op_ids) - 1
        idx = self._enter(0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(0, idx, t0, time.perf_counter())

    def begin_operations(self, op_ids: list[str]) -> None:
        """Operations run inside one program call; next_operation steps through them."""
        self._pending = list(op_ids)
        self.next_operation()

    def next_operation(self) -> None:
        if self._pending:
            self.op_ids.append(self._pending.pop(0))
            self.op = len(self.op_ids) - 1

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        nid = 1
        for targets in LAYERS.values():
            for module, attr in targets:
                owner = sys.modules[f"gyrowheel.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(original, nid))
                else:
                    original = getattr(owner, attr)
                    shim = self._wrap(original, nid)
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, name, original, shim)
                nid += 1

    def _patch(self, owner, name: str, original, shim) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, shim)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)

    def unrestored(self) -> list[str]:
        """Patched names whose original is not back in place."""
        bad = []
        for owner, name, original in self._patches:
            current = vars(owner).get(name)
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return bad

    @property
    def patched(self) -> int:
        return len(self._patches)

    # -- results ------------------------------------------------------------

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[self.names.index(n)] for n in names)

    def self_of(self, *names: str) -> float:
        return sum(self.self_s[self.names.index(n)] for n in names)

    def total_of(self, *names: str) -> float:
        return sum(self.total_s[self.names.index(n)] for n in names)

    def layer_self(self, layer: str) -> float:
        return sum(s for s, lay in zip(self.self_s, self.layer_of) if lay == layer)

    def per_op_calls(self) -> dict[str, Counter]:
        """Calls of each function within each operation of the spans kept."""
        out: dict[str, Counter] = {}
        for (op, nid), n in Counter(zip(self.span_op, self.span_name)).items():
            key = self.op_ids[op] if op >= 0 else "-"
            out.setdefault(key, Counter())[self.names[nid]] += n
        return out

    def write_spans(self, path: Path) -> int:
        """Write the spans kept, one tab-separated row each; returns the count.

        Columns: span, parent (-1 for a root), operation index, name index,
        start and end in ns from the first span. The first line is a JSON
        legend of the operation ids and names the indices refer to.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if len(self.span_start) else 0.0
        legend = {"ops": self.op_ids, "names": self.names}
        with path.open("w") as fh:
            fh.write(json.dumps(legend) + "\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t{self.span_name[i]}\t"
                         f"{round((self.span_start[i] - origin) * 1e9)}\t"
                         f"{round((self.span_end[i] - origin) * 1e9)}\n")
        return len(self.span_name)
