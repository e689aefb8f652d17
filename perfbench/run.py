"""Run one gyrowheel benchmark workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Workloads: cli_run_csv, sweep_closed_loop, batch_json (see perfbench/README.md).
One process runs one workload: a closed loop with a single client, the
operations one after another, no threads and no worker processes.

With ``--trace 0`` the run measures set-up time in fresh interpreters, then
repeats full passes over the workload's operations for ``--seconds`` (and
until the tail percentile has its samples) and reports the end-to-end
metrics. With ``--trace 1`` it runs untraced passes for half the time, then
traced passes for the other half, and reports the per-layer metrics.

Times are reported at reference speed: each operation's host time is
divided by how much slower than nominal the machine ran the fixed kernel
of calibrate.py just before and just after it. Host times are printed too.

Every operation's outputs are hashed. All passes of a run must give the
same digests, traced or not; at the reference seed they must also match
perfbench/reference_digests.json. A mismatch, an escaping exception, a
missing report.json or an unexpected exit code fails the operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference_digests.json"
REFERENCE_SEED = 0

# Tail percentile per workload and the samples it needs: at least ten
# operations beyond it. cli_run_csv has four operations of three sizes per
# pass, so its percentile sits inside the slowest (balance) quarter.
TAIL = {"cli_run_csv": 80, "sweep_closed_loop": 90, "batch_json": 90}
SETUP_PROBES = 11
MAX_RUN_S = 150.0  # stop adding passes here, whatever the sample count

UNITS = {
    "pass_s": "s",
    "steps_per_s": "rows/s",
    "run_p50_ms": "ms",
    "run_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "-",
}
LAYER_UNITS = {
    "simulate.loop_s": "s",
    "simulate.us_per_step": "us",
    "simulate.steps": "rows",
    "simulate.rk4_step_calls": "count",
    "simulate.rk4_step_self_s": "s",
    "dynamics.lean_accel_per_step": "count/row",
    "dynamics.full_accel_per_step": "count/row",
    "dynamics.self_s": "s",
    "params.reduced_per_step": "count/row",
    "kinematics.line_geometry_per_step": "count/row",
    "kinematics.polar_view_per_step": "count/row",
    "kinematics.self_s": "s",
    "controllers.command_per_step": "count/row",
    "controllers.geometry_per_step": "count/row",
    "controllers.command_self_s": "s",
    "switching.calls_per_step": "count/row",
    "switching.self_s": "s",
    "lyapunov.lean_tracking_value_per_step": "count/row",
    "lyapunov.decay_fit_ms": "ms",
    "cli.csv_write_ms": "ms",
    "cli.plot_write_ms": "ms",
    "cli.write_us_per_row": "us",
    "cli.bytes_written": "bytes",
    "cli.json_write_ms": "ms",
    "cli.report_ms": "ms",
    "scenario.parse_ms": "ms",
    "scenario.files": "count",
    "trace.overhead_ratio": "ratio",
}
# per-operation call counts printed by the traced run, per trajectory row
PER_OP_COUNTS = {
    "params.reduced_per_step": ("params.RobotParams.reduced",),
    "dynamics.lean_accel_per_step": ("dynamics.lean_accel",),
    "dynamics.full_accel_per_step": ("dynamics.full_accel",),
    "kinematics.line_geometry_per_step": ("kinematics.line_geometry",),
    "kinematics.polar_view_per_step": ("kinematics.polar_view",),
    "switching.calls_per_step": ("switching.hard_sign", "switching.hard_step",
                                 "switching.smooth_sign", "switching.smooth_step"),
}
COMMANDS = ("controllers.BalanceController.command", "controllers.PositionController.command",
            "controllers.LineController.command")
CONTROL_LAWS = ("controllers.balance_control", "controllers.position_control",
                "controllers.line_control")


def _env() -> dict:
    import yaml

    return {
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "pyyaml_libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "note": "figures come from a shared machine; compare medians of many runs",
    }


def measure_setup(workload) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh interpreters, after one untimed warm-up.

    Returns reference-speed and host seconds, one of each per interpreter.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + workload.setup_args()
    subprocess.run(cmd, capture_output=True, timeout=60, check=True)
    before = calibrate.kernel_time()
    scaled, host = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        after = calibrate.kernel_time()
        seconds = float(out.stdout.strip().splitlines()[-1])
        scaled.append(seconds / calibrate.speed_factor(before, after))
        host.append(seconds)
        before = after
    return scaled, host


class Passes:
    """Results of repeated passes, checked against each other and a reference."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.first: dict[str, str] = {}
        self.pass_s: list[float] = []  # reference-speed seconds
        self.op_s: list[float] = []
        self.host_pass_s: list[float] = []
        self.host_op_s: list[float] = []
        self.factors: list[float] = []
        self.rows = 0
        self.rows_by_op: dict[str, int] = {}
        self.bytes = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, seconds: float, min_ops: int = 0, tracer=None, deadline=math.inf) -> None:
        start = time.perf_counter()
        kernel = [calibrate.kernel_time()]  # kernel[k] ran after operation k - 1
        while True:
            if tracer is not None:
                tracer.clear_spans()
            first = len(kernel) - 1
            results = self.workload.run_pass(tracer, lambda: kernel.append(calibrate.kernel_time()))
            factors = [calibrate.speed_factor(kernel[min(first + i, len(kernel) - 1)],
                                              kernel[min(first + i + 1, len(kernel) - 1)])
                       for i in range(len(results))]
            self.bytes = self.workload.output_bytes()
            self.workload.clean()
            self._check(results, factors)
            elapsed = time.perf_counter() - start
            done = elapsed >= seconds and len(self.op_s) >= min_ops
            if done or time.perf_counter() >= deadline:
                return

    def _check(self, results, factors: list[float]) -> None:
        """Record one pass: op times, each at reference speed by its own factor."""
        scaled = [r.seconds / f for r, f in zip(results, factors)]
        self.factors.extend(factors)
        self.host_pass_s.append(sum(r.seconds for r in results))
        self.host_op_s.extend(r.seconds for r in results)
        self.pass_s.append(sum(scaled))
        self.op_s.extend(scaled)
        self.rows = sum(r.rows for r in results)
        self.rows_by_op = {r.op_id: r.rows for r in results}
        self.attempted += len(results)
        for r in results:
            want = self.first.setdefault(r.op_id, r.digest)
            ref = self.reference.get(r.op_id) if self.reference is not None else None
            if r.error:
                self.failures.append(f"{r.op_id}: {r.error}")
            elif r.digest != want:
                self.failures.append(f"{r.op_id}: digest differs between passes")
            elif ref is not None and r.digest != ref:
                self.failures.append(f"{r.op_id}: digest differs from the reference")
            elif self.reference is not None and ref is None:
                self.failures.append(f"{r.op_id}: no reference digest")


def tail(samples: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(name: str, pass_s: list[float], op_s: list[float], rows: int,
               setup_s: list[float]) -> dict:
    """The bounded end-to-end metrics from one set of times."""
    median_pass = statistics.median(pass_s)
    return {
        "pass_s": median_pass,
        "steps_per_s": rows / median_pass,
        "run_p50_ms": statistics.median(op_s) * 1e3,
        "run_tail_ms": tail(op_s, TAIL[name])[0] * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_end_to_end(name: str, passes: Passes, metrics: dict, host: dict, setups: int) -> None:
    n = len(passes.op_s)
    notes = {
        "pass_s": f"median of {len(passes.pass_s)} passes, {passes.rows} rows each",
        "run_p50_ms": f"median of {n} operations",
        "run_tail_ms": f"p{TAIL[name]} of {n} operations, {tail(passes.op_s, TAIL[name])[1]} beyond it",
        "setup_s": f"median of {setups} fresh interpreters",
        "failed_ratio": f"{len(passes.failures)} of {passes.attempted} operations",
    }
    report = dict(metrics, failed_ratio=len(passes.failures) / passes.attempted)
    for key, value in report.items():
        bits = [notes[key]] if key in notes else []
        if key in host and host[key] != value:
            bits.append(f"host {host[key]:.6g}")
        note = f"  ({'; '.join(bits)})" if bits else ""
        print(f"{key} = {value:.6g} {UNITS[key]}{note}")
    print("passes (reference-speed s / host s): " + " ".join(
        f"{p:.3f}/{h:.3f}" for p, h in zip(passes.pass_s, passes.host_pass_s)))


def per_layer(tracer, traced: Passes, plain: Passes) -> dict:
    """Per-layer metrics per traced pass; times at reference speed."""
    p = len(traced.pass_s)
    rows = traced.rows * p
    scale = 1.0 / statistics.median(traced.factors)
    calls = tracer.calls_of

    def total(*names):
        return tracer.total_of(*names) * scale

    def self_of(*names):
        return tracer.self_of(*names) * scale

    def layer_self(layer):
        return tracer.layer_self(layer) * scale

    fits = calls("lyapunov.decay_monitor")
    writes = total("cli.write_trajectory_csv", "cli.write_trajectory_json", "cli.emit_plot_data")
    return {
        "simulate.loop_s": total("simulate.run_closed_loop") / p,
        "simulate.us_per_step": total("simulate.run_closed_loop") / rows * 1e6,
        "simulate.steps": traced.rows,
        "simulate.rk4_step_calls": calls("simulate.rk4_step") / p,
        "simulate.rk4_step_self_s": self_of("simulate.rk4_step") / p,
        "dynamics.lean_accel_per_step": calls("dynamics.lean_accel") / rows,
        "dynamics.full_accel_per_step": calls("dynamics.full_accel") / rows,
        "dynamics.self_s": layer_self("dynamics") / p,
        "params.reduced_per_step": calls("params.RobotParams.reduced") / rows,
        "kinematics.line_geometry_per_step": calls("kinematics.line_geometry") / rows,
        "kinematics.polar_view_per_step": calls("kinematics.polar_view") / rows,
        "kinematics.self_s": layer_self("kinematics") / p,
        "controllers.command_per_step": calls(*COMMANDS) / rows,
        "controllers.geometry_per_step": calls("controllers.LineController.geometry") / rows,
        "controllers.command_self_s": self_of(*COMMANDS, *CONTROL_LAWS) / p,
        "switching.calls_per_step": calls(*PER_OP_COUNTS["switching.calls_per_step"]) / rows,
        "switching.self_s": layer_self("switching") / p,
        "lyapunov.lean_tracking_value_per_step": calls("lyapunov.lean_tracking_value") / rows,
        "lyapunov.decay_fit_ms": total("lyapunov.decay_monitor") / fits * 1e3 if fits else 0.0,
        "cli.csv_write_ms": total("cli.write_trajectory_csv") / p * 1e3,
        "cli.plot_write_ms": total("cli.emit_plot_data") / p * 1e3,
        "cli.write_us_per_row": writes / rows * 1e6,
        "cli.bytes_written": traced.bytes,
        "cli.json_write_ms": total("cli.write_trajectory_json") / p * 1e3,
        "cli.report_ms": total("cli.build_report") / p * 1e3,
        "scenario.parse_ms": tracer.layer_s[tracer.layers.index("scenario")] * scale / p * 1e3,
        "scenario.files": calls("scenario.parse_scenario") / p,
        "trace.overhead_ratio": statistics.median(traced.pass_s) / statistics.median(plain.pass_s),
    }


def per_op_lines(tracer, results_rows: dict[str, int]) -> list[str]:
    lines = []
    for op_id, counts in tracer.per_op_calls().items():
        rows = results_rows.get(op_id, 0)
        if not rows:
            continue
        bits = [f"{name}={sum(counts[c] for c in fns) / rows:.4f}"
                for name, fns in PER_OP_COUNTS.items()]
        lines.append(f"op {op_id} rows={rows} " + " ".join(bits))
    return lines


def load_reference(name: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE.read_text()).get(name, {})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gyrowheel" / "__init__.py").is_file():
        print(f"error: no gyrowheel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gyrowheel

    if Path(gyrowheel.__file__).resolve().parent != SRC / "gyrowheel":
        print(f"error: imported gyrowheel from {gyrowheel.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    env = _env()
    began = time.perf_counter()
    deadline = began + MAX_RUN_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
    wl.write_inputs()
    reference = load_reference(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(wl.composition())}")

    plain = Passes(wl, reference)
    if args.trace == 0:
        setup_s, host_setup_s = measure_setup(wl)
        min_ops = math.ceil(10 / (1 - TAIL[args.workload] / 100.0))
        plain.run(args.seconds, min_ops, deadline=deadline)
        metrics = end_to_end(args.workload, plain.pass_s, plain.op_s, plain.rows, setup_s)
        host = end_to_end(args.workload, plain.host_pass_s, plain.host_op_s, plain.rows,
                          host_setup_s)
        print_end_to_end(args.workload, plain, metrics, host, len(setup_s))
        passes = [plain]
    else:
        plain.run(args.seconds / 2, deadline=deadline)
        tracer = tracing.Tracer()
        traced = Passes(wl, reference)
        traced.first = plain.first  # traced outputs must match the untraced ones
        tracer.install()
        try:
            traced.run(args.seconds / 2, tracer=tracer, deadline=deadline)
        finally:
            tracer.restore()
        left = tracer.unrestored()
        if left:
            traced.failures.append(f"names not restored after tracing: {left}")
        metrics = per_layer(tracer, traced, plain)
        passes = [plain, traced]
        spans_path = WORK / f"{args.workload}_spans.tsv"
        spans = tracer.write_spans(spans_path)
        for line in per_op_lines(tracer, traced.rows_by_op):
            print(line)
        for key, value in metrics.items():
            print(f"{key} = {value:.6g} {LAYER_UNITS[key]}")
        print(f"{spans} spans of the last traced pass written to {spans_path}")

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({"digests": plain.first}, sort_keys=True))
    env["loadavg_end"] = list(os.getloadavg())
    env["run_s"] = time.perf_counter() - began
    print(json.dumps({"env": env}))
    wl.remove_inputs()
    units = UNITS if args.trace == 0 else LAYER_UNITS
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
