"""The benchmark's workloads: seeded inputs, one pass of operations, output digests.

An operation takes one scenario from input to outputs. A pass runs every
operation of a workload once, one after another, in this process. The
program is driven only through its public entry points: ``gyrowheel.cli.main``
and ``scenario_from_mapping``/``run_closed_loop``. Every call goes through
the module attribute, so the tracer's shims are picked up when installed.

Inputs are made from the seed alone. Horizons are drawn stratified over
their stated range (one draw per equal-width stratum), so the total number
of trajectory rows, and with it the work of a pass, barely depends on the
seed. Starting poses keep every tracking run short of convergence before
its horizon, so a run's length is set by its horizon, not by its outcome.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

import gyrowheel.cli as cli
import gyrowheel.scenario as scenario
import gyrowheel.simulate as simulate

BUNDLED = ("balance_default", "p2p_default", "line_5m", "corridor_demo")
DT = 1e-3
OK_CODES = (0, 1, 2)


@dataclass
class OpResult:
    """One operation's outcome within a pass."""

    op_id: str
    seconds: float
    rows: int = 0
    exit_code: int | None = None
    digest: str = ""
    error: str = ""


@dataclass
class Spec:
    """One operation's input and the exit codes it may end with."""

    op_id: str
    kind: str
    rhs: str
    expect: tuple[int, ...] = OK_CODES
    mapping: dict = field(default_factory=dict)


# ---------------------------------------------------------------- inputs


def _horizons(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n horizons, one uniform draw per equal stratum of [lo, hi], in seeded order."""
    width = (hi - lo) / n
    out = [round(lo + width * (i + rng.random()), 3) for i in range(n)]
    rng.shuffle(out)
    return out


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _balance(name, rng, t_end, k1, friction=None) -> dict:
    m = {
        "name": name,
        "kind": "balance",
        "dt": DT,
        "t_end": t_end,
        "initial": {
            "lean_offset": _signed(rng, 0.03, 0.1),
            "lean_rate": rng.uniform(-0.05, 0.05),
            "lean_accel": 0.0,
            "alpha_dot": _signed(rng, 0.8, 1.5),
        },
        "gains": {"k1": k1, "k2": rng.uniform(0.8, 1.2)},
        "thresholds": {"alpha_dot_floor": 1e-12},
    }
    if friction is not None:
        m["friction"] = friction
    return m


def _p2p(name, rng, t_end, heading_offset, lean_offset=0.02) -> dict:
    # start 4-6 m from a target near the origin, aimed at it up to the offset
    tx, ty = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    bearing = rng.uniform(-math.pi, math.pi)
    dist = rng.uniform(4.0, 6.0)
    x0, y0 = tx + dist * math.cos(bearing), ty + dist * math.sin(bearing)
    return {
        "name": name,
        "kind": "point_to_point",
        "dt": DT,
        "t_end": t_end,
        "initial": {
            "x_a": x0,
            "y_a": y0,
            "alpha": bearing + math.pi + heading_offset,
            "beta": math.pi / 2 + lean_offset,
        },
        "target": {"x": tx, "y": ty},
        "gains": {"k3": 3.0, "k4": 1.0, "k6": 20.0, "k7": 20.0},
    }


def _line_gains(rng, hard: bool) -> dict:
    gains = {"k3": rng.uniform(2.5, 3.5), "k5": rng.uniform(1.0, 1.5)}
    if hard:
        gains["hard_switching"] = True
    else:
        gains["k6"] = 20.0
        gains["k7"] = 20.0
    return gains


def _tracking(name, kind, rng, t_end, hard=False, lag=0.0) -> dict:
    # a chain of segments 5-7 m long in a random direction; the first bend
    # (corridor only) lies beyond what a short horizon reaches
    heading = rng.uniform(-math.pi, math.pi)
    points = [(0.0, 0.0)]
    legs = 1 if kind == "line" else 2
    for _ in range(legs):
        length = rng.uniform(5.0, 7.0)
        x, y = points[-1]
        points.append((x + length * math.cos(heading), y + length * math.sin(heading)))
        heading += rng.uniform(-0.4, 0.4)
    m = {
        "name": name,
        "kind": kind,
        "dt": DT,
        "t_end": t_end,
        "initial": {
            "x_a": rng.uniform(-0.1, 0.1),
            "y_a": rng.uniform(-0.1, 0.1),
            "alpha": math.atan2(points[1][1], points[1][0]) + rng.choice((0.0, math.pi)),
            "beta": math.pi / 2 + _signed(rng, 0.02, 0.06),
        },
        "waypoints": [list(p) for p in points],
        "gains": _line_gains(rng, hard),
    }
    if lag:
        m["actuator_lag"] = lag
    return m


def sweep_specs(seed: int, horizon_scale: float = 1.0) -> list[Spec]:
    """The sweep_closed_loop operations, in the style of the scripts/ studies."""
    rng = random.Random(f"sweep_closed_loop:{seed}")
    specs = []

    def horizons(n, lo, hi):
        return [h * horizon_scale for h in _horizons(rng, n, lo, hi)]

    k1s = [0.5 + 2.0 * (i + rng.random()) / 5 for i in range(5)]
    for i, (k1, t) in enumerate(zip(k1s, horizons(5, 2.0, 3.0))):
        specs.append(Spec(f"balance_k1_{i}", "balance", "reduced torque",
                          mapping=_balance(f"balance_k1_{i}", rng, t, k1)))
    for i, t in enumerate(horizons(4, 1.5, 2.5)):
        fr = {"D": rng.uniform(0.03, 0.08)}
        specs.append(Spec(f"balance_friction_{i}", "balance", "friction/full_accel",
                          mapping=_balance(f"balance_friction_{i}", rng, t, 1.0, fr)))
    offsets = [-0.05 + 0.1 * (i + rng.random()) / 5 for i in range(5)]
    for i, (off, t) in enumerate(zip(offsets, horizons(5, 2.0, 3.0))):
        specs.append(Spec(f"p2p_aim_{i}", "point_to_point", "velocity",
                          mapping=_p2p(f"p2p_aim_{i}", rng, t, off)))
    for i, t in enumerate(horizons(4, 2.0, 3.0)):
        specs.append(Spec(f"line_hard_{i}", "line", "velocity",
                          mapping=_tracking(f"line_hard_{i}", "line", rng, t, hard=True)))
    # line and corridor runs under actuator lag topple after about 1.5 s, so
    # these horizons stop short of that and the work stays set by the horizon
    for i, t in enumerate(horizons(6, 0.8, 1.3)):
        kind = "line" if i % 2 == 0 else "corridor"
        lag = round(rng.uniform(0.02, 0.1), 4)
        specs.append(Spec(f"{kind}_lag_{i}", kind, "lag",
                          mapping=_tracking(f"{kind}_lag_{i}", kind, rng, t, lag=lag)))
    return specs


def batch_specs(seed: int, horizon_scale: float = 1.0) -> list[Spec]:
    """The batch_json scenario files: all four kinds, plus files meant to fail."""
    rng = random.Random(f"batch_json:{seed}")
    specs = []
    for kind, rhs in (("balance", "reduced torque"), ("point_to_point", "velocity"),
                      ("line", "velocity"), ("corridor", "velocity")):
        for i, t in enumerate(_horizons(rng, 5, 1.0, 2.0)):
            t *= horizon_scale
            name = f"{kind}_{i}"
            if kind == "balance":
                m = _balance(name, rng, t, rng.uniform(0.5, 2.0))
            elif kind == "point_to_point":
                m = _p2p(name, rng, t, rng.uniform(-0.05, 0.05), rng.uniform(-0.03, 0.03))
            else:
                m = _tracking(name, kind, rng, t)
            specs.append(Spec(name, kind, rhs, mapping=m))
    # inadmissible: a line run starting 1 m from its segment origin (exit 3)
    m = _tracking("inadmissible_line", "line", rng, horizon_scale)
    m["initial"]["x_a"] += 1.0
    specs.append(Spec("inadmissible_line", "line", "none", (3,), m))
    # inadmissible: a balance run whose steering rate starts below its floor
    m = _balance("inadmissible_balance", rng, horizon_scale, 1.0)
    m["thresholds"]["alpha_dot_floor"] = 2.0
    specs.append(Spec("inadmissible_balance", "balance", "none", (3,), m))
    # schema errors (exit 4): an unknown key, and a gain constraint violated
    m = _p2p("schema_unknown_key", rng, horizon_scale, 0.0)
    m["gainz"] = m.pop("gains")
    specs.append(Spec("schema_unknown_key", "point_to_point", "none", (4,), m))
    m = _tracking("schema_bad_gain", "line", rng, horizon_scale)
    m["gains"]["k3"] = 1.5
    specs.append(Spec("schema_bad_gain", "line", "none", (4,), m))
    rng.shuffle(specs)
    return specs


def write_batch_dir(specs: list[Spec], directory: Path) -> list[Path]:
    """Write one YAML file per spec, named so sorted order is the spec order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, spec in enumerate(specs):
        path = directory / f"{i:03d}_{spec.op_id}.yaml"
        path.write_text(yaml.safe_dump(spec.mapping, sort_keys=False))
        paths.append(path)
    return paths


# ---------------------------------------------------------------- digests


def _report_bytes(data: bytes) -> bytes:
    report = json.loads(data)
    report.pop("wall_time_s", None)
    return json.dumps(report, sort_keys=True).encode()


def dir_digest(directory: Path) -> str:
    """SHA-256 over every output file, report.json taken without wall_time_s."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = _report_bytes(data)
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def output_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def trajectory_digest(traj) -> str:
    """SHA-256 of each channel column's repr bytes and the events."""
    h = hashlib.sha256()
    for name in traj.names:
        h.update(name.encode() + b"\0")
        h.update(",".join(map(repr, traj.channels[name])).encode() + b"\n")
    for ev in traj.events:
        h.update(f"{ev.kind}|{ev.time!r}|{ev.detail}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------- workloads


class LineClock(io.TextIOBase):
    """A stdout stand-in that stamps the time each output line ends.

    ``gyrowheel batch`` prints exactly one line per scenario file when that
    file is done. After each line the hooks run; ``ends`` holds the time
    each line ended and ``resumes`` the time the hooks returned, so
    ``ends[i] - resumes[i - 1]`` is file i's time without the hooks.
    """

    def __init__(self, *hooks):
        self.lines: list[str] = []
        self.ends: list[float] = []
        self.resumes: list[float] = []
        self._buf = ""
        self._hooks = [h for h in hooks if h is not None]

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self._buf += s
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self.ends.append(time.perf_counter())
            self.lines.append(line)
            for hook in self._hooks:
                hook()
            self.resumes.append(time.perf_counter())
        return len(s)


class Workload:
    """Base: a named list of operations and a way to run them all once."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int, horizon_scale: float = 1.0):
        self.work = work
        self.horizon_scale = horizon_scale
        self.out = work / "out"

    def setup_args(self) -> list[str]:
        """Arguments for setup_probe.py: what a fresh process loads before running."""
        raise NotImplementedError

    def composition(self) -> dict:
        kinds = sorted({s.kind for s in self.specs if s.rhs != "none"})
        rhs = sorted({s.rhs for s in self.specs if s.rhs != "none"})
        return {"ops": len(self.specs), "kinds": kinds, "rhs_paths": rhs,
                "expected_failures": sum(1 for s in self.specs if s.expect != OK_CODES)}

    def write_inputs(self) -> None:
        """Write the inputs a pass reads to the work directory."""
        self.work.mkdir(parents=True, exist_ok=True)

    def run_pass(self, tracer=None, pause=None) -> list[OpResult]:
        """Run every operation once; ``pause`` runs after each, outside its time."""
        raise NotImplementedError

    def output_bytes(self) -> int:
        return output_bytes(self.out) if self.out.is_dir() else 0

    def clean(self) -> None:
        """Remove one pass's outputs, so every pass writes fresh files."""
        shutil.rmtree(self.out, ignore_errors=True)

    def remove_inputs(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class CliRunCsv(Workload):
    name = "cli_run_csv"

    def __init__(self, root, work, seed, horizon_scale=1.0):
        super().__init__(root, work, seed, horizon_scale)
        base = root / "src" / "gyrowheel" / "scenarios"
        self.paths = [base / f"{name}.yaml" for name in BUNDLED]
        kinds = ("balance", "point_to_point", "line", "corridor")
        rhs = ("reduced torque", "velocity", "velocity", "velocity")
        self.specs = [Spec(n, k, r) for n, k, r in zip(BUNDLED, kinds, rhs)]

    def setup_args(self):
        return ["files"] + [str(p) for p in self.paths]

    def run_pass(self, tracer=None, pause=None):
        results = []
        for spec, path in zip(self.specs, self.paths):
            out_dir = self.out / spec.op_id
            argv = ["run", str(path), "--out", str(out_dir)]
            if self.horizon_scale != 1.0:
                t_end = scenario.parse_scenario(path).config.t_end * self.horizon_scale
                argv += ["--t-end", repr(t_end)]
            res = OpResult(spec.op_id, 0.0)
            sink = io.StringIO()
            ctx = tracer.operation(spec.op_id) if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with ctx, contextlib.redirect_stdout(sink):
                    res.exit_code = cli.main(argv)
            except Exception as exc:  # an escaping exception is a failed operation
                res.error = f"{type(exc).__name__}: {exc}"
            res.seconds = time.perf_counter() - start
            if pause is not None:
                pause()
            _check_run_dir(res, spec, out_dir)
            results.append(res)
        return results


def _check_run_dir(res: OpResult, spec: Spec, out_dir: Path) -> None:
    """Fill rows and digest from an operation's output directory, or record why not."""
    if res.error:
        return
    if res.exit_code not in spec.expect:
        res.error = f"exit code {res.exit_code}, expected one of {spec.expect}"
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        res.error = res.error or "missing report.json"
        return
    report = json.loads(report_path.read_text())
    if report.get("exit_code") != res.exit_code:
        res.error = res.error or (
            f"report exit code {report.get('exit_code')} != returned {res.exit_code}")
    res.rows = report.get("rows", 0)
    res.digest = dir_digest(out_dir)


class SweepClosedLoop(Workload):
    name = "sweep_closed_loop"

    def __init__(self, root, work, seed, horizon_scale=1.0):
        super().__init__(root, work, seed, horizon_scale)
        self.specs = sweep_specs(seed, horizon_scale)
        self.inputs = work / "sweep_inputs.json"

    def write_inputs(self) -> None:
        super().write_inputs()
        self.inputs.write_text(json.dumps([s.mapping for s in self.specs]))

    def setup_args(self):
        return ["mappings", str(self.inputs)]

    def run_pass(self, tracer=None, pause=None):
        results = []
        for spec in self.specs:
            res = OpResult(spec.op_id, 0.0)
            ctx = tracer.operation(spec.op_id) if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with ctx:
                    sc = scenario.scenario_from_mapping(spec.mapping)
                    traj = simulate.run_closed_loop(sc.config)
            except Exception as exc:  # an escaping exception is a failed operation
                res.error = f"{type(exc).__name__}: {exc}"
                traj = None
            res.seconds = time.perf_counter() - start
            if pause is not None:
                pause()
            if traj is not None:
                res.rows = traj.row_count
                res.digest = trajectory_digest(traj)
                if traj.terminal_event is not None and traj.terminal_event.kind == "Toppled":
                    res.exit_code = 2
                else:
                    res.exit_code = 0 if traj.converged else 1
            results.append(res)
        return results


class BatchJson(Workload):
    name = "batch_json"

    def __init__(self, root, work, seed, horizon_scale=1.0):
        super().__init__(root, work, seed, horizon_scale)
        self.specs = batch_specs(seed, horizon_scale)
        self.inputs = work / "batch_inputs"
        self.paths: list[Path] = []

    def write_inputs(self) -> None:
        super().write_inputs()
        self.paths = write_batch_dir(self.specs, self.inputs)

    def setup_args(self):
        return ["files"] + [str(p) for p in self.paths]

    def run_pass(self, tracer=None, pause=None):
        clock = LineClock(tracer.next_operation if tracer else None, pause)
        argv = ["batch", str(self.inputs), "--out", str(self.out), "--format", "json"]
        error = ""
        if tracer:
            tracer.begin_operations([s.op_id for s in self.specs])
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(clock):
                cli.main(argv)
        except Exception as exc:  # every file left without a report fails below
            error = f"batch raised {type(exc).__name__}: {exc}"
        resumes = [start] + clock.resumes
        results = []
        for i, (spec, path) in enumerate(zip(self.specs, self.paths)):
            res = OpResult(spec.op_id, 0.0)
            if i < len(clock.ends):
                res.seconds = clock.ends[i] - resumes[i]
                line = clock.lines[i]
            else:
                res.error = error or "no output line"
                results.append(res)
                continue
            if not line.startswith(f"{path.name}: config error:") and 4 in spec.expect:
                res.error = f"expected a config error line, got {line!r}"
            elif 4 in spec.expect:
                res.exit_code = 4
                res.digest = hashlib.sha256(line.encode()).hexdigest()
            else:
                out_dir = self.out / path.stem
                report_path = out_dir / "report.json"
                if report_path.is_file():
                    res.exit_code = json.loads(report_path.read_text()).get("exit_code")
                _check_run_dir(res, spec, out_dir)
            results.append(res)
        return results


WORKLOADS = {w.name: w for w in (CliRunCsv, SweepClosedLoop, BatchJson)}
