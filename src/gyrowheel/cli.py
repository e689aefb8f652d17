"""Command-line harness: run scenario files, write trajectories, reports, plot data.

Exit codes are a stable contract:

    0  run converged (also when steering then went singular), or --help printed
    1  state went non-finite (after convergence too), or horizon reached or
       steering went singular without convergence
    2  wheel toppled (after convergence too)
    3  inadmissible initial state
    4  usage, configuration or I/O error; every command, --help included, ends through
       run_command, so an unwritable output or a closed stdout gives 4, no traceback

Outputs per run: ``trajectory.csv`` (or ``.json``), ``report.json``, and one
``plot_<channel>.csv`` per requested channel, written by the output pass
below. All trajectory and plot files are bitwise deterministic for a given
scenario. Every float in them is its shortest ``repr``, and
``trajectory.json`` is exactly ``json.dumps(doc, indent=2, allow_nan=True)``
(non-finite values as the ``NaN``/``Infinity``/``-Infinity`` literals).
Scenario files are read with libyaml when it is present; every error text is
the pure-Python loader's. PyYAML is imported by the first scenario file parsed
(run, batch, validate), so list-channels never loads it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from array import array
from contextlib import ExitStack
from itertools import repeat
from operator import is_
from pathlib import Path

from .dynamics import WheelState
from .lyapunov import decay_monitor
from .params import replace
from .scenario import Scenario, ScenarioError, _build, parse_scenario
from .simulate import (
    CHANNEL_INFO,
    Event,
    InadmissibleStateError,
    Trajectory,
    UnknownChannelError,
    _admissibility_violation,
    _CHUNK_ROWS,
    _convergence,
    _KINDS,
    run_closed_loop,
)

__all__ = [
    "EXIT_CONVERGED",
    "EXIT_NO_CONVERGENCE",
    "EXIT_TOPPLED",
    "EXIT_INADMISSIBLE",
    "EXIT_CONFIG",
    "write_trajectory_csv",
    "write_trajectory_json",
    "emit_plot_data",
    "build_report",
    "run_scenario",
    "run_command",
    "Parser",
    "main",
]

EXIT_CONVERGED = 0
EXIT_NO_CONVERGENCE = 1
EXIT_TOPPLED = 2
EXIT_INADMISSIBLE = 3
EXIT_CONFIG = 4


def _header_cell(name: str) -> str:
    unit = CHANNEL_INFO[name][0]
    return f"{name} [{unit}]"


# the report's state record: WheelState's fields but the cached lean acceleration
_STATE_KEYS = tuple(k for k in WheelState._fields if k != "beta_ddot")


def _state_dict(state) -> dict:
    return {key: getattr(state, key) for key in _STATE_KEYS}


def _event_dict(ev: Event) -> dict:
    return {"kind": ev.kind, "time": ev.time, "detail": ev.detail}


# ------------------------------------------------------------- output pass
#
# One pass, the run loop's sink, writes a run's trajectory file and its plot
# files from the chunks of _CHUNK_ROWS rows the loop hands it, so the rows
# held at once are one chunk's. Each chunk takes one path, whatever the
# format: each shown column is formatted once, by _repr, into one list of
# strings, which every file that shows it is written from. A column chunk
# holding the same float objects as an earlier column's chunk reuses that
# column's list (identity, not ==, because -0.0 == 0.0 but their reprs
# differ), and a chunk whose values are all one object is formatted once.
# CSV and plot rows are joined in C and written as each chunk arrives.
# trajectory.json is laid out channel by channel, so a JSON run joins each
# list into one text (an aliasing column appends its source's) and holds the
# texts until the run ends; it holds one chunk's strings while it joins them.
# The files are opened at the first chunk, or at the end of a run of no row,
# so a refused run writes none. For the report the pass keeps the certificate,
# as doubles in array('d') (8 bytes a value, each double exact), and the last
# row; lyapunov.decay_monitor forms row i's time as i * dt, the loop's own
# expression, so no t series is kept.

_repr = repr  # the one formatting step: a float's shortest round-trip text
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_ITEM = ",\n      "  # between the items of a channel array in trajectory.json


def _write_rows(f, cols) -> None:
    f.write("\n".join(map(",".join, zip(*cols))) + "\n")


def _alias(chunks: list, k: int) -> int:
    """Index of the first chunk holding the same objects as chunks[k] (k itself if none)."""
    chunk = chunks[k]
    first = chunk[0]
    for j in range(k):
        other = chunks[j]
        if other[0] is first and all(map(is_, chunk, other)):
            return j
    return k


def _format(chunk: list) -> list[str]:
    first = chunk[0]
    if all(map(is_, chunk, repeat(first))):
        return [_repr(first)] * len(chunk)
    return list(map(_repr, chunk))


class _OutputPass(ExitStack):
    """The sink of a ``kind`` run that writes ``trajectory`` (a path, or None) and plot files.

    Raises UnknownChannelError, listing the valid names, before any file is
    opened if a plot channel is not a channel of the kind. Used as a context
    manager, which closes the files; finish(traj) completes them once the
    run has ended. ``paths`` holds the plot file paths in the requested order.
    build_report reads the finished pass: ``values`` (the certificate), ``last``
    (the last row by name; empty for a run of no row), and the ``events`` and
    ``final_state`` that finish was handed.
    """

    def __init__(self, kind: str, trajectory, fmt: str, plot_channels, out_dir):
        super().__init__()
        names = _KINDS[kind].channels
        plot_channels = tuple(plot_channels)
        for name in plot_channels:
            if name not in names:
                raise UnknownChannelError(name, names)
        self.names, self.trajectory = names, trajectory
        self.paths = [Path(out_dir) / f"plot_{name}.csv" for name in plot_channels]
        self.plots = dict(zip(plot_channels, self.paths))  # one file per channel
        # the formatted columns: all with a trajectory file, else t (first in names) and the
        # plotted, if any: a pass that writes no file formats nothing
        plotted = ("t", *self.plots) if self.plots else ()
        shown = names if trajectory is not None else tuple(dict.fromkeys(plotted))
        self.picked = [names.index(n) for n in shown]
        self.pairs = [shown.index(n) for n in self.plots]  # each plot file's column
        self.texts = [[] for _ in shown] if fmt == "json" and trajectory is not None else None
        self.cert = names.index(_KINDS[kind].cert)  # the channel the decay fit reads
        self.values, self.last = array("d"), {}  # what the report reads
        self.out = self.plot_files = None  # until opened

    def open_files(self) -> None:
        enter = self.enter_context
        if self.trajectory is not None:
            self.out = enter(open(self.trajectory, "w"))
        self.plot_files = []
        for name, path in self.plots.items():
            f = enter(open(path, "w"))
            f.write(f"{_header_cell('t')},{_header_cell(name)}\n")
            self.plot_files.append(f)
        if self.out is not None and self.texts is None:
            self.out.write(",".join(map(_header_cell, self.names)) + "\n")

    def __call__(self, columns: list) -> None:
        if self.plot_files is None:
            self.open_files()
        self.values.extend(columns[self.cert])
        self.last = {name: col[-1] for name, col in zip(self.names, columns)}
        chunks = [columns[i] for i in self.picked]
        aliases = [_alias(chunks, k) for k in range(len(chunks))]
        strs = []  # each shown column's strings; an aliasing column's are its source's list
        for k, j in enumerate(aliases):
            strs.append(strs[j] if j < k else _format(chunks[k]))
        if self.texts is not None:  # joined texts; an aliasing column's is its source's
            for k, j in enumerate(aliases):
                text = self.texts[j][-1] if j < k else _JSON_ITEM.join(strs[k])
                if j == k and "n" in text:  # nan, inf or -inf; no finite number's repr has an n
                    text = _JSON_ITEM.join([_JSON_NONFINITE.get(s, s) for s in strs[k]])
                self.texts[k].append(text)
        elif self.out is not None:
            _write_rows(self.out, strs)
        for f, j in zip(self.plot_files, self.pairs):
            _write_rows(f, (strs[0], strs[j]))

    def finish(self, traj: Trajectory) -> None:
        self.events, self.final_state = traj.events, traj.final_state
        if self.plot_files is None:
            self.open_files()
        if self.texts is None:
            return
        # byte for byte json.dumps(doc, indent=2, allow_nan=True): the small
        # members go through json.dumps, the channel arrays are spliced in
        head = json.dumps({
            "kind": traj.kind,
            "mode": traj.mode,
            "names": list(traj.names),
            "units": {n: CHANNEL_INFO[n][0] for n in traj.names},
        }, indent=2, allow_nan=True)
        tail = json.dumps({
            "events": [_event_dict(ev) for ev in self.events],
            "final_state": _state_dict(self.final_state) if self.final_state else None,
        }, indent=2, allow_nan=True)
        out = self.out
        out.write(head[:-2] + ',\n  "channels": {')
        for k, name in enumerate(traj.names):
            out.write(("," if k else "") + "\n    " + json.dumps(name) + ": [")
            texts = self.texts[k]
            for c, text in enumerate(texts):
                out.write((_JSON_ITEM if c else "\n      ") + text)
            out.write("\n    ]" if texts else "]")
        out.write("\n  }," + tail[1:] + "\n")


def _write_held(traj: Trajectory, trajectory, fmt: str, plot_channels, out_dir) -> _OutputPass:
    """Feed a held Trajectory to the output pass a chunk at a time; returns the finished pass."""
    with _OutputPass(traj.kind, trajectory, fmt, plot_channels, out_dir) as write:
        for start in range(0, traj.row_count, _CHUNK_ROWS):
            slices = [col[start:start + _CHUNK_ROWS] for col in traj.channels.values()]
            lists = {s.tobytes(): s.tolist() for s in slices}  # equal slices share one list
            write([lists[s.tobytes()] for s in slices])
        write.finish(traj)
    return write


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """Plain columnar text; floats via repr so repeat runs are bitwise identical."""
    _write_held(traj, path, "csv", (), None)


def write_trajectory_json(traj: Trajectory, path: Path) -> None:
    """Exactly json.dumps(doc, indent=2, allow_nan=True) of the trajectory document."""
    _write_held(traj, path, "json", (), None)


def emit_plot_data(traj: Trajectory, channels, out_dir: Path) -> list[Path]:
    """One two-column (t, channel) csv per requested channel.

    Raises UnknownChannelError, listing the valid names, if a channel does
    not exist in this trajectory; no file is written then.
    """
    return _write_held(traj, None, "csv", channels, out_dir).paths


def _status_and_exit(events: list) -> tuple[str, int]:
    terminal = events[-1].kind if events else None
    if terminal == "Toppled":
        return "toppled", EXIT_TOPPLED
    if terminal == "NonFinite":
        return "non_finite", EXIT_NO_CONVERGENCE
    if any(ev.kind == "Converged" for ev in events):
        return "converged", EXIT_CONVERGED
    if terminal == "SingularSteering":
        return "singular_steering", EXIT_NO_CONVERGENCE
    return "horizon", EXIT_NO_CONVERGENCE


def _threshold_checks(sc: Scenario, fold: _OutputPass) -> dict:
    """The run's convergence test at its last row, one entry per threshold."""
    last, nan = fold.last, math.nan
    checks = _convergence(sc.config, fold.final_state,
                          last.get("e", nan), last.get("d", nan), last.get("segment", nan))
    return {key: {"value": value, "limit": limit, "pass": passed}
            for key, (value, limit, passed) in checks.items()}


def build_report(sc: Scenario, fold: _OutputPass | None, wall_time_s: float,
                 detail: str = "") -> dict:
    """The report of a run of ``sc`` from its output pass after finish(traj), whose events
    give the status and exit code, or from None for a refused start (inadmissible, exit 3);
    a held Trajectory is read through _write_held's pass."""
    cfg = sc.config
    status, exit_code = (("inadmissible", EXIT_INADMISSIBLE) if fold is None
                         else _status_and_exit(fold.events))
    report = {
        "scenario": sc.name,
        "kind": cfg.kind,
        "mode": cfg.mode,
        "dt": cfg.dt,
        "t_end": cfg.t_end,
        "status": status,
        "exit_code": exit_code,
        "wall_time_s": wall_time_s,
    }
    if detail:
        report["detail"] = detail
    if fold is None:
        report["rows"] = 0
        report["events"] = [_event_dict(Event("DomainExit", 0.0, detail))]
        report["terminal_event"] = report["events"][0]
        report["final_state"] = _state_dict(cfg.initial)
        return report
    events = fold.events
    report["rows"] = len(fold.values)
    report["final_time"] = fold.last.get("t")
    report["events"] = [_event_dict(ev) for ev in events]
    report["terminal_event"] = _event_dict(events[-1]) if events else None
    report["final_state"] = _state_dict(fold.final_state)
    report["thresholds"] = _threshold_checks(sc, fold)
    decay = report["certificate_decay"] = decay_monitor(fold.values, cfg.dt)
    if decay is not None:
        decay["channel"] = fold.names[fold.cert]
    return report


def run_scenario(sc: Scenario, out_dir, fmt: str = "csv") -> tuple[int, dict]:
    """Run one scenario, write trajectory/report/plot files, return (exit code, report).

    The output pass is the loop's sink, so the report's wall_time_s covers
    the loop and the trajectory and plot files, in either format.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = sc.config
    path = out_dir / ("trajectory.json" if fmt == "json" else "trajectory.csv")
    start, detail = time.perf_counter(), ""
    try:
        with _OutputPass(cfg.kind, path, fmt, sc.plot_channels, out_dir) as fold:
            fold.finish(run_closed_loop(cfg, fold))
    except InadmissibleStateError as exc:  # a refused start: no file but the report
        fold, detail = None, str(exc)
    report = build_report(sc, fold, time.perf_counter() - start, detail)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report["exit_code"], report


def _apply_overrides(sc: Scenario, args) -> Scenario:
    changes = {k: v for k, v in (("dt", args.dt), ("t_end", args.t_end)) if v is not None}
    # _build re-raises SimConfig's ValueError at an override as a ScenarioError, same text
    return replace(sc, config=_build(replace, "", record=sc.config, **changes)) if changes else sc


def _summarize(report: dict) -> str:
    bits = [f"{report['scenario']}: {report['status']}", f"rows={report['rows']}"]
    terminal = report["terminal_event"]  # build_report sets both keys on every path
    if terminal:
        bits.append(f"{terminal['kind']} at t={terminal['time']:.3f}")
    bits.append(f"exit={report['exit_code']}")
    return "  ".join(bits)


def _cmd_run(args) -> int:
    sc = _apply_overrides(parse_scenario(args.scenario), args)
    out_dir = Path(args.out) if args.out else Path("runs") / sc.name
    exit_code, report = run_scenario(sc, out_dir, args.format)
    print(_summarize(report))
    print(f"wrote {out_dir}")
    return exit_code


def _cmd_batch(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():  # run_command reports it: error: <text>, exit 4
        raise NotADirectoryError(f"{root} is not a directory")
    files = sorted(p for p in root.iterdir() if p.suffix in (".yaml", ".yml"))
    if not files:
        raise FileNotFoundError(f"no scenario files in {root}")
    out_root = Path(args.out) if args.out else Path("runs")
    worst = 0
    taken = {}  # output directory (the file stem) -> the file that runs into it
    for path in files:
        try:
            if path.stem in taken:
                raise ScenarioError(f"{taken[path.stem]} already runs into {out_root / path.stem}")
            taken[path.stem] = path.name
            sc = parse_scenario(path)
        except ScenarioError as exc:
            print(f"{path.name}: config error: {exc}")
            worst = max(worst, EXIT_CONFIG)
            continue
        try:
            # key by file stem: scenario names need not be unique across files
            exit_code, report = run_scenario(sc, out_root / path.stem, args.format)
        except OSError as exc:
            print(f"{path.name}: i/o error: {exc}")
            worst = max(worst, EXIT_CONFIG)
            continue
        print(_summarize(report))
        worst = max(worst, exit_code)
    return worst


def _cmd_validate(args) -> int:
    try:
        sc = parse_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    violation = _admissibility_violation(sc.config)
    cfg = sc.config
    print(
        f"OK {sc.name}: kind={cfg.kind} mode={cfg.mode} dt={cfg.dt} "
        f"t_end={cfg.t_end} rows<={cfg.n_steps + 1}"
    )
    if violation is not None:
        print(f"inadmissible initial state: {violation}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    return EXIT_CONVERGED


def _cmd_list_channels(_args) -> int:
    for name, (unit, desc) in CHANNEL_INFO.items():
        print(f"{name:10s} [{unit:15s}] {desc}")
    return EXIT_CONVERGED


def run_command(command, *args) -> int:
    """Call ``command(*args)``, flush stdout and return its exit code; argparse's exit gives
    0 after --help, else EXIT_CONFIG, as does an OSError or ScenarioError (``error: <exc>``)."""
    try:
        try:
            exit_code = command(*args)
        except SystemExit as exc:  # argparse's: 0 after its help, 2 after a usage error
            exit_code = EXIT_CONFIG if exc.code else EXIT_CONVERGED
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early, as `| head -1` does
        # point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return exit_code


class Parser(argparse.ArgumentParser):
    """argparse's parser, whose --help into a closed stdout ends in run_command with 4."""

    def print_help(self, file=None) -> None:  # argparse's own swallows a closed stdout's error
        (file or sys.stdout).write(self.format_help())


def main(argv=None) -> int:
    parser = Parser(
        prog="gyrowheel",
        description="Deterministic closed-loop simulation runner for the "
        "single-wheel robot controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario", help="path to a scenario file")
    p_run.add_argument("--out", help="output directory (default runs/<name>)")
    p_run.add_argument("--dt", type=float, default=None, help="override step size")
    p_run.add_argument("--t-end", type=float, default=None, help="override horizon")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="trajectory file format")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run every scenario file in a directory")
    p_batch.add_argument("directory", help="directory of scenario files")
    p_batch.add_argument("--out", help="output root (default runs/)")
    p_batch.add_argument("--format", choices=("csv", "json"), default="csv")
    p_batch.set_defaults(func=_cmd_batch)

    p_val = sub.add_parser("validate", help="check a scenario file without running it")
    p_val.add_argument("scenario", help="path to a scenario file")
    p_val.set_defaults(func=_cmd_validate)

    p_list = sub.add_parser("list-channels", help="list trajectory channels")
    p_list.set_defaults(func=_cmd_list_channels)

    return run_command(lambda: (args := parser.parse_args(argv)).func(args))


if __name__ == "__main__":
    sys.exit(main())
