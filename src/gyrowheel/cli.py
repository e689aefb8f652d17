"""Command-line harness: run scenario files, write trajectories, reports, plot data.

Exit codes are a stable contract:

    0  run converged
    1  horizon reached (or steering went singular, or the state went
       non-finite) without convergence
    2  wheel toppled
    3  inadmissible initial state
    4  configuration or I/O error

Outputs per run: ``trajectory.csv`` (or ``.json``), ``report.json``, and one
``plot_<channel>.csv`` per requested channel. All trajectory and plot files
are bitwise deterministic for a given scenario. Every float in them is its
shortest ``repr``, and ``trajectory.json`` is exactly
``json.dumps(doc, indent=2, allow_nan=True)`` (non-finite values as the
``NaN``/``Infinity``/``-Infinity`` literals). One output pass writes the
trajectory and plot files of a run together, formatting each distinct value
once (a column holding an earlier column's float objects reuses its text)
and streaming the rows in fixed-size chunks. Scenario files are read with
libyaml when it is present; every error text is the pure-Python loader's.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import ExitStack
from dataclasses import replace
from itertools import compress, repeat
from operator import is_
from pathlib import Path

from .lyapunov import decay_monitor
from .scenario import Scenario, ScenarioError, parse_scenario
from .simulate import (
    CHANNEL_INFO,
    Event,
    InadmissibleStateError,
    Trajectory,
    UnknownChannelError,
    _convergence,
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


def _state_dict(state) -> dict:
    return {
        "alpha": state.alpha,
        "beta": state.beta,
        "gamma": state.gamma,
        "alpha_dot": state.alpha_dot,
        "beta_dot": state.beta_dot,
        "gamma_dot": state.gamma_dot,
        "x_a": state.x_a,
        "y_a": state.y_a,
    }


def _event_dict(ev: Event) -> dict:
    return {"kind": ev.kind, "time": ev.time, "detail": ev.detail}


# ------------------------------------------------------------- output pass
#
# One pass writes a run's trajectory file and its plot files. Each distinct
# value is formatted once, by _repr, and every file that shows it is written
# from that one string: a column chunk holding the same float objects as an
# earlier column's chunk reuses that column's strings (identity, not ==,
# because -0.0 == 0.0 but their reprs differ), and a chunk whose values are
# all one object is formatted once. Rows are joined in C and written
# _CHUNK_ROWS at a time, so the strings held at once are one chunk's.
# trajectory.json is laid out channel by channel, so there what a later
# column shows is held for the whole pass: t's strings when there are plot
# files (every plot file pairs them with its channel), and the joined text of
# a chunk that a later column aliases (its strings too if that column has a
# plot file).

_CHUNK_ROWS = 1024
_repr = repr  # the one formatting step: a float's shortest round-trip text
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_ITEM = ",\n      "  # between the items of a channel array in trajectory.json


def _write_outputs(traj: Trajectory, trajectory, fmt: str, plot_channels, out_dir) -> list[Path]:
    """Write ``trajectory`` (a path, or None for none) and plot_<channel>.csv files.

    Raises UnknownChannelError, listing the valid names, before any file is
    opened if a plot channel does not exist in this trajectory. Returns the
    plot file paths in the requested order.
    """
    plot_channels = tuple(plot_channels)
    for name in plot_channels:
        traj.channel(name)
    paths = [Path(out_dir) / f"plot_{name}.csv" for name in plot_channels]
    with ExitStack() as stack:
        out = stack.enter_context(open(trajectory, "w")) if trajectory is not None else None
        plot_files = {}
        for name, path in dict(zip(plot_channels, paths)).items():  # one file per channel
            f = plot_files[name] = stack.enter_context(open(path, "w"))
            f.write(f"{_header_cell('t')},{_header_cell(name)}\n")
        if fmt == "json" and out is not None:
            _json_pass(traj, out, plot_files)
        else:
            _csv_pass(traj, out, plot_files)
    return paths


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


def _csv_pass(traj: Trajectory, out, plot_files: dict) -> None:
    # "t" comes first in traj.names, and so in the formatted columns
    names = traj.names if out is not None else tuple(dict.fromkeys(("t", *plot_files)))
    cols = [traj.channels[n] for n in names]
    pairs = [(f, names.index(n)) for n, f in plot_files.items()]
    if out is not None:
        out.write(",".join(map(_header_cell, names)) + "\n")
    for start in range(0, traj.row_count, _CHUNK_ROWS):
        chunks = [col[start:start + _CHUNK_ROWS] for col in cols]
        strs = []
        for k, chunk in enumerate(chunks):
            j = _alias(chunks, k)
            strs.append(strs[j] if j < k else _format(chunk))
        if out is not None:
            _write_rows(out, strs)
        for f, i in pairs:
            _write_rows(f, (strs[0], strs[i]))


def _json_pass(traj: Trajectory, out, plot_files: dict) -> None:
    # byte for byte json.dumps(doc, indent=2, allow_nan=True): the small
    # members go through json.dumps, the channel arrays are spliced in
    head = json.dumps({
        "kind": traj.kind,
        "mode": traj.mode,
        "names": list(traj.names),
        "units": {n: CHANNEL_INFO[n][0] for n in traj.names},
    }, indent=2, allow_nan=True)
    tail = json.dumps({
        "events": [_event_dict(ev) for ev in traj.events],
        "final_state": _state_dict(traj.final_state) if traj.final_state else None,
    }, indent=2, allow_nan=True)
    cols = [traj.channels[n] for n in traj.names]
    starts = range(0, traj.row_count, _CHUNK_ROWS)
    # aliases[c][k]: the column whose text column k shows in chunk c
    aliases = []
    for start in starts:
        chunks = [col[start:start + _CHUNK_ROWS] for col in cols]
        aliases.append([_alias(chunks, k) for k in range(len(chunks))])
    # (j, c) -> whether a later column that shows chunk c of column j has a plot file
    shown = {}
    for c, row in enumerate(aliases):
        for k, j in enumerate(row):
            if j < k:
                shown[j, c] = shown.get((j, c), False) or traj.names[k] in plot_files
    held = {}  # (j, c) -> (text, the strings if a plot file needs them)
    times = []  # t's strings per chunk, when there are plot files
    out.write(head[:-2] + ',\n  "channels": {')
    for k, name in enumerate(traj.names):
        out.write(("," if k else "") + "\n    " + json.dumps(name) + ": [")
        col = cols[k]
        f = plot_files.get(name)
        for c, start in enumerate(starts):
            j = aliases[c][k]
            if j < k:
                text, strs = held[j, c]
            else:
                strs = _format(col[start:start + _CHUNK_ROWS])
                text = _JSON_ITEM.join(strs)
                if "n" in text:  # nan, inf or -inf; no finite number's repr has an n
                    text = _JSON_ITEM.join([_JSON_NONFINITE.get(s, s) for s in strs])
                if (k, c) in shown:
                    held[k, c] = (text, strs if shown[k, c] else None)
            if k == 0 and plot_files:  # "t" comes first in traj.names
                times.append(strs)
            out.write((_JSON_ITEM if start else "\n      ") + text)
            if f is not None:
                _write_rows(f, (times[c], strs))
        out.write("\n    ]" if starts else "]")
    out.write("\n  }," + tail[1:] + "\n")


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """Plain columnar text; floats via repr so repeat runs are bitwise identical."""
    _write_outputs(traj, path, "csv", (), None)


def write_trajectory_json(traj: Trajectory, path: Path) -> None:
    """Exactly json.dumps(doc, indent=2, allow_nan=True) of the trajectory document."""
    _write_outputs(traj, path, "json", (), None)


def emit_plot_data(traj: Trajectory, channels, out_dir: Path) -> list[Path]:
    """One two-column (t, channel) csv per requested channel.

    Raises UnknownChannelError, listing the valid names, if a channel does
    not exist in this trajectory; no file is written then.
    """
    return _write_outputs(traj, None, "csv", channels, out_dir)


def _status_and_exit(traj: Trajectory) -> tuple[str, int]:
    terminal = traj.terminal_event
    if terminal is not None and terminal.kind == "Toppled":
        return "toppled", EXIT_TOPPLED
    if terminal is not None and terminal.kind == "NonFinite":
        return "non_finite", EXIT_NO_CONVERGENCE
    if traj.converged:
        return "converged", EXIT_CONVERGED
    if terminal is not None and terminal.kind == "SingularSteering":
        return "singular_steering", EXIT_NO_CONVERGENCE
    return "horizon", EXIT_NO_CONVERGENCE


def _threshold_checks(sc: Scenario, traj: Trajectory) -> dict:
    """The run's convergence test at its last row, one entry per threshold."""
    channels = traj.channels

    def last(name):
        return channels[name][-1] if traj.row_count and name in channels else math.nan

    checks = _convergence(sc.config, traj.final_state, last("e"), last("d"), last("segment"))
    return {key: {"value": value, "limit": limit, "pass": passed}
            for key, (value, limit, passed) in checks.items()}


def _decay_summary(traj: Trajectory) -> dict | None:
    name = "V" if traj.kind == "balance" else "V1"
    values = traj.channels.get(name)
    if not values:
        return None
    times = traj.times
    if not all(map(math.isfinite, values)):  # fit the finite samples only
        finite = list(map(math.isfinite, values))
        times, values = list(compress(times, finite)), list(compress(values, finite))
        if not values:
            return None
    report = decay_monitor(times, values)
    summary = report.summary()
    summary["channel"] = name
    return summary


def build_report(
    sc: Scenario,
    traj: Trajectory | None,
    status: str,
    exit_code: int,
    wall_time_s: float,
    detail: str = "",
) -> dict:
    cfg = sc.config
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
    if traj is None:
        report["rows"] = 0
        report["events"] = [
            {"kind": "DomainExit", "time": 0.0, "detail": detail}
        ]
        report["terminal_event"] = report["events"][0]
        report["final_state"] = _state_dict(cfg.initial)
        return report
    report["rows"] = traj.row_count
    report["final_time"] = traj.times[-1] if traj.row_count else None
    report["events"] = [_event_dict(ev) for ev in traj.events]
    terminal = traj.terminal_event
    report["terminal_event"] = _event_dict(terminal) if terminal else None
    report["final_state"] = _state_dict(traj.final_state)
    report["thresholds"] = _threshold_checks(sc, traj)
    report["certificate_decay"] = _decay_summary(traj)
    return report


def run_scenario(sc: Scenario, out_dir, fmt: str = "csv") -> tuple[int, dict]:
    """Run one scenario, write trajectory/report/plot files, return (exit code, report)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        traj = run_closed_loop(sc.config)
    except InadmissibleStateError as exc:
        wall = time.perf_counter() - start
        report = build_report(sc, None, "inadmissible", EXIT_INADMISSIBLE, wall, str(exc))
        _write_report(report, out_dir)
        return EXIT_INADMISSIBLE, report
    wall = time.perf_counter() - start

    name = "trajectory.json" if fmt == "json" else "trajectory.csv"
    _write_outputs(traj, out_dir / name, fmt, sc.plot_channels, out_dir)

    status, exit_code = _status_and_exit(traj)
    report = build_report(sc, traj, status, exit_code, wall)
    _write_report(report, out_dir)
    return exit_code, report


def _write_report(report: dict, out_dir: Path) -> None:
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")


def _apply_overrides(sc: Scenario, args) -> Scenario:
    cfg = sc.config
    changes = {}
    if args.dt is not None:
        changes["dt"] = args.dt
    if args.t_end is not None:
        changes["t_end"] = args.t_end
    if changes:
        cfg = replace(cfg, **changes)
    return replace(sc, config=cfg)


def _summarize(report: dict) -> str:
    bits = [
        f"{report['scenario']}: {report['status']}",
        f"rows={report.get('rows', 0)}",
    ]
    terminal = report.get("terminal_event")
    if terminal:
        bits.append(f"{terminal['kind']} at t={terminal['time']:.3f}")
    bits.append(f"exit={report['exit_code']}")
    return "  ".join(bits)


def _cmd_run(args) -> int:
    try:
        sc = parse_scenario(args.scenario)
        sc = _apply_overrides(sc, args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out) if args.out else Path("runs") / sc.name
    try:
        exit_code, report = run_scenario(sc, out_dir, args.format)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(_summarize(report))
    print(f"wrote {out_dir}")
    return exit_code


def _cmd_batch(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return EXIT_CONFIG
    files = sorted(p for p in root.iterdir() if p.suffix in (".yaml", ".yml"))
    if not files:
        print(f"error: no scenario files in {root}", file=sys.stderr)
        return EXIT_CONFIG
    out_root = Path(args.out) if args.out else Path("runs")
    worst = 0
    for path in files:
        try:
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
    from .simulate import _admissibility_violation

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
