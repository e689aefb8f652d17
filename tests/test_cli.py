import contextlib
import copy
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gyrowheel import (
    FrictionParams,
    RobotParams,
    ScenarioError,
    Thresholds,
    UnknownChannelError,
    bundled_scenario_path,
    decay_monitor,
    parse_scenario,
    replace,
    run_closed_loop,
    scenario_from_mapping,
)
from gyrowheel import cli
from gyrowheel.cli import emit_plot_data, main

from conftest import failed_step_mapping, make_balance_mapping
from test_lyapunov import _loop_decay_monitor


def _write(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    return path


@pytest.fixture()
def quick_balance(tmp_path):
    # converges at t = 13.457 and stops there
    m = make_balance_mapping(t_end=20.0, stop_on_converged=True,
                             alpha_dot_floor=1e-8)
    return _write(tmp_path, "quick_balance.yaml", m)


@pytest.fixture()
def topple_case(tmp_path):
    m = make_balance_mapping(lean_offset=0.0, lean_rate=0.3, t_end=5.0)
    m["thresholds"]["topple_margin"] = 1.45
    return _write(tmp_path, "topple_case.yaml", m)


@pytest.fixture()
def inadmissible_case(tmp_path):
    return _write(
        tmp_path, "inadmissible.yaml", make_balance_mapping(lean_offset=1.5)
    )


def test_run_converged_writes_outputs(quick_balance, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(quick_balance), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "converged" in captured

    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t [s],alpha [rad],beta [rad]")

    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "converged"
    assert report["exit_code"] == 0
    assert report["terminal_event"]["kind"] == "Converged"
    assert report["terminal_event"]["time"] == pytest.approx(13.457, abs=1e-9)
    assert all(check["pass"] for check in report["thresholds"].values())
    assert report["certificate_decay"]["channel"] == "V"
    assert report["certificate_decay"]["fitted_rate"] == pytest.approx(-2.0, abs=0.01)

    # default balance plot channels, each with the t column first
    for channel in ("beta", "alpha_dot", "gamma_dot", "V"):
        plot = out / f"plot_{channel}.csv"
        assert plot.exists()
    first = (out / "plot_beta.csv").read_text().splitlines()
    assert first[0] == "t [s],beta [rad]"
    t0, beta0 = first[1].split(",")
    assert float(t0) == 0.0
    assert float(beta0) == pytest.approx(math.pi / 2 + 0.1, abs=1e-12)


def test_run_json_format(tmp_path):
    out = tmp_path / "out_json"
    code = main(
        ["run", str(bundled_scenario_path("p2p_default")), "--out", str(out),
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads((out / "trajectory.json").read_text())
    assert doc["kind"] == "point_to_point"
    assert doc["mode"] == "velocity"
    assert doc["units"]["beta"] == "rad"
    assert doc["channels"]["x_a"][0] == 3.0
    assert doc["channels"]["y_a"][0] == 4.0
    # the path ends at the target within the stop threshold
    assert math.hypot(doc["channels"]["x_a"][-1], doc["channels"]["y_a"][-1]) < 0.05
    assert not (out / "trajectory.csv").exists()


def test_run_horizon_exit(quick_balance, tmp_path):
    out = tmp_path / "short"
    code = main(["run", str(quick_balance), "--out", str(out), "--t-end", "2.0"])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "horizon"
    assert report["rows"] == 2001


def test_run_toppled_exit(topple_case, tmp_path):
    out = tmp_path / "tipped"
    assert main(["run", str(topple_case), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "toppled"
    assert report["terminal_event"]["kind"] == "Toppled"
    assert report["final_time"] == pytest.approx(0.466, abs=1e-9)


def test_run_inadmissible_exit(inadmissible_case, tmp_path):
    out = tmp_path / "rejected"
    assert main(["run", str(inadmissible_case), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "inadmissible"
    assert report["rows"] == 0
    assert report["events"][0]["kind"] == "DomainExit"
    assert "sigma" in report["events"][0]["detail"]
    assert not (out / "trajectory.csv").exists()


def _far_line(x0):
    return (
        "kind: line\n"
        "initial: {x_a: 0.0, y_a: 0.0, alpha: 0.0, beta: 1.5707963267948966}\n"
        f"waypoints: [[{x0!r}, 0.0], [0.0, 0.0]]\n"
    )


_FAR_LINE = ("initial distance {} m from the segment start exceeds "
             "the admissible radius 0.5 m")
_P2P = "kind: point_to_point\ntarget: {x: 0.0, y: 0.0}\ninitial: {x_a: 3.0, y_a: 4.0, alpha: 0.0, "


# every number in an inadmissible-start text is fixed-point below 1e6 and in
# e notation from there, so the text stays short whatever the file holds
@pytest.mark.parametrize("body, expected", [
    (_far_line(1.7e308), _FAR_LINE.format("1.7000e+308")),  # 309 digits under :.4f
    (_far_line(1e6), _FAR_LINE.format("1.0000e+06")),
    (_far_line(999999.0), _FAR_LINE.format("999999.0000")),  # below 1e6 m: fixed point
    ("kind: balance\ninitial: {beta: 1.0e+200, alpha_dot: 1.0}\n",
     "initial lean 1.000000e+200 rad outside the topple margin window (0.01, pi - 0.01)"),
    ("kind: balance\ninitial: {lean_offset: 0.05, lean_rate: 1.0e+150, alpha_dot: 1.0}\n",
     "sigma(a, b, c) = 2.707107e+150 >= pi/2 for initial lean data "
     "(0.050000, 1.000000e+150, 0.000000)"),
    (_P2P + "beta: 1.5, beta_dot: 1.0e+100}\n",
     "initial lean data outside the tracking domain: sqrt(V1) = 7.071068e+99 >= pi/2"),
    # both rate terms of the lean acceleration overflow, with opposite signs:
    # c = inf - inf, and a NaN sigma is not below pi/2, where ">=" would be false
    ("kind: balance\nparams: {M22: 0.01}\ninitial: {beta: 1.6707963267948966, "
     "alpha_dot: 1.3e+154, gamma_dot: 1.0e+200}\n",
     "sigma(a, b, c) = nan is not below pi/2 for initial lean data (0.100000, 0.000000, nan)"),
], ids=["1.7e+308-1.7000e+308", "1000000.0-1.0000e+06", "999999.0-999999.0000",
        "balance-beta-1e200", "balance-lean_rate-1e150", "p2p-beta_dot-1e100",
        "balance-sigma-nan"])
def test_inadmissible_distance_message_stays_short(body, expected, tmp_path, capsys):
    path = tmp_path / "far.yaml"
    path.write_text("name: far\nt_end: 1.0\n" + body)
    assert main(["validate", str(path)]) == 3
    message = capsys.readouterr().err.strip()
    assert message == f"inadmissible initial state: {expected}" and len(message) < 200
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["events"][0]["detail"] == expected


@pytest.mark.parametrize("name, nudge, t_end", [
    ("p2p_default", {"distance": 0}, None),
    ("p2p_default", {"distance": 1}, None),
    ("line_5m", {"distance": 0, "line_offset": 1}, None),
    ("line_5m", {"distance": 1, "line_offset": 0}, None),
    ("line_5m", {"distance": 1, "line_offset": 1}, None),
    ("corridor_demo", {"distance": 10.0, "line_offset": 1.0}, 1.0),
], ids=["p2p-e_at_distance", "p2p-e_below_distance", "line-d_at_distance",
        "line-e_at_line_offset", "line-both_below", "corridor-segment_0_of_2"])
def test_report_threshold_checks_agree_with_the_converged_event(name, nudge, t_end, tmp_path):
    # one step, each threshold set to the value the run reached (0) or one
    # ulp above it (1): the run converges on a strict e < distance (and
    # d < distance, e < line_offset), and the report passes by the same test.
    # With a t_end, the thresholds are the given limits; a corridor still on
    # its first segment then has both distances below them, but only the
    # last segment converges the run, so its distance check fails
    sc = parse_scenario(bundled_scenario_path(name))
    cfg = replace(sc.config, t_end=t_end or sc.config.dt)
    reached = run_closed_loop(cfg).channels
    source = {"distance": "d" if "d" in reached else "e", "line_offset": "e"}
    if t_end is None:
        limits = {key: reached[source[key]][-1] for key in nudge}
        limits = {key: math.nextafter(v, math.inf) if nudge[key] else v
                  for key, v in limits.items()}
        passes = {key: bool(v) for key, v in nudge.items()}
    else:
        limits = nudge
        assert reached["segment"][-1] == 0.0
        assert all(reached[source[key]][-1] < limit for key, limit in limits.items())
        passes = {"distance": False, "line_offset": True}
    cfg = replace(cfg, thresholds=replace(cfg.thresholds, **limits))
    code, report = cli.run_scenario(replace(sc, config=cfg), tmp_path)
    converged = all(passes.values())
    assert code == (0 if converged else 1)
    assert report["status"] == ("converged" if converged else "horizon")
    assert [ev["kind"] for ev in report["events"]] == (["Converged"] if converged else [])
    checks = report["thresholds"]
    assert {key: checks[key]["pass"] for key in nudge} == passes
    assert {key: checks[key]["limit"] for key in nudge} == limits


@pytest.mark.parametrize("name", ["balance_default", "p2p_default", "line_5m", "corridor_demo"])
def test_report_passes_every_threshold_exactly_when_converged(name, tmp_path):
    # the bundled run as shipped converges; a horizon at half its converged
    # time, and one a step short of it, end it first
    sc = parse_scenario(bundled_scenario_path(name))
    code, report = cli.run_scenario(sc, tmp_path / "full")
    assert report["status"] == "converged" and code == 0
    assert all(check["pass"] for check in report["thresholds"].values())
    t_converged = report["final_time"]
    for i, t_end in enumerate((t_converged / 2, t_converged - sc.config.dt)):
        cut = replace(sc, config=replace(sc.config, t_end=t_end))
        code, report = cli.run_scenario(cut, tmp_path / f"cut{i}")
        assert report["status"] == "horizon" and code == 1
        assert not all(check["pass"] for check in report["thresholds"].values())


def test_run_config_error_exits(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text("kind: [unclosed\n")
    assert main(["run", str(bad)]) == 4
    assert "error" in capsys.readouterr().err

    gains = make_balance_mapping()
    gains["kind"] = "point_to_point"
    gains["target"] = {"x": 0.0, "y": 0.0}
    gains["initial"] = {"x_a": 3.0, "y_a": 4.0, "alpha": 0.9}
    gains["gains"] = {"k3": 1.0, "k4": 1.0}
    bad_gain = _write(tmp_path, "bad_gain.yaml", gains)
    assert main(["run", str(bad_gain)]) == 4
    assert "k3 > 2" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.yaml")]) == 4


def test_run_dt_override(quick_balance, tmp_path):
    out = tmp_path / "coarse"
    code = main(
        ["run", str(quick_balance), "--out", str(out), "--dt", "0.01",
         "--t-end", "1.0"]
    )
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["rows"] == 101
    assert report["dt"] == 0.01


def test_run_with_underflowing_times_fits_no_rate(tmp_path):
    # the squares of the times' spread (about 1e-600) underflow to 0, so the
    # decay fit has no rate; the run still ends with its exit code and report
    out = tmp_path / "tiny"
    code = main(["run", str(bundled_scenario_path("balance_default")), "--out", str(out),
                 "--dt", "1e-300", "--t-end", "1e-299"])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == 1
    assert report["rows"] == 11
    assert report["certificate_decay"]["fitted_rate"] is None


@pytest.mark.parametrize("dt, t_end", [("1e-155", "1e-154"), ("1e-158", "1e-157"),
                                       ("1e-150", "1e-149")])
def test_run_with_times_too_close_for_log_v_to_change_fits_no_rate(tmp_path, dt, t_end):
    # log V moves by no more than its rounding across these spans, so any
    # slope fitted to it (2e123, -2e126 and 0.0 here) is noise: no rate
    out = tmp_path / "tiny"
    code = main(["run", str(bundled_scenario_path("balance_default")), "--out", str(out),
                 "--dt", dt, "--t-end", t_end])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["rows"] == 11
    assert report["certificate_decay"]["fitted_rate"] is None


def test_validate_accepts_bundled(capsys):
    for name in ("balance_default", "p2p_default", "line_5m", "corridor_demo"):
        assert main(["validate", str(bundled_scenario_path(name))]) == 0
        assert "OK" in capsys.readouterr().out


def test_validate_flags_inadmissible(inadmissible_case, capsys):
    assert main(["validate", str(inadmissible_case)]) == 3
    assert "sigma" in capsys.readouterr().err


def test_validate_flags_config_error(tmp_path, capsys):
    bad = tmp_path / "nonsense.yaml"
    bad.write_text("42\n")
    assert main(["validate", str(bad)]) == 4
    assert "invalid" in capsys.readouterr().err


def test_batch_runs_all_and_returns_worst(quick_balance, topple_case, tmp_path, capsys):
    batch_dir = tmp_path / "suite"
    batch_dir.mkdir()
    shutil.copy(quick_balance, batch_dir / "a_quick.yaml")
    shutil.copy(topple_case, batch_dir / "b_topple.yaml")
    out = tmp_path / "batch_out"
    assert main(["batch", str(batch_dir), "--out", str(out)]) == 2
    assert (out / "a_quick" / "report.json").exists()
    assert (out / "b_topple" / "report.json").exists()
    printed = capsys.readouterr().out
    assert "converged" in printed and "toppled" in printed


def test_batch_files_sharing_a_stem_do_not_share_an_output_directory(
        quick_balance, topple_case, tmp_path, capsys):
    batch_dir = tmp_path / "suite"
    batch_dir.mkdir()
    shutil.copy(topple_case, batch_dir / "a.yaml")
    shutil.copy(quick_balance, batch_dir / "a.yml")
    out = tmp_path / "batch_out"
    assert main(["batch", str(batch_dir), "--out", str(out)]) == 4
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith("balance_test: toppled")
    assert second == f"a.yml: config error: a.yaml already runs into {out / 'a'}"
    assert [p.name for p in out.iterdir()] == ["a"]
    assert json.loads((out / "a" / "report.json").read_text())["status"] == "toppled"


@pytest.mark.parametrize("name", ["../escaped", "<absolute>", "a\0b", "a\ud800b"])
def test_a_name_that_is_not_a_plain_file_name_is_a_config_error(name, tmp_path, monkeypatch,
                                                                capsys):
    # run without --out writes to runs/<name>: a name holding a path must not place files
    if name == "<absolute>":
        name = str(tmp_path / "absolute")
    m = make_balance_mapping(t_end=0.01)
    m["name"] = name
    path = _write(tmp_path, "named.yaml", m)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["run", str(path)]) == 4
    assert main(["validate", str(path)]) == 4
    assert capsys.readouterr().err.count("name: expected a plain file name, got '") == 2
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["named.yaml", "work"]


@pytest.mark.parametrize("name", ["x" * 256, "é" * 128])
def test_a_name_longer_than_a_file_name_is_a_config_error(name, tmp_path, monkeypatch, capsys):
    # 256 bytes, in one- and two-byte characters: past the 255-byte file names of common
    # file systems, so runs/<name> could not be made
    m = make_balance_mapping(t_end=0.01)
    m["name"] = name
    path = _write(tmp_path, "named.yaml", m)
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(path)]) == 4
    assert main(["validate", str(path)]) == 4
    assert capsys.readouterr().err.count("name: expected at most 255 UTF-8 bytes, got 256") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["named.yaml"]
    m["name"] = name[:-1] if name[0] == "x" else name[:-1] + "x"  # 255 bytes
    assert scenario_from_mapping(m).name == m["name"]


def test_a_default_name_that_is_not_a_file_name_says_where_it_came_from(tmp_path, capsys):
    # a file with no name key is named after its stem, and the stem of "..yaml" is "."
    m = make_balance_mapping(t_end=0.01)
    del m["name"]
    path = _write(tmp_path, "..yaml", m)
    assert main(["validate", str(path)]) == 4
    assert ("name: expected a plain file name, got '.' (no name key: the default taken from "
            "the file name)") in capsys.readouterr().err


def test_batch_rejects_missing_dir(tmp_path, capsys):
    assert main(["batch", str(tmp_path / "nowhere")]) == 4
    assert "error" in capsys.readouterr().err


def test_batch_empty_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["batch", str(empty)]) == 4


def test_list_channels(capsys):
    assert main(["list-channels"]) == 0
    out = capsys.readouterr().out
    assert "beta" in out
    assert "rad" in out
    assert "u_steer" in out


def test_emit_plot_data_unknown_channel(balance_traj_5s, tmp_path):
    with pytest.raises(UnknownChannelError) as exc:
        emit_plot_data(balance_traj_5s, ["bogus"], tmp_path)
    msg = str(exc.value)
    assert "bogus" in msg and "beta" in msg
    # checked before any file is opened: no half-written plot set
    with pytest.raises(UnknownChannelError):
        emit_plot_data(balance_traj_5s, ["beta", "t", "bogus"], tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from gyrowheel.cli import main; sys.exit(main(['list-channels']))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "beta" in proc.stdout


def test_run_non_finite_exit(tmp_path):
    # schema-valid, but the first RK4 step overflows (u6 ~ 1/alpha_dot)
    path = tmp_path / "non_finite.yaml"
    path.write_text(
        "name: non_finite\n"
        "kind: balance\n"
        "dt: 0.001\n"
        "t_end: 1.0\n"
        "initial: {lean_offset: 0.05, alpha_dot: 1.0e-200}\n"
        "thresholds: {alpha_dot_floor: 1.0e-300}\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "non_finite"
    assert report["exit_code"] == 1
    assert report["terminal_event"]["kind"] == "NonFinite"
    assert report["rows"] >= 1
    assert report["final_time"] == report["terminal_event"]["time"]
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == report["rows"] + 1


@pytest.mark.parametrize("stepper", ["torque", "friction", "velocity", "lag"])
def test_a_failed_step_exits_non_finite(stepper, tmp_path):
    path = _write(tmp_path, "failed_step.yaml", failed_step_mapping(stepper))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "non_finite" and report["exit_code"] == 1
    assert [ev["kind"] for ev in report["events"]] == ["NonFinite"]
    assert report["terminal_event"]["detail"] == "an RK4 stage produced a NaN or an infinity"
    assert report["final_time"] == report["terminal_event"]["time"]
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == report["rows"] + 1


def test_run_lean_leaving_open_interval_in_a_friction_step_topples(tmp_path):
    # schema-valid; inside one friction step a stage lean leaves (0, pi)
    path = tmp_path / "flat_stage.yaml"
    path.write_text(
        "name: flat_stage\n"
        "kind: balance\n"
        "t_end: 5.0\n"
        "friction: {}\n"
        "initial: {lean_offset: 0.1, alpha_dot: 1.0e-3}\n"
        "thresholds: {alpha_dot_floor: 1.0e-9}\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "toppled"
    assert report["exit_code"] == 2
    terminal = report["terminal_event"]
    assert terminal["kind"] == "Toppled"
    assert "outside (0, pi)" in terminal["detail"]
    assert report["rows"] >= 1
    assert report["final_time"] == terminal["time"]
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == report["rows"] + 1


@pytest.mark.parametrize("command", ["run", "validate"])
def test_zero_alpha_dot_floor_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "zero_floor.yaml"
    path.write_text(
        "name: zero_floor\n"
        "kind: balance\n"
        "t_end: 1.0\n"
        "initial: {beta: 1.5707963267948966, alpha_dot: 0.0}\n"
        "thresholds: {alpha_dot_floor: 0.0}\n"
    )
    out = tmp_path / "out"
    argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 4
    assert "thresholds: threshold alpha_dot_floor must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha_dot", ["1.0e-310", "1.0e+200"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_alpha_dot_without_a_finite_gamma_dot_is_a_config_error(tmp_path, capsys, command,
                                                                alpha_dot):
    # the balance lean form derives gamma_dot ~ 1/alpha_dot; tiny or huge alpha_dot overflows it
    path = tmp_path / "extreme_alpha_dot.yaml"
    path.write_text(
        "name: extreme_alpha_dot\n"
        "kind: balance\n"
        "dt: 0.001\n"
        "t_end: 0.1\n"
        f"initial: {{lean_offset: 0.1, alpha_dot: {alpha_dot}}}\n"
        "thresholds: {alpha_dot_floor: 1.0e-320}\n"
    )
    out = tmp_path / "out"
    argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "initial: alpha_dot = " in err and "finite gamma_dot" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_raw_alpha_dot_whose_square_overflows_is_a_config_error(tmp_path, capsys, command):
    # the raw form takes alpha_dot as given; the lean acceleration squares it
    path = tmp_path / "huge_alpha_dot.yaml"
    path.write_text(
        "name: huge_alpha_dot\n"
        "kind: balance\n"
        "dt: 0.001\n"
        "t_end: 0.1\n"
        "initial: {beta: 1.6, alpha_dot: 1.0e+200}\n"
    )
    out = tmp_path / "out"
    argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 4
    assert "initial.alpha_dot: 1e+200 is too large" in capsys.readouterr().err
    assert not out.exists()


_NON_FINITE_FILES = {
    # a line file whose heading is infinite: once a math domain error in the chart
    "line_alpha_inf": (
        "kind: line\nt_end: 0.1\ninitial: {x_a: 0.0, y_a: 0.0, alpha: .inf}\n"
        "waypoints: [[0.0, 0.0], [1.0, 0.0]]\n",
        "initial.alpha: expected a finite number, got inf",
    ),
    # an infinite horizon: once an OverflowError counting the steps
    "t_end_inf": (
        "kind: balance\nt_end: .inf\ninitial: {beta: 1.6, alpha_dot: 1.0}\n",
        "scenario.t_end: expected a finite number, got inf",
    ),
    # a NaN steering rate: once a NonFinite event at t = 0, exit 1
    "alpha_dot_nan": (
        "kind: balance\nt_end: 0.1\ninitial: {beta: 1.6, alpha_dot: .nan}\n",
        "initial.alpha_dot: expected a finite number, got nan",
    ),
    "waypoint_minus_inf": (
        "kind: line\nt_end: 0.1\ninitial: {x_a: 0.0, y_a: 0.0, alpha: 0.0}\n"
        "waypoints: [[0.0, 0.0], [1.0, -.inf]]\n",
        "waypoints[1][1]: expected a finite number, got -inf",
    ),
    "friction_nan": (
        "kind: balance\nt_end: 0.1\ninitial: {beta: 1.6, alpha_dot: 1.0}\n"
        "friction: {mu_v: [0.0, .nan, 0.0]}\n",
        "friction.mu_v[1]: expected a finite number, got nan",
    ),
    "integer_beyond_floats": (
        "kind: balance\nt_end: 1" + "0" * 400 + "\ninitial: {beta: 1.6, alpha_dot: 1.0}\n",
        "scenario.t_end: expected a finite number, got 1" + "0" * 400,
    ),
    "steps_beyond_floats": (
        "kind: balance\ndt: 1.0e-300\nt_end: 1.0e+300\ninitial: {beta: 1.6, alpha_dot: 1.0}\n",
        "t_end: t_end / dt = 1e+300 / 1e-300 is beyond the float range",
    ),
    "params_beyond_floats": (
        "kind: balance\nt_end: 0.1\nparams: {R: 1.0e+200}\n"
        "initial: {beta: 1.6, alpha_dot: 1.0}\n",
        "params: the lean inertia M22 and the reduced coefficients Gm, Im, Jm must be finite",
    ),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE_FILES))
@pytest.mark.parametrize("command", ["run", "validate"])
def test_numbers_beyond_the_float_range_are_config_errors(tmp_path, capsys, command, name):
    text, message = _NON_FINITE_FILES[name]
    path = tmp_path / f"{name}.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


_UNREADABLE_FILES = {
    # a byte that is not UTF-8: once a UnicodeDecodeError from reading the file
    "non_utf8": (
        b"name: x\nkind: bal\xffance\n", "cannot read scenario file {path}: 'utf-8' codec",
    ),
    # an integer past Python's 4,300-digit int-string limit: once a ValueError in the loader
    "int_past_str_limit": (
        b"kind: balance\nt_end: 1" + b"0" * 4400 + b"\ninitial: {beta: 1.6, alpha_dot: 1.0}\n",
        "{path}: malformed scenario file: Exceeds the limit (4300 digits)",
    ),
    # nesting deeper than the pure-Python loader (a tag sends the text there) can recurse
    "nested_past_recursion": (
        b"kind: !!seq " + b"[" * 1000 + b"]" * 1000 + b"\nt_end: 1\n",
        "{path}: malformed scenario file: maximum recursion depth exceeded",
    ),
}


@pytest.mark.parametrize("name", sorted(_UNREADABLE_FILES))
@pytest.mark.parametrize("command", ["run", "validate", "batch"])
def test_unreadable_scenario_text_is_a_config_error(quick_balance, tmp_path, capsys, command, name):
    data, message = _UNREADABLE_FILES[name]
    suite = tmp_path / "suite"
    suite.mkdir()
    path = suite / f"a_{name}.yaml"
    path.write_bytes(data)
    out = tmp_path / "out"
    if command == "batch":  # the batch reports the file and goes on to the next
        shutil.copy(quick_balance, suite / "b_quick.yaml")
        assert main(["batch", str(suite), "--out", str(out)]) == 4
        printed = capsys.readouterr().out
        assert f"{path.name}: config error: " + message.format(path=path) in printed
        assert "balance_test: converged" in printed
        assert (out / "b_quick" / "report.json").exists()
        assert not (out / path.stem).exists()
        return
    argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert message.format(path=path) in err and "Traceback" not in err
    assert not out.exists()


_B = "kind: balance\nt_end: 1\ninitial: {beta: 1.6, alpha_dot: 1.0}\n"
_LONG = "{}...{}".format("y" * 27, "y" * 28)


# a value a schema error echoes is cut to a bounded length and depth; numbers keep their text
@pytest.mark.parametrize("body, expected", [
    ("kind: " + "[" * 1000 + "]" * 1000 + "\nt_end: 1\n",
     "kind: expected one of balance, point_to_point, line, corridor, got [[[[[[[...]]]]]]]"),
    ("kind: " + "[" * 500 + "]" * 500 + "\nt_end: 1\n",
     "kind: expected one of balance, point_to_point, line, corridor, got [[[[[[[...]]]]]]]"),
    ("name: " + "{a: " * 500 + "1" + "}" * 500 + "\n" + _B,
     "name: expected a non-empty string, got {'a': {'a': {'a': {'a': {'a': {'a': {...}}}}}}}"),
    (_B + "mode: " + "y" * 5000 + "\n",
     f"mode: kind 'balance' runs in 'torque' mode, got '{_LONG}'"),
    (_B + "stop_on_converged: [" + ", ".join(map(str, range(1000))) + "]\n",
     "scenario.stop_on_converged: expected true/false, got [0, 1, 2, 3, 4, 5, ...]"),
    (_B + "stop_on_converged: 1" + "0" * 400 + "\n",
     "scenario.stop_on_converged: expected true/false, got 1" + "0" * 400),
    (_B + "plot_channels: [" + "[" * 300 + "]" * 300 + "]\n",
     "plot_channels: expected a name, got [[[[[[[...]]]]]]]"),
    (_B + "plot_channels: [" + "y" * 5000 + "]\n",
     f"plot_channels: unknown channel '{_LONG}' for kind 'balance'; valid channels: "
     "t, alpha, beta, gamma, alpha_dot, beta_dot, gamma_dot, beta_ddot, x_a, y_a, "
     "u_steer, u_drive, V"),
    ("kind: balance\nt_end: " + "y" * 5000 + "\n",
     f"scenario.t_end: expected a number, got '{_LONG}'"),
], ids=["kind-nested-1000", "kind-nested-500", "name-nested", "mode-long", "bool-list",
        "bool-integer", "plot_channels-nested", "plot_channels-long", "number-long"])
def test_schema_errors_echo_bounded_values(body, expected, tmp_path, capsys):
    path = tmp_path / "echo.yaml"
    path.write_text(body)
    assert main(["validate", str(path)]) == 4
    assert capsys.readouterr().err == f"invalid: {expected}\n"


@pytest.mark.parametrize("override, message", [
    (["--t-end", "inf"], "error: t_end: must be finite, got inf"),
    (["--dt", "nan"], "error: dt: must be finite, got nan"),
    (["--dt", "1e-320"], "error: t_end: t_end / dt = 20.0 / 1e-320 is beyond the float range"),
])
def test_non_finite_overrides_are_config_errors(tmp_path, capsys, override, message):
    out = tmp_path / "out"
    argv = ["run", str(bundled_scenario_path("balance_default")), "--out", str(out)]
    assert main(argv + override) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_distance_whose_square_overflows_ends_non_finite(tmp_path):
    # finite, schema-valid, but e**2 in the certificate is beyond the float range
    path = tmp_path / "far.yaml"
    path.write_text(
        "kind: point_to_point\nt_end: 0.1\n"
        "initial: {x_a: 0.0, y_a: -1.0e+300, alpha: 0.0}\ntarget: {x: 0.0, y: 0.0}\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "non_finite" and report["rows"] == 0
    assert report["terminal_event"] == {
        "kind": "NonFinite", "time": 0.0, "detail": "a value of this row is beyond the float range",
    }


# schema-valid files whose parameters underflow a divisor of a law to 0
_UNDERFLOWS = {
    "jm": ("kind: point_to_point\nt_end: 0.1\n"
           "params: {M22: 1.0e+300, Ix: 1.0e-300, m: 1.0e-300}\n"
           "initial: {x_a: 1, y_a: 0, alpha: 0}\ntarget: {x: 0, y: 0}\n", None),
    "h3": ("kind: balance\nt_end: 0.1\nparams: {M22: 1.0e+300}\n"
           "initial: {beta: 1.5707963267948966, beta_dot: 0, gamma_dot: 0, alpha_dot: 1.0e-318}\n"
           "thresholds: {alpha_dot_floor: 1.0e-320}\n",
           "steering rate is zero: rolling-channel gain h3 vanished"),
    "drive_floor": ("kind: point_to_point\nt_end: 0.1\nparams: {M22: 1.0e+300}\n"
                    "initial: {x_a: 1, y_a: 0, alpha: 0, beta: 1.0e-30, "
                    "beta_dot: 1.5707963267948966}\n"
                    "target: {x: 0, y: 0}\nthresholds: {topple_margin: 1.0e-31}\n",
                    "float division by zero"),
}


@pytest.mark.parametrize("name", _UNDERFLOWS)
def test_underflowed_divisor_is_refused_or_ends_non_finite(tmp_path, capsys, name):
    text, error = _UNDERFLOWS[name]
    path = tmp_path / f"{name}.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out)])
    if error is None:  # Jm = 0 is refused with the parameters
        assert code == 4 and main(["validate", str(path)]) == 4
        assert "params: the reduced coefficient Jm must be positive" in capsys.readouterr().err
        assert not out.exists()
        return
    assert code == 1 and main(["validate", str(path)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "non_finite" and report["rows"] == 0
    assert report["terminal_event"] == {
        "kind": "NonFinite", "time": 0.0,
        "detail": f"the command's divisor underflowed to 0: {error}",
    }


# ------------------------------------------- exit-code contract, property form


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


def _signed(magnitudes):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitudes).map(lambda p: p[0] * p[1])


@st.composite
def _schema_valid_mappings(draw):
    kind = draw(st.sampled_from(["balance", "point_to_point", "line", "corridor"]))
    dt = draw(st.sampled_from([1e-3, 5e-3, 0.02]))
    m = {
        "name": "prop",
        "kind": kind,
        "dt": dt,
        "t_end": draw(st.floats(dt, 0.3)),
        "stop_on_converged": draw(st.booleans()),
        "thresholds": {"alpha_dot_floor": draw(_log_uniform(-12.0, -1.0))},
    }
    up = math.pi / 2
    if kind == "balance":
        alpha_dot = draw(_signed(_log_uniform(-9.0, 0.5)))
        if draw(st.booleans()):
            m["initial"] = {
                "lean_offset": draw(st.floats(-0.3, 0.3)),
                "lean_rate": draw(st.floats(-0.5, 0.5)),
                "lean_accel": draw(st.floats(-0.5, 0.5)),
                "alpha_dot": alpha_dot,
            }
        else:
            m["initial"] = {
                "beta": up + draw(st.floats(-0.5, 0.5)),
                "beta_dot": draw(st.floats(-0.5, 0.5)),
                "gamma_dot": draw(st.floats(-3.0, 3.0)),
                "alpha_dot": alpha_dot,
            }
        m["gains"] = {"k1": draw(st.floats(0.0, 3.0)), "k2": draw(st.floats(0.1, 3.0))}
        if draw(st.booleans()):
            m["friction"] = draw(st.sampled_from([{}, {"D": 0.01}, {"mu_v": [0.0, 0.0, 0.0]}]))
        return m
    m["initial"] = {
        "x_a": draw(st.floats(-0.4, 0.4)),
        "y_a": draw(st.floats(-0.4, 0.4)),
        "alpha": draw(st.floats(-math.pi, math.pi)),
        "beta": up + draw(st.floats(-0.35, 0.35)),
        "beta_dot": draw(st.floats(-0.5, 0.5)),
    }
    k3 = draw(st.floats(2.05, 5.0))
    gains = {"k3": k3}
    if kind == "point_to_point":
        m["target"] = {"x": draw(st.floats(-3.0, 3.0)), "y": draw(st.floats(-3.0, 3.0))}
        gains["k4"] = (k3 - 1.0) * draw(st.floats(0.05, 0.95))
    else:
        legs = 1 if kind == "line" else draw(st.integers(1, 3))
        points = [[0.0, 0.0]]
        for _ in range(legs):
            heading = draw(st.floats(-math.pi, math.pi))
            length = draw(st.floats(0.05, 3.0))
            x, y = points[-1]
            points.append([x + length * math.cos(heading), y + length * math.sin(heading)])
        m["waypoints"] = points
        gains["k5"] = draw(st.floats(0.05, 3.0))
    if draw(st.booleans()):
        gains["hard_switching"] = True
    else:
        gains["k6"] = draw(_log_uniform(-1.0, 2.0))
        gains["k7"] = draw(_log_uniform(-1.0, 2.0))
    m["gains"] = gains
    if draw(st.booleans()):
        m["actuator_lag"] = draw(_log_uniform(-4.0, -0.5))
    return m


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mapping=_schema_valid_mappings())
def test_every_schema_valid_run_exits_in_contract_with_a_report(mapping):
    try:
        scenario_from_mapping(mapping)
    except ScenarioError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), "prop.yaml", mapping)
        out = Path(tmp) / "out"
        code = main(["run", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3, 4)
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == code


# ------------------------------ exit-code contract, extreme numbers, property form

# the float limits and numbers beyond them: a 400-digit YAML integer does
# not fit a float
_BEYOND = (math.inf, -math.inf, math.nan, 10**400, -(10**400))
_NEAR_LIMIT = (
    sys.float_info.max, -sys.float_info.max, 1e300, -1e300,
    sys.float_info.min, -sys.float_info.min, 5e-324, -5e-324,
)
_SHORT_RUN_ROWS = 2000  # a run is started only when it has at most this many rows


def _with_every_numeric_key(m):
    """The mapping with each optional numeric key it can take: defaults, rate limits 1e3."""
    m = copy.deepcopy(m)
    p = RobotParams()
    m["params"] = {"m": p.m, "R": p.R, "Ix": p.Ix, "g": p.g, "M22": p.M22}
    defaults = Thresholds()
    m["thresholds"] = {
        **{k: getattr(defaults, k) for k in defaults._fields}, **m["thresholds"],
    }
    m.setdefault("actuator_lag", 0.0)
    for key in ("alpha", "gamma", "x_a", "y_a") if m["kind"] == "balance" else ("gamma",):
        m["initial"].setdefault(key, 0.0)
    if "friction" in m:
        f = FrictionParams()
        m["friction"] = {"mu_v": list(f.mu_v), "mu_d": list(f.mu_d), "mu_s": list(f.mu_s),
                         "D": f.D}
    if m["kind"] != "balance":
        m["rate_limits"] = {"alpha_dot_max": 1e3, "gamma_dot_max": 1e3}
    return m


def _numeric_paths(node, path=()):
    """The key path of every number in a mapping, list indices included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numeric_paths(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


def _key_text(path):
    """The key as a ScenarioError names it: scenario.dt, initial.alpha, waypoints[1][0]."""
    if len(path) == 1:
        return f"scenario.{path[0]}"
    text = path[0]
    for key in path[1:]:
        text += f"[{key}]" if isinstance(key, int) else f".{key}"
    return text


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_extreme_numbers_are_refused_or_run_in_contract(data):
    mapping = data.draw(_schema_valid_mappings())
    try:
        scenario_from_mapping(mapping)
    except ScenarioError:
        assume(False)
    mapping = _with_every_numeric_key(mapping)
    path = data.draw(st.sampled_from(sorted(_numeric_paths(mapping), key=repr)))
    if path[0] != "rate_limits":
        mapping.pop("rate_limits", None)  # so that a huge target or gain reaches the run
    value = data.draw(st.sampled_from(_BEYOND + _NEAR_LIMIT))
    node = mapping
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value

    with tempfile.TemporaryDirectory() as tmp:
        scenario = _write(Path(tmp), "extreme.yaml", mapping)
        out = Path(tmp) / "out"
        if value in _BEYOND:
            # refused at parse time, naming the key; nothing is run
            message = f"{_key_text(path)}: expected a finite number"
            with pytest.raises(ScenarioError, match=re.escape(message)):
                scenario_from_mapping(mapping)
            for argv in (["validate", str(scenario)], ["run", str(scenario), "--out", str(out)]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    assert main(argv) == 4
                assert message in err.getvalue()
            assert not out.exists()
            return
        assert main(["validate", str(scenario)]) in (0, 3, 4)
        try:
            sc = scenario_from_mapping(mapping)
        except ScenarioError:
            assert main(["run", str(scenario), "--out", str(out)]) == 4
            assert not out.exists()
            return
        if sc.config.n_steps >= _SHORT_RUN_ROWS:
            return  # a long or huge run: never started here
        code = main(["run", str(scenario), "--out", str(out)])
        assert code in (0, 1, 2, 3, 4)
        assert json.loads((out / "report.json").read_text())["exit_code"] == code


# --------------------------------------------------- certificate decay summary


_BUNDLED = ("balance_default", "p2p_default", "line_5m", "corridor_demo")


def _decay_case(case):
    """A decay case's scenario, run to 0.3 s, and its library trajectory, whose
    certificate is spoiled as the case says."""
    if case == "nonfinite_line_start":
        # admissible, as a line start checks only radius and lean; its one row holds
        # V1 = inf, and the run ends NonFinite at 0.001 s
        mapping = yaml.safe_load(bundled_scenario_path("line_5m").read_text())
        mapping["initial"] = {"x_a": 0.0, "y_a": 0.0, "alpha": 0.0,
                              "beta": math.pi / 2, "beta_dot": 1e200}
        sc = scenario_from_mapping(mapping)
    elif case in _BUNDLED or case == "edges_p2p":
        sc = parse_scenario(bundled_scenario_path("p2p_default" if case == "edges_p2p" else case))
    else:
        sc = scenario_from_mapping(make_balance_mapping(t_end=0.3))
    sc = replace(sc, config=replace(sc.config, t_end=0.3))
    traj = run_closed_loop(sc.config)
    v = traj.channels[cli._KINDS[sc.config.kind].cert]
    if case == "some":
        v[0], v[7], v[-1] = math.nan, math.inf, -math.inf
    elif case == "all":
        v[:] = array("d", [math.nan] * len(v))
    elif case.startswith("edges"):  # non-finite, -0.0, at and below RATE_FLOOR, a violation
        v[3], v[10], v[20], v[-1] = math.nan, math.inf, -0.0, -math.inf
        v[30:36] = array("d", [1e-13, 0.0, 5e-324, -0.0, 1e-12, 2e-12])
        v[50] = v[49] + 1.0
    return sc, traj


@pytest.mark.parametrize("case", ["none", "some", "all", "edges", "edges_p2p",
                                  "nonfinite_line_start", *_BUNDLED])
def test_decay_summary_fits_the_finite_samples(case, tmp_path):
    # the report's certificate_decay block is decay_monitor's over the run's
    # certificate, with the channel added: the finite samples, each at its row's time
    sc, traj = _decay_case(case)
    cert = cli._KINDS[sc.config.kind].cert
    expected = decay_monitor(traj.channel(cert), sc.config.dt)
    assert repr(expected) == repr(_loop_decay_monitor(traj.channel(cert), sc.config.dt))
    fold = cli._write_held(traj, None, "csv", (), None)
    reports = [cli.build_report(sc, fold, "horizon", 1, 0.0)]
    if case in ("none", "nonfinite_line_start", *_BUNDLED):  # no spoil: the run's own report too
        reports.append(cli.run_scenario(sc, tmp_path)[1])
    for report in reports:
        decay = report["certificate_decay"]
        assert repr(decay and {k: v for k, v in decay.items() if k != "channel"}) == repr(expected)
        assert decay is None or list(decay)[-1:] == ["channel"] and decay["channel"] == cert
    assert (expected is None) == (case in ("all", "nonfinite_line_start"))
    assert not case.startswith("edges") or expected["violations"] >= 1
