"""Byte-identity guard: short runs must reproduce recorded SHA-256 digests.

Float expression order is part of the output contract, so a change to the
step kernel that keeps the mathematics but regroups an operation shows up
here. Each bundled scenario runs through the CLI path at a 0.5 s horizon
(trajectory CSV or JSON and plot files hashed, and report.json without its
wall time, which carries the certificate decay fit); the friction and
actuator-lag paths, and the control paths no bundled scenario reaches (hard
switching, a corridor advancing on consecutive rows, a converged stop,
k1 != 1), run directly (channel repr bytes, events and final state hashed), and so
do five runs that end on a terminal event (a topple in each of the four
steppers, and a steering rate below its floor). The reports are checked
again under a compensated built-in sum, as Python 3.12 and later have.
"""

import hashlib
import re

import pytest

from gyrowheel import (
    LineGains,
    PositionGains,
    bundled_scenario_path,
    parse_scenario,
    replace,
    run_closed_loop,
    scenario_from_mapping,
)
from gyrowheel import lyapunov
from gyrowheel.cli import run_scenario

from conftest import make_balance_mapping

T_END = 0.5

CLI_DIGESTS = {
    "balance_default": "a0f6db48e6897f71c22bf050e4e3d93adb6b85a5ab28069074bd2cde6a3d5aa0",
    "p2p_default": "74c9a49f1e0031187024690fbf3c1e6e9d52a1682934a0050acc29a4d7c7b104",
    "line_5m": "d3c051415715d1263f6cf49b53e70589a986a3503035b0ad84430a89748a38cf",
    "corridor_demo": "733f0ab91caaf7dc27091d961b3ac63e38a137b5c968cf89f29d14a6f795995d",
}

JSON_DIGESTS = {
    "balance_default": "527a1f13f8d85db7538d42f730004b3cbcdf3c69837328c54b57c95c7dd6f057",
    "p2p_default": "b70000a11dfc77ad1c3eb727217ff963b9c0622364ec2abffbcff339d2065a29",
    "line_5m": "e27c92b70174494492cd007a85ac2b33bea87629306327a87fc72583dfbaca9a",
    "corridor_demo": "13ccd83f613e248714bd32707501403b9aee5220b081eddffb4ca88029e1ab20",
}

# report.json without its wall_time_s line (the only timing field)
REPORT_DIGESTS = {
    "balance_default": "8378015a4dd26afd23c2755c1807049361e9bd9166f6080fa7ddb4ced4f9b321",
    "corridor_demo": "1780dd78dcad04ed3fc8f5cc6b163340bf857e3944f471ff1d3198677ee3be4e",
    "line_5m": "e56099a22f5a8f45c1e2fa079c21535e79b2511c9d82a50348d6b1dc22020a95",
    "p2p_default": "1bc713bab465bfe2eb0177740d6e6ee1f2daa83de7c4a374f7ac22ceec2b820b",
}

DIRECT_DIGESTS = {
    "balance_friction": "fb31309a1790aa64687f733f2d8832408aaa155e638b90550d5b494db50fab6c",
    "line_lag": "87d1fb8cf5963d4b4e253f26a805bdf4d4bd66a7ec24e58091e83788f9537c3d",
}

CONTROL_DIGESTS = {
    "balance_k1": "1372ac4f31842d82f3e6612c40e2db735d0b81c01ebd38c3ab7306166c5a0feb",
    "corridor_short_segment": "e0c5b8c5d5b1bda9be4e81cd0398198943dd14cfc295c6246409c7df60a99eb2",
    "line_converged": "8c669566b868f0f142011983c524d9dbed37aa830d7fc0330b266eb58cd107ab",
    "line_hard": "c11c1d20beb287da1c9d03c84725563bb8056709e38b3ec02265e7ca605e1c38",
    "p2p_hard": "a34cfe948a51b9ea6abef60a913d4dfdff390a2fa9839a2f3b0b2ccea8bbb73f",
}


# runs that end on a terminal event: (its kind, its time, the run's digest).
# The event fires at the first step boundary where its condition holds.
TERMINAL_DIGESTS = {
    "balance_singular": ("SingularSteering", 18.065,
                         "f1f3b5fc2fd1c4036e9ba443b708af3eb1ef329827e1ec499ee106907e15b464"),
    "balance_topple": ("Toppled", 4.0,
                       "c24e258142a407e17e7e8e42df81d00e9e0f0a2f999f2bd9810fd88f7333c6dc"),
    "friction_topple": ("Toppled", 4.8,
                        "1244c6759bb8410f254b0084a1c7cd97bc3655153bc07d424fd4fd3f74656232"),
    "lag_topple": ("Toppled", 0.6000000000000001,
                   "905605aa673ec1525d6e27f1190d08b9da2a7ae0353ace79c662205f06a3f732"),
    "p2p_topple": ("Toppled", 2.0,
                   "cd6339508b2105270cb65a2809f48ddedc2f4cb54bc400c0af0fd8af8933f89d"),
}


def _dir_digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name == "report.json":
            continue  # carries the wall time
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _traj_digest(traj) -> str:
    h = hashlib.sha256()
    for name in traj.names:
        h.update(name.encode() + b"\0" + repr(list(traj.channels[name])).encode())
    for ev in traj.events:
        h.update(f"{ev.kind}|{ev.time!r}|{ev.detail}".encode())
    h.update(repr(traj.final_state).encode())
    return h.hexdigest()


def _direct_config(name):
    if name == "balance_friction":
        m = make_balance_mapping(t_end=T_END)
        m["friction"] = {"D": 0.05}
        return scenario_from_mapping(m).config
    sc = parse_scenario(bundled_scenario_path("line_5m"))
    return replace(sc.config, t_end=T_END, actuator_lag=0.05)


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_bundled_scenario_files_are_byte_identical(name, tmp_path):
    sc = parse_scenario(bundled_scenario_path(name))
    sc = replace(sc, config=replace(sc.config, t_end=T_END))
    run_scenario(sc, tmp_path)
    assert _dir_digest(tmp_path) == CLI_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(JSON_DIGESTS))
def test_bundled_scenario_json_files_are_byte_identical(name, tmp_path):
    sc = parse_scenario(bundled_scenario_path(name))
    sc = replace(sc, config=replace(sc.config, t_end=T_END))
    run_scenario(sc, tmp_path, "json")
    assert _dir_digest(tmp_path) == JSON_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_bundled_scenario_reports_are_byte_identical(name, tmp_path):
    sc = parse_scenario(bundled_scenario_path(name))
    sc = replace(sc, config=replace(sc.config, t_end=T_END))
    run_scenario(sc, tmp_path)
    data = (tmp_path / "report.json").read_bytes()
    timed = re.compile(rb'\n  "wall_time_s": [^\n]*')
    assert len(timed.findall(data)) == 1
    assert hashlib.sha256(timed.sub(b"", data)).hexdigest() == REPORT_DIGESTS[name]


def _neumaier_sum(values, start=0):
    """The built-in sum of floats from Python 3.12 on: compensated (Neumaier)."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_reports_do_not_depend_on_the_builtin_sum(name, tmp_path, monkeypatch):
    # the decay fit's digits must be the same on every interpreter the package admits
    monkeypatch.setattr(lyapunov, "sum", _neumaier_sum, raising=False)
    test_bundled_scenario_reports_are_byte_identical(name, tmp_path)


@pytest.mark.parametrize("name", sorted(DIRECT_DIGESTS))
def test_friction_and_lag_channels_are_byte_identical(name):
    traj = run_closed_loop(_direct_config(name))
    assert traj.row_count == round(T_END / 1e-3) + 1
    assert _traj_digest(traj) == DIRECT_DIGESTS[name]


def _control_config(name):
    if name == "balance_k1":
        return scenario_from_mapping(make_balance_mapping(t_end=T_END, k1=2.5)).config
    if name == "p2p_hard":
        cfg = parse_scenario(bundled_scenario_path("p2p_default")).config
        return replace(cfg, t_end=T_END, gains=PositionGains(k3=3.0, k4=1.0, smoothing=None))
    cfg = parse_scenario(bundled_scenario_path("line_5m")).config
    if name == "line_hard":
        return replace(cfg, t_end=T_END, gains=LineGains(k3=3.0, k5=1.5, smoothing=None))
    if name == "line_converged":
        return replace(cfg, t_end=1.0, waypoints=((0.0, 0.0), (0.3, 0.0)))
    # the middle segment (0.022 m) is shorter than the advance radius and
    # points back, so the corridor could advance twice in one row
    return replace(
        cfg, kind="corridor", t_end=T_END,
        waypoints=((0.0, 0.0), (0.3, 0.0), (0.28, 0.01), (2.0, 0.5)),
        thresholds=replace(cfg.thresholds, advance_radius=0.05),
    )


@pytest.mark.parametrize("name", sorted(CONTROL_DIGESTS))
def test_control_paths_are_byte_identical(name):
    traj = run_closed_loop(_control_config(name))
    if name == "line_converged":
        assert traj.terminal_event.kind == "Converged"
        assert traj.row_count < 1001
    else:
        assert traj.events == []
        assert traj.row_count == round(T_END / 1e-3) + 1
    if name == "corridor_short_segment":
        seg = traj.channels["segment"]
        assert [i for i in range(1, len(seg)) if seg[i] != seg[i - 1]] == [401, 402]
    assert _traj_digest(traj) == CONTROL_DIGESTS[name]


def _terminal_config(name):
    if name == "balance_singular":
        return scenario_from_mapping(make_balance_mapping(alpha_dot_floor=1e-4, t_end=20.0)).config
    if name == "friction_topple":
        m = make_balance_mapping(t_end=6.0, lean_offset=0.1)
        m["friction"] = {"D": 0.05}
        return replace(scenario_from_mapping(m).config, dt=0.3)
    if name == "balance_topple":
        return replace(parse_scenario(bundled_scenario_path("balance_default")).config, dt=1.0)
    if name == "p2p_topple":
        return replace(parse_scenario(bundled_scenario_path("p2p_default")).config, dt=0.5)
    cfg = parse_scenario(bundled_scenario_path("line_5m")).config
    return replace(cfg, dt=0.2, actuator_lag=0.05)


@pytest.mark.parametrize("name", sorted(TERMINAL_DIGESTS))
def test_terminal_event_runs_are_byte_identical(name):
    traj = run_closed_loop(_terminal_config(name))
    kind, time, digest = TERMINAL_DIGESTS[name]
    assert (traj.terminal_event.kind, traj.terminal_event.time) == (kind, time)
    assert _traj_digest(traj) == digest
