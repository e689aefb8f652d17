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
    "balance_friction": "5d4a8bcdd8cc2ff1e6e6e3379d17631b665545d42f5fecc19d645aaba55c5984",
    "line_lag": "dfc7e09c6363033527ced29d5003b1491eb5c3e8309b926ac1017c90d7a383d0",
}

CONTROL_DIGESTS = {
    "balance_k1": "0f59bc53e2df673e4a0579c3f62fd21d9bf8dd39ec79887b8e7d2f3ddb0923dd",
    "corridor_short_segment": "da51704bc3f0cc2fc63d1c3ee3faacc5e08286431bf1dc61fe8099b5039f27b8",
    "line_converged": "8f14b398f533c834791e51c7d1a7cb3d7a3eb850b631a15ad421554e59d1cc3b",
    "line_hard": "86c2579bc74a6a36cf15dd06618643c7394128a9770f32412fbf4537e264eb71",
    "p2p_hard": "46a40cd73509167c9af8c14ebc0ffbcc8b5c809f67eb1a1daa022b8f5208165f",
}


# runs that end on a terminal event: (its kind, its time, the run's digest).
# The event fires at the first step boundary where its condition holds.
TERMINAL_DIGESTS = {
    "balance_singular": ("SingularSteering", 18.065,
                         "669d4d11be9514197393ed59a397fbf0884ce1b8348becaef2c1f3ef137fa1a6"),
    "balance_topple": ("Toppled", 4.0,
                       "99b4cda9515fb6d915c729eabe18227085b8deff055477f506d1516666d507dc"),
    "friction_topple": ("Toppled", 4.8,
                        "e04a8cdd0637113a3d98f504d67a965b74dfddfd29f8264940cec4ed4b48c639"),
    "lag_topple": ("Toppled", 0.6000000000000001,
                   "0f131de9ea766054214d25a200138581e57303915ddb2c043a6e4c856355e618"),
    "p2p_topple": ("Toppled", 2.0,
                   "201dd6b513ae8af020e315a29934a0fae8f9a5e2b9cd83c1dd4f0c3d72b31931"),
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
