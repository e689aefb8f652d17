"""The output pass against the row-wise writers it replaced.

The oracles below are the earlier writers, kept verbatim: a row-wise CSV
writer, json.dumps(doc, indent=2, allow_nan=True) for trajectory.json and a
row-wise plot writer. The output pass must give their bytes for runs longer
than two chunks whose length is not a multiple of the chunk size, with
nan, inf and -inf in a channel, and for a 1-row non-finite run. It is the
run loop's sink, so the real loop streams into it: a run_scenario run must
give the oracles' bytes for the Trajectory that run_closed_loop returns
without a sink, at and across chunk edges and for a run of no row, and
that Trajectory's report, read through the same pass. That Trajectory
holds doubles, which share no float object; the cases whose columns share
objects are built from the lists the loop hands its sink.
"""

import json
import math
import tracemalloc
from array import array
from itertools import repeat
from operator import is_, mul

import pytest

from gyrowheel import (
    bundled_scenario_path, decay_monitor, parse_scenario, replace, run_closed_loop,
)
from gyrowheel import cli
from gyrowheel.simulate import CHANNEL_INFO, Trajectory

CHUNK = cli._CHUNK_ROWS
ROWS = 2 * CHUNK + 37
NON_FINITE_YAML = (
    "name: non_finite\n"
    "kind: balance\n"
    "dt: 0.001\n"
    "t_end: 1.0\n"
    "initial: {lean_offset: 0.05, alpha_dot: 1.0e-200}\n"
    "thresholds: {alpha_dot_floor: 1.0e-300}\n"
)


# ---------------------------------------------------------------- oracles


def _header_cell(name):
    return f"{name} [{CHANNEL_INFO[name][0]}]"


def oracle_csv(traj):
    names = traj.names
    cols = [traj.channels[n] for n in names]
    lines = [",".join(_header_cell(n) for n in names)]
    for i in range(traj.row_count):
        lines.append(",".join(repr(col[i]) for col in cols))
    return "\n".join(lines) + "\n"


def oracle_json(traj):
    doc = {
        "kind": traj.kind,
        "mode": traj.mode,
        "names": list(traj.names),
        "units": {n: CHANNEL_INFO[n][0] for n in traj.names},
        "channels": {n: list(traj.channels[n]) for n in traj.names},
        "events": [{"kind": ev.kind, "time": ev.time, "detail": ev.detail} for ev in traj.events],
        "final_state": cli._state_dict(traj.final_state) if traj.final_state else None,
    }
    return json.dumps(doc, indent=2, allow_nan=True) + "\n"


def oracle_plot(traj, name):
    times, col = traj.times, traj.channels[name]
    lines = [f"{_header_cell('t')},{_header_cell(name)}"]
    for i in range(traj.row_count):
        lines.append(f"{times[i]!r},{col[i]!r}")
    return "\n".join(lines) + "\n"


def oracle_files(traj, fmt, plot_channels):
    files = {f"plot_{n}.csv": oracle_plot(traj, n) for n in plot_channels}
    if fmt == "json":
        files["trajectory.json"] = oracle_json(traj)
    else:
        files["trajectory.csv"] = oracle_csv(traj)
    return files


def written_files(out_dir):
    return {p.name: p.read_text() for p in out_dir.iterdir() if p.name != "report.json"}


# ------------------------------------------------------------- fixtures


def _rows_scenario(name, rows=ROWS):
    """A bundled scenario run to exactly `rows` rows."""
    sc = parse_scenario(bundled_scenario_path(name))
    cfg = replace(sc.config, t_end=(rows - 1) * sc.config.dt, stop_on_converged=False)
    return replace(sc, config=cfg)


def _run_keeping_objects(cfg):
    """run_closed_loop, its channels the lists its sink was handed: the rows' own float objects."""
    chunks = []
    traj = run_closed_loop(cfg, chunks.append)
    traj.channels.update(
        (name, [v for chunk in chunks for v in chunk[k]]) for k, name in enumerate(traj.names)
    )
    return traj


@pytest.fixture(scope="module", params=["balance_default", "line_5m"])
def long_run(request):
    """A run of ROWS rows with nan, inf and -inf in a plot channel, across chunks."""
    sc = _rows_scenario(request.param)
    traj = run_closed_loop(sc.config)
    assert traj.row_count == ROWS and ROWS > 2 * CHUNK and ROWS % CHUNK
    col = traj.channels[sc.plot_channels[-1]]
    rows = (0, CHUNK - 1, CHUNK, 2 * CHUNK + 5, ROWS - 1)
    values = (math.nan, math.inf, -math.inf, math.nan, -math.inf)
    for i, v in zip(rows, values):
        col[i] = v
    return sc, traj


def _run_with(monkeypatch, sc, traj, out_dir, fmt):
    """run_scenario with a loop that hands the held trajectory to its sink in chunks."""

    def loop(cfg, sink):
        cols = [traj.channels[n] for n in traj.names]
        for start in range(0, traj.row_count, CHUNK):
            sink([col[start:start + CHUNK] for col in cols])
        ran = Trajectory(traj.kind)  # as the loop returns it: no row kept
        ran.events, ran.final_state = list(traj.events), traj.final_state
        return ran

    monkeypatch.setattr(cli, "run_closed_loop", loop)
    return cli.run_scenario(sc, out_dir, fmt)


# ----------------------------------------------------------------- tests


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_run_files_match_the_row_wise_writers(long_run, fmt, tmp_path, monkeypatch):
    sc, traj = long_run
    _run_with(monkeypatch, sc, traj, tmp_path, fmt)
    assert written_files(tmp_path) == oracle_files(traj, fmt, sc.plot_channels)


def test_public_writers_match_the_row_wise_writers(long_run, tmp_path):
    sc, traj = long_run
    cli.write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    assert (tmp_path / "trajectory.csv").read_text() == oracle_csv(traj)
    cli.write_trajectory_json(traj, tmp_path / "trajectory.json")
    assert (tmp_path / "trajectory.json").read_text() == oracle_json(traj)
    # a repeated channel and t itself as a plot channel
    channels = (sc.plot_channels[-1], "t", sc.plot_channels[-1])
    paths = cli.emit_plot_data(traj, channels, tmp_path)
    assert paths == [tmp_path / f"plot_{n}.csv" for n in channels]
    for name in channels:
        assert (tmp_path / f"plot_{name}.csv").read_text() == oracle_plot(traj, name)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_row_non_finite_run_matches_the_row_wise_writers(fmt, tmp_path):
    path = tmp_path / "non_finite.yaml"
    path.write_text(NON_FINITE_YAML)
    sc = parse_scenario(path)
    traj = run_closed_loop(sc.config)
    assert traj.row_count == 1
    out = tmp_path / "out"
    assert cli.run_scenario(sc, out, fmt)[0] == cli.EXIT_NO_CONVERGENCE
    assert written_files(out) == oracle_files(traj, fmt, sc.plot_channels)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_value_is_formatted_once(fmt, tmp_path, monkeypatch):
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    sc = _rows_scenario("p2p_default")
    traj = _run_keeping_objects(sc.config)
    assert len(sc.plot_channels) >= 2
    # velocity mode without lag: the commanded rates act at once, so
    # u_steer and u_drive hold alpha_dot's and gamma_dot's float objects
    ch = traj.channels
    assert all(map(is_, ch["u_steer"], ch["alpha_dot"]))
    assert all(map(is_, ch["u_drive"], ch["gamma_dot"]))
    monkeypatch.setattr(cli, "_repr", counting_repr)
    _run_with(monkeypatch, sc, traj, tmp_path, fmt)
    assert len(calls) == traj.row_count * (len(traj.names) - 2)  # rows x distinct columns

    # a library run's channels are doubles: each distinct plotted channel is
    # formatted once, a repeated name not again, nor u_steer, whose bits are alpha_dot's
    calls.clear()
    held = run_closed_loop(sc.config)
    cli.emit_plot_data(held, ("beta", "t", "beta", "V", "alpha_dot", "u_steer"), tmp_path)
    assert len(calls) == held.row_count * 4  # t, beta, V, alpha_dot (u_steer equals it)

    # a pass that writes no file formats nothing, not even t
    calls.clear()
    empty = tmp_path / "no_plots"
    empty.mkdir()
    assert cli.emit_plot_data(held, (), empty) == []
    assert calls == [] and list(empty.iterdir()) == []

    # a line run has one segment: its float object is formatted once per chunk
    sc = _rows_scenario("line_5m")
    traj = _run_keeping_objects(sc.config)
    assert set(map(id, traj.channels["segment"])) == {id(traj.channels["segment"][0])}
    calls.clear()
    _run_with(monkeypatch, sc, traj, tmp_path, fmt)
    chunks = -(-traj.row_count // CHUNK)
    assert len(calls) == traj.row_count * (len(traj.names) - 3) + chunks


# -------------------------------------------- columns that share objects


def _toppled_velocity_run():
    """A point-to-point run that topples on row 27: its last row has no command."""
    sc = parse_scenario(bundled_scenario_path("p2p_default"))
    cfg = sc.config
    cfg = replace(
        cfg, t_end=1.0, initial=replace(cfg.initial, beta=math.pi / 2, beta_dot=0.5),
        thresholds=replace(cfg.thresholds, topple_margin=1.5645),
    )
    sc = replace(sc, config=cfg, plot_channels=("alpha_dot", "u_steer", "u_drive"))
    return sc, _run_keeping_objects(cfg)


def _truncated_long_velocity_run():
    """A long point-to-point run cut after row CHUNK + 10 as a topple cuts it."""
    sc = _rows_scenario("p2p_default")
    traj = _run_keeping_objects(sc.config)
    for col in traj.channels.values():
        del col[CHUNK + 11:]
    traj.channels["u_steer"][-1] = traj.channels["u_drive"][-1] = math.nan
    return replace(sc, plot_channels=("u_steer", "alpha_dot", "gamma_dot")), traj


def _signed_zeros_run():
    """Columns that hold equal but differently signed zeros, or one shared zero."""
    sc = _rows_scenario("p2p_default")
    traj = _run_keeping_objects(sc.config)
    ch = traj.channels
    ch["alpha_dot"][5], ch["u_steer"][5] = 0.0, -0.0  # equal, not the same object
    zero = -0.0
    ch["alpha_dot"][6] = ch["u_steer"][6] = zero  # one object
    ch["gamma_dot"][CHUNK:2 * CHUNK] = [0.0] * CHUNK  # constant chunks of either sign
    ch["u_drive"][CHUNK:2 * CHUNK] = [-0.0] * CHUNK
    ch["u_drive"][CHUNK + 3] = 0.0  # == every other value of its chunk, not the same object
    return replace(sc, plot_channels=("u_steer", "u_drive", "gamma_dot")), traj


def _corridor_advancing_mid_chunk():
    """A corridor that advances on rows 401 and 402, then holds its last segment."""
    sc = parse_scenario(bundled_scenario_path("line_5m"))
    cfg = replace(
        sc.config, kind="corridor", t_end=(ROWS - 1) * sc.config.dt, stop_on_converged=False,
        waypoints=((0.0, 0.0), (0.3, 0.0), (0.28, 0.01), (2.0, 0.5)),
    )
    sc = replace(sc, config=cfg, plot_channels=("segment", "d"))
    traj = _run_keeping_objects(cfg)
    seg = traj.channels["segment"]
    assert [i for i in range(1, len(seg)) if seg[i] != seg[i - 1]] == [401, 402]
    return sc, traj


def _constant_chunks_at_edges():
    """segment changes on the last row of a chunk and on the first of the next."""
    sc = _rows_scenario("line_5m")
    traj = _run_keeping_objects(sc.config)
    one, two = 1.0, 2.0
    seg = traj.channels["segment"]
    seg[CHUNK - 1] = one
    seg[CHUNK:2 * CHUNK] = [one] * CHUNK  # a whole chunk of one object
    seg[2 * CHUNK:] = [two] * (ROWS - 2 * CHUNK)  # the short last chunk, constant
    traj.channels["p"][CHUNK:2 * CHUNK] = [one] * CHUNK  # the same object as segment's
    return replace(sc, plot_channels=("segment", "p")), traj


_SHARED_OBJECT_CASES = {
    "toppled_velocity": _toppled_velocity_run,
    "truncated_long_velocity": _truncated_long_velocity_run,
    "signed_zeros": _signed_zeros_run,
    "corridor_advancing_mid_chunk": _corridor_advancing_mid_chunk,
    "constant_chunks_at_edges": _constant_chunks_at_edges,
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(_SHARED_OBJECT_CASES))
def test_shared_objects_match_the_row_wise_writers(case, fmt, tmp_path, monkeypatch):
    sc, traj = _SHARED_OBJECT_CASES[case]()
    if case == "toppled_velocity":
        ch = traj.channels
        assert traj.terminal_event.kind == "Toppled" and traj.row_count == 28
        assert all(map(is_, ch["u_steer"][:-1], ch["alpha_dot"][:-1]))
        assert ch["alpha_dot"][-1] == ch["alpha_dot"][-1] and ch["u_steer"][-1] != ch["u_steer"][-1]
    _run_with(monkeypatch, sc, traj, tmp_path, fmt)
    assert written_files(tmp_path) == oracle_files(traj, fmt, sc.plot_channels)


# ------------------------------------------------ the real loop streaming


def _converging_on_a_chunk_end():
    """A point-to-point run whose Converged event fires on the last row of the first chunk."""
    sc = _rows_scenario("p2p_default", 2 * CHUNK)
    e = run_closed_loop(sc.config).channels["e"]
    assert all(map(float.__gt__, e[:CHUNK], e[1:CHUNK]))  # e falls over the chunk
    thresholds = replace(sc.config.thresholds, distance=math.nextafter(e[CHUNK - 1], math.inf))
    return replace(sc, config=replace(sc.config, stop_on_converged=True, thresholds=thresholds))


def _no_row(tmp_path):
    """A run whose first row overflows: e**2 is beyond the float range."""
    path = tmp_path / "far.yaml"
    path.write_text(
        "kind: point_to_point\nt_end: 0.1\nplot_channels: [e, V]\n"
        "initial: {x_a: 0.0, y_a: -1.0e+300, alpha: 0.0}\ntarget: {x: 0.0, y: 0.0}\n"
    )
    return parse_scenario(path)


def _dt_scenario(name, dt):
    """A bundled scenario at step dt."""
    sc = parse_scenario(bundled_scenario_path(name))
    return replace(sc, config=replace(sc.config, dt=dt))


_STREAMED_CASES = {
    "two_chunks_and_37": (lambda tmp: _rows_scenario("line_5m"), ROWS, None),
    "one_chunk": (lambda tmp: _rows_scenario("balance_default", CHUNK), CHUNK, None),
    "one_chunk_and_1": (lambda tmp: _rows_scenario("p2p_default", CHUNK + 1), CHUNK + 1, None),
    "converged_on_a_chunk_end": (lambda tmp: _converging_on_a_chunk_end(), CHUNK, "Converged"),
    "no_row": (_no_row, 0, "NonFinite"),
    "corridor_demo_dt_0.5": (lambda tmp: _dt_scenario("corridor_demo", 0.5), 5, "Toppled"),
    "line_5m_dt_1.0": (lambda tmp: _dt_scenario("line_5m", 1.0), 2, "Toppled"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(_STREAMED_CASES))
def test_the_loop_streams_the_row_wise_writers_bytes(case, fmt, tmp_path):
    make, rows, terminal = _STREAMED_CASES[case]
    sc = make(tmp_path)
    traj = run_closed_loop(sc.config)  # no sink: every row kept, for the oracles
    assert traj.row_count == rows
    assert (traj.terminal_event.kind if traj.terminal_event else None) == terminal
    # the report's fit forms row i's time as i * dt, bit for bit the loop's t
    assert array("d", map(mul, range(rows), repeat(sc.config.dt))).tobytes() == traj.times.tobytes()
    out = tmp_path / "out"
    code, report = cli.run_scenario(sc, out, fmt)
    assert written_files(out) == oracle_files(traj, fmt, sc.plot_channels)
    assert report["rows"] == rows
    # the streamed run's report equals the held run's, read through the same pass
    fold = cli._write_held(traj, None, fmt, (), None)
    expected = cli.build_report(sc, fold, report["wall_time_s"])
    assert (code, json.dumps(report)) == (expected["exit_code"], json.dumps(expected))


def _peak_bytes(write):
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _run_growth(fmt, tmp_path, name="balance_default"):
    """Bytes per row by which a whole gyrowheel run's peak grows from 2 to 16 chunks."""
    runs = [_rows_scenario(name, chunks * CHUNK) for chunks in (2, 16)]
    cli.run_scenario(runs[0], tmp_path, fmt)  # first-call allocations out of the peaks
    peaks = [_peak_bytes(lambda: cli.run_scenario(run, tmp_path, fmt)) for run in runs]
    return (peaks[1] - peaks[0]) / (14 * CHUNK)


def test_csv_memory_is_bounded_by_a_chunk(tmp_path):
    # four times the rows must not take four times the memory
    sc = parse_scenario(bundled_scenario_path("balance_default"))
    short = run_closed_loop(replace(sc.config, t_end=(2 * CHUNK - 1) * sc.config.dt))
    long = run_closed_loop(replace(sc.config, t_end=(8 * CHUNK - 1) * sc.config.dt))
    peaks = [
        _peak_bytes(lambda: (cli.write_trajectory_csv(traj, tmp_path / "trajectory.csv"),
                             cli.emit_plot_data(traj, sc.plot_channels, tmp_path)))
        for traj in (short, long)
    ]
    assert peaks[1] < 1.5 * peaks[0]

    # a whole gyrowheel run keeps the certificate only, 8 B a row in
    # array('d'), and no t: about 10 B a row measured, with the array's spare room
    assert _run_growth("csv", tmp_path) <= 16


@pytest.mark.parametrize("nan, limit", [(False, 12), (True, 28)])
def test_decay_fit_peak_is_bounded_per_sample(nan, limit):
    # the growth gates above compare 2 and 16 chunks, so they cannot see the fit
    # at the end of a run: about 8.2 B a sample measured for its log series
    # alone, and 24.5 B with a NaN sample, whose time and value series are
    # compressed (a held finite mask, 8 B a sample more, measured 32.5 B)
    n = 10**5
    values = array("d", map(math.exp, map(mul, range(n), repeat(-1e-4))))
    if nan:
        values[n // 2] = math.nan
    decay_monitor(values, 1e-3)  # first-call allocations out of the peak
    decay = {}
    peak = _peak_bytes(lambda: decay.update(decay_monitor(values, 1e-3)))
    assert decay["samples"] == n - nan
    assert peak / n <= limit


@pytest.mark.parametrize("name, limit", [("balance_default", 392), ("p2p_default", 402)])
def test_json_memory_grows_by_the_held_text(name, limit, tmp_path):
    # a --format json run also holds every channel's text until the run ends:
    # about 350 B a row measured on balance_default and 382 B on p2p_default,
    # a velocity run whose u_steer and u_drive hold alpha_dot's and
    # gamma_dot's text objects (separate text for them measured 437 B)
    assert _run_growth("json", tmp_path, name) <= limit


@pytest.mark.parametrize("name, limit", [("balance_default", 130), ("line_5m", 180)])
def test_a_library_run_holds_its_rows_as_doubles(name, limit):
    # run_closed_loop without a sink keeps every row, 8 B a value in
    # array('d'): about 110 B a row measured on balance_default (13
    # channels) and 153 B on line_5m (18), with the arrays' spare room
    runs = [_rows_scenario(name, chunks * CHUNK).config for chunks in (2, 16)]
    run_closed_loop(runs[0])  # first-call allocations out of the counts
    held = []
    for cfg in runs:
        tracemalloc.start()
        try:
            traj = run_closed_loop(cfg)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert traj.row_count == cfg.n_steps + 1
    assert (held[1] - held[0]) / (14 * CHUNK) <= limit
