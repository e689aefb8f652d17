"""run_closed_loop against tests/oracles.reference_run, row by row.

The reference is the run loop written plainly from the oracle's laws,
charts, certificates and steppers, with its own event tests and
convergence table. Each run must give the reference's bits in every
channel of every row, its events (kind, time and text) and its final
state's eight coordinates. A NaN's sign bit is cleared first, as
tests/test_fused_kernel._law_outcome does: CPython does not fix the sign
of an add or a multiply of two NaNs of opposite sign. Every other value
keeps its bits.
"""

import struct

import pytest

from oracles import reference_run

from gyrowheel import (
    FrictionParams,
    WheelState,
    bundled_scenario_path,
    parse_scenario,
    replace,
    run_closed_loop,
)

BUNDLED = ("balance_default", "p2p_default", "line_5m", "corridor_demo")


def _bits(values):
    return [struct.pack("<d", abs(v) if v != v else v) for v in values]


def _config(case):
    name, change = case
    cfg = parse_scenario(bundled_scenario_path(name)).config
    if change == "3 s":
        return replace(cfg, t_end=3.0)
    if change == "friction":
        return replace(cfg, t_end=3.0, friction=FrictionParams())
    if change == "lag":
        return replace(cfg, t_end=3.0, actuator_lag=0.05)
    if change == "converged":
        return replace(cfg, t_end=1.0, waypoints=((0.0, 0.0), (0.3, 0.0)))
    return replace(cfg, dt=change)


CASES = ([(name, "3 s") for name in BUNDLED] + [(name, dt) for name in BUNDLED
                                                for dt in (0.5, 1.0)]
         + [("balance_default", "friction"), ("line_5m", "lag"), ("line_5m", "converged")])


@pytest.mark.parametrize("case", CASES, ids=[f"{name}-{change}" for name, change in CASES])
def test_the_run_is_the_reference_at_every_row(case):
    cfg = _config(case)
    traj = run_closed_loop(cfg)
    rows, events, final = reference_run(cfg)
    channels = [traj.channels[name] for name in traj.names]
    assert traj.row_count == len(rows)
    for i, row in enumerate(rows):
        assert _bits(col[i] for col in channels) == _bits(row), (i, traj.names)
    assert [(ev.kind, ev.time, ev.detail) for ev in traj.events] == events
    assert _bits(getattr(traj.final_state, key) for key in WheelState._fields) == _bits(final)


def test_the_cases_reach_each_end_and_a_corridor_advance():
    ends, segments = set(), set()
    for case in CASES:
        rows, events, _ = reference_run(_config(case))
        ends.add(events[-1][0] if events else "horizon")
        if case[0] == "corridor_demo":
            segments.update(row[-1] for row in rows)
    assert ends == {"horizon", "Toppled", "Converged"}
    assert segments == {0.0, 1.0}
