"""Point-to-point convergence cost as a function of initial aim error.

The point controller has no heading feedback of its own: the drive gate
only decides forward versus reverse, and steering reacts to lean alone.
Whether a run ever enters the 0.05 m convergence radius is therefore
decided almost entirely by the initial aim. This script sweeps an offset
added to the well-aimed bundled heading (start 5 m out) and reports the
closest approach, which tracks the straight-roll miss distance
5 * sin|offset| until the offset is large enough to excite the lean loop.

Usage:
    python3 scripts/aiming_sensitivity.py [--offsets 0.0 0.005 0.02 ...]
"""

import argparse
import math

from gyrowheel import RobotParams, bundled_scenario_path, parse_scenario, replace, run_closed_loop
from gyrowheel.cli import run_command


def p2p_config(heading_offset: float):
    # the bundled (3, 4) -> origin task, its heading a hair off the sight line
    cfg = parse_scenario(bundled_scenario_path("p2p_default")).config
    return replace(cfg, initial=replace(cfg.initial, alpha=cfg.initial.alpha + heading_offset))


def path_length(traj, wheel_radius: float, dt: float) -> float:
    # rates are held over each step, so the rolled arc is exactly
    # R * |u_drive| * dt per row
    drives = traj.channel("u_drive")
    return sum(wheel_radius * abs(u) * dt for u in drives[:-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--offsets", type=float, nargs="+",
                    default=[0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.3])
    args = ap.parse_args()

    radius = RobotParams().R
    print(f"{'offset [rad]':>12}  {'converged':>9}  {'time [s]':>9}  "
          f"{'min e [m]':>10}  {'5sin|o|':>8}  {'path [m]':>9}")
    for offset in args.offsets:
        cfg = p2p_config(offset)
        traj = run_closed_loop(cfg)
        rolled = path_length(traj, radius, cfg.dt)
        closest = min(traj.channel("e"))
        print(f"{offset:12.3f}  {str(traj.converged):>9}  "
              f"{traj.times[-1]:9.3f}  {closest:10.4f}  "
              f"{5.0 * math.sin(abs(offset)):8.4f}  {rolled:9.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_command(main))
