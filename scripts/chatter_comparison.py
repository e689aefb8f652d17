"""Compare steering chatter between hard and smoothed switching laws.

Runs the 5 m line-tracking task with fully discontinuous switching and
with sigmoid replacements for the lean and drive switches at several
sharpness values. The geometric side switch stays discontinuous in all
cases, so steering sign reversals remain frequent while riding the
line; what smoothing reduces is their amplitude, measured here as the
total variation of the steering command. Under the fixed-step
integrator the fully discontinuous law chatters in place and makes no
progress toward the goal (d stays near 5), while the smoothed variants
converge in a few seconds.

Usage:
    python3 scripts/chatter_comparison.py [--sharpness 5 20 80]
"""

from gyrowheel import Smoothing, bundled_scenario_path, parse_scenario, replace, run_closed_loop
from gyrowheel.cli import Parser, run_command


def line_config(sharpness: float | None):
    # the bundled 5 m task; no sharpness is the fully discontinuous law
    cfg = parse_scenario(bundled_scenario_path("line_5m")).config
    smoothing = None if sharpness is None else Smoothing(sharpness, sharpness)
    return replace(cfg, gains=replace(cfg.gains, smoothing=smoothing))


def chatter_metrics(traj) -> tuple[int, float]:
    steers = traj.channel("u_steer")
    flips = sum(
        1 for a, b in zip(steers, steers[1:]) if a * b < 0.0
    )
    variation = sum(abs(b - a) for a, b in zip(steers, steers[1:]))
    return flips, variation


def main() -> int:
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--sharpness", type=float, nargs="+", default=[5.0, 20.0, 80.0])
    args = ap.parse_args()

    cases = [("hard", None)] + [(f"k={k:g}", k) for k in args.sharpness]
    print(f"{'switching':>10}  {'converged':>9}  {'time [s]':>9}  "
          f"{'sign flips':>10}  {'variation':>10}  {'final d':>9}  "
          f"{'final e':>9}")
    for label, sharpness in cases:
        cfg = line_config(sharpness)
        traj = run_closed_loop(cfg)
        flips, variation = chatter_metrics(traj)
        print(f"{label:>10}  {str(traj.converged):>9}  {traj.times[-1]:9.3f}  "
              f"{flips:10d}  {variation:10.2f}  "
              f"{traj.channel('d')[-1]:9.4f}  {traj.channel('e')[-1]:9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_command(main))
