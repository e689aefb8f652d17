"""Measure how the balance certificate's decay rate varies with the gain k1.

The linearized closed loop always carries a mode at rate -1; the other
pair sits at real part -(1 + k1)/2. The certificate is quadratic in the
mode coordinates, so its asymptotic log-slope should track twice the
slowest real part. This script fits the observed slope for a sweep of
k1 values and prints it next to that prediction.

Usage:
    python3 scripts/decay_rate_study.py [--t-end 8.0] [--k1 0.5 1.0 1.5 2.0 2.5]
"""

import argparse

from gyrowheel import bundled_scenario_path, decay_monitor, parse_scenario, replace, run_closed_loop
from gyrowheel.cli import run_command


def balance_config(k1: float, t_end: float):
    # the bundled balance task, its singularity floor lowered further so the
    # steering rate can decay over any horizon
    cfg = parse_scenario(bundled_scenario_path("balance_default")).config
    return replace(cfg, t_end=t_end, gains=replace(cfg.gains, k1=k1),
                   thresholds=replace(cfg.thresholds, alpha_dot_floor=1e-12))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-end", type=float, default=8.0)
    ap.add_argument("--k1", type=float, nargs="+",
                    default=[0.5, 0.75, 1.0, 1.5, 2.0, 2.5])
    args = ap.parse_args()

    print(f"{'k1':>5}  {'fitted rate':>12}  {'predicted':>10}  "
          f"{'max step increase':>18}")
    for k1 in args.k1:
        cfg = balance_config(k1, args.t_end)
        traj = run_closed_loop(cfg)
        report = decay_monitor(traj.channel("V"), cfg.dt)
        predicted = -2.0 * min(1.0, (1.0 + k1) / 2.0)
        fitted = report["fitted_rate"]
        fitted_txt = f"{fitted:12.4f}" if fitted is not None else f"{'n/a':>12}"
        print(f"{k1:5.2f}  {fitted_txt}  {predicted:10.2f}  "
              f"{report['max_step_increase']:18.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_command(main))
