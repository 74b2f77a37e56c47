#!/usr/bin/env python3
"""Run every bundled scenario end to end and summarize the outcomes.

For each scenario this integrates at the bundled settings, prints one row
(consensus verdict, observed vs predicted value, energy decay), and writes
trajectory.csv, report.json, and the SVG plots under --out/<name>/.

The two leaderless chains integrate to t=50; the two tracking scenarios run
to t=100 because their slowest error mode needs about 80 time units to fall
inside the default tolerances.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from consensim import bundled_scenario_path, list_bundled, parse_scenario, simulate
from consensim.cli import write_outputs


def run_one(name: str, out_root: Path, plots: bool) -> dict:
    path = bundled_scenario_path(name)
    # simulate validates the scenario, so parsing does not validate it again.
    scenario = parse_scenario(path, validate=False)
    return write_outputs(simulate(scenario), scenario, path, out_root / name, plots)


def fmt_value(value) -> str:
    if value is None:
        return "-"
    return " ".join(f"{v:.6f}" for v in np.atleast_1d(value))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/figures", help="output root directory")
    parser.add_argument("--no-plots", action="store_true")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of bundled names to run")
    args = parser.parse_args(argv)

    names = args.only if args.only else list_bundled()
    unknown = set(names) - set(list_bundled())
    if unknown:
        parser.error(f"unknown scenario name(s): {sorted(unknown)}")

    out_root = Path(args.out)
    header = (f"{'scenario':9s} {'mode':10s} {'t_end':>6s} {'achieved':>8s} "
              f"{'t*':>6s} {'observed':>10s} {'predicted':>10s} {'V start':>10s} {'V end':>10s}")
    print(header)
    print("-" * len(header))
    all_ok = True
    for name in names:
        report = run_one(name, out_root, plots=not args.no_plots)
        consensus = report["consensus"]
        lyap = report["lyapunov"]
        achieved = consensus["achieved"]
        all_ok = all_ok and achieved
        t_star = f"{consensus['t_consensus']:.1f}" if achieved else "-"
        v0 = f"{lyap['initial']:.3e}" if lyap["available"] else "-"
        v1 = f"{lyap['final']:.3e}" if lyap["available"] else "-"
        print(f"{name:9s} {report['scenario']['mode']:10s} "
              f"{report['scenario']['integrator']['t_end']:6g} "
              f"{str(achieved):>8s} {t_star:>6s} "
              f"{fmt_value(consensus['observed_value']):>10s} "
              f"{fmt_value(consensus['predicted_value']):>10s} {v0:>10s} {v1:>10s}")
    print(f"\noutputs under {out_root}/")
    return 0 if all_ok else 3


if __name__ == "__main__":
    sys.exit(main())
