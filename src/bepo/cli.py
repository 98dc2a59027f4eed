"""Command-line front end.

    bepo <experiment> --config FILE [--out DIR] [--threads N] [--seed S]

where experiment is one of solve, simulate, crossing-sweep,
serviceability-sweep, convergence, cross-validate. The config document uses
flat `section.key = value` lines; an empty or missing config runs the
built-in reference defaults. Every run leaves a manifest.json in the output
directory from which it can be reproduced.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import EXPERIMENTS, parse_config
from .errors import BepoError, ValidationError
from .experiments import (
    run_convergence,
    run_cross_validate,
    run_crossing_sweep,
    run_serviceability_sweep,
    run_simulate,
    run_solve,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bepo",
        description="Steady-state statistics of the bilinear elasto-plastic "
        "oscillator by resolvent-PDE and Monte Carlo routes.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=Path, help="config document (key = value)")
    parser.add_argument("--out", type=Path, default=Path("runs/latest"))
    parser.add_argument(
        "--threads", type=int, default=1, help="levels of convergence solved at once"
    )
    parser.add_argument("--seed", type=int, help="override sim.seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    text = args.config.read_text() if args.config else ""
    try:
        if args.threads < 1:
            raise ValidationError(f"--threads must be >= 1, got {args.threads}")
        cfg = parse_config(text, experiment=args.experiment, seed=args.seed)

        if args.experiment == "solve":
            row = run_solve(cfg, args.out)
            print(
                f"statistic={row['statistic']:.8g} spread={row['spread']:.3g} "
                f"residual={row['residual']:.3g} iterations={row['iterations']}"
            )
        elif args.experiment == "simulate":
            row = run_simulate(cfg, args.out)
            print(
                f"observed={row['n_observed']} events={row['n_events']} "
                f"outside_box={row['outside_box_fraction']:.3g}"
            )
        elif args.experiment == "crossing-sweep":
            for r in run_crossing_sweep(cfg, args.out):
                print(
                    f"a1={r['level']:g} nu_pde={r['pde']:.6g} nu_mc={r['mc']:.6g} "
                    f"se={r['mc_se']:.3g}"
                )
        elif args.experiment == "serviceability-sweep":
            for r in run_serviceability_sweep(cfg, args.out):
                print(
                    f"a2={r['level']:g} P_pde={r['pde']:.6g} P_mc={r['mc']:.6g} "
                    f"se={r['mc_se']:.3g}"
                )
        elif args.experiment == "convergence":
            for r in run_convergence(cfg, args.out, args.threads):
                print(
                    f"axis={r['axis']} level={r['level']} h={r['h']:.6g} "
                    f"diff={r['diff']:.6g} order={r['order']:.6g}"
                )
        else:
            for r in run_cross_validate(cfg, args.out):
                print(
                    f"{r['kind']} level={r['level']:g} pde={r['pde']:.6g} "
                    f"mc={r['mc']:.6g} se={r['mc_se']:.3g} diff={r['abs_diff']:.3g} "
                    f"gap_se={r['gap_se']:.3g}"
                )
    except BepoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"outputs in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
