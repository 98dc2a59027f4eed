"""Command-line front end.

    bepo <experiment> --config FILE [--out DIR] [--threads N] [--seed S]

where experiment is one of solve, simulate, crossing-sweep,
serviceability-sweep, convergence, cross-validate. The config document uses
flat `section.key = value` lines; an empty or missing config runs the
built-in reference defaults. Every run leaves a manifest.json in the output
directory from which it can be reproduced.

Experiment `name` runs `run_<name>` of experiments.py (dashes as
underscores); only `convergence` also takes `--threads`. Each row it
returns prints one stdout line in the experiment's `_SUMMARY` format, then
the output directory is named.
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

# experiment -> the stdout line printed for each row it returns
_SUMMARY = {
    "solve": "statistic={statistic:.8g} spread={spread:.3g} "
    "residual={residual:.3g} iterations={iterations}",
    "simulate": "observed={n_observed} events={n_events} "
    "outside_box={outside_box_fraction:.3g}",
    "crossing-sweep": "a1={level:g} nu_pde={pde:.6g} nu_mc={mc:.6g} se={mc_se:.3g}",
    "serviceability-sweep": "a2={level:g} P_pde={pde:.6g} P_mc={mc:.6g} se={mc_se:.3g}",
    "convergence": "axis={axis} level={level} h={h:.6g} diff={diff:.6g} order={order:.6g}",
    "cross-validate": "{kind} level={level:g} pde={pde:.6g} mc={mc:.6g} se={mc_se:.3g} "
    "diff={abs_diff:.3g} gap_se={gap_se:.3g}",
}


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
    try:
        text = args.config.read_text() if args.config else ""
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read the config document: {exc}", file=sys.stderr)
        return 1
    try:
        if args.threads < 1:
            raise ValidationError(f"--threads must be >= 1, got {args.threads}")
        cfg = parse_config(text, experiment=args.experiment, seed=args.seed)

        # looked up at each call, so a wrapper set on this module's run_* is used
        run = globals()["run_" + args.experiment.replace("-", "_")]
        threads = (args.threads,) if args.experiment == "convergence" else ()
        rows = run(cfg, args.out, *threads)
        for row in [rows] if isinstance(rows, dict) else rows:
            print(_SUMMARY[args.experiment].format(**row))
    except BepoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"outputs in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
