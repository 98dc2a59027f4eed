"""Same-observable Monte Carlo reference for the PDE crossing statistics.

The PDE route returns the stationary mean of the mollified crossing
observable g(x, y) = |y| exp(-(x - a1)^2 / (2 eps0^2)) / (sqrt(2 pi) eps0),
not a count of level crossings. This command estimates the mean of that same
g by the Monte Carlo route, apart from the PDE: one `simulate_paths` run with
one `MeanObserver` per (eps0, level) pair, and the standard error of the
per-path time averages. The benchmark checks the PDE crossing rows of every
workload against the stored result.

    PYTHONPATH=src python3 perfbench/reference.py

rewrites perfbench/reference.json for the (eps0, level) pairs the workloads
use. It runs for about 80 s.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# the acceptance suite's Monte Carlo reference shape with four times the
# paths: at 256 paths the standard error of the tail levels (a1 = +-2) is a
# quarter of criterion 4's 10% tolerance, too coarse to check a PDE value by
SEED = 7039
N_PATHS = 1024
N_STEPS = 450_000
BURN_IN = 50_000
DT = 1e-3


def _path_mean_observer(g):
    """A MeanObserver that also keeps a running total of g per path."""
    from bepo.sde import MeanObserver

    totals = np.zeros(N_PATHS)

    def tallied(x, y, z):
        vals = np.asarray(g(x, y, z), dtype=np.float64)
        totals[:] += vals.sum(axis=0)
        return vals

    obs = MeanObserver(tallied)
    obs.path_totals = totals
    return obs


def compute_reference(pairs) -> dict:
    """Stationary mean and per-path standard error of g for each (eps0, a1)."""
    from bepo.model import ModelParams
    from bepo.observables import mollified_crossing_speed
    from bepo.sde import SimConfig, simulate_paths

    cfg = SimConfig(dt=DT, n_steps=N_STEPS, burn_in=BURN_IN, seed=SEED, n_paths=N_PATHS)
    pairs = sorted(set(pairs))
    observers = [
        _path_mean_observer(mollified_crossing_speed(level, eps0))
        for eps0, level in pairs
    ]
    t0 = time.perf_counter()
    simulate_paths(cfg, ModelParams(), observers)
    entries = []
    for (eps0, level), obs in zip(pairs, observers):
        per_path = obs.path_totals / (obs.count / N_PATHS)
        entries.append({
            "eps0": eps0,
            "level": level,
            "mean": obs.mean,
            "se": float(per_path.std(ddof=1) / np.sqrt(N_PATHS)),
        })
    return {
        "command": "PYTHONPATH=src python3 perfbench/reference.py",
        "model": "built-in defaults (k=1, alpha=0.5, b=1, sigma=1, f=-y)",
        "seed": SEED,
        "n_paths": N_PATHS,
        "n_steps": N_STEPS,
        "burn_in": BURN_IN,
        "dt": DT,
        "wall_s": round(time.perf_counter() - t0, 1),
        "entries": entries,
    }


def load_reference() -> dict:
    """{(eps0, level): (mean, se)} from the stored reference."""
    data = json.loads(REFERENCE.read_text())
    return {(e["eps0"], e["level"]): (e["mean"], e["se"]) for e in data["entries"]}


def main() -> int:
    from workloads import reference_pairs

    result = compute_reference(reference_pairs())
    REFERENCE.write_text(json.dumps(result, indent=1) + "\n")
    for e in result["entries"]:
        print(f"eps0={e['eps0']:g} a1={e['level']:g} mean={e['mean']:.6g} se={e['se']:.2g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
