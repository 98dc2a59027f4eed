"""The benchmark's workloads: a config document made from a seed, the output
file each one writes, and the checks every output row must pass.

The seed changes the program's inputs without changing what a correct
output is: it orders the sweep levels and sets `sim.seed`, which drives the
Monte Carlo noise of `cross-validate` (the PDE route is deterministic).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-10  # solver.rel_tol in every document
X_BAR = 3.5  # the built-in truncation box


def two_cells(count: int) -> float:
    """Mollifier width of two grid cells on a count-node x axis."""
    return 2.0 * (2.0 * X_BAR / (count - 1))


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    csv_name: str
    grid: tuple[int, int, int]
    lam: float
    rows_per_round: int
    lines: tuple[str, ...]  # fixed part of the config document
    levels: tuple[float, ...] = ()  # sweep.values, ordered by the seed
    eps0: float | None = None

    def document(self, seed: int) -> str:
        """The config document of one run: fixed lines plus seeded ones."""
        I, J, K = self.grid
        lines = [
            f"# perfbench workload {self.name}, seed {seed}",
            f"experiment = {self.experiment}",
            f"grid.I = {I}",
            f"grid.J = {J}",
            f"grid.K = {K}",
            f"grid.lambda = {self.lam!r}",
            f"solver.rel_tol = {REL_TOL!r}",
            *self.lines,
            f"sim.seed = {seed}",
        ]
        if self.eps0 is not None:
            lines.append(f"observable.eps0 = {self.eps0!r}")
        if self.levels:
            order = list(self.levels)
            random.Random(seed).shuffle(order)
            lines.append("sweep.values = " + ", ".join(repr(v) for v in order))
        return "\n".join(lines) + "\n"

    @property
    def n_nodes(self) -> int:
        I, J, K = self.grid
        return I * J * K


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pde-sweep",
            experiment="crossing-sweep",
            csv_name="crossing_sweep.csv",
            grid=(33, 33, 33),
            lam=1e-3,
            rows_per_round=5,
            lines=("mc.enabled = false",),
            levels=(-2.0, -1.0, 0.0, 1.0, 2.0),
            eps0=two_cells(33),
        ),
        Workload(
            name="cross-validate",
            experiment="cross-validate",
            csv_name="cross_validate.csv",
            grid=(25, 25, 25),
            lam=1e-3,
            rows_per_round=4,
            lines=(
                "observable.a2 = 1.5",
                "sim.n_paths = 256",
                "sim.dt = 0.001",
                "sim.n_steps = 150000",
                "sim.burn_in = 50000",
            ),
            levels=(-1.0, 0.0, 1.0),
            eps0=two_cells(25),
        ),
        Workload(
            name="refine-ladder",
            experiment="convergence",
            csv_name="convergence.csv",
            grid=(33, 21, 13),
            lam=1e-2,
            rows_per_round=9,
            lines=(
                "observable.kind = band",
                "observable.a2 = 0.375",
                "convergence.n_refinements = 2",
            ),
        ),
    )
}


def reference_pairs() -> list[tuple[float, float]]:
    """(eps0, a1) of every PDE crossing statistic the workloads check."""
    return sorted(
        {(w.eps0, a) for w in WORKLOADS.values() if w.eps0 is not None for a in w.levels}
    )


def read_rows(path: Path) -> list[dict]:
    """CSV rows with every numeric field as a float."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, value in row.items():
            try:
                row[key] = float(value)
            except ValueError:
                pass
    return rows


# --- checks: each returns a list of failures, empty when the rows pass ------


def symmetry_tolerance(nu: float, n_nodes: int, rel_tol: float = REL_TOL) -> float:
    """Bound on |nu(a) - nu(-a)| from the solver's residual target.

    Criterion 7's reasoning: each mirror solve meets ||M v - g|| <= rel_tol
    ||g||, which bounds its error by rel_tol ||v|| up to a conditioning
    margin of 10. In the small-lam limit v is flat at the statistic, so
    ||v|| is about sqrt(n_nodes) |nu|.
    """
    return 10.0 * rel_tol * math.sqrt(n_nodes) * abs(nu)


def check_pde_symmetry(nu: dict, n_nodes: int) -> list[str]:
    """nu(a) and nu(-a) agree within symmetry_tolerance, for every a > 0."""
    out = []
    for a in sorted(level for level in nu if level > 0):
        if -a not in nu:
            continue
        tol = symmetry_tolerance(max(abs(nu[a]), abs(nu[-a])), n_nodes)
        if not abs(nu[a] - nu[-a]) <= tol:
            out.append(f"PDE nu({a:g})={nu[a]!r} and nu({-a:g})={nu[-a]!r} differ by more than {tol:.3g}")
    return out


def check_against_reference(nu: dict, eps0: float, reference: dict) -> list[str]:
    """Every nu is finite, positive and within max(0.1 ref, 3 se) of the
    same-observable Monte Carlo reference (criterion 4's tolerance)."""
    out = []
    for level, value in sorted(nu.items()):
        if not (math.isfinite(value) and value > 0):
            out.append(f"PDE nu({level:g})={value!r} is not finite and positive")
            continue
        if (eps0, level) not in reference:
            out.append(f"no reference for eps0={eps0!r}, a1={level:g}")
            continue
        ref, se = reference[(eps0, level)]
        tol = max(0.1 * ref, 3.0 * se)
        if not abs(value - ref) <= tol:
            out.append(f"PDE nu({level:g})={value:.6g} vs reference {ref:.6g}: off by more than {tol:.3g}")
    return out


def check_band(pde: float, mc: float, se: float) -> list[str]:
    """Criterion 5: the PDE band is near the Monte Carlo band, both in range."""
    out = []
    if not 0.0 <= mc <= 1.0:
        out.append(f"MC band probability {mc!r} outside [0, 1]")
    if not -0.02 <= pde <= 1.02:
        out.append(f"PDE band probability {pde!r} outside [-0.02, 1.02]")
    if not abs(pde - mc) <= max(0.05, 3.0 * se):
        out.append(f"PDE band {pde:.6g} vs MC {mc:.6g} +- {se:.2g}: off by more than max(0.05, 3 se)")
    return out


def check_mc_symmetry(mc: dict) -> list[str]:
    """MC nu(a) and nu(-a), each (value, se), agree within 4 (se_a + se_-a).

    Both estimates come from the same paths, and a path that stays on one
    side crosses one level more and the other less: the per-path rates at
    +-1 correlate at about -0.5, so the standard error of the difference is
    about 1.2 sqrt(se_a^2 + se_-a^2), and a tolerance of 3 sqrt(...) fails
    on about one seed in eighty. se_a + se_-a bounds that standard error
    whatever the correlation, and 4 of it fails on fewer than one seed in
    ten thousand even at correlation -1.
    """
    out = []
    for a in sorted(level for level in mc if level > 0):
        if -a not in mc:
            continue
        (vp, sp), (vm, sm) = mc[a], mc[-a]
        tol = 4.0 * (sp + sm)
        if not abs(vp - vm) <= tol:
            out.append(f"MC nu({a:g})={vp:.6g} and nu({-a:g})={vm:.6g} differ by more than {tol:.3g}")
    return out


def check_ladder(rows: list[dict]) -> list[str]:
    """Criterion 3's window on each axis's p(h/2), and shrinking differences."""
    out = []
    for axis in sorted({r["axis"] for r in rows}):
        ladder = sorted((r for r in rows if r["axis"] == axis), key=lambda r: r["level"])
        diffs = [r["diff"] for r in ladder[1:]]
        if not all(math.isfinite(d) and d > 0 for d in diffs):
            out.append(f"axis {axis}: differences {diffs} are not finite and positive")
            continue
        if not all(b < a for a, b in zip(diffs, diffs[1:])):
            out.append(f"axis {axis}: differences {diffs} do not decrease")
        order = ladder[-1]["order"]
        if not 1.6 <= order <= 2.2:
            out.append(f"axis {axis}: order p(h/2)={order!r} outside [1.6, 2.2]")
    return out


def check_outputs(workload: Workload, rows: list[dict], reference: dict) -> list[str]:
    """Every check of one workload on the rows of one run."""
    if workload.name == "pde-sweep":
        nu = {r["a1"]: r["nu_pde"] for r in rows}
        return check_pde_symmetry(nu, workload.n_nodes) + check_against_reference(
            nu, workload.eps0, reference
        )
    if workload.name == "cross-validate":
        crossing = [r for r in rows if r["kind"] == "crossing"]
        nu = {r["level"]: r["pde"] for r in crossing}
        out = check_against_reference(nu, workload.eps0, reference)
        out += check_pde_symmetry(nu, workload.n_nodes)
        out += check_mc_symmetry({r["level"]: (r["mc"], r["mc_se"]) for r in crossing})
        for r in rows:
            if r["kind"] == "band":
                out += check_band(r["pde"], r["mc"], r["mc_se"])
        return out
    return check_ladder(rows)
