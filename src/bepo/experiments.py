"""Experiment drivers shared by the CLI and the acceptance tests.

Every run writes its outputs plus a manifest.json holding the fully
resolved config document, the package version, wall-clock time, and the
summary rows, so a run can be reproduced bit-exactly from its manifest.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import time
import warnings
from pathlib import Path

from . import __version__
from .assembly import assemble_matrix, assemble_rhs
from .config import RunConfig, serialize_config
from .convergence import empirical_order, refinement_ladder, sup_diff_on_common
from .grid import GridSpec, build_grid
from .observables import (
    Observable,
    check_resolution,
    constant_observable,
    mollified_crossing_speed,
    plastic_band,
)
from .sde import (
    BandObserver,
    CrossingObserver,
    SampleRecorder,
    simulate_paths,
    simulate_trajectory,
)
from .solver import (
    ResolventSolver,
    SolveReport,
    evaluate_statistic,
    invariant_weights,
    magnitude_violations,
    require_finite,
    rice_rate,
    solution_to_csv,
    solve_resolvent,
    summary_to_json,
    weight_diagnostics,
)

__all__ = [
    "pde_statistic",
    "run_solve",
    "run_simulate",
    "run_crossing_sweep",
    "run_serviceability_sweep",
    "run_convergence",
    "run_cross_validate",
    "write_manifest",
]


def observable_from_config(cfg: RunConfig, a1=None, a2=None) -> Observable:
    if cfg.observable == "crossing":
        return mollified_crossing_speed(
            cfg.a1 if a1 is None else a1, cfg.resolved_eps0()
        )
    if cfg.observable == "band":
        return plastic_band(cfg.a2 if a2 is None else a2)
    return constant_observable(cfg.g_const)


def pde_statistic(cfg: RunConfig, g: Observable, matrix=None, grid=None) -> SolveReport:
    """Assemble (or reuse a prebuilt matrix) and solve for one observable."""
    if grid is None:
        grid = build_grid(cfg.grid)
    if g.kind == "crossing":
        check_resolution(g.params["eps0"], 2.0 * cfg.grid.x_bar / (cfg.grid.I - 1))
    sys = matrix if matrix is not None else assemble_matrix(grid, cfg.model, cfg.grid.lam)
    sys.rhs = assemble_rhs(grid, g, cfg.grid.lam)
    report = solve_resolvent(sys, cfg.solver)
    report.statistic, report.spread = evaluate_statistic(report.v, grid)
    report.bound_violations = magnitude_violations(
        report.v, grid, g.sup_norm(cfg.grid.x_bar, cfg.grid.y_bar, cfg.model.b)
    )
    return report


def _strict(value):
    """value with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def write_manifest(
    out: Path,
    cfg: RunConfig,
    rows,
    wall_clock: float,
    weights: dict | None = None,
    stages: dict | None = None,
) -> None:
    """manifest.json, strict JSON: a NaN or an infinity is written as null.

    `weights` holds the weight diagnostics of runs that solve for the
    discrete invariant measure, and `stages` the stage record of runs that
    factor and solve (`_stages`).
    """
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": __version__,
        "wall_clock_s": wall_clock,
        "config": serialize_config(cfg),
        "rows": rows,
    }
    if weights is not None:
        manifest["weights"] = weights
    if stages is not None:
        manifest["stages"] = stages
    text = json.dumps(_strict(manifest), indent=2, allow_nan=False)
    (out / "manifest.json").write_text(text + "\n")


def run_solve(cfg: RunConfig, out: Path) -> dict:
    """One assemble+solve; writes solution.csv and summary.json."""
    t0 = time.perf_counter()
    grid = build_grid(cfg.grid)
    report = pde_statistic(cfg, observable_from_config(cfg), grid=grid)
    out.mkdir(parents=True, exist_ok=True)
    solution_to_csv(report.v, grid, out / "solution.csv")
    summary_to_json(report, out / "summary.json")
    row = report.summary()
    write_manifest(out, cfg, [row], time.perf_counter() - t0)
    return row


def run_simulate(cfg: RunConfig, out: Path) -> dict:
    """Monte Carlo trajectory run; optional CSV dump of recorded states."""
    t0 = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    recorder = SampleRecorder() if cfg.record_stride else None
    stats = simulate_trajectory(
        cfg.sim,
        cfg.model,
        observers=[recorder] if recorder else (),
        box=(cfg.grid.x_bar, cfg.grid.y_bar),
    )
    if recorder is not None:
        xs, ys, zs = recorder.arrays()
        ts = recorder.times(cfg.sim.dt)
        stride = cfg.record_stride
        b = cfg.model.b
        with open(out / "trajectory.csv", "w") as fh:
            fh.write("t,x,y,z,phase\n")
            for m in range(0, len(ts), stride):
                z = zs[m, 0]
                phase = "plastic+" if z == b else ("plastic-" if z == -b else "elastic")
                fh.write(
                    f"{ts[m]:.12g},{xs[m, 0]:.12g},{ys[m, 0]:.12g},{z:.12g},{phase}\n"
                )
    row = {
        "n_observed": stats.n_observed,
        "n_events": len(stats.events),
        "final_x": stats.final.x,
        "final_y": stats.final.y,
        "final_z": stats.final.z,
        "outside_box_fraction": stats.outside_box_fraction,
    }
    write_manifest(out, cfg, [row], time.perf_counter() - t0)
    return row


def _mc_levels(cfg: RunConfig, levels, kind: str):
    """One shared Monte Carlo run serving every sweep level."""
    sim = cfg.sim
    if kind == "crossing":
        obs = CrossingObserver(levels, sim.dt, sim.n_paths)
    else:
        obs = BandObserver(levels, sim.n_paths)
    simulate_paths(sim, cfg.model, [obs])
    if kind == "crossing":
        return [obs.frequency(i) for i in range(len(levels))]
    return [obs.probability(i) for i in range(len(levels))]


def _level_observable(cfg: RunConfig, level: float, kind: str) -> Observable:
    """The crossing or band observable of one sweep level."""
    if kind == "band":
        return plastic_band(level)
    if abs(level) > cfg.grid.x_bar:
        warnings.warn(
            f"crossing level a1={level:g} lies outside the truncation box "
            f"(x_bar={cfg.grid.x_bar:g}); the statistic will be near zero"
        )
    return mollified_crossing_speed(level, cfg.resolved_eps0())


def _stages(assemble_s: float, factor_s: float, solve_s: float, solver) -> dict:
    """The manifest's `stages` record of one factor-and-solve: seconds of
    assembly (matrix and right-hand sides), of the y-line split and the
    incomplete LUs, and of the Krylov solves, plus the number of incomplete
    LUs computed (1 when the two sweeps share one) and their stored
    nonzeros, a shared factor counted once."""
    return {
        "assemble_s": assemble_s,
        "factor_s": factor_s,
        "solve_s": solve_s,
        "factors": len(solver.factors),
        "factor_nnz": sum(factor.nnz for factor in solver.factors),
    }


def _pde_sweep(cfg: RunConfig, observables):
    """Every observable's statistic from one adjoint solve; ordered by input.

    All observables share the grid and matrix, so the matrix is assembled
    and factored once, and one solve on its transpose gives the weights w
    with stat(g) = w @ g (`invariant_weights`). Every right-hand side is
    checked for non-finite entries before the solve. Returns the
    statistics, the report of the adjoint solve (w is its v), the grid and
    the stage record.
    """
    grid = build_grid(cfg.grid)
    lam = cfg.grid.lam
    start = time.perf_counter()
    matrix = assemble_matrix(grid, cfg.model, lam)
    assembled = time.perf_counter()
    solver = ResolventSolver(matrix, cfg.solver)
    factored = time.perf_counter()
    # the right-hand sides come after the factorization, whose freed
    # workspace they reuse; built before it, they raise the peak RSS
    rhs = [assemble_rhs(grid, g, lam) for g in observables]
    for b in rhs:
        require_finite(b)
    ready = time.perf_counter()
    adjoint = invariant_weights(solver, grid)
    stages = _stages(
        (assembled - start) + (ready - factored),
        factored - assembled,
        time.perf_counter() - ready,
        solver,
    )
    return [float(adjoint.v @ b) for b in rhs], adjoint, grid, stages


def _sweep_common(cfg: RunConfig, out: Path, kind: str):
    t0 = time.perf_counter()
    levels = list(cfg.sweep)
    stats, adjoint, grid, stages = _pde_sweep(
        cfg, [_level_observable(cfg, lv, kind) for lv in levels]
    )
    mc = _mc_levels(cfg, levels, kind) if cfg.mc_enabled else [(float("nan"), float("nan"))] * len(levels)

    rows = []
    for level, stat, (mv, mse) in zip(levels, stats, mc):
        row = {"level": level, "pde": stat, "mc": mv, "mc_se": mse}
        if kind == "crossing":
            row["nu_rice"] = rice_rate(adjoint.v, grid, level)
        row.update(residual=adjoint.residual, iterations=adjoint.iterations)
        rows.append(row)
    out.mkdir(parents=True, exist_ok=True)
    if kind == "crossing":
        csv, header = out / "crossing_sweep.csv", "a1,nu_pde,nu_mc,nu_mc_se,nu_rice,residual"
    else:
        csv, header = out / "serviceability_sweep.csv", "a2,P_pde,P_mc,P_mc_se,residual"
    columns = [key for key in rows[0] if key != "iterations"]
    with open(csv, "w") as fh:
        fh.write(header + "\n")
        for r in rows:
            fh.write(",".join(f"{r[key]:.12g}" for key in columns) + "\n")
    _write_plot_script(out, csv.name, kind)
    write_manifest(
        out, cfg, rows, time.perf_counter() - t0, weight_diagnostics(adjoint.v, grid), stages
    )
    return rows


def _write_plot_script(out: Path, csv_name: str, kind: str) -> None:
    """Data-only plotting support: a gnuplot script next to the CSV."""
    label = "a_1" if kind == "crossing" else "a_2"
    ylabel = "crossings per unit time" if kind == "crossing" else "probability"
    script = (
        "set datafile separator ','\n"
        f"set xlabel '{label}'\n"
        f"set ylabel '{ylabel}'\n"
        "set key top right\n"
        f"plot '{csv_name}' skip 1 using 1:2 with linespoints title 'PDE', \\\n"
        f"     '{csv_name}' skip 1 using 1:3:(3*$4) with yerrorbars title 'MC'\n"
    )
    (out / "plot.gp").write_text(script)


def run_crossing_sweep(cfg: RunConfig, out: Path):
    """nu(a1) for each sweep value by the PDE route, plus MC when enabled."""
    return _sweep_common(cfg, out, "crossing")


def run_serviceability_sweep(cfg: RunConfig, out: Path):
    """P(a2) for each sweep value; the MC column shares one sample set and
    is therefore exactly nondecreasing in a2."""
    return _sweep_common(cfg, out, "band")


def run_convergence(cfg: RunConfig, out: Path, threads: int = 1):
    """Nested-refinement study for the configured observable.

    Each axis is refined n_refinements times while the other axes stay at
    the base resolution; consecutive-level sup differences and the order
    estimates between them are reported per axis. The manifest's `stages`
    sums the stage records of every level's factor-and-solve; with
    threads > 1 the levels overlap, so the seconds add up to more than the
    wall clock.
    """
    t0 = time.perf_counter()
    g = observable_from_config(cfg)
    rows = []

    def solve_on(spec: GridSpec):
        grid = build_grid(spec)
        start = time.perf_counter()
        matrix = assemble_matrix(grid, cfg.model, spec.lam)
        b = assemble_rhs(grid, g, spec.lam)
        assembled = time.perf_counter()
        solver = ResolventSolver(matrix, cfg.solver)
        factored = time.perf_counter()
        report = solver.solve(b)
        solve_s = time.perf_counter() - factored
        return report, _stages(assembled - start, factored - assembled, solve_s, solver)

    base, base_stages = solve_on(cfg.grid)
    level_stages = [base_stages]
    for axis in ("x", "y", "z"):
        ladder = refinement_ladder(cfg.grid, axis, cfg.n_refinements)
        specs = list(ladder.levels)
        if threads > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
                solved = list(pool.map(solve_on, specs[1:]))
        else:
            solved = [solve_on(spec) for spec in specs[1:]]
        reports = [base] + [report for report, _ in solved]
        level_stages += [stages for _, stages in solved]
        diffs = [
            sup_diff_on_common(
                reports[m].v, reports[m + 1].v, specs[m], specs[m + 1], cfg.interior_only
            )
            for m in range(len(reports) - 1)
        ]
        spacing = {"x": "dx", "y": "dy", "z": "dz"}[axis]
        for m, spec in enumerate(specs):
            rows.append(
                {
                    "axis": axis,
                    "level": m,
                    "h": getattr(spec, spacing),
                    "diff": diffs[m - 1] if m >= 1 else float("nan"),
                    "order": (
                        empirical_order(diffs[m - 2], diffs[m - 1])
                        if m >= 2
                        else float("nan")
                    ),
                    "residual": reports[m].residual,
                    "iterations": reports[m].iterations,
                }
            )
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "convergence.csv", "w") as fh:
        fh.write("axis,level,h,diff,order\n")
        for r in rows:
            fh.write(
                f"{r['axis']},{r['level']},{r['h']:.12g},{r['diff']:.12g},{r['order']:.12g}\n"
            )
    stages = {key: sum(st[key] for st in level_stages) for key in level_stages[0]}
    write_manifest(out, cfg, rows, time.perf_counter() - t0, stages=stages)
    return rows


def run_cross_validate(cfg: RunConfig, out: Path):
    """Both routes at matched settings for crossing and band observables.

    Crossing levels come from cfg.sweep when given (else a1); band radii
    from cfg.a2. One factorization and one adjoint solve serve both kinds.
    Returns one comparison row per (kind, level): abs_diff = |pde - mc| and
    gap_se = (pde - mc) / mc_se, the gap in Monte Carlo standard errors (nan
    when mc_se is 0). The CSV and the manifest add one `rice` row per
    crossing level, Rice's formula on the same weights against the same
    Monte Carlo counts.
    """
    t0 = time.perf_counter()
    a1_levels = list(cfg.sweep) if cfg.sweep else [cfg.a1]
    a2_levels = [cfg.a2]

    stats, adjoint, grid, stages = _pde_sweep(
        cfg,
        [_level_observable(cfg, lv, "crossing") for lv in a1_levels]
        + [_level_observable(cfg, lv, "band") for lv in a2_levels],
    )
    sim = cfg.sim
    cobs = CrossingObserver(a1_levels, sim.dt, sim.n_paths)
    bobs = BandObserver(a2_levels, sim.n_paths)
    simulate_paths(sim, cfg.model, [cobs, bobs])
    crossing_mc = [cobs.frequency(i) for i in range(len(a1_levels))]
    mc = crossing_mc + [bobs.probability(i) for i in range(len(a2_levels))]
    kinds = ["crossing"] * len(a1_levels) + ["band"] * len(a2_levels)

    def compare(kind, level, pde, mv, mse):
        gap = pde - mv
        return {"kind": kind, "level": level, "pde": pde,
                "mc": mv, "mc_se": mse, "abs_diff": abs(gap),
                "gap_se": gap / mse if mse > 0 else math.nan,
                "residual": adjoint.residual, "iterations": adjoint.iterations}

    rows = [
        compare(kind, level, stat, mv, mse)
        for kind, level, stat, (mv, mse) in zip(kinds, a1_levels + a2_levels, stats, mc)
    ]
    rice_rows = [
        compare("rice", level, rice_rate(adjoint.v, grid, level), mv, mse)
        for level, (mv, mse) in zip(a1_levels, crossing_mc)
    ]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "cross_validate.csv", "w") as fh:
        fh.write("kind,level,pde,mc,mc_se,abs_diff,gap_se\n")
        for r in rows + rice_rows:
            fh.write(
                f"{r['kind']},{r['level']:.12g},{r['pde']:.12g},{r['mc']:.12g},"
                f"{r['mc_se']:.12g},{r['abs_diff']:.12g},{r['gap_se']:.12g}\n"
            )
    write_manifest(
        out, cfg, rows + rice_rows, time.perf_counter() - t0,
        weight_diagnostics(adjoint.v, grid), stages,
    )
    return rows
