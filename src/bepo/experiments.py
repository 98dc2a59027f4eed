"""Experiment drivers shared by the CLI and the acceptance tests.

Every PDE experiment factors and solves through `_factor_and_solve`. The
two sweeps and `cross-validate` take their rows from `_level_rows`: one
adjoint solve gives the weights w, every statistic is read as w @ g, and
one Monte Carlo run, when `mc.enabled`, counts every crossing level and
band radius on the same paths. Each experiment picks its columns from
those rows.

Every run writes its outputs plus a manifest.json holding the fully
resolved config document, the package version, wall-clock time, and the
summary rows, so a run can be reproduced bit-exactly from its manifest.
`_write_csv` writes every CSV table and `_write_json` every JSON file.
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
    _phase_of,
    simulate_paths,
    simulate_trajectory,
)
from .solver import (
    ResolventSolver,
    evaluate_statistic,
    invariant_weights,
    magnitude_violations,
    reflection_symmetric,
    require_finite,
    rice_rate,
    weight_diagnostics,
)

__all__ = [
    "run_solve",
    "run_simulate",
    "run_crossing_sweep",
    "run_serviceability_sweep",
    "run_convergence",
    "run_cross_validate",
    "write_manifest",
]


def observable_from_config(cfg: RunConfig, kind=None, level=None) -> Observable:
    """The configured observable, or the `kind` one ("crossing" or "band")
    at the crossing level or band radius `level`."""
    kind = cfg.observable if kind is None else kind
    if kind == "crossing":
        return mollified_crossing_speed(
            cfg.a1 if level is None else level, cfg.resolved_eps0()
        )
    if kind == "band":
        return plastic_band(cfg.a2 if level is None else level)
    return constant_observable(cfg.g_const)


def _factor_and_solve(cfg: RunConfig, spec: GridSpec, observables, adjoint: bool):
    """The factor-and-solve path of every PDE experiment.

    Builds the grid of `spec` and checks each crossing observable against
    it: a mollifier narrower than two cells and a level outside the box
    warn. Then it assembles and factors the matrix, builds the right-hand
    sides and checks them for non-finite entries, and makes one solve. With
    `adjoint` the solver is built for the transpose, and its solve gives
    the weights w of `invariant_weights` (stat(g) = w @ g for every
    observable); its right-hand sides are built after the factorization.
    Otherwise it is the forward solve for the field v of the one
    observable, whose right-hand side is built first: when it is b = S R b
    bit for bit (`reflection_symmetric`), as a band observable, the
    constant one and a crossing at level 0 are, the solver folds onto half
    the unknowns. The assembled matrix is dropped once the solver holds its
    y-line copy. Returns the report, the grid, the right-hand sides and the
    manifest's `stages` record: seconds of assembly (matrix and right-hand
    sides), of the y-line split and the line factorization, and of the
    Krylov solve, plus the number of line factorizations (1), their stored
    entries, the level steps of one preconditioner application, and the
    number of unknowns GMRES ran on (n_f = (n+1)/2 when the solver folds,
    n otherwise).
    """
    grid = build_grid(spec)
    crossing = [g.params for g in observables if g.kind == "crossing"]
    for eps0 in {params["eps0"] for params in crossing}:
        check_resolution(eps0, spec.h("x"))
    for params in crossing:
        if abs(params["a1"]) > spec.x_bar:
            warnings.warn(
                f"crossing level a1={params['a1']:g} lies outside the truncation "
                f"box (x_bar={spec.x_bar:g}); the statistic will be near zero"
            )

    def build_rhs():
        rhs = [assemble_rhs(grid, g, spec.lam) for g in observables]
        for b in rhs:
            require_finite(b)
        return rhs

    start = time.perf_counter()
    matrix = assemble_matrix(grid, cfg.model, spec.lam)
    # a forward solver folds when its right-hand side is b = S R b, which is
    # read before the solver is built; adjoint right-hand sides come after
    # the factorization, whose freed workspace they reuse
    rhs = None if adjoint else build_rhs()
    fold = None if adjoint else reflection_symmetric(rhs[0], spec, neumann=-1.0)
    assembled = time.perf_counter()
    solver = ResolventSolver(matrix, cfg.solver, adjoint=adjoint, fold=fold)
    del matrix  # the solver keeps its own y-line copy
    factored = time.perf_counter()
    if adjoint:
        rhs = build_rhs()
    ready = time.perf_counter()
    report = invariant_weights(solver, grid) if adjoint else solver.solve(rhs[0])
    stages = {
        "assemble_s": (assembled - start) + (ready - factored),
        "factor_s": factored - assembled,
        "solve_s": time.perf_counter() - ready,
        "factors": 1,
        "factor_nnz": solver.factor_nnz,
        "levels": solver.levels,
        "unknowns": solver.Ay.shape[0],
    }
    return report, grid, rhs, stages


def _strict(value):
    """value with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _write_json(path: Path, value, indent=None) -> None:
    """value as strict JSON, one document and a newline: a NaN or an
    infinity is written as null."""
    path.write_text(json.dumps(_strict(value), indent=indent, allow_nan=False) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """header, then one line per row of cells: numbers as %.12g, strings as
    they are."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join([c if isinstance(c, str) else "%.12g" % c for c in row]) + "\n")


def write_manifest(
    out: Path,
    cfg: RunConfig,
    rows,
    wall_clock: float,
    weights: dict | None = None,
    stages: dict | None = None,
) -> None:
    """manifest.json, strict JSON (`_write_json`).

    `weights` holds the weight diagnostics of runs that solve for the
    discrete invariant measure, and `stages` the stage record of runs that
    factor and solve (`_factor_and_solve`).
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
    _write_json(out / "manifest.json", manifest, indent=2)


def _solution_rows(grid, v):
    """The rows of solution.csv in node order, streamed one (i, j) line of
    nodes at a time: 1-based indices, unscaled coordinates and v. A row is
    (cells, v), its index and coordinate cells as one string, each axis
    cell formatted once."""
    x, y, z = (["%.12g" % c for c in axis.tolist()] for axis in (grid.x, grid.y, grid.z))
    kz = [(str(k + 1), zk) for k, zk in enumerate(z)]
    field = grid.spec.field(v)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            head, mid = f"{i + 1},{j + 1},", f",{xi},{yj},"
            yield from zip([head + k + mid + zk for k, zk in kz], field[i, j].tolist())


def run_solve(cfg: RunConfig, out: Path) -> dict:
    """One forward solve; writes solution.csv and summary.json."""
    t0 = time.perf_counter()
    g = observable_from_config(cfg)
    report, grid, _, stages = _factor_and_solve(cfg, cfg.grid, [g], adjoint=False)
    statistic, spread = evaluate_statistic(report.v, grid)
    violations = magnitude_violations(
        report.v, grid, g.sup_norm(cfg.grid.x_bar, cfg.grid.y_bar, cfg.model.b)
    )
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "solution.csv", "i,j,k,x,y,z,v", _solution_rows(grid, report.v))
    row = {"statistic": statistic, "spread": spread,
           "residual": report.residual, "iterations": report.iterations}
    _write_json(out / "summary.json", row)
    row["bound_violations"] = len(violations)
    write_manifest(out, cfg, [row], time.perf_counter() - t0, stages=stages)
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
        picked = slice(None, None, cfg.record_stride)
        ts = recorder.times(cfg.sim.dt)[picked].tolist()
        xs, ys, zs = (a[picked, 0].tolist() for a in recorder.arrays())
        states = (
            (t, x, y, z, _phase_of(z, cfg.model.b).value) for t, x, y, z in zip(ts, xs, ys, zs)
        )
        _write_csv(out / "trajectory.csv", "t,x,y,z,phase", states)
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


def _level_rows(cfg: RunConfig, crossing, band):
    """One row per crossing level, then per band radius, from one adjoint
    solve and at most one Monte Carlo run, for the sweeps and
    `cross-validate`.

    Every PDE statistic is w @ g on the weights w of `invariant_weights`.
    With `cfg.mc_enabled` one shared set of paths feeds a `CrossingObserver`
    and a `BandObserver`; without it mc and mc_se are NaN. A row holds kind,
    level, pde, mc, mc_se, residual and iterations, and a crossing row also
    nu_rice, Rice's rate on w. Returns the rows, w's `weight_diagnostics`
    and the stage record, which with Monte Carlo on adds the seconds of the
    Monte Carlo run (observers included), `simulate_paths`' `observe_s` and
    `noise_wait_s` within it, and its path-steps per second.
    """
    kinds = ["crossing"] * len(crossing) + ["band"] * len(band)
    levels = crossing + band
    observables = [observable_from_config(cfg, k, lv) for k, lv in zip(kinds, levels)]
    adjoint, grid, rhs, stages = _factor_and_solve(cfg, cfg.grid, observables, adjoint=True)
    w = adjoint.v
    pde = [float(w @ b) for b in rhs]
    # freed before the Monte Carlo phase, whose peak RSS follows the heap
    # that the PDE phase leaves behind
    del observables, rhs
    estimates = [(math.nan, math.nan)] * len(levels)
    if cfg.mc_enabled:
        sim = cfg.sim
        crossings = CrossingObserver(crossing, sim.dt, sim.n_paths)
        bands = BandObserver(band, sim.n_paths)
        observers = [obs for obs, on in ((crossings, crossing), (bands, band)) if on]
        start = time.perf_counter()
        simulate_paths(sim, cfg.model, observers, stages=stages)
        stages["simulate_s"] = time.perf_counter() - start
        stages["path_steps_per_s"] = sim.n_paths * sim.n_steps / stages["simulate_s"]
        estimates = [crossings.frequency(i) for i in range(len(crossing))] + [
            bands.probability(i) for i in range(len(band))
        ]
    rows = []
    for kind, level, stat, (mv, mse) in zip(kinds, levels, pde, estimates):
        row = {"kind": kind, "level": level, "pde": stat, "mc": mv, "mc_se": mse}
        if kind == "crossing":
            row["nu_rice"] = rice_rate(w, grid, level)
        row.update(residual=adjoint.residual, iterations=adjoint.iterations)
        rows.append(row)
    return rows, weight_diagnostics(w, grid), stages


def _sweep(cfg: RunConfig, out: Path, kind: str):
    t0 = time.perf_counter()
    levels = list(cfg.sweep)
    crossing = kind == "crossing"
    found, weights, stages = _level_rows(
        cfg, levels if crossing else [], [] if crossing else levels
    )
    keys = ["level", "pde", "mc", "mc_se"] + (["nu_rice"] if crossing else []) + ["residual"]
    rows = [{key: r[key] for key in keys + ["iterations"]} for r in found]
    out.mkdir(parents=True, exist_ok=True)
    if crossing:
        csv, header = out / "crossing_sweep.csv", "a1,nu_pde,nu_mc,nu_mc_se,nu_rice,residual"
    else:
        csv, header = out / "serviceability_sweep.csv", "a2,P_pde,P_mc,P_mc_se,residual"
    _write_csv(csv, header, ([r[k] for k in keys] for r in rows))
    _write_plot_script(out, csv.name, kind)
    write_manifest(out, cfg, rows, time.perf_counter() - t0, weights, stages)
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
    return _sweep(cfg, out, "crossing")


def run_serviceability_sweep(cfg: RunConfig, out: Path):
    """P(a2) for each sweep value; the MC column shares one sample set and
    is therefore exactly nondecreasing in a2."""
    return _sweep(cfg, out, "band")


def run_convergence(cfg: RunConfig, out: Path, threads: int = 1):
    """Nested-refinement study for the configured observable.

    Each axis is refined n_refinements times while the other axes stay at
    the base resolution; consecutive-level sup differences and the order
    estimates between them are reported per axis. One executor of `threads`
    workers solves each distinct level once, the shared base included. The
    manifest's `stages` sums their stage records; with threads > 1 the
    levels overlap, so the seconds add up to more than the wall clock.
    """
    t0 = time.perf_counter()
    g = observable_from_config(cfg)
    n = cfg.n_refinements
    ladders = {axis: refinement_ladder(cfg.grid, axis, n).levels for axis in ("x", "y", "z")}
    distinct = list(dict.fromkeys(spec for specs in ladders.values() for spec in specs))

    def solve_on(spec: GridSpec):
        report, _, _, stages = _factor_and_solve(cfg, spec, [g], adjoint=False)
        return report, stages

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        solved = dict(zip(distinct, pool.map(solve_on, distinct)))
    rows = []
    for axis, specs in ladders.items():
        reports = [solved[spec][0] for spec in specs]
        diffs = [
            sup_diff_on_common(
                reports[m].v, reports[m + 1].v, specs[m], specs[m + 1], cfg.interior_only
            )
            for m in range(len(reports) - 1)
        ]
        for m, spec in enumerate(specs):
            rows.append(
                {
                    "axis": axis,
                    "level": m,
                    "h": getattr(spec, "d" + axis),
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
    keys = ["axis", "level", "h", "diff", "order"]
    _write_csv(out / "convergence.csv", ",".join(keys), ([r[k] for k in keys] for r in rows))
    stages = {key: sum(st[key] for _, st in solved.values()) for key in solved[cfg.grid][1]}
    write_manifest(out, cfg, rows, time.perf_counter() - t0, stages=stages)
    return rows


def run_cross_validate(cfg: RunConfig, out: Path):
    """Both routes at matched settings for crossing and band observables.

    Crossing levels come from cfg.sweep when given (else a1); band radii
    from cfg.a2. One factorization and one adjoint solve serve both kinds,
    and Monte Carlo runs when cfg.mc_enabled. Returns one comparison row per
    (kind, level): abs_diff = |pde - mc| and gap_se = (pde - mc) / mc_se,
    the gap in Monte Carlo standard errors (nan when mc_se is 0 or Monte
    Carlo is off). The CSV and the manifest add one `rice` row per crossing
    level, Rice's formula on the same weights against the same Monte Carlo
    counts.
    """
    t0 = time.perf_counter()
    a1_levels = list(cfg.sweep) if cfg.sweep else [cfg.a1]
    found, weights, stages = _level_rows(cfg, a1_levels, [cfg.a2])

    def compare(r, kind, pde):
        gap, mse = pde - r["mc"], r["mc_se"]
        return {"kind": kind, "level": r["level"], "pde": pde,
                "mc": r["mc"], "mc_se": mse, "abs_diff": abs(gap),
                "gap_se": gap / mse if mse > 0 else math.nan,
                "residual": r["residual"], "iterations": r["iterations"]}

    rows = [compare(r, r["kind"], r["pde"]) for r in found]
    rice_rows = [compare(r, "rice", r["nu_rice"]) for r in found if r["kind"] == "crossing"]
    out.mkdir(parents=True, exist_ok=True)
    keys = ["kind", "level", "pde", "mc", "mc_se", "abs_diff", "gap_se"]
    table = rows + rice_rows
    _write_csv(out / "cross_validate.csv", ",".join(keys), ([r[k] for k in keys] for r in table))
    write_manifest(out, cfg, table, time.perf_counter() - t0, weights, stages)
    return rows
