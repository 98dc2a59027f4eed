import dataclasses
import json
import math
import time

import numpy as np
import pytest

import bepo.solver as solver_module
from bepo import cli, experiments
from bepo.cli import main
from bepo.config import _SCHEMA, RunConfig, parse_config, serialize_config
from bepo.errors import NonFiniteState, ParseError, ValidationError
from bepo.experiments import run_crossing_sweep, run_serviceability_sweep
from bepo.grid import GridSpec
from bepo.model import ForceSpec, ModelParams
from bepo.sde import OscState, SimConfig
from bepo.solver import ResolventSolver, SolverConfig


def test_empty_document_gives_paper_defaults():
    cfg = parse_config("")
    assert cfg.model.k == 1.0
    assert cfg.model.alpha == 0.5
    assert cfg.model.b == 1.0
    assert cfg.model.sigma == 1.0
    assert (cfg.model.force.c0, cfg.model.force.c1, cfg.model.force.const) == (
        1.0,
        0.0,
        0.0,
    )
    assert cfg.grid.x_bar == 3.5 and cfg.grid.y_bar == 3.5
    assert cfg.grid.lam == 1e-3
    assert cfg.resolved_eps0() == pytest.approx(3.5 / 64)


def test_unknown_key_is_an_error():
    with pytest.raises(ParseError):
        parse_config("model.mass = 2.0")
    # removed keys are unknown too: spilu's own fill bound was never reached,
    # and the exact line sweeps drop no entry
    for key in ("solver.fill_factor", "solver.drop_tol"):
        with pytest.raises(ParseError, match=key):
            parse_config(f"{key} = 0.001")


def test_malformed_line():
    with pytest.raises(ParseError):
        parse_config("just some words")


def test_duplicate_key():
    with pytest.raises(ParseError):
        parse_config("model.k = 1\nmodel.k = 2")


def test_validation_error_on_bad_alpha():
    with pytest.raises(ValidationError):
        parse_config("model.alpha = 1.5")


def test_validation_error_on_even_grid():
    with pytest.raises(ValidationError):
        parse_config("grid.I = 8")


# settings that crashed (max_iters), met a singular factor (lambda, x_bar)
# or returned a statistic of 0 (eps0) before validation
SOLVE_PROBES = [
    "solver.max_iters = 0",
    "grid.lambda = inf",
    "grid.x_bar = inf",
    "observable.eps0 = inf",
]


@pytest.mark.parametrize(
    "line",
    [
        "sim.dt = inf",
        "sim.dt = nan",
        "sim.burn_in = -1",
        "sim.init_x = inf",
        "model.sigma = inf",
        "model.k = inf",
        "model.b = inf",
        "force.c0 = nan",
        "force.c1 = inf",
        "force.const = nan",
        "observable.a2 = nan",
        "observable.a1 = nan",
        "observable.c = inf",
        "sweep.values = 0.5, nan",
        "convergence.n_refinements = -1",
        "output.record_stride = -5",
        "sim.seed = -1",
        # a crossing rate from fewer than two observed samples
        "experiment = cross-validate\nsim.n_steps = 100\nsim.burn_in = 99",
        "experiment = crossing-sweep\nsweep.values = 0\nsim.n_steps = 2\nsim.burn_in = 1",
        *SOLVE_PROBES,
    ],
)
def test_validation_error_on_nonfinite_or_negative_inputs(line):
    with pytest.raises(ValidationError):
        parse_config(line)


# a key that was accepted once (drop_tol, of the incomplete LU the exact line
# sweeps replaced) fails at parse time
@pytest.mark.parametrize("line", [*SOLVE_PROBES, "solver.drop_tol = -1"])
def test_cli_rejects_bad_solve_settings_before_factoring(tmp_path, capsys, monkeypatch, line):
    def never(*args, **kwargs):
        raise AssertionError("the factorization ran on a rejected setting")

    monkeypatch.setattr(solver_module, "_line_sweeps", never)
    config = tmp_path / "run.cfg"
    config.write_text(f"grid.I = 9\ngrid.J = 9\ngrid.K = 9\ngrid.lambda = 0.01\n{line}\n")
    rc = main(["solve", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_threads_below_one_before_parsing(tmp_path, capsys, monkeypatch, threads):
    def never(*args, **kwargs):
        raise AssertionError("the config was parsed with a rejected --threads")

    monkeypatch.setattr(cli, "parse_config", never)
    monkeypatch.setattr(solver_module, "_line_sweeps", never)
    rc = main(["convergence", "--out", str(tmp_path / "o"), "--threads", threads])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --threads")
    assert not (tmp_path / "o").exists()


def test_monte_carlo_off_needs_no_observed_samples():
    cfg = parse_config(
        "experiment = crossing-sweep\nsweep.values = 0\nmc.enabled = false\n"
        "sim.n_steps = 2\nsim.burn_in = 1\n"
    )
    assert cfg.sim.n_steps - cfg.sim.effective_burn_in == 1


@pytest.mark.parametrize(
    "experiment, text, extra",
    [
        ("simulate", "", ["--seed", "-5"]),
        ("convergence", "convergence.n_refinements = -1\n", []),
        ("crossing-sweep", "sweep.values = 0\nsim.n_steps = 100\nsim.burn_in = 99\n", []),
        ("cross-validate", "sim.n_steps = 100\nsim.burn_in = 99\n", []),
        ("simulate", "sim.n_paths = 8\n", []),
    ],
    ids=[
        "negative-seed", "negative-refinements", "one-sample-sweep", "one-sample-cross",
        "several-paths-simulate",
    ],
)
def test_cli_rejects_bad_run_settings_before_any_work(
    tmp_path, capsys, monkeypatch, experiment, text, extra
):
    def never(*args, **kwargs):
        raise AssertionError("the run started on a rejected setting")

    monkeypatch.setattr(solver_module, "_line_sweeps", never)
    monkeypatch.setattr(experiments, "simulate_paths", never)
    monkeypatch.setattr(experiments, "simulate_trajectory", never)
    config = tmp_path / "run.cfg"
    config.write_text("grid.I = 9\ngrid.J = 9\ngrid.K = 9\n" + text)
    rc = main([experiment, "--config", str(config), "--out", str(tmp_path / "o"), *extra])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_empty_document_gives_the_dataclass_defaults():
    cfg = parse_config("")
    assert cfg.solver == SolverConfig()
    assert cfg == RunConfig()


def test_sweep_required_for_sweep_experiments():
    with pytest.raises(ValidationError):
        parse_config("experiment = crossing-sweep")


@pytest.mark.parametrize("values", ["-0.5, 1", "0.5, nan"])
def test_serviceability_sweep_rejects_negative_values(values):
    with pytest.raises(ValidationError, match="sweep.values >= 0"):
        parse_config(f"experiment = serviceability-sweep\nsweep.values = {values}\n")
    # crossing levels may be negative
    parse_config("experiment = crossing-sweep\nsweep.values = -0.5, 1\n")


@pytest.mark.parametrize("z0", ["5.0", "-1.25"])
def test_an_initial_z_outside_the_plastic_bound_is_rejected(z0):
    with pytest.raises(ValidationError, match="sim.init_z"):
        parse_config(f"experiment = simulate\nsim.init_z = {z0}\n")


def test_an_initial_z_on_the_plastic_bound_is_accepted():
    assert parse_config("model.b = 0.5\nsim.init_z = -0.5\n").sim.init.z == -0.5


def test_cli_experiment_is_validated_before_the_run(tmp_path, capsys):
    """The positional experiment, not the document's key, is what the
    checks see: a negative band radius fails before any assembly."""
    config = tmp_path / "run.cfg"
    config.write_text("sweep.values = -0.5, 1\n")
    rc = main(["serviceability-sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "sweep.values >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_comments_and_blank_lines():
    cfg = parse_config("# comment\n\nmodel.k = 2.0  # trailing\n")
    assert cfg.model.k == 2.0


def test_round_trip_identity():
    text = """
    model.alpha = 0.25
    grid.I = 9
    grid.J = 9
    grid.K = 9
    grid.lambda = 0.01
    sim.n_paths = 4
    sim.burn_in = 10
    observable.kind = band
    observable.a2 = 0.75
    experiment = serviceability-sweep
    sweep.values = 0.5, 1.0
    """
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


# the manifest's config text for the defaults, and for a document that sets
# every key, written in the order serialize_config has always used; a
# dropped, renamed or reordered key changes it
DEFAULT_TEXT = """\
model.k = 1.0
model.alpha = 0.5
model.b = 1.0
model.sigma = 1.0
force.c0 = 1.0
force.c1 = 0.0
force.const = 0.0
grid.x_bar = 3.5
grid.y_bar = 3.5
grid.lambda = 0.001
grid.I = 33
grid.J = 33
grid.K = 33
solver.rel_tol = 1e-10
solver.max_iters = 200
solver.restart = 60
solver.polish_factor = 1.0
sim.dt = 0.001
sim.n_steps = 100000
sim.seed = 0
sim.n_paths = 1
sim.init_x = 0.0
sim.init_y = 0.0
sim.init_z = 0.0
experiment = solve
observable.kind = crossing
observable.a1 = 0.0
observable.a2 = 1.0
observable.c = 1.0
mc.enabled = true
convergence.n_refinements = 3
convergence.interior_only = false
output.record_stride = 0
"""

EVERY_KEY_DOCUMENT = """
convergence.interior_only = yes
convergence.n_refinements = 2
experiment = crossing-sweep
force.c0 = 0.1
force.c1 = -1.5
force.const = 0.2
grid.I = 9
grid.J = 11
grid.K = 7
grid.lambda = 1e-2
grid.x_bar = 4
grid.y_bar = 3
mc.enabled = 0
model.alpha = 0.75
model.b = 1.5
model.k = 1.25
model.sigma = 0.8
observable.a1 = 0.3
observable.a2 = 1.5
observable.c = 2
observable.eps0 = 0.2
observable.kind = band
output.record_stride = 10
sim.burn_in = 100
sim.dt = 2e-3
sim.init_x = 0.1
sim.init_y = -0.2
sim.init_z = 0.05
sim.n_paths = 8
sim.n_steps = 5000
sim.seed = 17
solver.max_iters = 500
solver.polish_factor = 0.5
solver.rel_tol = 1e-9
solver.restart = 25
sweep.values = 0.5 1 1.5
"""

EVERY_KEY_TEXT = """\
model.k = 1.25
model.alpha = 0.75
model.b = 1.5
model.sigma = 0.8
force.c0 = 0.1
force.c1 = -1.5
force.const = 0.2
grid.x_bar = 4.0
grid.y_bar = 3.0
grid.lambda = 0.01
grid.I = 9
grid.J = 11
grid.K = 7
solver.rel_tol = 1e-09
solver.max_iters = 500
solver.restart = 25
solver.polish_factor = 0.5
sim.dt = 0.002
sim.n_steps = 5000
sim.seed = 17
sim.n_paths = 8
sim.init_x = 0.1
sim.init_y = -0.2
sim.init_z = 0.05
experiment = crossing-sweep
observable.kind = band
observable.a1 = 0.3
observable.a2 = 1.5
observable.c = 2.0
mc.enabled = false
convergence.n_refinements = 2
convergence.interior_only = true
output.record_stride = 10
sim.burn_in = 100
observable.eps0 = 0.2
sweep.values = 0.5, 1.0, 1.5
"""


def test_serialized_config_text_is_pinned():
    assert serialize_config(RunConfig()) == DEFAULT_TEXT
    cfg = parse_config(EVERY_KEY_DOCUMENT)
    assert serialize_config(cfg) == EVERY_KEY_TEXT
    assert parse_config(EVERY_KEY_TEXT) == cfg


def test_schema_gives_every_dataclass_field_one_key():
    """Each key's (block, field) is a field of that block's class, and each
    field that is not itself a block has exactly one key: a field without
    one would be left out of every manifest. GridSpec.b is set from model.b
    and OscState.phase follows from z."""
    classes = {
        "": RunConfig, "model": ModelParams, "force": ForceSpec, "grid": GridSpec,
        "solver": SolverConfig, "sim": SimConfig, "init": OscState,
    }
    placed = [(block, name) for block, name, _ in _SCHEMA.values()]
    for block, name in placed:
        assert name in {f.name for f in dataclasses.fields(classes[block])}
    assert len(set(placed)) == len(placed)
    fields = {
        (block, f.name)
        for block, cls in classes.items()
        for f in dataclasses.fields(cls)
        if f.name not in classes
    }
    assert set(placed) == fields - {("grid", "b"), ("init", "phase")}


def quick_config(extra=""):
    return parse_config(
        "grid.I = 9\ngrid.J = 9\ngrid.K = 9\ngrid.lambda = 0.01\n"
        "sim.n_steps = 20000\nsim.n_paths = 4\nsim.dt = 1e-3\n" + extra
    )


def test_crossing_sweep_outputs(tmp_path):
    cfg = quick_config("observable.eps0 = 1.0\nsweep.values = -0.5, 0.5\n")
    cfg.experiment = "crossing-sweep"
    cfg.sweep = (-0.5, 0.5)
    rows = run_crossing_sweep(cfg, tmp_path)
    assert [r["level"] for r in rows] == [-0.5, 0.5]
    for r in rows:
        assert r["pde"] > 0
        assert r["mc"] >= 0
    csv = (tmp_path / "crossing_sweep.csv").read_text().splitlines()
    assert csv[0] == "a1,nu_pde,nu_mc,nu_mc_se,nu_rice,residual"
    assert len(csv) == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "config" in manifest and manifest["rows"]
    # manifest reproduces the run bit-exactly
    cfg2 = parse_config(manifest["config"])
    rows2 = run_crossing_sweep(cfg2, tmp_path / "again")
    assert rows2 == rows


def test_manifest_is_strict_json_and_reproduces_without_monte_carlo(tmp_path):
    """With Monte Carlo off, mc and mc_se are NaN; the manifest writes them
    as null, so a strict parser reads it and a re-run compares equal."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    cfg = quick_config("observable.eps0 = 1.0\nmc.enabled = false\nsweep.values = -0.5, 0.5\n")
    cfg.experiment = "crossing-sweep"
    run_crossing_sweep(cfg, tmp_path / "first")
    text = (tmp_path / "first" / "manifest.json").read_text()
    manifest = json.loads(text, parse_constant=reject)
    assert all(r["mc"] is None and r["mc_se"] is None for r in manifest["rows"])
    run_crossing_sweep(parse_config(manifest["config"]), tmp_path / "again")
    again = json.loads((tmp_path / "again" / "manifest.json").read_text(), parse_constant=reject)
    assert again["rows"] == manifest["rows"]
    csv = (tmp_path / "first" / "crossing_sweep.csv").read_text().splitlines()
    assert csv[1].split(",")[2:4] == ["nan", "nan"]


def test_manifests_record_stage_timings(tmp_path):
    from bepo.experiments import run_convergence, run_cross_validate, run_solve

    cfg = quick_config("observable.eps0 = 1.0\nsweep.values = 0.5\n")
    cfg.n_refinements = 1
    runs = {
        "solve": run_solve,
        "sweep": run_crossing_sweep,
        "band-sweep": run_serviceability_sweep,
        "convergence": run_convergence,
        "cross": run_cross_validate,
    }
    # one line factorization per matrix; convergence with one refinement per
    # axis factors 1 + 3 levels and sums their records. The crossing
    # observable at a1 = 0 is b = S R b, so the forward solves of solve and
    # convergence fold like the adjoint ones of the sweeps and cross-validate
    factors = {"solve": 1, "sweep": 1, "band-sweep": 1, "convergence": 4, "cross": 1}
    # GMRES runs on (n+1)/2 of the n = 9^3 unknowns; convergence sums its
    # levels, 9^3 and three of 17 x 9 x 9
    unknowns = {"solve": 365, "sweep": 365, "band-sweep": 365, "convergence": 2432, "cross": 365}
    # six band rows per unknown, and on 9^3 two lines of 9 that the fold
    # makes dense, (i, k) = (3, 4) and (4, 3)
    factor_nnz = {"solve": 2352, "sweep": 2352, "band-sweep": 2352, "convergence": 15656,
                  "cross": 2352}
    # the level steps of one preconditioner application: 13 levels up and
    # 12 down on the folded 9^3, 2 ((I+1)/2 + K - 1) - 1; convergence adds
    # 33, 25 and 41 for 17 x 9 x 9, 9 x 17 x 9 and 9 x 9 x 17
    levels = {"solve": 25, "sweep": 25, "band-sweep": 25, "convergence": 124, "cross": 25}
    pde_keys = {"assemble_s", "factor_s", "solve_s", "factors", "factor_nnz", "levels", "unknowns"}
    # the sweeps and cross-validate run Monte Carlo here
    mc_keys = {"simulate_s", "path_steps_per_s", "observe_s", "noise_wait_s", "noise_draw_s"}
    for name, run in runs.items():
        run(cfg, tmp_path / name)
        stages = json.loads((tmp_path / name / "manifest.json").read_text())["stages"]
        with_mc = name in ("sweep", "band-sweep", "cross")
        assert set(stages) == pde_keys | (mc_keys if with_mc else set())
        assert all(stages[key] > 0 for key in stages)
        for key in ("factors", "factor_nnz", "levels", "unknowns"):
            assert isinstance(stages[key], int)
        assert stages["factors"] == factors[name]
        assert stages["unknowns"] == unknowns[name]
        assert stages["factor_nnz"] == factor_nnz[name]
        assert stages["levels"] == levels[name]
        if with_mc:
            path_steps = cfg.sim.n_paths * cfg.sim.n_steps
            assert stages["path_steps_per_s"] == path_steps / stages["simulate_s"]
            # the observers and the waits for noise are parts of the run
            parts = [stages["observe_s"], stages["noise_wait_s"]]
            assert all(math.isfinite(v) for v in parts)
            assert sum(parts) <= stages["simulate_s"]
            # the producer's own seconds, taken in the other process
            assert math.isfinite(stages["noise_draw_s"])
    # Monte Carlo off: no Monte Carlo stages
    run_crossing_sweep(quick_config("observable.eps0 = 1.0\nmc.enabled = false\n"
                                    "sweep.values = 0.5\n"), tmp_path / "no-mc")
    stages = json.loads((tmp_path / "no-mc" / "manifest.json").read_text())["stages"]
    assert set(stages) == pde_keys


def test_serviceability_sweep_monotone_mc(tmp_path):
    cfg = quick_config()
    cfg.experiment = "serviceability-sweep"
    cfg.sweep = (0.25, 0.75, 1.5)
    rows = run_serviceability_sweep(cfg, tmp_path)
    mc = [r["mc"] for r in rows]
    assert mc == sorted(mc)
    assert all(0.0 <= v <= 1.0 for v in mc)
    pde = [r["pde"] for r in rows]
    assert all(-0.02 <= v <= 1.02 for v in pde)


def test_cli_solve_and_manifest(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "grid.I = 9\ngrid.J = 9\ngrid.K = 9\ngrid.lambda = 0.01\n"
        "observable.kind = constant\nobservable.c = 1.0\n"
    )
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(config), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "statistic=1" in captured
    summary = json.loads((out / "summary.json").read_text())
    assert summary["statistic"] == pytest.approx(1.0, abs=1e-9)
    assert (out / "solution.csv").exists()
    assert (out / "manifest.json").exists()


def test_solution_csv_is_every_node_formatted_cell_by_cell(tmp_path):
    """solution.csv holds one row per node, i fastest-outer and k innermost,
    each cell as %.12g of the same node's index, coordinate and value."""
    import itertools

    cfg = parse_config(
        "grid.I = 9\ngrid.J = 7\ngrid.K = 5\ngrid.lambda = 0.01\nobservable.kind = band\n"
    )
    experiments.run_solve(cfg, tmp_path)
    g = experiments.observable_from_config(cfg)
    report, grid, _, _ = experiments._factor_and_solve(cfg, cfg.grid, [g], adjoint=False)
    values = iter(report.v)
    expected = ["i,j,k,x,y,z,v"] + [
        ",".join("%.12g" % c for c in (i + 1, j + 1, k + 1, grid.x[i], grid.y[j], grid.z[k],
                                       next(values)))
        for i, j, k in itertools.product(range(9), range(7), range(5))
    ]
    assert (tmp_path / "solution.csv").read_text() == "\n".join(expected) + "\n"


def test_solve_manifest_counts_bound_violations(tmp_path, monkeypatch):
    """The boundedness diagnostic reaches the manifest; summary.json keeps
    its four keys."""
    from bepo.experiments import run_solve

    monkeypatch.setattr(
        experiments, "magnitude_violations", lambda v, grid, sup_g: [(1, 1, 1, 2.0)] * 2
    )
    run_solve(quick_config("observable.kind = band\n"), tmp_path)
    rows = json.loads((tmp_path / "manifest.json").read_text())["rows"]
    assert rows[0]["bound_violations"] == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"statistic", "spread", "residual", "iterations"}


def test_cli_simulate_trajectory_dump(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "sim.n_steps = 5000\nsim.dt = 1e-3\noutput.record_stride = 10\n"
    )
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(config), "--out", str(out), "--seed", "9"])
    assert rc == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,z,phase"
    assert len(lines) > 100
    first = lines[1].split(",")
    assert len(first) == 5 and first[4] in ("elastic", "plastic+", "plastic-")
    # 5000 steps less the default burn-in of 1%, every 10th one written
    assert json.loads((out / "manifest.json").read_text())["rows"][0]["n_observed"] == 4950
    assert len(lines) == 1 + 495


def test_cli_error_path(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("model.alpha = 7\n")
    rc = main(["solve", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_cli_unreadable_config_is_an_error_line(tmp_path, capsys, kind):
    config = tmp_path / "run.cfg"
    if kind == "directory":
        config.mkdir()
    elif kind == "not-utf8":
        config.write_bytes(b"grid.I = 9\n\xff\n")
    rc = main(["solve", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_cli_solve_with_nan_level_fails_fast(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "grid.I = 9\ngrid.J = 9\ngrid.K = 9\ngrid.lambda = 0.01\n"
        "observable.eps0 = 1.0\nobservable.a1 = nan\n"
    )
    t0 = time.perf_counter()
    rc = main(["solve", "--config", str(config), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err


def test_cli_seed_override_changes_mc(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("sim.n_steps = 2000\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(config), "--out", str(out1), "--seed", "1"])
    main(["simulate", "--config", str(config), "--out", str(out2), "--seed", "2"])
    m1 = json.loads((out1 / "manifest.json").read_text())["rows"][0]
    m2 = json.loads((out2 / "manifest.json").read_text())["rows"][0]
    assert m1["final_x"] != m2["final_x"]


def test_run_convergence_small(tmp_path):
    cfg = quick_config("observable.kind = band\nobservable.a2 = 0.375\n")
    cfg.experiment = "convergence"
    cfg.n_refinements = 2
    from bepo.experiments import run_convergence

    rows = run_convergence(cfg, tmp_path)
    assert {r["axis"] for r in rows} == {"x", "y", "z"}
    per_axis = [r for r in rows if r["axis"] == "x"]
    assert [r["level"] for r in per_axis] == [0, 1, 2]
    assert per_axis[1]["h"] == pytest.approx(per_axis[0]["h"] / 2)
    assert np.isfinite(per_axis[2]["order"])
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "axis,level,h,diff,order"
    assert len(lines) == 1 + 9


# 8 workers are more than the 4 distinct levels of one refinement per axis
@pytest.mark.parametrize("threads", [1, 2, 8])
def test_threaded_convergence_matches_serial(tmp_path, threads):
    from bepo.experiments import run_convergence

    cfg = quick_config("observable.kind = band\nconvergence.n_refinements = 1\n")
    cfg.experiment = "convergence"
    outs = [tmp_path / "serial", tmp_path / f"t{threads}"]
    for out, workers in zip(outs, (1, threads)):
        run_convergence(cfg, out, workers)
    csv = [(out / "convergence.csv").read_bytes() for out in outs]
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    assert csv[0] == csv[1]
    assert manifests[0]["rows"] == manifests[1]["rows"]
    for key in ("factors", "factor_nnz"):
        assert manifests[0]["stages"][key] == manifests[1]["stages"][key]


@pytest.mark.parametrize("n_refinements", [0, 1, 2])
def test_convergence_solves_each_distinct_level_once(tmp_path, monkeypatch, n_refinements):
    specs = []
    real = experiments._factor_and_solve

    def counted(cfg, spec, observables, adjoint):
        specs.append(spec)
        return real(cfg, spec, observables, adjoint)

    monkeypatch.setattr(experiments, "_factor_and_solve", counted)
    cfg = quick_config(f"observable.kind = band\nconvergence.n_refinements = {n_refinements}\n")
    rows = experiments.run_convergence(cfg, tmp_path, threads=2)
    assert len(specs) == 1 + 3 * n_refinements
    assert len(set(specs)) == len(specs) and cfg.grid in specs
    assert len(rows) == 3 * (1 + n_refinements)


def test_run_cross_validate_small(tmp_path):
    cfg = quick_config("observable.eps0 = 1.0\n")
    cfg.experiment = "cross-validate"
    cfg.sweep = (0.0,)
    cfg.a2 = 1.0
    from bepo.experiments import run_cross_validate

    rows = run_cross_validate(cfg, tmp_path)
    kinds = [r["kind"] for r in rows]
    assert kinds == ["crossing", "band"]
    for r in rows:
        assert np.isfinite(r["abs_diff"])
    assert (tmp_path / "cross_validate.csv").exists()


def test_cross_validate_honours_monte_carlo_off(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("Monte Carlo ran with mc.enabled = false")

    monkeypatch.setattr(experiments, "simulate_paths", never)
    # one observed sample is enough when no crossing is counted
    cfg = parse_config(
        "experiment = cross-validate\nmc.enabled = false\nsim.n_steps = 2\n"
        "sim.burn_in = 1\ngrid.I = 9\ngrid.J = 9\ngrid.K = 9\ngrid.lambda = 0.01\n"
        "observable.eps0 = 1.0\nsweep.values = -0.5, 0.5\n"
    )
    from bepo.experiments import run_cross_validate

    rows = run_cross_validate(cfg, tmp_path)
    assert [r["kind"] for r in rows] == ["crossing", "crossing", "band"]
    lines = (tmp_path / "cross_validate.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == ["crossing"] * 2 + ["band"] + ["rice"] * 2
    for line in lines:
        assert np.isfinite(float(line.split(",")[2]))
        assert line.split(",")[3:] == ["nan"] * 4
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for r in manifest["rows"]:
        assert r["pde"] is not None
        assert [r[key] for key in ("mc", "mc_se", "abs_diff", "gap_se")] == [None] * 4


def test_sweeps_and_cross_validate_agree_bit_for_bit(tmp_path):
    """All three read one weights vector and count on one set of paths."""
    from bepo.experiments import run_cross_validate

    levels = (-0.5, 0.0, 1.0)
    cfg = quick_config("observable.eps0 = 1.0\nobservable.a2 = 0.75\n")
    cfg.sweep = levels
    crossing = run_crossing_sweep(cfg, tmp_path / "crossing")
    run_cross_validate(cfg, tmp_path / "cross")
    cross = json.loads((tmp_path / "cross" / "manifest.json").read_text())["rows"]
    cfg.sweep = (cfg.a2,)
    (service,) = run_serviceability_sweep(cfg, tmp_path / "service")

    assert cfg.mc_enabled
    by_kind = {
        kind: [r for r in cross if r["kind"] == kind] for kind in ("crossing", "band", "rice")
    }
    for r, c, rice in zip(crossing, by_kind["crossing"], by_kind["rice"], strict=True):
        assert r["level"] == c["level"] == rice["level"]
        assert (r["pde"], r["mc"], r["mc_se"]) == (c["pde"], c["mc"], c["mc_se"])
        assert r["nu_rice"] == rice["pde"]
        assert (rice["mc"], rice["mc_se"]) == (c["mc"], c["mc_se"])
    (band,) = by_kind["band"]
    assert (service["level"], service["pde"], service["mc"], service["mc_se"]) == (
        band["level"], band["pde"], band["mc"], band["mc_se"]
    )


# (mc, mc_se) per level of 4-path quick_config sweeps: the observers' pooling
# across paths must keep them bit for bit
FOUR_PATH_CROSSING = [
    (0.2020304055760392, 0.035714267447171454),
    (0.1515228041820294, 0.029160577260953877),
]
FOUR_PATH_BAND = [
    (0.524040404040404, 0.15797709751883487),
    (0.6593181818181819, 0.15976616555247639),
]


def test_four_path_sweeps_are_pinned(tmp_path):
    cfg = quick_config("observable.eps0 = 1.0\n")
    cfg.sweep = (-0.5, 0.5)
    crossing = run_crossing_sweep(cfg, tmp_path / "crossing")
    cfg.sweep = (0.25, 0.5)
    band = run_serviceability_sweep(cfg, tmp_path / "band")
    assert [(r["mc"], r["mc_se"]) for r in crossing] == FOUR_PATH_CROSSING
    assert [(r["mc"], r["mc_se"]) for r in band] == FOUR_PATH_BAND


def test_one_path_cross_validate_reports_no_standard_error(tmp_path):
    """One path has no spread across paths: mc keeps its value, and mc_se
    and gap_se are NaN in the CSV and null in the manifest."""
    from bepo.experiments import run_cross_validate

    cfg = parse_config(
        "grid.I = 9\ngrid.J = 9\ngrid.K = 9\ngrid.lambda = 0.01\nsim.n_steps = 20000\n"
        "observable.eps0 = 1.0\nobservable.a2 = 0.25\nsweep.values = -0.5, 0.5\n"
    )
    assert cfg.sim.n_paths == 1
    rows = run_cross_validate(cfg, tmp_path)
    assert [r["mc"] for r in rows] == [0.252538006970049, 0.1010152027880196, 0.9628282828282828]
    lines = (tmp_path / "cross_validate.csv").read_text().splitlines()
    assert lines[0] == "kind,level,pde,mc,mc_se,abs_diff,gap_se"
    for line in lines[1:]:
        mc, mc_se, abs_diff, gap_se = line.split(",")[3:]
        assert (mc_se, gap_se) == ("nan", "nan")
        assert np.isfinite(float(mc)) and np.isfinite(float(abs_diff))
    for r in json.loads((tmp_path / "manifest.json").read_text())["rows"]:
        assert r["mc_se"] is None and r["gap_se"] is None
        assert r["mc"] is not None and r["abs_diff"] is not None


def test_frozen_deterministic_path_has_zero_crossings(tmp_path):
    cfg = quick_config("model.sigma = 0\nobservable.eps0 = 1.0\n")
    cfg.experiment = "crossing-sweep"
    cfg.sweep = (-1.0, 0.5, 2.0)
    rows = run_crossing_sweep(cfg, tmp_path)
    for r in rows:
        assert r["mc"] == 0.0


def test_sweep_level_outside_box_warns(tmp_path):
    cfg = quick_config("observable.eps0 = 1.0\nmc.enabled = false\n")
    cfg.experiment = "crossing-sweep"
    cfg.sweep = (10.0,)
    with pytest.warns(UserWarning, match="outside the truncation box"):
        rows = run_crossing_sweep(cfg, tmp_path)
    assert abs(rows[0]["pde"]) < 1e-6


def _run(experiment):
    from bepo.experiments import run_convergence, run_cross_validate, run_solve

    return {
        "solve": run_solve,
        "crossing-sweep": run_crossing_sweep,
        "cross-validate": run_cross_validate,
        "convergence": run_convergence,
    }[experiment]


@pytest.mark.parametrize(
    "experiment", ["solve", "crossing-sweep", "cross-validate", "convergence"]
)
def test_every_pde_experiment_warns_on_an_under_resolved_mollifier(tmp_path, experiment):
    # 2 dx = 1.75 on the 9-node x axis of [-3.5, 3.5]
    cfg = quick_config(
        f"experiment = {experiment}\nobservable.eps0 = 0.2\nsweep.values = 0.5\n"
        "mc.enabled = false\nconvergence.n_refinements = 1\n"
    )
    with pytest.warns(UserWarning, match="under-resolved"):
        _run(experiment)(cfg, tmp_path)


@pytest.mark.parametrize("experiment", ["solve", "crossing-sweep", "cross-validate"])
def test_every_pde_experiment_warns_on_a_level_outside_the_box(tmp_path, experiment):
    cfg = quick_config(
        f"experiment = {experiment}\nobservable.eps0 = 1.0\nobservable.a1 = 5\n"
        "sweep.values = 5\nmc.enabled = false\n"
    )
    with pytest.warns(UserWarning, match="outside the truncation box"):
        _run(experiment)(cfg, tmp_path)


def test_manifest_rows_record_solver_iterations(tmp_path):
    from bepo.experiments import run_convergence, run_cross_validate

    cfg = quick_config("observable.eps0 = 1.0\nsweep.values = 0.5\n")
    cfg.n_refinements = 1
    runs = {
        "sweep": run_crossing_sweep,
        "convergence": run_convergence,
        "cross": run_cross_validate,
    }
    for name, run in runs.items():
        run(cfg, tmp_path / name)
        rows = json.loads((tmp_path / name / "manifest.json").read_text())["rows"]
        for r in rows:
            assert isinstance(r["iterations"], int) and r["iterations"] > 0
            assert np.isfinite(r["residual"])

    lines = (tmp_path / "cross" / "cross_validate.csv").read_text().splitlines()
    assert lines[0] == "kind,level,pde,mc,mc_se,abs_diff,gap_se"
    rows = json.loads((tmp_path / "cross" / "manifest.json").read_text())["rows"]
    for r, line in zip(rows, lines[1:]):
        assert r["gap_se"] == pytest.approx((r["pde"] - r["mc"]) / r["mc_se"])
        assert float(line.split(",")[-1]) == pytest.approx(r["gap_se"])


def test_sweep_makes_one_adjoint_solve(tmp_path, monkeypatch):
    """Five levels share one factorization and one solve on the transpose."""
    calls = []
    real_solve = ResolventSolver.solve

    def counted(solver, b):
        calls.append(b)
        return real_solve(solver, b)

    monkeypatch.setattr(ResolventSolver, "solve", counted)
    cfg = quick_config("observable.eps0 = 1.0\nmc.enabled = false\n")
    cfg.sweep = (-2.0, -1.0, 0.0, 1.0, 2.0)
    rows = run_crossing_sweep(cfg, tmp_path)
    assert len(calls) == 1
    assert len({(r["residual"], r["iterations"]) for r in rows}) == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    weights = manifest["weights"]
    assert set(weights) == {"w_mass", "w_negative_mass", "w_x_sheet_mass", "w_y_sheet_mass"}
    assert weights["w_mass"] == pytest.approx(1.0, abs=1e-9)
    for r in manifest["rows"]:
        assert r["nu_rice"] > 0 and "spread" not in r


def test_sweep_with_a_nan_right_hand_side_fails_before_writing(tmp_path, monkeypatch):
    real = experiments.mollified_crossing_speed

    def one_nan_node(a1, eps0):
        g = real(a1, eps0)

        def fn(x, y, z):
            out = np.array(g.fn(x, y, z), dtype=float)
            if a1 > 0:
                out.flat[out.size // 2] = np.nan
            return out

        return experiments.Observable(g.kind, fn, g.params)

    monkeypatch.setattr(experiments, "mollified_crossing_speed", one_nan_node)
    cfg = quick_config("observable.eps0 = 1.0\n")
    cfg.sweep = (-0.5, 0.5)
    out = tmp_path / "out"
    with pytest.raises(NonFiniteState):
        run_crossing_sweep(cfg, out)
    assert not out.exists()


_PIN_GRID = "grid.I = 9\ngrid.J = 9\ngrid.K = 9\ngrid.lambda = 0.01\n"
_PIN_MC = "sim.n_steps = 600\nsim.n_paths = 4\nsim.dt = 0.02\nobservable.eps0 = 2.0\n"

# the summary lines each experiment prints, seed 5: any change to how the CLI
# picks the experiment or formats its rows moves one of them
CLI_SUMMARIES = {
    "solve": (
        _PIN_GRID + "observable.kind = band\nobservable.a2 = 1.0\n",
        ["statistic=0.62342569 spread=0.0524 residual=4.68e-11 iterations=12"],
    ),
    "simulate": (
        "sim.n_steps = 400\nsim.dt = 1e-2\n",
        ["observed=396 events=4 outside_box=0"],
    ),
    "crossing-sweep": (
        _PIN_GRID + _PIN_MC + "sweep.values = 1.0\n",
        ["a1=1 nu_pde=0.0720169 nu_mc=0.0421585 se=0.0422"],
    ),
    "serviceability-sweep": (
        _PIN_GRID + _PIN_MC + "sweep.values = 0.3\n",
        ["a2=0.3 P_pde=0.215052 P_mc=0.817761 se=0.182"],
    ),
    "convergence": (
        _PIN_GRID + "observable.kind = band\nobservable.a2 = 1.0\nconvergence.n_refinements = 2\n",
        [
            "axis=x level=0 h=0.00875 diff=nan order=nan",
            "axis=x level=1 h=0.004375 diff=0.119829 order=nan",
            "axis=x level=2 h=0.0021875 diff=0.0442997 order=1.43561",
            "axis=y level=0 h=0.00875 diff=nan order=nan",
            "axis=y level=1 h=0.004375 diff=0.0234872 order=nan",
            "axis=y level=2 h=0.0021875 diff=0.00946458 order=1.31126",
            "axis=z level=0 h=0.0025 diff=nan order=nan",
            "axis=z level=1 h=0.00125 diff=0.0160502 order=nan",
            "axis=z level=2 h=0.000625 diff=0.0035669 order=2.16985",
        ],
    ),
    "cross-validate": (
        _PIN_GRID + _PIN_MC + "observable.a1 = 0.5\nobservable.a2 = 0.3\n",
        [
            "crossing level=0.5 pde=0.0774699 mc=0.189713 se=0.053 diff=0.112 gap_se=-2.12",
            "band level=0.3 pde=0.215052 mc=0.817761 se=0.182 diff=0.603 gap_se=-3.31",
        ],
    ),
}


@pytest.mark.parametrize("experiment", list(CLI_SUMMARIES))
def test_cli_summary_lines_are_pinned(tmp_path, capsys, experiment):
    text, expected = CLI_SUMMARIES[experiment]
    config = tmp_path / "run.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    rc = main([experiment, "--config", str(config), "--out", str(out), "--seed", "5"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == expected + [f"outputs in {out}"]
