"""Tests of the benchmark's own logic: span arithmetic, the output checks,
the seeded config documents and the probe.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from reference import load_reference  # noqa: E402
from tracing import (  # noqa: E402
    EXPERIMENT_SPAN,
    LAYER_METRICS,
    Tracer,
    coverage_gap,
    covered,
    layer_metrics,
    self_times,
)
from workloads import WORKLOADS, check_outputs, symmetry_tolerance  # noqa: E402


def span(id, name, parent, start, end, **attrs):
    return {"id": id, "name": name, "parent": parent, "start": start, "end": end, "attrs": attrs}


# --- span arithmetic ---------------------------------------------------------


def test_covered_merges_overlapping_intervals():
    assert covered([]) == 0.0
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(6.0)
    assert covered([(1.0, 6.0), (2.0, 3.0)]) == pytest.approx(5.0)


def test_self_time_of_nested_spans():
    spans = [
        span(0, "root", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 4.0),
        span(2, "a.child", 1, 2.0, 3.0),
        span(3, "b", 0, 5.0, 6.5),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.5)
    # self times of a tree add up to the root's duration
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, "root", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 4.0),
        span(2, "b", 0, 3.0, 6.0),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_records_parents_with_its_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert outer["parent"] is None
    assert first["parent"] == second["parent"] == outer["id"]
    assert (outer["start"], outer["end"]) == (0.0, 5.0)
    assert self_times(tracer.spans)[outer["id"]] == pytest.approx(3.0)
    assert coverage_gap(tracer.spans, 5.0) == 5.0  # no experiment span


def test_layer_metrics_from_spans():
    spans = [
        span(0, EXPERIMENT_SPAN, None, 0.0, 10.0),
        span(1, "assembly.matrix", 0, 0.0, 1.0),
        span(2, "solver.factor", 0, 1.0, 3.0, nnz=100, fallbacks=1),
        span(3, "solver.solve", 0, 3.0, 4.0, iterations=7, residual_rel=2e-11, rel_tol=1e-10),
        span(4, "solver.solve", 0, 4.0, 5.0, iterations=9, residual_rel=5e-11, rel_tol=1e-10),
        span(5, "sde.simulate", 0, 5.0, 9.0, path_steps=1000),
        span(6, "sde.crossing_observer", 5, 6.0, 7.0),
        span(7, "sde.band_observer", 5, 7.0, 7.5),
    ]
    installed = {name for names in LAYER_METRICS.values() for name in names[1]}
    m = {k: v for k, (v, _unit) in layer_metrics(spans, installed).items()}
    assert m["assembly.matrix_calls"] == 1
    assert m["solver.factor_s"] == pytest.approx(2.0)
    assert m["solver.factor_nnz"] == 100
    assert m["solver.factor_fallbacks"] == 1
    assert m["solver.solve_calls"] == 2
    assert m["solver.krylov_iterations"] == 16
    assert m["solver.residual_rel_max"] == pytest.approx(5e-11)
    assert m["sde.simulate_s"] == pytest.approx(4.0)
    assert m["sde.step_s"] == pytest.approx(2.5)
    assert m["sde.path_steps_per_s"] == pytest.approx(250.0)
    assert m["experiments.self_s"] == pytest.approx(1.0)
    assert m["convergence.sup_diff_s"] == 0.0  # the layer did not run
    assert coverage_gap(spans, 10.0) == pytest.approx(0.0)


def test_metrics_of_a_removed_function_are_absent():
    spans = [span(0, EXPERIMENT_SPAN, None, 0.0, 1.0)]
    installed = {"assembly.matrix", "assembly.rhs"}
    m = layer_metrics(spans, installed)
    assert "assembly.matrix_calls" in m
    assert "solver.factor_calls" not in m
    assert "sde.step_s" not in m
    assert "experiments.self_s" in m


# --- output checks -------------------------------------------------------------

# outputs of this commit
SWEEP_ROWS = [
    {"a1": -2.0, "nu_pde": 0.0208524}, {"a1": -1.0, "nu_pde": 0.128922},
    {"a1": 0.0, "nu_pde": 0.236896}, {"a1": 1.0, "nu_pde": 0.128922},
    {"a1": 2.0, "nu_pde": 0.0208524},
]
CROSS_ROWS = [
    {"kind": "crossing", "level": -1.0, "pde": 0.129218, "mc": 0.119962, "mc_se": 0.00358},
    {"kind": "crossing", "level": 0.0, "pde": 0.211324, "mc": 0.281878, "mc_se": 0.00338},
    {"kind": "crossing", "level": 1.0, "pde": 0.129218, "mc": 0.12047, "mc_se": 0.0033},
    {"kind": "band", "level": 1.5, "pde": 0.99576, "mc": 0.990228, "mc_se": 0.00163},
]
# seed 1651031294: MC nu(1) and nu(-1) 3.26 sqrt(se_1^2 + se_-1^2) apart, but
# 2.71 standard errors of their paired difference (per-path rates correlate
# at -0.45)
CROSS_ROWS_WIDE_MC = [
    {"kind": "crossing", "level": 0.0, "pde": 0.211324, "mc": 0.295003, "mc_se": 0.00301348},
    {"kind": "crossing", "level": 1.0, "pde": 0.129218, "mc": 0.125314, "mc_se": 0.00351640},
    {"kind": "crossing", "level": -1.0, "pde": 0.129218, "mc": 0.109337, "mc_se": 0.00341431},
    {"kind": "band", "level": 1.5, "pde": 0.99576, "mc": 0.990808, "mc_se": 0.00155599},
]
LADDER_ROWS = [
    {"axis": axis, "level": float(level), "diff": diff, "order": order}
    for axis, diffs, p in (
        ("x", (0.0267055, 0.00625836), 2.09328),
        ("y", (0.0141637, 0.00440957), 1.68349),
        ("z", (0.0364185, 0.0113759), 1.67869),
    )
    for level, diff, order in (
        (0, math.nan, math.nan), (1, diffs[0], math.nan), (2, diffs[1], p)
    )
]


def perturbed(rows, match, **changes):
    return [dict(r, **changes) if all(r[k] == v for k, v in match.items()) else dict(r)
            for r in rows]


@pytest.fixture(scope="module")
def reference():
    return load_reference()


@pytest.mark.parametrize(
    "workload, rows",
    [
        ("pde-sweep", SWEEP_ROWS),
        ("cross-validate", CROSS_ROWS),
        ("cross-validate", CROSS_ROWS_WIDE_MC),
        ("refine-ladder", LADDER_ROWS),
    ],
)
def test_outputs_of_this_commit_pass(workload, rows, reference):
    assert check_outputs(WORKLOADS[workload], rows, reference) == []


@pytest.mark.parametrize(
    "workload, rows, match, changes",
    [
        # a symmetric level pair 1e-6 apart
        ("pde-sweep", SWEEP_ROWS, {"a1": 1.0}, {"nu_pde": 0.128922 + 1e-6}),
        # far from the same-observable reference
        ("pde-sweep", SWEEP_ROWS, {"a1": 0.0}, {"nu_pde": 0.3}),
        ("pde-sweep", SWEEP_ROWS, {"a1": 0.0}, {"nu_pde": math.nan}),
        ("pde-sweep", SWEEP_ROWS, {"a1": 2.0}, {"nu_pde": -0.0208524}),
        ("cross-validate", CROSS_ROWS, {"level": 1.0}, {"pde": 0.129218 + 1e-6}),
        ("cross-validate", CROSS_ROWS, {"level": 0.0}, {"pde": 0.15}),
        # a band probability of 1.01
        ("cross-validate", CROSS_ROWS, {"kind": "band"}, {"mc": 1.01}),
        ("cross-validate", CROSS_ROWS, {"kind": "band"}, {"pde": 1.03, "mc": 1.0}),
        ("cross-validate", CROSS_ROWS, {"kind": "band"}, {"pde": 0.9}),
        # Monte Carlo levels that break the model's symmetry
        ("cross-validate", CROSS_ROWS, {"level": 1.0}, {"mc": 0.16}),
        # an order of 1.5
        ("refine-ladder", LADDER_ROWS, {"axis": "y", "level": 2.0}, {"order": 1.5}),
        ("refine-ladder", LADDER_ROWS, {"axis": "z", "level": 2.0}, {"order": 2.3}),
        ("refine-ladder", LADDER_ROWS, {"axis": "x", "level": 2.0}, {"diff": 0.04}),
        ("refine-ladder", LADDER_ROWS, {"axis": "x", "level": 1.0}, {"diff": math.inf}),
    ],
)
def test_every_check_rejects_a_perturbed_row(workload, rows, match, changes, reference):
    bad = perturbed(rows, match, **changes)
    assert bad != rows
    assert check_outputs(WORKLOADS[workload], bad, reference) != []


def test_symmetry_tolerance_is_below_a_microunit():
    w = WORKLOADS["pde-sweep"]
    assert symmetry_tolerance(0.128922, w.n_nodes) < 1e-7


def test_reference_covers_every_checked_level(reference):
    for w in WORKLOADS.values():
        for level in w.levels:
            if w.eps0 is not None:
                mean, se = reference[(w.eps0, level)]
                assert 0 < se < 0.02 * mean


# --- config documents and the probe ----------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_documents_are_seeded_and_parse(name):
    from bepo.config import parse_config

    w = WORKLOADS[name]
    assert w.document(3) == w.document(3)
    cfg = parse_config(w.document(3))
    assert cfg.experiment == w.experiment
    assert (cfg.grid.I, cfg.grid.J, cfg.grid.K) == w.grid
    assert cfg.sim.seed == 3
    assert sorted(cfg.sweep) == sorted(w.levels)
    orders = {tuple(parse_config(w.document(s)).sweep) for s in range(8)}
    assert len(orders) > 1 or len(w.levels) < 2


def run_probe(tmp_path, document):
    (tmp_path / "run.cfg").write_text(document)
    result, trace = tmp_path / "result.json", tmp_path / "trace.json"
    cmd = [sys.executable, str(HERE / "probe.py"), "--launch", "0", "--result", str(result),
           "--trace", str(trace), "--", "crossing-sweep",
           "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text()), json.loads(trace.read_text()), proc.stderr


SMALL = """grid.I = 9
grid.J = 9
grid.K = 9
observable.eps0 = 1.75
mc.enabled = false
sweep.values = -1, 0, 1
"""


def test_probe_traces_a_small_sweep(tmp_path):
    result, trace, _ = run_probe(tmp_path, SMALL)
    assert result["exit"] == 0 and result["wall_s"] > 0
    m = {k: v for k, (v, _u) in layer_metrics(trace["spans"], trace["installed"]).items()}
    assert set(m) == set(LAYER_METRICS)
    assert m["solver.factor_calls"] == 1
    assert m["solver.solve_calls"] == 3
    assert m["assembly.matrix_calls"] == 1
    assert 0 < m["solver.residual_rel_max"] <= 1e-10
    assert m["solver.factor_nnz"] > 0
    assert abs(coverage_gap(trace["spans"], result["wall_s"])) < 0.05 * result["wall_s"]
    assert (tmp_path / "out" / "crossing_sweep.csv").exists()


def test_probe_counts_factorization_fallbacks(tmp_path):
    # without noise the system defeats threshold dropping and the solver
    # falls back to a complete LU, warning as it goes
    _, trace, stderr = run_probe(tmp_path, SMALL + "model.sigma = 0\n")
    m = {k: v for k, (v, _u) in layer_metrics(trace["spans"], trace["installed"]).items()}
    assert m["solver.factor_fallbacks"] >= 1
    assert "complete sparse LU" in stderr  # the warnings still reach the user

