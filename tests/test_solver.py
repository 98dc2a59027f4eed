import gc
import json
import math
import warnings
import weakref

import numpy as np
import pytest

import bepo.solver as solver_module
from bepo.assembly import assemble_matrix, assemble_rhs
from bepo.config import parse_config
from bepo.errors import NoConvergence, NonFiniteState
from bepo.experiments import run_solve
from bepo.grid import GridSpec, build_grid
from bepo.model import ForceSpec, ModelParams
from bepo.observables import constant_observable, mollified_crossing_speed, plastic_band
from bepo.solver import (
    ResolventSolver,
    SolverConfig,
    evaluate_statistic,
    invariant_weights,
    magnitude_violations,
    rice_rate,
    solve_resolvent,
    weight_diagnostics,
)

MODEL = ModelParams()


@pytest.fixture(scope="module")
def grid9():
    return build_grid(GridSpec(lam=1e-2, I=9, J=9, K=9))


@pytest.fixture(scope="module")
def matrix9(grid9):
    return assemble_matrix(grid9, MODEL, 1e-2)


def test_constant_rhs_gives_constant_solution(grid9, matrix9):
    matrix9.rhs = assemble_rhs(grid9, constant_observable(1.0), 1e-2)
    rep = solve_resolvent(matrix9)
    assert np.abs(rep.v - 1.0).max() < 1e-9
    value, spread = evaluate_statistic(rep.v, grid9)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert spread < 1e-10
    assert rep.residual <= 1e-10 * np.linalg.norm(matrix9.rhs)


def test_scaling_linearity(grid9, matrix9):
    matrix9.rhs = assemble_rhs(grid9, constant_observable(1.0), 1e-2)
    v1 = solve_resolvent(matrix9).v
    matrix9.rhs = assemble_rhs(grid9, constant_observable(-3.0), 1e-2)
    v3 = solve_resolvent(matrix9).v
    assert np.abs(v3 - (-3.0) * v1).max() < 1e-8


def test_zero_rhs(grid9, matrix9):
    matrix9.rhs = np.zeros(matrix9.n)
    rep = solve_resolvent(matrix9)
    assert (rep.v == 0).all()
    assert rep.residual == 0.0
    assert rep.iterations == 0


def test_solver_linearity_on_combinations(grid9, matrix9):
    ga = mollified_crossing_speed(0.0, 1.0)
    gb = constant_observable(0.5)
    ra = assemble_rhs(grid9, ga, 1e-2)
    rb = assemble_rhs(grid9, gb, 1e-2)
    matrix9.rhs = ra
    va = solve_resolvent(matrix9).v
    matrix9.rhs = rb
    vb = solve_resolvent(matrix9).v
    matrix9.rhs = 2.0 * ra + 0.25 * rb
    vc = solve_resolvent(matrix9).v
    assert np.abs(vc - (2.0 * va + 0.25 * vb)).max() < 1e-8


def test_determinism(grid9):
    sys1 = assemble_matrix(grid9, MODEL, 1e-2)
    sys2 = assemble_matrix(grid9, MODEL, 1e-2)
    sys1.rhs = assemble_rhs(grid9, mollified_crossing_speed(0.5, 0.8), 1e-2)
    sys2.rhs = assemble_rhs(grid9, mollified_crossing_speed(0.5, 0.8), 1e-2)
    r1 = solve_resolvent(sys1)
    r2 = solve_resolvent(sys2)
    assert np.array_equal(r1.v, r2.v)
    assert r1.residual == r2.residual
    assert r1.iterations == r2.iterations


def test_no_convergence_raises(grid9, matrix9):
    matrix9.rhs = assemble_rhs(grid9, mollified_crossing_speed(0.0, 1.0), 1e-2)
    cfg = SolverConfig(rel_tol=1e-14, max_iters=2, restart=3, polish_factor=1.0)
    with pytest.raises(NoConvergence):
        solve_resolvent(matrix9, cfg)


def test_evaluate_statistic_shapes():
    grid = build_grid(GridSpec(lam=1.0, I=9, J=9, K=9))
    v = np.full(9**3, 0.7)
    value, spread = evaluate_statistic(v, grid)
    assert value == 0.7 and spread == 0.0
    # perturbation inside the central half-box moves the spread
    v3 = v.reshape(9, 9, 9).copy()
    v3[4, 4, 0] += 0.01
    value, spread = evaluate_statistic(v3.ravel(), grid)
    assert spread == pytest.approx(0.01)
    # corner perturbation outside the half-box does not
    v3 = v.reshape(9, 9, 9).copy()
    v3[0, 0, 0] += 5.0
    _, spread = evaluate_statistic(v3.ravel(), grid)
    assert spread == 0.0


def test_magnitude_violations_locates_nodes():
    grid = build_grid(GridSpec(lam=1.0, I=5, J=5, K=5))
    v = np.zeros(125)
    v[0] = 2.0
    out = magnitude_violations(v, grid, sup_g=1.0)
    assert out == [(1, 1, 1, 2.0)]
    assert magnitude_violations(v, grid, sup_g=2.0) == []


def test_exports(tmp_path):
    cfg = parse_config(
        "grid.I = 9\ngrid.J = 9\ngrid.K = 9\ngrid.lambda = 0.01\n"
        "observable.kind = constant\nobservable.c = 1.0\n",
        experiment="solve",
    )
    run_solve(cfg, tmp_path)
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    assert lines[0] == "i,j,k,x,y,z,v"
    assert len(lines) == 1 + 9**3
    data = json.loads((tmp_path / "summary.json").read_text())
    assert set(data) == {"statistic", "spread", "residual", "iterations"}
    assert data["statistic"] == pytest.approx(1.0, abs=1e-9)


def test_direct_fallback_matches_gmres(grid9, matrix9):
    from bepo.solver import solve_direct

    matrix9.rhs = assemble_rhs(grid9, mollified_crossing_speed(0.3, 0.9), 1e-2)
    iterative = solve_resolvent(matrix9)
    direct = solve_direct(matrix9)
    assert np.abs(direct.v - iterative.v).max() < 1e-8
    assert direct.residual <= 1e-8 * np.linalg.norm(matrix9.rhs)


def test_non_finite_rhs_raises_before_iterating(grid9, matrix9, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("GMRES ran on a non-finite right-hand side")

    monkeypatch.setattr(solver_module, "_gmres", never)
    solver = ResolventSolver(matrix9)
    for bad in (np.nan, np.inf):
        b = np.ones(matrix9.n)
        b[5] = bad
        with pytest.raises(NonFiniteState):
            solver.solve(b)


def test_inaccurate_gmres_result_with_success_flag_raises(grid9, matrix9, monkeypatch):
    """The accepted field is checked against the true residual, whatever
    GMRES reports: a vector a couple of iterations short of the target that
    comes back with info = 0 must not pass."""
    real_gmres = solver_module._gmres

    def short(A, b, precond, tol, restart, cycles):
        return real_gmres(A, b, precond, tol, 2, 1)

    monkeypatch.setattr(solver_module, "_gmres", short)
    b = assemble_rhs(grid9, mollified_crossing_speed(0.0, 1.0), 1e-2)
    with pytest.raises(NoConvergence) as info:
        ResolventSolver(matrix9).solve(b)
    assert info.value.residual > SolverConfig().rel_tol


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_gmres_matches_a_dense_solve(grid9, matrix9, adjoint):
    """On 9^3 the solve meets rel_tol on the true residual, and its field
    agrees with a dense LU solve to the accuracy that residual implies."""
    solver = ResolventSolver(matrix9, adjoint=adjoint)
    dense = solver.A.toarray()
    natural = matrix9.to_csr().toarray()
    assert np.array_equal(dense, natural.T if adjoint else natural)
    b = assemble_rhs(grid9, mollified_crossing_speed(0.5, 1.0), 1e-2)
    rep = solver.solve(b)
    exact = np.linalg.solve(dense, b)
    rel_tol = solver.cfg.rel_tol
    assert np.linalg.norm(b - dense @ rep.v) <= rel_tol * np.linalg.norm(b)
    bound = np.linalg.cond(dense) * rel_tol * np.linalg.norm(exact)
    assert np.linalg.norm(rep.v - exact) <= bound


def test_single_cycle_applies_the_preconditioner_once_per_step_plus_one(grid9, matrix9):
    """M^-1 goes once to b and once to each Arnoldi step, never twice to b.
    max_iters = 1 allows one restart cycle, and this solve converges in it."""
    solver = ResolventSolver(matrix9, SolverConfig(max_iters=1), adjoint=True)
    applied = []
    precond = solver.precond

    def counted(r):
        applied.append(r)
        return precond(r)

    solver.precond = counted
    rep = solver.solve(assemble_rhs(grid9, mollified_crossing_speed(0.0, 1.0), 1e-2))
    assert 0 < rep.iterations < solver.cfg.restart
    assert len(applied) == rep.iterations + 1


@pytest.mark.parametrize("max_iters, restart", [(1, 2), (1, 5), (3, 1)])
def test_too_short_a_krylov_budget_raises(grid9, matrix9, max_iters, restart):
    """A budget GMRES cannot converge in raises; no vector comes back."""
    b = assemble_rhs(grid9, mollified_crossing_speed(0.0, 1.0), 1e-2)
    cfg = SolverConfig(max_iters=max_iters, restart=restart)
    with pytest.raises(NoConvergence) as info:
        ResolventSolver(matrix9, cfg).solve(b)
    assert info.value.residual > cfg.rel_tol


def test_restart_above_the_unknowns_is_capped(grid9, matrix9):
    """No Krylov basis outgrows the n unknowns, so a restart far above n runs
    the same steps as the default instead of allocating a (restart + 1, n)
    basis."""
    b = assemble_rhs(grid9, plastic_band(0.5), 1e-2)
    base = ResolventSolver(matrix9).solve(b)
    huge = ResolventSolver(matrix9, SolverConfig(restart=2_000_000)).solve(b)
    assert huge.iterations == base.iterations
    assert np.array_equal(huge.v, base.v)


def test_spent_solver_is_freed_without_the_cycle_collector(grid9, matrix9):
    solver = ResolventSolver(matrix9)
    solver.solve(assemble_rhs(grid9, constant_observable(1.0), 1e-2))
    ref = weakref.ref(solver)
    gc.disable()
    try:
        del solver
        assert ref() is None
    finally:
        gc.enable()


def _band_system(I, J, K, lam=1e-2):
    grid = build_grid(GridSpec(lam=lam, I=I, J=J, K=K))
    return grid, assemble_matrix(grid, MODEL, lam)


def test_elongated_band_system_solves_to_rel_tol():
    """65x17x21 at lam = 1e-2, band a2 = 3/8: right-preconditioned GMRES on
    a COLAMD-ordered ILU stalled here near 1e-6."""
    grid, matrix = _band_system(65, 17, 21)
    b = assemble_rhs(grid, plastic_band(3.0 / 8.0), 1e-2)
    cfg = SolverConfig()
    rep = ResolventSolver(matrix, cfg).solve(b)
    assert rep.residual <= cfg.rel_tol * np.linalg.norm(b)
    assert np.linalg.norm(b - matrix.to_csr() @ rep.v) == pytest.approx(rep.residual)


def _natural_precond(solver):
    """The solver's preconditioner, which acts on vectors in the order of
    its y-line matrix, as an operator on natural-order vectors."""
    columns = [solver.to_natural(solver.precond(solver.to_yline(e))) for e in np.eye(solver.n)]
    return np.column_stack(columns)


def _dense_sgs(matrix, I, J, K):
    """P^T (D+U)^-1 D (D+L)^-1 P from dense line blocks of the y-line order."""
    n = I * J * K
    perm = np.arange(n).reshape(I, J, K).transpose(0, 2, 1).ravel()
    Ap = matrix.to_csr().toarray()[np.ix_(perm, perm)]
    line = np.arange(n) // J
    lower = np.where(line[None, :] <= line[:, None], Ap, 0.0)
    diag = np.where(line[None, :] == line[:, None], Ap, 0.0)
    upper = np.where(line[None, :] >= line[:, None], Ap, 0.0)
    P = np.eye(n)[perm]
    return P.T @ np.linalg.inv(upper) @ diag @ np.linalg.inv(lower) @ P


def test_preconditioner_is_symmetric_block_gauss_seidel_over_y_lines():
    """At drop_tol = 0 both halves are factored exactly, so the operator is
    P^T (D+U)^-1 D (D+L)^-1 P with the line split taken from dense blocks."""
    I, J, K = 5, 7, 5
    grid, matrix = _band_system(I, J, K)
    solver = ResolventSolver(matrix, SolverConfig(drop_tol=0.0))
    expected = _dense_sgs(matrix, I, J, K)
    got = _natural_precond(solver)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_transposed_solver_preconditions_with_the_transpose():
    """An adjoint solver applies the dense transpose
    P^T (D+L)^-T D^T (D+U)^-T P of the forward preconditioner, and its
    matrix is M^T."""
    I, J, K = 5, 7, 5
    grid, matrix = _band_system(I, J, K)
    adjoint = ResolventSolver(matrix, SolverConfig(drop_tol=0.0), adjoint=True)
    expected = _dense_sgs(matrix, I, J, K).T
    got = _natural_precond(adjoint)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(adjoint.A.toarray(), matrix.to_csr().toarray().T)


@pytest.mark.parametrize("lam", [1e-2, 1e-3])
@pytest.mark.parametrize("N", [9, 17])
def test_weights_reproduce_forward_statistics(N, lam):
    """stat(g) = e_c^T M^-1 g = w @ g with w = M^-T e_c, for every g."""
    grid = build_grid(GridSpec(lam=lam, I=N, J=N, K=N))
    matrix = assemble_matrix(grid, MODEL, lam)
    solver = ResolventSolver(matrix)
    w = invariant_weights(ResolventSolver(matrix, adjoint=True), grid).v
    eps0 = 2.0 * (7.0 / (N - 1))
    for g in (mollified_crossing_speed(0.5, eps0), plastic_band(0.75), constant_observable(1.0)):
        b = assemble_rhs(grid, g, lam)
        value, _ = evaluate_statistic(solver.solve(b).v, grid)
        assert abs(w @ b - value) <= 1e-9
    assert abs(w @ assemble_rhs(grid, constant_observable(1.0), lam) - 1.0) <= 1e-9
    assert weight_diagnostics(w, grid)["w_mass"] == pytest.approx(1.0, abs=1e-9)


def test_weights_and_rice_rates_are_reflection_symmetric():
    """M commutes with (x, y, z) -> (-x, -y, -z) except on the Neumann rows,
    whose one-sided differences change sign; on the equation rows w is
    symmetric, and Rice's rates at a and -a agree."""
    N, lam = 17, 1e-3
    grid = build_grid(GridSpec(lam=lam, I=N, J=N, K=N))
    w = invariant_weights(ResolventSolver(assemble_matrix(grid, MODEL, lam), adjoint=True), grid).v
    eq = w.reshape(N, N, N)[:, 1:-1, :]
    assert np.abs(eq - eq[::-1, ::-1, ::-1]).max() <= 1e-12 * np.abs(eq).max()
    peak = rice_rate(w, grid, 0.0)
    for a in (0.3, 1.0, 2.0, 3.5):
        assert abs(rice_rate(w, grid, a) - rice_rate(w, grid, -a)) <= 1e-12 * peak
    assert rice_rate(w, grid, 2.0) > 0
    assert rice_rate(w, grid, 3.6) == rice_rate(w, grid, -3.6) == 0.0


# alpha = 1: the restoring force is k x and z no longer feeds back, so (X, Y)
# is the stationary linear oscillator x'' + c0 x' + k x = sigma xi, Gaussian
# with independent components; the z axis and the plastic faces stay in the
# system
LINEAR = ModelParams(alpha=1.0)


def _linear_weights(N, lam):
    grid = build_grid(GridSpec(lam=lam, I=N, J=N, K=N))
    solver = ResolventSolver(assemble_matrix(grid, LINEAR, lam), adjoint=True)
    return invariant_weights(solver, grid).v, grid


def test_linear_limit_rice_rate_converges_to_the_closed_form():
    """nu(0) = (sqrt(k)/pi) exp(-a^2 c0 k / sigma^2) at a = 0. The errors
    read -0.0363 (17^3) and -0.0099 (33^3) at lam 1e-3, a ratio of 3.65:
    order about 1.9."""
    exact = math.sqrt(LINEAR.k) / math.pi
    errors = [rice_rate(*_linear_weights(N, 1e-3), 0.0) - exact for N in (17, 33)]
    assert abs(errors[1]) <= 0.0125
    assert abs(errors[0]) >= 3 * abs(errors[1])


def test_linear_limit_second_moments_match_the_closed_form():
    """E[X^2] = sigma^2/(2 c0 k) and E[Y^2] = sigma^2/(2 c0), both 0.5 here;
    both read 0.49988 on 33^3 at lam 1e-5, where lam's own bias is gone."""
    w, grid = _linear_weights(33, 1e-5)
    sigma2, c0, k = LINEAR.sigma**2, LINEAR.force.c0, LINEAR.k
    x2 = w @ assemble_rhs(grid, lambda x, y, z: x**2, 1e-5)
    y2 = w @ assemble_rhs(grid, lambda x, y, z: y**2, 1e-5)
    assert abs(x2 - sigma2 / (2 * c0 * k)) <= 3e-4
    assert abs(y2 - sigma2 / (2 * c0)) <= 3e-4


def test_rice_rate_warns_in_the_outer_x_sheets():
    """Near the x faces w carries negative mass, and Rice's rate reads
    -1.2e-3 at a = 3.0 on 17^3; levels whose nodes avoid the two outer
    sheets on each side stay silent."""
    N, lam = 17, 1e-3
    grid = build_grid(GridSpec(lam=lam, I=N, J=N, K=N))
    w = invariant_weights(ResolventSolver(assemble_matrix(grid, MODEL, lam), adjoint=True), grid).v
    for a in (3.0, -3.0, 3.5, -3.5):
        with pytest.warns(UserWarning, match="outer x sheets"):
            rice_rate(w, grid, a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (0.0, 1.0, -1.0, 2.0, -2.0):
            assert rice_rate(w, grid, a) > 0


def test_rice_rate_interpolates_linearly_between_nodes():
    N, lam = 9, 1e-2
    grid = build_grid(GridSpec(lam=lam, I=N, J=N, K=N))
    w = invariant_weights(ResolventSolver(assemble_matrix(grid, MODEL, lam), adjoint=True), grid).v
    hx = 7.0 / (N - 1)
    lo, hi = rice_rate(w, grid, hx), rice_rate(w, grid, 2 * hx)
    assert rice_rate(w, grid, 1.25 * hx) == pytest.approx(0.75 * lo + 0.25 * hi, rel=1e-12)
    # at a node, the flux |y| w / hx through its x-slice of equation rows
    w3 = w.reshape(N, N, N)
    flux = (np.abs(grid.y[1:-1])[:, None] * w3[(N - 1) // 2 + 1, 1:-1, :]).sum() / hx
    assert lo == pytest.approx(flux, rel=1e-12)


def test_long_y_lines_converge_in_few_iterations():
    """SuperLU's default area drop rule stalls on long y-lines; the plain
    threshold rule keeps GMRES short."""
    grid, matrix = _band_system(9, 129, 9)
    b = assemble_rhs(grid, plastic_band(3.0 / 8.0), 1e-2)
    solver = ResolventSolver(matrix)
    rep = solver.solve(b)
    assert rep.residual <= solver.cfg.rel_tol * np.linalg.norm(b)
    assert rep.iterations <= 40


@pytest.mark.parametrize(
    "shape, sigma", [((65, 21, 13), 1.0), ((17, 17, 17), 0.0)], ids=["65x21x13", "sigma0"]
)
def test_factors_without_warning_and_solves(shape, sigma):
    """The x-refined grid met a zero pivot under a whole-matrix natural-order
    ILU, and the diffusion-free system needed a complete LU."""
    grid = build_grid(GridSpec(lam=1e-2, I=shape[0], J=shape[1], K=shape[2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = assemble_matrix(grid, ModelParams(sigma=sigma), 1e-2)
        solver = ResolventSolver(matrix)
        b = assemble_rhs(grid, plastic_band(3.0 / 8.0), 1e-2)
        rep = solver.solve(b)
    assert rep.residual <= solver.cfg.rel_tol * np.linalg.norm(b)


@pytest.mark.parametrize("drop_tol", [1e-3, 0.0])
@pytest.mark.parametrize("shape", [(5, 7, 9), (9, 9, 9), (17, 9, 13)], ids=str)
def test_mirrored_lower_sweep_equals_its_own_factor(shape, drop_tol, monkeypatch):
    """The lower sweep through the factor of the upper half applies bit for
    bit what a factor of S R (D+L) R of its own applies, forward and
    adjoint."""
    _, matrix = _band_system(*shape)
    cfg = SolverConfig(drop_tol=drop_tol)
    r = np.random.default_rng(3).standard_normal(matrix.n)
    for adjoint in (False, True):
        solver = ResolventSolver(matrix, cfg, adjoint=adjoint)
        assert len(solver.factors) == 1
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_mirrors", lambda lower, upper: False)
            own = ResolventSolver(matrix, cfg, adjoint=adjoint)
        assert len(own.factors) == 2
        assert np.array_equal(solver.precond(r), own.precond(r))


@pytest.mark.parametrize(
    "model, factored",
    [
        (ModelParams(), 1),
        (ModelParams(force=ForceSpec(c0=0.7)), 1),
        (ModelParams(force=ForceSpec(c1=0.2)), 1),
        (ModelParams(alpha=0.9, b=0.5), 1),
        (ModelParams(force=ForceSpec(const=0.3)), 2),
    ],
    ids=["default", "c0", "c1", "alpha-b", "const"],
)
def test_one_incomplete_lu_unless_the_force_has_an_offset(model, factored, monkeypatch):
    """A model odd under the point reflection factors one half only, forward
    and adjoint; a constant force term breaks the mirror and both halves
    are factored."""
    grid = build_grid(GridSpec(b=model.b, lam=1e-2, I=9, J=9, K=9))
    matrix = assemble_matrix(grid, model, 1e-2)
    calls = []
    real_ilu = solver_module._ilu

    def counted(half, cfg):
        calls.append(half.shape)
        return real_ilu(half, cfg)

    monkeypatch.setattr(solver_module, "_ilu", counted)
    for adjoint in (False, True):
        calls.clear()
        solver = ResolventSolver(matrix, adjoint=adjoint)
        assert len(calls) == len(solver.factors) == factored


def test_force_offset_solves_with_two_factors():
    """With force.const != 0 the halves are not mirrored; forward and
    adjoint solves still meet rel_tol and agree with a dense solve."""
    model = ModelParams(force=ForceSpec(const=0.3))
    grid = build_grid(GridSpec(lam=1e-2, I=9, J=9, K=9))
    matrix = assemble_matrix(grid, model, 1e-2)
    b = assemble_rhs(grid, mollified_crossing_speed(0.5, 1.0), 1e-2)
    for adjoint in (False, True):
        s = ResolventSolver(matrix, adjoint=adjoint)
        assert len(s.factors) == 2
        rel_tol = s.cfg.rel_tol
        dense = s.A.toarray()
        exact = np.linalg.solve(dense, b)
        rep = s.solve(b)
        assert rep.residual <= rel_tol * np.linalg.norm(b)
        bound = np.linalg.cond(dense) * rel_tol * np.linalg.norm(exact)
        assert np.linalg.norm(rep.v - exact) <= bound


def test_forward_band_solve_keeps_its_basis_until_the_true_residual_is_met():
    """On 33x21x13 the preconditioned stop comes before the true residual
    meets rel_tol; GMRES lowers its target and iterates on in the same
    basis instead of restarting, so M^-1 goes once to b and once per step."""
    grid, matrix = _band_system(33, 21, 13)
    solver = ResolventSolver(matrix)
    applied = []
    precond = solver.precond

    def counted(r):
        applied.append(r)
        return precond(r)

    solver.precond = counted
    b = assemble_rhs(grid, plastic_band(3.0 / 8.0), 1e-2)
    rep = solver.solve(b)
    assert rep.residual <= solver.cfg.rel_tol * np.linalg.norm(b)
    assert len(applied) == rep.iterations + 1


@pytest.mark.parametrize(
    "model", [ModelParams(), ModelParams(force=ForceSpec(const=0.3))], ids=["default", "const"]
)
def test_every_triangular_solve_is_transposed(model, monkeypatch):
    """SuperLU's transposed solve, which gathers along the rows of the
    factor, is its faster mode; a forward and an adjoint solve call no
    other, with one factor or two."""
    grid = build_grid(GridSpec(lam=1e-2, I=9, J=9, K=9))
    matrix = assemble_matrix(grid, model, 1e-2)
    modes = []
    real_ilu = solver_module._ilu

    class Spy:
        def __init__(self, factor):
            self.factor, self.nnz = factor, factor.nnz

        def solve(self, rhs, *args, **kwargs):
            modes.append((args, kwargs))
            return self.factor.solve(rhs, *args, **kwargs)

    monkeypatch.setattr(solver_module, "_ilu", lambda half, cfg: Spy(real_ilu(half, cfg)))
    b = assemble_rhs(grid, plastic_band(0.5), 1e-2)
    for adjoint in (False, True):
        assert ResolventSolver(matrix, adjoint=adjoint).solve(b).iterations > 0
    assert modes and all(mode == ((), {"trans": "T"}) for mode in modes)


def test_invariant_weights_rejects_a_forward_solver(grid9, matrix9, monkeypatch):
    """A forward solver would solve M w = e_c, and at small lam it iterates
    for minutes before it fails; it raises before GMRES starts."""

    def never(*args, **kwargs):
        raise AssertionError("GMRES ran for the weights on a forward solver")

    monkeypatch.setattr(solver_module, "_gmres", never)
    with pytest.raises(ValueError, match="adjoint=True"):
        invariant_weights(ResolventSolver(matrix9), grid9)
