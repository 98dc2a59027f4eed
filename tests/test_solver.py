import gc
import json
import math
import re
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bepo.solver as solver_module
from bepo.assembly import assemble_matrix, assemble_rhs
from bepo.config import parse_config
from bepo.assembly import SparseSystem
from bepo.errors import DegenerateInput, NoConvergence, NonFiniteState, PreconditionerBreakdown
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
    reflection_symmetric,
    rice_rate,
    solve_resolvent,
    weight_diagnostics,
)

MODEL = ModelParams()
# a force with a constant term: not odd under the point reflection
OFFSET = ModelParams(force=ForceSpec(const=0.3))
# odd, with every other parameter moved off its default
ALTERED = ModelParams(k=1.3, alpha=0.2, sigma=0.8, force=ForceSpec(c0=0.9, c1=0.1))


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

    def short(A, b, precond, tol, restart, cycles, norm):
        return real_gmres(A, b, precond, tol, 2, 1, norm)

    monkeypatch.setattr(solver_module, "_gmres", short)
    b = assemble_rhs(grid9, mollified_crossing_speed(0.0, 1.0), 1e-2)
    with pytest.raises(NoConvergence) as info:
        ResolventSolver(matrix9).solve(b)
    assert info.value.residual > SolverConfig().rel_tol


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_gmres_matches_a_dense_solve(grid9, matrix9, adjoint):
    """On 9^3 the solve meets rel_tol on the true residual, and its field
    agrees with a dense LU solve to the accuracy that residual implies. The
    adjoint solver is folded, so its right-hand side is made symmetric under
    the point reflection."""
    solver = ResolventSolver(matrix9, adjoint=adjoint)
    assert solver.folded == adjoint
    dense = solver.A.toarray()
    natural = matrix9.to_csr().toarray()
    assert np.array_equal(dense, natural.T if adjoint else natural)
    b = assemble_rhs(grid9, mollified_crossing_speed(0.5, 1.0), 1e-2)
    if adjoint:
        b = b + b[::-1]
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


def _band_system(I, J, K, lam=1e-2, model=MODEL):
    grid = build_grid(GridSpec(lam=lam, I=I, J=J, K=K))
    return grid, assemble_matrix(grid, model, lam)


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
    `Ay`, as an operator on natural-order vectors."""
    columns = [solver.to_natural(solver.precond(solver.to_yline(e))) for e in np.eye(solver.n)]
    return np.column_stack(columns)


def _dense_line_sgs(Ay, I, J, K):
    """(D+U)^-1 D (D+L)^-1 from the dense line blocks of Ay, lines of J
    with a shorter last one, and the lines whose block reaches beyond
    bandwidth 2. Line i K + k is ranked k I + i: L holds the couplings to
    lines ranked before the row's, U those to lines ranked after it."""
    line = np.arange(Ay.shape[0]) // J
    rank = line % K * I + line // K
    lower = np.where(rank[None, :] <= rank[:, None], Ay, 0.0)
    diag = np.where(line[None, :] == line[:, None], Ay, 0.0)
    upper = np.where(rank[None, :] >= rank[:, None], Ay, 0.0)
    rows, cols = np.nonzero(diag)
    wide = set(line[rows[np.abs(rows - cols) > 2]].tolist())
    return np.linalg.inv(upper) @ diag @ np.linalg.inv(lower), wide


def _dense_sgs(matrix, I, J, K):
    """P^T (D+U)^-1 D (D+L)^-1 P from dense line blocks of the y-line order."""
    n = I * J * K
    perm = np.arange(n).reshape(I, J, K).transpose(0, 2, 1).ravel()
    P = np.eye(n)[perm]
    return P.T @ _dense_line_sgs(P @ matrix.to_csr().toarray() @ P.T, I, J, K)[0] @ P


def test_preconditioner_is_symmetric_block_gauss_seidel_over_y_lines():
    """Both halves are solved exactly, so the operator is
    P^T (D+U)^-1 D (D+L)^-1 P with the line split taken from dense blocks."""
    I, J, K = 5, 7, 5
    grid, matrix = _band_system(I, J, K)
    solver = ResolventSolver(matrix)
    expected = _dense_sgs(matrix, I, J, K)
    got = _natural_precond(solver)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_transposed_solver_preconditions_with_the_transpose():
    """An adjoint solver that does not fold, here for a force with a
    constant term, applies the dense transpose P^T (D+L)^-T D^T (D+U)^-T P
    of the forward preconditioner, and its matrix is M^T."""
    I, J, K = 5, 7, 5
    grid, matrix = _band_system(I, J, K, model=OFFSET)
    adjoint = ResolventSolver(matrix, adjoint=True)
    assert not adjoint.folded
    expected = _dense_sgs(matrix, I, J, K).T
    got = _natural_precond(adjoint)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(adjoint.A.toarray(), matrix.to_csr().toarray().T)


def _dense_fold(matrix, I, J, K, adjoint=True, folded=True):
    """The top n_f = (n+1)/2 rows of P M^T P^T from a dense M^T, each column
    q >= n_f added onto column n-1-q with the Neumann sign of q; forward
    the top rows of P M P^T, each column added with sign 1. Not `folded`,
    all of P M^T P^T or P M P^T."""
    n = I * J * K
    free = (n + 1) // 2 if folded else n
    perm = np.arange(n).reshape(I, J, K).transpose(0, 2, 1).ravel()
    dense = matrix.to_csr().toarray()
    top = (dense.T if adjoint else dense)[np.ix_(perm[:free], perm)]
    sign = np.where(np.isin(np.arange(n) % J, (0, J - 1)) & adjoint, -1.0, 1.0)
    folded = top[:, :free].copy()
    for q in range(free, n):
        folded[:, n - 1 - q] += sign[q] * top[:, q]
    return folded


def _yline_positions(solver):
    """The y-line position (i K + k) J + j of each unknown's natural node
    (i, j, k): the map from the solver's order onto the y-line order."""
    i, j, k = np.unravel_index(solver._node, solver.spec.shape)
    return (i * solver.spec.K + k) * solver.spec.J + j


def _to_yline_order(solver, square):
    """A square matrix in the solver's order, renumbered into y-line order."""
    y = _yline_positions(solver)
    out = np.zeros_like(square)
    out[np.ix_(y, y)] = square
    return out


@settings(max_examples=30, deadline=None)
@given(
    I=st.sampled_from([3, 5, 7, 9]),
    J=st.sampled_from([3, 5, 7]),
    K=st.sampled_from([3, 5, 7, 9]),
    direction=st.sampled_from(["forward", "folded forward", "adjoint"]),
    model=st.sampled_from([MODEL, ALTERED, OFFSET]),
)
@example(I=9, J=7, K=9, direction="adjoint", model=MODEL)
@example(I=9, J=7, K=9, direction="folded forward", model=ALTERED)
@example(I=7, J=3, K=9, direction="adjoint", model=ALTERED)
@example(I=3, J=3, K=3, direction="folded forward", model=MODEL)
@example(I=5, J=3, K=7, direction="adjoint", model=MODEL)
@example(I=3, J=5, K=5, direction="folded forward", model=ALTERED)
def test_line_sweeps_equal_the_dense_symmetric_gauss_seidel(I, J, K, direction, model):
    """On every shape, direction and fold, `Ay` renumbered into y-line order
    is the dense y-line matrix, folded when the solver folds, exactly, and
    `precond` applies the dense (D+U)^-1 D (D+L)^-1 of that matrix's line
    split to 1e-12, the lines ranked k-major. The adjoint solver folds
    unless the force has an offset; a folded forward one is asked to. The
    examples take the two off-center lines whose x and z stencils the fold
    sends back onto themselves, dense blocks; J = 3, where no line couples
    to another; and folded I = 5 and I = 3, whose shifted rows near the
    center plane start at row 0. Every application takes 2 L - 1 level
    steps, L = (I+1)/2 + K - 1 folded, the half-domain wavefront, and
    L = I + K - 1 unfolded."""
    grid, matrix = _band_system(I, J, K, lam=1e-3, model=model)
    adjoint = direction == "adjoint"
    solver = ResolventSolver(
        matrix, adjoint=adjoint, fold=True if direction == "folded forward" else None
    )
    Ay = _to_yline_order(solver, solver.Ay.toarray())
    assert np.array_equal(Ay, _dense_fold(matrix, I, J, K, adjoint, solver.folded))
    expected, wide = _dense_line_sgs(Ay, I, J, K)
    # r in y-line order, gathered into the solver's
    y = _yline_positions(solver)
    r = np.random.default_rng(I * 100 + J * 10 + K).standard_normal((solver.Ay.shape[0], 3))
    got = np.column_stack([solver.precond(column[y]) for column in r.T])
    want = (expected @ r)[y]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    if (I, J, K) == (9, 7, 9) and solver.folded:
        # (i, k) = (3, 4) and (4, 3), numbered i K + k
        assert wide == {31, 39}
    levels = (I + 1) // 2 + K - 1 if solver.folded else I + K - 1
    assert solver.levels == 2 * levels - 1


def test_preconditioner_buffers_do_not_leak_between_calls_or_solvers():
    """Each solver's sweeps keep their own buffers: a second call leaves the
    first call's result and its input as they were, and two solvers whose
    calls interleave return bit for bit what each returns alone."""
    _, matrix = _band_system(9, 7, 9, lam=1e-3)
    folded, unfolded = ResolventSolver(matrix, adjoint=True), ResolventSolver(matrix)
    assert folded.folded and not unfolded.folded
    rng = np.random.default_rng(7)
    inputs = {s: rng.standard_normal((2, s.Ay.shape[0])) for s in (folded, unfolded)}
    r = inputs[folded][0].copy()
    first = folded.precond(r)
    kept = first.copy()
    second = folded.precond(inputs[folded][1])
    assert np.array_equal(first, kept) and np.array_equal(r, inputs[folded][0])
    assert not np.array_equal(first, second)
    alone = {s: [s.precond(x) for x in inputs[s]] for s in (folded, unfolded)}
    together = {folded: [], unfolded: []}
    for step in range(2):
        for s in (folded, unfolded):
            together[s].append(s.precond(inputs[s][step]))
    for s in (folded, unfolded):
        assert all(np.array_equal(a, b) for a, b in zip(alone[s], together[s]))


def test_csr_matvec_adds_into_a_slice_of_the_vector_it_reads():
    """The sweeps' coupling products use scipy's CSR kernel, the private
    `csr_matvec(n_row, n_col, indptr, indices, data, x, y)` that
    `csr_matrix`'s own product calls. Its contract as used: with int32
    `indptr` and `indices`, and `indptr` a view whose first pointer need
    not be 0, it adds A x to y in place, y being a contiguous slice of the
    very vector x that it reads outside the slice. Integer values make
    every sum exact."""
    x = np.arange(10.0)
    expected = x.copy()
    ptr = np.array([0, 2, 4, 5, 7], dtype=np.int32)
    indices = np.array([5, 6, 0, 9, 1, 2, 8], dtype=np.int32)
    data = np.array([100.0, 100.0, 1.0, -2.0, 3.0, 4.0, 5.0])
    # rows 1-3 of the stored matrix into x[4:7], which none of their columns
    # reads; row 0 lies before the pointer view and must not be read
    expected[4:7] += [1.0 * 0 - 2.0 * 9, 3.0 * 1, 4.0 * 2 + 5.0 * 8]
    solver_module.csr_matvec(3, 10, ptr[1:], indices, data, x, x[4:7])
    assert np.array_equal(x, expected)


def test_folded_solver_preconditions_with_the_folded_sweeps():
    """A mirrored adjoint solver iterates on the dense fold of M^T, and its
    preconditioner is the symmetric block Gauss-Seidel sweep
    (D+U)^-1 D (D+L)^-1 of that folded matrix's own line split, in which
    the center line's free half is a block of its own."""
    I, J, K = 5, 7, 5
    grid, matrix = _band_system(I, J, K)
    solver = ResolventSolver(matrix, adjoint=True)
    assert solver.folded
    folded = _dense_fold(matrix, I, J, K)
    assert np.array_equal(_to_yline_order(solver, solver.Ay.toarray()), folded)
    expected, _ = _dense_line_sgs(folded, I, J, K)
    got = np.column_stack([solver.precond(e) for e in np.eye(folded.shape[0])])
    got = _to_yline_order(solver, got)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(solver.A.toarray(), matrix.to_csr().toarray().T)


@pytest.mark.parametrize("model", [MODEL, ALTERED], ids=["default", "altered"])
@pytest.mark.parametrize("shape", [(9, 9, 9), (17, 17, 17), (5, 7, 3), (7, 3, 5)], ids=str)
def test_folded_weights_match_the_unfolded_solve(shape, model, monkeypatch):
    """A mirrored adjoint solver runs GMRES on n_f = (n+1)/2 unknowns and
    unfolds w = S R w bit for bit. With J = 3 a Neumann column folds onto
    the center row, so the fold's own signs count. w agrees with the solve of the full
    system (`_mirrors` patched to False) as far as the two residuals allow,
    ||w - w_u||_1 <= ||M^-T||_1 (||r||_1 + ||r_u||_1), with the norm of the
    inverse from onenormest; it meets rel_tol on the full M^T, which `A`
    rebuilds exactly. A right-hand side b != R b raises before GMRES, also
    one with b = S R b: the Neumann signs belong to w, not to b."""
    lam = 1e-3
    grid = build_grid(GridSpec(b=model.b, lam=lam, I=shape[0], J=shape[1], K=shape[2]))
    matrix = assemble_matrix(grid, model, lam)
    n = matrix.n
    solver = ResolventSolver(matrix, adjoint=True)
    assert solver.folded and solver.Ay.shape == ((n + 1) // 2,) * 2
    w = invariant_weights(solver, grid).v
    w3 = grid.spec.field(w)
    mirror = w3[::-1, ::-1, ::-1].copy()
    mirror[:, [0, -1], :] *= -1.0
    assert np.array_equal(w3, mirror)

    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "_mirrors", lambda lower, upper: False)
        unfolded = ResolventSolver(matrix, adjoint=True)
    assert not unfolded.folded
    w_u = invariant_weights(unfolded, grid).v
    transpose = matrix.to_csr().T.tocsr()
    assert (solver.A != transpose).nnz == 0
    e = np.zeros(n)
    grid.spec.field(e)[grid.center] = 1.0
    lu = spla.splu(transpose.tocsc())
    inverse = spla.LinearOperator(
        transpose.shape, matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="T")
    )
    residuals = np.abs(e - transpose @ w).sum() + np.abs(e - transpose @ w_u).sum()
    assert np.abs(w - w_u).sum() <= spla.onenormest(inverse) * residuals
    assert np.linalg.norm(e - solver.A @ w) <= solver.cfg.rel_tol

    def never(*args, **kwargs):
        raise AssertionError("GMRES ran on an asymmetric right-hand side")

    monkeypatch.setattr(solver_module, "_gmres", never)
    node = grid.spec.index(1, 0, 0)
    for mirrored in (0.0, -1.0):
        b = np.zeros(n)
        b[node], b[n - 1 - node] = 1.0, mirrored
        with pytest.raises(DegenerateInput, match="point reflection"):
            solver.solve(b)


def test_folded_forward_solver_preconditions_with_the_folded_sweeps():
    """A forward solver told that its right-hand sides are b = S R b
    iterates on the top n_f rows of P M P^T with each column q >= n_f added
    onto n-1-q, and its preconditioner is the symmetric block Gauss-Seidel
    sweep of that folded matrix's own line split."""
    I, J, K = 5, 7, 5
    grid, matrix = _band_system(I, J, K)
    solver = ResolventSolver(matrix, fold=True)
    assert solver.folded
    folded = _dense_fold(matrix, I, J, K, adjoint=False)
    assert np.array_equal(_to_yline_order(solver, solver.Ay.toarray()), folded)
    expected, _ = _dense_line_sgs(folded, I, J, K)
    got = np.column_stack([solver.precond(e) for e in np.eye(folded.shape[0])])
    got = _to_yline_order(solver, got)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(solver.A.toarray(), matrix.to_csr().toarray())


@pytest.mark.parametrize("shape", [(5, 7, 3), (3, 5, 5)], ids=str)
@pytest.mark.parametrize("model", [MODEL, OFFSET], ids=["default", "offset"])
@pytest.mark.parametrize("adjoint, fold", [(False, None), (False, True), (True, None)])
def test_every_natural_node_is_given_by_one_unknown(shape, model, adjoint, fold):
    """The solver's order numbers each natural node once: as an unknown of
    its own or, folded, as its mirror's n-1-p, times S adjoint and 1
    forward, so that any vector of unknowns unfolds to w = S R w or v = R v
    bit for bit. A folded solver's last unknown is the center node. A
    right-hand side that the solver takes comes back from the solver's
    order bit for bit when it also has the solution's symmetry: any b
    unfolded, and folded a b = R b that is 0 on the Neumann rows."""
    I, J, K = shape
    grid, matrix = _band_system(I, J, K, model=model)
    solver = ResolventSolver(matrix, adjoint=adjoint, fold=fold)
    n, size = matrix.n, solver.Ay.shape[0]
    assert solver.folded == (model is MODEL and (adjoint or fold is True))
    # column p: the natural vector that unknown p stands for
    given = np.column_stack([solver.to_natural(e) for e in np.eye(size)])
    assert (np.count_nonzero(given, axis=1) == 1).all()
    assert set(np.abs(given[given != 0.0]).tolist()) == {1.0}
    rng = np.random.default_rng(5)
    if solver.folded:
        center = grid.spec.index(*grid.center)
        assert np.flatnonzero(given[:, -1]).tolist() == [center]
        v = solver.to_natural(rng.standard_normal(size))
        assert reflection_symmetric(v, grid.spec, -1.0 if adjoint else 1.0)
    b = rng.standard_normal(n)
    if solver.folded:
        b = b + b[::-1]
        grid.spec.field(b)[:, [0, -1]] = 0.0
    assert np.array_equal(solver.to_natural(solver.to_yline(b)), b)


@pytest.mark.parametrize("model", [MODEL, ALTERED], ids=["default", "altered"])
@pytest.mark.parametrize("shape", [(9, 9, 9), (17, 17, 17), (5, 7, 3), (7, 3, 5)], ids=str)
def test_folded_field_matches_the_unfolded_solve(shape, model, monkeypatch):
    """A forward solver built with `fold` for a band right-hand side, which
    is b = S R b, runs on n_f = (n+1)/2 unknowns and unfolds v = R v bit
    for bit. v
    agrees with the full system's solve as far as the two residuals allow,
    ||v - v_u||_1 <= ||M^-1||_1 (||r||_1 + ||r_u||_1), with the norm of the
    inverse from onenormest; it meets rel_tol on the full M, which `A`
    rebuilds exactly. A crossing level a1 = 0.5 and a b = R b with a
    nonzero Neumann row raise before GMRES."""
    lam = 1e-3
    grid = build_grid(GridSpec(b=model.b, lam=lam, I=shape[0], J=shape[1], K=shape[2]))
    matrix = assemble_matrix(grid, model, lam)
    n, free = matrix.n, (matrix.n + 1) // 2
    b = assemble_rhs(grid, plastic_band(0.5), lam)
    solver = ResolventSolver(matrix, fold=True)
    rep = solver.solve(b)
    assert solver.folded and solver.Ay.shape == (free, free)
    v3 = grid.spec.field(rep.v)
    assert np.array_equal(v3, v3[::-1, ::-1, ::-1])

    unfolded = ResolventSolver(matrix)
    assert not unfolded.folded
    v_u = unfolded.solve(b).v
    M = matrix.to_csr()
    assert (solver.A != M).nnz == 0
    lu = spla.splu(M.tocsc())
    inverse = spla.LinearOperator(
        M.shape, matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="T")
    )
    residuals = np.abs(b - M @ rep.v).sum() + np.abs(b - M @ v_u).sum()
    assert np.abs(rep.v - v_u).sum() <= spla.onenormest(inverse) * residuals
    assert np.linalg.norm(b - solver.A @ rep.v) <= solver.cfg.rel_tol * np.linalg.norm(b)

    def never(*args, **kwargs):
        raise AssertionError("GMRES ran on an asymmetric right-hand side")

    monkeypatch.setattr(solver_module, "_gmres", never)
    crossing = assemble_rhs(grid, mollified_crossing_speed(0.5, 1.0), lam)
    # |y| vanishes on the one interior y row of J = 3
    crossing[grid.spec.index(1, 1, 0)] += 1.0
    neumann = np.zeros(n)
    node = grid.spec.index(1, 0, 0)
    neumann[node] = neumann[n - 1 - node] = 1.0
    for asymmetric in (crossing, neumann):
        with pytest.raises(DegenerateInput, match="point reflection"):
            solver.solve(asymmetric)


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


def test_perfectly_plastic_yz_marginal_does_not_depend_on_the_x_count():
    # at alpha = 0 with c1 = 0 the drift does not depend on x, and the x
    # transport conserves mass along each x line, so the (y, z) marginal of w
    # solves the same 2-D adjoint problem for every I; I = 3 is the shape
    # with the fewest levels. At alpha = 0.5, I = 3 and I = 17 differ by
    # about half the largest marginal, so the check discriminates
    def spread(alpha):
        marginals = []
        for I in (3, 5, 9, 17):
            grid = build_grid(GridSpec(lam=1e-3, I=I, J=17, K=17))
            matrix = assemble_matrix(grid, ModelParams(alpha=alpha), 1e-3)
            w = invariant_weights(ResolventSolver(matrix, adjoint=True), grid).v
            marginals.append(grid.spec.field(w).sum(axis=0))
        gap = max(np.abs(m - marginals[0]).max() for m in marginals[1:])
        return gap, gap / np.abs(marginals[0]).max()

    gap, relative = spread(0.0)
    assert gap <= 1e-12 and relative <= 1e-9
    gap, relative = spread(0.5)
    assert gap > 1e-3 and relative > 0.1


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
    """An incomplete LU under SuperLU's default area drop rule stalled GMRES
    on long y-lines; the exact line solves keep it short."""
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
    ILU, and the diffusion-free system needed a complete LU; the line
    factors build without a warning on both."""
    grid = build_grid(GridSpec(lam=1e-2, I=shape[0], J=shape[1], K=shape[2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = assemble_matrix(grid, ModelParams(sigma=sigma), 1e-2)
        solver = ResolventSolver(matrix)
        b = assemble_rhs(grid, plastic_band(3.0 / 8.0), 1e-2)
        rep = solver.solve(b)
    assert rep.residual <= solver.cfg.rel_tol * np.linalg.norm(b)


@pytest.mark.parametrize(
    "model, mirrored",
    [
        (ModelParams(), True),
        (ModelParams(force=ForceSpec(c0=0.7)), True),
        (ModelParams(force=ForceSpec(c1=0.2)), True),
        (ModelParams(alpha=0.9, b=0.5), True),
        (ModelParams(force=ForceSpec(const=0.3)), False),
    ],
    ids=["default", "c0", "c1", "alpha-b", "const"],
)
def test_one_incomplete_lu_unless_the_force_has_an_offset(model, mirrored, monkeypatch):
    """Each solver factors once. The factor was an incomplete LU once; now
    it is the one no-pivot LU of the line blocks of the matrix GMRES runs
    on. A model odd under the point reflection folds its adjoint solver
    onto n_f = (n+1)/2 unknowns, and a forward solver when told to, so that
    LU spans ceil(n_f / J) lines; a constant force term breaks the mirror,
    and both keep all n. Either way the factor stores six band rows per
    unknown, plus the dense lines of a fold."""
    grid = build_grid(GridSpec(b=model.b, lam=1e-2, I=9, J=9, K=9))
    matrix = assemble_matrix(grid, model, 1e-2)
    n, free = matrix.n, (matrix.n + 1) // 2
    calls = []
    real_band_lu = solver_module._band_lu

    def counted(band):
        calls.append(band.shape)
        return real_band_lu(band)

    monkeypatch.setattr(solver_module, "_band_lu", counted)
    for adjoint, fold in ((False, None), (False, True), (True, None)):
        calls.clear()
        solver = ResolventSolver(matrix, adjoint=adjoint, fold=fold)
        folded = mirrored and (adjoint or fold is True)
        assert solver.folded == folded
        size = free if folded else n
        assert solver.Ay.shape == (size, size)
        assert calls == [(5, 9, -(-size // 9))]
        assert solver.factor_nnz >= 6 * size


def test_force_offset_solves_with_two_factors():
    """With force.const != 0 the system is not mirrored, so neither the
    forward nor the adjoint solver folds, and each has its own factors;
    both solves meet rel_tol and agree with a dense solve."""
    model = ModelParams(force=ForceSpec(const=0.3))
    grid = build_grid(GridSpec(lam=1e-2, I=9, J=9, K=9))
    matrix = assemble_matrix(grid, model, 1e-2)
    b = assemble_rhs(grid, mollified_crossing_speed(0.5, 1.0), 1e-2)
    for adjoint in (False, True):
        s = ResolventSolver(matrix, adjoint=adjoint)
        assert not s.folded
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


def _broken_system(nodes, value):
    """The 9^3 band system with every stored entry of the rows of `nodes`
    set to value."""
    _, matrix = _band_system(9, 9, 9)
    csr = matrix.to_csr().copy()
    for node in nodes:
        csr.data[csr.indptr[node] : csr.indptr[node + 1]] = value
    return SparseSystem(matrix.spec, csr, matrix.rhs)


@pytest.mark.parametrize(
    "value, fold, node, line",
    [
        (0.0, False, (2, 4, 3), "(2, 3)"),
        (np.nan, False, (6, 2, 5), "(6, 5)"),
        # the fold makes the line (i, k) = (3, 4) a dense block
        (0.0, True, (3, 2, 4), "(3, 4)"),
    ],
    ids=["singular-band", "nan-band", "singular-dense"],
)
def test_a_broken_line_block_raises_before_gmres(value, fold, node, line, monkeypatch):
    """A zero or non-finite pivot in a line factor, banded or dense, raises
    PreconditionerBreakdown naming the line when the solver is built; the
    rows of the node (and, to keep the mirror, of its mirror) are set to 0
    or NaN."""

    def never(*args, **kwargs):
        raise AssertionError("GMRES ran on a broken preconditioner")

    monkeypatch.setattr(solver_module, "_gmres", never)
    spec = GridSpec(lam=1e-2, I=9, J=9, K=9)
    index = spec.index(*node)
    nodes = (index, spec.n_nodes - 1 - index) if fold else (index,)
    with pytest.raises(PreconditionerBreakdown, match=rf"\(i, k\) = {re.escape(line)}"):
        ResolventSolver(_broken_system(nodes, value), fold=fold or None)


def test_invariant_weights_rejects_a_forward_solver(grid9, matrix9, monkeypatch):
    """A forward solver would solve M w = e_c, and at small lam it iterates
    for minutes before it fails; it raises before GMRES starts."""

    def never(*args, **kwargs):
        raise AssertionError("GMRES ran for the weights on a forward solver")

    monkeypatch.setattr(solver_module, "_gmres", never)
    with pytest.raises(ValueError, match="adjoint=True"):
        invariant_weights(ResolventSolver(matrix9), grid9)
