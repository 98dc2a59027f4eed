"""Krylov solve of the resolvent system and extraction of the statistic.

Restarted GMRES, preconditioned on the left by a threshold incomplete LU in
the natural node order. scipy's GMRES iterates on the preconditioned residual
but ends each restart cycle on the true residual ||b - M v||, and the solver
recomputes that residual once more before it accepts a solution, so every
returned field meets rel_tol on the original system.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SparseSystem
from .errors import NoConvergence, NonFiniteState, PreconditionerBreakdown
from .grid import Grid

__all__ = [
    "SolverConfig",
    "SolveReport",
    "ResolventSolver",
    "solve_resolvent",
    "evaluate_statistic",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and preconditioner knobs.

    rel_tol       : target on ||M v - g|| / ||g|| (true residual)
    max_iters     : GMRES restart cycles
    restart       : GMRES restart length
    drop_tol      : ILU threshold drop tolerance
    fill_factor   : ILU fill bound
    polish_factor : GMRES stops at rel_tol * polish_factor; only a residual
                    above rel_tol itself raises NoConvergence. Values below
                    1 buy digits that no statistic needs, and can stall GMRES
                    near the rounding floor of the preconditioned system.
    """

    rel_tol: float = 1e-10
    max_iters: int = 200
    restart: int = 60
    drop_tol: float = 1e-2
    fill_factor: float = 10.0
    polish_factor: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.restart < 1:
            raise ValueError(f"restart must be >= 1, got {self.restart}")


@dataclass
class SolveReport:
    """Solution vector (the scaled field, lam*u at nodes) plus diagnostics."""

    v: np.ndarray
    residual: float
    iterations: int
    statistic: float = 0.0
    spread: float = 0.0
    bound_violations: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "statistic": self.statistic,
            "spread": self.spread,
            "residual": self.residual,
            "iterations": self.iterations,
        }


def _ilu(csc: sp.csc_matrix, cfg: SolverConfig):
    """Threshold incomplete LU in the natural node order.

    The natural order follows the grid's lexicographic numbering; on these
    stencils it gives about half the fill of a COLAMD ordering and factors
    faster. If SuperLU meets an exactly-zero pivot in that order, the
    factorization is retried once under COLAMD, with a warning. Raises
    PreconditionerBreakdown when both orders fail.
    """
    opts = dict(drop_tol=cfg.drop_tol, fill_factor=cfg.fill_factor)
    try:
        return spla.spilu(csc, permc_spec="NATURAL", **opts)
    except RuntimeError as exc:
        warnings.warn(f"ILU fell back to the COLAMD ordering: {exc}")
    try:
        return spla.spilu(csc, permc_spec="COLAMD", **opts)
    except RuntimeError as exc:
        raise PreconditionerBreakdown(str(exc)) from exc


class ResolventSolver:
    """Factors the matrix once and solves any number of right-hand sides.

    Sweeps over observables share the grid and matrix; the factorization is
    the dominant cost, so it is built once here and reused per solve.
    """

    def __init__(self, sys: SparseSystem, cfg: SolverConfig | None = None):
        self.cfg = cfg if cfg is not None else SolverConfig()
        self.A = sys.to_csr()
        self.n = sys.n
        try:
            self.ilu = _ilu(self.A.tocsc(), self.cfg)
        except PreconditionerBreakdown:
            # degenerate structure (e.g. the diffusion-free sigma = 0 system
            # is reducible and defeats threshold dropping): a complete
            # factorization still succeeds and acts as an exact preconditioner
            warnings.warn(
                "incomplete factorization broke down; using a complete sparse LU"
            )
            try:
                self.ilu = spla.splu(self.A.tocsc())
            except RuntimeError as exc:
                raise PreconditionerBreakdown(str(exc)) from exc
        # a bound method of the factor, so the operator holds no reference
        # back to the solver and a spent solver is freed by refcounting
        self._precond = spla.LinearOperator(
            (self.n, self.n), matvec=self.ilu.solve, dtype=float
        )

    def solve(self, b: np.ndarray) -> SolveReport:
        """Solve M v = b to ||M v - b|| <= rel_tol * ||b||.

        Deterministic: no randomized components, fixed reduction order.
        Raises NonFiniteState for a NaN or infinite right-hand side, and
        NoConvergence when the recomputed true residual is above the target
        or not finite.
        """
        cfg = self.cfg
        bad = np.count_nonzero(~np.isfinite(b))
        if bad:
            raise NonFiniteState(f"right-hand side has {bad} non-finite entries")
        bnorm = float(np.linalg.norm(b))
        if bnorm == 0.0:
            return SolveReport(v=np.zeros(self.n), residual=0.0, iterations=0)

        iters = 0

        def count(_):
            nonlocal iters
            iters += 1

        v, _ = spla.gmres(
            self.A,
            b,
            M=self._precond,
            rtol=cfg.rel_tol * cfg.polish_factor,
            atol=0.0,
            restart=cfg.restart,
            maxiter=cfg.max_iters,
            callback=count,
            callback_type="pr_norm",
        )
        res = float(np.linalg.norm(b - self.A @ v))
        if not res <= cfg.rel_tol * bnorm:
            raise NoConvergence(iters, res / bnorm)
        return SolveReport(v=v, residual=res, iterations=iters)


def solve_resolvent(sys: SparseSystem, cfg: SolverConfig | None = None) -> SolveReport:
    """One-shot convenience wrapper around ResolventSolver."""
    return ResolventSolver(sys, cfg).solve(sys.rhs)


def solve_direct(sys: SparseSystem) -> SolveReport:
    """Small-grid debugging fallback: direct sparse LU, no iteration."""
    A = sys.to_csr().tocsc()
    v = spla.spsolve(A, sys.rhs)
    residual = float(np.linalg.norm(sys.rhs - A @ v))
    return SolveReport(v=v, residual=residual, iterations=0)


def evaluate_statistic(v: np.ndarray, grid: Grid) -> tuple[float, float]:
    """Center-node value and the max-min spread over the central half-box.

    The half-box is |xt| <= lam*x_bar/2 and |yt| <= lam*y_bar/2 (all k),
    selected by integer index offsets so no float fuzz enters.
    """
    s = grid.spec
    v3 = np.asarray(v).reshape(s.I, s.J, s.K)
    ci, cj, ck = (s.I - 1) // 2, (s.J - 1) // 2, (s.K - 1) // 2
    value = float(v3[ci, cj, ck])
    ri, rj = (s.I - 1) // 4, (s.J - 1) // 4
    box = v3[ci - ri : ci + ri + 1, cj - rj : cj + rj + 1, :]
    spread = float(box.max() - box.min())
    return value, spread


def magnitude_violations(
    v: np.ndarray, grid: Grid, sup_g: float, slack: float = 0.05
) -> list[tuple[int, int, int, float]]:
    """Nodes where |v| exceeds (1 + slack) * sup|g|.

    Soft form of the resolvent bound ||v||_inf <= ||g||_inf; the slack
    accommodates possible discrete-maximum-principle violations of the
    second-order stencil. Returns 1-based (i, j, k, value) tuples.
    """
    s = grid.spec
    v3 = np.asarray(v).reshape(s.I, s.J, s.K)
    mask = np.abs(v3) > (1.0 + slack) * sup_g
    out = []
    for i, j, k in zip(*np.nonzero(mask)):
        out.append((int(i) + 1, int(j) + 1, int(k) + 1, float(v3[i, j, k])))
    return out


def solution_to_csv(v: np.ndarray, grid: Grid, path) -> None:
    """Export `i,j,k,x,y,z,v` rows (1-based indices, unscaled coordinates)."""
    s = grid.spec
    v3 = np.asarray(v).reshape(s.I, s.J, s.K)
    x, y, z = grid.x, grid.y, grid.z
    with open(path, "w") as fh:
        fh.write("i,j,k,x,y,z,v\n")
        for i in range(s.I):
            for j in range(s.J):
                for k in range(s.K):
                    fh.write(
                        f"{i + 1},{j + 1},{k + 1},"
                        f"{x[i]:.12g},{y[j]:.12g},{z[k]:.12g},{v3[i, j, k]:.12g}\n"
                    )


def summary_to_json(report: SolveReport, path) -> None:
    """One-line JSON summary {statistic, spread, residual, iterations}."""
    with open(path, "w") as fh:
        json.dump(report.summary(), fh)
        fh.write("\n")
