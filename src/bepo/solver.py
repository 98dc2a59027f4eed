"""Krylov solve of the resolvent system and extraction of the statistic.

Restarted GMRES, preconditioned on the left by a symmetric block
Gauss-Seidel sweep over y-lines. In the order of `GridSpec.yline_order`,
where each line of J nodes along y is contiguous, the matrix splits into
line blocks D + L + U, and the preconditioner applies (D+U)^-1 D (D+L)^-1
with block-triangular halves factored by a threshold incomplete LU, each
read through SuperLU's transposed solve (`_sgs`). The lower half enters as
S R (D+L) R, with R the index reversal and S = -1 on the Neumann rows. R is
the point reflection (x, y, z) -> (-x, -y, -z), under which the oscillator
is odd unless its force has a constant term, and then S R (D+L) R = D+U bit
for bit; the one incomplete LU then serves both sweeps of a forward solve.
R and S are folded into the y-line matrix that GMRES iterates on
(`ResolventSolver`), so a preconditioner application makes no gather.

The same symmetry halves a solve whose right-hand side has it: an adjoint
one, whose b = R b gives w = S R w, and a forward one built with `fold`,
whose b = S R b gives v = R v. A band observable, the constant one and a
crossing at level 0 are b = S R b. Either solution is fixed by its first
(n+1)/2 unknowns in y-line order, so the solver folds the system onto
them and factors the two halves of the folded matrix, each of half the
size, in place of the one shared factor.

The line blocks hold the stiff y diffusion and the beta drift; the x and
z advection speeds depend on y only, so each half's upwind x/z transport
runs one way between lines, and the forward and backward sweeps absorb
the y < 0 and y > 0 rows. The GMRES routine (`_gmres`) iterates on the
preconditioned residual but ends each restart cycle on the true residual,
and the solver recomputes that residual once more before it accepts a
solution, so every returned field meets rel_tol on the original system.

Every statistic is linear in its observable, stat(g) = e_c^T M^-1 g, with c
the center node. An adjoint solver (`ResolventSolver(..., adjoint=True)`)
solves M^T w = e_c once (`invariant_weights`), on the folded system when
the oscillator is odd; then stat(g) = w @ g for every observable on the
grid. w is the discrete invariant measure, and it also gives the crossing
rate by Rice's formula (`rice_rate`) and mass diagnostics
(`weight_diagnostics`). A full field v, and with it the spread and the
magnitude diagnostic, still needs a forward solver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .assembly import SparseSystem
from .errors import DegenerateInput, NoConvergence, NonFiniteState, PreconditionerBreakdown
from .grid import Grid, GridSpec

__all__ = [
    "SolverConfig",
    "SolveReport",
    "ResolventSolver",
    "solve_resolvent",
    "evaluate_statistic",
    "invariant_weights",
    "reflection_symmetric",
    "require_finite",
    "rice_rate",
    "weight_diagnostics",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and preconditioner knobs.

    rel_tol       : target on ||M v - g|| / ||g|| (true residual)
    max_iters     : GMRES restart cycles
    restart       : GMRES restart length, capped at the number of unknowns.
                    The memory knob: a cycle touches one basis vector of
                    the unknowns per Arnoldi step, at most restart + 1. At
                    129^3 the 35 vectors of an unfolded adjoint solve, 2.15M
                    doubles each, take about 600 MB, against about 380 MB
                    for the factor's 31.7M nonzeros (estimated from sizes);
                    a folded solve's vectors are half as long
    drop_tol      : threshold below which the incomplete LU of a
                    block-triangular half drops an entry: of D+U, and of
                    S R (D+L) R when it is not D+U itself (y-line order),
                    each transposed for a forward solver, or of the two
                    halves of a folded system; 0 factors exactly
    polish_factor : GMRES stops at rel_tol * polish_factor; only a residual
                    above rel_tol itself raises NoConvergence. Values below
                    1 buy digits that no statistic needs, and can stall GMRES
                    near the rounding floor of the preconditioned system.
    """

    rel_tol: float = 1e-10
    max_iters: int = 200
    restart: int = 60
    drop_tol: float = 1e-3
    polish_factor: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restart < 1:
            raise ValueError(f"restart must be >= 1, got {self.restart}")
        if not 0.0 <= self.drop_tol <= 1.0:
            raise ValueError(f"drop_tol must be in [0, 1], got {self.drop_tol}")
        if not 0.0 < self.polish_factor <= 1.0:
            raise ValueError(
                f"polish_factor must be in (0, 1], got {self.polish_factor}"
            )


@dataclass
class SolveReport:
    """Solution vector (the scaled field, lam*u at nodes) plus diagnostics."""

    v: np.ndarray
    residual: float
    iterations: int


def _cut(M, keep=None, major=False, minor=False, negate=None):
    """The compressed arrays (data, indices, indptr) of M's entries where keep
    is true (all of them for None), M in CSR or CSC; with `negate`, the
    entries where it is true change sign.

    With `major` the compressed axis is reversed, with `minor` the other
    one, R the index reversal, (R v)[p] = v[n-1-p]: of a CSR M they give
    R M and M R, of a CSC M, M R and R M, and both give R M R. Read in the
    other format, the arrays are those of the transpose. Reversing the
    compressed axis reverses the data, the indices and the pointers, so
    M's sorted order survives no reversal or both.
    """
    data, indices, ptr = M.data, M.indices, M.indptr
    if keep is not None:
        data, indices = data[keep], indices[keep]
        negate = None if negate is None else negate[keep]
        kept = np.zeros(keep.size + 1, dtype=np.int32)
        np.cumsum(keep, out=kept[1:])
        ptr = kept[ptr]
    if major:
        data, indices, ptr = data[::-1], indices[::-1], ptr[-1] - ptr[::-1]
        negate = None if negate is None else negate[::-1]
    if minor:
        indices = M.shape[0] - 1 - indices
    if negate is not None:
        data = np.array(data)  # never M's own array
        np.negative(data, out=data, where=negate)
    # sparsetools copies a reversed view on every product
    return np.ascontiguousarray(data), np.ascontiguousarray(indices), ptr


def _mirrors(Ap, flip) -> bool:
    """Whether R Ap R = S Ap bit for bit, for the y-line matrix Ap in CSR or
    CSC and `flip` true on its stored entries in Neumann rows.

    The assembly keeps R M R = S M with S = -1 on the Neumann rows whenever
    the oscillator is odd under the point reflection R (force.const = 0).
    R maps the lines below a line onto those above it, so then
    S R (D+L) R = D+U, and a right-hand side with the symmetry gives a
    solution with it. Reversing both axes keeps Ap's sorted order, so the
    pointers, indices and signed data of R Ap R are compared with Ap's one
    array at a time, without building R Ap R. The check reads the matrix,
    not the model, so a matrix that does not fit is neither folded nor
    shares its factor.
    """
    n, ptr = Ap.shape[0], Ap.indptr
    return (
        np.array_equal(ptr[-1] - ptr[::-1], ptr)
        and np.array_equal(n - 1 - Ap.indices[::-1], Ap.indices)
        and np.array_equal(np.where(flip[::-1], -Ap.data[::-1], Ap.data[::-1]), Ap.data)
    )


def _ilu(half: sp.csc_matrix, cfg: SolverConfig):
    """Threshold incomplete LU of one half, in its own order.

    No pivoting and the plain threshold rule: SuperLU's default area rule
    (`basic,area`) stalls GMRES on long y-lines. Panels of one column and
    no supernode relaxation: the default panels of 10 columns need a
    workspace larger than the factor itself, and relaxed supernodes store
    padding zeros that every triangular solve then reads.
    """
    try:
        return spla.spilu(
            half,
            drop_tol=cfg.drop_tol,
            drop_rule="basic",
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            panel_size=1,
            relax=1,
        )
    except RuntimeError as exc:
        raise PreconditionerBreakdown(str(exc)) from exc


def _sgs(first, diag, second, reverse_in=False, reverse_out=False):
    """r -> second^-T diag first^-T r, each ^-T one transposed SuperLU solve;
    with `reverse_in` the sweep takes R r, with `reverse_out` it returns R of
    its result.

    SuperLU's transposed solve gathers along the rows of the factor, where
    its natural solve scatters down columns, and it is the faster mode on
    the y-line factors, so every factor is of the matrix whose transpose
    the sweep inverts. A closure over the factors only, so the
    preconditioner holds no reference back to the solver and a spent
    solver is freed by refcounting.
    """

    def apply(r):
        z = second.solve(diag @ first.solve(r[::-1] if reverse_in else r, trans="T"), trans="T")
        return z[::-1].copy() if reverse_out else z

    return apply


def _norm(r) -> float:
    """The Euclidean norm of r."""
    return float(np.linalg.norm(r))


def _folded_norm(r) -> float:
    """The Euclidean norm of the full vector that a folded one r stands for:
    every entry but the last, the center, stands for itself and its mirror,
    row n-1-q of the full residual being S_q times row q in either
    direction."""
    return math.sqrt(2.0 * float(r @ r) - float(r[-1]) ** 2)


def _gmres(A, b, precond, tol, restart, cycles, norm):
    """Left-preconditioned restarted GMRES from 0; returns v and the number
    of Arnoldi steps.

    Stops when the true residual ||b - A v|| is at most tol * ||b||, both
    taken by `norm`, or after `cycles` restart cycles; the caller checks the
    residual again.
    Each cycle starts from the true residual r and iterates until the
    preconditioned residual has fallen by the factor that r still needs:
    ||M^-1 r|| * tol * ||b|| / ||r||, which in the first cycle is
    tol * ||M^-1 b||. There it forms the iterate and its true residual; when
    that is still short, it lowers the preconditioned target by the factor
    the true residual misses by and iterates on in the same basis, so a
    cycle ends only on the true residual or at its last step. M^-1 is
    applied once per cycle and once per step, so a solve done in one cycle
    applies it steps + 1 times. No Krylov basis can outgrow the n unknowns,
    so restart is capped at n. The basis is one contiguous (restart + 1, n)
    array, orthogonalized by classical Gram-Schmidt run twice, and the
    Givens rotations act on Python floats.
    """
    restart = min(restart, b.size)
    v = np.zeros(b.size)
    r, r_norm = b, norm(b)
    target = tol * r_norm
    basis = np.empty((restart + 1, b.size))
    hess = np.zeros((restart, restart))
    steps = 0
    for _ in range(cycles):
        if not r_norm > target:  # a NaN stops here too
            break
        z = precond(r)
        beta = float(np.linalg.norm(z))
        inner_target = beta * target / r_norm
        basis[0] = z / beta
        g, rotations = [beta], []
        for j in range(restart):
            w = precond(A @ basis[j])
            V = basis[: j + 1]
            h = V @ w
            w -= h @ V
            h2 = V @ w
            w -= h2 @ V
            col = (h + h2).tolist()
            h_next = float(np.linalg.norm(w))
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            d = math.hypot(col[j], h_next)
            c, s = col[j] / d, h_next / d
            rotations.append((c, s))
            col[j] = d
            hess[: j + 1, j] = col
            g[j], g_next = c * g[j], -s * g[j]
            g.append(g_next)
            steps += 1
            # the last step, or an invariant subspace, ends the cycle
            last = j + 1 == restart or not h_next > 0.0
            if last or not abs(g_next) > inner_target:
                m = j + 1
                x = v + solve_triangular(hess[:m, :m], g[:m], check_finite=False) @ basis[:m]
                r = b - A @ x
                r_norm = norm(r)
                if last or not r_norm > target:
                    break
                inner_target = abs(g_next) * target / r_norm
            basis[j + 1] = w / h_next
        v = x
    return v, steps


def _fold(Ap, source, sign) -> tuple[sp.csr_matrix, np.ndarray]:
    """The folded matrix, from the compressed arrays of P M P^T whose first
    n_f = (n+1)/2 slices are the top n_f rows of the y-line matrix the
    solver inverts: the CSR forward, and adjoint the CSC, whose columns
    read as rows are those of P M^T P^T. Each column p >= n_f moves onto
    source[p] = n-1-p with sign[p], 1 forward and adjoint the sign S of p
    (`GridSpec.yline_fold`), and no two entries are summed. Returns it as
    CSR, with the positions of the stored entries that moved."""
    free = (source.size + 1) // 2
    top = Ap.indptr[free]
    cols = Ap.indices[:top]
    folded = sp.csr_matrix(
        (sign[cols] * Ap.data[:top], source[cols], Ap.indptr[: free + 1].copy()),
        shape=(free, free),
    )
    return folded, np.flatnonzero(cols >= free)


def reflection_symmetric(b: np.ndarray, spec: GridSpec, neumann: float = 1.0) -> bool:
    """Whether b = s R b bit for bit, with R the point reflection
    (i, j, k) -> (I-1-i, J-1-j, K-1-k) and s = `neumann` on the Neumann
    nodes j = 0 and j = J-1, 1 elsewhere. A folded adjoint solver needs
    b = R b, a folded forward one b = S R b (neumann = -1)."""
    field = spec.field(b)
    mirror = field[::-1, ::-1, ::-1]
    return np.array_equal(field[:, 1:-1], mirror[:, 1:-1]) and np.array_equal(
        field[:, [0, -1]], neumann * mirror[:, [0, -1]]
    )


def _neumann_sign(n: int, J: int) -> np.ndarray:
    """S in y-line order: -1 on the Neumann nodes, the ends of each line."""
    sign = np.ones((n // J, J))
    sign[:, [0, -1]] = -1.0
    return sign.ravel()


def require_finite(b: np.ndarray) -> None:
    """Raise NonFiniteState when b holds a NaN or an infinity."""
    bad = np.count_nonzero(~np.isfinite(b))
    if bad:
        raise NonFiniteState(f"right-hand side has {bad} non-finite entries")


class ResolventSolver:
    """Factors the matrix once and solves any number of right-hand sides,
    of M v = b, or with `adjoint` of M^T w = b.

    The factorization is the dominant cost, so it is built once here and reused
    per solve. P A P^T is formed once in `GridSpec.yline_order`, and D, D+U and
    D+L are cut from it by the line of each entry's row and column. Every
    factor is read through SuperLU's transposed solve only: a forward solver
    factors (D+U)^T and (S R (D+L) R)^T, whose CSC arrays are the CSR arrays of
    the halves, and an adjoint one factors D+U and S R (D+L) R from the CSC.
    When R P M P^T R = S P M P^T bit for bit (`_mirrors`), the lower half is
    the upper one, and one incomplete LU serves both sweeps of a solver that
    does not fold (below); `factors` lists the computed ones.

    GMRES runs on the y-line matrix `Ay` with the reversal R and the signs
    S folded in: S R P M P^T forward and P M^T P^T R S adjoint, one the
    transpose of the other. Then the preconditioner `precond` is two
    triangular solves and one product with the stored block diagonal, D R
    forward and R D^T adjoint, with no gather: forward
    (D+U)^-1 D (D+L)^-1 R S = (D+U)^-1 (D R) (S R (D+L) R)^-1, and adjoint
    S R (D+L)^-T D^T (D+U)^-T = (S R (D+L) R)^-T (R D^T) (D+U)^-T. `solve`
    takes and returns natural-order vectors and permutes each once
    (`to_yline`, `to_natural`). `A` rebuilds the natural-order matrix, M or
    M^T, on each access; the solver keeps only `Ay`.

    A mirrored solver is `folded` when `fold` asks for it, which it does by
    default for an adjoint solver and not for a forward one: only the caller
    knows that its right-hand sides are symmetric. With R M R = S M, an
    adjoint b = R b has the solution w = S R w, and a forward b = S R b has
    v = R v, so in y-line order only the first n_f = (n+1)/2 unknowns are
    free (`GridSpec.yline_fold`). `Ay` is then the n_f x n_f matrix of the
    top n_f rows of P M^T P^T, each column p >= n_f folded onto column
    n-1-p with the sign S, or forward of P M P^T with sign 1. It keeps every
    entry apart, so a folded entry may share its column with another and
    `A` can unfold it. `precond` is the symmetric Gauss-Seidel sweep
    (D+U)^-1 D (D+L)^-1 of the folded matrix's own line split, whose halves
    do not mirror each other, so both are factored, each in the layout
    whose incomplete LU is smaller and faster (`_factor_folded`). GMRES and
    the final check measure the residual by `_folded_norm`, the norm of the
    full residual, and a right-hand side without the symmetry raises
    DegenerateInput (`to_yline`).
    """

    def __init__(
        self,
        sys: SparseSystem,
        cfg: SolverConfig | None = None,
        adjoint: bool = False,
        fold: bool | None = None,
    ):
        self.cfg = cfg if cfg is not None else SolverConfig()
        self.adjoint = adjoint
        self.spec = sys.spec
        self.n = n = sys.n
        J = sys.spec.J
        # P A P^T, (P v)[p] = v[perm[p]], from the rows of A in perm order with
        # renamed columns: CSC adjoint, CSR forward; row p is on line p // J
        perm = sys.spec.yline_order()
        inv = np.empty_like(perm)
        inv[perm] = np.arange(n, dtype=np.int32)
        rows = sys.to_csr()[perm]
        yline = sp.csr_matrix((rows.data, inv[rows.indices], rows.indptr), shape=rows.shape)
        Ap = yline.tocsc() if adjoint else yline
        Ap.sort_indices()  # a CSC comes sorted
        del inv, rows, yline
        # the row and column of each stored entry, in stored order
        coo = Ap.tocoo(copy=False)
        # S = -1 on the Neumann rows, j in {0, J-1} of each line; S R = R S
        j = coo.row % J
        flip = (j == 0) | (j == J - 1)
        del j
        mirrored = _mirrors(Ap, flip)
        self.folded = mirrored and (adjoint if fold is None else fold)
        self._norm = _folded_norm if self.folded else _norm
        if self.folded:
            del coo, flip
            # w = S R w adjoint, v = R v forward
            self._source, sign = sys.spec.yline_fold()
            if not adjoint:
                sign = np.ones(n)
            self.Ay, self._folded_at = _fold(Ap, self._source, sign)
            del Ap  # before the factors, whose workspace would sit on top of it
            self._factor_folded(J)
            # the first n_f entries of P b in; P^T (sign * z[source]) out
            free = self.Ay.shape[0]
            self._rows, self._cols = (perm[:free], np.ones(free)), (perm, sign)
            return
        side = coo.col // J - coo.row // J
        del coo
        # read as CSC: D+U and S R (D+L) R adjoint, their transposes forward;
        # a mirrored lower half is the upper one, and each half is cut only
        # once the one before it is factored, so SuperLU's workspace never
        # sits on top of both
        if mirrored:
            upper = lower = _ilu(sp.csc_matrix(_cut(Ap, side >= 0), shape=Ap.shape), self.cfg)
            self.factors = (upper,)
        else:
            lower = _ilu(
                sp.csc_matrix(
                    _cut(Ap, side <= 0, major=True, minor=True, negate=flip), shape=Ap.shape
                ),
                self.cfg,
            )
            upper = _ilu(sp.csc_matrix(_cut(Ap, side >= 0), shape=Ap.shape), self.cfg)
            self.factors = (lower, upper)
        # read as CSR: D R and S R P M P^T forward, their transposes adjoint;
        # built after the factors, once SuperLU's workspace is freed
        diag = sp.csr_matrix(_cut(Ap, side == 0, major=adjoint, minor=not adjoint), shape=Ap.shape)
        del side
        self.Ay = sp.csr_matrix(
            _cut(Ap, major=not adjoint, minor=adjoint, negate=flip), shape=Ap.shape
        )
        del Ap, flip
        self.precond = _sgs(upper, diag, lower) if adjoint else _sgs(lower, diag, upper)
        # (Q v)[p] = s[p] v[q[p]] for Q = (q, s): P is (perm, 1) and S R P is
        # (reversed perm, S); Ay = Q_rows (M or M^T) Q_cols^T
        flipped, plain = (perm[::-1].copy(), _neumann_sign(n, J)), (perm, np.ones(n))
        self._rows, self._cols = (plain, flipped) if adjoint else (flipped, plain)

    def _factor_folded(self, J: int) -> None:
        """The factors and the preconditioner of the folded `Ay` (`_fold`),
        split into lines of J.

        Both directions factor the two halves of the folded matrix's own
        split, each read through SuperLU's transposed solve, and lay each
        half out in the orientation whose incomplete LU is smaller and
        faster, which differs by direction: adjoint (D+L)^T and
        R (D+U)^T R, with R D stored and the sweep's result reversed;
        forward R (D+L)^T R and (D+U)^T, with D R stored and its input
        reversed. On the forward fold at 33^3, lam 1e-2, the other layout
        took 37 and 38 ms per half against 13 and 13 ms, with 236k and 207k
        nonzeros against 204k and 189k (one BLAS thread, best of 5).
        """
        lines = np.arange(self.Ay.shape[0], dtype=np.int32) // J
        side = self.Ay.indices // J - np.repeat(lines, np.diff(self.Ay.indptr))
        del lines
        # read as CSC: (D+L)^T and (D+U)^T, the lower one reversed on both
        # axes forward and the upper one adjoint
        forward = not self.adjoint
        lower = _ilu(
            sp.csc_matrix(
                _cut(self.Ay, side <= 0, major=forward, minor=forward), shape=self.Ay.shape
            ),
            self.cfg,
        )
        upper = _ilu(
            sp.csc_matrix(
                _cut(self.Ay, side >= 0, major=self.adjoint, minor=self.adjoint),
                shape=self.Ay.shape,
            ),
            self.cfg,
        )
        self.factors = (lower, upper)
        diag = sp.csr_matrix(
            _cut(self.Ay, side == 0, major=self.adjoint, minor=forward), shape=self.Ay.shape
        )
        self.precond = _sgs(lower, diag, upper, reverse_in=forward, reverse_out=self.adjoint)

    def to_yline(self, b: np.ndarray) -> np.ndarray:
        """Q_rows b: a natural-order right-hand side in the order of `Ay`.
        A folded solver raises DegenerateInput unless b = R b (adjoint) or
        b = S R b (forward) bit for bit (`reflection_symmetric`)."""
        if self.folded and not reflection_symmetric(b, self.spec, 1.0 if self.adjoint else -1.0):
            direction, symmetry = ("adjoint", "R b") if self.adjoint else ("forward", "S R b")
            raise DegenerateInput(
                f"a folded {direction} solver needs a right-hand side b = {symmetry}, "
                "symmetric under the point reflection"
            )
        index, sign = self._rows
        return sign * b[index]

    def to_natural(self, z: np.ndarray) -> np.ndarray:
        """Q_cols^T z: a solution of `Ay` in natural order, unfolded to
        w = S R w (adjoint) or v = R v (forward) when the solver is folded."""
        index, sign = self._cols
        if self.folded:
            z = z[self._source]
        v = np.empty(self.n)
        v[index] = sign * z
        return v

    @property
    def A(self) -> sp.csr_matrix:
        """The natural-order matrix this solver inverts, M or with `adjoint`
        M^T, rebuilt from `Ay` on each access; a folded `Ay` is unfolded
        first, bit for bit."""
        coo = self.Ay.tocoo()
        (rows, row_sign), (cols, col_sign) = self._rows, self._cols
        if not self.folded:
            data = row_sign[coo.row] * col_sign[coo.col] * coo.data
            return sp.csr_matrix((data, (rows[coo.row], cols[coo.col])), shape=coo.shape)
        # unfold the columns into the top n_f rows of the y-line matrix, then
        # add every row but the center's mirror: R (P M P^T) R = S P M P^T,
        # so R (P M^T P^T) R = P M^T P^T S
        n, at = self.n, self._folded_at
        row, col, data = coo.row, coo.col.copy(), coo.data.copy()
        col[at] = n - 1 - col[at]
        data[at] *= col_sign[col[at]]
        low = row < self.Ay.shape[0] - 1
        neumann = _neumann_sign(n, self.spec.J)[col[low] if self.adjoint else row[low]]
        row = np.concatenate([row, n - 1 - row[low]])
        data = np.concatenate([data, neumann * data[low]])
        col = np.concatenate([col, n - 1 - col[low]])
        return sp.csr_matrix((data, (cols[row], cols[col])), shape=(n, n))

    def solve(self, b: np.ndarray) -> SolveReport:
        """Solve M v = b (M^T v = b with `adjoint`) to
        ||M v - b|| <= rel_tol * ||b||.

        Deterministic: no randomized components, fixed reduction order.
        Raises NonFiniteState for a NaN or infinite right-hand side, a
        folded solver DegenerateInput for a b without the symmetry of its
        direction, both before GMRES, and NoConvergence when the recomputed
        true residual, taken on `Ay`, is above the target or not finite.
        """
        cfg = self.cfg
        require_finite(b)
        bnorm = float(np.linalg.norm(b))
        if bnorm == 0.0:
            return SolveReport(v=np.zeros(self.n), residual=0.0, iterations=0)

        c = self.to_yline(b)
        tol = cfg.rel_tol * cfg.polish_factor
        z, iters = _gmres(self.Ay, c, self.precond, tol, cfg.restart, cfg.max_iters, self._norm)
        res = self._norm(c - self.Ay @ z)
        if not res <= cfg.rel_tol * bnorm:
            raise NoConvergence(iters, res / bnorm)
        return SolveReport(v=self.to_natural(z), residual=res, iterations=iters)


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

    The half-box is |x| <= x_bar/2 and |y| <= y_bar/2 (all k), selected by
    integer index offsets so no float fuzz enters.
    """
    s = grid.spec
    v3 = s.field(v)
    ci, cj, ck = grid.center
    value = float(v3[ci, cj, ck])
    ri, rj = (s.I - 1) // 4, (s.J - 1) // 4
    box = v3[ci - ri : ci + ri + 1, cj - rj : cj + rj + 1, :]
    spread = float(box.max() - box.min())
    return value, spread


def invariant_weights(solver: ResolventSolver, grid: Grid) -> SolveReport:
    """One solve of M^T w = e_c on an adjoint solver; w is the report's v.

    Every statistic is linear in its observable, stat(g) = e_c^T M^-1 g,
    so stat(g) = w @ g for every right-hand side g on the grid. w is the
    discrete invariant measure: its equation rows sum to 1 (the constant
    observable), and the small-lam limit of its mass is the invariant
    measure of the oscillator. On the Neumann rows w holds the multipliers
    of the boundary conditions, not mass. e_c is symmetric under the point
    reflection, so a folded solver takes it, and its w = S R w holds bit for
    bit. A forward solver raises ValueError before it iterates: it would
    solve M w = e_c instead.
    """
    if not solver.adjoint:
        raise ValueError("invariant_weights needs a solver built with adjoint=True")
    e = np.zeros(solver.n)
    grid.spec.field(e)[grid.center] = 1.0
    return solver.solve(e)


def _mass(w: np.ndarray, grid: Grid) -> np.ndarray:
    """w on the equation rows 0 < j < J-1, shaped (I, J-2, K)."""
    return grid.spec.field(w)[:, 1:-1, :]


def rice_rate(w: np.ndarray, grid: Grid, a: float) -> float:
    """Crossing rate of the level x = a by Rice's formula on the weights.

    nu(a) = sum_{j, k} w[i, j, k] |y_j| / hx over the equation rows, with hx
    the unscaled x spacing, interpolated linearly in x between the two nodes
    around a. No mollifier enters. A level outside the box gives 0, and a NaN
    level raises DegenerateInput. Warns when either node lies in the two outer
    x sheets on a side, where the inward one-sided face stencils give w
    negative mass and the rate can come out negative.
    """
    s = grid.spec
    if math.isnan(a):
        raise DegenerateInput("the crossing level is NaN")
    if not abs(a) <= s.x_bar:
        return 0.0
    hx = s.h("x")
    w3 = _mass(w, grid)
    speed = np.abs(grid.y[1:-1]) / hx
    # offsets from the center node, so that a and -a interpolate mirrored
    u = a / hx
    ci = grid.center[0]
    i = min(math.floor(u) + ci, s.I - 2)
    t = u - (i - ci)
    if i <= 1 or i + 1 >= s.I - 2:
        warnings.warn(
            f"Rice's rate at a={a:g} reads the weights in the outer x sheets "
            "of the box, where they carry negative mass; it is unreliable there"
        )
    flux = [float(speed @ w3[m].sum(axis=1)) for m in (i, i + 1)]
    return (1.0 - t) * flux[0] + t * flux[1]


def weight_diagnostics(w: np.ndarray, grid: Grid) -> dict:
    """Mass checks of the weights, over the equation rows.

    w_mass is 1 up to the solve's accuracy. w_negative_mass measures how
    far the second-order stencil breaks the discrete maximum principle.
    The sheet masses, in the two outer x planes on each side and the outer
    y planes, measure the truncation of the box on the PDE side.
    """
    s = grid.spec
    w3 = _mass(w, grid)
    x_sheets = np.zeros(s.I, dtype=bool)
    x_sheets[[0, 1, -2, -1]] = True
    y_sheets = np.zeros(s.J - 2, dtype=bool)
    y_sheets[[0, -1]] = True
    return {
        "w_mass": float(w3.sum()),
        "w_negative_mass": float(w3[w3 < 0].sum()),
        "w_x_sheet_mass": float(w3[x_sheets].sum()),
        "w_y_sheet_mass": float(w3[:, y_sheets, :].sum()),
    }


_MAGNITUDE_SLACK = 0.05


def magnitude_violations(
    v: np.ndarray, grid: Grid, sup_g: float
) -> list[tuple[int, int, int, float]]:
    """Nodes where |v| exceeds (1 + 5%) * sup|g|.

    Soft form of the resolvent bound ||v||_inf <= ||g||_inf; the 5% slack
    accommodates possible discrete-maximum-principle violations of the
    second-order stencil. Returns 1-based (i, j, k, value) tuples.
    """
    v3 = grid.spec.field(v)
    mask = np.abs(v3) > (1.0 + _MAGNITUDE_SLACK) * sup_g
    out = []
    for i, j, k in zip(*np.nonzero(mask)):
        out.append((int(i) + 1, int(j) + 1, int(k) + 1, float(v3[i, j, k])))
    return out
