"""Krylov solve of the resolvent system and extraction of the statistic.

Restarted GMRES, preconditioned on the left by a symmetric block
Gauss-Seidel sweep over y-lines. The solver numbers its unknowns once, in
the order the sweep runs (`_sweep_order`): y-line by y-line, each line of
J nodes along y contiguous, and the lines by level. Line (i, k) runs at
level i + k. No two lines of a level couple: the x and z stencils reach at
most two lines along i or k. A fold keeps one node of each mirror pair,
the y-lines before the center line and that line's first half; it mirrors
couplings only into the rows i >= (I-1)/2 - 2, where the lines with
k > (K-1)/2 run one level later, and the center line's half runs last, in
the top level. A folded system's (I+1)/2 + K - 1 levels are the wavefront
of its half domain. The matrix GMRES runs on, `Ay`, splits into line
blocks D + L + U, L holding each line's couplings to earlier lines and U
those to later ones, and the preconditioner applies (D+U)^-1 D (D+L)^-1
exactly (`_line_sweeps`). Each line block is pentadiagonal: the y
diffusion and the second-order y upwind reach two nodes. Each half runs
level by level, three compiled calls a level: scipy's CSR kernel
`csr_matvec` adds the level's couplings times the levels already solved
into the level's slice, then two banded triangular solves (BLAS `dtbsv`)
with the no-pivot LU of the level's line blocks. The lower half keeps the
right-hand sides that it solved, and the upper half solves on them. That
LU is the one factorization a solver makes, and it serves both sweeps. The
sweeps keep their buffers per solver, so a solver's `precond` is not
re-entrant.

R, the reversal of the natural order, is the point reflection
(x, y, z) -> (-x, -y, -z), under which the oscillator is odd unless its
force has a constant term; then R M R = S M, with S = -1 on the Neumann
rows. The symmetry halves a solve whose right-hand side has it: an adjoint
one, whose b = R b gives w = S R w, and a forward one built with `fold`,
whose b = S R b gives v = R v. A band observable, the constant one and a
crossing at level 0 are b = S R b. Either solution is fixed by one node of
each mirror pair, so the solver folds the system onto those, and the sweep
is that of the folded matrix's own line split.

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
from scipy.linalg import lapack, solve_triangular
from scipy.linalg.blas import dtbsv
from scipy.sparse._sparsetools import csr_matvec

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
    """Iteration knobs; the preconditioner has none.

    rel_tol       : target on ||M v - g|| / ||g|| (true residual)
    max_iters     : GMRES restart cycles
    restart       : GMRES restart length, capped at the number of unknowns.
                    The memory knob: a cycle touches one basis vector of
                    the unknowns per Arnoldi step, at most restart + 1. At
                    129^3 the 35 vectors of an unfolded adjoint solve, 2.15M
                    doubles each, take about 600 MB, against about 100 MB
                    for the line factors, six band rows per unknown; a
                    folded solve's vectors and factors are half as long
                    (6.47M stored entries, 52 MB, measured)
    polish_factor : GMRES stops at rel_tol * polish_factor; only a residual
                    above rel_tol itself raises NoConvergence. Values below
                    1 buy digits that no statistic needs, and can stall GMRES
                    near the rounding floor of the preconditioned system.
    """

    rel_tol: float = 1e-10
    max_iters: int = 200
    restart: int = 60
    polish_factor: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restart < 1:
            raise ValueError(f"restart must be >= 1, got {self.restart}")
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


def _mirrors(M, neumann) -> bool:
    """Whether R M R = S M bit for bit, for the natural-order matrix M in
    canonical CSR and `neumann` true on its Neumann rows.

    The assembly keeps R M R = S M with S = -1 on the Neumann rows whenever
    the oscillator is odd under the point reflection R (force.const = 0).
    Then a right-hand side with the symmetry gives a solution with it. R
    reverses the natural order, and reversing both axes keeps M's sorted
    order: stored entry e of row p mirrors entry nnz-1-e of row n-1-p. So
    the pointers, indices and signed data of the first (n+1)/2 rows are
    compared with those of the last ones reversed, one array at a time,
    without building R M R. The check reads the matrix, not the model, so
    a matrix that does not fit is not folded.
    """
    n, ptr = M.shape[0], M.indptr
    half = (n + 1) // 2
    top = ptr[half]
    flip = np.repeat(neumann[:half], np.diff(ptr[: half + 1]))
    mirror = M.data[::-1][:top]
    return (
        np.array_equal(ptr[-1] - ptr[::-1][: half + 1], ptr[: half + 1])
        and np.array_equal(n - 1 - M.indices[::-1][:top], M.indices[:top])
        and np.array_equal(np.where(flip, -mirror, mirror), M.data[:top])
    )


def _band_lu(band: np.ndarray) -> np.ndarray:
    """The no-pivot LU of pentadiagonal blocks, all at once: band[d + 2, j]
    holds entry (j, j+d) of each block, shape (5, J, lines). Returns
    (l2, l1, u0, u1, u2) of the same shape, the unit lower factor's entries
    (j, j-2) and (j, j-1) and the upper one's (j, j), (j, j+1) and (j, j+2),
    in J steps across the blocks. A zero pivot gives inf or NaN, not a
    warning; the caller checks the factors."""
    lu = np.zeros_like(band)
    l2, l1, u0, u1, u2 = lu
    u2[:] = band[4]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(band.shape[1]):
            a = band[:, j]
            if j >= 2:
                l2[j] = a[0] / u0[j - 2]
                l1[j] = (a[1] - l2[j] * u1[j - 2]) / u0[j - 1]
                u0[j] = a[2] - l1[j] * u1[j - 1] - l2[j] * u2[j - 2]
            elif j == 1:
                l1[j] = a[1] / u0[0]
                u0[j] = a[2] - l1[j] * u1[0]
            else:
                u0[j] = a[2]
            u1[j] = a[3] - (l1[j] * u2[j - 1] if j else 0.0)
    return lu


def _sweep_order(spec: GridSpec, folded: bool) -> tuple[np.ndarray, np.ndarray, list]:
    """The solver's one order: the natural node of each unknown, the
    unknown that stands for each natural node, and the first unknown of
    each level, with the end.

    The unknowns run y-line by y-line, each line (i, k) in j order, and the
    lines by level i + k, a stable sort that keeps a level's lines in
    (i, k) order. A folded solver keeps the lines before the center line,
    in (i, k) order, and the center line's first half, j <= (J-1)/2: one
    node of each mirror pair p and n-1-p, and a node left out stands for
    its mirror's unknown. There the lines with k > (K-1)/2 in the rows
    i >= (I-1)/2 - 2 run one level later, and the center line's half runs
    in the top level, last, so the center node is the last unknown. The
    center line couples only to lines of lower levels, and the one other
    line of the top level, ((I-1)/2 - 1, K - 1), couples to none of it, as
    K >= 3; so moving it there leaves L, U and the number of levels as
    they are.
    """
    I, J, K = spec.shape
    i, k = np.divmod(np.arange(I * K, dtype=np.int32), K)
    level = i + k
    if folded:
        center = (I * K - 1) // 2  # the line (i, k) = ((I-1)/2, (K-1)/2)
        i, k, level = i[: center + 1], k[: center + 1], level[: center + 1]
        level += (k > (K - 1) // 2) & (i >= (I - 1) // 2 - 2)
        level[-1] = level.max()  # the center line's half, to the top level
    by_level = np.argsort(level, kind="stable")
    size = (spec.n_nodes + 1) // 2 if folded else spec.n_nodes
    node = spec.index(i[by_level, None], np.arange(J, dtype=np.int32), k[by_level, None])
    node = node.ravel()[:size]
    # a node left out stands for its mirror's unknown, any other for its own
    where = np.empty(spec.n_nodes, dtype=np.int32)
    where[spec.n_nodes - 1 - node] = np.arange(size)
    where[node] = np.arange(size)
    bounds = np.minimum(J * np.concatenate([[0], np.cumsum(np.bincount(level))]), size)
    return node, where, bounds.tolist()


def _line_sweeps(Ay: sp.csr_matrix, bounds: list, spec: GridSpec, node: np.ndarray):
    """The symmetric block Gauss-Seidel sweep x = (D+U)^-1 D (D+L)^-1 r of
    Ay's split into y-lines of J unknowns, D + L + U, as a closure; with the
    number of stored line-factor entries and the level steps per
    application.

    Ay is in the order of `_sweep_order`: line p // J, the y-line through
    natural node node[p], its unknowns contiguous, and only the last line,
    a folded Ay's center half, shorter than J. The lines come level by
    level, level s holding the unknowns bounds[s] to bounds[s+1], and no
    two lines of a level couple. So L holds the couplings to earlier lines
    and U those to later ones, each in Ay's CSR order, and a level's D is
    banded over one slice. One no-pivot LU of the line blocks
    (`_band_lu`) serves both sweeps. A level step is three compiled calls
    on views made once here: scipy's CSR kernel `csr_matvec`, which
    accumulates y += A x, adds the level's negated couplings times the
    solved levels into the level's slice, and two BLAS `dtbsv` solve with
    its D. The lower sweep (D+L) z = r keeps its right-hand sides
    q = r - L z, so the upper one solves D x = q - U x on q's slices, down
    the levels, with no scratch; the top level's x is its z. A line whose
    block reaches beyond bandwidth 2 is the identity in the band and is
    inverted densely: the fold makes two, the lines next to the center
    line whose x or z stencil reaches across the center and folds back
    onto themselves, j -> J-1-j. A zero or non-finite pivot raises
    PreconditionerBreakdown, naming the line. q and z are the closure's
    own buffers, so it is not re-entrant: two calls on one solver must not
    overlap, as they could from two threads. It returns a new vector and
    holds no reference back to the solver, so a spent solver is freed by
    refcounting.
    """
    N, J = Ay.shape[0], spec.J
    n_lines = -(-N // J)
    row = np.repeat(np.arange(N, dtype=np.int32), np.diff(Ay.indptr))
    col, data = Ay.indices, Ay.data
    rline, cline = row // J, col // J
    # the entries of D, then those of L and of U, each in Ay's order
    inline = np.flatnonzero(rline == cline)
    below = cline < rline
    coupled = np.concatenate([np.flatnonzero(below), np.flatnonzero(cline > rline)])
    r, c, d = row.take(inline), col.take(inline), data.take(inline)
    offset = c - r
    wide = np.unique(r[np.abs(offset) > 2] // J)
    del rline, cline, inline
    lengths = np.full(n_lines, J)
    lengths[-1] = N - (n_lines - 1) * J

    # D's band, in the (J, lines) layout of `_band_lu`, identity on padding
    # and on the wide lines; a folded Ay keeps entries apart, so they are summed
    at = ((np.clip(offset, -2, 2) + 2) * J + r % J) * n_lines + r // J
    band = np.bincount(at, weights=d, minlength=5 * J * n_lines).reshape(5, J, n_lines)
    del at
    band[2, lengths[-1] :, -1] = 1.0
    band[:, :, wide] = 0.0
    band[2, :, wide] = 1.0
    lu = _band_lu(band)
    del band
    bad = ~np.isfinite(lu).all(axis=0) | (lu[2] == 0.0)
    if bad.any():
        line, j = np.argwhere(bad.T)[0]
        _breakdown(node[line * J], spec, f"at j = {j}")
    # the lower factor's band holds (j+1, j) and (j+2, j) in rows 1 and 2 of
    # column j, the upper one's (j-2, j), (j-1, j) and (j, j) in rows 0-2
    l2, l1, u0, u1, u2 = lu.transpose(0, 2, 1).reshape(5, -1)[:, :N]
    lower = np.zeros((3, N), order="F")
    upper = np.zeros((3, N), order="F")
    lower[0] = 1.0
    lower[1, :-1], lower[2, :-2] = l1[1:], l2[2:]
    upper[0, 2:], upper[1, 1:], upper[2] = u2[:-2], u1[:-1], u0
    del lu, l2, l1, u0, u1, u2
    q, z = np.empty(N), np.empty(N)
    dense = {}
    for line in wide.tolist():
        at = r // J == line
        block = np.zeros((lengths[line], lengths[line]))
        np.add.at(block, (r[at] % J, c[at] % J), d[at])
        factor, piv, info = lapack.dgetrf(block)
        if info != 0 or not np.isfinite(factor).all():
            _breakdown(node[line * J], spec, "in its dense LU")
        span = slice(line * J, line * J + lengths[line])
        level = int(np.searchsorted(bounds, line * J, side="right")) - 1
        dense.setdefault(level, []).append((z[span], q[span], lapack.dgetri(factor, piv)[0]))
    del r, c, d, offset

    # the negated couplings: the rows of L, then those of U; ptr[p] starts
    # row p of L and ptr[N + p] row p of U
    key = row.take(coupled)
    key[np.count_nonzero(below) :] += N
    cols, vals = col.take(coupled), -data.take(coupled)
    ptr = np.zeros(2 * N + 1, dtype=np.int32)
    np.cumsum(np.bincount(key, minlength=2 * N), out=ptr[1:])
    del row, below, coupled, key
    stored = lower.size + upper.size
    stored += sum(inv.size for blocks in dense.values() for *_, inv in blocks)
    # per level: its rows, its couplings below and above, its slices of q
    # and z, the band factors' columns on it and its dense lines
    steps = [
        (b - a, ptr[a : b + 1], ptr[N + a : N + b + 1], q[a:b], z[a:b], a)
        + (lower[:, a:b], upper[:, a:b], dense.get(s, ()))
        for s, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]

    def apply(r):
        # dtbsv takes (k, band, x, incx, offx, lower, trans, unit, overwrite)
        q[:] = r
        for rows, l_ptr, _, q_s, z_s, a, lo, up, blocks in steps:
            csr_matvec(rows, N, l_ptr, cols, vals, z, q_s)
            z_s[:] = q_s
            dtbsv(2, lo, z, 1, a, 1, 0, 1, 1)
            dtbsv(2, up, z, 1, a, 0, 0, 0, 1)
            for z_line, _, inv in blocks:
                z_line[:] = inv @ z_line
        q_s[:] = z_s  # the top level's x is its z
        for rows, _, u_ptr, q_s, _, a, lo, up, blocks in reversed(steps[:-1]):
            csr_matvec(rows, N, u_ptr, cols, vals, q, q_s)
            dtbsv(2, lo, q, 1, a, 1, 0, 1, 1)
            dtbsv(2, up, q, 1, a, 0, 0, 0, 1)
            for _, q_line, inv in blocks:
                q_line[:] = inv @ q_line
        return q.copy()

    return apply, stored, 2 * len(steps) - 1


def _breakdown(node: int, spec: GridSpec, where: str):
    """Raise PreconditionerBreakdown for the block of the y-line through
    natural node `node`."""
    i, _, k = np.unravel_index(node, spec.shape)
    raise PreconditionerBreakdown(
        f"the block of the y-line at (i, k) = ({i}, {k}) has a zero or non-finite "
        f"pivot {where}; the line Gauss-Seidel preconditioner cannot be built"
    )


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


def require_finite(b: np.ndarray) -> None:
    """Raise NonFiniteState when b holds a NaN or an infinity."""
    bad = np.count_nonzero(~np.isfinite(b))
    if bad:
        raise NonFiniteState(f"right-hand side has {bad} non-finite entries")


class ResolventSolver:
    """Builds the preconditioner once and solves any number of right-hand
    sides, of M v = b, or with `adjoint` of M^T w = b.

    GMRES runs on `Ay`, the matrix in the order of `_sweep_order`: unknown p
    stands for natural node node[p], and its row is that node's row of M,
    or adjoint of M^T, gathered once from M's CSR, or from its CSC read as
    the CSR of M^T. Each column moves to the unknown that stands for its
    node. `precond` is the symmetric block Gauss-Seidel sweep
    (D+U)^-1 D (D+L)^-1 of `Ay`'s own split into lines of J
    (`_line_sweeps`), solved exactly, level by level; its line factors are
    the one factorization (`factor_nnz` stored entries, `levels` level
    steps per application). `precond` works in buffers of its own, so two
    of its calls on one solver must not overlap, as from two threads; two
    solvers do not share them. `solve` takes and returns natural-order
    vectors, gathering each once (`to_yline`, `to_natural`). `A` rebuilds
    the natural-order matrix, M or M^T, on each access; the solver keeps
    only `Ay`.

    When R M R = S M bit for bit (`_mirrors`), the solver is `folded` when
    `fold` asks for it, which it does by default for an adjoint solver and
    not for a forward one: only the caller knows that its right-hand sides
    are symmetric. Then an adjoint b = R b has the solution w = S R w, and
    a forward b = S R b has v = R v, so only n_f = (n+1)/2 unknowns are
    free, one node of each mirror pair. A column of a node left out moves
    onto its mirror's unknown, with the sign S adjoint and 1 forward. `Ay`
    keeps every entry apart, so a folded entry may share its column with
    another and `A` can unfold it. The center node is the last unknown.
    GMRES and the final check measure the residual by `_folded_norm`, the
    norm of the full residual, and a right-hand side without the symmetry
    raises DegenerateInput (`to_yline`).
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
        M = sys.to_csr()
        # S = -1 on the Neumann rows, j in {0, J-1}
        self._neumann = np.zeros(n, dtype=bool)
        sys.spec.field(self._neumann)[:, [0, -1]] = True
        self.folded = bool(adjoint if fold is None else fold) and _mirrors(M, self._neumann)
        self._node, self._where, bounds = _sweep_order(sys.spec, self.folded)
        size = self._node.size
        # w = S R w adjoint, v = R v forward: a node left out is its
        # mirror's unknown times S, or times 1
        left_out = self._node.take(self._where) != np.arange(n)
        self._unfold = np.where(left_out & self._neumann & adjoint, -1.0, 1.0)
        rows = (M.T.tocsr() if adjoint else M)[self._node]
        del M
        rows.data *= self._unfold.take(rows.indices)
        # the stored entries whose column moved onto its mirror's unknown
        self._moved = np.flatnonzero(left_out.take(rows.indices))
        at = self._where.take(rows.indices)
        self.Ay = sp.csr_matrix((rows.data, at, rows.indptr), shape=(size, size))
        del rows, at, left_out
        self._norm = _folded_norm if self.folded else _norm
        self.precond, self.factor_nnz, self.levels = _line_sweeps(
            self.Ay, bounds, sys.spec, self._node
        )

    def to_yline(self, b: np.ndarray) -> np.ndarray:
        """A natural-order right-hand side in the order of `Ay`. A folded
        solver raises DegenerateInput unless b = R b (adjoint) or
        b = S R b (forward) bit for bit (`reflection_symmetric`)."""
        if self.folded and not reflection_symmetric(b, self.spec, 1.0 if self.adjoint else -1.0):
            direction, symmetry = ("adjoint", "R b") if self.adjoint else ("forward", "S R b")
            raise DegenerateInput(
                f"a folded {direction} solver needs a right-hand side b = {symmetry}, "
                "symmetric under the point reflection"
            )
        return b.take(self._node)

    def to_natural(self, z: np.ndarray) -> np.ndarray:
        """A solution of `Ay` in natural order, unfolded to w = S R w
        (adjoint) or v = R v (forward) when the solver is folded."""
        return self._unfold * z.take(self._where)

    @property
    def A(self) -> sp.csr_matrix:
        """The natural-order matrix this solver inverts, M or with `adjoint`
        M^T, rebuilt from `Ay` on each access; a folded `Ay` is unfolded
        first, bit for bit."""
        coo = self.Ay.tocoo()
        row, col, data = self._node.take(coo.row), self._node.take(coo.col), coo.data.copy()
        if self.folded:
            # move the folded columns back, then add every row but the
            # center's mirror: M[n-1-p, n-1-q] = S_p M[p, q], so
            # M^T[n-1-p, n-1-q] = S_q M^T[p, q]
            n, at = self.n, self._moved
            col[at] = n - 1 - col[at]
            data[at] *= self._unfold.take(col[at])
            low = coo.row < self.Ay.shape[0] - 1
            neumann = self._neumann.take((col if self.adjoint else row)[low])
            row = np.concatenate([row, n - 1 - row[low]])
            col = np.concatenate([col, n - 1 - col[low]])
            data = np.concatenate([data, np.where(neumann, -data[low], data[low])])
        return sp.csr_matrix((data, (row, col)), shape=(self.n, self.n))

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
