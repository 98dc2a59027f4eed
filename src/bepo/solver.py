"""Krylov solve of the resolvent system and extraction of the statistic.

Restarted GMRES, preconditioned on the left by a symmetric block
Gauss-Seidel sweep over y-lines. In the order of `GridSpec.yline_order`,
where each line of J nodes along y is contiguous, the matrix GMRES runs on
splits into line blocks D + L + U, and the preconditioner applies
(D+U)^-1 D (D+L)^-1 exactly (`_line_sweeps`). Each line block is
pentadiagonal: the y diffusion and the second-order y upwind reach two
nodes. The x and z stencils couple a line only to the lines at most two
steps away along i or k, so the lines fall into levels of lines that do
not couple, and each half runs level by level: one product with the
level's couplings to the levels already solved, then two banded
triangular solves (BLAS `dtbsv`) with the no-pivot LU of the level's line
blocks. That LU is the one factorization a solver makes, and it serves
both sweeps.

R, the index reversal of the y-line order, is the point reflection
(x, y, z) -> (-x, -y, -z), under which the oscillator is odd unless its
force has a constant term; then R M R = S M, with S = -1 on the Neumann
rows. The symmetry halves a solve whose right-hand side has it: an adjoint
one, whose b = R b gives w = S R w, and a forward one built with `fold`,
whose b = S R b gives v = R v. A band observable, the constant one and a
crossing at level 0 are b = S R b. Either solution is fixed by its first
(n+1)/2 unknowns in y-line order, so the solver folds the system onto
them, and the sweep is that of the folded matrix's own line split.

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


def _mirrors(M, flip) -> bool:
    """Whether R M R = S M bit for bit, for the natural-order matrix M in
    canonical CSR and `flip` true on its stored entries in Neumann rows.

    The assembly keeps R M R = S M with S = -1 on the Neumann rows whenever
    the oscillator is odd under the point reflection R (force.const = 0).
    Then a right-hand side with the symmetry gives a solution with it. R
    reverses the natural order, as it does the y-line order, and reversing
    both axes keeps M's sorted order, so the pointers, indices and signed
    data of R M R are compared with M's one array at a time, without
    building R M R. The check reads the matrix, not the model, so a matrix
    that does not fit is not folded.
    """
    n, ptr = M.shape[0], M.indptr
    return (
        np.array_equal(ptr[-1] - ptr[::-1], ptr)
        and np.array_equal(n - 1 - M.indices[::-1], M.indices)
        and np.array_equal(np.where(flip[::-1], -M.data[::-1], M.data[::-1]), M.data)
    )


def _levels(lo: np.ndarray, hi: np.ndarray, n_lines: int) -> np.ndarray:
    """The level of each of n_lines lines, given the coupled pairs lo < hi:
    0 for a line coupled to no line before it, else one more than the
    highest level of those. Coupled lines never share a level, and each
    line's level exceeds that of every line before it that it couples to,
    so the lower sweep runs the levels up and the upper one down."""
    key = np.sort(hi.astype(np.int64) * n_lines + lo)
    key = key[np.diff(key, prepend=-1) != 0]
    ptr = np.searchsorted(key // n_lines, np.arange(n_lines + 1)).tolist()
    before = (key % n_lines).tolist()
    level = [0] * n_lines
    for line in range(n_lines):
        if ptr[line] < ptr[line + 1]:
            level[line] = 1 + max(level[m] for m in before[ptr[line] : ptr[line + 1]])
    return np.array(level)


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


def _line_sweeps(Ay: sp.csr_matrix, spec: GridSpec):
    """The symmetric block Gauss-Seidel sweep z = (D+U)^-1 D (D+L)^-1 r of
    Ay's split into y-lines of J unknowns, D + L + U, as a closure; with the
    number of stored line-factor entries and the level steps per
    application.

    Line p // J of Ay is y-line (i, k) with i K + k = p // J; a folded Ay's
    last line is the center line's free half. The lines are grouped into
    levels (`_levels`) and the unknowns reordered level by level, each line
    contiguous, so a level's D is banded over one slice. One no-pivot LU of
    the line blocks (`_band_lu`) serves both sweeps. A level step of the
    lower sweep (D+L) z = r is one product with the level's couplings to
    the levels before it, then two BLAS `dtbsv` on the slice. The upper
    sweep (D+U) x = D z needs no product with D: it is x = z - D^-1 U x,
    run back down the levels that couple to a later one. A line whose
    block reaches beyond bandwidth 2 is the identity in the band and is
    inverted densely: the fold makes two, the lines next to the center
    line whose x or z stencil reaches across the center and folds back
    onto themselves, j -> J-1-j. A zero or non-finite pivot raises
    PreconditionerBreakdown, naming the line. The closure holds no
    reference back to the solver, so a spent solver is freed by
    refcounting.
    """
    N, J = Ay.shape[0], spec.J
    n_lines = -(-N // J)
    row = np.repeat(np.arange(N, dtype=np.int32), np.diff(Ay.indptr))
    col, data = Ay.indices, Ay.data
    rline = row // J
    # the line of each entry's column against its row's: < 0 in L, > 0 in U
    side = col // J - rline
    inline = side == 0
    r, c, d = row[inline], col[inline], data[inline]
    offset = c - r
    wide = np.unique(r[np.abs(offset) > 2] // J)
    first, second = rline[~inline], rline[~inline] + side[~inline]
    level = _levels(np.minimum(first, second), np.maximum(first, second), n_lines)
    del first, second
    # the unknowns level by level, each line in j order; only the last line
    # can be shorter than J
    by_level = np.argsort(level, kind="stable")
    order = (by_level[:, None] * J + np.arange(J, dtype=np.int32)).ravel()
    order = order[order < N]
    pos = np.empty(N, dtype=np.int32)
    pos[order] = np.arange(N, dtype=np.int32)
    lengths = np.full(n_lines, J)
    lengths[-1] = N - (n_lines - 1) * J
    bounds = np.concatenate([[0], np.cumsum(lengths[by_level])])
    bounds = bounds[np.concatenate([[0], np.cumsum(np.bincount(level))])].tolist()

    # D's band, in the (J, lines) layout of `_band_lu`, identity on padding
    # and on the wide lines; a folded Ay keeps entries apart, so they are summed
    keep = np.abs(offset) <= 2
    at = ((offset[keep] + 2) * J + r[keep] % J) * n_lines + r[keep] // J
    band = np.bincount(at, weights=d[keep], minlength=5 * J * n_lines).reshape(5, J, n_lines)
    del keep, at
    band[2, lengths[-1] :, -1] = 1.0
    band[:, :, wide] = 0.0
    band[2, :, wide] = 1.0
    lu = _band_lu(band)
    del band
    bad = ~np.isfinite(lu).all(axis=0) | (lu[2] == 0.0)
    if bad.any():
        line, j = np.argwhere(bad.T)[0]
        _breakdown(line, spec, f"at j = {j}")
    # to level order: the lower factor's band holds (j+1, j) and (j+2, j) in
    # rows 1 and 2 of column j, the upper one's (j-2, j), (j-1, j) and (j, j)
    # in rows 0-2
    l2, l1, u0, u1, u2 = lu.transpose(0, 2, 1).reshape(5, -1)[:, order]
    lower = np.zeros((3, N), order="F")
    upper = np.zeros((3, N), order="F")
    lower[0] = 1.0
    lower[1, :-1], lower[2, :-2] = l1[1:], l2[2:]
    upper[0, 2:], upper[1, 1:], upper[2] = u2[:-2], u1[:-1], u0
    del lu, l2, l1, u0, u1, u2
    dense = {}
    for line in wide.tolist():
        at = r // J == line
        block = np.zeros((lengths[line], lengths[line]))
        np.add.at(block, (r[at] % J, c[at] % J), d[at])
        factor, piv, info = lapack.dgetrf(block)
        if info != 0 or not np.isfinite(factor).all():
            _breakdown(line, spec, "in its dense LU")
        start = int(pos[line * J])
        dense.setdefault(int(level[line]), []).append(
            (start, start + lengths[line], lapack.dgetri(factor, piv)[0])
        )

    def couplings(mask):
        """The entries of mask in level order, as one CSR block per level,
        None for a level without any."""
        kept = np.zeros(mask.size + 1, dtype=np.int32)
        np.cumsum(mask, out=kept[1:])
        M = sp.csr_matrix((data[mask], pos[col[mask]], kept[Ay.indptr]), shape=(N, N))[order]
        ptr = M.indptr
        return [
            sp.csr_matrix(
                (M.data[ptr[a] : ptr[b]], M.indices[ptr[a] : ptr[b]], ptr[a : b + 1] - ptr[a]),
                shape=(b - a, N),
            )
            if ptr[b] > ptr[a]
            else None
            for a, b in zip(bounds[:-1], bounds[1:])
        ]

    del row, rline, inline, r, c, d, offset
    below, above = couplings(side < 0), couplings(side > 0)
    del side
    stored = lower.size + upper.size
    stored += sum(inv.size for blocks in dense.values() for *_, inv in blocks)
    # per level: its slice, the band factors' columns on it, its dense lines
    # and its couplings below and above
    steps = [
        (a, b, lower[:, a:b], upper[:, a:b], dense.get(s, ()), L, U)
        for s, (a, b, L, U) in enumerate(zip(bounds[:-1], bounds[1:], below, above))
    ]

    def apply(r):
        # (D+L) z = r level by level up; then (D+U) x = D z is
        # x = z - D^-1 U x level by level down, in place. `*` is the matrix
        # product of a csr_matrix, which it reaches in fewer checks than `@`;
        # dtbsv takes (k, band, x, incx, offx, lower, trans, unit, overwrite)
        z = r[order]
        for a, b, lo, up, blocks, L, _ in steps:
            if L is not None:
                z[a:b] -= L * z
            dtbsv(2, lo, z, 1, a, 1, 0, 1, 1)
            dtbsv(2, up, z, 1, a, 0, 0, 0, 1)
            for start, stop, inv in blocks:
                z[start:stop] = inv @ z[start:stop]
        for a, b, lo, up, blocks, _, U in reversed(steps):
            if U is not None:
                c = U * z
                dtbsv(2, lo, c, 1, 0, 1, 0, 1, 1)
                dtbsv(2, up, c, 1, 0, 0, 0, 0, 1)
                for start, stop, inv in blocks:
                    c[start - a : stop - a] = inv @ c[start - a : stop - a]
                z[a:b] -= c
        out = np.empty(N)
        out[order] = z
        return out

    return apply, stored, len(steps) + sum(U is not None for *_, U in steps)


def _breakdown(line: int, spec: GridSpec, where: str):
    """Raise PreconditionerBreakdown for the block of y-line number `line`."""
    i, k = divmod(int(line), spec.K)
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
    """Builds the preconditioner once and solves any number of right-hand
    sides, of M v = b, or with `adjoint` of M^T w = b.

    P M P^T is formed once in `GridSpec.yline_order`. GMRES runs on the
    y-line matrix `Ay`: P M P^T forward, and adjoint P M^T P^T, read from
    the CSC of P M P^T. `precond` is the symmetric block Gauss-Seidel sweep
    (D+U)^-1 D (D+L)^-1 of `Ay`'s own split into lines of J
    (`_line_sweeps`), solved exactly, level by level; its line factors are
    the one factorization (`factor_nnz` stored entries, `levels` level
    steps per application). `solve` takes and returns natural-order vectors
    and permutes each once (`to_yline`, `to_natural`). `A` rebuilds the
    natural-order matrix, M or M^T, on each access; the solver keeps only
    `Ay`.

    When R M R = S M bit for bit (`_mirrors`), the solver is `folded` when
    `fold` asks for it, which it does by default for an adjoint solver and
    not for a forward one: only the caller knows that its right-hand sides
    are symmetric. Then an adjoint b = R b has the solution w = S R w, and a forward b = S R b has v = R v, so in
    y-line order only the first n_f = (n+1)/2 unknowns are free
    (`GridSpec.yline_fold`). `Ay` is then the n_f x n_f matrix of the top
    n_f rows of P M^T P^T, each column p >= n_f folded onto column n-1-p
    with the sign S, or forward of P M P^T with sign 1. It keeps every entry
    apart, so a folded entry may share its column with another and `A` can
    unfold it. Its last line is the center line's free half. GMRES and the
    final check measure the residual by `_folded_norm`, the norm of the full
    residual, and a right-hand side without the symmetry raises
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
        M = sys.to_csr()
        self.folded = adjoint if fold is None else fold
        if self.folded:
            # S = -1 on the Neumann rows, j in {0, J-1}
            j = np.arange(n) // sys.spec.K % J
            self.folded = _mirrors(M, np.repeat((j == 0) | (j == J - 1), np.diff(M.indptr)))
            del j
        # P M P^T, (P v)[p] = v[perm[p]], from the rows of M in perm order with
        # renamed columns: CSC adjoint, CSR forward, so that its compressed
        # slices are the rows of the matrix the solver inverts
        perm = sys.spec.yline_order()
        inv = np.empty_like(perm)
        inv[perm] = np.arange(n, dtype=np.int32)
        rows = M[perm]
        yline = sp.csr_matrix((rows.data, inv[rows.indices], rows.indptr), shape=rows.shape)
        Ap = yline.tocsc() if adjoint else yline
        del M, inv, rows, yline
        self._norm = _folded_norm if self.folded else _norm
        if self.folded:
            # w = S R w adjoint, v = R v forward
            self._source, self._sign = sys.spec.yline_fold()
            if not adjoint:
                self._sign = np.ones(n)
            self.Ay, self._folded_at = _fold(Ap, self._source, self._sign)
        else:
            self.Ay = sp.csr_matrix((Ap.data, Ap.indices, Ap.indptr), shape=Ap.shape)
        del Ap
        # the first rows of P b in; P^T z, unfolded to sign * z[source], out
        self._perm = perm
        self.precond, self.factor_nnz, self.levels = _line_sweeps(self.Ay, sys.spec)

    def to_yline(self, b: np.ndarray) -> np.ndarray:
        """P b, cut to the rows of `Ay`: a natural-order right-hand side in
        the order of `Ay`. A folded solver raises DegenerateInput unless
        b = R b (adjoint) or b = S R b (forward) bit for bit
        (`reflection_symmetric`)."""
        if self.folded and not reflection_symmetric(b, self.spec, 1.0 if self.adjoint else -1.0):
            direction, symmetry = ("adjoint", "R b") if self.adjoint else ("forward", "S R b")
            raise DegenerateInput(
                f"a folded {direction} solver needs a right-hand side b = {symmetry}, "
                "symmetric under the point reflection"
            )
        return b[self._perm[: self.Ay.shape[0]]]

    def to_natural(self, z: np.ndarray) -> np.ndarray:
        """P^T z: a solution of `Ay` in natural order, unfolded to
        w = S R w (adjoint) or v = R v (forward) when the solver is folded."""
        if self.folded:
            z = self._sign * z[self._source]
        v = np.empty(self.n)
        v[self._perm] = z
        return v

    @property
    def A(self) -> sp.csr_matrix:
        """The natural-order matrix this solver inverts, M or with `adjoint`
        M^T, rebuilt from `Ay` on each access; a folded `Ay` is unfolded
        first, bit for bit."""
        coo = self.Ay.tocoo()
        perm = self._perm
        if not self.folded:
            return sp.csr_matrix((coo.data, (perm[coo.row], perm[coo.col])), shape=coo.shape)
        # unfold the columns into the top n_f rows of the y-line matrix, then
        # add every row but the center's mirror: R (P M P^T) R = S P M P^T,
        # so R (P M^T P^T) R = P M^T P^T S
        n, at = self.n, self._folded_at
        row, col, data = coo.row, coo.col.copy(), coo.data.copy()
        col[at] = n - 1 - col[at]
        data[at] *= self._sign[col[at]]
        low = row < self.Ay.shape[0] - 1
        neumann = _neumann_sign(n, self.spec.J)[col[low] if self.adjoint else row[low]]
        row = np.concatenate([row, n - 1 - row[low]])
        data = np.concatenate([data, neumann * data[low]])
        col = np.concatenate([col, n - 1 - col[low]])
        return sp.csr_matrix((data, (perm[row], perm[col])), shape=(n, n))

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
