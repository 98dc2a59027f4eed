"""Assembly of the sparse resolvent system M v = g on the scaled grid.

Equation rows (0 < j < J-1, node indices counted from 0) discretize

    v - [ lam*sigma^2/2 * d2_yt + beta_t * up_yt + (yt/lam) * up_xt
          + (yt/lam) * up_zt ] v = g

with second-order upwind advection that falls back to first order one node
away from each face, and one-sided second-order stencils pointing inward on
the xt and zt faces themselves (no outward flux: the advected information
propagates inward only). Rows with j in {0, J-1} are two-point Neumann rows
enforcing zero yt-derivative, with zero right-hand side.

`assemble_matrix` emits the closed-form entries case by case, each into the
band at its stencil step's offset `GridSpec.index(di, dj, dk)`, and converts
the bands to CSR in one step; the independent oracle `oracle_assemble`
rebuilds the same matrix by applying generic difference-operator
definitions to unit basis vectors and never consults the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidSpec
from .grid import Grid, GridSpec
from .model import ModelParams, drift_beta
from .observables import Observable

__all__ = [
    "SparseSystem",
    "assemble_matrix",
    "assemble_rhs",
    "oracle_assemble",
]


@dataclass
class SparseSystem:
    """The system in canonical CSR form, 1 row per grid node.

    spec is the grid's, whose `index` numbers the rows. matrix has sorted
    column indices, duplicates summed and exact zeros dropped; rows/cols/vals
    are its 0-based triplets in (row, col) order, derived on demand. rhs is
    dense, 0 at Neumann rows.
    """

    spec: GridSpec
    matrix: sp.csr_matrix
    rhs: np.ndarray

    @property
    def n(self) -> int:
        return self.spec.n_nodes

    @property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), np.diff(self.matrix.indptr))

    @property
    def cols(self) -> np.ndarray:
        return self.matrix.indices

    @property
    def vals(self) -> np.ndarray:
        return self.matrix.data

    def to_csr(self) -> sp.csr_matrix:
        return self.matrix


def _merge_triplets(n, rows, cols, vals) -> sp.csr_matrix:
    """Sum duplicate (row, col) contributions, drop exact zeros, sort."""
    csr = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()  # sums duplicates
    csr.sum_duplicates()
    csr.eliminate_zeros()
    # merging leaves data and indices as views of the unmerged buffers, about
    # 1.6 times larger; the copy lets those go
    return csr.copy()


def _checked_spec(grid: Grid, lam: float, p: ModelParams | None = None) -> GridSpec:
    """The grid's spec, once lam and, given the model, its plastic bound b
    are checked against it: the z half-width of the box is the spec's b."""
    s = grid.spec
    if lam != s.lam:
        raise InvalidSpec(f"lam={lam} does not match grid lam={s.lam}")
    if p is not None and p.b != s.b:
        raise InvalidSpec(f"model b={p.b} does not match grid b={s.b}")
    return s


def assemble_matrix(grid: Grid, p: ModelParams, lam: float) -> SparseSystem:
    """Closed-form row assembly of M, one stencil diagonal at a time.

    The indicator factors (1 + 1{2 < i < I-1}) are evaluated per node as
    printed, not by splitting loops into bands. Every entry (di, dj, dk) of the
    stencil is added into the full-length band of its offset
    `GridSpec.index(di, dj, dk)`, and one DIA-to-CSR conversion builds the
    matrix. Returns a SparseSystem with a zero rhs; assemble_rhs builds the
    right-hand side.
    """
    s = _checked_spec(grid, lam, p)
    I, J, K = s.shape
    dx, dy, dz = s.dx, s.dy, s.dz
    n = s.n_nodes

    iv, jv, kv = grid.node_indices()
    eq = (jv >= 1) & (jv <= J - 2)  # equation rows

    # advection speeds at each node (unscaled): yt/lam for xt,zt; beta for yt
    x_un = grid.x[iv]
    y_un = grid.y[jv]
    z_un = grid.z[kv]
    cxz = y_un  # yt_j / lam
    by = drift_beta(x_un, y_un, z_un, p)

    diff = lam * p.sigma**2 / 2.0

    # one row-indexed band per stencil offset
    bands: dict[int, np.ndarray] = {}

    def band(offset):
        return bands.setdefault(offset, np.zeros(iv.shape))

    def emit(mask, di, dj, dk, values):
        b = band(s.index(di, dj, dk))
        np.add(b, values, out=b, where=mask & eq)

    diag = np.ones(iv.shape)

    def axis_terms(pos, count, spacing, speed, diag_acc):
        """Upwind advection entries for one non-diffusive axis.

        pos is the 0-based index array along the axis; emits (offset, value)
        pairs and accumulates the diagonal contribution in-place.
        """
        pos1 = pos + 1  # 1-based
        up = np.maximum(0.0, speed)
        dn = np.minimum(0.0, speed)
        at_lo = pos1 == 1
        at_hi = pos1 == count
        inner = ~at_lo & ~at_hi
        full = (pos1 > 2) & (pos1 < count - 1)
        fb = np.where(full, 1.0, 0.0)

        terms = []
        # strict interior: second-order upwind with first-order fallback
        terms.append((inner & full, -2, -dn / (2.0 * spacing)))
        terms.append((inner & full, +2, up / (2.0 * spacing)))
        terms.append((inner, -1, (1.0 + fb) * dn / spacing))
        terms.append((inner, +1, -(1.0 + fb) * up / spacing))
        diag_acc += np.where(inner, (2.0 + fb) * np.abs(speed) / (2.0 * spacing), 0.0)
        # faces: one-sided second-order stencil, inward only
        terms.append((at_lo, +1, -2.0 * up / spacing))
        terms.append((at_lo, +2, up / (2.0 * spacing)))
        diag_acc += np.where(at_lo, 3.0 * up / (2.0 * spacing), 0.0)
        terms.append((at_hi, -1, 2.0 * dn / spacing))
        terms.append((at_hi, -2, -dn / (2.0 * spacing)))
        diag_acc += np.where(at_hi, -3.0 * dn / (2.0 * spacing), 0.0)
        return terms

    # xt-advection at speed yt/lam
    for mask, off, val in axis_terms(iv, I, dx, cxz, diag):
        emit(mask, off, 0, 0, val)
    # zt-advection at the same speed
    for mask, off, val in axis_terms(kv, K, dz, cxz, diag):
        emit(mask, 0, 0, off, val)

    # yt-direction: diffusion plus upwind advection at speed beta. Equation
    # rows never touch j in {1, J}, so there is no face branch here.
    upb = np.maximum(0.0, by)
    dnb = np.minimum(0.0, by)
    full_j = (jv + 1 > 2) & (jv + 1 < J - 1)
    fbj = np.where(full_j, 1.0, 0.0)
    emit(full_j, 0, -2, 0, -dnb / (2.0 * dy))
    emit(full_j, 0, +2, 0, upb / (2.0 * dy))
    emit(np.ones_like(full_j), 0, -1, 0, -diff / dy**2 + (1.0 + fbj) * dnb / dy)
    emit(np.ones_like(full_j), 0, +1, 0, -diff / dy**2 - (1.0 + fbj) * upb / dy)
    diag += 2.0 * diff / dy**2 + (2.0 + fbj) * np.abs(by) / (2.0 * dy)

    # diagonal of every equation row (the emit helper applies the eq mask)
    emit(np.ones_like(full_j), 0, 0, 0, diag)

    # Neumann rows at j = 0 and j = J-1
    for j0, sign, nb in ((0, -1.0, +1), (J - 1, +1.0, -1)):
        band(0)[:, j0, :] = sign / dy
        band(s.index(0, nb, 0))[:, j0, :] = -sign / dy

    # scipy's DIA layout keeps the entry (r, r + offset) at column r + offset
    offsets = list(bands)
    data = np.zeros((len(offsets), n))
    for row, offset in zip(data, offsets):
        flat = bands.pop(offset).ravel()
        if offset >= 0:
            row[offset:] = flat[: n - offset]
        else:
            row[:offset] = flat[-offset:]
    # the conversion sorts each row's columns and drops the zero entries, but
    # leaves data and indices as views of buffers sized for every band slot,
    # about 1.8 times larger; the copy lets those go
    matrix = sp.dia_matrix((data, offsets), shape=(n, n)).tocsr().copy()
    return SparseSystem(spec=s, matrix=matrix, rhs=np.zeros(n))


def _band_cell_means(x0, x1, z0, z1, a2: float) -> np.ndarray:
    """Exact mean of 1{|x - z| <= a2} over the rectangles [x0,x1] x [z0,z1].

    Over a rectangle, d = x - z has a trapezoidal density centred at m, the
    difference of the side midpoints: support m +- (wx + wz)/2, plateau
    m +- |wx - wz|/2. The mean is the density's
    mass in [-a2, a2], a difference of its closed-form distribution function.
    """
    wx, wz = x1 - x0, z1 - z0
    p, q = np.minimum(wx, wz), np.maximum(wx, wz)
    half = (wx + wz) / 2.0
    flat = (q - p) / 2.0
    m = (x0 + x1) / 2.0 - (z0 + z1) / 2.0

    def cdf(u):
        # P(d - m <= u) - 1/2, odd in u and exactly +-1/2 beyond the support
        s = np.minimum(np.abs(u), half)
        inner = np.where(s <= flat, s / q, 0.5 - (half - s) ** 2 / (2.0 * p * q))
        return np.sign(u) * inner

    # a negative difference means the strip misses the cell
    return np.maximum(cdf(a2 - m) - cdf(-a2 - m), 0.0)


def assemble_rhs(grid: Grid, g, lam: float) -> np.ndarray:
    """Dense right-hand side, 0 at Neumann rows.

    g is an Observable (or any vectorized callable of unscaled (x, y, z)),
    sampled at the unscaled node coordinates. A band observable instead
    gives each row the exact mean of its indicator over the node's dual
    cell [x +- dx/2] x [z +- dz/2] (clipped to the box): point samples of
    the discontinuous indicator would put the band edge on a grid-dependent
    staircase, an O(h) error the dynamics carry along the x - z = const
    lines without smoothing. A zero-width band (a2 = 0) has zero area and
    gives a zero right-hand side.
    """
    s = _checked_spec(grid, lam)
    if isinstance(g, Observable) and g.kind == "band":
        x0, x1 = grid.dual_cells("x")
        z0, z1 = grid.dual_cells("z")
        means = _band_cell_means(
            x0[:, None], x1[:, None], z0[None, :], z1[None, :], g.params["a2"]
        )
        vals = np.repeat(means[:, None, :], s.J, axis=1)
    else:
        iv, jv, kv = grid.node_indices()
        vals = np.asarray(g(grid.x[iv], grid.y[jv], grid.z[kv]), dtype=np.float64)
    vals[:, [0, -1], :] = 0.0
    return vals.ravel()


# --- independent oracle -----------------------------------------------------
#
# Rebuilds M one column at a time by applying the generic difference-operator
# definitions to unit basis vectors. Structurally disjoint from the
# closed-form route: no entry formula appears below, only the operator
# definitions and the boundary truncation rules.


def _d_forward(u, m, h):
    return (u[m + 1] - u[m]) / h


def _d_backward(u, m, h):
    return (u[m] - u[m - 1]) / h


def _d_second(u, m, h):
    return (u[m + 1] - 2.0 * u[m] + u[m - 1]) / h**2


def _d_fforward(u, m, h):
    return (-3.0 * u[m] + 4.0 * u[m + 1] - u[m + 2]) / (2.0 * h)


def _d_bbackward(u, m, h):
    return (3.0 * u[m] - 4.0 * u[m - 1] + u[m - 2]) / (2.0 * h)


def _upwind(u, m, c, h, count):
    """Second-order upwind advection c * d/dxi at position m (0-based).

    On the faces only the inward one-sided stencil applies; one node away
    from a face the scheme reverts to first-order upwind.
    """
    if m == 0:
        return max(0.0, c) * _d_fforward(u, m, h)
    if m == count - 1:
        return min(0.0, c) * _d_bbackward(u, m, h)
    if m == 1 or m == count - 2:
        return max(0.0, c) * _d_forward(u, m, h) + min(0.0, c) * _d_backward(u, m, h)
    return max(0.0, c) * _d_fforward(u, m, h) + min(0.0, c) * _d_bbackward(u, m, h)


def oracle_assemble(grid: Grid, p: ModelParams, lam: float) -> SparseSystem:
    """Operator-application route; intended for small grids (<= 9^3 or so).

    Columns of M are (M e) for unit vectors e, with the operator evaluated
    only on the rows inside the stencil envelope of the perturbed node.
    """
    s = _checked_spec(grid, lam, p)
    I, J, K = s.shape
    dx, dy, dz = s.dx, s.dy, s.dz
    diff = lam * p.sigma**2 / 2.0
    n = s.n_nodes

    def row_value(v, i0, j0, k0):
        """(M v) at one node, from the operator definitions."""
        if j0 == 0:
            return _d_forward(v[i0, :, k0], 0, dy)
        if j0 == J - 1:
            return _d_backward(v[i0, :, k0], J - 1, dy)
        beta = drift_beta(grid.x[i0], grid.y[j0], grid.z[k0], p)
        c = grid.y[j0]  # the x and z advection speed
        lv = (
            diff * _d_second(v[i0, :, k0], j0, dy)
            + _upwind(v[i0, :, k0], j0, beta, dy, J)
            + _upwind(v[:, j0, k0], i0, c, dx, I)
            + _upwind(v[i0, j0, :], k0, c, dz, K)
        )
        return v[i0, j0, k0] - lv

    rows_l, cols_l, vals_l = [], [], []
    e = np.zeros((I, J, K))
    for ic in range(I):
        for jc in range(J):
            for kc in range(K):
                e[ic, jc, kc] = 1.0
                col = s.index(ic, jc, kc)
                for ir in range(max(0, ic - 2), min(I, ic + 3)):
                    for jr in range(max(0, jc - 2), min(J, jc + 3)):
                        for kr in range(max(0, kc - 2), min(K, kc + 3)):
                            val = row_value(e, ir, jr, kr)
                            if val != 0.0:
                                rows_l.append(s.index(ir, jr, kr))
                                cols_l.append(col)
                                vals_l.append(val)
                e[ic, jc, kc] = 0.0

    matrix = _merge_triplets(
        n,
        np.asarray(rows_l, dtype=np.int64),
        np.asarray(cols_l, dtype=np.int64),
        np.asarray(vals_l, dtype=np.float64),
    )
    return SparseSystem(spec=s, matrix=matrix, rhs=np.zeros(n))
