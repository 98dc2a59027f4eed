import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from bepo.assembly import (
    assemble_matrix,
    assemble_rhs,
    oracle_assemble,
)
from bepo.errors import InvalidSpec
from bepo.grid import GridSpec, build_grid
from bepo.model import ForceSpec, ModelParams
from bepo.observables import constant_observable, mollified_crossing_speed, plastic_band

MODEL = ModelParams()


def small_grid(n, lam, **kw):
    return build_grid(GridSpec(lam=lam, I=n, J=n, K=n, **kw))


def eq_row_mask(I, J, K):
    jv = (np.arange(I * J * K) // K) % J
    return (jv >= 1) & (jv <= J - 2)


def ones_product_pattern(sys, I, J, K, as_tol_of_row_max=8):
    """|M@1 - (1 on eq rows, 0 on Neumann rows)| <= tol ulps of each row's
    largest entry (the natural scale after cancellation)."""
    csr = sys.to_csr()
    mv = csr @ np.ones(sys.n)
    expected = np.where(eq_row_mask(I, J, K), 1.0, 0.0)
    row_max = np.zeros(sys.n)
    np.maximum.at(row_max, sys.rows, np.abs(sys.vals))
    tol = as_tol_of_row_max * np.spacing(row_max)
    return np.abs(mv - expected) <= tol


def assert_matches_oracle(grid, p, lam):
    a = assemble_matrix(grid, p, lam)
    b = oracle_assemble(grid, p, lam)
    ka = list(zip(a.rows.tolist(), a.cols.tolist()))
    kb = list(zip(b.rows.tolist(), b.cols.tolist()))
    assert ka == kb, "sparsity patterns differ"
    scale = np.maximum(np.abs(a.vals), np.abs(b.vals))
    assert (np.abs(a.vals - b.vals) <= 4 * np.spacing(scale)).all()


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("lam", [1.0, 0.1, 1e-3])
def test_oracle_equivalence(n, lam):
    assert_matches_oracle(small_grid(n, lam), MODEL, lam)


@pytest.mark.parametrize(
    "shape", [(3, 5, 7), (7, 3, 5), (5, 7, 3), (9, 5, 3)], ids=lambda s: "x".join(map(str, s))
)
@pytest.mark.parametrize("lam", [1.0, 0.1, 1e-3])
def test_oracle_equivalence_non_cubic(shape, lam):
    # one routine serves every axis: a count, spacing or step taken from the
    # wrong axis agrees with the oracle on every cubic grid, but not here
    I, J, K = shape
    assert_matches_oracle(build_grid(GridSpec(lam=lam, I=I, J=J, K=K)), MODEL, lam)


def test_constants_annihilation():
    for n, lam in ((3, 1e-3), (5, 0.1), (7, 1.0)):
        grid = small_grid(n, lam)
        sys = assemble_matrix(grid, MODEL, lam)
        assert ones_product_pattern(sys, n, n, n).all()


def test_neumann_rows_two_point():
    n = 5
    grid = small_grid(n, 0.1)
    sys = assemble_matrix(grid, MODEL, 0.1)
    csr = sys.to_csr()
    dy = grid.spec.dy
    for i, k in itertools.product(range(n), range(n)):
        row = csr.getrow((i * n + 0) * n + k)
        cols = row.indices.tolist()
        assert sorted(cols) == sorted([(i * n + 0) * n + k, (i * n + 1) * n + k])
        assert row[0, (i * n + 0) * n + k] == -1.0 / dy
        assert row[0, (i * n + 1) * n + k] == 1.0 / dy
        row = csr.getrow((i * n + (n - 1)) * n + k)
        assert row[0, (i * n + (n - 1)) * n + k] == 1.0 / dy
        assert row[0, (i * n + (n - 2)) * n + k] == -1.0 / dy


def test_interior_second_order_entries_and_fallback():
    # 7 nodes: i=4 (1-based) is fully interior, i=2 falls back to first order
    n = 7
    lam = 0.1
    grid = small_grid(n, lam)
    sys = assemble_matrix(grid, MODEL, lam)
    csr = sys.to_csr().tolil()
    dx = grid.spec.dx
    j0 = 4  # 0-based; y > 0 there
    c = grid.y[j0]
    assert c > 0
    k0 = 3

    def l(i0):
        return (i0 * n + j0) * n + k0

    # full second-order node i=4 (0-based 3)
    assert csr[l(3), l(5)] == c / (2 * dx)
    assert csr[l(3), l(4)] == -2 * c / dx
    assert csr[l(3), l(1)] == 0.0
    # fallback node i=2 (0-based 1): no i+2 entry, single-weight i+1
    assert csr[l(1), l(3)] == 0.0
    assert csr[l(1), l(2)] == -c / dx
    # face node i=1 (0-based 0): inward one-sided second-order stencil
    assert csr[l(0), l(1)] == -2 * c / dx
    assert csr[l(0), l(2)] == c / (2 * dx)


def test_pattern_envelope_and_diagonals():
    n = 7
    grid = small_grid(n, 1e-2)
    sys = assemble_matrix(grid, MODEL, 1e-2)
    assert sys.rows.min() >= 0 and sys.cols.min() >= 0
    assert sys.rows.max() < sys.n and sys.cols.max() < sys.n
    counts = np.bincount(sys.rows, minlength=sys.n)
    assert counts.max() <= 13
    diag = sys.to_csr().diagonal()
    assert (diag != 0).all()
    eq = eq_row_mask(n, n, n)
    assert (diag[eq] >= 1.0).all()


def test_every_entry_is_one_stencil_step_at_its_grid_offset():
    spec = GridSpec(lam=0.1, I=5, J=7, K=3)
    grid = build_grid(spec)
    sys = assemble_matrix(grid, MODEL, spec.lam)
    i, j, k = (a.ravel() for a in np.indices(spec.shape))
    r, c = sys.rows, sys.cols
    step = np.stack([i[c] - i[r], j[c] - j[r], k[c] - k[r]])
    # along one axis at a time, at most two nodes: the 13 steps of the stencil
    assert ((step != 0).sum(axis=0) <= 1).all() and (np.abs(step) <= 2).all()
    assert len(set(map(tuple, step.T))) == 13
    assert (c - r == spec.index(*step)).all()


def test_triplets_are_the_stored_csr_in_row_major_order():
    sys = assemble_matrix(small_grid(7, 1e-2), MODEL, 1e-2)
    assert sys.to_csr() is sys.matrix
    keys = sys.rows * sys.n + sys.cols
    assert (np.diff(keys) > 0).all() and (sys.vals != 0).all()
    rebuilt = sp.csr_matrix((sys.vals, (sys.rows, sys.cols)), shape=(sys.n, sys.n))
    assert (rebuilt != sys.matrix).nnz == 0


def test_reflection_equivariance_with_neumann_sign():
    # R M R equals M on equation rows and -M on Neumann rows, bit-exact, with
    # R the full index reversal, for every model odd under (x, y, z) ->
    # (-x, -y, -z): a force without a constant term. The solver shares one
    # incomplete LU between its two sweeps on this identity.
    odd = ModelParams(alpha=0.9, b=0.5, force=ForceSpec(0.7, 0.2, 0.0))
    cases = (
        (GridSpec(lam=0.1, I=5, J=5, K=5), MODEL),
        (GridSpec(lam=1e-3, I=7, J=7, K=7), MODEL),
        (GridSpec(lam=1e-2, I=5, J=7, K=9), MODEL),
        (GridSpec(x_bar=2.0, y_bar=3.0, b=0.5, lam=1e-2, I=5, J=7, K=9), odd),
    )
    for spec, model in cases:
        I, J, K = spec.I, spec.J, spec.K
        sys = assemble_matrix(build_grid(spec), model, spec.lam)
        M = sys.to_csr()
        M.sort_indices()
        perm = np.arange(I * J * K)[::-1]
        Pm = sp.csr_matrix(
            (np.ones(len(perm)), (np.arange(len(perm)), perm)), shape=M.shape
        )
        refl = (Pm.T @ M @ Pm).tocsr()
        sign = np.where(eq_row_mask(I, J, K), 1.0, -1.0)
        refl = (sp.diags(sign) @ refl).tocsr()
        refl.sort_indices()
        assert (refl.indptr == M.indptr).all()
        assert (refl.indices == M.indices).all()
        assert np.array_equal(refl.data, M.data)


def test_rhs_values_and_neumann_zeros():
    n = 5
    lam = 0.1
    grid = small_grid(n, lam)
    rhs = assemble_rhs(grid, constant_observable(1.0), lam)
    eq = eq_row_mask(n, n, n)
    assert (rhs[eq] == 1.0).all()
    assert (rhs[~eq] == 0.0).all()

    g = mollified_crossing_speed(0.0, 0.5)
    rhs = assemble_rhs(grid, g, lam)
    assert (rhs[~eq] == 0.0).all()
    perm = np.arange(n**3).reshape(n, n, n)[::-1, ::-1, ::-1].ravel()
    assert np.array_equal(rhs, rhs[perm])


def test_rhs_of_a_scalar_valued_callable_broadcasts():
    grid = build_grid(GridSpec(lam=0.1, I=5, J=7, K=3))
    rhs = assemble_rhs(grid, lambda x, y, z: 1.0, 0.1)
    assert rhs.tobytes() == assemble_rhs(grid, constant_observable(1.0), 0.1).tobytes()


def test_lambda_mismatch_rejected():
    grid = small_grid(5, 0.1)
    with pytest.raises(InvalidSpec):
        assemble_matrix(grid, MODEL, 0.2)
    with pytest.raises(InvalidSpec):
        assemble_rhs(grid, constant_observable(1.0), 0.2)


def test_plastic_bound_mismatch_rejected():
    # the z half-width of the box is the grid's b, so a model with another
    # plastic bound would be solved on the wrong domain
    grid = build_grid(GridSpec(b=0.5, lam=0.1, I=5, J=5, K=5))
    for assemble in (assemble_matrix, oracle_assemble):
        with pytest.raises(InvalidSpec, match="b=1.0"):
            assemble(grid, ModelParams(b=1.0), 0.1)


def test_oracle_equivalence_nonsymmetric_force():
    # a force with x-coupling and offset exercises every beta-dependent term
    p = ModelParams(k=1.2, alpha=0.6, b=0.8, sigma=0.7, force=ForceSpec(1.5, 0.3, 0.2))
    grid = build_grid(GridSpec(x_bar=2.0, y_bar=3.0, b=0.8, lam=0.05, I=5, J=7, K=3))
    assert_matches_oracle(grid, p, 0.05)


BAND_WIDTHS = [0.0, 0.3, 0.375, 1.5, 2.5]


def band_rhs(I, K, a2, lam=0.1, J=5):
    grid = build_grid(GridSpec(lam=lam, I=I, J=J, K=K))
    return grid, assemble_rhs(grid, plastic_band(a2), lam)


def clipped_area(x0, x1, z0, z1, a2):
    """Area of {|x - z| <= a2} in a rectangle: polygon clipping + shoelace."""
    poly = [(x0, z0), (x1, z0), (x1, z1), (x0, z1)]
    for sx in (1.0, -1.0):  # keep sx*(x - z) <= a2
        out = []
        for (px, pz), (qx, qz) in zip(poly, poly[1:] + poly[:1]):
            fp, fq = sx * (px - pz) - a2, sx * (qx - qz) - a2
            if fp <= 0:
                out.append((px, pz))
            if fp * fq < 0:
                t = fp / (fp - fq)
                out.append((px + t * (qx - px), pz + t * (qz - pz)))
        poly = out
    if len(poly) < 3:
        return 0.0
    return 0.5 * abs(
        sum(px * qz - qx * pz for (px, pz), (qx, qz) in zip(poly, poly[1:] + poly[:1]))
    )


@pytest.mark.parametrize("a2", BAND_WIDTHS)
def test_band_rhs_is_dual_cell_mean(a2):
    # every row against an independent clipped-polygon area; x = 0.875*m and
    # z = 0.5*n put nodes exactly on the band edge for a2 = 0.375
    I, J, K = 9, 5, 5
    grid, rhs = band_rhs(I, K, a2, J=J)
    s = grid.spec
    v = rhs.reshape(I, J, K)
    assert ((0.0 <= rhs) & (rhs <= 1.0)).all()
    assert (v[:, [0, -1], :] == 0.0).all()
    hx, hz = 2 * s.x_bar / (I - 1), 2 * s.b / (K - 1)
    for i, k in itertools.product(range(I), range(K)):
        x0, x1 = max(grid.x[i] - hx / 2, -s.x_bar), min(grid.x[i] + hx / 2, s.x_bar)
        z0, z1 = max(grid.z[k] - hz / 2, -s.b), min(grid.z[k] + hz / 2, s.b)
        mean = clipped_area(x0, x1, z0, z1, a2) / ((x1 - x0) * (z1 - z0))
        assert v[i, 1:-1, k] == pytest.approx(mean, abs=1e-13), (i, k)


@pytest.mark.parametrize("a2", BAND_WIDTHS)
def test_band_rhs_integrates_to_strip_area(a2):
    # half cells on the faces; x_bar >= b + a2, so the strip crosses the box
    # from z = -b to z = b and its area is 4*b*a2
    for I, K in ((33, 33), (17, 9), (65, 33)):
        grid, rhs = band_rhs(I, K, a2)
        s = grid.spec
        assert s.x_bar >= s.b + a2
        wx = np.full(I, 2 * s.x_bar / (I - 1))
        wz = np.full(K, 2 * s.b / (K - 1))
        wx[[0, -1]] /= 2
        wz[[0, -1]] /= 2
        area = float(wx @ rhs.reshape(I, 5, K)[:, 2, :] @ wz)
        assert area == pytest.approx(4 * s.b * a2, rel=1e-13, abs=1e-15)


def test_band_rhs_reflection_and_lambda_invariance():
    for a2 in BAND_WIDTHS:
        for I, K in ((33, 33), (17, 9), (5, 3)):
            _, rhs = band_rhs(I, K, a2, lam=1e-2)
            assert np.array_equal(rhs, rhs[::-1])  # (i,j,k) -> (-i,-j,-k)
            _, rhs3 = band_rhs(I, K, a2, lam=1e-3)
            assert np.array_equal(rhs, rhs3)
