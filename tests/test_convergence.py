import dataclasses

import numpy as np
import pytest

from bepo.convergence import (
    empirical_order,
    refine_nested,
    refinement_ladder,
    sup_diff_on_common,
)
from bepo.errors import DegenerateDifference, InvalidSpec, ShapeMismatch
from bepo.grid import GridSpec, build_grid


def test_refine_counts():
    spec = GridSpec(I=5, J=5, K=5, lam=0.1)
    assert refine_nested(spec, "x").I == 9
    assert refine_nested(spec, "y").J == 9
    assert refine_nested(spec, "z").K == 9
    with pytest.raises(InvalidSpec):
        refine_nested(spec, "w")


def test_refine_halves_spacing_exactly():
    spec = GridSpec(I=5, J=5, K=5, lam=0.1)
    fine = refine_nested(spec, "x")
    assert fine.dx == spec.dx / 2
    assert fine.dy == spec.dy and fine.dz == spec.dz


def test_nested_nodes_coincide_bitwise():
    spec = GridSpec(I=9, J=5, K=5, lam=1e-3, x_bar=3.5)
    fine = refine_nested(spec, "x")
    gc, gf = build_grid(spec), build_grid(fine)
    assert np.array_equal(gc.x, gf.x[::2])
    assert np.array_equal(gc.y, gf.y)


def test_ladder_levels():
    spec = GridSpec(I=5, J=5, K=5, lam=0.1)
    ladder = refinement_ladder(spec, "z", 3)
    assert [s.K for s in ladder.levels] == [5, 9, 17, 33]
    assert all(s.I == 5 and s.J == 5 for s in ladder.levels)


def test_sup_diff_on_common_nodes():
    spec = GridSpec(I=5, J=5, K=5, lam=0.1)
    fine = refine_nested(spec, "x")
    vc = np.zeros(spec.n_nodes)
    vf = np.zeros(fine.n_nodes)
    assert sup_diff_on_common(vc, vf, spec, fine) == 0.0
    # perturb one fine field value at a common node: coarse i0=2 -> fine i0=4
    vf3 = vf.reshape(9, 5, 5)
    vf3[4, 2, 2] = 0.01
    assert sup_diff_on_common(vc, vf3.ravel(), spec, fine) == pytest.approx(0.01)
    # perturbation at a fine-only node is invisible
    vf3[:] = 0.0
    vf3[3, 2, 2] = 123.0
    assert sup_diff_on_common(vc, vf3.ravel(), spec, fine) == 0.0


def test_sup_diff_symmetry_and_triangle():
    spec = GridSpec(I=5, J=5, K=5, lam=0.1)
    mid = refine_nested(spec, "y")
    fine = refine_nested(mid, "y")
    rng = np.random.default_rng(3)
    v0 = rng.normal(size=spec.n_nodes)
    v1 = rng.normal(size=mid.n_nodes)
    v2 = rng.normal(size=fine.n_nodes)
    d01 = sup_diff_on_common(v0, v1, spec, mid)
    d12 = sup_diff_on_common(v1, v2, mid, fine)
    # triangle across the ladder on the coarse common nodes
    v1_on_coarse = v1.reshape(5, 9, 5)[:, ::2, :].ravel()
    v2_on_coarse = v2.reshape(5, 17, 5)[:, ::4, :].ravel()
    lhs = np.abs(v0 - v2_on_coarse).max()
    assert lhs <= d01 + d12 + 1e-15


def test_sup_diff_interior_only_drops_neumann_sheets():
    spec = GridSpec(I=5, J=5, K=5, lam=0.1)
    fine = refine_nested(spec, "x")
    vc = np.zeros(spec.n_nodes)
    vf = np.zeros(fine.n_nodes)
    vc3 = vc.reshape(5, 5, 5)
    vc3[2, 0, 2] = 1.0  # j = 1 sheet
    assert sup_diff_on_common(vc3.ravel(), vf, spec, fine) == 1.0
    assert sup_diff_on_common(vc3.ravel(), vf, spec, fine, interior_only=True) == 0.0


def test_sup_diff_shape_mismatch():
    spec = GridSpec(I=5, J=5, K=5, lam=0.1)
    other = GridSpec(I=7, J=5, K=5, lam=0.1)
    with pytest.raises(ShapeMismatch):
        sup_diff_on_common(
            np.zeros(spec.n_nodes), np.zeros(other.n_nodes), spec, other
        )


@pytest.mark.parametrize(
    "change",
    [{"lam": 0.2}, {"x_bar": 7.0}, {"lam": 0.2, "x_bar": 7.0}, {"y_bar": 2.0}, {"b": 2.0}],
    ids=["lam", "x_bar", "lam-and-x_bar", "y_bar", "b"],
)
def test_sup_diff_rejects_nested_counts_on_another_grid(change):
    """Counts that nest are not enough: the nodes coincide only when lam and
    every half-width match too."""
    spec = GridSpec(I=5, J=5, K=5, lam=0.1)
    other = dataclasses.replace(refine_nested(spec, "x"), **change)
    with pytest.raises(ShapeMismatch):
        sup_diff_on_common(np.zeros(spec.n_nodes), np.ones(other.n_nodes), spec, other)


def test_empirical_order_values():
    eps = 1e-4
    assert empirical_order(4 * eps, eps) == 2.0
    assert empirical_order(2 * eps, eps) == 1.0
    # rounded table entries reproduce the tabulated order only approximately
    assert empirical_order(0.0160, 0.0048) == pytest.approx(1.7517, abs=0.02)


def test_empirical_order_scale_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d1, d2 = rng.uniform(0.01, 1.0, size=2)
        c = rng.uniform(0.1, 10.0)
        assert empirical_order(c * d1, c * d2) == pytest.approx(
            empirical_order(d1, d2), rel=1e-12
        )


def test_empirical_order_degenerate():
    with pytest.raises(DegenerateDifference):
        empirical_order(1.0, 0.0)
    with pytest.raises(DegenerateDifference):
        empirical_order(float("nan"), 1.0)
    with pytest.raises(DegenerateDifference):
        empirical_order(0.0, 1.0)
