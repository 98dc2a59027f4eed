import numpy as np
import pytest

from bepo.errors import InvalidSpec
from bepo.grid import GridSpec, build_grid


def test_small_symmetric_grid():
    g = build_grid(GridSpec(x_bar=1.0, y_bar=1.0, b=1.0, lam=1.0, I=3, J=3, K=3))
    for axis in (g.x, g.y, g.z):
        assert list(axis) == [-1.0, 0.0, 1.0]
    ci, cj, ck = g.center
    assert (ci, cj, ck) == (1, 1, 1)
    assert g.x[ci] == 0.0


def test_spacing_formula():
    spec = GridSpec(x_bar=3.5, lam=1e-3, I=5, J=5, K=5)
    assert spec.dx == pytest.approx(2 * 3.5e-3 / 4)


def test_paper_scale_spacing_implies_129_nodes():
    # dx of 5.47e-5 at lam*x_bar = 3.5e-3 corresponds to I - 1 = 128
    target_dx = 5.47e-5
    I = round(2 * 1e-3 * 3.5 / target_dx) + 1
    assert I == 129
    spec = GridSpec(x_bar=3.5, lam=1e-3, I=129, J=129, K=129)
    assert spec.dx == pytest.approx(target_dx, rel=5e-3)


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        GridSpec(I=4)
    with pytest.raises(InvalidSpec):
        GridSpec(J=1)
    with pytest.raises(InvalidSpec):
        GridSpec(lam=0.0)


def test_reflection_negates_coordinates_exactly():
    g = build_grid(GridSpec(x_bar=3.5, y_bar=2.5, b=1.0, lam=1e-3, I=9, J=7, K=5))
    for axis in (g.x, g.y, g.z):
        assert np.array_equal(axis[::-1], -axis)


def test_unscaled_coordinates():
    spec = GridSpec(x_bar=2.0, lam=1e-2, I=5, J=5, K=5)
    g = build_grid(spec)
    assert g.x[0] == pytest.approx(-2.0)
    assert g.x[-1] == pytest.approx(2.0)
    assert g.x[0] * spec.lam == pytest.approx(-2.0e-2)


def test_index_numbers_a_non_cubic_spec():
    spec = GridSpec(lam=0.1, I=5, J=7, K=3)
    nodes = spec.field(np.arange(spec.n_nodes))
    assert all(spec.index(i, j, k) == nodes[i, j, k] for i, j, k in np.ndindex(spec.shape))
    i, j, k = (a.ravel() for a in np.indices(spec.shape))
    assert (spec.index(i, j, k) == nodes.ravel()).all()
