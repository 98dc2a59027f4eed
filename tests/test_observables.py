import math

import numpy as np
import pytest

from bepo.errors import InvalidWidth, NegativeBand
from bepo.observables import (
    check_resolution,
    constant_observable,
    mollified_crossing_speed,
    plastic_band,
)


def test_crossing_speed_vanishes_on_zero_velocity():
    g = mollified_crossing_speed(0.3, 0.1)
    assert g(0.3, 0.0, 1.0) == 0.0
    assert g(-5.0, 0.0, 0.0) == 0.0


def test_crossing_speed_peak_value():
    # eps0 = 1/sqrt(2*pi) makes the Gaussian peak exactly 1
    eps0 = (2 * math.pi) ** -0.5
    g = mollified_crossing_speed(1.0, eps0)
    assert g(1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_crossing_speed_far_tail_underflows():
    g = mollified_crossing_speed(0.0, 0.05)
    val = g(10 * 0.05, 1.0, 0.0)
    assert val <= 1.0000001 * math.exp(-50) / (math.sqrt(2 * math.pi) * 0.05)
    assert val < 1e-20


def test_crossing_speed_integrates_to_abs_y():
    # quadrature oracle: integral over x of the mollifier at fixed y is |y|
    eps0 = 0.01
    g = mollified_crossing_speed(0.2, eps0)
    x = np.linspace(-3, 3, 200001)
    for y in (1.0, -2.5, 0.3):
        integral = np.trapezoid(g(x, y, 0.0), x)
        assert integral == pytest.approx(abs(y), rel=1e-6)


def test_crossing_speed_even_reflection_at_zero_level():
    g = mollified_crossing_speed(0.0, 0.2)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(100, 3))
    assert np.array_equal(
        g(-pts[:, 0], -pts[:, 1], -pts[:, 2]), g(pts[:, 0], pts[:, 1], pts[:, 2])
    )


def test_invalid_width():
    with pytest.raises(InvalidWidth):
        mollified_crossing_speed(0.0, 0.0)


def test_band_closed_boundary():
    g = plastic_band(0.5)
    assert g(1.0, 0.0, 1.0) == 1.0  # |x-z| = 0
    assert g(1.5, 0.0, 1.0) == 1.0  # |x-z| = a2 exactly, closed band
    assert g(1.5 + 1e-12, 0.0, 1.0) == 0.0


def test_band_zero_radius():
    g = plastic_band(0.0)
    assert g(0.7, 3.0, 0.7) == 1.0


def test_band_negative_radius():
    with pytest.raises(NegativeBand):
        plastic_band(-0.1)


def test_band_monotone_in_radius():
    rng = np.random.default_rng(9)
    x, y, z = rng.normal(size=(3, 300))
    lo, hi = plastic_band(0.4), plastic_band(1.1)
    assert (lo(x, y, z) <= hi(x, y, z)).all()


def test_band_even_reflection():
    g = plastic_band(0.8)
    rng = np.random.default_rng(13)
    x, y, z = rng.normal(size=(3, 200))
    assert np.array_equal(g(-x, -y, -z), g(x, y, z))


def test_sup_norms():
    assert plastic_band(1.0).sup_norm(3.5, 3.5, 1.0) == 1.0
    assert constant_observable(-2.5).sup_norm(3.5, 3.5, 1.0) == 2.5
    g = mollified_crossing_speed(0.0, 0.1)
    expected = 3.5 / (math.sqrt(2 * math.pi) * 0.1)
    assert g.sup_norm(3.5, 3.5, 1.0) == pytest.approx(expected)
    # level outside the box: peak at the nearest edge
    far = mollified_crossing_speed(10.0, 0.1)
    assert far.sup_norm(3.5, 3.5, 1.0) < 1e-300


def test_resolution_warning():
    with pytest.warns(UserWarning):
        assert not check_resolution(0.05, 0.1)
    assert check_resolution(0.5, 0.1)
