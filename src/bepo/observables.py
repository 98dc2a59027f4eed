"""Scalar fields g(x, y, z) consumed by both the PDE and Monte Carlo routes.

All evaluation happens in unscaled coordinates and is vectorized over numpy
arrays. Each built-in kind carries a finite sup-norm bound over a given box,
needed by the solver's magnitude diagnostic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidWidth, NegativeBand

__all__ = [
    "Observable",
    "mollified_crossing_speed",
    "plastic_band",
    "constant_observable",
    "check_resolution",
]


@dataclass(frozen=True)
class Observable:
    """A scalar field with metadata.

    kind   : "crossing", "band" or "constant"
    fn     : vectorized g(x, y, z) -> array
    params : the defining constants (a1/eps0, a2, or c)
    """

    kind: str
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    params: dict

    def __call__(self, x, y, z):
        return self.fn(x, y, z)

    def sup_norm(self, x_bar: float, y_bar: float, b: float) -> float:
        """sup |g| over the box [-x_bar,x_bar] x [-y_bar,y_bar] x [-b,b]."""
        if self.kind == "crossing":
            a1, eps0 = self.params["a1"], self.params["eps0"]
            # |y| <= y_bar; the Gaussian peaks at x = a1 if inside the box,
            # else at the nearest box edge
            xstar = min(max(a1, -x_bar), x_bar)
            peak = math.exp(-((xstar - a1) ** 2) / (2.0 * eps0**2))
            return y_bar * peak / (math.sqrt(2.0 * math.pi) * eps0)
        if self.kind == "band":
            return 1.0
        return abs(self.params["c"])


def mollified_crossing_speed(a1: float, eps0: float) -> Observable:
    """|y| times a Gaussian approximation of the Dirac delta at x = a1.

    g(x, y, z) = |y| * exp(-(x-a1)^2/(2*eps0^2)) / (sqrt(2*pi)*eps0);
    independent of z, nonnegative, and vanishing on the y = 0 plane.
    eps0 is a width in unscaled displacement units and must be positive.
    """
    if not eps0 > 0:
        raise InvalidWidth(f"eps0 must be > 0, got {eps0}")
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * eps0)
    inv2e2 = 1.0 / (2.0 * eps0 * eps0)

    def fn(x, y, z):
        d = np.asarray(x) - a1
        return np.abs(y) * norm * np.exp(-(d * d) * inv2e2)

    return Observable(kind="crossing", fn=fn, params={"a1": a1, "eps0": eps0})


def plastic_band(a2: float) -> Observable:
    """Closed-band indicator 1{|x - z| <= a2}; independent of y.

    fn is the closed pointwise indicator, the quantity the Monte Carlo
    estimators count along paths. The PDE right-hand side does not sample
    it at the nodes: assemble_rhs integrates it exactly over each node's
    dual cell, so a2 = 0 (a band of zero area) gives a zero right-hand side.
    """
    if not a2 >= 0:
        raise NegativeBand(f"a2 must be >= 0, got {a2}")

    def fn(x, y, z):
        return (np.abs(np.asarray(x) - z) <= a2).astype(np.float64)

    return Observable(kind="band", fn=fn, params={"a2": a2})


def constant_observable(c: float) -> Observable:
    """g identically equal to c."""

    def fn(x, y, z):
        return np.full(np.broadcast(x, y, z).shape, float(c))

    return Observable(kind="constant", fn=fn, params={"c": c})


def check_resolution(eps0: float, dx_unscaled: float) -> bool:
    """Warn when the mollifier is narrower than two grid cells.

    Returns True when adequately resolved.
    """
    if eps0 < 2.0 * dx_unscaled:
        warnings.warn(
            f"mollifier width eps0={eps0:.4g} below two grid cells "
            f"(2*dx={2.0 * dx_unscaled:.4g}); the Gaussian is under-resolved"
        )
        return False
    return True
