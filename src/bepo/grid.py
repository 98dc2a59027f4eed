"""Scaled, truncated 3D finite-difference grid.

The working coordinates are the scaled ones, (xt, yt, zt) = lam*(x, y, z),
so the box is [-lam*x_bar, lam*x_bar] x [-lam*y_bar, lam*y_bar] x
[-lam*b, lam*b] and all spacings are O(lam). Unscaled coordinates are
recovered by dividing by lam.

Node indices (i, j, k) are 1-based; node (i, j, k) is entry
(k-1) + (j-1)*K + (i-1)*J*K of a field vector, k fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec

__all__ = ["GridSpec", "Grid", "build_grid"]


@dataclass(frozen=True)
class GridSpec:
    """Truncation half-widths, resolvent parameter, and node counts.

    I, J, K must be odd and > 1 so the origin is a node of every axis.
    """

    x_bar: float = 3.5
    y_bar: float = 3.5
    b: float = 1.0
    lam: float = 1e-3
    I: int = 33
    J: int = 33
    K: int = 33

    def __post_init__(self):
        for name, n in (("I", self.I), ("J", self.J), ("K", self.K)):
            if n <= 1 or n % 2 == 0:
                raise InvalidSpec(f"{name} must be an odd integer > 1, got {n}")
        for name in ("lam", "x_bar", "y_bar", "b"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InvalidSpec(f"{name} must be finite and > 0, got {value}")

    @property
    def dx(self) -> float:
        """Scaled spacing 2*lam*x_bar/(I-1)."""
        return 2.0 * self.lam * self.x_bar / (self.I - 1)

    @property
    def dy(self) -> float:
        return 2.0 * self.lam * self.y_bar / (self.J - 1)

    @property
    def dz(self) -> float:
        return 2.0 * self.lam * self.b / (self.K - 1)

    @property
    def n_nodes(self) -> int:
        return self.I * self.J * self.K


def _axis(count: int, spacing: float) -> np.ndarray:
    # (i - 1 - (count-1)/2)*spacing: same real values as -half + (i-1)*spacing
    # but with an exact 0.0 at the center and bit-exact negation symmetry,
    # which the reflection and nested-refinement invariants rely on.
    offsets = np.arange(count, dtype=np.float64) - (count - 1) // 2
    return offsets * spacing


@dataclass(frozen=True)
class Grid:
    """Immutable realized grid: spec plus scaled coordinate axes."""

    spec: GridSpec
    xt: np.ndarray  # scaled x coordinates, length I
    yt: np.ndarray  # length J
    zt: np.ndarray  # length K

    @property
    def x(self) -> np.ndarray:
        """Unscaled x coordinates xt/lam."""
        return self.xt / self.spec.lam

    @property
    def y(self) -> np.ndarray:
        return self.yt / self.spec.lam

    @property
    def z(self) -> np.ndarray:
        return self.zt / self.spec.lam

    @property
    def center(self) -> tuple[int, int, int]:
        """1-based indices of the origin node."""
        s = self.spec
        return ((s.I + 1) // 2, (s.J + 1) // 2, (s.K + 1) // 2)


def build_grid(spec: GridSpec) -> Grid:
    """Realize coordinate axes for a valid spec."""
    return Grid(
        spec=spec,
        xt=_axis(spec.I, spec.dx),
        yt=_axis(spec.J, spec.dy),
        zt=_axis(spec.K, spec.dz),
    )

