"""Scaled, truncated 3D finite-difference grid and node classification.

The working coordinates are the scaled ones, (xt, yt, zt) = lam*(x, y, z),
so the box is [-lam*x_bar, lam*x_bar] x [-lam*y_bar, lam*y_bar] x
[-lam*b, lam*b] and all spacings are O(lam). Unscaled coordinates are
recovered by dividing by lam.

Node indices (i, j, k) are 1-based, matching the linear index map
l(i,j,k) = k + (j-1)*K + (i-1)*J*K; storage offsets are 0-based and hidden
behind the index helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSpec, OutOfRange

__all__ = [
    "GridSpec",
    "Grid",
    "NodeClass",
    "build_grid",
    "index_of",
    "invert_index",
    "classify_node",
]


class NodeClass(Enum):
    """The eight label subsets partitioning the grid.

    NEUMANN_Y owns every node with j in {1, J} regardless of i, k; the other
    classes partition the equation rows 2 <= j <= J-1.
    """

    INTERIOR = "interior"
    FACE_Z_MINUS = "face_z_minus"
    FACE_Z_PLUS = "face_z_plus"
    FACE_X_MINUS = "face_x_minus"
    FACE_X_PLUS = "face_x_plus"
    EDGE_X_MINUS = "edge_x_minus"
    EDGE_X_PLUS = "edge_x_plus"
    NEUMANN_Y = "neumann_y"


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


def index_of(i: int, j: int, k: int, J: int, K: int, I: int | None = None) -> int:
    """1-based linear index k + (j-1)*K + (i-1)*J*K.

    Bijective from {1..I} x {1..J} x {1..K} onto [1, I*J*K]. When I is given,
    i is range-checked as well.
    """
    if I is not None and not 1 <= i <= I:
        raise OutOfRange(f"i={i} outside [1, {I}]")
    if i < 1 or not 1 <= j <= J or not 1 <= k <= K:
        raise OutOfRange(f"(i,j,k)=({i},{j},{k}) outside the grid")
    return k + (j - 1) * K + (i - 1) * J * K


def invert_index(l: int, J: int, K: int) -> tuple[int, int, int]:
    """Inverse of index_of: 1-based (i, j, k) from the linear index."""
    if l < 1:
        raise OutOfRange(f"linear index {l} < 1")
    l0 = l - 1
    k = l0 % K
    j = (l0 // K) % J
    i = l0 // (J * K)
    return (i + 1, j + 1, k + 1)


def classify_node(i: int, j: int, k: int, I: int, J: int, K: int) -> NodeClass:
    """Assign the unique label subset of a node.

    The j in {1, J} sheets are claimed first (Neumann rows); the remaining
    classes split on the i and k faces.
    """
    if not (1 <= i <= I and 1 <= j <= J and 1 <= k <= K):
        raise OutOfRange(f"(i,j,k)=({i},{j},{k}) outside [1,{I}]x[1,{J}]x[1,{K}]")
    if j == 1 or j == J:
        return NodeClass.NEUMANN_Y
    if i == 1:
        return NodeClass.EDGE_X_MINUS if k in (1, K) else NodeClass.FACE_X_MINUS
    if i == I:
        return NodeClass.EDGE_X_PLUS if k in (1, K) else NodeClass.FACE_X_PLUS
    if k == 1:
        return NodeClass.FACE_Z_MINUS
    if k == K:
        return NodeClass.FACE_Z_PLUS
    return NodeClass.INTERIOR
