"""Truncated 3D finite-difference grid: the one owner of the node layout.

The box is [-x_bar, x_bar] x [-y_bar, y_bar] x [-b, b], with b the plastic
bound. A `Grid` keeps the unscaled node coordinates x, y, z. The resolvent
equation is discretized in the scaled coordinates lam*(x, y, z), so the
spacings `GridSpec.dx`, `dy`, `dz` (d + axis name) are the scaled ones,
O(lam); `h` gives the unscaled spacing of an axis.

Node indices (i, j, k) are 0-based; node (i, j, k) is entry
`GridSpec.index(i, j, k)` = (i*J + j)*K + k of a field vector, k fastest,
and `GridSpec.field` views a field as an (I, J, K) array. Reversing that
order is the point reflection (i, j, k) -> (I-1-i, J-1-j, K-1-k): entry
n-1-p is the mirror of entry p. The 1-based indices of the outputs
(`solution.csv` and the tuples of `magnitude_violations`) add 1 where they
are written.

Nested refinement lives here too: `refine_nested` takes an axis's count to
2*count - 1, which halves its spacing and keeps every coarse node
bit-exactly on the fine mesh, and `sup_diff_on_common` compares two fields
on those common nodes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, ShapeMismatch

__all__ = ["GridSpec", "Grid", "build_grid", "refine_nested", "sup_diff_on_common"]

# axis -> (node count field, half-width field), in the order of a field's axes
_AXES = {"x": ("I", "x_bar"), "y": ("J", "y_bar"), "z": ("K", "b")}


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

    def h(self, axis: str) -> float:
        """Unscaled spacing of one axis ("x", "y" or "z"): 2*half/(count-1)."""
        count, half = (getattr(self, name) for name in _AXES[axis])
        return 2.0 * half / (count - 1)

    @property
    def n_nodes(self) -> int:
        return self.I * self.J * self.K

    @property
    def shape(self) -> tuple[int, int, int]:
        """(I, J, K), the shape of a field."""
        return (self.I, self.J, self.K)

    def field(self, v) -> np.ndarray:
        """v as an (I, J, K) array indexed by node; a view of a flat array."""
        return np.asarray(v).reshape(self.shape)

    def index(self, i, j, k):
        """Entry of node (i, j, k) in a field vector, for ints or arrays;
        linear, so index(di, dj, dk) is the offset of a stencil step."""
        return (i * self.J + j) * self.K + k


def _axis(count: int, spacing: float) -> np.ndarray:
    # (i - (count-1)/2)*spacing: same real values as -half + i*spacing
    # but with an exact 0.0 at the center and bit-exact negation symmetry,
    # which the reflection and nested-refinement invariants rely on.
    offsets = np.arange(count, dtype=np.float64) - (count - 1) // 2
    return offsets * spacing


@dataclass(frozen=True)
class Grid:
    """Immutable realized grid: spec plus unscaled coordinate axes."""

    spec: GridSpec
    x: np.ndarray  # unscaled x coordinates, length I
    y: np.ndarray  # length J
    z: np.ndarray  # length K

    @property
    def center(self) -> tuple[int, int, int]:
        """(i, j, k) of the origin node, where every statistic is read."""
        s = self.spec
        return ((s.I - 1) // 2, (s.J - 1) // 2, (s.K - 1) // 2)

    def dual_cells(self, axis: str) -> tuple[np.ndarray, np.ndarray]:
        """Unscaled bounds of each node's dual cell along one axis, clipped
        to the box.

        Integer offsets times the unscaled spacing, never the coordinates,
        so the bounds negate bit-exactly under reflection and do not depend
        on lam.
        """
        count = getattr(self.spec, _AXES[axis][0])
        n = (count - 1) // 2
        offsets = np.arange(count, dtype=np.float64) - n
        h = self.spec.h(axis)
        return np.maximum(offsets - 0.5, -n) * h, np.minimum(offsets + 0.5, n) * h


def build_grid(spec: GridSpec) -> Grid:
    """Realize the unscaled coordinate axes of a valid spec: each is the
    scaled axis, offsets times dx, dy or dz, divided by lam."""
    return Grid(
        spec=spec,
        x=_axis(spec.I, spec.dx) / spec.lam,
        y=_axis(spec.J, spec.dy) / spec.lam,
        z=_axis(spec.K, spec.dz) / spec.lam,
    )


def refine_nested(spec: GridSpec, axis: str) -> GridSpec:
    """Double the node count on one axis (count -> 2*count - 1)."""
    if axis not in _AXES:
        raise InvalidSpec(f"axis must be one of x, y, z; got {axis!r}")
    name = _AXES[axis][0]
    return dataclasses.replace(spec, **{name: 2 * getattr(spec, name) - 1})


def sup_diff_on_common(
    v_coarse,
    v_fine,
    spec_coarse: GridSpec,
    spec_fine: GridSpec,
    interior_only: bool = False,
):
    """max |v_coarse - v_fine| over the coarse nodes.

    spec_fine must be `refine_nested(spec_coarse, axis)` for one axis, the
    whole spec compared, so a pair whose lam or half-widths differ raises
    ShapeMismatch as well as one whose counts do not nest. Coarse node m on
    the refined axis coincides with fine node 2m, bit-exactly; no
    interpolation ever happens. Fields are flat vectors in the grid's linear
    ordering. interior_only drops the Neumann sheets (j = 0 and j = J-1)
    from the comparison.
    """
    refined = [spec_fine == refine_nested(spec_coarse, axis) for axis in _AXES]
    if not any(refined):
        raise ShapeMismatch(
            f"specs are not one nested refinement apart: {spec_coarse} vs {spec_fine}"
        )
    common = tuple(slice(None, None, 2) if hit else slice(None) for hit in refined)
    diff = np.abs(spec_coarse.field(v_coarse) - spec_fine.field(v_fine)[common])
    if interior_only:
        diff = diff[:, 1:-1, :]
    return float(diff.max())
