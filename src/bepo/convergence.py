"""Empirical order-of-convergence studies on nested mesh ladders.

One axis is refined at a time through count -> 2*count - 1, which halves the
spacing while keeping every coarse node bit-exactly on the fine mesh, so
sup-norm differences between consecutive levels need no interpolation. The
order estimate between consecutive difference pairs is

    p = log2(d_coarse / d_fine).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDifference, InvalidSpec, ShapeMismatch
from .grid import GridSpec

__all__ = [
    "refine_nested",
    "refinement_ladder",
    "sup_diff_on_common",
    "empirical_order",
    "RefinementLadder",
]

_AXIS_FIELD = {"x": "I", "y": "J", "z": "K"}


def refine_nested(spec: GridSpec, axis: str) -> GridSpec:
    """Double the node count on one axis (count -> 2*count - 1)."""
    if axis not in _AXIS_FIELD:
        raise InvalidSpec(f"axis must be one of x, y, z; got {axis!r}")
    name = _AXIS_FIELD[axis]
    return dataclasses.replace(spec, **{name: 2 * getattr(spec, name) - 1})


@dataclass(frozen=True)
class RefinementLadder:
    """The base spec and its refinements along one axis, coarse to fine."""

    levels: tuple[GridSpec, ...]


def refinement_ladder(spec: GridSpec, axis: str, n_refinements: int) -> RefinementLadder:
    """Build base + n_refinements nested levels along one axis."""
    levels = [spec]
    for _ in range(n_refinements):
        levels.append(refine_nested(levels[-1], axis))
    return RefinementLadder(levels=tuple(levels))


def _refined_axis(coarse: GridSpec, fine: GridSpec) -> str:
    hits = [
        ax
        for ax, name in _AXIS_FIELD.items()
        if getattr(fine, name) == 2 * getattr(coarse, name) - 1
        and all(
            getattr(fine, other) == getattr(coarse, other)
            for other in _AXIS_FIELD.values()
            if other != name
        )
    ]
    if len(hits) != 1:
        raise ShapeMismatch(
            f"specs are not one nested refinement apart: {coarse} vs {fine}"
        )
    return hits[0]


def sup_diff_on_common(
    v_coarse,
    v_fine,
    spec_coarse: GridSpec,
    spec_fine: GridSpec,
    interior_only: bool = False,
):
    """max |v_coarse - v_fine| over the coarse nodes.

    Coarse node m on the refined axis coincides with fine node 2m,
    bit-exactly; no interpolation ever happens. Fields are flat vectors in
    the grid's linear ordering. interior_only drops the Neumann sheets
    (j = 0 and j = J-1) from the comparison.
    """
    axis = _refined_axis(spec_coarse, spec_fine)
    vc = spec_coarse.field(v_coarse)
    vf = spec_fine.field(v_fine)
    sl = [slice(None)] * 3
    sl["xyz".index(axis)] = slice(None, None, 2)
    diff = np.abs(vc - vf[tuple(sl)])
    if interior_only:
        diff = diff[:, 1:-1, :]
    return float(diff.max())


def empirical_order(d1: float, d2: float) -> float:
    """log2(d1/d2): observed order from two consecutive-level differences."""
    if not (math.isfinite(d1) and math.isfinite(d2)) or d2 <= 0:
        raise DegenerateDifference(f"cannot form log2({d1}/{d2})")
    return math.log2(d1 / d2)
