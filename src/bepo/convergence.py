"""Empirical order-of-convergence studies on nested mesh ladders.

One axis is refined at a time by `refine_nested` (count -> 2*count - 1),
and consecutive levels are compared on their common nodes by
`sup_diff_on_common`; both live in grid.py, which owns the node layout, and
are re-exported here. The order estimate between consecutive difference
pairs is

    p = log2(d_coarse / d_fine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateDifference
from .grid import GridSpec, refine_nested, sup_diff_on_common

__all__ = [
    "refine_nested",
    "refinement_ladder",
    "sup_diff_on_common",
    "empirical_order",
    "RefinementLadder",
]


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


def empirical_order(d1: float, d2: float) -> float:
    """log2(d1/d2): observed order from two consecutive-level differences."""
    if not (0 < d1 < math.inf and 0 < d2 < math.inf):
        raise DegenerateDifference(f"cannot form log2({d1}/{d2})")
    return math.log2(d1 / d2)
