"""Oscillator parameters, drift, and the quadratic energy (Lyapunov) machinery.

The restoring force of the bilinear oscillator is k(1-alpha)*z + k*alpha*x,
a linear combination of the elastic deformation z and the total displacement
x. All remaining deterministic forcing is an affine function of (x, y),

    f(x, y) = -c0*y + c1*x + const,

which is the family needed to extract explicit energy-inequality constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import AssumptionViolation

__all__ = [
    "ForceSpec",
    "ModelParams",
    "LyapunovReport",
    "drift_beta",
    "lyapunov_value",
    "lyapunov_constants",
]


@dataclass(frozen=True)
class ForceSpec:
    """Affine non-elastoplastic force f(x, y) = -c0*y + c1*x + const.

    c0 > 0 is required whenever the energy-bound route is used; the default
    (c0=1, c1=0, const=0) is the damping force f = -y.
    """

    c0: float = 1.0
    c1: float = 0.0
    const: float = 0.0

    def __post_init__(self):
        for name in ("c0", "c1", "const"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"force {name} must be finite, got {value}")

    def __call__(self, x, y):
        return -self.c0 * y + self.c1 * x + self.const


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the oscillator.

    k      : stiffness (> 0)
    alpha  : bilinearity ratio in [0, 1]; alpha = 0 is the perfectly-plastic
             limit (documented, not rejected)
    b      : elasto-plastic bound on the elastic deformation (> 0)
    sigma  : white-noise intensity (>= 0; 0 gives the deterministic system,
             used by diagnostics and tests)
    force  : affine ForceSpec
    """

    k: float = 1.0
    alpha: float = 0.5
    b: float = 1.0
    sigma: float = 1.0
    force: ForceSpec = field(default_factory=ForceSpec)

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise ValueError(f"k must be finite and > 0, got {self.k}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0 < self.b < math.inf:
            raise ValueError(f"b must be finite and > 0, got {self.b}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


def drift_beta(x, y, z, p: ModelParams):
    """Velocity drift f(x, y) - k*(1-alpha)*z - k*alpha*x.

    Total function: z is not clamped here, so grid faces at z = +/-b (and
    any off-manifold z) evaluate the same formula. Accepts scalars or numpy
    arrays.
    """
    return p.force(x, y) - p.k * (1.0 - p.alpha) * z - p.k * p.alpha * x


@dataclass(frozen=True)
class LyapunovReport:
    """Quadratic energy form V(x, y) = vxx*x^2 + y^2 + vxy*x*y and the
    constants of its expectation bound E[V(t)] <= V(0) + bound."""

    vxx: float
    vxy: float
    C: float
    C1: float

    @property
    def bound(self) -> float:
        return self.C / self.C1

    def __post_init__(self):
        # positive definiteness of V: vxx > vxy^2 / 4 (y^2 coefficient is 1)
        if not self.vxx > 0.25 * self.vxy**2:
            raise AssumptionViolation(
                f"energy form not positive definite: vxx={self.vxx}, vxy={self.vxy}"
            )


def lyapunov_value(x, y, r: LyapunovReport):
    """Evaluate the quadratic energy form V(x, y). Vectorized."""
    return r.vxx * x * x + y * y + r.vxy * x * y


def _inequality_constants(p: ModelParams):
    """Tightest (c0, c1, c2, d0, d1, d2) for the affine force family.

    For const = 0 these are exact: y*f = -c0*y^2 + c1*x*y and
    x*f = -c0*x*y + c1*x^2. A nonzero constant term is absorbed by
    completed squares, which costs half of c0 and half of the (k*alpha - c1)
    slack in d1.
    """
    f = p.force
    ka = p.k * p.alpha
    if f.c0 <= 0:
        raise AssumptionViolation(f"force needs c0 > 0, got c0={f.c0}")
    if f.c1 > ka:
        raise AssumptionViolation(f"force slope c1={f.c1} exceeds k*alpha={ka}")
    if f.const == 0.0:
        c0, c1, c2 = f.c0, f.c1, 0.0
        d0, d1, d2 = f.c0, f.c1, 0.0
    else:
        if f.c1 >= ka:
            raise AssumptionViolation(
                "nonzero constant force term needs c1 < k*alpha strictly"
            )
        c0 = 0.5 * f.c0
        c1 = f.c1
        c2 = f.const**2 / (2.0 * f.c0)
        eps = 0.5 * (ka - f.c1)
        d0 = f.c0
        d1 = f.c1 + eps
        d2 = f.const**2 / (4.0 * eps)
    if d1 >= ka:
        raise AssumptionViolation(f"induced d1={d1} must stay below k*alpha={ka}")
    return c0, c1, c2, d0, d1, d2


def lyapunov_constants(p: ModelParams) -> LyapunovReport:
    """Energy-bound constants for the oscillator.

    Raises AssumptionViolation when the force coefficients leave the regime
    where the constants are defined and positive (c0 <= 0, c1 > k*alpha, or
    induced d1 >= k*alpha).
    """
    c0, c1, c2, d0, d1, d2 = _inequality_constants(p)
    ka = p.k * p.alpha
    plastic = (p.k * p.b * (1.0 - p.alpha)) ** 2
    C = p.sigma**2 + 2.0 * c2 + c0 * d2 + plastic * (2.0 / c0 + c0 / (2.0 * (ka - d1)))
    C1 = min(c0 / 3.0, c0 * (ka - d1) / (2.0 * ka + c0 * d0 + c0**2 - 2.0 * c1))
    return LyapunovReport(vxx=ka + 0.5 * c0 * d0 - c1, vxy=c0, C=C, C1=C1)
