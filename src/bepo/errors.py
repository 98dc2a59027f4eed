"""Exception types shared across the package."""


class BepoError(Exception):
    """Base class for all package-specific errors."""


class AssumptionViolation(BepoError):
    """Force coefficients violate the energy-inequality assumptions."""


class NonFiniteState(BepoError):
    """A simulated state or a solver right-hand side became NaN or infinite."""


class DegenerateInput(BepoError):
    """Estimator input too small to be meaningful (empty or single sample)."""


class NegativeBand(BepoError):
    """Band radius a2 must be nonnegative."""


class InvalidWidth(BepoError):
    """Mollifier width eps0 must be positive."""


class InvalidSpec(BepoError):
    """Grid specification violates its invariants."""


class NoConvergence(BepoError):
    """Krylov iteration exhausted max_iters above the residual target."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )


class PreconditionerBreakdown(BepoError):
    """A line factor of the preconditioner met a zero or non-finite pivot."""


class ShapeMismatch(BepoError):
    """Fields being compared do not come from nested grids one level apart."""


class DegenerateDifference(BepoError):
    """Order estimate undefined: zero or non-finite mesh difference."""


class ParseError(BepoError):
    """Malformed configuration document."""


class ValidationError(BepoError):
    """Configuration value violates a documented invariant."""
