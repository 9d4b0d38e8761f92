"""Exception types shared across the package."""


class KelvinError(Exception):
    """Base class for all package-specific errors."""


class NonUniqueFixedPoint(KelvinError):
    """A cycle map has no unique steady state.

    Raised for both engines by the shared solve `_linalg.affine_fixed_points`.
    Carries the number of (numerical) unit eigenvalues of the map whose fixed
    point was sought, after its conserved first entry is eliminated, or 1
    when the hermitized fixed point fails its residual check, sum |T x - x|
    above FIXED_POINT_ATOL.
    """

    def __init__(self, eigenspace_dim: int, message: str | None = None):
        self.eigenspace_dim = eigenspace_dim
        super().__init__(message or f"unit eigenvalue degenerate (eigenspace dim {eigenspace_dim})")


class ResonantDenominator(KelvinError):
    """Closed-form expression hit a resonant denominator; use the exact engine."""


class DegenerateBand(KelvinError):
    """Band edges coincide (theta = 0 or pi/2 exactly); continuum formulas undefined."""


class UndefinedSteadyState(KelvinError):
    """All rates or overlaps vanish; the steady-state ratio is undefined."""


class NoConvergenceRate(KelvinError):
    """Requested cycle estimates with a non-positive convergence rate."""


class OptimizationFailed(KelvinError):
    """Every restart of the optimizer failed to produce a finite objective."""


class ConfigError(KelvinError):
    """Invalid experiment configuration."""
