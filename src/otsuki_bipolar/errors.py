"""Exception types shared across the package, and the one range check."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def in_interval(x, name: str, lo: float, hi: float, *,
                lo_closed: bool = False, hi_closed: bool = False) -> float:
    """``float(x)`` if it lies between ``lo`` and ``hi``, else DomainError.

    Each end is open unless its flag closes it; nan and inf never pass.
    """
    x = float(x)
    above = x >= lo if lo_closed else x > lo
    below = x <= hi if hi_closed else x < hi
    if not (math.isfinite(x) and above and below):
        raise DomainError(
            f"{name} must lie in {'[' if lo_closed else '('}{lo:.15g},"
            f" {hi:.15g}{']' if hi_closed else ')'}, got {x!r}")
    return x


class NumericalFailure(RuntimeError):
    """A numerical stage could not deliver a trustworthy result."""


class NoRoot(NumericalFailure):
    """The closed-geodesic equation has no root in the admissible bracket."""


class ResolutionTooCoarse(NumericalFailure):
    """A geodesic chart's Fourier series does not resolve its rates, or
    the charts do not close the geodesic to the profile's tolerance."""


class IntegrationFailure(NumericalFailure):
    """An adaptive quadrature of the period functions (omega and the two
    half-periods) reached its panel limit with its error estimate still
    above tolerance."""


class ConvergenceFailure(NumericalFailure):
    """An iteration did not converge: an eigensolver, a radial solve's
    mode ladder, or a chart's Newton inversion (``_HalfChart.x_of``)."""


class DegenerateGrid(NumericalFailure):
    """A Sturm-Liouville coefficient evaluated non-positive on the grid."""


class ZeroFunction(ValueError):
    """A Rayleigh quotient was requested for the zero function."""


class SubperiodViolation(NumericalFailure):
    """Coefficients lack the sub-period claimed for eigenfunction tagging."""


class InsufficientLMax(NumericalFailure):
    """Raised by nothing: the radial eigenvalues at l are at least l^2, so
    the cutoff alone sets the angular indices.  Kept for callers that
    catch it."""


class VerificationFailed(RuntimeError):
    """A named certificate of the counting verification was violated.

    Carries the full report so callers can still inspect every certificate.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
