"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoRoot(RuntimeError):
    """The closed-geodesic equation has no root in the admissible bracket."""


class ResolutionTooCoarse(RuntimeError):
    """A geodesic chart's Fourier series does not resolve its rates, or
    the charts do not close the geodesic to the profile's tolerance."""


class IntegrationFailure(RuntimeError):
    """An ODE step controller could not meet the requested tolerance."""


class ConvergenceFailure(RuntimeError):
    """An iterative eigensolver did not converge."""


class DegenerateGrid(RuntimeError):
    """A Sturm-Liouville coefficient evaluated non-positive on the grid."""


class ZeroFunction(ValueError):
    """A Rayleigh quotient was requested for the zero function."""


class SubperiodViolation(RuntimeError):
    """Coefficients lack the sub-period claimed for eigenfunction tagging."""


class InsufficientLMax(RuntimeError):
    """The angular cutoff is too small: modes below the threshold may be missing."""


class VerificationFailed(RuntimeError):
    """A named certificate of the counting verification was violated.

    Carries the full report so callers can still inspect every certificate.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
