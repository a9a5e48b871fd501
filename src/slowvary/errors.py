"""Exception hierarchy shared across the package.

Two branches matter to callers.  ``FamilyValidationError`` collects
everything that means the *input* system fails the structural requirements
(spectral split, gap, well-posed coefficients); the command line maps these
to exit code 2.  ``NumericalCheckError`` collects failures of a numerical
consistency check on an otherwise valid input; the command line maps these
to exit code 3.
"""


class SlowVaryError(Exception):
    """Base class for all package-specific errors."""


class FamilyValidationError(SlowVaryError):
    """An operator family or model input violates a structural requirement."""


class NumericalCheckError(SlowVaryError):
    """A numerical consistency check failed beyond its tolerance."""


class ConfigError(SlowVaryError):
    """A command-line option or model file is invalid (exit code 2)."""


class MissingBaseOperator(FamilyValidationError):
    """The order-zero operator is absent from the family."""


class NoCentreMode(FamilyValidationError):
    """No eigenvalue of the base operator lies in the centre band."""


class UnstableMode(FamilyValidationError):
    """An eigenvalue outside the centre band has positive real part."""


class GapViolation(FamilyValidationError):
    """The stable decay rate does not clear the required spectral gap."""


class DefectiveNormalisation(FamilyValidationError):
    """Left and right centre bases cannot be binormalised."""


class NonPositiveDiffusivity(FamilyValidationError):
    """A diffusivity sample is zero or negative."""


class GridTooCoarse(FamilyValidationError):
    """The cell grid is too small or oddly sized for the flux stencil."""


class UnsupportedSplit(FamilyValidationError, ValueError):
    """The base operator is outside what the exact or sparse split handles."""


class SylvesterInconsistent(NumericalCheckError):
    """A constrained Sylvester solve produced residuals above tolerance."""


class StabilityViolation(NumericalCheckError):
    """A time integration grew beyond the allowed amplification."""


class InsufficientDecay(NumericalCheckError):
    """Too little transient decay to fit a rate."""
