"""Exception hierarchy shared across the library."""


class AnchorlabError(Exception):
    """Base class for all library-specific errors."""


class DomainError(AnchorlabError, ValueError):
    """An argument lies outside the mathematically valid domain."""


class NotPositiveDefinite(AnchorlabError):
    """A matrix required to be positive definite failed the pivot check."""


class SingularDesign(AnchorlabError):
    """The (transformed) design matrix is singular.

    Adding a small ridge or reducing the number of predictors usually fixes
    this; for n < d use the l1-penalized solver instead.
    """


class Underidentified(AnchorlabError):
    """The anchor-projected design does not pin down a unique coefficient."""


class DimensionMismatch(AnchorlabError, ValueError):
    """Shapes of the supplied arrays are incompatible."""


class EmptyInput(AnchorlabError, ValueError):
    """An input that must be nonempty was empty."""


class ParseError(AnchorlabError):
    """A CSV cell could not be parsed; carries row/column location."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class MissingColumn(AnchorlabError, KeyError):
    """A column named in the config is absent from the file."""


class NonNumericPredictor(ParseError):
    """A predictor column contains a non-numeric entry."""


class EmptyLevel(AnchorlabError, ValueError):
    """A discrete anchor level contains no observations."""


class InvalidConfig(AnchorlabError, ValueError):
    """A run configuration is internally inconsistent."""


class CyclicGraph(AnchorlabError):
    """Operation requires an acyclic graph but the model contains a cycle."""


class AssumptionViolated(AnchorlabError):
    """A precondition of a model-level check does not hold."""

    def __init__(self, message, which=None):
        super().__init__(message)
        self.which = which


class ProjectabilityViolated(AnchorlabError):
    """The projectability rank condition fails for the given model."""


class InsufficientLevels(AnchorlabError, ValueError):
    """Too few anchor levels for level-grouped cross-validation."""
