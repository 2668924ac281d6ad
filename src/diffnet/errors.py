"""Exception types shared across the package."""


class DiffnetError(Exception):
    """Base class for package-specific errors."""


class NumericError(DiffnetError):
    """A dense linear-algebra routine failed on otherwise valid input."""


class ModelValidationError(DiffnetError):
    """A subsystem model violated its structural invariants."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid subsystem model: " + "; ".join(self.violations))


class ProblemFileError(DiffnetError):
    """A problem file failed to parse or validate."""
