"""Exception hierarchy shared across the library."""


class ResurgenceError(Exception):
    """Base class for all library errors."""


class DimensionError(ResurgenceError):
    """Ambient variable counts or vector lengths disagree."""


class DomainError(ResurgenceError):
    """Input outside the mathematical domain of the operation (zero ideal, unit ideal, ...)."""


class CapabilityError(ResurgenceError):
    """The request exceeds a configured bound or an unsupported representation."""


class FamilyRangeError(ResurgenceError):
    """A family member was requested outside the range the family defines."""


class HypothesisError(ResurgenceError):
    """A theorem hypothesis failed validation; carries the failed report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ResurgenceError):
    """Invalid job configuration; collects every schema error, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
