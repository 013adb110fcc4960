"""Exception types shared across the package."""


class QueppError(Exception):
    """Base class for errors raised by this package."""


class ParseError(QueppError):
    """Raised when circuit text cannot be parsed; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CapabilityError(QueppError):
    """The requested execution exceeds what the backend can simulate."""


class ConsistencyError(QueppError):
    """Inputs that must describe the same ensemble do not agree."""


class DegenerateEtaError(QueppError):
    """A rescaling-factor estimator hit a degenerate denominator."""


class EnumerationLimitError(QueppError):
    """A path budget ran out: exhaustive enumeration would exceed its size
    limit, the sampler spent its attempts before its unique-path target, or
    a truncation policy or sampler budget kept no executable path."""


class ConfigError(QueppError):
    """A run configuration file is malformed or self-contradictory."""
