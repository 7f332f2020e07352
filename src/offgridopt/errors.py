"""Exception types shared across the package."""


class InputDataError(ValueError):
    """Base class for problems with user-supplied data or parameters."""


class SchemaError(InputDataError):
    """A file does not match its documented column schema."""


class ParseError(InputDataError):
    """A file row could not be parsed; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InfeasibleBaselineError(InputDataError):
    """The generator-only baseline cannot normalize the objectives: its
    generator cannot cover the peak load on its own, or its cost of energy
    or its emissions are not positive."""


class ConfigError(ValueError):
    """Run configuration is malformed or violates an invariant."""
