"""Exception types shared across the library."""


class BipersError(Exception):
    """Base class for all library errors."""


class NonPrimeModulus(BipersError):
    """The coefficient field modulus is not a prime number."""


class IllegalEntry(BipersError):
    """A presentation carries a nonzero coefficient with no legal monomial."""


class BoxTooSmall(BipersError):
    """The requested grid box does not cover all presentation degrees."""


class UnknownName(BipersError):
    """No gallery module is registered under the requested name."""


class InvalidSpec(BipersError, ValueError):
    """A random-generation spec names an unknown mode or a bound below 1."""


class ThresholdExceeded(BipersError):
    """The brute-force decomposition oracle refused an oversized instance."""


class InvariantViolation(BipersError):
    """An internal consistency check failed; this indicates a bug."""


class BpmSyntaxError(BipersError):
    """Malformed module file; carries 1-based line and column positions."""

    def __init__(self, message, line, column=1):
        # All constructor arguments go to `args`, so pickling (e.g. across
        # corpus worker processes) rebuilds the error with its position.
        super().__init__(message, line, column)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self):
        return f"line {self.line}, column {self.column}: {self.message}"


class UnknownGenerator(BpmSyntaxError):
    """A relation references a generator that was never declared."""
