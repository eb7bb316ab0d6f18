class WittboxError(Exception):
    """Base class for all errors raised by this package; carries the line of
    the instance file it refers to when known."""

    kind = "internal"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(WittboxError):
    """Bad input data: malformed files, out-of-range indices, unreduced polynomials."""

    kind = "validation"


class ParseError(ValidationError):
    """Syntax error in an instance file or expression."""

    kind = "parse"


class ConfigError(ValidationError):
    """Missing weight, missing assignment, or mismatched parameters."""

    kind = "config"


class ExactDivisionError(WittboxError):
    """A division that must be exact was not.

    Inside the Witt recursion this is impossible unless the arithmetic
    itself is broken, so it doubles as an internal bug detector.
    """

    kind = "exact-division"


class BudgetError(WittboxError):
    """Enumeration or combinatorial budget exceeded; refusal, never approximation."""

    kind = "budget"


def decimal(value: int, fallback: str) -> str:
    """`value` written out, or `fallback` when it has more digits than Python writes out."""
    try:
        return str(value)
    except ValueError:
        return fallback
