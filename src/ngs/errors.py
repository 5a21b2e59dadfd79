"""Shared exception types."""


class ModelFormatError(ValueError):
    """Raised for malformed model files; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SupportOverflowError(ValueError):
    """A rescaled profile no longer fits inside the truncated domain."""


class BracketError(RuntimeError):
    """A bracketing precondition failed (fiber minimum, sign bisection)."""


class MassCriticalError(ValueError):
    """Requested scaling inversion at the mass-critical exponent."""


class NumericalError(ArithmeticError):
    """The computation itself broke down (degenerate field, lost positivity).

    Not a ValueError: the input was well formed, so this is no usage error.
    """
