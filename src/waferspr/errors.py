"""Exception types shared across the toolkit."""


class WaferSprError(Exception):
    """Base class for all toolkit errors."""


class ParseError(WaferSprError):
    """Malformed wafer map input.

    Carries optional context: 1-based line number, offending symbol, and
    0-based column position.
    """

    def __init__(self, message, *, line=None, symbol=None, position=None):
        super().__init__(message)
        self.line = line
        self.symbol = symbol
        self.position = position


class DimensionError(WaferSprError):
    """A vector or overlay has the wrong length for its wafer/graph."""


class EmptyInputError(WaferSprError):
    """An operation received an empty point set."""


class CoordinateMismatchError(WaferSprError):
    """Two inputs that must name the same chips name different ones (a
    prediction and the truth it is scored against)."""


class GenerationError(WaferSprError):
    """A synthetic pattern spec rasterized to nothing."""


class NumericalError(WaferSprError):
    """A linear-algebra step failed beyond recovery (e.g. Cholesky after
    jitter escalation, non-positive-definite posterior scale)."""


class InternalError(WaferSprError):
    """Bookkeeping invariant violated; indicates a bug, not bad input."""


class UndefinedIndex(WaferSprError):
    """A validity index is undefined for this input (degenerate case).

    `reason` is a short machine-readable explanation used in reports.
    """

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class UndefinedTest(WaferSprError):
    """The statistical test is undefined (e.g. all differences are zero)."""


class ConfigError(WaferSprError):
    """Invalid configuration value supplied to the CLI or a config type."""
