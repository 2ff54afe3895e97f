"""Exception types shared across the package; ``exit_code`` is each one's CLI exit status.
``check_count`` is the one check of every integer count option, such as restarts or jobs."""

import operator


class DimwitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class NotHermitianError(DimwitError):
    """Input matrix failed the Hermiticity check."""


class NoConvergenceError(DimwitError):
    """An eigensolve did not converge, or every see-saw restart aborted."""


class NotPSDError(DimwitError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class DimensionMismatchError(DimwitError):
    """Operator or vector dimensions are inconsistent."""


class InvalidScenarioError(DimwitError, ValueError):
    """Scenario has a party without settings or a setting with fewer than two outcomes."""


class ScenarioMismatchError(DimwitError):
    """Functional and table (or model) belong to different scenarios."""

    exit_code = 3


class SignalingError(DimwitError):
    """Per-partner-setting marginals of a table disagree beyond tolerance."""

    exit_code = 3


class InvalidTableError(DimwitError):
    """Probability table violates positivity or normalization."""


class InvalidFunctionalError(DimwitError):
    """Bell functional has a non-finite coefficient, or a local bound beyond the float range."""


class InvalidModelError(DimwitError):
    """Quantum model violates state-norm or POVM constraints."""

    exit_code = 5


class ConfigError(DimwitError):
    """Invalid optimizer configuration."""

    exit_code = 5


def check_count(value, name: str, minimum: int) -> int:
    """``value`` as an int if it is an integer (NumPy's included) of at least
    ``minimum``; otherwise ``ConfigError`` naming the option ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {count}")
    return count


class StrategySpaceTooLargeError(DimwitError):
    """The deterministic-strategy search would exceed ``localbound.ENUMERATION_CAP``."""

    exit_code = 4


class ParseError(DimwitError):
    """Malformed functional/matrix/table text.

    Carries 1-based ``line`` and ``column`` of the offending token when known.
    """

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class MissingScenarioError(ParseError):
    """Functional text has no (or a misplaced) scenario declaration."""


class TermIndexError(ParseError):
    """A term's outcome or setting index is outside the declared scenario."""


class RaggedRowsError(ParseError):
    """Correlation-matrix rows have inconsistent lengths (or the matrix is not square)."""


class NonNumericError(ParseError):
    """Correlation-matrix cell is not a real number."""


class ZeroMatrixError(DimwitError):
    """Correlation matrix has zero sign-enumeration norm and cannot be normalized."""

