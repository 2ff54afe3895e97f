"""Exception types shared across the package; ``exit_code`` is each one's CLI exit status."""


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


class ScenarioMismatchError(DimwitError):
    """Functional and table (or model) belong to different scenarios."""

    exit_code = 3


class SignalingError(DimwitError):
    """Per-partner-setting marginals of a table disagree beyond tolerance."""

    exit_code = 3


class InvalidTableError(DimwitError):
    """Probability table violates positivity or normalization."""


class InvalidFunctionalError(DimwitError):
    """Bell functional has a non-finite coefficient."""


class InvalidModelError(DimwitError):
    """Quantum model violates state-norm or POVM constraints."""

    exit_code = 5


class WrongOutcomeCountError(DimwitError):
    """Measurement update applied to a setting with the wrong outcome count."""


class ConfigError(DimwitError):
    """Invalid optimizer configuration."""

    exit_code = 5


class StrategySpaceTooLargeError(DimwitError):
    """Deterministic-strategy enumeration would exceed the configured cap."""

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


class MatrixTooLargeError(DimwitError):
    """Correlation matrix exceeds the exact sign-enumeration size cap."""

    exit_code = 4
