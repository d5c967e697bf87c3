"""Exception types raised across the qflake pipeline.

Everything subclasses :class:`QflakeError` (itself a ``ValueError``) so
callers can catch one base type; the CLI maps validation-time failures to
exit code 2 and pipeline-time failures to exit code 3 at the call site.
"""


class QflakeError(ValueError):
    """Base class for all qflake errors."""


# corpus ----------------------------------------------------------------

class MissingFileError(QflakeError):
    """A manifest record points at a path that does not exist."""


class BadLabelError(QflakeError):
    """A manifest record carries a label outside {flaky, nonflaky}."""


class BadRecordError(QflakeError):
    """A manifest line is not a JSON object with id, path and label."""


class DuplicateIdError(QflakeError):
    """Two manifest records share the same id."""


class EmptyFileError(QflakeError):
    """A referenced source file is empty after decoding."""


class EncodingError(QflakeError):
    """A referenced source file does not decode as UTF-8."""


class EmptyClassError(QflakeError):
    """An operation requires both classes but one is absent."""


class TooFewSamplesError(QflakeError):
    """A class has fewer members than the requested fold count."""


# linalg ----------------------------------------------------------------

class DegenerateInputError(QflakeError):
    """Matrix has too few rows for the requested decomposition."""


class RankTooSmallError(QflakeError):
    """Requested component count exceeds the admissible ceiling."""


class DimensionMismatchError(QflakeError):
    """Matrix width does not match the fitted feature dimension."""


class NonFiniteMatrixError(QflakeError):
    """Matrix contains NaN or infinite entries."""


class SvdNotConvergedError(QflakeError):
    """The SVD failed to converge on both orientations of the matrix."""


# resample --------------------------------------------------------------

class MinorityTooSmallError(QflakeError):
    """Minority class has fewer than 2 samples; nothing to interpolate."""


# classifiers -----------------------------------------------------------

class SpecInvalidError(QflakeError):
    """A hyperparameter name or value is invalid for the family."""


class SingleClassError(QflakeError):
    """Training data contains only one class where two are required."""


class KTooLargeError(QflakeError):
    """n_neighbors exceeds the number of stored training rows."""


class EmptySetError(QflakeError):
    """Impurity of an empty label multiset is undefined."""


# eval ------------------------------------------------------------------

class LengthMismatchError(QflakeError):
    """Prediction and truth vectors have different lengths."""


class EmptyMatrixError(QflakeError):
    """Confusion matrix counts sum to zero."""


class EmptyInputError(QflakeError):
    """Threshold tuning received no scores."""


class EmptyVocabularyError(QflakeError):
    """The training documents hold no token, so there is nothing to fit."""


# experiment / cli ------------------------------------------------------

class ConfigError(QflakeError):
    """An experiment or CLI configuration is invalid."""
