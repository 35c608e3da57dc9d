"""Exception types shared across the package.

Every error raised by fincon code derives from FinconError so callers can
catch the whole family; the CLI maps config/data errors to exit code 1 and
runtime failures to exit code 2.
"""


class FinconError(Exception):
    """Base class for all fincon errors."""


# -- data ingestion ----------------------------------------------------------

class SchemaError(FinconError):
    """A row/field in an input file violates the expected schema.

    ``row`` is the 1-based data-row number (header excluded); ``column`` is
    the offending field name when known.
    """

    def __init__(self, row, column, message=""):
        self.row = row
        self.column = column
        super().__init__(message or f"schema violation at row {row}, column {column!r}")


class NonMonotoneDates(FinconError):
    """Dates in a price file are not strictly increasing."""


class NonPositivePrice(FinconError):
    """A price that must be positive is zero or negative."""


class InsufficientHistory(FinconError):
    """Not enough prior bars to compute an indicator."""


class DateOutOfRange(FinconError):
    """Requested date is outside the configured simulation range."""


# -- memory ------------------------------------------------------------------

class ZeroVector(FinconError):
    """Cosine similarity is undefined for a zero vector."""


class DimensionMismatch(FinconError):
    """Embedding dimensions disagree."""


class FutureEvent(FinconError):
    """Importance queried as of a date before the event was created."""


class UnknownEventId(FinconError):
    """No memory event with the given id."""


# -- llm gateway -------------------------------------------------------------

class BackendUnavailable(FinconError):
    """The completion backend could not be reached."""


class Timeout(FinconError):
    """The completion backend did not answer within the configured timeout."""


class SchemaViolationAfterRetries(FinconError):
    """Response still failed schema validation after all retries."""


class MissingScriptEntry(FinconError):
    """The scripted mock has no entry for the requested (role_tag, step_key)."""


# -- agents ------------------------------------------------------------------

class IllegalRoute(FinconError):
    """Message send attempted outside the manager-analyst tree."""


class MissingAnalystReport(FinconError):
    """The manager step started before every configured analyst reported."""


# -- risk control ------------------------------------------------------------

class EmptyHistory(FinconError):
    """Risk metric requested on an empty PnL history."""


class AlphaOutOfRange(FinconError):
    """Confidence level must lie strictly inside (0, 1)."""


class LengthMismatch(FinconError):
    """Paired sequences have different lengths."""


class EmptySequence(FinconError):
    """Overlap requested on empty decision sequences."""


class IncompleteEpisode(FinconError):
    """Belief update requested with an episode that has no trading days."""


# -- portfolio ---------------------------------------------------------------

class InsufficientSamples(FinconError):
    """Too few return observations to estimate moments."""


class NonPSDMatrix(FinconError):
    """Covariance input is not symmetric positive semidefinite."""


class SolverNonConvergence(FinconError):
    """The QP solve produced a non-finite objective."""


class InsufficientCandidates(FinconError):
    """Fewer candidates than requested pool size after filtering."""


# -- backtest ----------------------------------------------------------------

class EmptyTrajectory(FinconError):
    """Metric requested on a trajectory with no days."""


class EmptySeries(FinconError):
    """Drawdown requested on an empty value series."""


class NonPositiveValue(FinconError):
    """Equity values must be positive for drawdown computation."""


class ZeroVolatility(FinconError):
    """Sharpe ratio undefined: PnL standard deviation is zero."""


class InsufficientData(FinconError):
    """Too few observations for the requested statistic."""


class TooFewPairs(FinconError):
    """Fewer than six nonzero differences for the signed-rank test."""


class MissingTrainingArtifacts(FinconError):
    """Test stage started without prompts/memory from a training run."""


class MissingTrajectory(FinconError):
    """Report requested on a run directory with no trajectory file."""


class EpisodeAborted(FinconError):
    """An episode failed mid-run; a FAILED artifact was written."""

    def __init__(self, episode, cause):
        self.episode = episode
        self.cause = cause
        super().__init__(f"episode {episode} aborted: {cause}")


class ConfigError(FinconError):
    """Run configuration failed validation."""
