"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, data-loading errors
(ParseError, EmptyDatasetError, and input that is not UTF-8) -> 3, and
errors that make an evaluation impossible (SplitError, EvaluationError) -> 4.
"""


class TlpssError(Exception):
    """Base class for all toolkit errors."""


class ParseError(TlpssError):
    """A non-comment input line could not be parsed."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class EmptyDatasetError(TlpssError):
    """Parsing produced no usable timestamped edges."""


class SplitError(TlpssError):
    """A time-ordered train/test split cannot be made (e.g. a single timestamp)."""


class EvaluationError(TlpssError):
    """Evaluation cannot proceed (e.g. no positive pairs, no negatives)."""


class ConfigError(TlpssError):
    """An experiment configuration value is out of range or inconsistent."""
