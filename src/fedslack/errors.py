"""Exception types shared across the library."""


class FedslackError(Exception):
    """Base class for all library errors."""


class ShapeError(FedslackError):
    """Layouts or array dimensions do not match."""


class LabelError(FedslackError):
    """Class label outside the valid range."""


class FormatError(FedslackError):
    """Malformed binary or text input file."""


class PartitionError(FedslackError):
    """Invalid or infeasible partition request."""


class AggregationError(FedslackError):
    """Invalid aggregation policy or inputs."""


class DivergenceError(FedslackError):
    """Non-finite values encountered during training.

    `row` is the index, along a stacked client axis, of the first client
    whose values are non-finite (None when the arrays had no client axis).
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ConfigError(FedslackError):
    """Invalid experiment configuration."""
