"""Exception types shared across the library, and the bounds a config
section declares on its numeric and choice fields."""

import math
from dataclasses import fields
from enum import Enum


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


def _bound(text: str, test) -> dict:
    """Field metadata: the value must be `text`, which `test` (false for NaN) checks."""
    return {"bound": (text, test)}


NON_NEGATIVE = _bound(">= 0", lambda v: v >= 0)
AT_LEAST_1 = _bound(">= 1", lambda v: v >= 1)
AT_LEAST_2 = _bound(">= 2", lambda v: v >= 2)
FINITE = _bound("finite", math.isfinite)
FINITE_NON_NEGATIVE = _bound("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
POSITIVE = _bound("finite and > 0", lambda v: math.isfinite(v) and v > 0)
FROM_0_BELOW_1 = _bound("in [0, 1)", lambda v: 0 <= v < 1)
ABOVE_0_TO_1 = _bound("in (0, 1]", lambda v: 0 < v <= 1)


def check_bounds(section) -> None:
    """ConfigError naming, bare, the first field of the config dataclass
    `section` outside the bound its metadata declares, or given a str that no
    member of its default's enum has as its value, case ignored; a str that
    one has becomes that member.  "<field> must be <bound>, got <value!r>"."""
    for f in fields(section):
        value = getattr(section, f.name)
        if isinstance(f.default, Enum) and isinstance(value, str):
            members = {m.value: m for m in type(f.default)}
            if value.lower() not in members:
                raise ConfigError(f"{f.name} must be one of {', '.join(members)}, got {value!r}")
            setattr(section, f.name, members[value.lower()])
        elif "bound" in f.metadata:
            text, test = f.metadata["bound"]
            if not test(value):
                raise ConfigError(f"{f.name} must be {text}, got {value!r}")
