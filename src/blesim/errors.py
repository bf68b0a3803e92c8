"""Exception types shared across the simulator, and the value checks the
components share."""

import math
import numbers


class BlesimError(Exception):
    """Base class for all simulator errors."""


class LengthError(BlesimError):
    """Bit/symbol vector has an impossible length for the requested operation."""


class ParamError(BlesimError, ValueError):
    """Argument outside its documented range or of the wrong type."""


class SyncFailure(BlesimError):
    """Preamble correlation peak below the detection threshold."""


class NoSignalError(BlesimError):
    """Input has no usable signal power for estimation."""


class ConfigError(BlesimError):
    """Scenario configuration rejected (unknown key, bad value, bad schema)."""


class IoError(BlesimError):
    """File could not be read or written."""


# The exact-type test comes first: an ABC isinstance is about ten times
# slower, and the components check several values per frame.
def is_number(value) -> bool:
    """An int or a float, but not a bool: JSON's true is no number."""
    return (type(value) in (int, float)
            or isinstance(value, numbers.Real) and not isinstance(value, bool))


def is_integer(value) -> bool:
    """An int, but not a bool."""
    return (type(value) is int
            or isinstance(value, numbers.Integral) and not isinstance(value, bool))


def check_int(name: str, value, lo=-math.inf, hi=math.inf) -> int:
    """`value` as an int if it is an integer in [lo, hi]; else ParamError."""
    if not (is_integer(value) and lo <= value <= hi):
        raise ParamError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def check_real(name: str, value, lo: float, hi: float) -> float:
    """`value` as a float if it is a number in [lo, hi]; NaN never is."""
    if not (is_number(value) and lo <= value <= hi):
        raise ParamError(f"{name} must be a number in [{lo}, {hi}], got {value!r}")
    return float(value)


def check_enum(name: str, cls, value):
    """`value` as a member of the Enum `cls`; else ParamError naming the
    valid values."""
    try:
        return cls(value)
    except ValueError:
        valid = ", ".join(repr(m.value) for m in cls)
        raise ParamError(f"{name} must be one of {valid}, got {value!r}") from None
