"""Exception types shared across the simulator, and the number tests the
components' value checks share."""

import numbers


class BlesimError(Exception):
    """Base class for all simulator errors."""


class LengthError(BlesimError):
    """Bit/symbol vector has an impossible length for the requested operation."""


class ParamError(BlesimError):
    """Argument outside its documented range or of the wrong type."""


class SyncFailure(BlesimError):
    """Preamble correlation peak below the detection threshold."""


class NoSignalError(BlesimError):
    """Input has no usable signal power for estimation."""


class ConfigError(BlesimError):
    """Scenario configuration rejected (unknown key, bad value, bad schema)."""


class IoError(BlesimError):
    """File could not be read or written."""


def is_number(value) -> bool:
    """An int or a float, but not a bool: JSON's true is no number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """An int, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
