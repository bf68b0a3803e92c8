"""Exception types shared across the simulator."""


class BlesimError(Exception):
    """Base class for all simulator errors."""


class PduLengthError(BlesimError):
    """PDU length outside the allowed 16..2056 bit range."""


class ModeError(BlesimError):
    """Operation applied to an incompatible PHY mode."""


class LengthError(BlesimError):
    """Bit/symbol vector has an impossible length for the requested operation."""


class ParamError(BlesimError):
    """Parameter outside its documented range."""


class ProfileError(BlesimError):
    """Malformed channel profile (empty taps, negative delay, ...)."""


class RateMismatchError(BlesimError):
    """Two streams with different sample rates were combined."""


class SyncFailure(BlesimError):
    """Preamble correlation peak below the detection threshold."""


class NoSignalError(BlesimError):
    """Input has no usable signal power for estimation."""


class MapError(BlesimError):
    """Invalid channel map (out-of-range channel, fewer than 2 used)."""


class ConfigError(BlesimError):
    """Scenario configuration rejected (unknown key, bad value, bad schema)."""


class IoError(BlesimError):
    """File could not be read or written."""
