"""Adaptive frequency hopping: channel map plus the two selection algorithms.

CSA#1 is the legacy incrementing hop with modulo remapping; CSA#2 derives
a per-event pseudo-random number from the access address and event counter
through three permute/multiply rounds.  Both remap unused channels into
the sorted list of used ones.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ParamError, check_int
from .llpacket import ChannelIndex

N_DATA_CHANNELS = 37


@dataclass(frozen=True)
class ChannelMap:
    """Set of usable data channels (0..36); at least two must remain."""

    used: tuple

    def __init__(self, used):
        channels = tuple(sorted({check_int("data channel", c, 0, N_DATA_CHANNELS - 1)
                                 for c in used}))
        if len(channels) < 2:
            raise ParamError(f"need at least 2 used channels, got {len(channels)}")
        object.__setattr__(self, "used", channels)

    @property
    def n_used(self) -> int:
        return len(self.used)

    def __contains__(self, channel: int) -> bool:
        return channel in self.used

    @classmethod
    def from_mask(cls, mask) -> "ChannelMap":
        """Channels from a bit mask, given as a hex string or an integer."""
        try:
            value = int(mask, 16) if isinstance(mask, str) else check_int("mask", mask)
        except ValueError:
            raise ParamError(f"channel map must be a hex string or an integer, "
                             f"got {mask!r}") from None
        if value < 0:
            raise ParamError(f"channel map mask must be non-negative, got {mask!r}")
        if value >> N_DATA_CHANNELS:
            raise ParamError(f"mask {value:#x} has bits above channel 36")
        return cls([c for c in range(N_DATA_CHANNELS) if value & (1 << c)])

    @classmethod
    def all_channels(cls) -> "ChannelMap":
        return cls(range(N_DATA_CHANNELS))


@dataclass(frozen=True)
class HopState:
    """CSA#1 hop context: last unmapped channel and the connection's hop."""

    hop_increment: int
    last_unmapped: int = 0

    def __post_init__(self):
        check_int("hop increment", self.hop_increment, 5, 16)
        check_int("last unmapped channel", self.last_unmapped, 0, N_DATA_CHANNELS - 1)


def csa1_next(state: HopState, channel_map: ChannelMap
              ) -> tuple[ChannelIndex, HopState]:
    """One CSA#1 hop: increment modulo 37, remap if the channel is unused."""
    unmapped = (state.last_unmapped + state.hop_increment) % N_DATA_CHANNELS
    if unmapped in channel_map:
        selected = unmapped
    else:
        selected = channel_map.used[unmapped % channel_map.n_used]
    return ChannelIndex(selected), HopState(state.hop_increment, unmapped)


def _perm16(v: int) -> int:
    """Reverse the bit order inside each byte of a 16-bit value."""
    out = 0
    for byte_pos in (0, 8):
        byte = (v >> byte_pos) & 0xFF
        rev = 0
        for i in range(8):
            rev |= ((byte >> i) & 1) << (7 - i)
        out |= rev << byte_pos
    return out


def _mam(a: int, b: int) -> int:
    """Multiply-accumulate modulo 2^16 used between permutation rounds."""
    return (a * 17 + b) & 0xFFFF


def csa2_prn(event_counter: int, access_address: int) -> int:
    """Per-event pseudo-random number of the #2 selection algorithm."""
    ident = ((access_address >> 16) ^ access_address) & 0xFFFF
    e = (event_counter ^ ident) & 0xFFFF
    for _ in range(3):
        e = _mam(_perm16(e), ident)
    return e ^ ident


def csa2_select(event_counter: int, channel_map: ChannelMap,
                access_address: int) -> ChannelIndex:
    """Channel for one connection event under selection algorithm #2."""
    prn = csa2_prn(event_counter, access_address)
    unmapped = prn % N_DATA_CHANNELS
    if unmapped in channel_map:
        return ChannelIndex(unmapped)
    remap_index = (channel_map.n_used * prn) >> 16
    return ChannelIndex(channel_map.used[remap_index])
