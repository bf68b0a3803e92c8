"""Link-layer packet assembly: CRC-24, data whitening, channel indexing.

The link is fixed: packets, the CRC and the validator use the advertising
access address and CRC init below as constants.  Bit order follows the
air interface: every field is transmitted LSB first except the CRC, which
goes out most-significant bit first.  Whitening covers PDU and CRC only;
preamble and access address are sent in clear.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bits import as_bits, int_to_bits
from .errors import LengthError, ParamError, check_int
from .phymode import PhyMode

ADVERTISING_ACCESS_ADDRESS = 0x8E89BED6
ADVERTISING_CRC_INIT = 0x555555

PDU_MIN_BITS = 16
PDU_MAX_BITS = 2056

# CRC generator x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1; the mask below
# holds the feedback taps (everything but the x^24 term).
_CRC_POLY_MASK = 0x00065B


@lru_cache(maxsize=1)
def _crc_table() -> tuple[int, ...]:
    """256-entry table for processing 8 message bits per step, as Python
    ints, which the per-byte loop indexes faster than numpy scalars."""
    table = []
    for byte in range(256):
        reg = byte << 16
        for _ in range(8):
            fb = (reg >> 23) & 1
            reg = (reg << 1) & 0xFFFFFF
            if fb:
                reg ^= _CRC_POLY_MASK
        table.append(reg)
    return tuple(table)


def crc24(bits: np.ndarray) -> int:
    """CRC of a bit vector taken in transmission order.

    Returns the 24-bit register value; bit i of the result is the
    coefficient of x^i.  The shift register starts at the advertising CRC
    init and each message bit is fed into the feedback path from the x^23
    end, which is what the byte table above implements eight bits at a
    time.
    """
    bits = as_bits(bits)
    reg = ADVERTISING_CRC_INIT
    table = _crc_table()
    n_whole = bits.size // 8
    # packbits puts the first bit in the MSB, matching the register's
    # first-in-at-the-top orientation.
    for byte in np.packbits(bits[: n_whole * 8]).tolist():
        reg = ((reg << 8) & 0xFFFFFF) ^ table[((reg >> 16) & 0xFF) ^ byte]
    for b in bits[n_whole * 8:].tolist():
        fb = b ^ (reg >> 23)
        reg = (reg << 1) & 0xFFFFFF
        if fb:
            reg ^= _CRC_POLY_MASK
    return reg


def crc24_bits(bits: np.ndarray) -> np.ndarray:
    """CRC field in transmission order (register bit 23 first)."""
    return int_to_bits(crc24(bits), 24, lsb_first=False)


# Room for every channel at three lengths; a campaign whitens one length.
@lru_cache(maxsize=128)
def _whitening(channel: int, n: int) -> np.ndarray:
    """The first n bits of the whitening sequence of a channel index,
    read-only.

    The LFSR has the register polynomial x^7 + x^4 + 1 and a period of
    127 bits.  Position 0 starts at 1 and positions 1..6 hold the channel
    index MSB first; the output is taken from position 6 and feeds back
    into positions 0 and 4.
    """
    state = [1] + [(channel >> (5 - i)) & 1 for i in range(6)]
    period = np.empty(127, dtype=np.uint8)
    for i in range(127):
        fb = state[6]
        period[i] = fb
        state = [fb, state[0], state[1], state[2], state[3] ^ fb, state[4], state[5]]
    seq = np.tile(period, -(-n // 127))[:n]
    seq.setflags(write=False)
    return seq


def whitening_sequence(channel: int, n: int) -> np.ndarray:
    return _whitening(ChannelIndex(channel).index, n).copy()


def whiten(bits: np.ndarray, channel: int) -> np.ndarray:
    """XOR a bit vector with the channel's whitening sequence (involution)."""
    bits = as_bits(bits)
    return bits ^ _whitening(ChannelIndex(channel).index, bits.size)


@dataclass(frozen=True)
class ChannelIndex:
    """A BLE channel index, checked to lie in 0..39."""

    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", check_int("channel index", self.index, 0, 39))


@dataclass
class LinkLayerPacket:
    """Payload-bearing packet before modulation: its PDU and channel.

    `pdu` is an opaque bit vector; no header semantics are applied.
    """

    pdu: np.ndarray = field(default_factory=lambda: np.zeros(16, dtype=np.uint8))
    channel: ChannelIndex = field(default_factory=lambda: ChannelIndex(37))

    def __post_init__(self):
        self.pdu = as_bits(self.pdu)
        check_int("PDU bits", self.pdu.size, PDU_MIN_BITS, PDU_MAX_BITS)
        if not isinstance(self.channel, ChannelIndex):
            raise ParamError(f"channel must be a ChannelIndex, got {self.channel!r}")


def assemble_uncoded(packet: LinkLayerPacket, mode: PhyMode) -> np.ndarray:
    """On-air bit stream for LE1M/LE2M: preamble | AA | whitened(PDU | CRC)."""
    if mode.coded:
        raise ParamError(f"{mode.value} packets are built by assemble_coded")
    aa = int_to_bits(ADVERTISING_ACCESS_ADDRESS, 32, lsb_first=True)
    body = np.concatenate([packet.pdu, crc24_bits(packet.pdu)])
    return np.concatenate([mode.preamble_bits(), aa,
                           whiten(body, packet.channel.index)])


def validate_packet(aa_rx: int, pdu_and_crc: np.ndarray) -> tuple[bool, bool]:
    """Check a received packet's address and CRC against the advertising
    ones.

    `pdu_and_crc` must already be de-whitened.  CRC is only evaluated when
    the address matched, so crc_ok always implies aa_ok.
    """
    pdu_and_crc = as_bits(pdu_and_crc)
    if pdu_and_crc.size < PDU_MIN_BITS + 24:
        raise LengthError(
            f"need at least {PDU_MIN_BITS + 24} bits of PDU+CRC, "
            f"got {pdu_and_crc.size}"
        )
    if aa_rx != ADVERTISING_ACCESS_ADDRESS:
        return False, False
    # The bits are checked once, above; the CRC field, most-significant
    # bit first, packs straight to its register value.
    pdu, crc_rx = pdu_and_crc[:-24], pdu_and_crc[-24:]
    return True, crc24(pdu) == int.from_bytes(np.packbits(crc_rx).tobytes(), "big")
