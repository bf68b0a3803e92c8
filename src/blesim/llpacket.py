"""Link-layer packet assembly: CRC-24, data whitening, channel indexing.

Bit order follows the air interface: every field is transmitted LSB first
except the CRC, which goes out most-significant bit first.  Whitening
covers PDU and CRC only; preamble and access address are sent in clear.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bits import as_bits, int_to_bits
from .errors import LengthError, ModeError, PduLengthError
from .phymode import PhyMode

ADVERTISING_ACCESS_ADDRESS = 0x8E89BED6
ADVERTISING_CRC_INIT = 0x555555

PDU_MIN_BITS = 16
PDU_MAX_BITS = 2056

# CRC generator x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1; the mask below
# holds the feedback taps (everything but the x^24 term).
_CRC_POLY_MASK = 0x00065B


@lru_cache(maxsize=1)
def _crc_table() -> np.ndarray:
    """256-entry table for processing 8 message bits per step."""
    table = np.zeros(256, dtype=np.uint32)
    for byte in range(256):
        reg = byte << 16
        for _ in range(8):
            fb = (reg >> 23) & 1
            reg = (reg << 1) & 0xFFFFFF
            if fb:
                reg ^= _CRC_POLY_MASK
        table[byte] = reg
    return table


def crc24(bits: np.ndarray, init: int = ADVERTISING_CRC_INIT) -> int:
    """CRC of a bit vector taken in transmission order.

    Returns the 24-bit register value; bit i of the result is the
    coefficient of x^i.  The shift register starts at `init` and each
    message bit is fed into the feedback path from the x^23 end, which is
    what the byte table above implements eight bits at a time.
    """
    bits = as_bits(bits)
    reg = init & 0xFFFFFF
    table = _crc_table()
    n_whole = bits.size // 8
    if n_whole:
        # packbits puts the first bit in the MSB, matching the register's
        # first-in-at-the-top orientation.
        packed = np.packbits(bits[: n_whole * 8])
        for byte in packed:
            reg = ((reg << 8) & 0xFFFFFF) ^ int(table[((reg >> 16) & 0xFF) ^ byte])
    for b in bits[n_whole * 8:]:
        fb = int(b) ^ (reg >> 23)
        reg = (reg << 1) & 0xFFFFFF
        if fb:
            reg ^= _CRC_POLY_MASK
    return reg


def crc24_bits(bits: np.ndarray, init: int = ADVERTISING_CRC_INIT) -> np.ndarray:
    """CRC field in transmission order (register bit 23 first)."""
    return int_to_bits(crc24(bits, init), 24, lsb_first=False)


@lru_cache(maxsize=64)
def _whitening_period(channel: int) -> np.ndarray:
    """One full 127-bit period of the whitening LFSR for a channel index.

    Register polynomial x^7 + x^4 + 1.  Position 0 starts at 1 and
    positions 1..6 hold the channel index MSB first; the output is taken
    from position 6 and feeds back into positions 0 and 4.
    """
    state = [1] + [(channel >> (5 - i)) & 1 for i in range(6)]
    out = np.empty(127, dtype=np.uint8)
    for n in range(127):
        fb = state[6]
        out[n] = fb
        state = [fb, state[0], state[1], state[2], state[3] ^ fb, state[4], state[5]]
    return out


def whitening_sequence(channel: int, n: int) -> np.ndarray:
    if not 0 <= channel <= 39:
        raise ValueError(f"channel index {channel} out of range 0..39")
    period = _whitening_period(channel)
    reps = -(-n // 127)
    return np.tile(period, reps)[:n]


def whiten(bits: np.ndarray, channel: int) -> np.ndarray:
    """XOR a bit vector with the channel's whitening sequence (involution)."""
    bits = as_bits(bits)
    return bits ^ whitening_sequence(channel, bits.size)


@dataclass(frozen=True)
class ChannelIndex:
    """BLE channel index 0..39 with its non-linear frequency plan."""

    index: int

    def __post_init__(self):
        if not 0 <= self.index <= 39:
            raise ValueError(f"channel index {self.index} out of range 0..39")

    @property
    def is_advertising(self) -> bool:
        return self.index >= 37

    @property
    def center_frequency_hz(self) -> float:
        # Advertising channels sit at the band edges and centre; data
        # channels fill the gaps in 2 MHz steps.
        if self.index == 37:
            return 2402e6
        if self.index == 38:
            return 2426e6
        if self.index == 39:
            return 2480e6
        if self.index <= 10:
            return 2404e6 + 2e6 * self.index
        return 2428e6 + 2e6 * (self.index - 11)


@dataclass
class LinkLayerPacket:
    """Payload-bearing packet before modulation.

    `pdu` is an opaque bit vector; no header semantics are applied.
    """

    access_address: int = ADVERTISING_ACCESS_ADDRESS
    pdu: np.ndarray = field(default_factory=lambda: np.zeros(16, dtype=np.uint8))
    channel: ChannelIndex = field(default_factory=lambda: ChannelIndex(37))
    crc_init: int = ADVERTISING_CRC_INIT

    def __post_init__(self):
        self.pdu = as_bits(self.pdu)
        if not PDU_MIN_BITS <= self.pdu.size <= PDU_MAX_BITS:
            raise PduLengthError(
                f"PDU is {self.pdu.size} bits, allowed range is "
                f"{PDU_MIN_BITS}..{PDU_MAX_BITS}"
            )
        if not 0 <= self.access_address < (1 << 32):
            raise ValueError("access address must be a 32-bit value")


def assemble_uncoded(packet: LinkLayerPacket, mode: PhyMode) -> np.ndarray:
    """On-air bit stream for LE1M/LE2M: preamble | AA | whitened(PDU | CRC)."""
    if mode.coded:
        raise ModeError(f"{mode.value} packets are built by assemble_coded")
    preamble = mode.preamble_bits(packet.access_address)
    aa = int_to_bits(packet.access_address, 32, lsb_first=True)
    body = np.concatenate([packet.pdu, crc24_bits(packet.pdu, packet.crc_init)])
    return np.concatenate([preamble, aa, whiten(body, packet.channel.index)])


def validate_packet(
    aa_rx: int,
    aa_expected: int,
    pdu_and_crc: np.ndarray,
    crc_init: int = ADVERTISING_CRC_INIT,
) -> tuple[bool, bool]:
    """Check a received packet's address and CRC.

    `pdu_and_crc` must already be de-whitened.  CRC is only evaluated when
    the address matched, so crc_ok always implies aa_ok.
    """
    pdu_and_crc = as_bits(pdu_and_crc)
    if pdu_and_crc.size < PDU_MIN_BITS + 24:
        raise LengthError(
            f"need at least {PDU_MIN_BITS + 24} bits of PDU+CRC, "
            f"got {pdu_and_crc.size}"
        )
    aa_ok = aa_rx == aa_expected
    if not aa_ok:
        return False, False
    pdu, crc_rx = pdu_and_crc[:-24], pdu_and_crc[-24:]
    crc_ok = crc24(pdu, crc_init) == int(
        sum(int(b) << (23 - i) for i, b in enumerate(crc_rx))
    )
    return aa_ok, crc_ok
