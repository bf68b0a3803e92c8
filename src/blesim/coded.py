"""Coded-mode forward error correction and spreading.

Block structure on air:

    preamble (80 sym) | block1: fec(AA | CI | TERM1) at S=8 | block2:
    fec(whitened(PDU | CRC) | TERM2) at S=8 (LE125K) or S=2 (LE500K)

The rate-1/2 encoder has constraint length 4 with generators
1 + D + D^2 + D^3 and 1 + D^2 + D^3; each TERM field is three zero bits
that drive the trellis back to state zero, so both blocks decode with a
terminated traceback.  The S=8 pattern mapper spreads coded bit 0 to
symbols 0011 and coded bit 1 to 1100; S=2 maps bits straight through.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bits import as_bits, int_to_bits
from .errors import LengthError, ParamError
from .llpacket import (
    ADVERTISING_ACCESS_ADDRESS,
    LinkLayerPacket,
    crc24_bits,
    whiten,
)
from .phymode import PhyMode

TERM_BITS = 3
CI_FIELD_BITS = 2
# AA (32) + CI (2) + TERM1 (3) input bits of the first FEC block.
BLOCK1_INPUT_BITS = 32 + CI_FIELD_BITS + TERM_BITS

_PATTERN_ZERO = np.array([0, 0, 1, 1], dtype=np.uint8)
_PATTERN_ONE = np.array([1, 1, 0, 0], dtype=np.uint8)


class CodingScheme(NamedTuple):
    ci: int  # coding-indicator field value announcing block 2's scheme
    s: int   # coding scheme S of block 2: on-air symbols per input bit


# The one table of the coded modes' block-2 coding.
CODING_SCHEMES = {
    PhyMode.LE125K: CodingScheme(ci=0b00, s=8),
    PhyMode.LE500K: CodingScheme(ci=0b01, s=2),
}


def _spreading(s: int) -> int:
    """Symbols per coded bit for coding scheme S; the code is rate 1/2."""
    if s not in (2, 8):
        raise ParamError(f"coding scheme S={s} (expected 2 or 8)")
    return s // 2


def fec_encode(bits: np.ndarray) -> np.ndarray:
    """Rate-1/2 convolutional encode from the all-zero state.

    Emits two coded bits (g0 then g1) per input bit; output length is
    exactly 2*len(bits).  Appending three zero input bits flushes the
    trellis back to state zero.
    """
    bits = as_bits(bits).astype(np.int64)
    n = bits.size
    # Non-recursive code: each output is a mod-2 convolution of the input
    # with the generator taps [1,1,1,1] and [1,0,1,1] (D^0 .. D^3).
    padded = np.concatenate([np.zeros(3, dtype=np.int64), bits])
    g0 = (padded[3:] + padded[2:-1] + padded[1:-2] + padded[:-3]) & 1
    g1 = (padded[3:] + padded[1:-2] + padded[:-3]) & 1
    out = np.empty(2 * n, dtype=np.uint8)
    out[0::2] = g0
    out[1::2] = g1
    return out


def pattern_map(coded_bits: np.ndarray, s: int) -> np.ndarray:
    """Expand coded bits to on-air symbols for coding scheme S."""
    coded_bits = as_bits(coded_bits)
    p = _spreading(s)
    if p == 1:
        return coded_bits.copy()
    out = np.where(
        coded_bits[:, None].astype(bool), _PATTERN_ONE[None, :], _PATTERN_ZERO[None, :]
    )
    return out.reshape(-1).astype(np.uint8)


def pattern_demap(soft_symbols: np.ndarray, s: int) -> np.ndarray:
    """Collapse soft symbols back to one soft value per coded bit.

    Positive values vote for bit 1.  For S=8 the four symbols of one coded
    bit are combined with the pattern's antipodal signs (+,+,-,-).
    """
    soft = _as_soft(soft_symbols)
    p = _spreading(s)
    if soft.size % p:
        raise LengthError(f"{soft.size} symbols not divisible by spreading {p}")
    if p == 1:
        return soft
    groups = soft.reshape(-1, 4)
    return groups[:, 0] + groups[:, 1] - groups[:, 2] - groups[:, 3]


def _as_soft(symbols: np.ndarray) -> np.ndarray:
    symbols = np.asarray(symbols)
    if symbols.dtype.kind in "ui":
        return symbols.astype(np.float64) * 2.0 - 1.0
    return symbols.astype(np.float64)


def viterbi_decode(symbols: np.ndarray, s: int) -> np.ndarray:
    """Maximum-likelihood decode of one FEC block.

    `symbols` are on-air symbols (hard 0/1 or soft, positive = 1) of a
    block whose input ended with the TERM flush, so the traceback starts
    from state zero.  Returns the decoded input bits including the flush.
    """
    soft = pattern_demap(symbols, s)
    if soft.size % 2:
        raise LengthError(f"{soft.size} coded bits do not form (g0, g1) pairs")
    if soft.size == 0:
        raise LengthError("empty coded block")

    # Add-compare-select over Python floats, unrolled over the 8 states:
    # on so small a trellis numpy's per-call overhead costs more than the
    # arithmetic.  State s encodes (b[n-1], b[n-2], b[n-3]), newest first;
    # destination t = (b<<2)|(s>>1) has predecessors 2*(t&3) and
    # 2*(t&3)+1 with input bit b = t>>2.  A branch adds +x for a coded 1
    # and -x for a coded 0 (g0 = b^s2^s1^s0, g1 = b^s1^s0), each
    # candidate summed as (metric +- x0) +- x1, and a tie keeps
    # predecessor 0, so the bits are those of an argmax over the pair.
    # `back` holds each step's 8 choices, True for predecessor 1.
    m0 = 0.0
    m1 = m2 = m3 = m4 = m5 = m6 = m7 = -np.inf
    back = []
    for x0, x1 in zip(soft[0::2].tolist(), soft[1::2].tolist()):
        a, b = m0 - x0 - x1, m1 + x0 + x1
        k0 = b > a
        n0 = b if k0 else a
        a, b = m2 + x0 + x1, m3 - x0 - x1
        k1 = b > a
        n1 = b if k1 else a
        a, b = m4 + x0 - x1, m5 - x0 + x1
        k2 = b > a
        n2 = b if k2 else a
        a, b = m6 - x0 + x1, m7 + x0 - x1
        k3 = b > a
        n3 = b if k3 else a
        a, b = m0 + x0 + x1, m1 - x0 - x1
        k4 = b > a
        n4 = b if k4 else a
        a, b = m2 - x0 - x1, m3 + x0 + x1
        k5 = b > a
        n5 = b if k5 else a
        a, b = m4 - x0 + x1, m5 + x0 - x1
        k6 = b > a
        n6 = b if k6 else a
        a, b = m6 + x0 - x1, m7 - x0 + x1
        k7 = b > a
        n7 = b if k7 else a
        m0, m1, m2, m3, m4, m5, m6, m7 = n0, n1, n2, n3, n4, n5, n6, n7
        back.append((k0, k1, k2, k3, k4, k5, k6, k7))

    bits = []
    state = 0
    for choice in reversed(back):
        bits.append(state >> 2)
        state = ((state & 3) << 1) | choice[state]
    return np.array(bits[::-1], dtype=np.uint8)


def assemble_coded(packet: LinkLayerPacket, mode: PhyMode) -> np.ndarray:
    """On-air symbol stream for the coded modes."""
    if not mode.coded:
        raise ParamError(f"{mode.value} packets are built by assemble_uncoded")
    preamble = mode.preamble_bits()
    aa = int_to_bits(ADVERTISING_ACCESS_ADDRESS, 32, lsb_first=True)
    scheme = CODING_SCHEMES[mode]
    ci = int_to_bits(scheme.ci, CI_FIELD_BITS, lsb_first=True)
    term = np.zeros(TERM_BITS, dtype=np.uint8)
    block1 = pattern_map(fec_encode(np.concatenate([aa, ci, term])), 8)
    body = np.concatenate([packet.pdu, crc24_bits(packet.pdu)])
    block2_in = np.concatenate([whiten(body, packet.channel.index), term])
    block2 = pattern_map(fec_encode(block2_in), scheme.s)
    return np.concatenate([preamble, block1, block2])


def block1_symbol_count() -> int:
    return BLOCK1_INPUT_BITS * 2 * 4


def block2_symbol_count(pdu_bits: int, s: int) -> int:
    return (pdu_bits + 24 + TERM_BITS) * 2 * _spreading(s)

