"""Bit-vector helpers.

Bits are numpy uint8 arrays holding 0/1 in on-air (transmission) order.
Multi-bit fields are transmitted least-significant bit first unless a
function says otherwise (the CRC field is the one exception, see llpacket).
"""
from __future__ import annotations

import numpy as np

from .errors import LengthError


def as_bits(seq) -> np.ndarray:
    """Coerce a sequence of 0/1 values to a uint8 bit vector."""
    bits = np.asarray(seq, dtype=np.uint8)
    if bits.ndim != 1:
        raise LengthError("bit vector must be one-dimensional")
    if bits.size and bits.max() > 1:
        raise ValueError("bit vector entries must be 0 or 1")
    return bits


def int_to_bits(value: int, width: int, lsb_first: bool = True) -> np.ndarray:
    """Expand an unsigned integer into `width` bits."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    bits = np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)
    return bits if lsb_first else bits[::-1].copy()


def bits_to_int(bits: np.ndarray, lsb_first: bool = True) -> int:
    """Pack a bit vector back into an unsigned integer."""
    bits = as_bits(bits)
    order = bits if lsb_first else bits[::-1]
    value = 0
    for i, b in enumerate(order):
        value |= int(b) << i
    return value


def random_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.uint8)

