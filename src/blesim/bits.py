"""Bit-vector helpers.

Bits are numpy uint8 arrays holding 0/1 in on-air (transmission) order.
Multi-bit fields are transmitted least-significant bit first unless a
function says otherwise (the CRC field is the one exception, see llpacket).
"""
from __future__ import annotations

import numpy as np

from .errors import LengthError, ParamError, check_int


def as_bits(seq) -> np.ndarray:
    """Coerce a sequence of the integers 0 and 1 to a uint8 bit vector."""
    bits = np.asarray(seq)
    if bits.ndim != 1:
        raise LengthError("bit vector must be one-dimensional")
    kind = bits.dtype.kind
    if bits.size and (kind not in "ui" or kind == "i" and bits.min() < 0
                      or bits.max() > 1):
        raise ParamError("bit vector entries must be the integers 0 or 1")
    return bits.astype(np.uint8, copy=False)


def int_to_bits(value: int, width: int, lsb_first: bool = True) -> np.ndarray:
    """Expand an unsigned integer into `width` bits."""
    check_int(f"{width}-bit value", value, 0, (1 << width) - 1)
    bits = np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)
    return bits if lsb_first else bits[::-1].copy()


def bits_to_int(bits: np.ndarray, lsb_first: bool = True) -> int:
    """Pack a bit vector back into an unsigned integer."""
    bits = as_bits(bits)
    order = bits if lsb_first else bits[::-1]
    return int.from_bytes(np.packbits(order, bitorder="little").tobytes(), "little")


def random_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.uint8)

