"""PHY mode enumeration and per-mode constants."""
from __future__ import annotations

from enum import Enum

import numpy as np


class PhyMode(Enum):
    LE1M = "LE1M"
    LE2M = "LE2M"
    LE500K = "LE500K"
    LE125K = "LE125K"

    @property
    def symbol_rate(self) -> float:
        """On-air symbol rate in symbols/s (coded modes stay at 1 Msym/s)."""
        return 2e6 if self is PhyMode.LE2M else 1e6

    @property
    def coded(self) -> bool:
        return self in (PhyMode.LE500K, PhyMode.LE125K)

    @property
    def preamble_len(self) -> int:
        if self is PhyMode.LE1M:
            return 8
        if self is PhyMode.LE2M:
            return 16
        return 80

    def preamble_bits(self) -> np.ndarray:
        """Preamble bit pattern in transmission order.

        Uncoded modes alternate 0/1 starting from the LSB of the advertising
        access address; coded modes repeat the fixed 8-symbol pattern
        00111100 ten times.
        """
        if self.coded:
            return np.tile(np.array([0, 0, 1, 1, 1, 1, 0, 0], dtype=np.uint8), 10)
        # llpacket imports this module, so the LSB of 0x8E89BED6, a 0, is
        # written here; a test ties it to the constant.
        return np.resize(np.array([0, 1], dtype=np.uint8), self.preamble_len)

