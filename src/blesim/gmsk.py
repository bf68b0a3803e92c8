"""GMSK modulator, pulse filters and the complex-baseband frame container.

The modulator is a classic CPM chain: NRZ impulses -> Gaussian frequency
pulse -> phase accumulator -> unit-envelope complex exponential.  The
frequency pulse is the convolution of a Gaussian (3 dB bandwidth BT times
the symbol rate, SPAN symbols long) with a one-symbol rectangle,
normalised so each symbol advances the phase by exactly pi*H.  BT, H and
SPAN are BLE's for every PHY mode, and every frame has SPS samples per
symbol, so they are constants, not options.  The same pulse serves as
the receiver's matched filter; demodulation lives in the receiver.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import as_bits
from .errors import IoError, LengthError, ParamError

# BLE's GMSK, shared by the transmitter and the receiver's matched filter
# and sync template: bandwidth-time product, modulation index, Gaussian
# length in symbols, and every frame's samples per symbol.
BT = 0.5
H = 0.5
SPAN = 3
SPS = 8

_IQ_MAGIC = b"BIQ1"
_IQ_HEADER = struct.Struct("<4sIII")  # magic, sample_rate, symbol_rate, reserved


@dataclass
class IqFrame:
    """Complex baseband samples plus the rates needed to interpret them."""

    samples: np.ndarray
    sample_rate: float
    symbol_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise LengthError("IqFrame samples must be one-dimensional")
        if self.sample_rate <= 0 or self.symbol_rate <= 0:
            raise ParamError("rates must be positive")

    def __len__(self) -> int:
        return self.samples.size

    def replace(self, samples: np.ndarray) -> "IqFrame":
        return IqFrame(samples, self.sample_rate, self.symbol_rate)


def write_iq(frame: IqFrame, path) -> None:
    """Serialize a frame: 16-byte header then interleaved float32 LE re/im."""
    inter = np.empty(2 * len(frame), dtype="<f4")
    inter[0::2] = frame.samples.real
    inter[1::2] = frame.samples.imag
    header = _IQ_HEADER.pack(
        _IQ_MAGIC, int(round(frame.sample_rate)), int(round(frame.symbol_rate)), 0
    )
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(inter.tobytes())
    except OSError as exc:
        raise IoError(str(exc)) from exc


def read_iq(path) -> IqFrame:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if len(raw) < _IQ_HEADER.size:
        raise IoError(f"{path}: truncated header")
    magic, fs, rs, _ = _IQ_HEADER.unpack_from(raw)
    if magic != _IQ_MAGIC:
        raise IoError(f"{path}: bad magic {magic!r}")
    if not (fs and rs):
        raise IoError(f"{path}: zero rate in header ({fs} Sa/s, {rs} sym/s)")
    body = np.frombuffer(raw, dtype="<f4", offset=_IQ_HEADER.size)
    if body.size % 2:
        raise IoError(f"{path}: odd float count")
    samples = body[0::2].astype(np.float64) + 1j * body[1::2].astype(np.float64)
    return IqFrame(samples, float(fs), float(rs))


@dataclass(frozen=True)
class PulseShape:
    """Shared TX/RX pulse: Gaussian-filtered one-symbol rectangle."""

    taps: np.ndarray

    @property
    def delay(self) -> int:
        """Group delay of the (odd, symmetric) tap vector in samples."""
        return (self.taps.size - 1) // 2


@lru_cache(maxsize=1)
def gaussian_taps() -> PulseShape:
    """Build the frequency pulse at SPS samples per symbol.

    The taps cover SPAN+1 symbols and sum to one so that a lone symbol
    integrates to a full pi*H phase step.  The pulse is cached, so the
    taps are read-only.
    """
    n = SPAN * SPS
    t = (np.arange(n) - (n - 1) / 2.0) / SPS
    # Gaussian with 3 dB cutoff at BT * symbol_rate.
    gauss = np.exp(-2.0 * np.pi**2 * BT**2 * t**2 / np.log(2.0))
    taps = np.convolve(gauss, np.ones(SPS))
    taps /= taps.sum()
    taps.flags.writeable = False
    return PulseShape(taps=taps)


def gmsk_modulate(bits: np.ndarray, pulse: PulseShape,
                  symbol_rate: float = 1e6) -> IqFrame:
    """Modulate a bit vector to unit-envelope complex baseband.

    The map is 1 -> +H/2 frequency, 0 -> -H/2.  Output contains the full
    filter transient on both ends; symbol k is centred at sample
    k*SPS + pulse.delay.
    """
    bits = as_bits(bits)
    if bits.size == 0:
        raise LengthError("cannot modulate zero bits")
    nrz = bits.astype(np.float64) * 2.0 - 1.0
    impulses = np.zeros(bits.size * SPS)
    impulses[::SPS] = nrz
    freq = np.convolve(impulses, pulse.taps)
    phase = np.pi * H * np.cumsum(freq)
    samples = np.exp(1j * phase)
    return IqFrame(samples, sample_rate=symbol_rate * SPS, symbol_rate=symbol_rate)


def matched_filter(frame: IqFrame, pulse: PulseShape) -> IqFrame:
    """Receive half of the split pulse filter, applied to IQ samples."""
    if frame.sample_rate != SPS * frame.symbol_rate:
        raise ParamError(f"the pulse is for frames at {SPS} samples per symbol")
    return frame.replace(np.convolve(frame.samples, pulse.taps))

