"""GMSK modulator, pulse filters and the complex-baseband frame container.

The modulator is a classic CPM chain: NRZ impulses -> Gaussian frequency
pulse -> phase accumulator -> unit-envelope complex exponential.  The
frequency pulse is the convolution of a Gaussian (3 dB bandwidth bt times
the symbol rate) with a one-symbol rectangle, normalised so each symbol
advances the phase by exactly pi*h.  The same pulse serves as the
receiver's matched filter; demodulation itself lives in the receiver.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import as_bits
from .errors import IoError, LengthError, ParamError, RateMismatchError

# BLE's bandwidth-time product: the transmitter's pulse and the
# receiver's matched filter.
BT = 0.5

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

    @property
    def sps(self) -> int:
        return int(round(self.sample_rate / self.symbol_rate))

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
    body = np.frombuffer(raw, dtype="<f4", offset=_IQ_HEADER.size)
    if body.size % 2:
        raise IoError(f"{path}: odd float count")
    samples = body[0::2].astype(np.float64) + 1j * body[1::2].astype(np.float64)
    return IqFrame(samples, float(fs), float(rs))


@dataclass(frozen=True)
class PulseShape:
    """Shared TX/RX pulse: Gaussian-filtered one-symbol rectangle."""

    bt: float
    sps: int
    span: int
    taps: np.ndarray

    @property
    def delay(self) -> int:
        """Group delay of the (odd, symmetric) tap vector in samples."""
        return (self.taps.size - 1) // 2


@lru_cache(maxsize=32)
def gaussian_taps(bt: float, sps: int, span: int = 3) -> PulseShape:
    """Build the frequency pulse for a given bandwidth-time product.

    `span` is the length of the Gaussian part in symbols; the returned taps
    cover span+1 symbols and sum to one so that a lone symbol integrates to
    a full pi*h phase step.  Pulses are cached, so the taps are read-only.
    """
    if bt <= 0:
        raise ParamError(f"bt must be positive, got {bt}")
    if sps < 2:
        raise ParamError(f"need at least 2 samples per symbol, got {sps}")
    if span < 1:
        raise ParamError(f"span must be >= 1 symbol, got {span}")
    n = span * sps
    t = (np.arange(n) - (n - 1) / 2.0) / sps
    # Gaussian with 3 dB cutoff at bt * symbol_rate.
    gauss = np.exp(-2.0 * np.pi**2 * bt**2 * t**2 / np.log(2.0))
    taps = np.convolve(gauss, np.ones(sps))
    taps /= taps.sum()
    taps.flags.writeable = False
    return PulseShape(bt=bt, sps=sps, span=span, taps=taps)


def gmsk_modulate(
    bits: np.ndarray, pulse: PulseShape, h: float = 0.5, symbol_rate: float = 1e6
) -> IqFrame:
    """Modulate a bit vector to unit-envelope complex baseband.

    The map is 1 -> +h/2 frequency, 0 -> -h/2.  Output contains the full
    filter transient on both ends; symbol k is centred at sample
    k*sps + pulse.delay.
    """
    bits = as_bits(bits)
    if bits.size == 0:
        raise LengthError("cannot modulate zero bits")
    sps = pulse.sps
    nrz = bits.astype(np.float64) * 2.0 - 1.0
    impulses = np.zeros(bits.size * sps)
    impulses[::sps] = nrz
    freq = np.convolve(impulses, pulse.taps)
    phase = np.pi * h * np.cumsum(freq)
    samples = np.exp(1j * phase)
    return IqFrame(samples, sample_rate=symbol_rate * sps, symbol_rate=symbol_rate)


def matched_filter(frame: IqFrame, pulse: PulseShape) -> IqFrame:
    """Receive half of the split pulse filter, applied to IQ samples."""
    if pulse.sps != frame.sps:
        raise RateMismatchError(
            f"pulse designed for {pulse.sps} sps, frame has {frame.sps}"
        )
    return frame.replace(np.convolve(frame.samples, pulse.taps))

