"""GMSK modulator, pulse filters and the complex-baseband frame container.

The modulator is a classic CPM chain: NRZ symbols -> Gaussian frequency
pulse, one small product of each symbol's NRZ window with the pulse's
SPS-tap phases -> phase accumulator -> the phase's cosine and sine as
the real and imaginary parts.  The frequency pulse is the convolution of
a Gaussian (3 dB bandwidth BT times the symbol rate, SPAN symbols long)
with a one-symbol rectangle, normalised so each symbol advances the
phase by exactly pi*H.  BT, H and SPAN are BLE's for every PHY mode, and
every frame has SPS samples per symbol, so they are constants, not
options.  The same pulse serves as the receiver's matched filter: rows
of SPS samples times the pulse's SPS-tap phases, one product per row
shift, summed; demodulation lives in the receiver.  serial_matmul makes
every BLAS product of the package, on the calling thread.  phase_ramp
builds the linear phase ramps of carrier offsets from two short tables.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    @cached_property
    def phases(self) -> np.ndarray:
        """The taps at every output phase of the matched filter (see
        tap_phases); read-only."""
        weights = tap_phases(self.taps, tuple(range(SPS)))
        weights.setflags(write=False)
        return weights


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
    # The one-symbol box: each tap sums SPS Gaussian samples in order,
    # as np.convolve(gauss, np.ones(SPS)) does, to the bit.
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(gauss, SPS - 1), SPS)
    taps = np.cumsum(windows, axis=1)[:, -1]
    taps /= taps.sum()
    taps.flags.writeable = False
    return PulseShape(taps=taps)


# OpenBLAS runs a product on its thread pool once m*n*k passes about
# 65,536, and its threads then spin for milliseconds of CPU after the
# call; every product here stays at or under that.
_SERIAL_MNK = 65_536


def serial_matmul(a: np.ndarray, b: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """out = a @ b for 2-D a and b, into a new array if out is None, in
    row blocks of near-equal size that OpenBLAS runs on the calling
    thread.  Once there are two blocks, each holds at least half the
    rows the limit allows.

    This is the package's one call of np.matmul.  Where the limit allows
    four rows or more, as for every product here, no block is the one
    row that numpy would multiply as a vector, which can round
    differently, unless a is one row.  OpenBLAS computes each row of a
    product alike, whatever rows share its block, so every row of out is
    what one product gives, to the bit.
    """
    rows = a.shape[0]
    if out is None:
        out = np.empty((rows, b.shape[1]), np.result_type(a, b))
    per = max(_SERIAL_MNK // max(a.shape[1] * b.shape[1], 1), 2)
    n_blocks = max(-(-rows // per), 1)
    for i in range(n_blocks):
        lo, hi = rows * i // n_blocks, rows * (i + 1) // n_blocks
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


# phase_ramp's blocks: one exp per block and one per offset in a block.
_RAMP_BLOCK = 64


def phase_ramp(w: float, a: int, b: int) -> np.ndarray:
    """e^{jwn} for n in [a, b), a <= b, as a new array.

    Sample n is e^{jw*B*k} times e^{jw*i}, with n = B*k + i and B =
    _RAMP_BLOCK: the outer product of one exp per block and one per
    offset, not one exp per sample.  Its value depends on n alone, so a
    slice of a ramp equals the same samples of a longer one to the bit.
    """
    k0, k1 = a // _RAMP_BLOCK, -(-b // _RAMP_BLOCK)
    blocks = np.exp(1j * w * (_RAMP_BLOCK * np.arange(k0, k1)))
    # A ramp within one block needs only the offsets up to its end.
    offsets = np.exp(1j * w * np.arange(min(_RAMP_BLOCK, b - k0 * _RAMP_BLOCK)))
    ramp = np.multiply.outer(blocks, offsets).ravel()
    return ramp[a - k0 * _RAMP_BLOCK:b - k0 * _RAMP_BLOCK]


@lru_cache(maxsize=4)
def _phase_index(n_taps: int, phases: tuple) -> np.ndarray:
    """tap_phases' gather: for each weight, its tap's index, or n_taps
    where it falls past either end; read-only."""
    shifts = -(-(n_taps - 1 - min(phases)) // SPS) + 1
    k = (SPS * np.arange(shifts)[:, None, None]
         - np.arange(SPS)[None, :, None] + np.array(phases)[None, None, :])
    index = np.where((k >= 0) & (k < n_taps), k, n_taps)
    index.setflags(write=False)
    return index


def tap_phases(taps: np.ndarray, phases: tuple) -> np.ndarray:
    """Taps split into SPS-tap phases for a filter over rows of SPS input
    samples: w[d, s, i] is tap d*SPS + phases[i] - s, 0 past either end,
    which sample s of input row r - d meets in output sample
    r*SPS + phases[i], for each d up to the furthest row back that the
    taps reach from the lowest phase."""
    return np.append(taps, 0)[_phase_index(taps.size, phases)]


def gmsk_modulate(bits: np.ndarray, pulse: PulseShape,
                  symbol_rate: float = 1e6) -> IqFrame:
    """Modulate a bit vector to unit-envelope complex baseband.

    The map is 1 -> +H/2 frequency, 0 -> -H/2.  Output contains the full
    filter transient on both ends; symbol k is centred at sample
    k*SPS + pulse.delay.  The frequency train is the convolution of the
    NRZ symbols, SPS samples apart, with the taps: its row of SPS
    samples from k*SPS on is the product of the window of NRZ symbols
    k-p+1..k with the taps' p phases of SPS taps, p = ceil(taps / SPS).
    """
    bits = as_bits(bits)
    if bits.size == 0:
        raise LengthError("cannot modulate zero bits")
    taps = pulse.taps.size
    n, p = bits.size, -(-taps // SPS)
    nrz = np.zeros(n + 2 * (p - 1))
    nrz[p - 1:p - 1 + n] = bits * 2.0 - 1.0
    # Row k reads symbols k-p+1, ..., k, zero outside the bits, which meet
    # the taps from (p-1)*SPS, ..., SPS, 0 on: the pulse's phases at a
    # row's first sample, last first: the order in which np.convolve of
    # the NRZ impulse train adds them.
    windows = np.lib.stride_tricks.sliding_window_view(nrz, p)
    freq = np.zeros(n * SPS + taps - 1)
    rows = n + p - 1
    serial_matmul(np.ascontiguousarray(windows),
                  pulse.phases[p - 1::-1, 0].copy(),
                  freq[:rows * SPS].reshape(rows, SPS))
    phase = np.cumsum(freq, out=freq)
    phase *= np.pi * H
    samples = np.empty(phase.size, complex)
    np.cos(phase, out=samples.real)
    np.sin(phase, out=samples.imag)
    return IqFrame(samples, sample_rate=symbol_rate * SPS, symbol_rate=symbol_rate)


def matched_filter(frame: IqFrame, pulse: PulseShape) -> IqFrame:
    """Receive half of the split pulse filter, applied to IQ samples: the
    full convolution with the taps, len(frame) + taps - 1 samples.

    The real and imaginary planes are cut into rows of SPS samples, each
    plane followed by as many zero rows as the taps reach back, so that
    the imaginary plane's first rows take only zero products of the real
    plane's last ones.  Output row r is the sum of input row r - d times
    the tap phases pulse.phases[d], for d = 0, 1, ... in that order, with
    no term for rows before the first: one serial_matmul per d over all
    rows.  An output row's sum thus runs in an order fixed by d alone and
    each product row is what one product gives, so it depends only on
    the input rows it reads: filtering from a row boundary gives the
    same samples, to the bit, from that boundary's row
    pulse.phases.shape[0] - 1 on.
    """
    if frame.sample_rate != SPS * frame.symbol_rate:
        raise ParamError(f"the pulse is for frames at {SPS} samples per symbol")
    x, phases = frame.samples, pulse.phases
    rows = -(-x.size // SPS) + phases.shape[0] - 1
    planes = np.empty((2, rows * SPS))
    planes[:, x.size:] = 0.0
    planes[0, :x.size] = x.real
    planes[1, :x.size] = x.imag
    held = planes.reshape(2 * rows, SPS)
    y = serial_matmul(held, phases[0])
    # The output holds as many floats as y, so each shift's product goes
    # into its buffer before the sums are written there.
    out = np.empty(rows * SPS, complex)
    product = out.view(float).reshape(held.shape)
    for d in range(1, phases.shape[0]):
        # Input rows [0, end - d) meet phase d in output rows [d, end).
        y[d:] += serial_matmul(held[:-d], phases[d], product[d:])
    y = y.reshape(2, -1)
    out = out[:x.size + pulse.taps.size - 1]
    out.real = y[0, :out.size]
    out.imag = y[1, :out.size]
    return frame.replace(out)
