"""Receive chain: AGC, DC removal, CFO recovery, sync, demod, validation.

Stage order is fixed: AGC -> DC notch -> coarse CFO correction -> matched
filter -> preamble synchronization (timing + fine CFO) -> differential
demod -> FEC decode (coded modes) -> de-whitening -> AA/CRC validation.
Frequency offset is corrected before the matched filter so the filter
passband actually covers the signal.  All failures downstream of the
public API surface as report flags, never exceptions.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.fft import fft, fftfreq, ifft
from scipy.signal import lfilter

from .bits import bits_to_int, int_to_bits
from .coded import (
    CODING_SCHEMES,
    block1_symbol_count,
    block2_symbol_count,
    viterbi_decode,
)
from .errors import (
    LengthError,
    NoSignalError,
    ParamError,
    RateMismatchError,
    SyncFailure,
)
from .gmsk import (
    IqFrame,
    PulseShape,
    gaussian_taps,
    gmsk_modulate,
    matched_filter,
)
from .llpacket import (
    ADVERTISING_ACCESS_ADDRESS,
    ADVERTISING_CRC_INIT,
    PDU_MAX_BITS,
    PDU_MIN_BITS,
    validate_packet,
    whiten,
)
from .phymode import PhyMode


class AgcMode(Enum):
    SLOW = "slow"
    FAST = "fast"

    @property
    def alpha(self) -> float:
        # Power-tracker pole; 4 time constants give the settling windows
        # (64 samples fast, 1024 slow).
        return 1.0 / 16.0 if self is AgcMode.FAST else 1.0 / 256.0


@dataclass
class ReceiverConfig:
    phy_mode: PhyMode = PhyMode.LE1M
    expected_access_address: int = ADVERTISING_ACCESS_ADDRESS
    channel: int = 37
    pdu_bits: int = 16
    crc_init: int = ADVERTISING_CRC_INIT
    agc_mode: AgcMode = AgcMode.FAST
    agc_target_power_db: float = 0.0
    notch_radius: float = 0.999
    preamble_detect_threshold: float | None = None
    sps: int = 8
    pulse_bt: float = 0.5
    h: float = 0.5
    cfo_method: str = "fft"
    cfo_max_offset_hz: float | None = None

    def __post_init__(self):
        self.agc_mode = AgcMode(self.agc_mode)
        self.phy_mode = PhyMode(self.phy_mode)
        if not 0.9 < self.notch_radius < 1.0:
            raise ParamError(f"notch radius {self.notch_radius} outside (0.9, 1)")
        if self.preamble_detect_threshold is None:
            # The noise-only correlation ceiling depends on the reference
            # length: the short uncoded preamble+AA template peaks near 0.70
            # on filtered noise, the long coded template near 0.31.
            self.preamble_detect_threshold = (
                0.45 if self.phy_mode.coded else 0.75
            )
        if not 0.0 < self.preamble_detect_threshold <= 1.0:
            raise ParamError(
                f"detect threshold {self.preamble_detect_threshold} outside (0, 1]"
            )
        if not PDU_MIN_BITS <= self.pdu_bits <= PDU_MAX_BITS:
            raise ParamError(f"pdu_bits {self.pdu_bits} outside packet limits")
        if self.sps < 2:
            raise ParamError("sps must be >= 2")
        if self.cfo_method not in ("fft", "corr"):
            raise ParamError(f"unknown CFO method {self.cfo_method!r}")
        # Checked here, since receive() itself never raises.
        if not (-300.0 <= self.agc_target_power_db <= 300.0
                and 0.0 < self.pulse_bt <= 1.0 and 0.0 < self.h <= 1.0
                and (self.cfo_max_offset_hz is None or self.cfo_max_offset_hz > 0)):
            raise ParamError("need agc_target_power_db within +-300 dB, pulse_bt "
                             "and h in (0, 1], a positive cfo_max_offset_hz")


@dataclass
class SyncResult:
    aligned: IqFrame
    timing_offset: int
    fine_cfo_hz: float
    peak_correlation: float


@dataclass
class RxPacketReport:
    """Per-frame outcome; crc_ok implies aa_ok implies detected."""

    detected: bool = False
    aa_ok: bool = False
    crc_ok: bool = False
    pdu: np.ndarray | None = None
    cfo_estimate_hz: float | None = None
    timing_offset: int | None = None
    peak_correlation: float | None = None
    reason: str = ""


def agc(frame: IqFrame, mode: AgcMode, target_power_db: float = 0.0) -> IqFrame:
    """Normalize power with a one-pole tracker (fast or slow attack)."""
    x = frame.samples
    if len(x) == 0:
        return frame.replace(x.copy())
    a = mode.alpha
    power = np.abs(x) ** 2
    # Seed the tracker with the first sample's power to avoid a cold-start
    # spike, then clamp so silent stretches cannot produce infinite gain.
    zi = np.array([(1.0 - a) * max(power[0], 1e-18)])
    p, _ = lfilter([a], [1.0, -(1.0 - a)], power, zi=zi)
    p = np.maximum(p, 1e-18)
    target = 10.0 ** (target_power_db / 10.0)
    return frame.replace(x * np.sqrt(target / p))


def dc_notch(frame: IqFrame, radius: float = 0.999) -> IqFrame:
    """First-order complex notch at 0 Hz: (1 - z^-1) / (1 - r z^-1)."""
    if not 0.9 < radius < 1.0:
        raise ParamError(f"notch radius {radius} outside (0.9, 1)")
    y = lfilter([1.0, -1.0], [1.0, -radius], frame.samples)
    return frame.replace(y)


def coarse_cfo_estimate(frame: IqFrame, method: str = "fft",
                        max_offset_hz: float | None = None) -> float:
    """Estimate carrier offset from the modulation-stripped (squared) signal.

    Squaring doubles the modulation index to 1, which concentrates energy
    in two lines at 2*cfo +- symbol_rate/2; the midpoint of that pair is
    twice the offset.  The correlation method reads the same quantity from
    the mean phase increment of the squared signal.
    """
    x = frame.samples
    if len(x) < 16 or float(np.mean(np.abs(x) ** 2)) < 1e-15:
        raise NoSignalError("not enough signal power for CFO estimation")
    fs = frame.sample_rate
    rs = frame.symbol_rate
    if max_offset_hz is None:
        max_offset_hz = rs / 4.0
    sq = x * x
    if method == "corr":
        acc = np.sum(sq[1:] * np.conj(sq[:-1]))
        return float(np.angle(acc) * fs / (4.0 * np.pi))
    if method != "fft":
        raise ParamError(f"unknown CFO method {method!r}")

    # A power of two keeps the pair shift rs/2 a whole number of bins
    # (fs/nfft divides rs/2 for a power-of-two sps); next_fast_len sizes
    # do not, and the pair metric then misses its lines.
    nfft = 1 << int(np.ceil(np.log2(2 * len(sq))))
    spec = np.abs(fft(sq, nfft)) ** 2
    freqs = fftfreq(nfft, 1.0 / fs)
    # Any residual DC offset squares to a line at 0 Hz which would alias
    # into the pair metric at +-rs/4; the genuine lines sit at
    # 2*cfo +- rs/2 and never come near 0 Hz for in-range offsets.
    spec[np.abs(freqs) < rs / 8.0] = 0.0
    shift = int(round((rs / 2.0) / (fs / nfft)))

    def pair(k):
        return spec[(k - shift) % nfft] + spec[(k + shift) % nfft]

    idx = np.flatnonzero(np.abs(freqs) <= 2.0 * max_offset_hz)
    k = idx[np.argmax(pair(idx))]
    # Parabolic refinement on the log-magnitude around the winning bin.
    below, peak, above = pair(np.array([k - 1, k, k + 1]))
    denom = below - 2.0 * peak + above
    delta = 0.0 if denom == 0 else 0.5 * (below - above) / denom
    f2 = (freqs[k] + delta * fs / nfft)
    return float(f2 / 2.0)


@lru_cache(maxsize=32)
def _pulse(bt: float, sps: int) -> PulseShape:
    return gaussian_taps(bt, sps)


@lru_cache(maxsize=32)
def _reference(mode: PhyMode, aa: int, sps: int, bt: float, h: float):
    """Known-waveform template for sync: preamble plus access-address part.

    Coded modes use the 80-symbol preamble and the (address-only prefix of
    the) S=8 first FEC block, both independent of payload.  Returns the
    matched-filtered samples and per-segment sample ranges used for
    piecewise-coherent correlation.
    """
    from .coded import fec_encode, pattern_map

    pulse = _pulse(bt, sps)
    if mode.coded:
        aa_bits = int_to_bits(aa, 32, lsb_first=True)
        coded_aa = pattern_map(fec_encode(aa_bits), 8)
        bits = np.concatenate([mode.preamble_bits(), coded_aa])
        seg_sym = 32
    else:
        bits = np.concatenate(
            [mode.preamble_bits(aa), int_to_bits(aa, 32, lsb_first=True)]
        )
        seg_sym = 8
    ref = matched_filter(gmsk_modulate(bits, pulse, h), pulse)
    d = 2 * pulse.delay
    n_seg = bits.size // seg_sym
    seg_len = seg_sym * sps
    segments = tuple((d + i * seg_len, d + (i + 1) * seg_len) for i in range(n_seg))
    return ref.samples, segments


@lru_cache(maxsize=16)
def _template_spectra(mode: PhyMode, aa: int, sps: int, bt: float, h: float):
    """Overlap-save block size, conjugate spectra and norms of the sync
    segments.

    The block size is fixed per mode (8x the segment length, rounded up to
    a power of two), so the cache holds one entry per reference whatever
    the frame lengths are.
    """
    ref, segments = _reference(mode, aa, sps, bt, h)
    seg_len = segments[0][1] - segments[0][0]
    nfft = 8 << int(np.ceil(np.log2(seg_len)))
    spectra = np.conj(fft([ref[a:b] for a, b in segments], nfft, axis=1))
    spectra.setflags(write=False)
    norms = tuple(float(np.linalg.norm(ref[a:b])) for a, b in segments)
    return nfft, spectra, norms


def synchronize(frame: IqFrame, cfg: ReceiverConfig) -> SyncResult:
    """Locate the packet and estimate residual CFO from the preamble region.

    The reference is split into short segments that are correlated
    coherently and combined non-coherently, so the search tolerates a few
    kHz of post-coarse frequency error; the phase ramp across segment
    correlations then gives the fine CFO.  The correlations run by
    overlap-save: one FFT of the frame's blocks is shared by every
    segment, and each segment costs one inverse FFT.
    """
    if frame.sps != cfg.sps:
        raise RateMismatchError(f"frame at {frame.sps} sps, config says {cfg.sps}")
    key = (cfg.phy_mode, cfg.expected_access_address, cfg.sps, cfg.pulse_bt, cfg.h)
    ref, segments = _reference(*key)
    x = frame.samples
    if len(x) < ref.size:
        raise SyncFailure(f"frame ({len(x)}) shorter than sync reference ({ref.size})")
    n_lags = len(x) - ref.size + 1
    nfft, spectra, norms = _template_spectra(*key)
    seg_len = segments[0][1] - segments[0][0]
    # The segments are contiguous and equally long, so they share the
    # energy of the seg_len samples starting at each lag.
    energy = np.concatenate([[0.0], np.cumsum(np.abs(x) ** 2)])
    rms = np.sqrt(np.maximum(energy[seg_len:] - energy[:-seg_len], 1e-30))

    # Overlap-save: block i holds x[p0 + i*step:][:nfft] (zero-padded past
    # the end), and its first `step` outputs are a segment's correlations
    # starting at samples p0 + i*step + [0, step).  Segment (a, b) needs
    # those starting at a + [0, n_lags); each of them ends inside x.
    step = nfft - seg_len + 1
    p0 = segments[0][0]
    n_blocks = -(-(segments[-1][0] - p0 + n_lags) // step)
    blocks = np.zeros((n_blocks, nfft), dtype=np.complex128)
    for i, row in enumerate(blocks):
        part = x[p0 + i * step:p0 + i * step + nfft]
        row[:part.size] = part
    blocks = fft(blocks, axis=1, overwrite_x=True)

    num = np.zeros(n_lags)
    den = np.full(n_lags, 1e-30)
    for (a, _), spec, norm in zip(segments, spectra, norms):
        c = ifft(blocks * spec, axis=1, overwrite_x=True)
        num += np.abs(c[:, :step]).ravel()[a - p0:a - p0 + n_lags]
        den += norm * rms[a:a + n_lags]
    rho = num / den
    tau = int(np.argmax(rho))
    peak = float(rho[tau])
    if peak < cfg.preamble_detect_threshold:
        raise SyncFailure(
            f"peak correlation {peak:.3f} below threshold "
            f"{cfg.preamble_detect_threshold:.3f}"
        )

    # Fine CFO: weighted slope of the segment correlation phases at tau.
    corrs = np.array([np.vdot(ref[a:b], x[tau + a:tau + b]) for a, b in segments])
    phases = np.unwrap(np.angle(corrs))
    weights = np.abs(corrs)
    times = np.array([(a + b) / 2.0 for a, b in segments]) / frame.sample_rate
    if len(segments) >= 2 and weights.sum() > 0:
        slope = np.polyfit(times, phases, 1, w=weights)[0]
        fine = float(slope / (2.0 * np.pi))
    else:
        fine = 0.0
    n = np.arange(len(x) - tau)
    aligned = frame.replace(
        x[tau:] * np.exp(-2j * np.pi * fine * n / frame.sample_rate)
    )
    return SyncResult(aligned, tau, fine, peak)


def _soft_differential(mf_samples: np.ndarray, sps: int, start: int,
                       count: int) -> np.ndarray:
    """Symbol-lag differential soft decisions from matched-filter output.

    Each symbol's +-pi/2 phase step accrues between its two boundaries, so
    the lag-sps product is taken across boundary samples (decision instant
    -+ half a symbol): Im{y[c+sps/2] conj(y[c-sps/2])} lands on the
    imaginary axis with the bit as its sign and |y|^2 as a per-symbol
    reliability weight.  Unlike a frequency discriminator this degrades
    gracefully when an interferer is stronger than the signal, which is
    what lets the coded modes cash in their spreading and FEC gains at
    negative SIR.
    """
    half = sps // 2
    hi = start + half + np.arange(count) * sps
    lo = hi - sps
    y1 = np.zeros(count, dtype=np.complex128)
    ok1 = hi < mf_samples.size
    y1[ok1] = mf_samples[hi[ok1]]
    y0 = np.zeros(count, dtype=np.complex128)
    ok0 = (lo >= 0) & (lo < mf_samples.size)
    y0[ok0] = mf_samples[lo[ok0]]
    z = np.imag(y1 * np.conj(y0))
    scale = float(np.mean(np.abs(y1[ok1]) ** 2)) if ok1.any() else 0.0
    return z / scale if scale > 0 else z


def _decode_uncoded(soft: np.ndarray, cfg: ReceiverConfig):
    """Received access address and de-whitened PDU+CRC of an uncoded frame."""
    p = cfg.phy_mode.preamble_len
    aa_rx = bits_to_int((soft[p:p + 32] > 0).astype(np.uint8), lsb_first=True)
    body = (soft[p + 32:] > 0).astype(np.uint8)
    return aa_rx, whiten(body, cfg.channel)


def _decode_coded(soft: np.ndarray, cfg: ReceiverConfig):
    """Received access address and de-whitened PDU+CRC of a coded frame.

    Block 2 is decoded with the scheme its CI field announces; a reserved
    CI value falls back to the mode's own scheme.
    """
    b1 = block1_symbol_count()
    p = cfg.phy_mode.preamble_len
    bits1 = viterbi_decode(soft[p:p + b1], 8)
    aa_rx = bits_to_int(bits1[:32], lsb_first=True)
    ci = bits_to_int(bits1[32:34], lsb_first=True)
    scheme = next(
        (c.s for c in CODING_SCHEMES.values() if c.ci == ci),
        CODING_SCHEMES[cfg.phy_mode].s,
    )
    n2 = block2_symbol_count(cfg.pdu_bits, scheme)
    bits2 = viterbi_decode(soft[p + b1:p + b1 + n2], scheme)
    return aa_rx, whiten(bits2[: cfg.pdu_bits + 24], cfg.channel)


def expected_symbol_count(cfg: ReceiverConfig) -> int:
    mode = cfg.phy_mode
    if mode.coded:
        # Reserve room for the slower scheme; extra entries are ignored.
        return mode.preamble_len + block1_symbol_count() + block2_symbol_count(
            cfg.pdu_bits, 8
        )
    return mode.preamble_len + 32 + cfg.pdu_bits + 24


def receive(frame: IqFrame, cfg: ReceiverConfig, trace: list | None = None
            ) -> RxPacketReport:
    """Run the full chain on one frame; failures land in the report."""
    report = RxPacketReport()
    if len(frame) == 0:
        report.reason = "empty frame"
        return report
    if not np.isfinite(frame.samples).all():
        report.reason = "non-finite samples"
        return report

    def _trace(name, f):
        if trace is not None:
            trace.append((name, f))

    _trace("input", frame)
    x = agc(frame, cfg.agc_mode, cfg.agc_target_power_db)
    _trace("agc", x)
    x = dc_notch(x, cfg.notch_radius)
    _trace("dc_notch", x)
    pulse = _pulse(cfg.pulse_bt, cfg.sps)
    try:
        # Estimate from a band-limited scratch copy: out-of-band interference
        # would otherwise bury the squared-signal lines.  The stream that
        # flows on is corrected first and matched-filtered after.
        coarse = coarse_cfo_estimate(
            matched_filter(x, pulse), cfg.cfo_method, cfg.cfo_max_offset_hz
        )
    except NoSignalError:
        report.reason = "no signal"
        return report
    n = np.arange(len(x))
    x = x.replace(x.samples * np.exp(-2j * np.pi * coarse * n / x.sample_rate))
    _trace("cfo_corrected", x)
    x = matched_filter(x, pulse)
    _trace("matched_filter", x)
    try:
        sync = synchronize(x, cfg)
    except SyncFailure as exc:
        report.reason = str(exc)
        return report
    _trace("synchronized", sync.aligned)

    report.detected = True
    report.timing_offset = sync.timing_offset
    report.cfo_estimate_hz = coarse + sync.fine_cfo_hz
    report.peak_correlation = sync.peak_correlation

    soft = _soft_differential(
        sync.aligned.samples, cfg.sps,
        start=2 * pulse.delay, count=expected_symbol_count(cfg),
    )
    decode = _decode_coded if cfg.phy_mode.coded else _decode_uncoded
    try:
        aa_rx, clear = decode(soft, cfg)
        report.aa_ok, report.crc_ok = validate_packet(
            aa_rx, cfg.expected_access_address, clear, cfg.crc_init
        )
    except LengthError as exc:
        report.reason = str(exc)
        return report
    if report.crc_ok:
        report.pdu = clear[:-24]
    else:
        report.reason = ("crc check failed" if report.aa_ok
                         else "access address mismatch")
    return report
