"""Receive chain: AGC, DC removal, CFO recovery, sync, demod, validation.

Stage order is fixed: AGC -> DC notch -> coarse CFO correction -> matched
filter -> preamble synchronization (timing + fine CFO) -> differential
demod -> FEC decode (coded modes) -> de-whitening -> AA/CRC validation.
The AGC's power tracker and the DC notch are one-pole recurrences, run
in numpy block by block (_one_pole); they equal scipy.signal.lfilter up
to rounding.  Frequency offset is corrected before the matched filter so
the filter passband actually covers the signal.  The uncoded modes
estimate the coarse CFO from the squared signal's spectrum, and sync
searches every lag at which the shortest packet the config can receive
still fits in the frame.  The coded modes acquire from the preamble's
repetition instead: its delay-and-correlate metric gives the coarse CFO
and a few candidate starts, and sync searches short lag windows around
them.  The fine CFO that sync estimates is applied by the differential
detector as one rotation of its lag-SPS products, not by derotating the
frame.

receive() computes only the samples it reads, in every mode: each sync
window derotates and filters the span that its overlap-save blocks
read, equal to the whole corrected stream's samples to the bit, and the
demodulator computes its symbol-boundary samples straight from the notch
output with CFO-rotated taps, equal to the whole stream's up to rounding
and each turned by a phase that the detector's one rotation takes out
with the fine CFO.  Coded acquisition filters only the head of the frame
that it reads.

reference_receive() is the same chain written plainly on whole streams,
and it returns every stage in STAGES that the frame reaches: the stage
captures of `blesim dump-stages` come from it, and the tests hold
receive() to it.

The matched filter and the sync template use the transmitter's
pulse and modulation index, gmsk.BT, gmsk.H and gmsk.SPAN, at gmsk.SPS
samples per symbol; the detector's +-pi/2 steps are those of H = 0.5.
The link is BLE's advertising one: the receiver expects the
advertising access address and CRC init.  All failures downstream of
the public API surface as report flags, never exceptions.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import bits_to_int
from .coded import (
    CODING_SCHEMES,
    assemble_coded,
    block1_symbol_count,
    block2_symbol_count,
    viterbi_decode,
)
from .errors import LengthError, NoSignalError, SyncFailure, check_enum, check_int
from .gmsk import (
    SPS,
    IqFrame,
    PulseShape,
    gaussian_taps,
    gmsk_modulate,
    matched_filter,
)
from .llpacket import (
    PDU_MAX_BITS,
    PDU_MIN_BITS,
    ChannelIndex,
    LinkLayerPacket,
    assemble_uncoded,
    validate_packet,
    whiten,
)
from .phymode import PhyMode


# The receiver is fixed: the AGC power tracker's pole (4 time constants
# settle it in 64 samples) and the DC notch's pole radius.
AGC_ALPHA = 1.0 / 16.0
NOTCH_RADIUS = 0.999

# Coded-mode acquisition.  The LE Coded preamble is ten repetitions of
# an 8-symbol pattern, so the matched-filter output correlated with
# itself one period later, over a window of eight periods, has a
# plateau on the preamble whose phase is the carrier offset (Schmidl
# and Cox, IEEE Trans. Commun. 45(12), 1997).  The phase wraps at
# +-fs/(2*PREAMBLE_PERIOD) = +-62.5 kHz, beyond the +-50 kHz that any
# frame carries (harness.CFO_MAX_HZ).
PREAMBLE_PERIOD = 8 * SPS
PREAMBLE_WINDOW = 8 * PREAMBLE_PERIOD
# Every coded symbol pattern (01/10 at S=2, 0011/1100 at S=8) turns the
# phase by a net 0, so a coded payload may hold stretches with the same
# period that outscore the preamble.  The metric therefore yields up to
# ACQUIRE_PEAKS candidate starts, each at least ACQUIRE_SHARE of the
# highest value and none within ACQUIRE_SPACING samples of a stronger
# one (the preamble is 640 samples long).  Over 4,400 frames (WLAN at
# SIR -10 to 0 dB, NLOS at 0 and 20 dB) an LE500K frame had a single
# candidate, and an LE125K frame's preamble ranked at most fourth.
ACQUIRE_PEAKS = 8
ACQUIRE_SHARE = 0.6
ACQUIRE_SPACING = 640
# Sync searches the lags t - SYNC_LEAD .. t + SYNC_TRAIL around a
# candidate t, earliest candidate first; the first window whose peak
# clears the detect threshold wins.  Over 8,000 LE500K and LE125K frames
# (AWGN at 0-15 dB, NLOS at 0-20 dB, WLAN at SIR -10 and 0 dB) the
# candidate nearest the packet lay 21 samples before to 147 after its
# start, 16 to 128 for 98% of them; the window keeps over 40 samples
# of margin on either side.
SYNC_LEAD = 192
SYNC_TRAIL = 64
# Sync correlates by overlap-save in blocks of SYNC_NFFT samples, in every
# mode: an uncoded search over a whole frame, or a coded one over one
# SYNC_LEAD + SYNC_TRAIL + 1 = 257-lag window.
SYNC_NFFT = 512

# The stages reference_receive() returns, in order; a frame with no
# signal stops after dc_notch and a sync miss after matched_filter.
STAGES = ("input", "agc", "dc_notch", "cfo_corrected", "matched_filter",
          "synchronized")


@dataclass
class ReceiverConfig:
    phy_mode: PhyMode = PhyMode.LE1M
    channel: int = 37
    pdu_bits: int = 16

    def __post_init__(self):
        # Every field is checked here, since receive() itself never raises.
        self.phy_mode = check_enum("phy_mode", PhyMode, self.phy_mode)
        self.channel = ChannelIndex(self.channel).index
        self.pdu_bits = check_int("pdu_bits", self.pdu_bits, PDU_MIN_BITS, PDU_MAX_BITS)

    @property
    def preamble_detect_threshold(self) -> float:
        # The noise-only correlation ceiling depends on the reference
        # length.  On 300 packet-length AWGN frames per mode the largest
        # peaks were 0.646 (LE1M) and 0.608 (LE2M) for the short uncoded
        # preamble+AA template, 0.284 (LE500K) and 0.311 (LE125K) for the
        # long coded one; none was detected (tests/test_receiver.py gates
        # the false-alarm rate).
        return 0.45 if self.phy_mode.coded else 0.75


@dataclass
class SyncResult:
    # Offsets count from the start of the stream that was searched.
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


# The one-pole recurrences run in blocks of this many samples.
_BLOCK = 256


@lru_cache(maxsize=8)
def _pole_weights(alpha: float, gain: float):
    """gain*alpha**-i and alpha**i for i in [0, _BLOCK), read-only, and
    alpha**(_BLOCK-1)."""
    i = np.arange(_BLOCK, dtype=float)
    rise, fall = gain * alpha ** -i, alpha ** i
    rise.setflags(write=False)
    fall.setflags(write=False)
    return rise, fall, float(fall[-1])


def _one_pole(v: np.ndarray, alpha: float, y0, gain: float = 1.0,
              scale: int = 0) -> np.ndarray:
    """y[n] = alpha*y[n-1] + gain*v[n] from y[-1] = y0, for 0 < alpha < 1.

    lfilter([gain], [1, -alpha], v, zi=[alpha*y0]) up to rounding,
    computed block by block: within a block y is alpha**i times a
    cumulative sum of gain*v[i]*alpha**-i plus alpha times the last y of
    the block before, which a loop over the blocks carries forward.  The
    weights reach alpha**-255 (1.4e7 for the AGC's pole), so if a sum
    overflows, it is formed again with the weights and y0 scaled by
    2**-64, an exact power of two, and y scaled back: y then overflows
    only where the recurrence itself does.
    """
    n = v.size
    rise, fall, last = _pole_weights(alpha, gain * 2.0 ** -scale)
    u = np.zeros((-(-n // _BLOCK), _BLOCK), np.result_type(v, float))
    u.ravel()[:n] = v
    with np.errstate(over="ignore", invalid="ignore"):
        u *= rise
        np.cumsum(u, axis=1, out=u)
        # y at each block's end; an overflow anywhere in a block's sum
        # leaves that end, and so the last one, non-finite.
        carry, y_end = [], y0 * 2.0 ** -scale
        for end in u[:, -1].tolist():
            carry.append(alpha * y_end)
            y_end = last * (end + alpha * y_end)
        if not (scale or cmath.isfinite(y_end)):
            return _one_pole(v, alpha, y0, gain, 64)
        u += np.array(carry)[:, None]
        u *= fall
        y = u.ravel()[:n]
        if scale:
            y *= 2.0 ** scale
    return y


def agc(frame: IqFrame) -> IqFrame:
    """Normalize power to 1 with a one-pole tracker (pole AGC_ALPHA)."""
    x = frame.samples
    if len(x) == 0:
        return frame.replace(x.copy())
    a = AGC_ALPHA
    with np.errstate(over="ignore"):  # inf past |x| ~ 1.3e154, no warning
        power = np.abs(x) ** 2
    # Seed the tracker with the first sample's power to avoid a cold-start
    # spike, then clamp so silent stretches cannot produce infinite gain.
    p = _one_pole(power, 1.0 - a, max(float(power[0]), 1e-18), gain=a)
    p = np.maximum(p, 1e-18)
    return frame.replace(x * np.sqrt(1.0 / p))


def dc_notch(frame: IqFrame) -> IqFrame:
    """First-order complex notch at 0 Hz: (1 - z^-1) / (1 - r z^-1), r =
    NOTCH_RADIUS."""
    x = frame.samples
    v = x.copy()
    v[1:] -= x[:-1]
    return frame.replace(_one_pole(v, NOTCH_RADIUS, 0.0))


@lru_cache(maxsize=32)
def _cfo_search(nfft: int, fs: float, rs: float):
    """The bins coarse_cfo_estimate reads from an nfft-point spectrum.

    The search window (pair midpoints up to rs/2, so offsets up to rs/4)
    is a run of bins around 0 Hz; `bins` is that run in circular order
    with one more bin on each side, so a bin's neighbours sit next to it
    even where the run wraps through bin 0.  Returns the pair bins bins -+
    shift, which of them fall under rs/8 (muted, see coarse_cfo_estimate),
    the frequency of each bin, and the positions of the window's own bins
    in ascending bin order, the order in which the search meets them.
    """
    freqs = np.fft.fftfreq(nfft, 1.0 / fs)
    shift = int(round((rs / 2.0) / (fs / nfft)))
    window = np.flatnonzero(np.abs(freqs) <= rs / 2.0)
    signed = (window + nfft // 2) % nfft - nfft // 2
    bins = np.arange(signed.min() - 1, signed.max() + 2) % nfft
    pair_bins = np.stack([(bins - shift) % nfft, (bins + shift) % nfft])
    muted = np.abs(freqs[pair_bins]) < rs / 8.0
    tables = pair_bins, muted, freqs[bins], signed - signed.min() + 1
    for table in tables:
        table.setflags(write=False)
    return tables


def _require_signal(power: np.ndarray) -> None:
    """Raise NoSignalError on a frame of sample powers `power` that is
    shorter than 16 samples or whose mean power is under 1e-15."""
    if power.size < 16 or float(np.mean(power)) < 1e-15:
        raise NoSignalError("not enough signal power for CFO estimation")


def coarse_cfo_estimate(frame: IqFrame) -> float:
    """Estimate carrier offset from the modulation-stripped (squared) signal.

    Squaring doubles the modulation index to 1, which concentrates energy
    in two lines at 2*cfo +- symbol_rate/2; the midpoint of that pair is
    twice the offset.  An FFT searches the pair's midpoint over offsets up
    to a quarter of the symbol rate; the power spectrum is formed only on
    the bins that search reads.
    """
    x = frame.samples
    _require_signal(np.abs(x) ** 2)
    fs = frame.sample_rate
    rs = frame.symbol_rate
    sq = x * x
    # A power of two keeps the pair shift rs/2 a whole number of bins:
    # fs/nfft = SPS*rs/nfft divides rs/2, since SPS is 8 and nfft is at
    # least 32.  next_fast_len sizes do not, and the pair metric then
    # misses its lines.
    nfft = 1 << int(np.ceil(np.log2(2 * len(sq))))
    spectrum = np.fft.fft(sq, nfft)
    pair_bins, muted, freqs, order = _cfo_search(nfft, fs, rs)
    power = np.abs(spectrum[pair_bins]) ** 2
    # Any residual DC offset squares to a line at 0 Hz which would alias
    # into the pair metric at +-rs/4; the genuine lines sit at
    # 2*cfo +- rs/2 and never come near 0 Hz for in-range offsets.
    power[muted] = 0.0
    pair = power[0] + power[1]
    i = order[np.argmax(pair[order])]
    # Parabolic refinement on the pair metric around the winning bin.
    below, peak, above = pair[i - 1:i + 2]
    denom = below - 2.0 * peak + above
    delta = 0.0 if denom == 0 else 0.5 * (below - above) / denom
    f2 = (freqs[i] + delta * fs / nfft)
    return float(f2 / 2.0)


def preamble_acquire(frame: IqFrame, max_lag: int) -> tuple[float, list[int]]:
    """Coarse CFO and candidate packet starts of a coded frame.

    With D = PREAMBLE_PERIOD and L = PREAMBLE_WINDOW, P(t) is the sum of
    y[t+m]*conj(y[t+m+D]) over m < L and the metric is |P| over the root
    of the energies of the two windows, both formed by cumulative sums.
    Only starts t <= max_lag + SYNC_LEAD are read, since a later one
    leaves sync no lag to search, so only the first max_lag + SYNC_LEAD +
    D + L samples of y; receive() passes just those.  Returns the CFO
    -angle(P)*fs/(2*pi*D) at the highest metric value and the candidate
    starts (see ACQUIRE_PEAKS) in ascending order; no starts if the frame
    is shorter than D + L.  Raises NoSignalError on the terms
    coarse_cfo_estimate does, over the frame it is given.
    """
    y = frame.samples
    power = np.abs(y) ** 2
    _require_signal(power)
    d, w = PREAMBLE_PERIOD, PREAMBLE_WINDOW
    n = min(len(y) - d - w, max_lag + SYNC_LEAD) + 1
    if n < 1:
        return 0.0, []
    lagged = np.zeros(n + w, complex)
    np.cumsum(y[:n + w - 1] * np.conj(y[d:d + n + w - 1]), out=lagged[1:])
    p = lagged[w:] - lagged[:n]
    energy = np.zeros(n + d + w)
    np.cumsum(power[:n + d + w - 1], out=energy[1:])
    r = energy[w:] - energy[:-w]
    # Over exact silence both sums stay 0; past a signal their
    # differences are round-off of the running sums, so windows with
    # less than 1e-9 of the energy read count as silent.
    r = np.maximum(r, max(1e-9 * energy[-1], 1e-30))
    metric = np.abs(p) / np.sqrt(r[:n] * r[d:])
    top = float(metric.max())
    starts = []
    while len(starts) < ACQUIRE_PEAKS:
        t = int(np.argmax(metric))
        if not metric[t] > 0 or metric[t] < ACQUIRE_SHARE * top:
            break
        starts.append(t)
        metric[max(t - ACQUIRE_SPACING, 0):t + ACQUIRE_SPACING + 1] = 0.0
    if not starts:
        return 0.0, []
    cfo = -cmath.phase(p[starts[0]]) * frame.sample_rate / (2.0 * np.pi * d)
    return cfo, sorted(starts)


@lru_cache(maxsize=4)
def _template(mode: PhyMode):
    """Known-waveform template for sync: preamble plus access-address part.

    The transmitter's symbols up to the end of the advertising access
    address; in coded modes that is the 80-symbol preamble and the first
    256 symbols of the S=8 first FEC block, which the causal encoder
    derives from the address alone.  Returns the matched-filtered samples,
    the segments' sample ranges for piecewise-coherent correlation, and
    their conjugate SYNC_NFFT-point spectra and norms.
    """
    pulse = gaussian_taps()
    assemble, aa_symbols, seg_sym = (
        (assemble_coded, 256, 32) if mode.coded else (assemble_uncoded, 32, 8))
    bits = assemble(LinkLayerPacket(), mode)[:mode.preamble_len + aa_symbols]
    ref = matched_filter(gmsk_modulate(bits, pulse), pulse).samples
    d = 2 * pulse.delay
    n_seg = bits.size // seg_sym
    seg_len = seg_sym * SPS
    segments = tuple((d + i * seg_len, d + (i + 1) * seg_len) for i in range(n_seg))
    spectra = np.conj(np.fft.fft([ref[a:b] for a, b in segments], SYNC_NFFT,
                                 axis=1))
    spectra.setflags(write=False)
    norms = tuple(float(np.linalg.norm(ref[a:b])) for a, b in segments)
    return ref, segments, spectra, norms


def _sync_lags(length: int, mode: PhyMode, max_lag: int | None) -> int:
    """How many lags synchronize searches in a stream of `length` samples;
    raises its SyncFailure if there are none."""
    size = _template(mode)[0].size
    if length < size:
        raise SyncFailure(f"frame ({length}) shorter than sync reference ({size})")
    n_lags = length - size + 1
    if max_lag is not None:
        if max_lag < 0:
            raise SyncFailure(
                f"frame ({length}) shorter than the shortest packet "
                f"({length - max_lag})")
        n_lags = min(n_lags, max_lag + 1)
    return n_lags


def _overlap_save(mode: PhyMode, n_lags: int) -> tuple[int, int, int]:
    """(step, blocks, read) of a search over n_lags lags: block i holds the
    SYNC_NFFT samples from p0 + i*step on, p0 the first segment's start,
    and the blocks reach `read` samples past the first lag."""
    segments = _template(mode)[1]
    step = SYNC_NFFT - (segments[0][1] - segments[0][0]) + 1
    p0 = segments[0][0]
    blocks = -(-(segments[-1][0] - p0 + n_lags) // step)
    return step, blocks, p0 + (blocks - 1) * step + SYNC_NFFT


def _sync_span(mode: PhyMode, n_lags: int) -> int:
    """Samples from its first lag on that a search over n_lags lags needs:
    those its blocks read, and enough that the reference fits at every
    lag."""
    return max(_overlap_save(mode, n_lags)[2],
               _template(mode)[0].size + n_lags - 1)


def synchronize(frame: IqFrame, cfg: ReceiverConfig,
                max_lag: int | None = None) -> SyncResult:
    """Locate the packet and estimate residual CFO from the preamble region.

    The reference is split into short segments that are correlated
    coherently and combined non-coherently, so the search tolerates a few
    kHz of post-coarse frequency error; the phase ramp across segment
    correlations then gives the fine CFO.  The correlations run by
    overlap-save: one FFT of the frame's blocks is shared by every
    segment, each segment multiplies only the blocks that hold its lags,
    and one inverse FFT transforms every segment's products.

    The search covers the lags 0..max_lag at which the reference fits;
    None searches every lag.  A negative max_lag raises SyncFailure.
    Over the lags both searches cover, the correlations are the full
    search's to the bit.  A lag window lo..hi is searched on the stream
    from lo on, with max_lag hi - lo: that splits the stream into other
    blocks than a search from 0 and matches it to rounding.  The search
    reads only the first _sync_span samples, so that span alone gives the
    same tau, fine CFO and peak to the bit.  The fine CFO is returned,
    not applied: the differential detector takes it as a rotation.
    """
    ref, segments, spectra, norms = _template(cfg.phy_mode)
    n_lags = _sync_lags(len(frame), cfg.phy_mode, max_lag)
    x = frame.samples
    seg_len = segments[0][1] - segments[0][0]
    # Overlap-save: block i holds x[p0 + i*step:][:SYNC_NFFT] (zero-padded
    # past the end), and its first `step` outputs are a segment's
    # correlations starting at samples p0 + i*step + [0, step).  Segment
    # (a, b) needs those starting at a + [0, n_lags); each of them ends
    # inside x.
    step, n_blocks, read = _overlap_save(cfg.phy_mode, n_lags)
    p0 = segments[0][0]

    # The segments are contiguous and equally long, so they share the
    # energy of the seg_len samples starting at each lag; the sums run
    # over every sample the blocks read, which covers every window.
    # Over silence the correlations are FFT round-off, up to about 1e-16
    # of the blocks' amplitude, so a window with less than 1e-20 of
    # their energy counts as that much and silence reads near 0.
    energy = np.concatenate([[0.0], np.cumsum(np.abs(x[:read]) ** 2)])
    floor = max(1e-20 * energy[-1], 1e-30)
    rms = np.sqrt(np.maximum(energy[seg_len:] - energy[:-seg_len], floor))
    blocks = np.zeros((n_blocks, SYNC_NFFT), dtype=np.complex128)
    for i, row in enumerate(blocks):
        part = x[p0 + i * step:p0 + i * step + SYNC_NFFT]
        row[:part.size] = part
    np.fft.fft(blocks, axis=1, out=blocks)

    # Segment (a, b) reads its lags from block rows (a-p0)//step through
    # (a-p0+n_lags-1)//step only; its products fill the next rows of one
    # buffer, which is inverse-transformed at once.
    rows = [range((a - p0) // step, (a - p0 + n_lags - 1) // step + 1)
            for a, _ in segments]
    c = np.empty((sum(map(len, rows)), SYNC_NFFT), dtype=np.complex128)
    at = 0
    for r, spec in zip(rows, spectra):
        np.multiply(blocks[r.start:r.stop], spec, out=c[at:at + len(r)])
        at += len(r)
    np.fft.ifft(c, axis=1, out=c)
    mag = np.abs(c[:, :step])
    num = np.zeros(n_lags)
    den = np.full(n_lags, 1e-30)
    at = 0
    for (a, _), r, norm in zip(segments, rows, norms):
        offset = (a - p0) % step
        num += mag[at:at + len(r)].ravel()[offset:offset + n_lags]
        den += norm * rms[a:a + n_lags]
        at += len(r)
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
    return SyncResult(tau, fine, peak)


def _boundaries(mf_samples: np.ndarray, start: int, count: int) -> np.ndarray:
    """The matched-filter samples at the boundaries of symbols 0..count-1,
    whose decision instants are start + k*SPS, as far as the frame
    reaches (start >= SPS/2)."""
    return mf_samples[start - SPS // 2::SPS][:count + 1]


def _rotated_boundaries(x: IqFrame, pulse: PulseShape, first: int, count: int,
                        cfo_hz: float) -> np.ndarray:
    """Samples first + j*SPS, j <= count, of the matched filter's output on
    x derotated by cfo_hz, as far as that output reaches, each turned by
    e^{jw(first + j*SPS)}, w = 2*pi*cfo_hz/fs.

    Filtering x[n]e^{-jwn} with taps h[k] gives e^{-jwm} times x filtered
    with h[k]e^{jwk}, so the boundaries come from x and the rotated taps,
    and the turn is e^{jw*SPS} on every lag-SPS product (see
    _soft_differential).  The taps, padded to whole symbols, split into
    phases of SPS taps: each row of SPS input samples meets each phase in
    one small product, and each boundary sums one product per phase.
    """
    taps = pulse.taps.size
    n_phase = -(-taps // SPS)  # taps, in whole symbols
    n = max(min(count + 1, -(-(len(x) + taps - 1 - first) // SPS)), 0)
    rotated = np.zeros(n_phase * SPS, complex)
    rotated[:taps] = pulse.taps * np.exp(
        2j * np.pi * cfo_hz / x.sample_rate * np.arange(taps))
    # phases[s, q] meets row sample s: it is tap q*SPS + SPS-1-s.
    phases = rotated.reshape(n_phase, SPS)[:, ::-1].T
    # Row i holds the input from first + 1 + (i - n_phase)*SPS on, zero
    # outside the frame, and boundary j sums row j + n_phase-1-q with
    # phase q.
    rows = n + n_phase - 1
    base = first + 1 - n_phase * SPS
    lo, hi = max(base, 0), min(base + rows * SPS, len(x))
    held = np.zeros((rows, SPS), complex)
    if hi > lo:
        held.ravel()[lo - base:hi - base] = x.samples[lo:hi]
    # At most 1024 rows per product: OpenBLAS threads a product once m*n*k
    # passes about 65,536, and its threads then spin for milliseconds.
    products = np.empty((rows, n_phase), complex)
    for a in range(0, rows, 1024):
        np.matmul(held[a:a + 1024], phases, out=products[a:a + 1024])
    out = np.zeros(n, complex)
    for q in range(n_phase):
        out += products[n_phase - 1 - q:n_phase - 1 - q + n, q]
    return out


def _soft_differential(boundaries: np.ndarray, count: int,
                       phase_step: float = 0.0) -> np.ndarray:
    """Symbol-lag differential soft decisions of `count` symbols from the
    matched-filter samples at their boundaries (see _boundaries).

    Each symbol's +-pi/2 phase step accrues between its two boundaries, so
    the lag-SPS product is taken across boundary samples (decision instant
    -+ half a symbol): Im{y[c+SPS/2] conj(y[c-SPS/2])} lands on the
    imaginary axis with the bit as its sign and |y|^2 as a per-symbol
    reliability weight.  Unlike a frequency discriminator this degrades
    gracefully when an interferer is stronger than the signal, which is
    what lets the coded modes cash in their spreading and FEC gains at
    negative SIR.  Symbols whose boundaries lie past the frame read 0.

    A residual carrier offset of phase_step radians per sample turns
    every product by the same phase_step*SPS, so it is removed by one
    rotation of the products instead of a derotation of the samples.
    """
    y = np.zeros(count + 1, dtype=np.complex128)
    held = min(boundaries.size, count + 1)
    y[:held] = boundaries[:held]
    y0, y1 = y[:-1], y[1:]
    z = np.imag(y1 * np.conj(y0) * np.exp(-1j * phase_step * SPS))
    scale = float(np.mean(np.abs(y1[:held - 1]) ** 2)) if held > 1 else 0.0
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


def expected_symbol_count(cfg: ReceiverConfig, s: int = 8) -> int:
    """Symbols of a packet of cfg's PDU size, a coded one's block 2 at S=s.

    The demodulator reads the count at S=8, room for the slower scheme
    (extra entries are ignored).  The count at S=2 is the shortest packet
    the config can receive, since the CI field may announce either scheme.
    """
    mode = cfg.phy_mode
    if mode.coded:
        return mode.preamble_len + block1_symbol_count() + block2_symbol_count(
            cfg.pdu_bits, s
        )
    return mode.preamble_len + 32 + cfg.pdu_bits + 24


def _derotated(x: IqFrame, cfo_hz: float, a: int, b: int) -> np.ndarray:
    """Samples [a, b) of x with the carrier offset cfo_hz removed, by
    absolute sample index, so any slice equals the whole frame's."""
    n = np.arange(a, b)
    return x.samples[a:b] * np.exp(-2j * np.pi * cfo_hz * n / x.sample_rate)


def _filtered(x: IqFrame, pulse: PulseShape, lo: int, hi: int,
              cfo_hz: float | None = None) -> np.ndarray:
    """Samples [lo, hi) of the matched filter's output on x, derotated
    first by cfo_hz (by absolute sample index) if given.

    Output m reads the input from m - taps + 1 to m, and np.convolve forms
    each output from those samples alone, so filtering only the input
    that [lo, hi) reads gives the full call's samples to the bit.  The
    slice is at least `taps` long, or all of x: np.convolve swaps its
    operands when the second is the longer one.
    """
    taps = pulse.taps.size
    a = max(0, min(lo - taps + 1, len(x) - taps))
    b = min(len(x), max(hi, a + taps))
    part = x.samples[a:b] if cfo_hz is None else _derotated(x, cfo_hz, a, b)
    return matched_filter(x.replace(part), pulse).samples[lo - a:hi - a]


def _acquisition_head(length: int, max_lag: int) -> int:
    """How many samples of a matched-filter output `length` long
    preamble_acquire reads: its two windows at every start up to max_lag
    + SYNC_LEAD, and at least at start 0, so that a frame too short for
    any packet is still judged on its first samples."""
    return min(length, max(max_lag, 0) + SYNC_LEAD + PREAMBLE_PERIOD
               + PREAMBLE_WINDOW)


def _sync_windows(starts: list[int], max_lag: int) -> list[tuple[int, int]]:
    """The lag windows sync searches, in order: SYNC_LEAD before to
    SYNC_TRAIL after each candidate start, earliest first, or every lag
    at which the shortest packet fits."""
    windows = [(max(t - SYNC_LEAD, 0), min(t + SYNC_TRAIL, max_lag))
               for t in starts]
    return [w for w in windows if w[0] <= w[1]] or [(0, max_lag)]


def _frame_fault(frame: IqFrame, cfg: ReceiverConfig) -> str:
    """Why the receiver cannot take the frame at all, or "" if it can."""
    rs = cfg.phy_mode.symbol_rate
    if frame.symbol_rate != rs:
        return (f"frame at {frame.symbol_rate / 1e6:g} Msym/s, "
                f"{cfg.phy_mode.value} is {rs / 1e6:g} Msym/s")
    if frame.sample_rate != rs * SPS:
        return (f"frame at {frame.sample_rate / rs:g} samples per "
                f"symbol, the receiver takes {SPS}")
    if len(frame) == 0:
        return "empty frame"
    if not np.isfinite(frame.samples).all():
        return "non-finite samples"
    return ""


def _decoded(cfg: ReceiverConfig, tau: int, coarse: float, sync: SyncResult,
             soft: np.ndarray) -> RxPacketReport:
    """The report on a packet that sync found at tau: its timing, CFO and
    peak, and the packet decoded from its soft values and validated."""
    report = RxPacketReport(True, timing_offset=tau,
                            cfo_estimate_hz=coarse + sync.fine_cfo_hz,
                            peak_correlation=sync.peak_correlation)
    decode = _decode_coded if cfg.phy_mode.coded else _decode_uncoded
    try:
        aa_rx, clear = decode(soft, cfg)
        report.aa_ok, report.crc_ok = validate_packet(aa_rx, clear)
    except LengthError as exc:
        report.reason = str(exc)
        return report
    if report.crc_ok:
        report.pdu = clear[:-24]
    else:
        report.reason = ("crc check failed" if report.aa_ok
                         else "access address mismatch")
    return report


def receive(frame: IqFrame, cfg: ReceiverConfig) -> RxPacketReport:
    """Run the full chain on one frame; failures land in the report."""
    report = RxPacketReport(reason=_frame_fault(frame, cfg))
    if report.reason:
        return report
    x = dc_notch(agc(frame))
    pulse = gaussian_taps()
    mode = cfg.phy_mode
    # The matched filter's output is taps - 1 samples longer than x; the
    # last lag at which the shortest packet fits in it.
    length = len(x) + pulse.taps.size - 1
    max_lag = length - expected_symbol_count(cfg, 2) * SPS
    try:
        # Estimate from a band-limited scratch copy: out-of-band interference
        # would otherwise bury the squared-signal lines and the preamble's
        # repetition.  Acquisition reads only the head of that copy.
        if mode.coded:
            head = _filtered(x, pulse, 0, _acquisition_head(length, max_lag))
            coarse, starts = preamble_acquire(x.replace(head), max_lag)
        else:
            coarse, starts = coarse_cfo_estimate(matched_filter(x, pulse)), []
    except NoSignalError:
        report.reason = "no signal"
        return report
    # The stream that flows on is corrected first and matched-filtered
    # after; only the spans that sync reads and, in the demodulator, the
    # symbol boundaries are computed.
    for lo, hi in _sync_windows(starts, max_lag):
        try:
            n_lags = _sync_lags(length - lo, mode, hi - lo)
            stop = min(length, lo + _sync_span(mode, n_lags))
            span = _filtered(x, pulse, lo, stop, coarse)
            sync = synchronize(x.replace(span), cfg, max_lag=n_lags - 1)
            break
        except SyncFailure as exc:
            # The first window's text only: the exception's traceback
            # holds this frame, and keeping it would keep sync's arrays
            # alive until a GC pass.
            report.reason = report.reason or str(exc)
    else:
        return report
    tau, fine = lo + sync.timing_offset, sync.fine_cfo_hz
    count = expected_symbol_count(cfg)
    # The boundaries come turned by the coarse CFO, which the detector
    # removes together with the fine one.
    boundaries = _rotated_boundaries(
        x, pulse, tau + 2 * pulse.delay - SPS // 2, count, coarse)
    soft = _soft_differential(boundaries, count, phase_step=2.0 * np.pi
                              * (coarse + fine) / x.sample_rate)
    return _decoded(cfg, tau, coarse, sync, soft)


def reference_receive(frame: IqFrame, cfg: ReceiverConfig
                      ) -> tuple[dict[str, IqFrame], RxPacketReport]:
    """receive()'s chain written plainly on whole streams: the stages the
    frame reaches, by their names in STAGES, and the report.

    Coded acquisition reads the same head of the first matched-filter
    output as in receive().  The synchronized stage is the corrected,
    matched-filtered stream from the packet start on, derotated by the
    fine CFO; the demodulator reads that stream and takes the fine CFO
    as its rotation.
    """
    stages: dict[str, IqFrame] = {}

    def keep(stage: IqFrame) -> IqFrame:
        stages[STAGES[len(stages)]] = stage
        return stage

    report = RxPacketReport(reason=_frame_fault(frame, cfg))
    if report.reason:
        return stages, report
    x = keep(dc_notch(keep(agc(keep(frame)))))
    pulse = gaussian_taps()
    first = matched_filter(x, pulse)
    max_lag = len(first) - expected_symbol_count(cfg, 2) * SPS
    try:
        if cfg.phy_mode.coded:
            head = first.samples[:_acquisition_head(len(first), max_lag)]
            coarse, starts = preamble_acquire(first.replace(head), max_lag)
        else:
            coarse, starts = coarse_cfo_estimate(first), []
    except NoSignalError:
        report.reason = "no signal"
        return stages, report
    corrected = keep(x.replace(_derotated(x, coarse, 0, len(x))))
    y = keep(matched_filter(corrected, pulse))
    for lo, hi in _sync_windows(starts, max_lag):
        try:
            sync = synchronize(y.replace(y.samples[lo:]), cfg, max_lag=hi - lo)
            break
        except SyncFailure as exc:
            report.reason = report.reason or str(exc)
    else:
        return stages, report
    tau, fine, fs = lo + sync.timing_offset, sync.fine_cfo_hz, y.sample_rate
    n = np.arange(len(y) - tau)
    keep(y.replace(y.samples[tau:] * np.exp(-2j * np.pi * fine * n / fs)))
    count = expected_symbol_count(cfg)
    soft = _soft_differential(_boundaries(y.samples[tau:], 2 * pulse.delay,
                                          count),
                              count, phase_step=2.0 * np.pi * fine / fs)
    return stages, _decoded(cfg, tau, coarse, sync, soft)
