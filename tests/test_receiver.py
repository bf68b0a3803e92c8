"""Receiver stage tests: AGC, notch, CFO, sync, and the full chain."""
import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import lfilter

from blesim.bits import int_to_bits, random_bits
from blesim.channel import (
    InterfererConfig,
    apply_cfo,
    apply_dc,
    awgn,
    interferer_at_rate,
    mix,
    nlos_profile,
)
from blesim.errors import NoSignalError, ParamError, SyncFailure
from blesim.gmsk import SPS, IqFrame, gaussian_taps, gmsk_modulate, matched_filter
from blesim.harness import ScenarioConfig, received_frame, wilson_interval
from blesim.llpacket import (
    ADVERTISING_ACCESS_ADDRESS,
    ChannelIndex,
    LinkLayerPacket,
    assemble_uncoded,
)
from blesim.coded import (
    CI_FIELD_BITS,
    CODING_SCHEMES,
    TERM_BITS,
    assemble_coded,
    block1_symbol_count,
    fec_encode,
    pattern_map,
)
from blesim.phymode import PhyMode
from blesim.receiver import (
    ACQUIRE_PEAKS,
    ACQUIRE_SHARE,
    ACQUIRE_SPACING,
    AGC_ALPHA,
    NOTCH_RADIUS,
    PREAMBLE_PERIOD,
    PREAMBLE_WINDOW,
    SYNC_LEAD,
    SYNC_TRAIL,
    STAGES,
    ReceiverConfig,
    _acquisition_head,
    _even_samples,
    _template,
    agc,
    coarse_cfo_estimate,
    dc_notch,
    expected_symbol_count,
    preamble_acquire,
    receive,
    reference_receive,
    synchronize,
)

PULSE = gaussian_taps()


def readdress(bits, mode, access_address):
    """A packet's on-air bits with another access address in them.

    Uncoded modes send the address in clear after the preamble; coded
    modes carry it in block 1, which is rebuilt from the new address.
    """
    bits = bits.copy()
    aa = int_to_bits(access_address, 32, lsb_first=True)
    start = mode.preamble_len
    if not mode.coded:
        bits[start:start + 32] = aa
        return bits
    ci = int_to_bits(CODING_SCHEMES[mode].ci, CI_FIELD_BITS, lsb_first=True)
    term = np.zeros(TERM_BITS, dtype=np.uint8)
    bits[start:start + block1_symbol_count()] = pattern_map(
        fec_encode(np.concatenate([aa, ci, term])), 8)
    return bits


def make_frame(mode=PhyMode.LE1M, pdu_bits=64, lead=200, seed=0, channel=37,
               access_address=ADVERTISING_ACCESS_ADDRESS):
    rng = np.random.default_rng(seed)
    pdu = random_bits(pdu_bits, rng)
    pkt = LinkLayerPacket(pdu, ChannelIndex(channel))
    bits = assemble_coded(pkt, mode) if mode.coded else assemble_uncoded(pkt, mode)
    if access_address != ADVERTISING_ACCESS_ADDRESS:
        bits = readdress(bits, mode, access_address)
    tx = gmsk_modulate(bits, PULSE, symbol_rate=mode.symbol_rate)
    x = np.concatenate([np.zeros(lead, complex), tx.samples,
                        np.zeros(128, complex)])
    return IqFrame(x, tx.sample_rate, tx.symbol_rate), pdu


def default_cfg(mode=PhyMode.LE1M, pdu_bits=64):
    return ReceiverConfig(phy_mode=mode, channel=37, pdu_bits=pdu_bits)


def test_agc_fixed_point():
    rng = np.random.default_rng(51)
    x = np.exp(2j * np.pi * rng.random(4000))
    out = agc(IqFrame(x, 8e6, 1e6))
    power_db = 10 * np.log10(np.mean(np.abs(out.samples[100:]) ** 2))
    assert abs(power_db) < 1.0


def test_agc_convergence_from_minus_40db():
    x = np.full(4000, 0.01 + 0j)  # -40 dB
    out = agc(IqFrame(x, 8e6, 1e6)).samples
    tail = np.abs(out[64:]) ** 2
    assert np.all(np.abs(10 * np.log10(tail)) < 1.0)


def test_agc_step_reconvergence():
    x = np.concatenate([np.ones(2000, complex), 10.0 * np.ones(2000, complex)])
    out = agc(IqFrame(x, 8e6, 1e6)).samples
    settled = np.abs(out[2000 + 64:]) ** 2
    assert np.all(np.abs(10 * np.log10(settled)) < 1.0)


def test_dc_notch_kills_dc():
    frame = IqFrame(np.full(8000, 1.0 + 0.5j), 8e6, 1e6)
    out = dc_notch(frame).samples
    settle = int(5.0 / (1.0 - NOTCH_RADIUS))
    assert np.all(np.abs(out[settle:]) < 0.01 * abs(1.0 + 0.5j))


def test_dc_notch_passes_band():
    fs = 8e6
    t = np.arange(60_000) / fs
    tone = np.exp(2j * np.pi * (fs / 4) * t)
    out = dc_notch(IqFrame(tone, fs, 1e6)).samples
    drop = 10 * np.log10(np.mean(np.abs(out[1000:]) ** 2))
    assert abs(drop) < 0.5
    zero = dc_notch(IqFrame(np.zeros(100, complex), fs, 1e6))
    assert not zero.samples.any()


def _lfilter_agc(x):
    """The AGC as scipy.signal.lfilter runs its power tracker."""
    if x.size == 0:
        return x.copy()
    a = AGC_ALPHA
    power = np.abs(x) ** 2
    zi = [(1.0 - a) * max(power[0], 1e-18)]
    p, _ = lfilter([a], [1.0, -(1.0 - a)], power, zi=zi)
    return x * np.sqrt(1.0 / np.maximum(p, 1e-18))


# The oracle for agc and dc_notch is lfilter.  The frames cross block
# edges (a step at sample 255 or 256 changes the level the carry brings
# into the next block), and their amplitudes span 1e-100 to 1e100; at
# 1e152 the AGC's unscaled block sums overflow and are redone scaled.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([0, 1, 255, 256, 257, 3 * 256 + 7, 60_000]),
       log_amp=st.floats(-100.0, 100.0),
       step_at=st.sampled_from([255, 256]),
       step_db=st.floats(-60.0, 60.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=3 * 256 + 7, log_amp=150.0, step_at=256, step_db=0.0, seed=1)
@example(n=3 * 256 + 7, log_amp=152.0, step_at=255, step_db=0.0, seed=2)
def test_agc_and_dc_notch_match_lfilter(n, log_amp, step_at, step_db, seed):
    rng = np.random.default_rng(seed)
    dc = rng.standard_normal() + 1j * rng.standard_normal()
    x = 10.0 ** log_amp * (rng.standard_normal(n) + 1j * rng.standard_normal(n) + dc)
    x[step_at:] *= 10.0 ** (step_db / 20.0)
    frame = IqFrame(x, 8e6, 1e6)
    notch = lfilter([1.0, -1.0], [1.0, -NOTCH_RADIUS], x)
    for got, want in ((agc(frame).samples, _lfilter_agc(x)),
                      (dc_notch(frame).samples, notch)):
        assert got.shape == want.shape
        assert np.isfinite(want).all()
        peak = np.abs(want).max(initial=0.0)
        assert np.all(np.abs(got - want) <= 1e-12 * peak)


def _one_pole_oracle(v, alpha, y0, gain=1.0, scale=0, difference=False):
    """receiver._one_pole's block recurrence with its buffer zeroed whole
    and every step on temporaries."""
    n, block = v.size, 256
    i = np.arange(block, dtype=float)
    g = gain * 2.0 ** -scale
    rise, fall = g * alpha ** -i, alpha ** i
    u = np.zeros((-(-n // block), block), np.result_type(v, float))
    u.ravel()[:n] = np.concatenate([v[:1], v[1:] - v[:-1]]) if difference else v
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.cumsum(u * rise, axis=1)
        carry, y_end = [], y0 * 2.0 ** -scale
        for end in u[:, -1].tolist():
            carry.append(alpha * y_end)
            y_end = float(fall[-1]) * (end + alpha * y_end)
        if not (scale or np.isfinite(y_end)):
            return _one_pole_oracle(v, alpha, y0, gain, 64, difference)
        y = ((u + np.array(carry)[:, None]) * fall).ravel()[:n]
        return y * 2.0 ** scale if scale else y


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 255, 256, 257, 3 * 256 + 7, 13_450]),
       log_amp=st.floats(-100.0, 100.0), seed=st.integers(0, 2**32 - 1))
@example(n=3 * 256 + 7, log_amp=152.0, seed=2)
@example(n=3 * 256 + 7, log_amp=-300.0, seed=3)
def test_agc_and_dc_notch_are_the_plain_recurrence_to_the_bit(n, log_amp, seed):
    # The AGC squares its magnitudes in place, and the recurrence fills
    # a buffer made empty and zeroes only its tail: the bits are those of
    # the recurrence written on temporaries.  (A tail left unzeroed could
    # make a block's sum non-finite and force the scaled pass, whose
    # 2**-64 takes samples near 1e-300 into subnormals.)
    rng = np.random.default_rng(seed)
    x = 10.0 ** log_amp * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    frame = IqFrame(x, 8e6, 1e6)
    with np.errstate(over="ignore"):
        power = np.abs(x) ** 2
    a = AGC_ALPHA
    p = _one_pole_oracle(power, 1.0 - a, max(float(power[0]), 1e-18), gain=a)
    want = x * np.sqrt(1.0 / np.maximum(p, 1e-18))
    assert np.array_equal(agc(frame).samples.view(np.uint64), want.view(np.uint64))
    notch = _one_pole_oracle(x, NOTCH_RADIUS, 0.0, difference=True)
    assert np.array_equal(dc_notch(frame).samples.view(np.uint64),
                          notch.view(np.uint64))


def _acquire_oracle(y, max_lag, fs):
    """preamble_acquire with every step on temporaries."""
    power = np.abs(y) ** 2
    d, w = PREAMBLE_PERIOD, PREAMBLE_WINDOW
    n = min(len(y) - d - w, max_lag + SYNC_LEAD) + 1
    if n < 1:
        return 0.0, []
    lagged = np.zeros(n + w, complex)
    np.cumsum(y[:n + w - 1] * np.conj(y[d:d + n + w - 1]), out=lagged[1:])
    p = lagged[w:] - lagged[:n]
    energy = np.zeros(n + d + w)
    np.cumsum(power[:n + d + w - 1], out=energy[1:])
    r = np.maximum(energy[w:] - energy[:-w], max(1e-9 * energy[-1], 1e-30))
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
    return -cmath.phase(p[starts[0]]) * fs / (2.0 * np.pi * d), sorted(starts)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mode=st.sampled_from([PhyMode.LE500K, PhyMode.LE125K]),
       snr_db=st.sampled_from([-5.0, 5.0, 30.0]),
       sir_db=st.sampled_from([None, -10.0]),
       tail=st.sampled_from([0, 3000]),
       max_lag=st.sampled_from([0, 500, 10**6]),
       seed=st.integers(0, 2**32 - 1))
def test_preamble_acquire_is_the_plain_metric_to_the_bit(mode, snr_db, sir_db,
                                                         tail, max_lag, seed):
    # Acquisition writes every step into arrays it holds and takes the
    # top value from its first argmax; the CFO and the starts are those
    # of the metric written on temporaries, to the bit.
    frame, _ = make_frame(mode=mode, pdu_bits=32, lead=300 + tail, seed=seed % 1000)
    if sir_db is not None:
        inter = interferer_at_rate(len(frame), frame.sample_rate, seed)
        frame = mix(frame, inter, sir_db)
    y = matched_filter(awgn(frame, snr_db, seed + 1), PULSE)
    cfo, starts = preamble_acquire(y, max_lag)
    want_cfo, want_starts = _acquire_oracle(y.samples, max_lag, y.sample_rate)
    assert starts == want_starts
    assert np.float64(cfo).view(np.uint64) == np.float64(want_cfo).view(np.uint64)


def _cfo_probe(offset_hz, snr_db=15.0, seed=1):
    frame, _ = make_frame(seed=seed)
    out = apply_cfo(frame, offset_hz)
    if np.isfinite(snr_db):
        out = awgn(out, snr_db, seed=seed + 9)
    return out


def test_coarse_cfo_zero_offset():
    est = coarse_cfo_estimate(_cfo_probe(0.0))
    assert abs(est) < 2e3


def test_coarse_cfo_plus_50k():
    ests = [coarse_cfo_estimate(_cfo_probe(50e3, seed=s)) for s in range(10)]
    assert all(40e3 < e < 60e3 for e in ests)


@pytest.mark.parametrize("offset", [-50e3, 50e3])
@pytest.mark.parametrize("mode, pdu_bits", [(PhyMode.LE2M, 64),
                                            (PhyMode.LE125K, 128)])
def test_coarse_cfo_50k_on_le2m_and_coded_frames(mode, pdu_bits, offset):
    # LE2M runs at fs 16 MHz; a 128-bit LE125K frame is about 13k samples,
    # six times an LE1M frame, so the FFT size differs from the LE1M tests.
    for seed in range(5):
        frame, _ = make_frame(mode, pdu_bits=pdu_bits, seed=seed)
        est = coarse_cfo_estimate(awgn(apply_cfo(frame, offset), 15.0,
                                       seed=seed + 9))
        assert abs(est - offset) < 10e3, (seed, est)


def _rolled_pair_search(frame):
    """Oracle's search: the pair metric built by rolling the whole
    spectrum, the window's bins (offsets up to rs/4) and the winning bin."""
    x, fs, rs = frame.samples, frame.sample_rate, frame.symbol_rate
    sq = x * x
    nfft = 1 << int(np.ceil(np.log2(2 * len(sq))))
    spec = np.abs(np.fft.fft(sq, nfft)) ** 2
    freqs = np.fft.fftfreq(nfft, 1.0 / fs)
    spec[np.abs(freqs) < rs / 8.0] = 0.0
    shift = int(round((rs / 2.0) / (fs / nfft)))
    pair = np.roll(spec, shift) + np.roll(spec, -shift)
    idx = np.flatnonzero(np.abs(freqs) <= rs / 2.0)
    return pair, freqs, idx, idx[np.argmax(pair[idx])]


def _coarse_cfo_rolled(frame):
    """Oracle: the pair metric built by rolling the whole spectrum."""
    pair, freqs, _, k = _rolled_pair_search(frame)
    nfft = pair.size
    km, kp = (k - 1) % nfft, (k + 1) % nfft
    denom = pair[km] - 2.0 * pair[k] + pair[kp]
    delta = 0.0 if denom == 0 else 0.5 * (pair[km] - pair[kp]) / denom
    return float((freqs[k] + delta * frame.sample_rate / nfft) / 2.0)


def test_coarse_cfo_matches_rolled_pair_metric():
    rng = np.random.default_rng(57)
    for trial in range(60):
        n = int(rng.integers(16, 20_000))
        rs = (1e6, 2e6)[trial % 2]
        frame = IqFrame(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                        8 * rs, rs)
        assert coarse_cfo_estimate(frame) == _coarse_cfo_rolled(frame)
    frame, _ = make_frame(seed=12)
    for offset in (-150e3, 0.0, 240e3):
        hit = apply_cfo(frame, offset)
        assert coarse_cfo_estimate(hit) == _coarse_cfo_rolled(hit)
    _, freqs, idx, _ = _rolled_pair_search(frame)
    # Offsets that put the pair's midpoint on each end of the search
    # window, where one of the winning bin's neighbours lies outside it,
    # and on either side of bin 0, where the window wraps: its first and
    # last bin in index order.
    ends = {"first": 0, "last": idx[-1],
            "lowest": idx[np.argmin(freqs[idx])],
            "highest": idx[np.argmax(freqs[idx])]}
    for name, k in ends.items():
        offset = freqs[k] / 2.0
        hit = apply_cfo(frame, offset)
        assert _rolled_pair_search(hit)[3] == k, name
        assert coarse_cfo_estimate(hit) == _coarse_cfo_rolled(hit)


def test_coarse_cfo_minus_100k():
    est = coarse_cfo_estimate(_cfo_probe(-100e3, snr_db=np.inf))
    assert abs(est - (-100e3)) < 10e3


def test_coarse_cfo_no_signal():
    with pytest.raises(NoSignalError):
        coarse_cfo_estimate(IqFrame(np.zeros(5000, complex), 8e6, 1e6))
    with pytest.raises(NoSignalError):
        coarse_cfo_estimate(IqFrame(np.ones(8, complex), 8e6, 1e6))


def _uncoded_estimate_frames(mode, count=40):
    """Notched uncoded frames as receive() estimates their CFO from: as in
    acceptance criterion 5 (AWGN at 15 dB, a CFO of up to +-50 kHz), in
    NLOS at 0 dB and with the WLAN interferer at SIR -10 dB."""
    rng = np.random.default_rng(505)
    for _ in range(count):
        pkt = LinkLayerPacket(random_bits(128, rng), ChannelIndex(9))
        tx = gmsk_modulate(assemble_uncoded(pkt, mode), PULSE,
                           symbol_rate=mode.symbol_rate)
        lead = int(rng.integers(100, 2000))
        frame = tx.replace(np.concatenate([np.zeros(lead, complex), tx.samples,
                                           np.zeros(128, complex)]))
        frame = awgn(apply_cfo(frame, float(rng.uniform(-50e3, 50e3))), 15.0,
                     seed=int(rng.integers(2**63)))
        yield dc_notch(agc(frame))
    cases = (
        (ScenarioConfig(id="drift-nlos", seed=11, profile=nlos_profile(),
                        phy_modes=(mode,), snr_sweep_db=(0.0,)), 0.0, None),
        (ScenarioConfig(id="drift-wlan", seed=12, interferer=InterfererConfig(),
                        phy_modes=(mode,), snr_sweep_db=(20.0,),
                        sir_sweep_db=(-10.0,)), 20.0, -10.0),
    )
    for cfg, snr, sir in cases:
        for k in range(count):
            yield dc_notch(agc(received_frame(cfg, mode, snr, sir, k)[0]))


@pytest.mark.parametrize("mode", [PhyMode.LE1M, PhyMode.LE2M])
def test_half_rate_estimate_stays_on_the_full_rate_one(mode):
    # receive() estimates from the matched filter's even samples, at half
    # the sample rate and half the FFT.  On these frames it moved by at
    # most 0.005 Hz from the full-rate estimate; a quarter-rate copy moved
    # it by up to 46 Hz.
    gaps = []
    for x in _uncoded_estimate_frames(mode):
        y = matched_filter(x, PULSE)
        full = coarse_cfo_estimate(y)
        half = coarse_cfo_estimate(_even_samples(y))
        gaps.append(abs(half - full))
    assert max(gaps) < 0.1, f"{max(gaps):.3f} Hz"


@pytest.mark.parametrize("mode", [PhyMode.LE500K, PhyMode.LE125K])
def test_preamble_cfo_accuracy(mode):
    # AWGN at 15 dB, 20 packets at each offset from -50 to +50 kHz in
    # 10 kHz steps.  The first measured run read 65 Hz RMS and 182 Hz at
    # most in both modes; the gates are about 1.5 times those.  A
    # candidate start puts the packet's start inside its sync window.
    lead = 200
    errors = []
    for seed in range(20):
        frame, _ = make_frame(mode, pdu_bits=128, lead=lead, seed=seed)
        for offset in np.linspace(-50e3, 50e3, 11):
            noisy = awgn(apply_cfo(frame, offset), 15.0, seed=seed + 9)
            mf = matched_filter(noisy, PULSE)
            est, starts = preamble_acquire(mf, len(mf))
            errors.append(est - offset)
            assert any(-SYNC_TRAIL <= t - lead <= SYNC_LEAD for t in starts)
    errors = np.abs(errors)
    assert np.sqrt(np.mean(errors ** 2)) < 100.0
    assert errors.max() < 300.0


def test_preamble_acquire_no_signal():
    with pytest.raises(NoSignalError):
        preamble_acquire(IqFrame(np.zeros(5000, complex), 8e6, 1e6), 5000)
    # One sample short of a period plus a window: no start to read.
    frame = IqFrame(np.ones(575, complex), 8e6, 1e6)
    assert preamble_acquire(frame, 575) == (0.0, [])
    assert preamble_acquire(frame.replace(np.ones(576, complex)), 576)[1] == [0]


@pytest.mark.parametrize("mode", [PhyMode.LE500K, PhyMode.LE125K])
def test_acquisition_head_holds_every_start_read(mode):
    # receive() hands preamble_acquire only the head of the matched-filter
    # output.  Ten periods of a 64-sample pattern in noise, placed so that
    # the metric peaks at the last starts acquisition reads, give the
    # whole output's estimate from the head.
    cfg = default_cfg(mode, pdu_bits=128)
    rng = np.random.default_rng(12)
    n = 9000
    noise = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    pattern = np.exp(2j * np.pi * rng.random(PREAMBLE_PERIOD))
    length = n + PULSE.taps.size - 1
    max_lag = length - expected_symbol_count(cfg, 2) * SPS
    assert max_lag + SYNC_LEAD + 10 * PREAMBLE_PERIOD < n
    for start in (max_lag + 100, max_lag + 150, max_lag + SYNC_LEAD - 10):
        x = noise.copy()
        x[start:start + 10 * PREAMBLE_PERIOD] += np.tile(pattern, 10)
        mf = matched_filter(IqFrame(x, 8e6, 1e6), PULSE)
        head = mf.replace(mf.samples[:_acquisition_head(length, max_lag)])
        whole = preamble_acquire(mf, max_lag)
        assert preamble_acquire(head, max_lag) == whole
        assert whole[1] and whole[1][-1] > max_lag + SYNC_TRAIL


@pytest.mark.parametrize("mode", list(PhyMode))
def test_synchronize_finds_injected_delay(mode):
    cfg = default_cfg(mode)
    for seed, lead in ((1, 64), (2, 333), (3, 1021)):
        frame, _ = make_frame(mode, lead=lead, seed=seed)
        noisy = awgn(frame, 20.0, seed=seed)
        sync = synchronize(matched_filter(noisy, PULSE), cfg)
        assert abs(sync.timing_offset - lead) <= 1
        assert abs(sync.fine_cfo_hz) < 1e3


def test_synchronize_noise_only_fails():
    rng = np.random.default_rng(55)
    noise = IqFrame(rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000),
                    8e6, 1e6)
    with pytest.raises(SyncFailure):
        synchronize(matched_filter(noise, PULSE), default_cfg())


def test_noise_only_frames_are_rarely_detected():
    # False alarms at the fixed detect thresholds: frames of AWGN alone, as
    # long as a frame with a 128-bit PDU.  The first measured run detected
    # 0 of 300 in every mode; the gate is that run's 95% Wilson upper
    # bound, at most 3 of 300.
    frames = 300
    for key, mode in enumerate(PhyMode):
        n = len(make_frame(mode, pdu_bits=128)[0])
        cfg = default_cfg(mode, pdu_bits=128)
        rng = np.random.default_rng([55, key])
        detected = 0
        for _ in range(frames):
            noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            frame = IqFrame(noise, mode.symbol_rate * SPS, mode.symbol_rate)
            detected += receive(frame, cfg).detected
        assert detected / frames <= wilson_interval(0, frames)[1], (mode, detected)


@pytest.mark.parametrize("mode", list(PhyMode))
def test_silence_before_a_packet_is_not_detected(mode):
    # A noise-free frame with a long zero lead.  Over pure silence the
    # sync correlations are FFT round-off, which must read as 0, not as a
    # peak near the threshold; the packet after it is found where it
    # starts.
    lead = 50_000
    frame, pdu = make_frame(mode, lead=lead, seed=3)
    rep = receive(frame, default_cfg(mode))
    assert rep.crc_ok and rep.timing_offset == lead
    assert np.array_equal(rep.pdu, pdu)
    mf = matched_filter(dc_notch(agc(frame)), PULSE)
    silent = lead - _template(mode)[0].size  # the last lag that reads silence
    with pytest.raises(SyncFailure, match=r"^peak correlation 0\.000 "):
        synchronize(mf, default_cfg(mode), max_lag=silent)


def test_receive_clean_round_trip_all_modes():
    for mode in PhyMode:
        frame, pdu = make_frame(mode, seed=7)
        report = receive(frame, default_cfg(mode))
        assert report.detected and report.aa_ok and report.crc_ok, mode
        assert np.array_equal(report.pdu, pdu)


def test_receive_with_cfo_and_dc():
    for mode in PhyMode:
        frame, pdu = make_frame(mode, seed=8)
        hit = apply_dc(apply_cfo(frame, -50e3), -20.0, phase_rad=1.0)
        report = receive(hit, default_cfg(mode))
        assert report.crc_ok, mode
        assert np.array_equal(report.pdu, pdu)
        assert abs(report.cfo_estimate_hz + 50e3) < 2e3


def test_receive_report_hierarchy_on_garbage():
    rng = np.random.default_rng(56)
    cases = [
        IqFrame(np.zeros(0, complex), 8e6, 1e6),
        IqFrame(np.zeros(30_000, complex), 8e6, 1e6),
        IqFrame(rng.standard_normal(30_000) + 1j * rng.standard_normal(30_000),
                8e6, 1e6),
        IqFrame(np.ones(300, complex), 8e6, 1e6),
    ]
    for frame in cases:
        report = receive(frame, default_cfg())
        assert not report.crc_ok or report.aa_ok
        assert not report.aa_ok or report.detected
        # None of these contain a packet: the chain must give up before
        # validation and say why.
        assert not report.detected
        assert report.reason != ""


def test_receive_wrong_access_address_sets_flags():
    # The address's last bit on air flipped: the packet still syncs on
    # the advertising address's template, and the address check fails.
    for mode in PhyMode:
        frame, _ = make_frame(mode, seed=9,
                              access_address=ADVERTISING_ACCESS_ADDRESS ^ (1 << 31))
        report = receive(frame, default_cfg(mode))
        assert report.detected and not report.aa_ok, (mode, report.reason)
        assert not report.crc_ok
        assert report.reason == "access address mismatch"


def test_reference_receive_stage_order():
    # Every stage once sync finds the packet, up to the matched filter on
    # a sync miss (noise alone), and up to the DC notch with no signal.
    frame, _ = make_frame(seed=10)
    rng = np.random.default_rng(56)
    noise = frame.replace(rng.standard_normal(len(frame))
                          + 1j * rng.standard_normal(len(frame)))
    silence = frame.replace(np.zeros(len(frame), complex))
    assert STAGES == ("input", "agc", "dc_notch", "cfo_corrected",
                      "matched_filter", "synchronized")
    for x, reached, reason in ((frame, 6, ""), (noise, 5, "peak correlation"),
                               (silence, 3, "no signal")):
        stages, report = reference_receive(x, default_cfg())
        assert list(stages) == list(STAGES[:reached])
        assert report.detected == (reached == 6)
        assert report.reason.startswith(reason)
        assert stages["input"] is x
        for f in stages.values():
            assert isinstance(f, IqFrame)


def test_receive_deterministic():
    frame, _ = make_frame(seed=11)
    noisy = awgn(frame, 5.0, seed=3)
    a = receive(noisy, default_cfg())
    b = receive(noisy, default_cfg())
    assert (a.detected, a.aa_ok, a.crc_ok) == (b.detected, b.aa_ok, b.crc_ok)
    assert a.cfo_estimate_hz == b.cfo_estimate_hz
    assert a.timing_offset == b.timing_offset


def test_receive_low_snr_mostly_fails():
    ok = 0
    for seed in range(500):
        frame, _ = make_frame(pdu_bits=64, seed=seed)
        report = receive(awgn(frame, -5.0, seed=seed), default_cfg())
        ok += int(report.crc_ok)
    assert ok / 500 < 0.1


def test_coded_beats_uncoded_under_interference():
    # Co-channel interference at SIR -5 dB: the S=8 coded mode keeps
    # decoding long after the uncoded mode has collapsed.
    rates = {}
    for mode in (PhyMode.LE1M, PhyMode.LE125K):
        ok = 0
        n = 120
        for seed in range(n):
            frame, _ = make_frame(mode, seed=seed)
            inter = interferer_at_rate(len(frame), frame.sample_rate, seed + 1)
            hit = awgn(mix(frame, inter, -5.0), 20.0, seed=seed + 2)
            ok += int(receive(hit, default_cfg(mode)).crc_ok)
        rates[mode] = ok / n
    assert rates[PhyMode.LE125K] > rates[PhyMode.LE1M]
    assert rates[PhyMode.LE125K] > 0.5


def test_receiver_config_validation():
    with pytest.raises(ParamError):
        default_cfg(pdu_bits=8)
    # An unknown enum name is a ParamError that names the valid values.
    with pytest.raises(ParamError, match="'LE125K'"):
        ReceiverConfig(phy_mode="LE3M")
    cfg = ReceiverConfig(phy_mode="LE500K")
    assert cfg.phy_mode is PhyMode.LE500K
    # The detect threshold tracks the sync reference length.
    assert cfg.preamble_detect_threshold == 0.45
    assert default_cfg(PhyMode.LE2M).preamble_detect_threshold == 0.75


# Each link field's valid and boundary values, then its bool, float and
# out-of-range ones.
LINK_VALUES = {
    "channel": ([9, 0, 39], [True, 37.0, 1.5, -1, 40, 99]),
    "pdu_bits": ([64, 16, 2056], [True, 128.0, 15, 2057]),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mode=st.sampled_from(list(PhyMode)),
       link=st.fixed_dictionaries({
           key: st.one_of(*3 * [st.sampled_from(good)], st.sampled_from(bad))
           for key, (good, bad) in LINK_VALUES.items()}))
def test_receiver_config_that_constructs_decodes_a_clean_frame(mode, link):
    try:
        cfg = ReceiverConfig(phy_mode=mode, **link)
    except ParamError:
        return
    pdu = random_bits(cfg.pdu_bits, np.random.default_rng(5))
    pkt = LinkLayerPacket(pdu=pdu, channel=ChannelIndex(cfg.channel))
    bits = assemble_coded(pkt, mode) if mode.coded else assemble_uncoded(pkt, mode)
    tx = gmsk_modulate(bits, gaussian_taps(), symbol_rate=mode.symbol_rate)
    pad = np.zeros(32 * SPS, complex)
    report = receive(tx.replace(np.concatenate([pad, tx.samples, pad])), cfg)
    assert report.crc_ok, report.reason
