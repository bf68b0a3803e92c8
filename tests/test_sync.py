"""Preamble sync against the per-segment fftconvolve oracle, its fine-CFO
line against np.polyfit, receive() against the whole-stream reference
chain, and receive() robustness on arbitrary IQ."""
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import fftconvolve

from blesim import receiver
from blesim.bits import random_bits
from blesim.channel import (
    InterfererConfig,
    apply_cfo,
    awgn,
    los_profile,
    nlos_profile,
)
from blesim.coded import assemble_coded
from blesim.errors import SyncFailure
from blesim.gmsk import SPS, IqFrame, gaussian_taps, gmsk_modulate, matched_filter
from blesim.harness import ScenarioConfig, received_frame
from blesim.llpacket import ChannelIndex, LinkLayerPacket, assemble_uncoded
from blesim.phymode import PhyMode
from blesim.receiver import (
    PREAMBLE_PERIOD,
    PREAMBLE_WINDOW,
    SYNC_LEAD,
    STAGES,
    SYNC_NFFT,
    ReceiverConfig,
    _boundaries,
    _rotated_boundaries,
    _soft_differential,
    _template,
    expected_symbol_count,
    receive,
    reference_receive,
    synchronize,
)

PULSE = gaussian_taps()


def oracle_synchronize(frame, cfg):
    """(timing offset, peak, fine CFO) by one full-length fftconvolve per
    reference segment; raises SyncFailure below the detect threshold."""
    ref, segments = _template(cfg.phy_mode)[:2]
    x = frame.samples
    if len(x) < ref.size:
        raise SyncFailure("frame shorter than sync reference")
    n_lags = len(x) - ref.size + 1
    energy = np.concatenate([[0.0], np.cumsum(np.abs(x) ** 2)])
    num = np.zeros(n_lags)
    den = np.full(n_lags, 1e-30)
    seg_corrs = []
    for a, b in segments:
        r = ref[a:b]
        c = fftconvolve(x, np.conj(r[::-1]), mode="valid")[a:a + n_lags]
        seg_corrs.append(c)
        win = energy[b:][:n_lags] - energy[a:a + n_lags]
        num += np.abs(c)
        den += np.linalg.norm(r) * np.sqrt(np.maximum(win, 1e-30))
    rho = num / den
    tau = int(np.argmax(rho))
    peak = float(rho[tau])
    if peak < cfg.preamble_detect_threshold:
        raise SyncFailure("peak below threshold")
    phases = np.unwrap(np.array([np.angle(c[tau]) for c in seg_corrs]))
    weights = np.array([np.abs(c[tau]) for c in seg_corrs])
    times = np.array([(a + b) / 2.0 for a, b in segments]) / frame.sample_rate
    fine = 0.0
    if len(segments) >= 2 and weights.sum() > 0:
        fine = float(np.polyfit(times, phases, 1, w=weights)[0] / (2.0 * np.pi))
    return tau, peak, fine


def sync_outcome(fn, frame, cfg, **kwargs):
    try:
        return fn(frame, cfg, **kwargs)
    except SyncFailure:
        return None


def assert_matches_oracle(frame, cfg):
    want = sync_outcome(oracle_synchronize, frame, cfg)
    got = sync_outcome(synchronize, frame, cfg)
    assert (got is None) == (want is None)
    if want is not None:
        tau, peak, fine = want
        assert got.timing_offset == tau
        assert got.peak_correlation == pytest.approx(peak, abs=1e-9)
        assert got.fine_cfo_hz == pytest.approx(fine, abs=1e-9)


def tx_frame(mode, lead, seed, tail=128):
    rng = np.random.default_rng(seed)
    pkt = LinkLayerPacket(pdu=random_bits(64, rng), channel=ChannelIndex(37))
    bits = assemble_coded(pkt, mode) if mode.coded else assemble_uncoded(pkt, mode)
    tx = gmsk_modulate(bits, PULSE, symbol_rate=mode.symbol_rate)
    x = np.concatenate([np.zeros(lead, complex), tx.samples,
                        np.zeros(tail, complex)])
    return IqFrame(x, tx.sample_rate, tx.symbol_rate)


def rx_cfg(mode):
    return ReceiverConfig(phy_mode=mode, channel=37, pdu_bits=64)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mode=st.sampled_from(list(PhyMode)),
       lead=st.integers(0, 2000),
       cfo=st.floats(-50e3, 50e3),
       snr=st.floats(-6.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_synchronize_matches_oracle(mode, lead, cfo, snr, seed):
    frame = awgn(apply_cfo(tx_frame(mode, lead, seed), cfo), snr, seed=seed)
    assert_matches_oracle(matched_filter(frame, PULSE), rx_cfg(mode))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mode=st.sampled_from(list(PhyMode)),
       lead=st.integers(0, 2000),
       cfo=st.floats(-50e3, 50e3),
       snr=st.floats(-6.0, 30.0),
       seed=st.integers(0, 2**32 - 1),
       where=st.floats(0.0, 1.0))
def test_bounded_search_matches_full_search(mode, lead, cfo, snr, seed, where):
    # Lags 0..max_lag of the full search, to the bit: the full search's
    # tau whenever it lies within the bound, a miss whenever it misses,
    # and never a tau past the bound.  The bounds checked are the edges
    # around the full search's tau and one drawn over the whole frame.
    frame = awgn(apply_cfo(tx_frame(mode, lead, seed), cfo), snr, seed=seed)
    mf = matched_filter(frame, PULSE)
    cfg = rx_cfg(mode)
    full = sync_outcome(synchronize, mf, cfg)
    tau = lead if full is None else full.timing_offset
    n_lags = len(mf) - _ref_size(mode) + 1
    for max_lag in (-1, tau - 1, tau, tau + 1, int(where * n_lags)):
        if max_lag < 0:
            with pytest.raises(SyncFailure):
                synchronize(mf, cfg, max_lag=max_lag)
            continue
        got = sync_outcome(synchronize, mf, cfg, max_lag=max_lag)
        if got is not None:
            assert got.timing_offset <= max_lag
        if full is None or full.timing_offset <= max_lag:
            assert (got is None) == (full is None)
        if got is not None and full.timing_offset <= max_lag:
            assert got.timing_offset == full.timing_offset
            assert got.peak_correlation == full.peak_correlation
            assert got.fine_cfo_hz == full.fine_cfo_hz


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mode=st.sampled_from(list(PhyMode)),
       lead=st.integers(0, 500),
       cfo=st.floats(-5e3, 5e3),
       snr=st.floats(0.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_fine_cfo_rotation_matches_derotated_frame(mode, lead, cfo, snr, seed):
    # For a lag-SPS differential detector, a residual offset of w radians
    # per sample is the phase w*SPS on every product, so rotating the
    # products gives the soft values of the derotated frame.
    frame = awgn(apply_cfo(tx_frame(mode, lead, seed), cfo), snr, seed=seed)
    mf = matched_filter(frame, PULSE)
    cfg = rx_cfg(mode)
    sync = sync_outcome(synchronize, mf, cfg)
    if sync is None:
        return
    tau, fine, fs = sync.timing_offset, sync.fine_cfo_hz, mf.sample_rate
    derotated = mf.samples[tau:] * np.exp(
        -2j * np.pi * fine * np.arange(len(mf) - tau) / fs)
    start, count = 2 * PULSE.delay, expected_symbol_count(cfg)
    want = _soft_differential(_boundaries(derotated, start, count), count)
    got = _soft_differential(_boundaries(mf.samples[tau:], start, count), count,
                             phase_step=2.0 * np.pi * fine / fs)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mode=st.sampled_from(list(PhyMode)),
       lead=st.integers(0, 2000),
       cfo=st.floats(-50e3, 50e3),
       snr=st.floats(-6.0, 30.0),
       seed=st.integers(0, 2**32 - 1),
       where=st.floats(0.0, 1.0),
       width=st.integers(0, 400))
def test_windowed_search_matches_full_search(mode, lead, cfo, snr, seed,
                                             where, width):
    # Lags min_lag..max_lag, searched as lags 0..max_lag - min_lag of the
    # stream from min_lag on, split the frame into other overlap-save
    # blocks than the full search, so the correlations match it to
    # rounding: the full search's tau whenever it lies in the window, and
    # never a tau outside it.  The windows checked end on either side of
    # the full search's tau, and one is drawn over the whole frame.
    frame = awgn(apply_cfo(tx_frame(mode, lead, seed), cfo), snr, seed=seed)
    mf = matched_filter(frame, PULSE)
    cfg = rx_cfg(mode)
    full = sync_outcome(synchronize, mf, cfg)
    tau = lead if full is None else full.timing_offset
    n_lags = len(mf) - _ref_size(mode) + 1
    lo = int(where * (n_lags - 1))
    for window in ((tau - width, tau), (tau, tau + width),
                   (tau + 1, tau + 1 + width), (lo, min(lo + width, n_lags - 1))):
        min_lag, max_lag = max(window[0], 0), min(window[1], n_lags - 1)
        if min_lag > max_lag:
            continue
        got = sync_outcome(synchronize, mf.replace(mf.samples[min_lag:]), cfg,
                           max_lag=max_lag - min_lag)
        if got is not None:
            assert min_lag <= min_lag + got.timing_offset <= max_lag
        if full is not None and min_lag <= tau <= max_lag:
            assert min_lag + got.timing_offset == tau
            assert got.peak_correlation == pytest.approx(
                full.peak_correlation, abs=1e-9)
            assert got.fine_cfo_hz == full.fine_cfo_hz


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mode=st.sampled_from([PhyMode.LE1M, PhyMode.LE500K]),
       cfo=st.floats(-60e3, 60e3),
       start=st.floats(-np.pi, np.pi),
       data=st.data())
def test_fine_cfo_matches_polyfit(mode, cfo, start, data):
    # The closed-form line through the unwrapped segment phases against
    # np.polyfit on np.unwrap's phases, at the segment times of the
    # 5-segment LE1M and 10-segment LE500K references: correlations of
    # magnitudes 0.1 to 10 along a phase ramp of up to 60 kHz, which
    # wraps through +-pi, each turned by up to +-pi/2 off the ramp.
    # polyfit's own error grows with the spread of the weights: with
    # four weights of 1/256 and one of 1.5 it is 1.3e-9 Hz off the exact
    # rational slope, which the closed form meets to the bit.
    segments = _template(mode)[1]
    fs = SPS * mode.symbol_rate
    times = [(a + b) / 2.0 / fs for a, b in segments]
    n = len(segments)
    mags = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    turns = data.draw(st.lists(st.floats(-np.pi / 2, np.pi / 2), min_size=n,
                               max_size=n))
    corrs = [m * np.exp(1j * (start + 2.0 * np.pi * cfo * t + d))
             for m, t, d in zip(mags, times, turns)]
    want = np.polyfit(times, np.unwrap(np.angle(corrs)), 1,
                      w=np.abs(corrs))[0] / (2.0 * np.pi)
    assert receiver._fine_cfo(corrs, times) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("mode", list(PhyMode))
def test_single_segment_peak_gives_zero_fine_cfo_without_warning(mode):
    # Zeros but for the reference's first segment at lag 100: at the peak
    # only that segment's correlation is non-zero, so the segment phases
    # fix no line.  The fine CFO reads 0, and no warning is raised (a
    # warning fails the test).
    ref, segments = _template(mode)[:2]
    a, b = segments[0]
    x = np.zeros(ref.size + 200, complex)
    x[100 + a:100 + b] = ref[a:b]
    frame = IqFrame(x, SPS * mode.symbol_rate, mode.symbol_rate)
    sync = synchronize(frame, rx_cfg(mode))
    assert sync.timing_offset == 100
    assert sync.fine_cfo_hz == 0.0


@pytest.mark.parametrize("mode", list(PhyMode))
def test_receive_runs_without_a_least_squares_fit(mode):
    # The fine CFO is a closed-form line: receive() finds and decodes a
    # clean packet with numpy's fit, unwrap and least-squares solver made
    # to raise.
    frame = tx_frame(mode, 300, 17)
    with mock.patch.object(np, "polyfit", side_effect=AssertionError), \
            mock.patch.object(np, "unwrap", side_effect=AssertionError), \
            mock.patch.object(np.linalg, "lstsq", side_effect=AssertionError):
        report = receive(frame, rx_cfg(mode))
    assert report.crc_ok and report.timing_offset == 300


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 3000),
       first=st.integers(0, 3100),
       count=st.integers(0, 400),
       cfo=st.floats(-50e3, 50e3),
       seed=st.integers(0, 2**32 - 1),
       rates=st.sampled_from([(8e6, 1e6), (16e6, 2e6)]))
def test_rotated_boundaries_match_the_derotated_stream(n, first, count, cfo,
                                                       seed, rates):
    # Samples first + j*SPS of the whole derotated, matched-filtered
    # stream, each turned by e^{jw(first + j*SPS)}, as far as the stream
    # reaches: within 1e-12 of the input's scale, from before the first
    # full window to past the last sample, at the 1 Msym/s modes' rate
    # and at LE2M's.
    rng = np.random.default_rng(seed)
    x = IqFrame(rng.standard_normal(n) + 1j * rng.standard_normal(n), *rates)
    w = 2.0 * np.pi * cfo / x.sample_rate
    y = matched_filter(x.replace(x.samples * np.exp(-1j * w * np.arange(n))),
                       PULSE).samples
    at = np.arange(first, len(y), SPS)[:count + 1]
    got = _rotated_boundaries(x, PULSE, first, count, cfo)
    np.testing.assert_allclose(got, y[at] * np.exp(1j * w * at), rtol=0,
                               atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 14_000),
       at=st.floats(0.0, 1.0),
       width=st.integers(1, 3000),
       cfo=st.none() | st.floats(-60e3, 60e3),
       seed=st.integers(0, 2**32 - 1),
       rates=st.sampled_from([(8e6, 1e6), (16e6, 2e6)]))
@example(13_400, 0.5, 2700, 1234.5, 0, (8e6, 1e6))
@example(5, 0.0, 40, None, 1, (8e6, 1e6))
def test_filtered_slices_equal_the_whole_stream_to_the_bit(n, at, width, cfo,
                                                           seed, rates):
    # receive() filters only the spans it reads; from each of SPS
    # successive starts, so every start offset mod SPS, a span equals
    # the same samples of the whole derotated stream's matched filter,
    # to the bit.
    rng = np.random.default_rng(seed)
    x = IqFrame(rng.standard_normal(n) + 1j * rng.standard_normal(n), *rates)
    whole = x if cfo is None else x.replace(receiver._derotated(x, cfo, 0, n))
    y = matched_filter(whole, PULSE).samples
    first = int(at * (len(y) - 1))
    for lo in range(first, min(first + SPS, len(y))):
        hi = min(lo + width, len(y))
        got = receiver._filtered(x, PULSE, lo, hi, cfo)
        assert np.array_equal(got, y[lo:hi]), lo


# Frames at criterion 2's NLOS point and criterion 4's harshest WLAN
# point: the frames a campaign hands the receiver.
EXACT_CASES = {
    "nlos": ScenarioConfig(id="exact-nlos", seed=202, profile=nlos_profile(),
                           phy_modes=tuple(PhyMode), pdu_bits=128,
                           snr_sweep_db=(12.0,)),
    "wlan": ScenarioConfig(id="exact-wlan", seed=404, profile=los_profile(),
                           interferer=InterfererConfig(),
                           phy_modes=tuple(PhyMode), pdu_bits=128,
                           snr_sweep_db=(20.0,), sir_sweep_db=(-10.0,)),
}
EXACT_FRAMES = 100


def with_soft_values(chain, frame, rx):
    """chain(frame, rx) and the soft values its detector gave, None if it
    gave none."""
    seen = []

    def record(*args, **kwargs):
        seen.append(_soft_differential(*args, **kwargs))
        return seen[-1]

    with mock.patch.object(receiver, "_soft_differential", record):
        out = chain(frame, rx)
    assert len(seen) <= 1
    return out, (seen[0] if seen else None)


def assert_same_report(got, want):
    # Detection, timing, CFO and peak to the bit; the decisions equal.
    assert got.detected == want.detected
    assert got.timing_offset == want.timing_offset
    assert got.cfo_estimate_hz == want.cfo_estimate_hz
    assert got.peak_correlation == want.peak_correlation
    assert (got.aa_ok, got.crc_ok, got.reason) == (
        want.aa_ok, want.crc_ok, want.reason)
    assert (got.pdu is None) == (want.pdu is None)
    if got.pdu is not None:
        assert np.array_equal(got.pdu, want.pdu)


@pytest.mark.parametrize("mode", list(PhyMode))
@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_receive_matches_the_full_stream_chain(case, mode):
    # receive() filters only the spans sync reads, the symbol boundaries
    # and, in the coded modes, the acquisition head; the reference chain
    # filters whole streams.  receive()'s report is the reference's, and
    # its soft values match the reference's within 1e-9 of their scale,
    # with the same signs.
    scenario = EXACT_CASES[case]
    snr, sir = scenario.snr_sweep_db[0], (scenario.sir_sweep_db or (None,))[0]
    detected = 0
    for k in range(EXACT_FRAMES):
        frame, rx = received_frame(scenario, mode, snr, sir, k)
        report, got = with_soft_values(receive, frame, rx)
        (stages, ref), want = with_soft_values(reference_receive, frame, rx)
        assert_same_report(report, ref)
        assert (got is None) == (want is None) == (not ref.detected)
        if not ref.detected:
            continue
        detected += 1
        assert list(stages) == list(STAGES)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        assert np.array_equal(got > 0, want > 0)
    assert detected >= EXACT_FRAMES // 2


@pytest.mark.parametrize("mode", [PhyMode.LE1M, PhyMode.LE2M])
def test_uncoded_receive_derotates_no_whole_frame(mode):
    # The uncoded modes derotate only the spans that sync reads, as the
    # coded modes do, never the whole notch output.
    seen = []
    derotated = receiver._derotated

    def record(x, cfo_hz, a, b):
        seen.append((a, b, len(x)))
        return derotated(x, cfo_hz, a, b)

    scenario = EXACT_CASES["nlos"]
    with mock.patch.object(receiver, "_derotated", record):
        for k in range(20):
            receive(*received_frame(scenario, mode, scenario.snr_sweep_db[0],
                                    None, k))
    assert seen
    assert all(b - a < n for a, b, n in seen)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mode=st.sampled_from(list(PhyMode)),
       profile=st.sampled_from([None, los_profile, nlos_profile]),
       sir=st.none() | st.floats(-10.0, 10.0),
       snr=st.floats(-15.0, 30.0),
       pdu_bits=st.integers(16, 512),
       frame_idx=st.integers(0, 1000),
       cut=st.just(0.0) | st.floats(0.0, 1.0))
# Sync misses in an uncoded and a coded mode, and a frame cut to nothing.
@example(PhyMode.LE1M, nlos_profile, None, -15.0, 128, 0, 0.0)
@example(PhyMode.LE125K, nlos_profile, -10.0, -15.0, 128, 0, 0.0)
@example(PhyMode.LE500K, None, None, 30.0, 16, 0, 1.0)
def test_receive_matches_the_reference_chain(mode, profile, sir, snr, pdu_bits,
                                             frame_idx, cut):
    # Over modes, channels, PDU sizes and frames cut short, down to below
    # the shortest packet and to nothing: receive() reports what the
    # whole-stream chain does.
    scenario = ScenarioConfig(
        id="oracle", seed=7, phy_modes=(mode,), snr_sweep_db=(snr,),
        sir_sweep_db=None if sir is None else (sir,),
        profile=None if profile is None else profile(),
        interferer=None if sir is None else InterfererConfig(),
        pdu_bits=pdu_bits)
    frame, rx = received_frame(scenario, mode, snr, sir, frame_idx)
    frame = frame.replace(frame.samples[:len(frame) - int(cut * len(frame))])
    stages, want = reference_receive(frame, rx)
    assert_same_report(receive(frame, rx), want)
    assert list(stages) == list(STAGES[:len(stages)])


def _ref_size(mode):
    return _template(mode)[0].size


@pytest.mark.parametrize("mode", list(PhyMode))
def test_synchronize_frame_exactly_reference_length(mode):
    mf = matched_filter(tx_frame(mode, 0, 3), PULSE)
    frame = mf.replace(mf.samples[:_ref_size(mode)])
    assert_matches_oracle(frame, rx_cfg(mode))
    assert synchronize(frame, rx_cfg(mode)).timing_offset == 0


@pytest.mark.parametrize("mode", list(PhyMode))
def test_synchronize_one_sample_short_fails(mode):
    mf = matched_filter(tx_frame(mode, 0, 4), PULSE)
    frame = mf.replace(mf.samples[:_ref_size(mode) - 1])
    with pytest.raises(SyncFailure):
        synchronize(frame, rx_cfg(mode))


@pytest.mark.parametrize("mode", list(PhyMode))
def test_synchronize_at_overlap_save_block_boundary(mode):
    cfg = rx_cfg(mode)
    segments = _template(mode)[1]
    step = SYNC_NFFT - (segments[0][1] - segments[0][0]) + 1
    # The lags of the last segment end exactly at the end of the fewest
    # blocks that hold them (one block for the uncoded modes), then spill
    # one sample into the next block.
    spread = segments[-1][0] - segments[0][0]
    fill_lags = -(-(spread + 1) // step) * step - spread
    # The packet starts at a lag both frames hold: 40 samples in where
    # that fits (the uncoded modes fill 193 lags), the last filled lag
    # otherwise (the coded modes fill 9).
    lead = min(40, fill_lags - 1)
    mf = matched_filter(tx_frame(mode, lead, 5, tail=4000), PULSE)
    for n_lags in (fill_lags, fill_lags + 1):
        frame = mf.replace(mf.samples[:_ref_size(mode) + n_lags - 1])
        assert_matches_oracle(frame, cfg)
        assert synchronize(frame, cfg).timing_offset == lead
    if not mode.coded:
        assert fill_lags + spread == step


@pytest.mark.parametrize("mode", [PhyMode.LE1M, PhyMode.LE125K])
def test_synchronize_where_a_segment_reads_another_block(mode):
    # Segment (a, b) reads its lags from block rows (a-p0)//step through
    # (a-p0+n_lags-1)//step.  The first row is fixed by a; the last moves
    # on by one where the frame grows past a multiple of step.  Check both
    # sides of every such length, for every segment, from ref.size to
    # ref.size + 2*step.
    cfg = rx_cfg(mode)
    ref, segments = _template(mode)[:2]
    step = SYNC_NFFT - (segments[0][1] - segments[0][0]) + 1
    p0 = segments[0][0]
    lengths = {ref.size, ref.size + 2 * step}
    for a, _ in segments:
        for n_lags in range(2, 2 * step + 2):
            if (a - p0 + n_lags - 1) % step == 0:
                lengths |= {ref.size + n_lags - 2, ref.size + n_lags - 1}
    frame = awgn(tx_frame(mode, 40, 6, tail=4000), 10.0, seed=6)
    mf = matched_filter(frame, PULSE)
    assert mf.samples.size >= ref.size + 2 * step
    for length in sorted(lengths):
        assert_matches_oracle(mf.replace(mf.samples[:length]), cfg)


@pytest.mark.parametrize("mode", list(PhyMode))
def test_synchronize_with_the_peak_on_a_block_edge(mode):
    # Block i yields the first segment's correlations starting at lags
    # i*step + [0, step): put the packet at the last of those, on either
    # side, and as the first of the next block.
    cfg = rx_cfg(mode)
    segments = _template(mode)[1]
    step = SYNC_NFFT - (segments[0][1] - segments[0][0]) + 1
    for lead in (step - 2, step - 1, step, step + 1):
        frame = awgn(tx_frame(mode, lead, lead), 20.0, seed=lead)
        mf = matched_filter(frame, PULSE)
        assert_matches_oracle(mf, cfg)
        assert abs(synchronize(mf, cfg).timing_offset - lead) <= 1


@pytest.mark.parametrize("mode", list(PhyMode))
def test_receive_never_raises_on_zero_and_tiny_input(mode):
    cfg = rx_cfg(mode)
    fs = SPS * mode.symbol_rate
    for n in (0, 1, 15, 16, 17, 1000, 20_000):
        for level in (0.0, 1e-300, 1e-20):
            x = np.full(n, level * (1 + 1j))
            rep = receive(IqFrame(x, fs, mode.symbol_rate), cfg)
            assert not rep.detected and not rep.crc_ok
            assert rep.reason
    # A noise-free packet after a long silence, found where it starts.
    x = tx_frame(mode, 20_000, 9).samples
    rep = receive(IqFrame(x, fs, mode.symbol_rate), cfg)
    assert rep.crc_ok and rep.timing_offset == 20_000
    # Real packets cut to the sync reference's length and to lengths
    # around the shortest packet the receiver searches for, counted after
    # the matched filter.  A packet at lag 0 is found once it fits; one
    # that starts past the reference's length is found at none of them.
    shortest = expected_symbol_count(cfg, 2) * SPS
    grow = PULSE.taps.size - 1
    late = _ref_size(mode) + 8
    for lead in (0, late):
        clean = tx_frame(mode, lead, 8).samples
        for length in (_ref_size(mode), shortest - 1, shortest, shortest + 1):
            rep = receive(IqFrame(clean[:length - grow], fs, mode.symbol_rate),
                          cfg)
            assert rep.detected == (lead == 0 and length >= shortest)
            assert rep.crc_ok <= rep.aa_ok <= rep.detected
            if not rep.detected:
                assert rep.reason


@pytest.mark.parametrize("mode", list(PhyMode))
def test_receive_never_detects_non_finite_input(mode):
    cfg = rx_cfg(mode)
    fs = SPS * mode.symbol_rate
    clean = tx_frame(mode, 300, 300).samples
    for bad in (np.nan, np.inf, -np.inf, complex(np.nan, 1.0),
                complex(0.0, -np.inf)):
        frames = [np.full(5000, bad, dtype=complex), clean.copy()]
        frames[1][len(clean) // 2] = bad
        for x in frames:
            rep = receive(IqFrame(x, fs, mode.symbol_rate), cfg)
            assert not rep.detected and not rep.crc_ok
            assert rep.peak_correlation is None
            assert rep.reason


NON_FINITE = [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mode=st.sampled_from(list(PhyMode)),
       n=st.integers(0, 6000),
       scale=st.sampled_from([1e-30, 1e-6, 1.0, 1e6, 1e200]),
       seed=st.integers(0, 2**32 - 1),
       poison=st.none() | st.sampled_from(NON_FINITE),
       where=st.floats(0.0, 1.0),
       sps=st.sampled_from([8, 8, 2, 16]),
       label=st.sampled_from(["mode", "mode", "other mode", "off grid"]))
def test_receive_never_raises_on_random_iq(mode, n, scale, seed, poison, where,
                                           sps, label):
    # The receiver takes the mode's symbol rate at SPS = 8; a frame at
    # another rate is reported, not raised.  "other mode" labels the frame
    # with the other symbol rate (16 Msps at 2 Msym/s against LE1M),
    # "off grid" puts it between whole samples per symbol (8.4 Msps at
    # 1 Msym/s).
    rng = np.random.default_rng(seed)
    x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if poison is not None and n:
        x[int(where * (n - 1))] = poison
    rs = mode.symbol_rate if label != "other mode" else 3e6 - mode.symbol_rate
    fs = (sps + 0.4 * (label == "off grid")) * rs
    # Nor does it warn: past about 1e154 a sample's power overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = receive(IqFrame(x, fs, rs), rx_cfg(mode))
    assert rep.crc_ok <= rep.aa_ok <= rep.detected
    if not rep.crc_ok:
        assert rep.reason
    if (poison is not None and n) or sps != 8 or label != "mode":
        assert not rep.detected
    if label == "other mode":
        assert rep.reason == (f"frame at {rs / 1e6:g} Msym/s, {mode.value} is "
                              f"{mode.symbol_rate / 1e6:g} Msym/s")
    elif label == "off grid":
        assert rep.reason == (f"frame at {sps + 0.4:g} samples per symbol, "
                              f"the receiver takes 8")
    elif sps != 8:
        assert rep.reason == (f"frame at {sps} samples per symbol, "
                              f"the receiver takes 8")


@pytest.mark.parametrize("mode", [PhyMode.LE500K, PhyMode.LE125K])
def test_coded_receive_with_energy_only_past_the_acquisition_head(mode):
    # Acquisition reads the matched-filter output up to `head` only, and
    # that output reads no input from `head` on: a frame silent before it
    # has no signal there, whatever follows.
    cfg = rx_cfg(mode)
    fs = SPS * mode.symbol_rate
    n = 20_000
    max_lag = n + PULSE.taps.size - 1 - expected_symbol_count(cfg, 2) * SPS
    head = max_lag + SYNC_LEAD + PREAMBLE_PERIOD + PREAMBLE_WINDOW
    assert 0 < head < n
    rng = np.random.default_rng(21)
    noise = rng.standard_normal(n - head) + 1j * rng.standard_normal(n - head)
    packet = tx_frame(mode, 0, 21, tail=0).samples[:n - head]
    for tail in (noise, packet):
        x = np.concatenate([np.zeros(head, complex), tail])
        frame = IqFrame(x, fs, mode.symbol_rate)
        rep = receive(frame, cfg)
        assert not rep.detected and rep.reason == "no signal"
        assert reference_receive(frame, cfg)[1].reason == "no signal"


@pytest.mark.parametrize("mode", [PhyMode.LE500K, PhyMode.LE125K])
def test_coded_receive_on_zeros_of_any_length(mode):
    # Every length up to 64 and every 41st up to 20,000, and either side
    # of each length where the coded path changes course: the sync
    # reference starting to fit, and the shortest packet starting to fit.
    cfg = rx_cfg(mode)
    fs = SPS * mode.symbol_rate
    grow = PULSE.taps.size - 1
    edges = (_ref_size(mode) - grow, expected_symbol_count(cfg, 2) * SPS - grow)
    lengths = set(range(65)) | set(range(0, 20_001, 41)) | {20_000}
    lengths |= {e + d for e in edges for d in (-1, 0, 1)}
    for n in sorted(lengths):
        rep = receive(IqFrame(np.zeros(n, complex), fs, mode.symbol_rate), cfg)
        assert not rep.detected and rep.reason, n
