"""Preamble sync against the per-segment fftconvolve oracle, and receive()
robustness on arbitrary IQ."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import fftconvolve

from blesim.bits import random_bits
from blesim.channel import apply_cfo, awgn
from blesim.coded import assemble_coded
from blesim.errors import SyncFailure
from blesim.gmsk import IqFrame, gaussian_taps, gmsk_modulate, matched_filter
from blesim.llpacket import ChannelIndex, LinkLayerPacket, assemble_uncoded
from blesim.phymode import PhyMode
from blesim.receiver import (
    ReceiverConfig,
    _reference,
    _template_spectra,
    receive,
    synchronize,
)

PULSE = gaussian_taps(0.5, 8)


def oracle_synchronize(frame, cfg):
    """(timing offset, peak, fine CFO) by one full-length fftconvolve per
    reference segment; raises SyncFailure below the detect threshold."""
    ref, segments = _reference(cfg.phy_mode, cfg.expected_access_address,
                               cfg.sps, cfg.pulse_bt, cfg.h)
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


def sync_outcome(fn, frame, cfg):
    try:
        return fn(frame, cfg)
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
        assert len(got.aligned) == len(frame) - tau


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


def _ref_size(mode):
    cfg = rx_cfg(mode)
    ref, _ = _reference(mode, cfg.expected_access_address, cfg.sps,
                        cfg.pulse_bt, cfg.h)
    return ref.size


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
    key = (mode, cfg.expected_access_address, cfg.sps, cfg.pulse_bt, cfg.h)
    _, segments = _reference(*key)
    nfft = _template_spectra(*key)[0]
    step = nfft - (segments[0][1] - segments[0][0]) + 1
    # The lags of the last segment end exactly at the end of the fewest
    # blocks that hold them (one block for the uncoded modes), then spill
    # one sample into the next block.
    spread = segments[-1][0] - segments[0][0]
    fill_lags = -(-(spread + 1) // step) * step - spread
    mf = matched_filter(tx_frame(mode, 40, 5, tail=4000), PULSE)
    for n_lags in (fill_lags, fill_lags + 1):
        frame = mf.replace(mf.samples[:_ref_size(mode) + n_lags - 1])
        assert_matches_oracle(frame, cfg)
        assert synchronize(frame, cfg).timing_offset == 40
    if not mode.coded:
        assert fill_lags + spread == step


@pytest.mark.parametrize("mode", list(PhyMode))
def test_synchronize_with_the_peak_on_a_block_edge(mode):
    # Block i yields the first segment's correlations starting at lags
    # i*step + [0, step): put the packet at the last of those, on either
    # side, and as the first of the next block.
    cfg = rx_cfg(mode)
    key = (mode, cfg.expected_access_address, cfg.sps, cfg.pulse_bt, cfg.h)
    _, segments = _reference(*key)
    step = _template_spectra(*key)[0] - (segments[0][1] - segments[0][0]) + 1
    for lead in (step - 2, step - 1, step, step + 1):
        frame = awgn(tx_frame(mode, lead, lead), 20.0, seed=lead)
        mf = matched_filter(frame, PULSE)
        assert_matches_oracle(mf, cfg)
        assert abs(synchronize(mf, cfg).timing_offset - lead) <= 1


@pytest.mark.parametrize("mode", list(PhyMode))
def test_receive_never_raises_on_zero_and_tiny_input(mode):
    cfg = rx_cfg(mode)
    for n in (0, 1, 15, 16, 17, 1000, 20_000):
        for level in (0.0, 1e-300, 1e-20):
            x = np.full(n, level * (1 + 1j))
            rep = receive(IqFrame(x, 8 * mode.symbol_rate, mode.symbol_rate),
                          cfg)
            assert not rep.detected and not rep.crc_ok
            assert rep.reason


@pytest.mark.parametrize("mode", list(PhyMode))
def test_receive_never_detects_non_finite_input(mode):
    cfg = rx_cfg(mode)
    fs = 8 * mode.symbol_rate
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
       scale=st.sampled_from([1e-30, 1e-6, 1.0, 1e6]),
       seed=st.integers(0, 2**32 - 1),
       poison=st.none() | st.sampled_from(NON_FINITE),
       where=st.floats(0.0, 1.0))
def test_receive_never_raises_on_random_iq(mode, n, scale, seed, poison, where):
    rng = np.random.default_rng(seed)
    x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if poison is not None and n:
        x[int(where * (n - 1))] = poison
    fs = 8 * mode.symbol_rate
    rep = receive(IqFrame(x, fs, mode.symbol_rate), rx_cfg(mode))
    assert rep.crc_ok <= rep.aa_ok <= rep.detected
    if not rep.crc_ok:
        assert rep.reason
    if poison is not None and n:
        assert not rep.detected
