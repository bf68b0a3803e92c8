"""Receiver stage tests: AGC, notch, CFO, sync, and the full chain."""
import numpy as np
import pytest

from blesim.bits import random_bits
from blesim.channel import apply_cfo, apply_dc, awgn, interferer_at_rate, mix
from blesim.errors import NoSignalError, ParamError, SyncFailure
from blesim.channel import InterfererConfig
from blesim.gmsk import IqFrame, gaussian_taps, gmsk_modulate
from blesim.llpacket import (
    ADVERTISING_ACCESS_ADDRESS,
    ChannelIndex,
    LinkLayerPacket,
    assemble_uncoded,
)
from blesim.coded import assemble_coded
from blesim.phymode import PhyMode
from blesim.receiver import (
    AgcMode,
    ReceiverConfig,
    agc,
    coarse_cfo_estimate,
    dc_notch,
    receive,
    synchronize,
)

PULSE = gaussian_taps(0.5, 8)


def make_frame(mode=PhyMode.LE1M, pdu_bits=64, lead=200, seed=0, channel=37):
    rng = np.random.default_rng(seed)
    pdu = random_bits(pdu_bits, rng)
    pkt = LinkLayerPacket(ADVERTISING_ACCESS_ADDRESS, pdu, ChannelIndex(channel))
    bits = assemble_coded(pkt, mode) if mode.coded else assemble_uncoded(pkt, mode)
    tx = gmsk_modulate(bits, PULSE, symbol_rate=mode.symbol_rate)
    x = np.concatenate([np.zeros(lead, complex), tx.samples,
                        np.zeros(128, complex)])
    return IqFrame(x, tx.sample_rate, tx.symbol_rate), pdu


def default_cfg(mode=PhyMode.LE1M, pdu_bits=64, **kw):
    return ReceiverConfig(phy_mode=mode,
                          expected_access_address=ADVERTISING_ACCESS_ADDRESS,
                          channel=37, pdu_bits=pdu_bits, **kw)


def test_agc_fixed_point():
    rng = np.random.default_rng(51)
    x = np.exp(2j * np.pi * rng.random(4000))
    out = agc(IqFrame(x, 8e6, 1e6), AgcMode.FAST, 0.0)
    power_db = 10 * np.log10(np.mean(np.abs(out.samples[100:]) ** 2))
    assert abs(power_db) < 1.0


def test_agc_convergence_from_minus_40db():
    x = np.full(4000, 0.01 + 0j)  # -40 dB
    for mode, budget in ((AgcMode.FAST, 64), (AgcMode.SLOW, 1024)):
        out = agc(IqFrame(x, 8e6, 1e6), mode, 0.0).samples
        tail = np.abs(out[budget:]) ** 2
        assert np.all(np.abs(10 * np.log10(tail)) < 1.0), mode


def test_agc_step_reconvergence():
    x = np.concatenate([np.ones(2000, complex), 10.0 * np.ones(2000, complex)])
    out = agc(IqFrame(x, 8e6, 1e6), AgcMode.FAST, 0.0).samples
    settled = np.abs(out[2000 + 64:]) ** 2
    assert np.all(np.abs(10 * np.log10(settled)) < 1.0)


def test_dc_notch_kills_dc():
    radius = 0.995
    frame = IqFrame(np.full(8000, 1.0 + 0.5j), 8e6, 1e6)
    out = dc_notch(frame, radius).samples
    settle = int(5.0 / (1.0 - radius))
    assert np.all(np.abs(out[settle:]) < 0.01 * abs(1.0 + 0.5j))


def test_dc_notch_passes_band():
    fs = 8e6
    t = np.arange(60_000) / fs
    tone = np.exp(2j * np.pi * (fs / 4) * t)
    out = dc_notch(IqFrame(tone, fs, 1e6), 0.999).samples
    drop = 10 * np.log10(np.mean(np.abs(out[1000:]) ** 2))
    assert abs(drop) < 0.5
    zero = dc_notch(IqFrame(np.zeros(100, complex), fs, 1e6), 0.999)
    assert not zero.samples.any()


def test_dc_notch_radius_validation():
    frame = IqFrame(np.ones(10, complex), 8e6, 1e6)
    with pytest.raises(ParamError):
        dc_notch(frame, 0.5)


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


def _coarse_cfo_rolled(frame, max_offset_hz=None):
    """Oracle: the pair metric built by rolling the whole spectrum."""
    x, fs, rs = frame.samples, frame.sample_rate, frame.symbol_rate
    if max_offset_hz is None:
        max_offset_hz = rs / 4.0
    sq = x * x
    nfft = 1 << int(np.ceil(np.log2(2 * len(sq))))
    spec = np.abs(np.fft.fft(sq, nfft)) ** 2
    freqs = np.fft.fftfreq(nfft, 1.0 / fs)
    spec[np.abs(freqs) < rs / 8.0] = 0.0
    shift = int(round((rs / 2.0) / (fs / nfft)))
    pair = np.roll(spec, shift) + np.roll(spec, -shift)
    idx = np.flatnonzero(np.abs(freqs) <= 2.0 * max_offset_hz)
    k = idx[np.argmax(pair[idx])]
    km, kp = (k - 1) % nfft, (k + 1) % nfft
    denom = pair[km] - 2.0 * pair[k] + pair[kp]
    delta = 0.0 if denom == 0 else 0.5 * (pair[km] - pair[kp]) / denom
    return float((freqs[k] + delta * fs / nfft) / 2.0)


def test_coarse_cfo_matches_rolled_pair_metric():
    rng = np.random.default_rng(57)
    for trial in range(60):
        n = int(rng.integers(16, 20_000))
        rs = (1e6, 2e6)[trial % 2]
        frame = IqFrame(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                        8 * rs, rs)
        max_offset = (None, 100e3, 400e3)[trial % 3]
        assert (coarse_cfo_estimate(frame, max_offset_hz=max_offset)
                == _coarse_cfo_rolled(frame, max_offset))
    frame, _ = make_frame(seed=12)
    for offset in (-150e3, 0.0, 240e3):
        hit = apply_cfo(frame, offset)
        assert coarse_cfo_estimate(hit) == _coarse_cfo_rolled(hit)


def test_coarse_cfo_minus_100k():
    est = coarse_cfo_estimate(_cfo_probe(-100e3, snr_db=np.inf))
    assert abs(est - (-100e3)) < 10e3


def test_coarse_cfo_correlation_method():
    # The phase-increment average rides on the data's bit imbalance, so it
    # is coarser than the fft line search; hold it to a quarter of the
    # symbol rate peak to peak (+-Rs/8) and near-zero mean error.
    errors = []
    for seed in range(6):
        for true in (-100e3, 100e3):
            est = coarse_cfo_estimate(
                _cfo_probe(true, snr_db=np.inf, seed=seed), method="corr")
            assert abs(est - true) < 1e6 / 8
            errors.append(est - true)
    assert abs(np.mean(errors)) < 35e3
    with pytest.raises(ParamError):
        coarse_cfo_estimate(_cfo_probe(0.0), method="nope")


def test_coarse_cfo_no_signal():
    with pytest.raises(NoSignalError):
        coarse_cfo_estimate(IqFrame(np.zeros(5000, complex), 8e6, 1e6))
    with pytest.raises(NoSignalError):
        coarse_cfo_estimate(IqFrame(np.ones(8, complex), 8e6, 1e6))


@pytest.mark.parametrize("mode", list(PhyMode))
def test_synchronize_finds_injected_delay(mode):
    from blesim.gmsk import matched_filter

    cfg = default_cfg(mode)
    for seed, lead in ((1, 64), (2, 333), (3, 1021)):
        frame, _ = make_frame(mode, lead=lead, seed=seed)
        noisy = awgn(frame, 20.0, seed=seed)
        sync = synchronize(matched_filter(noisy, PULSE), cfg)
        assert abs(sync.timing_offset - lead) <= 1
        assert abs(sync.fine_cfo_hz) < 1e3


def test_synchronize_noise_only_fails():
    from blesim.gmsk import matched_filter

    rng = np.random.default_rng(55)
    noise = IqFrame(rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000),
                    8e6, 1e6)
    with pytest.raises(SyncFailure):
        synchronize(matched_filter(noise, PULSE), default_cfg())


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
    frame, _ = make_frame(seed=9)
    cfg = default_cfg()
    cfg.expected_access_address = 0xDEADBEEF
    report = receive(frame, cfg)
    # Sync template uses the expected address, so either the packet is
    # missed entirely or the address check fails; never crc_ok.
    assert not report.crc_ok
    if report.detected:
        assert not report.aa_ok


def test_receive_stage_trace_order():
    frame, _ = make_frame(seed=10)
    trace = []
    receive(frame, default_cfg(), trace=trace)
    names = [t[0] for t in trace]
    assert names == ["input", "agc", "dc_notch", "cfo_corrected",
                     "matched_filter", "synchronized"]
    assert names.index("cfo_corrected") < names.index("matched_filter")
    for _, f in trace:
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
            inter = interferer_at_rate(
                len(frame), InterfererConfig(seed=seed + 1), frame.sample_rate
            )
            hit = awgn(mix(frame, inter, -5.0), 20.0, seed=seed + 2)
            ok += int(receive(hit, default_cfg(mode)).crc_ok)
        rates[mode] = ok / n
    assert rates[PhyMode.LE125K] > rates[PhyMode.LE1M]
    assert rates[PhyMode.LE125K] > 0.5


def test_receiver_config_validation():
    with pytest.raises(ParamError):
        default_cfg(notch_radius=0.5)
    with pytest.raises(ParamError):
        default_cfg(preamble_detect_threshold=0.0)
    with pytest.raises(ParamError):
        default_cfg(pdu_bits=8)
    # Settings receive() would only trip over mid-campaign.
    with pytest.raises(ParamError, match="CFO method"):
        default_cfg(cfo_method="nope")
    with pytest.raises(ParamError):
        default_cfg(cfo_max_offset_hz=0.0)
    with pytest.raises(ParamError):
        default_cfg(pulse_bt=0.0)
    with pytest.raises(ParamError):
        default_cfg(agc_target_power_db=1e4)
    with pytest.raises(ValueError):
        default_cfg(agc_mode="medium")
    cfg = ReceiverConfig(phy_mode="LE500K", agc_mode="slow")
    assert cfg.phy_mode is PhyMode.LE500K
    assert cfg.agc_mode is AgcMode.SLOW
    # Default detect threshold tracks the sync reference length.
    assert cfg.preamble_detect_threshold == 0.45
    assert default_cfg(PhyMode.LE2M).preamble_detect_threshold == 0.75
