"""Channel impairment tests: noise calibration, fading statistics, WLAN
interference."""
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal, stats

from blesim.channel import (
    WLAN_BANDWIDTH_HZ,
    ChannelProfile,
    _ofdm_tones,
    _unit_noise,
    apply_cfo,
    apply_dc,
    awgn,
    channel_realization,
    fade,
    interferer_at_rate,
    interferer_inband_fraction,
    los_profile,
    measured_power,
    mix,
    nlos_profile,
    reverberant_profile,
)
from blesim.coded import assemble_coded
from blesim.errors import LengthError, ParamError
from blesim.gmsk import IqFrame, gaussian_taps, gmsk_modulate
from blesim.harness import LEAD, TAIL
from blesim.llpacket import PDU_MIN_BITS, LinkLayerPacket, assemble_uncoded
from blesim.phymode import PhyMode


def _tone(n=100_000, fs=8e6, f=1e5):
    t = np.arange(n) / fs
    return IqFrame(np.exp(2j * np.pi * f * t), fs, 1e6)


def test_awgn_infinite_snr_is_identity():
    frame = _tone(1000)
    out = awgn(frame, np.inf, seed=1)
    assert np.array_equal(out.samples, frame.samples)


def test_awgn_measured_snr():
    frame = _tone()
    out = awgn(frame, 10.0, seed=2)
    noise = out.samples - frame.samples
    snr = 10 * np.log10(measured_power(frame.samples) / np.mean(np.abs(noise) ** 2))
    assert 9.5 < snr < 10.5


def test_awgn_deterministic():
    frame = _tone(5000)
    a = awgn(frame, 3.0, seed=42)
    b = awgn(frame, 3.0, seed=42)
    c = awgn(frame, 3.0, seed=43)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    # A seed is one unit-noise draw that the SNR only scales, so the
    # points of a campaign share each frame's noise.
    d = awgn(frame, 13.0, seed=42)
    assert np.allclose((a.samples - frame.samples) / np.sqrt(10.0),
                       d.samples - frame.samples)


def test_awgn_and_mix_take_the_measured_power_from_the_caller():
    # A campaign measures each frame once and passes the power to every
    # sweep point; the output is the bits of measuring it again.
    frame = _tone(5000)
    power = measured_power(frame.samples)
    for snr_db in (3.0, -2.0):
        assert np.array_equal(awgn(frame, snr_db, seed=7, p_sig=power).samples,
                              awgn(frame, snr_db, seed=7).samples)
    inter = interferer_at_rate(len(frame), frame.sample_rate, 5)
    p_int = measured_power(inter.samples)
    assert np.array_equal(mix(frame, inter, -4.0, p_sig=power).samples,
                          mix(frame, inter, -4.0).samples)
    assert np.array_equal(mix(frame, inter, -4.0, p_sig=power, p_int=p_int).samples,
                          mix(frame, inter, -4.0).samples)
    # The passed powers are the ones the noise and the interferer are
    # scaled to.
    quiet = awgn(frame, 10.0, seed=7, p_sig=power / 100.0).samples - frame.samples
    loud = awgn(frame, 10.0, seed=7).samples - frame.samples
    assert np.allclose(quiet * 10.0, loud)
    weak = mix(frame, inter, -4.0, p_int=p_int * 100.0).samples - frame.samples
    strong = mix(frame, inter, -4.0).samples - frame.samples
    assert np.allclose(weak * 10.0, strong)


def _bits(a):
    return np.asarray(a, complex).view(np.uint64)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 14_000), lead=st.sampled_from([0, 1, 200]),
       log_amp=st.floats(-100.0, 100.0), snr_db=st.floats(-10.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_awgn_mix_and_power_are_the_plain_formulas_to_the_bit(n, lead, log_amp,
                                                              snr_db, seed):
    # The stages write into their own arrays; the bits are those of the
    # formulas written with temporaries.  With lead 0 every sample is
    # active, so measured_power takes the mean of all of them.
    rng = np.random.default_rng(seed)
    x = np.zeros(lead + n + lead, complex)
    x[lead:lead + n] = 10.0 ** log_amp * (rng.standard_normal(n)
                                         + 1j * rng.standard_normal(n))
    frame = IqFrame(x, 8e6, 1e6)
    power = np.abs(x) ** 2
    active = power[power > power.max() * 1e-12]
    p_sig = float(np.mean(active))
    assert measured_power(x) == p_sig
    sigma2 = p_sig * 10.0 ** (-snr_db / 10.0)
    noise = _unit_noise(seed, len(frame))
    assert np.array_equal(_bits(awgn(frame, snr_db, seed).samples),
                          _bits(x + noise * np.sqrt(sigma2 / 2.0)))
    inter = interferer_at_rate(len(frame), 8e6, seed)
    p_int = measured_power(inter.samples)
    alpha = np.sqrt(p_sig / (p_int * 10.0 ** (snr_db / 10.0)))
    assert np.array_equal(_bits(mix(frame, inter, snr_db).samples),
                          _bits(x + alpha * inter.samples))


def test_awgn_snr_ignores_zero_padding():
    # SNR is defined over active samples, so lead-in zeros don't dilute it.
    core = _tone(20_000)
    padded = IqFrame(
        np.concatenate([np.zeros(20_000), core.samples]), 8e6, 1e6
    )
    out = awgn(padded, 10.0, seed=3)
    noise = out.samples[20_000:] - core.samples
    snr = 10 * np.log10(1.0 / np.mean(np.abs(noise) ** 2))
    assert 9.5 < snr < 10.5


def test_rayleigh_tap_distribution():
    # NLOS's first tap is diffuse: |h| is Rayleigh with sigma^2 half its
    # share of the power.
    prof = ChannelProfile.NLOS
    powers = np.array([10.0 ** (p / 10.0) for _, p in prof.taps])
    sigma = np.sqrt(powers[0] / powers.sum() / 2.0)
    mags = np.array([
        abs(channel_realization(prof, 8e6, s)[0]) for s in range(4000)
    ])
    _, p = stats.kstest(mags, "rayleigh", args=(0, sigma))
    assert p > 0.01


def test_rician_concentrates_envelope():
    def envelope(prof):
        return np.array([
            abs(channel_realization(prof, 8e6, s)[0]) for s in range(2000)
        ])

    los, ray = envelope(ChannelProfile.LOS), envelope(ChannelProfile.NLOS)
    assert np.std(los) / np.mean(los) < 0.5 * np.std(ray) / np.mean(ray)


def test_delay_scaling_with_sample_rate():
    # Tap delays count samples at 8 Msps, so they scale with the frame's rate.
    prof = ChannelProfile.REVERBERANT
    assert max(d for d, _ in prof.taps) == 31
    assert channel_realization(prof, 8e6, 0).size == 32
    assert channel_realization(prof, 16e6, 0).size == 63
    assert channel_realization(prof, 4e6, 0).size == 17
    assert channel_realization(ChannelProfile.NLOS, 16e6, 0).size == 29


def test_every_profile_has_unit_gain_and_fits_the_shortest_frame():
    shortest = min(
        LEAD + TAIL + len(gmsk_modulate(
            (assemble_coded if mode.coded else assemble_uncoded)(
                LinkLayerPacket(pdu=np.zeros(PDU_MIN_BITS, np.uint8)), mode),
            gaussian_taps(), symbol_rate=mode.symbol_rate))
        for mode in PhyMode)
    for prof in ChannelProfile:
        for fs in (8e6, 16e6):
            cirs = [channel_realization(prof, fs, s) for s in range(2000)]
            gain = np.mean([np.sum(np.abs(h) ** 2) for h in cirs])
            assert 0.95 < gain < 1.05, (prof, fs, gain)
            assert max(h.size for h in cirs) < shortest, (prof, fs)


def test_fade_unit_average_gain():
    rng = np.random.default_rng(44)
    x = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    frame = IqFrame(x, 8e6, 1e6)
    for prof_fn in (nlos_profile, reverberant_profile, los_profile):
        gains = []
        for s in range(1000):
            out = fade(frame, prof_fn(), s)
            gains.append(np.sum(np.abs(out.samples) ** 2) /
                         np.sum(np.abs(x) ** 2))
        assert 0.9 < np.mean(gains) < 1.1, prof_fn.__name__


def test_nlos_realization_is_frequency_selective():
    h = channel_realization(nlos_profile(), 8e6, 3)
    H = np.abs(np.fft.fft(h, 256))
    swing = 20 * np.log10(H.max() / H.min())
    assert swing > 6.0


def test_fade_rejects_short_frames():
    frame = IqFrame(np.ones(8, complex), 8e6, 1e6)
    with pytest.raises(ParamError):
        fade(frame, reverberant_profile(), 0)


def test_apply_cfo_exact_rotation():
    frame = _tone(4096, f=0.0)
    out = apply_cfo(frame, 25e3)
    t = np.arange(4096) / 8e6
    assert np.allclose(out.samples, np.exp(2j * np.pi * 25e3 * t), atol=1e-12)
    with pytest.raises(ParamError):
        apply_cfo(frame, 4.1e6)


def test_apply_dc_level_and_phase():
    frame = _tone(20_000)
    out = apply_dc(frame, -20.0, phase_rad=np.pi / 3)
    offset = out.samples - frame.samples
    assert np.allclose(offset, offset[0])
    level = 10 * np.log10(np.abs(offset[0]) ** 2 / measured_power(frame.samples))
    assert level == pytest.approx(-20.0, abs=0.1)
    assert np.angle(offset[0]) == pytest.approx(np.pi / 3, abs=1e-9)


def test_wlan_interferer_basics():
    a = interferer_at_rate(50_000, 40e6, 5)
    b = interferer_at_rate(50_000, 40e6, 5)
    assert len(a) == 50_000 and a.sample_rate == 40e6
    assert a.symbol_rate == WLAN_BANDWIDTH_HZ / 64
    assert np.array_equal(a.samples, b.samples)
    with pytest.raises(ParamError):
        interferer_at_rate(0, 8e6, 5)


def test_interferer_needs_whole_sample_symbols():
    # A symbol lasts 4 us: a rate off the 250 kHz grid would make it a
    # fractional number of samples.
    for fs in (8.1e6, 1e5, 0.0, -8e6, np.inf, np.nan):
        with pytest.raises(ParamError):
            interferer_at_rate(100, fs, 5)
    assert len(interferer_at_rate(100, 250e3, 5)) == 100


def test_wlan_interferer_occupied_bandwidth():
    x = interferer_at_rate(400_000, 40e6, 6)
    f, psd = signal.welch(x.samples, fs=40e6, nperseg=1024,
                          return_onesided=False)
    order = np.argsort(np.abs(f), kind="stable")
    cum = np.cumsum(psd[order])
    edge = np.abs(f[order])[np.searchsorted(cum, 0.99 * cum[-1])]
    assert 15.5e6 < 2 * edge < 17.5e6  # 52/64 of 20 MHz plus leakage


def test_wlan_interferer_spectral_flatness():
    x = interferer_at_rate(400_000, 40e6, 7)
    f, psd = signal.welch(x.samples, fs=40e6, nperseg=512,
                          return_onesided=False)
    # Inner 90% of the occupied band, away from the edge roll-off.
    band = (np.abs(f) < 0.9 * 8.125e6) & (np.abs(f) > 0.5e6)
    ripple = 10 * np.log10(psd[band].max() / psd[band].min())
    assert ripple < 3.0


_SUBCARRIERS = np.concatenate([np.arange(1, 27), np.arange(-26, 0)])
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def _interferer_per_sample(n_samples, fs, seed):
    """Oracle: each sample evaluated from its definition, from the same seed.

    x[n] = sum_k X[m, k] exp(2 pi i f_k (t_n - m T - T_cp)) / sqrt(52),
    summed over the subcarriers k with |f_k| < fs/2, where m is the
    symbol holding t_n = n / fs, T = 80 / bandwidth, T_cp = 16 / bandwidth
    and f_k = k bandwidth / 64, for a 20 MHz bandwidth.
    """
    rng = np.random.default_rng(seed)
    bw = 20e6
    n = np.arange(n_samples)
    m = n * int(bw) // int(80 * fs)  # floor(t_n / T), in exact integers
    x = _QPSK[rng.integers(0, 4, size=(m[-1] + 1, 52))]
    f = _SUBCARRIERS * bw / 64
    x = x * (np.abs(f) < fs / 2)
    t = n / fs - m * 80 / bw - 16 / bw
    tones = np.exp(2j * np.pi * np.outer(t, f))
    return np.einsum("nk,nk->n", x[m], tones) / np.sqrt(52)


# n is both the sample count and the seed.
@pytest.mark.parametrize("n", [1, 7, 79, 81, 25_000])
def test_wlan_interferer_matches_symbol_loop(n):
    for fs in (2e6, 4e6, 8e6, 16e6, 40e6):
        got = interferer_at_rate(n, fs, n).samples
        assert np.allclose(got, _interferer_per_sample(n, fs, n),
                           rtol=0, atol=1e-9)


# Any whole multiple of 250 kHz up to 160 MHz: from a one-sample symbol
# with no subcarrier in band to one of 640 samples with all 52.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 3000),
       fs=st.sampled_from([2e6, 4e6, 8e6, 16e6, 40e6])
       | st.integers(1, 640).map(lambda k: k * 250e3),
       seed=st.integers(0, 2**63 - 1))
def test_interferer_matches_per_sample_oracle(n, fs, seed):
    got = interferer_at_rate(n, fs, seed)
    assert len(got) == n and got.sample_rate == fs
    assert np.allclose(got.samples, _interferer_per_sample(n, fs, seed),
                       rtol=0, atol=1e-9)


def _one_product(n_samples, fs, seed):
    """interferer_at_rate's samples as one symbols @ basis product."""
    rng = np.random.default_rng(seed)
    kept, basis = _ofdm_tones(fs)
    n_syms = (n_samples - 1) // basis.shape[1] + 1
    symbols = _QPSK[rng.integers(0, 4, size=(n_syms, 52))[:, kept]]
    return (symbols @ basis).ravel()[:n_samples]


@pytest.mark.parametrize("fs", [8e6, 16e6])
def test_blocked_interferer_equals_one_product_bit_for_bit(fs):
    # A campaign's two rates, over symbol counts from one row to past an
    # LE125K frame (419 symbols, 13,400 samples at 8 Msps), among them
    # those that leave one row over after blocks of 16; each draw ends in
    # a partial symbol.
    per_symbol = int(fs // 250e3)
    for n_syms in (1, 2, 15, 16, 17, 33, 75, 419, 421, 937):
        for seed in range(4):
            n = n_syms * per_symbol - seed
            got = interferer_at_rate(n, fs, seed).samples
            assert np.array_equal(got, _one_product(n, fs, seed)), (n, seed)


def test_interferer_leaves_no_helper_thread_cpu():
    # One symbols @ basis product of an LE125K frame's 419 rows would run
    # on OpenBLAS's thread pool, whose threads then spin for milliseconds
    # of CPU after each call.  process_time counts every thread of the
    # process and thread_time only this one, so their difference is the
    # helper threads' CPU.  The pause outlasts the spin after any earlier
    # threaded product (OpenBLAS's default is 2**28 cycles, about 0.1 s).
    interferer_at_rate(13_400, 8e6, 0)
    time.sleep(0.5)
    helper = time.process_time() - time.thread_time()
    for seed in range(20):
        interferer_at_rate(13_400, 8e6, seed)
    time.sleep(0.05)
    helper = time.process_time() - time.thread_time() - helper
    assert helper < 0.02, f"{helper * 1e3:.1f} ms of helper-thread CPU"


def test_mix_power_and_linearity():
    rng = np.random.default_rng(47)
    sig = IqFrame(np.exp(2j * np.pi * 0.01 * np.arange(40_000)), 8e6, 1e6)
    inter = IqFrame(rng.standard_normal(40_000) + 1j * rng.standard_normal(40_000),
                    8e6, 312500.0)
    out = mix(sig, inter, 0.0)
    added = out.samples - sig.samples
    ratio = 10 * np.log10(measured_power(sig.samples) / measured_power(added))
    assert abs(ratio) < 0.5
    # Pure scaling of the interferer.
    alpha = added[0] / inter.samples[0]
    assert np.allclose(added, alpha * inter.samples)
    same = mix(sig, inter, np.inf)
    assert np.array_equal(same.samples, sig.samples)
    with pytest.raises(ParamError):
        mix(sig, IqFrame(inter.samples, 4e6, 312500.0), 0.0)
    # An interferer of another length is an error, not tiled or cut.
    for n in (9000, 40_001):
        with pytest.raises(LengthError):
            mix(sig, IqFrame(np.ones(n, complex), 8e6, 312500.0), 0.0)


def test_interferer_at_rate_power_fraction():
    # Every sample's expected power is kept/52 of the full interferer's.
    for fs in (4e6, 8e6, 16e6):
        powers = [measured_power(interferer_at_rate(4000, fs, s).samples)
                  for s in range(300)]
        want = interferer_inband_fraction(fs)
        assert 0.0 < want < 1.0
        assert np.mean(powers) == pytest.approx(want, rel=0.02), fs


def test_interferer_inband_fraction_cases():
    # Subcarrier k sits at k * 312.5 kHz; those strictly inside +-fs/2
    # count.
    assert interferer_inband_fraction(40e6) == 1.0
    assert interferer_inband_fraction(16e6) == 50 / 52
    assert interferer_inband_fraction(8e6) == 24 / 52
    assert interferer_inband_fraction(4e6) == 12 / 52
    # The lowest rate the interferer takes and a symbol still holds a
    # subcarrier.
    assert interferer_inband_fraction(2e6) == 6 / 52
    # At 10 Msps subcarrier +-16 lands on +-fs/2 exactly and is dropped.
    assert interferer_inband_fraction(10e6) == 30 / 52


def test_impairments_end_to_end_on_modulated_frame():
    # The full impairment stack keeps the frame decodable metadata intact.
    rng = np.random.default_rng(48)
    pulse = gaussian_taps()
    frame = gmsk_modulate((rng.integers(0, 2, 200)).astype(np.uint8), pulse)
    out = fade(frame, los_profile(), 1)
    out = apply_cfo(out, 10e3)
    out = apply_dc(out, -20.0)
    out = awgn(out, 15.0, seed=4)
    assert out.sample_rate == frame.sample_rate
    assert out.symbol_rate == frame.symbol_rate
    assert len(out) >= len(frame)
