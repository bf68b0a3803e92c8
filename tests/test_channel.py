"""Channel impairment tests: noise calibration, fading statistics, WLAN burst."""
import numpy as np
import pytest
from scipy import signal, stats

from blesim.channel import (
    ChannelProfile,
    InterfererConfig,
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
    wlan_interferer,
)
from blesim.errors import ParamError, ProfileError, RateMismatchError
from blesim.gmsk import IqFrame, gaussian_taps, gmsk_modulate


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


def test_profile_validation():
    with pytest.raises(ProfileError):
        ChannelProfile("bad", taps=())
    with pytest.raises(ProfileError):
        ChannelProfile("bad", taps=((0, 0.0), (0, -3.0)))
    with pytest.raises(ProfileError):
        ChannelProfile("bad", taps=((-1, 0.0),))
    # Whole-sample delays, levels within 300 dB, a positive reference rate:
    # past those the channel would fail or overflow mid-campaign.
    for bad in (dict(taps=((1.5, 0.0),)), dict(taps=((0, 400.0),)),
                dict(taps=((0, float("nan")),)), dict(rician_k_db=-np.inf),
                dict(rician_k_db=1e4), dict(reference_rate_hz=0.0)):
        with pytest.raises(ProfileError):
            ChannelProfile("bad", **bad)
    ChannelProfile("ok", rician_k_db=np.inf)


def test_los_realization_k_infinite():
    prof = ChannelProfile("los", ((0, 0.0),), rician_k_db=np.inf, seed=9)
    h = channel_realization(prof, 8e6)
    assert h.shape == (1,)
    assert abs(abs(h[0]) - 1.0) < 1e-12


def test_rayleigh_tap_distribution():
    # Single diffuse tap: |h| should be Rayleigh with sigma = 1/sqrt(2).
    prof = ChannelProfile("flat", ((0, 0.0),))
    mags = np.array([
        abs(channel_realization(prof.with_seed(s), 8e6)[0]) for s in range(4000)
    ])
    _, p = stats.kstest(mags, "rayleigh", args=(0, 1 / np.sqrt(2)))
    assert p > 0.01


def test_rician_concentrates_envelope():
    los = np.array([
        abs(channel_realization(los_profile().with_seed(s), 8e6)[0])
        for s in range(2000)
    ])
    ray = np.array([
        abs(channel_realization(ChannelProfile("flat", ((0, 0.0),), seed=s), 8e6)[0])
        for s in range(2000)
    ])
    assert np.std(los) / np.mean(los) < 0.5 * np.std(ray) / np.mean(ray)


def test_delay_scaling_with_sample_rate():
    prof = ChannelProfile("two", ((0, 0.0), (8, -3.0)), reference_rate_hz=8e6)
    assert channel_realization(prof, 8e6).size == 9
    assert channel_realization(prof, 16e6).size == 17
    assert channel_realization(prof, 4e6).size == 5


def test_fade_unit_average_gain():
    rng = np.random.default_rng(44)
    x = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    frame = IqFrame(x, 8e6, 1e6)
    for prof_fn in (nlos_profile, reverberant_profile, los_profile):
        gains = []
        for s in range(1000):
            out = fade(frame, prof_fn().with_seed(s))
            gains.append(np.sum(np.abs(out.samples) ** 2) /
                         np.sum(np.abs(x) ** 2))
        assert 0.9 < np.mean(gains) < 1.1, prof_fn.__name__


def test_nlos_realization_is_frequency_selective():
    h = channel_realization(nlos_profile().with_seed(3), 8e6)
    H = np.abs(np.fft.fft(h, 256))
    swing = 20 * np.log10(H.max() / H.min())
    assert swing > 6.0


def test_fade_rejects_short_frames():
    frame = IqFrame(np.ones(8, complex), 8e6, 1e6)
    with pytest.raises(ProfileError):
        fade(frame, reverberant_profile())


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
    cfg = InterfererConfig(seed=5)
    a = wlan_interferer(50_000, cfg, 40e6)
    b = wlan_interferer(50_000, cfg, 40e6)
    assert len(a) == 50_000
    assert np.array_equal(a.samples, b.samples)
    silent = wlan_interferer(10_000, InterfererConfig(duty_cycle=0.0, seed=5), 40e6)
    assert not silent.samples.any()
    with pytest.raises(ParamError):
        wlan_interferer(1000, cfg, 10e6)
    # A sub-MHz band would need a huge FFT; a burst of no symbols, or a
    # burst period past 2^31 symbols, cannot be gated.
    for bad in (dict(bandwidth_hz=1e5), dict(center_offset_hz=np.inf),
                dict(duty_cycle=0.5, burst_symbols=0),
                dict(duty_cycle=1e-12, burst_symbols=20)):
        with pytest.raises(ParamError):
            InterfererConfig(**bad)


def test_wlan_interferer_occupied_bandwidth():
    x = wlan_interferer(400_000, InterfererConfig(seed=6), 40e6)
    f, psd = signal.welch(x.samples, fs=40e6, nperseg=1024,
                          return_onesided=False)
    order = np.argsort(np.abs(f), kind="stable")
    cum = np.cumsum(psd[order])
    edge = np.abs(f[order])[np.searchsorted(cum, 0.99 * cum[-1])]
    assert 15.5e6 < 2 * edge < 17.5e6  # 52/64 of 20 MHz plus leakage


def test_wlan_interferer_spectral_flatness():
    x = wlan_interferer(400_000, InterfererConfig(seed=7), 40e6)
    f, psd = signal.welch(x.samples, fs=40e6, nperseg=512,
                          return_onesided=False)
    # Inner 90% of the occupied band, away from the edge roll-off.
    band = (np.abs(f) < 0.9 * 8.125e6) & (np.abs(f) > 0.5e6)
    ripple = 10 * np.log10(psd[band].max() / psd[band].min())
    assert ripple < 3.0


def test_wlan_duty_cycle_gates_bursts():
    cfg = InterfererConfig(duty_cycle=0.3, seed=8)
    x = wlan_interferer(200_000, cfg, 40e6).samples
    active = np.abs(x) > 0
    assert 0.15 < active.mean() < 0.45
    # Bursts, not speckle: long contiguous active runs exist.
    runs = np.diff(np.flatnonzero(np.diff(active.astype(int)) != 0))
    assert runs.max() > 1000


def _wlan_interferer_loop(n_samples, config, fs):
    """Oracle: the OFDM symbols built one at a time, as seeded."""
    rng = np.random.default_rng(config.seed)
    if config.duty_cycle == 0.0:
        return np.zeros(n_samples, dtype=np.complex128)
    n_fft = int(round(fs / (config.bandwidth_hz / 64.0)))
    cp = n_fft // 4
    sym_len = n_fft + cp
    n_syms = -(-n_samples // sym_len)
    bins = np.concatenate([np.arange(1, 27), np.arange(-26, 0)]) % n_fft
    qpsk_lut = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
    out = np.empty(n_syms * sym_len, dtype=np.complex128)
    for s in range(n_syms):
        spec = np.zeros(n_fft, dtype=np.complex128)
        spec[bins] = qpsk_lut[rng.integers(0, 4, size=bins.size)]
        sym = np.fft.ifft(spec) * np.sqrt(n_fft**2 / bins.size)
        out[s * sym_len: (s + 1) * sym_len] = np.concatenate([sym[-cp:], sym])
    out = out[:n_samples]
    if config.duty_cycle < 1.0:
        burst_on = config.burst_symbols * sym_len
        period = int(round(burst_on / config.duty_cycle))
        start = int(rng.integers(0, period))
        out = out * (((np.arange(n_samples) + start) % period) < burst_on)
    if config.center_offset_hz:
        n = np.arange(n_samples)
        out = out * np.exp(2j * np.pi * config.center_offset_hz * n / fs)
    return out


@pytest.mark.parametrize("n", [1, 7, 79, 81, 25_000])
@pytest.mark.parametrize("duty", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("offset", [0.0, -5e6])
def test_wlan_interferer_matches_symbol_loop(n, duty, offset):
    cfg = InterfererConfig(center_offset_hz=offset, duty_cycle=duty, seed=n)
    for fs in (40e6, 32e6):
        got = wlan_interferer(n, cfg, fs)
        assert np.array_equal(got.samples, _wlan_interferer_loop(n, cfg, fs))


def test_mix_power_and_linearity():
    rng = np.random.default_rng(47)
    sig = IqFrame(np.exp(2j * np.pi * 0.01 * np.arange(40_000)), 8e6, 1e6)
    inter = IqFrame(rng.standard_normal(9000) + 1j * rng.standard_normal(9000),
                    8e6, 312500.0)
    out = mix(sig, inter, 0.0)
    added = out.samples - sig.samples
    ratio = 10 * np.log10(measured_power(sig.samples) / measured_power(added))
    assert abs(ratio) < 0.5
    # Pure scaling of the (tiled) interferer.
    tiled = np.tile(inter.samples, 5)[:40_000]
    alpha = added[0] / tiled[0]
    assert np.allclose(added, alpha * tiled)
    same = mix(sig, inter, np.inf)
    assert np.array_equal(same.samples, sig.samples)
    with pytest.raises(RateMismatchError):
        mix(sig, IqFrame(inter.samples, 4e6, 312500.0), 0.0)


def test_interferer_at_rate_power_fraction():
    # Resampling to a narrow band keeps the analytically predicted share
    # of the wideband power.
    cfg = InterfererConfig(seed=9)
    wide = wlan_interferer(400_000, cfg, 40e6)
    narrow = interferer_at_rate(80_000, cfg, 8e6)
    assert narrow.sample_rate == 8e6 and len(narrow) == 80_000
    got = measured_power(narrow.samples) / measured_power(wide.samples)
    want = interferer_inband_fraction(cfg, 8e6)
    assert got == pytest.approx(want, rel=0.15)


def test_interferer_inband_fraction_cases():
    cfg = InterfererConfig()
    assert interferer_inband_fraction(cfg, 40e6) == 1.0
    assert interferer_inband_fraction(cfg, 8e6) == pytest.approx(8.0 / 16.25)
    shifted = InterfererConfig(center_offset_hz=10e6)
    assert interferer_inband_fraction(shifted, 8e6) == pytest.approx(2.125 / 16.25)
    far = InterfererConfig(center_offset_hz=30e6)
    assert interferer_inband_fraction(far, 8e6) == 0.0


def test_impairments_end_to_end_on_modulated_frame():
    # The full impairment stack keeps the frame decodable metadata intact.
    rng = np.random.default_rng(48)
    pulse = gaussian_taps(0.5, 8)
    frame = gmsk_modulate((rng.integers(0, 2, 200)).astype(np.uint8), pulse)
    out = fade(frame, los_profile().with_seed(1))
    out = apply_cfo(out, 10e3)
    out = apply_dc(out, -20.0)
    out = awgn(out, 15.0, seed=4)
    assert out.sample_rate == frame.sample_rate
    assert out.symbol_rate == frame.symbol_rate
    assert len(out) >= len(frame)
