"""Modulator, pulse and IQ file format tests; demodulation runs on the
receiver's differential detector."""
import struct

import numpy as np
import pytest

from blesim.bits import random_bits
from blesim.channel import awgn
from blesim.errors import IoError, ParamError, RateMismatchError
from blesim.gmsk import (
    IqFrame,
    gaussian_taps,
    gmsk_modulate,
    matched_filter,
    read_iq,
    resample,
    write_iq,
)
from blesim.receiver import _soft_differential


def demodulate(frame, pulse, count):
    """Soft bits of a frame from gmsk_modulate, as the receiver takes them:
    matched filter, then the symbol-lag differential detector starting at
    the TX transient plus the RX filter delay."""
    mf = matched_filter(frame, pulse)
    return _soft_differential(mf.samples, pulse.sps, 2 * pulse.delay, count)


def reference_taps(bt, sps, span):
    # Independent construction: sampled Gaussian with 3 dB point at
    # bt * Rs, integrated over one symbol by a box filter, unit area.
    n = span * sps
    t = (np.arange(n) - (n - 1) / 2.0) / sps
    g = np.exp(-2.0 * np.pi**2 * bt**2 * t**2 / np.log(2.0))
    taps = np.convolve(g, np.ones(sps))
    return taps / taps.sum()


def test_gaussian_taps_match_reference():
    for bt, sps, span in [(0.5, 8, 3), (0.5, 4, 3), (0.3, 8, 4), (1.0, 16, 2)]:
        p = gaussian_taps(bt, sps, span)
        want = reference_taps(bt, sps, span)
        assert p.taps.shape == want.shape == ((span + 1) * sps - 1,)
        assert np.allclose(p.taps, want, atol=1e-12)
        assert np.allclose(p.taps, p.taps[::-1])  # symmetric
        assert p.taps.sum() == pytest.approx(1.0)
        assert p.delay == (p.taps.size - 1) // 2


def test_gaussian_taps_parameter_validation():
    with pytest.raises(ParamError):
        gaussian_taps(0.0, 8)
    with pytest.raises(ParamError):
        gaussian_taps(0.5, 1)
    with pytest.raises(ParamError):
        gaussian_taps(0.5, 8, span=0)


def test_modulate_unit_envelope():
    rng = np.random.default_rng(31)
    frame = gmsk_modulate(random_bits(500, rng), gaussian_taps(0.5, 8))
    assert np.allclose(np.abs(frame.samples), 1.0, atol=1e-12)


def test_modulate_phase_continuity():
    rng = np.random.default_rng(32)
    pulse = gaussian_taps(0.5, 8)
    frame = gmsk_modulate(random_bits(300, rng), pulse, h=0.5)
    dphi = np.angle(frame.samples[1:] * np.conj(frame.samples[:-1]))
    assert np.max(np.abs(dphi)) <= np.pi * 0.5 / 8 + 1e-9


def test_modulate_terminal_phase_all_ones():
    # Total phase gain is N * pi * h once the filter has fully flushed.
    n = 57
    pulse = gaussian_taps(0.5, 8)
    frame = gmsk_modulate(np.ones(n, dtype=np.uint8), pulse, h=0.5)
    total = np.angle(frame.samples[-1]) % (2 * np.pi)
    want = (n * np.pi * 0.5) % (2 * np.pi)
    assert abs(total - want) < 1e-6 or abs(abs(total - want) - 2 * np.pi) < 1e-6


@pytest.mark.parametrize("sps", [4, 8])
def test_noiseless_round_trip(sps):
    rng = np.random.default_rng(33)
    pulse = gaussian_taps(0.5, sps)
    bits = random_bits(400, rng)
    soft = demodulate(gmsk_modulate(bits, pulse), pulse, bits.size)
    assert np.array_equal((soft > 0).astype(np.uint8), bits)


def test_round_trip_at_2msym():
    rng = np.random.default_rng(34)
    pulse = gaussian_taps(0.5, 8)
    bits = random_bits(300, rng)
    frame = gmsk_modulate(bits, pulse, symbol_rate=2e6)
    assert frame.sample_rate == 16e6
    soft = demodulate(frame, pulse, bits.size)
    assert np.array_equal((soft > 0).astype(np.uint8), bits)


def test_ber_zero_at_high_snr():
    rng = np.random.default_rng(35)
    pulse = gaussian_taps(0.5, 8)
    bits = random_bits(10000, rng)
    noisy = awgn(gmsk_modulate(bits, pulse), 30.0, seed=77)
    soft = demodulate(noisy, pulse, bits.size)
    errors = np.count_nonzero((soft > 0).astype(np.uint8) != bits)
    assert errors == 0


def test_occupied_bandwidth_near_1mhz():
    rng = np.random.default_rng(36)
    pulse = gaussian_taps(0.5, 8)
    frame = gmsk_modulate(random_bits(4000, rng), pulse, symbol_rate=1e6)
    spec = np.abs(np.fft.fft(frame.samples)) ** 2
    freqs = np.fft.fftfreq(len(spec), 1.0 / frame.sample_rate)
    order = np.argsort(np.abs(freqs), kind="stable")
    cum = np.cumsum(spec[order])
    edge = np.abs(freqs[order])[np.searchsorted(cum, 0.99 * cum[-1])]
    obw = 2.0 * edge
    assert 0.8e6 < obw < 1.2e6


def test_matched_filter_rate_check():
    pulse = gaussian_taps(0.5, 8)
    with pytest.raises(RateMismatchError):
        matched_filter(IqFrame(np.ones(64, complex), 4e6, 1e6), pulse)


def test_iq_file_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    frame = IqFrame(x, 8e6, 1e6)
    path = tmp_path / "frame.iq"
    write_iq(frame, path)
    raw = path.read_bytes()
    magic, fs, rs, reserved = struct.unpack("<4sIII", raw[:16])
    assert magic == b"BIQ1"
    assert fs == 8000000 and rs == 1000000 and reserved == 0
    assert len(raw) == 16 + 50 * 8  # interleaved float32 pairs
    back = read_iq(path)
    assert back.sample_rate == 8e6 and back.symbol_rate == 1e6
    assert np.array_equal(back.samples.astype(np.complex64),
                          x.astype(np.complex64))


def test_read_iq_errors(tmp_path):
    with pytest.raises(IoError):
        read_iq(tmp_path / "missing.iq")
    bad = tmp_path / "bad.iq"
    bad.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(IoError):
        read_iq(bad)


def test_resample_preserves_tone():
    fs = 8e6
    n = 4096
    t = np.arange(n) / fs
    tone = np.exp(2j * np.pi * 3e5 * t)
    out = resample(IqFrame(tone, fs, 1e6), 4e6)
    assert out.sample_rate == 4e6
    assert abs(len(out) - n // 2) <= 2
    spec = np.abs(np.fft.fft(out.samples[100:-100]))
    freqs = np.fft.fftfreq(spec.size, 1 / 4e6)
    assert abs(freqs[np.argmax(spec)] - 3e5) < 3e3
