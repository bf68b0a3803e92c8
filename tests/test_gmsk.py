"""Modulator, pulse and IQ file format tests; demodulation runs on the
receiver's differential detector."""
import struct

import numpy as np
import pytest

from blesim.bits import random_bits
from blesim.channel import awgn
from blesim.errors import IoError, ParamError
from blesim.gmsk import (
    SPS,
    IqFrame,
    gaussian_taps,
    gmsk_modulate,
    matched_filter,
    read_iq,
    write_iq,
)
from blesim.receiver import _boundaries, _soft_differential


def demodulate(frame, pulse, count):
    """Soft bits of a frame from gmsk_modulate, as the receiver takes them:
    matched filter, then the symbol-lag differential detector starting at
    the TX transient plus the RX filter delay."""
    mf = matched_filter(frame, pulse)
    return _soft_differential(_boundaries(mf.samples, 2 * pulse.delay, count),
                              count)


def reference_taps():
    # Independent construction: sampled Gaussian with 3 dB point at
    # BT 0.5 times Rs over 3 symbols at 8 samples per symbol, integrated
    # over one symbol by a box filter, unit area.
    bt, span, sps = 0.5, 3, 8
    n = span * sps
    t = (np.arange(n) - (n - 1) / 2.0) / sps
    g = np.exp(-2.0 * np.pi**2 * bt**2 * t**2 / np.log(2.0))
    taps = np.convolve(g, np.ones(sps))
    return taps / taps.sum()


def test_gaussian_taps_match_reference():
    p = gaussian_taps()
    want = reference_taps()
    assert SPS == 8
    assert p.taps.shape == want.shape == (4 * SPS - 1,)
    assert np.allclose(p.taps, want, atol=1e-12)
    assert np.allclose(p.taps, p.taps[::-1])  # symmetric
    assert p.taps.sum() == pytest.approx(1.0)
    assert p.delay == (p.taps.size - 1) // 2


def test_gaussian_taps_cached_and_read_only():
    pulse = gaussian_taps()
    assert gaussian_taps() is pulse
    with pytest.raises(ValueError):
        pulse.taps[0] = 1.0


def test_modulate_unit_envelope():
    rng = np.random.default_rng(31)
    frame = gmsk_modulate(random_bits(500, rng), gaussian_taps())
    assert np.allclose(np.abs(frame.samples), 1.0, atol=1e-12)


def test_modulate_phase_continuity():
    rng = np.random.default_rng(32)
    pulse = gaussian_taps()
    frame = gmsk_modulate(random_bits(300, rng), pulse)
    dphi = np.angle(frame.samples[1:] * np.conj(frame.samples[:-1]))
    assert np.max(np.abs(dphi)) <= np.pi * 0.5 / 8 + 1e-9


def test_modulate_terminal_phase_all_ones():
    # Total phase gain is N * pi * H once the filter has fully flushed.
    n = 57
    pulse = gaussian_taps()
    frame = gmsk_modulate(np.ones(n, dtype=np.uint8), pulse)
    total = np.angle(frame.samples[-1]) % (2 * np.pi)
    want = (n * np.pi * 0.5) % (2 * np.pi)
    assert abs(total - want) < 1e-6 or abs(abs(total - want) - 2 * np.pi) < 1e-6


def test_noiseless_round_trip():
    rng = np.random.default_rng(33)
    pulse = gaussian_taps()
    bits = random_bits(400, rng)
    soft = demodulate(gmsk_modulate(bits, pulse), pulse, bits.size)
    assert np.array_equal((soft > 0).astype(np.uint8), bits)


def test_round_trip_at_2msym():
    rng = np.random.default_rng(34)
    pulse = gaussian_taps()
    bits = random_bits(300, rng)
    frame = gmsk_modulate(bits, pulse, symbol_rate=2e6)
    assert frame.sample_rate == 16e6
    soft = demodulate(frame, pulse, bits.size)
    assert np.array_equal((soft > 0).astype(np.uint8), bits)


def test_ber_zero_at_high_snr():
    rng = np.random.default_rng(35)
    pulse = gaussian_taps()
    bits = random_bits(10000, rng)
    noisy = awgn(gmsk_modulate(bits, pulse), 30.0, seed=77)
    soft = demodulate(noisy, pulse, bits.size)
    errors = np.count_nonzero((soft > 0).astype(np.uint8) != bits)
    assert errors == 0


def test_occupied_bandwidth_near_1mhz():
    rng = np.random.default_rng(36)
    pulse = gaussian_taps()
    frame = gmsk_modulate(random_bits(4000, rng), pulse, symbol_rate=1e6)
    spec = np.abs(np.fft.fft(frame.samples)) ** 2
    freqs = np.fft.fftfreq(len(spec), 1.0 / frame.sample_rate)
    order = np.argsort(np.abs(freqs), kind="stable")
    cum = np.cumsum(spec[order])
    edge = np.abs(freqs[order])[np.searchsorted(cum, 0.99 * cum[-1])]
    obw = 2.0 * edge
    assert 0.8e6 < obw < 1.2e6


def test_matched_filter_rate_check():
    # The pulse is for SPS samples per symbol; a frame at any other rate,
    # a whole number of samples per symbol or not, is outside input.
    pulse = gaussian_taps()
    for fs, rs in ((4e6, 1e6), (8.4e6, 1e6), (8e6, 2e6), (16e6, 1e6)):
        with pytest.raises(ParamError):
            matched_filter(IqFrame(np.ones(64, complex), fs, rs), pulse)
    assert len(matched_filter(IqFrame(np.ones(64, complex), 16e6, 2e6),
                              pulse)) == 64 + pulse.taps.size - 1


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
    # A header rate of 0 is a bad file too, named by its path.
    for fs, rs in ((0, 1_000_000), (8_000_000, 0)):
        bad.write_bytes(struct.pack("<4sIII", b"BIQ1", fs, rs, 0) + b"\x00" * 8)
        with pytest.raises(IoError, match="bad.iq"):
            read_iq(bad)

