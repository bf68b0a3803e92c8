"""Modulator, pulse, matched filter, phase ramp and IQ file format tests;
demodulation runs on the receiver's differential detector."""
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blesim.bits import random_bits
from blesim.channel import awgn
from blesim.coded import assemble_coded
from blesim.errors import IoError, ParamError
from blesim.gmsk import (
    SPS,
    IqFrame,
    gaussian_taps,
    gmsk_modulate,
    matched_filter,
    phase_ramp,
    read_iq,
    serial_matmul,
    write_iq,
)
from blesim.llpacket import PDU_MAX_BITS, LinkLayerPacket
from blesim.phymode import PhyMode
from blesim.receiver import _boundaries, _rotated_boundaries, _soft_differential


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 13_500),
       scale=st.sampled_from([1e-30, 1e-6, 1.0, 1e6, 1e200]),
       seed=st.integers(0, 2**32 - 1))
# One sample, frames shorter than the taps, one sample past whole rows,
# row blocks of unequal size, and past an LE125K frame.
@example(1, 1.0, 0)
@example(17, 1.0, 1)
@example(31, 1.0, 2)
@example(8 * 1024 + 1, 1.0, 3)
@example(8_801, 1.0, 4)
@example(13_401, 1.0, 5)
def test_matched_filter_matches_np_convolve(n, scale, seed):
    # The polyphase filter is the full convolution: the same length and
    # samples within 1e-12 of the input's scale.
    rng = np.random.default_rng(seed)
    x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    pulse = gaussian_taps()
    got = matched_filter(IqFrame(x, 8e6, 1e6), pulse).samples
    want = np.convolve(x, pulse.taps)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def _summed_shift_products(x, pulse):
    """The matched filter on zeroed planes, each shift's product a new
    array added to the sums: the per-output order the filter keeps."""
    phases = pulse.phases
    rows = -(-x.size // SPS) + phases.shape[0] - 1
    planes = np.zeros((2, rows * SPS))
    planes[0, :x.size] = x.real
    planes[1, :x.size] = x.imag
    held = planes.reshape(2 * rows, SPS)
    y = serial_matmul(held, phases[0])
    for d in range(1, phases.shape[0]):
        y[d:] += serial_matmul(held[:-d], phases[d])
    y = y.reshape(2, -1)
    out = np.empty(x.size + pulse.taps.size - 1, complex)
    out.real = y[0, :out.size]
    out.imag = y[1, :out.size]
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 13_500),
       scale=st.sampled_from([1e-30, 1.0, 1e200]),
       seed=st.integers(0, 2**32 - 1))
@example(1, 1.0, 0)
@example(8 * 1024 + 1, 1.0, 3)
@example(13_430, 1.0, 5)
def test_matched_filter_pins_the_summed_shift_products(n, scale, seed):
    # The filter zeroes only its planes' padding and writes every shift's
    # product into one buffer; its samples are the summed products', to
    # the bit, and a contiguous array.
    rng = np.random.default_rng(seed)
    x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    pulse = gaussian_taps()
    got = matched_filter(IqFrame(x, 8e6, 1e6), pulse).samples
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64),
                          _summed_shift_products(x, pulse).view(np.uint64))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_bits=st.integers(1, 1700), seed=st.integers(0, 2**32 - 1),
       rate=st.sampled_from([1e6, 2e6]))
@example(1, 0, 1e6)
def test_modulate_matches_the_impulse_convolution(n_bits, seed, rate):
    # The per-symbol product and cos/sin give the CPM chain written as
    # an NRZ impulse train convolved with the taps and exp(1j*phase).
    bits = random_bits(n_bits, np.random.default_rng(seed))
    pulse = gaussian_taps()
    impulses = np.zeros(n_bits * SPS)
    impulses[::SPS] = bits * 2.0 - 1.0
    phase = np.pi * 0.5 * np.cumsum(np.convolve(impulses, pulse.taps))
    frame = gmsk_modulate(bits, pulse, symbol_rate=rate)
    assert frame.sample_rate == SPS * rate
    assert frame.samples.shape == phase.shape
    np.testing.assert_allclose(frame.samples, np.exp(1j * phase), rtol=0,
                               atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(w=st.floats(-0.05, 0.05), a=st.integers(0, 20_000),
       length=st.integers(0, 20_000))
@example(0.039, 0, 13_430)
@example(-0.039, 63, 1)
def test_phase_ramp_matches_exp_and_any_slice(w, a, length):
    # e^{jwn} within 1e-12, and any slice of a ramp from 0 is the same
    # samples to the bit.  w covers every carrier offset a frame carries
    # or the receiver removes, up to 62.5 kHz at 8 Msps; far past that,
    # w*n itself rounds by more than 1e-12 and the oracle is the
    # coarser one.
    b = a + length
    ramp = phase_ramp(w, a, b)
    assert ramp.shape == (length,)
    np.testing.assert_allclose(ramp, np.exp(1j * w * np.arange(a, b)),
                               rtol=0, atol=1e-12)
    assert np.array_equal(ramp, phase_ramp(w, 0, b)[a:])


def test_filter_and_modulator_leave_no_helper_thread_cpu():
    # LE125K packets of a 128-bit PDU, 12,958 samples, and of the longest
    # PDU, 136,350: one product of all the longer one's rows would run on
    # OpenBLAS's thread pool, whose threads then spin for milliseconds of
    # CPU after each call (see the interferer's test in test_channel.py).
    # The pause outlasts the spin after any earlier threaded product.
    pulse = gaussian_taps()
    frames = [assemble_coded(LinkLayerPacket(np.zeros(n, np.uint8)),
                             PhyMode.LE125K) for n in (128, PDU_MAX_BITS)]
    assert [len(gmsk_modulate(bits, pulse)) for bits in frames] == [
        12_958, 136_350]
    time.sleep(0.5)
    helper = time.process_time() - time.thread_time()
    for _ in range(4):
        for bits in frames:
            matched_filter(gmsk_modulate(bits, pulse), pulse)
    time.sleep(0.05)
    helper = time.process_time() - time.thread_time() - helper
    assert helper < 0.02, f"{helper * 1e3:.1f} ms of helper-thread CPU"


def test_rotated_boundaries_leave_no_helper_thread_cpu():
    # The symbol boundaries of the longest LE125K packet, 136,350 samples:
    # one complex product of all their 17,000 rows with the rotated taps'
    # phases would run on OpenBLAS's thread pool (see the test above).
    pulse = gaussian_taps()
    bits = assemble_coded(LinkLayerPacket(np.zeros(PDU_MAX_BITS, np.uint8)),
                          PhyMode.LE125K)
    frame = gmsk_modulate(bits, pulse)
    first = 2 * pulse.delay - SPS // 2
    assert _rotated_boundaries(frame, pulse, first, bits.size,
                               2e4).size == bits.size + 1 > 17_000
    time.sleep(0.5)
    helper = time.process_time() - time.thread_time()
    for _ in range(4):
        _rotated_boundaries(frame, pulse, first, bits.size, 2e4)
    time.sleep(0.05)
    helper = time.process_time() - time.thread_time() - helper
    assert helper < 0.02, f"{helper * 1e3:.1f} ms of helper-thread CPU"


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

