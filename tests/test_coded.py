"""Coded-mode tests: FEC against a polynomial-convolution oracle, Viterbi
against a per-step numpy decoder."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blesim.bits import bits_to_int, int_to_bits, random_bits
from blesim.coded import (
    BLOCK1_INPUT_BITS,
    CODING_SCHEMES,
    TERM_BITS,
    _spreading,
    assemble_coded,
    block1_symbol_count,
    block2_symbol_count,
    fec_encode,
    pattern_demap,
    pattern_map,
    viterbi_decode,
)
from blesim.errors import LengthError, ParamError
from blesim.gmsk import IqFrame, gaussian_taps, gmsk_modulate
from blesim.llpacket import (
    ADVERTISING_ACCESS_ADDRESS,
    ChannelIndex,
    LinkLayerPacket,
    crc24_bits,
    whiten,
)
from blesim.phymode import PhyMode
from blesim.receiver import ReceiverConfig, receive


def fec_oracle(bits):
    # Generators 1+D+D^2+D^3 and 1+D^2+D^3 as mod-2 convolutions.
    g0 = np.convolve(bits, [1, 1, 1, 1])[: len(bits)] % 2
    g1 = np.convolve(bits, [1, 0, 1, 1])[: len(bits)] % 2
    out = np.empty(2 * len(bits), dtype=np.uint8)
    out[0::2] = g0
    out[1::2] = g1
    return out


def test_fec_matches_convolution_oracle():
    rng = np.random.default_rng(21)
    for _ in range(300):
        bits = random_bits(int(rng.integers(1, 200)), rng)
        assert np.array_equal(fec_encode(bits), fec_oracle(bits))


def test_fec_linearity():
    rng = np.random.default_rng(22)
    for _ in range(100):
        a = random_bits(80, rng)
        b = random_bits(80, rng)
        assert np.array_equal(fec_encode(a ^ b), fec_encode(a) ^ fec_encode(b))


def test_fec_impulse_response():
    # A single 1 exposes the generator taps directly.
    out = fec_encode(np.array([1, 0, 0, 0, 0], dtype=np.uint8))
    assert out[0::2].tolist() == [1, 1, 1, 1, 0]
    assert out[1::2].tolist() == [1, 0, 1, 1, 0]


def test_pattern_map_shapes_and_values():
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    s2 = pattern_map(bits, 2)
    assert np.array_equal(s2, bits)
    s8 = pattern_map(bits, 8)
    assert s8.tolist() == [0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1]
    # The symbols per coded bit derived from S are what the mapper emits.
    for scheme in CODING_SCHEMES.values():
        out = pattern_map(bits, scheme.s)
        assert out.size == _spreading(scheme.s) * bits.size
    assert {c.s: _spreading(c.s) for c in CODING_SCHEMES.values()} == {8: 4, 2: 1}


def test_pattern_demap_soft_combination():
    soft = np.array([0.9, 0.8, -1.0, -0.7, -0.5, -0.6, 0.4, 0.8])
    out = pattern_demap(soft, 8)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(0.9 + 0.8 + 1.0 + 0.7)
    assert out[1] == pytest.approx(-0.5 - 0.6 - 0.4 - 0.8)
    with pytest.raises(LengthError):
        pattern_demap(np.ones(6), 8)


def test_pattern_round_trip_hard():
    rng = np.random.default_rng(23)
    for s in (2, 8):
        bits = random_bits(120, rng)
        soft = pattern_demap(pattern_map(bits, s), s)
        assert np.array_equal((soft > 0).astype(np.uint8), bits)


# The oracle's trellis, indexed by destination state (3 bits, newest
# first): state s encodes (b[n-1], b[n-2], b[n-3]); destination
# t = (b<<2)|(s>>1) has predecessors 2*(t&3) and 2*(t&3)+1 with input bit
# t>>2, and each branch's g0/g1 signs come from the generator taps.
_PRED = np.empty((8, 2), dtype=np.int64)
_SIGN0 = np.empty((8, 2), dtype=np.float64)
_SIGN1 = np.empty((8, 2), dtype=np.float64)
for _t in range(8):
    _b = _t >> 2
    for _k in range(2):
        _s = ((_t & 3) << 1) | _k
        _PRED[_t, _k] = _s
        _s2, _s1, _s0 = (_s >> 2) & 1, (_s >> 1) & 1, _s & 1
        _SIGN0[_t, _k] = 2.0 * (_b ^ _s2 ^ _s1 ^ _s0) - 1.0
        _SIGN1[_t, _k] = 2.0 * (_b ^ _s1 ^ _s0) - 1.0


def viterbi_oracle(symbols, s):
    """Per-step numpy add-compare-select: each state keeps the argmax of
    its two candidates, so a tie goes to predecessor 0."""
    soft = pattern_demap(symbols, s)
    n_steps = soft.size // 2
    l0 = soft[0::2]
    l1 = soft[1::2]
    pm = np.full(8, -np.inf)
    pm[0] = 0.0
    backptr = np.empty((n_steps, 8), dtype=np.int8)
    for i in range(n_steps):
        cand = pm[_PRED] + l0[i] * _SIGN0 + l1[i] * _SIGN1
        best = np.argmax(cand, axis=1)
        pm = cand[np.arange(8), best]
        backptr[i] = best
    bits = np.empty(n_steps, dtype=np.uint8)
    state = 0
    for i in range(n_steps - 1, -1, -1):
        bits[i] = state >> 2
        state = _PRED[state, backptr[i, state]]
    return bits


@settings(max_examples=300, deadline=None, derandomize=True)
@given(s=st.sampled_from([2, 8]),
       steps=st.integers(1, 300),
       kind=st.sampled_from(["gaussian", "hard", "integer"]),
       seed=st.integers(0, 2**32 - 1))
def test_viterbi_matches_numpy_oracle(s, steps, kind, seed):
    # Hard 0/1 symbols and small integer soft values make path metrics
    # tie exactly, where the decoder must still pick predecessor 0.
    rng = np.random.default_rng(seed)
    n = steps * 2 * _spreading(s)
    if kind == "gaussian":
        symbols = rng.standard_normal(n)
    elif kind == "hard":
        symbols = rng.integers(0, 2, n).astype(np.uint8)
    else:
        symbols = rng.integers(-2, 3, n).astype(np.float64)
    assert np.array_equal(viterbi_decode(symbols, s), viterbi_oracle(symbols, s))


_TRELLIS = tuple(
    tuple(v for k in range(2)
          for v in (int(_PRED[_t, k]), float(_SIGN0[_t, k]), float(_SIGN1[_t, k])))
    for _t in range(8))


def viterbi_loop_oracle(symbols, s):
    """The table-driven scalar decoder that viterbi_decode unrolls: each
    candidate summed as (metric + x0*sign0) + x1*sign1, a tie kept by
    predecessor 0."""
    soft = pattern_demap(symbols, s)
    pm = [0.0] + [-np.inf] * 7
    back = []
    for x0, x1 in zip(soft[0::2].tolist(), soft[1::2].tolist()):
        metrics = []
        choice = []
        for p0, a0, b0, p1, a1, b1 in _TRELLIS:
            m0 = pm[p0] + x0 * a0 + x1 * b0
            m1 = pm[p1] + x0 * a1 + x1 * b1
            if m1 > m0:
                metrics.append(m1)
                choice.append(p1)
            else:
                metrics.append(m0)
                choice.append(p0)
        pm = metrics
        back.append(choice)
    bits = []
    state = 0
    for choice in reversed(back):
        bits.append(state >> 2)
        state = choice[state]
    return np.array(bits[::-1], dtype=np.uint8)


def test_unrolled_viterbi_matches_the_table_loop_bit_for_bit():
    # x*(-1.0) is exact negation, so (m - x0) - x1 is (m + x0*-1) + x1*-1
    # to the bit.  Halves make metrics tie exactly, where predecessor 0
    # must win; tenths make candidates that tie in exact arithmetic differ
    # by the rounding of their summation order; all-zero inputs tie at
    # every step.
    rng = np.random.default_rng(31)
    for s in (2, 8):
        for i in range(1500):
            n = int(rng.integers(1, 160)) * 2 * _spreading(s)
            symbols = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            if i % 50 == 0:
                symbols = np.zeros(n)
            elif i % 3 == 1:
                symbols = np.round(rng.standard_normal(n) * 2.0) / 2.0
            elif i % 3 == 2:
                symbols = np.round(rng.standard_normal(n), 1)
            assert np.array_equal(viterbi_decode(symbols, s),
                                  viterbi_loop_oracle(symbols, s)), (s, i)


def test_viterbi_returns_bits_on_nan_input():
    rng = np.random.default_rng(30)
    for s in (2, 8):
        n = 40 * 2 * _spreading(s)
        partly = rng.standard_normal(n)
        partly[::7] = np.nan
        for soft in (np.full(n, np.nan), partly):
            bits = viterbi_decode(soft, s)
            assert bits.dtype == np.uint8 and bits.shape == (40,)
            assert set(bits.tolist()) <= {0, 1}


def test_viterbi_round_trip():
    rng = np.random.default_rng(24)
    for s in (2, 8):
        for _ in range(50):
            msg = np.concatenate(
                [random_bits(int(rng.integers(8, 150)), rng),
                 np.zeros(TERM_BITS, dtype=np.uint8)]
            )
            symbols = pattern_map(fec_encode(msg), s)
            assert np.array_equal(viterbi_decode(symbols, s), msg)


def test_viterbi_corrects_every_single_coded_bit_flip():
    # 100-bit message, all 206 coded-bit positions, both schemes.
    rng = np.random.default_rng(25)
    msg = np.concatenate([random_bits(100, rng), np.zeros(3, dtype=np.uint8)])
    coded = fec_encode(msg)
    assert coded.size == 206
    for s in (2, 8):
        for i in range(coded.size):
            bad = coded.copy()
            bad[i] ^= 1
            assert np.array_equal(viterbi_decode(pattern_map(bad, s), s), msg), (
                f"flip at coded bit {i}, scheme {s}"
            )


def test_viterbi_soft_beats_erasures():
    # Zeroed soft symbols (erasures) inside one pattern group still decode.
    rng = np.random.default_rng(26)
    msg = np.concatenate([random_bits(60, rng), np.zeros(3, dtype=np.uint8)])
    soft = pattern_map(fec_encode(msg), 8).astype(np.float64) * 2.0 - 1.0
    soft[40:44] = 0.0
    soft[100:102] = 0.0
    assert np.array_equal(viterbi_decode(soft, 8), msg)


def test_assemble_coded_structure():
    rng = np.random.default_rng(27)
    pdu = random_bits(64, rng)
    pkt = LinkLayerPacket(pdu, ChannelIndex(37))
    for mode, s in ((PhyMode.LE125K, 8), (PhyMode.LE500K, 2)):
        assert CODING_SCHEMES[mode].s == s
        sym = assemble_coded(pkt, mode)
        assert sym.size == 80 + block1_symbol_count() + block2_symbol_count(64, s)
        assert np.array_equal(sym[:80], np.tile([0, 0, 1, 1, 1, 1, 0, 0], 10))
        # Block 1 is always S=8 and carries AA then CI then the flush.
        b1 = viterbi_decode(sym[80:80 + block1_symbol_count()], 8)
        assert b1.size == BLOCK1_INPUT_BITS
        assert bits_to_int(b1[:32], lsb_first=True) == ADVERTISING_ACCESS_ADDRESS
        assert bits_to_int(b1[32:34], lsb_first=True) == CODING_SCHEMES[mode].ci
        assert not b1[34:].any()
        # Block 2 de-whitens back to PDU + CRC.
        b2 = viterbi_decode(sym[80 + block1_symbol_count():], s)
        body = whiten(b2[:-TERM_BITS], 37)
        assert np.array_equal(body[:64], pdu)
    with pytest.raises(ParamError):
        assemble_coded(pkt, PhyMode.LE1M)


def test_block1_depends_only_on_access_address():
    # The first coded block never sees the payload: sync can rely on it.
    rng = np.random.default_rng(28)
    pkt_a = LinkLayerPacket(random_bits(32, rng), ChannelIndex(4))
    pkt_b = LinkLayerPacket(random_bits(200, rng), ChannelIndex(19))
    a = assemble_coded(pkt_a, PhyMode.LE125K)
    b = assemble_coded(pkt_b, PhyMode.LE125K)
    head = 80 + block1_symbol_count()
    assert np.array_equal(a[:head], b[:head])


def coded_symbols(packet, mode, ci, s):
    """assemble_coded with the CI field and block-2 scheme given by hand."""
    aa = int_to_bits(ADVERTISING_ACCESS_ADDRESS, 32, lsb_first=True)
    term = np.zeros(TERM_BITS, dtype=np.uint8)
    block1 = pattern_map(
        fec_encode(np.concatenate([aa, int_to_bits(ci, 2), term])), 8)
    body = np.concatenate([packet.pdu, crc24_bits(packet.pdu)])
    block2 = pattern_map(
        fec_encode(np.concatenate([whiten(body, packet.channel.index), term])), s)
    return np.concatenate([mode.preamble_bits(), block1, block2])


def test_scheme_from_ci():
    # The one table: LE125K announces S=8 with CI 00, LE500K S=2 with CI 01.
    assert CODING_SCHEMES[PhyMode.LE125K].ci == 0b00
    assert CODING_SCHEMES[PhyMode.LE125K].s == 8
    assert CODING_SCHEMES[PhyMode.LE500K].ci == 0b01
    assert CODING_SCHEMES[PhyMode.LE500K].s == 2
    assert set(CODING_SCHEMES) == {m for m in PhyMode if m.coded}
    # The receiver decodes block 2 with the scheme the CI announces, and a
    # reserved CI value falls back to the mode's own scheme.
    rng = np.random.default_rng(29)
    pulse = gaussian_taps()
    pkt = LinkLayerPacket(random_bits(48, rng), ChannelIndex(12))
    for mode, scheme in CODING_SCHEMES.items():
        assert np.array_equal(coded_symbols(pkt, mode, scheme.ci, scheme.s),
                              assemble_coded(pkt, mode))
        for ci in (0b10, 0b11):
            tx = gmsk_modulate(coded_symbols(pkt, mode, ci, scheme.s), pulse)
            frame = IqFrame(np.concatenate([np.zeros(300, complex), tx.samples,
                                            np.zeros(200, complex)]),
                            tx.sample_rate, tx.symbol_rate)
            rep = receive(frame, ReceiverConfig(phy_mode=mode, channel=12,
                                                pdu_bits=48))
            assert rep.crc_ok, (mode, ci)
            assert np.array_equal(rep.pdu, pkt.pdu)
