"""Link-layer packet tests: CRC and whitening against independent oracles."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blesim.bits import bits_to_int, int_to_bits, random_bits
from blesim.coded import (
    CODING_SCHEMES,
    TERM_BITS,
    assemble_coded,
    block1_symbol_count,
    viterbi_decode,
)
from blesim.errors import LengthError, ParamError
from blesim.llpacket import (
    ADVERTISING_ACCESS_ADDRESS,
    ADVERTISING_CRC_INIT,
    ChannelIndex,
    LinkLayerPacket,
    assemble_uncoded,
    crc24,
    crc24_bits,
    validate_packet,
    whiten,
    whitening_sequence,
)
from blesim.phymode import PhyMode

# Long-division CRC oracle.  Divisor x^24 + x^10 + x^9 + x^6 + x^4 + x^3
# + x + 1, first-arriving bit treated as the highest dividend coefficient,
# register preset folded in by XORing the init word over the first 24
# dividend bits (highest register bit meets the first bit on the wire).
_POLY_POSITIONS = (0, 14, 15, 18, 20, 21, 23, 24)  # 24 - exponent


def crc24_longdiv(bits):
    d = [int(b) for b in bits] + [0] * 24
    for i in range(24):
        d[i] ^= (ADVERTISING_CRC_INIT >> (23 - i)) & 1
    for i in range(len(bits)):
        if d[i]:
            for p in _POLY_POSITIONS:
                d[i + p] ^= 1
    return np.array(d[len(bits):], dtype=np.uint8)


def whiten_shuffle(bits, channel):
    # Literal 7-cell LFSR walk: cell 0 preset to 1, cells 1..6 hold the
    # channel index MSB-first; output taps cell 6.
    state = [1] + [(channel >> k) & 1 for k in range(5, -1, -1)]
    out = []
    for b in bits:
        out.append(int(b) ^ state[6])
        state = [state[6], state[0], state[1], state[2],
                 state[3] ^ state[6], state[4], state[5]]
    return np.array(out, dtype=np.uint8)


def test_crc_matches_longdiv_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        msg = random_bits(int(rng.integers(16, 320)), rng)
        assert np.array_equal(crc24_bits(msg), crc24_longdiv(msg))


def test_crc_register_value_matches_onair_bits():
    rng = np.random.default_rng(5)
    for _ in range(100):
        msg = random_bits(64, rng)
        bits = crc24_bits(msg)
        reg = crc24(msg)
        assert reg == sum(int(b) << (23 - i) for i, b in enumerate(bits))


def test_crc_detects_single_and_double_flips():
    rng = np.random.default_rng(7)
    msg = random_bits(128, rng)
    ref = crc24(msg)
    for i in range(len(msg)):
        bad = msg.copy()
        bad[i] ^= 1
        assert crc24(bad) != ref
    for _ in range(200):
        i, j = rng.choice(len(msg), size=2, replace=False)
        bad = msg.copy()
        bad[i] ^= 1
        bad[j] ^= 1
        assert crc24(bad) != ref


def test_whitening_matches_shuffle_oracle():
    rng = np.random.default_rng(8)
    for ch in range(40):
        x = random_bits(260, rng)
        assert np.array_equal(whiten(x, ch), whiten_shuffle(x, ch))


def test_whitening_involution():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        ch = int(rng.integers(0, 40))
        x = random_bits(int(rng.integers(1, 200)), rng)
        assert np.array_equal(whiten(whiten(x, ch), ch), x)


def test_whitening_channel37_seed():
    # Channel 37 = 100101b loads cells 1..6 with 1,0,0,1,0,1.
    seq = whitening_sequence(37, 7)
    state = [1, 1, 0, 0, 1, 0, 1]
    want = []
    for _ in range(7):
        want.append(state[6])
        state = [state[6], state[0], state[1], state[2],
                 state[3] ^ state[6], state[4], state[5]]
    assert seq.tolist() == want


def test_whitening_sequence_period_127():
    seq = whitening_sequence(23, 127 * 3)
    assert np.array_equal(seq[:127], seq[127:254])
    assert np.array_equal(seq[:127], seq[254:])
    # Maximal-length property: 127 states before repeating, 64 ones.
    assert seq[:127].sum() == 64


def test_channel_index_range():
    assert ChannelIndex(0).index == 0 and ChannelIndex(39).index == 39
    for bad in (-1, 40):
        with pytest.raises(ValueError):
            ChannelIndex(bad)


def test_packet_pdu_length_limits():
    rng = np.random.default_rng(10)
    LinkLayerPacket(random_bits(16, rng), ChannelIndex(0))
    LinkLayerPacket(random_bits(2056, rng), ChannelIndex(0))
    with pytest.raises(ParamError):
        LinkLayerPacket(random_bits(8, rng), ChannelIndex(0))
    with pytest.raises(ParamError):
        LinkLayerPacket(random_bits(2064, rng), ChannelIndex(0))


def test_assemble_uncoded_layout():
    rng = np.random.default_rng(11)
    pdu = random_bits(40, rng)
    pkt = LinkLayerPacket(pdu, ChannelIndex(37))
    bits = assemble_uncoded(pkt, PhyMode.LE1M)
    assert bits.size == 8 + 32 + 40 + 24
    # Preamble alternates starting from the complement rule on AA bit 0;
    # the access address itself goes out LSB-first, unwhitened.
    aa_bits = int_to_bits(ADVERTISING_ACCESS_ADDRESS, 32, lsb_first=True)
    assert np.array_equal(bits[8:40], aa_bits)
    body = whiten(bits[40:], 37)
    assert np.array_equal(body[:40], pdu)
    assert np.array_equal(body[40:], crc24_longdiv(pdu))
    # LE2M doubles only the preamble.
    bits2m = assemble_uncoded(pkt, PhyMode.LE2M)
    assert bits2m.size == 16 + 32 + 40 + 24
    assert np.array_equal(bits2m[16:], bits[8:])


def test_validate_packet_paths():
    rng = np.random.default_rng(12)
    pdu = random_bits(32, rng)
    body = np.concatenate([pdu, crc24_bits(pdu)])
    assert validate_packet(ADVERTISING_ACCESS_ADDRESS, body) == (True, True)
    assert validate_packet(ADVERTISING_ACCESS_ADDRESS ^ 1, body) == (False, False)
    bad = body.copy()
    bad[3] ^= 1
    assert validate_packet(ADVERTISING_ACCESS_ADDRESS, bad) == (True, False)
    with pytest.raises(LengthError):
        validate_packet(ADVERTISING_ACCESS_ADDRESS, np.zeros(30, dtype=np.uint8))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(pdu=st.lists(st.integers(0, 1), min_size=16, max_size=600),
       channel=st.integers(0, 39), flip=st.integers(0, 2**16))
def test_packet_layer_round_trips(pdu, channel, flip):
    # In every mode a packet's on-air address decodes to the advertising
    # one and its de-whitened body validates; one flipped PDU or CRC bit
    # fails the CRC alone.
    pkt = LinkLayerPacket(np.array(pdu, dtype=np.uint8), ChannelIndex(channel))
    for mode in PhyMode:
        if mode.coded:
            sym = assemble_coded(pkt, mode)[mode.preamble_len:]
            n1 = block1_symbol_count()
            aa_bits = viterbi_decode(sym[:n1], 8)[:32]
            air = viterbi_decode(sym[n1:], CODING_SCHEMES[mode].s)[:-TERM_BITS]
        else:
            bits = assemble_uncoded(pkt, mode)[mode.preamble_len:]
            aa_bits, air = bits[:32], bits[32:]
        aa_rx = bits_to_int(aa_bits, lsb_first=True)
        assert aa_rx == ADVERTISING_ACCESS_ADDRESS, mode
        body = whiten(air, channel)
        assert np.array_equal(body[:-24], pkt.pdu), mode
        assert validate_packet(aa_rx, body) == (True, True), mode
        body[flip % body.size] ^= 1
        assert validate_packet(aa_rx, body) == (True, False), mode


def test_uncoded_preamble_starts_with_the_address_lsb():
    # phymode cannot import llpacket, so it writes the advertising
    # address's LSB as a literal; this ties the two.
    for mode in (PhyMode.LE1M, PhyMode.LE2M):
        preamble = mode.preamble_bits()
        assert preamble.size == mode.preamble_len
        assert preamble[0] == ADVERTISING_ACCESS_ADDRESS & 1
        assert np.all(preamble[1:] != preamble[:-1])


def test_bit_helpers_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        v = int(rng.integers(0, 2**32))
        assert bits_to_int(int_to_bits(v, 32, lsb_first=True), lsb_first=True) == v
        assert bits_to_int(int_to_bits(v, 32, lsb_first=False), lsb_first=False) == v
