"""Channel selection tests: CSA#1 vs a hand-walked oracle, CSA#2 fixtures."""
import numpy as np
import pytest
from scipy.stats import chi2

from blesim.chansel import (
    ChannelMap,
    HopState,
    csa1_next,
    csa2_prn,
    csa2_select,
)
from blesim.errors import ParamError

ADV_AA = 0x8E89BED6


def csa1_oracle(last_unmapped, hop, used_sorted):
    """Walk the remap rule directly on a python list."""
    unmapped = (last_unmapped + hop) % 37
    if unmapped in used_sorted:
        return unmapped, unmapped
    return used_sorted[unmapped % len(used_sorted)], unmapped


def random_map(rng):
    n = int(rng.integers(2, 38))
    return ChannelMap(rng.choice(37, size=n, replace=False))


def test_channel_map_validation():
    with pytest.raises(ParamError):
        ChannelMap([5])
    with pytest.raises(ParamError):
        ChannelMap([1, 37])
    with pytest.raises(ParamError):
        ChannelMap([-1, 3])
    m = ChannelMap([9, 3, 3, 30])
    assert m.used == (3, 9, 30)
    assert m.n_used == 3
    assert 9 in m and 4 not in m


def test_channel_map_mask_round_trip():
    assert ChannelMap.from_mask("0x1FFFFFFFFF") == ChannelMap.all_channels()
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = random_map(rng)
        mask = f"0x{sum(1 << c for c in m.used):010X}"
        assert ChannelMap.from_mask(mask).used == m.used
    assert ChannelMap.from_mask(0b11).used == (0, 1)
    with pytest.raises(ParamError):
        ChannelMap.from_mask("0x2000000000")  # bit 37


def test_hop_state_validation():
    with pytest.raises(ParamError):
        HopState(4)
    with pytest.raises(ParamError):
        HopState(17)
    with pytest.raises(ParamError):
        HopState(7, 37)


def test_csa1_spec_walkthroughs():
    full = ChannelMap.all_channels()
    ch, st = csa1_next(HopState(7, 0), full)
    assert ch.index == 7 and st.last_unmapped == 7
    ch, st = csa1_next(HopState(7, 36), full)
    assert ch.index == 6 and st.last_unmapped == 6
    # Sparse map: unmapped 7 is unused, remap lands on used[7 mod 10] = 28.
    sparse = ChannelMap(range(0, 37, 4))
    ch, st = csa1_next(HopState(7, 0), sparse)
    assert ch.index == 28 and st.last_unmapped == 7


def test_csa1_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = random_map(rng)
        state = HopState(int(rng.integers(5, 17)), int(rng.integers(0, 37)))
        ch, nxt = csa1_next(state, m)
        want_ch, want_last = csa1_oracle(state.last_unmapped,
                                         state.hop_increment, list(m.used))
        assert ch.index == want_ch
        assert nxt.last_unmapped == want_last
        assert nxt.hop_increment == state.hop_increment


def test_csa1_full_map_period_37():
    full = ChannelMap.all_channels()
    for hop in (5, 7, 16):
        state = HopState(hop, 11)
        seen = []
        for _ in range(37):
            ch, state = csa1_next(state, full)
            seen.append(ch.index)
        assert sorted(seen) == list(range(37))
        ch, _ = csa1_next(state, full)
        assert ch.index == seen[0]


def test_csa2_known_answer_vectors():
    # Known-answer values for the advertising access address with all 37
    # data channels used: event counters 0..3.
    full = ChannelMap.all_channels()
    assert [csa2_prn(c, ADV_AA) for c in range(4)] == [56857, 1685, 38301,
                                                       27475]
    assert [csa2_select(c, full, ADV_AA).index for c in range(4)] == [25, 20,
                                                                      6, 21]


def test_csa2_stateless_determinism():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = random_map(rng)
        counter = int(rng.integers(0, 1 << 16))
        aa = int(rng.integers(0, 1 << 32))
        a = csa2_select(counter, m, aa)
        b = csa2_select(counter, m, aa)
        assert a.index == b.index


def test_csa2_uniformity_chi_squared():
    full = ChannelMap.all_channels()
    counts = np.zeros(37)
    n = 10_000
    for counter in range(n):
        counts[csa2_select(counter & 0xFFFF, full, ADV_AA).index] += 1
    stat = float(((counts - n / 37) ** 2 / (n / 37)).sum())
    assert stat < chi2.ppf(0.99, df=36)


@pytest.mark.parametrize("algorithm", ["csa1", "csa2"])
def test_removed_channel_never_selected(algorithm):
    rng = np.random.default_rng(5)
    trials = 0
    while trials < 10_000:
        m = random_map(rng)
        unused = [c for c in range(37) if c not in m]
        if algorithm == "csa1":
            state = HopState(int(rng.integers(5, 17)), int(rng.integers(0, 37)))
            for _ in range(40):
                ch, state = csa1_next(state, m)
                assert ch.index in m
                trials += 1
        else:
            aa = int(rng.integers(0, 1 << 32))
            base = int(rng.integers(0, 1 << 16))
            for k in range(40):
                ch = csa2_select((base + k) & 0xFFFF, m, aa)
                assert ch.index in m
                trials += 1
        if unused:
            assert not any(ch.index == u for u in unused)
