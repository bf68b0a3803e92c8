"""Acceptance suite: the eight headline requirements, one line printed each.

Monte Carlo counts follow the stated sample sizes, so this module runs for
a few minutes; everything else in the test tree is fast.  Run it alone with

    pytest tests/test_acceptance.py -v -s
"""
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import chi2

from blesim.bits import random_bits
from blesim.channel import (
    InterfererConfig,
    apply_cfo,
    awgn,
    los_profile,
    nlos_profile,
)
from blesim.chansel import ChannelMap, HopState, csa1_next, csa2_select
from blesim.coded import assemble_coded, fec_encode, pattern_map, viterbi_decode
from blesim.gmsk import IqFrame, gaussian_taps, gmsk_modulate
from blesim.harness import (
    HoppingConfig,
    ScenarioConfig,
    run_campaign,
    run_frame,
    save_scenario,
)
from blesim.llpacket import (
    ADVERTISING_CRC_INIT,
    ChannelIndex,
    LinkLayerPacket,
    assemble_uncoded,
    crc24_bits,
    whiten,
)
from blesim.phymode import PhyMode
from blesim.receiver import ReceiverConfig, receive

ALL_MODES = (PhyMode.LE1M, PhyMode.LE2M, PhyMode.LE500K, PhyMode.LE125K)


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n{line}")


def per_points(cfg: ScenarioConfig) -> dict:
    """(PER, Wilson lo, Wilson hi) of each (mode, SIR) point of a campaign
    run in two worker processes.  A frame's draws depend on its mode and
    index only, so the counts are those of run_frame called frame by frame
    for each point alone.  PER is 1 - valid/frames, which rounds as the
    printed lines always have (errors/frames can round 0.0165 up)."""
    return {(PhyMode(r.phy), r.sir_db):
            (1.0 - r.valid / r.frames, r.wilson_lo, r.wilson_hi)
            for r in run_campaign(cfg, jobs=2)}


# Criterion 2 and 3 share the NLOS LE1M point; computed once on demand.
_CACHE: dict = {}


def nlos_per(mode: PhyMode):
    if not _CACHE:
        cfg = ScenarioConfig(
            id="acc-nlos", seed=202, profile=nlos_profile(), frames=2000,
            phy_modes=(PhyMode.LE125K, PhyMode.LE500K, PhyMode.LE1M),
            snr_sweep_db=(12.0,))
        _CACHE.update(per_points(cfg))
    return _CACHE[mode, None]


def test_criterion_1_clean_channel_per_zero(capsys):
    cfg = ScenarioConfig(id="acc-clean", seed=101, channel=None,
                         hopping=HoppingConfig())
    frames = 1000
    fails, timings = [], []
    for mode in ALL_MODES:
        t0 = time.perf_counter()
        bad = sum(
            not run_frame(cfg, mode, float("inf"), None, k).crc_ok
            for k in range(frames)
        )
        dt = time.perf_counter() - t0
        fails.append(bad)
        timings.append(dt)
    detail = ", ".join(
        f"{m.value} {b}/{frames} err {t:.0f}s"
        for m, b, t in zip(ALL_MODES, fails, timings)
    )
    ok = all(b == 0 for b in fails) and all(t < 60 for t in timings)
    announce(capsys, f"criterion 1 (clean-channel PER=0, <60s/mode): "
                     f"{'PASS' if ok else 'FAIL'} [{detail}]")
    assert all(b == 0 for b in fails), detail
    assert all(t < 60 for t in timings), detail


def test_criterion_2_coded_phy_ordering(capsys):
    p125 = nlos_per(PhyMode.LE125K)
    p500 = nlos_per(PhyMode.LE500K)
    p1m = nlos_per(PhyMode.LE1M)
    ordered = p125[0] < p500[0] < p1m[0]
    disjoint = p125[2] < p1m[1]
    detail = (f"LE125K {p125[0]:.3f} [{p125[1]:.3f},{p125[2]:.3f}] < "
              f"LE500K {p500[0]:.3f} < LE1M {p1m[0]:.3f} "
              f"[{p1m[1]:.3f},{p1m[2]:.3f}]")
    ok = ordered and disjoint
    announce(capsys, f"criterion 2 (NLOS 12 dB coded ordering): "
                     f"{'PASS' if ok else 'FAIL'} [{detail}]")
    assert ordered, detail
    assert disjoint, detail


def test_criterion_3_los_vs_nlos(capsys):
    cfg = ScenarioConfig(id="acc-los", seed=303, profile=los_profile(),
                         phy_modes=(PhyMode.LE1M,), snr_sweep_db=(12.0,),
                         frames=2000)
    plos = per_points(cfg)[PhyMode.LE1M, None]
    pnlos = nlos_per(PhyMode.LE1M)
    disjoint = plos[2] < pnlos[1]
    reduction = (pnlos[0] - plos[0]) / max(pnlos[0], 1e-12)
    detail = (f"LOS {plos[0]:.3f} [{plos[1]:.3f},{plos[2]:.3f}] vs "
              f"NLOS {pnlos[0]:.3f} [{pnlos[1]:.3f},{pnlos[2]:.3f}], "
              f"reduction {reduction:.0%}")
    ok = disjoint and reduction >= 0.5
    announce(capsys, f"criterion 3 (LOS vs NLOS at 12 dB): "
                     f"{'PASS' if ok else 'FAIL'} [{detail}]")
    assert disjoint, detail
    assert reduction >= 0.5, detail


def test_criterion_4_interference_collapse(capsys):
    cfg = ScenarioConfig(id="acc-wlan", seed=404, phy_modes=ALL_MODES,
                         interferer=InterfererConfig(), snr_sweep_db=(20.0,),
                         sir_sweep_db=(-10.0, 10.0), frames=500)
    per = per_points(cfg)
    low = {m: per[m, -10.0][0] for m in ALL_MODES}
    high = {m: per[m, 10.0][0] for m in ALL_MODES}
    ok = (low[PhyMode.LE1M] >= 0.95
          and low[PhyMode.LE125K] <= 0.5
          and 0.05 < low[PhyMode.LE500K] < 0.95
          and all(p < 0.1 for p in high.values()))
    detail = ("sir -10: " + ", ".join(f"{m.value} {low[m]:.3f}" for m in ALL_MODES)
              + "; sir +10: " + ", ".join(f"{m.value} {high[m]:.3f}" for m in ALL_MODES))
    announce(capsys, f"criterion 4 (WLAN interference collapse): "
                     f"{'PASS' if ok else 'FAIL'} [{detail}]")
    assert low[PhyMode.LE1M] >= 0.95, detail
    assert low[PhyMode.LE125K] <= 0.5, detail
    assert 0.05 < low[PhyMode.LE500K] < 0.95, detail
    for m, p in high.items():
        assert p < 0.1, f"{m.value} at sir +10: {detail}"


def test_criterion_5_cfo_and_timing_accuracy(capsys):
    pulse = gaussian_taps()
    rng = np.random.default_rng(505)
    cfo_err, timing_err = [], []
    for mode in ALL_MODES:
        for _ in range(50):
            pdu = random_bits(128, rng)
            packet = LinkLayerPacket(pdu=pdu, channel=ChannelIndex(9))
            if mode.coded:
                bits = assemble_coded(packet, mode)
            else:
                bits = assemble_uncoded(packet, mode)
            tx = gmsk_modulate(bits, pulse, symbol_rate=mode.symbol_rate)
            lead = int(rng.integers(100, 2000))
            frame = IqFrame(
                np.concatenate([np.zeros(lead, complex), tx.samples,
                                np.zeros(128, complex)]),
                tx.sample_rate, tx.symbol_rate,
            )
            true_cfo = float(rng.uniform(-50e3, 50e3))
            frame = awgn(apply_cfo(frame, true_cfo), 15.0,
                         seed=int(rng.integers(2**63)))
            rep = receive(frame, ReceiverConfig(phy_mode=mode, channel=9,
                                                pdu_bits=128))
            assert rep.detected, mode
            cfo_err.append(rep.cfo_estimate_hz - true_cfo)
            timing_err.append(abs(rep.timing_offset - lead))
    rms = float(np.sqrt(np.mean(np.square(cfo_err))))
    timing_ok_frac = float(np.mean(np.array(timing_err) <= 1))
    ok = rms < 1e3 and timing_ok_frac >= 0.99
    detail = (f"CFO residual RMS {rms:.0f} Hz over {len(cfo_err)} packets, "
              f"timing within 1 sample in {timing_ok_frac:.1%}")
    announce(capsys, f"criterion 5 (CFO/timing accuracy at 15 dB): "
                     f"{'PASS' if ok else 'FAIL'} [{detail}]")
    assert rms < 1e3, detail
    assert timing_ok_frac >= 0.99, detail


def _crc24_longdiv(bits, init=ADVERTISING_CRC_INIT):
    # Bit-serial polynomial division; positions are 24 minus the exponents
    # of x^24+x^10+x^9+x^6+x^4+x^3+x+1.
    d = [int(b) for b in bits] + [0] * 24
    for i in range(24):
        d[i] ^= (init >> (23 - i)) & 1
    for i in range(len(bits)):
        if d[i]:
            for p in (0, 14, 15, 18, 20, 21, 23, 24):
                d[i + p] ^= 1
    return np.array(d[len(bits):], dtype=np.uint8)


def test_criterion_6_link_layer_oracles(capsys):
    rng = np.random.default_rng(606)
    for _ in range(1000):
        payload = random_bits(int(rng.integers(16, 257)), rng)
        assert np.array_equal(crc24_bits(payload), _crc24_longdiv(payload))
    for _ in range(1000):
        bits = random_bits(int(rng.integers(1, 400)), rng)
        ch = int(rng.integers(0, 40))
        assert np.array_equal(whiten(whiten(bits, ch), ch), bits)
    flips = 0
    msg = random_bits(100, rng)
    coded = fec_encode(np.concatenate([msg, np.zeros(3, np.uint8)]))
    for s in (2, 8):
        for i in range(coded.size):
            bad = coded.copy()
            bad[i] ^= 1
            decoded = viterbi_decode(pattern_map(bad, s), s)
            assert np.array_equal(decoded[:100], msg), (s, i)
            flips += 1
    line = (f"criterion 6 (CRC/whitening/Viterbi oracles): PASS "
            f"[1000 CRC, 1000 involutions, {flips} single-flip corrections]")
    announce(capsys, line)


def test_criterion_7_channel_selection(capsys):
    full = ChannelMap.all_channels()
    aa = 0x8E89BED6
    fixtures = [csa2_select(c, full, aa).index for c in range(4)]
    assert fixtures == [25, 20, 6, 21], fixtures

    rng = np.random.default_rng(707)
    for _ in range(1000):
        used = sorted(rng.choice(37, size=int(rng.integers(2, 38)),
                                 replace=False))
        m = ChannelMap(used)
        hop = int(rng.integers(5, 17))
        last = int(rng.integers(0, 37))
        unmapped = (last + hop) % 37
        want = unmapped if unmapped in used else used[unmapped % len(used)]
        got, _ = csa1_next(HopState(hop, last), m)
        assert got.index == want

    n = 10_000
    counts = np.zeros(37)
    for counter in range(n):
        counts[csa2_select(counter & 0xFFFF, full, aa).index] += 1
    stat = float(((counts - n / 37) ** 2 / (n / 37)).sum())
    crit = float(chi2.ppf(0.99, df=36))
    ok = stat < crit
    announce(capsys, f"criterion 7 (CSA fixtures/oracle/uniformity): "
                     f"{'PASS' if ok else 'FAIL'} "
                     f"[fixtures 25,20,6,21; chi2 {stat:.1f} < {crit:.1f}]")
    assert ok


def test_criterion_8_reproducible_cli_runs(capsys, tmp_path):
    blesim = shutil.which("blesim")
    cmd = [blesim] if blesim else [sys.executable, "-m", "blesim.cli"]
    cfg = ScenarioConfig(
        id="acc-repro", seed=808, phy_modes=(PhyMode.LE1M, PhyMode.LE125K),
        snr_sweep_db=(8.0, 12.0), channel=None,
        hopping=HoppingConfig("csa2", "0x1FFFFFFFFF", 7),
        profile=nlos_profile(), frames=40, pdu_bits=64,
    )
    cfg_path = tmp_path / "scenario.json"
    save_scenario(cfg, cfg_path)
    outputs = []
    for name, jobs in (("a.csv", 1), ("b.csv", 1), ("c.csv", 2)):
        out = tmp_path / name
        proc = subprocess.run(
            cmd + ["run", "--config", str(cfg_path), "--out", str(out),
                   "--jobs", str(jobs)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    announce(capsys, f"criterion 8 (byte-identical reruns, jobs-independent): "
                     f"{'PASS' if ok else 'FAIL'} "
                     f"[{len(outputs[0])} bytes x 3 runs]")
    assert outputs[0] == outputs[1], "rerun with same seed differed"
    assert outputs[0] == outputs[2], "--jobs changed the output"
