"""Detection oracle for the coded modes: misses, timing slips and carrier
offset errors at the acceptance suite's operating points.

The cases are frames 0-399 of LE500K and LE125K in criterion 2's NLOS
campaign at 12 dB and in criterion 4's WLAN campaign (unfaded, 20 dB
SNR) at SIR -10 and 0 dB.  The truth comes from the channel: apply_cfo
is wrapped to record each frame's offset and its packet start, the first
nonzero sample of the frame it is handed (the lead is exact zeros).
Each share is gated at the 95% Wilson upper bound of the count read on
the same frames by the receiver that estimated the coded modes' coarse
CFO by FFT and searched every lag of the frame for the preamble.
"""
from unittest import mock

import numpy as np
import pytest

from blesim import harness
from blesim.channel import InterfererConfig, nlos_profile
from blesim.harness import ScenarioConfig, run_frame, wilson_interval
from blesim.phymode import PhyMode

FRAMES = 400
CASES = {
    "nlos": ScenarioConfig(
        id="acc-nlos", seed=202, profile=nlos_profile(), frames=FRAMES,
        phy_modes=(PhyMode.LE500K, PhyMode.LE125K), snr_sweep_db=(12.0,)),
    "wlan": ScenarioConfig(
        id="acc-wlan", seed=404, interferer=InterfererConfig(), frames=FRAMES,
        phy_modes=(PhyMode.LE500K, PhyMode.LE125K), snr_sweep_db=(20.0,),
        sir_sweep_db=(-10.0, 0.0)),
}
CFO_TOLERANCE_HZ = 10e3

# (missed, timing off by more than a sample, CFO off by more than
# CFO_TOLERANCE_HZ) out of FRAMES, for each (case, mode, SIR), as the
# earlier receiver read them; None where the frames are faded and the
# start is not defined to a sample.
EARLIER = {
    ("nlos", PhyMode.LE500K, None): (1, None, 0),
    ("nlos", PhyMode.LE125K, None): (3, None, 0),
    ("wlan", PhyMode.LE500K, -10.0): (0, 0, 0),
    ("wlan", PhyMode.LE500K, 0.0): (0, 0, 0),
    ("wlan", PhyMode.LE125K, -10.0): (0, 0, 0),
    ("wlan", PhyMode.LE125K, 0.0): (0, 0, 0),
}


def detection_counts(case: str, mode: PhyMode) -> dict:
    """(missed, slipped, cfo_off) per SIR over the case's frames, slipped
    None on faded frames."""
    cfg = CASES[case]
    truth = {}

    def recording(frame, offset_hz):
        truth["start"] = int(np.flatnonzero(frame.samples)[0])
        truth["cfo"] = offset_hz
        return harness_apply_cfo(frame, offset_hz)

    harness_apply_cfo = harness.apply_cfo
    unfaded = cfg.profile is None
    snr = cfg.snr_sweep_db[0]
    sirs = cfg.sir_sweep_db or (None,)
    counts = {sir: [0, 0 if unfaded else None, 0] for sir in sirs}
    with mock.patch.object(harness, "apply_cfo", recording):
        for k in range(FRAMES):
            shared: dict = {}
            for sir in sirs:
                rep = run_frame(cfg, mode, snr, sir, k, shared=shared)
                c = counts[sir]
                if not rep.detected:
                    c[0] += 1
                    continue
                if unfaded and abs(rep.timing_offset - truth["start"]) > 1:
                    c[1] += 1
                if abs(rep.cfo_estimate_hz - truth["cfo"]) > CFO_TOLERANCE_HZ:
                    c[2] += 1
    return {sir: tuple(c) for sir, c in counts.items()}


@pytest.mark.parametrize("mode", [PhyMode.LE500K, PhyMode.LE125K])
@pytest.mark.parametrize("case", list(CASES))
def test_detection_shares_within_earlier_bounds(case, mode):
    for sir, got in detection_counts(case, mode).items():
        earlier = EARLIER[case, mode, sir]
        for name, n, n0 in zip(("missed", "slipped", "cfo_off"), got, earlier):
            if n0 is None:
                continue
            bound = wilson_interval(n0, FRAMES)[1]
            assert n / FRAMES <= bound, (case, mode.value, sir, name, n, n0)


# LE125K NLOS frames whose whitened payload holds a stretch with the
# preamble's 8-symbol period that outscores the preamble itself; acquired
# from the highest autocorrelation peak alone, 4 of these 12 cases fail.
PERIODIC_PAYLOAD = ScenarioConfig(
    id="coded_nlos", seed=7, phy_modes=("LE125K",), profile=nlos_profile(),
    channel=37, pdu_bits=128)


@pytest.mark.parametrize("snr", [0.0, 20.0])
@pytest.mark.parametrize("frame_idx", [95, 113, 121, 125, 178, 197])
def test_periodic_payload_does_not_capture_acquisition(frame_idx, snr):
    rep = run_frame(PERIODIC_PAYLOAD, PhyMode.LE125K, snr, None, frame_idx)
    assert rep.crc_ok, rep.reason
