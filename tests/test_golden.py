"""Golden output: the sha256 of the CSV of four small campaigns.

The campaigns have the shapes of the benchmark's workloads (uncoded and
coded NLOS sweeps, LOS with the WLAN interferer, CSA#2 hopping) at 5
frames per point.  A change meant to leave every result as it is keeps
these digests; a change that moves a result re-pins them and says so in
CHANGES.md.
"""
import hashlib
import io

import pytest

from blesim.channel import InterfererConfig, los_profile, nlos_profile
from blesim.harness import (
    HoppingConfig,
    ScenarioConfig,
    emit_results,
    run_campaign,
)

NLOS_SWEEP = tuple(float(s) for s in range(0, 21, 4))
HOP_SWEEP = tuple(float(s) for s in range(0, 21, 2))

CAMPAIGNS = {
    "uncoded_nlos": (
        dict(phy_modes=("LE1M", "LE2M"), snr_sweep_db=NLOS_SWEEP,
             profile=nlos_profile(), channel=37),
        "58c76f8f0f006989fa3c362beaf87a48b383d0ad60754a2d7e2d82b54e9cbfa3",
    ),
    "coded_nlos": (
        dict(phy_modes=("LE500K", "LE125K"), snr_sweep_db=NLOS_SWEEP,
             profile=nlos_profile(), channel=37),
        "d8ba67047c5dd7107955ebb4ef78f2aa6ee52c9c8282a7b3b6631f6aab875916",
    ),
    "wlan_los": (
        dict(phy_modes=("LE1M", "LE125K"), snr_sweep_db=(20.0,),
             sir_sweep_db=(-10.0, 0.0, 10.0), interferer=InterfererConfig(),
             profile=los_profile(), channel=37),
        "c5cdba46ba0a11be20a10bba9fea513f5507f5bcb2bc8101ce9ada3d093e01e4",
    ),
    "hop_sweep": (
        dict(phy_modes=("LE1M",), snr_sweep_db=HOP_SWEEP,
             profile=los_profile(), channel=None,
             hopping=HoppingConfig("csa2", "0x1FFFFFFFFF")),
        "5b69082c00c38c8cb4bfd36f41157d533c988398a4df1a5a4649862965f5ab2a",
    ),
}


def campaign_digest(name: str, jobs: int) -> str:
    scenario = CAMPAIGNS[name][0]
    cfg = ScenarioConfig(id=name, seed=1, frames=5, pdu_bits=128, **scenario)
    out = io.StringIO()
    emit_results(run_campaign(cfg, jobs=jobs), out)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_campaign_csv_matches_golden_digest(name):
    assert campaign_digest(name, jobs=1) == CAMPAIGNS[name][1]


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_campaign_csv_is_the_same_at_jobs_3(name):
    # Three chunks of frames per mode, more than a 2-core machine has
    # workers, so chunks queue and finish out of order.
    assert campaign_digest(name, jobs=3) == CAMPAIGNS[name][1]
