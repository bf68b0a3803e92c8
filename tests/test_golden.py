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
        "7313a48425098146e6b8e88be9787df3949ca470e026c1d1062dc6cc5983eb19",
    ),
    "coded_nlos": (
        dict(phy_modes=("LE500K", "LE125K"), snr_sweep_db=NLOS_SWEEP,
             profile=nlos_profile(), channel=37),
        "b20a6c2ad486ddacc41fe52b78d69553d1dd43f7d0aeafde8af2d4a2ae960848",
    ),
    "wlan_los": (
        dict(phy_modes=("LE1M", "LE125K"), snr_sweep_db=(20.0,),
             sir_sweep_db=(-10.0, 0.0, 10.0), interferer=InterfererConfig(),
             profile=los_profile(), channel=37),
        "f28397719a918afb301c784a5b7de005361c54600522bfd00dfa18228f764b2f",
    ),
    "hop_sweep": (
        dict(phy_modes=("LE1M",), snr_sweep_db=HOP_SWEEP,
             profile=los_profile(), channel=None,
             hopping=HoppingConfig("csa2", "0x1FFFFFFFFF")),
        "a6f6adbf52c6d064d0e68120413cf217bd881a02d533fe106ca3fe5ef0a9e9fb",
    ),
}


def campaign_csv(name: str) -> str:
    scenario = CAMPAIGNS[name][0]
    cfg = ScenarioConfig(id=name, seed=1, frames=5, pdu_bits=128, **scenario)
    out = io.StringIO()
    emit_results(run_campaign(cfg, jobs=1), out)
    return out.getvalue()


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_campaign_csv_matches_golden_digest(name):
    digest = hashlib.sha256(campaign_csv(name).encode()).hexdigest()
    assert digest == CAMPAIGNS[name][1]
