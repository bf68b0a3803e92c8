"""The benchmark's workloads: fixed-size campaigns driven through the public API.

Every workload uses a 128-bit PDU and the harness defaults for CFO range
and DC level.  A run repeats campaigns of ``frames`` frames per point;
campaign ``k`` of a run seeded ``s`` uses scenario seed
``s + CAMPAIGN_SEED_STRIDE * k``, so runs with different seeds draw
different frames and campaign 0 replays with ``blesim run --config``.
Why each workload exists is recorded in BENCHMARK.json.
"""
from __future__ import annotations

from dataclasses import dataclass

from blesim.channel import InterfererConfig, los_profile, nlos_profile
from blesim.harness import HoppingConfig, ScenarioConfig

# The seed of paper_scenarios().
DEFAULT_SEED = 45541
CAMPAIGN_SEED_STRIDE = 1_000_003
# The reference counts are drawn from a seed no benchmark run uses, so a
# run's sample is independent of the reference sample.
REFERENCE_SEED = 2**31 - 1


def _sweep(lo: int, step: int, hi: int) -> tuple:
    return tuple(float(s) for s in range(lo, hi + 1, step))


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict
    # Frames per sweep point in one campaign.
    frames: int
    # Campaigns of the traced run; fixed so that its counts repeat exactly.
    trace_campaigns: int
    # Frames per sweep point behind the reference counts of the output check.
    reference_frames: int
    jobs: int = 1

    def config(self, seed: int, campaign: int = 0, **overrides) -> ScenarioConfig:
        kwargs = dict(self.scenario, frames=self.frames, pdu_bits=128)
        kwargs.update(overrides)
        return ScenarioConfig(
            id=self.name, seed=seed + CAMPAIGN_SEED_STRIDE * campaign, **kwargs
        )


WORKLOADS = {w.name: w for w in (
    Workload(
        name="uncoded_nlos",
        scenario=dict(phy_modes=("LE1M", "LE2M"), snr_sweep_db=_sweep(0, 4, 20),
                      profile=nlos_profile(), channel=37),
        frames=20, trace_campaigns=8, reference_frames=500,
    ),
    Workload(
        name="coded_nlos",
        scenario=dict(phy_modes=("LE500K", "LE125K"), snr_sweep_db=_sweep(0, 4, 20),
                      profile=nlos_profile(), channel=37),
        frames=8, trace_campaigns=6, reference_frames=200,
    ),
    Workload(
        name="wlan_los",
        scenario=dict(phy_modes=("LE1M", "LE125K"), snr_sweep_db=(20.0,),
                      sir_sweep_db=(-10.0, 0.0, 10.0), interferer=InterfererConfig(),
                      profile=los_profile(), channel=37),
        frames=8, trace_campaigns=8, reference_frames=300,
    ),
    Workload(
        name="hop_sweep_jobs2",
        scenario=dict(phy_modes=("LE1M",), snr_sweep_db=_sweep(0, 2, 20),
                      profile=los_profile(), channel=None,
                      hopping=HoppingConfig("csa2", "0x1FFFFFFFFF")),
        frames=40, jobs=2, trace_campaigns=6, reference_frames=800,
    ),
)}


def clean_config(seed: int) -> ScenarioConfig:
    """All four modes through no channel at all: PER must be exactly 0."""
    return ScenarioConfig(
        id="clean", seed=seed, snr_sweep_db=(float("inf"),), profile=None,
        channel=37, frames=5, pdu_bits=128,
    )
