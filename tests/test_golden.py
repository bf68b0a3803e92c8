"""Golden output: the sha256 of the CSV of four small campaigns, and of
the stage captures of one frame in each PHY mode.

The campaigns have the shapes of the benchmark's workloads (uncoded and
coded NLOS sweeps, LOS with the WLAN interferer, CSA#2 hopping) at 5
frames per point.  The captures are `blesim dump-stages` of frame 0 of
an NLOS scenario at 12 dB in each of LE1M, LE2M, LE500K and LE125K:
their six stage files and their stages.json.  A change meant to
leave every result as it is keeps these digests; a change that moves a
result re-pins them and says so in CHANGES.md.
"""
import contextlib
import hashlib
import io

import pytest

from blesim.channel import InterfererConfig, los_profile, nlos_profile
from blesim.cli import main
from blesim.harness import (
    HoppingConfig,
    ScenarioConfig,
    emit_results,
    run_campaign,
    save_scenario,
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


# sha256 of each stage file that dump-stages writes, in stage order.  The
# LE2M frame is detected and fails its access-address check.
CAPTURES = {
    "LE500K": (
        "3b53cea21a272e2f250dae7f3bc82629a725fb705962808b3c08f83dbfae5e9b",
        "c58bd1642e5349e619e46c532ab89c418cde169c45afe5851bc9437f34775c1d",
        "0077e056d98781b1d248ceee1bf26324e4ba7d26558ca347cba924f405fc64b7",
        "ef77ae28b72d0ac603e79905a3133fdf624211b4c8491ea4d11fc9486deea3cb",
        "763bd0742e57ff6dd5fc9d924a8093fc82d77bb6ed38c4043e660769507083fa",
        "f8deacdae9e08666327f7386a21f13b677d5859e7e375105bd3aecbdf0ea6326",
    ),
    "LE1M": (
        "48062b28e1d6c215d4d7649c95ed30ecbbb21fa144c6ec862b0126e54f1dfe99",
        "b77ec34e86f7995234e39766c63689de1b86e0b00069b2639535002f328dc7fa",
        "1e89b95e9de700df0a31259a00b463119555cef80417d53a7c2dca600a363c9d",
        "06f982df9103d0edb68c099035abd1192470d3abd324dd8677c32693f74311fa",
        "eefc22fea9b65c9556807e866e3ebc61fa17c44841293d35367f8210cbe45f41",
        "e8799c91dfc4b2f4dcd1cd85aab9204c58f6929276d3d0f23cdf3c35188b1144",
    ),
    "LE2M": (
        "6e226412022970f41a53bf44011dad3e8af3d1a280080d3a54f5f2d928e5eaa0",
        "50ae2c208bdcce70da68114661d95097a302c4e125d9bb5ca641bae7391f405e",
        "a0143e76a275a4e623fb94cca3219532f2870c4866aeb5ff1db458544a96100e",
        "21a369ed3f355e14995e9abf738d2670bd9a89829d90a3e28edc11a0c9e900a9",
        "8aa3513dd7ee8794a0862e85eca6b471c43bd31daab77f32a31ee693e7b49550",
        "cfe1044d64fefb1379b2b1655258aa23552f507c50c164fadcd3c838f2fadd1f",
    ),
    "LE125K": (
        "dc392326087eadc51cb03ce313ff1560871be5a6bbb9895ef7faaba587680fe4",
        "d96e3a33ded0611cdfe0e15afa5d276ab30292104c8393cc67e1599f6238db3f",
        "2181519f8db7f58eeda521ea7e930bce548a1eb7515f7326aca42210b8faf4d5",
        "82d4ada38847ac7c2f1171daa32fce0b7b2f6389e3526ed77cd629732e688bb7",
        "3b7cb015dcf391fe57d59440d2ad7d7862a3407b1f020daa572077c7a6fb8e8b",
        "ab2c2cf236a2eeb9fa6bd6c01934191307fcd2c121ddd07494254c0ae30f0014",
    ),
}
# sha256 of each capture's stages.json: the scenario, the frame and the
# report of receive() on it.
REPORTS = {
    "LE1M": "4875cb53405dc04d1ba3d2baa9770bd3ce4c0a126a4bcab7d9c4d46fc6679cd1",
    "LE2M": "08243234ef4754d4f3b48df144ded8213aef7958b9dc0ab99aca96269fe8e90c",
    "LE500K": "b28b37451a31b8ae891a124ca1d70832d6741269401818e4d60f48fb9be4510a",
    "LE125K": "3051425573a07d447f6b86f2bfc7de02ea2bd4809e5c01bbc1612e81d1c3d4e1",
}
STAGES = ("input", "agc", "dc_notch", "cfo_corrected", "matched_filter",
          "synchronized")


@pytest.mark.parametrize("phy", list(CAPTURES))
def test_dump_stages_captures_match_golden_digests(phy, tmp_path):
    cfg = ScenarioConfig(id="capture", seed=1, frames=1, pdu_bits=128,
                         phy_modes=(phy,), snr_sweep_db=(12.0,),
                         profile=nlos_profile(), channel=37)
    save_scenario(cfg, tmp_path / "s.json")
    out = tmp_path / "stages"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["dump-stages", "--config", str(tmp_path / "s.json"),
                     "--frame", "0", "--out", str(out)]) == 0
    names = [f"{i:02d}_{stage}.iq" for i, stage in enumerate(STAGES)]
    assert sorted(p.name for p in out.glob("*.iq")) == names
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in names)
    assert digests == CAPTURES[phy]
    report = hashlib.sha256((out / "stages.json").read_bytes()).hexdigest()
    assert report == REPORTS[phy]
