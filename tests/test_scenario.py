"""Scenario validation: every bad scenario is a ConfigError (CLI exit 2)
when it loads, and every scenario that loads runs."""
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blesim import cli
from blesim.channel import (
    ChannelProfile,
    InterfererConfig,
    interferer_inband_fraction,
    nlos_profile,
    reverberant_profile,
)
from blesim.chansel import ChannelMap, HopState
from blesim.errors import ConfigError, ParamError
from blesim.harness import (
    HoppingConfig,
    ScenarioConfig,
    _TOP_KEYS,
    emit_results,
    load_scenario,
    run_campaign,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from blesim.llpacket import ChannelIndex, LinkLayerPacket
from blesim.phymode import PhyMode

BASE = scenario_to_dict(ScenarioConfig(
    id="bad", seed=3, phy_modes=("LE1M",), snr_sweep_db=(30.0,), frames=2,
    pdu_bits=32,
))
WLAN = {"interferer": {}, "sir_sweep_db": [0.0]}


def hopping(**hop):
    return {"channel": {"hopping": hop}}


BAD_CONFIGS = {
    "phy_modes empty": {"phy_modes": []},
    "phy_modes string": {"phy_modes": "LE1M"},
    "duty cycle 2": dict(WLAN, interferer={"duty_cycle": 2}),
    "snr string": {"snr_sweep_db": "abc"},
    "channel index 40": {"channel": {"index": 40}},
    "pdu_bits 8": {"pdu_bits": 8},
    "access address 2^33": {"access_address": 2**33},
    "seed string": {"seed": "abc"},
    "id number": {"id": 5},
    "one-channel hop map": hopping(algorithm="csa2", map="0x0000000001"),
    "csa1 hop increment 3": hopping(algorithm="csa1", hop_increment=3),
    "csa2 hop increment 3": hopping(algorithm="csa2", hop_increment=3),
    "csa2 hop increment 17": hopping(hop_increment=17),
    "interferer 200 MHz wide": dict(WLAN, interferer={"bandwidth_hz": 200e6}),
    "frames 2.5": {"frames": 2.5},
    "snr empty": {"snr_sweep_db": []},
    "snr nan": {"snr_sweep_db": ["nan"]},
    "frames true": {"frames": True},
    "seed -1": {"seed": -1},
    # true and 1.0 equal 1 in Python, but the version is the JSON integer 1.
    "version true": {"version": True},
    "version 1.0": {"version": 1.0},
    # The CFO range, the DC level and the profile's reference rate are
    # fixed, so their old keys are unknown, whatever they hold.
    "cfo_range one value": {"cfo_range_hz": [1]},
    "cfo past fs/2": {"cfo_range_hz": [-5e6, 5e6]},
    "canned profile rate -5": {"profile": {"kind": "nlos",
                                           "reference_rate_hz": -5}},
    # The receiver is fixed, so a `receiver` object is an unknown key,
    # whatever it holds.
    "unknown receiver key": {"receiver": {"bogus": 1}},
    "agc_mode medium": {"receiver": {"agc_mode": "medium"}},
    "cfo_max_offset_hz true": {"receiver": {"cfo_max_offset_hz": True}},
    "detect threshold true": {"receiver": {"preamble_detect_threshold": True}},
    # The link is fixed, so its three old keys are unknown, even at the
    # values every frame uses.
    "sps 8": {"sps": 8},
    "access_address advertising": {"access_address": 0x8E89BED6},
    "crc_init advertising": {"crc_init": 0x555555},
    # Nested objects: a bool is no number and a hop map is a hex string or
    # an integer.  The interferer is fixed, so any key in its object is
    # unknown, whatever it holds.
    "duty cycle true": dict(WLAN, interferer={"duty_cycle": True}),
    "center offset true": dict(WLAN, interferer={"center_offset_hz": True}),
    "burst 2.5 symbols": dict(WLAN, interferer={"burst_symbols": 2.5,
                                                "duty_cycle": 0.5}),
    "burst true": dict(WLAN, interferer={"burst_symbols": True}),
    "hop map 3.7": hopping(map=3.7),
    # The profiles are fixed, so a profile object holds its kind alone:
    # taps and a K factor are unknown keys, and "custom" no kind.
    "tap delay -1": {"profile": {"kind": "custom", "taps": [[-1, 0.0]]}},
    "rician K true": {"profile": {"kind": "los", "rician_k_db": True}},
    "tap delay true": {"profile": {"taps": [[True, 0.0], [0, -3]]}},
}


@pytest.mark.parametrize("patch", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_cli_rejects_bad_config_before_any_frame(patch, tmp_path, capsys,
                                                 monkeypatch):
    started = []
    monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: started.append(a))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(dict(BASE, **patch)))
    out = tmp_path / "res.csv"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "Traceback" not in err[0]
    assert not started
    assert not out.exists()


def test_cli_seed_override_is_validated(tmp_path, capsys):
    cfg_path = tmp_path / "s.json"
    cfg_path.write_text(json.dumps(BASE))
    out = tmp_path / "res.csv"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "-5"]) == 2
    assert capsys.readouterr().err.startswith("error: seed")
    assert not out.exists()


def test_cli_per_rejects_bad_pdu_bits(capsys):
    assert cli.main(["per", "--phy", "LE1M", "--snr", "30",
                     "--pdu-bits", "8"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_python_constructor_checks_like_json():
    with pytest.raises(ConfigError, match="frames"):
        ScenarioConfig(id="x", seed=1, frames=True)
    with pytest.raises(ConfigError, match="seed"):
        ScenarioConfig(id="x", seed=None)
    with pytest.raises(ConfigError):
        ScenarioConfig(id="x", seed=1, snr_sweep_db=(float("-inf"),))
    with pytest.raises(ConfigError):
        ScenarioConfig(id="x", seed=1, snr_sweep_db=(float("nan"),))
    # A nested object of the wrong type is a ConfigError too, never an
    # AttributeError mid-check or a campaign run on it.
    with pytest.raises(ConfigError, match="hopping"):
        ScenarioConfig(id="x", seed=1, channel=None, hopping="csa2")
    for bad in (3, {"kind": "nlos"}, "custom"):
        with pytest.raises(ConfigError, match="profile"):
            ScenarioConfig(id="x", seed=1, profile=bad)
    assert ScenarioConfig(id="x", seed=1, profile="nlos").profile is nlos_profile()
    with pytest.raises(ConfigError, match="interferer"):
        ScenarioConfig(id="x", seed=1, interferer="wlan", sir_sweep_db=(0.0,))
    cfg = ScenarioConfig(id="x", seed=1)
    with pytest.raises(ConfigError, match="seed"):
        replace(cfg, seed=-1)
    # The nested objects' checks live in the component, so Python
    # construction rejects what a scenario file does.
    for make in (lambda: ChannelMap.from_mask(3.7),
                 lambda: HoppingConfig("csa3"),
                 lambda: HoppingConfig(hop_increment=7.5),
                 lambda: ChannelMap([1.5, 3]),
                 lambda: ChannelMap([True, 3]),
                 lambda: HopState(7.5),
                 lambda: ChannelIndex(True),
                 lambda: LinkLayerPacket(access_address=1.5)):
        with pytest.raises(ParamError):
            make()
    # The receivers' check hands pdu_bits back as an int.
    cfg = ScenarioConfig(id="x", seed=1, pdu_bits=np.int64(32))
    assert type(cfg.pdu_bits) is int
    # Integer masks stay valid.
    cfg = scenario_from_dict(dict(BASE, **hopping(map=0b11)))
    assert cfg._channel_map.used == (0, 1)


def test_profile_object_is_its_kind_alone():
    for prof in ChannelProfile:
        cfg = scenario_from_dict(dict(BASE, profile={"kind": prof.value}))
        assert cfg.profile is prof
        assert scenario_to_dict(cfg)["profile"] == {"kind": prof.value}
    for bad in ({}, {"kind": None}, {"kind": "custom"},
                {"kind": "los", "rician_k_db": 3.0},
                {"kind": "nlos", "taps": [[0, 0.0]]}):
        with pytest.raises(ConfigError, match="profile"):
            scenario_from_dict(dict(BASE, profile=bad))


def test_json_defaults_come_from_the_dataclasses():
    base = {key: value for key, value in BASE.items() if key != "channel"}
    assert scenario_from_dict(base).channel == ScenarioConfig.channel
    cfg = scenario_from_dict(dict(base, channel={"hopping": {}}))
    assert cfg.hopping == HoppingConfig()
    wlan = scenario_from_dict(dict(base, interferer={}, sir_sweep_db=[0.0]))
    assert wlan.interferer == InterfererConfig()


def test_infinite_snr_stays_valid():
    # The clean-channel check runs at snr_sweep_db [inf].
    cfg = scenario_from_dict(dict(BASE, snr_sweep_db=[math.inf]))
    assert cfg.snr_sweep_db == (math.inf,)
    res = run_campaign(replace(cfg, phy_modes=tuple(PhyMode), frames=2,
                               profile=None))
    assert all(r.per == 0.0 for r in res)


def test_seed_above_32_bits_is_its_own_campaign():
    def rows(seed):
        cfg = ScenarioConfig(id="seeds", seed=seed, phy_modes=("LE1M",),
                             snr_sweep_db=(2.0, 6.0), profile=nlos_profile(),
                             frames=25, pdu_bits=32)
        return [(r.detected, r.valid) for r in run_campaign(cfg)]

    # Seeds below 2^32 draw what the 32-bit masked key drew.
    assert rows(1) == [(18, 4), (18, 7)]
    assert rows(2**32 - 1) == [(20, 7), (21, 10)]
    assert rows(1 + 2**32) != rows(1)


def test_pinned_rows_hopping_interferer_reverberant():
    # Pins what run_frame draws and builds: the frame padding, the TX
    # pulse, CSA#1 hops, the interferer synthesised at 8 Msps (the 24 of
    # its 52 subcarriers inside +-4 MHz), and the reverberant profile.
    cfg = ScenarioConfig(
        id="pinned", seed=2024, phy_modes=("LE1M", "LE125K"),
        snr_sweep_db=(8.0, 20.0), sir_sweep_db=(10.0,), channel=None,
        hopping=HoppingConfig("csa1", "0x1F0F0FF0F3", 11),
        profile=reverberant_profile(),
        interferer=InterfererConfig(),
        frames=16, pdu_bits=32)
    rows = [(r.detected, r.valid) for r in run_campaign(cfg)]
    assert rows == [(9, 0), (8, 0), (16, 12), (16, 14)]


def test_interferer_past_nyquist_loads_and_runs():
    # The 20 MHz band reaches past +-fs/2 at both rates here: at 8 Msps
    # (LE1M) 24 of its 52 subcarriers land in band, at 16 Msps (LE2M) 50.
    # Those that do are enough to break every frame at -10 dB SIR.
    def rows(sir):
        cfg = scenario_from_dict(dict(
            BASE, phy_modes=["LE1M", "LE2M"], snr_sweep_db=[20.0],
            sir_sweep_db=[sir], interferer={}, frames=12,
            profile={"kind": "los"}))
        return [(r.phy, r.detected, r.valid) for r in run_campaign(cfg)]

    assert [interferer_inband_fraction(fs) for fs in (8e6, 16e6)] == [
        24 / 52, 50 / 52]
    assert rows(math.inf) == [("LE1M", 12, 12), ("LE2M", 12, 12)]
    hit = rows(-10.0)
    assert [r[0] for r in hit] == ["LE1M", "LE2M"]
    assert [r[2] for r in hit] == [0, 0]


def test_csa2_ignores_a_valid_hop_increment():
    # CSA#2 does not hop by hop_increment, but checks it like CSA#1 does,
    # so files that carry the default 7 load and run as before.
    def rows(**hop):
        cfg = scenario_from_dict(dict(BASE, frames=6, **hopping(**hop)))
        return [(r.detected, r.valid) for r in run_campaign(cfg)]

    base = rows(algorithm="csa2")
    assert rows(algorithm="csa2", hop_increment=7) == base
    assert rows(algorithm="csa2", hop_increment=16) == base


# -- fuzz: one key of a valid scenario replaced by an arbitrary JSON value --

_WORDS = st.sampled_from([
    "LE1M", "LE125K", "csa1", "csa2", "los", "nlos", "custom", "0x1FFFFFFFFF",
    "0x3", "fft", "corr", "slow", "index", "hopping", "algorithm", "map",
    "hop_increment", "kind", "taps", "rician_k_db", "reference_rate_hz",
    "bandwidth_hz", "center_offset_hz", "duty_cycle", "burst_symbols",
    "agc_mode", "cfo_method", "cfo_max_offset_hz", "h", "pulse_bt",
])
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 70)
            | st.integers(-2**70, 2**70) | st.floats() | st.floats(-1e3, 1e3)
            | _WORDS | st.text(max_size=4))
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(_WORDS | st.text(max_size=3), kids,
                                    max_size=3)),
    max_leaves=8,
)
FUZZ_BASES = [
    scenario_to_dict(ScenarioConfig(
        id="fuzz", seed=11, snr_sweep_db=(12.0,), sir_sweep_db=(0.0,),
        interferer=InterfererConfig(), profile=nlos_profile(), frames=1,
        pdu_bits=32)),
    scenario_to_dict(ScenarioConfig(
        id="fuzz", seed=11, snr_sweep_db=(12.0,), channel=None,
        hopping=HoppingConfig("csa1", "0x1FFFFFFFFF", 9),
        profile=reverberant_profile(),
        frames=1, pdu_bits=32)),
]


@st.composite
def near(draw, value):
    """`value` with one leaf, or one new key, replaced by another value,
    mostly a scalar."""
    if isinstance(value, dict) and value:
        key = draw(st.sampled_from(sorted(value)) | _WORDS)
        return dict(value, **{key: draw(near(value.get(key)))})
    if isinstance(value, list) and value:
        i = draw(st.integers(0, len(value) - 1))
        return value[:i] + [draw(near(value[i]))] + value[i + 1:]
    return draw(st.one_of(_SCALARS, _SCALARS, JSON_VALUES))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_loaded_scenario_runs(data):
    base = data.draw(st.sampled_from(FUZZ_BASES))
    key = data.draw(st.sampled_from(sorted(_TOP_KEYS)))
    value = data.draw(st.one_of(JSON_VALUES, near(base.get(key)),
                                near(base.get(key))))
    obj = dict(base, **{key: value})
    try:
        cfg = scenario_from_dict(obj)
    except ConfigError:
        return
    one = replace(
        cfg, frames=1, snr_sweep_db=cfg.snr_sweep_db[:1],
        sir_sweep_db=None if cfg.sir_sweep_db is None else cfg.sir_sweep_db[:1],
    )
    results = run_campaign(one)
    assert [r.phy for r in results] == [m.value for m in cfg.phy_modes]
    emit_results(results, io.TextIOWrapper(io.BytesIO(), encoding="utf-8"))


# -- round trip ------------------------------------------------------------

_DB = st.floats(-300, 300) | st.just(math.inf)


@st.composite
def scenarios(draw):
    modes = draw(st.lists(st.sampled_from(list(PhyMode)), min_size=1,
                          max_size=4, unique=True))
    kw = dict(
        id=draw(st.text(st.characters(codec="utf-8"), max_size=8)),
        seed=draw(st.integers(0, 2**80)),
        phy_modes=tuple(modes),
        snr_sweep_db=tuple(draw(st.lists(_DB, min_size=1, max_size=4))),
        frames=draw(st.integers(1, 10**6)),
        pdu_bits=draw(st.integers(16, 2056)),
    )
    if draw(st.booleans()):
        kw["channel"] = draw(st.integers(0, 39))
    else:
        used = draw(st.lists(st.integers(0, 36), min_size=2, unique=True))
        kw["channel"] = None
        kw["hopping"] = HoppingConfig(
            draw(st.sampled_from(["csa1", "csa2"])),
            f"0x{sum(1 << c for c in used):010X}", draw(st.integers(5, 16)))
    kw["profile"] = draw(st.none() | st.sampled_from(ChannelProfile))
    if draw(st.booleans()):
        kw["sir_sweep_db"] = tuple(draw(st.lists(_DB, min_size=1, max_size=3)))
        kw["interferer"] = InterfererConfig()
    return ScenarioConfig(**kw)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cfg=scenarios())
def test_to_dict_from_dict_round_trip(cfg):
    assert scenario_from_dict(scenario_to_dict(cfg)) == cfg
    assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(cfg)))) == cfg


def test_save_load_keeps_derived_objects(tmp_path):
    cfg = ScenarioConfig(id="h", seed=4, channel=None,
                         hopping=HoppingConfig("csa1", "0x00000000FF", 7))
    path = tmp_path / "h.json"
    save_scenario(cfg, path)
    back = load_scenario(path)
    assert back == cfg
    assert back._channel_map == cfg._channel_map
    assert back._hop == cfg._hop
    assert back._rx == cfg._rx


def test_numpy_channel_is_stored_as_an_int(tmp_path):
    # The link ints are kept as the checking component holds them, so a
    # numpy integer from the caller still writes out as JSON.
    cfg = ScenarioConfig(id="x", seed=1, channel=np.int64(37))
    assert type(cfg.channel) is int
    json.dumps(scenario_to_dict(cfg))
    path = tmp_path / "x.json"
    save_scenario(cfg, path)
    back = load_scenario(path)
    assert back == cfg
    assert back.channel == 37
