"""Scenario validation: every bad scenario is a ConfigError (CLI exit 2)
when it loads, and every scenario that loads runs."""
import io
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from blesim import cli
from blesim.channel import (
    ChannelProfile,
    InterfererConfig,
    los_profile,
    nlos_profile,
)
from blesim.chansel import ChannelMap
from blesim.errors import ConfigError
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
from blesim.phymode import PhyMode

BASE = scenario_to_dict(ScenarioConfig(
    id="bad", seed=3, phy_modes=("LE1M",), snr_sweep_db=(30.0,), frames=2,
    pdu_bits=32,
))
WLAN = {"interferer": {"bandwidth_hz": 20e6}, "sir_sweep_db": [0.0]}


def hopping(**hop):
    return {"channel": {"hopping": hop}}


BAD_CONFIGS = {
    "phy_modes empty": {"phy_modes": []},
    "phy_modes string": {"phy_modes": "LE1M"},
    "cfo_range one value": {"cfo_range_hz": [1]},
    "duty cycle 2": dict(WLAN, interferer={"duty_cycle": 2}),
    "tap delay -1": {"profile": {"kind": "custom", "taps": [[-1, 0.0]]}},
    "snr string": {"snr_sweep_db": "abc"},
    "channel index 40": {"channel": {"index": 40}},
    "pdu_bits 8": {"pdu_bits": 8},
    "access address 2^33": {"access_address": 2**33},
    "unknown receiver key": {"receiver": {"bogus": 1}},
    "agc_mode medium": {"receiver": {"agc_mode": "medium"}},
    "seed string": {"seed": "abc"},
    "id number": {"id": 5},
    "one-channel hop map": hopping(algorithm="csa2", map="0x0000000001"),
    "csa1 hop increment 3": hopping(algorithm="csa1", hop_increment=3),
    "frames 2.5": {"frames": 2.5},
    "snr empty": {"snr_sweep_db": []},
    "snr nan": {"snr_sweep_db": ["nan"]},
    "frames true": {"frames": True},
    "seed -1": {"seed": -1},
    "cfo past fs/2": {"cfo_range_hz": [-5e6, 5e6]},
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
    with pytest.raises(ConfigError, match="receiver"):
        ScenarioConfig(id="x", seed=1, receiver={"sps": 4})
    with pytest.raises(ConfigError, match="CFO method"):
        ScenarioConfig(id="x", seed=1, receiver={"cfo_method": "nope"})
    with pytest.raises(ConfigError, match="delay spread"):
        ScenarioConfig(id="x", seed=1, profile=replace(
            los_profile(), taps=((0, 0.0), (10**6, -3.0))))
    with pytest.raises(ConfigError, match="Nyquist"):
        ScenarioConfig(id="x", seed=1, sir_sweep_db=(0.0,),
                       interferer=InterfererConfig(bandwidth_hz=60e6))
    cfg = ScenarioConfig(id="x", seed=1)
    with pytest.raises(ConfigError, match="seed"):
        replace(cfg, seed=-1)


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
    assert rows(1) == [(22, 5), (21, 6)]
    assert rows(2**32 - 1) == [(21, 6), (20, 9)]
    assert rows(1 + 2**32) != rows(1)


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
        pdu_bits=32, receiver={"cfo_method": "fft", "cfo_max_offset_hz": 250e3})),
    scenario_to_dict(ScenarioConfig(
        id="fuzz", seed=11, snr_sweep_db=(12.0,), channel=None,
        hopping=HoppingConfig("csa1", "0x1FFFFFFFFF", 9),
        profile=ChannelProfile("custom", ((0, 0.0), (3, -3.0)), 6.0),
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
    sps = draw(st.integers(2, 64))
    nyquist = min(m.symbol_rate for m in modes) * sps / 2.0
    lo, hi = sorted(draw(st.lists(
        st.floats(-nyquist, nyquist, exclude_min=True, exclude_max=True),
        min_size=2, max_size=2)))
    kw = dict(
        id=draw(st.text(st.characters(codec="utf-8"), max_size=8)),
        seed=draw(st.integers(0, 2**80)),
        phy_modes=tuple(modes), sps=sps, cfo_range_hz=(lo, hi),
        snr_sweep_db=tuple(draw(st.lists(_DB, min_size=1, max_size=4))),
        frames=draw(st.integers(1, 10**6)),
        pdu_bits=draw(st.integers(16, 2056)),
        dc_dbc=draw(st.none() | st.floats(-300, 300)),
        access_address=draw(st.integers(0, 2**32 - 1)),
        crc_init=draw(st.integers(0, 2**24 - 1)),
        receiver=draw(st.fixed_dictionaries({}, optional={
            "agc_mode": st.sampled_from(["fast", "slow"]),
            "cfo_method": st.sampled_from(["fft", "corr"]),
            "notch_radius": st.floats(0.95, 0.9999),
        })),
    )
    if draw(st.booleans()):
        kw["channel"] = draw(st.integers(0, 39))
    else:
        used = draw(st.lists(st.integers(0, 36), min_size=2, unique=True))
        kw["channel"] = None
        kw["hopping"] = HoppingConfig(
            draw(st.sampled_from(["csa1", "csa2"])),
            ChannelMap(used).to_mask(), draw(st.integers(5, 16)))
    kw["profile"] = draw(st.sampled_from([None, los_profile(), nlos_profile()])
                         | st.builds(
        lambda delays, k: replace(
            nlos_profile(), kind="custom",
            taps=tuple((d, -float(i)) for i, d in enumerate(delays)),
            rician_k_db=k),
        st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True),
        st.none() | st.floats(-30, 30)))
    if draw(st.booleans()):
        kw["sir_sweep_db"] = tuple(draw(st.lists(_DB, min_size=1, max_size=3)))
        kw["interferer"] = InterfererConfig(
            bandwidth_hz=draw(st.sampled_from([1e6, 2e6, 20e6])),
            duty_cycle=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 1)),
            burst_symbols=draw(st.integers(1, 50)))
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
