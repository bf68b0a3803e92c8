"""Campaign harness tests: determinism, serialization, result emission."""
import io
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from blesim import cli, harness
from blesim.channel import InterfererConfig, nlos_profile
from blesim.cli import MAX_SWEEP_POINTS, _parse_sweep, main
from blesim.errors import ConfigError
from blesim.harness import (
    CSV_COLUMNS,
    HoppingConfig,
    PerResult,
    ScenarioConfig,
    emit_results,
    load_scenario,
    paper_scenarios,
    run_campaign,
    run_frame,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    wilson_interval,
)
from blesim.phymode import PhyMode


def small_scenario(**over):
    kw = dict(id="t", seed=99, phy_modes=(PhyMode.LE1M,),
              snr_sweep_db=(30.0,), frames=30, pdu_bits=32)
    kw.update(over)
    return ScenarioConfig(**kw)


def test_wilson_interval_reference_values():
    # 5/100 is the textbook example; end points from an independent
    # evaluation of the score formula at z = 1.96.
    lo, hi = wilson_interval(5, 100)
    assert lo == pytest.approx(0.0215434, abs=1e-6)
    assert hi == pytest.approx(0.1117520, abs=1e-6)
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0
    assert hi == pytest.approx(0.0713500, abs=1e-6)
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0
    assert lo == pytest.approx(1 - 0.0713500, abs=1e-6)
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_interval_brackets_per():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 500))
        k = int(rng.integers(0, n + 1))
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_scenario_config_validation():
    with pytest.raises(ConfigError):
        small_scenario(frames=0)
    with pytest.raises(ConfigError):
        small_scenario(phy_modes=())
    with pytest.raises(ConfigError):
        small_scenario(channel=None)  # neither channel nor hopping
    with pytest.raises(ConfigError):
        small_scenario(hopping=HoppingConfig())  # both
    with pytest.raises(ConfigError):
        small_scenario(sir_sweep_db=(0.0,))  # sweep without interferer
    with pytest.raises(ConfigError):
        small_scenario(interferer=InterfererConfig())  # interferer without sweep
    cfg = small_scenario(phy_modes=("LE1M", PhyMode.LE125K))
    assert cfg.phy_modes == (PhyMode.LE1M, PhyMode.LE125K)


def test_run_campaign_counts_and_intervals():
    res = run_campaign(small_scenario(snr_sweep_db=(30.0, 4.0)))
    assert len(res) == 2
    for r in res:
        assert r.scenario == "t" and r.phy == "LE1M"
        assert 0 <= r.valid <= r.detected <= r.frames == 30
        assert r.per == pytest.approx(1 - r.valid / r.frames)
        assert r.wilson_lo <= r.per <= r.wilson_hi
    assert res[0].snr_db == 30.0 and res[1].snr_db == 4.0


def test_run_campaign_independent_of_jobs():
    cfg = small_scenario(phy_modes=(PhyMode.LE1M, PhyMode.LE125K))
    a = run_campaign(cfg, jobs=1)
    b = run_campaign(cfg, jobs=2)
    c = run_campaign(cfg, jobs=3)
    assert a == b == c


def test_run_campaign_creates_one_pool(monkeypatch):
    created = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    cfg = small_scenario(phy_modes=(PhyMode.LE1M, PhyMode.LE2M),
                         snr_sweep_db=(30.0, 4.0), frames=5)
    assert run_campaign(cfg, jobs=2) == run_campaign(cfg, jobs=1)
    assert created == [min(2, os.cpu_count() or 1)]


def test_run_campaign_caps_workers_at_core_count(monkeypatch):
    # A stand-in pool: records its size and runs the chunks in-process,
    # so no worker is ever started.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    cfg = small_scenario(snr_sweep_db=(30.0, 4.0), frames=7)
    serial = run_campaign(cfg, jobs=1)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    assert run_campaign(cfg, jobs=1000) == serial
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert run_campaign(cfg, jobs=5) == serial
    # Chunk bounds are sized by the frames, not by jobs.
    assert run_campaign(cfg, jobs=10**12) == serial
    assert sizes == [3, 1, 1]
    for jobs in (0, -2):
        with pytest.raises(ConfigError, match="jobs"):
            run_campaign(cfg, jobs=jobs)


def _rows(cfg):
    return {(r.phy, r.snr_db, r.sir_db): (r.detected, r.valid)
            for r in run_campaign(cfg)}


def test_a_point_counts_the_same_alone_and_in_a_sweep():
    # A frame's draws are keyed by mode and frame index only, so a point
    # does not depend on what else the campaign sweeps.
    cfg = small_scenario(
        phy_modes=(PhyMode.LE1M, PhyMode.LE500K), snr_sweep_db=(2.0, 8.0, 14.0),
        sir_sweep_db=(-5.0, 5.0), interferer=InterfererConfig(),
        profile=nlos_profile(), frames=12)
    sweep = _rows(cfg)
    for snr, sir in ((8.0, 5.0), (2.0, -5.0)):
        alone = _rows(replace(cfg, snr_sweep_db=(snr,), sir_sweep_db=(sir,)))
        assert alone == {k: v for k, v in sweep.items() if k[1:] == (snr, sir)}


def test_reordering_modes_leaves_each_modes_rows():
    cfg = small_scenario(
        phy_modes=(PhyMode.LE1M, PhyMode.LE2M, PhyMode.LE125K),
        snr_sweep_db=(0.0, 6.0), profile=nlos_profile(), frames=10)
    rows = _rows(cfg)
    assert _rows(replace(cfg, phy_modes=cfg.phy_modes[::-1])) == rows
    assert _rows(replace(cfg, phy_modes=(PhyMode.LE2M,))) == {
        k: v for k, v in rows.items() if k[0] == "LE2M"}


def test_transmitter_runs_once_per_frame_and_receiver_once_per_point(monkeypatch):
    calls = {"gmsk_modulate": 0, "receive": 0}

    def counting(name):
        fn = getattr(harness, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    cfg = small_scenario(
        phy_modes=(PhyMode.LE1M, PhyMode.LE500K), snr_sweep_db=(4.0, 10.0, 30.0),
        sir_sweep_db=(0.0, 10.0), interferer=InterfererConfig(), frames=5)
    assert len(run_campaign(cfg)) == 2 * 3 * 2
    assert calls == {"gmsk_modulate": 2 * 5, "receive": 2 * 3 * 2 * 5}


def test_coded_frame_decodes_despite_fft_size_sensitive_cfo():
    # Acceptance criterion 8's scenario.  Its LE125K frame 0 at 12 dB
    # (true CFO 46.5 kHz) decodes with a power-of-two coarse-CFO FFT;
    # sized by next_fast_len the pair metric's rs/2 shift is not a whole
    # number of bins, the estimate lands near 172 kHz and sync misses.
    cfg = ScenarioConfig(
        id="acc-repro", seed=808, phy_modes=(PhyMode.LE1M, PhyMode.LE125K),
        snr_sweep_db=(8.0, 12.0), channel=None,
        hopping=HoppingConfig("csa2", "0x1FFFFFFFFF", 7),
        profile=nlos_profile(), frames=40, pdu_bits=64,
    )
    rep = run_frame(cfg, PhyMode.LE125K, 12.0, None, 0)
    assert rep.crc_ok


def test_run_frame_deterministic():
    cfg = small_scenario(profile=nlos_profile())
    r1 = run_frame(cfg, PhyMode.LE1M, 12.0, None, frame_idx=5)
    r2 = run_frame(cfg, PhyMode.LE1M, 12.0, None, frame_idx=5)
    assert r1.crc_ok == r2.crc_ok
    assert r1.cfo_estimate_hz == r2.cfo_estimate_hz
    assert r1.timing_offset == r2.timing_offset


def test_emit_csv_layout():
    rows = [
        PerResult("s", "LE1M", 10.0, None, 100, 90, 80, 0.2, 0.1334, 0.2885),
        PerResult("s", "LE1M", 20.0, -10.0, 100, 5, 0, 1.0, 0.9629, 1.0),
    ]
    buf = io.StringIO()
    emit_results(rows, buf, fmt="csv")
    lines = buf.getvalue().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "s,LE1M,10.0,,100,90,80,0.2,0.1334,0.2885"
    assert lines[2] == "s,LE1M,20.0,-10.0,100,5,0,1.0,0.9629,1.0"
    assert lines[3] == ""


def test_emit_json_round_trip(tmp_path):
    rows = [PerResult("s", "LE2M", 6.0, None, 10, 10, 9, 0.1, 0.0179, 0.4042)]
    path = tmp_path / "res.json"
    with open(path, "w") as fh:
        emit_results(rows, fh, fmt="json")
    text = path.read_text()
    assert text.endswith("\n")
    back = json.loads(text)
    assert back[0]["phy"] == "LE2M" and back[0]["sir_db"] is None


def test_emit_errors():
    with pytest.raises(ConfigError):
        emit_results([], io.StringIO(), fmt="xml")


def test_paper_scenarios_shape():
    scen = {s.id: s for s in paper_scenarios()}
    assert set(scen) == {"los", "nlos", "los_wlan", "nlos_wlan"}
    for s in scen.values():
        assert s.frames == 10000 and s.pdu_bits == 128
        assert s.channel == 37 and s.seed == scen["los"].seed
        assert len(s.phy_modes) == 4
    assert scen["los"].sir_sweep_db is None
    assert scen["nlos_wlan"].sir_sweep_db == (-10.0, 0.0, 10.0)
    assert scen["nlos_wlan"].snr_sweep_db == (20.0,)
    assert scen["nlos"].profile.rician_k_db is None
    assert scen["los"].profile.rician_k_db == 10.0


def test_scenario_round_trip_all_paper_configs(tmp_path):
    for idx, cfg in enumerate(paper_scenarios()):
        assert scenario_from_dict(scenario_to_dict(cfg)) == cfg
        path = tmp_path / f"{idx}.json"
        save_scenario(cfg, path)
        assert load_scenario(path) == cfg


def test_scenario_round_trip_hopping_and_custom_profile():
    cfg = small_scenario(
        channel=None,
        hopping=HoppingConfig("csa1", "0x0000000FFF", 9),
        profile=nlos_profile(),
    )
    assert scenario_from_dict(scenario_to_dict(cfg)) == cfg


def test_scenario_from_dict_rejects_unknown_keys():
    base = scenario_to_dict(small_scenario())
    for patch, where in (
        ({"snr": [1]}, "snr"),
        ({"channel": {"index": 3, "extra": 1}}, "extra"),
        ({"channel": {"hopping": {"algorithm": "csa2", "bogus": 0}}}, "bogus"),
        ({"profile": {"kind": "los", "what": 1}}, "what"),
        ({"interferer": {"nope": 2}, "sir_sweep_db": [0.0]}, "nope"),
    ):
        obj = dict(base)
        obj.update(patch)
        with pytest.raises(ConfigError, match=where):
            scenario_from_dict(obj)


def test_scenario_from_dict_version_and_required_keys():
    base = scenario_to_dict(small_scenario())
    for strip in ("version", "id", "seed"):
        obj = dict(base)
        del obj[strip]
        with pytest.raises(ConfigError):
            scenario_from_dict(obj)
    obj = dict(base)
    obj["version"] = 2
    with pytest.raises(ConfigError, match="version"):
        scenario_from_dict(obj)
    with pytest.raises(ConfigError):
        scenario_from_dict(dict(base, channel={"neither": 1}))
    with pytest.raises(ConfigError, match="algorithm"):
        scenario_from_dict(dict(base, channel={"hopping": {"algorithm": "csa9"}}))


def test_parse_sweep():
    assert _parse_sweep("0:2:20") == tuple(float(v) for v in range(0, 21, 2))
    assert _parse_sweep("12") == (12.0,)
    assert _parse_sweep("-10,0,10") == (-10.0, 0.0, 10.0)
    with pytest.raises(ConfigError):
        _parse_sweep("1:2")
    with pytest.raises(ConfigError):
        _parse_sweep("0:0:10")
    assert _parse_sweep("0:0.1:1")[-1] == 1.0
    assert len(_parse_sweep(f"0:1:{MAX_SWEEP_POINTS - 1}")) == MAX_SWEEP_POINTS


@pytest.mark.parametrize("sweep", [
    "abc", "1,,2", "0:1:inf", "nan:1:3", "0:1e-12:1", f"0:1:{MAX_SWEEP_POINTS}",
    ",".join(["0"] * (MAX_SWEEP_POINTS + 1)), "1e20:1:1e20",
])
def test_cli_per_rejects_bad_sweeps(sweep, capsys):
    assert main(["per", "--phy", "LE1M", "--snr", sweep]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert main(["per", "--phy", "LE1M", "--snr", "30", "--sir", sweep]) == 2
    capsys.readouterr()


def test_cli_per_sweeps_with_a_leading_minus(capsys):
    outputs = []
    for args in (["--snr", "-2:4:2", "--sir", "-10,0"],
                 ["--snr=-2:4:2", "--sir=-10,0"]):
        assert main(["per", "--phy", "LE1M", "--frames", "2",
                     "--pdu-bits", "32", *args]) == 0
        outputs.append(capsys.readouterr().out)
    rows = [line.split(",")[2:4] for line in outputs[0].splitlines()[1:]]
    assert rows == [["-2.0", "-10.0"], ["-2.0", "0.0"],
                    ["2.0", "-10.0"], ["2.0", "0.0"]]
    assert outputs[0] == outputs[1]


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "s.json"
    save_scenario(small_scenario(frames=10), cfg_path)
    out = tmp_path / "res.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith(",".join(CSV_COLUMNS))
    assert len(text.strip().split("\n")) == 2

    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "id": "x", "seed": 1, "wat": 2}')
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
    capsys.readouterr()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["run", "per"])
def test_cli_output_write_failure_exits_3_with_one_error_line(command, tmp_path):
    # A full disk fails the buffered writes only when the results are
    # flushed, after the campaign: each command must still end with one
    # error line and exit 3, and leave nothing in its buffer to fail (and
    # print a traceback) at interpreter exit.  Both run as fresh processes.
    cfg_path = tmp_path / "s.json"
    save_scenario(small_scenario(frames=2), cfg_path)
    args = (["run", "--config", str(cfg_path), "--out", "/dev/full"]
            if command == "run" else
            ["per", "--phy", "LE1M", "--snr", "30", "--frames", "2",
             "--pdu-bits", "32"])
    src = str(pathlib.Path(harness.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        out = subprocess.run([sys.executable, "-m", "blesim.cli", *args],
                             stdout=full, stderr=subprocess.PIPE, text=True,
                             timeout=120, env={**os.environ, "PYTHONPATH": path})
    err = out.stderr.splitlines()
    assert out.returncode == 3, out.stderr
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_cli_run_replaces_out_only_with_complete_results(tmp_path, capsys,
                                                        monkeypatch):
    # The results go to a temporary file, opened before any frame runs,
    # and are renamed onto --out once written in full.  A campaign that
    # raises or is interrupted midway, or a write that fails, leaves an
    # existing --out byte for byte and no temporary file behind.
    cfg_path = tmp_path / "s.json"
    save_scenario(small_scenario(frames=2), cfg_path)
    out = tmp_path / "res.csv"
    out.write_bytes(b"earlier results\n")
    argv = ["run", "--config", str(cfg_path), "--out", str(out)]
    run = cli.run_campaign

    def files():
        return sorted(p.name for p in tmp_path.iterdir())

    for exc in (RuntimeError("a frame failed"), KeyboardInterrupt()):
        def fail(cfg, jobs):
            assert len(files()) == 3  # the temporary file is open
            raise exc

        monkeypatch.setattr(cli, "run_campaign", fail)
        with pytest.raises(type(exc)):
            main(argv)
        assert out.read_bytes() == b"earlier results\n"
        assert files() == ["res.csv", "s.json"]

    def half_written(results, fh, fmt):
        fh.write("scenario,phy\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "run_campaign", run)
    monkeypatch.setattr(cli, "emit_results", half_written)
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b"earlier results\n"
    assert files() == ["res.csv", "s.json"]

    monkeypatch.undo()
    fresh = tmp_path / "new.csv"
    for path in (out, fresh):
        assert main(["run", "--config", str(cfg_path), "--out", str(path)]) == 0
        assert path.read_text().startswith(",".join(CSV_COLUMNS))
    assert out.read_bytes() == fresh.read_bytes()
    assert files() == ["new.csv", "res.csv", "s.json"]


def test_cli_per_writes_csv(capsys):
    rc = main(["per", "--phy", "LE1M", "--snr", "30", "--frames", "8",
               "--pdu-bits", "32", "--seed", "3"])
    assert rc == 0
    got = capsys.readouterr().out
    assert got.startswith(",".join(CSV_COLUMNS))
    row = got.strip().split("\n")[1].split(",")
    assert row[0] == "cli" and row[1] == "LE1M" and row[4] == "8"


def test_cli_per_profile_choices(capsys):
    for profile in ("none", "los", "nlos", "reverberant"):
        assert main(["per", "--phy", "LE1M", "--snr", "30", "--frames", "1",
                     "--pdu-bits", "32", "--profile", profile]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["per", "--phy", "LE1M", "--snr", "30", "--profile", "reverb"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_rejects_jobs_below_one(tmp_path, capsys, monkeypatch):
    started = []
    monkeypatch.setattr(harness, "_count_chunk", lambda t: started.append(t))
    cfg_path = tmp_path / "s.json"
    save_scenario(small_scenario(frames=2), cfg_path)
    out = tmp_path / "res.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--jobs", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: jobs")
    assert not out.exists()
    assert main(["per", "--phy", "LE1M", "--snr", "30", "--jobs", "-2"]) == 2
    assert capsys.readouterr().err.startswith("error: jobs")
    assert not started


def test_cli_paper_scenarios_emit(tmp_path, capsys):
    assert main(["paper-scenarios"]) == 0
    assert "nlos_wlan" in capsys.readouterr().out
    assert main(["paper-scenarios", "--list"]) == 0
    assert "nlos_wlan" in capsys.readouterr().out
    assert main(["paper-scenarios", "--emit", str(tmp_path)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in tmp_path.glob("*.json"))
    assert names == ["los.json", "los_wlan.json", "nlos.json", "nlos_wlan.json"]
    assert load_scenario(tmp_path / "nlos.json").id == "nlos"


def test_cli_dump_stages(tmp_path, capsys):
    cfg_path = tmp_path / "s.json"
    save_scenario(small_scenario(frames=1), cfg_path)
    out = tmp_path / "stages"
    rc = main(["dump-stages", "--config", str(cfg_path), "--frame", "0",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    meta = json.loads((out / "stages.json").read_text())
    assert meta["report"]["crc_ok"] is True
    stages = [s.split("_", 1)[1].removesuffix(".iq") for s in meta["stages"]]
    assert stages == ["input", "agc", "dc_notch", "cfo_corrected",
                      "matched_filter", "synchronized"]
    for name in meta["stages"]:
        assert (out / name).exists()


def test_cli_dump_stages_removes_stale_stage_files(tmp_path, capsys):
    # A detected frame writes six stages; the same frame at -20 dB misses
    # sync and reaches five, so the earlier capture's synchronized file
    # goes.  A file that names no stage stays.
    out = tmp_path / "stages"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    written = []
    for snr in (12.0, -20.0):
        cfg_path = tmp_path / f"s{snr}.json"
        save_scenario(small_scenario(frames=1, snr_sweep_db=(snr,),
                                     pdu_bits=128, profile=nlos_profile()),
                      cfg_path)
        assert main(["dump-stages", "--config", str(cfg_path), "--frame", "0",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        meta = json.loads((out / "stages.json").read_text())
        written.append(meta["stages"])
        assert sorted(p.name for p in out.glob("*.iq")) == meta["stages"]
    assert len(written[0]) == 6 and written[1] == written[0][:5]
    assert meta["report"]["detected"] is False
    assert (out / "notes.txt").read_text() == "kept"


def test_cli_dump_stages_rejects_negative_frame(tmp_path, capsys):
    cfg_path = tmp_path / "s.json"
    save_scenario(small_scenario(frames=1), cfg_path)
    out = tmp_path / "stages"
    assert main(["dump-stages", "--config", str(cfg_path), "--frame", "-1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --frame"), err
    assert not out.exists()


def test_cli_output_path_under_a_file_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg_path = tmp_path / "s.json"
    save_scenario(small_scenario(frames=1), cfg_path)
    for argv in (["paper-scenarios", "--emit", str(blocker / "x")],
                 ["dump-stages", "--config", str(cfg_path),
                  "--out", str(blocker / "y")]):
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


def test_cli_run_checks_out_before_any_frame(tmp_path, capsys, monkeypatch):
    def no_campaign(*args, **kwargs):
        raise AssertionError("campaign ran")

    monkeypatch.setattr(cli, "run_campaign", no_campaign)
    cfg_path = tmp_path / "s.json"
    save_scenario(small_scenario(frames=2), cfg_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker / "z.csv", tmp_path):
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("removed", [
    ("receiver", {"cfo_method": "corr"}),
    ("receiver", {"agc_target_power_db": 0.0}),
    ("receiver", {"pulse_bt": 0.5}), ("receiver", {"h": 0.5}),
    ("receiver", {"agc_mode": "fast"}), ("receiver", {"notch_radius": 0.999}),
    ("receiver", {"preamble_detect_threshold": 0.75}),
    ("receiver", {"cfo_max_offset_hz": 250e3}),
    ("interferer", {"bandwidth_hz": 20e6}),
    ("interferer", {"center_offset_hz": 0.0}),
    ("interferer", {"duty_cycle": 1.0}),
    ("interferer", {"burst_symbols": 20}),
    ("cfo_range_hz", [-50e3, 50e3]), ("dc_dbc", -20.0),
    ("profile", {"kind": "nlos", "reference_rate_hz": 8e6}),
    ("profile", {"kind": "nlos", "taps": [[0, 0.0], [2, -3.0]]}),
    ("profile", {"kind": "los", "rician_k_db": 10.0}),
    ("profile", {"kind": "custom"}),
])
def test_cli_run_rejects_removed_receiver_keys(removed, tmp_path, capsys,
                                               monkeypatch):
    # The receiver, the interferer, the profiles and the front end's CFO
    # range, DC level and profile rate are fixed: a key that once set one
    # is now unknown, at the top level or inside its object, even at the
    # fixed value, and a profile kind is one of the three.
    monkeypatch.setattr(harness, "_count_chunk", lambda t: pytest.fail("ran"))
    key, value = removed
    cfg_path = tmp_path / "s.json"
    base = scenario_to_dict(small_scenario(
        frames=2, sir_sweep_db=(0.0,), interferer=InterfererConfig()))
    cfg_path.write_text(json.dumps(dict(base, **{key: value})))
    out = tmp_path / "res.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert key in err[0], err
    assert not out.exists()
