"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from blesim import harness, receiver  # noqa: E402
from blesim.harness import (  # noqa: E402
    PerResult,
    scenario_from_dict,
    scenario_to_dict,
    wilson_interval,
)
from blesim.receiver import RxPacketReport  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, clean_config  # noqa: E402


def span(name, start, end, parent, pid=1):
    return [name, start, end, parent, None, pid]


def test_self_time_of_nested_spans():
    s = [
        span("root", 0.0, 10.0, None),   # 0
        span("a", 1.0, 4.0, 0),          # 1
        span("a.x", 2.0, 3.0, 1),        # 2
        span("b", 5.0, 9.0, 0),          # 3
        span("b.x", 5.5, 6.0, 3),        # 4
        span("b.x", 7.0, 8.5, 3),        # 5
    ]
    assert spans.self_times(s) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    summary = spans.summarize(s, pid=1)
    assert summary["parent_self_s"] == pytest.approx(10.0)
    assert summary["by_name"]["b.x"] == pytest.approx([2.0, 2])


def test_worker_spans_do_not_reduce_the_pool_self_time():
    s = [
        span("pool", 0.0, 10.0, None),
        span("frame", 1.0, 9.0, 0, pid=2),
        span("frame", 1.0, 8.0, 0, pid=3),
        span("inner", 2.0, 5.0, 2, pid=3),
    ]
    assert spans.self_times(s) == pytest.approx([10.0, 8.0, 4.0, 3.0])
    summary = spans.summarize(s, pid=1)
    assert summary["parent_self_s"] == pytest.approx(10.0)
    assert summary["worker_self_s"] == pytest.approx(15.0)


@pytest.mark.parametrize("reason, bucket", [
    ("no signal", "no_signal"),
    ("peak correlation 0.412 below threshold 0.750", "sync_miss"),
    ("frame (100) shorter than sync reference (2176)", "sync_miss"),
    ("access address mismatch", "aa_mismatch"),
    ("crc check failed", "crc_fail"),
    ("empty frame", "other"),
    ("", "other"),
])
def test_outcome_buckets(reason, bucket):
    assert spans.outcome(RxPacketReport(reason=reason)) == bucket


def test_outcome_of_a_valid_frame_is_ok():
    assert spans.outcome(RxPacketReport(detected=True, aa_ok=True,
                                        crc_ok=True)) == "ok"


def _result(phy="LE1M", snr=4.0, frames=100, detected=90, valid=80, **kw):
    lo, hi = wilson_interval(frames - valid, frames)
    fields = dict(scenario="t", phy=phy, snr_db=snr, sir_db=None, frames=frames,
                  detected=detected, valid=valid, per=(frames - valid) / frames,
                  wilson_lo=lo, wilson_hi=hi)
    fields.update(kw)
    return PerResult(**fields)


class _Cfg:
    id = "t"
    frames = 100
    sir_sweep_db = None
    snr_sweep_db = (4.0,)
    phy_modes = (harness.PhyMode.LE1M,)


REFERENCE = {"LE1M/4/-": {"frames": 400, "errors": 80}}


def _check(result):
    check = checks.OutputCheck(REFERENCE)
    check.campaign(_Cfg, [result], 0)
    check.against_reference()
    return check


def test_output_check_accepts_a_consistent_result():
    check = _check(_result())
    assert check.correct and check.attempted == 1, check.problems


def test_output_check_rejects_a_perturbed_count():
    # 60 errors in 100 frames against 80 in 400: z is about 8.
    check = _check(_result(detected=40, valid=40))
    assert not check.correct and check.failed == 1
    assert "z=" in check.problems[0]


@pytest.mark.parametrize("broken", [
    dict(detected=70),                      # valid > detected
    dict(detected=101),                     # detected > frames
    dict(frames=99, detected=89, valid=79),  # not the frames requested
    dict(wilson_lo=0.25),                   # Wilson interval misses per
    dict(per=0.3),                          # per disagrees with the counts
])
def test_output_check_rejects_a_broken_invariant(broken):
    check = _check(_result(**broken))
    assert not check.correct and check.failed == 1, check.problems


def test_output_check_rejects_missing_points_and_reference():
    check = checks.OutputCheck({})
    check.campaign(_Cfg, [], 0)
    assert check.failed == 1
    check = checks.OutputCheck({})
    check.campaign(_Cfg, [_result()], 0)
    check.against_reference()
    assert check.failed == 1 and "no reference" in check.problems[0]


def test_z_score_is_zero_when_both_sides_are_error_free():
    assert checks.z_score(0, 50, 0, 500) == 0.0
    assert checks.z_score(50, 50, 500, 500) == 0.0


def test_reference_covers_every_point_of_every_workload():
    for name, w in WORKLOADS.items():
        ref = checks.load_reference(name)
        keys = checks.expected_keys(w.config(1))
        assert sorted(ref) == sorted(keys), name
        assert all(ref[k]["frames"] == w.reference_frames for k in keys)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_round_trips(name):
    cfg = WORKLOADS[name].config(45541, campaign=2)
    again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(cfg))))
    assert again == cfg


def test_clean_config_round_trips():
    cfg = clean_config(7)
    again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(cfg))))
    assert again == cfg


def _tiny(seed=3):
    return WORKLOADS["uncoded_nlos"].config(seed, frames=3, snr_sweep_db=(0.0, 20.0))


def _traced(cfg, jobs=1):
    rec = spans.Recorder()
    rec.install()
    try:
        results = harness.run_campaign(cfg, jobs=jobs)
    finally:
        rec.uninstall()
    return rec, results


def test_tracing_leaves_results_and_outcome_counts_unchanged():
    cfg = _tiny()
    plain = harness.run_campaign(cfg)
    rec1, traced1 = _traced(cfg)
    rec2, traced2 = _traced(cfg)
    assert checks.csv_bytes(plain) == checks.csv_bytes(traced1)
    assert rec1.outcomes == rec2.outcomes
    assert sum(rec1.outcomes.values()) == 12
    assert rec1.outcomes["ok"] == sum(r.valid for r in plain)
    names = {s[spans.NAME] for s in rec1.spans}
    assert {"harness.run_campaign", "harness.run_frame", "receiver.synchronize",
            "channel.awgn"} <= names
    frames = [s[spans.FRAME] for s in rec1.spans
              if s[spans.NAME] == "harness.run_frame"]
    assert len(set(frames)) == 12
    summary = spans.summarize(rec1.spans, rec1.pid)
    root = [s for s in rec1.spans if s[spans.NAME] == "harness.run_campaign"][0]
    assert summary["parent_self_s"] == pytest.approx(root[spans.END]
                                                     - root[spans.START])
    assert harness.run_frame.__module__ == "blesim.harness"
    assert not hasattr(harness.run_frame, "__wrapped__")


def test_a_vanished_name_is_reported_missing(monkeypatch):
    monkeypatch.delattr(receiver, "dc_notch")
    rec = spans.Recorder()
    rec.install()
    rec.uninstall()
    assert rec.missing_names(1, 0) == ["receiver.dc_notch"]


def test_pool_workers_ship_their_spans_back():
    cfg = _tiny()
    plain = harness.run_campaign(cfg, jobs=2)
    rec, traced = _traced(cfg, jobs=2)
    assert checks.csv_bytes(plain) == checks.csv_bytes(traced)
    assert rec.pools_created == 4 and rec.untraced_chunks == 0
    assert sum(rec.outcomes.values()) == 12
    pools = [i for i, s in enumerate(rec.spans) if s[spans.NAME] == spans.POOL]
    frames = [s for s in rec.spans if s[spans.NAME] == "harness.run_frame"]
    assert len(frames) == 12
    assert all(s[spans.PARENT] in pools and s[spans.PID] != rec.pid
               for s in frames)

    metrics, missing = run.layer_metrics(
        rec, spans.summarize(rec.spans, rec.pid), 12, 2, 1)
    assert missing == []
    assert metrics["receiver.outcome.ok"]["value"] == sum(r.valid for r in plain)
    _assert_manifest_metrics(metrics, "per_layer", complete=False)


def _worker_side_metric(name):
    return (name.startswith("receiver.outcome.")
            or name.rsplit(".", 1)[0] in spans.WORKER_SIDE)


@pytest.mark.parametrize("hook", ["_chunk_wrapper", "_pool_class"])
def test_worker_spans_that_never_arrive_are_missing_not_zero(monkeypatch, hook):
    # _chunk_wrapper: chunks come back as plain tuples, as from a pool
    # created before install or a chunk function under another name.
    # _pool_class: no traced pool, so no chunk is merged.
    monkeypatch.setattr(spans.Recorder, hook, lambda self, base: base)
    rec, _ = _traced(_tiny(), jobs=2)
    metrics, missing = run.layer_metrics(
        rec, spans.summarize(rec.spans, rec.pid), 12, 2, 1)
    assert set(spans.WORKER_SIDE) <= set(missing)
    assert (spans.POOL in missing) == (hook == "_pool_class")
    assert "harness.run_campaign.self_ms_per_frame" in metrics
    assert not [m for m in metrics if _worker_side_metric(m)]


def test_a_vanished_chunk_function_makes_worker_names_missing(monkeypatch):
    monkeypatch.delattr(harness, "_count_chunk")
    rec = spans.Recorder()
    rec.install()
    rec.uninstall()
    assert rec.missing_names(1, 0) == []
    assert set(rec.missing_names(2, 0)) == set(spans.WORKER_SIDE) | {spans.POOL}


def _assert_manifest_metrics(metrics, kind, complete=True):
    """Every metric is one of BENCHMARK.json's, as exactly value and unit;
    if complete, every one of them is there."""
    manifest = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in manifest[kind]}
    assert set(metrics) <= set(units)
    if complete:
        assert set(metrics) == set(units)
    for name, m in metrics.items():
        assert set(m) == {"value", "unit"}, name
        assert m["unit"] == units[name], name
        assert isinstance(m["value"], (int, float)), name


def test_untraced_result_line_holds_exactly_the_manifest_metrics(capsys):
    assert run.main(["--workload", "uncoded_nlos", "--seed", "3",
                     "--seconds", "0.01", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    _assert_manifest_metrics(result["metrics"], "end_to_end")


def test_traced_result_line_holds_exactly_the_manifest_metrics(capsys):
    assert run.main(["--workload", "uncoded_nlos", "--seed", "3",
                     "--seconds", "0.01", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    _assert_manifest_metrics(result["metrics"], "per_layer")
