"""blesim benchmark: PER campaigns through ``blesim.harness.run_campaign``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload uncoded_nlos --seed 1 --seconds 15 --trace 0

The benchmark is the only client and waits for each campaign (a closed
loop with one client).  With ``--trace 0`` it repeats campaigns for
``--seconds`` seconds and reports the end-to-end metrics; with
``--trace 1`` it runs a fixed number of campaigns, each untraced and
then traced, and reports per-layer self times, call counts and receiver
outcomes.  Both modes run the output check.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

The speed of a shared machine wanders by tens of percent over minutes,
so the gated times are in reference seconds.  For frames_per_s, a fixed
numpy/scipy/Python kernel that does not use blesim runs between
campaigns, and each campaign's wall time is scaled by REFERENCE_KERNEL_S
over the mean time of the kernel runs on either side of it.  For
setup_s, each set-up probe's time is scaled by REFERENCE_IMPORT_S over
the mean time of a process that only imports numpy and scipy.signal, run
on either side of it.  The wall-clock figures are printed on text lines
before the result; the JSON holds only the metrics of BENCHMARK.json,
each as exactly ``{"value", "unit"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
PROJECTION_FRAMES = 2
# Median times of the speed kernel and of the import probe on the 2-core
# machine the benchmark was defined on.
REFERENCE_KERNEL_S = 0.05
REFERENCE_IMPORT_S = 1.3
IMPORT_PROBE = "import numpy, scipy.signal; print('ready', flush=True)"


def blesim_on_path() -> bool:
    src = ROOT / "src"
    if not (src / "blesim" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the paper_scenarios() seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> str:
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"commit={_commit()}")


def kernel_seconds() -> float:
    """Time one run of the fixed machine-speed kernel.

    Five parts of about 10 ms each at reference speed: a long FFT, a
    correlation, an IIR filter, a Python loop and small numpy calls.  The
    mix keeps contention that hits one kind of work from swinging the
    whole estimate.
    """
    import numpy as np
    from scipy.signal import fftconvolve, lfilter

    x = np.random.default_rng(0).standard_normal(8192).view(np.complex128)
    ref = x[:256].copy()
    t0 = time.perf_counter()
    for _ in range(14):
        np.fft.fft(x, 1 << 15)
    for _ in range(28):
        fftconvolve(x, ref, mode="valid")
    for _ in range(118):
        lfilter([1.0, -1.0], [1.0, -0.999], x)
    acc = 0.0
    for _ in range(172):
        for v in x[:300]:
            acc += abs(v)
    for _ in range(60):
        for i in range(50):
            np.abs(x[i:i + 8]).sum()
    return time.perf_counter() - t0


def speed(before: float, after: float) -> float:
    """Machine speed relative to the reference, from the kernel runs around
    an interval."""
    return REFERENCE_KERNEL_S / ((before + after) / 2.0)


def warm_up(harness, cfg) -> None:
    """One frame per mode, so the lru_caches are full before timing."""
    sir = None if cfg.sir_sweep_db is None else cfg.sir_sweep_db[-1]
    for mode_idx, mode in enumerate(cfg.phy_modes):
        harness.run_frame(cfg, mode, cfg.snr_sweep_db[-1], sir, 0, mode_idx, 0)


def setup_probe(workload, seed: int) -> int:
    """Body of one fresh set-up process: import, build config, warm up."""
    from blesim import harness

    warm_up(harness, workload.config(seed))
    print("ready", flush=True)
    return 0


def _probe_seconds(cmd: list) -> float:
    """Seconds from starting ``cmd`` until it prints its 'ready' line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} failed (exit {proc.returncode})")
    return t1 - t0


def measure_setup(name: str, seed: int) -> list:
    """(wall seconds, import-probe seconds) for fresh set-up processes.

    Each set-up probe is timed from process start until it is warm.  A
    probe that only imports numpy and scipy.signal runs before and after
    it; set-up is mostly such imports, whose speed does not follow the
    compute kernel's.
    """
    setup = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)]
    base = [sys.executable, "-c", IMPORT_PROBE]
    before = _probe_seconds(base)
    times = []
    for _ in range(SETUP_REPEATS):
        wall = _probe_seconds(setup)
        after = _probe_seconds(base)
        times.append((wall, (before + after) / 2.0))
        before = after
    return times


def metric(value: float, unit: str) -> dict:
    """One entry of the result's metrics object."""
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child (pool workers)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _run(harness, check, cfg, tag, jobs):
    try:
        return harness.run_campaign(cfg, jobs=jobs)
    except Exception as exc:  # every point of a campaign that raised fails
        traceback.print_exc()
        check.raised(cfg, tag, exc)
        return None


def final_checks(harness, check, seed, first, jobs) -> None:
    """Reference z-test, clean channel, and --jobs byte-identity."""
    from workloads import clean_config

    check.against_reference()
    clean = clean_config(seed)
    res = _run(harness, check, clean, "clean", 1)
    if res is not None:
        check.clean_channel(clean, res)
    if jobs > 1 and first is not None:
        cfg, results = first
        again = _run(harness, check, cfg, "jobs=1", 1)
        if again is not None:
            check.identical(f"jobs=1 vs jobs={jobs}", results, again)


def run_untraced(harness, workload, seed, seconds, jobs, check, out):
    campaigns = []
    start = time.perf_counter()
    before = kernel_seconds()
    k = 0
    while True:
        cfg = workload.config(seed, k)
        t0 = time.perf_counter()
        res = _run(harness, check, cfg, k, jobs)
        dt = time.perf_counter() - t0
        if res is None:
            break
        after = kernel_seconds()
        check.campaign(cfg, res, k)
        campaigns.append((cfg, res, dt, speed(before, after)))
        before = after
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    rss = peak_rss_mb()
    first = (campaigns[0][0], campaigns[0][1]) if campaigns else None
    final_checks(harness, check, seed, first, jobs)
    setup = measure_setup(workload.name, seed)

    raw = [sum(r.frames for r in res) / dt for _, res, dt, _ in campaigns]
    rates = [r / v for r, (*_, v) in zip(raw, campaigns)]
    frames = sum(r.frames for _, res, _, _ in campaigns for r in res)
    metrics = {}
    if rates:
        metrics["frames_per_s"] = metric(
            statistics.median(rates), "frames/ref_s")
        out(f"frames_per_s {metrics['frames_per_s']['value']:.2f} frames per "
            f"reference second (median of {len(rates)} campaigns, {frames} "
            f"frames; wall clock: median {statistics.median(raw):.2f}, min "
            f"{min(raw):.2f}, max {max(raw):.2f} frames/s; machine speed "
            f"median {statistics.median(v for *_, v in campaigns):.3f})")
    # The unit of setup_s stays "s": the metric is in reference seconds,
    # and its wall-clock median is printed on the line below.
    metrics["setup_s"] = metric(
        statistics.median(w * REFERENCE_IMPORT_S / b for w, b in setup), "s")
    out(f"setup_s {metrics['setup_s']['value']:.4f} s in reference seconds (median "
        f"of {len(setup)} fresh processes; wall clock: median "
        f"{statistics.median(w for w, _ in setup):.3f}, each "
        f"{' '.join(f'{w:.3f}' for w, _ in setup)}; import probe: "
        f"{' '.join(f'{b:.3f}' for _, b in setup)})")
    metrics["peak_rss_mb"] = metric(rss, "MB")
    out(f"peak_rss_mb {rss:.1f} MB")
    if first is not None:
        from checks import digest

        out(f"results_identical sha256:{digest(first[1])} "
            f"(campaign 0, scenario seed {first[0].seed})")
    return metrics


def _traced(rec, harness, check, cfg, tag, jobs):
    """One campaign with rec's wrappers installed: (results, wall seconds)."""
    rec.install()
    try:
        t0 = time.perf_counter()
        res = _run(harness, check, cfg, tag, jobs)
        return res, time.perf_counter() - t0
    finally:
        rec.uninstall()


def projection(harness, seed, out) -> None:
    """Report-only: paper_scenarios() core-hours from traced ms/frame."""
    from checks import OutputCheck
    from spans import END, FRAME, NAME, START, Recorder

    scenarios = harness.paper_scenarios()
    rec, scratch = Recorder(), OutputCheck({})
    for k, sc in enumerate(scenarios):
        rec.campaign = k
        _traced(rec, harness, scratch,
                replace(sc, seed=seed, frames=PROJECTION_FRAMES), k, 1)
    cost = {}
    for s in rec.spans:
        if s[NAME] == "harness.run_frame":
            acc = cost.setdefault((s[FRAME][0], s[FRAME][1]), [0.0, 0])
            acc[0] += s[END] - s[START]
            acc[1] += 1
    wanted = [(k, m.value) for k, sc in enumerate(scenarios) for m in sc.phy_modes]
    if scratch.problems or any(key not in cost for key in wanted):
        out(f"projection: unavailable {scratch.problems or sorted(rec.missing)}")
        return
    total = 0.0
    for k, sc in enumerate(scenarios):
        points = len(sc.snr_sweep_db) * len(sc.sir_sweep_db or (None,))
        hours = sum(cost[(k, m.value)][0] / cost[(k, m.value)][1]
                    for m in sc.phy_modes) * points * sc.frames / 3600.0
        total += hours
        out(f"projection {sc.id}: {hours:.3f} core-hours "
            f"({points} points x {sc.frames} frames x {len(sc.phy_modes)} modes)")
    out(f"projection paper_scenarios: {total:.3f} core-hours (a projection from "
        f"traced ms/frame over {PROJECTION_FRAMES} frames per point, "
        f"not a measured run)")


def layer_metrics(rec, summary, frames, jobs, campaigns) -> tuple:
    """Span-derived metrics of ``frames`` traced frames, and the names left
    out because their spans are missing or incomplete."""
    from spans import OUTCOMES, POOL, SPAN_NAMES

    missing = rec.missing_names(jobs, frames)
    metrics = {}
    for name in SPAN_NAMES:
        if name in missing:
            continue
        spent, calls = summary["by_name"][name]
        metrics[f"{name}.self_ms_per_frame"] = metric(spent * 1e3 / frames, "ms")
        metrics[f"{name}.calls_per_frame"] = metric(calls / frames, "calls/frame")
    if POOL not in missing:
        metrics[f"{POOL}.created"] = metric(rec.pools_created / campaigns,
                                            "pools/campaign")
    if "receiver.receive" not in missing:
        for o in OUTCOMES:
            metrics[f"receiver.outcome.{o}"] = metric(rec.outcomes[o], "frames")
    return metrics, missing


def run_traced(harness, workload, seed, jobs, check, out):
    from checks import digest
    from spans import POOL, Recorder, summarize

    # Untraced and traced runs of each campaign alternate, so drift in
    # machine speed falls on both sides of the overhead estimate.
    cfgs = [workload.config(seed, k) for k in range(workload.trace_campaigns)]
    rec = Recorder()
    plain, traced = [], []
    untraced_wall = traced_wall = 0.0
    for k, cfg in enumerate(cfgs):
        t0 = time.perf_counter()
        plain.append(_run(harness, check, cfg, ("untraced", k), jobs))
        untraced_wall += time.perf_counter() - t0
        rec.campaign = k
        res, wall = _traced(rec, harness, check, cfg, k, jobs)
        traced.append(res)
        traced_wall += wall
    for k, (cfg, a, b) in enumerate(zip(cfgs, plain, traced)):
        if b is not None:
            check.campaign(cfg, b, k)
            if a is not None:
                check.identical(f"campaign {k} traced vs untraced", a, b)
    first = (cfgs[0], traced[0]) if traced[0] is not None else None
    final_checks(harness, check, seed, first, jobs)

    done = [r for res in traced if res is not None for r in res]
    frames = sum(r.frames for r in done) or 1
    summary = summarize(rec.spans, rec.pid)
    metrics, missing = layer_metrics(rec, summary, frames, jobs, len(cfgs))
    # From the campaigns' results, not from spans: right whatever was lost.
    metrics["receiver.detected_share"] = metric(
        sum(r.detected for r in done) / frames, "share")
    metrics["tracing.overhead_share"] = metric(
        traced_wall / untraced_wall - 1.0, "share")
    untraced = traced_wall - summary["parent_self_s"]
    metrics["tracing.untraced_ms_per_frame"] = metric(untraced * 1e3 / frames, "ms")

    for name, m in metrics.items():
        out(f"{name} {m['value']:.6g} {m['unit']}")
    out(f"tracing: {frames} frames; traced wall {traced_wall * 1e3:.1f} ms = "
        f"self times in this process {summary['parent_self_s'] * 1e3:.1f} ms "
        f"+ untraced {untraced * 1e3:.1f} ms; untraced wall "
        f"{untraced_wall * 1e3:.1f} ms")
    if summary["worker_self_s"]:
        out(f"tracing: pool workers ran {summary['worker_self_s'] * 1e3:.1f} ms "
            f"of spans in parallel, inside {POOL}")
    if rec.untraced_chunks:
        out(f"tracing: {rec.untraced_chunks} pool chunks returned no spans")
    if rec.missing:
        out(f"tracing: missing {sorted(rec.missing)}")
    if missing:
        out(f"tracing: not reported, spans missing or incomplete: {missing}")
    if first is not None:
        out(f"results_identical sha256:{digest(first[1])} "
            f"(campaign 0, scenario seed {first[0].seed})")
    projection(harness, seed, out)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "pid": rec.pid,
                   "frames": frames, "traced_wall_s": traced_wall,
                   "missing": missing, "fields": ["name", "start", "end",
                                                  "parent", "frame", "pid"],
                   "spans": rec.spans}, fh)
    out(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not blesim_on_path():
        print(f"error: no blesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_probe:
        return setup_probe(workload, seed)

    from blesim import harness
    from checks import OutputCheck, load_reference

    def out(line: str) -> None:
        print(line, flush=True)

    jobs = min(workload.jobs, os.cpu_count() or 1)
    out(f"# blesim benchmark workload={workload.name} seed={seed} "
        f"seconds={args.seconds:g} trace={args.trace} jobs={jobs}")
    out(f"# {environment()}")
    warm_up(harness, workload.config(seed))
    check = OutputCheck(load_reference(workload.name))
    if args.trace:
        metrics = run_traced(harness, workload, seed, jobs, check, out)
    else:
        metrics = run_untraced(harness, workload, seed, args.seconds, jobs,
                               check, out)
    out(f"failed_point_share {check.failed / max(check.attempted, 1):.6g} "
        f"({check.failed} of {check.attempted} points)")
    for problem in check.problems:
        out(f"output check: {problem}")
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
