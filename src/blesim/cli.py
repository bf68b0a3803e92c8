"""Command line front end.

Exit codes: 0 success, 2 configuration problem, 3 file I/O problem.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import replace

from .channel import ChannelProfile, InterfererConfig
from .errors import ConfigError, IoError
from .gmsk import write_iq
from .harness import (
    ScenarioConfig,
    emit_results,
    load_scenario,
    paper_scenarios,
    received_frame,
    run_campaign,
    save_scenario,
    scenario_to_dict,
)
from .phymode import PhyMode
from .receiver import STAGES, receive, reference_receive


# Most points one --snr or --sir sweep may hold.
MAX_SWEEP_POINTS = 1000


def _parse_sweep(text: str) -> tuple:
    """Parse 'a:step:b' (inclusive) or a comma list into floats."""
    try:
        values = [float(p) for p in text.split(":" if ":" in text else ",")]
    except ValueError:
        raise ConfigError(f"sweep parts must be numbers, got {text!r}") from None
    too_many = ConfigError(f"a sweep holds at most {MAX_SWEEP_POINTS} points")
    if ":" in text:
        if len(values) != 3 or not all(map(math.isfinite, values)):
            raise ConfigError(f"sweep must be a:step:b, all finite, got {text!r}")
        a, step, b = values
        if step <= 0:
            raise ConfigError("sweep step must be positive")
        if (b - a) / step >= MAX_SWEEP_POINTS:
            raise too_many
        values, v = [], a
        # The bound also ends a step too fine to move v at all.
        while v <= b + 1e-9 and len(values) <= MAX_SWEEP_POINTS:
            values.append(round(v, 9))
            v += step
    if len(values) > MAX_SWEEP_POINTS:
        raise too_many
    return tuple(values)


def _attach_sweeps(argv: list) -> list:
    """Join `--snr V` and `--sir V` into `--snr=V`, which argparse takes
    even when V starts with a minus sign (`--sir -10,0,10`)."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--snr", "--sir"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _make_dir(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _emit(results, fh, fmt: str) -> None:
    """emit_results, then flush.  An OSError from either (a full disk, a
    closed pipe) becomes IoError, and fh is closed first: the output is
    lost, and what is left in fh's buffer would fail again when fh is
    closed at exit."""
    try:
        emit_results(results, fh, fmt=fmt)
        fh.flush()
    except OSError as exc:
        with contextlib.suppress(OSError):
            fh.close()
        raise IoError(f"cannot write the results: {exc}") from exc


def _cmd_run(args) -> int:
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {args.jobs}")
    # A regular or new --out is written under a temporary name beside it
    # and renamed onto it once complete, so a partial file never looks like
    # a result; anything else (/dev/full, a FIFO) is written in place.
    # Opened before any frame runs, an unwritable --out fails at once.
    path = os.path.realpath(args.out)
    in_place = os.path.exists(path) and not os.path.isfile(path)
    tmp = None if in_place else f"{path}.{os.getpid()}.tmp"
    try:
        out = open(tmp or path, "w" if in_place else "x", newline="")
    except OSError as exc:
        raise IoError(f"{args.out}: {exc.strerror or exc}") from exc
    try:
        with out:
            results = run_campaign(cfg, jobs=args.jobs)
            _emit(results, out, args.format)
        if tmp:
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise IoError(f"cannot write the results: {exc}") from exc
    except BaseException:
        if tmp:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise
    print(f"wrote {len(results)} rows to {args.out}")
    return 0


def _cmd_paper_scenarios(args) -> int:
    scenarios = paper_scenarios()
    if args.emit is None:
        for s in scenarios:
            sweep = f"snr {s.snr_sweep_db[0]:g}..{s.snr_sweep_db[-1]:g} dB"
            if s.sir_sweep_db is not None:
                sweep += ", sir " + ",".join(f"{x:g}" for x in s.sir_sweep_db)
            print(f"{s.id}: {len(s.phy_modes)} modes, {s.frames} frames, {sweep}")
        return 0
    _make_dir(args.emit)
    for s in scenarios:
        path = os.path.join(args.emit, f"{s.id}.json")
        save_scenario(s, path)
        print(f"wrote {path}")
    return 0


def _cmd_per(args) -> int:
    cfg = ScenarioConfig(
        id=args.id, seed=args.seed, phy_modes=tuple(args.phy),
        snr_sweep_db=_parse_sweep(args.snr),
        sir_sweep_db=None if args.sir is None else _parse_sweep(args.sir),
        profile=None if args.profile == "none" else args.profile,
        interferer=None if args.sir is None else InterfererConfig(),
        frames=args.frames, pdu_bits=args.pdu_bits,
    )
    results = run_campaign(cfg, jobs=args.jobs)
    _emit(results, sys.stdout, "csv")
    return 0


def _cmd_dump_stages(args) -> int:
    if args.frame < 0:
        raise ConfigError(f"--frame must be non-negative, got {args.frame}")
    cfg = load_scenario(args.config)
    mode = cfg.phy_modes[0]
    snr = cfg.snr_sweep_db[0]
    sir = None if cfg.sir_sweep_db is None else cfg.sir_sweep_db[0]
    frame, rx = received_frame(cfg, mode, snr, sir, args.frame)
    stages = reference_receive(frame, rx)[0]
    report = receive(frame, rx)
    _make_dir(args.out)
    files = [f"{i:02d}_{name}.iq" for i, name in enumerate(STAGES)]
    for path, stage in zip(files, stages.values()):
        write_iq(stage, os.path.join(args.out, path))
    # A stage this frame did not reach keeps no file from an earlier
    # capture into the same directory.
    for path in files[len(stages):]:
        try:
            os.remove(os.path.join(args.out, path))
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise IoError(str(exc)) from exc
    meta = {
        "scenario": scenario_to_dict(cfg),
        "frame": args.frame,
        "phy": mode.value,
        "snr_db": snr,
        "sir_db": sir,
        "stages": files[:len(stages)],
        "report": {
            "detected": report.detected,
            "aa_ok": report.aa_ok,
            "crc_ok": report.crc_ok,
            "cfo_estimate_hz": report.cfo_estimate_hz,
            "timing_offset": report.timing_offset,
            "peak_correlation": report.peak_correlation,
            "reason": report.reason,
        },
    }
    try:
        with open(os.path.join(args.out, "stages.json"), "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc
    print(f"wrote {len(stages)} stages to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="blesim",
                                description="BLE baseband PER simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    run.add_argument("--jobs", type=int, default=1)
    run.set_defaults(func=_cmd_run)

    canned = sub.add_parser("paper-scenarios",
                            help="list or emit the canned campaign configs")
    canned_mode = canned.add_mutually_exclusive_group()
    canned_mode.add_argument("--list", action="store_true", dest="list_only",
                             help="print the scenario ids (default action)")
    canned_mode.add_argument("--emit", metavar="DIR", default=None,
                             help="write one JSON config per scenario")
    canned.set_defaults(func=_cmd_paper_scenarios)

    per = sub.add_parser("per", help="quick PER sweep to stdout")
    per.add_argument("--phy", nargs="+", required=True,
                     choices=[m.value for m in PhyMode])
    per.add_argument("--snr", required=True, help="a:step:b or comma list (dB)")
    per.add_argument("--sir", default=None, help="comma list (dB); enables WLAN interferer")
    per.add_argument("--profile", default="none",
                     choices=sorted(["none", *(p.value for p in ChannelProfile)]))
    per.add_argument("--frames", type=int, default=1000)
    per.add_argument("--pdu-bits", type=int, default=128)
    per.add_argument("--seed", type=int, default=0)
    per.add_argument("--jobs", type=int, default=1)
    per.add_argument("--id", default="cli")
    per.set_defaults(func=_cmd_per)

    dump = sub.add_parser("dump-stages",
                          help="write per-stage IQ captures for one frame")
    dump.add_argument("--config", required=True)
    dump.add_argument("--frame", type=int, default=0)
    dump.add_argument("--out", required=True)
    dump.set_defaults(func=_cmd_dump_stages)
    return p


def main(argv=None) -> int:
    argv = _attach_sweeps(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
