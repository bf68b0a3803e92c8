"""Command line front end.

Exit codes: 0 success, 2 configuration problem, 3 file I/O problem.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .channel import InterfererConfig, los_profile, nlos_profile, reverberant_profile
from .errors import ConfigError, IoError
from .gmsk import write_iq
from .harness import (
    ScenarioConfig,
    emit_results,
    load_scenario,
    paper_scenarios,
    run_campaign,
    run_frame,
    save_scenario,
    scenario_to_dict,
)
from .phymode import PhyMode


def _parse_sweep(text: str) -> tuple:
    """Parse 'a:step:b' (inclusive) or a comma list into floats."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"sweep must be a:step:b, got {text!r}")
        a, step, b = (float(p) for p in parts)
        if step <= 0:
            raise ConfigError("sweep step must be positive")
        out = []
        v = a
        while v <= b + 1e-9:
            out.append(round(v, 9))
            v += step
        return tuple(out)
    return tuple(float(p) for p in text.split(","))


def _cmd_run(args) -> int:
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    results = run_campaign(cfg, jobs=args.jobs)
    emit_results(results, args.out, fmt=args.format)
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
    os.makedirs(args.emit, exist_ok=True)
    for s in scenarios:
        path = os.path.join(args.emit, f"{s.id}.json")
        save_scenario(s, path)
        print(f"wrote {path}")
    return 0


_PROFILES = {
    "none": None,
    "los": los_profile(),
    "nlos": nlos_profile(),
    "reverb": reverberant_profile(),
}


def _cmd_per(args) -> int:
    cfg = ScenarioConfig(
        id=args.id, seed=args.seed, phy_modes=tuple(args.phy),
        snr_sweep_db=_parse_sweep(args.snr),
        sir_sweep_db=None if args.sir is None else _parse_sweep(args.sir),
        profile=_PROFILES[args.profile],
        interferer=None if args.sir is None else InterfererConfig(),
        frames=args.frames, pdu_bits=args.pdu_bits,
    )
    results = run_campaign(cfg, jobs=args.jobs)
    emit_results(results, sys.stdout, fmt="csv")
    return 0


def _cmd_dump_stages(args) -> int:
    cfg = load_scenario(args.config)
    mode = cfg.phy_modes[0]
    snr = cfg.snr_sweep_db[0]
    sir = None if cfg.sir_sweep_db is None else cfg.sir_sweep_db[0]
    trace: list = []
    report = run_frame(cfg, mode, snr, sir, args.frame, trace=trace)
    os.makedirs(args.out, exist_ok=True)
    for i, (name, frame) in enumerate(trace):
        write_iq(frame, os.path.join(args.out, f"{i:02d}_{name}.iq"))
    meta = {
        "scenario": scenario_to_dict(cfg),
        "frame": args.frame,
        "phy": mode.value,
        "snr_db": snr,
        "sir_db": sir,
        "stages": [f"{i:02d}_{name}.iq" for i, (name, _) in enumerate(trace)],
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
    print(f"wrote {len(trace)} stages to {args.out}")
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
    per.add_argument("--profile", choices=sorted(_PROFILES), default="none")
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
