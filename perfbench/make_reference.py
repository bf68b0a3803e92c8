"""Record the reference per-point error counts of the output check.

    python3 perfbench/make_reference.py

Runs every workload's sweep once with ``reference_frames`` frames per point
from REFERENCE_SEED and writes ``perfbench/reference.json``.  Run it only
when a change is meant to alter PER results; a speed-only change must pass
the check against the committed counts.
"""
from __future__ import annotations

import json
import sys

from checks import REFERENCE_PATH, point_key
from run import ROOT, blesim_on_path, environment


def main() -> int:
    if not blesim_on_path():
        print(f"error: no blesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from blesim.harness import run_campaign
    from workloads import REFERENCE_SEED, WORKLOADS

    data = {"seed": REFERENCE_SEED, "workloads": {}}
    for name, w in WORKLOADS.items():
        cfg = w.config(REFERENCE_SEED, frames=w.reference_frames)
        results = run_campaign(cfg, jobs=w.jobs)
        data["workloads"][name] = {
            "environment": environment(),
            "points": {
                point_key(r.phy, r.snr_db, r.sir_db):
                    {"frames": r.frames, "errors": r.frames - r.valid}
                for r in results
            },
        }
        print(f"{name}: {[r.frames - r.valid for r in results]}", flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
