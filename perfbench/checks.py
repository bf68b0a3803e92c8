"""Output check: campaign results against invariants and reference counts.

An operation is one (mode, SNR, SIR) result of one campaign.  It fails
when it breaks an invariant, or when its point's error count, summed
over the run's campaigns, differs from the reference count by |z| > 4 in
a two-proportion z-test.  The reference counts were recorded at the
commit that introduced the benchmark (see ``make_reference.py``).
"""
from __future__ import annotations

import hashlib
import io
import json
import math
from pathlib import Path

Z_LIMIT = 4.0
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def point_key(phy: str, snr_db: float, sir_db: float | None) -> str:
    return f"{phy}/{snr_db:g}/{'-' if sir_db is None else format(sir_db, 'g')}"


def expected_keys(cfg) -> list:
    sirs = cfg.sir_sweep_db if cfg.sir_sweep_db is not None else (None,)
    return [point_key(m.value, float(snr), None if sir is None else float(sir))
            for m in cfg.phy_modes for snr in cfg.snr_sweep_db for sir in sirs]


def invariant_errors(result, frames: int) -> list:
    """The invariants one PerResult breaks, as short descriptions."""
    r = result
    bad = []
    if r.frames != frames:
        bad.append(f"frames {r.frames} != requested {frames}")
    if not 0 <= r.valid <= r.detected <= r.frames:
        bad.append(f"not 0 <= valid {r.valid} <= detected {r.detected} "
                   f"<= frames {r.frames}")
    if r.frames and not math.isclose(r.per, (r.frames - r.valid) / r.frames,
                                     rel_tol=1e-12, abs_tol=1e-15):
        bad.append(f"per {r.per} != errors/frames")
    if not r.wilson_lo <= r.per <= r.wilson_hi:
        bad.append(f"Wilson [{r.wilson_lo}, {r.wilson_hi}] does not bracket "
                   f"per {r.per}")
    return bad


def z_score(e1: int, n1: int, e2: int, n2: int) -> float:
    """Pooled two-proportion z statistic of e1/n1 against e2/n2."""
    p = (e1 + e2) / (n1 + n2)
    if p in (0.0, 1.0):
        return 0.0
    return (e1 / n1 - e2 / n2) / math.sqrt(p * (1 - p) * (1 / n1 + 1 / n2))


class OutputCheck:
    """Accumulates the operations of one run and the reasons any failed."""

    def __init__(self, reference: dict):
        # reference: point key -> {"frames": n, "errors": e}
        self.reference = reference
        self.attempted = 0
        self.failed_ops: set = set()
        self.problems: list = []
        self._totals: dict = {}

    def fail(self, ops, why: str) -> None:
        self.failed_ops.update(ops)
        self.problems.append(why)

    def campaign(self, cfg, results, tag, pooled: bool = True) -> None:
        """Check one campaign's results against cfg and the invariants.

        ``pooled`` results also join the z-test against the reference.
        """
        keys = expected_keys(cfg)
        ops = [(tag, key) for key in keys]
        self.attempted += len(ops)
        got = [point_key(r.phy, r.snr_db, r.sir_db) for r in results]
        if got != keys:
            self.fail(ops, f"{cfg.id}: points {got} != expected {keys}")
            return
        for op, r in zip(ops, results):
            bad = invariant_errors(r, cfg.frames)
            if bad:
                self.fail([op], f"{cfg.id} {op[1]}: " + "; ".join(bad))
            if not pooled:
                continue
            tot = self._totals.setdefault(op[1], [0, 0, []])
            tot[0] += r.frames - r.valid
            tot[1] += r.frames
            tot[2].append(op)

    def raised(self, cfg, tag, exc: BaseException) -> None:
        ops = [(tag, key) for key in expected_keys(cfg)]
        self.attempted += len(ops)
        self.fail(ops, f"{cfg.id}: run_campaign raised {exc!r}")

    def against_reference(self) -> None:
        """z-test each point's summed errors against the reference count."""
        for key, (errors, frames, ops) in self._totals.items():
            ref = self.reference.get(key)
            if ref is None:
                self.fail(ops, f"{key}: no reference count")
                continue
            z = z_score(errors, frames, ref["errors"], ref["frames"])
            if abs(z) > Z_LIMIT:
                self.fail(ops, f"{key}: {errors}/{frames} errors vs reference "
                               f"{ref['errors']}/{ref['frames']}, z={z:+.2f}")

    def clean_channel(self, cfg, results) -> None:
        """No channel at all: every mode must decode every frame."""
        self.campaign(cfg, results, "clean", pooled=False)
        for r in results:
            if r.valid != r.frames:
                self.fail([("clean", point_key(r.phy, r.snr_db, r.sir_db))],
                          f"clean channel {r.phy}: {r.frames - r.valid} of "
                          f"{r.frames} frames lost")

    def identical(self, what: str, a, b) -> None:
        """Two result lists that must match byte for byte as CSV."""
        self.attempted += len(a)
        if csv_bytes(a) != csv_bytes(b):
            self.fail([(what, i) for i in range(len(a))], f"{what}: results differ")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def correct(self) -> bool:
        return not self.failed_ops


def csv_bytes(results) -> bytes:
    from blesim.harness import emit_results

    buf = io.StringIO()
    emit_results(results, buf, fmt="csv")
    return buf.getvalue().encode()


def digest(results) -> str:
    return hashlib.sha256(csv_bytes(results)).hexdigest()


def load_reference(workload: str) -> dict:
    """Point key -> {"frames", "errors"}; empty when the workload has none."""
    with open(REFERENCE_PATH) as fh:
        data = json.load(fh)
    return data["workloads"].get(workload, {}).get("points", {})
