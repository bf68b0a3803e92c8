"""The paper's four campaigns at full size, as committed under results/paper/.

BENCH_paper.json records each campaign's CSV digest and row count, and
how long the run took.  The test holds the committed CSVs to it and
prints the abstract's three claims (PAPER.md), one PASS or FAIL line
each, from the committed rows.  A claim that fails is a finding about
the model, not a broken file, so only the files are asserted.
"""
import csv
import hashlib
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
UNCODED, CODED = ("LE1M", "LE2M"), ("LE500K", "LE125K")


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n{line}")


def per_table(name: str) -> dict:
    """PER of each (mode, SNR, SIR) point of a committed campaign; SIR is
    None without an interferer."""
    with open(ROOT / "results" / "paper" / f"{name}.csv", newline="") as fh:
        return {(r["phy"], float(r["snr_db"]),
                 float(r["sir_db"]) if r["sir_db"] else None): float(r["per"])
                for r in csv.DictReader(fh)}


def test_committed_campaigns_match_their_digests(capsys):
    bench = json.loads((ROOT / "BENCH_paper.json").read_text())
    assert sorted(bench["campaigns"]) == ["los", "los_wlan", "nlos", "nlos_wlan"]
    for name, run in bench["campaigns"].items():
        data = (ROOT / "results" / "paper" / f"{name}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == run["sha256"], name
        assert data.count(b"\n") - 1 == run["rows"], name

    los, nlos = per_table("los"), per_table("nlos")
    wlan = {"los": per_table("los_wlan"), "nlos": per_table("nlos_wlan")}
    clean = {"los": los, "nlos": nlos}

    # 1. Uncoded PER is higher in NLOS than in LOS at every SNR.
    snrs = sorted({snr for _, snr, _ in los})
    worse = all(nlos[m, s, None] > los[m, s, None] for m in UNCODED for s in snrs)
    at = min(snrs, key=lambda s: abs(s - 12.0))
    announce(capsys, f"{'PASS' if worse else 'FAIL'} paper claim 1: uncoded PER "
             f"higher in NLOS than LOS at every SNR; at {at:g} dB "
             + ", ".join(f"{m} {nlos[m, at, None]:.3f} vs {los[m, at, None]:.3f}"
                         for m in UNCODED))

    # 2. Uncoded PER is higher with WLAN than without at every SIR, or
    # both read 0.
    points = [(env, m, snr, sir) for env in ("los", "nlos")
              for m, snr, sir in wlan[env] if m in UNCODED]
    worse = all(wlan[env][m, snr, sir] > clean[env][m, snr, None]
                or wlan[env][m, snr, sir] == clean[env][m, snr, None] == 0.0
                for env, m, snr, sir in points)
    announce(capsys, f"{'PASS' if worse else 'FAIL'} paper claim 2: uncoded PER "
             "higher with WLAN than without at every SIR, or both 0; LE1M at "
             "SNR 20 dB, SIR 0 dB: "
             + ", ".join(f"{env.upper()} {wlan[env]['LE1M', 20.0, 0.0]:.3f} vs "
                         f"{clean[env]['LE1M', 20.0, None]:.3f}"
                         for env in ("los", "nlos")))

    # 3. At SIR -10 dB the coded modes' PER is below the uncoded modes'.
    below = all(max(wlan[env][m, 20.0, -10.0] for m in CODED)
                < min(wlan[env][m, 20.0, -10.0] for m in UNCODED)
                for env in ("los", "nlos"))
    announce(capsys, f"{'PASS' if below else 'FAIL'} paper claim 3: coded PER "
             "below uncoded at SIR -10 dB; "
             + "; ".join(env.upper() + " " + ", ".join(
                 f"{m} {wlan[env][m, 20.0, -10.0]:.3f}" for m in UNCODED + CODED)
                 for env in ("los", "nlos")))
