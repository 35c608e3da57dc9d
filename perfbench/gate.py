"""Correctness gate: checks one iteration's run directories against the inputs.

Each check returns a list of failure strings (empty when it passes), so the
benchmark can count every failed check into ``failed`` and keep going.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import TEST_DIR, TRAIN_DIR, Inputs, fixtures

# the engine and the oracle compute the same expression; allow only
# last-digit differences
TOL = 1e-12


def run_digest(*dirs: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for d in dirs:
        d = Path(d)
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(d.parent)).encode() + b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def dir_bytes(*dirs: Path) -> int:
    return sum(p.stat().st_size for d in dirs for p in Path(d).rglob("*") if p.is_file())


def read_trajectory(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def check_summaries(inputs: Inputs, root: Path) -> list[str]:
    errors = []
    train = json.loads((root / TRAIN_DIR / "train_summary.json").read_text())
    if train["episodes_run"] != inputs.workload.episodes:
        errors.append(f"episodes_run {train['episodes_run']} != {inputs.workload.episodes}")
    test = json.loads((root / TEST_DIR / "test_summary.json").read_text())
    if test["days"] != len(inputs.test_days):
        errors.append(f"test days {test['days']} != {len(inputs.test_days)}")
    if test["belief_update_calls"] != 0:
        errors.append("test stage ran a belief update")
    return errors


def check_trajectory(inputs: Inputs, tag, records: list[dict]) -> list[str]:
    """Dates and directions as scripted; single stock: oracle PnL/CVaR/alert/trigger;
    portfolio: every weight inside its direction's sign box."""
    days = inputs.test_days if tag == "test" else inputs.train_days
    scripted = inputs.directions[tag]
    if [r["date"] for r in records] != [d.isoformat() for d in days]:
        return [f"episode {tag}: trajectory dates differ from the decision days"]
    errors = []
    for rec, dirs in zip(records, scripted):
        if rec["directions"] != dirs:
            errors.append(f"episode {tag} {rec['date']}: directions {rec['directions']} "
                          f"!= scripted {dirs}")
    tickers = inputs.workload.tickers
    if len(tickers) == 1:
        t = tickers[0]
        trace = fixtures.oracle_trace(inputs.closes_for(t, days), [d[t] for d in scripted])
        for rec, want in zip(records, trace):
            if (abs(rec["pnl"] - want.pnl) > TOL or abs(rec["cvar"] - want.rho) > TOL
                    or rec["alert"] != want.alert or rec["trigger"] != want.trigger):
                errors.append(
                    f"episode {tag} {rec['date']}: (pnl, cvar, alert, trigger) = "
                    f"({rec['pnl']!r}, {rec['cvar']!r}, {rec['alert']}, {rec['trigger']}) "
                    f"but the oracle gives ({want.pnl!r}, {want.rho!r}, {want.alert}, "
                    f"{want.trigger})")
    else:
        box = {"long": (0.0, 1.0), "short": (-1.0, 0.0), "neutral": (0.0, 0.0)}
        for rec in records:
            for t, d in rec["directions"].items():
                lo, hi = box[d]
                if not lo - TOL <= rec["weights"][t] <= hi + TOL:
                    errors.append(f"episode {tag} {rec['date']}: {t} weight "
                                  f"{rec['weights'][t]!r} outside the {d} box")
    return errors


def check_run(inputs: Inputs, root: Path) -> dict[str, list[str]]:
    """Every output check for one train + test iteration run inside ``root``,
    by check name."""
    checks = {"summaries": check_summaries(inputs, root)}
    for k in range(1, inputs.workload.episodes + 1):
        checks[f"trajectory {k}"] = check_trajectory(
            inputs, k, read_trajectory(root / TRAIN_DIR / f"trajectory_{k}.jsonl"))
    checks["trajectory test"] = check_trajectory(
        inputs, "test", read_trajectory(root / TEST_DIR / "trajectory_test.jsonl"))
    return checks
