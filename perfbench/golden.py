"""Golden outcomes, keyed by workload and seed, and the comparator.

A golden entry holds, per ``<function>|<outcome>`` key, the verdict, the
trial counts and the minimum margin recorded at one commit.  Verdicts and
counts must match exactly.  Margins are normalised and several sit just
below zero (about -6e-15 on wide/condition13), so a purely relative bound
would flag any reordering of floating-point sums; margins must instead
satisfy ``|a - b| <= 1e-12 * max(1, |a|, |b|)``.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

MARGIN_TOL = 1e-12


def path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str) -> dict[str, dict]:
    """seed (as a string) -> {key: entry}; empty when nothing is recorded."""
    p = path(workload)
    if not p.exists():
        return {}
    return json.loads(p.read_text())["seeds"]


def input_seed(seed: int, seeds: dict) -> int:
    """The seed the workload's inputs are built from.

    A seed with a recorded golden runs as itself; any other seed folds onto
    the recorded seeds (in numeric order) by ``seed mod count``, so every
    seed is checked against a golden.
    """
    if str(seed) in seeds or not seeds:
        return seed
    recorded = sorted(int(s) for s in seeds)
    return recorded[seed % len(recorded)]


def record(workload: str, seed: int, entries: dict[str, dict], provenance: dict) -> None:
    """Store (or replace) the golden of one seed."""
    p = path(workload)
    data = json.loads(p.read_text()) if p.exists() else {"workload": workload, "seeds": {}}
    data["seeds"][str(seed)] = entries
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    data.setdefault("recorded_with", {})[str(seed)] = provenance
    data["recorded_with"] = dict(sorted(data["recorded_with"].items(), key=lambda kv: int(kv[0])))
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    p.write_text(dumps(data))


def dumps(data: dict) -> str:
    """Golden JSON with one line per outcome, so a re-recorded seed diffs line by line."""
    def rows(mapping: dict, indent: str) -> str:
        return ",\n".join(f"{indent}{json.dumps(k)}: {json.dumps(v)}" for k, v in mapping.items())

    seeds = ",\n".join(
        f"  {json.dumps(seed)}: {{\n{rows(entries, '   ')}\n  }}"
        for seed, entries in data["seeds"].items()
    )
    return (
        f'{{\n "workload": {json.dumps(data["workload"])},\n'
        f' "recorded_with": {{\n{rows(data["recorded_with"], "  ")}\n }},\n'
        f' "seeds": {{\n{seeds}\n }}\n}}\n'
    )


def margins_match(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= MARGIN_TOL * max(1.0, abs(a), abs(b))


def compare(expected: dict, actual: dict) -> list[str]:
    """Differences between one golden entry and one outcome, as messages."""
    out = [
        f"{field} {actual[field]!r} != golden {expected[field]!r}"
        for field in ("verdict", "trials_run", "trials_skipped")
        if actual[field] != expected[field]
    ]
    if not margins_match(expected["min_margin"], actual["min_margin"]):
        out.append(f"min_margin {actual['min_margin']!r} != golden {expected['min_margin']!r}")
    return out


def check(golden: dict[str, dict], outcomes) -> dict[str, list[str]]:
    """key -> problems, for every key of the golden or of the run."""
    got = {o.key: o for o in outcomes}
    problems: dict[str, list[str]] = {}
    for key in dict.fromkeys([*golden, *got]):
        if key not in got:
            problems[key] = ["missing from the run"]
        elif key not in golden:
            problems[key] = ["not in the golden"]
        else:
            problems[key] = [*got[key].problems, *compare(golden[key], got[key].golden_entry())]
    return problems
