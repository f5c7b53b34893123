"""JSON reports and CSV margin dumps.

Reports round-trip losslessly: ``from_json(to_json(r)) == r`` (floats survive
because json keeps repr precision, and absent margins are ``null``, not NaN).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

from .certify import TestOutcome

TOOL_VERSION = "0.1.0"


def outcome_to_dict(o: TestOutcome) -> dict:
    return {
        "name": o.name,
        "function": o.function,
        "verdict": o.verdict,
        "min_margin": o.min_margin,
        "trials_run": o.trials_run,
        "trials_skipped": o.trials_skipped,
        "counterexample": o.counterexample,
        "detail": o.detail,
    }


def outcome_from_dict(obj: dict) -> TestOutcome:
    return TestOutcome(
        name=obj["name"],
        function=obj["function"],
        verdict=obj["verdict"],
        min_margin=obj["min_margin"],
        trials_run=int(obj["trials_run"]),
        trials_skipped=int(obj["trials_skipped"]),
        counterexample=obj["counterexample"],
        detail=obj.get("detail", ""),
    )


@dataclass(frozen=True)
class CertificationReport:
    function: dict
    config: dict
    outcomes: tuple[TestOutcome, ...]
    wall_time_ms: float
    fit: Optional[dict] = None
    tool_version: str = TOOL_VERSION

    def to_dict(self) -> dict:
        obj = {
            "tool_version": self.tool_version,
            "function": self.function,
            "config": self.config,
            "outcomes": [outcome_to_dict(o) for o in self.outcomes],
            "wall_time_ms": self.wall_time_ms,
        }
        if self.fit is not None:
            obj["fit"] = self.fit
        return obj

    def to_json(self, indent: Optional[int] = None) -> str:
        """The report as JSON text: compact by default, which json writes with its C encoder."""
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    @staticmethod
    def from_dict(obj: dict) -> "CertificationReport":
        return CertificationReport(
            function=obj["function"],
            config=obj["config"],
            outcomes=tuple(outcome_from_dict(x) for x in obj["outcomes"]),
            wall_time_ms=float(obj["wall_time_ms"]),
            fit=obj.get("fit"),
            tool_version=obj["tool_version"],
        )

    @staticmethod
    def from_json(text: str) -> "CertificationReport":
        return CertificationReport.from_dict(json.loads(text))


def write_sweep_csv(rows: list[tuple], stream) -> None:
    """Emit per-trial margins: one row per evaluated trial.

    Columns: test, dim, trial, margin, scale.  Floats are written with repr
    precision so the CSV reproduces the report margins exactly.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["test", "dim", "trial", "margin", "scale"])
    for test, dim, trial, margin, scale in rows:
        writer.writerow([test, int(dim), int(trial), repr(float(margin)), repr(float(scale))])
