"""JSON reports and CSV margin dumps.

Reports round-trip losslessly: ``from_json(to_json(r)) == r`` (floats survive
because json keeps repr precision, and absent margins are ``null``, not NaN).
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

from .certify import FAIL, INCONCLUSIVE, PASS, SKIPPED, TestOutcome
from .hermitian import _json_integer

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


def _verdict(value) -> str:
    if value in (PASS, FAIL, INCONCLUSIVE, SKIPPED):
        return value
    raise ValueError(f"expected a verdict, got {value!r}")


def _margin(value) -> Optional[float]:
    if value is None or type(value) in (int, float) and math.isfinite(value):  # not a bool
        return None if value is None else float(value)
    raise ValueError(f"expected null or a finite number, got {value!r}")


def _count(value) -> int:
    n = _json_integer(value)
    if n < 0:
        raise ValueError(f"expected a count of at least 0, got {value!r}")
    return n


def _field(obj: dict, key: str, read: Callable):
    try:
        return read(obj[key])
    except ValueError as exc:
        raise ValueError(f"outcome {obj['name']!r} field {key!r} is malformed: {exc}") from None


def outcome_from_dict(obj: dict) -> TestOutcome:
    """The outcome a JSON object holds; ValueError, naming the field, for a value no outcome has.

    The counts are read as a payload's integers are, and none is negative:
    3.7, "2" and -1 are malformed.
    """
    return TestOutcome(
        name=obj["name"],
        function=obj["function"],
        verdict=_field(obj, "verdict", _verdict),
        min_margin=_field(obj, "min_margin", _margin),
        trials_run=_field(obj, "trials_run", _count),
        trials_skipped=_field(obj, "trials_skipped", _count),
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
