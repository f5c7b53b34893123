"""JSON reports and CSV margin dumps.

One grammar reads and writes a report: a table of keys and readers for each
object it holds.  ``to_dict`` writes each table's keys in order; ``from_dict``
requires them all (``fit`` is optional), accepts no other, and names the path
of a value no report holds, as in ``outcomes[3].detail``.  ``from_json(to_json(r))
== r``: json keeps repr precision, and absent margins are ``null``, not NaN.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

from .certify import FAIL, INCONCLUSIVE, PASS, SKIPPED, TestConfig, TestOutcome
from .hermitian import _json_integer, _json_number

TOOL_VERSION = "0.1.0"


class _Malformed(ValueError):
    """A value no report holds: ``args`` are its path (keys and list indices) and why."""
    def __str__(self) -> str:
        path, why = self.args
        at = "".join(f"[{step}]" if type(step) is int else f".{step}" for step in path).lstrip(".")
        return f"{at}: {why}" if at else why


def _read(read, value, step):
    """read(value), whose error, for the value at ``step`` of an object or list, names its path."""
    try:
        return read(value)
    except ValueError as exc:
        path, why = exc.args if isinstance(exc, _Malformed) else ((), str(exc))
        raise _Malformed((step, *path), why) from None


def _expect(test, what: str, read=lambda value: value):
    """A reader that returns read(value) when ``test`` accepts it and refuses any other value."""
    def reader(value):
        value = read(value)
        if not test(value):
            raise ValueError(f"expected {what}, got {value!r}")
        return value
    return reader


_string = _expect(lambda value: type(value) is str, "a string")
_object = _expect(lambda value: type(value) is dict, "an object")


def _nullable(read):
    return lambda value: None if value is None else read(value)


def _list(read, least: int = 0):
    check = _expect(lambda value: type(value) is list and len(value) >= least,
                    "a non-empty list" if least else "a list")
    return lambda value: tuple(_read(read, entry, i) for i, entry in enumerate(check(value)))


def _fields(table: dict, value, closed: bool = True) -> dict:
    """What the readers of ``table`` read at their keys of a JSON object.

    Every key but fit is required, and a closed object holds no other key.
    """
    if _object(value).keys() != table.keys():
        if missing := table.keys() - value.keys() - {"fit"}:
            raise _Malformed((min(missing),), "missing")
        if closed and (unknown := value.keys() - table.keys()):
            raise _Malformed((min(unknown),), "unknown key")
    return {key: _read(read, value[key], key) for key, read in table.items() if key in value}


def _outcome(value) -> TestOutcome:
    """An outcome: its margin is null only when it is SKIPPED, and only a FAIL holds a witness,
    which states its kind and margin.  The rest of a witness is read when it is re-verified."""
    o = TestOutcome(**_fields(_OUTCOME, value))
    if (o.min_margin is None) != (o.verdict == SKIPPED):
        what = "null" if o.min_margin is not None else "a number"
        raise _Malformed(("min_margin",), f"expected {what} on a {o.verdict} outcome")
    if o.verdict == FAIL:
        _read(lambda witness: _fields(_WITNESS, witness, closed=False), o.counterexample,
              "counterexample")
    elif o.counterexample is not None:
        raise _Malformed(("counterexample",), f"expected null on a {o.verdict} outcome")
    return o


# One table per object a report holds: its keys, in the order to_dict writes
# them, and the reader of each value.
_DESCRIPTOR = {
    "name": _string, "expression": _nullable(_string), "zero_extension": _nullable(_json_number)
}
_CONFIG = {
    "seed": _json_integer,
    "dims": _list(_json_integer),
    "samples": _json_integer,
    "tol": _json_number,
    "eig_range": _list(_json_number),
    "bipartite": _list(_list(_json_integer)),
}
_OUTCOME = {
    "name": _string,
    "function": _string,
    "verdict": _expect(lambda value: value in (PASS, FAIL, INCONCLUSIVE, SKIPPED), "a verdict"),
    "min_margin": _nullable(_json_number),
    "trials_run": _expect(lambda n: n >= 0, "a count of at least 0", _json_integer),
    "trials_skipped": _expect(lambda n: n >= 0, "a count of at least 0", _json_integer),
    "counterexample": lambda payload: payload,
    "detail": _string,
}
_WITNESS = {"kind": _string, "margin": _json_number}
_REPORT = {
    "tool_version": _string,
    "function": lambda value: _fields(_DESCRIPTOR, value),
    # TestConfig checks the values, as it checks those of a run
    "config": lambda value: TestConfig(**_fields(_CONFIG, value)).as_dict(),
    "outcomes": _list(_outcome, least=1),
    "wall_time_ms": _json_number,
    # free-form, but present and finite (json reads 1e999 as inf), so it writes back as read
    "fit": _expect(lambda value: value is not None and json.dumps(value, allow_nan=False), "a fit"),
}


def _refuse(value, path: tuple = ()) -> None:
    """Refuse the first NaN, Infinity or -Infinity of a JSON value, parsed as a tuple, at its path."""
    if type(value) is tuple:
        raise _Malformed(path, f"expected a number, got {value[0]}")
    entries = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for step, entry in entries:
        _refuse(entry, (*path, step))


@dataclass(frozen=True)
class CertificationReport:
    function: dict
    config: dict
    outcomes: tuple[TestOutcome, ...]
    wall_time_ms: float
    fit: Optional[dict] = None
    tool_version: str = TOOL_VERSION

    def to_dict(self) -> dict:
        obj = {key: getattr(self, key) for key in _REPORT if key != "fit" or self.fit is not None}
        obj["function"] = {key: self.function[key] for key in _DESCRIPTOR}
        obj["config"] = {key: self.config[key] for key in _CONFIG}
        obj["outcomes"] = [{key: getattr(o, key) for key in _OUTCOME} for o in self.outcomes]
        return obj

    def to_json(self, indent: Optional[int] = None) -> str:
        """The report as JSON text: compact by default, which json writes with its C encoder."""
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    @staticmethod
    def from_dict(obj: dict) -> "CertificationReport":
        """The report a JSON object holds; ValueError, naming its path, for a value no report holds."""
        return CertificationReport(**_fields(_REPORT, obj))

    @staticmethod
    def from_json(text: str) -> "CertificationReport":
        # no JSON text holds a tuple: one marks each constant when the text is parsed again
        try:
            obj = json.loads(text, parse_constant=lambda name: _refuse((name,)))
        except _Malformed:
            _refuse(json.loads(text, parse_constant=lambda name: (name,)))
            raise
        return CertificationReport.from_dict(obj)


def write_sweep_csv(rows: list[tuple], stream) -> None:
    """Emit per-trial margins: one row per evaluated trial.

    Columns: test, dim, trial, margin, scale.  Floats are written with repr
    precision so the CSV reproduces the report margins exactly.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["test", "dim", "trial", "margin", "scale"])
    for test, dim, trial, margin, scale in rows:
        writer.writerow([test, int(dim), int(trial), repr(float(margin)), repr(float(scale))])
