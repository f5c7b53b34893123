"""The benchmark's workloads and the checks on their outcomes.

A workload is a list of jobs built from a seed: a candidate function, the
suite tokens to run on it and a TestConfig.  entrocert receives only those.
Every job is consumed the way a user consumes a run: the outcomes go into a
CertificationReport, the report goes through its JSON round trip, and each
FAIL witness is re-verified from the parsed report alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import entrocert as ec

# The known registry / --expr split (neglog vs -log(t)) stays visible in the
# battery golden through these twins.
_EXPR_TWINS = (("t*log(t)", 0.0), ("-log(t)", None))

BATTERY_SAMPLES = 10
WIDE_SAMPLES = 100
WIDE_DIMS = (6, 8)
WIDE_SUITES = ("condition13", "equivalence", "matrix-entropy")


@dataclass(frozen=True)
class Job:
    function: ec.ScalarFunction
    suites: tuple[str, ...]
    config: ec.TestConfig


def survivor(seed: int) -> list[Job]:
    """tlogt on every suite at the ROADMAP config: tiny matrices, all PASS."""
    return [Job(ec.lookup("tlogt"), ("all",), ec.TestConfig(seed=seed, samples=200))]


def battery(seed: int) -> list[Job]:
    """Every registry function plus two --expr twins, every suite, small budget."""
    cfg = ec.TestConfig(seed=seed, samples=BATTERY_SAMPLES)
    fns = [*ec.registry()]
    fns += [ec.parse(text).as_function(zero_extension=z) for text, z in _EXPR_TWINS]
    return [Job(f, ("all",), cfg) for f in fns]


def wide(seed: int) -> list[Job]:
    """tlogt on the superoperator suites at dims 6 and 8 (36x36, 64x64)."""
    cfg = ec.TestConfig(seed=seed, samples=WIDE_SAMPLES, dims=WIDE_DIMS)
    return [Job(ec.lookup("tlogt"), WIDE_SUITES, cfg)]


WORKLOADS = {"survivor": survivor, "battery": battery, "wide": wide}


@dataclass(frozen=True)
class Outcome:
    """One checked outcome of a workload run."""

    key: str  # "<function>|<outcome name>"
    verdict: str
    trials_run: int
    trials_skipped: int
    min_margin: float | None
    escalated: bool
    problems: tuple[str, ...]  # found while consuming the run, before any golden

    def golden_entry(self) -> dict:
        return {
            "verdict": self.verdict,
            "trials_run": self.trials_run,
            "trials_skipped": self.trials_skipped,
            "min_margin": self.min_margin,
        }


@dataclass(frozen=True)
class RunResult:
    wall_s: float
    outcomes: tuple[Outcome, ...]

    @property
    def trials(self) -> int:
        """Trials run, counted once: uniqueness re-counts its stages' trials."""
        return sum(o.trials_run for o in self.outcomes if not o.key.endswith("|uniqueness"))

    @property
    def skipped_frac(self) -> float:
        counted = [o for o in self.outcomes if not o.key.endswith("|uniqueness")]
        skipped = sum(o.trials_skipped for o in counted)
        total = skipped + sum(o.trials_run for o in counted)
        return skipped / total if total else 0.0


def _escalated(o: ec.TestOutcome) -> bool:
    # _drive notes escalation in the detail line; it is the only outside signal
    return o.verdict == ec.FAIL and ("escalation" in o.detail or "constructed from" in o.detail)


def _consume(job: Job, outcomes: list, fit, wall_ms: float) -> list[Outcome]:
    """Report round trip, then re-verification of every FAIL from the parsed report."""
    rep = ec.CertificationReport(
        function=job.function.describe(),
        config=job.config.as_dict(),
        outcomes=tuple(outcomes),
        wall_time_ms=wall_ms,
        fit=fit,
    )
    parsed = ec.CertificationReport.from_json(rep.to_json())
    checked = []
    for before, after in zip(outcomes, parsed.outcomes, strict=True):
        problems = []
        if after != before:
            problems.append("report JSON round trip changed the outcome")
        if after.verdict == ec.FAIL:
            try:
                margin = ec.reverify_counterexample(job.function, after.counterexample)
            except Exception as exc:  # a witness that cannot be re-verified fails the outcome
                problems.append(f"FAIL witness does not re-verify: {exc!r}")
            else:
                if not margin < -job.config.tol / 2.0:
                    problems.append(f"FAIL witness re-verifies to {margin!r}, not below -tol/2")
        checked.append(Outcome(
            f"{job.function.name}|{after.name}", after.verdict, after.trials_run,
            after.trials_skipped, after.min_margin, _escalated(after), tuple(problems),
        ))
    return checked


def run_workload(name: str, seed: int) -> RunResult:
    """One closed-loop request: every job of the workload, timed end to end."""
    jobs = WORKLOADS[name](seed)
    checked = []
    t0 = time.perf_counter()
    for job in jobs:
        t_job = time.perf_counter()
        outcomes, fit = [], None
        for suite in job.suites:
            got, got_fit = ec.run_suite(job.function, suite, job.config)
            outcomes += got
            fit = got_fit if got_fit is not None else fit
        checked += _consume(job, outcomes, fit, (time.perf_counter() - t_job) * 1e3)
    return RunResult(time.perf_counter() - t0, tuple(checked))
