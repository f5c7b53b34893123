#!/usr/bin/env python3
"""entrocert benchmark: one workload per invocation, one client, closed loop.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload survivor --seed 42 --seconds 56 --trace 0
    python3 perfbench/run.py --workload battery --seed 42 --seconds 56 --trace 1
    python3 perfbench/run.py --workload wide --seed 7 --record

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the microbenchmarks, then alternates traced and untraced workload runs
and reports the per-layer metrics and the tracing overhead.  ``--record``
runs the workload once and stores its outcomes as the golden of that seed.
Every run's outcomes are checked against the golden; the last line of
standard output is one JSON object with the verdict of that check and the
metrics declared in BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Matrices are at most 64x64: BLAS threads only add contention, and the
# library's ENTROPIC_THREADS pool makes the same run about 1.85x slower.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
UNSET_ENV = ("ENTROPIC_THREADS",)

# A fresh interpreter imports entrocert and completes one tiny call.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import entrocert as ec
ec.run_suite(ec.lookup("tlogt"), "condition13", ec.TestConfig(seed=0, samples=1, dims=(2,)))
"""


def pin_environment() -> None:
    """Fix thread counts before NumPy loads and pin to one CPU; children inherit both."""
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)
    # the host's speed changes per CPU; hostclock's probes must see the CPU that works
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_library() -> None:
    init = SRC / "entrocert" / "__init__.py"
    if not init.is_file():
        sys.exit(f"run.py: {init} not found; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import entrocert

    if Path(entrocert.__file__).resolve() != init.resolve():
        sys.exit(f"run.py: imported entrocert from {entrocert.__file__}, not from {SRC}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# provenance

def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    digest = hashlib.sha256()
    for p in sorted((SRC / "entrocert").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "env": {k: os.environ.get(k) for k in (*PINNED_ENV, *UNSET_ENV)},
    }


# --------------------------------------------------------------------------
# measurement

def set_up() -> None:
    """A fresh interpreter imports entrocert and makes one call."""
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, stdout=subprocess.DEVNULL)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


class Checker:
    """Counts outcomes checked and outcomes that failed, keeping the messages."""

    def __init__(self, golden_entries: dict):
        self.expected = golden_entries
        self.attempted = 0
        self.messages: list[str] = []
        self.failed = 0

    def add(self, label: str, problems: dict[str, list[str]]) -> None:
        self.attempted += len(problems)
        for key, msgs in problems.items():
            if msgs:
                self.failed += 1
                self.messages.append(f"{label} {key}: {'; '.join(msgs)}")

    def check_run(self, label: str, run) -> None:
        self.add(label, golden.check(self.expected, run.outcomes))

    def check_identical(self, label: str, traced, untraced) -> None:
        """Tracing must not change a single outcome, margins included bit for bit."""
        plain = {o.key: o.golden_entry() for o in untraced.outcomes}
        seen = {o.key: o.golden_entry() for o in traced.outcomes}
        self.add(label, {
            key: [] if plain.get(key) == seen.get(key) else ["traced run differs from the untraced run"]
            for key in {**plain, **seen}
        })


def closed_loop(step, seconds: float) -> list:
    """Call ``step`` back to back for about ``seconds``, at least once.

    Another call starts only if, at the median duration so far, it ends
    within the time box, so a run does not overshoot by most of a call.
    """
    results, durations = [], []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return results


def end_to_end(workload: str, seed: int, seconds: float, checker: Checker) -> tuple[dict, dict]:
    import entrocert as ec
    from hostclock import timed
    from workloads import run_workload

    # warm-up: every suite once at the smallest budget, so lazy set-up ends before timing
    ec.run_suite(ec.lookup("tlogt"), "all", ec.TestConfig(seed=0, samples=1))
    # One set-up after each workload run: the set-up samples then span the
    # same stretch of time as the runs, not a few seconds before them.
    steps = closed_loop(lambda: (timed(run_workload, workload, seed), timed(set_up, sample=False)), seconds)
    runs, walls, norm_walls = zip(*(r for r, _ in steps))
    _, setups, norm_setups = zip(*(s for _, s in steps))
    for i, run in enumerate(runs):
        checker.check_run(f"run{i}", run)
    norm_wall = statistics.median(norm_walls)
    metrics = {
        "setup_s": statistics.median(norm_setups),
        "norm_wall_s": norm_wall,
        "norm_trials_per_s": statistics.median(r.trials for r in runs) / norm_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "trials_per_run": runs[0].trials,
        "runs": len(runs),
    }
    for name, samples in (("norm_wall_s", norm_walls), ("wall_s", walls),
                          ("setup_s", norm_setups), ("raw_setup_s", setups)):
        tail = tail_percentile(samples)
        extra[name] = {
            "median": statistics.median(samples),
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
            "samples": list(samples),
        }
    return metrics, extra


def layer_metrics(spans: dict, counters: dict, run) -> dict:
    """Per-layer figures of one traced run."""
    from tracer import LAYER_SPANS, SUITE_OUTCOMES, suite_span

    m = {}
    for name in LAYER_SPANS:
        calls, _, own = spans.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_ms"] = own * 1e3
    for name in [*map(suite_span, SUITE_OUTCOMES), "report.to_json", "report.from_json"]:
        m[f"{name}.ms"] = spans.get(name, (0, 0.0, 0.0))[1] * 1e3
    m["frechet.superop_bytes"] = counters["frechet.superop_bytes"]
    m["certify.skipped_frac"] = run.skipped_frac
    m["certify.escalated_fails"] = sum(o.escalated for o in run.outcomes)
    m["trace.spans"] = sum(c for c, _, _ in spans.values())
    return m


def per_layer(workload: str, seed: int, seconds: float, checker: Checker) -> tuple[dict, dict]:
    import ubench
    from tracer import Tracer
    from workloads import run_workload

    metrics = ubench.run()
    tracer = Tracer()

    def traced_pair():
        """One traced then one untraced run; returns (layer metrics, walls)."""
        tracer.trace_id += 1
        tracer.counters.clear()
        tracer.install()
        try:
            traced = tracer.span("bench.run", run_workload, workload, seed)
        finally:
            tracer.uninstall()
        untraced = run_workload(workload, seed)
        label = f"pair{tracer.trace_id}"
        checker.check_run(f"{label}/traced", traced)
        checker.check_run(f"{label}/untraced", untraced)
        checker.check_identical(label, traced, untraced)
        m = layer_metrics(tracer.summary(tracer.trace_id), tracer.counters, traced)
        return m, traced.wall_s, untraced.wall_s

    pairs = closed_loop(traced_pair, seconds)
    per_run, traced_walls, untraced_walls = zip(*pairs)
    metrics |= {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
    tracer.save(spans_path)
    extra = {
        "traced_wall_s_samples": list(traced_walls),
        "untraced_wall_s_samples": list(untraced_walls),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, extra


# --------------------------------------------------------------------------

def main() -> int:
    pin_environment()
    import_library()
    from workloads import WORKLOADS, run_workload

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measure for about this long; at least one workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="run once and store the outcomes as this seed's golden")
    args = ap.parse_args()

    spec = load_spec()
    prov = provenance()

    if args.record:
        run = run_workload(args.workload, args.seed)
        bad = [f"{o.key}: {'; '.join(o.problems)}" for o in run.outcomes if o.problems]
        if bad:
            sys.exit("run.py: refusing to record a golden with failed outcomes:\n" + "\n".join(bad))
        golden.record(args.workload, args.seed, {o.key: o.golden_entry() for o in run.outcomes}, prov)
        print(f"recorded {len(run.outcomes)} outcomes of {args.workload} at seed {args.seed} "
              f"into {golden.path(args.workload).relative_to(ROOT)}")
        return 0

    seeds = golden.load(args.workload)
    seed = golden.input_seed(args.seed, seeds)
    checker = Checker(seeds.get(str(seed), {}))
    measure = per_layer if args.trace else end_to_end
    metrics, extra = measure(args.workload, seed, args.seconds, checker)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        sys.exit(
            "run.py: measured metrics do not match BENCHMARK.json: "
            f"undeclared {sorted(set(metrics) - set(units))}, "
            f"not measured {sorted(set(units) - set(metrics))}"
        )

    print(f"# workload {args.workload}, seed {args.seed} (inputs from seed {seed}), "
          f"trace {args.trace}, {args.seconds:g} s")
    print(f"# env {json.dumps(prov)}")
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        for name in ("norm_wall_s", "wall_s", "setup_s", "raw_setup_s"):
            tail = extra[name]["tail"]
            tail_text = ("n/a (needs 11 or more runs)" if tail is None
                         else f"p{tail['percentile']:.0f} {tail['value']:.6g} s")
            print(f"{name + ' median':44s} {extra[name]['median']:14.6g} s; "
                  f"{extra['runs']} runs; tail {tail_text}")
    print(f"{'failed_frac':44s} {checker.failed / checker.attempted:14.6g} "
          f"({checker.failed} of {checker.attempted} outcomes)")
    for msg in checker.messages[:20]:
        print(f"# FAILED {msg}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "input_seed": seed,
        "seconds": args.seconds, "trace": args.trace, "provenance": prov,
        "metrics": metrics, **extra,
        "attempted": checker.attempted, "failed": checker.failed, "problems": checker.messages,
    }, indent=1) + "\n")

    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
