#!/usr/bin/env python3
"""Print the verdict matrix of every built-in candidate against every suite.

Typical use:

    python3 scripts/run_hierarchy.py --seed 42 --samples 60
    python3 scripts/run_hierarchy.py --seed 42 --functions tlogt neglog square
"""

import argparse
import sys
import time

from entrocert.certify import TestConfig, run_suite
from entrocert.expr import lookup, registry

MARK = {"PASS": "+", "FAIL": "-", "INCONCLUSIVE": "?", "SKIPPED": "."}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--samples", type=int, default=60)
    ap.add_argument("--functions", nargs="*", default=None,
                    help="registry names (default: all)")
    ap.add_argument("--wide", action="store_true",
                    help="print margins instead of one-character verdicts")
    args = ap.parse_args()

    cfg = TestConfig(seed=args.seed, samples=args.samples)
    fns = [lookup(n) for n in args.functions] if args.functions else list(registry())

    results = {}
    suite_names = None
    for f in fns:
        t0 = time.perf_counter()
        outcomes, fit = run_suite(f, "all", cfg)
        dt = time.perf_counter() - t0
        results[f.name] = {o.name: o for o in outcomes}
        if suite_names is None:
            suite_names = [o.name for o in outcomes]
        b = "" if fit is None else f"  g(t) ~ {fit['slope']:.6g}*t"
        print(f"# {f.name}: {dt:.2f}s{b}", file=sys.stderr)

    width = max(len(s) for s in suite_names) + 2
    header = " " * width + "".join(f"{f.name:>12}" for f in fns)
    print(header)
    for s in suite_names:
        row = f"{s:<{width}}"
        for f in fns:
            o = results[f.name][s]
            if args.wide and o.min_margin is not None:
                row += f"{o.min_margin:>12.1e}"
            else:
                row += f"{MARK[o.verdict]:>12}"
        print(row)
    print("\n+ PASS   - FAIL   ? inconclusive   . skipped (degenerate)")

    bad = [f.name for f in fns if results[f.name]["uniqueness"].verdict == "PASS"]
    print(f"pipeline survivors: {', '.join(bad) if bad else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
