#!/usr/bin/env python3
"""Walk one candidate function through the staged uniqueness pipeline.

Shows each stage verdict, then the least-squares fit of the gap function
g(t) = 1/f''(t) against b*t.  For t*log(t) the fit is exact (b = 1); any
other convex candidate is eliminated at some stage or by the fit.

    python3 scripts/uniqueness_demo.py --seed 42
    python3 scripts/uniqueness_demo.py --seed 42 --expr "t^1.5" --zero-extension 0
"""

import argparse
import sys

import numpy as np

from entrocert.certify import TestConfig, uniqueness_pipeline
from entrocert.expr import lookup, parse
from entrocert.functions import gap_function


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--function", default="tlogt")
    ap.add_argument("--expr", default=None, help="overrides --function")
    ap.add_argument("--zero-extension", type=float, default=None)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--samples", type=int, default=80)
    args = ap.parse_args()

    if args.expr is not None:
        f = parse(args.expr).as_function(zero_extension=args.zero_extension)
    else:
        f = lookup(args.function)

    cfg = TestConfig(seed=args.seed, samples=args.samples)
    print(f"candidate: {f.name}")
    result = uniqueness_pipeline(f, cfg)
    for stage in result.stages:
        margin = "n/a" if stage.min_margin is None else f"{stage.min_margin:+.3e}"
        print(f"  {stage.name:<20} {stage.verdict:<12} min margin {margin}")
    print(f"overall: {result.outcome.verdict} -- {result.outcome.detail}")

    if result.fit is not None:
        fit = result.fit
        tri = fit["normalization"]
        print(f"\nfit of g(t) = 1/f''(t) on t in [1e-2, 1e2]:")
        print(f"  slope b            = {fit['slope']:.12g}")
        print(f"  relative residual  = {fit['relative_residual']:.3e}")
        print(f"  b - 1/f''(1)       = {fit['slope_minus_inverse_curvature']:+.3e}")
        print(f"  (f(1), f'(1), f''(1)) = ({tri['f(1)']:g}, {tri['df(1)']:g}, {tri['d2f(1)']:g})")
    else:
        # show where the gap function betrays the candidate, if it exists
        try:
            g = gap_function(f)
        except Exception:
            return 1 if result.outcome.verdict == "FAIL" else 2
        ts = np.logspace(-2, 1, 7)
        gs = ", ".join(f"g({t:g})={g(float(t)):.4g}" for t in ts)
        print(f"\ngap function samples: {gs}")
    return {"PASS": 0, "FAIL": 1}.get(result.outcome.verdict, 2)


if __name__ == "__main__":
    sys.exit(main())
