"""Command-line front end.

Exit codes: 0 all selected suites PASS; 1 at least one FAIL; 2 deviations
that are only INCONCLUSIVE or SKIPPED; 3 usage, domain or numerical errors.
``reverify`` exits 0 when every FAIL of a report re-verifies, 1 when one does
not, and 3 on a malformed report.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .certify import FAIL, SUITE_TOKENS, TestConfig, reverify_counterexample, run_suite, worst_exit_code
from .expr import ParseError, lookup, parse, registry
from .functions import ScalarFunction
from .hermitian import EighError
from .jets import DomainError
from .report import CertificationReport, write_sweep_csv


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags, but 2 already means
    # "inconclusive deviations" here; usage errors are 3.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_selection_flags(sp: argparse.ArgumentParser) -> None:
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--function", help="registry function name (see `entrocert list`)")
    grp.add_argument("--expr", help="scalar expression in t, e.g. 't*log(t)'")
    sp.add_argument(
        "--zero-extension",
        type=float,
        default=None,
        metavar="VALUE",
        help="value assigned at t=0 for --expr functions (omit: undefined at 0)",
    )
    sp.add_argument("--suite", default="all", choices=SUITE_TOKENS)
    sp.add_argument(
        "--dim",
        type=int,
        action="append",
        metavar="N",
        help="matrix dimension, repeatable (default: 2 and 3)",
    )
    sp.add_argument(
        "--bipartite",
        action="append",
        metavar="D1xD2",
        help="bipartite split for partial-trace tests, repeatable "
        "(default: 2x2, 2x3, 3x2)",
    )
    sp.add_argument("--samples", type=int, default=200, help="trials per dimension")
    sp.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
    sp.add_argument("--tol", type=float, default=1e-8, help="violation threshold on normalized margins")
    sp.add_argument("--eig-min", type=float, default=0.1)
    sp.add_argument("--eig-max", type=float, default=10.0)


def _build_parser() -> _ArgumentParser:
    p = _ArgumentParser(
        prog="entrocert",
        description="Certify or refute entropy properties of convex trace functions.",
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    sp_cert = sub.add_parser("certify", help="run suites and emit a JSON report")
    _add_selection_flags(sp_cert)
    sp_cert.add_argument("--out", metavar="PATH", help="report file (default: stdout)")
    sp_cert.add_argument(
        "--sweep-csv", metavar="PATH", help="also dump per-trial margins as CSV"
    )

    sp_sweep = sub.add_parser("sweep", help="emit per-trial margins as CSV")
    _add_selection_flags(sp_sweep)
    sp_sweep.add_argument("--out", metavar="PATH", help="CSV file (default: stdout)")

    sub.add_parser("list", help="list built-in candidate functions")

    sp_rev = sub.add_parser("reverify", help="re-verify every FAIL witness of a JSON report")
    sp_rev.add_argument("report", metavar="REPORT", help="report written by `certify`")
    return p


def _resolve_function(args) -> ScalarFunction:
    if args.function is not None:
        if args.zero_extension is not None:
            raise ValueError("--zero-extension only applies to --expr functions")
        return lookup(args.function)
    return parse(args.expr).as_function(zero_extension=args.zero_extension)


def _parse_bipartite(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"--bipartite expects D1xD2 (e.g. 2x3), got {text!r}")
    try:
        d1, d2 = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--bipartite expects integers D1xD2, got {text!r}") from None
    return d1, d2


def _build_config(args) -> TestConfig:
    kwargs = {
        "seed": args.seed,
        "samples": args.samples,
        "tol": args.tol,
        "eig_range": (args.eig_min, args.eig_max),
    }
    if args.dim:
        kwargs["dims"] = tuple(args.dim)
    if args.bipartite:
        kwargs["bipartite"] = tuple(_parse_bipartite(b) for b in args.bipartite)
    return TestConfig(**kwargs)


def _print_summary(outcomes) -> None:
    for o in outcomes:
        margin = "n/a" if o.min_margin is None else f"{o.min_margin:.3e}"
        line = (
            f"[{o.verdict}] {o.name}: min margin {margin} "
            f"({o.trials_run} trials, {o.trials_skipped} skipped)"
        )
        if o.detail:
            line += f" -- {o.detail}"
        print(line, file=sys.stderr)


def cmd_certify(args) -> int:
    """Run the suites and write the JSON report; ``sweep`` writes only the per-trial CSV."""
    f = _resolve_function(args)
    cfg = _build_config(args)
    sweep = args.command == "sweep"
    csv_path = args.out if sweep else args.sweep_csv
    recorder = [] if sweep or csv_path else None
    start = time.perf_counter()
    outcomes, fit = run_suite(f, args.suite, cfg, recorder)
    wall_ms = (time.perf_counter() - start) * 1000.0
    if not sweep:
        report = CertificationReport(
            function=f.describe(),
            config=cfg.as_dict(),
            outcomes=tuple(outcomes),
            wall_time_ms=wall_ms,
            fit=fit,
        )
        text = report.to_json(indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            write_sweep_csv(recorder, fh)
    elif sweep:
        write_sweep_csv(recorder, sys.stdout)
    _print_summary(outcomes)
    return worst_exit_code(outcomes)


def cmd_list(_args) -> int:
    for f in registry():
        ext = "undefined at 0" if f.zero_extension is None else f"f(0)={f.zero_extension:g}"
        print(f"{f.name:<12} {f.expression:<10} {ext}")
    return 0


def cmd_reverify(args) -> int:
    """Rebuild f from the report's expression alone and re-verify each FAIL."""
    try:
        with open(args.report, encoding="utf-8") as fh:
            report = CertificationReport.from_json(fh.read())
        described, bound = report.function, -float(report.config["tol"]) / 2.0
        if described["expression"] is None:
            raise ValueError(f"{args.report}: the report names no expression to rebuild f from")
        f = parse(described["expression"]).as_function(described["zero_extension"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{args.report}: malformed report ({exc!r})") from None
    fails = [o for o in report.outcomes if o.verdict == FAIL]
    for o in fails:
        if not isinstance(o.counterexample, dict):
            raise ValueError(
                f"{args.report}: malformed report (FAIL {o.name} has no counterexample "
                f"payload, only {o.counterexample!r})"
            )
    failed = False
    for o in fails:
        try:
            margin = reverify_counterexample(f, o.counterexample)
        except KeyError as exc:
            raise ValueError(
                f"{args.report}: malformed report (FAIL {o.name} payload lacks {exc})"
            ) from None
        ok = margin < bound
        failed |= not ok
        note = "" if ok else f" -- not below -tol/2 = {bound!r}"
        print(f"[{o.verdict}] {o.name}: payload margin {o.counterexample.get('margin')!r}, "
              f"re-verified {margin!r}{note}", file=sys.stderr)
    return 1 if failed else 0


def _attach_expressions(argv: list) -> list:
    """``--expr VALUE`` as ``--expr=VALUE`` when VALUE starts with one minus.

    argparse reads an argument such as ``-log(t)`` as an option and rejects
    the ``--expr`` before it; attached with ``=`` it is the flag's value.
    """
    out: list = []
    for arg in argv:
        if out and out[-1] == "--expr" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"--expr={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_expressions(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # --help exits 0, usage errors exit 3
        return int(exc.code or 0)
    try:
        if args.command in ("certify", "sweep"):
            return cmd_certify(args)
        if args.command == "reverify":
            return cmd_reverify(args)
        return cmd_list(args)
    except ParseError as exc:
        print(f"entrocert: expression error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"entrocert: domain error: {exc}", file=sys.stderr)
        return 3
    except EighError as exc:
        # inputs the checked linear algebra cannot handle (e.g. an overflowing norm)
        print(f"entrocert: numerical error: {exc}", file=sys.stderr)
        return 3
    except KeyError as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"entrocert: error: {msg}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"entrocert: error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
