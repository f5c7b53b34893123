"""End-to-end acceptance battery.

Each test covers one acceptance criterion and reports a single
``ACCEPTANCE n (...): PASS|FAIL`` line (printed in the terminal summary).
The shared battery fixture runs every built-in candidate function through
the full suite once at a fixed seed; criteria 4, 5, 6 and 8 read it.
"""

import json

import numpy as np
import pytest

from entrocert.certify import (
    TestConfig,
    reverify_counterexample,
    run_suite,
    test_condition13,
)
from entrocert.frechet import frechet_diff, frechet_inverse, second_diff_G
from entrocert.expr import lookup, registry
from entrocert.hermitian import (
    apply_function,
    entropy,
    hermitize,
    random_hermitian,
    random_pd,
    trace_of_function,
)
from entrocert.quantum import (
    harmonic_mean,
    harmonic_mean_block_margin,
    kron,
    midpoint_channel,
    random_channel,
    stinespring_from_kraus,
)
from entrocert.report import CertificationReport

BATTERY_CFG = TestConfig(seed=42, dims=(2, 3), samples=40)

PROPERTY_SUITES = (
    "principle1",
    "entropic",
    "subentropic:k=2",
    "subentropic:k=3",
    "subentropic:k=4",
    "condition13",
    "equivalence",
    "matrix-entropy",
    "gain",
    "gap-superadditive",
    "gap-concavity",
)

# Ground-truth hierarchy: which suites each candidate is expected to fail.
# Searches may honestly downgrade an expected FAIL to INCONCLUSIVE; any
# other deviation fails acceptance.
_POWER_FAILS = frozenset(
    {
        "condition13",
        "subentropic:k=2",
        "subentropic:k=3",
        "subentropic:k=4",
        "entropic",
        "gain",
        "gap-superadditive",
    }
)
EXPECTED_FAILS = {
    "tlogt": frozenset(),
    "affine": frozenset(),
    "neglog": frozenset({"matrix-entropy", "entropic", "gain", "gap-concavity"}),
    "negsqrt": frozenset({"matrix-entropy", "entropic", "gain", "gap-concavity"}),
    "square": _POWER_FAILS,
    "power:1.25": _POWER_FAILS,
    "power:1.5": _POWER_FAILS,
    "power:1.75": _POWER_FAILS,
    "exp": _POWER_FAILS | frozenset({"matrix-entropy", "gap-concavity"}),
}
# affine has f'' = 0: no gap function, no invertible differential
AFFINE_DEGENERATE = frozenset(
    {"condition13", "equivalence", "gap-superadditive", "gap-concavity"}
)


def _norm(x) -> float:
    return float(np.linalg.norm(x))


def _finish(record, number: int, label: str, problems: list) -> None:
    status = "PASS" if not problems else "FAIL"
    line = f"ACCEPTANCE {number} ({label}): {status}"
    if problems:
        line += " -- " + "; ".join(str(p) for p in problems[:4])
        if len(problems) > 4:
            line += f"; ... {len(problems)} total"
    record(line)
    assert not problems, line


@pytest.fixture(scope="module")
def battery():
    out = {}
    for f in registry():
        outcomes, fit = run_suite(f, "all", BATTERY_CFG)
        out[f.name] = ({o.name: o for o in outcomes}, fit)
    return out


def test_acceptance_1_frechet_oracle(acceptance_record):
    problems = []
    names = ("tlogt", "neglog", "power:1.25", "power:1.5", "square")
    step = 1e-5
    for fi, name in enumerate(names):
        f = lookup(name)
        for dim in (2, 3, 4):
            for trial in range(50):
                rng = np.random.default_rng([42, fi, dim, trial])
                rho = random_pd(dim, (0.25, 4.0), rng)
                h = random_hermitian(dim, rng)
                h = h / max(_norm(h), 1e-12)
                fd = (
                    apply_function(f, hermitize(rho + step * h))
                    - apply_function(f, hermitize(rho - step * h))
                ) / (2 * step)
                an = frechet_diff(f, rho, h)
                rel = _norm(fd - an) / max(1.0, _norm(an))
                if rel > 1e-6:
                    problems.append(f"{name} dim {dim} trial {trial}: rel {rel:.2e}")

    def g_shift(f, rhos, hs, s):
        shifted = [hermitize(r + s * h) for r, h in zip(rhos, hs)]
        total = hermitize(sum(shifted))
        return sum(trace_of_function(f, m) for m in shifted) - trace_of_function(
            f, total
        )

    # fourth-order stencil: G values are O(100), so the plain second
    # difference at small eps is dominated by cancellation noise
    eps = 1e-3
    for fi, name in enumerate(names):
        f = lookup(name)
        for k in (2, 3):
            for trial in range(12):
                rng = np.random.default_rng([43, fi, k, trial])
                rhos = [random_pd(3, (0.3, 3.0), rng) for _ in range(k)]
                hs = [random_hermitian(3, rng) for _ in range(k)]
                hs = [h / max(_norm(h), 1e-12) for h in hs]
                fd = (
                    -g_shift(f, rhos, hs, 2 * eps)
                    + 16 * g_shift(f, rhos, hs, eps)
                    - 30 * g_shift(f, rhos, hs, 0.0)
                    + 16 * g_shift(f, rhos, hs, -eps)
                    - g_shift(f, rhos, hs, -2 * eps)
                ) / (12 * eps**2)
                an = second_diff_G(f, rhos, hs)
                rel = abs(fd - an) / max(1.0, abs(an))
                if rel > 1e-5:
                    problems.append(f"{name} hessian k={k} trial {trial}: rel {rel:.2e}")
    _finish(acceptance_record, 1, "differentials match finite differences", problems)


def test_acceptance_2_closed_forms(acceptance_record):
    problems = []
    inv_of = lookup("neglog").derivative()
    for dim in (2, 3, 4):
        for trial in range(20):
            rng = np.random.default_rng([44, dim, trial])
            rho = random_pd(dim, (0.1, 10.0), rng)
            h = random_hermitian(dim, rng)
            got = frechet_inverse(inv_of, rho).apply(h)
            want = hermitize(rho @ h @ rho)
            rel = _norm(got - want) / max(1.0, _norm(want))
            if rel > 1e-11:
                problems.append(f"rho*h*rho dim {dim} trial {trial}: rel {rel:.2e}")

    for n in (2, 3):
        ch = midpoint_channel(n)
        kraus_sum = sum(k.conj().T @ k for k in ch.kraus)
        if _norm(kraus_sum - np.eye(2 * n)) > 1e-11:
            problems.append(f"midpoint({n}) not trace preserving")
        if _norm(ch.apply(np.eye(2 * n, dtype=complex)) - np.eye(2 * n)) > 1e-11:
            problems.append(f"midpoint({n}) not unital")
        for trial in range(10):
            rng = np.random.default_rng([45, n, trial])
            x = random_hermitian(2 * n, rng)
            rho, sig = x[:n, :n], x[n:, n:]
            a, b = x[:n, n:], x[n:, :n]
            want = np.zeros((2 * n, 2 * n), dtype=complex)
            want[:n, :n] = (rho + sig - a - b) / 2.0
            want[n:, n:] = (rho + sig + a + b) / 2.0
            got = ch.apply(x)
            if _norm(got - want) > 1e-12 * max(1.0, _norm(want)):
                problems.append(f"midpoint({n}) block formula trial {trial}")
    _finish(acceptance_record, 2, "closed forms for inverse and midpoint channel", problems)


def test_acceptance_3_condition13_margins(acceptance_record):
    problems = []
    cfg = TestConfig(seed=42, dims=(2, 3, 4), samples=200)
    for name in ("tlogt", "neglog"):
        rows = []
        out = test_condition13(lookup(name), cfg, recorder=rows)
        if out.verdict != "PASS":
            problems.append(f"{name}: verdict {out.verdict}")
        if out.trials_run < 600:
            problems.append(f"{name}: only {out.trials_run} trials")
        for _, dim, idx, margin, scale in rows:
            min_eig = margin * max(1.0, scale)  # undo the margin normalization
            if min_eig < -1e-9 * scale:
                problems.append(
                    f"{name} dim {dim} trial {idx}: eigenvalue {min_eig:.3e}"
                )
    rows = []
    out = test_condition13(lookup("square"), cfg, recorder=rows)
    if out.verdict != "FAIL":
        problems.append(f"square: verdict {out.verdict}")
    for _, dim, idx, margin, _ in rows:
        if abs(margin + 0.5) > 1e-12:
            problems.append(f"square dim {dim} trial {idx}: margin {margin!r}")
    _finish(acceptance_record, 3, "superoperator inequality margins", problems)


def test_acceptance_4_equivalence_agreement(acceptance_record, battery):
    problems = []
    for fname, (outs, _) in battery.items():
        if fname == "affine":
            continue  # degenerate: the differential is not invertible
        o = outs["equivalence"]
        if o.verdict != "PASS":
            problems.append(f"{fname}: {o.verdict} ({o.detail})")
        if o.trials_run < 50:
            problems.append(f"{fname}: only {o.trials_run} instances")
    _finish(acceptance_record, 4, "inequality vs Hessian verdicts agree", problems)


def test_acceptance_5_hierarchy_matrix(acceptance_record, battery):
    problems = []

    def verdict(fname, suite):
        return battery[fname][0][suite].verdict

    # strict anchors: deterministic separations must be hard FAILs
    for fname, suite in [
        ("neglog", "gap-concavity"),
        ("power:1.5", "gap-superadditive"),
        ("square", "condition13"),
    ]:
        if verdict(fname, suite) != "FAIL":
            problems.append(f"{fname}/{suite}: expected FAIL, got {verdict(fname, suite)}")
    if verdict("power:1.5", "matrix-entropy") != "PASS":
        problems.append("power:1.5/matrix-entropy: expected PASS")
    for suite in ("subentropic:k=2", "subentropic:k=3", "subentropic:k=4",
                  "condition13", "gap-superadditive"):
        if verdict("neglog", suite) != "PASS":
            problems.append(f"neglog/{suite}: expected PASS")

    # full matrix: PASS everywhere except expected fails (which may come back
    # INCONCLUSIVE when the search is unlucky) and affine's degenerate suites
    for fname in EXPECTED_FAILS:
        for suite in PROPERTY_SUITES:
            v = verdict(fname, suite)
            if fname == "affine" and suite in AFFINE_DEGENERATE:
                ok = v == "SKIPPED"
            elif suite in EXPECTED_FAILS[fname]:
                ok = v in ("FAIL", "INCONCLUSIVE")
            else:
                ok = v == "PASS"
            if not ok:
                problems.append(f"{fname}/{suite}: unexpected {v}")
    _finish(acceptance_record, 5, "hierarchy separations reproduced", problems)


def test_acceptance_6_uniqueness_pipeline(acceptance_record, battery):
    problems = []
    outs, fit = battery["tlogt"]
    if outs["uniqueness"].verdict != "PASS":
        problems.append(f"tlogt uniqueness: {outs['uniqueness'].verdict}")
    if fit is None:
        problems.append("tlogt produced no fit")
    else:
        if abs(fit["slope"] - 1.0) > 1e-9:
            problems.append(f"slope {fit['slope']!r}")
        if fit["relative_residual"] > 1e-12:
            problems.append(f"residual {fit['relative_residual']:.3e}")
        tri = fit["normalization"]
        if (
            abs(tri["f(1)"]) > 1e-12
            or abs(tri["df(1)"] - 1.0) > 1e-12
            or abs(tri["d2f(1)"] - 1.0) > 1e-12
        ):
            problems.append(f"normalization triple {tri}")
    for fname, (fouts, _) in battery.items():
        if fname != "tlogt" and fouts["uniqueness"].verdict == "PASS":
            problems.append(f"{fname} also passes the pipeline")
    _finish(acceptance_record, 6, "t*log(t) is the unique survivor", problems)


def test_acceptance_7_structural_identities(acceptance_record):
    problems = []
    tlogt = lookup("tlogt")

    dims = [(2, 2), (2, 3), (3, 3), (3, 4)]
    for trial in range(50):
        d1, d2 = dims[trial % len(dims)]
        rng = np.random.default_rng([46, trial])
        rho = random_pd(d1, (0.1, 1.0), rng)
        rho /= np.trace(rho).real
        sig = random_pd(d2, (0.1, 1.0), rng)
        sig /= np.trace(sig).real
        gap = entropy(tlogt, kron(rho, sig)) - entropy(tlogt, rho) - entropy(tlogt, sig)
        if abs(gap) > 1e-10:
            problems.append(f"additivity trial {trial}: {gap:.2e}")

    for n in range(2, 9):
        s = entropy(tlogt, np.eye(n, dtype=complex) / n)
        if abs(s - np.log(n)) > 1e-12:
            problems.append(f"S(I/{n}) off by {s - np.log(n):.2e}")

    for trial in range(15):
        rng = np.random.default_rng([47, trial])
        in_dim = 2 + trial % 3
        out_dim = 2 + (trial // 3) % 3
        ch = random_channel(in_dim, out_dim, 2, rng)
        w = stinespring_from_kraus(ch)
        rho = random_pd(in_dim, (0.1, 1.0), rng)
        rho /= np.trace(rho).real
        if _norm(w.reduce(rho) - ch.apply(rho)) > 1e-11:
            problems.append(f"stinespring/kraus trial {trial}")
        dilated = w.dilate(rho)
        for fname in ("tlogt", "square", "power:1.25", "power:1.5", "negsqrt"):
            f = lookup(fname)
            drift = trace_of_function(f, dilated) - trace_of_function(f, rho)
            if abs(drift) > 1e-10:
                problems.append(f"conjugation {fname} trial {trial}: {drift:.2e}")

    for trial in range(100):
        rng = np.random.default_rng([48, trial])
        dim = 2 + trial % 3
        a = random_pd(dim, (0.1, 10.0), rng)
        b = random_pd(dim, (0.1, 10.0), rng)
        m = harmonic_mean_block_margin(a, b, harmonic_mean(a, b))
        if m.min_eigenvalue < -1e-10 * m.scale:
            problems.append(f"harmonic block trial {trial}: {m.min_eigenvalue:.2e}")
    _finish(acceptance_record, 7, "entropy and channel identities", problems)


def test_acceptance_8_determinism_and_reverification(acceptance_record, battery):
    problems = []
    cfg = TestConfig(seed=7, samples=15)
    f = lookup("power:1.5")
    reports = []
    for _ in range(2):
        outcomes, fit = run_suite(f, "all", cfg)
        reports.append(
            CertificationReport(
                function=f.describe(),
                config=cfg.as_dict(),
                outcomes=tuple(outcomes),
                wall_time_ms=0.0,
                fit=fit,
            ).to_dict()
        )
    if reports[0] != reports[1]:
        problems.append("repeated runs differ beyond wall_time_ms")

    n_payloads = 0
    for fname, (outs, _) in battery.items():
        f = lookup(fname)
        for o in outs.values():
            if o.counterexample is None:
                continue
            payload = json.loads(json.dumps(o.counterexample))
            margin = reverify_counterexample(f, payload)
            n_payloads += 1
            if not margin < -BATTERY_CFG.tol / 2:
                problems.append(
                    f"{fname}/{o.name} payload re-verifies to {margin:.3e}"
                )
    if n_payloads < 10:
        problems.append(f"only {n_payloads} counterexample payloads to check")
    _finish(acceptance_record, 8, "determinism and standalone counterexamples", problems)
