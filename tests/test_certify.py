import itertools
import json

import numpy as np
import pytest

from entrocert.certify import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    SKIPPED,
    TestConfig,
    TestOutcome,
    _derived_hessian_witness,
    _stream_token,
    reverify_counterexample,
    run_suite,
    test_condition13,
    test_entropic,
    test_entropy_gain_convexity,
    test_equivalence_13_vs_hessian,
    test_gap_concavity,
    test_gap_superadditive,
    test_matrix_entropy,
    test_principle1_concavity,
    test_subentropic_order_k,
    uniqueness_pipeline,
    worst_exit_code,
)
from entrocert.expr import lookup, parse, registry
from entrocert.hermitian import matrix_from_json, matrix_to_json, random_pd
from entrocert.jets import DomainError
from entrocert.quantum import KrausChannel, channel_to_json

CFG = TestConfig(seed=99, samples=12)


def test_config_validation():
    with pytest.raises(ValueError):
        TestConfig(seed=1, samples=0)
    with pytest.raises(ValueError):
        TestConfig(seed=1, tol=0.0)
    # margins normalised to >= -1 could never fall below -tol for tol >= 1
    for tol in (float("inf"), float("nan"), 1.0, 2.0):
        with pytest.raises(ValueError):
            TestConfig(seed=1, tol=tol)
    assert TestConfig(seed=1, tol=0.5).tol == 0.5
    for eig_range in ((0.1, float("inf")), (float("inf"), float("inf")), (0.1, float("nan"))):
        with pytest.raises(ValueError):
            TestConfig(seed=1, eig_range=eig_range)
    with pytest.raises(ValueError):
        TestConfig(seed=1, eig_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        TestConfig(seed=1, eig_range=(5.0, 1.0))
    # exactly (lo, hi): a third entry is not dropped, nor does a lone one index past the end
    for eig_range in ((0.1, 10.0, 99.0), (0.1,)):
        with pytest.raises(ValueError, match="eig_range"):
            TestConfig(seed=1, eig_range=eig_range)
        with pytest.raises(ValueError, match="eig_range"):
            TestConfig(**{**TestConfig(seed=1).as_dict(), "eig_range": list(eig_range)})
    with pytest.raises(ValueError):
        TestConfig(seed=1, dims=())
    with pytest.raises(ValueError):
        TestConfig(seed=1, dims=(9,))
    with pytest.raises(ValueError):
        TestConfig(seed=1, bipartite=((2, 9),))
    # a repeat would re-run the same trial streams and count them twice
    with pytest.raises(ValueError, match="dims"):
        TestConfig(seed=1, dims=(2, 3, 2))
    with pytest.raises(ValueError, match="bipartite"):
        TestConfig(seed=1, bipartite=((2, 2), [2, 2]))
    assert TestConfig(seed=1, bipartite=((2, 3), (3, 2))).bipartite == ((2, 3), (3, 2))
    cfg = TestConfig(seed=1, dims=[2, 4], bipartite=[[2, 2]])
    assert cfg.dims == (2, 4) and cfg.bipartite == ((2, 2),)
    # trials are keyed by the 64-bit seed; a seed outside it would alias one inside
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match="seed"):
            TestConfig(seed=seed)
    assert TestConfig(seed=2**64 - 1).seed == 2**64 - 1
    # integers only: truncating 2.7 would silently run another configuration
    for kwargs in ({"seed": 1.5}, {"samples": 2.5}, {"dims": (2.7,)}, {"bipartite": ((2, 2.5),)}):
        with pytest.raises(TypeError):
            TestConfig(**{"seed": 1, **kwargs})
    cfg = TestConfig(
        seed=np.uint64(7), samples=np.int32(3), dims=(np.int64(2),), bipartite=((np.int8(2), 3),)
    )
    assert (cfg.seed, cfg.samples, cfg.dims, cfg.bipartite) == (7, 3, (2,), ((2, 3),))
    assert {type(v) for v in (cfg.seed, cfg.samples, *cfg.dims, *cfg.bipartite[0])} == {int}


def test_config_dict_round_trip():
    cfg = TestConfig(seed=5, dims=(3,), samples=7, tol=1e-7, eig_range=(0.5, 2.0))
    assert TestConfig(**cfg.as_dict()) == cfg


def test_outcomes_are_deterministic():
    a = test_condition13(lookup("tlogt"), CFG)
    b = test_condition13(lookup("tlogt"), CFG)
    assert a == b  # dataclass equality, including float margins bit-for-bit


# Every plan of these suites draws `samples` trials, so a recorder row's
# global trial index splits into (plan, index within the plan).  power:1.25
# first fails subentropic k=2 on a trial of its scalar-direction class, which
# a chunk stacks after a later trial of its Hermitian class: stack order is
# not trial order.
INVARIANCE_RUNS = [("tlogt", s) for s in (
    "principle1", "entropic", "subentropic", "condition13", "equivalence", "matrix-entropy",
)] + [("exp", "condition13"), ("power:1.25", "subentropic")]


def _invariance_run(samples):
    import entrocert.certify as certify

    # each run draws its own stacks: none is served from an earlier run
    certify._KEPT.clear()
    outcomes, rows = [], []
    for name, suite in INVARIANCE_RUNS:
        recorder = []
        outcomes += run_suite(lookup(name), suite, TestConfig(seed=5, samples=samples), recorder)[0]
        rows += [(name, *row) for row in recorder]
    return outcomes, rows


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_batch_size_does_not_change_results(monkeypatch):
    import json

    import entrocert.certify as certify

    stacked, rows = _invariance_run(50)
    longer, longer_rows = _invariance_run(200)
    monkeypatch.setattr(certify, "_CHUNK_BYTES", 1)  # one trial per chunk
    single, single_rows = _invariance_run(50)

    for a, b in zip(stacked, single, strict=True):
        assert (a.name, a.verdict, a.trials_run, a.trials_skipped, a.detail) == (
            b.name, b.verdict, b.trials_run, b.trials_skipped, b.detail
        )
        assert _close(a.min_margin, b.min_margin)
        # the same witness trial: its fields bit for bit, its margin to rounding
        assert (a.counterexample is None) == (b.counterexample is None)
        if a.counterexample is not None:
            wa, wb = dict(a.counterexample), dict(b.counterexample)
            assert _close(wa.pop("margin"), wb.pop("margin"))
            assert json.dumps(wa) == json.dumps(wb)
    assert any(o.verdict == FAIL for o in stacked)
    assert [o.verdict for o in stacked] == [o.verdict for o in longer]
    # the same rows in the same order: (function, suite, dim, trial), then margin and scale
    assert [row[:4] for row in rows] == [row[:4] for row in single_rows]
    for a, b in zip(rows, single_rows):
        assert _close(a[4], b[4]) and _close(a[5], b[5])
    # each trial measured alone and as the leading part of a larger budget
    longer_margins = {
        (name, test, trial // 200, trial % 200): margin
        for name, test, _, trial, margin, _ in longer_rows
    }
    for name, test, _, trial, margin, _ in rows:
        assert _close(margin, longer_margins[name, test, trial // 50, trial % 50])


def test_battery_fail_payloads_reverify_through_shared_margin():
    from entrocert.certify import _PROPERTIES
    from entrocert.report import CertificationReport

    cfg = TestConfig(seed=42, samples=10)
    kinds = set()
    for name in ("square", "exp", "neglog"):
        f = lookup(name)
        outcomes, fit = run_suite(f, "all", cfg)
        report = CertificationReport(f.describe(), cfg.as_dict(), tuple(outcomes), 0.0, fit)
        for o in CertificationReport.from_json(report.to_json()).outcomes:
            if o.verdict != FAIL:
                continue
            payload = o.counterexample
            assert payload["kind"] in _PROPERTIES
            kinds.add(payload["kind"])
            margin = reverify_counterexample(f, payload)
            assert margin < -cfg.tol / 2
            assert margin == pytest.approx(payload["margin"], rel=1e-9, abs=1e-12)
    assert len(kinds) >= 4


@pytest.mark.parametrize("name", [f.name for f in registry()])
def test_registry_function_is_its_expression_twin(name):
    # a registry row is a named expression: its twin built from the row's
    # expression and zero extension alone has the same jets bit for bit and
    # the same outcomes, except where the name gates what runs
    from entrocert.certify import _expects_fail

    f = lookup(name)
    twin = parse(f.expression).as_function(f.zero_extension)
    points = np.geomspace(1e-3, 1e2, 25)
    for a, b in zip(f.jet(points), twin.jet(points), strict=True):
        assert a.tobytes() == b.tobytes()
    cfg = TestConfig(seed=42, samples=10)
    named, _ = run_suite(f, "all", cfg)
    unnamed, _ = run_suite(twin, "all", cfg)
    gated = [o.name for o in named if _expects_fail(name, o.name)]
    for a, b in zip(named, unnamed, strict=True):
        if a.name in gated or (a.name == "uniqueness" and gated):
            continue
        fields = ("name", "verdict", "trials_run", "trials_skipped", "min_margin", "counterexample")
        assert [getattr(a, k) for k in fields] == [getattr(b, k) for k in fields], a.name


def test_square_condition13_constant_margin():
    recorder = []
    out = test_condition13(lookup("square"), CFG, recorder=recorder)
    assert out.verdict == FAIL
    assert out.counterexample is not None
    assert len(recorder) == out.trials_run
    for _, _, _, margin, _ in recorder:
        assert margin == pytest.approx(-0.5, abs=1e-12)
    m = reverify_counterexample(lookup("square"), out.counterexample)
    assert m == pytest.approx(-0.5, abs=1e-12)


def test_fail_witness_stays_stable_as_budget_grows():
    small = test_condition13(lookup("square"), TestConfig(seed=3, samples=4))
    large = test_condition13(lookup("square"), TestConfig(seed=3, samples=30))
    assert small.verdict == large.verdict == FAIL
    # a larger budget re-runs the same leading trials, so the witness, the
    # most violating trial, can only get stronger
    assert large.counterexample["margin"] <= small.counterexample["margin"]
    assert [o.counterexample["margin"] for o in (small, large)] == [small.min_margin, large.min_margin]


@pytest.mark.parametrize("seed", [0, 3, 42])
def test_every_fail_hands_out_its_strongest_witness(seed):
    # a sampled FAIL's witness is its most violating trial (the lowest index
    # on ties), and a searched one states its own margin, below every sampled
    # one: either way the payload re-verifies to the outcome's min_margin
    cfg = TestConfig(seed=seed, samples=10)
    fails = 0
    for f in _battery_functions():
        outcomes, _ = run_suite(f, "all", cfg)
        for out in outcomes:
            if out.verdict != FAIL:
                continue
            assert out.counterexample["margin"] == out.min_margin, (f.name, out.name)
            margin = reverify_counterexample(f, out.counterexample)
            assert margin == pytest.approx(out.min_margin, rel=1e-12, abs=0), (f.name, out.name)
            fails += 1
    assert fails == {0: 48, 3: 51, 42: 47}[seed]


def test_tlogt_quick_battery_all_pass():
    outs, fit = run_suite(lookup("tlogt"), "all", CFG)
    assert all(o.verdict == PASS for o in outs)
    assert fit is not None and fit["slope"] == pytest.approx(1.0, abs=1e-9)
    assert worst_exit_code(outs) == 0


def test_equivalence_counts_all_evaluated_instances():
    out = test_equivalence_13_vs_hessian(lookup("tlogt"), CFG)
    assert out.verdict == PASS
    assert out.trials_run == len(CFG.dims) * CFG.samples


def test_affine_degenerates_to_skipped():
    f = lookup("affine")
    assert test_condition13(f, CFG).verdict == SKIPPED
    assert test_equivalence_13_vs_hessian(f, CFG).verdict == SKIPPED
    assert test_gap_superadditive(f, CFG).verdict == SKIPPED
    assert test_principle1_concavity(f, CFG).verdict == PASS
    res = uniqueness_pipeline(f, CFG)
    assert res.outcome.verdict == SKIPPED and res.fit is None
    outs, _ = run_suite(f, "all", CFG)
    assert worst_exit_code(outs) == 2


def test_scalar_convexity_precheck_short_circuits():
    # Non-convex candidates fail before any sampling, in every suite.  For
    # (t-1)^3, f'' vanishes at t=1, so a gap suite that built its gap function
    # before the precheck would report SKIPPED instead.
    entry_points = [
        test_principle1_concavity,
        test_entropic,
        *[lambda f, cfg, k=k: test_subentropic_order_k(f, k, cfg) for k in (2, 3, 4)],
        test_condition13,
        test_equivalence_13_vs_hessian,
        test_matrix_entropy,
        test_entropy_gain_convexity,
        test_gap_superadditive,
        test_gap_concavity,
    ]
    for text in ("-(t^2)", "(t-1)^3"):
        f = parse(text).as_function()
        for entry in entry_points:
            out = entry(f, CFG)
            assert out.verdict == FAIL, (text, out.name)
            assert out.counterexample["kind"] == "scalar-convexity"
            assert reverify_counterexample(f, out.counterexample) < -CFG.tol / 2


def test_shallow_concavity_is_left_to_sampling():
    # f'' = -2e-9 is below -1e-10 everywhere, but the scalar margins it
    # gives stay within tol: the precheck decides nothing, and principle1's
    # sampled trials refute it
    from entrocert.certify import _scalar_precheck

    f = parse("-1e-9*t^2").as_function()
    assert _scalar_precheck(f, 1e-8) is None
    out = test_principle1_concavity(f, TestConfig(seed=1, samples=4))
    assert (out.verdict, out.trials_run, out.counterexample["kind"]) == (FAIL, 8, "principle1")
    assert reverify_counterexample(f, out.counterexample) < -1e-8 / 2


def test_neglog_pipeline_stops_at_matrix_entropy():
    res = uniqueness_pipeline(lookup("neglog"), TestConfig(seed=7, samples=25))
    assert [s.name for s in res.stages] == [
        "principle1",
        "gap-superadditive",
        "condition13",
        "matrix-entropy",
    ]
    assert res.outcome.verdict == FAIL
    assert "matrix-entropy" in res.outcome.detail
    assert res.fit is None


def test_expected_fail_not_found_is_inconclusive():
    out = test_entropic(lookup("neglog"), TestConfig(seed=11, samples=4))
    assert out.verdict == INCONCLUSIVE
    assert out.counterexample is None


def test_subentropic_padding_orders():
    # derived escalation manufactures order-k witnesses out of an order-2 one
    f = lookup("square")
    for k in (2, 3, 4):
        res = _derived_hessian_witness(f, CFG, k)
        assert res is not None
        payload, scale, dim, note = res
        assert payload["kind"] == "subentropic-hessian" and payload["margin"] < -CFG.tol
        assert len(payload["rhos"]) == k and len(payload["hs"]) == k
        assert dim == payload["rhos"][0]["dim"] and scale >= 1.0 and "constructed from" in note
        assert reverify_counterexample(f, payload) == pytest.approx(payload["margin"], rel=1e-9)


def test_search_gives_up_without_an_invertible_differential():
    # affine's f' is constant: its Loewner matrices vanish, so no row of
    # the search has inverse differentials to take a direction from
    assert _derived_hessian_witness(lookup("affine"), TestConfig(seed=2, samples=5), 2) is None


def test_derived_witness_joins_the_sampled_trials():
    # power:1.25 is expected to fail subentropic; none of the 20 sampled
    # trials violates, so the derived-Hessian search supplies trial 20
    cfg, recorder = TestConfig(seed=42, samples=10), []
    f = lookup("power:1.25")
    out = test_subentropic_order_k(f, 3, cfg, recorder)
    assert out.verdict == FAIL
    assert (out.trials_run, out.trials_skipped) == (21, 0)
    assert out.detail.endswith(
        "violation constructed from a negative direction of the "
        "inverse-differential superoperator inequality"
    )
    assert [row[2] for row in recorder] == list(range(21))
    name, dim, _, margin, _ = recorder[-1]
    assert (name, dim) == ("subentropic:k=3", 2)
    assert margin == out.min_margin == out.counterexample["margin"]
    assert reverify_counterexample(f, out.counterexample) < -cfg.tol / 2
    # the search's trial i draws its (rho, sigma) pair from the stream keyed
    # (seed, "subentropic-escalation/k{k}/dim{dim}", i); trial 0 supplies this
    # witness.  random_pd equals the per-trial reference bit for bit
    # (test_public_generators_match_reference)
    key = _stream_token("subentropic-escalation/k3/dim2")
    rng = np.random.default_rng(np.random.SeedSequence([42, key, 0]))
    pair = [random_pd(2, cfg.eig_range, rng) for _ in range(2)]
    rhos = [matrix_from_json(m) for m in out.counterexample["rhos"][:2]]
    assert [a.tobytes() for a in rhos] == [b.tobytes() for b in pair]


def test_uniqueness_fit_witness():
    # every stage passes at this tol, but g = 1/f'' is not proportional to t;
    # the fit's witness is written by its property record, key order included
    f = parse("t*log(t) - 0.001*t^2").as_function(zero_extension=0.0)
    outcomes, fit = run_suite(f, "uniqueness", TestConfig(seed=1, samples=20, tol=0.5))
    out = outcomes[-1]
    assert (out.name, out.verdict, out.trials_run) == ("uniqueness", FAIL, 100)
    payload = out.counterexample
    assert list(payload) == ["kind", "t", "slope", "relative_residual", "margin"]
    assert payload["kind"] == "uniqueness-fit" and payload["t"] == 100.0
    assert payload["slope"] == fit["slope"]
    assert payload["margin"] == out.min_margin == -fit["relative_residual"]
    assert reverify_counterexample(f, payload) == payload["margin"]


def test_min_margin_is_the_smallest_recorded_margin():
    # a trial's margin is the smallest of its property margins, and a
    # suite's min margin the smallest trial margin it recorded
    cfg = TestConfig(seed=3, samples=4)
    twins = [parse("t*log(t)").as_function(zero_extension=0.0), parse("-log(t)").as_function()]
    for f in (*registry(), *twins):
        recorder = []
        outcomes, _ = run_suite(f, "all", cfg, recorder)
        for out in outcomes[:-1]:  # the last is the pipeline's summary
            margins = [row[3] for row in recorder if row[0] == out.name]
            if margins:
                assert out.min_margin == min(margins), (f.name, out.name)
            else:  # skipped, or refuted by the scalar precheck before any trial
                assert out.verdict == SKIPPED or out.detail.startswith("scalar convexity fails")


def test_non_finite_margins_skip_their_trials():
    # t^384 overflows on these spectra, so margins come out inf - inf; they
    # must skip their trials, not crash the suite or pass as non-finite
    # numbers.  The overflow is deliberate, hence errstate
    from entrocert.report import CertificationReport

    f = parse("t^128*t^128*t^128").as_function(zero_extension=0.0)
    cfg = TestConfig(seed=1, samples=5)
    with np.errstate(all="ignore"):
        outcomes, fit = run_suite(f, "all", cfg)
        outcomes.append(test_equivalence_13_vs_hessian(f, cfg))
    assert all(o.min_margin is None or np.isfinite(o.min_margin) for o in outcomes)
    sub3 = next(o for o in outcomes if o.name == "subentropic:k=3")
    assert sub3.verdict == SKIPPED
    assert "non-finite" in sub3.detail and "margin" in sub3.detail
    CertificationReport(f.describe(), cfg.as_dict(), tuple(outcomes), 0.0, fit).to_json()


def test_subentropic_order_validation():
    with pytest.raises(ValueError):
        test_subentropic_order_k(lookup("tlogt"), 1, CFG)


def test_run_suite_rejects_unknown_token():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(lookup("tlogt"), "bogus", CFG)


def test_worst_exit_code_ordering():
    from entrocert.certify import TestOutcome

    mk = lambda v: TestOutcome("x", "f", v, 0.0, 1)
    assert worst_exit_code([mk(PASS), mk(PASS)]) == 0
    assert worst_exit_code([mk(PASS), mk(INCONCLUSIVE)]) == 2
    assert worst_exit_code([mk(SKIPPED)]) == 2
    assert worst_exit_code([mk(INCONCLUSIVE), mk(FAIL)]) == 1


def test_reverify_synthetic_payload_kinds():
    tlogt = lookup("tlogt")
    exp = lookup("exp")
    square = lookup("square")
    # gap shapes that the sampled suites rarely dump, checked directly
    assert reverify_counterexample(exp, {"kind": "gap-monotone", "t": 1.0, "s": 2.0}) < 0
    assert reverify_counterexample(square, {"kind": "gap-zero", "t": 1e-6}) < 0
    assert reverify_counterexample(tlogt, {"kind": "gap-zero", "t": 1e-6}) > 0
    assert reverify_counterexample(lookup("neglog"), {"kind": "uniqueness-fit"}) < 0
    assert reverify_counterexample(tlogt, {"kind": "uniqueness-fit"}) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(ValueError, match="unknown counterexample kind"):
        reverify_counterexample(tlogt, {"kind": "nonsense"})


@pytest.mark.parametrize("t", [True, False, "1", None], ids=repr)
def test_a_payload_float_is_a_json_number(t):
    # float() would read true as 1.0 and "1" as 1.0, and re-verify t = 1
    with pytest.raises(ValueError, match=r"field 't' is malformed: expected a number"):
        reverify_counterexample(lookup("exp"), {"kind": "gap-monotone", "t": t, "s": 2.0})


def test_reverify_equivalence_agreement_sign():
    from entrocert.hermitian import matrix_to_json, random_hermitian, random_pd

    rng = np.random.default_rng(8)
    rho = random_pd(2, (0.5, 2.0), rng)
    sigma = random_pd(2, (0.5, 2.0), rng)
    h = random_hermitian(2, rng)
    payload = {
        "kind": "equivalence",
        "rho": matrix_to_json(rho),
        "sigma": matrix_to_json(sigma),
        "h1": [matrix_to_json(h)],
        "h2": [matrix_to_json(h)],
        "band": 0.0,
    }
    # square: superoperator margin and Hessian margin are both negative
    assert reverify_counterexample(lookup("square"), payload) > 0


@pytest.mark.parametrize("seed", [0, 3, 42])
def test_equivalence_witness_is_its_trial_and_reverifies(seed):
    # An equivalence witness is its trial's own fields: rho, sigma, all 16
    # drawn direction pairs and the band.  Written as JSON and read back, it
    # re-verifies to the trial's sampled margin, on the refuted functions'
    # trials too, whose Hessian margin takes in the pair transferred from
    # condition (13) (no real equivalence FAIL exists to reach this path).
    import entrocert.certify as certify

    cfg = TestConfig(seed=seed, samples=10)
    for name in ("square", "power:1.5", "exp", "tlogt"):
        f, rows = lookup(name), []
        test_equivalence_13_vs_hessian(f, cfg, rows)
        sampled = {trial: margin for _, _, trial, margin, _ in rows}
        stacks = [s for s in _kept_entries() if s.plan.stream.startswith("equivalence/")]
        checked = 0
        for stack in stacks:
            D = stack.derived["equivalence"]
            res = certify._measure(f, [(certify._EQUIVALENCE, stack.idx.size, D)])
            for j in range(stack.idx.size):
                witness = certify._witness(
                    certify._EQUIVALENCE, certify._trial_fields(cfg, stack, j), res, j
                )
                assert witness["margin"] == sampled[int(stack.idx[j])]
                assert len(witness["h1"]) == len(witness["h2"]) == 16
                assert set(witness) == {
                    "kind", "rho", "sigma", "h1", "h2", "band", "margin13", "margin_hessian", "margin"
                }
                payload = json.loads(json.dumps(witness))
                assert abs(reverify_counterexample(f, payload) - witness["margin"]) <= 1e-12
                # condition (13) fails below -band on every refuted trial, which transfers
                assert (witness["margin13"] < -witness["band"]) == (name != "tlogt")
                checked += 1
        assert checked == 20


def _states(D):
    """(rho, sigma, rho + sigma) of each trial, rebuilt from the derived eigenpairs."""
    from entrocert.hermitian import adjoint, hermitize

    u = D["states.eigenvectors"]
    return hermitize((u * D["states.eigenvalues"][..., None, :]) @ adjoint(u))


def _full_transfer_margin(f, D, states):
    """The equivalence margin from the public complex superoperators, as a reference.

    ``states`` holds (rho, sigma, rho + sigma) of each trial of the
    equivalence derive D.  d = Inv(rho+sigma) - Inv(rho) - Inv(sigma) from
    frechet_inverse.  Its lowest eigenvector is w = vec(C1) + i vec(C2) with
    Hermitian C1, C2 in the lowest eigenspace, so herm(w) = C1 and
    herm(-iw) = C2; the larger, scaled to unit norm, is the direction C.
    Every trial whose d has a negative eigenvalue transfers C to h1 =
    Inv(rho) C, h2 = Inv(sigma) C, and the forms are the public quadratic
    forms of df'.  Returns the margins, scales and extras, and per trial the
    drawn pairs' Hessian margin, the transferred pair's (inf where d has no
    negative eigenvalue), d's lowest eigenvalue, d and the differentials df'
    at (rho, sigma, rho + sigma), as Superoperators.
    """
    import entrocert.certify as certify
    from entrocert.frechet import Superoperator, frechet_inverse, frechet_superoperator, unvec
    from entrocert.hermitian import PsdMargin, hermitize

    fp = f.derivative()
    n, rows = states.shape[-1], np.arange(states.shape[0])
    inverse = frechet_inverse(fp, states)
    inv_r, inv_s, inv_t = (inverse.matrix[:, c] for c in range(3))
    d = hermitize(inv_t - inv_r - inv_s)
    w, vecs = np.linalg.eigh(d)
    m13 = PsdMargin.of_spectrum(w).normalized
    cands = hermitize(np.stack([unvec(vecs[..., 0], n), unvec(-1j * vecs[..., 0], n)]))
    norms = np.linalg.norm(cands, axis=(-2, -1))
    larger = np.argmax(norms, axis=0)
    c = cands[larger, rows] / norms[larger, rows][:, None, None]
    h1, h2 = (hermitize(Superoperator(n, inv).apply(c)) for inv in (inv_r, inv_s))
    diff = [frechet_superoperator(fp, states[:, j]) for j in range(3)]
    forms = [q.quadratic_form(h) for q, h in zip(diff, (h1, h2, h1 + h2))]
    moved = np.where(w[:, 0] < 0.0, certify._hessian(np.stack(forms[:2], axis=-1), forms[2])[0], np.inf)
    (kernel,) = certify._kernel_values(f, certify._EQUIVALENCE.reads.points(D))
    q = certify._weighted(kernel[:, :, None], D["states.weights"])
    drawn = np.min(certify._hessian(np.moveaxis(q[:, :2], 1, -1), q[:, 2])[0], axis=1)
    mh = np.minimum(drawn, moved)
    solid = (np.abs(m13) > D["band"]) & (np.abs(mh) > D["band"])
    disagree = solid & ((m13 < 0.0) != (mh < 0.0))
    margin = np.minimum(np.abs(m13), np.abs(mh)) * np.where(disagree, -1.0, 1.0)
    extras = {"margin13": m13, "margin_hessian": mh}
    return (
        margin, np.maximum(np.abs(m13), np.abs(mh)), extras,
        (drawn, moved, w[:, 0], Superoperator(n, d), diff),
    )


@pytest.mark.parametrize("seed", [0, 3, 42])
def test_equivalence_transfers_only_where_condition13_is_violated(seed):
    # The transfer of d's lowest eigenvector runs only on trials whose
    # condition (13) margin lies below -band.  There the margins are those
    # of the public complex superoperators' transfer, up to rounding, and
    # the pair that _transfer's coordinates h' give, U T(h') U*, is
    # df'(rho)^-1 C, df'(sigma)^-1 C for a unit direction C of d's lowest
    # eigenvalue; elsewhere the Hessian margin is the drawn pairs' alone.
    # Above band no transferred form is negative, so the margins are those
    # too; within band of zero neither can disagree, and both margins lie
    # in [0, |m13|].  Every trial of a function here lies on one side
    # (square, power:1.5 and exp below, neglog above, tlogt within), so a
    # band of 1 on every other trial mixes both sides in one stack.  The
    # trials' own fields are derived anew, by equivalence and by condition13.
    import entrocert.certify as certify
    from entrocert.frechet import Superoperator, _hermitian_of
    from entrocert.hermitian import adjoint, hermitize, is_hermitian

    cfg = TestConfig(seed=seed, samples=10)
    run_suite(lookup("tlogt"), "equivalence", cfg)
    stacks = [s for s in _kept_entries() if s.plan.stream.startswith("equivalence/")]
    assert sum(s.idx.size for s in stacks) == 20
    indefinite = 0
    for stack in stacks:
        trials = [certify._trial_fields(cfg, stack, j) for j in range(stack.idx.size)]
        P = {k: np.stack([t[k] for t in trials]) for k in trials[0]}
        # the eigenbasis U of rho + sigma that the derive's rotations were taken in
        derived, pair_sum = certify._EQUIVALENCE.derive(P), certify._pair_sum_derive(P)
        assert np.array_equal(derived["states.rotations"], pair_sum["states.rotations"])
        assert "states.eigenvectors" not in derived
        states, u = _states(pair_sum), pair_sum["states.eigenvectors"][:, 2]
        for name, mixed in itertools.product(("square", "power:1.5", "exp", "neglog", "tlogt"), (0, 1)):
            f = lookup(name)
            D = derived
            if mixed:
                D = {**D, "band": np.where(np.arange(stack.idx.size) % 2, 1.0, D["band"])}
            values = certify._kernel_values(f, certify._EQUIVALENCE.reads.points(D))
            margin, scale, extras = certify._equivalence_margin(f, D, values)
            ref_margin, ref_scale, ref_extras, (drawn, moved, low, d, diff) = _full_transfer_margin(
                f, D, states
            )
            m13, band = ref_extras["margin13"], D["band"]
            below, above = m13 < -band, m13 > band
            indefinite += int(np.sum(below))
            assert np.allclose(extras["margin13"], m13, rtol=0, atol=1e-13)
            for got, want in ((margin, ref_margin), (scale, ref_scale)):
                assert np.allclose(got[below | above], want[below | above], rtol=1e-12, atol=1e-13)
            assert np.allclose(extras["margin_hessian"][below], ref_extras["margin_hessian"][below],
                               rtol=1e-12, atol=1e-13)
            assert np.all(np.abs(margin - ref_margin) <= band)
            # no transfer where condition (13) is not violated
            assert np.array_equal(extras["margin_hessian"][~below], drawn[~below])
            if name == "square":  # d = -I/2: every trial is indefinite
                assert np.array_equal(below, band < 1.0)
            if name == "neglog":
                assert np.array_equal(above, band < 1.0)
            if name == "tlogt":  # d vanishes up to rounding
                assert not np.any(below | above)
            if not below.any():
                continue
            # the transferred pair is df'(rho)^-1 C, df'(sigma)^-1 C for one unit
            # Hermitian C with <C, d C> the lowest eigenvalue of d
            _, form = certify._condition13_spectrum(f.derivative(), values[0], D)
            lowest, transferred, h = certify._transfer([a[below] for a in form])
            assert np.allclose(lowest, low[below], rtol=0, atol=1e-12)
            assert np.allclose(transferred, moved[below], rtol=1e-12, atol=1e-13)
            assert np.array_equal(
                extras["margin_hessian"][below], np.minimum(drawn[below], transferred)
            )
            pair = hermitize(u[below] @ _hermitian_of(h) @ adjoint(u[below]))
            assert all(is_hermitian(m) for m in pair.reshape(-1, *pair.shape[-2:]))
            c1, c2 = (Superoperator(q.dim, q.matrix[below]).apply(m) for q, m in zip(diff, pair))
            assert np.allclose(c1, c2, rtol=0, atol=1e-12)
            assert np.allclose(np.linalg.norm(c1, axis=(-2, -1)), 1.0, rtol=0, atol=1e-12)
            form = Superoperator(d.dim, d.matrix[below]).quadratic_form(c1)
            assert np.allclose(form, low[below], rtol=0, atol=1e-12)
    assert indefinite == 3 * 20 + 3 * 10


def test_transfer_does_not_depend_on_the_eigenvector_sign(monkeypatch):
    # d's lowest eigenvector is fixed up to its sign, and every form of the
    # pair it transfers to is quadratic in it: with eigh's eigenvectors
    # negated, no equivalence margin and no searched witness's margin moves,
    # and the searched witness's directions are negated.  The stacks are
    # kept from the first run, so the patch reaches the transfers' eigh.
    import entrocert.certify as certify

    cfg = TestConfig(seed=42, samples=10)

    def run():
        rows = []
        for name in ("square", "power:1.5", "exp"):
            test_equivalence_13_vs_hessian(lookup(name), cfg, rows)
        witness, *_ = certify._derived_hessian_witness(lookup("power:1.25"), cfg, 3)
        return rows, witness

    (rows, witness), real_eigh = run(), np.linalg.eigh

    def negated(a, *args, **kwargs):
        w, v = real_eigh(a, *args, **kwargs)
        return w, -v

    monkeypatch.setattr(np.linalg, "eigh", negated)
    flipped_rows, flipped = run()
    assert len(rows) == 3 * 20 and flipped_rows == rows
    assert flipped["margin"] == witness["margin"] < -cfg.tol
    for a, b in zip(witness["hs"][:2], flipped["hs"][:2]):
        assert np.array_equal(matrix_from_json(b), -matrix_from_json(a))


def test_equivalence_of_tlogt_decomposes_no_superoperator(monkeypatch):
    # condition (13) holds for tlogt with d = 0 up to rounding, so no trial
    # lies below -band and no n^2 x n^2 matrix is handed to eigh.  Both
    # superoperator margins read condition (13) in its real form, and the
    # transfer takes d's lowest eigenvector from that form, so no run forms
    # an n^2 x n^2 matrix in complex arithmetic: no Kronecker form, and no
    # complex eigh or eigvalsh of one.  square's d = -I/2 is indefinite on
    # every trial, so its equivalence transfers on every trial, and
    # power:1.25's subentropic:k=3 witness comes from the search's transfer.
    # The states' own decompositions (hermitian.eigh, 4 x 4 for the 2x2
    # bipartite split) are not superoperators.
    import sys

    import entrocert.certify as certify
    import entrocert.frechet as frechet

    cfg = TestConfig(seed=42, samples=200)
    calls, forms = [], []
    real_eigh, real_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    real_form = frechet._kronecker_form

    def recorded(name, real):
        def decompose(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals["__name__"]
            calls.append((name, np.shape(a)[-1], np.iscomplexobj(a), caller))
            return real(a, *args, **kwargs)

        return decompose

    def kronecker_form(*args):
        forms.append(args)
        return real_form(*args)

    def superoperators(complex_only):
        return {
            (name, n) for name, n, is_complex, caller in calls
            if caller != "entrocert.hermitian" and n in squares and (is_complex or not complex_only)
        }

    monkeypatch.setattr(np.linalg, "eigh", recorded("eigh", real_eigh))
    (out,), _ = run_suite(lookup("tlogt"), "equivalence", cfg)
    assert out.verdict == PASS and out.trials_run == 400
    squares = {n * n for n in cfg.dims}
    assert calls and not {n for _, n, _, _ in calls} & squares

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded("eigvalsh", real_eigvalsh))
    monkeypatch.setattr(frechet, "_kronecker_form", kronecker_form)
    assert not {"_kronecker_form", "vec", "unvec"} & set(vars(certify))
    outcomes, _ = run_suite(lookup("tlogt"), "all", cfg)
    assert all(o.verdict == PASS for o in outcomes)
    assert superoperators(False) == {("eigvalsh", n) for n in squares}
    assert not forms

    calls.clear()
    cfg = TestConfig(seed=42, samples=10)
    outcomes, _ = run_suite(lookup("square"), "all", cfg)
    equivalence = next(o for o in outcomes if o.name == "equivalence")
    assert equivalence.verdict == PASS and equivalence.trials_run == 20
    outcomes, _ = run_suite(lookup("power:1.25"), "subentropic", cfg)
    assert outcomes[1].verdict == FAIL and "constructed from" in outcomes[1].detail
    assert superoperators(False) == {(name, n) for name in ("eigh", "eigvalsh") for n in squares}
    assert not superoperators(True)
    assert not forms


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_condition13_real_form_has_the_eigenvalues_of_d(n):
    # the real symmetric form of d in the Hermitian basis against the
    # complex combination of the public inverse differentials, for every
    # registry function whose differential is invertible
    import entrocert.certify as certify
    from entrocert.frechet import NotInvertibleError, _inverse_kernel, frechet_inverse
    from entrocert.hermitian import PsdMargin, hermitize

    rng = np.random.default_rng(n)
    rho, sigma = random_pd(n, (0.1, 10.0), rng), random_pd(n, (0.1, 10.0), rng)
    D = certify._pair_sum_derive({"rho": rho[None], "sigma": sigma[None]})
    measured = 0
    for f in registry():
        fp = f.derivative()
        try:
            inv = [frechet_inverse(fp, m).matrix for m in (rho, sigma, hermitize(rho + sigma))]
        except NotInvertibleError:
            continue
        expected = np.linalg.eigvalsh(hermitize(inv[2] - inv[0] - inv[1]))
        (kernel,) = certify._kernel_values(f, certify._CONDITION13.reads.points(D))
        pm, _ = certify._condition13_spectrum(fp, kernel, D)
        d = certify._condition13_form(_inverse_kernel(fp, kernel), D["states.rotations"])[0][0]
        largest = max(np.max(np.abs(m)) for m in inv)
        assert np.max(np.abs(np.linalg.eigvalsh(d) - expected)) <= 1e-13 * largest, f.name
        reference = PsdMargin.of_spectrum(expected)
        assert abs(pm.min_eigenvalue[0] - reference.min_eigenvalue) <= 1e-13 * largest
        assert abs(pm.scale[0] - reference.scale) <= 1e-13 * largest
        measured += 1
    assert measured == len(registry()) - 1  # affine's differential is singular


@pytest.mark.parametrize("seed", [0, 3, 42])
def test_condition13_real_form_is_no_farther_from_a_50_digit_oracle(seed):
    # neglog: df'(rho)^-1 X = rho X rho, so d X = rho X sigma + sigma X rho.
    # That d, rebuilt in 50 digits from the derived eigenpairs of rho and
    # sigma, is the oracle for the real form's margin and for the complex
    # form's of the public frechet_inverse.  Both form d as a difference of inverse
    # differentials whose entries reach max |1/K|, so each margin carries a
    # rounding error of a few eps * max|1/K| / max(1, scale): on every trial
    # the real form is no farther from the oracle than the complex one, up
    # to that rounding (on the stretched spectra the complex form loses
    # digits: 2.3e-12 against 7.7e-16 at seed 42, samples 200, dim 3).
    mpmath = pytest.importorskip("mpmath")
    import entrocert.certify as certify
    from entrocert.frechet import _inverse_kernel, frechet_inverse
    from entrocert.hermitian import PsdMargin, hermitize

    mp = mpmath.mp.clone()
    mp.dps = 50
    f = lookup("neglog")
    fp = f.derivative()

    def oracle(lam, u):
        rho, sigma = (
            mp.matrix(u[c].tolist()) * mp.diag(lam[c].tolist()) * mp.matrix(u[c].tolist()).H
            for c in (0, 1)
        )
        n = len(lam[0])
        d = mp.matrix(n * n, n * n)  # vec(rho X sigma) = (sigma^T (x) rho) vec X, column stacking
        for i, j, k, l in itertools.product(range(n), repeat=4):
            d[i + n * j, k + n * l] = sigma[l, j] * rho[i, k] + rho[l, j] * sigma[i, k]
        w = mp.eigh(d, eigvals_only=True)
        return min(w) / max(1, max(abs(x) for x in w))

    run_suite(lookup("neglog"), "condition13", TestConfig(seed=seed, samples=10))
    trials = 0
    for stack in _kept_entries():
        D = stack.derived["condition13"]
        (kernel,) = certify._kernel_values(f, certify._CONDITION13.reads.points(D))
        real_form, _ = certify._condition13_spectrum(fp, kernel, D)
        u = D["states.eigenvectors"]
        inverse = frechet_inverse(fp, _states(D)).matrix
        complex_form = PsdMargin.of_spectrum(
            np.linalg.eigvalsh(hermitize(inverse[:, 2] - inverse[:, 0] - inverse[:, 1]))
        )
        largest = np.max(np.abs(_inverse_kernel(fp, kernel)), axis=(1, 2, 3))
        rounding = 8 * np.finfo(float).eps * largest / np.maximum(1.0, real_form.scale)
        for j in range(stack.idx.size):
            exact = oracle(D["states.eigenvalues"][j], u[j])
            real_error = float(abs(mpmath.mpf(real_form.normalized[j]) - exact))
            complex_error = float(abs(mpmath.mpf(complex_form.normalized[j]) - exact))
            assert real_error <= complex_error + rounding[j]
            trials += 1
    assert trials == 20


def test_gap_superadditive_covers_square_example():
    out = test_gap_superadditive(lookup("square"), CFG)
    assert out.verdict == FAIL
    assert out.min_margin == pytest.approx(-0.5, abs=1e-12)
    assert out.counterexample["kind"] == "gap-superadditive"


def _count_stacks(monkeypatch, sizes):
    """Append the size of every stack a suite measures to ``sizes``."""
    import entrocert.certify as certify

    real = certify._suite_stacks

    def counting(seed, plans):
        for plan, start, idx, P in real(seed, plans):
            sizes.append(idx.size)
            yield plan, start, idx, P

    monkeypatch.setattr(certify, "_suite_stacks", counting)


def test_gap_grid_plans(monkeypatch):
    import entrocert.certify as certify

    def no_stream(*args):
        raise AssertionError("a grid trial built a random stream")

    stacks = []
    monkeypatch.setattr(certify, "_seed_sequence_words", no_stream)
    _count_stacks(monkeypatch, stacks)
    # g = 1/f'' is undefined below t=0.005: at 4 of the 25 grid points and at
    # the zero probe.  Each counts once as skipped, and the recorder holds one
    # row per trial run, indexed 0..n-1.
    f = parse("t^2 - log(t-0.005)").as_function()
    cfg = TestConfig(seed=42, samples=20)
    for entry, run, skipped in ((test_gap_superadditive, 251, 5), (test_gap_concavity, 210, 4)):
        recorder = []
        out = entry(f, cfg, recorder)
        assert (out.verdict, out.trials_run, out.trials_skipped) == (FAIL, run, skipped)
        assert [(name, dim) for name, dim, *_ in recorder] == [(out.name, 1)] * run
        assert [row[2] for row in recorder] == list(range(run))
        assert min(row[3] for row in recorder) == out.min_margin
    # one stack per plan: the 231 pairs of the 21 defined points, their 20
    # neighbours, the zero probe; then the 210 strict pairs
    assert stacks == [231, 20, 1, 210]


def test_gap_grid_points_where_g_is_undefined_count_as_skipped():
    # log(t-0.002)*t leaves its domain at the two smallest gap-grid points:
    # each counts once as skipped, and so does the zero probe of
    # gap-superadditive; the 23 defined points make 276 pairs, 22 neighbours
    f, cfg = parse("log(t-0.002)*t").as_function(), TestConfig(seed=42, samples=10)
    out = test_gap_superadditive(f, cfg)
    assert (out.verdict, out.trials_run, out.trials_skipped) == (FAIL, 298, 3)
    out = test_gap_concavity(f, cfg)
    assert (out.verdict, out.trials_run, out.trials_skipped) == (FAIL, 253, 2)


def test_a_function_undefined_on_the_check_grid_skips_the_gap_suites():
    # -log(5-t) is defined below t=5 only: part of the scalar grid, where
    # principle1's spectra leave the domain too, and not the whole check
    # grid of g, whose error is the gap suites' detail with none skipped
    f, cfg = parse("-log(5-t)").as_function(), TestConfig(seed=42, samples=10)
    (out,), _ = run_suite(f, "principle1", cfg)
    assert (out.verdict, out.trials_run, out.trials_skipped) == (PASS, 8, 12)
    for out in run_suite(f, "gap", cfg)[0]:
        assert (out.verdict, out.trials_run, out.trials_skipped) == (SKIPPED, 0, 0)
        assert out.detail == "log of non-positive value -1.81292"


# The outcomes each run_suite token drives, in order.
TOKEN_OUTCOMES = {
    "principle1": ["principle1"],
    "entropic": ["entropic"],
    "subentropic": ["subentropic:k=2", "subentropic:k=3", "subentropic:k=4"],
    "condition13": ["condition13"],
    "equivalence": ["equivalence"],
    "matrix-entropy": ["matrix-entropy"],
    "gain": ["gain"],
    "gap": ["gap-superadditive", "gap-concavity"],
    "uniqueness": [
        "principle1", "gap-superadditive", "condition13", "matrix-entropy", "entropic",
        "gap-concavity",
    ],
    "all": [
        "principle1", "gap-superadditive", "condition13", "equivalence",
        "subentropic:k=2", "subentropic:k=3", "subentropic:k=4",
        "matrix-entropy", "entropic", "gain", "gap-concavity",
    ],
}
# The outcome each suite entry point returns (subentropic's at k=2).
ENTRY_OUTCOMES = {
    "test_principle1_concavity": "principle1",
    "test_entropic": "entropic",
    "test_condition13": "condition13",
    "test_equivalence_13_vs_hessian": "equivalence",
    "test_matrix_entropy": "matrix-entropy",
    "test_entropy_gain_convexity": "gain",
    "test_gap_superadditive": "gap-superadditive",
    "test_gap_concavity": "gap-concavity",
    "test_subentropic_order_k": "subentropic:k=2",
}


def test_run_suite_dispatch(monkeypatch):
    # every token but uniqueness drives its suites in one _drive call; the
    # pipeline drives its stages one call each, and each entry point its own suite
    import entrocert.certify as certify
    from entrocert.certify import SUITE_TOKENS, TestOutcome

    calls = []

    def drive(f, cfg, suites, recorder=None):
        calls.append([name for name, _, _ in suites])
        return [TestOutcome(name, f.name, PASS, 0.0, 1) for name, _, _ in suites]

    monkeypatch.setattr(certify, "_drive", drive)
    assert set(TOKEN_OUTCOMES) == set(SUITE_TOKENS)
    for token, names in TOKEN_OUTCOMES.items():
        calls.clear()
        outcomes, fit = run_suite(lookup("tlogt"), token, CFG)
        assert calls == ([[name] for name in names] if token == "uniqueness" else [names]), token
        assert (fit is not None) == (token in ("all", "uniqueness"))
        if fit is not None:
            assert outcomes[-1].name == "uniqueness" and outcomes[-1].verdict == PASS
    for entry, name in ENTRY_OUTCOMES.items():
        calls.clear()
        args = (int(name[-1]),) if entry == "test_subentropic_order_k" else ()
        assert getattr(certify, entry)(lookup("tlogt"), *args, CFG).name == name
        assert calls == [[name]]


def test_stacking_is_unchanged(monkeypatch):
    # Stacks measured per suite of a tlogt `all` run: one per shape group of
    # each chunk, so a group split in two or a moved chunk boundary changes a
    # count.  Index classes whose fields agree in shape share a stack (the
    # diagonal states of entropic and gain, the scalar pairs of
    # matrix-entropy), and gain's random channels group by (in, out), their
    # Kraus rank padded away
    import entrocert.certify as certify

    calls = []
    _count_stacks(monkeypatch, calls)
    f, cfg = lookup("tlogt"), TestConfig(seed=42, samples=200)
    counts = {}
    for row in certify._SUITES:
        calls.clear()
        row.run(f, cfg, None)
        counts[row.name] = len(calls)
    assert counts == {
        "principle1": 2, "gap-superadditive": 3, "condition13": 5, "equivalence": 16,
        "subentropic:k=2": 3, "subentropic:k=3": 5, "subentropic:k=4": 6,
        "matrix-entropy": 2, "entropic": 5, "gain": 36, "gap-concavity": 1,
    }


def test_one_pd_build_per_chunk_and_key(monkeypatch):
    # The PD columns of a chunk that share a dimension and an eigenvalue
    # range are built in one call, across fields and index classes: one call
    # per chunk and key.  condition13 draws two ranges per chunk; gain's
    # random channels take inputs of 2, 3 and 4, and its partial traces 4
    # and 6.  Building each field of each class on its own took 328 calls.
    import entrocert.certify as certify

    calls = []
    real = certify.pd_from_draw

    def counting(u, g, lo, hi):
        calls.append((u.shape[-1], lo, hi))
        return real(u, g, lo, hi)

    monkeypatch.setattr(certify, "pd_from_draw", counting)
    f, cfg = lookup("tlogt"), TestConfig(seed=42, samples=200)
    counts = {}
    for row in certify._SUITES:
        calls.clear()
        row.run(f, cfg, None)
        counts[row.name] = len(calls)
        if row.name == "gain":
            assert sorted(set(calls)) == [(n, 0.1, 10.0) for n in (2, 3, 4, 6)]
    assert counts == {
        "principle1": 2, "gap-superadditive": 0, "condition13": 10, "equivalence": 16,
        "subentropic:k=2": 3, "subentropic:k=3": 5, "subentropic:k=4": 6,
        "matrix-entropy": 2, "entropic": 5, "gain": 12, "gap-concavity": 0,
    }
    assert sum(counts.values()) == 61


def test_built_states_are_not_decomposed_again(monkeypatch):
    # Every PD, diagonal and scalar state hands the eigenpairs of its build
    # to eigh, which decomposes only the midpoints, sums, partial traces and
    # channel outputs: 14 000 of the 30 000 members that were decomposed
    # when every state was.  The eigh calls and the PD builds stay as many
    # as before.  Equivalence decomposes none of its 400 superoperators:
    # condition (13) holds for tlogt, so no trial lies below -band and
    # _transfer never runs (its margins read eigvalsh).
    import entrocert.certify as certify
    import entrocert.frechet as frechet
    import entrocert.hermitian as hermitian

    counts = {"closed_form": 0, "lapack": 0, "eigh": 0, "pd_from_draw": 0}

    def counted(key, fn, members=lambda *a: 1):
        def wrapper(*args, **kwargs):
            counts[key] += members(*args)
            return fn(*args, **kwargs)
        return wrapper

    def stack_size(m, *_):
        m = np.asarray(m)
        return m.size // (m.shape[-1] ** 2)

    monkeypatch.setattr(hermitian, "_eigh2", counted("closed_form", hermitian._eigh2, stack_size))
    monkeypatch.setattr(np.linalg, "eigh", counted("lapack", np.linalg.eigh, stack_size))
    eigh = counted("eigh", hermitian.eigh)
    for module in (hermitian, frechet, certify):
        monkeypatch.setattr(module, "eigh", eigh)
    monkeypatch.setattr(certify, "pd_from_draw", counted("pd_from_draw", certify.pd_from_draw))
    outcomes, _ = run_suite(lookup("tlogt"), "all", TestConfig(seed=42, samples=200))
    assert {o.verdict for o in outcomes} == {PASS}
    assert counts == {"closed_form": 6810, "lapack": 7190, "eigh": 135, "pd_from_draw": 61}


def test_a_grid_point_where_f2_is_not_finite_counts_as_undefined():
    # f'' of -(t^256) overflows to -inf past t=12.6: those grid points are
    # skipped, as a sampled trial whose margin is not finite is, so the
    # precheck refutes f next to its most negative finite f'' (the overflow,
    # and the NaN margins of the points past it, are the point here)
    f = parse("-(t^128*t^128)").as_function()
    with np.errstate(over="ignore", invalid="ignore"):
        (out,), _ = run_suite(f, "principle1", TestConfig(seed=42, samples=10))
        assert reverify_counterexample(f, out.counterexample) == out.min_margin
    assert (out.verdict, out.trials_run, out.trials_skipped, out.min_margin) == (FAIL, 1, 0, -0.5)
    assert out.detail.startswith("scalar convexity fails near t=12.5893 (f''=-1.640e+284)")


def test_function_undefined_on_the_scalar_grid_is_skipped():
    f = parse("log(t-200)").as_function()
    (out,), _ = run_suite(f, "principle1", TestConfig(seed=1, samples=2))
    assert (out.verdict, out.trials_run, out.trials_skipped) == (SKIPPED, 0, 41)
    assert out.detail == "function undefined on the scalar test grid"


def test_gain_reverification_rejects_singular_channel_outputs():
    # the replacement channel K0 = |0><0|, K1 = |0><1| sends every state to |0><0|
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    k1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rng = np.random.default_rng(4)
    payload = {
        "kind": "gain",
        "channel": channel_to_json(KrausChannel(in_dim=2, out_dim=2, kraus=(k0, k1))),
        "x": matrix_to_json(random_pd(2, CFG.eig_range, rng)),
        "y": matrix_to_json(random_pd(2, CFG.eig_range, rng)),
    }
    with pytest.raises(DomainError, match="channel output too singular for neglog"):
        reverify_counterexample(lookup("neglog"), payload)
    assert np.isfinite(reverify_counterexample(lookup("tlogt"), payload))


# The built trial stacks of a config are kept for the next function measured
# under it (certify._kept_stacks).  A test starts with none kept (conftest).

def _battery_functions():
    return [*registry(), parse("t*log(t)").as_function(0.0), parse("-log(t)").as_function()]


@pytest.mark.parametrize("seed", [0, 3, 42])
def test_kept_stacks_give_the_outcomes_of_fresh_ones(seed):
    import entrocert.certify as certify

    cfg = TestConfig(seed=seed, samples=10)

    def run(f):
        recorder = []
        outcomes, fit = run_suite(f, "all", cfg, recorder)
        # repr tells -0.0 from 0.0 and compares NaN; outcomes hold the witnesses
        return repr((outcomes, fit, recorder))

    cold = []
    for f in _battery_functions():
        certify._KEPT.clear()
        cold.append(run(f))
    # the last cold run leaves its stacks kept: every warm run reuses them
    assert certify._KEPT
    assert [run(f) for f in _battery_functions()] == cold


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize(
    "warm, bound",
    [(False, None), (True, None), (True, 1 << 16)],
    ids=["cold", "warm", "warm-64KiB"],
)
def test_all_equals_its_tokens(monkeypatch, seed, warm, bound):
    # an `all` run measures every suite in batches; each token measures its
    # own suites.  Outcomes, witnesses, fit and recorder rows are the same,
    # run cold (nothing kept, no precheck) or warm, in one batch or, under a
    # 64 KiB bound, in several, on functions that certify, that are refuted,
    # and that leave their domain on part of a grid (-log(5-t) on g's check
    # grid too)
    import entrocert.certify as certify
    from entrocert.certify import SUITE_TOKENS

    if bound is not None:
        monkeypatch.setattr(certify, "_CHUNK_BYTES", bound)
    cfg = TestConfig(seed=seed, samples=10)
    texts = ("-log(5-t)", "log(t-0.002)*t", "1/(7-t)")
    tokens = [token for token in SUITE_TOKENS if token not in ("all", "uniqueness")]

    def run(f, token):
        if not warm:
            certify._KEPT.clear()
            certify._REBUILT.clear()
            certify._PRECHECKED[:] = None, None, None
        recorder = []
        outcomes, fit = run_suite(f, token, cfg, recorder)
        # repr tells -0.0 from 0.0 and compares NaN; outcomes hold the witnesses
        return {o.name: repr(o) for o in outcomes}, repr(fit), recorder

    if warm:
        run_suite(lookup("tlogt"), "all", cfg)
    for f in [*_battery_functions(), *(parse(text).as_function() for text in texts)]:
        outcomes, fit, recorder = run(f, "all")
        suites, rows = {}, []
        for token in tokens:
            got, token_fit, token_rows = run(f, token)
            assert token_fit == "None"
            suites.update(got)
            rows += token_rows
        names = list(outcomes)[:-1]
        assert list(outcomes.items())[:-1] == [(name, suites[name]) for name in names], f.name
        assert sorted(suites) == sorted(names)
        # in report order; a stable sort keeps each suite's rows in their order
        assert recorder == sorted(rows, key=lambda row: names.index(row[0])), f.name
        # the pipeline's stages are their suites' outcomes, up to the first that does not PASS
        stages, stages_fit, stage_rows = run(f, "uniqueness")
        assert stages.pop("uniqueness") == outcomes["uniqueness"] and stages_fit == fit, f.name
        assert stages == {name: suites[name] for name in stages}
        assert stage_rows == [row for row in recorder if row[0] in stages]


def _count_draws(monkeypatch):
    """Count the PD builds, the trial streams (one Generator state per trial) and the
    decompositions (closed form or LAPACK, each call on a stack) a run makes."""
    import entrocert.certify as certify
    import entrocert.hermitian as hermitian

    counts = {"pd_from_draw": 0, "streams": 0, "decompositions": 0}
    build, streams, decompose = certify.pd_from_draw, certify._trial_streams, hermitian._decompose

    def counted_build(*args):
        counts["pd_from_draw"] += 1
        return build(*args)

    def counted_streams(*args):
        for rng in streams(*args):
            counts["streams"] += 1
            yield rng

    def counted_decompose(m):
        counts["decompositions"] += 1
        return decompose(m)

    monkeypatch.setattr(certify, "pd_from_draw", counted_build)
    monkeypatch.setattr(certify, "_trial_streams", counted_streams)
    monkeypatch.setattr(hermitian, "_decompose", counted_decompose)
    return counts


def test_second_function_draws_only_its_witness_trials(monkeypatch):
    import entrocert.certify as certify

    counts = _count_draws(monkeypatch)
    cfg = TestConfig(seed=8, samples=10)
    run_suite(lookup("tlogt"), "all", cfg)
    assert min(counts.values()) > 0
    counts.update(dict.fromkeys(counts, 0))
    # the kept stacks hold derived data, not payloads: a sampled FAIL draws
    # and builds its one trial again for its witness, and nothing is
    # decomposed, since the derived data hold the checked spectra and
    # neglog's expected failures start no derived-Hessian search
    outcomes, _ = run_suite(lookup("neglog"), "all", cfg)
    fails = {o.name: o.counterexample["kind"] for o in outcomes if o.verdict == FAIL}
    assert fails == {
        "matrix-entropy": "matrix-entropy", "gain": "gain",
        "gap-concavity": "gap-concavity", "uniqueness": "matrix-entropy",
    }
    # matrix-entropy's witness is a trial of scalar states, which no PD build makes
    assert counts == {"pd_from_draw": 1, "streams": 2, "decompositions": 0}
    # each witness is its suite's most violating trial
    assert [key[1:] for key in certify._REBUILT] == [("matrix-entropy/dim2", 3), ("gain", 12)]
    # a repeat reads the rebuilt payloads it kept
    counts.update(dict.fromkeys(counts, 0))
    assert run_suite(lookup("neglog"), "all", cfg)[0] == outcomes
    assert counts == {"pd_from_draw": 0, "streams": 0, "decompositions": 0}


@pytest.mark.parametrize(
    "change",
    [{"tol": 1e-7}, {"eig_range": (0.2, 5.0)}, {"bipartite": ((2, 2), (2, 3))}, {"samples": 11}],
    ids=["tol", "eig_range", "bipartite", "samples"],
)
def test_another_config_reuses_nothing(monkeypatch, change):
    counts = _count_draws(monkeypatch)
    base = TestConfig(seed=8, samples=10)
    test_entropic(lookup("tlogt"), base)
    for cfg in (TestConfig(**{**base.as_dict(), **change}), base):
        counts.update(dict.fromkeys(counts, 0))
        assert test_entropic(lookup("tlogt"), cfg).verdict == PASS
        # the base config redraws too: the switch dropped its stacks
        assert counts["pd_from_draw"] > 0 and counts["streams"] == cfg.samples * len(cfg.bipartite)


def test_kept_stacks_stay_within_the_kept_bound():
    import entrocert.certify as certify

    run_suite(lookup("tlogt"), "all", TestConfig(seed=42, samples=200))
    # the plan sets of all 9 sampled suites fit as derived data
    assert 0 < certify._held_bytes() <= certify._KEPT_BYTES
    kept = sorted(plans[0][0].split("/")[0] for _, plans in certify._KEPT)
    assert kept == [
        "condition13", "entropic", "equivalence", "gain", "matrix-entropy", "principle1",
        "subentropic-k2", "subentropic-k3", "subentropic-k4",
    ]
    # no payload matrix or channel is kept: only the trial indices, the
    # dimension and what each property derived (its spectra, layouts and
    # weights), and no witness was rebuilt
    matrices = {
        name for prop in certify._PROPERTIES.values() for name, codec in prop.fields
        if codec in (certify._MAT, certify._MATS, certify._CHANNEL)
    }
    for stack in _kept_entries():
        assert stack.idx.ndim == 1 and stack.dim in (2, 3, 4, 6)
        assert not matrices & {key for D in stack.derived.values() for key in D}
    assert not certify._REBUILT


def _kept_entries():
    import entrocert.certify as certify

    return [stack for stacks in certify._KEPT.values() for stack in stacks]


def test_kept_plan_sets_are_recut_by_their_working_set(monkeypatch):
    import entrocert.certify as certify

    cfg = TestConfig(seed=42, samples=200)
    # the stacks as built, kept as they are
    with monkeypatch.context() as m:
        m.setattr(certify, "_coalesced", lambda kept: kept)
        run_suite(lookup("tlogt"), "all", cfg)
    built, held = _kept_entries(), certify._held_bytes()
    certify._KEPT.clear()
    run_suite(lookup("tlogt"), "all", cfg)
    merged = _kept_entries()
    assert len(built) == 80 and len(merged) <= 40
    assert certify._held_bytes() == held
    built_trials = {(s.plan.stream, tuple(np.sort(s.idx))) for s in built}
    for stack in merged:
        assert np.all(np.diff(stack.idx) > 0)
        assert all(a.shape[0] == stack.idx.size for a in stack.arrays())
        assert (
            stack.working_set() <= certify._CHUNK_BYTES
            or (stack.plan.stream, tuple(stack.idx)) in built_trials
        )
    # the same trials of each stream, each once
    assert sorted(
        (s.plan.stream, int(i)) for s in merged for i in s.idx
    ) == sorted((s.plan.stream, int(i)) for s in built for i in s.idx)
    # one-trial chunks stay one-trial stacks
    monkeypatch.setattr(certify, "_CHUNK_BYTES", 1)
    certify._KEPT.clear()
    run_suite(lookup("tlogt"), "all", TestConfig(seed=42, samples=10))
    assert _kept_entries() and all(s.idx.size == 1 for s in _kept_entries())


@pytest.mark.parametrize(
    "suites, cfg, streams",
    [
        (("all",), TestConfig(seed=42, samples=200), {"condition13", "subentropic-k4"}),
        (
            ("condition13", "equivalence"), TestConfig(seed=42, samples=100, dims=(6, 8)),
            {"condition13", "equivalence"},
        ),
        (
            ("subentropic",), TestConfig(seed=42, samples=100, dims=(6, 8)),
            {"subentropic-k2", "subentropic-k3", "subentropic-k4"},
        ),
        (
            ("principle1", "entropic"), TestConfig(seed=42, samples=1000, dims=(8,)),
            {"principle1", "entropic"},
        ),
    ],
    ids=["all-200", "superoperators-dims-6-8", "subentropic-dims-6-8", "traces-dim-8-1000"],
)
def test_kept_stacks_stay_within_the_chunk_bound(suites, cfg, streams):
    # a kept stack of several trials was merged under _CHUNK_BYTES of
    # estimated working memory (certify._coalesced): its arrays and the
    # traced peak of measuring it stay within that bound.  A built stack of
    # one trial is never cut, whatever its size (condition13 and equivalence
    # at dim 8).  The subentropic and trace margins hold no superoperators:
    # their temporaries are counted on the stack's arrays, by a figure per
    # property (the trace margins' is the larger)
    import tracemalloc

    import entrocert.certify as certify

    f = lookup("tlogt")
    for suite in suites:
        run_suite(f, suite, cfg)
    merged = [stack for stack in _kept_entries() if stack.idx.size > 1]
    assert {stack.plan.stream.split("/")[0] for stack in merged} >= streams
    tracemalloc.start()
    try:
        for stack in merged:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            measured = [  # as _drive measures them, one property after another
                certify._measure(f, [(prop, stack.idx.size, stack.derived[prop.kind])])
                for prop in stack.plan.props
            ]
            peak = tracemalloc.get_traced_memory()[1] - start
            held = sum(a.nbytes for a in stack.arrays())
            assert held + peak <= certify._CHUNK_BYTES, (stack.plan.stream, stack.idx.size)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("suite, eig_range", [("all", (0.1, 10.0)), ("gain", (1e-9, 1e-6))])
def test_recut_stacks_give_the_outcomes_of_built_ones(monkeypatch, suite, eig_range):
    # on states this small, some channel outputs of gain fall below the rank
    # floor of neglog and -log(t): a merged stack that holds one is measured
    # one trial at a time, and every trial reads as it did in its built stack
    import entrocert.certify as certify

    cfg = TestConfig(seed=42, samples=200, eig_range=eig_range)
    functions = [lookup(name) for name in ("tlogt", "power:1.5", "neglog")]
    functions.append(parse("-log(t)").as_function())

    def run(f):
        recorder = []
        outcomes, fit = run_suite(f, suite, cfg, recorder)
        return repr((outcomes, fit, recorder))

    def cold():
        out = []
        for f in functions:
            certify._KEPT.clear()
            certify._REBUILT.clear()
            out.append(run(f))
        return out

    with monkeypatch.context() as m:
        m.setattr(certify, "_coalesced", lambda kept: kept)
        built = cold()
        built_stacks = len(_kept_entries())
    assert cold() == built
    # the last cold run leaves its plan sets kept, merged: every warm run reads them
    assert len(_kept_entries()) <= built_stacks // 2
    assert [run(f) for f in functions] == built
    if suite == "gain":
        # tlogt, with its zero extension, skips none of the trials that neglog skips
        assert "trials_skipped=0" in built[0] and "trials_skipped=0" not in built[2]


def test_a_witness_past_the_kept_bound_is_rebuilt_and_not_kept(monkeypatch):
    # with no room to keep anything, a FAIL's witness trial is drawn and
    # built alone all the same, and not kept
    import entrocert.certify as certify

    cfg = TestConfig(seed=8, samples=10)
    kept, _ = run_suite(lookup("neglog"), "gain", cfg)
    assert kept[0].verdict == FAIL and certify._REBUILT
    certify._KEPT.clear()
    certify._REBUILT.clear()
    monkeypatch.setattr(certify, "_KEPT_BYTES", 0)
    assert run_suite(lookup("neglog"), "gain", cfg)[0] == kept
    assert not certify._REBUILT and not certify._KEPT


def test_kept_arrays_are_read_only():
    import entrocert.certify as certify

    cfg = TestConfig(seed=2, samples=5, dims=(2,))
    run_suite(lookup("tlogt"), "principle1", cfg)
    (stacks,) = certify._KEPT.values()
    arrays = []
    for stack in stacks:
        # the derived spectra are kept, not the payload fields
        assert stack.dim == 2 and set(stack.derived) == {"principle1"}
        assert set(stack.derived["principle1"]) == {"spectra", "spectra.clamp"}
        arrays += stack.arrays()
    # and so is a payload rebuilt for a kept stack
    cols = (certify._pd_col("x", 2, cfg.eig_range), certify._pd_col("y", 2, cfg.eig_range))
    plans = [certify._Plan("principle1/dim2", cfg.samples, (certify._PRINCIPLE1,), {None: cols})]
    payload = certify._trial_fields(cfg, next(certify._kept_stacks(cfg, plans))[0], 4)
    assert set(payload) == {"x", "y"} and len(certify._REBUILT) == 1
    for a in [*arrays, *payload.values()]:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def test_search_stacks_keep_the_condition13_derive():
    import entrocert.certify as certify

    # the derived-Hessian search's rows are condition13 payloads: its stacks
    # are kept derived, like a suite's, and a second search reuses them
    cfg = TestConfig(seed=2, samples=5)
    assert _derived_hessian_witness(lookup("tlogt"), cfg, 2) is None
    kept = dict(certify._KEPT)
    assert len(kept) == len(cfg.dims)
    for stacks in kept.values():
        for stack in stacks:
            # trial indices, dim and derived data: no payload fields
            assert isinstance(stack, certify._Stack) and set(stack.derived) == {"condition13"}
    assert _derived_hessian_witness(lookup("tlogt"), cfg, 2) is None
    assert certify._KEPT.keys() == kept.keys()
    assert all(certify._KEPT[key] is stacks for key, stacks in kept.items())


@pytest.mark.parametrize(
    "bounds", [{}, {"_CHUNK_BYTES": 1}, {"_KEPT_BYTES": 0}],
    ids=["stacked", "one-trial-chunks", "nothing-kept"],
)
def test_per_trial_fallback_reads_the_kept_derived_data(monkeypatch, bounds):
    # affine's differential is singular on every stack of condition13 and
    # equivalence, and on states this small some channel outputs of gain
    # fall below the rank floor of neglog and -log(t): those stacks are
    # measured again one trial at a time, from trial slices of the derived data
    import entrocert.certify as certify

    for name, value in bounds.items():
        monkeypatch.setattr(certify, name, value)
    cfg = TestConfig(seed=42, samples=10)
    small = TestConfig(seed=42, samples=10, eig_range=(1e-9, 1e-6))
    runs = [
        (lookup("affine"), "condition13", cfg), (lookup("affine"), "equivalence", cfg),
        (lookup("neglog"), "gain", small), (parse("-log(t)").as_function(), "gain", small),
    ]

    def run(f, suite, cfg):
        recorder = []
        outcomes, _ = run_suite(f, suite, cfg, recorder)
        return outcomes[0], repr((outcomes, recorder))

    cold = []
    for f, suite, cfg in runs:
        certify._KEPT.clear()
        cold.append(run(f, suite, cfg)[1])
    counts, warm = _count_draws(monkeypatch), []
    for f, suite, cfg in runs:
        run_suite(lookup("tlogt"), suite, cfg)  # derives (and, in budget, keeps) every stack
        counts["decompositions"] = 0
        warm.append(run(f, suite, cfg))
        # with no room to keep anything, every stack is derived again
        assert (counts["decompositions"] == 0) == ("_KEPT_BYTES" not in bounds)
    assert [r for _, r in warm] == cold
    for out, _ in warm[:2]:
        assert (out.verdict, out.trials_run, out.trials_skipped) == (SKIPPED, 0, 20)
        assert out.detail.startswith("differential of d(affine) is not invertible")
    for out, _ in warm[2:]:
        assert (out.trials_run, out.trials_skipped) == (13, 7)


def test_abandoned_iteration_keeps_nothing():
    import entrocert.certify as certify

    cfg = TestConfig(seed=2, samples=5)
    cols = (certify._pd_col("x", 2, cfg.eig_range), certify._pd_col("y", 2, cfg.eig_range))
    plans = [certify._Plan("principle1/dim2", cfg.samples, (certify._PRINCIPLE1,), {None: cols})]
    stacks = certify._kept_stacks(cfg, plans)
    next(stacks)
    stacks.close()
    assert not certify._KEPT
    assert len(list(certify._kept_stacks(cfg, plans))) == 1 and len(certify._KEPT) == 1
    # the derived-Hessian search finds its witness in its dim-2 stacks, but
    # reads that plan set to its end first, so the set is kept
    certify._KEPT.clear()
    cfg = TestConfig(seed=42, samples=10)
    assert _derived_hessian_witness(lookup("power:1.25"), cfg, 3)[2] == 2
    assert [plans for _, plans in certify._KEPT] == [(("subentropic-escalation/k3/dim2", 12),)]


# A margin applies f once: its derive keeps every f-independent factor (the
# divided-difference layout, the pairing weights, the zero-clamp masks), and
# the margin evaluates f at all of its points in one call.

def _coincident_stack():
    """Order-2 subentropic Hessian trials whose states repeat eigenvalues exactly or nearly.

    Identity-class and diagonal states repeat exactly; rotated states have
    eigenvalues at a relative gap of 1e-7, where the midpoint rule serves.
    """
    rng = np.random.default_rng(17)
    n = 3

    def rotated(lam):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        m = (q * np.asarray(lam)) @ q.conj().T
        return (m + m.conj().T) / 2.0

    eye = np.eye(n, dtype=complex)
    near = [1.0, 1.0 + 1e-7, 2.5]
    rhos = np.array([
        [2.0 * eye, np.diag([1.0, 1.0, 3.0]).astype(complex)],
        [rotated(near), rotated([0.5, 0.5 * (1.0 + 1e-7), 4.0])],
        [0.7 * eye, rotated(near)],
        [np.diag([2.0, 2.0 * (1.0 + 1e-7), 2.0]).astype(complex), 3.0 * eye],
    ])
    hs = rng.standard_normal((*rhos.shape, 2)) @ np.array([1.0, 1j])
    return rhos, (hs + np.swapaxes(hs, -1, -2).conj()) / 2.0


@pytest.mark.parametrize("name", ["tlogt", "square", "power:1.5", "neglog", "exp"])
def test_kept_pairings_match_the_superoperator_and_second_diff_G(name):
    import entrocert.certify as certify
    from entrocert.frechet import frechet_superoperator, second_diff_G

    f = lookup(name)
    fp = f.derivative()
    rhos, hs = _coincident_stack()
    D = certify._SUB_HESSIAN.derive({"rhos": rhos, "hs": hs})
    # the stack has exact repeats beyond the diagonals, and near pairs
    assert (D["rhos.same"].sum() + D["sums.same"].sum()) > rhos.shape[0] * 3 * 3
    assert "rhos.near" in D and "sums.near" in D
    at_rhos, at_sums = certify._kernel_values(f, certify._SUB_HESSIAN.reads.points(D))
    single = certify._weighted(at_rhos, D["rhos.weights"])
    joint = certify._weighted(at_sums, D["sums.weights"])

    def close(kept, oracle, scale):
        return abs(kept - oracle) <= 1e-13 * scale

    for i in range(rhos.shape[0]):
        for j in range(rhos.shape[1]):
            q = frechet_superoperator(fp, rhos[i, j]).quadratic_form(hs[i, j])
            assert close(single[i, j], q, abs(q)), (i, j)
        q = frechet_superoperator(fp, rhos[i].sum(axis=0)).quadratic_form(hs[i].sum(axis=0))
        assert close(joint[i], q, abs(q)), i
        scale = np.abs(single[i]).sum() + abs(joint[i])
        assert close(single[i].sum() - joint[i], second_diff_G(f, rhos[i], hs[i]), scale), i


def _counting(f):
    """f with a taylor that records the points of every call."""
    from entrocert.functions import ScalarFunction

    calls = []

    def taylor(t):
        calls.append(np.array(t, dtype=float))
        return f.taylor(t)

    return ScalarFunction(f.name, taylor, f.zero_extension, f.expression), calls


def test_every_margin_evaluates_f_once(monkeypatch):
    # a margin reads f through its property's reading, whose one evaluation
    # serves every stack and property measured with it (certify._readings);
    # no margin evaluates anything itself, the uniqueness fit's included, and
    # the grid scans of the precheck and of the gap suites read f alike
    import entrocert.certify as certify

    measure, readings, counts = certify._measure, certify._readings, {}
    read = []

    def counted_readings(f, runs):
        before = len(calls)
        out = readings(f, runs)
        read.append(len(calls) - before)
        for prop, *_ in runs:
            counts.setdefault(("reads", prop.kind), set()).add(read[-1])
        return out

    def counted_measure(f, jobs):
        before, read[:] = len(calls), []
        out = measure(f, jobs)
        for prop, *_ in jobs:  # what the margins evaluated besides their readings
            counts.setdefault(("margin", prop.kind), set()).add(len(calls) - before - sum(read))
        return out

    monkeypatch.setattr(certify, "_readings", counted_readings)
    monkeypatch.setattr(certify, "_measure", counted_measure)
    # every property's margin runs on tlogt, the fit's on re-verification
    f, calls = _counting(lookup("tlogt"))
    run_suite(f, "all", TestConfig(seed=5, samples=6))
    reverify_counterexample(f, {"kind": "uniqueness-fit"})
    # a concave f is refuted by the scalar convexity precheck
    f, calls = _counting(parse("sqrt(t)").as_function(0.0))
    assert run_suite(f, "principle1", TestConfig(seed=5, samples=6))[0][0].verdict == FAIL
    kinds = {*certify._PROPERTIES, "scalar-grid", "gap-grid"}
    assert {kind for _, kind in counts} == kinds
    assert all(seen == {int(step == "reads")} for (step, _), seen in counts.items()), counts


def test_every_evaluation_of_f_is_a_reading(monkeypatch):
    # certify evaluates f through _readings alone: the margins, the scans of
    # the precheck and the gap grid, the uniqueness fit and the
    # derived-Hessian search, on functions that certify, that are refuted,
    # and that leave their domain on part of a grid or on g's check grid
    import entrocert.certify as certify
    from entrocert.functions import DegenerateFunctionError, ScalarFunction

    readings, series, depth, outside = certify._readings, ScalarFunction._series, [0], []

    def reading(f, runs):
        depth[0] += 1
        try:
            return readings(f, runs)
        finally:
            depth[0] -= 1

    def counted(self, t, top):
        if not depth[0]:
            outside.append((self.name, top))
        return series(self, t, top)

    monkeypatch.setattr(certify, "_readings", reading)
    monkeypatch.setattr(ScalarFunction, "_series", counted)
    texts = ("-log(5-t)", "log(t-0.002)*t", "1/(7-t)", "t*log(t) - 0.001*t^2")
    for f in [*_battery_functions(), *(parse(text).as_function() for text in texts)]:
        outcomes, _ = run_suite(f, "all", TestConfig(seed=42, samples=10))
        for o in outcomes:
            if o.verdict == FAIL:
                reverify_counterexample(f, o.counterexample)
        try:
            reverify_counterexample(f, {"kind": "uniqueness-fit"})
        except (DomainError, DegenerateFunctionError):
            pass
        run_suite(f, "uniqueness", TestConfig(seed=1, samples=20, tol=0.5))
    assert outside == []


def _battery_series_calls(monkeypatch, f, cfg):
    """The series orders f is evaluated at by a warm run_suite(f, "all", cfg), as a Counter.

    A call counts under "batch" when a batch of _drive measures it, under
    "scan" when the gap-grid scan makes it, under "search" when the
    derived-Hessian search does, and under None elsewhere.  Also returns
    the number of batches and of gap-grid scans.
    """
    import collections

    import entrocert.certify as certify
    from entrocert.functions import ScalarFunction

    run_suite(f, "all", cfg)
    calls, runs, where = collections.Counter(), collections.Counter(), [None]
    series = ScalarFunction._series

    def counted(self, t, top):
        calls[where[0], top] += 1
        return series(self, t, top)

    def within(name, run):
        def wrapped(*args, **kwargs):
            runs[name] += 1
            outer, where[0] = where[0], name
            try:
                return run(*args, **kwargs)
            finally:
                where[0] = outer
        return wrapped

    monkeypatch.setattr(ScalarFunction, "_series", counted)
    for name, entry in (
        ("batch", "_measure_batch"),
        ("scan", "_defined_gap_grid"),
        ("search", "_derived_hessian_witness"),
    ):
        monkeypatch.setattr(certify, entry, within(name, getattr(certify, entry)))
    run_suite(f, "all", cfg)
    return calls, runs["batch"], runs["scan"]


@pytest.mark.parametrize("f", _battery_functions(), ids=lambda f: f.name)
def test_a_warm_suite_evaluates_f_once_per_series_order(monkeypatch, f):
    # an `all` run measures its suites' kept plan sets and grid plans in
    # batches: each batch evaluates f's series once per order its reading
    # kinds read, whatever its suites and stacks.  At samples 10 every list
    # fits one batch.  A trial-by-trial fallback is one more evaluation
    # (affine's differential is singular on every trial), and the two gap
    # suites share one evaluation of the grid to find where g is defined
    calls, batches, scans = _battery_series_calls(monkeypatch, f, TestConfig(seed=42, samples=10))
    assert (batches, scans) == (1, 1)
    want = {("batch", 0): 1, ("batch", 1): 1, ("batch", 2): 1, ("scan", 2): 1}
    if f.name == "affine":
        want["batch", 1] = 2
        # its one evaluation of the grid finds it degenerate: both gap suites are SKIPPED
        del want["batch", 2]
    # outside the batches and the scan: the uniqueness fit, and the
    # precheck's grid for a function with a zero extension (an exact zero
    # checks it once more); the derived-Hessian search counts apart
    got = {key: n for key, n in calls.items() if key[0] in ("batch", "scan")}
    assert got == want


def _all_close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= 1e-12 * scale))


@pytest.mark.parametrize(
    "f",
    # and two functions whose spectra leave their domain: their joined
    # evaluations fail, and every stack falls back to its trials
    [*_battery_functions(), parse("-log(5-t)").as_function(), parse("-sqrt(6-t)").as_function()],
    ids=lambda f: f.name,
)
def test_joined_margins_equal_one_trial_margins(f):
    # each kept plan set measured whole, from one evaluation of f per
    # reading, gives every trial the skip, margin, scale and extras of that
    # trial measured alone, as a stack of one
    import entrocert.certify as certify

    cfg = TestConfig(seed=42, samples=10)
    run_suite(f, "all", cfg)
    assert len(certify._KEPT) >= 9  # and the derived-Hessian search's, where it ran
    for stacks in certify._KEPT.values():
        for c in range(len(stacks[0].plan.props)):
            jobs = [(s.plan.props[c], s.idx.size, s.derived[s.plan.props[c].kind]) for s in stacks]
            res, j = certify._measure(f, jobs), 0
            for prop, size, D in jobs:
                for i in range(size):
                    alone = certify._measure(f, [(prop, 1, certify._trial(D, i))])
                    assert repr(res.notes[j]) == repr(alone.notes[0])
                    if alone.notes[0] is None:
                        assert _all_close(res.margins[j], alone.margins[0])
                        assert _all_close(res.scales[j], alone.scales[0])
                        want = alone.extra(0)
                        assert res.extra(j).keys() == want.keys()
                        for key, value in res.extra(j).items():
                            assert _all_close(value, want[key]), key
                    else:
                        assert np.isnan(res.margins[j])
                    j += 1


@pytest.mark.parametrize("name", ["condition13", "equivalence"])
def test_a_singular_differential_skips_every_trial_with_its_note(name):
    # affine's f' is constant: every trial's differential is singular, so
    # each kept stack falls back to its trials, and each is skipped
    out = run_suite(lookup("affine"), name, TestConfig(seed=42, samples=10))[0][0]
    assert out == TestOutcome(
        name, "affine", SKIPPED, None, 0, 20, None,
        "differential of d(affine) is not invertible as a positive operator: "
        "smallest divided difference 0.000e+00 <= 1e-12",
    )


def test_gain_skips_only_the_singular_trials_of_a_stack():
    # neglog has no zero extension, and on states this small 143 of 400
    # channel outputs fall below the rank floor.  Their trials are skipped
    # inside their stack, with the error that measuring one alone raises,
    # and left out of its evaluation; the outcome, and the witness bit for
    # bit, are those of measuring each trial of such a stack alone
    import hashlib
    import json

    import entrocert.certify as certify

    f, cfg = lookup("neglog"), TestConfig(seed=42, samples=200, eig_range=(1e-9, 1e-6))
    out = test_entropy_gain_convexity(f, cfg)
    assert (out.verdict, out.trials_run, out.trials_skipped, out.detail) == (FAIL, 257, 143, "")
    assert _close(out.min_margin, -0.1448892520002983)
    witness = dict(out.counterexample)
    assert witness.pop("margin") == out.min_margin  # the strongest violation is the witness
    assert hashlib.sha256(json.dumps(witness).encode()).hexdigest() == (
        "632693e9b1616af2f62531170ea70bc57b134d501fa290cf2ae9d9bc1f262660"
    )
    notes = {}
    for stack in _kept_entries():
        res = certify._measure(f, [(certify._GAIN, stack.idx.size, stack.derived["gain"])])
        notes.update(zip(stack.idx.tolist(), res.notes))
    skipped = sorted(i for i, note in notes.items() if note is not None)
    assert len(skipped) == 143 and skipped[0] == 3
    assert repr(notes[3]) == repr(DomainError("channel output too singular for neglog"))
    # where every output is singular, that error is the outcome's detail
    out = test_entropy_gain_convexity(f, TestConfig(seed=42, samples=10, eig_range=(1e-12, 1e-11)))
    assert out == TestOutcome(
        "gain", "neglog", SKIPPED, None, 0, 20, None, "channel output too singular for neglog"
    )


def test_precheck_grid_is_evaluated_once_per_function():
    from entrocert.certify import _SCALAR_GRID

    def grid_calls(calls):
        return sum(t.shape == _SCALAR_GRID.shape and np.array_equal(t, _SCALAR_GRID) for t in calls)

    cfg = TestConfig(seed=5, samples=4)
    f, calls = _counting(lookup("square"))
    outcomes, _ = run_suite(f, "all", cfg)
    assert len(outcomes) == 12 and grid_calls(calls) == 1
    # it is kept for the function object itself: an equal function (equality
    # ignores taylor) checks again, and so does another tol
    g, g_calls = _counting(lookup("square"))
    assert g == f
    run_suite(g, "principle1", cfg)
    run_suite(g, "principle1", TestConfig(seed=5, samples=4, tol=1e-7))
    assert grid_calls(g_calls) == 2
