import numpy as np
import pytest

from entrocert.certify import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    SKIPPED,
    TestConfig,
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
    # the first violating trial is unchanged, so the dumped witness is too
    assert small.counterexample == large.counterexample


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
        "h1": matrix_to_json(h),
        "h2": matrix_to_json(h),
    }
    # square: superoperator margin and Hessian margin are both negative
    assert reverify_counterexample(lookup("square"), payload) > 0


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
        for plan, idx, P in real(seed, plans):
            sizes.append(idx.size)
            yield plan, idx, P

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


# The suite entry points each run_suite token reaches, in order.
TOKEN_ENTRIES = {
    "principle1": ["test_principle1_concavity"],
    "entropic": ["test_entropic"],
    "subentropic": ["test_subentropic_order_k"] * 3,
    "condition13": ["test_condition13"],
    "equivalence": ["test_equivalence_13_vs_hessian"],
    "matrix-entropy": ["test_matrix_entropy"],
    "gain": ["test_entropy_gain_convexity"],
    "gap": ["test_gap_superadditive", "test_gap_concavity"],
    "uniqueness": [
        "test_principle1_concavity",
        "test_gap_superadditive",
        "test_condition13",
        "test_matrix_entropy",
        "test_entropic",
        "test_gap_concavity",
    ],
    "all": [
        "test_principle1_concavity",
        "test_gap_superadditive",
        "test_condition13",
        "test_equivalence_13_vs_hessian",
        *["test_subentropic_order_k"] * 3,
        "test_matrix_entropy",
        "test_entropic",
        "test_entropy_gain_convexity",
        "test_gap_concavity",
    ],
}
ENTRY_OUTCOMES = {
    "test_principle1_concavity": "principle1",
    "test_entropic": "entropic",
    "test_condition13": "condition13",
    "test_equivalence_13_vs_hessian": "equivalence",
    "test_matrix_entropy": "matrix-entropy",
    "test_entropy_gain_convexity": "gain",
    "test_gap_superadditive": "gap-superadditive",
    "test_gap_concavity": "gap-concavity",
}


def test_run_suite_dispatch(monkeypatch):
    import entrocert.certify as certify
    from entrocert.certify import SUITE_TOKENS, TestOutcome

    calls = []

    def counter(entry):
        def run(f, *args, **kwargs):
            calls.append(entry)
            name = ENTRY_OUTCOMES.get(entry) or f"subentropic:k={args[0]}"
            return TestOutcome(name, f.name, PASS, 0.0, 1)

        return run

    for entry in [*ENTRY_OUTCOMES, "test_subentropic_order_k"]:
        monkeypatch.setattr(certify, entry, counter(entry))
    assert set(TOKEN_ENTRIES) == set(SUITE_TOKENS)
    for token, entries in TOKEN_ENTRIES.items():
        calls.clear()
        outcomes, fit = run_suite(lookup("tlogt"), token, CFG)
        assert calls == entries, token
        assert (fit is not None) == (token in ("all", "uniqueness"))
        if fit is not None:
            assert outcomes[-1].name == "uniqueness" and outcomes[-1].verdict == PASS


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
        "principle1": 2, "gap-superadditive": 3, "condition13": 4, "equivalence": 17,
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
        "principle1": 2, "gap-superadditive": 0, "condition13": 8, "equivalence": 17,
        "subentropic:k=2": 3, "subentropic:k=3": 5, "subentropic:k=4": 6,
        "matrix-entropy": 2, "entropic": 5, "gain": 12, "gap-concavity": 0,
    }
    assert sum(counts.values()) == 60


def test_built_states_are_not_decomposed_again(monkeypatch):
    # Every PD, diagonal and scalar state hands the eigenpairs of its build
    # to eigh, which decomposes only the midpoints, sums, partial traces and
    # channel outputs (and _negative_pairs its superoperators): 14 400 of
    # the 30 400 members that were decomposed when every state was.  The
    # eigh calls and the PD builds stay as many as before.
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
    assert counts == {"closed_form": 6810, "lapack": 7590, "eigh": 135, "pd_from_draw": 60}


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


def _count_draws(monkeypatch):
    """Count the PD builds and the trial streams (one Generator state per trial) a run makes."""
    import entrocert.certify as certify

    counts = {"pd_from_draw": 0, "streams": 0}
    build, streams = certify.pd_from_draw, certify._trial_streams

    def counted_build(*args):
        counts["pd_from_draw"] += 1
        return build(*args)

    def counted_streams(*args):
        for rng in streams(*args):
            counts["streams"] += 1
            yield rng

    monkeypatch.setattr(certify, "pd_from_draw", counted_build)
    monkeypatch.setattr(certify, "_trial_streams", counted_streams)
    return counts


def test_second_function_draws_and_builds_nothing(monkeypatch):
    counts = _count_draws(monkeypatch)
    cfg = TestConfig(seed=8, samples=10)
    run_suite(lookup("tlogt"), "all", cfg)
    assert counts["pd_from_draw"] > 0 and counts["streams"] > 0
    counts.update(dict.fromkeys(counts, 0))
    outcomes, _ = run_suite(lookup("neglog"), "all", cfg)
    assert any(o.verdict != PASS for o in outcomes)
    assert counts == {"pd_from_draw": 0, "streams": 0}


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


def test_kept_stacks_stay_within_the_chunk_budget():
    import entrocert.certify as certify

    run_suite(lookup("tlogt"), "all", TestConfig(seed=42, samples=200))
    # some of the 9 sampled suites' plan sets fit and are kept; the others
    # are drawn afresh each time
    assert 0 < certify._held_bytes() <= certify._CHUNK_BYTES
    assert 0 < len(certify._KEPT) < 9


def test_kept_arrays_are_read_only():
    import entrocert.certify as certify

    run_suite(lookup("tlogt"), "principle1", TestConfig(seed=2, samples=5))
    (stacks,) = certify._KEPT.values()
    for _, idx, P in stacks:
        for a in (idx, *P.values()):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]


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
    # the derived-Hessian search returns from within its dim-2 stacks
    certify._KEPT.clear()
    cfg = TestConfig(seed=42, samples=10)
    assert _derived_hessian_witness(lookup("power:1.25"), cfg, 3)[2] == 2
    assert not certify._KEPT
