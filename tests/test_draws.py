"""Trials draw raw Generator output into column buffers and build their matrices per stack.

The reference below draws and builds one trial at a time, the way the
suites are specified: each trial from its own
``default_rng(SeedSequence([seed, token, index]))``, ``uniform`` for each
spectrum, separate ``standard_normal`` calls for the real and imaginary
parts, complex assembly, QR with the phase fix, ``U diag(lam) U*`` and the
Hermitian part, per matrix.  The stacks of every sampled suite's plans must
equal it bit for bit.
"""

import itertools
import json
import math

import numpy as np
import pytest

import entrocert.certify as certify
from entrocert.certify import TestConfig, reverify_counterexample
from entrocert.expr import lookup, parse, registry
from entrocert.functions import DegenerateFunctionError
from entrocert.hermitian import (
    SpectralDecomposition,
    eigh,
    random_hermitian,
    random_pd,
    random_unitary,
    uniform_from_draw,
)
from entrocert.quantum import partial_trace_channel, random_channel


def ref_herm(a):
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2.0


def ref_gauss(n, rng, cols=None):
    shape = (n, n if cols is None else cols)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return re + 1j * im


def ref_unitary(z):
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def ref_pd(n, eig_range, rng):
    lo, hi = eig_range
    if lo == hi:
        lam = np.full(n, lo)
    else:
        lam = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))
        lam = np.minimum(np.maximum(lam, lo), hi)
    u = ref_unitary(ref_gauss(n, rng))
    return ref_herm((u * lam[None, :]) @ u.conj().T)


def ref_pds(k, n, eig_range, rng):
    return np.stack([ref_pd(n, eig_range, rng) for _ in range(k)])


def ref_hermitians(k, n, rng):
    return np.stack([ref_herm(ref_gauss(n, rng)) for _ in range(k)])


def ref_channel(n, out_d, r, rng):
    """Kraus operators: the stacked (r*out_d) x n isometry split into r blocks."""
    q = ref_unitary(ref_gauss(r * out_d, rng, cols=n))
    return np.stack([q[m * out_d : (m + 1) * out_d, :] for m in range(r)])


def ref_diag(n, eig_range, rng):
    lo, hi = eig_range
    return np.diag(np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))).astype(complex)


def _dim(stream):
    return int(stream.rsplit("dim", 1)[1])


# Each suite's trial, drawn and built one matrix at a time: (cfg, stream, idx, rng) -> fields.

def ref_principle1(cfg, stream, idx, rng):
    n = _dim(stream)
    return {"x": ref_pd(n, cfg.eig_range, rng), "y": ref_pd(n, cfg.eig_range, rng)}


def ref_entropic(cfg, stream, idx, rng):
    d1, d2 = (int(p) for p in stream.split("/")[1].split("x"))
    draw = ref_diag if idx % 4 == 3 else ref_pd
    x = draw(d1 * d2, cfg.eig_range, rng)
    y = draw(d1 * d2, cfg.eig_range, rng)
    return {"dim1": np.asarray(d1), "dim2": np.asarray(d2), "x": x, "y": y}


def ref_subentropic(cfg, stream, idx, rng):
    k, n = int(stream.split("/")[0].split("-k")[1]), _dim(stream)
    out = {name: ref_pds(k, n, cfg.eig_range, rng) for name in ("xs", "ys", "rhos")}
    if idx % 4 == 3:
        out["hs"] = rng.standard_normal(k)[:, None, None] * np.eye(n, dtype=complex)
    else:
        out["hs"] = ref_hermitians(k, n, rng)
    return out


def ref_condition13(cfg, stream, idx, rng):
    lo, hi = cfg.eig_range
    if idx % 10 == 9:
        lo, hi = min(lo, 1e-3), max(hi, 1e3)
    n = _dim(stream)
    return {"rho": ref_pd(n, (lo, hi), rng), "sigma": ref_pd(n, (lo, hi), rng)}


def ref_equivalence(cfg, stream, idx, rng):
    n = _dim(stream)
    rho, sigma = ref_pd(n, cfg.eig_range, rng), ref_pd(n, cfg.eig_range, rng)
    hs = ref_hermitians(2 * certify._EQUIVALENCE_DIRECTIONS, n, rng)
    return {"rho": rho, "sigma": sigma, "h1": hs[0::2], "h2": hs[1::2],
            "band": np.asarray(10.0 * cfg.tol)}


def ref_matrix_entropy(cfg, stream, idx, rng):
    n = _dim(stream)
    if idx % 4 == 3:
        lo, hi = cfg.eig_range
        t0 = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        s0 = t0 * float(rng.standard_normal())
        dt = float(rng.uniform(-0.45, 0.45)) * t0
        ds = float(rng.uniform(-0.45, 0.45)) * (abs(s0) + t0)
        eye = np.eye(n, dtype=complex)
        return {"x1": (t0 - dt) * eye, "h1": (s0 - ds) * eye,
                "x2": (t0 + dt) * eye, "h2": (s0 + ds) * eye}
    x1, x2 = ref_pd(n, cfg.eig_range, rng), ref_pd(n, cfg.eig_range, rng)
    h1, h2 = ref_hermitians(2, n, rng)
    return {"x1": x1, "h1": h1, "x2": x2, "h2": h2}


def ref_gain(cfg, stream, idx, rng):
    if idx % 3 == 2:
        d1, d2 = cfg.bipartite[(idx // 3) % len(cfg.bipartite)]
        kraus = np.stack(partial_trace_channel(d1, d2).kraus)
        draw = ref_diag if idx % 6 == 5 else ref_pd
        x, y = draw(d1 * d2, cfg.eig_range, rng), draw(d1 * d2, cfg.eig_range, rng)
    else:
        n, out_d, r = (int(rng.integers(2, 5)) for _ in range(3))
        # a stack pads every channel with exact zeros to the 4 operators
        # that rng.integers(2, 5) can draw
        kraus = np.zeros((4, out_d, n), dtype=complex)
        kraus[:r] = ref_channel(n, out_d, r, rng)
        x, y = ref_pd(n, cfg.eig_range, rng), ref_pd(n, cfg.eig_range, rng)
    return {"channel": kraus, "x": x, "y": y}


REFERENCE = {
    "principle1": ref_principle1,
    "entropic": ref_entropic,
    **{f"subentropic:k={k}": ref_subentropic for k in certify._SUBENTROPIC_ORDERS},
    "condition13": ref_condition13,
    "equivalence": ref_equivalence,
    "matrix-entropy": ref_matrix_entropy,
    "gain": ref_gain,
}


# The state fields of each sampled suite: PD, diagonal and scalar states.
STATES = {
    "principle1": ("x", "y"),
    "entropic": ("x", "y"),
    **{f"subentropic:k={k}": ("xs", "ys", "rhos") for k in certify._SUBENTROPIC_ORDERS},
    "condition13": ("rho", "sigma"),
    "equivalence": ("rho", "sigma"),
    "matrix-entropy": ("x1", "x2"),
    "gain": ("x", "y"),
}


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b) and (
        a.tobytes() == b.tobytes()
    )


def _suite_plans(monkeypatch, cfg, f):
    """Every suite's plans for f, captured where the suite hands them to _drive."""
    plans = {}

    def capture(name, f, cfg, suite_plans, **kwargs):
        try:
            plans[name] = suite_plans() if callable(suite_plans) else suite_plans
        except DegenerateFunctionError:  # no gap grid: the suite is SKIPPED
            pass

    monkeypatch.setattr(certify, "_drive", capture)
    for row in certify._SUITES:
        row.run(f, cfg, None)
    return plans


def _sampled_plans(monkeypatch, cfg):
    """Every sampled suite's plans."""
    plans = _suite_plans(monkeypatch, cfg, lookup("tlogt"))
    return {name: p for name, p in plans.items() if all(plan.stream for plan in p)}


@pytest.mark.parametrize(
    "cfg",
    [
        TestConfig(seed=7, samples=12),
        # lo == hi draws no spectrum; condition13's stretched trials still do
        TestConfig(seed=3, samples=12, dims=(3,), eig_range=(2.0, 2.0), bipartite=((2, 2),)),
    ],
    ids=["default", "degenerate-range"],
)
def test_stacked_payloads_match_per_trial_reference(monkeypatch, cfg):
    plans = _sampled_plans(monkeypatch, cfg)
    assert sorted(plans) == sorted(REFERENCE)
    compared = 0
    for name, suite_plans in plans.items():
        # a suite numbers its trials across its plans in order
        counts = [plan.count for plan in suite_plans]
        start = dict(zip((plan.stream for plan in suite_plans), itertools.accumulate(counts, initial=0)))
        for plan, _, members, P in certify._suite_stacks(cfg.seed, suite_plans):
            # every state field comes with the eigenpairs of its build, and
            # they pass eigh's residual and orthogonality check against it
            spectra = {key for state in STATES[name] for key in certify._state(state)[1:]}
            for state in STATES[name]:
                known = SpectralDecomposition(*(P[key] for key in certify._state(state)[1:]))
                eigh(P[state], [known])
            for j, i in enumerate(members):
                idx = int(i) - start[plan.stream]
                rng = np.random.default_rng(np.random.SeedSequence(
                    [cfg.seed, certify._stream_token(plan.stream), idx]
                ))
                want = REFERENCE[name](cfg, plan.stream, idx, rng)
                assert P.keys() == want.keys() | spectra
                for field, value in want.items():
                    assert _bitwise_equal(P[field][j], value), (name, plan.stream, idx, field)
                compared += 1
    assert compared == sum(plan.count for p in plans.values() for plan in p)


# The registry and the --expr twins of tlogt and neglog.
FUNCTIONS = {
    **{f.name: f for f in registry()},
    "t*log(t)": parse("t*log(t)").as_function(0.0),
    "-log(t)": parse("-log(t)").as_function(),
}


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_sampled_margins_match_reverification(monkeypatch, name):
    # Sampling derives each stack with the built eigenpairs of its states;
    # re-verifying a payload read from JSON derives it afresh, decomposing
    # every matrix.  Both paths give every trial of every property kind the
    # same margin, to rounding.
    f, cfg = FUNCTIONS[name], TestConfig(seed=5, samples=6)
    kinds = set()
    for plans in _suite_plans(monkeypatch, cfg, f).values():
        for plan, _, members, P in certify._suite_stacks(cfg.seed, plans):
            for prop in plan.props:
                res = certify._measure(prop, f, members.size, prop.derive(P))
                for j in np.flatnonzero(~np.isnan(res.margins)):
                    payload = json.loads(json.dumps(certify._witness(prop, certify._row(P, j), res, j)))
                    margin = res.margins[j]
                    again = reverify_counterexample(f, payload)
                    assert abs(again - margin) <= 1e-12 * max(1.0, abs(margin)), (prop.kind, j)
                kinds.add(prop.kind)
    # the scalar precheck and the uniqueness fit measure no plan, and
    # affine's f'' vanishes, so it has no gap grid
    unmeasured = {"scalar-convexity", "uniqueness-fit"}
    if name == "affine":
        unmeasured |= {"gap-superadditive", "gap-monotone", "gap-zero", "gap-concavity"}
    assert kinds == set(certify._PROPERTIES) - unmeasured


@pytest.mark.parametrize("seed", [0, 3, 42])
def test_rebuilt_payloads_write_the_witnesses_of_fresh_stacks(monkeypatch, seed):
    # No stack holds payload fields: a witness reads its trial's through
    # certify._trial_fields, which draws and builds that trial alone.  They
    # equal the built rows of every trial bit for bit, on fresh stacks and
    # on kept (merged) ones, and every trial's witness, for every sampled
    # property kind and function, is written byte for byte as from its
    # built stack.
    cfg = TestConfig(seed=seed, samples=10)
    plans = _sampled_plans(monkeypatch, cfg)

    def built(suite_plans):
        rows, out = {}, []
        for plan, _, members, P in certify._suite_stacks(cfg.seed, suite_plans):
            names = {name for prop in plan.props for name, _ in prop.fields}
            for j, i in enumerate(members.tolist()):
                rows[plan.stream, i] = {k: v[j] for k, v in P.items() if k in names}
            for prop, f in itertools.product(plan.props, FUNCTIONS.values()):
                res = certify._measure(prop, f, members.size, prop.derive(P))
                for j in np.flatnonzero(~np.isnan(res.margins)):
                    witness = certify._witness(prop, certify._row(P, j), res, j)
                    out.append((f.name, prop.kind, int(members[j]), json.dumps(witness)))
        return rows, sorted(out)

    def read(suite_plans, rows):
        out = []
        for stack in certify._kept_stacks(cfg, suite_plans):
            for j, i in enumerate(stack.idx.tolist()):
                fields, want = certify._trial_fields(cfg, stack, j), rows[stack.plan.stream, i]
                assert fields.keys() == want.keys()
                assert all(_bitwise_equal(fields[k], want[k]) for k in want), (stack.plan.stream, i)
            for prop, f in itertools.product(stack.plan.props, FUNCTIONS.values()):
                res = certify._measure(prop, f, stack.idx.size, stack.derived[prop.kind])
                for j in np.flatnonzero(~np.isnan(res.margins)):
                    witness = certify._witness(prop, certify._trial_fields(cfg, stack, j), res, j)
                    out.append((f.name, prop.kind, int(stack.idx[j]), json.dumps(witness)))
        return sorted(out)

    kinds = set()
    for suite_plans in plans.values():
        rows, want = built(suite_plans)
        assert read(suite_plans, rows) == want  # fresh stacks, then kept
        assert read(suite_plans, rows) == want  # kept and merged (certify._coalesced)
        kinds |= {kind for _, kind, _, _ in want}
    assert len(certify._KEPT) == len(plans)
    assert kinds == {prop.kind for p in plans.values() for plan in p for prop in plan.props}
    assert len(kinds) == 8
    # each trial was rebuilt once, however many functions and kinds it wrote
    trials = sum(plan.count for p in plans.values() for plan in p)
    assert len(certify._REBUILT) == trials


def test_rebuilt_payloads_are_keyed_by_the_whole_config():
    # The same seed and stream draw the same numbers under two eigenvalue
    # ranges, into other matrices: a payload rebuilt under one config never
    # serves the other.  (A switch of config also drops every rebuilt payload.)
    configs = [TestConfig(seed=4, samples=5, dims=(2,), eig_range=r) for r in ((0.1, 10.0), (0.5, 2.0))]
    rebuilt, fresh = [], []
    for cfg in configs:
        cols = tuple(certify._pd_col(name, 2, cfg.eig_range) for name in ("x", "y"))
        plan = certify._Plan("principle1/dim2", cfg.samples, (certify._PRINCIPLE1,), {None: cols})
        ((_, start, idx, P),) = certify._suite_stacks(cfg.seed, [plan])
        rebuilt.append(certify._trial_fields(cfg, certify._Stack(plan, start, idx, 2, {}), 3))
        fresh.append(P)
    assert len(certify._REBUILT) == 2
    for payload, P in zip(rebuilt, fresh):
        assert _bitwise_equal(payload["x"], P["x"][3]) and _bitwise_equal(payload["y"], P["y"][3])
    assert not np.array_equal(rebuilt[0]["x"], rebuilt[1]["x"])


def test_rows_drawn_from_per_trial_generators_equal_shared_stream_rows(monkeypatch):
    # _Rows.draw fills a row from the Generator it is given: a fresh
    # default_rng(SeedSequence([seed, token, i])) per trial gives the rows
    # that _trial_streams' one reset Generator gives, bit for bit, across
    # the growths of the row buffers (8 rows, then doubling)
    cfg = TestConfig(seed=11, samples=20)
    compared = 0
    for suite_plans in _sampled_plans(monkeypatch, cfg).values():
        for plan in suite_plans:
            token = certify._stream_token(plan.stream)
            fresh = (
                np.random.default_rng(np.random.SeedSequence([cfg.seed, token, i]))
                for i in range(plan.count)
            )
            shared = certify._trial_streams(cfg.seed, [(plan.stream, range(plan.count))])
            drawn = []
            for streams in (shared, fresh):
                classes = {}
                for i, rng in enumerate(streams):
                    key = plan.classify(i, rng)
                    classes.setdefault(key, certify._Rows(plan.classes[key])).draw(rng, i)
                drawn.append({
                    key: (rows.members, [b[: len(rows.members)] for b in rows.raw])
                    for key, rows in classes.items()
                })
            want, got = drawn
            assert got.keys() == want.keys()
            for key, (members, raw) in want.items():
                assert got[key][0] == members
                assert all(map(_bitwise_equal, got[key][1], raw)), (plan.stream, key)
            compared += plan.count
    # seven suites per dim, entropic per split, and gain's samples per dim
    assert compared == cfg.samples * (8 * len(cfg.dims) + len(cfg.bipartite))


def test_public_generators_match_reference():
    for seed in range(20):
        n = 2 + seed % 5
        eig_range = (2.0, 2.0) if seed % 4 == 0 else (0.1 * (1 + seed % 3), 10.0 * (1 + seed))
        for build, ref in (
            (lambda rng: random_pd(n, eig_range, rng), lambda rng: ref_pd(n, eig_range, rng)),
            (lambda rng: random_hermitian(n, rng), lambda rng: ref_herm(ref_gauss(n, rng))),
            (lambda rng: random_unitary(n, rng), lambda rng: ref_unitary(ref_gauss(n, rng))),
        ):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _bitwise_equal(build(a), ref(b)), seed
            assert a.random() == b.random()  # both streams consumed alike
    for seed, (n, out_d, r) in enumerate(itertools.product(range(2, 5), repeat=3)):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        channel = random_channel(n, out_d, r, a)
        assert (channel.in_dim, channel.out_dim) == (n, out_d)
        assert _bitwise_equal(np.stack(channel.kraus), ref_channel(n, out_d, r, b)), (n, out_d, r)
        assert a.random() == b.random()


SEEDS = (0, 42, 2**32, 2**64 - 1)
INDICES = (0, 199, 2**32 + 5)


@pytest.mark.parametrize("token", [None, 12345], ids=["stream-token", "one-word-token"])
def test_trial_streams_match_seed_sequence(monkeypatch, token):
    # SeedSequence reads each integer as one 32-bit word or more: seeds and
    # indices from 0 to 2**64 - 1 and a token below 2**32 cover every count
    if token is not None:
        monkeypatch.setattr(certify, "_stream_token", lambda stream: token)
    stream = "principle1/dim2"
    key = certify._stream_token(stream)
    for seed in SEEDS:
        got = certify._trial_streams(seed, [(stream, INDICES)])
        for idx, rng in zip(INDICES, got, strict=True):
            ref = np.random.default_rng(np.random.SeedSequence([seed, key, idx]))
            assert rng.bit_generator.state == ref.bit_generator.state, (seed, idx)
            assert _bitwise_equal(rng.standard_normal(5), ref.standard_normal(5))
            assert rng.integers(2, 5) == ref.integers(2, 5)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_stream_names_are_unique(monkeypatch):
    # A stream's trials are keyed by its name's token, and the kept stacks
    # by the names of a suite's plans: no two sampled plans of a config,
    # the derived-Hessian search's included, may share a name or a token
    streams = []

    def capture(cfg, plans):
        streams.extend(plan.stream for plan in plans if plan.stream)
        return iter(())

    monkeypatch.setattr(certify, "_kept_stacks", capture)
    f, cfg = lookup("tlogt"), TestConfig(seed=7, samples=3)
    for row in certify._SUITES:
        row.run(f, cfg, None)
    for k in certify._SUBENTROPIC_ORDERS:
        certify._derived_hessian_witness(f, cfg, k)
    assert sum(name.startswith("subentropic-escalation/") for name in streams) == 3 * len(cfg.dims)
    assert len(streams) == len(set(streams)) == len({certify._stream_token(s) for s in streams})
    # seven suites and three search orders per dim, entropic per split, one gain stream
    assert len(streams) == 10 * len(cfg.dims) + len(cfg.bipartite) + 1


def test_padded_gain_witness_has_the_drawn_channel(monkeypatch):
    # every random-channel trial of gain is built into a stack padded to 4
    # operators; its witness drops the padding and re-verifies alone
    cfg = TestConfig(seed=5, samples=12)
    (plan,) = _sampled_plans(monkeypatch, cfg)["gain"]
    f = lookup("square")
    ranks = []
    for _, _, members, P in certify._suite_stacks(cfg.seed, [plan]):
        (prop,) = plan.props
        res = certify._measure(prop, f, members.size, prop.derive(P))
        for j, i in enumerate(members.tolist()):
            if i % 3 == 2:  # a partial-trace trial
                continue
            rng = np.random.default_rng(np.random.SeedSequence(
                [cfg.seed, certify._stream_token(plan.stream), i]
            ))
            rank = [int(rng.integers(2, 5)) for _ in range(3)][2]
            assert P["channel"][j].shape[0] == 4
            witness = certify._witness(prop, certify._row(P, j), res, j)
            assert len(witness["channel"]["kraus"]) == rank
            margin = reverify_counterexample(f, witness)
            assert margin == pytest.approx(res.margins[j], rel=1e-12, abs=1e-15)
            ranks.append(rank)
    assert len(ranks) == 16 and {2, 3} <= set(ranks)


def test_seed_states_are_computed_a_block_at_a_time(monkeypatch):
    hashed = []
    real = certify._seed_sequence_words

    def counting(entropy):
        hashed.append(entropy.shape[1])
        return real(entropy)

    monkeypatch.setattr(certify, "_seed_sequence_words", counting)
    monkeypatch.setattr(certify, "_SEED_BLOCK", 4)
    # blocks of 4 cut across streams; an index read as two words hashes apart
    segments = [("principle1/dim2", range(5)), ("condition13/dim3", range(7)), ("gain", (2**32 + 1, 3))]
    got = certify._trial_streams(42, segments)
    want = [(stream, i) for stream, indices in segments for i in indices]
    for (stream, idx), rng in zip(want, got, strict=True):
        ref = np.random.default_rng(
            np.random.SeedSequence([42, certify._stream_token(stream), idx])
        )
        assert rng.bit_generator.state == ref.bit_generator.state, (stream, idx)
    assert hashed == [4, 4, 4, 1, 1]

    # a suite's plans share blocks: the third of 4 spans both 10-trial plans
    cfg = TestConfig(seed=42, samples=10)
    plans = _sampled_plans(monkeypatch, cfg)["principle1"]
    hashed.clear()
    for _ in certify._suite_stacks(cfg.seed, plans):
        pass
    assert hashed == [4] * 5

    # states are computed as trials need them, whatever the sample budget
    first = []

    def classify(idx, rng):
        if idx == 0:
            first.append(list(hashed))
        return None

    hashed.clear()
    big = [p._replace(count=10**6, classify=classify) for p in plans]
    next(certify._suite_stacks(cfg.seed, big))
    assert first == [[4]] and max(hashed) == 4

    # at the default block the two plans hash in one call
    monkeypatch.undo()
    monkeypatch.setattr(certify, "_seed_sequence_words", counting)
    hashed.clear()
    for _ in certify._suite_stacks(cfg.seed, plans):
        pass
    assert hashed == [20]


@pytest.mark.parametrize(
    "eig_range", [(0.1, 10.0), (1e-3, 1e3), (1e-8, 1e8), (2.0, 2.0)],
    ids=["default", "stretched", "wide", "one-point"],
)
def test_random_draws_mapped_equal_uniform(eig_range):
    # the columns draw random() and map it afterwards, where uniform() was
    # called: the same numbers, and the Generator left in the same state
    lo, hi = eig_range
    log_lo, log_hi = math.log(lo), math.log(hi)
    for seed in range(500):
        n = 1 + seed % 8
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        if lo == hi:
            # nothing is drawn for a one-point spectrum; its zeros map to log lo
            assert _bitwise_equal(random_pd(n, eig_range, a), ref_pd(n, eig_range, b)), seed
            u, want = np.zeros(n), np.full(n, log_lo)
        else:
            u = np.empty(n)
            a.random(out=u)
            want = b.uniform(log_lo, log_hi, size=n)
        assert _bitwise_equal(uniform_from_draw(u, log_lo, log_hi), want), seed
        assert a.bit_generator.state == b.bit_generator.state
    calls = [method for method, _ in certify._pd_col("x", 3, eig_range).calls]
    assert calls == (["standard_normal"] if lo == hi else ["random", "standard_normal"])
