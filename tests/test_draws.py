"""Trials keep raw Generator output and build their matrices per stack.

The reference below draws and builds one trial at a time, the way the
suites are specified: separate ``standard_normal((n, n))`` calls for the
real and imaginary parts, complex assembly, QR with the phase fix,
``U diag(lam) U*`` and the Hermitian part, per matrix.  The stacked payloads
of every sampled suite's plans must equal it bit for bit.
"""

import math

import numpy as np
import pytest

import entrocert.certify as certify
from entrocert.certify import TestConfig
from entrocert.functions import lookup
from entrocert.hermitian import random_hermitian, random_pd, random_unitary
from entrocert.quantum import partial_trace_channel, random_channel


def ref_herm(a):
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2.0


def ref_gauss(n, rng):
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
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
        kraus = np.stack(random_channel(n, out_d, r, rng).kraus)
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


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b) and (
        a.tobytes() == b.tobytes()
    )


def _sampled_plans(monkeypatch, cfg):
    """Every sampled suite's plans, captured where the suite hands them to _drive."""
    plans = {}

    def capture(name, f, cfg, suite_plans, **kwargs):
        plans[name] = suite_plans() if callable(suite_plans) else suite_plans

    monkeypatch.setattr(certify, "_drive", capture)
    f = lookup("tlogt")
    for row in certify._SUITES:
        row.run(f, cfg, None)
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
        for plan in suite_plans:
            start = 0
            for chunk in certify._chunks(cfg.seed, plan):
                groups = {}
                for i, payload in enumerate(chunk):
                    groups.setdefault(certify._shape_key(payload), []).append(i)
                for members in groups.values():
                    P = certify._stack([chunk[i] for i in members])
                    for j, i in enumerate(members):
                        idx = start + i
                        rng = certify._trial_rng(cfg.seed, plan.stream, idx)
                        want = REFERENCE[name](cfg, plan.stream, idx, rng)
                        assert P.keys() == want.keys()
                        for field, value in want.items():
                            assert _bitwise_equal(P[field][j], value), (name, plan.stream, idx, field)
                        compared += 1
                start += len(chunk)
    assert compared == sum(plan.count for p in plans.values() for plan in p)


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
