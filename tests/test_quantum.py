import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrocert.expr import lookup
from entrocert.hermitian import (
    hermitize,
    is_hermitian,
    random_hermitian,
    random_pd,
    random_unitary,
    trace_of_function,
)
from entrocert.quantum import (
    KrausChannel,
    StinespringIsometry,
    apply_channel,
    channel_from_draw,
    channel_from_json,
    channel_to_json,
    depolarizing_channel,
    entropy_gain,
    harmonic_mean,
    harmonic_mean_block_margin,
    kron,
    midpoint_channel,
    partial_trace_1,
    partial_trace_channel,
    random_channel,
    stinespring_from_kraus,
    unitary_channel,
)

RNG = np.random.default_rng(2024)


def test_partial_trace_of_product():
    a = random_hermitian(3, RNG)
    b = random_hermitian(2, RNG)
    got = partial_trace_1(kron(a, b), 3, 2)
    assert np.allclose(got, a * np.trace(b), atol=1e-13)


def test_partial_trace_adjoint_identity():
    # Tr[(Tr_2 rho) a] = Tr[rho (a (x) I)] -- the defining duality
    rho = random_hermitian(6, RNG)
    a = random_hermitian(2, RNG)
    lhs = np.trace(partial_trace_1(rho, 2, 3) @ a)
    rhs = np.trace(rho @ kron(a, np.eye(3, dtype=complex)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_partial_trace_preserves_trace_and_hermiticity():
    rho = random_pd(6, (0.1, 5.0), RNG)
    red = partial_trace_1(rho, 2, 3)
    assert is_hermitian(red)
    assert np.trace(red) == pytest.approx(np.trace(rho), rel=1e-13)
    with pytest.raises(ValueError):
        partial_trace_1(rho, 2, 2)


def test_kraus_channel_validation():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        KrausChannel(2, 2, (0.9 * eye,))  # not trace preserving
    with pytest.raises(ValueError):
        KrausChannel(2, 3, (eye,))  # shape mismatch
    ch = KrausChannel(2, 2, (eye,))
    assert ch.in_dim == ch.out_dim == 2


def test_nan_kraus_families_are_rejected():
    # a NaN trace-preservation defect compares False against the tolerance
    nan = np.full((2, 2), np.nan + 0j)
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel(in_dim=2, out_dim=2, kraus=(nan,))
    with pytest.raises(ValueError, match="isometry"):
        StinespringIsometry(matrix=np.full((4, 2), np.nan + 0j), out_dim=2, env_dim=2)
    obj = channel_to_json(random_channel(2, 2, 2, RNG))
    obj["kraus"][1]["re"][0][1] = float("nan")
    with pytest.raises(ValueError, match="trace preserving"):
        channel_from_json(json.loads(json.dumps(obj)))
    draws = RNG.standard_normal((3, 2, 4, 3))
    assert channel_from_draw(draws, 2).shape == (3, 2, 2, 3)
    draws[1, 0, 2, 1] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="trace preserving"):
        channel_from_draw(draws, 2)


def test_apply_channel_preserves_state_structure():
    ch = random_channel(3, 4, 3, RNG)
    rho = random_pd(3, (0.1, 2.0), RNG)
    out = apply_channel(ch, rho)
    assert out.shape == (4, 4)
    assert is_hermitian(out)
    assert np.trace(out) == pytest.approx(np.trace(rho), rel=1e-12)
    assert np.linalg.eigvalsh(out)[0] >= -1e-12


def test_midpoint_channel_block_formula():
    n = 3
    ch = midpoint_channel(n)
    x = random_hermitian(2 * n, RNG)
    rho, a = x[:n, :n], x[:n, n:]
    b, sigma = x[n:, :n], x[n:, n:]
    got = apply_channel(ch, x)
    want = np.zeros_like(x)
    want[:n, :n] = (rho + sigma - a - b) / 2.0
    want[n:, n:] = (rho + sigma + a + b) / 2.0
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
    # trace preserving and unital
    tp = sum(k.conj().T @ k for k in ch.kraus)
    assert np.linalg.norm(tp - np.eye(2 * n)) <= 1e-11
    assert np.linalg.norm(apply_channel(ch, np.eye(2 * n, dtype=complex)) - np.eye(2 * n)) <= 1e-11


def test_midpoint_channel_mixes_diagonal_blocks():
    # on block-diagonal input the output blocks are both the midpoint
    n = 2
    ch = midpoint_channel(n)
    r = random_pd(n, (0.5, 2.0), RNG)
    s = random_pd(n, (0.5, 2.0), RNG)
    x = np.zeros((2 * n, 2 * n), dtype=complex)
    x[:n, :n] = r
    x[n:, n:] = s
    out = apply_channel(ch, x)
    mid = (r + s) / 2.0
    assert np.allclose(out[:n, :n], mid, atol=1e-13)
    assert np.allclose(out[n:, n:], mid, atol=1e-13)
    assert np.allclose(out[:n, n:], 0.0, atol=1e-13)


def test_depolarizing_channel():
    ch = depolarizing_channel(3)
    rho = random_pd(3, (0.1, 3.0), RNG)
    want = np.trace(rho) * np.eye(3, dtype=complex) / 3.0
    assert np.allclose(apply_channel(ch, rho), want, atol=1e-12)


def test_partial_trace_channel_agrees():
    ch = partial_trace_channel(2, 3)
    rho = random_pd(6, (0.1, 4.0), RNG)
    assert np.allclose(apply_channel(ch, rho), partial_trace_1(rho, 2, 3), atol=1e-12)


def test_unitary_channel_gain_is_zero():
    u = random_unitary(4, RNG)
    ch = unitary_channel(u)
    rho = random_pd(4, (0.2, 3.0), RNG)
    assert np.allclose(apply_channel(ch, rho), u @ rho @ u.conj().T, atol=1e-12)
    f = lookup("tlogt")
    assert entropy_gain(f, ch, rho) == pytest.approx(0.0, abs=1e-11)


def test_random_channel_rejects_rank_deficient_request():
    with pytest.raises(ValueError):
        random_channel(4, 2, 1, RNG)  # 2*1 < 4 rows cannot be isometric


def test_stinespring_dilation_consistency():
    ch = random_channel(3, 2, 4, RNG)
    w = stinespring_from_kraus(ch)
    assert w.in_dim == 3 and w.out_dim == 2 and w.env_dim == 4
    assert np.linalg.norm(w.matrix.conj().T @ w.matrix - np.eye(3)) <= 1e-11
    rho = random_pd(3, (0.1, 5.0), RNG)
    assert np.linalg.norm(w.reduce(rho) - apply_channel(ch, rho)) <= 1e-11
    assert np.trace(w.dilate(rho)) == pytest.approx(np.trace(rho), rel=1e-12)


def test_isometric_conjugation_preserves_trace_functional():
    # Tr f(W rho W*) = Tr f(rho) for f extending by f(0) = 0
    ch = random_channel(3, 3, 2, RNG)
    w = stinespring_from_kraus(ch)
    rho = random_pd(3, (0.1, 8.0), RNG)
    dilated = w.dilate(rho)
    for name in ("tlogt", "square", "power:1.5", "negsqrt"):
        f = lookup(name)
        assert trace_of_function(f, dilated) == pytest.approx(
            trace_of_function(f, rho), rel=1e-10, abs=1e-10
        )


def test_entropy_gain_of_partial_trace_matches_functional():
    f = lookup("tlogt")
    ch = partial_trace_channel(2, 2)
    rho = random_pd(4, (0.2, 2.0), RNG)
    direct = trace_of_function(f, rho) - trace_of_function(
        f, partial_trace_1(rho, 2, 2)
    )
    assert entropy_gain(f, ch, rho) == pytest.approx(direct, rel=1e-12)


def test_harmonic_mean_scalars_and_commuting():
    a = np.array([[3.0]], dtype=complex)
    b = np.array([[6.0]], dtype=complex)
    assert harmonic_mean(a, b)[0, 0] == pytest.approx(4.0, rel=1e-14)
    da = np.diag([1.0, 4.0]).astype(complex)
    db = np.diag([3.0, 4.0]).astype(complex)
    want = np.diag([1.5, 4.0]).astype(complex)
    assert np.allclose(harmonic_mean(da, db), want, atol=1e-13)


def test_harmonic_mean_symmetric_and_idempotent():
    a = random_pd(3, (0.5, 5.0), RNG)
    b = random_pd(3, (0.5, 5.0), RNG)
    assert np.allclose(harmonic_mean(a, b), harmonic_mean(b, a), atol=1e-12)
    assert np.allclose(harmonic_mean(a, a), a, atol=1e-11)


def test_harmonic_mean_requires_positive_definite():
    a = random_pd(2, (0.5, 2.0), RNG)
    sing = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="positive definite"):
        harmonic_mean(a, sing)


def test_harmonic_mean_block_inequality_and_maximality():
    for _ in range(10):
        a = random_pd(3, (0.1, 10.0), RNG)
        b = random_pd(3, (0.1, 10.0), RNG)
        c = harmonic_mean(a, b)
        pm = harmonic_mean_block_margin(a, b, c)
        assert pm.min_eigenvalue >= -1e-10 * pm.scale
        # anything strictly larger violates the block inequality
        pm_bad = harmonic_mean_block_margin(a, b, 1.05 * c)
        assert pm_bad.min_eigenvalue < 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_channel_apply_is_linear(seed):
    rng = np.random.default_rng(seed)
    ch = random_channel(2, 3, 2, rng)
    x = random_hermitian(2, rng)
    y = random_hermitian(2, rng)
    lhs = apply_channel(ch, 2.0 * x - 3.0 * y)
    rhs = 2.0 * apply_channel(ch, x) - 3.0 * apply_channel(ch, y)
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_channel_json_round_trip():
    ch = random_channel(2, 3, 2, RNG)
    back = channel_from_json(channel_to_json(ch))
    assert back.in_dim == ch.in_dim and back.out_dim == ch.out_dim
    assert len(back.kraus) == len(ch.kraus)
    for k1, k2 in zip(back.kraus, ch.kraus):
        assert np.array_equal(k1, k2)


def test_channel_apply_keeps_non_hermitian_inputs_unsymmetrised():
    ch = random_channel(2, 3, 2, RNG)
    x = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    want = sum(k @ x @ k.conj().T for k in ch.kraus)
    got = ch.apply(x)
    assert not is_hermitian(got)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_channel_json_rejects_mismatched_shapes():
    obj = channel_to_json(random_channel(2, 3, 2, RNG))
    obj["out_dim"] = 2
    with pytest.raises(ValueError, match=r"Kraus JSON shape \(3, 2\) does not match 2x2"):
        channel_from_json(obj)
