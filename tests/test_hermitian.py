import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrocert.expr import lookup, parse
from entrocert.hermitian import (
    ZERO_CLAMP_TOL,
    EighError,
    SpectralDecomposition,
    _function_values,
    apply_function,
    eigh,
    entropy,
    hermitize,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    pd_from_draw,
    psd_margin,
    random_hermitian,
    random_pd,
    random_unitary,
    spectrum_trace,
    trace_of_function,
)
from entrocert.jets import DomainError

RNG = np.random.default_rng(1234)


def test_hermitize_and_is_hermitian():
    a = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    h = hermitize(a)
    assert is_hermitian(h)
    assert not is_hermitian(a)
    # projection is idempotent, exactly
    assert np.array_equal(hermitize(h), h)


def test_eigh_reconstructs():
    for dim in (2, 3, 5, 8):
        m = random_hermitian(dim, RNG)
        dec = eigh(m)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        err = np.linalg.norm(dec.reconstruct() - m)
        assert err <= 1e-12 * max(1.0, np.linalg.norm(m))


def test_eigh_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(EighError):
        eigh(bad)


def test_stacked_eigh_checks_every_member():
    stack = np.stack([random_hermitian(3, RNG) for _ in range(5)])
    dec = eigh(stack)
    assert dec.eigenvalues.shape == (5, 3) and dec.eigenvectors.shape == (5, 3, 3)
    for i in range(5):
        assert np.allclose(dec.eigenvalues[i], eigh(stack[i]).eigenvalues, atol=1e-13)
    # eigh reads one triangle, so only the residual check sees this member
    bad = stack.copy()
    bad[3, 0, 2] += 1.0
    with pytest.raises(EighError):
        eigh(bad)


def test_eigh_rejects_non_finite_members():
    # one member's Frobenius norm overflows: its residual bound would be
    # 1e-12 * inf, which any residual meets, so the member must fail outright
    stack = np.stack([random_hermitian(3, RNG) for _ in range(4)])
    eigh(stack)
    stack[2] *= 1e300
    with np.errstate(over="ignore"), pytest.raises(EighError, match="not finite"):
        eigh(stack)
    with pytest.raises(EighError):
        eigh(np.full((2, 2), np.nan, dtype=complex))


def test_eigh_rejects_nan_results(monkeypatch):
    # a finite input whose decomposition comes back with NaN: NaN defects
    # compare False against any bound, so each check must fail on them
    stack = np.stack([random_hermitian(3, RNG) for _ in range(4)])
    real_eigh = np.linalg.eigh

    def nan_member(m):
        w, v = real_eigh(m)
        v = v.copy()
        v[1, 0, 0] = np.nan
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", nan_member)
    with pytest.raises(EighError, match="residual nan"):
        eigh(stack)


def test_apply_function_square_matches_matmul():
    f = lookup("square")
    m = random_pd(4, (0.2, 5.0), RNG)
    assert np.allclose(apply_function(f, m), m @ m, atol=1e-12 * 25)


def test_apply_function_exp_independent_oracle():
    # scaling-and-squaring Taylor oracle, no spectral calculus involved
    # (the registry exp lives on [0, inf) like every candidate, so stay PD)
    f = lookup("exp")
    m = random_pd(3, (0.2, 3.0), RNG)
    ref = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    x = m / 2**10
    for k in range(1, 24):
        term = term @ x / k
        ref = ref + term
    for _ in range(10):
        ref = ref @ ref
    assert np.allclose(apply_function(f, m), ref, atol=1e-10)


def test_apply_function_commutes_with_conjugation():
    f = lookup("tlogt")
    m = random_pd(4, (0.1, 10.0), RNG)
    u = random_unitary(4, RNG)
    lhs = apply_function(f, hermitize(u @ m @ u.conj().T))
    rhs = u @ apply_function(f, m) @ u.conj().T
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_trace_of_function_sums_spectrum():
    f = lookup("neglog")
    vals = np.array([0.5, 1.0, 2.0, 4.0])
    u = random_unitary(4, RNG)
    m = hermitize(u @ np.diag(vals).astype(complex) @ u.conj().T)
    want = float(np.sum(-np.log(vals)))
    assert trace_of_function(f, m) == pytest.approx(want, rel=1e-12)


def test_zero_extension_handles_singular_psd():
    f = lookup("tlogt")
    # rank-1 projector: eigenvalues {0, 0, 1}; t log t extends by 0 at 0
    v = np.array([[1.0], [1.0], [0.0]], dtype=complex) / math.sqrt(2)
    p = v @ v.conj().T
    assert trace_of_function(f, p) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        trace_of_function(lookup("neglog"), p)


def test_domain_error_on_negative_spectrum():
    m = np.diag([1.0, -0.5]).astype(complex)
    with pytest.raises(DomainError, match="outside the domain"):
        trace_of_function(lookup("tlogt"), m)


def test_entropy_of_maximally_mixed():
    f = lookup("tlogt")
    for n in range(2, 9):
        s = entropy(f, np.eye(n, dtype=complex) / n)
        assert s == pytest.approx(math.log(n), abs=1e-12)


def test_psd_margin_signs():
    pos = np.diag([0.5, 2.0]).astype(complex)
    m = psd_margin(pos)
    assert m.min_eigenvalue == pytest.approx(0.5)
    assert m.normalized == pytest.approx(0.5 / max(1.0, 2.0))
    neg = np.diag([-1.0, 3.0]).astype(complex)
    assert psd_margin(neg).normalized == pytest.approx(-1.0 / 3.0)


def test_random_unitary_is_unitary():
    u = random_unitary(5, RNG)
    assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(2, 6),
    lo=st.floats(1e-3, 1.0),
    width=st.floats(1.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_pd_spectrum_in_range(dim, lo, width, seed):
    rng = np.random.default_rng(seed)
    hi = lo * width
    m = random_pd(dim, (lo, hi), rng)
    assert is_hermitian(m)
    w = np.linalg.eigvalsh(m)
    assert w[0] >= lo * (1 - 1e-9) and w[-1] <= hi * (1 + 1e-9)


def test_random_pd_degenerate_range():
    m = random_pd(3, (2.0, 2.0), RNG)
    assert np.allclose(np.linalg.eigvalsh(m), 2.0, atol=1e-12)
    with pytest.raises(ValueError):
        random_pd(3, (0.0, 1.0), RNG)
    with pytest.raises(ValueError):
        random_pd(3, (2.0, 1.0), RNG)


@pytest.mark.parametrize(
    "bounds", [(0.1, math.inf), (math.inf, math.inf), (-math.inf, 1.0), (0.1, math.nan)]
)
def test_random_pd_rejects_non_finite_bounds(bounds):
    # an infinite bound made a non-finite matrix after a matmul warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="invalid eigenvalue range"):
            random_pd(3, bounds, RNG)


def _built_pd(n, seed):
    """A PD matrix and the (lam, U) it was built from."""
    rng = np.random.default_rng(seed)
    return pd_from_draw(rng.random(n), rng.standard_normal((2, n, n)), 0.1, 10.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_supplied_decomposition_matches_a_fresh_one(n):
    m, known = _built_pd(n, n)
    f = lookup("tlogt")
    want = trace_of_function(f, m)
    assert abs(spectrum_trace(f, eigh(m, [known]).eigenvalues) - want) <= 1e-13 * abs(want)
    # the supplied pairs come back as they were given
    dec = eigh(m, [known])
    assert np.array_equal(dec.eigenvalues, known.eigenvalues)
    assert np.array_equal(dec.eigenvectors, known.eigenvectors)
    # a stack takes eigenpairs for its leading members only, one run per decomposition
    m2, known2 = _built_pd(n, n + 50)
    stack = np.stack([m, m2, hermitize(2.0 * m + np.eye(n)), random_pd(n, (0.1, 10.0), RNG)])
    lead = SpectralDecomposition(known.eigenvalues[None], known.eigenvectors[None])
    for supplied in ([lead], [lead, known2]):
        got = spectrum_trace(f, eigh(stack, supplied).eigenvalues)
        assert np.allclose(got, trace_of_function(f, stack), rtol=1e-13, atol=0)
    dec = eigh(stack, [lead, known2])
    assert np.array_equal(dec.eigenvalues[1], known2.eigenvalues)
    assert np.array_equal(dec.eigenvectors[1], known2.eigenvectors)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_foreign_or_perturbed_decomposition_raises(n):
    # the decomposition of another matrix gave Tr f of the wrong matrix
    m, known = _built_pd(n, n)
    _, foreign = _built_pd(n, n + 100)
    lam, u = known.eigenvalues, known.eigenvectors
    wrong = [
        foreign,
        SpectralDecomposition(lam * (1 + 1e-9), u),
        SpectralDecomposition(lam, u @ np.diag(np.exp(1j * np.arange(n))) + 1e-9),
        SpectralDecomposition(lam[::-1], u),  # eigenvalues out of step with eigenvectors
    ]
    for dec in wrong:
        for call in (
            lambda: eigh(m, [dec]),
            lambda: eigh(np.stack([m, m]), [SpectralDecomposition(
                dec.eigenvalues[None], dec.eigenvectors[None]
            )]),
            # every run is checked, not only the first
            lambda: eigh(np.stack([m, m]), [known, dec]),
        ):
            with pytest.raises(EighError):
                call()
    with pytest.raises(ValueError, match="do not fit"):
        eigh(m, [_built_pd(n + 1, 0)[1]])
    with pytest.raises(ValueError, match="do not fit"):
        eigh(m[None], [SpectralDecomposition(np.stack([lam, lam]), np.stack([u, u]))])
    with pytest.raises(ValueError, match="do not fit"):
        eigh(m[None], [known, known])


def test_matrix_json_round_trip():
    m = random_hermitian(3, RNG)
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)
    with pytest.raises(ValueError, match="shape mismatch for dim 2"):
        matrix_from_json({**matrix_to_json(m), "dim": 2})
    # an integral JSON float is an integer, as json writes 3.0 back
    assert np.array_equal(matrix_from_json({**matrix_to_json(m), "dim": 3.0}), m)


def test_a_json_boolean_is_no_integer():
    # operator.index reads True as 1, so a "dim": true would read a 1 x 1 matrix
    with pytest.raises(ValueError, match="expected an integer, got True"):
        matrix_from_json({"dim": True, "re": [[2.0]], "im": [[0.0]]})


@pytest.mark.parametrize("entry", [True, False, "1", None, [1.0]], ids=repr)
@pytest.mark.parametrize("part", ["re", "im"])
def test_a_matrix_entry_is_a_json_number(part, entry):
    # np.asarray(..., dtype=float) would read true as 1.0 and "1" as 1.0
    obj = matrix_to_json(np.diag([2.0, 3.0]).astype(complex))
    obj[part][0][1] = entry
    with pytest.raises(ValueError, match="expected a number"):
        matrix_from_json(obj)
    obj[part][0][1] = 1  # a JSON integer is a number
    assert matrix_from_json(obj).shape == (2, 2)


def test_eigh_reports_lapack_failure(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(EighError, match="eigendecomposition did not converge"):
        eigh(np.diag([1.0, 2.0, 3.0]).astype(complex))


def test_eigh_orthogonality_check_alone_rejects(monkeypatch):
    # for M = 2 I every V satisfies M V = V diag(2, 2, 2) exactly, so the
    # residual check passes and only the orthogonality check can refuse V
    m = 2.0 * np.eye(3, dtype=complex)
    v = np.eye(3, dtype=complex)
    v[0, 1] = 1.0

    def not_unitary(a):
        return np.full(3, 2.0), v.copy()

    monkeypatch.setattr(np.linalg, "eigh", not_unitary)
    with pytest.raises(EighError):
        eigh(m)


CLOSED_FORM_CASES = [
    np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex),  # unsorted diagonal
    3.0 * np.eye(2, dtype=complex),  # b = 0 and a = d
    np.array([[1.0, -1e-300j], [1e-300j, 1.0]]),
    np.array([[1.0, -1e-300j], [1e-300j, 2.0]]),
    np.array([[1e-20, 1.0 - 2.0j], [1.0 + 2.0j, 1e20]]),
    np.array([[1e20, 1.0 - 2.0j], [1.0 + 2.0j, 1e-20]]),
    np.array([[5.0, 1e-17], [1e-17, 5.0]], dtype=complex),
    *np.stack([random_pd(2, (1e-3, 10.0), RNG) for _ in range(20)]),
    *np.stack([random_hermitian(2, RNG) for _ in range(20)]),
]


def test_eigh_2x2_closed_form_against_lapack():
    eps = np.finfo(float).eps
    for m in CLOSED_FORM_CASES:
        dec = eigh(m)
        norm = np.linalg.norm(m)
        w = dec.eigenvalues
        assert w[0] <= w[1], m
        assert np.all(np.abs(w - np.linalg.eigvalsh(m)) <= 4.0 * eps * norm), m
        assert np.linalg.norm(dec.reconstruct() - m) <= 1e-12 * max(1.0, norm), m
    # a stack gives each member's own result, bit for bit
    stack = np.stack(CLOSED_FORM_CASES)
    dec = eigh(stack)
    for i, m in enumerate(CLOSED_FORM_CASES):
        one = eigh(m)
        assert np.array_equal(dec.eigenvalues[i], one.eigenvalues), i
        assert np.array_equal(dec.eigenvectors[i], one.eigenvectors), i


@pytest.mark.parametrize("value", [np.nan, 1e300])
def test_eigh_2x2_rejects_non_finite_member_without_warning(value):
    stack = np.stack(CLOSED_FORM_CASES[:4])
    stack[2, 0, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EighError, match="not finite"):
            eigh(stack)


def test_function_values_stack_clamps_each_spectrum_on_its_own():
    # the largest spectrum's clamp threshold (1e-12 * 1e6) exceeds 1e-7, so
    # the stack cannot be evaluated without the per-spectrum clamp; 1e-7 is
    # far above its own spectrum's threshold and must not be clamped
    f = lookup("tlogt")
    stack = np.array([[0.5, 1e6], [1e-7, 1.0]])
    got = _function_values(f, stack)
    for i, lam in enumerate(stack):
        assert np.array_equal(got[i], _function_values(f, lam)), i
    assert got[1, 0] == pytest.approx(1e-7 * math.log(1e-7), rel=1e-14)
    # an exact zero eigenvalue still takes the zero extension
    assert np.array_equal(_function_values(lookup("affine"), np.array([[0.0, 1.0]])), [[1.0, 3.0]])
    assert np.array_equal(_function_values(f, np.array([[0.0, 2.0], [1.0, 3.0]]))[:, 0], [0.0, 0.0])


def test_function_values_keep_their_domain_errors():
    with pytest.raises(DomainError, match=r"log of non-positive value -0\.2"):
        _function_values(parse("log(t-0.5)").as_function(), np.array([[0.3, 1.0]]))
    with pytest.raises(DomainError, match="outside the domain of neglog"):
        _function_values(lookup("neglog"), np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_function_values_zero_clamp_boundary():
    # the clamp threshold of a spectrum with largest eigenvalue 4 is tau
    f = lookup("tlogt")
    tau = ZERO_CLAMP_TOL * 4.0
    above = np.nextafter(tau, 1.0)
    got = _function_values(f, np.array([tau, above, 4.0]))
    assert got[0] == f.zero_extension
    assert got[1] == f(above) != f.zero_extension
    assert np.array_equal(_function_values(f, np.array([-tau, 4.0])), [0.0, f(4.0)])
    with pytest.raises(DomainError, match="eigenvalue -8e-12 outside the domain of tlogt"):
        _function_values(f, np.array([-2.0 * tau, 4.0]))
    with pytest.raises(DomainError, match="eigenvalue 0 outside the domain"):
        _function_values(parse("t*log(t)").as_function(), np.array([0.0, 4.0]))
    for shape in [(0,), (2, 0)]:
        empty = _function_values(f, np.zeros(shape))
        assert empty.shape == shape


def test_joint_spectra_raise_what_separate_calls_raise():
    # the first spectrum fails inside f (log of 0.4 - 0.5), the second the
    # eigenvalue domain check, which the one joined call meets first: its
    # error is the one of f over the spectra as one stack
    from entrocert.hermitian import _spectra_values, _zero_clamp

    f = parse("log(t-0.5)").as_function()
    spectra = (np.array([[0.4, 2.0]]), np.array([[-1.0, 1.0]]))
    clamps = tuple(map(_zero_clamp, spectra))
    with pytest.raises(DomainError) as stacked:
        _function_values(f, np.concatenate(spectra))
    with pytest.raises(DomainError) as joint:
        _spectra_values(f, spectra, clamps)
    assert str(joint.value) == str(stacked.value) == "eigenvalue -1 outside the domain of log(t-0.5)"
    with pytest.raises(DomainError, match="log of non-positive"):  # the first spectrum alone
        _function_values(f, spectra[0])
    # and where they succeed, the values are bit for bit the separate ones
    ok = (np.array([[0.6, 2.0]]), np.array([[1.5, 3.0], [0.7, 9.0]]))
    g = parse("t*log(t)").as_function(0.0)
    for got, lam in zip(_spectra_values(g, ok, tuple(map(_zero_clamp, ok))), ok):
        assert np.array_equal(got, _function_values(g, lam))
