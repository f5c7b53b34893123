import numpy as np
import pytest

from entrocert.frechet import (
    NotInvertibleError,
    _basis_pairs,
    _inverse_kernel,
    _kronecker_form,
    _real_conjugation,
    _weighted,
    _weights,
    frechet_diff,
    frechet_inverse,
    frechet_superoperator,
    loewner_matrix,
    second_diff_G,
    unvec,
    vec,
)
from entrocert.expr import lookup
from entrocert.functions import divided_difference
from entrocert.hermitian import (
    SpectralDecomposition,
    apply_function,
    eigh,
    hermitize,
    is_hermitian,
    pd_from_draw,
    random_hermitian,
    random_pd,
    random_unitary,
    spectrum_trace,
    trace_of_function,
)

RNG = np.random.default_rng(77)

# 32-node Gauss-Legendre nodes and weights, mapped from [-1, 1] to [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_X, _GL_W = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


def divided_difference_quadrature_check(f, t: float, s: float) -> float:
    """Independent quadrature oracle for divided differences: the integral of f'(x t + (1-x) s) over [0, 1]."""
    return float(_GL_W @ f.d1(_GL_X * float(t) + (1.0 - _GL_X) * float(s)))


def fd_frechet(f, rho, h, eps=1e-5):
    plus = apply_function(f, hermitize(rho + eps * h))
    minus = apply_function(f, hermitize(rho - eps * h))
    return (plus - minus) / (2 * eps)


def test_vec_unvec_round_trip_column_stacking():
    m = np.arange(9, dtype=complex).reshape(3, 3)
    v = vec(m)
    # column-stacking: entry (i, j) lands at position i + 3 j
    assert v[0 + 3 * 2] == m[0, 2]
    assert np.array_equal(unvec(v, 3), m)
    assert np.array_equal(unvec(vec(m)), m)


def test_loewner_matrix_entries():
    f = lookup("tlogt")
    lam = np.array([0.5, 1.0, 3.0])
    k = loewner_matrix(f, lam)
    for i in range(3):
        assert k[i, i] == pytest.approx(np.log(lam[i]) + 1.0, rel=1e-13)
        for j in range(3):
            if i != j:
                assert k[i, j] == pytest.approx(
                    divided_difference(f, lam[i], lam[j]), rel=1e-13
                )
    assert np.allclose(k, k.T)


@pytest.mark.parametrize("name", ["tlogt", "neglog", "power:1.5", "exp"])
def test_loewner_matrix_matches_quadrature_on_near_coincident_spectra(name):
    f = lookup(name)
    lam = np.array([0.5, 0.5 * (1.0 + 1e-9), 2.0, 2.00001, 3.0])
    k = loewner_matrix(f, lam)
    for i in range(lam.size):
        for j in range(lam.size):
            ref = divided_difference_quadrature_check(f, lam[i], lam[j])
            assert k[i, j] == pytest.approx(ref, rel=5e-9, abs=1e-12)
    # a stack of spectra gives each member's matrix
    stacked = loewner_matrix(f, np.stack([lam, lam[::-1]]))
    assert np.array_equal(stacked[0], k)
    assert np.array_equal(stacked[1], k[::-1, ::-1])


def test_stacked_superoperators_match_single_ones():
    f = lookup("tlogt").derivative()
    rhos = np.stack([random_pd(3, (0.1, 10.0), RNG) for _ in range(4)])
    fwd = frechet_superoperator(f, rhos)
    inv = frechet_inverse(f, rhos)
    assert fwd.matrix.shape == (4, 9, 9)
    for i in range(4):
        assert np.allclose(fwd.matrix[i], frechet_superoperator(f, rhos[i]).matrix, atol=1e-12)
        assert np.allclose(fwd.matrix[i] @ inv.matrix[i], np.eye(9), atol=1e-10)
    h = random_hermitian(3, RNG)
    assert np.allclose(fwd.apply(h)[2], frechet_diff(f, rhos[2], h), atol=1e-12)


@pytest.mark.parametrize("name", ["tlogt", "neglog", "square", "exp", "power:1.5"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_frechet_diff_matches_finite_differences(name, dim):
    f = lookup(name)
    for _ in range(5):
        rho = random_pd(dim, (0.25, 4.0), RNG)
        h = random_hermitian(dim, RNG)
        h /= np.linalg.norm(h)
        got = frechet_diff(f, rho, h)
        ref = fd_frechet(f, rho, h)
        assert is_hermitian(got)
        assert np.linalg.norm(got - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))


def test_frechet_diff_commuting_case():
    # diagonal rho, diagonal h: df(rho)[h] = f'(rho) h entrywise
    f = lookup("tlogt")
    lam = np.array([0.3, 1.2, 5.0])
    rho = np.diag(lam).astype(complex)
    h = np.diag([1.0, -2.0, 0.5]).astype(complex)
    got = frechet_diff(f, rho, h)
    want = np.diag((np.log(lam) + 1.0) * np.diag(h).real).astype(complex)
    assert np.allclose(got, want, atol=1e-13)


def test_frechet_diff_near_degenerate_spectrum_stable():
    f = lookup("tlogt")
    lam = np.array([1.0, 1.0 + 1e-9, 2.0])
    u = np.linalg.qr(RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3)))[0]
    rho = hermitize(u @ np.diag(lam).astype(complex) @ u.conj().T)
    h = random_hermitian(3, RNG)
    got = frechet_diff(f, rho, h)
    ref = fd_frechet(f, rho, h, eps=1e-6)
    assert np.linalg.norm(got - ref) <= 1e-5 * max(1.0, np.linalg.norm(ref))


def test_frechet_diff_linearity():
    f = lookup("neglog")
    rho = random_pd(3, (0.2, 6.0), RNG)
    h1 = random_hermitian(3, RNG)
    h2 = random_hermitian(3, RNG)
    lhs = frechet_diff(f, rho, 2.0 * h1 - 0.5 * h2)
    rhs = 2.0 * frechet_diff(f, rho, h1) - 0.5 * frechet_diff(f, rho, h2)
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_superoperator_matrix_consistent_with_apply():
    f = lookup("tlogt")
    rho = random_pd(3, (0.1, 10.0), RNG)
    sop = frechet_superoperator(f, rho)
    assert sop.matrix.shape == (9, 9)
    for _ in range(4):
        h = random_hermitian(3, RNG)
        via_matrix = unvec(sop.matrix @ vec(h), 3)
        assert np.allclose(via_matrix, sop.apply(h), atol=1e-12)
    # Hermitian as an n^2 x n^2 matrix (real kernel, symmetric conjugation)
    assert np.allclose(sop.matrix, sop.matrix.conj().T, atol=1e-12)


def test_frechet_inverse_inverts():
    f = lookup("tlogt").derivative()
    rho = random_pd(3, (0.1, 10.0), RNG)
    fwd = frechet_superoperator(f, rho)
    inv = frechet_inverse(f, rho)
    h = random_hermitian(3, RNG)
    assert np.allclose(inv.apply(fwd.apply(h)), h, atol=1e-10)
    assert np.allclose(fwd.matrix @ inv.matrix, np.eye(9), atol=1e-10)


def test_frechet_inverse_closed_form_for_reciprocal():
    # f(t) = -1/t has divided differences 1/(t s); the inverse kernel is t s,
    # so the inverse superoperator is h -> rho h rho.
    fp = lookup("neglog").derivative()
    for dim in (2, 3, 4):
        rho = random_pd(dim, (0.1, 10.0), RNG)
        inv = frechet_inverse(fp, rho)
        h = random_hermitian(dim, RNG)
        want = rho @ h @ rho
        assert np.linalg.norm(inv.apply(h) - want) <= 1e-11 * max(
            1.0, np.linalg.norm(want)
        )


def test_not_invertible_for_degenerate():
    fp = lookup("affine").derivative()  # constant: zero divided differences
    rho = random_pd(3, (0.5, 2.0), RNG)
    with pytest.raises(NotInvertibleError):
        frechet_inverse(fp, rho)


def test_quadratic_form_matches_trace_pairing():
    f = lookup("tlogt").derivative()
    rho = random_pd(3, (0.2, 5.0), RNG)
    sop = frechet_superoperator(f, rho)
    h = random_hermitian(3, RNG)
    want = float(np.real(np.trace(h.conj().T @ sop.apply(h))))
    assert sop.quadratic_form(h) == pytest.approx(want, rel=1e-12)


def test_superoperator_psd_margin_sign():
    # df'(rho) for convex f has a positive kernel, so the superoperator is PSD
    f = lookup("tlogt").derivative()
    rho = random_pd(4, (0.1, 10.0), RNG)
    assert frechet_superoperator(f, rho).psd_margin().normalized >= -1e-13


def fd_second_diff(f, rhos, hs, eps=1e-3):
    # fourth-order central difference of G(rho_1..rho_k) along (h_1..h_k);
    # the plain stencil loses too many digits to cancellation here
    from entrocert.hermitian import trace_of_function

    def g_at(s):
        mats = [hermitize(r + s * h) for r, h in zip(rhos, hs)]
        tot = mats[0].copy()
        for m in mats[1:]:
            tot = tot + m
        return float(
            sum(trace_of_function(f, m) for m in mats) - trace_of_function(f, tot)
        )

    return (
        -g_at(2 * eps) + 16 * g_at(eps) - 30 * g_at(0.0) + 16 * g_at(-eps) - g_at(-2 * eps)
    ) / (12 * eps**2)


@pytest.mark.parametrize("k", [2, 3])
def test_second_diff_G_matches_finite_differences(k):
    f = lookup("tlogt")
    rhos = [random_pd(3, (0.5, 4.0), RNG) for _ in range(k)]
    hs = [random_hermitian(3, RNG) for _ in range(k)]
    hs = [h / np.linalg.norm(h) for h in hs]
    got = second_diff_G(f, rhos, hs)
    ref = fd_second_diff(f, rhos, hs)
    assert got == pytest.approx(ref, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("name", ["tlogt", "square", "neglog"])
def test_supplied_spectra_keep_no_order(name):
    # builds supply their eigenpairs in draw order, not ascending: what reads
    # a checked decomposition must not depend on the order, only on the pairing
    f, n = lookup(name), 4
    rng = np.random.default_rng(5)
    rho, known = pd_from_draw(rng.random(n), rng.standard_normal((2, n, n)), 0.1, 10.0)
    perm = rng.permutation(n)
    shuffled = SpectralDecomposition(known.eigenvalues[perm], known.eigenvectors[:, perm])
    assert not np.array_equal(perm, np.arange(n))
    drawn, permuted = eigh(rho, [known]), eigh(rho, [shuffled])
    h = random_hermitian(n, rng)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    t, tp = spectrum_trace(f, drawn.eigenvalues), spectrum_trace(f, permuted.eigenvalues)
    assert abs(t - tp) <= 1e-13 * abs(t)
    assert abs(t - trace_of_function(f, rho)) <= 1e-13 * abs(t)
    assert close(permuted.reconstruct(), drawn.reconstruct())
    fp = f.derivative()

    def inverse(dec):
        kernel = _inverse_kernel(fp, loewner_matrix(fp, dec.eigenvalues))
        return _kronecker_form(kernel, dec.eigenvectors).matrix

    def pairing(dec):  # Re Tr h df'(rho)[h], as the kept margins weigh it
        return _weighted(loewner_matrix(fp, dec.eigenvalues), _weights(dec.eigenvectors, h))

    assert close(inverse(permuted), inverse(drawn))
    assert close(inverse(drawn), frechet_inverse(fp, rho).matrix)
    q, qp = pairing(drawn), pairing(permuted)
    assert abs(q - qp) <= 1e-13 * abs(q)


def test_frechet_diff_of_non_hermitian_direction_is_not_symmetrised():
    # at rho = diag(1, 2) the derivative in direction E_01 is the Loewner
    # entry (f(1) - f(2)) / (1 - 2) = 2 log 2 for t log t, in place
    rho = np.diag([1.0, 2.0]).astype(complex)
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    out = frechet_diff(lookup("tlogt"), rho, h)
    assert not is_hermitian(out)
    assert np.allclose(out, 2.0 * np.log(2.0) * h, rtol=1e-14, atol=1e-15)


def test_second_diff_G_rejects_mismatched_shapes():
    rho = np.eye(2, dtype=complex)
    f = lookup("tlogt")
    for rhos, hs in [
        (rho, rho),  # no axis of base points
        ([rho, rho], [rho]),
        (np.zeros((0, 2, 2)), np.zeros((0, 2, 2))),
    ]:
        with pytest.raises(ValueError, match="equally many base points and directions"):
            second_diff_G(f, rhos, hs)
    with pytest.raises(ValueError, match="share one dimension"):
        second_diff_G(f, np.ones((2, 2, 3)), np.ones((2, 2, 3)))


def _hermitian_basis(n):
    """T: vec of E_ii, then per i < j (E_ij + E_ji)/sqrt 2 and i(E_ij - E_ji)/sqrt 2, as columns."""
    mats = []
    for i in range(n):
        m = np.zeros((n, n), complex)
        m[i, i] = 1.0
        mats.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), complex)
            e[i, j] = 1.0
            mats += [(e + e.T) / np.sqrt(2), 1j * (e - e.T) / np.sqrt(2)]
    return np.stack([vec(m) for m in mats], axis=-1)


@pytest.mark.parametrize("n", range(1, 9))
def test_real_conjugation_is_orthogonal_in_the_hermitian_basis(n):
    t = _hermitian_basis(n)
    assert np.allclose(t.conj().T @ t, np.eye(n * n), atol=1e-15)
    rows, cols = _basis_pairs(n)
    for a in range(n * n):  # each basis matrix occupies the entry its pair names
        m = unvec(t[:, a], n)
        assert is_hermitian(m) and m[rows[a], cols[a]] != 0
    rs = np.stack([random_unitary(n, RNG) for _ in range(3)])
    o = _real_conjugation(rs)
    assert o.shape == (3, n * n, n * n) and o.dtype == float
    for r, oi in zip(rs, o):
        reference = t.conj().T @ np.kron(r.conj(), r) @ t
        assert np.max(np.abs(oi - reference.real)) < 1e-14
        assert np.max(np.abs(reference.imag)) < 1e-14
        assert np.max(np.abs(oi @ oi.T - np.eye(n * n))) < 1e-14


@pytest.mark.parametrize("name", ["tlogt", "neglog", "exp"])
def test_differential_is_diagonal_in_the_hermitian_basis(name):
    # in the eigenbasis of rho the differential multiplies each Hermitian
    # basis matrix by the Loewner matrix read at its basis pair
    f = lookup(name)
    lam = np.array([0.3, 1.7, 1.7, 4.0])
    t = _hermitian_basis(4)
    real = t.conj().T @ frechet_superoperator(f, np.diag(lam).astype(complex)).matrix @ t
    rows, cols = _basis_pairs(4)
    assert np.allclose(real, np.diag(loewner_matrix(f, lam)[rows, cols]), atol=1e-13, rtol=0)
