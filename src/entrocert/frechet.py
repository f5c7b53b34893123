"""Frechet differentials of matrix functions and their superoperator form.

In the eigenbasis of rho, the differential of the spectral calculus
``rho -> f(rho)`` acts entrywise: the perturbation is multiplied by the
matrix of first divided differences of f over the spectrum (the Loewner
matrix, whose diagonal is f').  As an n^2 x n^2 matrix that map is the
Daleckii-Krein / Kronecker form ``(conj(U) (x) U) diag(vec K) (conj(U) (x) U)*``
(Higham, *Functions of Matrices*, SIAM 2008, ch. 3), on which operator
inequalities between different base points can be tested directly.

A differential of the spectral calculus, and its inverse, is self-adjoint and
maps Hermitian matrices to Hermitian ones, so it is equally a real symmetric
n^2 x n^2 matrix on the real space of Hermitian matrices, with the same
eigenvalues.  Its orthonormal basis here (:func:`_basis_pairs`) is ``E_ii``
for each i, then for each i < j ``(E_ij + E_ji)/sqrt 2`` and
``i(E_ij - E_ji)/sqrt 2``.  In the eigenbasis of rho the differential is
diagonal in that basis, with the Loewner matrix read at the basis pairs
``(i, i), (i, j), (i, j)``; a change of eigenbasis ``X -> R X R*`` is a real
orthogonal matrix (:func:`_real_conjugation`).

Vectorisation convention: column stacking, i.e. ``vec(m)[i + n*j] = m[i, j]``.
Every function here also takes stacks of matrices (leading axes), which is
how the certification suites evaluate many trials in one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .functions import ScalarFunction, _difference_layout, _jointly
from .hermitian import (
    PsdMargin,
    adjoint,
    eigh,
    hermitize,
    is_hermitian,
)

__all__ = [
    "NotInvertibleError",
    "vec",
    "unvec",
    "loewner_matrix",
    "frechet_diff",
    "Superoperator",
    "frechet_superoperator",
    "frechet_inverse",
    "second_diff_G",
]

# Loewner entries at or below this are not safely invertible.
INVERTIBILITY_FLOOR = 1e-12


class NotInvertibleError(ValueError):
    """The differential is not invertible as a positive operator."""


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorisation (of the last two axes)."""
    m = np.asarray(m)
    return np.swapaxes(m, -1, -2).reshape(m.shape[:-2] + (-1,))


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v)
    if dim is None:
        dim = round(v.shape[-1] ** 0.5)
    return np.swapaxes(v.reshape(v.shape[:-1] + (dim, dim)), -1, -2)


def loewner_matrix(f: ScalarFunction, eigenvalues: np.ndarray) -> np.ndarray:
    """Matrix of first divided differences of f over a spectrum (or a stack).

    Real symmetric; diagonal entries are f'(lambda_i).  Built with
    :func:`entrocert.functions._difference_layout`, the rule of
    :func:`entrocert.functions.divided_difference` as well.
    """
    return _loewner(f, [_layout(eigenvalues)])[0]


def _layout(eigenvalues: np.ndarray) -> dict:
    """What the Loewner matrices over a spectrum (or a stack) read of it, whatever f is.

    The eigenvalues, the divisors and the coincident pairs of
    :func:`entrocert.functions._difference_layout`, and, only when there
    are any, the other nearly coincident pairs and a matrix holding their
    midpoints.  Every array keeps the spectrum's leading axes.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    t, s = np.broadcast_arrays(lam[..., :, None], lam[..., None, :])
    gaps, same, near = _difference_layout(t, s)
    out = {"eigenvalues": lam, "gaps": gaps, "same": same}
    if near.any():
        out.update(near=near, mids=np.where(near, 0.5 * (t + s), 0.0))
    return out


def _loewner(f: ScalarFunction, layouts: list[dict]) -> list[np.ndarray]:
    """The Loewner matrix of f over the spectra of each :func:`_layout`, from one evaluation of f.

    f and f' are evaluated in one call at every spectrum and then its near
    midpoints, layout by layout.  A pair of distinct eigenvalues reads the
    difference quotient, an exactly coincident pair f'(t) and a nearly
    coincident one f'((t+s)/2).  The spectra and midpoints are joined by
    :func:`entrocert.functions._jointly`, so an error is the joined call's.
    """
    parts = []
    for lay in layouts:
        parts.append(lay["eigenvalues"])
        if "near" in lay:
            parts.append(lay["mids"][lay["near"]])
    jets = iter(_jointly(lambda t: f.jet(t, 1), parts))
    out = []
    for lay in layouts:
        v, slope = next(jets)
        quotients = (v[..., :, None] - v[..., None, :]) / lay["gaps"]
        k = np.where(lay["same"], slope[..., :, None], quotients)
        if "near" in lay:
            k[lay["near"]] = next(jets)[1]
        out.append(k)
    return out


def _weights(u: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Re(g o g^T), g = U* h U, the weights of a Loewner matrix K in Re Tr h df(rho)[h], as a triangle.

    For rho = U diag(lambda) U*, Re Tr h df(rho)[h] = sum_ij K_ij Re(g_ij g_ji)
    (Daleckii-Krein); the weights do not depend on f.  Both K and the
    weights are symmetric, so the weights are kept as their upper triangle
    (:func:`_triangle`), (..., n(n+1)/2), each entry above the diagonal
    doubled for its mirror.  hs holds m directions (..., m, n, n) at each u
    (..., n, n), conjugated side by side: two matrix products per u rather
    than two per direction.
    """
    *lead, m, n, _ = hs.shape
    side = np.swapaxes(hs, -3, -2).reshape(*lead, n, m * n)  # [h_1 ... h_m]
    left = np.swapaxes((adjoint(u) @ side).reshape(*lead, n, m, n), -3, -2)
    g = (left.reshape(*lead, m * n, n) @ u).reshape(hs.shape)
    rows, cols, factors = _triangle(n)
    return (g[..., rows, cols] * g[..., cols, rows]).real * factors


def _weighted(kernel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_ij K_ij W_ij for a symmetric K (..., n, n) and the triangle of W from :func:`_weights`.

    K's upper triangle is contracted with the weights in one einsum.
    """
    rows, cols, _ = _triangle(kernel.shape[-1])
    return np.einsum("...k,...k->...", kernel[..., rows, cols], weights)


def frechet_diff(f: ScalarFunction, rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Directional derivative of rho -> f(rho) at rho in direction h.

    Linear in h; maps Hermitian h to (exactly) Hermitian output.  General
    square h is accepted as well, in which case no symmetrisation happens.
    """
    dec = eigh(rho)
    u = dec.eigenvectors
    g = adjoint(u) @ np.asarray(h, dtype=complex) @ u
    out = u @ (loewner_matrix(f, dec.eigenvalues) * g) @ adjoint(u)
    if is_hermitian(h):
        return hermitize(out)
    return out


@dataclass(frozen=True)
class Superoperator:
    """A linear map on n x n matrices as an n^2 x n^2 matrix (or a stack of them)."""

    dim: int
    matrix: np.ndarray  # (..., dim^2, dim^2), complex

    def apply(self, h: np.ndarray) -> np.ndarray:
        return unvec((self.matrix @ vec(h)[..., None])[..., 0], self.dim)

    def quadratic_form(self, h: np.ndarray):
        """<h, S h> in the Hilbert-Schmidt inner product (real part)."""
        v = vec(h)
        q = np.sum(v.conj() * (self.matrix @ v[..., None])[..., 0], axis=-1).real
        return float(q) if q.ndim == 0 else q

    def psd_margin(self) -> PsdMargin:
        return PsdMargin.of_spectrum(np.linalg.eigvalsh(hermitize(self.matrix)))


def _conjugation(u: np.ndarray) -> np.ndarray:
    """conj(U) (x) U, the matrix of h -> U h U* on vec(h) (stacks allowed)."""
    n = u.shape[-1]
    return (u.conj()[..., :, None, :, None] * u[..., None, :, None, :]).reshape(
        u.shape[:-2] + (n * n, n * n)
    )


def _kronecker_form(kernel: np.ndarray, u: np.ndarray) -> Superoperator:
    """h -> U (kernel o U* h U) U* as W diag(vec kernel) W*, with W = conj(U) (x) U."""
    w = _conjugation(u)
    return Superoperator(dim=u.shape[-1], matrix=(w * vec(kernel)[..., None, :]) @ adjoint(w))


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only: a cached result is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The upper triangle of an n x n matrix in ``np.triu_indices(n)`` order: (rows, cols, factors).

    A factor is 1 on the diagonal and 2 above it, where an entry of a
    symmetric matrix stands for its mirror too.
    """
    rows, cols = np.triu_indices(n)
    return _read_only(rows, cols, np.where(rows == cols, 1.0, 2.0))


@functools.cache
def _basis_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The entry (i, j) that each of the n^2 Hermitian basis matrices occupies, as (rows, cols).

    The basis is E_ii for each i, then for each i < j (E_ij + E_ji)/sqrt 2
    and i(E_ij - E_ji)/sqrt 2, which both read (i, j).  In the eigenbasis of
    rho a Loewner matrix K read at these pairs, ``K[rows, cols]``, is the
    diagonal of the differential in this basis.
    """
    i, j = np.triu_indices(n, 1)
    rows = np.concatenate([np.arange(n), np.repeat(i, 2)])
    cols = np.concatenate([np.arange(n), np.repeat(j, 2)])
    return _read_only(rows, cols)


@functools.cache
def _real_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each entry of Re(T* W T) reads W = conj(R) (x) R, and with what weight.

    T holds vec of the :func:`_basis_pairs` basis as columns, two nonzero
    entries at most each, so entry (a, b) sums four products at most; each
    weight conj(T_pa) T_qb is real or imaginary and reads Re W_pq or Im W_pq
    alone.  Returns indices into W viewed as interleaved (re, im) floats,
    shape (n^2, n^2, 4), and their weights (zero on padding).
    """
    rows, cols = _basis_pairs(n)
    r2 = 0.5**0.5
    # the (up to) two vec positions of each basis matrix and their entries
    pos = np.stack([rows + n * cols, cols + n * rows], axis=-1)
    val = np.zeros((n * n, 2), complex)
    val[:n, 0] = 1.0
    val[n::2] = (r2, r2)
    val[n + 1 :: 2] = (1j * r2, -1j * r2)
    weight = (val.conj()[:, None, :, None] * val[None, :, None, :]).reshape(n * n, n * n, 4)
    imag = weight.imag != 0.0
    p = np.broadcast_to(pos[:, None, :, None], (n * n, n * n, 2, 2)).reshape(n * n, n * n, 4)
    q = np.broadcast_to(pos[None, :, None, :], (n * n, n * n, 2, 2)).reshape(n * n, n * n, 4)
    return _read_only(2 * (p * n * n + q) + imag, np.where(imag, -weight.imag, weight.real))


def _hermitian_of(x: np.ndarray) -> np.ndarray:
    """The Hermitian matrices whose coordinates in the :func:`_basis_pairs` basis are x (..., n^2)."""
    n = math.isqrt(x.shape[-1])
    rows, cols = _basis_pairs(n)
    i, j = rows[n::2], cols[n::2]
    m = np.zeros(x.shape[:-1] + (n, n), complex)
    m[..., rows[:n], cols[:n]] = x[..., :n]
    m[..., i, j] = (x[..., n::2] + 1j * x[..., n + 1 :: 2]) * 0.5**0.5
    m[..., j, i] = m[..., i, j].conj()
    return m


def _real_conjugation(r: np.ndarray) -> np.ndarray:
    """X -> R X R* on Hermitian X as a real orthogonal n^2 x n^2 matrix, for unitary R.

    Re(T* (conj(R) (x) R) T) in the :func:`_basis_pairs` basis, gathered
    from the entries of conj(R) (x) R (stacks allowed).
    """
    n = r.shape[-1]
    index, weight = _real_gather(n)
    w = _conjugation(np.asarray(r, dtype=complex))
    flat = w.view(float).reshape(r.shape[:-2] + (2 * n**4,))  # (re, im) of each entry in turn
    return np.einsum("...abt,abt->...ab", flat[..., index], weight)


def frechet_superoperator(f: ScalarFunction, rho: np.ndarray) -> Superoperator:
    """The differential of f at rho as an n^2 x n^2 matrix.

    Hermiticity-preserving; its eigenvalues are exactly the multiset of
    Loewner-matrix entries, so it is positive definite whenever the divided
    differences of f are strictly positive.
    """
    dec = eigh(rho)
    return _kronecker_form(loewner_matrix(f, dec.eigenvalues), dec.eigenvectors)


def _inverse_kernel(f: ScalarFunction, kernel: np.ndarray) -> np.ndarray:
    smallest = float(np.min(kernel))
    if not smallest > INVERTIBILITY_FLOOR:  # NaN fails too
        raise NotInvertibleError(
            f"differential of {f.name} is not invertible as a positive operator: "
            f"smallest divided difference {smallest:.3e} <= {INVERTIBILITY_FLOOR:g}"
        )
    return 1.0 / kernel


def frechet_inverse(f: ScalarFunction, rho: np.ndarray) -> Superoperator:
    """Inverse of the differential of f at rho (entrywise reciprocal kernel).

    For a stack, one member that is not invertible raises for the stack.
    """
    dec = eigh(rho)
    return _kronecker_form(_inverse_kernel(f, loewner_matrix(f, dec.eigenvalues)), dec.eigenvectors)


def _flat_with_sums(ms: np.ndarray) -> np.ndarray:
    """The k matrices along axis -3 of every stack member, then their sums, as one flat stack.

    Known eigenpairs of the k matrices (in C order) are a prefix of it.
    """
    n = ms.shape[-1]
    return np.concatenate([ms.reshape(-1, n, n), np.sum(ms, axis=-3).reshape(-1, n, n)])


def _split_sums(values: np.ndarray, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Values over a :func:`_flat_with_sums` stack: the matrices' as ``shape``, then the sums'.

    ``values`` runs over the members along its leading axis; trailing axes
    (a spectrum per member) are kept.  ``shape`` is the stack shape
    (..., k) of the matrices; the sums take (...).
    """
    split, tail = math.prod(shape), values.shape[1:]
    return values[:split].reshape(shape + tail), values[split:].reshape(shape[:-1] + tail)


def second_diff_G(f: ScalarFunction, rhos, hs):
    """Second differential of G(rho_1..rho_k) = sum Tr f(rho_i) - Tr f(sum rho_i).

    Returns ``sum_i Tr h_i df'(rho_i) h_i  -  Tr (sum h_i) df'(sum rho_i) (sum h_i)``,
    the quadratic form whose nonnegativity for all Hermitian directions is
    midpoint convexity of G to second order.  For k=1 this is exactly 0.
    ``rhos`` and ``hs`` hold k matrices along axis -3 (lists are stacked),
    with any leading stack axes before it.
    """
    rhos = np.asarray(rhos, dtype=complex)
    hs = np.asarray(hs, dtype=complex)
    if rhos.ndim < 3 or rhos.shape != hs.shape or rhos.shape[-3] == 0:
        raise ValueError("second_diff_G needs equally many base points and directions")
    if rhos.shape[-1] != rhos.shape[-2]:
        raise ValueError("second_diff_G arguments must share one dimension")
    dec = eigh(_flat_with_sums(rhos))
    # Re Tr h df'(rho)[h] in the eigenbasis of each rho (Daleckii-Krein)
    kernel = loewner_matrix(f.derivative(), dec.eigenvalues)
    q = _weighted(kernel, _weights(dec.eigenvectors, _flat_with_sums(hs)[:, None])[:, 0])
    single, joint = _split_sums(q, rhos.shape[:-2])
    out = np.sum(single, axis=-1) - joint
    return float(out) if out.ndim == 0 else out
