"""Hermitian matrices, spectral calculus and trace functionals.

Matrices are plain complex ndarrays kept *exactly* Hermitian: every
constructor here symmetrises, so ``m[j, i] == conj(m[i, j])`` holds bitwise.
The working dimension is small (n <= 8 per tensor factor); everything uses
dense eigendecompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import ScalarFunction
from .jets import DomainError

__all__ = [
    "hermitize",
    "is_hermitian",
    "SpectralDecomposition",
    "EighError",
    "eigh",
    "apply_function",
    "trace",
    "trace_of_function",
    "entropy",
    "PsdMargin",
    "psd_margin",
    "adjoint",
    "gaussian_draw",
    "hermitian_from_draw",
    "pd_draw",
    "pd_from_draw",
    "random_unitary",
    "random_hermitian",
    "random_pd",
    "matrix_to_json",
    "matrix_from_json",
]

MAX_DIM = 8  # per tensor factor; composites may be larger

# Residual bounds for the eigendecomposition, relative to max(1, scale).
EIGH_RESIDUAL_TOL = 1e-12

# Eigenvalues this far below zero (relative) still count as "zero" when the
# function declares a continuous extension at 0.
ZERO_CLAMP_TOL = 1e-12


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(np.conj(a), -1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a*) / 2; exact conjugate symmetry by construction."""
    a = np.asarray(a, dtype=complex)
    return (a + adjoint(a)) / 2.0


def is_hermitian(a: np.ndarray) -> bool:
    """True when the matrix (every matrix of a stack) is exactly Hermitian."""
    a = np.asarray(a)
    return a.ndim >= 2 and a.shape[-1] == a.shape[-2] and np.array_equal(a, adjoint(a))


class EighError(RuntimeError):
    """Eigendecomposition failed to converge or missed its residual bound."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and a unitary of eigenvectors (columns).

    For a stack of matrices both arrays carry the stack's leading axes.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ adjoint(v)


def _first_failure(defect: np.ndarray, bound) -> int | None:
    """The first member whose defect is not within its bound (a NaN defect fails)."""
    bad = ~(defect <= bound)
    if not bad.any():
        return None
    return int(np.flatnonzero(np.broadcast_to(bad, defect.shape))[0])


def eigh(m: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, with residual checks.

    Accepts a stack of matrices as well; every member is checked on its own
    (residual relative to its own norm, orthogonality of its own
    eigenvectors) and one failing member raises :class:`EighError`.
    """
    m = np.asarray(m, dtype=complex)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EighError(f"eigendecomposition did not converge: {exc}") from exc
    scale = np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
    if not np.isfinite(scale).all():
        # an overflowing norm would make the residual bound vacuous (inf <= inf)
        raise EighError("matrix norm is not finite; the eigendecomposition cannot be checked")
    residual = np.linalg.norm((v * w[..., None, :]) @ adjoint(v) - m, axis=(-2, -1))
    i = _first_failure(residual, EIGH_RESIDUAL_TOL * scale)
    if i is not None:
        res, sc = float(residual.flat[i]), float(np.broadcast_to(scale, residual.shape).flat[i])
        raise EighError(
            f"eigendecomposition residual {res:.3e} exceeds {EIGH_RESIDUAL_TOL:g} * {sc:g}",
            residual=res,
        )
    n = m.shape[-1]
    ortho = np.linalg.norm(adjoint(v) @ v - np.eye(n), axis=(-2, -1))
    i = _first_failure(ortho, EIGH_RESIDUAL_TOL * n)
    if i is not None:
        defect = float(ortho.flat[i])
        raise EighError(f"eigenvector matrix not unitary (defect {defect:.3e})", residual=defect)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def _function_values(f: ScalarFunction, eigenvalues: np.ndarray) -> np.ndarray:
    """f applied to a spectrum (or a stack of spectra), honouring the zero extension and domain.

    Eigenvalues within ZERO_CLAMP_TOL * max(1, scale) of zero are treated as
    exact zeros when the function has a zero extension; the scale is the
    spectral radius of each spectrum.  Without the clamp, the
    numerically-zero spectrum of embeddings like W rho W^dagger would leak
    O(sqrt(eps)) errors through functions with unbounded slope at 0.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    out = np.zeros(lam.shape)
    if lam.size == 0:
        return out
    zero = np.zeros(lam.shape, dtype=bool)
    if f.zero_extension is not None and f.domain_min == 0.0:
        scale = np.max(np.abs(lam), axis=-1, keepdims=True)
        zero = np.abs(lam) <= ZERO_CLAMP_TOL * np.maximum(1.0, scale)
        out[zero] = f.zero_extension
    inside = ~zero & (lam > f.domain_min)
    if not np.all(zero | inside):
        bad = float(lam[~(zero | inside)][0])
        raise DomainError(f"eigenvalue {bad:.6g} outside the domain of {f.name}")
    if inside.all():
        return np.asarray(f(lam), dtype=float)
    out[inside] = f(lam[inside])
    return out


def apply_function(
    f: ScalarFunction, m: np.ndarray, decomp: SpectralDecomposition | None = None
) -> np.ndarray:
    """f(m) by spectral calculus; the result is exactly Hermitian."""
    dec = decomp if decomp is not None else eigh(m)
    vals = _function_values(f, dec.eigenvalues)
    v = dec.eigenvectors
    return hermitize((v * vals[..., None, :]) @ adjoint(v))


def trace(m: np.ndarray) -> complex:
    return complex(np.trace(np.asarray(m)))


def trace_of_function(
    f: ScalarFunction, m: np.ndarray, decomp: SpectralDecomposition | None = None
):
    """Tr f(m) = sum of f over the spectrum (an array of traces for a stack)."""
    dec = decomp if decomp is not None else eigh(m)
    total = np.sum(_function_values(f, dec.eigenvalues), axis=-1)
    return float(total) if total.ndim == 0 else total


def entropy(f: ScalarFunction, m: np.ndarray):
    """S_f(m) = -Tr f(m)."""
    return -trace_of_function(f, m)


@dataclass(frozen=True)
class PsdMargin:
    """Signed distance of a Hermitian matrix from the PSD cone.

    ``scale`` is the spectral radius of the tested matrix; ``normalized``
    divides by max(1, scale).  For a stack both fields are arrays.
    """

    min_eigenvalue: float
    scale: float

    @property
    def normalized(self):
        out = self.min_eigenvalue / np.maximum(1.0, self.scale)
        return float(out) if np.ndim(out) == 0 else out

    @staticmethod
    def of_spectrum(w: np.ndarray) -> "PsdMargin":
        """From ascending eigenvalues (a float pair, or arrays for a stack)."""
        lo, rad = w[..., 0], np.max(np.abs(w), axis=-1)
        if lo.ndim == 0:
            return PsdMargin(min_eigenvalue=float(lo), scale=float(rad))
        return PsdMargin(min_eigenvalue=lo, scale=rad)


def psd_margin(m: np.ndarray) -> PsdMargin:
    return PsdMargin.of_spectrum(np.linalg.eigvalsh(np.asarray(m, dtype=complex)))


# --------------------------------------------------------------------------
# random generators (all take an explicit numpy Generator; no global state)
#
# Each generator first takes raw output from the Generator (the *draw*) and
# then builds the matrix from it.  A draw keeps nothing but the Generator's
# numbers; all arithmetic on them (exp and clip of a spectrum, complex
# assembly, QR, U diag(lam) U*, hermitize) is in the build step, which takes
# stacks.  A batch of trials therefore draws one trial at a time, each from
# its own stream, and builds the matrices of the whole batch at once.

def gaussian_draw(dim: int, rng: np.random.Generator, *, lead: tuple = (), out=None) -> np.ndarray:
    """Raw draws of complex Gaussian dim x dim matrices, shape lead + (2, dim, dim).

    Axis -3 holds the real part, then the imaginary part, of each matrix in
    turn.  ``out`` is an optional buffer of that shape to draw into.
    """
    return rng.standard_normal((*lead, 2, dim, dim), out=out)


def _complex_from_draw(g: np.ndarray) -> np.ndarray:
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def _unitary_from_draw(g: np.ndarray) -> np.ndarray:
    """Haar-like unitary: QR of a complex Gaussian with phase correction.

    A tall draw gives an isometry (orthonormal columns) the same way.
    """
    q, r = np.linalg.qr(_complex_from_draw(g))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def hermitian_from_draw(g: np.ndarray) -> np.ndarray:
    """The Hermitian part of the complex Gaussian of a draw (stacks allowed)."""
    return hermitize(_complex_from_draw(g))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _unitary_from_draw(gaussian_draw(dim, rng))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return hermitian_from_draw(gaussian_draw(dim, rng))


def pd_draw(
    dim: int, eig_range: tuple[float, float], rng: np.random.Generator, count: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The draws behind :func:`random_pd`: a log-spectrum (dim,) and a Gaussian draw.

    With ``count``, that many (spectrum, Gaussian) pairs are drawn in turn,
    into arrays with a leading axis of that length.  With lo == hi nothing
    is drawn for a spectrum; its logs are log(lo), which the clip in
    :func:`pd_from_draw` turns into exactly lo.
    """
    lo, hi = float(eig_range[0]), float(eig_range[1])
    if not 0.0 < lo <= hi:
        raise ValueError(f"invalid eigenvalue range [{lo}, {hi}]")
    log_lo, log_hi = math.log(lo), math.log(hi)

    def spectrum():
        return np.full(dim, log_lo) if lo == hi else rng.uniform(log_lo, log_hi, size=dim)

    if count is None:
        return spectrum(), gaussian_draw(dim, rng)
    logs, normals = np.empty((count, dim)), np.empty((count, 2, dim, dim))
    for i in range(count):
        logs[i] = spectrum()
        gaussian_draw(dim, rng, out=normals[i])
    return logs, normals


def pd_from_draw(logs: np.ndarray, g: np.ndarray, lo, hi) -> np.ndarray:
    """U diag(lam) U* from the draws of :func:`pd_draw`; takes stacks of draws.

    lam is exp(logs) clipped to [lo, hi] (bounds broadcast against logs, so
    every trial of a stack may carry its own), and U the unitary of g.
    """
    lam = np.minimum(np.maximum(np.exp(logs), lo), hi)
    u = _unitary_from_draw(g)
    return hermitize((u * lam[..., None, :]) @ adjoint(u))


def random_pd(
    dim: int, eig_range: tuple[float, float], rng: np.random.Generator
) -> np.ndarray:
    """Random positive definite matrix with log-uniform spectrum in eig_range."""
    return pd_from_draw(*pd_draw(dim, eig_range, rng), float(eig_range[0]), float(eig_range[1]))


# --------------------------------------------------------------------------
# JSON round trip

def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    n = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix JSON shape mismatch for dim {n}")
    # Hermitian symmetry is an invariant, not an assumption about the file
    return hermitize(re + 1j * im)
