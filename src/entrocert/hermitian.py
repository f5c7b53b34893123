"""Hermitian matrices, spectral calculus and trace functionals.

Matrices are plain complex ndarrays kept *exactly* Hermitian: every
constructor here symmetrises, so ``m[j, i] == conj(m[i, j])`` holds bitwise.
The working dimension is small (n <= 8 per tensor factor); everything uses
dense eigendecompositions.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .functions import ScalarFunction, _jointly
from .jets import DomainError

__all__ = [
    "hermitize",
    "is_hermitian",
    "SpectralDecomposition",
    "EighError",
    "eigh",
    "apply_function",
    "spectrum_trace",
    "trace_of_function",
    "entropy",
    "PsdMargin",
    "psd_margin",
    "adjoint",
    "hermitian_from_draw",
    "pd_from_draw",
    "uniform_from_draw",
    "random_unitary",
    "random_hermitian",
    "random_pd",
    "matrix_to_json",
    "matrix_from_json",
]

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
    """Eigenvalues and a unitary of eigenvectors (columns).

    For a stack of matrices both arrays carry the stack's leading axes.
    Eigenvalues that :func:`eigh` computes are ascending; those a build
    supplies (``known``) keep the order they were drawn in.  The spectral
    calculus, the Loewner kernel and the Frechet maps read a decomposition
    only through functions of its eigenpairs, so a joint permutation of
    eigenvalues and eigenvectors leaves them unchanged; a reader of the
    smallest eigenvalue as ``eigenvalues[..., 0]`` needs computed ones.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ adjoint(v)


def _first_failure(defect: np.ndarray, bound) -> int | None:
    """The first member whose defect is not within its bound (a NaN defect fails)."""
    bad = ~(defect <= bound)
    if not bad.any():
        return None
    return int(np.flatnonzero(np.broadcast_to(bad, defect.shape))[0])


def _squares(a: np.ndarray) -> np.ndarray:
    """Sum of |entry|^2 over the last axis of a float view.

    einsum, unlike the ufuncs, does not warn when a square overflows; the
    overflow shows as an infinite sum instead.
    """
    return np.einsum("...i,...i->...", a, a)


def _eigh2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a stack of 2 x 2 Hermitian matrices by one complex Jacobi rotation.

    Like LAPACK, reads the real diagonal a, d and the lower entry b.  With
    the phase p = b / |b| (1 when b = 0), m = D S D* for D = diag(1, p) and
    the real symmetric S = [[a, |b|], [|b|, d]].  The rotation that
    diagonalises S is the symmetric Schur decomposition (Golub & Van Loan,
    *Matrix Computations*, 4th ed., Alg. 8.5.1) with
    t = copysign(2|b|, d - a) / (|d - a| + hypot(d - a, 2|b|)), which never
    divides by a small |b|.  Its eigenvalues are a - t|b| and d + t|b|, that
    is min(a, d) - |t||b| and max(a, d) + |t||b| in ascending order.  The
    inputs must be finite.
    """
    a, d, b = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0]
    r = np.abs(b)
    gap = d - a
    r2 = r + r
    flat = r == 0.0
    # |t|; the added 1 keeps 0 / 0 away when b = 0 and a = d
    t = r2 / (np.abs(gap) + np.hypot(gap, r2) + flat)
    c = 1.0 / np.hypot(1.0, t)
    s = t * c
    tr = t * r
    w = np.empty(a.shape + (2,))
    np.subtract(np.minimum(a, d), tr, out=w[..., 0])
    np.add(np.maximum(a, d), tr, out=w[..., 1])
    # columns (x, -p y) for the lower and (y, p x) for the upper eigenvalue
    swap = gap < 0.0
    x, y = np.where(swap, s, c), np.where(swap, c, s)
    p = np.divide(b, r, out=np.ones(b.shape, dtype=complex), where=~flat)
    v = np.empty(m.shape, dtype=complex)
    v[..., 0, 0] = x
    v[..., 0, 1] = y
    v[..., 1, 0] = -p * y
    v[..., 1, 1] = p * x
    return w, v


def _decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked eigenpairs of a stack: the closed form for 2 x 2, else LAPACK."""
    if m.shape[-2:] == (2, 2):
        return _eigh2(m)
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EighError(f"eigendecomposition did not converge: {exc}") from exc


def eigh(m: np.ndarray, known: Sequence[SpectralDecomposition] = ()) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, with residual checks.

    Accepts a stack of matrices as well.  ``known`` supplies the eigenpairs
    of the leading members of the stack, in the C order of its stack axes
    (all of a single matrix), as one decomposition per run of members;
    only the other members are decomposed, and all eigenpairs are joined
    in one copy.  A stack of 2 x 2 matrices takes a closed-form rotation
    (:func:`_eigh2`); other sizes take LAPACK.  Before any decomposition,
    every member's Frobenius norm must be finite: an overflowing norm would
    make the residual bound vacuous (inf <= inf).  Then every member, supplied or
    computed, is checked on its own, from one product
    [M; V*] V = [M V; V* V]:

    * residual ||M V - V diag(w)||_F <= 1e-12 * max(1, ||M||_F).  This is
      the per-eigenpair form that eigenvalue perturbation bounds read: for
      unit v_j, some eigenvalue of M lies within ||M v_j - w_j v_j|| of w_j;
    * orthogonality ||V* V - I||_F <= 1e-12 * n.

    A NaN defect fails both.  One failing member raises :class:`EighError`,
    so a supplied decomposition of another matrix does too.
    """
    m = np.asarray(m, dtype=complex, order="C")  # the norm reads a float view
    norm2 = _squares(m.reshape(m.shape[:-2] + (-1,)).view(float))
    if not math.isfinite(norm2.max(initial=0.0)):  # max propagates NaN
        raise EighError("matrix norm is not finite; the eigendecomposition cannot be checked")
    n = m.shape[-1]
    if not known:
        w, v = _decompose(m)
    else:
        flat = m.reshape(-1, n, n)
        ws, vs = [], []
        for dec in known:
            kw, kv = np.asarray(dec.eigenvalues), np.asarray(dec.eigenvectors)
            if kw.shape[-1:] != (n,) or kv.shape != kw.shape + (n,):
                break  # reported below
            ws.append(kw.reshape(-1, n))
            vs.append(kv.reshape(-1, n, n))
        k = sum(map(len, ws))
        if len(ws) < len(known) or k > len(flat):
            shapes = ", ".join(str(np.shape(dec.eigenvalues)) for dec in known)
            raise ValueError(
                f"known eigenpairs of shapes {shapes} do not fit a stack of shape {m.shape}"
            )
        if k < len(flat):
            fw, fv = _decompose(flat[k:])
            ws.append(fw)
            vs.append(fv)
        w = np.concatenate(ws).reshape(m.shape[:-1])
        v = np.concatenate(vs).reshape(m.shape)
    defect = np.concatenate((m, adjoint(v)), axis=-2) @ v
    defect[..., :n, :] -= v * w[..., None, :]
    defect[..., n:, :] -= np.eye(n)
    # squared residual and orthogonality defects side by side, shape (..., 2)
    sq = _squares(defect.reshape(defect.shape[:-2] + (2, n * n)).view(float))
    bound = np.empty(sq.shape)
    np.maximum(norm2, 1.0, out=bound[..., 0])
    bound[..., 1] = n * n
    ok = sq <= EIGH_RESIDUAL_TOL**2 * bound
    if not ok.all():
        _raise_defect(sq, norm2, n)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def _raise_defect(sq: np.ndarray, norm2: np.ndarray, n: int):
    """The EighError of the first member failing the residual check, else the orthogonality one."""
    scale2 = np.maximum(norm2, 1.0)
    i = _first_failure(sq[..., 0], EIGH_RESIDUAL_TOL**2 * scale2)
    if i is not None:
        res, sc = math.sqrt(sq[..., 0].flat[i]), math.sqrt(scale2.flat[i])
        raise EighError(
            f"eigendecomposition residual {res:.3e} exceeds {EIGH_RESIDUAL_TOL:g} * {sc:g}",
            residual=res,
        )
    defect = math.sqrt(sq[..., 1].flat[_first_failure(sq[..., 1], EIGH_RESIDUAL_TOL**2 * (n * n))])
    raise EighError(f"eigenvector matrix not unitary (defect {defect:.3e})", residual=defect)


def _zero_clamp(eigenvalues: np.ndarray) -> np.ndarray:
    """Which eigenvalues lie within ZERO_CLAMP_TOL * max(1, scale) of zero.

    The scale is the spectral radius of each spectrum (the last axis).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    scale = np.max(np.abs(lam), axis=-1, keepdims=True, initial=0.0)
    return np.abs(lam) <= ZERO_CLAMP_TOL * np.maximum(1.0, scale)


def _function_values(f: ScalarFunction, eigenvalues: np.ndarray) -> np.ndarray:
    """f over a spectrum (or a stack of spectra) in one call of f; see :func:`_spectra_values`."""
    lam = np.asarray(eigenvalues, dtype=float)
    return _spectra_values(f, (lam,), (_zero_clamp(lam),))[0]


def _spectra_values(f: ScalarFunction, spectra: tuple, clamps: tuple) -> list[np.ndarray]:
    """f over each stack of checked spectra, given their :func:`_zero_clamp` masks, in one call of f.

    When f has a zero extension, the masked eigenvalues (within
    ZERO_CLAMP_TOL * max(1, spectral radius) of zero) become exact zeros,
    which f maps to f(0).  Without the clamp, the numerically-zero spectrum
    of embeddings like W rho W^dagger would leak O(sqrt(eps)) errors through
    functions with unbounded slope at 0.  Any other eigenvalue that is not
    positive raises DomainError, and the spectra are evaluated as by
    :func:`entrocert.functions._jointly`.
    """
    clamp = f.zero_extension is not None
    if clamp:
        spectra = tuple(np.where(mask, 0.0, lam) for lam, mask in zip(spectra, clamps))

    def evaluate(lam):
        ok = lam >= 0.0 if clamp else lam > 0.0  # NaN fails both
        if not ok.all():
            raise DomainError(f"eigenvalue {float(lam[~ok][0]):.6g} outside the domain of {f.name}")
        return np.asarray(f(lam), dtype=float)

    return _jointly(evaluate, spectra)


def apply_function(f: ScalarFunction, m: np.ndarray) -> np.ndarray:
    """f(m) by spectral calculus; the result is exactly Hermitian."""
    dec = eigh(m)
    vals = _function_values(f, dec.eigenvalues)
    v = dec.eigenvectors
    return hermitize((v * vals[..., None, :]) @ adjoint(v))


def spectrum_trace(f: ScalarFunction, eigenvalues: np.ndarray):
    """The sum of f over a checked spectrum (an array of sums for a stack)."""
    total = np.sum(_function_values(f, eigenvalues), axis=-1)
    return float(total) if total.ndim == 0 else total


def trace_of_function(f: ScalarFunction, m: np.ndarray):
    """Tr f(m) = sum of f over the spectrum (an array of traces for a stack)."""
    return spectrum_trace(f, eigh(m).eigenvalues)


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
# then builds the matrix from it.  A draw is nothing but the Generator's
# numbers: uniforms for a spectrum, and the real and imaginary Gaussian parts
# of a matrix, shape (2, rows, cols).  All arithmetic on them (the map of the
# uniforms onto the log-range, exp and clip of a spectrum, complex assembly,
# QR, U diag(lam) U*, hermitize) is in the ``*_from_draw`` builders, which
# take stacks; the one-trial generators call them on a single draw.  The
# certification suites, the derived-Hessian search included, draw each trial
# from its own stream straight into its row of raw column buffers shared by
# a chunk of trials, and build each column of the chunk at once.

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
    return _unitary_from_draw(rng.standard_normal((2, dim, dim)))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return hermitian_from_draw(rng.standard_normal((2, dim, dim)))


def uniform_from_draw(u, low, high):
    """``Generator.uniform(low, high)`` from the Generator's ``random()`` draws u, bit for bit.

    uniform computes low + (high - low) * random() in double precision, so
    drawing random() into a buffer and mapping it afterwards gives the same
    numbers and leaves the Generator in the same state.
    """
    return low + (high - low) * u


def pd_from_draw(
    u: np.ndarray, g: np.ndarray, lo: float, hi: float
) -> tuple[np.ndarray, SpectralDecomposition]:
    """U diag(lam) U* from spectrum uniforms u and a Gaussian draw g, with (lam, U); takes stacks.

    lam is exp(uniform(log lo, log hi)) of the uniforms u, clipped to
    [lo, hi], in draw order, and U the unitary of g.  The pair is
    unchecked until it is given to :func:`eigh` as ``known``.
    """
    log_lo = math.log(lo)
    lam = np.minimum(np.maximum(np.exp(uniform_from_draw(u, log_lo, math.log(hi))), lo), hi)
    q = _unitary_from_draw(g)
    m = hermitize((q * lam[..., None, :]) @ adjoint(q))
    return m, SpectralDecomposition(eigenvalues=lam, eigenvectors=q)


def random_pd(
    dim: int, eig_range: tuple[float, float], rng: np.random.Generator
) -> np.ndarray:
    """Random positive definite matrix with log-uniform spectrum in eig_range.

    Draws the spectrum's uniforms (none when lo == hi), then a Gaussian.
    """
    lo, hi = float(eig_range[0]), float(eig_range[1])
    if not 0.0 < lo <= hi < math.inf:
        raise ValueError(f"invalid eigenvalue range [{lo}, {hi}]")
    u = np.zeros(dim) if lo == hi else rng.random(dim)
    return pd_from_draw(u, rng.standard_normal((2, dim, dim)), lo, hi)[0]


# --------------------------------------------------------------------------
# JSON round trip

def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def _json_integer(value) -> int:
    """A JSON number of integral value (2 or 2.0) as an int; ValueError for any other value.

    int() would read 2.9 as 2.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"expected an integer, got {value!r}") from None


def matrix_from_json(obj: dict) -> np.ndarray:
    n = _json_integer(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix JSON shape mismatch for dim {n}")
    # Hermitian symmetry is an invariant, not an assumption about the file
    return hermitize(re + 1j * im)
