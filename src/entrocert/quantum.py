"""Tensor products, partial traces, quantum channels and operator means.

Composite spaces are ordered with the retained factor first: a bipartite
matrix lives on H1 (x) H2 with combined index i1*dim2 + i2, and
:func:`partial_trace_1` traces out the second factor.  Partial traces and
channel application also take stacks of states, and random channels are
built from raw Gaussian draws as a stack (:func:`channel_from_draw`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import ScalarFunction
from .hermitian import (
    _first_failure,
    _json_integer,
    _json_numbers,
    _unitary_from_draw,
    adjoint,
    hermitize,
    is_hermitian,
    psd_margin,
    trace_of_function,
)

__all__ = [
    "kron",
    "partial_trace_1",
    "apply_kraus",
    "KrausChannel",
    "apply_channel",
    "StinespringIsometry",
    "stinespring_from_kraus",
    "entropy_gain",
    "midpoint_channel",
    "depolarizing_channel",
    "partial_trace_channel",
    "unitary_channel",
    "channel_from_draw",
    "random_channel",
    "harmonic_mean",
    "harmonic_mean_block_margin",
    "channel_to_json",
    "channel_from_json",
]

# Trace preservation / isometry defects beyond this are construction errors.
CHANNEL_TOL = 1e-10


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace_1(rho: np.ndarray, dim1: int, dim2: int) -> np.ndarray:
    """Trace out the second factor of a dim1*dim2 square matrix (or a stack).

    Plain ordered summation over the traced index, so block-diagonal inputs
    reduce to the exact floating-point sum of their blocks.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (dim1 * dim2, dim1 * dim2):
        raise ValueError(
            f"partial_trace_1: shape {rho.shape} does not match {dim1}x{dim2} factors"
        )
    r4 = rho.reshape(rho.shape[:-2] + (dim1, dim2, dim1, dim2))
    out = r4[..., :, 0, :, 0].copy()
    for u in range(1, dim2):
        out = out + r4[..., :, u, :, u]
    return out


def apply_kraus(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_m K_m rho K_m*, summed in Kraus order.

    ``kraus`` holds the operators along axis -3; leading axes of ``kraus``
    and ``rho`` broadcast, so a stack of channels of one shape applies to a
    stack of states in one call.
    """
    kraus = np.asarray(kraus)
    out = 0.0
    for m in range(kraus.shape[-3]):
        k = kraus[..., m, :, :]
        out = out + k @ rho @ adjoint(k)
    return out


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map in Kraus form."""

    in_dim: int
    out_dim: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        acc = np.zeros((self.in_dim, self.in_dim), dtype=complex)
        for k in self.kraus:
            if k.shape != (self.out_dim, self.in_dim):
                raise ValueError(
                    f"Kraus operator shape {k.shape} does not match "
                    f"{self.out_dim}x{self.in_dim}"
                )
            acc = acc + k.conj().T @ k
        defect = float(np.linalg.norm(acc - np.eye(self.in_dim)))
        if not defect <= CHANNEL_TOL:  # a NaN defect fails too
            raise ValueError(
                f"Kraus family is not trace preserving (defect {defect:.3e})"
            )

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The channel on a state (or on each state of a stack)."""
        out = apply_kraus(np.stack(self.kraus), rho)
        if is_hermitian(rho):
            return hermitize(out)
        return out


def apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    return channel.apply(np.asarray(rho, dtype=complex))


@dataclass(frozen=True)
class StinespringIsometry:
    """Isometry W: H_in -> H_out (x) C^env with Tr_env(W rho W*) the channel."""

    matrix: np.ndarray
    out_dim: int
    env_dim: int

    def __post_init__(self):
        w = self.matrix
        defect = float(np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1])))
        if not defect <= CHANNEL_TOL:
            raise ValueError(f"not an isometry (W*W defect {defect:.3e})")

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    def dilate(self, rho: np.ndarray) -> np.ndarray:
        return self.matrix @ rho @ self.matrix.conj().T

    def reduce(self, rho: np.ndarray) -> np.ndarray:
        """The channel action: conjugate by W, then trace out the environment."""
        return partial_trace_1(self.dilate(rho), self.out_dim, self.env_dim)


def stinespring_from_kraus(channel: KrausChannel) -> StinespringIsometry:
    """Stack the Kraus operators into one isometry, environment factor second."""
    r = len(channel.kraus)
    w = np.zeros((channel.out_dim * r, channel.in_dim), dtype=complex)
    for m, k in enumerate(channel.kraus):
        for row in range(channel.out_dim):
            w[row * r + m, :] = k[row, :]
    return StinespringIsometry(matrix=w, out_dim=channel.out_dim, env_dim=r)


def entropy_gain(f: ScalarFunction, channel: KrausChannel, rho: np.ndarray) -> float:
    """S_f(channel(rho)) - S_f(rho) = Tr f(rho) - Tr f(channel(rho))."""
    return trace_of_function(f, rho) - trace_of_function(f, apply_channel(channel, rho))


# --------------------------------------------------------------------------
# specific channels

def midpoint_channel(n: int) -> KrausChannel:
    """The doubling channel that averages the two diagonal n-blocks.

    On C^(2n) with blocks [[rho, a], [b, sigma]] its output is
    diag((rho+sigma)/2 - (a+b)/2, (rho+sigma)/2 + (a+b)/2); in particular it
    maps diag(rho, sigma) to diag(m, m) with m the midpoint.  Trace
    preserving and unital.
    """
    eye = np.eye(n)
    zero = np.zeros((n, n))
    u = np.block([[eye, -eye], [zero, zero]]) / np.sqrt(2.0)
    v = np.block([[zero, zero], [eye, eye]]) / np.sqrt(2.0)
    return KrausChannel(in_dim=2 * n, out_dim=2 * n, kraus=(u.astype(complex), v.astype(complex)))


def depolarizing_channel(n: int) -> KrausChannel:
    """Complete depolarisation to (Tr rho / n) * I, via n^2 scaled matrix units."""
    ops = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0 / np.sqrt(n)
            ops.append(e)
    return KrausChannel(in_dim=n, out_dim=n, kraus=tuple(ops))


def partial_trace_channel(dim1: int, dim2: int) -> KrausChannel:
    """The channel rho -> Tr_2 rho on H1 (x) H2."""
    ops = []
    for m in range(dim2):
        e = np.zeros((1, dim2), dtype=complex)
        e[0, m] = 1.0
        ops.append(np.kron(np.eye(dim1, dtype=complex), e))
    return KrausChannel(in_dim=dim1 * dim2, out_dim=dim1, kraus=tuple(ops))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    return KrausChannel(in_dim=u.shape[1], out_dim=u.shape[0], kraus=(u,))


def channel_from_draw(g: np.ndarray, out_dim: int) -> np.ndarray:
    """Kraus operators (..., n_kraus, out_dim, in_dim) from draws (..., 2, n_kraus*out_dim, in_dim).

    Takes stacks of draws.  The stacked (n_kraus*out_dim) x in_dim matrix is
    orthonormalised by QR with the phase fix, so trace preservation holds by
    construction; it is still checked for every member of the stack.
    """
    q = _unitary_from_draw(g)
    rows, in_dim = q.shape[-2:]
    defect = np.linalg.norm(adjoint(q) @ q - np.eye(in_dim), axis=(-2, -1))
    i = _first_failure(defect, CHANNEL_TOL)  # a NaN defect fails too
    if i is not None:
        raise ValueError(
            f"Kraus family is not trace preserving (defect {float(defect.flat[i]):.3e})"
        )
    return q.reshape(q.shape[:-2] + (rows // out_dim, out_dim, in_dim))


def random_channel(
    in_dim: int, out_dim: int, n_kraus: int, rng: np.random.Generator
) -> KrausChannel:
    """Random channel from an orthonormalised stack of Gaussian blocks (one draw for both parts)."""
    rows = n_kraus * out_dim
    if rows < in_dim:
        raise ValueError(f"need n_kraus*out_dim >= in_dim ({rows} < {in_dim}) for an isometry")
    kraus = channel_from_draw(rng.standard_normal((2, rows, in_dim)), out_dim)
    return KrausChannel(in_dim=in_dim, out_dim=out_dim, kraus=tuple(kraus))


# --------------------------------------------------------------------------
# harmonic mean

def harmonic_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2 (a^-1 + b^-1)^-1 for positive definite a, b."""
    for name, m in (("a", a), ("b", b)):
        w = np.linalg.eigvalsh(np.asarray(m, dtype=complex))
        if float(w[0]) <= 0.0:
            raise ValueError(
                f"harmonic_mean: argument {name} is not positive definite "
                f"(min eigenvalue {float(w[0]):.3e})"
            )
    inv_sum = np.linalg.inv(a) + np.linalg.inv(b)
    return hermitize(2.0 * np.linalg.inv(inv_sum))


def harmonic_mean_block_margin(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """PSD margin of 2 diag(a, b) - [[c, c], [c, c]].

    Nonnegative (up to tolerance) exactly when c is dominated by the
    harmonic mean of a and b.
    """
    n = a.shape[0]
    big = np.zeros((2 * n, 2 * n), dtype=complex)
    big[:n, :n] = 2.0 * a - c
    big[:n, n:] = -c
    big[n:, :n] = -c
    big[n:, n:] = 2.0 * b - c
    return psd_margin(hermitize(big))


# --------------------------------------------------------------------------
# JSON

def channel_to_json(channel: KrausChannel) -> dict:
    ops = [{"re": k.real.tolist(), "im": k.imag.tolist()} for k in channel.kraus]
    return {
        "in_dim": channel.in_dim,
        "out_dim": channel.out_dim,
        "kraus": ops,
    }


def channel_from_json(obj: dict) -> KrausChannel:
    in_dim = _json_integer(obj["in_dim"])
    out_dim = _json_integer(obj["out_dim"])
    ops = []
    for entry in obj["kraus"]:
        re = _json_numbers(entry["re"])
        im = _json_numbers(entry["im"])
        if re.shape != (out_dim, in_dim) or im.shape != (out_dim, in_dim):
            raise ValueError(
                f"Kraus JSON shape {re.shape} does not match {out_dim}x{in_dim}"
            )
        ops.append(re + 1j * im)
    return KrausChannel(in_dim=in_dim, out_dim=out_dim, kraus=tuple(ops))
