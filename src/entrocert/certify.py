"""Randomized certification suites for the entropy-property hierarchy.

Verdict vocabulary (used by every suite):

* PASS   -- no violation found at the configured sampling budget.  For a
            property that holds mathematically this is the expected verdict,
            but it is evidence, not proof.
* FAIL   -- a concrete counterexample was found; the outcome carries a JSON
            payload that re-verifies standalone (reverify_counterexample).
* INCONCLUSIVE -- the function is expected to violate the property, but the
            search exhausted its budget without producing a witness.
* SKIPPED -- the property does not apply (degenerate second derivative, or
            no admissible trial).

Margins follow one convention.  For a midpoint-convexity claim of a
functional phi, the trial margin is

    ((phi(x) + phi(y))/2 - phi((x+y)/2)) / max(1, |phi(x)| + |phi(y)|)

and the claim holds on the trial iff margin >= -tol.  Operator-order claims
use min_eigenvalue / max(1, spectral radius) of the difference.  Concavity
claims are convexity claims of the negated functional.

Each property is defined once, as a :class:`_Property` record: the fields of
its counterexample payload and a ``margin(f, payloads)`` that measures a
whole stack of trials.  Sampling, escalation and reverify_counterexample all
go through that one margin; re-verification is a batch of one.

Every suite is a list of trial plans, and one aggregator (_drive) turns
their margins into the outcome.  A sampled trial draws its randomness from an
independent stream keyed by (seed, stream name, trial index): NumPy's
``default_rng(SeedSequence([seed, token, index]))``, bit for bit, with the
seed states of a whole plan computed at once.  A trial keeps only the
Generator's raw output; the gap suites' trials are fixed grid points and
draw nothing.  The matrices and channels are built from the raw draws, and
the linear algebra runs, on stacks of trials (in chunks under a fixed memory
ceiling), so outcomes do not depend on how trials are batched.  Growing the
sample budget re-runs the same leading trials, so a FAIL can never flip back
to PASS.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .frechet import (
    NotInvertibleError,
    Superoperator,
    _frechet_pair,
    _pairing,
    _second_diff_terms,
    frechet_inverse,
    unvec,
    vec,
)
from .functions import DegenerateFunctionError, ScalarFunction, gap_function
from .hermitian import (
    gaussian_draw,
    hermitian_from_draw,
    hermitize,
    matrix_from_json,
    matrix_to_json,
    pd_draw,
    pd_from_draw,
    random_pd,
    trace_of_function,
)
from .jets import DomainError
from .quantum import (
    KrausChannel,
    apply_kraus,
    channel_draw,
    channel_from_draw,
    channel_from_json,
    channel_to_json,
    partial_trace_1,
    partial_trace_channel,
)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
INCONCLUSIVE = "INCONCLUSIVE"

#: suite tokens accepted by run_suite / the CLI
SUITE_TOKENS = (
    "all",
    "principle1",
    "entropic",
    "subentropic",
    "condition13",
    "equivalence",
    "matrix-entropy",
    "gain",
    "gap",
    "uniqueness",
)

_SUBENTROPIC_ORDERS = (2, 3, 4)

# Grid used by the scalar convexity precheck and the gap-function tests.
_SCALAR_GRID = np.logspace(-2.0, 2.0, 41)
_GAP_GRID = np.logspace(-3.0, 2.0, 25)
_GAP_ZERO_PROBE = 1e-6
_GAP_ZERO_CEILING = 1e-3

# Minimum eigenvalue demanded of states fed to functions without a zero
# extension (and of channel outputs for such functions).
_RANK_FLOOR = 1e-8

# Stretch factors tried when escalating the worst sampled pair.
_STRETCHES = (2.0, 4.0, 8.0, 16.0)

# Random channels in gain have 2..this many Kraus operators.
_MAX_KRAUS = 4

# Random direction pairs per equivalence trial.
_EQUIVALENCE_DIRECTIONS = 16

# Estimated working memory of one stacked chunk of trials.  Chunks stay
# under it, so batching does not raise the peak memory of a run.
_CHUNK_BYTES = 1 << 20

__all__ = [
    "PASS",
    "FAIL",
    "SKIPPED",
    "INCONCLUSIVE",
    "SUITE_TOKENS",
    "TestConfig",
    "TestOutcome",
    "PipelineResult",
    "test_principle1_concavity",
    "test_entropic",
    "test_subentropic_order_k",
    "test_condition13",
    "test_equivalence_13_vs_hessian",
    "test_matrix_entropy",
    "test_entropy_gain_convexity",
    "test_gap_superadditive",
    "test_gap_concavity",
    "uniqueness_pipeline",
    "run_suite",
    "worst_exit_code",
    "reverify_counterexample",
]


@dataclass(frozen=True)
class TestConfig:
    """Knobs shared by all suites.  The seed is mandatory: no wall-clock runs."""

    seed: int
    dims: tuple[int, ...] = (2, 3)
    samples: int = 200
    tol: float = 1e-8
    eig_range: tuple[float, float] = (0.1, 10.0)
    bipartite: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 2))

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(
            self, "eig_range", (float(self.eig_range[0]), float(self.eig_range[1]))
        )
        object.__setattr__(
            self, "bipartite", tuple((int(a), int(b)) for a, b in self.bipartite)
        )
        # one stream per 64-bit seed: a wider seed would alias another's trials
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must lie in [0, 2**64)")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        # normalised PSD margins are >= -1, so tol >= 1 could never refute condition13
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        lo, hi = self.eig_range
        if not 0.0 < lo <= hi < np.inf:
            raise ValueError(f"invalid eigenvalue range [{lo}, {hi}]")
        if not self.dims or any(not 1 <= d <= 8 for d in self.dims):
            raise ValueError("dims must be nonempty with entries in 1..8")
        if not self.bipartite or any(
            not (1 <= a <= 8 and 1 <= b <= 8) for a, b in self.bipartite
        ):
            raise ValueError("bipartite factors must lie in 1..8")

    def as_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "dims": list(self.dims),
            "samples": int(self.samples),
            "tol": float(self.tol),
            "eig_range": list(self.eig_range),
            "bipartite": [list(p) for p in self.bipartite],
        }


def config_from_dict(obj: dict) -> TestConfig:
    return TestConfig(
        seed=int(obj["seed"]),
        dims=tuple(obj["dims"]),
        samples=int(obj["samples"]),
        tol=float(obj["tol"]),
        eig_range=tuple(obj["eig_range"]),
        bipartite=tuple(tuple(p) for p in obj["bipartite"]),
    )


@dataclass(frozen=True)
class TestOutcome:
    name: str
    function: str
    verdict: str
    min_margin: Optional[float]
    trials_run: int
    trials_skipped: int = 0
    counterexample: Optional[dict] = None
    detail: str = ""


@dataclass(frozen=True)
class PipelineResult:
    stages: tuple[TestOutcome, ...]
    fit: Optional[dict]
    outcome: TestOutcome


def _join(a: str, b: str) -> str:
    return f"{a}; {b}" if a else b


# --------------------------------------------------------------------------
# deterministic trial streams

@functools.lru_cache(maxsize=None)
def _stream_token(stream: str) -> int:
    return int.from_bytes(hashlib.blake2b(stream.encode("utf-8"), digest_size=8).digest(), "big")


# NumPy's SeedSequence (NEP 19) hashes its entropy words into a pool of four
# 32-bit words and expands the pool into the seed of PCG64 (O'Neill 2014).
# The steps below are that hash and PCG64's set_seed, run over a vector of
# trial indices at once (one lane per trial; uint32 arithmetic wraps as in C).
# The constants are SeedSequence's and PCG64's own.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _u32_words(n: int) -> list[int]:
    """n as SeedSequence reads an integer: little-endian 32-bit words, [0] for 0."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hash_constants(init: int, mult: int, steps: int) -> list[int]:
    """SeedSequence's hash constant before each of ``steps`` hash steps, and after the last."""
    out = [init]
    for _ in range(steps):
        out.append(out[-1] * mult & _M32)
    return out


def _pool_steps(max_words: int) -> tuple[np.ndarray, np.ndarray]:
    """Per pool-wide step, the (4, 1) columns each pool word is hashed with: xor, then multiply.

    Step 0 hashes the first four entropy words (zeros past the end), steps
    1-4 mix word ``src`` into every other word (row ``src`` is unused), and
    each later step mixes one further entropy word into all four.
    """
    c = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + max_words))
    order = list(range(_POOL_SIZE))
    rows = [order] + [[d for d in order if d != src] for src in order]
    rows += [order] * (max_words - _POOL_SIZE)
    xor = np.zeros((len(rows), _POOL_SIZE, 1), dtype=np.uint32)
    mul = np.zeros_like(xor)
    k = 0
    for step, dsts in enumerate(rows):
        for d in dsts:
            xor[step, d], mul[step, d] = c[k], c[k + 1]
            k += 1
    return xor, mul


# seed, stream token and trial index take at most two words each
_POOL_XOR, _POOL_MUL = _pool_steps(6)
_OUT_CONSTANTS = np.array(_hash_constants(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]


def _seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, np.uint64), lane-wise.

    ``entropy`` holds one uint32 entropy word per row and one lane per
    column; the result holds the four uint64 words per column.
    """

    def hashmix(v, step):
        v = (v ^ _POOL_XOR[step]) * _POOL_MUL[step]
        return v ^ (v >> 16)

    def mix(x, y):
        r = _MIX_MULT_L * x - _MIX_MULT_R * y
        return r ^ (r >> 16)

    head = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    head[: min(len(entropy), _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = hashmix(head, 0)
    for src in range(_POOL_SIZE):
        mixed = mix(pool, hashmix(pool[src], 1 + src))
        mixed[src] = pool[src]
        pool = mixed
    for step, word in enumerate(entropy[_POOL_SIZE:], start=1 + _POOL_SIZE):
        pool = mix(pool, hashmix(word, step))
    # generate_state: eight words from the pool in turn, paired little-endian into uint64
    v = (np.tile(pool, (2, 1)) ^ _OUT_CONSTANTS[:-1]) * _OUT_CONSTANTS[1:]
    v = (v ^ (v >> 16)).astype(np.uint64)
    return v[0::2] | (v[1::2] << 32)


def _trial_streams(seed: int, stream: str, indices) -> Iterator[np.random.Generator]:
    """The Generators of trials ``indices`` of ``stream``, in order.

    Trial i's Generator is bitwise that of
    ``np.random.default_rng(np.random.SeedSequence([seed, token, i]))``.
    The seed states of all the indices are computed at once, and one
    Generator is reset to each in turn: draw from it before advancing.
    """
    idx = np.asarray(indices, dtype=np.uint64).reshape(-1)
    head = _u32_words(seed) + _u32_words(_stream_token(stream))
    states = [(0, 0)] * idx.size
    wide = idx > _M32  # SeedSequence reads these indices as two words
    for lanes in (np.flatnonzero(~wide), np.flatnonzero(wide)):
        if not lanes.size:
            continue
        entropy = np.empty((len(head) + 1 + int(wide[lanes[0]]), lanes.size), dtype=np.uint32)
        entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
        entropy[len(head)] = idx[lanes] & _M32
        entropy[len(head) + 1 :] = idx[lanes] >> 32
        # PCG64's set_seed of 128-bit (initstate, initseq) from the four words:
        # inc = 2*initseq + 1 and state = (inc + initstate) * mult + inc
        words = _seed_sequence_words(entropy).tolist()
        for lane, s_hi, s_lo, q_hi, q_lo in zip(lanes.tolist(), *words):
            inc = (((q_hi << 64) | q_lo) << 1 | 1) & _M128
            states[lane] = (((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _M128, inc)
    rng = np.random.Generator(np.random.PCG64(0))
    for state, inc in states:
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        yield rng


class _Draw:
    """Raw Generator output for one payload field, built as a stack by _stack.

    Trials whose fields agree in ``tag`` and built ``shape`` stack together;
    a draw tagged "array" also stacks with plain arrays of its built shape.
    """

    __slots__ = ()
    tag = "array"

    @property
    def nbytes(self) -> int:
        """Size of the built complex matrices, for chunk sizing."""
        return 16 * math.prod(self.shape)


@dataclass(slots=True)
class _PdDraw(_Draw):
    """Draws of one or more random PD matrices (see hermitian.pd_draw)."""

    logs: np.ndarray
    normals: np.ndarray
    lo: float
    hi: float
    tag = "pd"

    @property
    def shape(self) -> tuple:
        return self.logs.shape + self.logs.shape[-1:]

    @staticmethod
    def build(draws: list) -> np.ndarray:
        # every trial keeps its own spectrum bounds (condition13 stretches some)
        lo, hi = np.array([(d.lo, d.hi) for d in draws]).T
        per_trial = (-1,) + (1,) * draws[0].logs.ndim
        logs, normals = np.stack([d.logs for d in draws]), np.stack([d.normals for d in draws])
        return pd_from_draw(logs, normals, lo.reshape(per_trial), hi.reshape(per_trial))


@dataclass(slots=True)
class _DiagDraw(_Draw):
    """The log-spectrum (n,) of a diagonal PD state."""

    logs: np.ndarray
    tag = "diag"

    @property
    def shape(self) -> tuple:
        return self.logs.shape + self.logs.shape[-1:]

    @staticmethod
    def build(draws: list) -> np.ndarray:
        vals = np.exp(np.stack([d.logs for d in draws]))
        out = np.zeros(vals.shape + vals.shape[-1:], dtype=complex)
        i = np.arange(vals.shape[-1])
        out[..., i, i] = vals
        return out


@dataclass(slots=True)
class _HermDraw(_Draw):
    """Gaussian draws (..., 2, n, n) of one or more Hermitian directions."""

    normals: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.normals.shape[:-3] + self.normals.shape[-2:]

    @staticmethod
    def build(draws: list) -> np.ndarray:
        return hermitian_from_draw(np.stack([d.normals for d in draws]))


@dataclass(slots=True)
class _ChannelDraw(_Draw):
    """The draw (2, r*out, in) of a random channel, built with _MAX_KRAUS operators.

    Operators past the drawn rank r are exact zeros, which add nothing to
    the channel's action, so channels of one (in, out) stack together
    whatever their rank.
    """

    normals: np.ndarray
    out_dim: int
    tag = "channel"

    @property
    def shape(self) -> tuple:
        return (_MAX_KRAUS, self.out_dim, self.normals.shape[-1])

    @property
    def nbytes(self) -> int:
        # the drawn operators only, as before the padding, so chunks are cut where they were
        return 8 * self.normals.size

    @staticmethod
    def build(draws: list) -> np.ndarray:
        out = np.zeros((len(draws),) + draws[0].shape, dtype=complex)
        ranks: dict[int, list[int]] = {}
        for i, d in enumerate(draws):
            ranks.setdefault(d.normals.shape[-2], []).append(i)
        for members in ranks.values():
            normals = np.stack([draws[i].normals for i in members])
            kraus = channel_from_draw(normals, draws[0].out_dim)
            out[members, : kraus.shape[-3]] = kraus
        return out


def _pd(dim: int, eig_range: tuple[float, float], rng: np.random.Generator) -> _PdDraw:
    return _PdDraw(*pd_draw(dim, eig_range, rng), *eig_range)


def _pds(k: int, dim: int, eig_range: tuple[float, float], rng: np.random.Generator) -> _PdDraw:
    return _PdDraw(*pd_draw(dim, eig_range, rng, count=k), *eig_range)


def _random_diag_pd(n: int, eig_range: tuple[float, float], rng: np.random.Generator) -> _DiagDraw:
    lo, hi = eig_range
    return _DiagDraw(rng.uniform(np.log(lo), np.log(hi), size=n))


@functools.lru_cache(maxsize=None)
def _partial_trace_kraus(d1: int, d2: int) -> np.ndarray:
    return np.stack(partial_trace_channel(d1, d2).kraus)


# --------------------------------------------------------------------------
# one record per property: payload fields and the margin of a stack of trials

# Field codecs: how a payload field is written to and read from JSON.  A
# decoded field carries a leading batch axis of length one.
_MAT, _MATS, _DIRS, _INT, _FLOAT, _CHANNEL = "mat", "mats", "dirs", "int", "float", "channel"

_ENCODE = {
    _MAT: matrix_to_json,
    _MATS: lambda ms: [matrix_to_json(m) for m in ms],
    _DIRS: matrix_to_json,  # the chosen direction of a stack of candidates
    _INT: int,
    _FLOAT: float,
    _CHANNEL: lambda k: channel_to_json(  # without the zero operators that pad a stack
        KrausChannel(
            in_dim=k.shape[-1], out_dim=k.shape[-2], kraus=tuple(op for op in k if op.any())
        )
    ),
}

_DECODE = {
    _MAT: matrix_from_json,
    _MATS: lambda objs: np.stack([matrix_from_json(o) for o in objs]),
    _DIRS: lambda obj: matrix_from_json(obj)[None],
    _INT: lambda v: np.asarray(int(v)),
    _FLOAT: lambda v: np.asarray(float(v)),
    _CHANNEL: lambda obj: np.stack(channel_from_json(obj).kraus),
}


@dataclass(frozen=True)
class _Property:
    """How one kind of trial is measured, and how its witness reads and writes.

    ``margin(f, P)`` takes a dict of stacked payload fields (leading axis =
    trials) and returns ``(margins, scales)``, or ``(margins, scales,
    extras)`` where ``extras`` holds per-trial values that the witness
    records next to the payload.
    """

    kind: str
    fields: tuple[tuple[str, str], ...]
    margin: Callable
    extras: tuple[str, ...] = ()
    defaults: dict = field(default_factory=dict)  # for fields older payloads lack
    label: str = ""  # names the margin in a detail line when a trial has several
    superops: int = 0  # n^2 x n^2 matrices a trial holds at once, for chunk sizes

    def witness(self, payload: dict, margin: float) -> dict:
        obj = {"kind": self.kind}
        for name, codec in self.fields:
            obj[name] = _ENCODE[codec](payload[name])
        for name in self.extras:
            obj[name] = float(payload[name])
        obj["margin"] = float(margin)
        return obj

    def decode(self, obj: dict) -> dict:
        return {
            name: _DECODE[codec](obj[name] if name in obj else self.defaults[name])[None]
            for name, codec in self.fields
        }

    def dim(self, payload: dict) -> int:
        """Matrix dimension of a trial (that of its first matrix field)."""
        for name, codec in self.fields:
            if codec in (_MAT, _MATS):
                return int(np.shape(payload[name])[-1])
        return 1


def _convexity(phi_x, phi_y, phi_mid):
    scale = np.maximum(1.0, np.abs(phi_x) + np.abs(phi_y))
    return ((phi_x + phi_y) / 2.0 - phi_mid) / scale, scale


def _with_midpoint(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stack (x, y, hermitize((x+y)/2)) along a new leading axis."""
    return np.stack([x, y, hermitize((x + y) / 2.0)])


def _principle1_margin(f, P):
    # Concavity of -Tr f equals midpoint convexity of Tr f.
    return _convexity(*trace_of_function(f, _with_midpoint(P["x"], P["y"])))


def _entropic_margin(f, P):
    d1, d2 = int(P["dim1"][0]), int(P["dim2"][0])
    mats = _with_midpoint(P["x"], P["y"])
    phi = trace_of_function(f, mats) - trace_of_function(f, partial_trace_1(mats, d1, d2))
    return _convexity(*phi)


def _g_values(f, mats):
    """G(rho_1..rho_k) = sum_i Tr f(rho_i) - Tr f(sum_i rho_i); the k matrices along axis -3."""
    k = mats.shape[-3]
    tr = trace_of_function(f, np.concatenate([mats, np.sum(mats, axis=-3, keepdims=True)], axis=-3))
    return np.sum(tr[..., :k], axis=-1) - tr[..., k]


def _subentropic_midpoint_margin(f, P):
    xs, ys = P["xs"], P["ys"]
    return _convexity(*_g_values(f, np.stack([xs, ys, (xs + ys) / 2.0])))


def _subentropic_hessian_margin(f, P):
    single, joint = _second_diff_terms(f, P["rhos"], P["hs"])
    scale = np.maximum(1.0, np.sum(np.abs(single), axis=-1) + np.abs(joint))
    return (np.sum(single, axis=-1) - joint) / scale, scale


def _condition13_margin(f, P):
    rho, sigma = P["rho"], P["sigma"]
    inv = frechet_inverse(f.derivative(), np.stack([hermitize(rho + sigma), rho, sigma])).matrix
    pm = Superoperator(rho.shape[-1], inv[0] - inv[1] - inv[2]).psd_margin()
    return pm.normalized, pm.scale


def _quad(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re v* m v for each vector of v (..., j, N) against its matrix m (..., N, N)."""
    return np.sum(v.conj() * (v @ np.swapaxes(m, -1, -2)), axis=-1).real


def _negative_pairs(d, inv_r, inv_s):
    """Direction pairs from the lowest eigenvector w of d (stacks allowed).

    d = df'(rho+sigma)^-1 - df'(rho)^-1 - df'(sigma)^-1, and inv_r, inv_s are
    df'(rho)^-1 and df'(sigma)^-1.  Each candidate c in (herm(w), herm(-iw))
    gives h1 = df'(rho)^-1 c and h2 = df'(sigma)^-1 c.  Returns d's
    eigenvalues, then per candidate (an axis of two) h1, h2, the quadratic
    form of d normalised by |c|^2, and whether c is usable: |c|^2 >= 1e-20
    and a negative form.
    """
    n = round(d.shape[-1] ** 0.5)
    eigs, vecs = np.linalg.eigh(d)
    w = unvec(vecs[..., 0], n)
    cands = vec(np.stack([hermitize(w), hermitize(-1j * w)], axis=-3))
    norm = np.sum(cands.conj() * cands, axis=-1).real
    quad = _quad(d, cands) / np.maximum(norm, 1e-20)
    usable = ~(norm < 1e-20) & ~(quad >= 0.0)
    h1 = hermitize(unvec(cands @ np.swapaxes(inv_r, -1, -2), n))
    h2 = hermitize(unvec(cands @ np.swapaxes(inv_s, -1, -2), n))
    return eigs, h1, h2, quad, usable


def _equivalence_margin(f, P):
    """Per-instance agreement of the condition13 verdict with the Hessian verdict.

    The Hessian margin is the worst over the drawn direction pairs and the
    most negative superoperator direction, transferred to a direction pair.
    Both margins must clear ``band`` before a sign disagreement counts.
    """
    rho, sigma, h1, h2, band = P["rho"], P["sigma"], P["h1"], P["h2"], P["band"]
    fwd, inv = _frechet_pair(f.derivative(), np.stack([hermitize(rho + sigma), rho, sigma]))
    a, b, c = fwd.matrix
    inv_r, inv_s = inv.matrix[1], inv.matrix[2]
    d = hermitize(inv.matrix[0] - inv_r - inv_s)
    eigs, t1, t2, _, usable = _negative_pairs(d, inv_r, inv_s)
    m13 = eigs[:, 0] / np.maximum(1.0, np.max(np.abs(eigs), axis=-1))

    def hess(g1, g2):
        v1, v2 = vec(g1), vec(g2)
        q1, q2, qt = _quad(b, v1), _quad(c, v2), _quad(a, v1 + v2)
        return (q1 + q2 - qt) / np.maximum(1.0, np.abs(q1) + np.abs(q2) + np.abs(qt))

    all1, all2 = np.concatenate([h1, t1], axis=1), np.concatenate([h2, t2], axis=1)
    hm = np.concatenate([hess(h1, h2), np.where(usable, hess(t1, t2), np.inf)], axis=1)
    rows = np.arange(hm.shape[0])
    best = np.argmin(hm, axis=1)
    mh = hm[rows, best]

    solid = (np.abs(m13) > band) & (np.abs(mh) > band)
    disagree = solid & ((m13 < 0.0) != (mh < 0.0))
    margin = np.minimum(np.abs(m13), np.abs(mh)) * np.where(disagree, -1.0, 1.0)
    extras = {
        "h1": all1[rows, best], "h2": all2[rows, best], "margin13": m13, "margin_hessian": mh,
    }
    return margin, np.maximum(np.abs(m13), np.abs(mh)), extras


def _matrix_entropy_margin(f, P):
    # Q(rho, h) = Tr h df'(rho) h, the quadratic form behind matrix entropies
    x1, h1, x2, h2 = P["x1"], P["h1"], P["x2"], P["h2"]
    hs = np.stack([h1, h2, (h1 + h2) / 2.0])
    return _convexity(*_pairing(f.derivative(), _with_midpoint(x1, x2), hs))


def _gain_margin(f, P):
    # convexity of rho -> S_f(channel(rho)) - S_f(rho) = Tr f(rho) - Tr f(channel(rho))
    mats = _with_midpoint(P["x"], P["y"])
    outs = hermitize(apply_kraus(P["channel"], mats))
    if f.zero_extension is None and np.min(np.linalg.eigvalsh(outs)[..., 0]) < _RANK_FLOOR:
        # functions unbounded at 0 need full-rank channel outputs
        raise DomainError(f"channel output too singular for {f.name}")
    return _convexity(*(trace_of_function(f, mats) - trace_of_function(f, outs)))


def _scalar_convexity_margin(f, P):
    t, s = P["t"], P["s"]
    return _convexity(f(t), f(s), f((t + s) / 2.0))


def _gap_terms(f, P):
    g = gap_function(f)
    t, s = P["t"], P["s"]
    gt, gs = g(t), g(s)
    return g, t, s, gt, gs, np.maximum(1.0, np.abs(gt) + np.abs(gs))


def _gap_superadditive_margin(f, P):
    g, t, s, gt, gs, scale = _gap_terms(f, P)
    return (g(t + s) - gt - gs) / scale, scale


def _gap_monotone_margin(f, P):
    _, _, _, gt, gs, scale = _gap_terms(f, P)
    return (gs - gt) / scale, scale


def _gap_concavity_margin(f, P):
    g, t, s, gt, gs, scale = _gap_terms(f, P)
    return (g((t + s) / 2.0) - (gt + gs) / 2.0) / scale, scale


def _gap_zero_margin(f, P):
    # g must vanish at 0+ (f'' must blow up)
    margin = _GAP_ZERO_CEILING - gap_function(f)(P["t"])
    return margin, np.ones_like(margin)


def _uniqueness_fit_margin(f, P):
    return np.array([-_gap_fit(f)["relative_residual"]]), np.ones(1)


_PAIR = (("x", _MAT), ("y", _MAT))
_PRINCIPLE1 = _Property("principle1", _PAIR, _principle1_margin)
_ENTROPIC = _Property("entropic", (("dim1", _INT), ("dim2", _INT), *_PAIR), _entropic_margin)
_SUB_MIDPOINT = _Property(
    "subentropic-midpoint", (("xs", _MATS), ("ys", _MATS)), _subentropic_midpoint_margin,
    label="midpoint",
)
_SUB_HESSIAN = _Property(
    "subentropic-hessian", (("rhos", _MATS), ("hs", _MATS)), _subentropic_hessian_margin,
    label="Hessian",
)
_CONDITION13 = _Property(
    "condition13", (("rho", _MAT), ("sigma", _MAT)), _condition13_margin, superops=10
)
_EQUIVALENCE = _Property(
    "equivalence",
    (("rho", _MAT), ("sigma", _MAT), ("h1", _DIRS), ("h2", _DIRS), ("band", _FLOAT)),
    _equivalence_margin,
    extras=("margin13", "margin_hessian"),
    defaults={"band": 0.0},
    superops=16,
)
_MATRIX_ENTROPY = _Property(
    "matrix-entropy", (("x1", _MAT), ("h1", _MAT), ("x2", _MAT), ("h2", _MAT)),
    _matrix_entropy_margin,
)
_GAIN = _Property("gain", (("channel", _CHANNEL), *_PAIR), _gain_margin)
_SCALAR_PAIR = (("t", _FLOAT), ("s", _FLOAT))
_SCALAR_CONVEXITY = _Property("scalar-convexity", _SCALAR_PAIR, _scalar_convexity_margin)
_GAP_SUPERADDITIVE = _Property("gap-superadditive", _SCALAR_PAIR, _gap_superadditive_margin)
_GAP_MONOTONE = _Property("gap-monotone", _SCALAR_PAIR, _gap_monotone_margin)
_GAP_ZERO = _Property("gap-zero", (("t", _FLOAT),), _gap_zero_margin)
_GAP_CONCAVITY = _Property("gap-concavity", _SCALAR_PAIR, _gap_concavity_margin)
_UNIQUENESS_FIT = _Property("uniqueness-fit", (), _uniqueness_fit_margin)

_PROPERTIES: dict[str, _Property] = {
    p.kind: p
    for p in (
        _PRINCIPLE1, _ENTROPIC, _SUB_MIDPOINT, _SUB_HESSIAN, _CONDITION13, _EQUIVALENCE,
        _MATRIX_ENTROPY, _GAIN, _SCALAR_CONVEXITY, _GAP_SUPERADDITIVE, _GAP_MONOTONE,
        _GAP_ZERO, _GAP_CONCAVITY, _UNIQUENESS_FIT,
    )
}


# --------------------------------------------------------------------------
# measuring stacks of trials

# Failures that skip a trial rather than abort the suite.
_SKIPPABLE = (DomainError, NotInvertibleError)


class _Measured(NamedTuple):
    margins: np.ndarray  # NaN where the trial was skipped
    scales: np.ndarray
    extras: list  # per trial: dict of the margin's extra values
    notes: list  # per trial: why it was skipped, or ""


def _margin(prop: _Property, f: ScalarFunction, P: dict) -> tuple:
    out = prop.margin(f, P)
    extras = out[2] if len(out) > 2 else {}
    return np.asarray(out[0], dtype=float).reshape(-1), np.asarray(out[1], dtype=float).reshape(-1), extras


def _measure(prop: _Property, f: ScalarFunction, P: dict, size: int) -> _Measured:
    """prop's margin on a stack of ``size`` trials.

    If the stack raises a skippable error, the trials are measured one at a
    time through the same code, so only the offending ones are skipped.
    """
    try:
        m, s, ex = _margin(prop, f, P)
        per_trial = [{k: v[i] for k, v in ex.items()} for i in range(size)] if ex else [{}] * size
        return _Measured(m, s, per_trial, [""] * size)
    except _SKIPPABLE as exc:
        if size == 1:
            return _Measured(np.full(1, np.nan), np.zeros(1), [{}], [str(exc)])
    margins, scales = np.full(size, np.nan), np.zeros(size)
    extras, notes = [{}] * size, [""] * size
    for i in range(size):
        try:
            m, s, ex = _margin(prop, f, {k: v[i : i + 1] for k, v in P.items()})
        except _SKIPPABLE as exc:
            notes[i] = str(exc)
            continue
        margins[i], scales[i] = m[0], s[0]
        extras[i] = {k: v[0] for k, v in ex.items()}
    return _Measured(margins, scales, extras, notes)


@dataclass(frozen=True)
class _Trial:
    """One measured trial: enough to report, record and escalate it."""

    margin: float
    scale: float
    dim: int
    prop: _Property
    payload: dict
    note: str = ""

    @property
    def witness(self) -> dict:
        return self.prop.witness(self.payload, self.margin)


def _single(prop: _Property, f: ScalarFunction, payload: dict) -> Optional[_Trial]:
    """Measure one trial given as plain (unstacked) fields; None when it is skipped."""
    res = _measure(prop, f, {k: np.asarray(v)[None] for k, v in payload.items()}, 1)
    if np.isnan(res.margins[0]):
        return None
    full = {**payload, **res.extras[0]}
    return _Trial(float(res.margins[0]), float(res.scales[0]), prop.dim(full), prop, full)


def _build(values: list) -> np.ndarray:
    first = values[0]
    return first.build(values) if isinstance(first, _Draw) else np.stack(values)


def _stack(payloads: list[dict]) -> dict:
    """Stack trial payloads field by field, building raw draws once per field.

    A field may mix raw draws with plain arrays of the same built shape
    (subentropic's scalar directions among Gaussian ones); each kind is then
    built on its own and scattered into place.
    """
    out = {}
    for name, first in payloads[0].items():
        values = [p[name] for p in payloads]
        if not isinstance(first, (np.ndarray, _Draw)):
            out[name] = np.asarray(values)
            continue
        kind = type(first)
        if all(type(v) is kind for v in values):
            out[name] = _build(values)
            continue
        kinds: dict[type, list[int]] = {}
        for i, v in enumerate(values):
            kinds.setdefault(type(v), []).append(i)
        for members in kinds.values():
            part = _build([values[i] for i in members])
            if name not in out:
                out[name] = np.empty((len(values),) + part.shape[1:], dtype=part.dtype)
            out[name][members] = part
    return out


def _shape_key(payload: dict) -> tuple:
    """Trials with equal keys stack together."""
    key = []
    for name, v in payload.items():
        if isinstance(v, _Draw):
            key.append((name, v.tag, v.shape))
        elif isinstance(v, np.ndarray):
            key.append((name, "array", v.shape))
        else:
            key.append((name, "value", v))
    return tuple(key)


@dataclass(frozen=True)
class _Plan:
    """``count`` trials of one stream; each trial is measured by every property.

    A plan without a stream is a fixed grid: its trials draw nothing, and
    ``excluded`` counts the grid points left out of it, each as one skipped
    trial.
    """

    stream: Optional[str]
    count: int
    draw: Callable[[Optional[np.random.Generator], int], dict]
    props: tuple[_Property, ...]
    excluded: int = 0


def _grid_plan(prop: _Property, excluded: int = 0, **columns: np.ndarray) -> _Plan:
    """A grid plan whose trial i takes entry i of every column."""

    def draw(rng, i):
        return {k: v[i, ...] for k, v in columns.items()}

    return _Plan(None, len(next(iter(columns.values()))), draw, (prop,), excluded)


def _trial_bytes(props: tuple[_Property, ...], payload: dict) -> int:
    """Working memory of one trial: its arrays several times over, plus its superoperators."""
    arrays = [v for v in payload.values() if isinstance(v, (np.ndarray, _Draw))]
    n = max((a.shape[-1] for a in arrays if a.shape), default=1)
    return 8 * sum(a.nbytes for a in arrays) + sum(p.superops for p in props) * 16 * n**4


def _chunks(seed: int, plan: _Plan) -> Iterator[list[dict]]:
    """The plan's trial payloads, drawn in order, in chunks under _CHUNK_BYTES."""
    chunk: list[dict] = []
    size = 0
    if plan.stream is None:
        rngs = [None] * plan.count
    else:
        rngs = _trial_streams(seed, plan.stream, range(plan.count))
    for idx, rng in enumerate(rngs):
        payload = plan.draw(rng, idx)
        if not size:
            size = max(1, _CHUNK_BYTES // _trial_bytes(plan.props, payload))
        chunk.append(payload)
        if len(chunk) == size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class _Chunk(NamedTuple):
    margins: np.ndarray  # (B,), NaN where skipped
    scales: np.ndarray
    by_prop: np.ndarray  # (props, B): each property's margins
    dims: np.ndarray
    notes: list
    trial: Callable[[int], _Trial]


def _run_chunk(f: ScalarFunction, props: tuple[_Property, ...], chunk: list[dict]) -> _Chunk:
    """Measure a chunk of trials, stacked per payload shape.

    A trial's margin is the smallest of its properties' margins (the first
    on ties); a trial that any property skips is skipped.
    """
    size = len(chunk)
    margins, scales = np.full(size, np.nan), np.zeros(size)
    by_prop = np.full((len(props), size), np.nan)
    dims = np.zeros(size, dtype=int)
    notes = [""] * size
    where: list = [None] * size  # trial -> (stacked payload, position, measured, chosen prop)
    groups: dict[tuple, list[int]] = {}
    for i, payload in enumerate(chunk):
        groups.setdefault(_shape_key(payload), []).append(i)
    for members in groups.values():
        P = _stack([chunk[i] for i in members])
        measured = [_measure(prop, f, P, len(members)) for prop in props]
        m = np.stack([r.margins for r in measured])
        ok = ~np.isnan(m).any(axis=0)
        choice = np.argmin(np.where(np.isnan(m), np.inf, m), axis=0)
        cols = np.arange(len(members))
        idx = np.asarray(members)
        by_prop[:, idx] = m
        dims[idx] = props[0].dim(P)
        margins[idx] = np.where(ok, m[choice, cols], np.nan)
        scales[idx] = np.stack([r.scales for r in measured])[choice, cols]
        for j, i in enumerate(members):
            where[i] = (P, j, measured, int(choice[j]))
            if not ok[j]:
                notes[i] = next(r.notes[j] for r in measured if r.notes[j])

    def trial(i: int) -> _Trial:
        P, j, measured, c = where[i]
        payload = {k: np.array(v[j]) for k, v in P.items()}
        payload.update(measured[c].extras[j])
        prop = props[c]
        return _Trial(float(margins[i]), float(scales[i]), prop.dim(payload), prop, payload)

    return _Chunk(margins, scales, by_prop, dims, notes, trial)


# --------------------------------------------------------------------------
# expectations for registry functions (drives INCONCLUSIVE and escalation)

_SUB_ALL = tuple(f"subentropic:k={k}" for k in _SUBENTROPIC_ORDERS)

_EXPECTED_FAIL: dict[str, frozenset[str]] = {
    "neglog": frozenset({"matrix-entropy", "entropic", "gain", "gap-concavity"}),
    "square": frozenset({"condition13", *_SUB_ALL, "entropic", "gain", "gap-superadditive"}),
    "power:1.25": frozenset({"condition13", *_SUB_ALL, "entropic", "gain", "gap-superadditive"}),
    "power:1.5": frozenset({"condition13", *_SUB_ALL, "entropic", "gain", "gap-superadditive"}),
    "power:1.75": frozenset({"condition13", *_SUB_ALL, "entropic", "gain", "gap-superadditive"}),
    "exp": frozenset({
        "condition13", *_SUB_ALL, "matrix-entropy", "entropic", "gain",
        "gap-superadditive", "gap-concavity",
    }),
    "negsqrt": frozenset({"matrix-entropy", "entropic", "gain", "gap-concavity"}),
}


def _expects_fail(function_name: str, outcome_name: str) -> bool:
    return outcome_name in _EXPECTED_FAIL.get(function_name, frozenset())


# --------------------------------------------------------------------------
# sampling, aggregation and escalation

def _drive(
    name: str,
    f: ScalarFunction,
    cfg: TestConfig,
    plans: list[_Plan] | Callable[[], list[_Plan]],
    *,
    escalate: Optional[Callable[[_Trial], Optional[_Trial]]] = None,
    recorder: Optional[list] = None,
) -> TestOutcome:
    """Run the trials of every plan, aggregate margins, escalate expected failures.

    The scalar convexity precheck runs first.  Plans given as a function are
    built after it; if building them raises DegenerateFunctionError or
    DomainError, the property does not apply and the outcome is SKIPPED.
    """
    bad = _scalar_convexity_failure(name, f, cfg)
    if bad is not None:
        return bad
    if callable(plans):
        try:
            plans = plans()
        except (DegenerateFunctionError, DomainError) as exc:
            return TestOutcome(name, f.name, SKIPPED, None, 0, 0, None, str(exc))

    run = 0
    skipped = sum(plan.excluded for plan in plans)
    min_margin = np.inf
    skip_note = ""
    worst: Optional[_Trial] = None
    violation: Optional[_Trial] = None
    prop_min: Optional[np.ndarray] = None
    gidx = 0
    for plan in plans:
        for chunk in _chunks(cfg.seed, plan):
            res = _run_chunk(f, plan.props, chunk)
            ok = ~np.isnan(res.margins)
            done = np.flatnonzero(ok)
            skipped += len(chunk) - done.size
            if not skip_note and done.size < len(chunk):
                skip_note = next(n for n in res.notes if n)
            if done.size:
                run += done.size
                if recorder is not None:
                    for i in done:
                        recorder.append((name, int(res.dims[i]), gidx + int(i),
                                         float(res.margins[i]), float(res.scales[i])))
                low = np.min(res.by_prop[:, done], axis=1)
                prop_min = low if prop_min is None else np.minimum(prop_min, low)
                if violation is None:
                    hits = done[res.margins[done] < -cfg.tol]
                    if hits.size:
                        violation = res.trial(int(hits[0]))
                lowest = int(done[np.argmin(res.margins[done])])
                if res.margins[lowest] < min_margin:
                    min_margin = float(res.margins[lowest])
                    worst = res.trial(lowest)
            gidx += len(chunk)

    expected_fail = _expects_fail(f.name, name)
    detail = ""
    if prop_min is not None and len(plans[0].props) > 1:
        detail = "; ".join(
            f"min {p.label} margin {v:.3e}" for p, v in zip(plans[0].props, prop_min)
        )

    if violation is None and expected_fail and escalate is not None and worst is not None:
        extra = escalate(worst)
        if extra is not None and extra.margin < -cfg.tol:
            violation = extra
            run += 1
            min_margin = min(min_margin, extra.margin)
            if recorder is not None:
                recorder.append((name, extra.dim, gidx, extra.margin, extra.scale))
            detail = _join(detail, extra.note or "violation found by escalation of the worst sampled trial")

    if violation is not None:
        return TestOutcome(name, f.name, FAIL, min_margin, run, skipped, violation.witness, detail)
    if not run:
        return TestOutcome(
            name, f.name, SKIPPED, None, 0, skipped, None, skip_note or "no admissible trials",
        )
    if expected_fail:
        return TestOutcome(
            name, f.name, INCONCLUSIVE, min_margin, run, skipped, None,
            _join(detail, "expected a violation but found none within the sampling budget"),
        )
    return TestOutcome(name, f.name, PASS, min_margin, run, skipped, None, detail)


def _pd_floor(m: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvalsh(m)[..., 0]))


def _stretch_escalation(
    f: ScalarFunction, cfg: TestConfig, prop: _Property,
    pairs: tuple[tuple[str, str], ...], pd_fields: tuple[str, ...],
) -> Callable[[_Trial], Optional[_Trial]]:
    """Stretch the worst sampled pair(s) around their midpoint and re-test."""

    def escalate(worst: _Trial) -> Optional[_Trial]:
        base = worst.payload
        for s in _STRETCHES:
            cand = dict(base)
            for a, b in pairs:
                mid, d = (base[a] + base[b]) / 2.0, (base[b] - base[a]) / 2.0
                cand[a], cand[b] = hermitize(mid - s * d), hermitize(mid + s * d)
            if any(_pd_floor(cand[k]) < _RANK_FLOOR for k in pd_fields):
                continue
            found = _single(prop, f, {k: cand[k] for k, _ in prop.fields})
            if found is not None and found.margin < -cfg.tol:
                return found
        return None

    return escalate


def _pair_escalation(f: ScalarFunction, cfg: TestConfig, prop: _Property):
    return _stretch_escalation(f, cfg, prop, (("x", "y"),), ("x", "y"))


# --------------------------------------------------------------------------
# scalar convexity precheck (every suite assumes convex f; verify, don't trust)

def _grid_values(fn: Callable, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fn over a grid in one call, and which points it is defined at.

    When the call raises DomainError the grid is evaluated point by point,
    so exactly the offending points are marked.
    """
    try:
        return np.asarray(fn(ts), dtype=float), np.ones(ts.shape, dtype=bool)
    except DomainError:
        pass
    vals, ok = np.zeros(ts.shape), np.zeros(ts.shape, dtype=bool)
    for i, t in enumerate(ts):
        try:
            vals[i], ok[i] = fn(float(t)), True
        except DomainError:
            continue
    return vals, ok


def _scalar_convexity_failure(
    name: str, f: ScalarFunction, cfg: TestConfig
) -> Optional[TestOutcome]:
    d2, usable = _grid_values(f.d2, _SCALAR_GRID)
    if not usable.any():
        return TestOutcome(
            name, f.name, SKIPPED, None, 0, len(_SCALAR_GRID), None,
            "function undefined on the scalar test grid",
        )
    concave = np.where(usable & (d2 < -1e-10), d2, np.inf)
    w = int(np.argmin(concave))
    if not np.isfinite(concave[w]):
        return None
    worst_t, worst_d2 = float(_SCALAR_GRID[w]), float(d2[w])
    etas = np.array([0.99, 0.75, 0.5, 0.25, 0.1, 0.02])
    P = {"t": worst_t * (1.0 - etas), "s": worst_t * (1.0 + etas)}
    res = _measure(_SCALAR_CONVEXITY, f, P, etas.size)
    m = np.where(np.isnan(res.margins), np.inf, res.margins)
    b = int(np.argmin(m))
    if m[b] < -cfg.tol:
        payload = _SCALAR_CONVEXITY.witness({k: v[b] for k, v in P.items()}, m[b])
        return TestOutcome(
            name, f.name, FAIL, float(m[b]), 1, 0, payload,
            f"scalar convexity fails near t={worst_t:.6g} (f''={worst_d2:.3e})",
        )
    return None  # negativity too shallow to certify scalar-side; sample anyway


# --------------------------------------------------------------------------
# suite: concavity of rho -> -Tr f(rho)

def test_principle1_concavity(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    plans = []
    for dim in cfg.dims:
        def draw(rng, idx, dim=dim):
            return {"x": _pd(dim, cfg.eig_range, rng), "y": _pd(dim, cfg.eig_range, rng)}

        plans.append(_Plan(f"principle1/dim{dim}", cfg.samples, draw, (_PRINCIPLE1,)))

    escalate = _pair_escalation(f, cfg, _PRINCIPLE1)
    return _drive("principle1", f, cfg, plans, escalate=escalate, recorder=recorder)


# --------------------------------------------------------------------------
# suite: convexity of rho -> Tr f(rho) - Tr f(partial trace of rho)

def test_entropic(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    plans = []
    for d1, d2 in cfg.bipartite:
        def draw(rng, idx, d1=d1, d2=d2):
            n = d1 * d2
            if idx % 4 == 3:
                # classical corner: diagonal states exercise the commuting case
                x = _random_diag_pd(n, cfg.eig_range, rng)
                y = _random_diag_pd(n, cfg.eig_range, rng)
            else:
                x = _pd(n, cfg.eig_range, rng)
                y = _pd(n, cfg.eig_range, rng)
            return {"dim1": d1, "dim2": d2, "x": x, "y": y}

        plans.append(_Plan(f"entropic/{d1}x{d2}", cfg.samples, draw, (_ENTROPIC,)))

    escalate = _pair_escalation(f, cfg, _ENTROPIC)
    return _drive("entropic", f, cfg, plans, escalate=escalate, recorder=recorder)


# --------------------------------------------------------------------------
# suite: convexity of G(rho_1..rho_k), sampled two ways per trial

def _derived_hessian_witness(
    f: ScalarFunction, cfg: TestConfig, k: int
) -> Optional[_Trial]:
    """Turn a superoperator-inequality violation into a negative Hessian.

    If d = df'(rho+sigma)^-1 - df'(rho)^-1 - df'(sigma)^-1 has a negative
    direction w, then the directions h1 = df'(rho)^-1 w, h2 = df'(sigma)^-1 w
    make the order-two Hessian of G negative (Cauchy-Schwarz in the inner
    product weighted by df'(rho+sigma)).  Orders k > 2 are reached by padding
    with small multiples of the identity and zero directions.
    """
    fp = f.derivative()
    note = (
        "violation constructed from a negative direction of the "
        "inverse-differential superoperator inequality"
    )
    for dim in cfg.dims:
        stream = f"subentropic-escalation/k{k}/dim{dim}"
        for rng in _trial_streams(cfg.seed, stream, range(12)):
            rho = random_pd(dim, cfg.eig_range, rng)
            sigma = random_pd(dim, cfg.eig_range, rng)
            try:
                inv = frechet_inverse(fp, np.stack([hermitize(rho + sigma), rho, sigma])).matrix
            except (NotInvertibleError, DomainError):
                return None
            eigs, h1s, h2s, quad, usable = _negative_pairs(
                hermitize(inv[0] - inv[1] - inv[2]), inv[1], inv[2]
            )
            if float(eigs[0]) >= 0.0 or not usable.any():
                continue
            best = int(np.argmin(np.where(usable, quad, np.inf)))
            h1, h2 = h1s[best], h2s[best]
            base_scale = float(np.trace(rho + sigma).real) / (2 * dim)
            zero = np.zeros((dim, dim), dtype=complex)
            for eps in (1e-2, 1e-3, 1e-4):
                pad = eps * base_scale * np.eye(dim, dtype=complex)
                rhos = np.stack([rho, sigma] + [pad] * (k - 2))
                hs = np.stack([h1, h2] + [zero] * (k - 2))
                found = _single(_SUB_HESSIAN, f, {"rhos": rhos, "hs": hs})
                if found is not None and found.margin < -cfg.tol:
                    return replace(found, note=note)
    return None


def test_subentropic_order_k(
    f: ScalarFunction, k: int, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    if k < 2:
        raise ValueError("subentropic order must be >= 2")
    name = f"subentropic:k={k}"

    plans = []
    for dim in cfg.dims:
        def draw(rng, idx, dim=dim):
            xs = _pds(k, dim, cfg.eig_range, rng)
            ys = _pds(k, dim, cfg.eig_range, rng)
            rhos = _pds(k, dim, cfg.eig_range, rng)
            if idx % 4 == 3:
                # scalar directions catch violations along the identity
                coeffs = rng.standard_normal(k)
                hs = coeffs[:, None, None] * np.eye(dim, dtype=complex)
            else:
                hs = _HermDraw(gaussian_draw(dim, rng, lead=(k,)))
            return {"xs": xs, "ys": ys, "rhos": rhos, "hs": hs}

        plans.append(_Plan(f"subentropic-k{k}/dim{dim}", cfg.samples, draw, (_SUB_MIDPOINT, _SUB_HESSIAN)))

    stretch = _stretch_escalation(f, cfg, _SUB_MIDPOINT, (("xs", "ys"),), ("xs", "ys"))

    def escalate(worst: _Trial) -> Optional[_Trial]:
        extra = _derived_hessian_witness(f, cfg, k)
        if extra is not None:
            return extra
        return stretch(worst) if worst.prop is _SUB_MIDPOINT else None

    return _drive(name, f, cfg, plans, escalate=escalate, recorder=recorder)


# --------------------------------------------------------------------------
# suite: superoperator inequality df'(rho+sigma)^-1 >= df'(rho)^-1 + df'(sigma)^-1

def test_condition13(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    plans = []
    for dim in cfg.dims:
        def draw(rng, idx, dim=dim):
            lo, hi = cfg.eig_range
            if idx % 10 == 9:
                # stretch the spectrum: margins are often tightest when the
                # base points are badly conditioned
                lo, hi = min(lo, 1e-3), max(hi, 1e3)
            return {"rho": _pd(dim, (lo, hi), rng), "sigma": _pd(dim, (lo, hi), rng)}

        plans.append(_Plan(f"condition13/dim{dim}", cfg.samples, draw, (_CONDITION13,)))

    return _drive("condition13", f, cfg, plans, recorder=recorder)


# --------------------------------------------------------------------------
# suite: per-instance agreement of the superoperator verdict with Hessian sampling

def test_equivalence_13_vs_hessian(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    band = 10.0 * cfg.tol
    plans = []
    for dim in cfg.dims:
        def draw(rng, idx, dim=dim):
            rho = _pd(dim, cfg.eig_range, rng)
            sigma = _pd(dim, cfg.eig_range, rng)
            hs = gaussian_draw(dim, rng, lead=(2 * _EQUIVALENCE_DIRECTIONS,))
            return {
                "rho": rho, "sigma": sigma, "h1": _HermDraw(hs[0::2]), "h2": _HermDraw(hs[1::2]),
                "band": band,
            }

        plans.append(_Plan(f"equivalence/dim{dim}", cfg.samples, draw, (_EQUIVALENCE,)))

    return _drive("equivalence", f, cfg, plans, recorder=recorder)


# --------------------------------------------------------------------------
# suite: joint convexity of (rho, h) -> Tr h df'(rho) h

def test_matrix_entropy(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    plans = []
    for dim in cfg.dims:
        def draw(rng, idx, dim=dim):
            if idx % 4 == 3:
                # scalar pairs (tI, sI): the two-variable function s^2 f''(t)
                # already separates several candidates.  Local directed pairs
                # around a random center expose indefiniteness of its Hessian.
                lo, hi = cfg.eig_range
                t0 = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                s0 = t0 * float(rng.standard_normal())
                dt = float(rng.uniform(-0.45, 0.45)) * t0
                ds = float(rng.uniform(-0.45, 0.45)) * (abs(s0) + t0)
                eye = np.eye(dim, dtype=complex)
                return {
                    "x1": (t0 - dt) * eye, "h1": (s0 - ds) * eye,
                    "x2": (t0 + dt) * eye, "h2": (s0 + ds) * eye,
                }
            x1 = _pd(dim, cfg.eig_range, rng)
            x2 = _pd(dim, cfg.eig_range, rng)
            h1, h2 = gaussian_draw(dim, rng, lead=(2,))
            return {"x1": x1, "h1": _HermDraw(h1), "x2": x2, "h2": _HermDraw(h2)}

        plans.append(_Plan(f"matrix-entropy/dim{dim}", cfg.samples, draw, (_MATRIX_ENTROPY,)))

    escalate = _stretch_escalation(
        f, cfg, _MATRIX_ENTROPY, (("x1", "x2"), ("h1", "h2")), ("x1", "x2")
    )
    return _drive("matrix-entropy", f, cfg, plans, escalate=escalate, recorder=recorder)


# --------------------------------------------------------------------------
# suite: convexity of rho -> S_f(channel(rho)) - S_f(rho)

def test_entropy_gain_convexity(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    def draw(rng, idx):
        if idx % 3 == 2:
            # partial-trace channels embed the bipartite test
            d1, d2 = cfg.bipartite[(idx // 3) % len(cfg.bipartite)]
            kraus = _partial_trace_kraus(d1, d2)
            n = d1 * d2
            if idx % 6 == 5:
                x = _random_diag_pd(n, cfg.eig_range, rng)
                y = _random_diag_pd(n, cfg.eig_range, rng)
            else:
                x = _pd(n, cfg.eig_range, rng)
                y = _pd(n, cfg.eig_range, rng)
        else:
            n = int(rng.integers(2, 5))
            out_d = int(rng.integers(2, 5))
            r = int(rng.integers(2, _MAX_KRAUS + 1))
            kraus = _ChannelDraw(channel_draw(n, out_d, r, rng), out_d)
            x = _pd(n, cfg.eig_range, rng)
            y = _pd(n, cfg.eig_range, rng)
        return {"channel": kraus, "x": x, "y": y}

    plans = [_Plan("gain", cfg.samples * len(cfg.dims), draw, (_GAIN,))]
    escalate = _pair_escalation(f, cfg, _GAIN)
    return _drive("gain", f, cfg, plans, escalate=escalate, recorder=recorder)


# --------------------------------------------------------------------------
# scalar suites for the gap function g = 1/f''

def _defined_gap_grid(f: ScalarFunction) -> tuple[np.ndarray, int]:
    """The grid points where g = 1/f'' is defined, and how many it is undefined at."""
    _, ok = _grid_values(gap_function(f), _GAP_GRID)
    return _GAP_GRID[ok], int(np.count_nonzero(~ok))


def test_gap_superadditive(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    def plans():
        pts, undefined = _defined_gap_grid(f)
        i, j = np.triu_indices(pts.size)
        return [
            _grid_plan(_GAP_SUPERADDITIVE, undefined, t=pts[i], s=pts[j]),  # all grid pairs
            _grid_plan(_GAP_MONOTONE, t=pts[:-1], s=pts[1:]),  # along the grid
            _grid_plan(_GAP_ZERO, t=np.array([_GAP_ZERO_PROBE])),
        ]

    return _drive("gap-superadditive", f, cfg, plans, recorder=recorder)


def test_gap_concavity(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    def plans():
        pts, undefined = _defined_gap_grid(f)
        i, j = np.triu_indices(pts.size, k=1)
        return [_grid_plan(_GAP_CONCAVITY, undefined, t=pts[i], s=pts[j])]

    return _drive("gap-concavity", f, cfg, plans, recorder=recorder)


# --------------------------------------------------------------------------
# the suite table, read by the uniqueness pipeline and by run_suite

class _Suite(NamedTuple):
    """One outcome of the ``all`` report: the token that selects it and its entry point."""

    name: str
    token: str
    entry: str  # looked up in this module at call time, so a wrapped entry point runs
    stage: bool = False  # a stage of the uniqueness pipeline
    args: tuple = ()  # arguments between f and cfg

    def run(self, f: ScalarFunction, cfg: TestConfig, recorder: Optional[list]) -> TestOutcome:
        return globals()[self.entry](f, *self.args, cfg, recorder)


# Report order.  The pipeline stages, in this order, follow the logical chain.
_SUITES = (
    _Suite("principle1", "principle1", "test_principle1_concavity", stage=True),
    _Suite("gap-superadditive", "gap", "test_gap_superadditive", stage=True),
    _Suite("condition13", "condition13", "test_condition13", stage=True),
    _Suite("equivalence", "equivalence", "test_equivalence_13_vs_hessian"),
    *(
        _Suite(f"subentropic:k={k}", "subentropic", "test_subentropic_order_k", args=(k,))
        for k in _SUBENTROPIC_ORDERS
    ),
    _Suite("matrix-entropy", "matrix-entropy", "test_matrix_entropy", stage=True),
    _Suite("entropic", "entropic", "test_entropic", stage=True),
    _Suite("gain", "gain", "test_entropy_gain_convexity"),
    _Suite("gap-concavity", "gap", "test_gap_concavity", stage=True),
)


# --------------------------------------------------------------------------
# the uniqueness pipeline

_FIT_GRID = np.logspace(-2.0, 2.0, 100)
_FIT_RESIDUAL_TOL = 1e-6
_FIT_SLOPE_TOL = 1e-6


def _gap_fit(f: ScalarFunction) -> dict:
    """Least-squares fit of g(t) = 1/f'' against b*t on a fixed log grid."""
    g = gap_function(f)
    ts = _FIT_GRID
    gv = np.asarray(g(ts), dtype=float)
    b = float(gv @ ts / (ts @ ts))
    norm = float(np.linalg.norm(gv))
    resid = float(np.linalg.norm(gv - b * ts)) / max(norm, 1e-300)
    curv = f.d2(1.0)
    return {
        "slope": b,
        "relative_residual": resid,
        "normalization": {"f(1)": f(1.0), "df(1)": f.d1(1.0), "d2f(1)": curv},
        "slope_minus_inverse_curvature": b - 1.0 / curv,
        "grid": [float(ts[0]), float(ts[-1]), len(ts)],
    }


def uniqueness_pipeline(
    f: ScalarFunction,
    cfg: TestConfig,
    recorder: Optional[list] = None,
    precomputed: Optional[dict] = None,
) -> PipelineResult:
    """Drive the staged reproduction of the characterization theorem.

    Stages run in the order that mirrors the logical chain: basic concavity,
    then super-additivity of g, the superoperator inequality, matrix-entropy
    and bipartite convexity, and finally concavity of g.  A function that
    survives everything must have g concave, super-additive and vanishing at
    0+, which forces g(t) = b*t; the fit stage quantifies that and pins b
    against 1/f''(1).
    """
    stages: list[TestOutcome] = []
    for row in _SUITES:
        if not row.stage:
            continue
        out = precomputed.get(row.name) if precomputed else None
        if out is None:
            out = row.run(f, cfg, recorder)
        stages.append(out)
        if out.verdict != PASS:
            final = TestOutcome(
                "uniqueness", f.name, out.verdict, out.min_margin,
                out.trials_run, out.trials_skipped, out.counterexample,
                f"stopped at stage {out.name} (verdict {out.verdict})",
            )
            return PipelineResult(tuple(stages), None, final)

    fit = _gap_fit(f)
    slope_dev = abs(fit["slope_minus_inverse_curvature"])
    ok = fit["relative_residual"] <= _FIT_RESIDUAL_TOL and slope_dev <= _FIT_SLOPE_TOL
    if ok:
        mins = [s.min_margin for s in stages if s.min_margin is not None]
        final = TestOutcome(
            "uniqueness", f.name, PASS, min(mins) if mins else None,
            sum(s.trials_run for s in stages),
            sum(s.trials_skipped for s in stages),
            None,
            "all stages passed; g(t) fits b*t with b=%.12g, residual %.3e"
            % (fit["slope"], fit["relative_residual"]),
        )
    else:
        ts = _FIT_GRID
        devs = np.abs(np.asarray(gap_function(f)(ts)) - fit["slope"] * ts)
        worst = int(np.argmax(devs))
        payload = {
            "kind": "uniqueness-fit",
            "t": float(ts[worst]),
            "slope": fit["slope"],
            "relative_residual": fit["relative_residual"],
            "margin": -float(fit["relative_residual"]),
        }
        final = TestOutcome(
            "uniqueness", f.name, FAIL, -float(fit["relative_residual"]),
            len(ts), 0, payload,
            "stages passed but g(t) is not proportional to t "
            "(residual %.3e, slope deviation %.3e)" % (fit["relative_residual"], slope_dev),
        )
    return PipelineResult(tuple(stages), fit, final)


# --------------------------------------------------------------------------
# dispatch

def run_suite(
    f: ScalarFunction,
    suite: str,
    cfg: TestConfig,
    recorder: Optional[list] = None,
) -> tuple[list[TestOutcome], Optional[dict]]:
    """Run one suite token; returns (outcomes, fit-report or None)."""
    token = suite.lower()
    if token not in SUITE_TOKENS:
        raise ValueError(
            f"unknown suite {suite!r}; choose one of {', '.join(SUITE_TOKENS)}"
        )
    if token == "uniqueness":
        result = uniqueness_pipeline(f, cfg, recorder)
        return [*result.stages, result.outcome], result.fit
    outcomes = [row.run(f, cfg, recorder) for row in _SUITES if token in ("all", row.token)]
    if token != "all":
        return outcomes, None
    result = uniqueness_pipeline(
        f, cfg, recorder=None, precomputed={o.name: o for o in outcomes}
    )
    outcomes.append(result.outcome)
    return outcomes, result.fit


def worst_exit_code(outcomes: list[TestOutcome]) -> int:
    """0 all PASS / 1 any FAIL / 2 only INCONCLUSIVE-or-SKIPPED deviations."""
    if any(o.verdict == FAIL for o in outcomes):
        return 1
    if any(o.verdict in (INCONCLUSIVE, SKIPPED) for o in outcomes):
        return 2
    return 0


# --------------------------------------------------------------------------
# standalone re-verification of counterexample payloads

def reverify_counterexample(f: ScalarFunction, payload: dict) -> float:
    """Recompute the normalized margin of a dumped counterexample.

    The payload's kind selects its property record; the margin comes from
    the same definition the suites sample with, on a batch of one.  A sound
    FAIL payload re-verifies to a margin below -tol/2 with nothing but the
    payload and the function it was found for.
    """
    kind = payload["kind"]
    prop = _PROPERTIES.get(kind)
    if prop is None:
        raise ValueError(f"unknown counterexample kind {kind!r}")
    return float(_margin(prop, f, prop.decode(payload))[0][0])


# The suite entry points are library API, not pytest cases; keep pytest from
# collecting them out of modules that import them by name.
for _obj in (TestConfig, TestOutcome, *(globals()[row.entry] for row in _SUITES)):
    _obj.__test__ = False
del _obj
