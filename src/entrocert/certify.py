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
its counterexample payload, a ``derive(payloads)`` that forms and decomposes
the matrices of a whole stack of trials, and a ``margin(f, derived)`` that
applies f to what the derive made, never to the payloads.  Every stack is a
_Stack of trial indices and derived data, derived where it is built, once
however many functions measure it; no stack holds payload fields.  Every
witness reads its trial's through _trial_fields: a grid plan's row, or the
sampled trial drawn and built alone from (seed, stream, index).
reverify_counterexample derives a payload as a batch of one.  A trial whose
margin is not finite is skipped, and every FAIL payload is written by the
record that re-verifies it (_witness).

Every suite is a list of trial plans, and one aggregator (_drive) folds the
margins of each stack of trials straight into the outcome.  A FAIL's witness
is the first violating sampled trial by index or, when an expected failure
is not sampled, subentropic's search hook constructs one from the
superoperator inequality, counted as one extra trial; it draws its base
pairs as a plan of its own, through the same columns as sampling.  A
sampled trial draws its randomness from an independent stream keyed by
(seed, stream name, trial index): NumPy's
``default_rng(SeedSequence([seed, token, index]))``, bit for bit, with the
seed states computed in fixed blocks of trials.  Plans are columns: each
declares, per index class, its fields with their kind and per-trial shape,
and each trial writes the Generator's raw output straight into its row of
the class's column buffers.  The gap suites' plans are fixed grids whose
columns are given.  Trials run in chunks under a fixed memory ceiling.  The
PD matrices of a chunk are built in one call per dimension and eigenvalue
range, across fields and index classes; the other matrices and the
channels are built once per column; the linear algebra runs on stacks of
trials.  The witness, the recorded rows and the first skip are
chosen by trial index, so outcomes do not depend on how trials are
batched.  Growing the sample budget re-runs the same leading trials, so a
FAIL can never flip back to PASS.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
from collections.abc import Callable, Hashable, Iterator
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .frechet import (
    NotInvertibleError,
    _basis_pairs,
    _flat_with_sums,
    _inverse_kernel,
    _kronecker_form,
    _layout,
    _loewner,
    _real_conjugation,
    _shared_weights,
    _split_sums,
    _weighted,
    _weights,
    unvec,
    vec,
)
from .functions import (
    DegenerateFunctionError,
    ScalarFunction,
    _gap_series,
    _jointly,
    gap_function,
)
from .hermitian import (
    PsdMargin,
    SpectralDecomposition,
    _json_integer,
    _spectra_values,
    _zero_clamp,
    adjoint,
    eigh,
    hermitian_from_draw,
    hermitize,
    matrix_from_json,
    matrix_to_json,
    pd_from_draw,
    uniform_from_draw,
)
from .jets import DomainError
from .quantum import (
    KrausChannel,
    apply_kraus,
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

_SUBENTROPIC_ORDERS = (2, 3, 4)

# Grid used by the scalar convexity precheck and the gap-function tests.
_SCALAR_GRID = np.logspace(-2.0, 2.0, 41)
_GAP_GRID = np.logspace(-3.0, 2.0, 25)
_GAP_ZERO_PROBE = 1e-6
_GAP_ZERO_CEILING = 1e-3

# Minimum eigenvalue demanded of states fed to functions without a zero
# extension (and of channel outputs for such functions).
_RANK_FLOOR = 1e-8

# Random channels in gain have 2..this many Kraus operators.
_MAX_KRAUS = 4

# Random direction pairs per equivalence trial.
_EQUIVALENCE_DIRECTIONS = 16

# Estimated working memory of one stack of trials.  Chunks are drawn and
# built under it (_chunks), and kept stacks are merged under it for their
# margins (_coalesced), so batching does not raise the peak memory of a run.
_CHUNK_BYTES = 1 << 20

# Bytes of derived data and rebuilt payloads kept for later calls under one
# configuration (_kept_stacks): all the sampled suites of samples=200 at
# dims (2, 3) keep about 2.8 MB.
_KEPT_BYTES = 4 << 20

# Trials whose seed states are computed at once: about 150 bytes each.
_SEED_BLOCK = 1024

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
        # operator.index takes Python and NumPy integers and rejects 1.5 or 2.7
        # rather than truncating them
        index = operator.index
        object.__setattr__(self, "seed", index(self.seed))
        object.__setattr__(self, "samples", index(self.samples))
        object.__setattr__(self, "dims", tuple(index(d) for d in self.dims))
        eig_range = tuple(float(v) for v in self.eig_range)
        if len(eig_range) != 2:
            raise ValueError(f"eig_range needs exactly two entries (lo, hi), got {len(eig_range)}")
        object.__setattr__(self, "eig_range", eig_range)
        object.__setattr__(
            self, "bipartite", tuple((index(a), index(b)) for a, b in self.bipartite)
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
        # a repeat would re-run the same trial streams and count them twice
        if len(set(self.dims)) < len(self.dims) or len(set(self.bipartite)) < len(self.bipartite):
            raise ValueError("dims and bipartite splits must not repeat")

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dims": list(self.dims),
            "samples": self.samples,
            "tol": float(self.tol),
            "eig_range": list(self.eig_range),
            "bipartite": [list(p) for p in self.bipartite],
        }


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


def _trial_streams(seed: int, segments: list) -> Iterator[np.random.Generator]:
    """The Generators of the trials of each (stream, indices) segment, in order.

    Trial i of a stream is bitwise
    ``np.random.default_rng(np.random.SeedSequence([seed, token, i]))``.
    Seed states are computed in fixed blocks of _SEED_BLOCK trials, so small
    segments share a block and the states held at once never exceed one
    block.  One Generator is reset to each state in turn: draw from it
    before advancing.
    """
    lanes = itertools.chain.from_iterable(
        zip(itertools.repeat(_stream_token(stream)), indices) for stream, indices in segments
    )
    rng = np.random.Generator(np.random.PCG64(0))
    while part := list(itertools.islice(lanes, _SEED_BLOCK)):
        tokens, idx = np.array(part, dtype=np.uint64).T
        states = [(0, 0)] * idx.size
        # SeedSequence reads an integer past 2**32 - 1 as two words; the
        # lanes of each word count are hashed in one call
        width = 2 * (tokens > _M32) + (idx > _M32)
        for w in set(width.tolist()):
            same = np.flatnonzero(width == w)
            entropy = [np.full(same.size, word) for word in _u32_words(seed)]
            for values, count in ((tokens[same], 1 + (w >> 1)), (idx[same], 1 + (w & 1))):
                entropy += [values & _M32, values >> 32][:count]
            # PCG64's set_seed of 128-bit (initstate, initseq) from the four words:
            # inc = 2*initseq + 1 and state = (inc + initstate) * mult + inc
            words = _seed_sequence_words(np.array(entropy, dtype=np.uint32)).tolist()
            for lane, s_hi, s_lo, q_hi, q_lo in zip(same.tolist(), *words):
                inc = (((q_hi << 64) | q_lo) << 1 | 1) & _M128
                states[lane] = (((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _M128, inc)
        for state, inc in states:
            rng.bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0,
            }
            yield rng


# --------------------------------------------------------------------------
# columns: the fields of an index class, drawn raw and built per chunk

class _Col(NamedTuple):
    """Payload fields of an index class and the raw column buffer they are drawn into.

    The Generator ``calls`` fill a trial's row of the buffer (per-trial
    shape ``raw``) in draw order, each as (method, index within the row);
    ``build(rows, buffer)`` makes the stacked fields ``names``.  One trial's
    built size ``nbytes`` and matrix dimension ``dim`` size the chunks.

    A state field (a PD, diagonal or scalar matrix) comes with the
    eigenpairs its build knows, under the two keys of :func:`_state`, so
    the properties' derive hands them to ``eigh`` instead of decomposing it
    again.

    A column with a ``pool`` key holds one field of states, one per raw
    unit (the last axis of ``raw``).  The columns of a chunk that share a
    key are built together: ``build(units)`` takes all their units, stacked
    along one axis, and returns each of ``names`` with one entry per unit.
    """

    names: tuple[str, ...]
    raw: tuple[int, ...]
    calls: tuple[tuple[str, tuple], ...]
    build: Callable
    nbytes: int
    dim: int
    pool: Optional[Hashable] = None


def _state(name: str) -> tuple[str, str, str]:
    """A state field's name, then the keys of its build's eigenvalues and eigenvectors."""
    return name, f"{name}.eigenvalues", f"{name}.eigenvectors"


def _known(P: dict, *names: str) -> list[SpectralDecomposition]:
    """The eigenpairs kept under the keys of :func:`_state` for ``names``, one decomposition each.

    Those of a build's state fields, or of a derive's.  Empty for a payload
    without them (one decoded from JSON): eigh then decomposes every member.
    """
    if _state(names[0])[1] not in P:
        return []
    return [SpectralDecomposition(P[w], P[v]) for _, w, v in map(_state, names)]


@functools.lru_cache(maxsize=None)
def _pd_col(name: str, n: int, eig_range: tuple[float, float], k: Optional[int] = None) -> _Col:
    """k random PD matrices (k=None: one), each drawn as its spectrum's uniforms, then a Gaussian.

    PD columns pool their builds by dimension and eigenvalue range.
    """
    lo, hi = eig_range
    per = () if k is None else (k,)
    # a one-point range draws no spectrum: its zero uniforms map to exactly lo
    spectrum = (("random", slice(0, n)),) if lo != hi else ()
    draws = (*spectrum, ("standard_normal", slice(n, None)))
    units = [()] if k is None else [(j,) for j in range(k)]
    calls = tuple((method, (*j, at)) for j in units for method, at in draws)

    def build(units):
        u = units[:, :n] if spectrum else np.zeros((len(units), n))
        m, dec = pd_from_draw(u, units[:, n:].reshape(-1, 2, n, n), lo, hi)
        return m, dec.eigenvalues, dec.eigenvectors

    raw = (*per, n + 2 * n * n)
    return _Col(_state(name), raw, calls, build, 16 * (k or 1) * n * n, n, (n, lo, hi))


@functools.lru_cache(maxsize=None)
def _diag_col(name: str, n: int, eig_range: tuple[float, float]) -> _Col:
    """A diagonal PD state, its spectrum log-uniform in eig_range (drawn even when lo == hi)."""
    log_lo, log_hi = np.log(eig_range[0]), np.log(eig_range[1])
    eye = np.eye(n, dtype=complex)[None]

    def build(rows, u):
        lam = np.exp(uniform_from_draw(u, log_lo, log_hi))
        out = np.zeros((rows, n, n), dtype=complex)
        out[:, range(n), range(n)] = lam
        return out, lam, eye.repeat(rows, axis=0)

    return _Col(_state(name), (n,), (("random", ()),), build, 16 * n * n, n)


@functools.lru_cache(maxsize=None)
def _herm_col(names: tuple[str, ...], n: int, k: Optional[int] = None) -> _Col:
    """k Hermitian directions (k=None: one) per name, drawn in one call and dealt to the names in turn."""
    m = len(names) * (k or 1)

    def build(rows, g):
        h = hermitian_from_draw(g)
        picks = [slice(j, None, len(names)) if k else j for j in range(len(names))]
        return tuple(np.ascontiguousarray(h[:, pick]) for pick in picks)

    return _Col(names, (m, 2, n, n), (("standard_normal", ()),), build, 16 * m * n * n, n)


@functools.lru_cache(maxsize=None)
def _channel_col(name: str, n_in: int, n_out: int, rank: int) -> _Col:
    """A random channel, built with _MAX_KRAUS operators: those past its rank are exact zeros.

    Zero operators add nothing to a channel's action, so channels of one
    (in, out) stack together whatever their rank; only the drawn operators
    count toward a chunk.
    """

    def build(rows, g):
        out = np.zeros((rows, _MAX_KRAUS, n_out, n_in), dtype=complex)
        out[:, :rank] = channel_from_draw(g, n_out)
        return (out,)

    raw = (2, rank * n_out, n_in)
    return _Col((name,), raw, (("standard_normal", ()),), build, 16 * rank * n_out * n_in, n_in)


def _identity_col(
    names: tuple[str, ...],
    methods: tuple[str, ...],
    coefficients: Callable,
    n: int,
    k: int = 1,
    states: tuple[str, ...] = (),
) -> _Col:
    """Multiples of the n x n identity, k per name, by ``coefficients(values)``.

    The values are scalar draws, one per method in turn.  The fields named
    in ``states`` carry their eigenpairs: the coefficient n times, and I.
    """
    eye = np.eye(n, dtype=complex)

    def build(rows, v):
        out = []
        for name, c in zip(names, coefficients(v)):
            out.append(c[..., None, None] * eye)
            if name in states:
                units = eye[None].repeat(c.size, axis=0).reshape(out[-1].shape)
                out += [c[..., None].repeat(n, axis=-1), units]
        return tuple(out)

    fields = tuple(key for name in names for key in (_state(name) if name in states else (name,)))
    calls = tuple((method, (slice(i, i + 1),)) for i, method in enumerate(methods))
    return _Col(fields, (len(methods),), calls, build, 16 * len(names) * k * n * n, n)


def _fixed_col(name: str, value) -> _Col:
    """A value that every trial of the class shares; only an array counts toward a chunk."""
    value = np.asarray(value)

    def build(rows, raw):
        return (np.array(np.broadcast_to(value, (rows, *value.shape))),)

    return _Col((name,), (0,), (), build, value.nbytes if value.ndim else 0, 1)


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
    _INT: lambda v: np.asarray(_json_integer(v)),
    _FLOAT: lambda v: np.asarray(float(v)),
    _CHANNEL: lambda obj: np.stack(channel_from_json(obj).kraus),
}


@dataclass(frozen=True)
class _Property:
    """How one kind of trial is measured, and how its witness reads and writes.

    ``derive(P)`` takes a dict of stacked payload fields (leading axis =
    trials) and returns the f-independent data its margin reads, each array
    with a leading trial axis too: the states and the matrices the property
    forms of them (midpoints, sums, partial traces, channel outputs),
    decomposed by one checked :func:`eigh` call per matrix size, and every
    factor of the margin that does not depend on f.  A trace property keeps
    the spectra with their zero-clamp masks; a Frechet one the spectra's
    divided-difference layout, and the pairing weights Re(g o g^T), g = U* h
    U, of its drawn directions h in place of the eigenvectors wherever only
    a pairing reads them.  A scalar property's derived data are its payload
    fields.  ``margin(f, D)`` applies f to that derived data ``D`` alone,
    never to the payload, and returns ``(margins, scales)``, or ``(margins,
    scales, extras)`` where ``extras`` holds per-trial values that the
    witness records next to the payload, after ``select`` picks from the
    payload what the margin chose.

    A margin evaluates f's series once: at all of its points (every
    spectrum and near midpoint, or every scalar point), in the order that
    separate evaluations would take them, up to the highest order it reads.
    When that one evaluation fails, the separate evaluations run in turn
    (functions._jointly), so a domain error names the value it always
    named.  A sampled stack is derived where it is built (_kept_stacks),
    however many functions measure it; a payload decoded from JSON is
    derived on its own (reverify_counterexample).
    """

    kind: str
    fields: tuple[tuple[str, str], ...]
    margin: Callable
    derive: Callable[[dict], dict] = lambda P: P  # scalar properties measure their fields
    extras: tuple[str, ...] = ()
    select: Callable[[dict], dict] = lambda trial: trial  # a witness's fields from its trial
    defaults: dict = field(default_factory=dict)  # for fields older payloads lack
    label: str = ""  # names the margin in a detail line when a trial has several
    superops: int = 0  # n^2 x n^2 matrices a trial holds at once, for chunk sizes

    def witness(self, payload: dict, margin: float) -> dict:
        payload = self.select(payload)
        obj = {"kind": self.kind}
        for name, codec in self.fields:
            obj[name] = _ENCODE[codec](payload[name])
        for name in self.extras:
            obj[name] = float(payload[name])
        obj["margin"] = float(margin)
        return obj

    def decode(self, obj: dict) -> dict:
        P = {}
        for name, codec in self.fields:
            value = obj[name] if name in obj else self.defaults[name]
            try:
                P[name] = _DECODE[codec](value)[None]
            except (TypeError, ValueError) as exc:  # a JSON value of the wrong type or value
                raise ValueError(f"{self.kind} field {name!r} is malformed: {exc}") from None
        return P

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


def _with_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stack (x, y, hermitize(x+y)) along a new leading axis."""
    return np.stack([x, y, hermitize(x + y)])


def _trial_first(a: np.ndarray) -> np.ndarray:
    """Swap the two leading axes, (k, trials, ...) <-> (trials, k, ...), as a view."""
    return np.swapaxes(a, 0, 1)


# What a derive keeps of a spectrum, under its name: for a trace, the
# spectra as ``name`` and their zero-clamp masks as ``name.clamp``; for a
# Loewner matrix, frechet._layout as ``name.eigenvalues``, ``name.gaps``,
# ..., and the pairing weights ``name.weights`` that its quadratic forms
# Re Tr h df'(rho)[h] read instead of the eigenvectors.

def _trace_spectra(name: str, lam: np.ndarray) -> dict:
    """Checked spectra (trial-first) under ``name``, with their zero-clamp masks."""
    return {name: lam, f"{name}.clamp": _zero_clamp(lam)}


def _traces(f, D: dict, *names: str) -> list[np.ndarray]:
    """Tr f over the spectra of each name, member-first ((k, trials) for (trials, k, n)).

    One call of f covers every spectrum of every name.
    """
    spectra = tuple(_trial_first(D[name]) for name in names)
    clamps = tuple(_trial_first(D[f"{name}.clamp"]) for name in names)
    return [np.sum(v, axis=-1) for v in _spectra_values(f, spectra, clamps)]


def _kept_layout(name: str, lam: np.ndarray) -> dict:
    """The divided-difference layout of the checked spectra ``lam`` under ``name``."""
    return {f"{name}.{key}": a for key, a in _layout(lam).items()}


def _kernels(fp: ScalarFunction, D: dict, *names: str) -> list[np.ndarray]:
    """The Loewner matrices of fp over the kept spectra of each name, from one evaluation of fp."""
    return _loewner(fp, [
        {key[len(name) + 1 :]: a for key, a in D.items() if key.startswith(name + ".")}
        for name in names
    ])


def _pair_spectra(P: dict) -> dict:
    """The checked spectra of the (x, y, midpoint) of each trial, as ``spectra``."""
    mats = _with_midpoint(P["x"], P["y"])
    return _trace_spectra("spectra", _trial_first(eigh(mats, _known(P, "x", "y")).eigenvalues))


def _principle1_margin(f, D):
    # Concavity of -Tr f equals midpoint convexity of Tr f.
    return _convexity(*_traces(f, D, "spectra")[0])


def _entropic_derive(P):
    reduced = partial_trace_1(_with_midpoint(P["x"], P["y"]), int(P["dim1"][0]), int(P["dim2"][0]))
    reduced = _trial_first(eigh(reduced).eigenvalues)
    return {**_pair_spectra(P), **_trace_spectra("reduced", reduced)}


def _entropic_margin(f, D):
    whole, reduced = _traces(f, D, "spectra", "reduced")
    return _convexity(*(whole - reduced))


# The subentropic margins meet every rho_i before the sums, in the order of
# the flat stack they were decomposed in, so a domain error of f names the
# same first failing value for a stack, a trial or a payload.

def _subentropic_midpoint_derive(P):
    xs, ys = P["xs"], P["ys"]
    ms = np.stack([xs, ys, (xs + ys) / 2.0])
    lam = eigh(_flat_with_sums(ms), _known(P, "xs", "ys")).eigenvalues
    single, joint = _split_sums(lam, ms.shape[:-2])
    return {
        **_trace_spectra("spectra", _trial_first(single)),
        **_trace_spectra("sums", _trial_first(joint)),
    }


def _subentropic_midpoint_margin(f, D):
    # G(rho_1..rho_k) = sum_i Tr f(rho_i) - Tr f(sum_i rho_i) at xs, ys and their midpoint
    single, joint = _traces(f, D, "spectra", "sums")
    return _convexity(*(np.sum(single, axis=-1) - joint))


def _subentropic_hessian_derive(P):
    rhos, hs = P["rhos"], P["hs"]
    dec = eigh(_flat_with_sums(rhos), _known(P, "rhos"))
    (w, sum_w), (v, sum_v) = (
        _split_sums(a, rhos.shape[:-2]) for a in (dec.eigenvalues, dec.eigenvectors)
    )
    return {
        **_kept_layout("rhos", w), "rhos.weights": _weights(v, hs),
        **_kept_layout("sums", sum_w), "sums.weights": _weights(sum_v, np.sum(hs, axis=-3)),
    }


def _subentropic_hessian_margin(f, D):
    # per-point terms Tr h_i df'(rho_i) h_i and the joint term of the sums
    at_rhos, at_sums = _kernels(f.derivative(), D, "rhos", "sums")
    single, joint = _weighted(at_rhos, D["rhos.weights"]), _weighted(at_sums, D["sums.weights"])
    scale = np.maximum(1.0, np.sum(np.abs(single), axis=-1) + np.abs(joint))
    return (np.sum(single, axis=-1) - joint) / scale, scale


def _pair_sum_derive(P):
    """(rho, sigma, rho + sigma) of each trial: their layout and eigenvectors, as ``states``.

    ``states.rotations`` holds R = U* V for the eigenvectors U of rho + sigma
    and V of rho and of sigma: the eigenbases of rho and sigma seen from
    that of rho + sigma, where _condition13_spectrum works.
    """
    dec = eigh(_with_sum(P["rho"], P["sigma"]), _known(P, "rho", "sigma"))
    u = dec.eigenvectors
    return {
        **_kept_layout("states", _trial_first(dec.eigenvalues)),
        "states.eigenvectors": _trial_first(u),
        "states.rotations": _trial_first(adjoint(u[2]) @ u[:2]),
    }


def _inverse_differentials(fp: ScalarFunction, kernel: np.ndarray, u: np.ndarray) -> tuple:
    """df'(rho)^-1, df'(sigma)^-1 and d as complex n^2 x n^2 matrices, from fp's Loewner matrices.

    ``kernel`` and ``u`` are the Loewner matrices and eigenvectors of (rho,
    sigma, rho + sigma), trial-first (trials, 3, n, n), with fp = f'; d =
    hermitize(df'(rho+sigma)^-1 - df'(rho)^-1 - df'(sigma)^-1).  Only the
    trials whose negative direction is transferred form them.
    """
    r, s, total = _kronecker_form(_inverse_kernel(fp, _trial_first(kernel)), _trial_first(u)).matrix
    return r, s, hermitize(total - r - s)


def _condition13_form(inverse: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Condition (13)'s d as a real symmetric n^2 x n^2 matrix, with the eigenvalues of d.

    ``inverse`` holds the reciprocal Loewner matrices of (rho, sigma, rho +
    sigma), (trials, 3, n, n), and ``rotations`` the ``states.rotations`` of
    _pair_sum_derive.  In the Hermitian basis of frechet._basis_pairs and the
    eigenbasis of rho + sigma, d = diag(k_t) - O_r diag(k_r) O_r^T - O_s
    diag(k_s) O_s^T: each k is its reciprocal kernel read at the basis pairs,
    and each O the real orthogonal matrix of X -> R X R*.  The two rotated
    terms are one product of [O_r O_s], symmetric up to rounding (eigvalsh
    reads the lower triangle).
    """
    n = inverse.shape[-1]
    rows, cols = _basis_pairs(n)
    k = inverse[..., rows, cols]  # (trials, 3, n^2)
    o = _real_conjugation(rotations)
    side = np.concatenate([o[:, 0], o[:, 1]], axis=-1)  # [O_r O_s], (trials, n^2, 2 n^2)
    d = -(side * k[:, None, :2].reshape(-1, 1, 2 * n * n)) @ np.swapaxes(side, -1, -2)
    diagonal = np.arange(n * n)
    d[:, diagonal, diagonal] += k[:, 2]
    return d


def _condition13_spectrum(fp: ScalarFunction, D: dict) -> tuple:
    """fp's Loewner matrices at the ``states`` of _pair_sum_derive, and condition (13)'s PSD margin.

    The margin is that of d = df'(rho+sigma)^-1 - df'(rho)^-1 - df'(sigma)^-1,
    with fp = f', taken from its real form (_condition13_form) by one real
    eigvalsh.  Both superoperator margins read it.
    """
    (kernel,) = _kernels(fp, D, "states")
    d = _condition13_form(_inverse_kernel(fp, kernel), D["states.rotations"])
    return kernel, PsdMargin.of_spectrum(np.linalg.eigvalsh(d))


def _condition13_margin(f, D):
    pm = _condition13_spectrum(f.derivative(), D)[-1]
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
    and a negative form.  _equivalence_margin calls it only on the trials
    whose condition (13) margin lies below -band: a Rayleigh quotient is
    never below the lowest eigenvalue, so elsewhere no candidate is usable
    beyond rounding, and a trial within band of zero cannot disagree.
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


def _equivalence_derive(P):
    D = _pair_sum_derive(P)
    u, h1, h2 = D["states.eigenvectors"], P["h1"], P["h2"]
    # the drawn pairs' forms: h1 at rho, h2 at sigma and h1 + h2 at rho + sigma
    forms = [_shared_weights(u[:, j], h) for j, h in enumerate((h1, h2, h1 + h2))]
    return {**D, "states.weights": np.stack(forms, axis=1), "band": P["band"]}


def _hessian(q1, q2, qt):
    """The normalised Hessian margin of condition (13)'s direction pairs from their forms."""
    return (q1 + q2 - qt) / np.maximum(1.0, np.abs(q1) + np.abs(q2) + np.abs(qt))


def _equivalence_margin(f, D):
    """Per-instance agreement of the condition13 verdict with the Hessian verdict.

    The condition13 margin is condition13's own (_condition13_spectrum).
    The Hessian margin is the worst over the drawn direction pairs and, on a
    trial whose condition13 margin lies below -band, the most negative
    superoperator direction transferred to a direction pair
    (_negative_pairs).  Both margins must clear ``band`` before a sign
    disagreement counts, so the transfer is needed nowhere else: above
    band, d is positive definite and no transferred form is negative, and
    within band of zero the trial cannot disagree, whatever its Hessian
    margin.  The extras name the winning candidate (``direction``: a drawn
    pair's index, or past them a transferred pair) and hold the transferred
    pair it would take (``moved1``, ``moved2``; zero where none was formed).
    """
    fp = f.derivative()
    kernel, pm = _condition13_spectrum(fp, D)
    m13, u = pm.normalized, D["states.eigenvectors"]
    transferred = np.full((m13.size, 2), np.inf)
    neg = np.flatnonzero(m13 < -D["band"])
    if neg.size:
        # the transferred pairs depend on f, so their complex superoperators
        # are formed here, before the drawn pairs' forms: they are the peak
        inv_r, inv_s, d = _inverse_differentials(fp, kernel[neg], u[neg])
        _, t1, t2, _, usable = _negative_pairs(d, inv_r, inv_s)
        forms = [
            _weighted(kernel[neg, j, None], _shared_weights(u[neg, j], g))
            for j, g in enumerate((t1, t2, t1 + t2))
        ]
        transferred[neg] = np.where(usable, _hessian(*forms), np.inf)
    # Tr h df'(rho)[h] is the Loewner matrix at rho weighed with h's weights
    drawn = _weighted(kernel[:, :, None], D["states.weights"])  # (trials, 3, drawn pairs)
    hm = np.concatenate([_hessian(*_trial_first(drawn)), transferred], axis=1)
    best, mh = np.argmin(hm, axis=1), np.min(hm, axis=1)
    moved = np.zeros((2, m13.size, *u.shape[-2:]), complex)  # the transferred pair of each trial
    if neg.size:
        pair = np.maximum(best[neg] - drawn.shape[-1], 0)  # when best names one
        at = np.arange(neg.size)
        moved[0, neg], moved[1, neg] = t1[at, pair], t2[at, pair]

    solid = (np.abs(m13) > D["band"]) & (np.abs(mh) > D["band"])
    disagree = solid & ((m13 < 0.0) != (mh < 0.0))
    margin = np.minimum(np.abs(m13), np.abs(mh)) * np.where(disagree, -1.0, 1.0)
    extras = {
        "direction": best, "moved1": moved[0], "moved2": moved[1],
        "margin13": m13, "margin_hessian": mh,
    }
    return margin, np.maximum(np.abs(m13), np.abs(mh)), extras


def _equivalence_pair(trial: dict) -> dict:
    """The trial's direction pair that its margin chose: a drawn pair, or the transferred one."""
    j, h1, h2 = int(trial["direction"]), trial["h1"], trial["h2"]
    if j < len(h1):
        return {**trial, "h1": h1[j], "h2": h2[j]}
    return {**trial, "h1": trial["moved1"], "h2": trial["moved2"]}


def _matrix_entropy_derive(P):
    h1, h2 = P["h1"], P["h2"]
    dec = eigh(_with_midpoint(P["x1"], P["x2"]), _known(P, "x1", "x2"))
    weights = _weights(dec.eigenvectors, np.stack([h1, h2, (h1 + h2) / 2.0]))
    return {
        **_kept_layout("states", _trial_first(dec.eigenvalues)),
        "states.weights": _trial_first(weights),
    }


def _matrix_entropy_margin(f, D):
    # Q(rho, h) = Tr h df'(rho) h, the quadratic form behind matrix entropies
    (kernel,) = _kernels(f.derivative(), D, "states")
    return _convexity(*_trial_first(_weighted(kernel, D["states.weights"])))


def _gain_derive(P):
    outputs = hermitize(apply_kraus(P["channel"], _with_midpoint(P["x"], P["y"])))
    outputs = _trial_first(eigh(outputs).eigenvalues)
    return {**_pair_spectra(P), **_trace_spectra("outputs", outputs)}


def _gain_margin(f, D):
    # convexity of rho -> S_f(channel(rho)) - S_f(rho) = Tr f(rho) - Tr f(channel(rho))
    # functions unbounded at 0 need full-rank channel outputs
    if f.zero_extension is None and np.min(D["outputs"][..., 0]) < _RANK_FLOOR:
        raise DomainError(f"channel output too singular for {f.name}")
    states, outputs = _traces(f, D, "spectra", "outputs")
    return _convexity(*(states - outputs))


def _scalar_convexity_margin(f, D):
    t, s = D["t"], D["s"]
    return _convexity(*_jointly(f, (t, s, (t + s) / 2.0)))


def _gap_values(f, *parts) -> list[np.ndarray]:
    """g = 1/f'' at each array of points, from one evaluation of f."""
    return [1.0 / series.derivative(2) for series in _gap_series(f, *parts)]


def _gap_scale(gt, gs):
    return np.maximum(1.0, np.abs(gt) + np.abs(gs))


def _gap_superadditive_margin(f, D):
    t, s = D["t"], D["s"]
    gt, gs, g_sum = _gap_values(f, t, s, t + s)
    scale = _gap_scale(gt, gs)
    return (g_sum - gt - gs) / scale, scale


def _gap_monotone_margin(f, D):
    gt, gs = _gap_values(f, D["t"], D["s"])
    scale = _gap_scale(gt, gs)
    return (gs - gt) / scale, scale


def _gap_concavity_margin(f, D):
    t, s = D["t"], D["s"]
    gt, gs, g_mid = _gap_values(f, t, s, (t + s) / 2.0)
    scale = _gap_scale(gt, gs)
    return (g_mid - (gt + gs) / 2.0) / scale, scale


def _gap_zero_margin(f, D):
    # g must vanish at 0+ (f'' must blow up)
    margin = _GAP_ZERO_CEILING - _gap_values(f, D["t"])[0]
    return margin, np.ones_like(margin)


def _uniqueness_fit_margin(f, D):
    # a fit has no trial fields: its witness records the worst-fitting grid point
    (fit, gv), ts = _gap_fit(f), _FIT_GRID
    t = ts[np.argmax(np.abs(gv - fit["slope"] * ts))]
    extras = {"t": [t], "slope": [fit["slope"]], "relative_residual": [fit["relative_residual"]]}
    return np.array([-fit["relative_residual"]]), np.ones(1), extras


_PAIR = (("x", _MAT), ("y", _MAT))
_PRINCIPLE1 = _Property("principle1", _PAIR, _principle1_margin, _pair_spectra)
_ENTROPIC = _Property(
    "entropic", (("dim1", _INT), ("dim2", _INT), *_PAIR), _entropic_margin, _entropic_derive
)
_SUB_MIDPOINT = _Property(
    "subentropic-midpoint", (("xs", _MATS), ("ys", _MATS)), _subentropic_midpoint_margin,
    _subentropic_midpoint_derive, label="midpoint",
)
_SUB_HESSIAN = _Property(
    "subentropic-hessian", (("rhos", _MATS), ("hs", _MATS)), _subentropic_hessian_margin,
    _subentropic_hessian_derive, label="Hessian",
)
_CONDITION13 = _Property(
    "condition13", (("rho", _MAT), ("sigma", _MAT)), _condition13_margin, _pair_sum_derive,
    # its traced margin peak reads 7.1-8.2 of these per trial at dims 2-8;
    # 13 keeps the chunk and merge cuts it was sized for
    superops=13,
)
_EQUIVALENCE = _Property(
    "equivalence",
    (("rho", _MAT), ("sigma", _MAT), ("h1", _DIRS), ("h2", _DIRS), ("band", _FLOAT)),
    _equivalence_margin,
    _equivalence_derive,
    extras=("margin13", "margin_hessian"),
    select=_equivalence_pair,
    defaults={"band": 0.0},
    # its traced margin peak at dims 2-8: 7.1-8.5 of these where no trial is
    # transferred (tlogt), 12.2-14.6 where every trial is (square)
    superops=16,
)
_MATRIX_ENTROPY = _Property(
    "matrix-entropy", (("x1", _MAT), ("h1", _MAT), ("x2", _MAT), ("h2", _MAT)),
    _matrix_entropy_margin, _matrix_entropy_derive,
)
_GAIN = _Property("gain", (("channel", _CHANNEL), *_PAIR), _gain_margin, _gain_derive)
_SCALAR_PAIR = (("t", _FLOAT), ("s", _FLOAT))
_SCALAR_CONVEXITY = _Property("scalar-convexity", _SCALAR_PAIR, _scalar_convexity_margin)
_GAP_SUPERADDITIVE = _Property("gap-superadditive", _SCALAR_PAIR, _gap_superadditive_margin)
_GAP_MONOTONE = _Property("gap-monotone", _SCALAR_PAIR, _gap_monotone_margin)
_GAP_ZERO = _Property("gap-zero", (("t", _FLOAT),), _gap_zero_margin)
_GAP_CONCAVITY = _Property("gap-concavity", _SCALAR_PAIR, _gap_concavity_margin)
_UNIQUENESS_FIT = _Property(
    "uniqueness-fit", (), _uniqueness_fit_margin, extras=("t", "slope", "relative_residual")
)

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
    extras: dict  # the stack's extra values by name, with a leading trial axis
    notes: list  # per trial: why it was skipped, or ""


def _margin(prop: _Property, f: ScalarFunction, D: dict) -> tuple:
    """prop's (margins, scales, extras) on a stack from what prop derived of it, ``D``.

    A non-finite margin is a DomainError.
    """
    out = prop.margin(f, D)
    extras = out[2] if len(out) > 2 else {}
    margins = np.asarray(out[0], dtype=float).reshape(-1)
    if not np.isfinite(margins).all():
        raise DomainError(f"non-finite {prop.kind} margin")
    return margins, np.asarray(out[1], dtype=float).reshape(-1), extras


def _trial(A: dict, i: int) -> dict:
    """Trial i of a stack's fields or derived data, as a stack of one."""
    return {k: v[i : i + 1] for k, v in A.items()}


def _row(P: dict, j: int) -> dict:
    """The fields of trial j of a stack."""
    return {k: v[j] for k, v in P.items()}


def _measure(prop: _Property, f: ScalarFunction, size: int, D: dict) -> _Measured:
    """prop's margin on a stack of ``size`` trials, from its derived data ``D``.

    If the stack raises a skippable error, the trials are measured one at a
    time through the same code, from trial slices of ``D``, so only the
    offending ones are skipped; their extras fill stacked arrays.
    """
    try:
        m, s, ex = _margin(prop, f, D)
        return _Measured(m, s, ex, [""] * size)
    except _SKIPPABLE as exc:
        if size == 1:
            return _Measured(np.full(1, np.nan), np.zeros(1), {}, [str(exc)])
    margins, scales = np.full(size, np.nan), np.zeros(size)
    extras, notes = {}, [""] * size
    for i in range(size):
        try:
            m, s, ex = _margin(prop, f, _trial(D, i))
        except _SKIPPABLE as exc:
            notes[i] = str(exc)
            continue
        margins[i], scales[i] = m[0], s[0]
        for k, v in ex.items():
            extras.setdefault(k, np.zeros((size, *v.shape[1:]), v.dtype))[i] = v[0]
    return _Measured(margins, scales, extras, notes)


def _witness(prop: _Property, fields: dict, res: _Measured, j: int) -> dict:
    """The witness of trial j, whose payload ``fields`` prop measured as res (every FAIL payload)."""
    return prop.witness({**fields, **_row(res.extras, j)}, res.margins[j])


class _Plan(NamedTuple):
    """``count`` trials; each trial is measured by every property of ``props``.

    A sampled plan draws trial i from its stream into the columns of its
    index class: ``classify(i, rng)`` names the class (gain's random channels
    draw theirs) and ``classes`` maps each class to its columns, in draw
    order.  A plan without a stream is a fixed grid: trial i takes entry i of
    every ``grid`` column and draws nothing, and ``excluded`` counts the grid
    points left out of it, each as one skipped trial.
    """

    stream: Optional[str]
    count: int
    props: tuple[_Property, ...]
    classes: dict = {}
    classify: Callable[[int, np.random.Generator], Hashable] = lambda idx, rng: None
    grid: dict = {}
    excluded: int = 0


def _grid_plan(prop: _Property, excluded: int = 0, **columns: np.ndarray) -> _Plan:
    """A grid plan whose trial i takes entry i of every column."""
    return _Plan(None, len(next(iter(columns.values()))), (prop,), grid=columns, excluded=excluded)


class _Rows:
    """The raw column buffers of one index class, and the suite trial indices of the rows drawn."""

    def __init__(self, cols: tuple[_Col, ...]):
        self.cols = cols
        self.raw = [np.empty((0, *col.raw)) for col in cols]
        self.steps: list = []
        self.members: list[int] = []

    def draw(self, rng: np.random.Generator, index: int) -> None:
        row = len(self.members)
        if row == len(self.raw[0]):  # full: double the rows, keeping those drawn
            more = max(8, row)
            self.raw = [np.concatenate([b, np.empty((more, *c.raw))]) for b, c in zip(self.raw, self.cols)]
            self.steps = [
                (method, b[(slice(None), *at)])
                for c, b in zip(self.cols, self.raw) for method, at in c.calls
            ]
        for method, column in self.steps:
            getattr(rng, method)(out=column[row])
        self.members.append(index)


def _stacks(classes: dict) -> list[tuple[np.ndarray, dict]]:
    """Build each class's fields from its rows; classes whose fields agree in shape form one stack.

    The pooled columns of all the classes are built once per pool key, and
    each field takes its slice of the result.
    """
    parts, pools = [], {}
    for cls in classes.values():
        rows = len(cls.members)
        if not rows:
            continue
        P = {}
        for col, buf in zip(cls.cols, cls.raw):
            if col.pool is None:
                P.update(zip(col.names, col.build(rows, buf[:rows])))
                continue
            P.update(dict.fromkeys(col.names))  # set from the pool's build below
            build, units, fields = pools.setdefault(col.pool, (col.build, [], []))
            units.append(buf[:rows].reshape(-1, col.raw[-1]))
            fields.append((P, col.names, (rows, *col.raw[:-1])))
        parts.append((cls.members, P))
        cls.members = []
    for build, units, fields in pools.values():
        built, start = build(np.concatenate(units)), 0
        for P, names, shape in fields:
            size = math.prod(shape)
            for name, a in zip(names, built):
                P[name] = a[start : start + size].reshape(shape + a.shape[1:])
            start += size
    groups: dict[tuple, list] = {}
    for members, P in parts:
        shapes = tuple(sorted((k, v.shape[1:]) for k, v in P.items()))
        groups.setdefault(shapes, []).append((members, P))
    stacks = []
    for group in groups.values():
        P = group[0][1]
        if len(group) > 1:
            P = {k: np.concatenate([p[k] for _, p in group]) for k in P}
        stacks.append((np.concatenate([m for m, _ in group]), P))
    return stacks


def _working_set(plan: _Plan, dim: int, trials: int, nbytes: int) -> int:
    """Estimated working memory of trials of plan: their arrays' ``nbytes`` and their superoperators."""
    return nbytes + trials * sum(p.superops for p in plan.props) * 16 * dim**4


def _chunks(plan: _Plan, streams: Iterator, start: int) -> Iterator[tuple[np.ndarray, dict]]:
    """A sampled plan's stacks, chunk by chunk, as (trial indices in the suite, stacked fields).

    Trial i takes the next Generator of ``streams`` and writes its draws
    straight into its row of its class's raw buffers, which grow as rows are
    drawn.  The trials are cut into chunks under _CHUNK_BYTES of estimated
    working memory (a trial's fields several times over, and its
    superoperators), and each chunk's classes are built into stacks.
    """
    cost = {
        key: _working_set(plan, max(c.dim for c in cols), 1, 8 * sum(c.nbytes for c in cols))
        for key, cols in plan.classes.items()
    }
    classes: dict[Hashable, _Rows] = {}
    used = 0
    for idx in range(plan.count):
        rng = next(streams)
        key = plan.classify(idx, rng)
        if used and used + cost[key] > _CHUNK_BYTES:
            yield from _stacks(classes)
            used = 0
        if key not in classes:
            classes[key] = _Rows(plan.classes[key])
        classes[key].draw(rng, start + idx)
        used += cost[key]
    yield from _stacks(classes)


def _suite_stacks(seed: int, plans: list[_Plan]) -> Iterator[tuple[_Plan, int, np.ndarray, dict]]:
    """Every plan's stacks in turn, as (plan, start, trial indices in the suite, stacked fields).

    A suite numbers its trials across its plans in order, and ``start`` is
    the index of the plan's first trial.  A grid plan is one stack; the
    sampled plans draw from one run of trial streams.
    """
    streams = _trial_streams(seed, [(p.stream, range(p.count)) for p in plans if p.stream])
    start = 0
    for plan in plans:
        if plan.stream:
            for idx, P in _chunks(plan, streams, start):
                yield plan, start, idx, P
        elif plan.count:
            yield plan, start, np.arange(start, start + plan.count), plan.grid
        start += plan.count


class _Stack(NamedTuple):
    """Trials of one plan: their indices and derived data, never their payload fields (_trial_fields)."""

    plan: _Plan
    start: int  # the suite index of the plan's first trial
    idx: np.ndarray  # the trials' indices in the suite
    dim: int  # their matrix dimension
    derived: dict  # property kind -> what its derive made of the stack

    def arrays(self) -> list[np.ndarray]:
        """The stack's trial indices and derived arrays."""
        return [self.idx, *(a for D in self.derived.values() for a in D.values())]

    def working_set(self) -> int:
        """The estimated working memory of measuring the stack: its arrays and its margins' temporaries.

        A margin holds its superoperators at once (_working_set).  One that
        holds none forms temporaries in proportion to the derived arrays it
        reads, counted as three times their bytes: that bounds the Frechet
        margins' (up to 2.1 times at all@200), not the trace margins' (up to
        5.4 times their spectra).  A chunk's estimate, its fields eight times
        over, covers them already.
        """
        nbytes = sum(a.nbytes for a in self.arrays())
        if not any(p.superops for p in self.plan.props):
            nbytes *= 4
        return _working_set(self.plan, self.dim, self.idx.size, nbytes)


# Data kept for later calls under one cfg: (cfg, the plans' (stream, count))
# -> their merged stacks, and (cfg, stream, index) -> the payload fields of a
# trial drawn and built alone (_trial_fields).
_KEPT: dict[tuple, list[_Stack]] = {}
_REBUILT: dict[tuple, dict] = {}


def _held_bytes() -> int:
    """The bytes of the arrays that _KEPT and _REBUILT hold."""
    kept = sum(a.nbytes for stacks in _KEPT.values() for stack in stacks for a in stack.arrays())
    return kept + sum(a.nbytes for fields in _REBUILT.values() for a in fields.values())


def _trial_fields(cfg: TestConfig, stack: _Stack, j: int) -> dict:
    """The payload fields of trial j of a stack: a grid plan's row, or the trial drawn and built alone.

    Draws and builds do not depend on batching, so a sampled trial drawn
    from (seed, stream, index) has the fields its stack was built from, bit
    for bit.  They are kept while all that is kept stays within _KEPT_BYTES.
    """
    plan, i = stack.plan, int(stack.idx[j]) - stack.start
    if not plan.stream:
        return _row(plan.grid, i)
    key = (cfg, plan.stream, i)
    if key not in _REBUILT:
        rng = next(_trial_streams(cfg.seed, [(plan.stream, [i])]))
        rows = _Rows(plan.classes[plan.classify(i, rng)])
        rows.draw(rng, i)
        ((_, P),) = _stacks({None: rows})
        names = {name for prop in plan.props for name, _ in prop.fields}
        fields = {k: v for k, v in P.items() if k in names}  # a stack of one
        if _held_bytes() + _freeze(*fields.values()) > _KEPT_BYTES:
            return _row(fields, 0)
        _REBUILT[key] = fields
    return _row(_REBUILT[key], 0)


def _kept_stacks(cfg: TestConfig, plans: list[_Plan]) -> Iterator[_Stack]:
    """_suite_stacks(cfg.seed, plans) as _Stacks, each derived where it is built, kept for later calls.

    Every property of a plan derives each stack when it is built, and the
    margins read that derived data alone; a stack keeps no payload fields,
    and every witness reads its trial's through _trial_fields.  Trials never
    depend on f, so every function measured under one cfg reuses the stacks
    of the first; a call under another cfg drops all that is kept.  A plan
    set is kept only when its iteration completes and all that is kept
    stays within _KEPT_BYTES, and its stacks are then merged into as few as
    their margins' working memory allows (_coalesced).  The kept arrays are
    read-only.  Grid plans depend on f and are not kept.
    """
    fresh = (
        _Stack(plan, start, idx, plan.props[0].dim(P), {p.kind: p.derive(P) for p in plan.props})
        for plan, start, idx, P in _suite_stacks(cfg.seed, plans)
    )
    if not all(p.stream for p in plans):
        yield from fresh
        return
    if next(itertools.chain(_KEPT, _REBUILT), (cfg,))[0] != cfg:  # every key holds the one kept cfg
        _KEPT.clear()
        _REBUILT.clear()
    key = (cfg, tuple((p.stream, p.count) for p in plans))
    if key in _KEPT:
        yield from _KEPT[key]
        return
    room = _KEPT_BYTES - _held_bytes()
    kept: Optional[list] = []  # None: not kept
    for stack in fresh:
        room -= _freeze(*stack.arrays())
        yield stack
        if room < 0:
            kept = None  # released now, not at the end of the plan set
        elif kept is not None:
            kept.append(stack)
    if kept is not None:
        _KEPT[key] = _coalesced(kept)


def _coalesced(kept: list[_Stack]) -> list[_Stack]:
    """A plan set's kept stacks, merged into the fewest that their margins' working memory allows.

    The stacks of one stream whose dimension and derived arrays' trailing
    shapes agree are merged, in turn, while the merged stack's working_set
    stays within _CHUNK_BYTES.  A built stack is never split.  A merged
    stack holds its trials in trial order, in read-only arrays.  A trial's
    margin does not depend on the stack it is measured in.
    """
    groups: dict[tuple, list[_Stack]] = {}
    for stack in kept:
        shapes = [(kind, name, a.shape[1:]) for kind, D in stack.derived.items() for name, a in D.items()]
        groups.setdefault((stack.plan.stream, stack.dim, tuple(shapes)), []).append(stack)
    merged = []
    for parts in groups.values():
        runs, used = [[]], 0
        for stack in parts:
            cost = stack.working_set()
            if runs[-1] and used + cost > _CHUNK_BYTES:
                runs.append([])
                used = 0
            runs[-1].append(stack)
            used += cost
        merged += map(_merged, runs)
    return merged


def _merged(parts: list[_Stack]) -> _Stack:
    """The stacks ``parts`` of one plan as one stack, in trial order, in read-only arrays."""
    idx = np.concatenate([s.idx for s in parts])
    order = np.argsort(idx)
    derived = {
        kind: {name: np.concatenate([s.derived[kind][name] for s in parts])[order] for name in D}
        for kind, D in parts[0].derived.items()
    }
    stack = parts[0]._replace(idx=idx[order], derived=derived)
    _freeze(*stack.arrays())
    return stack


def _freeze(*arrays: np.ndarray) -> int:
    """Make the arrays read-only; returns their bytes."""
    for a in arrays:
        a.flags.writeable = False
    return sum(a.nbytes for a in arrays)


# --------------------------------------------------------------------------
# expectations for registry functions (drives INCONCLUSIVE and the search)

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
# sampling, aggregation and the search for expected failures

def _drive(
    name: str,
    f: ScalarFunction,
    cfg: TestConfig,
    plans: list[_Plan] | Callable[[], list[_Plan]],
    *,
    search: Optional[Callable[[], Optional[tuple]]] = None,
    recorder: Optional[list] = None,
) -> TestOutcome:
    """Run the trials of every plan, aggregate margins, search for expected failures.

    The scalar convexity precheck runs first.  Plans given as a function are
    built after it; if building them raises DegenerateFunctionError or
    DomainError, the property does not apply and the outcome is SKIPPED.

    ``search`` runs when the failure is expected, no sampled trial violates
    and some trial ran.  It returns None or a violating (witness, scale,
    dim, note), which counts as trial ``total``.
    """
    bad = _scalar_convexity_failure(name, f, cfg)
    if bad is not None:
        return bad
    if callable(plans):
        try:
            plans = plans()
        except (DegenerateFunctionError, DomainError) as exc:
            return TestOutcome(name, f.name, SKIPPED, None, 0, 0, None, str(exc))

    total = sum(plan.count for plan in plans)
    run, skipped = 0, sum(plan.excluded for plan in plans)
    prop_min: Optional[np.ndarray] = None
    rows: list = []
    # the first violation and the first skip go by trial index, whatever
    # order the stacks come in; the violation's payload is read once it is known
    hit: Optional[tuple] = None
    first_hit = first_skip = total
    skip_note = ""
    for stack in _kept_stacks(cfg, plans):
        plan, idx = stack.plan, stack.idx
        measured = [_measure(prop, f, idx.size, stack.derived[prop.kind]) for prop in plan.props]
        m = np.stack([r.margins for r in measured])
        # a trial's margin is the smallest of its properties' margins (the
        # first on ties); a trial that any property skips is skipped
        choice = np.argmin(np.where(np.isnan(m), np.inf, m), axis=0)
        margins = m[choice, np.arange(idx.size)]
        ok = ~np.isnan(m).any(axis=0)
        skips, done = np.flatnonzero(~ok), np.flatnonzero(ok)
        skipped += skips.size
        if skips.size and idx[skips].min() < first_skip:
            j = skips[np.argmin(idx[skips])]
            first_skip, skip_note = idx[j], next(r.notes[j] for r in measured if r.notes[j])
        if not done.size:
            continue
        run += done.size
        low = np.min(m[:, done], axis=1)
        prop_min = low if prop_min is None else np.minimum(prop_min, low)
        if recorder is not None:
            scales = np.stack([r.scales for r in measured])[choice, np.arange(idx.size)]
            rows += [(int(idx[j]), stack.dim, float(margins[j]), float(scales[j])) for j in done]
        hits = done[margins[done] < -cfg.tol]
        if hits.size and idx[hits].min() < first_hit:
            j = hits[np.argmin(idx[hits])]
            c = choice[j]
            first_hit, hit = idx[j], (plan.props[c], stack, measured[c], j)
    violation = None
    if hit is not None:
        prop, stack, res, j = hit
        violation = _witness(prop, _trial_fields(cfg, stack, j), res, j)
    if recorder is not None:
        recorder.extend((name, dim, i, margin, scale) for i, dim, margin, scale in sorted(rows))
    # a trial's margin is its smallest property margin
    min_margin = None if prop_min is None else float(prop_min.min())

    expected_fail = _expects_fail(f.name, name)
    detail = ""
    if prop_min is not None and len(plans[0].props) > 1:
        detail = "; ".join(
            f"min {p.label} margin {v:.3e}" for p, v in zip(plans[0].props, prop_min)
        )

    if violation is None and expected_fail and search is not None and run:
        found = search()
        if found is not None:
            violation, scale, dim, note = found
            run += 1
            min_margin = min(min_margin, violation["margin"])
            if recorder is not None:
                recorder.append((name, dim, total, violation["margin"], scale))
            detail = _join(detail, note)

    if violation is not None:
        return TestOutcome(name, f.name, FAIL, min_margin, run, skipped, violation, detail)
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


# The precheck of the last function checked, as [f, tol, its outcome or
# None].  Every suite of a run_suite call starts with the same precheck, so
# it is computed once per function and tol; f is matched by identity, since
# ScalarFunction equality ignores taylor.
_PRECHECKED: list = [None, None, None]


def _scalar_convexity_failure(
    name: str, f: ScalarFunction, cfg: TestConfig
) -> Optional[TestOutcome]:
    if _PRECHECKED[0] is not f or _PRECHECKED[1] != cfg.tol:
        _PRECHECKED[:] = f, cfg.tol, _scalar_precheck(f, cfg.tol)
    bad = _PRECHECKED[2]
    return None if bad is None else replace(bad, name=name)


def _scalar_precheck(f: ScalarFunction, tol: float) -> Optional[TestOutcome]:
    """The outcome of the scalar convexity precheck when it decides one (under an empty name)."""
    d2, usable = _grid_values(f.d2, _SCALAR_GRID)
    if not usable.any():
        return TestOutcome(
            "", f.name, SKIPPED, None, 0, len(_SCALAR_GRID), None,
            "function undefined on the scalar test grid",
        )
    concave = np.where(usable & (d2 < -1e-10), d2, np.inf)
    w = int(np.argmin(concave))
    if not np.isfinite(concave[w]):
        return None
    worst_t, worst_d2 = float(_SCALAR_GRID[w]), float(d2[w])
    etas = np.array([0.99, 0.75, 0.5, 0.25, 0.1, 0.02])
    P = {"t": worst_t * (1.0 - etas), "s": worst_t * (1.0 + etas)}
    res = _measure(_SCALAR_CONVEXITY, f, etas.size, _SCALAR_CONVEXITY.derive(P))
    m = np.where(np.isnan(res.margins), np.inf, res.margins)
    b = int(np.argmin(m))
    if m[b] < -tol:
        return TestOutcome(
            "", f.name, FAIL, float(m[b]), 1, 0, _witness(_SCALAR_CONVEXITY, _row(P, b), res, b),
            f"scalar convexity fails near t={worst_t:.6g} (f''={worst_d2:.3e})",
        )
    return None  # negativity too shallow to certify scalar-side; sample anyway


# --------------------------------------------------------------------------
# suite: concavity of rho -> -Tr f(rho)

def test_principle1_concavity(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    plans = [
        _Plan(f"principle1/dim{dim}", cfg.samples, (_PRINCIPLE1,), {
            None: (_pd_col("x", dim, cfg.eig_range), _pd_col("y", dim, cfg.eig_range)),
        })
        for dim in cfg.dims
    ]

    return _drive("principle1", f, cfg, plans, recorder=recorder)


# --------------------------------------------------------------------------
# suite: convexity of rho -> Tr f(rho) - Tr f(partial trace of rho)

def test_entropic(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    r = cfg.eig_range
    plans = []
    for d1, d2 in cfg.bipartite:
        n, dims = d1 * d2, (_fixed_col("dim1", d1), _fixed_col("dim2", d2))
        plans.append(_Plan(f"entropic/{d1}x{d2}", cfg.samples, (_ENTROPIC,), {
            False: (*dims, _pd_col("x", n, r), _pd_col("y", n, r)),
            # classical corner: diagonal states exercise the commuting case
            True: (*dims, _diag_col("x", n, r), _diag_col("y", n, r)),
        }, lambda idx, rng: idx % 4 == 3))

    return _drive("entropic", f, cfg, plans, recorder=recorder)


# --------------------------------------------------------------------------
# suite: convexity of G(rho_1..rho_k), sampled two ways per trial

def _derived_hessian_witness(f: ScalarFunction, cfg: TestConfig, k: int) -> Optional[tuple]:
    """Turn a superoperator-inequality violation into a negative Hessian.

    If d = df'(rho+sigma)^-1 - df'(rho)^-1 - df'(sigma)^-1 has a negative
    direction w, then the directions h1 = df'(rho)^-1 w, h2 = df'(sigma)^-1 w
    make the order-two Hessian of G negative (Cauchy-Schwarz in the inner
    product weighted by df'(rho+sigma)).  Orders k > 2 are reached by padding
    with small multiples of the identity and zero directions.  Returns the
    (witness, scale, dim, note) of the first violating padding, or None.
    """
    fp = f.derivative()
    note = (
        "violation constructed from a negative direction of the "
        "inverse-differential superoperator inequality"
    )
    for dim in cfg.dims:
        cols = (_pd_col("rho", dim, cfg.eig_range), _pd_col("sigma", dim, cfg.eig_range))
        plan = _Plan(f"subentropic-escalation/k{k}/dim{dim}", 12, (_CONDITION13,), {None: cols})
        # one index class: the stacks hold the rows in trial order, each a
        # condition13 payload derived with its stack.  The plan set is read
        # to its end first, so it is kept whatever the search finds.
        rows = [(stack, j) for stack in _kept_stacks(cfg, [plan]) for j in range(stack.idx.size)]
        for stack, j in rows:
            D = _trial(stack.derived["condition13"], j)
            try:
                (kernel,) = _kernels(fp, D, "states")
                # the inverse differentials at rho and sigma, and d
                r, s, d = _inverse_differentials(fp, kernel, D["states.eigenvectors"])
            except (NotInvertibleError, DomainError):
                return None
            eigs, h1s, h2s, quad, usable = _negative_pairs(d[0], r[0], s[0])
            if float(eigs[0]) >= 0.0 or not usable.any():
                continue
            best = int(np.argmin(np.where(usable, quad, np.inf)))
            h1, h2 = h1s[best], h2s[best]
            fields = _trial_fields(cfg, stack, j)
            rho, sigma = fields["rho"], fields["sigma"]
            base_scale = float(np.trace(rho + sigma).real) / (2 * dim)
            zero = np.zeros((dim, dim), dtype=complex)
            pads = [eps * base_scale * np.eye(dim, dtype=complex) for eps in (1e-2, 1e-3, 1e-4)]
            P = {  # one trial per padding
                "rhos": np.stack([np.stack([rho, sigma] + [pad] * (k - 2)) for pad in pads]),
                "hs": np.stack([np.stack([h1, h2] + [zero] * (k - 2))] * len(pads)),
            }
            res = _measure(_SUB_HESSIAN, f, len(pads), _SUB_HESSIAN.derive(P))
            hits = np.flatnonzero(res.margins < -cfg.tol)
            if hits.size:
                j = hits[0]
                return _witness(_SUB_HESSIAN, _row(P, j), res, j), float(res.scales[j]), dim, note
    return None


def test_subentropic_order_k(
    f: ScalarFunction, k: int, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    if k < 2:
        raise ValueError("subentropic order must be >= 2")
    name = f"subentropic:k={k}"

    plans = []
    for dim in cfg.dims:
        pds = tuple(_pd_col(field, dim, cfg.eig_range, k) for field in ("xs", "ys", "rhos"))
        props = (_SUB_MIDPOINT, _SUB_HESSIAN)
        plans.append(_Plan(f"subentropic-k{k}/dim{dim}", cfg.samples, props, {
            False: (*pds, _herm_col(("hs",), dim, k)),
            # scalar directions catch violations along the identity
            True: (*pds, _identity_col(("hs",), ("standard_normal",) * k, lambda c: (c,), dim, k)),
        }, lambda idx, rng: idx % 4 == 3))

    search = functools.partial(_derived_hessian_witness, f, cfg, k)
    return _drive(name, f, cfg, plans, search=search, recorder=recorder)


# --------------------------------------------------------------------------
# suite: superoperator inequality df'(rho+sigma)^-1 >= df'(rho)^-1 + df'(sigma)^-1

def test_condition13(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    lo, hi = cfg.eig_range
    # every tenth trial stretches the spectrum: margins are often tightest
    # when the base points are badly conditioned
    ranges = {False: cfg.eig_range, True: (min(lo, 1e-3), max(hi, 1e3))}
    plans = [
        _Plan(f"condition13/dim{dim}", cfg.samples, (_CONDITION13,), {
            key: (_pd_col("rho", dim, r), _pd_col("sigma", dim, r)) for key, r in ranges.items()
        }, lambda idx, rng: idx % 10 == 9)
        for dim in cfg.dims
    ]

    return _drive("condition13", f, cfg, plans, recorder=recorder)


# --------------------------------------------------------------------------
# suite: per-instance agreement of the superoperator verdict with Hessian sampling

def test_equivalence_13_vs_hessian(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    plans = [
        _Plan(f"equivalence/dim{dim}", cfg.samples, (_EQUIVALENCE,), {None: (
            _pd_col("rho", dim, cfg.eig_range),
            _pd_col("sigma", dim, cfg.eig_range),
            _herm_col(("h1", "h2"), dim, _EQUIVALENCE_DIRECTIONS),
            _fixed_col("band", 10.0 * cfg.tol),
        )})
        for dim in cfg.dims
    ]

    return _drive("equivalence", f, cfg, plans, recorder=recorder)


# --------------------------------------------------------------------------
# suite: joint convexity of (rho, h) -> Tr h df'(rho) h

def test_matrix_entropy(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    log_lo, log_hi = np.log(cfg.eig_range[0]), np.log(cfg.eig_range[1])

    def scalar_pairs(v):
        # scalar pairs (tI, sI): the two-variable function s^2 f''(t) already
        # separates several candidates.  Local directed pairs around a random
        # center expose indefiniteness of its Hessian.
        t0 = np.exp(uniform_from_draw(v[:, 0], log_lo, log_hi))
        s0 = t0 * v[:, 1]
        dt = uniform_from_draw(v[:, 2], -0.45, 0.45) * t0
        ds = uniform_from_draw(v[:, 3], -0.45, 0.45) * (np.abs(s0) + t0)
        return t0 - dt, s0 - ds, t0 + dt, s0 + ds

    scalars = ("random", "standard_normal", "random", "random")
    plans = [
        _Plan(f"matrix-entropy/dim{dim}", cfg.samples, (_MATRIX_ENTROPY,), {
            False: (
                _pd_col("x1", dim, cfg.eig_range), _pd_col("x2", dim, cfg.eig_range),
                _herm_col(("h1", "h2"), dim),
            ),
            True: (_identity_col(
                ("x1", "h1", "x2", "h2"), scalars, scalar_pairs, dim, states=("x1", "x2")
            ),),
        }, lambda idx, rng: idx % 4 == 3)
        for dim in cfg.dims
    ]

    return _drive("matrix-entropy", f, cfg, plans, recorder=recorder)


# --------------------------------------------------------------------------
# suite: convexity of rho -> S_f(channel(rho)) - S_f(rho)

def test_entropy_gain_convexity(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    r = cfg.eig_range
    classes = {}
    for b, (d1, d2) in enumerate(cfg.bipartite):
        # partial-trace channels embed the bipartite test
        kraus, n = _fixed_col("channel", _partial_trace_kraus(d1, d2)), d1 * d2
        classes[b, False] = (kraus, _pd_col("x", n, r), _pd_col("y", n, r))
        classes[b, True] = (kraus, _diag_col("x", n, r), _diag_col("y", n, r))
    for n, out_d, rank in itertools.product(range(2, 5), range(2, 5), range(2, _MAX_KRAUS + 1)):
        channel = _channel_col("channel", n, out_d, rank)
        classes[n, out_d, rank] = (channel, _pd_col("x", n, r), _pd_col("y", n, r))

    def classify(idx, rng):
        if idx % 3 == 2:
            return (idx // 3) % len(cfg.bipartite), idx % 6 == 5
        # a random channel draws its input, output and Kraus dimensions first
        return int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, _MAX_KRAUS + 1))

    plans = [_Plan("gain", cfg.samples * len(cfg.dims), (_GAIN,), classes, classify)]
    return _drive("gain", f, cfg, plans, recorder=recorder)


# --------------------------------------------------------------------------
# scalar suites for the gap function g = 1/f''

def _defined_gap_grid(f: ScalarFunction) -> tuple[np.ndarray, int]:
    """The grid points where g = 1/f'' is defined, and how many it is undefined at."""
    try:
        _gap_series(f, _GAP_GRID)
        return _GAP_GRID, 0
    except DomainError:  # mark exactly the offending points
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

#: suite tokens accepted by run_suite / the CLI, in report order
SUITE_TOKENS = ("all", *dict.fromkeys(row.token for row in _SUITES), "uniqueness")


# --------------------------------------------------------------------------
# the uniqueness pipeline

_FIT_GRID = np.logspace(-2.0, 2.0, 100)
_FIT_RESIDUAL_TOL = 1e-6
_FIT_SLOPE_TOL = 1e-6


def _gap_fit(f: ScalarFunction) -> tuple[dict, np.ndarray]:
    """Least-squares fit of g(t) = 1/f'' against b*t on a fixed log grid, and g on that grid.

    One evaluation of f serves the grid and the normalisation at t = 1.
    """
    ts = _FIT_GRID
    at_grid, at_one = _gap_series(f, ts, np.array(1.0))
    gv = 1.0 / at_grid.derivative(2)
    b = float(gv @ ts / (ts @ ts))
    norm = float(np.linalg.norm(gv))
    resid = float(np.linalg.norm(gv - b * ts)) / max(norm, 1e-300)
    value, slope, curv = at_one.derivatives(2)
    fit = {
        "slope": b,
        "relative_residual": resid,
        "normalization": {"f(1)": value, "df(1)": slope, "d2f(1)": curv},
        "slope_minus_inverse_curvature": b - 1.0 / curv,
        "grid": [float(ts[0]), float(ts[-1]), len(ts)],
    }
    return fit, gv


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

    fit = _gap_fit(f)[0]
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
        res = _measure(_UNIQUENESS_FIT, f, 1, _UNIQUENESS_FIT.derive({}))
        final = TestOutcome(
            "uniqueness", f.name, FAIL, -float(fit["relative_residual"]),
            len(_FIT_GRID), 0, _witness(_UNIQUENESS_FIT, {}, res, 0),
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
    prop = _PROPERTIES.get(kind) if isinstance(kind, str) else None
    if prop is None:
        raise ValueError(f"unknown counterexample kind {kind!r}")
    P = prop.decode(payload)
    return float(_margin(prop, f, prop.derive(P))[0][0])


# The suite entry points are library API, not pytest cases; keep pytest from
# collecting them out of modules that import them by name.
for _obj in (TestConfig, TestOutcome, *(globals()[row.entry] for row in _SUITES)):
    _obj.__test__ = False
del _obj
