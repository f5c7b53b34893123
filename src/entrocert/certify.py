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
the matrices of a whole stack of trials, the points of what the derive made
at which it ``reads`` f, and a ``margin`` of the derived data and the values
read there, never of the payloads.  Every evaluation of f is a reading
(_readings), the grid scans', the fit's and the search's too, and a grid
point where f'' or g is undefined or not finite is a skipped trial.  Every stack is a
_Stack of trial indices and derived data, derived where it is built, once
however many functions measure it; no stack holds payload fields.  Every
witness is its trial's fields, read through _trial_fields: a grid plan's
row, or the sampled trial drawn and built alone from (seed, stream, index).
reverify_counterexample measures a payload as a stack of one.  A trial whose
margin is not finite is skipped, and every FAIL payload is written by the
record that re-verifies it (_witness).

Every suite is a list of trial plans, and one aggregator (_drive) measures
the suites of a run in one pass: their lists of stacks join batches under
_CHUNK_BYTES, each batch is measured with one evaluation of f per reading
kind (_measure), and each suite folds its own margins into its outcome
(_Tally).  A FAIL's witness
is the violating sampled trial with the smallest margin, the lowest index
on ties, or, when an expected failure is not sampled, subentropic's search
hook constructs one from the superoperator inequality, counted as one
extra trial; it draws its base pairs as a plan of its own, through the
same columns as sampling.  Condition (13) is tested in one arithmetic: a
real symmetric matrix in a basis of Hermitian matrices, whose lowest
eigenvector _transfer carries to a direction pair in real arithmetic (only
the search turns it into matrices).  A sampled trial draws its randomness
from an independent stream keyed by (seed, stream name, trial index): NumPy's
``default_rng(SeedSequence([seed, token, index]))``, bit for bit, with the
seed states computed in fixed blocks of trials.  Plans are columns: each
declares, per index class, its fields with their kind and per-trial shape,
and each trial writes the Generator's raw output straight into its row of
the class's column buffers.  The gap suites' plans are fixed grids whose
columns are given.  Trials run in chunks under a fixed memory ceiling.  The
PD matrices of a chunk are built in one call per dimension and eigenvalue
range, across fields and index classes; the other matrices and the
channels are built once per column; the linear algebra runs on stacks of
trials.  The witness is chosen by margin and trial index, the recorded
rows and the first skip by trial index, so outcomes do not depend on how
trials are batched.  Growing the sample budget re-runs the same leading
trials, so a FAIL can never flip back to PASS; its witness can only get
stronger.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
from collections.abc import Callable, Hashable, Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .frechet import (
    NotInvertibleError,
    _basis_pairs,
    _flat_with_sums,
    _hermitian_of,
    _inverse_kernel,
    _layout,
    _loewner,
    _real_conjugation,
    _split_sums,
    _weighted,
    _weights,
)
from .functions import (
    DegenerateFunctionError,
    ScalarFunction,
    _gap_series,
    _jointly,
)
from .hermitian import (
    PsdMargin,
    SpectralDecomposition,
    _json_integer,
    _json_number,
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
from .jets import DomainError, Jet
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
# dims (2, 3) keep about 2.44 MB.
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
_MAT, _MATS, _INT, _FLOAT, _CHANNEL = "mat", "mats", "int", "float", "channel"

_ENCODE = {
    _MAT: matrix_to_json,
    _MATS: lambda ms: [matrix_to_json(m) for m in ms],
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
    _INT: lambda v: np.asarray(_json_integer(v)),
    _FLOAT: lambda v: np.asarray(_json_number(v)),
    _CHANNEL: lambda obj: np.stack(channel_from_json(obj).kraus),
}


class _Reading(NamedTuple):
    """Where a margin reads f: ``points(D)`` lists the f-independent inputs of a stack's
    derived data, and ``values(f, inputs)`` returns one value per input, from one evaluation.

    ``values`` names the reading's kind: the readings of one kind share one
    function, so a batch joins the points of all its stacks that read it.
    """

    values: Callable[[ScalarFunction, list], list]
    points: Callable[[dict], list]


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
    U, of its drawn directions h, one triangle each (frechet._weights), in
    place of the eigenvectors wherever only a pairing reads them.  A scalar
    property's derived data are its payload fields.  ``margin(f, D,
    values)`` takes that derived data ``D`` and the values of f its reading
    ``reads`` evaluated at the points of ``D``, never the payload, and
    returns ``(margins, scales)``, or ``(margins, scales, extras)`` where
    ``extras`` holds per-trial values that the witness records next to the
    trial's fields: a witness is its trial.  Every property names its
    reading, and no margin evaluates f.
    ``outside(f, D)`` returns the trials f cannot be measured at, and the
    error that skips them.  _measure evaluates f once for all the stacks it
    is given.
    """

    kind: str
    fields: tuple[tuple[str, str], ...]
    margin: Callable
    reads: _Reading
    derive: Callable[[dict], dict] = lambda P: P  # scalar properties measure their fields
    outside: Optional[Callable] = None
    extras: tuple[str, ...] = ()
    label: str = ""  # names the margin in a detail line when a trial has several
    superops: int = 0  # n^2 x n^2 matrices a trial holds at once, for chunk sizes
    # bytes of the margin's other temporaries per byte of its stack's arrays
    # (_Stack.working_set), traced on kept stacks; 3 covers the subentropic
    # and matrix-entropy margins, which read at most 2.5
    temporaries: float = 3.0

    def witness(self, payload: dict, margin: float) -> dict:
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
            value = obj[name]
            try:
                P[name] = _DECODE[codec](value)[None]
            except (TypeError, ValueError, OverflowError) as exc:  # a JSON value of the wrong type or value
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
# ..., and the pairing weights ``name.weights``, one triangle per direction,
# that its quadratic forms Re Tr h df'(rho)[h] read instead of the
# eigenvectors.

def _trace_spectra(name: str, lam: np.ndarray) -> dict:
    """Checked spectra (trial-first) under ``name``, with their zero-clamp masks."""
    return {name: lam, f"{name}.clamp": _zero_clamp(lam)}


def _trace_values(f: ScalarFunction, inputs: list) -> list[np.ndarray]:
    """Tr f over each (spectra, clamp masks) input."""
    return [np.sum(v, axis=-1) for v in _spectra_values(f, *zip(*inputs))]


def _traces(*names: str) -> _Reading:
    """Tr f over the kept spectra of each name, member-first ((k, trials) for (trials, k, n))."""
    return _Reading(
        _trace_values,
        lambda D: [(_trial_first(D[name]), _trial_first(D[f"{name}.clamp"])) for name in names],
    )


def _kept_layout(name: str, lam: np.ndarray) -> dict:
    """The divided-difference layout of the checked spectra ``lam`` under ``name``."""
    return {f"{name}.{key}": a for key, a in _layout(lam).items()}


def _kernel_values(f: ScalarFunction, layouts: list[dict]) -> list[np.ndarray]:
    """The Loewner matrices of f' over each layout."""
    return _loewner(f.derivative(), layouts)


def _kernels(*names: str) -> _Reading:
    """The Loewner matrices of f' over the kept layout of each name."""
    return _Reading(_kernel_values, lambda D: [
        {key[len(name) + 1 :]: a for key, a in D.items() if key.startswith(name + ".")}
        for name in names
    ])


def _pair_spectra(P: dict) -> dict:
    """The checked spectra of the (x, y, midpoint) of each trial, as ``spectra``."""
    mats = _with_midpoint(P["x"], P["y"])
    return _trace_spectra("spectra", _trial_first(eigh(mats, _known(P, "x", "y")).eigenvalues))


def _entropic_derive(P):
    reduced = partial_trace_1(_with_midpoint(P["x"], P["y"]), int(P["dim1"][0]), int(P["dim2"][0]))
    reduced = _trial_first(eigh(reduced).eigenvalues)
    return {**_pair_spectra(P), **_trace_spectra("reduced", reduced)}


def _difference_margin(f, D, values):
    # midpoint convexity of Tr f(rho) - Tr f(Phi(rho)): entropic's Phi is a
    # partial trace, gain's a channel (S_f(Phi(rho)) - S_f(rho) is convex)
    whole, reduced = values
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


def _subentropic_midpoint_margin(f, D, values):
    # G(rho_1..rho_k) = sum_i Tr f(rho_i) - Tr f(sum_i rho_i) at xs, ys and their midpoint
    single, joint = values
    return _convexity(*(np.sum(single, axis=-1) - joint))


def _subentropic_hessian_derive(P):
    rhos, hs = P["rhos"], P["hs"]
    dec = eigh(_flat_with_sums(rhos), _known(P, "rhos"))
    (w, sum_w), (v, sum_v) = (
        _split_sums(a, rhos.shape[:-2]) for a in (dec.eigenvalues, dec.eigenvectors)
    )
    return {  # one direction per point
        **_kept_layout("rhos", w), "rhos.weights": _weights(v, hs[:, :, None])[:, :, 0],
        **_kept_layout("sums", sum_w), "sums.weights": _weights(sum_v, np.sum(hs, 1)[:, None])[:, 0],
    }


def _subentropic_hessian_margin(f, D, values):
    at_rhos, at_sums = values
    return _hessian(_weighted(at_rhos, D["rhos.weights"]), _weighted(at_sums, D["sums.weights"]))


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


def _condition13_form(inverse: np.ndarray, rotations: np.ndarray) -> tuple:
    """Condition (13)'s d as a real symmetric n^2 x n^2 matrix, with the eigenvalues of d.

    ``inverse`` holds the reciprocal Loewner matrices of (rho, sigma, rho +
    sigma), (trials, 3, n, n), and ``rotations`` the ``states.rotations`` of
    _pair_sum_derive.  In the Hermitian basis of frechet._basis_pairs and the
    eigenbasis of rho + sigma, d = diag(k_t) - O_r diag(k_r) O_r^T - O_s
    diag(k_s) O_s^T: each k is its reciprocal kernel read at the basis pairs,
    and each O the real orthogonal matrix of X -> R X R*.  The two rotated
    terms are one product of [O_r O_s], symmetric up to rounding (eigvalsh
    reads the lower triangle).  Returns d, [O_r O_s], (trials, n^2, 2 n^2),
    and the k, (trials, 3, n^2), that _transfer reads too.
    """
    n = inverse.shape[-1]
    rows, cols = _basis_pairs(n)
    k = inverse[..., rows, cols]  # (trials, 3, n^2)
    o = _real_conjugation(rotations)
    side = np.concatenate([o[:, 0], o[:, 1]], axis=-1)  # [O_r O_s], (trials, n^2, 2 n^2)
    d = -(side * k[:, None, :2].reshape(-1, 1, 2 * n * n)) @ np.swapaxes(side, -1, -2)
    diagonal = np.arange(n * n)
    d[:, diagonal, diagonal] += k[:, 2]
    return d, side, k


def _condition13_spectrum(fp: ScalarFunction, kernel: np.ndarray, D: dict) -> tuple[PsdMargin, tuple]:
    """Condition (13)'s PSD margin from fp's Loewner matrices at the ``states`` of _pair_sum_derive.

    The margin is that of d = df'(rho+sigma)^-1 - df'(rho)^-1 - df'(sigma)^-1,
    with fp = f', taken from its real form (_condition13_form) by one real
    eigvalsh.  Both superoperator margins read it.  Returns the margin and
    the form.
    """
    form = _condition13_form(_inverse_kernel(fp, kernel), D["states.rotations"])
    return PsdMargin.of_spectrum(np.linalg.eigvalsh(form[0])), form


def _condition13_margin(f, D, values):
    pm, _ = _condition13_spectrum(f.derivative(), values[0], D)
    return pm.normalized, pm.scale


def _hessian(single, joint):
    """The normalised order-k Hessian margin of G and its scale, from its quadratic forms.

    ``single`` (..., k) holds Tr h_i df'(rho_i)[h_i] per point, ``joint`` (...) the sums' form.
    """
    scale = np.maximum(1.0, np.sum(np.abs(single), axis=-1) + np.abs(joint))
    return (np.sum(single, axis=-1) - joint) / scale, scale


def _transfer(form: tuple) -> tuple:
    """Condition (13)'s most negative direction as a direction pair, for each trial (stacks allowed).

    ``form`` is what _condition13_form returns.  The lowest eigenvector v of
    d is a unit real vector: the coordinates of a Hermitian direction C in
    the eigenbasis U of rho + sigma.  The pair h1 = df'(rho)^-1 C, h2 =
    df'(sigma)^-1 C makes the order-two Hessian of G negative wherever
    <C, d C> < 0 (Cauchy-Schwarz in the inner product weighted by
    df'(rho+sigma)).  In real arithmetic alone: a = O^T v and g = k o a at
    rho and at sigma, their forms Tr h df'(.)[h] = sum a g, the pair's
    coordinates h' = O g, and the joint form sum (h1' + h2')^2 / k_t.
    Returns d's lowest eigenvalue, the pair's Hessian margin (_hessian) and
    h', (2, trials, n^2), whose matrices are U T(h') U* (_hermitian_of).  v
    is fixed up to its sign, and every form is quadratic in it.
    """
    d, side, k = form
    trials, n2 = k.shape[0], k.shape[-1]
    eigs, vecs = np.linalg.eigh(d)
    a = (vecs[:, None, :, 0] @ side)[:, 0]  # (trials, 2 n^2)
    g = k[:, :2].reshape(trials, 2 * n2) * a
    q = np.sum((a * g).reshape(trials, 2, n2), axis=-1)
    o = np.swapaxes(side.reshape(trials, n2, 2, n2), 1, 2)  # (trials, 2, n^2, n^2): O_r, O_s
    h = _trial_first((o @ g.reshape(trials, 2, n2, 1))[..., 0])  # (2, trials, n^2)
    joint = np.sum((h[0] + h[1]) ** 2 / k[:, 2], axis=-1)
    return eigs[:, 0], _hessian(q, joint)[0], h


def _equivalence_derive(P):
    D = _pair_sum_derive(P)  # its eigenvectors are read by the weights alone, and not kept
    u, h1, h2 = D.pop("states.eigenvectors"), P["h1"], P["h2"]
    # the drawn pairs' forms: h1 at rho, h2 at sigma and h1 + h2 at rho + sigma
    forms = [_weights(u[:, j], h) for j, h in enumerate((h1, h2, h1 + h2))]
    return {**D, "states.weights": np.stack(forms, axis=1), "band": P["band"]}


def _equivalence_margin(f, D, values):
    """Per-instance agreement of the condition13 verdict with the Hessian verdict.

    The condition13 margin is condition13's own (_condition13_spectrum).
    The Hessian margin is the worst over the drawn direction pairs and, on a
    trial whose condition13 margin lies below -band, the pair that condition
    (13)'s lowest eigenvector transfers to (_transfer, in real arithmetic),
    from the real form the margin was read from.  Both margins must clear
    ``band`` before a sign disagreement counts, so the transfer is needed
    nowhere else: above band, d is positive definite and the transferred
    form is not negative, and within band of zero the trial cannot
    disagree, whatever its Hessian margin.  The extras are the two margins;
    the witness is the trial, which re-verifies through this margin.
    """
    (kernel,) = values
    # Tr h df'(rho)[h] is the Loewner matrix's triangle at rho contracted with
    # h's weights; formed first, so their temporaries and condition (13)'s
    # form never coexist
    q = _weighted(kernel[:, :, None], D["states.weights"])  # (trials, 3, pairs)
    mh = np.min(_hessian(np.moveaxis(q[:, :2], 1, -1), q[:, 2])[0], axis=1)
    pm, form = _condition13_spectrum(f.derivative(), kernel, D)
    m13 = pm.normalized
    neg = np.flatnonzero(m13 < -D["band"])
    if neg.size:  # the transferred pair's Hessian margin
        mh[neg] = np.minimum(mh[neg], _transfer([a[neg] for a in form])[1])

    solid = (np.abs(m13) > D["band"]) & (np.abs(mh) > D["band"])
    disagree = solid & ((m13 < 0.0) != (mh < 0.0))
    margin = np.minimum(np.abs(m13), np.abs(mh)) * np.where(disagree, -1.0, 1.0)
    return margin, np.maximum(np.abs(m13), np.abs(mh)), {"margin13": m13, "margin_hessian": mh}


def _matrix_entropy_derive(P):
    h1, h2 = P["h1"], P["h2"]
    dec = eigh(_with_midpoint(P["x1"], P["x2"]), _known(P, "x1", "x2"))
    weights = _weights(dec.eigenvectors, np.stack([h1, h2, (h1 + h2) / 2.0])[:, :, None])[:, :, 0]
    return {
        **_kept_layout("states", _trial_first(dec.eigenvalues)),
        "states.weights": _trial_first(weights),
    }


def _matrix_entropy_margin(f, D, values):
    # Q(rho, h) = Tr h df'(rho) h, the quadratic form behind matrix entropies
    return _convexity(*_trial_first(_weighted(values[0], D["states.weights"])))


def _gain_derive(P):
    outputs = hermitize(apply_kraus(P["channel"], _with_midpoint(P["x"], P["y"])))
    outputs = _trial_first(eigh(outputs).eigenvalues)
    return {**_pair_spectra(P), **_trace_spectra("outputs", outputs)}


def _gain_outside(f, D):
    # functions unbounded at 0 need full-rank channel outputs
    singular = np.min(D["outputs"][..., 0], axis=-1) < _RANK_FLOOR
    return singular & (f.zero_extension is None), DomainError(f"channel output too singular for {f.name}")


def _gap_values(f: ScalarFunction, parts: list) -> list[np.ndarray]:
    """g = 1/f'' at each array of points."""
    return [1.0 / series.derivative(2) for series in _gap_series(f, *parts)]


def _gaps(points: Callable) -> _Reading:
    """g = 1/f'' at the scalar points ``points(t, s)`` of each stack, from one evaluation of f."""
    return _Reading(_gap_values, lambda D: points(D["t"], D.get("s")))


def _midpoints(t, s):
    return [t, s, (t + s) / 2.0]


def _gap_margin(defect: Callable) -> Callable:
    """The margin defect(g(t), g(s), ...) / max(1, |g(t)| + |g(s)|) of a pair's gap values."""

    def margin(f, D, values):
        scale = np.maximum(1.0, np.abs(values[0]) + np.abs(values[1]))
        return defect(*values) / scale, scale

    return margin


def _gap_zero_margin(f, D, values):
    # g must vanish at 0+ (f'' must blow up)
    margin = _GAP_ZERO_CEILING - values[0]
    return margin, np.ones_like(margin)


def _uniqueness_fit_margin(f, D, values):
    # a fit has no trial fields: its witness records the worst-fitting grid point
    (fit, gv), ts = _gap_fit(*values), _FIT_GRID
    t = ts[np.argmax(np.abs(gv - fit["slope"] * ts))]
    extras = {"t": [t], "slope": [fit["slope"]], "relative_residual": [fit["relative_residual"]]}
    return np.array([-fit["relative_residual"]]), np.ones(1), extras


_PAIR = (("x", _MAT), ("y", _MAT))
# The temporaries of these trace margins read 3.8-4.7 times their stacks'
# arrays on stacks of 200-1000 trials at all@200 and at dim 8 (4.7-6.0 on
# gain's stacks of 21-111 trials).
# concavity of -Tr f equals midpoint convexity of Tr f
_PRINCIPLE1 = _Property(
    "principle1", _PAIR, lambda f, D, values: _convexity(*values[0]), _traces("spectra"),
    _pair_spectra, temporaries=5.0,
)
_ENTROPIC = _Property(
    "entropic", (("dim1", _INT), ("dim2", _INT), *_PAIR), _difference_margin,
    _traces("spectra", "reduced"), _entropic_derive, temporaries=5.0,
)
_SUB_MIDPOINT = _Property(
    "subentropic-midpoint", (("xs", _MATS), ("ys", _MATS)), _subentropic_midpoint_margin,
    _traces("spectra", "sums"), _subentropic_midpoint_derive, label="midpoint",
)
_SUB_HESSIAN = _Property(
    "subentropic-hessian", (("rhos", _MATS), ("hs", _MATS)), _subentropic_hessian_margin,
    _kernels("rhos", "sums"), _subentropic_hessian_derive, label="Hessian",
)
_CONDITION13 = _Property(
    "condition13", (("rho", _MAT), ("sigma", _MAT)), _condition13_margin, _kernels("states"),
    _pair_sum_derive,
    # its traced margin peak reads 7.1-8.4 of these per trial at dims 2-8;
    # 13 keeps the chunk and merge cuts it was sized for, and covers its
    # other temporaries
    superops=13,
    temporaries=0.0,
)
_EQUIVALENCE = _Property(
    "equivalence",
    (("rho", _MAT), ("sigma", _MAT), ("h1", _MATS), ("h2", _MATS), ("band", _FLOAT)),
    _equivalence_margin,
    _kernels("states"),
    _equivalence_derive,
    extras=("margin13", "margin_hessian"),
    # its traced margin peak reads 7.1-7.9 of these per trial at dims 3-8 and
    # 9.9 at dim 2, condition (13)'s form's (its drawn pairs' peak at 2.4),
    # whether a trial transfers or not; condition13's 13 covers it
    superops=13,
    temporaries=0.0,
)
_MATRIX_ENTROPY = _Property(
    "matrix-entropy", (("x1", _MAT), ("h1", _MAT), ("x2", _MAT), ("h2", _MAT)),
    _matrix_entropy_margin, _kernels("states"), _matrix_entropy_derive,
)
_GAIN = _Property(
    "gain", (("channel", _CHANNEL), *_PAIR), _difference_margin, _traces("spectra", "outputs"),
    _gain_derive, outside=_gain_outside, temporaries=5.0,
)
_SCALAR_PAIR = (("t", _FLOAT), ("s", _FLOAT))
_SCALAR_CONVEXITY = _Property(
    "scalar-convexity", _SCALAR_PAIR, lambda f, D, values: _convexity(*values),
    _Reading(_jointly, lambda D: _midpoints(D["t"], D["s"])),
)
_GAP_SUPERADDITIVE = _Property(
    "gap-superadditive", _SCALAR_PAIR, _gap_margin(lambda gt, gs, g_sum: g_sum - gt - gs),
    _gaps(lambda t, s: [t, s, t + s]),
)
_GAP_MONOTONE = _Property(
    "gap-monotone", _SCALAR_PAIR, _gap_margin(lambda gt, gs: gs - gt), _gaps(lambda t, s: [t, s])
)
_GAP_ZERO = _Property("gap-zero", (("t", _FLOAT),), _gap_zero_margin, _gaps(lambda t, s: [t]))
_GAP_CONCAVITY = _Property(
    "gap-concavity", _SCALAR_PAIR, _gap_margin(lambda gt, gs, g_mid: g_mid - (gt + gs) / 2.0),
    _gaps(_midpoints),
)
_UNIQUENESS_FIT = _Property(
    "uniqueness-fit", (), _uniqueness_fit_margin,
    _Reading(lambda f, parts: _gap_series(f, *parts), lambda D: [_FIT_GRID, np.array(1.0)]),
    extras=("t", "slope", "relative_residual"),
)

_PROPERTIES: dict[str, _Property] = {
    p.kind: p
    for p in (
        _PRINCIPLE1, _ENTROPIC, _SUB_MIDPOINT, _SUB_HESSIAN, _CONDITION13, _EQUIVALENCE,
        _MATRIX_ENTROPY, _GAIN, _SCALAR_CONVEXITY, _GAP_SUPERADDITIVE, _GAP_MONOTONE,
        _GAP_ZERO, _GAP_CONCAVITY, _UNIQUENESS_FIT,
    )
}


def _scan(kind: str, reads: _Reading) -> _Property:
    """A grid scan, which no payload names: its margin at a grid point is the value read there."""
    return _Property(kind, (("t", _FLOAT),), lambda f, D, values: (values[0], np.ones_like(values[0])), reads)


# f'' over the scalar grid for the precheck, g = 1/f'' over the gap grid for the gap suites' plans
_SCALAR_GRID_SCAN = _scan("scalar-grid", _Reading(lambda f, parts: _jointly(f.d2, parts), lambda D: [D["t"]]))
_GAP_GRID_SCAN = _scan("gap-grid", _gaps(lambda t, s: [t]))


# --------------------------------------------------------------------------
# measuring stacks of trials

# Failures that skip a trial rather than abort the suite.
_SKIPPABLE = (DomainError, NotInvertibleError)


class _Measured(NamedTuple):
    margins: np.ndarray  # NaN where the trial was skipped
    scales: np.ndarray
    extras: list  # (rows, the extra values by name of those rows)
    notes: list  # per trial: the skippable error that skipped it, or None

    def extra(self, j: int) -> dict:
        """The extra values of trial j by name."""
        return {k: np.asarray(v)[rows == j][0] for rows, ex in self.extras if j in rows for k, v in ex.items()}


def _trial(A: dict, i: int) -> dict:
    """Trial i of a stack's fields or derived data, as a stack of one."""
    return {k: v[i : i + 1] for k, v in A.items()}


def _row(P: dict, j: int) -> dict:
    """The fields of trial j of a stack."""
    return {k: v[j] for k, v in P.items()}


def _measure(f: ScalarFunction, jobs: list[tuple[_Property, int, dict]]) -> _Measured:
    """The margins of the trials of every job in turn: a property, a stack's trial count and its derived data.

    The jobs' properties read f alike (one ``reads.values``), and one
    evaluation of f serves every stack (_readings): those of a batch of
    _drive (kept plan sets, grid plans, a stack not kept as it is built), a
    grid scan, or a payload decoded from JSON as a stack of one.  The trials
    outside f's domain (_Property.outside) are skipped first and left out of it.
    """
    size = sum(n for _, n, _ in jobs)
    res = _Measured(np.full(size, np.nan), np.zeros(size), [], [None] * size)
    runs, start = [], 0
    for prop, n, D in jobs:
        rows, start = np.arange(start, start + n), start + n
        if prop.outside is not None and (skip := prop.outside(f, D))[0].any():
            for i in rows[skip[0]]:
                res.notes[i] = skip[1]
            D, rows = {k: v[~skip[0]] for k, v in D.items()}, rows[~skip[0]]
        if rows.size:
            runs.append((prop, rows, D))
    if runs:
        _measure_runs(f, runs, res)
    return res


def _readings(f: ScalarFunction, runs: list) -> list[list]:
    """The values of f that the margin of each (prop, rows, D) run reads, from one evaluation."""
    points = [prop.reads.points(D) for prop, _, D in runs]
    values = iter(runs[0][0].reads.values(f, [p for ps in points for p in ps]))
    return [[next(values) for _ in ps] for ps in points]


def _measure_runs(f: ScalarFunction, runs: list, res: _Measured) -> None:
    """Measure each (prop, rows, D) run into its rows of res.

    The only split of a failed evaluation of f: if it raises a skippable
    error, each run is measured alone, and a lone run trial by trial, so a
    skipped trial's note (a grid point's too) is the error of its own
    evaluation, as when it is re-verified.  The runs whose margins raise are
    measured trial by trial, from one evaluation.  A non-finite margin is a DomainError.
    """
    try:
        readings = _readings(f, runs)
    except _SKIPPABLE as exc:
        parts = [[run] for run in runs] if len(runs) > 1 else [[t] for t in _trials(runs[0], res, exc)]
        for part in parts:
            _measure_runs(f, part, res)
        return
    trials = []
    for run, values in zip(runs, readings):
        prop, rows, D = run
        try:
            m, s, *extras = prop.margin(f, D, values)
            if not np.isfinite(m).all():
                raise DomainError(f"non-finite {prop.kind} margin")
        except _SKIPPABLE as exc:
            trials += _trials(run, res, exc)
            continue
        res.margins[rows], res.scales[rows] = m, s
        res.extras.extend((rows, e) for e in extras)
    if trials:
        _measure_runs(f, trials, res)


def _trials(run: tuple, res: _Measured, exc: Exception) -> list:
    """The trials of a run that raised exc, as runs of one; a lone trial is skipped, exc its note."""
    prop, rows, D = run
    if rows.size == 1:
        res.notes[rows[0]] = exc
        return []
    return [(prop, rows[i : i + 1], _trial(D, i)) for i in range(rows.size)]


def _witness(prop: _Property, fields: dict, res: _Measured, j: int) -> dict:
    """The witness of trial j, whose payload ``fields`` prop measured as res (every FAIL payload)."""
    return prop.witness({**fields, **res.extra(j)}, res.margins[j])


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

        A margin holds its superoperators at once (_working_set), and other
        temporaries in proportion to the stack's arrays (_Property.temporaries).
        Its properties are measured one after another, so the largest of
        those counts.  A chunk's estimate, its fields eight times over,
        covers them already.
        """
        nbytes = sum(a.nbytes for a in self.arrays())
        nbytes *= 1.0 + max(p.temporaries for p in self.plan.props)
        return _working_set(self.plan, self.dim, self.idx.size, int(nbytes))


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


def _kept_stacks(cfg: TestConfig, plans: list[_Plan]) -> Iterator[list[_Stack]]:
    """_suite_stacks(cfg.seed, plans) as lists of _Stacks measured together, each derived where built.

    Every property of a plan derives each stack when it is built, and the
    margins read that derived data alone; a stack keeps no payload fields,
    and every witness reads its trial's through _trial_fields.  Trials never
    depend on f, so every function measured under one cfg reuses the stacks
    of the first; a call under another cfg drops all that is kept.  A plan
    set is kept only when its iteration completes and all that is kept
    stays within _KEPT_BYTES, and its stacks are then merged into as few as
    their margins' working memory allows (_coalesced).  The kept arrays are
    read-only.  Grid plans depend on f and are not kept.  A kept plan set
    comes as one list, the grid plans as another, and the stacks of a plan
    set being built one at a time, so peak memory stays under _CHUNK_BYTES.
    """
    fresh = (
        _Stack(plan, start, idx, plan.props[0].dim(P), {p.kind: p.derive(P) for p in plan.props})
        for plan, start, idx, P in _suite_stacks(cfg.seed, plans)
    )
    if not all(p.stream for p in plans):
        stacks = list(fresh)
        if stacks:
            yield stacks
        return
    if next(itertools.chain(_KEPT, _REBUILT), (cfg,))[0] != cfg:  # every key holds the one kept cfg
        _KEPT.clear()
        _REBUILT.clear()
    key = (cfg, tuple((p.stream, p.count) for p in plans))
    if key in _KEPT:
        yield _KEPT[key]
        return
    room = _KEPT_BYTES - _held_bytes()
    kept: Optional[list] = []  # None: not kept
    for stack in fresh:
        room -= _freeze(*stack.arrays())
        yield [stack]
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

class _Tally:
    """One suite's outcome, folded in from its lists of stacks as they are measured.

    The strongest violation (the lowest index on ties), the first skip and
    the recorded rows do not depend on the order the lists come in, nor on
    the lists measured with them; the violation's payload is read once it
    is known.  A suite with no plans is SKIPPED with ``note``.
    """

    def __init__(
        self, name: str, plans: list, search: Optional[Callable], record: bool, note: str = ""
    ):
        self.name, self.plans, self.search = name, plans, search
        self.total = sum(plan.count for plan in plans)
        self.run, self.skipped = 0, sum(plan.excluded for plan in plans)
        self.prop_min: Optional[np.ndarray] = None
        self.rows: Optional[list] = [] if record else None  # (trial, dim, margin, scale)
        self.hit: Optional[tuple] = None
        self.strongest, self.first_skip, self.skip_note = (np.inf, self.total), self.total, note

    def add(self, stacks: list[_Stack], measured: list[tuple[_Measured, int]], tol: float) -> None:
        """Fold in a list of stacks.

        Property c of their plans measured their trials as rows o, o+1, ...
        of res, where (res, o) = measured[c].
        """
        idx = np.concatenate([s.idx for s in stacks])
        n = idx.size
        m = np.stack([res.margins[o : o + n] for res, o in measured])
        # a trial's margin is the smallest of its properties' margins (the
        # first on ties); a trial that any property skips is skipped
        choice = np.argmin(np.where(np.isnan(m), np.inf, m), axis=0)
        margins = m[choice, np.arange(n)]
        ok = ~np.isnan(m).any(axis=0)
        skips, done = np.flatnonzero(~ok), np.flatnonzero(ok)
        self.skipped += skips.size
        if skips.size and idx[skips].min() < self.first_skip:
            j = skips[np.argmin(idx[skips])]
            self.first_skip = idx[j]
            self.skip_note = str(next(res.notes[o + j] for res, o in measured if res.notes[o + j]))
        if not done.size:
            return
        self.run += done.size
        low = np.min(m[:, done], axis=1)
        self.prop_min = low if self.prop_min is None else np.minimum(self.prop_min, low)
        if self.rows is not None:
            scales = np.stack([res.scales[o : o + n] for res, o in measured])[choice, np.arange(n)]
            dims = np.concatenate([np.full(s.idx.size, s.dim) for s in stacks])
            self.rows += [
                (int(idx[j]), int(dims[j]), float(margins[j]), float(scales[j])) for j in done
            ]
        hits = done[margins[done] < -tol]
        if hits.size:
            j = hits[np.lexsort((idx[hits], margins[hits]))[0]]
            if (margins[j], idx[j]) < self.strongest:
                b = int(np.searchsorted(np.cumsum([s.idx.size for s in stacks]), j, "right"))
                i = j - sum(s.idx.size for s in stacks[:b])  # the row of trial j in stacks[b]
                res, o = measured[choice[j]]
                self.strongest = margins[j], idx[j]
                self.hit = stacks[b], i, choice[j], res, o + j

    def outcome(self, f: ScalarFunction, cfg: TestConfig, recorder: Optional[list]) -> TestOutcome:
        """The suite's outcome, after its expected failure's search where one applies."""
        name, run = self.name, self.run
        violation = None
        if self.hit is not None:
            stack, i, c, res, j = self.hit
            violation = _witness(stack.plan.props[c], _trial_fields(cfg, stack, i), res, j)
        if recorder is not None:
            recorder.extend((name, dim, i, m, scale) for i, dim, m, scale in sorted(self.rows))
        # a trial's margin is its smallest property margin
        min_margin = None if self.prop_min is None else float(self.prop_min.min())

        expected_fail = _expects_fail(f.name, name)
        detail = ""
        if self.prop_min is not None and len(self.plans[0].props) > 1:
            detail = "; ".join(
                f"min {p.label} margin {v:.3e}" for p, v in zip(self.plans[0].props, self.prop_min)
            )

        if violation is None and expected_fail and self.search is not None and run:
            found = self.search()
            if found is not None:
                violation, scale, dim, note = found
                run += 1
                min_margin = min(min_margin, violation["margin"])
                if recorder is not None:
                    recorder.append((name, dim, self.total, violation["margin"], scale))
                detail = _join(detail, note)

        if violation is not None:
            return TestOutcome(name, f.name, FAIL, min_margin, run, self.skipped, violation, detail)
        if not run:
            return TestOutcome(
                name, f.name, SKIPPED, None, 0, self.skipped, None,
                self.skip_note or "no admissible trials",
            )
        if expected_fail:
            return TestOutcome(
                name, f.name, INCONCLUSIVE, min_margin, run, self.skipped, None,
                _join(detail, "expected a violation but found none within the sampling budget"),
            )
        return TestOutcome(name, f.name, PASS, min_margin, run, self.skipped, None, detail)


def _drive(
    f: ScalarFunction, cfg: TestConfig, suites: list[tuple], recorder: Optional[list] = None
) -> list[TestOutcome]:
    """The outcomes of several suites, each given as (name, plans, search), measured in one pass.

    The scalar convexity precheck runs first; when it decides, every suite
    takes its outcome.  Plans given as a function take the gap grid where
    g = 1/f'' is defined, (points, undefined count): it is scanned once for
    all the suites that read it, after the precheck, and where the scan
    raises DegenerateFunctionError or DomainError the property does not
    apply and those suites are SKIPPED.

    In report order, each suite's lists of stacks (_kept_stacks) join a
    batch while the sum of their working sets stays within _CHUNK_BYTES; a
    list is never split, and one over the bound is measured alone.  A batch
    is measured with one _measure per reading kind, so one evaluation of f
    per kind serves every suite in it, and each suite folds its own lists
    (_Tally).  f acts point by point, so a trial's margin does not depend on
    its batch.

    ``search`` runs when the failure is expected, no sampled trial violates
    and some trial ran.  It returns None or a violating (witness, scale,
    dim, note), which counts as trial ``total``.
    """
    bad = _scalar_convexity_failure(f, cfg)
    if bad is not None:
        return [replace(bad, name=name) for name, _, _ in suites]
    tallies, scan = [], None
    for name, plans, search in suites:
        if callable(plans):
            if scan is None:
                try:
                    scan = _defined_gap_grid(f)
                except (DegenerateFunctionError, DomainError) as exc:
                    scan = exc
            if isinstance(scan, Exception):
                tallies.append(_Tally(name, [], None, recorder is not None, str(scan)))
                continue
            plans = plans(*scan)
        tallies.append(_Tally(name, plans, search, recorder is not None))
    batch, used = [], 0
    for tally in tallies:
        for stacks in _kept_stacks(cfg, tally.plans) if tally.plans else ():
            cost = sum(s.working_set() for s in stacks)
            if batch and used + cost > _CHUNK_BYTES:
                _measure_batch(f, batch, cfg.tol)
                batch, used = [], 0
            batch.append((tally, stacks))
            used += cost
    if batch:
        _measure_batch(f, batch, cfg.tol)
    return [tally.outcome(f, cfg, recorder) for tally in tallies]


def _measure_batch(f: ScalarFunction, batch: list[tuple[_Tally, list[_Stack]]], tol: float) -> None:
    """Measure a batch of (tally, stacks) lists, one _measure per reading kind, into their tallies.

    The properties at one position of a suite's plans read f alike, so the
    trials of a list that one of them measures take consecutive rows of its
    kind's measurement.
    """
    jobs: dict[Callable, list] = {}
    at = []
    for _, stacks in batch:
        rows = []
        for props in zip(*(s.plan.props for s in stacks)):
            kind = props[0].reads.values
            group = jobs.setdefault(kind, [])
            rows.append((kind, sum(n for _, n, _ in group)))
            group += [(p, s.idx.size, s.derived[p.kind]) for p, s in zip(props, stacks)]
        at.append(rows)
    measured = {kind: _measure(f, group) for kind, group in jobs.items()}
    for (tally, stacks), rows in zip(batch, at):
        tally.add(stacks, [(measured[kind], o) for kind, o in rows], tol)


# --------------------------------------------------------------------------
# scalar convexity precheck (every suite assumes convex f; verify, don't trust)

# The precheck of the last function checked, as [f, tol, its outcome or
# None].  Every _drive call starts with it (each stage of the uniqueness
# pipeline makes one), so it is computed once per function and tol; f is
# matched by identity, since ScalarFunction equality ignores taylor.
_PRECHECKED: list = [None, None, None]


def _scalar_convexity_failure(f: ScalarFunction, cfg: TestConfig) -> Optional[TestOutcome]:
    if _PRECHECKED[0] is not f or _PRECHECKED[1] != cfg.tol:
        _PRECHECKED[:] = f, cfg.tol, _scalar_precheck(f, cfg.tol)
    return _PRECHECKED[2]


def _scalar_precheck(f: ScalarFunction, tol: float) -> Optional[TestOutcome]:
    """The outcome of the scalar convexity precheck when it decides one (under an empty name).

    f'' is read over _SCALAR_GRID as a scan; a pair of points near its most negative value may refute f.
    """
    d2 = _measure(f, [(_SCALAR_GRID_SCAN, _SCALAR_GRID.size, {"t": _SCALAR_GRID})]).margins
    if np.isnan(d2).all():
        return TestOutcome(
            "", f.name, SKIPPED, None, 0, len(_SCALAR_GRID), None,
            "function undefined on the scalar test grid",
        )
    concave = np.where(d2 < -1e-10, d2, np.inf)
    w = int(np.argmin(concave))
    if not np.isfinite(concave[w]):
        return None
    worst_t, worst_d2 = float(_SCALAR_GRID[w]), float(d2[w])
    etas = np.array([0.99, 0.75, 0.5, 0.25, 0.1, 0.02])
    P = {"t": worst_t * (1.0 - etas), "s": worst_t * (1.0 + etas)}
    res = _measure(f, [(_SCALAR_CONVEXITY, etas.size, P)])
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

def _principle1(f: ScalarFunction, cfg: TestConfig) -> tuple:
    plans = [
        _Plan(f"principle1/dim{dim}", cfg.samples, (_PRINCIPLE1,), {
            None: (_pd_col("x", dim, cfg.eig_range), _pd_col("y", dim, cfg.eig_range)),
        })
        for dim in cfg.dims
    ]
    return "principle1", plans, None


def test_principle1_concavity(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    return _drive(f, cfg, [_principle1(f, cfg)], recorder)[0]


# --------------------------------------------------------------------------
# suite: convexity of rho -> Tr f(rho) - Tr f(partial trace of rho)

def _entropic(f: ScalarFunction, cfg: TestConfig) -> tuple:
    r = cfg.eig_range
    plans = []
    for d1, d2 in cfg.bipartite:
        n, dims = d1 * d2, (_fixed_col("dim1", d1), _fixed_col("dim2", d2))
        plans.append(_Plan(f"entropic/{d1}x{d2}", cfg.samples, (_ENTROPIC,), {
            False: (*dims, _pd_col("x", n, r), _pd_col("y", n, r)),
            # classical corner: diagonal states exercise the commuting case
            True: (*dims, _diag_col("x", n, r), _diag_col("y", n, r)),
        }, lambda idx, rng: idx % 4 == 3))
    return "entropic", plans, None


def test_entropic(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    return _drive(f, cfg, [_entropic(f, cfg)], recorder)[0]


# --------------------------------------------------------------------------
# suite: convexity of G(rho_1..rho_k), sampled two ways per trial

def _derived_hessian_witness(f: ScalarFunction, cfg: TestConfig, k: int) -> Optional[tuple]:
    """Turn a superoperator-inequality violation into a negative Hessian.

    If d = df'(rho+sigma)^-1 - df'(rho)^-1 - df'(sigma)^-1 has a negative
    eigenvalue, its lowest eigenvector transfers to a direction pair h1, h2
    that makes the order-two Hessian of G negative (_transfer, from the real
    form of condition (13)).  Orders k > 2 are reached by padding with small
    multiples of the identity and zero directions.  Returns the (witness,
    scale, dim, note) of the first violating padding, or None.
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
        # to its end first, so it is kept whatever the search finds, and f'
        # is read over all of it at once (a plan set with no stacks reads nothing)
        stacks = list(itertools.chain.from_iterable(_kept_stacks(cfg, [plan])))
        if not stacks:
            continue
        try:
            kernels = _readings(f, [(_CONDITION13, s.idx, s.derived["condition13"]) for s in stacks])
        except _SKIPPABLE:
            return None
        rows = [(s, kernel, j) for s, (kernel,) in zip(stacks, kernels) for j in range(s.idx.size)]
        for stack, kernel, j in rows:
            D = _trial(stack.derived["condition13"], j)
            try:  # the form of each row alone, as its sampled trial's
                form = _condition13_form(_inverse_kernel(fp, kernel[j : j + 1]), D["states.rotations"])
            except NotInvertibleError:
                return None
            low, _, h = _transfer(form)
            if low[0] >= 0.0:
                continue
            u = D["states.eigenvectors"][:, 2]
            (h1,), (h2,) = hermitize(u @ _hermitian_of(h) @ adjoint(u))
            fields = _trial_fields(cfg, stack, j)
            rho, sigma = fields["rho"], fields["sigma"]
            base_scale = float(np.trace(rho + sigma).real) / (2 * dim)
            zero = np.zeros((dim, dim), dtype=complex)
            pads = [eps * base_scale * np.eye(dim, dtype=complex) for eps in (1e-2, 1e-3, 1e-4)]
            P = {  # one trial per padding
                "rhos": np.stack([np.stack([rho, sigma] + [pad] * (k - 2)) for pad in pads]),
                "hs": np.stack([np.stack([h1, h2] + [zero] * (k - 2))] * len(pads)),
            }
            res = _measure(f, [(_SUB_HESSIAN, len(pads), _SUB_HESSIAN.derive(P))])
            hits = np.flatnonzero(res.margins < -cfg.tol)
            if hits.size:
                j = hits[0]
                return _witness(_SUB_HESSIAN, _row(P, j), res, j), float(res.scales[j]), dim, note
    return None


def _subentropic(f: ScalarFunction, k: int, cfg: TestConfig) -> tuple:
    if k < 2:
        raise ValueError("subentropic order must be >= 2")
    plans = []
    for dim in cfg.dims:
        pds = tuple(_pd_col(field, dim, cfg.eig_range, k) for field in ("xs", "ys", "rhos"))
        props = (_SUB_MIDPOINT, _SUB_HESSIAN)
        plans.append(_Plan(f"subentropic-k{k}/dim{dim}", cfg.samples, props, {
            False: (*pds, _herm_col(("hs",), dim, k)),
            # scalar directions catch violations along the identity
            True: (*pds, _identity_col(("hs",), ("standard_normal",) * k, lambda c: (c,), dim, k)),
        }, lambda idx, rng: idx % 4 == 3))

    return f"subentropic:k={k}", plans, functools.partial(_derived_hessian_witness, f, cfg, k)


def test_subentropic_order_k(
    f: ScalarFunction, k: int, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    return _drive(f, cfg, [_subentropic(f, k, cfg)], recorder)[0]


# --------------------------------------------------------------------------
# suite: superoperator inequality df'(rho+sigma)^-1 >= df'(rho)^-1 + df'(sigma)^-1

def _condition13(f: ScalarFunction, cfg: TestConfig) -> tuple:
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
    return "condition13", plans, None


def test_condition13(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    return _drive(f, cfg, [_condition13(f, cfg)], recorder)[0]


# --------------------------------------------------------------------------
# suite: per-instance agreement of the superoperator verdict with Hessian sampling

def _equivalence(f: ScalarFunction, cfg: TestConfig) -> tuple:
    plans = [
        _Plan(f"equivalence/dim{dim}", cfg.samples, (_EQUIVALENCE,), {None: (
            _pd_col("rho", dim, cfg.eig_range),
            _pd_col("sigma", dim, cfg.eig_range),
            _herm_col(("h1", "h2"), dim, _EQUIVALENCE_DIRECTIONS),
            _fixed_col("band", 10.0 * cfg.tol),
        )})
        for dim in cfg.dims
    ]
    return "equivalence", plans, None


def test_equivalence_13_vs_hessian(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    return _drive(f, cfg, [_equivalence(f, cfg)], recorder)[0]


# --------------------------------------------------------------------------
# suite: joint convexity of (rho, h) -> Tr h df'(rho) h

def _matrix_entropy(f: ScalarFunction, cfg: TestConfig) -> tuple:
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
    return "matrix-entropy", plans, None


def test_matrix_entropy(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    return _drive(f, cfg, [_matrix_entropy(f, cfg)], recorder)[0]


# --------------------------------------------------------------------------
# suite: convexity of rho -> S_f(channel(rho)) - S_f(rho)

def _gain(f: ScalarFunction, cfg: TestConfig) -> tuple:
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

    return "gain", [_Plan("gain", cfg.samples * len(cfg.dims), (_GAIN,), classes, classify)], None


def test_entropy_gain_convexity(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    return _drive(f, cfg, [_gain(f, cfg)], recorder)[0]


# --------------------------------------------------------------------------
# scalar suites for the gap function g = 1/f''

def _defined_gap_grid(f: ScalarFunction) -> tuple[np.ndarray, int]:
    """The grid points where g = 1/f'' is defined, and how many it is undefined at.

    g is read over _GAP_GRID as a scan.  Where it is defined at no point, the
    first point's error is raised: gap_function's check grid's, if that is why.
    """
    res = _measure(f, [(_GAP_GRID_SCAN, _GAP_GRID.size, {"t": _GAP_GRID})])
    ok = ~np.isnan(res.margins)
    if not ok.any():
        raise res.notes[0]
    return _GAP_GRID[ok], int(np.count_nonzero(~ok))


# Their plans are functions of the defined grid, which _drive scans once for both.

def _gap_superadditive(f: ScalarFunction, cfg: TestConfig) -> tuple:
    def plans(pts, undefined):
        i, j = np.triu_indices(pts.size)
        return [
            _grid_plan(_GAP_SUPERADDITIVE, undefined, t=pts[i], s=pts[j]),  # all grid pairs
            _grid_plan(_GAP_MONOTONE, t=pts[:-1], s=pts[1:]),  # along the grid
            _grid_plan(_GAP_ZERO, t=np.array([_GAP_ZERO_PROBE])),
        ]

    return "gap-superadditive", plans, None


def _gap_concavity(f: ScalarFunction, cfg: TestConfig) -> tuple:
    def plans(pts, undefined):
        i, j = np.triu_indices(pts.size, k=1)
        return [_grid_plan(_GAP_CONCAVITY, undefined, t=pts[i], s=pts[j])]

    return "gap-concavity", plans, None


def test_gap_superadditive(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    return _drive(f, cfg, [_gap_superadditive(f, cfg)], recorder)[0]


def test_gap_concavity(
    f: ScalarFunction, cfg: TestConfig, recorder: Optional[list] = None
) -> TestOutcome:
    return _drive(f, cfg, [_gap_concavity(f, cfg)], recorder)[0]


# --------------------------------------------------------------------------
# the suite table, read by the uniqueness pipeline and by run_suite

class _Suite(NamedTuple):
    """One outcome of the ``all`` report: the token that selects it and how _drive takes it."""

    name: str
    token: str
    build: Callable  # (f, *args, cfg) -> the suite's (name, plans, search)
    stage: bool = False  # a stage of the uniqueness pipeline
    args: tuple = ()  # arguments between f and cfg

    def of(self, f: ScalarFunction, cfg: TestConfig) -> tuple:
        return self.build(f, *self.args, cfg)

    def run(self, f: ScalarFunction, cfg: TestConfig, recorder: Optional[list]) -> TestOutcome:
        return _drive(f, cfg, [self.of(f, cfg)], recorder)[0]


# Report order.  The pipeline stages, in this order, follow the logical chain.
_SUITES = (
    _Suite("principle1", "principle1", _principle1, stage=True),
    _Suite("gap-superadditive", "gap", _gap_superadditive, stage=True),
    _Suite("condition13", "condition13", _condition13, stage=True),
    _Suite("equivalence", "equivalence", _equivalence),
    *(
        _Suite(f"subentropic:k={k}", "subentropic", _subentropic, args=(k,))
        for k in _SUBENTROPIC_ORDERS
    ),
    _Suite("matrix-entropy", "matrix-entropy", _matrix_entropy, stage=True),
    _Suite("entropic", "entropic", _entropic, stage=True),
    _Suite("gain", "gain", _gain),
    _Suite("gap-concavity", "gap", _gap_concavity, stage=True),
)

#: suite tokens accepted by run_suite / the CLI, in report order
SUITE_TOKENS = ("all", *dict.fromkeys(row.token for row in _SUITES), "uniqueness")


# --------------------------------------------------------------------------
# the uniqueness pipeline

_FIT_GRID = np.logspace(-2.0, 2.0, 100)
_FIT_RESIDUAL_TOL = 1e-6
_FIT_SLOPE_TOL = 1e-6


def _gap_fit(at_grid: Jet, at_one: Jet) -> tuple[dict, np.ndarray]:
    """Least-squares fit of g(t) = 1/f'' against b*t on _FIT_GRID, and g on that grid.

    It takes the uniqueness fit's reading: f's series on the grid and at t = 1.
    """
    ts = _FIT_GRID
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

    values = _readings(f, [(_UNIQUENESS_FIT, None, {})])[0]
    fit = _gap_fit(*values)[0]
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
        margin, _, extras = _UNIQUENESS_FIT.margin(f, {}, values)
        witness = _UNIQUENESS_FIT.witness({k: v[0] for k, v in extras.items()}, margin[0])
        final = TestOutcome(
            "uniqueness", f.name, FAIL, -float(fit["relative_residual"]),
            len(_FIT_GRID), 0, witness,
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
    rows = [row for row in _SUITES if token in ("all", row.token)]
    outcomes = _drive(f, cfg, [row.of(f, cfg) for row in rows], recorder)
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
    the same definition and measurement the suites sample with, on a stack
    of one, and the error that would skip it is raised.  A sound FAIL
    payload re-verifies to a margin below -tol/2 with nothing but the
    payload and the function it was found for.
    """
    kind = payload["kind"]
    prop = _PROPERTIES.get(kind) if isinstance(kind, str) else None
    if prop is None:
        raise ValueError(f"unknown counterexample kind {kind!r}")
    res = _measure(f, [(prop, 1, prop.derive(prop.decode(payload)))])
    if res.notes[0] is not None:
        raise res.notes[0]
    return float(res.margins[0])


# The suite entry points are library API, not pytest cases; keep pytest from
# collecting them out of modules that import them by name.
for _obj in (TestConfig, TestOutcome, *(globals()[n] for n in __all__ if n.startswith("test_"))):
    _obj.__test__ = False
del _obj
