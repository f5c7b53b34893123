"""Scalar trace-function candidates with third-order derivative jets.

All functions live on the open half line (0, inf).  A function may declare a
continuous extension at 0 (``zero_extension``), which the matrix layer uses
for positive semidefinite arguments; without one, singular matrices are
rejected.  The built-in candidates are named expressions, parsed by
:mod:`entrocert.expr`, which also holds their registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .jets import DomainError, Jet, _scalar, top_order, truncated

__all__ = [
    "ScalarFunction",
    "DomainError",
    "DegenerateFunctionError",
    "divided_difference",
    "divided_difference_quadrature_check",
    "gap_function",
]

# Relative eigenvalue gap below which divided differences switch to the
# midpoint-derivative rule.
DIVIDED_DIFFERENCE_GAP = 1e-6

# |f''| below this is treated as identically zero when forming 1/f''.
DEGENERACY_FLOOR = 1e-12


class DegenerateFunctionError(ValueError):
    """1/f'' requested for a function whose f'' vanishes."""


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function of t > 0 together with its derivative jets.

    ``taylor`` maps a point t > 0 to the function's Taylor series there (a
    :class:`Jet`).  ``zero_extension``, when set, is the value f(0): calling
    the function maps exact zeros to it, and this is the only place where the
    extension is applied.  ``expression`` is set when the function came from
    the expression parser, as every registry function does, so it can be
    reconstructed from a JSON dump.

    Every evaluation method hands a float or an array of points to ``taylor``
    in one call, a float as an array of shape ``()`` (its result is a Python
    float); a ``taylor`` that only understands floats is evaluated point by
    point instead.
    """

    name: str
    taylor: Callable[[float], Jet] = field(compare=False)
    zero_extension: Optional[float] = None
    expression: Optional[str] = None

    def __post_init__(self):
        # f(0) enters traces and the JSON report, which admit finite numbers only
        if self.zero_extension is not None and not math.isfinite(self.zero_extension):
            raise ValueError(f"{self.name}: zero extension {self.zero_extension} is not finite")

    def _series(self, t, top: int) -> Jet:
        """The series at t, built only to order ``top`` (coefficients 0..top)."""
        t = np.asarray(t, dtype=float)
        if t.size and not t.min() > 0.0:  # NaN fails too; scan for the first
            bad = float(t[~(t > 0.0)].flat[0])
            raise DomainError(f"{self.name} evaluated at t={bad:.6g}, outside its domain (t > 0)")
        try:
            series = truncated(top, self.taylor, t)
        except TypeError:  # a float-only taylor
            series = None
        n = top + 1
        shape = None if series is None else np.shape(series.terms[0])
        if shape not in ((), t.shape):
            coeffs = [truncated(top, self.taylor, float(x)).c[:n] for x in t.ravel()]
            return Jet(list(np.array(coeffs, dtype=float).T.reshape((n,) + t.shape)))
        if shape != t.shape:  # a constant series takes the batch shape
            return Jet([np.full(t.shape, x) for x in series.terms[:n]])
        return series

    def jet(self, t, order: int = 3) -> tuple:
        """(f, f', ..., f^(order)) at t; by default (f, f', f'', f''')."""
        return self._series(t, order).derivatives(order)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        at_zero = t == 0.0
        if self.zero_extension is None or not at_zero.any():
            return self._series(t, 0).value
        out = np.full(t.shape, float(self.zero_extension))
        if not at_zero.all():
            out[~at_zero] = self._series(t[~at_zero], 0).value
        return _scalar(out)

    def d1(self, t):
        return self._series(t, 1).derivative(1)

    def d2(self, t):
        return self._series(t, 2).derivative(2)

    def d3(self, t):
        return self._series(t, 3).derivative(3)

    def derivative(self) -> "ScalarFunction":
        """The derivative as a function in its own right.

        Its series to order k is the shift of f's series to order k + 1, so
        every coefficient it reports is exact.  No zero extension is assumed
        for f'.
        """
        base = self.taylor
        return ScalarFunction(
            f"d({self.name})", lambda t: truncated(top_order() + 1, base, t).shift()
        )

    def describe(self) -> dict:
        """JSON-ready descriptor sufficient to reconstruct the function.

        For every parsed function, the registry's included,
        ``parse(expression).as_function(zero_extension)`` rebuilds it.
        """
        return {
            "name": self.name,
            "expression": self.expression,
            "zero_extension": self.zero_extension,
        }


# --------------------------------------------------------------------------
# divided differences

def _difference_layout(t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`divided_difference` reads of the points alone, whatever f is.

    Returns the divisors (t - s, or 1 where the midpoint rule or a
    coincident pair takes over), the exactly coincident pairs, and the
    other nearly coincident pairs (relative gap at most 1e-6).
    """
    gap = t - s
    near = np.abs(gap) <= DIVIDED_DIFFERENCE_GAP * np.maximum(
        np.maximum(np.abs(t), np.abs(s)), 1.0
    )
    same = gap == 0.0
    return np.where(near, 1.0, gap), same, near & ~same


def divided_difference(f: ScalarFunction, t, s):
    """First divided difference (f(t) - f(s)) / (t - s).

    Takes floats or broadcastable arrays of points.  Coincident or nearly
    coincident arguments (relative gap at most 1e-6) use f'((t+s)/2), which
    is second-order accurate in the gap; all of them are evaluated in one
    call.  The result is exactly symmetric in (t, s).  Its rule,
    :func:`_difference_layout`, builds the Loewner matrices of
    :mod:`entrocert.frechet` as well.
    """
    scalar = np.ndim(t) == 0 and np.ndim(s) == 0
    t, s = np.broadcast_arrays(
        np.atleast_1d(np.asarray(t, dtype=float)), np.atleast_1d(np.asarray(s, dtype=float))
    )
    gaps, same, near = _difference_layout(t, s)
    out = (f(t) - f(s)) / gaps
    near |= same
    if near.any():
        out[near] = f.d1(0.5 * (t[near] + s[near]))
    return float(out[0]) if scalar else out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# map from [-1, 1] to [0, 1]
_GL_X = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


def divided_difference_quadrature_check(f: ScalarFunction, t: float, s: float) -> float:
    """Independent quadrature route: integral of f'(x t + (1-x) s) over [0, 1].

    32-node Gauss-Legendre.  Used only as a test oracle for
    :func:`divided_difference`; never on the production path.
    """
    t = float(t)
    s = float(s)
    return float(_GL_W @ f.d1(_GL_X * t + (1.0 - _GL_X) * s))


# --------------------------------------------------------------------------
# gap function

_GAP_CHECK_GRID = np.logspace(-2.0, 2.0, 25)


def gap_function(f: ScalarFunction) -> ScalarFunction:
    """g = 1 / f'', the reciprocal curvature of f.

    Raises :class:`DegenerateFunctionError` when f'' vanishes somewhere on a
    sampling grid (affine or degenerate candidates have no gap function).
    Its series to order k is the reciprocal of f's second-derivative series,
    shifted twice out of f's series to order k + 2, so every coefficient it
    reports is exact.
    """
    try:
        curvature = f.d2(_GAP_CHECK_GRID)
    except DomainError:  # find the first failing point, as a scan would
        curvature = np.array([f.d2(float(t)) for t in _GAP_CHECK_GRID])
    flat = np.abs(curvature) < DEGENERACY_FLOOR
    if flat.any():
        raise DegenerateFunctionError(
            f"{f.name} is affine or degenerate near t={_GAP_CHECK_GRID[flat][0]:.3g} "
            f"(|f''| < {DEGENERACY_FLOOR:g}); gap function undefined"
        )

    base = f.taylor

    def series(t: float) -> Jet:
        spp = truncated(top_order() + 2, base, t).shift().shift()
        flat = np.abs(spp.value) < DEGENERACY_FLOOR
        if np.any(flat):
            where = np.broadcast_to(t, np.shape(flat))[flat].flat[0]
            raise DegenerateFunctionError(
                f"{f.name} is affine or degenerate at t={where:.6g}; "
                "gap function undefined"
            )
        return Jet.constant(1.0) / spp

    return ScalarFunction(f"gap({f.name})", series)  # 1/f'' has no zero extension


# --------------------------------------------------------------------------
# one evaluation of f at the points of several calls

def _joined(parts: tuple) -> np.ndarray:
    """The points of every array of ``parts``, in turn, as one flat array (a lone part as it is)."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([p.ravel() for p in parts])


def _split(values: np.ndarray, parts: tuple) -> list[np.ndarray]:
    """Values over the :func:`_joined` points of ``parts``, shaped as each part."""
    if len(parts) == 1:
        return [values]
    out, start = [], 0
    for p in parts:
        stop = start + p.size
        out.append(values[start:stop].reshape(p.shape))
        start = stop
    return out


def _jointly(evaluate: Callable, parts: tuple) -> list:
    """``[evaluate(part) for part in parts]`` from one call of evaluate at the points of every part.

    evaluate maps an array of points to an array of values of its shape, or
    to a tuple of such arrays; it must act point by point, so each result
    is bit for bit ``evaluate(part)``.  If the joined call raises
    DomainError, the parts are evaluated one call each, in turn, so the
    error raised is the one that those separate calls raise first.
    """
    try:
        values = evaluate(_joined(parts))
    except DomainError:
        return [evaluate(p) for p in parts]
    if isinstance(values, tuple):
        return list(zip(*(_split(v, parts) for v in values)))
    return _split(values, parts)


def _gap_series(f: ScalarFunction, *parts) -> list[Jet]:
    """f's series to order 2 at each array of points of ``parts``, where g = 1/f'' is defined.

    One evaluation of f covers the points of every part and the grid that
    :func:`gap_function` checks, so g at a part is ``1.0 / f''`` there, bit
    for bit ``gap_function(f)(part)``.  If the points fail, gap_function(f)
    is built and evaluated at each part in turn, so the error raised is the
    one that it raises first.
    """
    points = (_GAP_CHECK_GRID, *(np.asarray(p, dtype=float) for p in parts))
    try:
        series = f._series(_joined(points), 2)
        if (np.abs(series.derivative(2)) < DEGENERACY_FLOOR).any():
            raise DegenerateFunctionError(f"{f.name}: gap function undefined")
        return [Jet(list(t)) for t in zip(*(_split(x, points) for x in series.terms))][1:]
    except (DomainError, DegenerateFunctionError):
        g = gap_function(f)
        for p in points[1:]:
            g(p)
        raise
