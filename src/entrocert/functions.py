"""Scalar trace-function candidates with third-order derivative jets.

All functions live on the open half line (0, inf).  A function may declare a
continuous extension at 0 (``zero_extension``), which the matrix layer uses
for positive semidefinite arguments; without one, singular matrices are
rejected.
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
    "registry",
    "lookup",
    "divided_differences",
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
    the expression parser, so it can be reconstructed from a JSON dump.

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
        """JSON-ready descriptor sufficient to reconstruct the function."""
        return {
            "name": self.name,
            "expression": self.expression,
            "zero_extension": self.zero_extension,
        }


# --------------------------------------------------------------------------
# registry

def _tlogt(t: float) -> Jet:
    x = Jet.variable(t)
    return x * x.log()


def _neglog(t: float) -> Jet:
    return -Jet.variable(t).log()


def _square(t: float) -> Jet:
    x = Jet.variable(t)
    return x * x


def _power(p: float) -> Callable[[float], Jet]:
    def series(t: float) -> Jet:
        return Jet.variable(t) ** p

    return series


def _affine(t: float) -> Jet:
    return 2.0 * Jet.variable(t) + 1.0


def _exp(t: float) -> Jet:
    return Jet.variable(t).exp()


def _negsqrt(t: float) -> Jet:
    return -Jet.variable(t).sqrt()


_REGISTRY: tuple[ScalarFunction, ...] = (
    ScalarFunction("tlogt", _tlogt, zero_extension=0.0),
    ScalarFunction("neglog", _neglog, zero_extension=None),
    ScalarFunction("square", _square, zero_extension=0.0),
    ScalarFunction("power:1.25", _power(1.25), zero_extension=0.0),
    ScalarFunction("power:1.5", _power(1.5), zero_extension=0.0),
    ScalarFunction("power:1.75", _power(1.75), zero_extension=0.0),
    ScalarFunction("affine", _affine, zero_extension=1.0),
    ScalarFunction("exp", _exp, zero_extension=1.0),
    ScalarFunction("negsqrt", _negsqrt, zero_extension=0.0),
)


def registry() -> tuple[ScalarFunction, ...]:
    """The built-in candidate functions."""
    return _REGISTRY


def lookup(name: str) -> ScalarFunction:
    for f in _REGISTRY:
        if f.name == name:
            return f
    known = ", ".join(f.name for f in _REGISTRY)
    raise KeyError(f"unknown function {name!r} (known: {known})")


# --------------------------------------------------------------------------
# divided differences

def divided_differences(
    f: ScalarFunction,
    t: np.ndarray,
    s: np.ndarray,
    ft: np.ndarray,
    fs: np.ndarray,
    dt: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(ft - fs) / (t - s) elementwise, given ft = f(t) and fs = f(s).

    Coincident or nearly coincident arguments (relative gap at most 1e-6)
    use f'((t+s)/2), which is second-order accurate in the gap; all of them
    are evaluated in one call.  ``dt = f'(t)``, when given, serves the exactly
    coincident ones.  The result is exactly symmetric in (t, s).  This is
    the one divided-difference rule: the Loewner matrices of
    :mod:`entrocert.frechet` are built with it as well.
    """
    gap = t - s
    near = np.abs(gap) <= DIVIDED_DIFFERENCE_GAP * np.maximum(
        np.maximum(np.abs(t), np.abs(s)), 1.0
    )
    out = (ft - fs) / np.where(near, 1.0, gap)
    if dt is not None:
        same = gap == 0.0
        out[same] = np.broadcast_to(dt, out.shape)[same]
        near &= ~same
    if near.any():
        out[near] = f.d1(0.5 * (t[near] + s[near]))
    return out


def divided_difference(f: ScalarFunction, t, s):
    """First divided difference (f(t) - f(s)) / (t - s).

    Takes floats or broadcastable arrays of points; see
    :func:`divided_differences` for the rule at nearly coincident points.
    """
    scalar = np.ndim(t) == 0 and np.ndim(s) == 0
    t, s = np.broadcast_arrays(
        np.atleast_1d(np.asarray(t, dtype=float)), np.atleast_1d(np.asarray(s, dtype=float))
    )
    out = divided_differences(f, t, s, f(t), f(s))
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
