"""Truncated Taylor-series arithmetic (forward-mode derivative propagation).

A :class:`Jet` holds the Taylor coefficients of a scalar function at a point,
``c[k] = f^(k)(t0) / k!``.  Arithmetic on jets propagates derivatives through
``+ - * / **``, ``exp``, ``log`` and ``sqrt``, so evaluating an expression on
``Jet.variable(t0)`` yields the expression's derivatives at ``t0``.

A jet keeps its coefficients as a list of per-order terms, ``terms[k]``.  At
one point each term is a Python float.  The expansion point may also be an
array of points; each term is then an array of the points' shape, and every
operation acts on all points at once.  A constant jet (float terms) combines
with any batch.  The recurrences run term by term on these lists, so no
operation stacks its result into one array; :attr:`Jet.c` does that on
request, with shape ``(n, *points.shape)`` for n coefficients.  An elementary
function raises :class:`DomainError` when any point lies outside its domain.

Jets carry coefficients 0..ORDER unless built inside :func:`truncated`, which
sets the highest order that ``Jet.variable``, ``Jet.constant`` and ``Jet(...)``
build.  Every operation returns as many coefficients as its shortest operand
carries.  Coefficient k of each recurrence depends only on the coefficients
up to k (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008,
ch. 13), so a truncated series agrees bit for bit with the leading
coefficients of a longer one.  :class:`~entrocert.functions.ScalarFunction`
evaluates its series only to the order that the caller reads.

A jet exponent counts as constant only when :meth:`Jet.constant` built it,
so ``x ** e`` takes the same path whatever orders ``e`` carries.
"""

from __future__ import annotations

import math
from contextvars import ContextVar

import numpy as np

# Highest Taylor order of jets built outside :func:`truncated`.
ORDER = 5

# The highest order that the jet constructors build at present.
_TOP: ContextVar[int] = ContextVar("entrocert_jet_order", default=ORDER)

# exp overflows double precision above this argument.
_EXP_LIMIT = math.log(np.finfo(float).max)


class DomainError(ValueError):
    """Evaluation outside the domain where a function is defined."""


def truncated(order: int, fn, *args):
    """``fn(*args)``, with the jets built inside it carrying coefficients 0..order."""
    token = _TOP.set(order)
    try:
        return fn(*args)
    finally:
        _TOP.reset(token)


def top_order() -> int:
    """The highest order that the jet constructors build here."""
    return _TOP.get()


def _lift(x) -> "Jet":
    if isinstance(x, Jet):
        return x
    return Jet.constant(x)


def _terms(c: np.ndarray) -> list:
    """Per-order terms of a coefficient array: Python floats at one point, rows for a batch."""
    return c.tolist() if c.ndim == 1 else list(c)


def _check(ok, values, message: str) -> None:
    """Raise DomainError(message % first failing value) unless ok holds everywhere."""
    if isinstance(ok, bool):
        if not ok:
            raise DomainError(message % values)
    elif not ok.all():
        raise DomainError(message % float(values[~ok].flat[0]))


def _scalar(x):
    """A 0-d result as a Python float; batches stay arrays."""
    return float(x) if np.ndim(x) == 0 else x


class Jet:
    __slots__ = ("terms",)

    def __init__(self, coeffs):
        src = np.asarray(coeffs, dtype=float)
        n = _TOP.get() + 1
        c = np.zeros((n,) + src.shape[1:])
        k = min(src.shape[0], n)
        c[:k] = src[:k]
        self.terms = _terms(c)

    @classmethod
    def constant(cls, value) -> "Jet":
        value = np.asarray(value, dtype=float)
        c = np.zeros((_TOP.get() + 1,) + value.shape)
        c[0] = value
        return _Constant._raw(_terms(c))

    @classmethod
    def variable(cls, t0) -> "Jet":
        t0 = np.asarray(t0, dtype=float)
        c = np.zeros((_TOP.get() + 1,) + t0.shape)
        c[0] = t0
        if len(c) > 1:
            c[1] = 1.0
        return cls._raw(_terms(c))

    @classmethod
    def _raw(cls, terms: list) -> "Jet":
        j = cls.__new__(cls)
        j.terms = terms
        return j

    # -- inspection ---------------------------------------------------------

    @property
    def c(self) -> np.ndarray:
        """The coefficients stacked into one array, shape ``(n, *points.shape)``."""
        return np.array(self.terms, dtype=float)

    @property
    def value(self):
        """Value at the expansion point (a float, or an array for a batch)."""
        return _scalar(self.terms[0])

    def derivative(self, k: int):
        """k-th derivative at the expansion point."""
        if not 0 <= k < len(self.terms):
            raise ValueError(f"derivative order {k} outside jet order {len(self.terms) - 1}")
        return _scalar(self.terms[k] * float(math.factorial(k)))

    def derivatives(self, order: int) -> tuple:
        """(f, f', ..., f^(order)) at the expansion point."""
        return (self.value, *(self.derivative(k) for k in range(1, order + 1)))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Jet":
        return Jet._raw([x + y for x, y in zip(self.terms, _lift(other).terms)])

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet._raw([-x for x in self.terms])

    def __sub__(self, other) -> "Jet":
        return Jet._raw([x - y for x, y in zip(self.terms, _lift(other).terms)])

    def __rsub__(self, other) -> "Jet":
        return _lift(other).__sub__(self)

    def __mul__(self, other) -> "Jet":
        a, b = self.terms, _lift(other).terms
        out = []
        for k in range(min(len(a), len(b))):
            acc = a[0] * b[k]
            for j in range(1, k + 1):
                acc = acc + a[j] * b[k - j]
            out.append(acc)
        return Jet._raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        a, b = self.terms, _lift(other).terms
        _check(b[0] != 0.0, b[0], "division by zero (divisor %g)")
        q = []
        for k in range(min(len(a), len(b))):
            acc = a[k]
            for j in range(1, k + 1):
                acc = acc - b[j] * q[k - j]
            q.append(acc / b[0])
        return Jet._raw(q)

    def __rtruediv__(self, other) -> "Jet":
        return _lift(other).__truediv__(self)

    def __pow__(self, p) -> "Jet":
        if isinstance(p, Jet):
            if not isinstance(p, _Constant) or isinstance(p.terms[0], np.ndarray):
                # variable exponent: b^e = exp(e * log b)
                return (p * self.log()).exp()
            p = p.value
        p = float(p)
        if p == round(p) and abs(p) <= 128:
            return self._int_pow(int(round(p)))
        # real exponent via exp/log; requires a positive base
        return (p * self.log()).exp()

    def __rpow__(self, other) -> "Jet":
        return _lift(other).__pow__(self)

    def _int_pow(self, k: int) -> "Jet":
        if k < 0:
            return Jet.constant(1.0) / self._int_pow(-k)
        out = Jet.constant(1.0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- elementary functions -----------------------------------------------

    def exp(self) -> "Jet":
        a = self.terms
        _check(~(a[0] > _EXP_LIMIT) if isinstance(a[0], np.ndarray) else not a[0] > _EXP_LIMIT,
               a[0], "exp overflows double precision at t=%.6g")
        e = [math.exp(a[0]) if isinstance(a[0], float) else np.exp(a[0])]
        for k in range(1, len(a)):
            acc = a[1] * e[k - 1]
            for j in range(2, k + 1):
                acc = acc + j * a[j] * e[k - j]
            e.append(acc / k)
        return Jet._raw(e)

    def log(self) -> "Jet":
        a = self.terms
        _check(a[0] > 0.0, a[0], "log of non-positive value %.6g")
        l = [math.log(a[0]) if isinstance(a[0], float) else np.log(a[0])]
        for k in range(1, len(a)):
            acc = a[k]
            for j in range(1, k):
                acc = acc - (j / k) * l[j] * a[k - j]
            l.append(acc / a[0])
        return Jet._raw(l)

    def sqrt(self) -> "Jet":
        a = self.terms
        _check(a[0] > 0.0, a[0], "sqrt of non-positive value %.6g")
        s = [math.sqrt(a[0]) if isinstance(a[0], float) else np.sqrt(a[0])]
        for k in range(1, len(a)):
            acc = a[k]
            for j in range(1, k):
                acc = acc - s[j] * s[k - j]
            s.append(acc / (2.0 * s[0]))
        return Jet._raw(s)

    # -- calculus helpers -----------------------------------------------------

    def shift(self) -> "Jet":
        """Taylor series of the derivative: one coefficient fewer."""
        return Jet._raw([x * float(k) for k, x in enumerate(self.terms[1:], 1)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Jet({self.c.tolist()})"


class _Constant(Jet):
    """A jet built by :meth:`Jet.constant`, which as an exponent does not vary."""

    __slots__ = ()
