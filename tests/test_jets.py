import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrocert.jets import ORDER, DomainError, Jet, truncated


# step proportional to t and tolerance per derivative order: the truncation
# error of the order-3 stencil is h^2 * f^(5)/4, which for power-law functions
# only stays small relative to f''' when h scales with t.
FD_STEP = {1: 1e-6, 2: 1e-4, 3: 3e-3}
FD_RTOL = {1: 1e-6, 2: 1e-5, 3: 1e-3}


def fd_derivative(fn, t, k):
    # central finite differences, order k in {1,2,3}
    h = FD_STEP[k] * t
    if k == 1:
        return (fn(t + h) - fn(t - h)) / (2 * h)
    if k == 2:
        return (fn(t + h) - 2 * fn(t) + fn(t - h)) / h**2
    if k == 3:
        return (fn(t + 2 * h) - 2 * fn(t + h) + 2 * fn(t - h) - fn(t - 2 * h)) / (
            2 * h**3
        )
    raise ValueError(k)


CASES = [
    (lambda x: x * x.log(), lambda t: t * math.log(t)),
    (lambda x: -x.log(), lambda t: -math.log(t)),
    (lambda x: x.exp(), math.exp),
    (lambda x: x.sqrt(), math.sqrt),
    (lambda x: x**1.5, lambda t: t**1.5),
    (lambda x: x**3, lambda t: t**3),
    (lambda x: (x * x + 1.0) / (x + 2.0), lambda t: (t * t + 1.0) / (t + 2.0)),
    (lambda x: (2.0**x), lambda t: 2.0**t),
]


@pytest.mark.parametrize("jet_fn,py_fn", CASES)
@pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
def test_jets_match_finite_differences(jet_fn, py_fn, t):
    j = jet_fn(Jet.variable(t))
    assert j.value == pytest.approx(py_fn(t), rel=1e-12)
    for k in (1, 2, 3):
        ref = fd_derivative(py_fn, t, k)
        scale = max(1.0, abs(ref))
        assert abs(j.derivative(k) - ref) / scale < FD_RTOL[k]


def test_variable_and_constant_layout():
    v = Jet.variable(4.0)
    assert v.value == 4.0 and v.derivative(1) == 1.0 and v.derivative(2) == 0.0
    c = Jet.constant(7.5)
    assert c.value == 7.5 and all(c.derivative(k) == 0.0 for k in range(1, ORDER + 1))


def test_jet4_tuple():
    f, d1, d2, d3 = (Jet.variable(2.0) ** 2).derivatives(3)
    assert (f, d1, d2, d3) == (4.0, 4.0, 2.0, 0.0)


def test_shift_produces_derivative_series():
    # d/dt of t*log t is log t + 1
    t = 1.7
    shifted = (Jet.variable(t) * Jet.variable(t).log()).shift()
    assert shifted.value == pytest.approx(math.log(t) + 1.0, rel=1e-14)
    assert shifted.derivative(1) == pytest.approx(1.0 / t, rel=1e-14)
    assert shifted.derivative(2) == pytest.approx(-1.0 / t**2, rel=1e-14)


def test_division_reconstructs():
    t = 0.9
    a = Jet.variable(t).exp()
    b = Jet.variable(t) ** 2 + 1.0
    q = a / b
    back = q * b
    assert np.allclose(back.c, a.c, rtol=1e-13, atol=1e-13)


def test_log_exp_inverse():
    t = 3.1
    j = Jet.variable(t).log().exp()
    assert np.allclose(j.c, Jet.variable(t).c, rtol=1e-13, atol=1e-14)


def test_domain_errors():
    with pytest.raises(DomainError):
        Jet.variable(-1.0).log()
    with pytest.raises(DomainError):
        Jet.variable(0.0).sqrt()
    with pytest.raises(DomainError):
        Jet.variable(1.0) / Jet.constant(0.0)
    with pytest.raises(DomainError):
        Jet.variable(1e4).exp()  # overflows double precision


def test_int_pow_negative():
    t = 1.3
    j = Jet.variable(t) ** -2
    assert j.value == pytest.approx(t**-2, rel=1e-13)
    assert j.derivative(1) == pytest.approx(-2 * t**-3, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(0.1, 5.0),
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
)
def test_product_rule_holds(t, a, b):
    x = Jet.variable(t)
    u = a * x + x * x
    v = x.sqrt() + b
    lhs = (u * v).derivative(1)
    rhs = u.derivative(1) * v.value + u.value * v.derivative(1)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_truncated_jets_keep_the_leading_coefficients():
    # coefficient k of every recurrence reads only coefficients up to k
    def series(t):
        x = Jet.variable(t)
        return ((x**1.5 / (x.exp() + 2.0)).sqrt() + 3.0 * x**-2).log() - 2.0**x

    for t in (1.7, np.array([0.5, 1.0, 2.0])):
        full = series(t).c
        assert len(full) == ORDER + 1
        for order in range(ORDER + 1):
            assert np.array_equal(truncated(order, series, t).c, full[: order + 1]), order
            assert len(truncated(order, Jet.constant, 2.0).c) == order + 1
    # an operation carries as many coefficients as its shorter operand
    short = truncated(1, Jet.variable, 1.7)
    assert len((Jet.variable(1.7) * short).c) == len((short + Jet.variable(1.7)).c) == 2
    assert len(short.shift().c) == 1
    with pytest.raises(ValueError, match="outside jet order 1"):
        short.derivative(2)


def test_reflected_operations_and_constant_exponent_match_closed_forms():
    # Taylor coefficients at t: 1 - t is (1 - t, -1, 0, ...), 1/t has
    # c[k] = (-1)^k / t^(k+1), and t^2 is (t^2, 2t, 1, 0, ...)
    t = 0.7
    x = Jet.variable(t)
    zeros = [0.0] * (ORDER - 1)
    assert np.array_equal((1.0 - x).c, [1.0 - t, -1.0, *zeros])
    reciprocal = [(-1.0) ** k / t ** (k + 1) for k in range(ORDER + 1)]
    assert np.allclose((1.0 / x).c, reciprocal, rtol=1e-14, atol=0.0)
    assert np.allclose((x ** Jet.constant(2.0)).c, [t * t, 2.0 * t, 1.0, *zeros[1:]], rtol=1e-15)
