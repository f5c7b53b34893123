import math

import numpy as np
import pytest

from entrocert.functions import (
    DegenerateFunctionError,
    ScalarFunction,
    divided_difference,
    divided_difference_quadrature_check,
    gap_function,
)
from entrocert.expr import lookup, parse, registry
from entrocert.jets import ORDER, DomainError, Jet

EXPECTED_NAMES = {
    "tlogt",
    "neglog",
    "square",
    "power:1.25",
    "power:1.5",
    "power:1.75",
    "affine",
    "exp",
    "negsqrt",
}


def test_registry_contents():
    names = {f.name for f in registry()}
    assert names == EXPECTED_NAMES


def test_lookup_unknown():
    with pytest.raises(KeyError, match="unknown function"):
        lookup("cube")


# analytic derivative triples (f, f', f'', f''') for spot checks
ANALYTIC = {
    "tlogt": lambda t: (
        t * math.log(t),
        math.log(t) + 1.0,
        1.0 / t,
        -1.0 / t**2,
    ),
    "neglog": lambda t: (-math.log(t), -1.0 / t, 1.0 / t**2, -2.0 / t**3),
    "square": lambda t: (t * t, 2 * t, 2.0, 0.0),
    "power:1.5": lambda t: (
        t**1.5,
        1.5 * t**0.5,
        0.75 * t**-0.5,
        -0.375 * t**-1.5,
    ),
    "affine": lambda t: (2 * t + 1.0, 2.0, 0.0, 0.0),
    "exp": lambda t: (math.exp(t),) * 4,
    "negsqrt": lambda t: (
        -math.sqrt(t),
        -0.5 * t**-0.5,
        0.25 * t**-1.5,
        -0.375 * t**-2.5,
    ),
}


@pytest.mark.parametrize("name", sorted(ANALYTIC))
@pytest.mark.parametrize("t", [0.2, 1.0, 3.7])
def test_jets_against_analytic_derivatives(name, t):
    f = lookup(name)
    got = f.jet(t)
    want = ANALYTIC[name](t)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=1e-12)


def test_zero_extension_and_domain():
    tlogt = lookup("tlogt")
    assert tlogt(0.0) == 0.0
    neglog = lookup("neglog")
    with pytest.raises(DomainError):
        neglog(0.0)
    with pytest.raises(DomainError):
        tlogt(-0.5)
    assert lookup("exp")(0.0) == 1.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            ScalarFunction("bad", tlogt.taylor, zero_extension=bad)


def test_derivative_shifts_orders():
    f = lookup("tlogt")
    fp = f.derivative()
    t = 2.3
    assert fp(t) == pytest.approx(math.log(t) + 1.0, rel=1e-13)
    assert fp.d1(t) == pytest.approx(1.0 / t, rel=1e-13)
    assert fp.d2(t) == pytest.approx(-1.0 / t**2, rel=1e-13)
    # f' of f' keeps going
    fpp = fp.derivative()
    assert fpp(t) == pytest.approx(1.0 / t, rel=1e-13)


def test_describe_round_trip_fields():
    f = lookup("neglog")
    d = f.describe()
    assert d == {"name": "neglog", "expression": "-log(t)", "zero_extension": None}


def test_divided_difference_symmetric_and_diagonal():
    f = lookup("tlogt")
    assert divided_difference(f, 2.0, 5.0) == divided_difference(f, 5.0, 2.0)
    # coincident arguments give the derivative
    assert divided_difference(f, 3.0, 3.0) == pytest.approx(
        math.log(3.0) + 1.0, rel=1e-13
    )
    # independent quadrature oracle over assorted gaps, including tiny ones
    for name in ("tlogt", "neglog", "power:1.5", "exp"):
        g = lookup(name)
        for (t, s) in [(0.5, 4.0), (1.0, 1.0 + 1e-9), (2.0, 2.00001), (0.1, 0.11)]:
            dd = divided_difference(g, t, s)
            ref = divided_difference_quadrature_check(g, t, s)
            assert dd == pytest.approx(ref, rel=5e-9, abs=1e-12)


def test_gap_function_closed_forms():
    cases = {
        "tlogt": lambda t: t,
        "neglog": lambda t: t * t,
        "square": lambda t: 0.5,
        "negsqrt": lambda t: 4.0 * t**1.5,
        "power:1.5": lambda t: t**0.5 / 0.75,
    }
    for name, ref in cases.items():
        g = gap_function(lookup(name))
        for t in (0.05, 1.0, 17.0):
            assert g(t) == pytest.approx(ref(t), rel=1e-12)


def test_gap_function_degenerate():
    with pytest.raises(DegenerateFunctionError):
        gap_function(lookup("affine"))


def test_gap_function_names_the_first_point_outside():
    # the grid check reaches sqrt(0.01 - 0.5) before anything else
    with pytest.raises(DomainError, match=r"sqrt of non-positive value -0\.49"):
        gap_function(parse("sqrt(t-0.5)^3").as_function())


def test_constant_series_takes_the_batch_shape():
    f = ScalarFunction("c", lambda t: Jet.constant(3.0))
    ts = np.array([0.5, 2.0])
    assert np.array_equal(f(ts), [3.0, 3.0])
    assert np.array_equal(f.d1(ts), [0.0, 0.0])
    assert f(2.0) == 3.0 and type(f(2.0)) is float


def test_custom_function_via_dataclass():
    f = ScalarFunction("cosh-ish", lambda t: (Jet.variable(t).exp() + (-Jet.variable(t)).exp()) / 2.0)
    assert f(1.0) == pytest.approx(math.cosh(1.0), rel=1e-13)
    assert f.d2(1.0) == pytest.approx(math.cosh(1.0), rel=1e-12)


def test_gap_of_gap_is_function():
    g = gap_function(lookup("neglog"))  # t^2
    gg = gap_function(g)  # 1/g'' = 1/2
    assert gg(3.0) == pytest.approx(0.5, rel=1e-12)


# Registry functions, both --expr twins, a gap function and a derivative.
ARRAY_CASES = [
    *registry(),
    parse("t*log(t)").as_function(zero_extension=0.0),
    parse("-log(t)").as_function(),
    gap_function(lookup("neglog")),
    lookup("tlogt").derivative(),
]
ARRAY_POINTS = np.logspace(-2.0, 2.0, 17)


@pytest.mark.parametrize("f", ARRAY_CASES, ids=lambda f: f.name)
def test_array_evaluation_matches_pointwise(f):
    # one call on an array against one call per point; a point alone is
    # checked bit for bit against a one-point array below, but a SIMD loop
    # may treat a point inside a longer array differently by an ulp
    got = f.jet(ARRAY_POINTS)
    for k in range(4):
        want = np.array([f.jet(float(t))[k] for t in ARRAY_POINTS])
        np.testing.assert_allclose(got[k], want, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(
        f(ARRAY_POINTS), [f(float(t)) for t in ARRAY_POINTS], rtol=1e-14, atol=0.0
    )


def test_array_evaluation_keeps_zero_extension_and_domain():
    tlogt = lookup("tlogt")
    assert np.array_equal(tlogt(np.array([0.0, 1.0])), [0.0, 0.0])
    with pytest.raises(DomainError):
        lookup("neglog")(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        tlogt.d2(np.array([1.0, -0.5]))


def test_domain_test_names_the_first_point_outside():
    # one min decides; a failing min falls back to the elementwise scan, so
    # the first point outside (NaN included) is the one reported
    with pytest.raises(DomainError, match=r"tlogt evaluated at t=nan, outside its domain \(t > 0\)"):
        lookup("tlogt")(np.array([1.0, np.nan, -1.0]))
    with pytest.raises(DomainError, match=r"evaluated at t=-1,"):
        lookup("neglog").d1(np.array([[2.0, 3.0], [-1.0, -2.0]]))
    with pytest.raises(DomainError, match=r"log of non-positive value -0\.2"):
        parse("log(t-0.5)").as_function()(np.array([0.3, 1.0]))
    # every point at the zero extension leaves nothing to evaluate
    assert np.array_equal(lookup("tlogt")(np.zeros(3)), np.zeros(3))


def test_float_only_taylor_is_evaluated_pointwise():
    f = ScalarFunction("log1p", lambda t: (Jet.variable(t) + 1.0).log() + 0.0 * math.log(t))
    ts = np.array([0.5, 2.0])
    assert np.array_equal(f.d2(ts), [f.d2(0.5), f.d2(2.0)])
    for shape in [(0,), (2, 0)]:
        assert f(np.zeros(shape)).shape == shape


# Registry functions, both --expr twins and a variable exponent, each with
# its derivative and (where f'' does not vanish) its gap function.
TRUNCATION_BASES = [
    *registry(),
    parse("t*log(t)").as_function(zero_extension=0.0),
    parse("-log(t)").as_function(),
    parse("t^t").as_function(),
]
TRUNCATION_CASES = [
    *TRUNCATION_BASES,
    *(f.derivative() for f in TRUNCATION_BASES),
    *(gap_function(f) for f in TRUNCATION_BASES if f.name != "affine"),
]
# integral points too: t^t must keep its variable exponent at every order
TRUNCATION_POINTS = np.concatenate([np.logspace(-2.0, 2.0, 13), [1.0, 2.0, 3.0]])


@pytest.mark.parametrize("f", TRUNCATION_CASES, ids=lambda f: f.name)
def test_truncated_series_match_full_series(f):
    # a caller that reads orders 0..k gets a series built to order k; its
    # coefficients are the leading ones of the full series, bit for bit
    # an array and each of its points as a float, each against its own reference
    for points in (TRUNCATION_POINTS, *map(float, TRUNCATION_POINTS)):
        full = f.taylor(points).c
        assert len(full) == ORDER + 1
        want = [full[k] * math.factorial(k) for k in range(4)]
        got = [f(points), f.d1(points), f.d2(points), f.d3(points)]
        for k in range(4):
            assert np.array_equal(got[k], want[k]), (f.name, points, k)
        for order in (1, 3):
            got = f.jet(points, order)
            assert len(got) == order + 1
            for k in range(order + 1):
                assert np.array_equal(got[k], want[k]), (f.name, points, order, k)
        assert np.array_equal(f.jet(points)[:2], want[:2])


def test_series_are_built_to_the_order_read():
    built = []

    def taylor(t):
        series = lookup("tlogt").taylor(t)
        built.append(len(series.c))
        return series

    f = ScalarFunction("spy", taylor, zero_extension=0.0)
    for read, coefficients in (
        (f, 1), (f.d1, 2), (f.d2, 3), (f.d3, 4),
        (lambda t: f.jet(t, 1), 2), (f.jet, 4),
        (f.derivative(), 2), (f.derivative().d2, 4),
    ):
        for t in (2.0, np.array([0.5, 2.0])):
            built.clear()
            read(t)
            assert built == [coefficients], (read, t)
    g = gap_function(f)
    built.clear()
    g(np.array([0.5, 2.0]))
    assert built == [3]  # 1/f'' to order 0 reads f to order 2
    # jets built outside a ScalarFunction carry every order up to ORDER
    assert len(Jet.variable(2.0).c) == len(Jet.constant(2.0).c) == ORDER + 1


# Registry functions and both --expr twins, at log-uniform points.
ONE_PATH_CASES = [
    *registry(),
    parse("t*log(t)").as_function(zero_extension=0.0),
    parse("-log(t)").as_function(),
]
ONE_PATH_POINTS = np.exp(np.random.default_rng(0).uniform(math.log(1e-3), math.log(5e2), 200))


@pytest.mark.parametrize("f", ONE_PATH_CASES, ids=lambda f: f.name)
def test_a_lone_point_is_a_batch_of_one(f):
    # a float is evaluated by the same NumPy operations as an array, so a
    # point gives the same bits alone as in a one-point array, as a Python float
    for method in (f, f.d1, f.d2, f.d3):
        for t in ONE_PATH_POINTS:
            got = method(float(t))
            assert type(got) is float
            assert got == method(np.array([t]))[0], (f.name, method, t)
    if f.zero_extension is not None:
        assert f(0.0) == f.zero_extension and type(f(0.0)) is float


def _raised(call):
    try:
        call()
    except (DomainError, DegenerateFunctionError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "text, parts",
    [
        ("-log(5-t)", [np.array([1.0])]),  # the checked grid leaves the domain
        ("t", [np.array([1.0])]),  # degenerate on the checked grid
        ("1/(200-t)", [np.array([1.0, 2.0]), np.array([3.0, 200.0])]),  # a later part
        ("log(t-0.001)*t^3", [np.array([0.05, 2.0]), np.array([0.0005, 1.0])]),
        ("t*log(t)", [np.array([0.5, 2.0]), np.array([3.0])]),  # no error
    ],
)
def test_joint_gap_series_raise_what_separate_calls_raise(text, parts):
    # one evaluation serves every part; when it fails, the error is the one
    # that gap_function(f) and then g at each part in turn raise first
    from entrocert.functions import _gap_series

    f = parse(text).as_function()

    def separate():
        g = gap_function(f)
        return [g(p) for p in parts]

    want = _raised(separate)
    assert _raised(lambda: _gap_series(f, *parts)) == want
    if want is None:
        got = [1.0 / s.derivative(2) for s in _gap_series(f, *parts)]
        assert all(np.array_equal(a, b) for a, b in zip(got, separate()))


@pytest.mark.parametrize("route", ["scalar margin", "trace", "Loewner matrix"])
def test_joined_evaluation_raises_the_first_parts_error(route):
    # the first part fails inside f (log of 0.4 - 0.5); the later part fails
    # the domain check t > 0, which one joined call would meet first
    from entrocert.certify import reverify_counterexample
    from entrocert.frechet import _layout, _loewner
    from entrocert.hermitian import _spectra_values, _zero_clamp

    f = parse("log(t-0.5)").as_function()
    first, later = np.array([[0.4, 2.0]]), np.array([[-1.0, 1.0]])
    calls = {
        "scalar margin": lambda: reverify_counterexample(
            f, {"kind": "scalar-convexity", "t": 0.4, "s": -1.0}
        ),
        "trace": lambda: _spectra_values(f, (first, later), tuple(map(_zero_clamp, (first, later)))),
        "Loewner matrix": lambda: _loewner(f, [_layout(first), _layout(later)]),
    }
    with pytest.raises(DomainError, match=r"log of non-positive value -0\.1"):
        calls[route]()
