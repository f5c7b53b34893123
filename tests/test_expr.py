import math

import pytest
from hypothesis import given, settings, strategies as st

from entrocert.expr import ParseError, parse
from entrocert.jets import DomainError


def ev(text, t):
    return parse(text).as_function()(t)


@pytest.mark.parametrize(
    "text,ref",
    [
        ("t*log(t)", lambda t: t * math.log(t)),
        ("-log(t)", lambda t: -math.log(t)),
        ("t^2", lambda t: t * t),
        ("t^1.5", lambda t: t**1.5),
        ("exp(t) - 1", lambda t: math.exp(t) - 1.0),
        ("2*t + 1", lambda t: 2 * t + 1.0),
        ("-sqrt(t)", lambda t: -math.sqrt(t)),
        ("t^2/(t+1)", lambda t: t * t / (t + 1.0)),
        ("1/t + t", lambda t: 1.0 / t + t),
        ("t^-0.5", lambda t: t**-0.5),
        ("t^(3/2)", lambda t: t**1.5),
        ("2^t", lambda t: 2.0**t),
        ("t*(t - 3) + 4", lambda t: t * (t - 3.0) + 4.0),
        ("1e-2 * t", lambda t: 0.01 * t),
    ],
)
def test_evaluation_matches_python(text, ref):
    for t in (0.3, 1.0, 2.5, 9.0):
        assert ev(text, t) == pytest.approx(ref(t), rel=1e-12)


def test_precedence_and_associativity():
    # ^ binds tighter than unary minus and is right-associative
    assert ev("-t^2", 3.0) == -9.0
    # variable exponents route through exp(p*log(b)), exact only to rounding
    assert ev("2^t^2", 2.0) == pytest.approx(2.0**4.0, rel=1e-12)
    assert ev("2 - 3 - 4", 1.0) == -5.0
    assert ev("2 / 4 / 2", 1.0) == 0.25
    assert ev("2 + 3 * 4 ^ 2", 1.0) == 50.0


def test_canonical_round_trip_is_stable():
    for text in [
        "t*log(t)",
        "-(t + 1)*exp(-t)",
        "2^t^2",
        "((t))",
        "1 - t - 2",
        "-t^2",
        "t/(1/t)",
        "sqrt(t)*sqrt(t)",
    ]:
        one = parse(text).canonical()
        two = parse(one).canonical()
        assert one == two
        # canonical form evaluates identically to the original
        for t in (0.7, 2.0):
            assert ev(one, t) == pytest.approx(ev(text, t), rel=1e-13)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as e:
        parse("t + ")
    assert e.value.position == 4
    with pytest.raises(ParseError):
        parse("(t")
    with pytest.raises(ParseError):
        parse("t t")
    with pytest.raises(ParseError):
        parse("foo(t)")
    with pytest.raises(ParseError):
        parse("t + $")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("log t")
    with pytest.raises(ParseError) as e:
        parse("t^1e400")  # the literal overflows to inf
    assert e.value.position == 2


def test_domain_errors_surface_at_evaluation():
    f = parse("log(t - 2)").as_function()
    assert f(3.0) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        f(1.0)


def test_as_function_zero_extension():
    f = parse("t^2").as_function(zero_extension=0.0)
    assert f(0.0) == 0.0
    assert f.name == f.expression == parse("t^2").canonical()
    g = parse("t^2").as_function()
    with pytest.raises(DomainError):
        g(0.0)


def test_derivatives_propagate_through_parse():
    f = parse("t*log(t)").as_function()
    t = 1.9
    assert f.d1(t) == pytest.approx(math.log(t) + 1.0, rel=1e-13)
    assert f.d2(t) == pytest.approx(1.0 / t, rel=1e-13)
    assert f.d3(t) == pytest.approx(-1.0 / t**2, rel=1e-13)


# random expression trees: canonical() round-trips and evaluates identically

_leaf = st.sampled_from(["t", "2", "0.5", "3"])


def _grow(inner):
    ops = st.sampled_from(["+", "-", "*", "/"])
    return st.one_of(
        st.tuples(st.just("bin"), ops, inner, inner),
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("call"), st.sampled_from(["log", "exp", "sqrt"]), inner),
    )


def _render(tree) -> str:
    if isinstance(tree, str):
        return tree
    if tree[0] == "bin":
        return f"({_render(tree[2])} {tree[1]} {_render(tree[3])})"
    if tree[0] == "neg":
        return f"-({_render(tree[1])})"
    return f"{tree[1]}({_render(tree[2])})"


@settings(max_examples=40, deadline=None)
@given(st.recursive(_leaf, _grow, max_leaves=8))
def test_random_trees_round_trip(tree):
    text = _render(tree)
    fe = parse(text)
    canon = fe.canonical()
    assert parse(canon).canonical() == canon
    for t in (0.6, 1.4):
        try:
            a = fe.as_function()(t)
        except DomainError:
            continue
        b = parse(canon).as_function()(t)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12) or (
            math.isinf(a) and math.isinf(b)
        )
