"""A small arithmetic grammar for user-supplied scalar functions of t.

Grammar (usual precedence; ``^`` binds tightest and is right-associative)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 't' | ('log' | 'exp' | 'sqrt') '(' expr ')' | '(' expr ')'

Parsing produces a :class:`FunctionExpression`; evaluation runs on jets, so
parsed functions carry the same derivative information as registry ones.
Domain violations (log of a negative quantity, division by zero, ...) are
raised lazily at evaluation time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from .functions import ScalarFunction
from .jets import Jet

__all__ = ["ParseError", "FunctionExpression", "parse"]


class ParseError(ValueError):
    """Syntax error, carrying the offset into the source string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at offset {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


Node = Union[Literal, Variable, Neg, Call, BinOp]

_FUNCTIONS = ("log", "exp", "sqrt")

_TOKEN = re.compile(
    r"(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        assert m.lastgroup is not None
        tokens.append((m.lastgroup, m.group(m.lastgroup), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind == "op" and text == op:
            self.advance()
            return
        raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            if not math.isfinite(value := float(text)):  # overflows to inf
                raise ParseError(f"literal {text} is out of the float range", pos)
            return Literal(value)
        if kind == "name":
            if text == "t":
                return Variable()
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise ParseError(f"unknown name {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"expected a value, got {text!r}" if text else "unexpected end of input", pos)


# --------------------------------------------------------------------------
# evaluation / serialization

def _contains_var(node: Node) -> bool:
    if isinstance(node, Variable):
        return True
    if isinstance(node, (Literal,)):
        return False
    if isinstance(node, Neg):
        return _contains_var(node.operand)
    if isinstance(node, Call):
        return _contains_var(node.operand)
    return _contains_var(node.left) or _contains_var(node.right)


def _eval(node: Node, x: Jet) -> Jet:
    if isinstance(node, Literal):
        return Jet.constant(node.value)
    if isinstance(node, Variable):
        return x
    if isinstance(node, Neg):
        return -_eval(node.operand, x)
    if isinstance(node, Call):
        arg = _eval(node.operand, x)
        return getattr(arg, node.func)()
    if node.op == "+":
        return _eval(node.left, x) + _eval(node.right, x)
    if node.op == "-":
        return _eval(node.left, x) - _eval(node.right, x)
    if node.op == "*":
        return _eval(node.left, x) * _eval(node.right, x)
    if node.op == "/":
        return _eval(node.left, x) / _eval(node.right, x)
    # '^': constant exponents keep exact polynomial arithmetic where possible
    if not _contains_var(node.right):
        return _eval(node.left, x) ** _eval(node.right, Jet.constant(0.0)).value
    return _eval(node.left, x) ** _eval(node.right, x)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _to_str(node: Node, parent_prec: int = 0, right_of_same: bool = False) -> str:
    if isinstance(node, Literal):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(node, Variable):
        return "t"
    if isinstance(node, Call):
        return f"{node.func}({_to_str(node.operand)})"
    if isinstance(node, Neg):
        inner = _to_str(node.operand, _PREC["neg"])
        out = f"-{inner}"
        if parent_prec > _PREC["neg"] or right_of_same:
            return f"({out})"
        return out
    prec = _PREC[node.op]
    if node.op == "^":
        left = _to_str(node.left, prec + 1)  # left operand of ^ needs parens unless atomic
        right = _to_str(node.right, prec)
        out = f"{left}^{right}"
    else:
        # right children of same precedence are parenthesised so the
        # reparsed tree (and hence floating-point evaluation order) is
        # exactly the original
        left = _to_str(node.left, prec)
        right = _to_str(node.right, prec, right_of_same=True)
        out = f"{left}{node.op}{right}"
    if prec < parent_prec or (prec == parent_prec and right_of_same):
        return f"({out})"
    return out


@dataclass(frozen=True)
class FunctionExpression:
    """Parsed expression: evaluate on jets or render canonically."""

    root: Node

    def canonical(self) -> str:
        return _to_str(self.root)

    def taylor(self, t) -> Jet:
        """Series at t (a float, or an array of points evaluated at once)."""
        return _eval(self.root, Jet.variable(t))

    def as_function(self, zero_extension: float | None = None) -> ScalarFunction:
        canon = self.canonical()
        return ScalarFunction(
            name=canon,
            taylor=self.taylor,
            zero_extension=zero_extension,
            expression=canon,
        )


def parse(text: str) -> FunctionExpression:
    return FunctionExpression(_Parser(text).parse())
