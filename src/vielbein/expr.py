"""Small arithmetic expression language for coordinate-dependent fields.

Frames and potentials are configured as strings like ``sqrt(1 - 2*M/x2)``;
this module parses them into immutable ASTs and evaluates the ASTs over
plain floats or over :class:`~vielbein.jets.JetArray` coordinates (same code
path, so configured fields automatically come with exact derivatives).  The
coordinate jets may carry a leading batch axis, in which case one walk of the
tree evaluates the expression at every point of the block.

Operator precedence, tightest first: ``^``, unary ``-``, ``* /``, ``+ -``.
Binary operators of equal precedence associate to the left.  Functions:
sin, cos, sqrt, exp, ln.  No user-defined functions, no simplification.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from . import jets

__all__ = [
    "Expr",
    "Num",
    "Coord",
    "Param",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ParseError",
    "EvalError",
    "parse",
    "to_text",
    "eval_jet",
]


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int  # 1-based


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Coord, Param, Neg, BinOp, Call]

_FUNCTIONS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "sqrt": jets.sqrt,
    "exp": jets.exp,
    "ln": jets.ln,
}

_COORD_RE = re.compile(r"x(\d+)\Z")
_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, dim: int):
        self.tokens = tokens
        self.dim = dim
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node = BinOp("^", node, self.parse_exponent())
            else:
                return node

    def parse_exponent(self) -> Expr:
        # allow a sign directly after '^' (e.g. x2^-2) without giving the
        # minus scope over the whole power chain
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.parse_exponent())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            coord = _COORD_RE.match(text)
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if coord:
                    raise ParseError(f"coordinate {text!r} is not callable", off)
                if text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", off)
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(text, arg)
            if coord:
                index = int(coord.group(1))
                if not 1 <= index <= self.dim:
                    raise ParseError(
                        f"coordinate {text!r} out of range for dimension {self.dim}", off
                    )
                return Coord(index)
            return Param(text)
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse(text: str, dim: int) -> Expr:
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text), dim)
    node = parser.parse_expr()
    kind, text_, off = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text_!r}", off)
    return node


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def to_text(node: Expr) -> str:
    """Canonical printer; parse(to_text(parse(s))) == parse(s)."""
    return _print(node, 0)


def _print(node: Expr, parent_prec: int) -> str:
    if isinstance(node, Num):
        text, prec = repr(node.value), _PREC["atom"]
    elif isinstance(node, Coord):
        text, prec = f"x{node.index}", _PREC["atom"]
    elif isinstance(node, Param):
        text, prec = node.name, _PREC["atom"]
    elif isinstance(node, Call):
        text, prec = f"{node.func}({_print(node.arg, 0)})", _PREC["atom"]
    elif isinstance(node, Neg):
        prec = _PREC["neg"]
        text = "-" + _print(node.operand, prec)
    elif isinstance(node, BinOp):
        prec = _PREC[node.op]
        # left-associative: the right operand needs strictly tighter binding
        left, right = _print(node.left, prec), _print(node.right, prec + 1)
        text = f"{left}^{right}" if node.op == "^" else f"{left} {node.op} {right}"
    else:  # pragma: no cover
        raise TypeError(f"not an Expr node: {node!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


def eval_jet(node: Expr, coords: Sequence, params: Mapping[str, float] | None = None):
    """Evaluate over JetArray coordinates (or plain floats) and named parameters."""
    return _eval(node, coords, params or {})


def _apply_binop(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if isinstance(a, jets.JetArray) or isinstance(b, jets.JetArray):
        return a ** b
    return math.pow(a, b)  # rejects negative base with fractional exponent


def _eval(node: Expr, coords, params):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Coord):
        return coords[node.index - 1]
    if isinstance(node, Param):
        try:
            return float(params[node.name])
        except KeyError:
            raise EvalError(f"unresolved parameter {node.name!r}", to_text(node)) from None
    if isinstance(node, Neg):
        return -_eval(node.operand, coords, params)
    if isinstance(node, BinOp):
        a = _eval(node.left, coords, params)
        b = _eval(node.right, coords, params)
        try:
            return _apply_binop(node.op, a, b)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalError(str(exc), to_text(node)) from None
    if isinstance(node, Call):
        arg = _eval(node.arg, coords, params)
        try:
            return _FUNCTIONS[node.func](arg)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalError(str(exc), to_text(node)) from None
    raise TypeError(f"not an Expr node: {node!r}")  # pragma: no cover
