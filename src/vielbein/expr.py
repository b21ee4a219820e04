"""Small arithmetic expression language for coordinate-dependent fields.

Frames and potentials are configured as strings like ``sqrt(1 - 2*M/x2)``;
this module parses them into immutable ASTs and evaluates the ASTs over
plain floats or over :class:`~vielbein.jets.JetArray` coordinates (same code
path, so configured fields automatically come with exact derivatives).  The
coordinate jets may carry a leading batch axis, in which case one walk of the
tree evaluates the expression at every point of the block.

Operator precedence, tightest first: ``^``, unary ``-``, ``* /``, ``+ -``.
Every binary operator, ``^`` included, associates to the left (``2^3^2`` is
64); a minus right after ``^`` binds only what follows it.  Functions: sin,
cos, sqrt, exp, ln.  No user-defined functions, no simplification.
"""

from __future__ import annotations

import math
import operator
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


def _pow(a, b):
    if isinstance(a, jets.JetArray) or isinstance(b, jets.JetArray):
        return a ** b
    return math.pow(a, b)  # rejects negative base with fractional exponent


# Each binary operator's precedence (higher binds tighter) and function, read
# by the parser, the printer and the evaluator; unary minus sits below '^'.
_BINOPS = {
    "+": (1, operator.add),
    "-": (1, operator.sub),
    "*": (2, operator.mul),
    "/": (2, operator.truediv),
    "^": (4, _pow),
}
_NEG_PREC, _ATOM_PREC = 3, 5

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

    def expect_op(self, op: str):
        _, text, off = self.tokens[self.i]
        if text != op:
            raise ParseError(f"expected {op!r}", off)
        self.i += 1

    def parse_binary(self, min_prec: int) -> Expr:
        """Precedence climbing: the longest expression from here whose binary
        operators all bind at least as tightly as ``min_prec``.  A leading
        minus takes an operand at its own precedence, or at ``min_prec`` when
        that is tighter: a minus right after '^' binds only what follows it."""
        if self.tokens[self.i][1] == "-":
            self.i += 1
            node = Neg(self.parse_binary(max(min_prec, _NEG_PREC)))
        else:
            node = self.parse_atom()
        while True:
            op = self.tokens[self.i][1]
            prec = _BINOPS[op][0] if op in _BINOPS else 0
            if prec < min_prec:
                return node
            self.i += 1
            # prec + 1: every operator associates to the left, '^' included
            node = BinOp(op, node, self.parse_binary(prec + 1))

    def parse_atom(self) -> Expr:
        kind, text, off = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            coord = _COORD_RE.match(text)
            if self.tokens[self.i][1] == "(":
                if coord:
                    raise ParseError(f"coordinate {text!r} is not callable", off)
                if text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", off)
                self.i += 1
                arg = self.parse_binary(1)
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
        if text == "(":
            node = self.parse_binary(1)
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse(text: str, dim: int) -> Expr:
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text), dim)
    node = parser.parse_binary(1)
    kind, text_, off = parser.tokens[parser.i]
    if kind != "end":
        raise ParseError(f"trailing input {text_!r}", off)
    return node


def to_text(node: Expr) -> str:
    """Canonical printer; parse(to_text(parse(s))) == parse(s)."""
    return _print(node, 0)


def _print(node: Expr, parent_prec: int) -> str:
    if isinstance(node, Num):
        text, prec = repr(node.value), _ATOM_PREC
    elif isinstance(node, Coord):
        text, prec = f"x{node.index}", _ATOM_PREC
    elif isinstance(node, Param):
        text, prec = node.name, _ATOM_PREC
    elif isinstance(node, Call):
        text, prec = f"{node.func}({_print(node.arg, 0)})", _ATOM_PREC
    elif isinstance(node, Neg):
        prec = _NEG_PREC
        text = "-" + _print(node.operand, prec)
    elif isinstance(node, BinOp):
        prec = _BINOPS[node.op][0]
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
        func, args = _BINOPS[node.op][1], (_eval(node.left, coords, params),
                                            _eval(node.right, coords, params))
    elif isinstance(node, Call):
        func, args = _FUNCTIONS[node.func], (_eval(node.arg, coords, params),)
    else:  # pragma: no cover
        raise TypeError(f"not an Expr node: {node!r}")
    try:
        return func(*args)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise EvalError(str(exc), to_text(node)) from None
