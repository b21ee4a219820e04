"""Small arithmetic expression language for coordinate-dependent fields.

Frames and potentials are configured as strings like ``sqrt(1 - 2*M/x2)``;
this module parses them into immutable ASTs and evaluates the ASTs over
plain floats or over :class:`~vielbein.jets.JetArray` coordinates (same code
path, so configured fields automatically come with exact derivatives).  The
coordinate jets may carry a leading batch axis, in which case one walk of the
tree evaluates the expression at every point of the block.  A field's
polynomial entries (sums of monomials, :func:`monomial_sum`) can instead run
together as one stacked program, :func:`eval_monomial_sums`, which replays the
walk's own jet arithmetic and so gives the walk's jets bit for bit.

Operator precedence, tightest first: ``^``, unary ``-``, ``* /``, ``+ -``.
Every binary operator, ``^`` included, associates to the left (``2^3^2`` is
64); a minus right after ``^`` binds only what follows it.  Functions: sin,
cos, sqrt, exp, ln.  No user-defined functions, no simplification.
"""

from __future__ import annotations

import math
import operator
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

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
    "monomial_sum",
    "eval_monomial_sums",
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
    except (ArithmeticError, ValueError) as exc:   # numpy's FloatingPointError included
        raise EvalError(str(exc), to_text(node)) from None


def _factor(node: Expr):
    """(0-based coordinate, exponent) of ``xk`` or ``xk^n`` with n an integer >= 2."""
    if isinstance(node, Coord):
        return node.index - 1, 1.0
    if (isinstance(node, BinOp) and node.op == "^" and isinstance(node.left, Coord)
            and isinstance(node.right, Num) and node.right.value >= 2.0
            and float(node.right.value).is_integer()):
        return node.left.index - 1, float(node.right.value)
    return None


def monomial_sum(node: Expr):
    """The addends of a sum of monomials, or None for any other expression.

    A sum of monomials is a left-to-right '+'/'-' chain of addends, each a
    number or ``[-] [number *] f1 * f2 * ...`` with every factor ``xk`` or
    ``xk^n`` (n an integer >= 2), at least one addend not a number: what
    ``Poly.to_expr`` prints.  A minus may also sit on the number or the first
    factor of a product (``-2*x1``, ``-x1*x2``), where the parser puts it.
    Each addend is ``(negated, number or None, factors)``, a number's factors
    empty; a bare ``xk`` is None, as the walk hands back the coordinate's own
    jet."""
    if isinstance(node, Coord):
        return None
    spine = []
    while isinstance(node, BinOp) and node.op in "+-":
        spine.append((node.op == "-", node.right))
        node = node.left
    spine.append((False, node))
    addends = []
    for negated, term in reversed(spine):
        if isinstance(term, Neg):
            negated, term = not negated, term.operand
        factors = []
        while isinstance(term, BinOp) and term.op == "*":
            factors.append(_factor(term.right))
            term = term.left
        signed = bool(factors) and isinstance(term, Neg)
        if signed:
            term = term.operand
        if isinstance(term, Num):
            coef = -float(term.value) if signed else float(term.value)
        else:
            factors.append(_factor(term))
            coef = -1.0 if signed else None     # -u is -1.0*u, bit for bit
        if None in factors:
            return None
        addends.append((negated, coef, tuple(reversed(factors))))
    return tuple(addends) if any(f for _, _, f in addends) else None


def _rows(a: np.ndarray, dim: int) -> jets.JetArray:
    """Views of jets packed one per row: value, gradient and Hessian side by
    side on the last axis."""
    return jets.JetArray(a[..., 0], a[..., 1:dim + 1],
                         a[..., dim + 1:].reshape(a.shape[:-1] + (dim, dim)))


def _put(a: np.ndarray, u: jets.JetArray) -> None:
    rows = _rows(a, u.dim)
    rows.val[...], rows.jac[...], rows.hess[...] = u.val, u.jac, u.hess


def eval_monomial_sums(sums: Sequence, coords: Sequence[jets.JetArray]) -> jets.JetArray:
    """The jets of sums of monomials (:func:`monomial_sum`) at coordinate jets
    with Hessians, stacked on one axis after the batch axes.

    The walk's own elementwise jet ops run once per step over every addend,
    so each entry's jets are :func:`eval_jet`'s bit for bit: one ``**`` per
    distinct exponent, the number (1.0 if absent; ``1.0*u`` is exact) times
    the first factor, one product per further factor, the walk's negations
    after the products, then one add per slot of the chains.  Leading numbers
    fold as the walk folds floats; a later number adds as the jet (c, -0.0,
    -0.0), and adding -0.0 is the identity.  Overflow raises as numpy's
    errstate says; the caller re-runs the walk to name the node."""
    m, dim = len(coords), coords[0].dim
    pows = defaultdict(list)          # exponent -> coordinates raised to it
    terms, consts, chains = [], [], []
    for addends in sums:
        slots, lead = [], None        # slots: (is a term, index)
        for negated, coef, factors in addends:
            if factors:
                if lead is not None:
                    consts.append(lead)
                    slots.append((False, len(consts) - 1))
                    lead = None
                for k, n in factors:
                    if n != 1.0 and k not in pows[n]:
                        pows[n].append(k)
                terms.append((factors, 1.0 if coef is None else coef, negated))
                slots.append((True, len(terms) - 1))
            elif slots:
                consts.append(-coef if negated else coef)
                slots.append((False, len(consts) - 1))
            else:                     # leading numbers, as the walk's float fold
                c = -coef if negated else coef
                lead = c if lead is None else lead + c
        chains.append(slots)

    # factor table: the coordinates, then a block of powers per exponent
    row, blocks, base = {(k, 1.0): k for k in range(m)}, [], m
    for n, ks in pows.items():
        row.update({(k, n): base + i for i, k in enumerate(ks)})
        blocks.append((slice(base, base + len(ks)), n, ks))
        base += len(ks)
    # terms with most factors first, so that each product level is a prefix
    by_len = sorted(range(len(terms)), key=lambda t: -len(terms[t][0]))
    rank = {t: r for r, t in enumerate(by_len)}
    nt = len(terms)
    levels = [[row[terms[t][0][level]] for t in by_len if len(terms[t][0]) > level]
              for level in range(len(terms[by_len[0]][0]))]
    coef = np.array([terms[t][1] for t in by_len])
    sign = np.array([-1.0 if terms[t][2] else 1.0 for t in by_len])
    # chains with most slots first, so that each slot is a prefix
    order = sorted(range(len(chains)), key=lambda e: -len(chains[e]))
    slot_rows = [[rank[i] if is_term else nt + i
                  for is_term, i in (chains[e][s] for e in order if len(chains[e]) > s)]
                 for s in range(len(chains[order[0]]))]

    # jets packed one per row, rows first: factors, then addends
    batch, width = np.shape(coords[0].val), 1 + dim + dim * dim
    f = np.empty((base,) + batch + (width,))
    _put(f[:m], jets.JetArray(*[np.array([getattr(c, a) for c in coords])
                                for a in ("val", "jac", "hess")]))
    for rows, n, ks in blocks:
        _put(f[rows], _rows(f[ks], dim) ** n)
    unit = (1,) * (len(batch) + 1)    # a number per row
    add = np.empty((nt + len(consts),) + batch + (width,))
    np.multiply(coef.reshape((-1,) + unit), f[levels[0]], out=add[:nt])
    for rows in levels[1:]:
        n = len(rows)
        _put(add[:n], _rows(add[:n], dim) * _rows(f[rows], dim))
    add[:nt] *= sign.reshape((-1,) + unit)    # x * -1.0 is -x exactly
    add[nt:] = -0.0
    add[nt:, ..., 0] = np.reshape(consts, (-1,) + unit[1:])
    acc = add[slot_rows[0]]
    for rows in slot_rows[1:]:
        acc[:len(rows)] += add[rows]
    out = _rows(acc[np.argsort(order)], dim)
    return jets.JetArray(np.moveaxis(out.val, 0, -1), np.moveaxis(out.jac, 0, -2),
                         np.moveaxis(out.hess, 0, -3))
