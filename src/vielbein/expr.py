"""Small arithmetic expression language for coordinate-dependent fields.

Frames and potentials are configured as strings like ``sqrt(1 - 2*M/x2)``;
this module parses them into immutable ASTs and evaluates the ASTs over
plain floats or over :class:`~vielbein.jets.JetArray` coordinates (same code
path, so configured fields automatically come with exact derivatives).  The
coordinate jets may carry a leading batch axis, in which case one walk of the
tree evaluates the expression at every point of the block.  :class:`Poly` is
the one polynomial type: random fields hand their entries as Polys, which
:func:`random_polys` draws, :func:`polynomial` reads a tree of polynomial
form into one, and :func:`eval_polynomials` runs Polys together as coefficient tables at the
seeded coordinate jets of :func:`~vielbein.jets.jet_seed`: closed-form
monomial jets, one matmul per point, jets equal to the walk's to roundoff.

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

import numpy as np

from . import jets, pcg

__all__ = [
    "Expr",
    "Num",
    "Coord",
    "Param",
    "Neg",
    "BinOp",
    "Call",
    "Poly",
    "ExprError",
    "ParseError",
    "EvalError",
    "parse",
    "to_text",
    "eval_jet",
    "polynomial",
    "eval_polynomials",
    "random_polys",
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


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial in x1..x{dim}, the package's one polynomial format:
    one (exponents, coefficient) term per distinct monomial, exponents
    non-negative ints.  Field entries may be Polys, which
    :func:`eval_polynomials` evaluates as they are; :func:`polynomial` reads an
    expression tree into one."""

    dim: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    @staticmethod
    def from_dict(dim: int, coeffs: Mapping[tuple[int, ...], float]) -> "Poly":
        items = tuple(sorted((tuple(e), float(c)) for e, c in coeffs.items() if c != 0.0))
        return Poly(dim, items)

    @staticmethod
    def random(rng: pcg.Stream, dim: int, degree: int, amplitude: float) -> "Poly":
        """Four random monomials of degree <= ``degree``, each times
        amplitude * U(-1, 1) / 4: one draw of :func:`random_polys`."""
        return random_polys(rng, dim, degree, amplitude, (0.0,))[0]

    def grad(self, i: int) -> "Poly":
        """Exact partial derivative along coordinate i (0-based)."""
        coeffs: dict[tuple[int, ...], float] = {}
        for exps, c in self.terms:
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            key = tuple(new)
            coeffs[key] = coeffs.get(key, 0.0) + c * exps[i]
        return Poly.from_dict(self.dim, coeffs)

    def scale(self, c: float) -> "Poly":
        return Poly.from_dict(self.dim, {e: c * v for e, v in self.terms})

    def to_expr(self) -> Expr:
        """The terms as a '+'/'-' chain in their order, each ``|c| * xk^n...``,
        which :func:`polynomial` reads back term for term."""
        if not self.terms:
            return Num(0.0)
        out: Expr | None = None
        for exps, c in self.terms:
            node: Expr = Num(abs(c))
            for i, n in enumerate(exps):
                if n == 0:
                    continue
                power: Expr = Coord(i + 1)
                if n > 1:
                    power = BinOp("^", power, Num(float(n)))
                node = BinOp("*", node, power)
            if out is None:
                out = Neg(node) if c < 0 else node
            else:
                out = BinOp("-" if c < 0 else "+", out, node)
        return out


def random_polys(rng: pcg.Stream, dim: int, degree: int, amplitude: float,
                 offsets: Sequence[float]) -> list[Poly]:
    """One Poly in x1..x{dim} per offset, drawn in a row: four terms of
    :func:`~vielbein.pcg.draw_terms`, each coefficient times amplitude / 4,
    plus the offset."""
    terms = pcg.draw_terms(rng, dim, degree, 4 * len(offsets))
    polys, zero = [], (0,) * dim
    for j, offset in enumerate(offsets):
        coeffs: dict[tuple[int, ...], float] = {}
        for key, u in terms[4 * j:4 * j + 4]:
            coeffs[key] = coeffs.get(key, 0.0) + u * amplitude / 4
        if offset:
            coeffs[zero] = coeffs.get(zero, 0.0) + float(offset)
        polys.append(Poly.from_dict(dim, coeffs))
    return polys


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
    """Evaluate over JetArray coordinates (or plain floats) and named parameters.
    A node object reached twice, as a subtree shared by two parents, is walked
    once: the walk memoises by node identity."""
    return _eval(node, coords, params or {}, {})


def _eval(node: Expr, coords, params, memo: dict):
    """The walk below ``node``; ``memo`` maps the id of each operator node
    walked so far to (node, value), and holding the node keeps its id from
    being reused while the memo lives."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Coord):
        return coords[node.index - 1]
    if isinstance(node, Param):
        try:
            return float(params[node.name])
        except KeyError:
            raise EvalError(f"unresolved parameter {node.name!r}", to_text(node)) from None
    if id(node) in memo:
        return memo[id(node)][1]
    if isinstance(node, Neg):
        func, args = operator.neg, (_eval(node.operand, coords, params, memo),)
    elif isinstance(node, BinOp):
        func, args = _BINOPS[node.op][1], (_eval(node.left, coords, params, memo),
                                            _eval(node.right, coords, params, memo))
    elif isinstance(node, Call):
        func, args = _FUNCTIONS[node.func], (_eval(node.arg, coords, params, memo),)
    else:  # pragma: no cover
        raise TypeError(f"not an Expr node: {node!r}")
    try:
        out = func(*args)
    except (ArithmeticError, ValueError) as exc:   # numpy's FloatingPointError included
        raise EvalError(str(exc), to_text(node)) from None
    memo[id(node)] = node, out
    return out


def polynomial(node: Expr, dim: int) -> Poly | None:
    """The :class:`Poly` in x1..x{dim}, terms in the order they appear, of a
    '+'/'-' chain, nested or not, of products of numbers, ``xk`` and ``xk^n``
    (n a non-negative integer), a minus anywhere; else None.  No product of
    sums is expanded: ``(x1 + 1)*x2`` is None, as are a bare ``xk`` and a
    constant, which the walk hands back at no cost."""
    if type(node) is Coord:
        return None
    terms: dict[tuple[float, ...], float] = {}
    addends = [(node, 1.0)]
    while addends:                   # exact types: this runs per entry per call
        node, coef = addends.pop()
        while type(node) is Neg or type(node) is BinOp and node.op in "+-":
            if type(node) is Neg:
                coef, node = -coef, node.operand
            else:
                addends.append((node.right, -coef if node.op == "-" else coef))
                node = node.left
        exps, factors = [0.0] * dim, [node]
        while factors:
            f = factors.pop()
            if type(f) is BinOp and f.op == "*":
                factors += (f.left, f.right)
            elif type(f) is Neg:
                coef = -coef
                factors.append(f.operand)
            elif type(f) is Num:
                coef *= f.value
            else:
                n = 1.0
                if type(f) is BinOp and f.op == "^" and type(f.right) is Num:
                    f, n = f.left, float(f.right.value)
                if not (type(f) is Coord and f.index <= dim and n >= 0 and n.is_integer()):
                    return None
                exps[f.index - 1] += n
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + coef
    return Poly(dim, tuple(terms.items())) if any(map(any, terms)) else None


def eval_polynomials(polys: Sequence[Poly], coords: Sequence[jets.JetArray]) -> jets.JetArray:
    """The jets of polynomials at the seeded coordinate jets of
    :func:`~vielbein.jets.jet_seed`, stacked on one axis after the batch
    axes; a Poly in fewer coordinates than the jets reads x1..x{its dim},
    one in more raises ValueError.
    Each distinct monomial's jet in closed form, one matmul per point of the
    coefficient matrix against them.  Jets that are not seeds (a gradient
    other than a unit vector, a Hessian other than zero, a dimension other
    than ``len(coords)``) raise ValueError.  The jets are :func:`eval_jet`'s
    to roundoff; each batch row is its point alone bit for bit (elementwise
    steps, one gemm per row).  Overflow raises as numpy's errstate says, and
    a non-finite jet as FloatingPointError, so the caller can re-run the walk
    to name the node."""
    m = len(coords)
    du = np.stack([c.jac for c in coords], -2)
    if (du.shape[-1] != m or (du != np.eye(m)).any()
            or any(c.hess is None or c.hess.any() for c in coords)):
        raise ValueError("polynomial entries are evaluated at seeded coordinate jets only")
    # one pass over the terms: each distinct monomial (padded to m exponents)
    # takes a column in order of first appearance, each term a coefficient
    cols: dict[tuple, int] = {}
    rows, at, vals = [], [], []
    for i, poly in enumerate(polys):
        if poly.dim > m:
            raise ValueError(f"a Poly in {poly.dim} coordinates at {m} coordinate jets")
        pad = (0,) * (m - poly.dim)
        for e, c in poly.terms:
            rows.append(i)
            at.append(cols.setdefault(e + pad, len(cols)))
            vals.append(c)
    coef = np.zeros((len(polys), len(cols) or 1))
    coef[rows, at] = vals
    # per coordinate k its distinct exponents a, sorted, as (k, a) pairs, and
    # each monomial's pair per k; per pair u^a, a u^(a-1), a(a-1) u^(a-2),
    # from one power u^(a-2) (1 for a <= 2) and two products
    ks, a, pick = [], [], []
    for k, column in enumerate(zip(*(cols or [(0,) * m]))):
        pair = {x: len(a) + j for j, x in enumerate(sorted(set(column)))}
        ks += [k] * len(pair)
        a += pair
        pick.append([pair[x] for x in column])
    a, pick = np.array(a, dtype=float), np.array(pick)
    u = np.stack([c.val for c in coords], -1)[..., ks]
    batch = u.shape[:-1]
    low = np.power(u, np.maximum(a - 2.0, 0.0))
    mid = low * np.where(a >= 2.0, u, 1.0)
    tab = np.stack([mid * np.where(a >= 1.0, u, 1.0), a * mid,
                    a * np.maximum(a - 1.0, 0.0) * low], -2)   # batch + (order, pair)

    # monomial jets packed one per column (value, gradient, Hessian): a slot
    # takes from the factor in x_k its derivative of the order at which k
    # appears in the slot
    eye = np.eye(m, dtype=int)
    order = np.concatenate([0 * eye[:1], eye, (eye[:, None] + eye).reshape(-1, m)]).T
    mono = np.ones(batch + order.shape[1:] + pick.shape[1:])   # C order: one gemm a row
    for k in range(m):
        mono *= tab[..., order[k][:, None], pick[k]]
    out = np.matmul(coef, mono.swapaxes(-1, -2))
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite jet of a polynomial entry")
    return jets.JetArray(out[..., 0], out[..., 1:m + 1],
                         out[..., m + 1:].reshape(out.shape[:-1] + (m, m)))
