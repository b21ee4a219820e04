import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vielbein.expr import (
    BinOp,
    Call,
    Coord,
    EvalError,
    Neg,
    Num,
    Param,
    ParseError,
    eval_jet,
    eval_monomial_sums,
    monomial_sum,
    parse,
    to_text,
)
from vielbein import expr
from vielbein.frame import eval_entries
from vielbein.jets import JetArray, jet_seed
from vielbein.kaluza import _affine_pullback
from vielbein.solutions import random_kaluza, random_polynomial

from conftest import fd_grad, fd_hess


def test_parse_precedence_example():
    tree = parse("1 - 2*M/x2", dim=4)
    assert tree == BinOp("-", Num(1.0),
                         BinOp("/", BinOp("*", Num(2.0), Param("M")), Coord(2)))


def test_parse_and_eval_sqrt_example():
    tree = parse("sqrt(1-2*M/x2+Q^2/x2^2)", dim=4)
    val = eval_jet(tree, [0.0, 4.0, 0.0, 0.0], {"M": 1.0, "Q": 0.0})
    assert math.isclose(val, math.sqrt(0.5), rel_tol=1e-15)


def test_coordinate_out_of_range():
    with pytest.raises(ParseError) as err:
        parse("x6", dim=5)
    assert "x6" in str(err.value)
    parse("x5", dim=5)


def test_unary_minus_binds_looser_than_power():
    assert parse("-x1^2", 2) == Neg(BinOp("^", Coord(1), Num(2.0)))
    assert parse("(-x1)^2", 2) == BinOp("^", Neg(Coord(1)), Num(2.0))


def test_left_associativity():
    assert parse("1-2-3", 1) == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))
    assert parse("2^3^2", 1) == BinOp("^", BinOp("^", Num(2.0), Num(3.0)), Num(2.0))
    assert eval_jet(parse("2^3^2", 1), [0.0]) == 64.0


def test_exponent_sign():
    tree = parse("x1^-2", 1)
    assert tree == BinOp("^", Coord(1), Neg(Num(2.0)))
    assert math.isclose(eval_jet(tree, [2.0]), 0.25)


def test_scientific_literals():
    assert parse("1.5e-3", 1) == Num(0.0015)
    assert parse(".5E2", 1) == Num(50.0)


def test_syntax_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("1 + * 2", 1)
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("1 + 2 $", 1)
    assert err.value.offset == 6
    with pytest.raises(ParseError):
        parse("", 1)
    with pytest.raises(ParseError):
        parse("(1 + 2", 1)


# Each edge input with the exact tree it parses to, or the exact ParseError
# message, offset included (parsed at dim=2).
_EDGES = [
    ("x1^", "unexpected end of input (at offset 3)"),
    ("x1^-", "unexpected end of input (at offset 4)"),
    ("2*-x1^2", BinOp("*", Num(2.0), Neg(BinOp("^", Coord(1), Num(2.0))))),
    ("x1^-x2^2", BinOp("^", BinOp("^", Coord(1), Neg(Coord(2))), Num(2.0))),
    ("--x1", Neg(Neg(Coord(1)))),
    ("-x1^-2", Neg(BinOp("^", Coord(1), Neg(Num(2.0))))),
    ("sin x1", "trailing input 'x1' (at offset 4)"),
    ("x1(2)", "coordinate 'x1' is not callable (at offset 0)"),
    ("()", "unexpected token ')' (at offset 1)"),
    ("1 2", "trailing input '2' (at offset 2)"),
    ("x0", "coordinate 'x0' out of range for dimension 2 (at offset 0)"),
    ("x1^+2", "unexpected token '+' (at offset 3)"),
    ("-sin(x1)^2", Neg(BinOp("^", Call("sin", Coord(1)), Num(2.0)))),
    ("2^-3^2", BinOp("^", BinOp("^", Num(2.0), Neg(Num(3.0))), Num(2.0))),
    ("foo(x1)", "unknown function 'foo' (at offset 0)"),
    ("x1 + (2", "expected ')' (at offset 7)"),
    ("a - -b * c", BinOp("-", Param("a"), BinOp("*", Neg(Param("b")), Param("c")))),
]


@pytest.mark.parametrize("text, want", _EDGES, ids=[t for t, _ in _EDGES])
def test_parse_edge_cases(text, want):
    if isinstance(want, str):
        with pytest.raises(ParseError) as err:
            parse(text, 2)
        assert str(err.value) == want
    else:
        assert parse(text, 2) == want


def test_unknown_function():
    with pytest.raises(ParseError) as err:
        parse("foo(x1)", 2)
    assert "foo" in str(err.value)


def test_eval_jet_polynomial():
    tree = parse("x1*x1", 4)
    out = eval_jet(tree, jet_seed((3.0, 0.0, 0.0, 0.0)))
    assert out.val == 9.0
    assert out.jac[0] == 6.0
    assert out.hess[0, 0] == 2.0


def test_eval_jet_seed_passthrough():
    out = eval_jet(parse("x2", 4), jet_seed((0.0, 5.0, 0.0, 0.0)))
    assert out.val == 5.0
    assert np.array_equal(out.jac, [0.0, 1.0, 0.0, 0.0])


def test_domain_error_reports_subexpression():
    tree = parse("1 + sqrt(x2)", 4)
    with pytest.raises(EvalError) as err:
        eval_jet(tree, jet_seed((0.0, 0.0, 0.0, 0.0)))
    assert "sqrt(x2)" in str(err.value)
    with pytest.raises(EvalError) as err:
        eval_jet(parse("1/x1", 1), jet_seed((0.0,)))
    assert "1.0 / x1" in str(err.value)


@pytest.mark.parametrize("text, x1, node", [("x2 + 1/x1", 1e-310, "1.0 / x1"),
                                             ("1 + 0*exp(x1)", 1e3, "exp(x1)"),
                                             ("1 + 0.5*x1^2*x2", 1e200, "x1^2.0")])
def test_overflow_raises_at_the_node(text, x1, node):
    # the first row is finite; an overflow in the second names its node
    jets = jet_seed([[0.5, 1.0], [x1, 1.0]])
    with pytest.raises(EvalError) as err:
        eval_entries([parse(text, 2)], jets, {}, (1,))
    assert err.value.subexpr == node and "overflow" in str(err.value)


def test_unresolved_parameter():
    with pytest.raises(EvalError) as err:
        eval_jet(parse("M*x1", 1), [2.0], {})
    assert "M" in str(err.value)


def test_float_pow_rejects_complex():
    with pytest.raises(EvalError):
        eval_jet(parse("x1^0.5", 1), [-2.0])


CORPUS = [
    "1 - 2*M/x2",
    "sqrt(1 - 2*M/x2 + Q^2/x2^2)",
    "x1*sin(x3) + cos(x2)^2",
    "-x1^2 + x2^-2",
    "exp(-x1*x1/2)",
    "ln(x2 + 3) / (1 + x1^2)",
    "a*x1 + b*x2 + c",
    "((x1))",
    "1.5e-3*x1 - .5E2",
    "x1/x2/x3",
    "x1 - x2 - x3",
    "2^x1^2",
    "-(x1 + x2)",
    "sin(cos(sqrt(x2 + 5)))",
    "x1*x2*x3*x4",
    "1/(1/(1/x1))",
    "x2*sin(x3)",
    "B*x2",
    "Q/x2",
    "1/sqrt(1 - 2*M/x2)",
    "x1^2*x2^3 - x3^4",
    "-(-(-x1))",
    "(x1 + x2)*(x3 - x4)",
    "x1 + x2*x3^2/x4",
    "2.0*x1 - 3.5/x2 + 0.25",
    "exp(x1)*exp(-x1)",
    "sin(x1)^2 + cos(x1)^2",
    "sqrt(sqrt(x2 + 10))",
    "M*Q*k",
    "x1^-1",
    "1e0 + 1e1*x1 + 1e2*x2",
    "(x1 - 1)*(x1 + 1)",
    "ln(exp(x3))",
    "x4/(x3/(x2/x1))",
    "-x1*x2",
    "-x1*-x2",
    "cos(x1 - x2) - cos(x1)*cos(x2)",
    "a + b - c + d - e",
    "x1^2^3",
    "0.5*(x1 + x2)^2",
    "sqrt(x1^2 + 1) - x1",
    "sin(M*x1 + Q)",
    "x3*(x3*(x3 + 1) + 1)",
    "1 - 1/x2 + 1/x2^2 - 1/x2^3",
    "(a + b)*(a - b)/(a*a - b*b + 1)",
    "exp(ln(x2 + 2))",
    "x1/2 + x2/3 + x3/4 + x4/5",
    "-(x1^2)",
    "cos(-x2)",
    "((x1 + (x2)))*((x3))",
    "3.14159*x1^2",
]


@pytest.mark.parametrize("text", CORPUS)
def test_roundtrip_corpus(text):
    tree = parse(text, 4)
    assert parse(to_text(tree), 4) == tree


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0).map(lambda v: Num(round(v, 3))),
    st.integers(1, 4).map(Coord),
    st.sampled_from(["M", "Q", "k_0"]).map(Param),
)


def _exprs(depth):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: BinOp(*t)),
        sub.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "sqrt", "exp", "ln"]), sub)
        .map(lambda t: Call(*t)),
    )


@given(tree=_exprs(4))
def test_roundtrip_generated(tree):
    assert parse(to_text(tree), 4) == tree


@pytest.mark.parametrize("seed", range(12))
def test_eval_jet_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    texts = [
        "sin(x1)*cos(x2) + x3^3",
        "exp(x1/4)*ln(x2 + 4)",
        "sqrt(x1*x1 + x2*x2 + 1) - M*x3",
        "(x1 + x2)^2 / (x3^2 + 2)",
    ]
    tree = parse(texts[seed % 4], 3)
    params = {"M": 1.7}
    point = rng.uniform(-1.0, 1.0, size=3)
    out = eval_jet(tree, jet_seed(point), params)

    def f(p):
        return eval_jet(tree, [float(v) for v in p], params)

    scale = max(1.0, abs(out.val))
    assert np.allclose(out.jac, fd_grad(f, point), atol=1e-6 * scale)
    assert np.allclose(out.hess, fd_hess(f, point), atol=1e-5 * scale)


# Smooth trees over x1..x4: every denominator, sqrt and ln argument is shifted
# positive, so each tree is defined with all derivatives on the sampled box.
def _positive(sub):
    return st.tuples(st.floats(0.5, 2.0).map(lambda c: Num(round(c, 3))), sub).map(
        lambda t: BinOp("+", t[0], BinOp("*", t[1], t[1])))


def _smooth_exprs(depth):
    leaf = st.one_of(st.integers(1, 4).map(Coord),
                     st.floats(-1.0, 1.0).map(lambda v: Num(round(v, 3))))
    if depth == 0:
        return leaf
    sub = _smooth_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*"), sub, sub).map(lambda t: BinOp(*t)),
        st.tuples(sub, _positive(sub)).map(lambda t: BinOp("/", *t)),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: BinOp("^", t[0], Num(t[1]))),
        st.tuples(_positive(sub), st.integers(1, 2))
        .map(lambda t: BinOp("^", t[0], Neg(Num(t[1])))),
        sub.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), sub).map(lambda t: Call(*t)),
        st.tuples(st.sampled_from(["sqrt", "ln"]), _positive(sub)).map(lambda t: Call(*t)),
    )


@settings(deadline=None)
@given(tree=_smooth_exprs(3), seed=st.integers(0, 2**32 - 1))
def test_batched_jets_match_rows_and_finite_differences(tree, seed):
    block = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(5, 4))
    out = eval_jet(tree, jet_seed(block))
    if not isinstance(out, JetArray):    # a tree without coordinates is a float
        return
    for n, point in enumerate(block):
        one = eval_jet(tree, jet_seed(point))
        for got, want in ((out.val[n], one.val), (out.jac[n], one.jac),
                          (out.hess[n], one.hess)):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

        def f(p):
            return eval_jet(tree, [float(v) for v in p])

        scale = max(1.0, abs(one.val), np.abs(one.jac).max(), np.abs(one.hess).max())
        assert np.allclose(one.jac, fd_grad(f, point), atol=1e-6 * scale)
        assert np.allclose(one.hess, fd_hess(f, point), atol=1e-5 * scale)


# Sums of monomials: the recognised form, and the stacked program's jets
# against the tree walk's, bit for bit.

@pytest.mark.parametrize("text, addends", [
    ("x1", None),                                  # the walk returns the seed itself
    ("-x1", ((True, None, ((0, 1.0),)),)),
    ("1 + 0.1*x2^2", ((False, 1.0, ()), (False, 0.1, ((1, 2.0),)))),
    ("x1 - -(x2*x1^3)", ((False, None, ((0, 1.0),)), (False, None, ((1, 1.0), (0, 3.0))))),
    ("-x2*x1^3 - 2*x1", ((False, -1.0, ((1, 1.0), (0, 3.0))), (True, 2.0, ((0, 1.0),)))),
    ("-0*x1", ((False, -0.0, ((0, 1.0),)),)),
    ("0.0 - 2", None),                             # numbers only
    ("x1*2", None),                                # a number after a factor
    ("2*3*x1", None),
    ("x1^2.5", None),
    ("x1^1", None),
    ("(x1 + 1)*x2", None),                         # no product of sums is expanded
    ("x1 + (x2 + 1)", None),
    ("M*x1", None),
    ("x1/2", None),
    ("sin(x1) + x2", None),
    ("2*-x1", None),
    ("--x1 + 1", None),
    ("--x1*x2", None),
])
def test_monomial_sum_form(text, addends):
    assert monomial_sum(parse(text, 2)) == addends


_NUMBERS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                     st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 3)))
_FACTOR = st.tuples(st.integers(1, 3), st.integers(1, 5)).map(
    lambda t: Coord(t[0]) if t[1] == 1 else BinOp("^", Coord(t[0]), Num(float(t[1]))))


def _product(coef, factors, signed):
    # signed: a minus on the number, or on the first factor of two or more
    first = factors[0] if coef is None else Num(coef)
    node = Neg(first) if signed and (coef is not None or len(factors) > 1) else first
    for f in factors[int(coef is None):]:
        node = BinOp("*", node, f)
    return node


_MONOMIAL = st.builds(_product, st.one_of(st.none(), _NUMBERS),
                      st.lists(_FACTOR, min_size=1, max_size=4), st.booleans())
_ADDEND = st.tuples(st.one_of(_NUMBERS.map(Num), _MONOMIAL), st.booleans())


def _chain(lead, mono, tail, ops):
    addends = [*lead, mono, *tail]
    node = None
    for (term, negated), op in zip(addends, ops):
        term = Neg(term) if negated else term
        node = term if node is None else BinOp(op, node, term)
    return node


# leading, inner and trailing numbers around at least one monomial; bare xk excluded
_SUMS = st.builds(_chain, st.lists(_ADDEND, max_size=3), st.tuples(_MONOMIAL, st.booleans()),
                  st.lists(_ADDEND, max_size=3),
                  st.lists(st.sampled_from("+-"), min_size=7, max_size=7)
                  ).filter(lambda t: not isinstance(t, Coord))
_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(deadline=None, max_examples=150)
@given(trees=st.lists(_SUMS, min_size=1, max_size=4),
       rows=st.lists(st.tuples(_COORDS, _COORDS, _COORDS), min_size=1, max_size=3),
       batch=st.sampled_from(["point", "one", "block"]))
def test_monomial_sums_equal_the_walk_bitwise(trees, rows, batch):
    block = {"point": np.array(rows[0]), "one": np.array(rows[:1]), "block": np.array(rows)}[batch]
    jets = jet_seed(block)
    forms = [monomial_sum(t) for t in trees]
    assert None not in forms
    out = eval_monomial_sums(forms, jets)
    for k, tree in enumerate(trees):
        want = eval_jet(tree, jets)
        np.testing.assert_array_equal(_bits(out.val[..., k]), _bits(want.val))
        np.testing.assert_array_equal(_bits(out.jac[..., k, :]), _bits(want.jac))
        np.testing.assert_array_equal(_bits(out.hess[..., k, :, :]), _bits(want.hess))


@pytest.mark.parametrize("points", [(0.3, -0.2, 0.5, 0.1),
                                    [(0.3, -0.2, 0.5, 0.1), (-1.0, 0.0, 2.0, 0.5)]])
def test_monomial_sums_on_pulled_back_jets(points):
    # after a linear chart change each coordinate jet has a full gradient: the
    # program takes the jets as they are, never the seeds' unit gradients
    lin_inv = np.linalg.inv(np.eye(4) + 0.2 * np.random.default_rng(1).uniform(-1, 1, (4, 4)))
    jets = _affine_pullback(jet_seed(points), lin_inv)
    cfg = random_kaluza(seed=3)
    trees = [*itertools.chain.from_iterable(cfg.tetrad.entries), *cfg.potential]
    out = eval_monomial_sums([monomial_sum(t) for t in trees], jets)
    for k, tree in enumerate(trees):
        want = eval_jet(tree, jets)
        np.testing.assert_array_equal(_bits(out.val[..., k]), _bits(want.val))
        np.testing.assert_array_equal(_bits(out.jac[..., k, :]), _bits(want.jac))
        np.testing.assert_array_equal(_bits(out.hess[..., k, :, :]), _bits(want.hess))


def test_polynomial_fields_never_walk_the_tree(monkeypatch):
    # random polynomial frames and potentials take the stacked program for every
    # entry (seeds 0-8 have no entry that is a lone number; such an entry is a
    # float the walk returns from one node), at a point and on a block
    calls = []
    walk = expr._eval

    def spy(node, coords, params):
        calls.append(node)
        return walk(node, coords, params)

    monkeypatch.setattr(expr, "_eval", spy)
    for points in [(0.3, -0.2, 0.5, 0.1), np.random.default_rng(0).uniform(-1, 1, (16, 4))]:
        jets = jet_seed(points)
        for seed in range(9):
            random_polynomial(seed=seed).tetrad.eval_jets(jets)
            eval_entries(random_kaluza(seed=seed).potential, jets, {}, (4,))
    assert calls == []
    eval_entries([parse("sqrt(x2 + 2)", 4)], jets, {}, ())   # the spy sees the walk
    assert calls
