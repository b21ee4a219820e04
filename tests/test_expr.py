import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vielbein.expr import (
    BinOp,
    Call,
    Coord,
    EvalError,
    Neg,
    Num,
    Param,
    ParseError,
    Poly,
    eval_jet,
    eval_polynomials,
    parse,
    polynomial,
    to_text,
)
from vielbein import expr
from vielbein.frame import eval_entries
from vielbein.gauge import evaluate_gauge
from vielbein.jets import JetArray, jet_seed
from vielbein.kaluza import SIG4, SIG5
from vielbein.solutions import random_gauge_element, random_kaluza, random_polynomial

from conftest import fd_grad, fd_hess, reference_eval_polynomials


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


def test_a_shared_subtree_is_walked_once(monkeypatch):
    # the walk memoises by node identity: a subtree object held twice, in one
    # tree or by two entries of one eval_entries call, takes one sqrt, and the
    # jets are those of the trees parsed apart, bit for bit.  A failure inside
    # it still names the shared node
    sqrt, calls = expr._FUNCTIONS["sqrt"], []
    monkeypatch.setitem(expr._FUNCTIONS, "sqrt", lambda u: calls.append(u) or sqrt(u))
    lapse = parse("sqrt(x2 - 1)", 2)
    entries = [lapse, BinOp("*", lapse, BinOp("/", Num(1.0), lapse))]
    apart = [parse(to_text(e), 2) for e in entries]
    jets = jet_seed([[0.5, 2.0], [0.1, 3.5]])
    for walk, n_apart in ((lambda es: eval_jet(es[1], jets), 2),
                          (lambda es: eval_entries(es, jets, {}, (2,)), 3)):
        calls.clear()
        got = walk(entries)
        assert len(calls) == 1
        want = walk(apart)
        assert len(calls) == 1 + n_apart
        for a, b in ((got.val, want.val), (got.jac, want.jac), (got.hess, want.hess)):
            assert a.tobytes() == b.tobytes()
    with pytest.raises(EvalError) as err:
        eval_entries(entries, jet_seed([[0.5, 2.0], [0.1, 0.5]]), {}, (2,))
    assert err.value.subexpr == "sqrt(x2 - 1.0)" and "negative" in str(err.value)


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


# Polynomial entries: the recognised form as {exponents: coefficient}, and the
# coefficient-table jets against the tree walk's.  The closed-form monomial
# jets and the coefficient matmul take their own operation order, so the jets
# agree with the walk's to roundoff, not bit for bit.

@pytest.mark.parametrize("text, addends", [
    ("x1", None),                                  # the walk returns the seed itself
    ("-x1", [((1, 0), -1.0)]),
    ("1 + 0.1*x2^2", [((0, 0), 1.0), ((0, 2), 0.1)]),
    ("x1 - -(x2*x1^3)", [((1, 0), 1.0), ((3, 1), 1.0)]),
    ("-x2*x1^3 - 2*x1", [((3, 1), -1.0), ((1, 0), -2.0)]),
    ("-0*x1", [((1, 0), -0.0)]),
    ("0.0 - 2", None),                             # numbers only
    ("x1*2", [((1, 0), 2.0)]),                     # a number after a factor
    ("2*3*x1", [((1, 0), 6.0)]),
    ("x1^2.5", None),
    ("x1^1", [((1, 0), 1.0)]),
    ("(x1 + 1)*x2", None),                         # no product of sums is expanded
    ("x1 + (x2 + 1)", [((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), 1.0)]),
    ("M*x1", None),
    ("x1/2", None),
    ("sin(x1) + x2", None),
    ("2*-x1", [((1, 0), -2.0)]),                   # a minus anywhere
    ("--x1 + 1", [((1, 0), 1.0), ((0, 0), 1.0)]),
    ("--x1*x2", [((1, 1), 1.0)]),
    ("x1*x2 - x2*x1 + x1^2*x1", [((1, 1), 0.0), ((3, 0), 1.0)]),   # like monomials add
    ("x1^0", None),                                # a constant
    ("x1^-1", None),
    ("x1^2^2", None),
    ("-(x1 - 1)^2", None),
    ("-(x1*x2 + 2)", [((1, 1), -1.0), ((0, 0), -2.0)]),
    ("x1*(x2*3) - 0", [((1, 1), 3.0), ((0, 0), 0.0)]),
])
def test_monomial_sum_form(text, addends):
    # a Poly's terms in the order they appear in the chain, which fixes the
    # order in which eval_polynomials sums them
    assert polynomial(parse(text, 2), 2) == (addends and Poly(2, tuple(addends)))


_NUMBERS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                     st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 3)))
_POWER = st.tuples(st.integers(1, 4), st.integers(0, 5)).map(
    lambda t: Coord(t[0]) if t[1] == 1 else BinOp("^", Coord(t[0]), Num(float(t[1]))))


def _maybe_neg(nodes):
    return st.tuples(nodes, st.booleans()).map(lambda t: Neg(t[0]) if t[1] else t[0])


_PRODUCT = st.lists(_maybe_neg(st.one_of(_NUMBERS.map(Num), _POWER)), min_size=1, max_size=4
                    ).map(lambda fs: functools.reduce(lambda a, b: BinOp("*", a, b), fs))
# nested +/- chains of products of numbers, xk and xk^n, minus signs anywhere
_POLYS = st.recursive(
    _maybe_neg(_PRODUCT),
    lambda sub: _maybe_neg(st.tuples(st.sampled_from("+-"), sub, sub).map(lambda t: BinOp(*t))),
    max_leaves=6).filter(lambda t: polynomial(t, 4) is not None)
_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))
_BLOCKS = st.lists(st.tuples(_COORDS, _COORDS, _COORDS, _COORDS), min_size=1, max_size=3)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _magnitude(tree, jets):
    """Sum of |terms| of every jet component: the tree with every number made
    positive and every minus a plus, at coordinate jets of |values|,
    |gradients| and |Hessians|."""
    def unsigned(node):
        if isinstance(node, Num):
            return Num(abs(node.value))
        if isinstance(node, Neg):
            return unsigned(node.operand)
        if isinstance(node, BinOp):
            return BinOp("+" if node.op == "-" else node.op, unsigned(node.left),
                         unsigned(node.right))
        return node

    return eval_jet(unsigned(tree), [JetArray(abs(j.val), abs(j.jac), abs(j.hess)) for j in jets])


def _assert_the_walks_to_roundoff(out, trees, jets):
    """Each route rounds a few dozen times, each rounding within an ulp of a
    partial sum of |terms|, or of the smallest normal float where that
    underflows: the jets may differ by 64 ulps of either."""
    for k, tree in enumerate(trees):
        want, scale = eval_jet(tree, jets), _magnitude(tree, jets)
        for got, ref, mag in ((out.val[..., k], want.val, scale.val),
                              (out.jac[..., k, :], want.jac, scale.jac),
                              (out.hess[..., k, :, :], want.hess, scale.hess)):
            bound = 64 * (np.finfo(float).eps * mag + np.finfo(float).tiny)
            assert np.all(np.abs(got - ref) <= bound), to_text(tree)


@settings(deadline=None, max_examples=150)
@given(trees=st.lists(_POLYS, min_size=1, max_size=4), rows=_BLOCKS,
       batch=st.sampled_from(["point", "one", "block"]))
def test_polynomials_match_the_walk_to_roundoff(trees, rows, batch):
    block = {"point": np.array(rows[0]), "one": np.array(rows[:1]), "block": np.array(rows)}[batch]
    jets = jet_seed(block)
    out = eval_polynomials([polynomial(t, 4) for t in trees], jets)
    _assert_the_walks_to_roundoff(out, trees, jets)


@settings(deadline=None, max_examples=60)
# a block whose monomial stack is not C-ordered takes numpy's loop, not a gemm
@example(trees=[parse("-1.188*x2^3 + x2^2", 4)], rows=[(0.0,) * 4] * 4 + [(0.0, 1.0, 0.0, 0.0)])
@given(trees=st.lists(_POLYS, min_size=1, max_size=4),
       rows=st.lists(st.tuples(_COORDS, _COORDS, _COORDS, _COORDS), min_size=2, max_size=16))
def test_polynomial_block_rows_equal_their_points_bitwise(trees, rows):
    polys = [polynomial(t, 4) for t in trees]
    block = eval_polynomials(polys, jet_seed(np.array(rows)))
    for n, row in enumerate(rows):
        for points in (np.array(row), np.array([row])):     # batch () and (1,)
            one = eval_polynomials(polys, jet_seed(points))
            for got, want in ((block.val[n], one.val), (block.jac[n], one.jac),
                              (block.hess[n], one.hess)):
                np.testing.assert_array_equal(_bits(got), _bits(want.reshape(got.shape)))


_NOT_SEEDS = {
    "a missing coordinate": lambda js: js[:3],
    "swapped seeds": lambda js: [js[1], js[0], *js[2:]],
    "a scaled seed": lambda js: [js[0] * 2.0, *js[1:]],
    "a squared seed": lambda js: [js[0] * js[0], *js[1:]],   # unit gradient at x1 = 0.5
}


@pytest.mark.parametrize("points", [(0.5, -0.2, 0.3, 0.1),
                                    [(0.5, -0.2, 0.3, 0.1), (0.5, 0.0, 2.0, 0.5)]])
@pytest.mark.parametrize("case", list(_NOT_SEEDS))
def test_eval_polynomials_takes_seeded_jets_only(case, points):
    # the monomial jets at the seeds are the entries' jets, with no chain
    # rule: coordinate jets other than unit gradients and zero Hessians, one
    # per derivative axis, are refused, not evaluated wrong
    polys = [polynomial(parse("x1^3*x2 - 2*x3*x4^2 + 0.5", 4), 4)]
    seeds = jet_seed(points)
    eval_polynomials(polys, seeds)
    with pytest.raises(ValueError, match="seeded coordinate jets"):
        eval_polynomials(polys, _NOT_SEEDS[case](seeds))


def test_a_huge_exponent_takes_no_table_of_powers():
    # exponents index the powers that occur, not a dense 0..n table
    tree = parse("x1^1000000000", 4)
    jets = jet_seed((1.0, 0.5, 0.0, 0.0))
    want = eval_jet(tree, jets)
    for out in (eval_polynomials([polynomial(tree, 4)], jets),
                eval_entries([tree], jets, {}, (1,))):
        np.testing.assert_array_equal(out.val[..., 0], want.val)
        np.testing.assert_array_equal(out.jac[..., 0, :], want.jac)
        np.testing.assert_array_equal(out.hess[..., 0, :, :], want.hess)


def _assert_jets_bitwise(got, want):
    for a, b in ((got.val, want.val), (got.jac, want.jac), (got.hess, want.hess)):
        assert a.shape == b.shape
        np.testing.assert_array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("points", [(1.0, 0.3, -0.2, 0.5, 0.1),
                                    [(1.0, 0.3, -0.2, 0.5, 0.1), (-1.0, 0.0, 0.7, -0.4, 2.0),
                                     (0.0, -1.5, 0.2, 0.9, -0.3)]])
def test_tables_of_every_kind_of_entry_equal_the_reference_bitwise(points):
    # one call mixing Polys in fewer coordinates than the jets, trees of float
    # exponents, a 10^9 exponent, a zero coefficient, a constant and an empty
    # Poly: the jets of the reference's dict-built tables, bit for bit
    rng = np.random.default_rng(5)
    polys = [*[Poly.random(rng, dim, degree=3, amplitude=0.7) for dim in (2, 3, 5, 3)],
             polynomial(parse("x1^2*x3 - 0.5*x5^3 + x2*x4 + 1.25", 5), 5),
             polynomial(parse("x1*(x2*3) - 0", 5), 5),
             polynomial(parse("2*x1^1000000000 - x3^2*x1", 5), 5),
             Poly.from_dict(5, {(0,) * 5: 0.25}),
             Poly.from_dict(4, {}),
             Poly(4, (((0, 1, 0, 3), -0.25), ((2, 0, 1, 0), 1.5)))]
    assert all(p is not None for p in polys)
    jets = jet_seed(points)
    _assert_jets_bitwise(eval_polynomials(polys, jets), reference_eval_polynomials(polys, jets))


def test_tables_refuse_a_poly_in_more_coordinates_than_the_jets():
    # its extra exponents would have no coordinate to read
    polys = [Poly.from_dict(3, {(1, 0, 2): 0.5}), Poly.from_dict(5, {(0, 1, 0, 0, 1): 2.0})]
    with pytest.raises(ValueError, match="5 coordinates at 4"):
        eval_polynomials(polys, jet_seed((0.3, -0.2, 0.5, 0.1)))


@settings(deadline=None, max_examples=60)
@given(trees=st.lists(_POLYS, min_size=1, max_size=4), rows=_BLOCKS,
       seed=st.integers(0, 2**16), dims=st.lists(st.integers(1, 4), max_size=3))
def test_tables_equal_the_reference_bitwise(trees, rows, seed, dims):
    rng = np.random.default_rng(seed)
    polys = [polynomial(t, 4) for t in trees] + [Poly.random(rng, d, 3, 0.7) for d in dims]
    for points in (np.array(rows[0]), np.array(rows)):
        jets = jet_seed(points)
        _assert_jets_bitwise(eval_polynomials(polys, jets), reference_eval_polynomials(polys, jets))


@pytest.mark.parametrize("points", [(0.3, -0.2, 0.5, 0.1, 0.7),
                                    np.random.default_rng(1).uniform(-1, 1, (16, 5))])
def test_poly_entries_equal_their_trees_bitwise(points):
    # a Poly takes the tables as it is, its tree after recognition: the same
    # monomials in the same order, so the same bits.  A Poly in x1..x4 reads
    # the first four of five coordinates; the tree of a constant or of an
    # empty Poly is a number, which the walk hands back
    rng = np.random.default_rng(7)
    polys = [Poly.from_dict(5, {(0,) * 5: -0.5}),
             *[Poly.random(rng, 5, degree=3, amplitude=0.7) for _ in range(4)],
             Poly.from_dict(4, {}),
             *[Poly.random(rng, 4, degree=3, amplitude=0.7) for _ in range(4)],
             Poly.from_dict(4, {(0,) * 4: 0.25})]
    jets = jet_seed(points)
    got = eval_entries(polys, jets, {}, (len(polys),))
    want = eval_entries([p.to_expr() for p in polys], jets, {}, (len(polys),))
    for a, b in ((got.val, want.val), (got.jac, want.jac), (got.hess, want.hess)):
        np.testing.assert_array_equal(_bits(a), _bits(b))


def test_polynomial_fields_never_walk_the_tree(monkeypatch):
    # random polynomial frames, potentials and gauge elements hand Poly
    # entries, which take the coefficient tables as they are: no tree is
    # printed or walked, at a point and on a block
    calls = []
    walk, to_expr = expr._eval, Poly.to_expr

    def spy(node, coords, params, memo):
        calls.append(node)
        return walk(node, coords, params, memo)

    monkeypatch.setattr(expr, "_eval", spy)
    monkeypatch.setattr(Poly, "to_expr", lambda poly: calls.append(poly) or to_expr(poly))
    for points in [(0.3, -0.2, 0.5, 0.1), np.random.default_rng(0).uniform(-1, 1, (16, 4))]:
        jets = jet_seed(points)
        for seed in range(9):
            random_polynomial(seed=seed).tetrad.eval_jets(jets)
            eval_entries(random_kaluza(seed=seed).potential, jets, {}, (4,))
    # a chart entry, the bare coordinates of the identity chart included, is
    # read as a Poly
    for seed, sig, kind in itertools.product(range(9), [SIG4, SIG5],
                                             ["lambda", "linear", "mixed"]):
        evaluate_gauge(random_gauge_element(seed, sig, kind), (0.3, -0.2, 0.5, 0.1, 0.7)[:sig.m])
    assert calls == []
    eval_entries([parse("sqrt(x2 + 2)", 4)], jets, {}, ())   # the spy sees the walk
    assert calls
