import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from vielbein import jets
from vielbein.jets import jet_seed

from conftest import fd_grad, fd_hess

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_seed_at_origin():
    js = jet_seed((0.0, 0.0, 0.0, 0.0))
    for i, j in enumerate(js):
        assert j.val == 0.0
        assert np.array_equal(j.jac, np.eye(4)[i])
        assert np.count_nonzero(j.hess) == 0


def test_product_rule_example():
    x = jet_seed((2.0, 3.0, 0.0, 0.0))
    f = x[0] * x[1]
    assert f.val == 6.0
    assert f.jac[0] == 3.0 and f.jac[1] == 2.0
    assert f.hess[0, 1] == 1.0 and f.hess[1, 0] == 1.0
    assert f.hess[0, 0] == 0.0


def test_sin_taylor_at_zero():
    x = jet_seed((0.0,))
    f = jets.sin(x[0])
    assert f.val == 0.0
    assert f.jac[0] == 1.0
    assert f.hess[0, 0] == 0.0


@pytest.mark.parametrize("seed", range(100))
def test_random_compositions_match_finite_differences(seed):
    # polynomial / trigonometric compositions, jets vs central differences
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    coeff = rng.uniform(-1, 1, size=6)

    def build(vals):
        x = vals
        a = coeff[0] * x[0] + coeff[1] * x[1] * x[0] + coeff[2]
        b = jets.sin(a) if seed % 2 else jets.cos(a)
        c = jets.exp(coeff[3] * x[1]) + b * b
        d = c / (x[0] * x[0] + 2.5)
        return d * (coeff[4] + x[m - 1]) + coeff[5] * x[0] ** 3

    point = rng.uniform(-1.2, 1.2, size=m)
    out = build(jet_seed(point))

    def f(p):
        return build([float(v) for v in p])

    scale = max(1.0, abs(out.val))
    assert np.allclose(out.jac, fd_grad(f, point), atol=1e-6 * scale)
    assert np.allclose(out.hess, fd_hess(f, point), atol=1e-5 * scale)


@given(a=finite, b=finite, c=finite, d=finite)
def test_arithmetic_keeps_hessian_symmetric(a, b, c, d):
    x = jet_seed((a, b))
    f = (x[0] * x[1] + 2.0) * (x[0] - c) + d / (x[1] * x[1] + 1.5)
    assert np.array_equal(f.hess, f.hess.T)


@given(v=st.floats(min_value=0.2, max_value=4.0))
@example(v=0.426362103620467)   # value 1.29e-4 near the root, roundoff 1.5e-16
def test_sqrt_ln_exp_chain(v):
    x = jet_seed((v,))[0]
    f = jets.ln(jets.sqrt(x) * jets.exp(x))
    # ln(sqrt(v) e^v) = v + ln(v)/2, which crosses zero near v = 0.4263
    assert math.isclose(f.val, v + math.log(v) / 2, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(f.jac[0], 1 + 0.5 / v, rel_tol=1e-12)
    assert math.isclose(f.hess[0, 0], -0.5 / v**2, rel_tol=1e-12)


def test_power_with_jet_exponent():
    x = jet_seed((2.0, 3.0))
    f = x[0] ** x[1]
    assert math.isclose(f.val, 8.0, rel_tol=1e-12)
    assert math.isclose(f.jac[0], 12.0, rel_tol=1e-12)           # b a^(b-1)
    assert math.isclose(f.jac[1], 8 * math.log(2), rel_tol=1e-12)


def test_number_to_jet_power():
    point = np.array([0.7, -0.4])
    x = jet_seed(point)
    f = 2.0 ** (x[0] * x[1])

    def g(p):
        return 2.0 ** (p[0] * p[1])

    assert math.isclose(f.val, math.exp(0.7 * -0.4 * math.log(2.0)), rel_tol=1e-15)
    assert np.allclose(f.jac, fd_grad(g, point), atol=1e-8)
    assert np.allclose(f.hess, fd_hess(g, point), atol=1e-6)
    for base in (0.0, -2.0):
        with pytest.raises(ValueError, match="math domain error"):
            base ** x[0]


def test_domain_errors():
    x = jet_seed((0.0, -1.0))
    with pytest.raises(ValueError):
        jets.sqrt(x[1])
    with pytest.raises(ValueError):
        jets.sqrt(x[0])
    with pytest.raises(ValueError):
        jets.ln(x[0])
    with pytest.raises(ZeroDivisionError):
        (x[1] + 1.0).reciprocal()
    with pytest.raises(ZeroDivisionError):
        x[1].full_like(1.0) / x[0]


def test_constant_coercion():
    x = jet_seed((1.5,))[0]
    f = 2.0 * x + 1.0 - x / 2.0 + (3.0 - x)
    assert math.isclose(f.val, 2.0 * 1.5 + 1 - 0.75 + 1.5, rel_tol=1e-12)
    assert math.isclose(f.jac[0], 2 - 0.5 - 1, rel_tol=1e-12)


@pytest.mark.parametrize("c", [0.0, -0.0, 1.0, -2.5, 1e300])
def test_rsub_keeps_the_bits_of_negate_then_add(c):
    # c - v is exactly c + (-v), signed zeros included
    signed = np.array([0.0, -0.0, 1.5, -2.25, 1e-300, -1e300, 3.0, 0.0])
    rng = np.random.default_rng(7)
    v = jets.JetArray(signed, rng.permutation(signed.repeat(2)).reshape(8, 2),
                      rng.permutation(signed.repeat(4)).reshape(8, 2, 2))
    for jet in (v, v.drop_hess()):
        got, want = c - jet, (-jet) + c
        assert got.val.tobytes() == want.val.tobytes()
        assert got.jac.tobytes() == want.jac.tobytes()
        assert (got.hess is None) == (jet.hess is None)
        if jet.hess is not None:
            assert got.hess.tobytes() == want.hess.tobytes()


def test_block_seed_and_rows():
    block = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.5]])
    xs = jet_seed(block)
    assert [x.val.shape for x in xs] == [(2,)] * 3
    assert xs[1].jac.shape == (2, 3) and xs[1].hess.shape == (2, 3, 3)
    f = jets.sin(xs[0] * xs[1]) / (xs[2] * xs[2] + 1.0)
    for n in range(2):
        one = jets.sin(jet_seed(block[n])[0] * jet_seed(block[n])[1])
        one = one / (jet_seed(block[n])[2] * jet_seed(block[n])[2] + 1.0)
        assert f.val[n] == one.val
        assert np.array_equal(f.jac[n], one.jac)
        assert np.array_equal(f.hess[n], one.hess)


def test_block_domain_error_on_any_row():
    xs = jet_seed(np.array([[1.0], [-2.0], [3.0]]))
    with pytest.raises(ValueError, match="-2.0"):
        jets.sqrt(xs[0])
    with pytest.raises(ValueError):
        jets.ln(xs[0])
    with pytest.raises(ZeroDivisionError):
        (xs[0] + 2.0).reciprocal()
