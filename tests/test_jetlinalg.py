from itertools import chain

import numpy as np
import pytest

from vielbein.expr import eval_jet, parse
from vielbein.frame import eval_entries
from vielbein.gauge import GaugeElement, evaluate_gauge
from vielbein.jets import jet_seed
from vielbein.jetlinalg import (
    JetArray,
    chart_transfer,
    jet_cayley,
    jet_einsum,
    jet_matinv,
)
from vielbein.solutions import _seeded_rng, random_so_generator
from vielbein.tensors import Signature, eta


def _matrix_jets(texts, point, params=None):
    entries = [parse(t, len(point)) for row in texts for t in row]
    return eval_entries(entries, jet_seed(point), params or {},
                        (len(texts), len(texts[0])))


TEXTS = [["1 + x1*x2", "sin(x2)"], ["x1^2 - x2", "2 + cos(x1)*x2"]]
POINT = (0.7, -0.4)


def _eval_plain(texts, p):
    return np.array([[eval_jet(parse(t, len(p)), list(map(float, p))) for t in row]
                     for row in texts])


def test_jet_einsum_product_rule_against_fd():
    a = _matrix_jets(TEXTS, POINT)
    prod = jet_einsum("ab,bc->ac", a, a)
    h = 1e-6
    for k in range(2):
        dp = np.array(POINT, float)
        dm = dp.copy()
        dp[k] += h
        dm[k] -= h
        fd = (_eval_plain(TEXTS, dp) @ _eval_plain(TEXTS, dp)
              - _eval_plain(TEXTS, dm) @ _eval_plain(TEXTS, dm)) / (2 * h)
        assert np.allclose(prod.jac[..., k], fd, atol=1e-8)


def test_jet_einsum_constant_operands():
    a = _matrix_jets(TEXTS, POINT)
    c = np.array([[2.0, 0.0], [1.0, -1.0]])
    out = jet_einsum("ab,bc->ac", c, a)
    assert np.allclose(out.val, c @ a.val)
    assert np.allclose(out.jac[..., 0], c @ a.jac[..., 0])
    with pytest.raises(ValueError):
        jet_einsum("ab,bc->ac", c, c)       # needs a jet operand
    with pytest.raises(ValueError):
        jet_einsum("ab,bc->ac", a)          # operand count mismatch


def test_jet_einsum_hessian_channel():
    a = _matrix_jets(TEXTS, POINT)
    sq = jet_einsum("ab,bc->ac", a, a)
    # (A^2)'' entry-by-entry against jets of the squared expression grid
    jets = jet_seed(POINT)
    grid = [[eval_jet(parse(TEXTS[i][k], 2), jets) for k in range(2)] for i in range(2)]
    direct = [[grid[i][0] * grid[0][k] + grid[i][1] * grid[1][k] for k in range(2)]
              for i in range(2)]
    for i in range(2):
        for k in range(2):
            assert np.allclose(sq.hess[i, k], direct[i][k].hess, atol=1e-13)
            assert np.allclose(sq.hess[i, k], sq.hess[i, k].T)


def test_jet_matinv_derivatives():
    a = _matrix_jets(TEXTS, POINT)
    inv = jet_matinv(a)
    assert np.allclose(inv.val @ a.val, np.eye(2), atol=1e-14)
    h = 1e-6
    for k in range(2):
        dp = np.array(POINT, float)
        dm = dp.copy()
        dp[k] += h
        dm[k] -= h
        fd = (np.linalg.inv(_eval_plain(TEXTS, dp))
              - np.linalg.inv(_eval_plain(TEXTS, dm))) / (2 * h)
        assert np.allclose(inv.jac[..., k], fd, atol=1e-7)
    # second derivatives: compare against jets of the closed-form inverse
    det_t = "((1 + x1*x2)*(2 + cos(x1)*x2) - sin(x2)*(x1^2 - x2))"
    closed = [[f"(2 + cos(x1)*x2)/{det_t}", f"-sin(x2)/{det_t}"],
              [f"-(x1^2 - x2)/{det_t}", f"(1 + x1*x2)/{det_t}"]]
    ref = _matrix_jets(closed, POINT)
    assert np.allclose(inv.hess, ref.hess, atol=1e-11)


@pytest.mark.parametrize("sig", [Signature(1, 2), Signature(1, 3), Signature(2, 2),
                                 Signature(1, 4)])
def test_jet_cayley_lies_in_so_pq_on_a_block(sig):
    m = sig.m
    et = eta(sig)
    gen = random_so_generator(_seeded_rng(7 + m), sig, amplitude=1.0, degree=2)
    pts = np.array([[0.6 * (k - 1) + 0.1 * i for i in range(m)] for k in range(3)])
    lam = jet_cayley(eval_entries(chain.from_iterable(gen), jet_seed(pts), {}, (m, m)))
    for k, pt in enumerate(pts):
        val = lam.val[k]
        assert np.abs(val.T @ et @ val - et).max() < 4e-15
        assert np.linalg.det(val) == pytest.approx(1.0, abs=1e-14)
        alone = jet_cayley(eval_entries(chain.from_iterable(gen), jet_seed(pt), {}, (m, m)))
        for got, ref in ((lam.val[k], alone.val), (lam.jac[k], alone.jac),
                         (lam.hess[k], alone.hess)):
            assert np.array_equal(got, ref)


def test_jet_cayley_exact_jets_of_a_plane_rotation():
    # the Cayley transform of t*J, J = [[0, 1], [-1, 0]], in closed form
    t = "(sin(x1) + x1*x2^2 - 0.4*x2)"
    c, s = f"(1 - {t}^2/4)/(1 + {t}^2/4)", f"{t}/(1 + {t}^2/4)"
    lam = jet_cayley(_matrix_jets([["0", t], [f"-{t}", "0"]], POINT))
    ref = _matrix_jets([[c, s], [f"-{s}", c]], POINT)
    for got, want in ((lam.val, ref.val), (lam.jac, ref.jac), (lam.hess, ref.hess)):
        assert np.abs(got - want).max() < 1e-13


def test_jet_cayley_raises_on_a_singular_generator():
    # a boost generator of parameter 2 makes I - A/2 singular
    ge = GaugeElement(signature=Signature(1, 1), generator=((0.0, 2.0), (2.0, 0.0)))
    with pytest.raises(np.linalg.LinAlgError):
        evaluate_gauge(ge, POINT)


@pytest.mark.parametrize("slope", [0.0, 1.0])
def test_jet_cayley_raises_when_the_inverse_overflows(slope):
    # I - A/2 is finite with determinant 2^-52, so its inverse holds
    # 5e299 * 2^52: an overflow, which raises rather than warns or reads inf,
    # whether the generator's derivatives vanish or not
    a = np.zeros((2, 2))
    a[0, 1], a[1, 0] = 1e300, 4e-300 * (1 - 2.0 ** -52)
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        jet_cayley(JetArray(a, np.full((2, 2, 2), slope), np.full((2, 2, 2, 2), slope)))


@pytest.mark.parametrize("where, value", [("val", np.nan), ("jac", np.inf), ("hess", np.inf)])
def test_jet_cayley_refuses_a_non_finite_entry(where, value):
    # an infinite generator would map to -I, and a NaN one would pass through
    b = _matrix_jets([["0", "x1"], ["x1", "0"]], POINT)
    getattr(b, where)[0, 1, ...] = value
    with pytest.raises(ValueError, match="non-finite"):
        jet_cayley(b)


def test_chart_transfer_quadratic_map():
    # scalar field F known in the target chart; transfer of (F o map) jets
    # must reproduce the field's own jets at the image point
    map_texts = ["x1 + 0.3*x2^2", "x2 - 0.2*x1*x2"]
    f_text = "sin(x1)*x2 + x1^2"
    jets = jet_seed(POINT)
    mapped = [eval_jet(parse(t, 2), jets) for t in map_texts]
    jmat = np.stack([m.jac for m in mapped])
    dj = np.stack([m.hess for m in mapped])
    k = np.linalg.inv(jmat)
    dk = -np.einsum("ib,bch,ca->iah", k, dj, k)

    composed = eval_jet(parse(f_text, 2), mapped)   # jets in the source chart
    q = JetArray(np.array(composed.val), composed.jac, composed.hess)
    out = chart_transfer(q, k, dk)

    target = eval_jet(parse(f_text, 2), jet_seed([m.val for m in mapped]))
    assert np.allclose(out.val, target.val)
    assert np.allclose(out.jac, target.jac, atol=1e-12)
    assert np.allclose(out.hess, target.hess, atol=1e-12)


def test_jetarray_add_transpose():
    a = _matrix_jets(TEXTS, POINT)
    t = a.transpose((1, 0))
    assert np.allclose(t.val, a.val.T)
    assert np.allclose(t.jac[..., 1], a.jac[..., 1].T)
    s = a + t - a
    assert np.allclose(s.val, t.val)
    n = (-a) * 2.0
    assert np.allclose(n.val, -2 * a.val)
    d1 = a.drop_hess()
    assert d1.hess is None and a.hess is not None
    assert (a + d1).hess is None
