import numpy as np
import pytest

from vielbein.expr import eval_jet, parse
from vielbein.frame import eval_entries
from vielbein.jets import jet_seed
from vielbein.jetlinalg import (
    JetArray,
    chart_transfer,
    jet_einsum,
    jet_matexp,
    jet_matinv,
)
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


def test_jet_matexp_orthogonality_and_derivative():
    sig = Signature(1, 2)
    et = eta(sig)
    gen_texts = [["0", "x1 + x2^2", "0.5*x2"],
                 ["-(x1 + x2^2)", "0", "-0.3*x1*x2"],
                 ["-0.5*x2", "0.3*x1*x2", "0"]]
    # A = eta*B with B antisymmetric gives exp(A) in SO(p, q)
    b = _matrix_jets(gen_texts, POINT)
    a = jet_einsum("ab,bc->ac", et, b)
    ex = jet_matexp(a)
    assert np.abs(ex.val.T @ et @ ex.val - et).max() < 1e-13
    h = 1e-7

    import scipy.linalg as sla

    def lam(p):
        return sla.expm(et @ _eval_plain(gen_texts, p))

    for k in range(2):
        dp = np.array(POINT, float)
        dm = dp.copy()
        dp[k] += h
        dm[k] -= h
        fd = (lam(dp) - lam(dm)) / (2 * h)
        assert np.allclose(ex.jac[..., k], fd, atol=1e-6)


def test_jet_matexp_scaling_and_squaring():
    big = [["0", "3 + x1"], ["3 + x1", "0"]]
    b = _matrix_jets(big, POINT)
    ex = jet_matexp(b)
    import scipy.linalg as sla

    assert np.allclose(ex.val, sla.expm(b.val), atol=1e-12)


@pytest.mark.parametrize("where, value", [("val", np.nan), ("jac", np.inf), ("hess", np.inf),
                                          ("jac", 1e200)])
def test_jet_matexp_refuses_a_series_that_does_not_converge(where, value):
    # nan < 1e-17 is false, so a NaN term never meets the stopping test; a finite
    # 1e200 derivative still has terms of ~1e68 after 80 of them
    b = _matrix_jets([["0", "x1"], ["x1", "0"]], POINT)
    if value == 1e200:
        b = b.drop_hess()   # its products would overflow to inf
    getattr(b, where)[0, 1, ...] = value
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not converged"):
        jet_matexp(b)


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
