from itertools import chain

import numpy as np
import pytest

from vielbein.expr import Poly
from vielbein.frame import epsilon_pair
from vielbein.gauge import evaluate_gauge
from vielbein.jetlinalg import JetArray, contract, jet_einsum, jet_matinv
from vielbein.tensors import eta, eta_signs, levi_civita


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a point array."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (f(xp) - f(xm)) / (2 * h)
    return out


def fd_hess(f, x, h=1e-4):
    """Central-difference Hessian of a scalar function of a point array."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                out[i, i] = (f(x + _unit(n, i, h)) - 2 * f(x) + f(x - _unit(n, i, h))) / h**2
            else:
                xpp = x.copy(); xpp[i] += h; xpp[j] += h
                xpm = x.copy(); xpm[i] += h; xpm[j] -= h
                xmp = x.copy(); xmp[i] -= h; xmp[j] += h
                xmm = x.copy(); xmm[i] -= h; xmm[j] -= h
                out[i, j] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h**2)
    return out


def poly_value(p, x):
    """A ``Poly`` summed term by term in floats, a reference apart from its
    expression tree."""
    total = 0.0
    for exps, c in p.terms:
        v = c
        for xi, n in zip(x, exps):
            v *= xi ** n
        total += v
    return total


def _unit(n, i, h):
    u = np.zeros(n)
    u[i] = h
    return u


# Independent oracles the tests compare the library against; the library
# itself does not need them.

def metric(cp):
    """g_ij = eta_mn e^m_i e^n_j."""
    et = eta(cp.signature)
    return np.einsum("mn,mi,nj->ij", et, cp.e, cp.e)


def sigma(cp):
    """Sigma^p_{ji} = e^p_lam E^lam_{ij} (note the flip of the lower pair)."""
    return np.einsum("pl,lij->pji", cp.einv, cp.E)


def gauge_transform_E(cp, ge):
    """Gauge law acting on the antisymmetrized-derivative block directly."""
    gp = evaluate_gauge(ge, cp.x)
    lam, dlam = gp.lam.val, gp.lam.jac
    hom = np.einsum("sih,ms,hk,ij->mjk", cp.E, lam, gp.k.val, gp.k.val, optimize=True)
    inh = 0.5 * np.einsum("si,msh,hk,ij->mjk", cp.e, dlam, gp.k.val, gp.k.val, optimize=True)
    return hom + inh - inh.transpose(0, 2, 1)


def connection_via_metric(cp):
    """omega_i^{mu nu} with its first derivatives (a first-order JetArray),
    assembled through the coordinate metric: Sigma^p_ji = e^p_lam E^lam_ij
    with its displayed slots raised and lowered by g, then returned to frame
    indices."""
    et = eta(cp.signature)
    e1 = JetArray(cp.e, cp.de)
    de1 = JetArray(cp.de, cp.dde)
    einv1 = JetArray(cp.einv, cp.deinv)
    E1 = (de1 - de1.transpose((0, 2, 1))) * 0.5
    g1 = jet_einsum("mn,mi,nj->ij", et, e1, e1)
    ginv1 = jet_matinv(g1)
    sig1 = jet_einsum("pl,lij->pji", einv1, E1)
    # in-place raising/lowering of the displayed slots: Sigma_j^p_i, Sigma_ij^p
    t2 = jet_einsum("ja,pb,abi->pji", g1, ginv1, sig1)
    t3 = jet_einsum("ia,ajc,cp->pji", g1, sig1, ginv1)
    bracket = sig1 - t2 + t3
    w_mixed = jet_einsum("mp,pji,jn->imn", e1, bracket, einv1)
    w_up = jet_einsum("ims,sn->imn", w_mixed, et)
    return (w_up - w_up.transpose((0, 2, 1))) * 0.5


def em_stress_chart(cp, fs):
    """Electromagnetic stress T^l_r through the coordinate chart: F raised by
    the inverse metric, F.F plus F^l_j F^j_i, pulled back by e^i_r."""
    gi = dense_metric_inverse(cp)
    f = fs.f_coord
    f_up = contract("...aj,...bi,...ji->...ab", gi, gi, f)
    fsq = contract("...ji,...ji->...", f, f_up)
    fmix = gi @ f                      # F^a_b
    return (0.25 * fsq[..., None, None] * cp.einv
            + contract("...lj,...ji,...ir->...lr", fmix, fmix, cp.einv))


def el_residual_connection(section):
    """Euler-Lagrange block multiplying the connection variations; vanishes
    exactly when the section is kinematically admissible (torsion-free
    closure)."""
    cp = section.cp
    wmix = section.sp.omega_mixed
    u = cp.de + np.einsum("jre,el->rlj", wmix, cp.e)
    return epsilon_pair(cp.e, "lij", "rst", ["rlj"], "ist", u)


# The library applies the flat metric as its sign vector; these are its
# formulas with eta as a dense contraction operand, which they must equal.

def dense_connection(cp):
    """omega_i^{mu nu} with its first derivatives, lowered and raised by eta."""
    et = eta(cp.signature)
    e1 = JetArray(cp.e, cp.de)
    einv1 = JetArray(cp.einv, cp.deinv)
    E1 = JetArray(cp.E, 0.5 * (cp.dde - cp.dde.swapaxes(-3, -2)))
    t1 = jet_einsum("sm,...mij,...ia,...jb->...sab", et, E1, einv1, einv1)
    w1 = t1 + t1.transpose((1, 0, 2)) - t1.transpose((1, 2, 0))
    w_up = jet_einsum("...ai,ms,nb,...asb->...imn", e1, et, et, w1)
    return (w_up - w_up.transpose((0, 2, 1))) * 0.5


def dense_omega_mixed(sp):
    return contract("...imn,ns->...ims", sp.omega, eta(sp.signature))


def dense_metric_inverse(cp):
    return contract("mn,...im,...jn->...ij", eta(cp.signature), cp.einv, cp.einv)


def dense_kretschmann(cp, curv):
    """R_{ji ls} R^{ji ls}, the coordinate pair raised by the dense inverse
    metric and the frame pair by eta as a contraction operand."""
    gi = dense_metric_inverse(cp)
    et = eta(cp.signature)
    r_up = contract("...jils,...jJ,...iI->...JIls", curv, gi, gi)
    r_up = contract("...JIls,lL,sS->...JILS", r_up, et, et)
    return contract("...JIls,...JIls->...", r_up, curv)


def dense_christoffel_omega(cp, gamma):
    inner = (contract("...kij,...jn->...kin", gamma, cp.einv)
             + np.einsum("...kni->...kin", cp.deinv))
    w_mixed = contract("...mk,...kin->...imn", cp.e, inner)
    return contract("...ims,sn->...imn", w_mixed, eta(cp.signature))


def dense_curvature_to_coordinate(cp, curv):
    mixed = contract("...jils,st->...jilt", curv, eta(cp.signature))
    return contract("...al,...jilt,...tb->...abji", cp.einv, mixed, cp.e)


def dense_field_strength_up(f_frame, sig):
    """F^{mu nu} and F^mu_nu from F_{mu nu}."""
    et = eta(sig)
    return et @ f_frame @ et, et @ f_frame


def dense_fup1(kp):
    """F^{ab} with its first derivatives, built from the potential's jets at the
    Kaluza point ``kp`` and raised by two eta operands."""
    cp, da, dda = kp.cp, kp.pot.jac, kp.pot.hess
    et = eta(cp.signature)
    f1 = JetArray(da - da.swapaxes(-2, -1), dda - dda.swapaxes(-3, -2))
    einv1 = JetArray(cp.einv, cp.deinv)
    return jet_einsum("am,bn,...ji,...jm,...in->...ab", et, et, f1, einv1, einv1)


def dense_epsilon_pair(e, n_e, coord_tail, frame_tail, extras, out, *operands,
                       absolute=False):
    """``frame.epsilon_pair`` as one dense contraction of two Levi-Civita
    tables and ``n_e`` frame copies; with ``absolute``, the same sum over the
    absolute values of its terms."""
    qs, fs = "ABCDEFGH"[:n_e], "IJKLMNOP"[:n_e]
    inputs = [qs + coord_tail, fs + frame_tail]
    inputs += ["..." + f + q for f, q in zip(fs, qs)] + ["..." + x for x in extras]
    eps = levi_civita(e.shape[-1])
    ops = [eps, eps, *[e] * n_e, *operands]
    if absolute:
        ops = [np.abs(op) for op in ops]
    # intermediates of up to 2**20 entries, where numpy's default limit would
    # fall back to one naive loop over every index
    return np.einsum(",".join(inputs) + "->..." + out, *ops, optimize=("greedy", 2**20))


# Random fields drawn call by call through a generator's ``integers`` and
# ``uniform``, as numpy's Generator makes each draw: the reference for the
# library's inline draw loop, which must give the same Polys from the same stream.

def reference_random_poly(rng, dim, degree, amplitude):
    """Four random monomials of degree <= ``degree``, each times amplitude * U(-1, 1) / 4."""
    coeffs = {}
    for _ in range(4):
        exps = [0] * dim
        for _ in range(int(rng.integers(0, degree + 1))):
            exps[int(rng.integers(0, dim))] += 1
        key = tuple(exps)
        coeffs[key] = coeffs.get(key, 0.0) + float(rng.uniform(-1, 1)) * amplitude / 4
    return Poly.from_dict(dim, coeffs)


def reference_shift(p, offset):
    coeffs = dict(p.terms)
    zero = (0,) * p.dim
    coeffs[zero] = coeffs.get(zero, 0.0) + offset
    return Poly.from_dict(p.dim, coeffs)


def reference_frame_entries(seed, amplitude, dim):
    """The entry grid of ``random_polynomial(seed, amplitude, dim)``."""
    rng = np.random.default_rng(seed)
    entries = [[reference_random_poly(rng, dim, 3, amplitude) for _ in range(dim)]
               for _ in range(dim)]
    for mu in range(dim):
        entries[mu][mu] = reference_shift(entries[mu][mu], 1.0)
    return entries


def reference_so_generator(rng, sig, amplitude=0.3, degree=2):
    """The entry grid of ``random_so_generator``: A = eta * B, B antisymmetric."""
    m, signs = sig.m, eta_signs(sig)
    entries = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            p = reference_random_poly(rng, m, degree, amplitude)
            entries[i][j] = Poly.from_dict(m, {e: signs[i] * c for e, c in p.terms})
            entries[j][i] = Poly.from_dict(m, {e: -signs[j] * c for e, c in p.terms})
    return tuple(tuple(row) for row in entries)


def reference_eval_polynomials(polys, coords):
    """``expr.eval_polynomials`` with its tables built from dict lookups, one
    monomial and one (coordinate, exponent) pair at a time: the reference
    whose jets the library's array-built tables must give bit for bit."""
    m = len(coords)
    rows = [{e + (0,) * (m - poly.dim): c for e, c in poly.terms} for poly in polys]
    monos = list(dict.fromkeys(chain.from_iterable(rows))) or [(0,) * m]
    coef = np.array([[row.get(e, 0.0) for e in monos] for row in rows])
    pairs = sorted({(k, a) for e in monos for k, a in enumerate(e)})
    at = {pair: i for i, pair in enumerate(pairs)}
    ks, a = np.array(pairs).T
    u = np.stack([c.val for c in coords], -1)[..., ks.astype(int)]
    batch = u.shape[:-1]
    low = np.power(u, np.maximum(a - 2.0, 0.0))
    mid = low * np.where(a >= 2.0, u, 1.0)
    tab = np.stack([mid * np.where(a >= 1.0, u, 1.0), a * mid,
                    a * np.maximum(a - 1.0, 0.0) * low], -2)
    eye = np.eye(m, dtype=int)
    order = np.concatenate([0 * eye[:1], eye, (eye[:, None] + eye).reshape(-1, m)]).T
    mono = np.ones(batch + order.shape[1:] + (len(monos),))
    for k in range(m):
        mono *= tab[..., order[k][:, None], [at[k, e[k]] for e in monos]]
    out = np.matmul(coef, mono.swapaxes(-1, -2))
    return JetArray(out[..., 0], out[..., 1:m + 1],
                    out[..., m + 1:].reshape(out.shape[:-1] + (m, m)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
