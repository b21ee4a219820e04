"""Frame geometry at a point: metric, spin connection, torsion, curvature.

Every function takes any leading batch shape: the arrays of a block of grid
points carry one leading axis, those of a single point none, and each row of
a block equals the result for that point alone, bit for bit.  Index
conventions used throughout, after the batch axes (0-based array axes,
1-based in prose):

* ``e[mu, i]``             frame components of the coframe, e^mu_i
* ``de[mu, i, j]``         d_j e^mu_i  (derivative axes last)
* ``dde[mu, i, j, k]``     d_k d_j e^mu_i
* ``einv[i, mu]``          inverse frame, e^i_mu
* ``deinv[i, mu, j]``      d_j e^i_mu
* ``E[mu, i, j]``          (d_j e^mu_i - d_i e^mu_j) / 2
* ``omega[i, mu, nu]``     spin connection with both frame indices up,
                           antisymmetric in (mu, nu)
* ``domega[i, mu, nu, j]`` d_j omega_i^{mu nu}
* ``R[j, i, lam, sig]``    curvature two-form components

Entry grids go through :func:`eval_entries`, the one layout of stacked entry
jets: C-ordered, batch + entry grid + derivative axes, so never restacked.

Frame (Greek) indices are raised and lowered by the flat metric's sign vector,
coordinate (Latin) indices with the metric built from the frame.  The spin
connection comes from the frame-index anholonomy coefficients, with no metric
inverse; the torsion-free closure (:func:`torsion_residual`) is its round trip.

Every double-epsilon block in the package, the Kaluza appendix chain's 4D
expansion included, goes through :func:`epsilon_pair`: it sums ``n_e`` frame
factors tied to two permutation symbols over sorted index subsets only, the
``n_e`` x ``n_e`` minors of the frame against the symbols' dual tables (the
generalized Kronecker delta expansion), by one route for every ``n_e``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations
from typing import Callable, Iterable, Mapping, Sequence, Union, get_args

import numpy as np

from .expr import Expr, eval_jet, eval_monomial_sums, monomial_sum
from .jets import JetArray, jet_seed
from .jetlinalg import _signed, contract, jet_einsum, jet_matinv
from .tensors import Signature, eta, eta_signs, levi_civita

__all__ = [
    "DegenerateFrameError",
    "CoframeField",
    "CoframePoint",
    "SpinConnectionPoint",
    "CurvaturePoint",
    "OraclePoint",
    "evaluate_coframe",
    "metric_inverse",
    "spin_connection",
    "torsion_residual",
    "quadratic_block",
    "curvature",
    "einstein_density",
    "coordinate_oracle",
    "oracle_from_coframe",
    "spin_connection_via_christoffels",
    "curvature_to_coordinate",
    "kretschmann_scalar",
    "epsilon_pair",
]

_EXPR_NODES = get_args(Expr)

FieldEntry = Union[Expr, float, int, Callable]


class DegenerateFrameError(Exception):
    """Frame matrix numerically singular at the evaluated point."""


def eval_entry(entry: FieldEntry, jets: Sequence[JetArray],
               params: Mapping[str, float]) -> JetArray:
    """One field entry at the seeded coordinate jets, as a jet of their shape."""
    return eval_entries([entry], jets, params, ())


def eval_entries(entries: Iterable[FieldEntry], jets: Sequence[JetArray],
                 params: Mapping[str, float], shape: tuple[int, ...]) -> JetArray:
    """Entries in row-major order, written into zeroed C-ordered stacks of the
    jets' batch shape + ``shape`` + derivative axes, a plain number into the
    values alone; an overflow or ``0 * inf`` raises at its node.  The sums of
    monomials among them run together as one stacked program, whose jets are
    the tree walk's bit for bit; when it overflows, every entry takes the walk
    in order, so the error is the walk's."""
    batch, dim, n = jets[0].jac.shape[:-1], jets[0].dim, math.prod(shape)
    val, jac, hess = [np.zeros(batch + (n,) + (dim,) * k) for k in range(3)]
    entries = tuple(entries)
    if len(entries) != n:
        raise ValueError(f"expected {n} entries, got {len(entries)}")
    sums = {k: form for k, entry in enumerate(entries)
            if isinstance(entry, _EXPR_NODES) and (form := monomial_sum(entry))}
    with np.errstate(invalid="raise", over="raise"):
        if sums:
            try:
                out = eval_monomial_sums(list(sums.values()), jets)
            except FloatingPointError:    # the walk below names the failing node
                sums = {}
            else:
                ks = list(sums)
                val[..., ks], jac[..., ks, :], hess[..., ks, :, :] = out.val, out.jac, out.hess
        for k, entry in enumerate(entries):
            if k in sums:
                continue
            if isinstance(entry, _EXPR_NODES):
                out = eval_jet(entry, jets, params)
            elif isinstance(entry, (int, float)):
                out = entry
            elif callable(entry):
                out = entry(jets, params)
            else:
                raise TypeError(f"unsupported field entry {entry!r}")
            if isinstance(out, JetArray):
                val[..., k], jac[..., k, :], hess[..., k, :, :] = out.val, out.jac, out.hess
            else:
                val[..., k] = float(out) + 0.0    # as zeros + c: a -0.0 entry reads +0.0
    return JetArray(*[a.reshape(batch + shape + a.shape[len(batch) + 1:])
                      for a in (val, jac, hess)])


class CoframeField:
    """An m x m grid of scalar entries defining a coframe e^mu = e^mu_i dx^i.

    Entries are expression ASTs, plain numbers, or callables
    ``(jets, params) -> JetArray``.  Fields are immutable and shareable;
    evaluation is a pure function of the point.
    """

    def __init__(self, entries, signature: Signature,
                 params: Mapping[str, float] | None = None):
        m = signature.m
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != m or any(len(row) != m for row in entries):
            raise ValueError(f"expected a {m}x{m} entry grid")
        self.entries = entries
        self.signature = signature
        self.params = dict(params or {})

    @property
    def dim(self) -> int:
        return self.signature.m

    def eval_jets(self, jets: Sequence[JetArray]) -> JetArray:
        m = self.dim
        return eval_entries(chain.from_iterable(self.entries), jets, self.params, (m, m))


@dataclass(frozen=True)
class CoframePoint:
    x: tuple                 # the point's coordinates; nested per batch axis
    e: np.ndarray
    de: np.ndarray
    dde: np.ndarray
    einv: np.ndarray
    deinv: np.ndarray
    E: np.ndarray
    signature: Signature
    det: np.ndarray          # float64 scalar at a single point

    @property
    def m(self) -> int:
        return self.signature.m


@dataclass(frozen=True)
class SpinConnectionPoint:
    omega: np.ndarray    # [i, mu, nu], exactly antisymmetric in (mu, nu)
    domega: np.ndarray   # [i, mu, nu, j]
    signature: Signature

    @cached_property
    def omega_mixed(self) -> np.ndarray:
        """omega_i^mu_nu: the connection with its second frame index lowered."""
        return self.omega * eta_signs(self.signature)


@dataclass(frozen=True)
class CurvaturePoint:
    R: np.ndarray        # [j, i, lam, sig]


@dataclass(frozen=True)
class OraclePoint:
    """Textbook coordinate-chart geometry computed directly from the metric."""

    gamma: np.ndarray          # [k, i, j] Levi-Civita connection
    riemann: np.ndarray        # [a, b, c, d] = R^a_{b c d}
    ricci: np.ndarray
    scalar: np.ndarray         # float64 scalar at a single point
    einstein: np.ndarray       # mixed G^l_j
    g: np.ndarray
    ginv: np.ndarray


def _nested(x: np.ndarray) -> tuple:
    return tuple(map(_nested, x)) if x.ndim > 1 else tuple(x.tolist())


def _coframe_point_from_jets(point, ja: JetArray, signature: Signature) -> CoframePoint:
    """The frame point of the jets ``ja`` at ``point`` (a point, or an array of
    points with the jets' batch shape)."""
    e = ja.val
    x = np.asarray(point, dtype=float)
    with np.errstate(over="ignore"):    # an overflow reads inf, and inf is degenerate
        det = np.linalg.det(e)
        scale = np.prod(np.linalg.norm(e, axis=-1), axis=-1)
    bad = np.abs(det) <= 1e-12 * np.maximum(scale, 1e-300)
    if bad.any():
        n = tuple(np.argwhere(bad)[0])    # the first degenerate row
        raise DegenerateFrameError(f"degenerate frame at {tuple(x[n].tolist())}: "
                                   f"det={det[n]:.3e}, scale={scale[n]:.3e}")
    inv = jet_matinv(JetArray(e, ja.jac))
    E = 0.5 * (ja.jac - ja.jac.swapaxes(-2, -1))
    return CoframePoint(
        x=_nested(x), e=e, de=ja.jac, dde=ja.hess, einv=inv.val, deinv=inv.jac, E=E,
        signature=signature, det=det,
    )


def evaluate_coframe(field, point: Sequence[float]) -> CoframePoint:
    """The frame at a point, or at each row of an array of points."""
    jets = jet_seed(point)
    ja = field.eval_jets(jets)
    return _coframe_point_from_jets(point, ja, field.signature)


def metric_inverse(cp: CoframePoint) -> np.ndarray:
    return contract("...im,...jm->...ij", cp.einv * eta_signs(cp.signature), cp.einv)


def _connection_jets(cp: CoframePoint) -> JetArray:
    s = eta_signs(cp.signature)
    e1 = JetArray(cp.e, cp.de)
    einv1 = JetArray(cp.einv, cp.deinv)
    E1 = JetArray(cp.E, 0.5 * (cp.dde - cp.dde.swapaxes(-3, -2)))
    # anholonomy coefficients T_{sig alp bet} = eta_{sig mu} E^mu_ij e_alp^i e_bet^j
    t1 = _signed(jet_einsum("...sij,...ia,...jb->...sab", E1, einv1, einv1), s[:, None, None])
    # Ricci rotation coefficients omega_{alp mu bet} solving 2 T_{mu alp bet}
    # = omega_{alp mu bet} - omega_{bet mu alp}
    w1 = t1 + t1.transpose((1, 0, 2)) - t1.transpose((1, 2, 0))
    w_up = _signed(jet_einsum("...ai,...amn->...imn", e1, w1), s[:, None] * s)
    return (w_up - w_up.transpose((0, 2, 1))) * 0.5


def spin_connection(cp: CoframePoint) -> SpinConnectionPoint:
    """Torsion-free metric-compatible connection of the frame from the Ricci
    rotation (anholonomy) coefficients, with no metric inverse; first-order
    jets carry the first derivatives.  The torsion-free closure stays the
    round-trip test."""
    w = _connection_jets(cp)
    return SpinConnectionPoint(omega=w.val, domega=w.jac, signature=cp.signature)


def torsion_residual(cp: CoframePoint, sp: SpinConnectionPoint) -> np.ndarray:
    """2 E^mu_ij - (omega_i^mu_nu e^nu_j - omega_j^mu_nu e^nu_i); ~0 for the
    connection computed from the same frame point."""
    a = contract("...imn,...nj->...mij", sp.omega_mixed, cp.e)
    return 2.0 * cp.E - (a - a.swapaxes(-2, -1))


def quadratic_block(sp: SpinConnectionPoint) -> np.ndarray:
    """Q[i, j, lam, sig] = d_j omega_i^{lam sig} + omega_j^lam_eta omega_i^{eta sig};
    the curvature is its antisymmetrization in (i, j)."""
    return (np.einsum("...istj->...ijst", sp.domega)
            + contract("...jse,...iet->...ijst", sp.omega_mixed, sp.omega))


def curvature(sp: SpinConnectionPoint) -> CurvaturePoint:
    q = quadratic_block(sp)
    r = q.swapaxes(-4, -3) - q
    # exactly antisymmetric in (j, i) by construction; the frame pair is made
    # exact by explicit antisymmetrization
    r = 0.5 * (r - r.swapaxes(-2, -1))
    return CurvaturePoint(R=r)


@lru_cache(maxsize=None)
def _compound_tables(m: int, n_e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of the ``n_e``-th compound of an m x m frame, over the
    sorted ``n_e``-subsets S of range(m) (one empty subset at ``n_e = 0``):

    * the read-only dual table ``D[F, tail...] = eps[S[F]..., tail...]``;
    * the Leibniz terms of the minors det(e[S[F], S[Q]]) as positions in the
      frame flattened per point: entry ``[p, a, Q, F]`` addresses
      e[S[F, a], S[Q, perm_p(a)]];
    * the sign of each permutation ``perm_p``, as ``[p, 1, 1]``."""
    subsets = np.array(list(combinations(range(m), n_e)), dtype=int)    # [F, a]
    eps = levi_civita(m)
    dual = eps.reshape((m ** n_e,) + eps.shape[n_e:])[subsets @ m ** np.arange(n_e)[::-1]]
    dual.setflags(write=False)
    perms = np.array(list(permutations(range(n_e))), dtype=int)    # [p, a]
    sign = (-1.0) ** np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    rows = subsets.T[None, :, None, :]                          # S[F, a]
    cols = subsets[:, perms].transpose(1, 2, 0)[..., None]     # S[Q, perm_p(a)]
    return dual, rows * m + cols, sign[:, None, None]


def epsilon_pair(e: np.ndarray, n_e: int, coord_tail: str, frame_tail: str,
                 extras: Sequence[str], out: str, *operands) -> np.ndarray:
    """Double permutation-symbol block with ``n_e`` copies of the frame ``e``
    tied slotwise to the two symbols; ``operands`` (index strings ``extras``
    after their batch axes, letters other than ``F`` and ``Q``) follow the
    frame factors:

        eps[q..., coord_tail] eps[f..., frame_tail] e[f_1, q_1] ... e[f_n, q_n]

    summed over the tied slots.  Both symbols are antisymmetric in their
    tied slots, so the sum runs over sorted slot subsets F and Q alone, as
    ``n_e! D[Q, coord_tail] D[F, frame_tail] det(e[F, Q])``: ``D`` is the
    symbol restricted to sorted leading slots and ``det(e[F, Q])`` the
    ``n_e`` x ``n_e`` minors of the frame (its ``n_e``-th compound matrix),
    for every ``n_e``: at 0 the one minor is the empty determinant, 1, and at
    1 the minors are the frame itself.  The frame-tied dual
    ``F<frame_tail>,...QF`` is contracted first, then the rest."""
    m = e.shape[-1]
    dual, flat, sign = _compound_tables(m, n_e)
    terms = np.take(e.reshape(e.shape[:-2] + (m * m,)), flat, axis=-1)
    minors = (terms.prod(axis=-3) * sign).sum(axis=-3)    # [..., Q, F]
    tied = contract(f"F{frame_tail},...QF->...Q{frame_tail}", dual, minors)
    spec = ",".join([f"Q{coord_tail}", f"...Q{frame_tail}", *["..." + x for x in extras]])
    return math.factorial(n_e) * contract(spec + "->..." + out, dual, tied, *operands)


def einstein_density(cp: CoframePoint, curv: CurvaturePoint) -> np.ndarray:
    """Double-epsilon contraction of the curvature against m-3 frame factors;
    vanishes exactly on Einstein-vacuum frames.  Free indices: coordinate
    (up) first, frame (down) second."""
    m = cp.m
    if m < 3:
        raise ValueError("einstein density needs dimension >= 3")
    pref = 1.0 / (math.factorial(m - 3) * 4.0)
    return pref * epsilon_pair(cp.e, m - 3, "lij", "rst", ["jist"], "lr", curv.R)


def coordinate_oracle(field, point: Sequence[float]) -> OraclePoint:
    return oracle_from_coframe(evaluate_coframe(field, point))


def oracle_from_coframe(cp: CoframePoint) -> OraclePoint:
    """Christoffel/Riemann/Einstein from the metric alone, independent of the
    frame-side connection assembly; serves as cross-check oracle."""
    e2 = JetArray(cp.e, cp.de, cp.dde)
    # the one dense eta operand left: signing the frame jets would copy dde
    g2 = jet_einsum("mn,...mi,...nj->...ij", eta(cp.signature), e2, e2)
    g1 = JetArray(g2.val, g2.jac)
    dg1 = JetArray(g2.jac, g2.hess)
    ginv1 = jet_matinv(g1)
    # d_i g_lj + d_j g_li - d_l g_ij   (dg[a, b, c] = d_c g_ab)
    s1 = dg1.transpose((0, 2, 1)) + dg1 - dg1.transpose((2, 0, 1))
    gamma1 = jet_einsum("...kl,...lij->...kij", ginv1, s1) * 0.5
    gam, dgam = gamma1.val, gamma1.jac
    riem = (np.einsum("...adbc->...abcd", dgam) - np.einsum("...acbd->...abcd", dgam)
            + contract("...ace,...edb->...abcd", gam, gam)
            - contract("...ade,...ecb->...abcd", gam, gam))
    ricci = np.einsum("...abad->...bd", riem)
    scalar = contract("...bd,...bd->...", ginv1.val, ricci)
    einstein_lo = ricci - 0.5 * g1.val * np.asarray(scalar)[..., None, None]
    einstein_mixed = ginv1.val @ einstein_lo
    return OraclePoint(gamma=gam, riemann=riem, ricci=ricci, scalar=scalar,
                       einstein=einstein_mixed, g=g1.val, ginv=ginv1.val)


def spin_connection_via_christoffels(cp: CoframePoint, gamma: np.ndarray) -> np.ndarray:
    """omega_i^{mu nu} rebuilt from coordinate Christoffels; independent path
    used to validate the frame-side assembly."""
    inner = (contract("...kij,...jn->...kin", gamma, cp.einv)
             + np.einsum("...kni->...kin", cp.deinv))
    w_up = contract("...mk,...kin->...imn", cp.e, inner)
    return np.multiply(w_up, eta_signs(cp.signature), out=w_up)


def curvature_to_coordinate(cp: CoframePoint, curv: CurvaturePoint) -> np.ndarray:
    """Frame curvature converted to R^a_{b j i} with coordinate indices only."""
    e_signed = cp.e * eta_signs(cp.signature)[:, None]
    return contract("...al,...jilt,...tb->...abji", cp.einv, curv.R, e_signed)


def kretschmann_scalar(cp: CoframePoint, curv: CurvaturePoint) -> np.ndarray:
    gi = metric_inverse(cp)
    s = eta_signs(cp.signature)
    r_up = contract("...jils,...jJ,...iI->...JIls", curv.R, gi, gi)
    r_up *= s[:, None] * s
    return contract("...JIls,...JIls->...", r_up, curv.R)
