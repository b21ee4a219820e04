"""Local frame rotations combined with coordinate-chart changes.

A gauge element pairs a pseudo-orthogonal matrix field, the Cayley transform
of a generator with eta-antisymmetric entries, with an optional polynomial
coordinate map.  Transforms act on evaluated points; the
new chart derivatives come from the chain rule through jets.

The map and its Jacobian run as polynomials through
:func:`~vielbein.expr.eval_polynomials`, so the inverse Jacobian is built
from the Jacobian's own jets and every transformed block, the frame's second
derivatives included, is exact at any degree of the map.  A chart entry
that is not a polynomial in the coordinates raises :class:`GaugeError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .frame import (
    CoframePoint,
    SpinConnectionPoint,
    _EXPR_NODES,
    _coframe_point_from_jets,
    eval_entries,
)
from .expr import Coord, Poly, eval_polynomials, polynomial, to_text
from .jets import JetArray, jet_seed
from .jetlinalg import _signed, chart_transfer, jet_cayley, jet_einsum, jet_matinv
from .tensors import Signature, eta, eta_signs

__all__ = [
    "GaugeError",
    "GaugeElement",
    "GaugePointData",
    "evaluate_gauge",
    "gauge_transform_frame",
    "gauge_transform_omega",
]


class GaugeError(Exception):
    pass


@dataclass(frozen=True)
class GaugeElement:
    """Lambda(x) in SO(p, q) plus a coordinate map x -> xbar.

    ``generator`` is an entry grid A with eta*A antisymmetric, taken to
    Lambda = (I - A/2)^-1 (I + A/2) at evaluation (the zero grid gives I);
    ``coord_map=None`` means the identity chart.  Neither grid takes
    parameters: the chart entries are polynomials in the coordinates alone.
    """

    signature: Signature
    generator: tuple
    coord_map: tuple | None = None


@dataclass(frozen=True)
class GaugePointData:
    """All gauge ingredients evaluated at one base point."""

    xbar: np.ndarray       # (m,), the point in the new chart
    lam: JetArray          # (m, m) second order
    k: JetArray            # inverse Jacobian dx^i / dxbar^a, second order
    det_j: float


def evaluate_gauge(ge: GaugeElement, point: Sequence[float]) -> GaugePointData:
    """The gauge element at one point of m coordinates; anything else, a
    batch of points included, raises ValueError."""
    m = ge.signature.m
    x = np.asarray(point, dtype=float)
    if x.shape != (m,):
        raise ValueError(f"a gauge element is evaluated at one point of {m} coordinates, "
                         f"not at an array of shape {x.shape}")
    jets = jet_seed(x)
    at = tuple(x.tolist())    # as messages print it

    lam = jet_cayley(eval_entries(chain.from_iterable(ge.generator), jets, {}, (m, m)))

    et = eta(ge.signature)
    defect = np.abs(lam.val.T @ et @ lam.val - et).max()
    # the roundoff of Lambda^T eta Lambda grows like max|Lambda|^2; a NaN fails
    if not defect <= 1e-12 * max(1.0, np.abs(lam.val).max()) ** 2:
        raise GaugeError(f"Lambda not pseudo-orthogonal at {at}: defect {defect:.2e}")

    # the identity chart maps by the coordinates themselves
    coord_map = [Coord(i + 1) for i in range(m)] if ge.coord_map is None else ge.coord_map
    if len(coord_map) != m:
        raise ValueError(f"coordinate map needs {m} entries")
    polys = [_chart_poly(entry, m) for entry in coord_map]
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = eval_polynomials(polys + [p.grad(i) for p in polys for i in range(m)], jets)
    except FloatingPointError as exc:
        raise GaugeError(f"coordinate map at {at}: {exc}") from None
    # the Jacobian's own jets: its second derivatives are the map's third
    jmat = JetArray(*(a[m:].reshape((m, m) + a.shape[1:]) for a in (out.val, out.jac, out.hess)))

    det_j = float(np.linalg.det(jmat.val))
    if abs(det_j) < 1e-12:
        raise GaugeError(f"singular coordinate map at {at}")
    kj = jet_matinv(jmat)
    return GaugePointData(xbar=out.val[:m], lam=lam, k=kj, det_j=det_j)


def _chart_poly(entry, m: int) -> Poly:
    """A chart entry as a Poly in x1..x{m}: a Poly, a number, a coordinate or
    a tree that :func:`~vielbein.expr.polynomial` reads."""
    if type(entry) is Poly and entry.dim <= m:
        return Poly(m, tuple((e + (0,) * (m - entry.dim), c) for e, c in entry.terms))
    if isinstance(entry, (int, float)):
        return Poly.from_dict(m, {(0,) * m: entry})
    if type(entry) is Coord and entry.index <= m:
        return Poly(m, ((tuple(int(i == entry.index - 1) for i in range(m)), 1.0),))
    poly = isinstance(entry, _EXPR_NODES) and polynomial(entry, m)
    if not poly:
        text = to_text(entry) if isinstance(entry, _EXPR_NODES) else repr(entry)
        raise GaugeError(f"coordinate map entry '{text}' is not a polynomial in x1..x{m}")
    return poly


def gauge_transform_frame(cp: CoframePoint, ge: GaugeElement) -> CoframePoint:
    """Push the evaluated frame through e -> Lambda e K, re-expressing all
    derivative blocks in the new chart."""
    gp = evaluate_gauge(ge, cp.x)
    e2 = JetArray(cp.e, cp.de, cp.dde)
    p = jet_einsum("ms,si,ib->mb", gp.lam, e2, gp.k)
    pbar = chart_transfer(p, gp.k)
    return _coframe_point_from_jets(gp.xbar, pbar, cp.signature)


def gauge_transform_omega(sp: SpinConnectionPoint, cp: CoframePoint,
                          ge: GaugeElement) -> SpinConnectionPoint:
    """Connection gauge law: homogeneous rotation plus the -Lambda^{-1} dLambda
    inhomogeneity, with the derivative block chained into the new chart."""
    gp = evaluate_gauge(ge, cp.x)
    lam1 = gp.lam.drop_hess()
    dlam1 = JetArray(gp.lam.jac, gp.lam.hess)
    linv1 = jet_matinv(lam1)
    w1 = JetArray(sp.omega, sp.domega)
    t1 = jet_einsum("ms,ng,ji,jsg->imn", lam1, lam1, gp.k, w1)
    t2 = _signed(jet_einsum("an,mah,hi->imn", linv1, dlam1, gp.k), eta_signs(sp.signature))
    wbar = t1 - t2
    wbar = chart_transfer(wbar, gp.k)
    wbar = (wbar - wbar.transpose((0, 2, 1))) * 0.5
    return SpinConnectionPoint(omega=wbar.val, domega=wbar.jac, signature=sp.signature)

