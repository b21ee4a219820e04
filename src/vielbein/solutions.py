"""Exact and randomized field configurations with known properties.

Every verification suite draws its fixtures from here: closed-form
solutions (flat space, accelerated chart, static black holes, charged
black holes) plus seeded random polynomial frames, potentials and gauge
elements for identity-level checks that hold regardless of any field
equation; their entries are :class:`~vielbein.expr.Poly` tables, which the
frame layer evaluates as they are.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import BinOp, Expr, Num, Poly, parse, random_polys
from .frame import CoframeField
from .pcg import _PCG64, Stream
from .tensors import Signature, eta_signs

__all__ = [
    "Poly",
    "NamedSolution",
    "minkowski",
    "rindler",
    "schwarzschild",
    "reissner_nordstrom",
    "constant_F",
    "random_polynomial",
    "random_kaluza",
    "EM_COUPLING_K2",
    "SOLUTIONS",
    "make_solution",
]

# Coupling between the charge normalization A_t = Q/r and the geometric
# field equations, fixed once by requiring the charged-black-hole residual
# to vanish (see scripts/calibrate_constants.py) and validated everywhere.
EM_COUPLING_K2 = 4.0


@dataclass(frozen=True)
class NamedSolution:
    """A coframe field plus optional electromagnetic data and known flags.

    flags: subset of {"vacuum", "flat", "einstein_maxwell", "maxwell"}.
    ``box`` bounds the coordinate ranges over which the stated properties
    are verified (horizons and axes excluded).
    """

    name: str
    tetrad: CoframeField
    params: Mapping[str, float]
    flags: frozenset[str]
    box: tuple[tuple[float, float], ...]
    potential: tuple | None = None
    k: float | None = None
    domain_constraint: Callable[[Sequence[float]], bool] | None = None

    def contains(self, point: Sequence[float]) -> bool:
        inside = all(lo <= x <= hi for x, (lo, hi) in zip(point, self.box))
        if inside and self.domain_constraint is not None:
            inside = self.domain_constraint(point)
        return inside

    def sample_points(self, rng: Stream, n: int) -> list[tuple[float, ...]]:
        pts = []
        while len(pts) < n:
            p = tuple(float(rng.uniform(lo, hi)) for lo, hi in self.box)
            if self.contains(p):
                pts.append(p)
        return pts

    def kaluza_config(self):
        if self.potential is None:
            return None
        from .kaluza import KaluzaConfig

        return KaluzaConfig(tetrad=self.tetrad, potential=self.potential,
                            k=self.k if self.k is not None else math.sqrt(EM_COUPLING_K2),
                            params=dict(self.params))


def _diag_field(texts: Sequence[str | float | Expr], signature: Signature,
                params: Mapping[str, float]) -> CoframeField:
    m = signature.m
    entries = [[0.0] * m for _ in range(m)]
    for i, t in enumerate(texts):
        entries[i][i] = parse(t, m) if isinstance(t, str) else t
    return CoframeField(entries, signature, params)


def _static_spherical(lapse: str, params: Mapping[str, float]) -> CoframeField:
    """diag(N, 1/N, r, r sin(theta)) with r = x2 and theta = x3; the radial
    entry divides by the lapse tree N itself, so a block walks N once."""
    n = parse(lapse, 4)
    return _diag_field([n, BinOp("/", Num(1.0), n), "x2", "x2*sin(x3)"],
                       Signature(1, 3), params)


def minkowski(dim: int = 4) -> NamedSolution:
    return NamedSolution(
        name="minkowski",
        tetrad=_diag_field([1.0] * dim, Signature(1, dim - 1), {}),
        params={},
        flags=frozenset({"vacuum", "flat"}),
        box=((-2.0, 2.0),) * dim,
    )


def rindler() -> NamedSolution:
    return NamedSolution(
        name="rindler",
        tetrad=_diag_field(["x2", 1.0, 1.0, 1.0], Signature(1, 3), {}),
        params={},
        flags=frozenset({"vacuum", "flat"}),
        box=((-2.0, 2.0), (0.5, 3.0), (-2.0, 2.0), (-2.0, 2.0)),
    )


def schwarzschild(M: float = 1.0) -> NamedSolution:
    if M <= 0:
        raise ValueError("mass must be positive")
    tetrad = _static_spherical("sqrt(1 - 2*M/x2)", {"M": M})
    margin = 0.3
    return NamedSolution(
        name="schwarzschild",
        tetrad=tetrad,
        params={"M": M},
        flags=frozenset({"vacuum"}),
        box=((-2.0, 2.0), (2.0 * M + 0.5, 12.0), (margin, math.pi - margin), (0.1, 6.0)),
        domain_constraint=lambda p: math.sin(p[2]) > 0.05,
    )


def reissner_nordstrom(M: float = 1.0, Q: float = 0.5) -> NamedSolution:
    if M <= 0 or M * M < Q * Q:
        raise ValueError("need M > 0 and M^2 >= Q^2 for an outer static domain")
    params = {"M": M, "Q": Q}
    tetrad = _static_spherical("sqrt(1 - 2*M/x2 + Q^2/x2^2)", params)
    r_plus = M + math.sqrt(M * M - Q * Q)
    margin = 0.3
    return NamedSolution(
        name="reissner_nordstrom",
        tetrad=tetrad,
        params=params,
        flags=frozenset({"einstein_maxwell", "maxwell"} | ({"vacuum"} if Q == 0 else set())),
        box=((-2.0, 2.0), (r_plus + 0.5, 12.0), (margin, math.pi - margin), (0.1, 6.0)),
        potential=(parse("Q/x2", 4), 0.0, 0.0, 0.0),
        k=math.sqrt(EM_COUPLING_K2),
        domain_constraint=lambda p: math.sin(p[2]) > 0.05,
    )


def constant_F(B: float = 1.0) -> NamedSolution:
    """Flat tetrad with a linear potential: constant field strength, trivially
    divergence-free but not an Einstein-Maxwell solution."""
    return NamedSolution(
        name="constant_F",
        tetrad=_diag_field([1.0] * 4, Signature(1, 3), {}),
        params={"B": B},
        flags=frozenset({"flat", "vacuum", "maxwell"}),
        box=((-2.0, 2.0),) * 4,
        potential=(parse("B*x2", 4), 0.0, 0.0, 0.0),
        k=1.0,
    )


def _seeded_rng(seed: int) -> _PCG64:
    """The generator behind every seeded draw: numpy's ``default_rng(seed)`` stream."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return _PCG64(seed)


def random_polynomial(seed: int = 0, amplitude: float = 0.1, dim: int = 4) -> NamedSolution:
    """Identity plus bounded degree-<=3 polynomial perturbation; smooth and
    nondegenerate on the unit box, with nonvanishing second derivatives."""
    identity = [float(mu == i) for mu in range(dim) for i in range(dim)]
    polys = random_polys(_seeded_rng(seed), dim, 3, amplitude, identity)
    entries = [polys[mu * dim:(mu + 1) * dim] for mu in range(dim)]
    sig = Signature(1, dim - 1)
    return NamedSolution(
        name="random_polynomial",
        tetrad=CoframeField(entries, sig),
        params={"seed": seed, "amplitude": amplitude},
        flags=frozenset(),
        box=((-1.0, 1.0),) * dim,
    )


def random_kaluza(seed: int = 0, amplitude: float = 0.1, k: float = 1.3):
    """Random smooth tetrad + potential + coupling; not a solution of
    anything, which is the point for identity-level suites."""
    from .kaluza import KaluzaConfig

    rng = _seeded_rng(seed)
    base = random_polynomial(seed=seed + 104729, amplitude=amplitude, dim=4)
    potential = tuple(random_polys(rng, 4, 3, amplitude, (0.0,) * 4))
    return KaluzaConfig(tetrad=base.tetrad, potential=potential, k=k, params={})


def random_so_generator(rng: Stream, sig: Signature,
                        amplitude: float = 0.3, degree: int = 2):
    """Entry grid A with eta*A antisymmetric: its Cayley transform lies in SO(p, q).

    Built as A = eta*B with B an antisymmetric matrix of bounded random
    polynomials, so pseudo-orthogonality is exact up to roundoff while the
    position dependence supplies nontrivial derivatives.
    """
    m = sig.m
    signs = eta_signs(sig)
    entries = [[0.0] * m for _ in range(m)]
    polys = iter(random_polys(rng, m, degree, amplitude, (0.0,) * (m * (m - 1) // 2)))
    for i in range(m):
        for j in range(i + 1, m):
            p = next(polys)
            entries[i][j] = p.scale(signs[i])
            entries[j][i] = p.scale(-signs[j])
    return tuple(tuple(row) for row in entries)


def random_gauge_element(seed: int, sig: Signature, kind: str = "mixed",
                         amplitude: float = 0.3):
    """Random gauge element: frame rotation and/or chart change.

    kinds: "lambda" (position-dependent rotation, identity chart), "linear"
    (constant rotation, invertible linear chart), "mixed" (both, with a
    quadratic chart perturbation).  Rotations are Cayley transforms of
    :func:`random_so_generator` grids; chart entries are Polys, transferred exactly.
    """
    from .gauge import GaugeElement

    rng = _seeded_rng(seed)
    m = sig.m
    degree = 0 if kind == "linear" else 2
    generator = random_so_generator(rng, sig, amplitude=amplitude, degree=degree)

    coord_map = None
    if kind in ("linear", "mixed"):
        lin = np.eye(m) + 0.25 * rng.uniform(-1, 1, size=(m, m))
        rows = []
        for a in range(m):
            coeffs = {tuple(1 if c == i else 0 for c in range(m)): lin[a, i]
                      for i in range(m)}
            if kind == "mixed":
                bump = Poly.random(rng, m, degree=2, amplitude=0.1 * amplitude)
                for e, v in bump.terms:
                    coeffs[e] = coeffs.get(e, 0.0) + v
            rows.append(Poly.from_dict(m, coeffs))
        coord_map = tuple(rows)

    return GaugeElement(signature=sig, generator=generator, coord_map=coord_map)


SOLUTIONS: dict[str, Callable[..., NamedSolution]] = {
    "minkowski": minkowski,
    "rindler": rindler,
    "schwarzschild": schwarzschild,
    "reissner_nordstrom": reissner_nordstrom,
    "constant_F": constant_F,
    "random_polynomial": random_polynomial,
}


def make_solution(name: str, params: Mapping[str, float] | None = None) -> NamedSolution:
    try:
        factory = SOLUTIONS[name]
    except KeyError:
        raise ValueError(f"unknown solution {name!r}; have {sorted(SOLUTIONS)}") from None
    return factory(**(params or {}))
