"""Exact and randomized field configurations with known properties.

Every verification suite draws its fixtures from here: closed-form
solutions (flat space, accelerated chart, static black holes, charged
black holes) plus seeded random polynomial frames and potentials for
identity-level checks that hold regardless of any field equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr
from .expr import Expr, parse
from .frame import CoframeField
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
class Poly:
    """Sparse polynomial with exact gradient, expressible as an AST."""

    dim: int
    terms: tuple[tuple[tuple[int, ...], float], ...]  # (exponents, coeff)

    @staticmethod
    def from_dict(dim: int, coeffs: Mapping[tuple[int, ...], float]) -> "Poly":
        items = tuple(sorted((tuple(e), float(c)) for e, c in coeffs.items() if c != 0.0))
        return Poly(dim, items)

    @staticmethod
    def random(rng: np.random.Generator, dim: int, degree: int, amplitude: float,
               n_terms: int = 4) -> "Poly":
        coeffs: dict[tuple[int, ...], float] = {}
        for _ in range(n_terms):
            exps = [0] * dim
            for _ in range(int(rng.integers(0, degree + 1))):
                exps[int(rng.integers(0, dim))] += 1
            key = tuple(exps)
            coeffs[key] = coeffs.get(key, 0.0) + float(rng.uniform(-1, 1)) * amplitude / n_terms
        return Poly.from_dict(dim, coeffs)

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

    def shift(self, offset: float) -> "Poly":
        coeffs = dict(self.terms)
        zero = (0,) * self.dim
        coeffs[zero] = coeffs.get(zero, 0.0) + offset
        return Poly.from_dict(self.dim, coeffs)

    def to_expr(self) -> Expr:
        if not self.terms:
            return expr.Num(0.0)
        out: Expr | None = None
        for exps, c in self.terms:
            node: Expr = expr.Num(abs(c))
            for i, n in enumerate(exps):
                if n == 0:
                    continue
                power: Expr = expr.Coord(i + 1)
                if n > 1:
                    power = expr.BinOp("^", power, expr.Num(float(n)))
                node = expr.BinOp("*", node, power)
            if out is None:
                out = expr.Neg(node) if c < 0 else node
            else:
                out = expr.BinOp("-" if c < 0 else "+", out, node)
        return out


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

    def sample_points(self, rng: np.random.Generator, n: int) -> list[tuple[float, ...]]:
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


def _diag_field(texts: Sequence[str | float], signature: Signature,
                params: Mapping[str, float]) -> CoframeField:
    m = signature.m
    entries = [[0.0] * m for _ in range(m)]
    for i, t in enumerate(texts):
        entries[i][i] = parse(t, m) if isinstance(t, str) else t
    return CoframeField(entries, signature, params)


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
    sig = Signature(1, 3)
    tetrad = _diag_field(
        ["sqrt(1 - 2*M/x2)", "1/sqrt(1 - 2*M/x2)", "x2", "x2*sin(x3)"],
        sig, {"M": M},
    )
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
    sig = Signature(1, 3)
    params = {"M": M, "Q": Q}
    tetrad = _diag_field(
        ["sqrt(1 - 2*M/x2 + Q^2/x2^2)", "1/sqrt(1 - 2*M/x2 + Q^2/x2^2)",
         "x2", "x2*sin(x3)"],
        sig, params,
    )
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


def _seeded_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def random_polynomial(seed: int = 0, amplitude: float = 0.1, dim: int = 4) -> NamedSolution:
    """Identity plus bounded degree-<=3 polynomial perturbation; smooth and
    nondegenerate on the unit box, with nonvanishing second derivatives."""
    rng = _seeded_rng(seed)
    entries = []
    for mu in range(dim):
        row = []
        for i in range(dim):
            p = Poly.random(rng, dim, degree=3, amplitude=amplitude)
            if mu == i:
                p = p.shift(1.0)
            row.append(p.to_expr())
        entries.append(row)
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
    potential = tuple(Poly.random(rng, 4, degree=3, amplitude=amplitude).to_expr()
                      for _ in range(4))
    return KaluzaConfig(tetrad=base.tetrad, potential=potential, k=k, params={})


def random_so_generator(rng: np.random.Generator, sig: Signature,
                        amplitude: float = 0.3, degree: int = 2):
    """Entry grid A with eta*A antisymmetric: exp(A) lies in SO(p, q).

    Built as A = eta*B with B an antisymmetric matrix of bounded random
    polynomials, so pseudo-orthogonality is exact up to roundoff while the
    position dependence supplies nontrivial derivatives.
    """
    m = sig.m
    signs = eta_signs(sig)
    entries = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            p = Poly.random(rng, m, degree=degree, amplitude=amplitude)
            entries[i][j] = p.scale(signs[i]).to_expr()
            entries[j][i] = p.scale(-signs[j]).to_expr()
    return tuple(tuple(row) for row in entries)


def random_gauge_element(seed: int, sig: Signature, kind: str = "mixed",
                         amplitude: float = 0.3):
    """Random gauge element: frame rotation and/or chart change.

    kinds: "lambda" (position-dependent rotation, identity chart), "linear"
    (constant rotation, invertible linear chart), "mixed" (both, with a
    quadratic chart perturbation).  Chart entries stay at degree <= 2 so all
    jet-transferred derivative blocks are exact.
    """
    from .gauge import GaugeElement

    rng = np.random.default_rng(seed)
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
            rows.append(Poly.from_dict(m, coeffs).to_expr())
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
