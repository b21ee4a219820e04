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

from .expr import BinOp, Expr, Num, Poly, RandomSource, parse
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

    def sample_points(self, rng: RandomSource, n: int) -> list[tuple[float, ...]]:
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


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int) -> Callable[[int], int]:
    """``SeedSequence``'s running 32-bit hash: each call steps ``h`` by ``mult``."""
    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16
    return hashmix


class _PCG64:
    """numpy's ``default_rng(seed)`` stream, bit for bit, for the two draws the
    package makes.  PCG64 is O'Neill's XSL-RR 128/64 generator (HMC-CS-2014-0905),
    seeded as numpy's ``SeedSequence`` hashes an int; ``integers`` is Lemire's
    bounded draw (ACM TOMACS 29(1), 2019) on 32-bit halves of the 64-bit output,
    the second half kept for the next draw; ``uniform`` scales a 53-bit double.
    Being pure Python, drawing a frame never imports ``numpy.random``."""

    def __init__(self, seed: int):
        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
        for s in range(4):
            for d in range(4):
                if d != s:
                    pool[d] = mix(pool[d], hashmix(pool[s]))
        for w in words[4:]:
            for d in range(4):
                pool[d] = mix(pool[d], hashmix(w))
        out = _hasher(0x8B51F9DD, 0x58F38DED)
        u = [out(pool[i % 4]) for i in range(8)]
        u0, u1, u2, u3 = (u[i] | u[i + 1] << 32 for i in range(0, 8, 2))
        self.inc = (u2 << 64 | u3) << 1 & _M128 | 1
        self.state = ((self.inc + (u0 << 64 | u1)) * _PCG_MULT + self.inc) & _M128
        self.half: int | None = None

    def _next64(self) -> int:
        self.state = s = (self.state * _PCG_MULT + self.inc) & _M128
        x, r = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> r | x << (64 - r)) & _M64

    def _next32(self) -> int:
        if self.half is not None:
            x, self.half = self.half, None
            return x
        x = self._next64()
        self.half = x >> 32
        return x & _M32

    def integers(self, low: int, high: int) -> int:
        r = high - low - 1
        if r < 0:
            raise ValueError("low >= high")
        if r >= _M32:
            raise ValueError(f"a range of {r + 1} (2**32 or more) is not supported")
        if r == 0:
            return low
        m = self._next32() * (r + 1)
        if m & _M32 < r + 1:
            t = (_M32 - r) % (r + 1)
            while m & _M32 < t:
                m = self._next32() * (r + 1)
        return low + (m >> 32)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        low, span = float(low), float(high) - float(low)
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0:
            raise ValueError("high - low < 0")
        n = 1 if size is None else int(np.prod(size))
        draws = [low + span * ((self._next64() >> 11) * 2.0 ** -53) for _ in range(n)]
        return draws[0] if size is None else np.array(draws).reshape(size)


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
    rng = _seeded_rng(seed)
    entries = []
    for mu in range(dim):
        row = []
        for i in range(dim):
            p = Poly.random(rng, dim, degree=3, amplitude=amplitude)
            row.append(p.shift(1.0) if mu == i else p)
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
    potential = tuple(Poly.random(rng, 4, degree=3, amplitude=amplitude) for _ in range(4))
    return KaluzaConfig(tetrad=base.tetrad, potential=potential, k=k, params={})


def random_so_generator(rng: RandomSource, sig: Signature,
                        amplitude: float = 0.3, degree: int = 2):
    """Entry grid A with eta*A antisymmetric: its Cayley transform lies in SO(p, q).

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
