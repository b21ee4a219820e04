"""numpy's ``default_rng(seed)`` stream in pure Python, for the seeded draws.

PCG64 is O'Neill's XSL-RR 128/64 generator (HMC-CS-2014-0905), seeded as
numpy's ``SeedSequence`` hashes an int.  :class:`_PCG64` makes ``uniform``
draws bit for bit as numpy's Generator makes them, without importing
``numpy.random``.  :func:`draw_terms` draws random polynomial terms in one
loop on the state words of either kind of :data:`Stream`, which
:func:`words` and :func:`put_words` read and write.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int) -> Callable[[int], int]:
    """``SeedSequence``'s running 32-bit hash: each call steps ``h`` by ``mult``."""
    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * mult & M32
        v = v * h & M32
        return v ^ v >> 16
    return hashmix


class _PCG64:
    """The generator: ``state`` and ``inc`` are numpy's PCG64 state words, and
    ``half`` its buffered upper 32-bit half (None when empty), which only
    :func:`draw_terms` draws and leaves; ``uniform`` scales a 53-bit double."""

    def __init__(self, seed: int):
        words = [seed >> s & M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
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
        self.inc = (u2 << 64 | u3) << 1 & M128 | 1
        self.state = ((self.inc + (u0 << 64 | u1)) * MULT + self.inc) & M128
        self.half: int | None = None

    def _next64(self) -> int:
        self.state = s = (self.state * MULT + self.inc) & M128
        x, r = (s >> 64 ^ s) & M64, s >> 122
        return (x >> r | x << (64 - r)) & M64

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        low, span = float(low), float(high) - float(low)
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0:
            raise ValueError("high - low < 0")
        n = 1 if size is None else int(np.prod(size))
        draws = [low + span * ((self._next64() >> 11) * 2.0 ** -53) for _ in range(n)]
        return draws[0] if size is None else np.array(draws).reshape(size)


#: A PCG64 stream: the package's generator, or numpy's Generator over PCG64.
Stream = Union[_PCG64, "Generator"]


def words(rng: Stream) -> tuple[int, int, int | None]:
    """(state, inc, buffered half or None) of a :class:`_PCG64` or of a numpy
    Generator over PCG64; any other generator raises TypeError."""
    if type(rng) is _PCG64:
        return rng.state, rng.inc, rng.half
    st = getattr(getattr(rng, "bit_generator", None), "state", {})
    if st.get("bit_generator") != "PCG64":
        raise TypeError(f"a PCG64 stream is needed, not {rng!r}")
    return st["state"]["state"], st["state"]["inc"], st["uinteger"] if st["has_uint32"] else None


def put_words(rng: Stream, state: int, half: int | None) -> None:
    """Hand back the words a draw from :func:`words` left."""
    if type(rng) is _PCG64:
        rng.state, rng.half = state, half
        return
    st = rng.bit_generator.state
    st["state"]["state"], st["has_uint32"], st["uinteger"] = state, int(half is not None), half or 0
    rng.bit_generator.state = st


def draw_terms(rng: Stream, dim: int, degree: int, n: int) -> list[tuple[tuple[int, ...], float]]:
    """``n`` random monomials in x1..x{dim} of degree <= ``degree``, each as
    (exponents, U(-1, 1)).  A term draws, as numpy's Generator would, its
    factor count from [0, degree], each factor's coordinate from [0, dim), then
    ``uniform(-1, 1)``, on the stream's words: each bounded draw is Lemire's
    (ACM TOMACS 29(1), 2019) on a 32-bit half of the 64-bit output (the upper
    half kept for the next draw; a range of one draws nothing), the last a
    53-bit double."""
    if degree < 0 or dim < 1:
        raise ValueError(f"need degree >= 0 and dim >= 1, got {degree} and {dim}")
    state, inc, half = words(rng)
    # Lemire's draw from [0, n) rejects a low word below 2^32 mod n
    span0, cut0, cut1 = degree + 1, (1 << 32) % (degree + 1), (1 << 32) % dim
    terms = []
    for _ in range(n):
        exps = [0] * dim
        span, cut, todo = span0, cut0, -1        # the degree first, then its factors
        while todo:
            v = 0
            if span > 1:
                while True:
                    if half is None:
                        state = (state * MULT + inc) & M128
                        x, r = (state >> 64 ^ state) & M64, state >> 122
                        x = (x >> r | x << (64 - r)) & M64
                        half, x = x >> 32, x & M32
                    else:
                        x, half = half, None
                    v = x * span
                    if v & M32 >= cut:
                        break
                v >>= 32
            if todo < 0:
                span, cut, todo = dim, cut1, v
            else:
                exps[v] += 1
                todo -= 1
        state = (state * MULT + inc) & M128
        x, r = (state >> 64 ^ state) & M64, state >> 122
        x = (x >> r | x << (64 - r)) & M64
        terms.append((tuple(exps), -1.0 + 2.0 * ((x >> 11) * 2.0 ** -53)))
    put_words(rng, state, half)
    return terms
