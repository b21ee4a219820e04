"""Signatures, flat metrics, and permutation symbols.

Everything here is dense and small (dimension <= 8): permutation symbols are
materialized once per dimension as sign tables, which removes parity
bookkeeping from every downstream contraction, and flat metrics once per
signature (applied as sign vectors, :func:`eta_signs`), all of them read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

__all__ = ["MAX_DIM", "Signature", "eta", "eta_signs", "levi_civita"]
MAX_DIM = 8   # the largest dimension whose sign tables are built


@dataclass(frozen=True)
class Signature:
    """(p, q) counts of -1 and +1 entries of the flat frame metric."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.p + self.q == 0:
            raise ValueError(f"invalid signature ({self.p}, {self.q})")

    @property
    def m(self) -> int:
        return self.p + self.q


@lru_cache(maxsize=None)
def eta(sig: Signature) -> np.ndarray:
    """Flat frame metric diag(-1 x p, +1 x q), read-only; it is its own inverse."""
    et = np.diag(np.concatenate([-np.ones(sig.p), np.ones(sig.q)]))
    et.setflags(write=False)
    return et


@lru_cache(maxsize=None)
def eta_signs(sig: Signature) -> np.ndarray:
    """The diagonal of :func:`eta` (a read-only view), to apply eta as a sign flip."""
    return eta(sig).diagonal()


@lru_cache(maxsize=None)
def _levi_civita_table(m: int) -> np.ndarray:
    eps = np.zeros((m,) * m)
    for perm in permutations(range(m)):
        inversions = sum(
            1 for i in range(m) for j in range(i + 1, m) if perm[i] > perm[j]
        )
        eps[perm] = -1.0 if inversions % 2 else 1.0
    eps.setflags(write=False)
    return eps


def levi_civita(m: int) -> np.ndarray:
    """Totally antisymmetric sign table with value +1 on (1, 2, ..., m)."""
    if not 1 <= m <= MAX_DIM:
        raise ValueError(f"unsupported dimension {m}")
    return _levi_civita_table(m)
