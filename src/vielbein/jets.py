"""Arrays of truncated second-order Taylor jets.

Every field evaluation in the package runs on these instead of symbolic or
finite-difference derivatives: arithmetic carries the exact value, gradient,
and Hessian with respect to the base coordinates through every operation.

A :class:`JetArray` bundles an array of values with its first derivatives
(``jac``, one appended axis over the base coordinates) and optionally its
second derivatives (``hess``, two appended axes).  Arithmetic and the
functions below act elementwise, so one evaluation over the seeded
coordinates of an ``(N, m)`` block covers all N points.  Any element out of
a function's domain raises the error ``math`` raises; floats go to ``math``.
Overflow and ``0 * inf`` raise under the ``np.errstate`` of ``frame.eval_entries``,
the one place that lays out entry jets as one JetArray; the sums of monomials
among them it hands, under that errstate, to ``expr.eval_monomial_sums``,
which stacks these same ops over all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["JetArray", "jet_seed", "sin", "cos", "sqrt", "exp", "ln"]


@dataclass(frozen=True)
class JetArray:
    """Values with exact first and (optional) second derivatives.

    The Hessian stays symmetric under all operations because every rank-2
    update is built from symmetrized outer products.
    """

    val: np.ndarray
    jac: np.ndarray
    hess: np.ndarray | None = None

    __array_ufunc__ = None   # numpy operands defer to the reflected methods

    @property
    def dim(self) -> int:
        """Number of base coordinates the derivatives run over."""
        return self.jac.shape[-1]

    def full_like(self, c: float) -> "JetArray":
        """The constant ``c`` with this array's shape and order."""
        return JetArray(np.zeros(self.jac.shape[:-1]) + float(c), np.zeros(self.jac.shape),
                        None if self.hess is None else np.zeros(self.hess.shape))

    def __add__(self, other) -> "JetArray":
        if not isinstance(other, JetArray):
            return JetArray(self.val + float(other), self.jac, self.hess)
        h = None if self.hess is None or other.hess is None else self.hess + other.hess
        return JetArray(self.val + other.val, self.jac + other.jac, h)

    __radd__ = __add__

    def __neg__(self) -> "JetArray":
        return JetArray(-self.val, -self.jac, None if self.hess is None else -self.hess)

    def __sub__(self, other) -> "JetArray":
        if not isinstance(other, JetArray):
            return JetArray(self.val - float(other), self.jac, self.hess)
        h = None if self.hess is None or other.hess is None else self.hess - other.hess
        return JetArray(self.val - other.val, self.jac - other.jac, h)

    def __rsub__(self, other) -> "JetArray":
        return JetArray(float(other) - self.val, -self.jac,     # c - v is c + (-v) exactly
                        None if self.hess is None else -self.hess)

    def __mul__(self, other) -> "JetArray":
        if not isinstance(other, JetArray):
            c = float(other)
            return JetArray(c * self.val, c * self.jac,
                            None if self.hess is None else c * self.hess)
        a, b = _spread(self.val, 1), _spread(other.val, 1)
        hess = None
        if self.hess is not None and other.hess is not None:
            cross = self.jac[..., :, None] * other.jac[..., None, :]
            hess = (_spread(self.val, 2) * other.hess + _spread(other.val, 2) * self.hess
                    + cross + cross.swapaxes(-1, -2))
        return JetArray(self.val * other.val, a * other.jac + b * self.jac, hess)

    __rmul__ = __mul__

    def reciprocal(self) -> "JetArray":
        if (self.val == 0.0).any():
            raise ZeroDivisionError("division by zero value")
        v = 1.0 / self.val
        return _unary(self, v, -v * v, 2.0 * (v * v * v))

    def __truediv__(self, other) -> "JetArray":
        return self * (other.reciprocal() if isinstance(other, JetArray)
                       else 1.0 / float(other))

    def __rtruediv__(self, other) -> "JetArray":
        return self.reciprocal() * float(other)

    def __pow__(self, exponent) -> "JetArray":
        if isinstance(exponent, JetArray):
            # a^b = exp(b ln a); requires a > 0
            return exp(exponent * ln(self))
        p = float(exponent)
        if p == 0.0:
            return self.full_like(1.0)
        if p == 1.0:
            return self
        u = self.val
        # math.pow's domain errors, for u^p and the derivatives' u^(p-2)
        if (p != math.floor(p) and (u < 0.0).any()) or (p < 2.0 and (u == 0.0).any()):
            raise ValueError("math domain error")
        f0, f1, f2 = [np.power(u, q) for q in (p, p - 1.0, p - 2.0)]
        return _unary(self, f0, p * f1, p * (p - 1.0) * f2)

    def __rpow__(self, base) -> "JetArray":
        # c^u = exp(u ln c), for c > 0 only
        c = float(base)
        if c <= 0.0:
            raise ValueError("math domain error")
        return exp(self * math.log(c))

    def transpose(self, axes: tuple[int, ...]) -> "JetArray":
        """Permute the trailing ``len(axes)`` value axes; leading batch axes
        and the derivative axes stay in place."""
        n = self.val.ndim
        b = n - len(axes)
        perm = tuple(range(b)) + tuple(b + a for a in axes)
        h = None if self.hess is None else self.hess.transpose(perm + (n, n + 1))
        return JetArray(self.val.transpose(perm), self.jac.transpose(perm + (n,)), h)

    def drop_hess(self) -> "JetArray":
        return JetArray(self.val, self.jac, None)


def jet_seed(points) -> list[JetArray]:
    """Coordinate functions as jets: value x^i, unit gradient, zero Hessian,
    of shape ``()`` for one point of m coordinates, ``(N,)`` for an ``(N, m)``
    block of points."""
    x = np.asarray(points, dtype=float)
    batch, m = x.shape[:-1], x.shape[-1]
    eye = np.eye(m) * np.ones(batch + (1, 1))
    zero = np.zeros(batch + (m, m))
    return [JetArray(x[..., i], eye[..., i, :], zero) for i in range(m)]


def _unary(u: JetArray, f0, f1, f2) -> JetArray:
    """Chain rule for f(u), given f, f' and f'' at the values of u."""
    hess = None
    if u.hess is not None:
        outer = u.jac[..., :, None] * u.jac[..., None, :]
        hess = _spread(f2, 2) * outer + _spread(f1, 2) * u.hess
    return JetArray(f0, _spread(f1, 1) * u.jac, hess)


def _spread(v, k: int):
    """Values with ``k`` trailing unit axes, to scale derivative arrays; the
    values of one point stay a scalar, which numpy multiplies faster."""
    return v[(...,) + (None,) * k] if v.ndim else v


def _sin_cos(u: JetArray):
    if np.isinf(u.val).any():
        raise ValueError("math domain error")
    return np.sin(u.val), np.cos(u.val)


def sin(u):
    if not isinstance(u, JetArray):
        return math.sin(u)
    s, c = _sin_cos(u)
    return _unary(u, s, c, -s)


def cos(u):
    if not isinstance(u, JetArray):
        return math.cos(u)
    s, c = _sin_cos(u)
    return _unary(u, c, -s, -c)


def sqrt(u):
    if not isinstance(u, JetArray):
        if u < 0.0:
            raise ValueError(f"sqrt of negative value {u}")
        return math.sqrt(u)
    v = u.val
    if (v < 0.0).any():
        raise ValueError(f"sqrt of negative value {v[v < 0.0].flat[0]}")
    if (v == 0.0).any():
        raise ValueError("sqrt not differentiable at zero")
    r = np.sqrt(v)
    return _unary(u, r, 0.5 / r, -0.25 / (r * v))


def exp(u):
    if not isinstance(u, JetArray):
        return math.exp(u)
    w = np.exp(u.val)
    return _unary(u, w, w, w)


def ln(u):
    if not isinstance(u, JetArray):
        if u <= 0.0:
            raise ValueError(f"ln of non-positive value {u}")
        return math.log(u)
    v = u.val
    if (v <= 0.0).any():
        raise ValueError(f"ln of non-positive value {v[v <= 0.0].flat[0]}")
    w = 1.0 / v
    return _unary(u, np.log(v), w, -w * w)
