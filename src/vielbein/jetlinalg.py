"""Einsum-style linear algebra over :class:`~vielbein.jets.JetArray`.

All index gymnastics run through :func:`jet_einsum`, which applies the
product rule channel by channel, so derivative bookkeeping lives in exactly
one place.  The specs address the value axes of one point, behind a leading
``...`` for any batch axes (a block of grid points); derivative axes come
last.

Every contraction goes through :func:`contract`: it plans each (spec,
per-point operand shapes) pair once as a chain of pairwise steps, cheapest
pair first, resolves the plan once per (spec, full operand shapes) into a
replay of fixed numpy calls, and afterwards only runs those, each step as one
stacked ``np.matmul`` of two operands.  A stacked matmul makes one gemm per
batch row on the per-point shapes, so a row of a batch sums exactly as a
single point does.  A lone operand, a trace or a diagonal is refused: those
stay plain ``np.einsum`` calls where they are made.

First-order arrays (``hess=None``) are the workhorse wherever only one more
derivative order is needed, e.g. when the connection coefficients and their
first derivatives are assembled out of a frame known to second order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .jets import JetArray

__all__ = [
    "JetArray",
    "contract",
    "jet_einsum",
    "jet_matinv",
    "jet_cayley",
    "chart_transfer",
]

# letters reserved for derivative axes inside jet_einsum specs
_DERIV_LETTERS = "ZYXWV"

# (spec, full operand shapes) -> _replay steps
_REPLAYS: dict = {}


def _matmul_step(a: str, b: str, out: str, dims: dict) -> tuple:
    """The step ``a,b->out`` (per-point subscripts, each letter of ``a`` and
    ``b`` in the other or in ``out``) as one stacked matmul: ``(prep_a,
    prep_b, kept, out_axes)``.  Each ``prep`` is ``(count, axes, shape)``:
    the ``count`` per-point axes go to (shared kept S, free in A, contracted
    K) order for A and (S, K, free in B) for B, and reshape to (s, m, k) and
    (s, k, n).  The (s, m, n) product reshapes to ``kept`` and ``out_axes``
    puts it in the step's output order; axes of ``None`` are the identity."""
    shared = [c for c in out if c in a and c in b]
    free_a = [c for c in out if c in a and c not in b]
    free_b = [c for c in out if c in b and c not in a]
    summed = [c for c in a if c not in out]

    def order(sub, letters):
        axes = tuple(sub.index(c) for c in letters)
        return None if axes == tuple(range(len(axes))) else axes

    def size(letters):
        return math.prod(dims[c] for c in letters)

    s, m, k, n = map(size, (shared, free_a, summed, free_b))
    kept = shared + free_a + free_b
    return ((len(a), order(a, shared + free_a + summed), (s, m, k)),
            (len(b), order(b, shared + summed + free_b), (s, k, n)),
            tuple(dims[c] for c in kept), order("".join(kept), out))


def _cheapest_pair(subs: list, out: str, dims: dict) -> tuple:
    """The pair ``(x, y, kept subscript)`` of ``subs`` to contract first
    toward ``out``: a pair sharing a letter before an outer product, then the
    one that loops over the fewest index values, then the one that keeps the
    smallest intermediate; ties go to the first pair."""
    best = None
    for x, y in combinations(range(len(subs)), 2):
        rest = out + "".join(s for k, s in enumerate(subs) if k not in (x, y))
        letters = "".join(dict.fromkeys(subs[x] + subs[y]))
        keep = "".join(c for c in letters if c in rest)
        key = (not set(subs[x]) & set(subs[y]),
               math.prod(dims[c] for c in letters), math.prod(dims[c] for c in keep))
        if best is None or key < best[0]:
            best = key, (x, y, keep)
    return best[1]


@lru_cache(maxsize=None)
def _spec_parts(spec: str) -> tuple[tuple[str, ...], str]:
    """The per-point subscripts of ``spec``'s operands and output, without
    ``...``; anything but a contraction (two or more operands, each letter
    once in two or more subscripts) raises ``ValueError``."""
    ins, out = spec.split("->")
    subs = ins.split(",")
    if any(s.find("...") > 0 for s in subs + [out]):
        raise ValueError(f"batch axes must lead every subscript of {spec!r}")
    bare = [s.replace("...", "") for s in subs + [out]]
    letters = "".join(bare)
    if (len(subs) < 2 or any(len(set(s)) < len(s) for s in bare)
            or any(letters.count(c) < 2 for c in letters)):
        raise ValueError(f"{spec!r} is no contraction: two or more operands, "
                         "each letter once in two or more subscripts")
    return tuple(bare[:-1]), bare[-1]


@lru_cache(maxsize=None)
def _plan(spec: str, shapes: tuple) -> tuple:
    """The pairwise steps of ``spec`` on operands of per-point ``shapes``, as
    ``((operand positions, _matmul_step recipe), ...)``: the cheapest pair
    first, until one operand is left.  Planned once per (spec, shapes), so
    every batch shape of the same per-point operands replays one plan."""
    subs, out = _spec_parts(spec)
    dims = {}
    for sub, shape in zip(subs, shapes):
        if len(sub) != len(shape):
            raise ValueError(f"operand {sub!r} of {spec!r} has shape {shape}")
        for c, n in zip(sub, shape):
            if dims.setdefault(c, n) != n:
                raise ValueError(f"letter {c!r} of {spec!r} has sizes {dims[c]} and {n}")
    subs = list(subs)
    plan = []
    while len(subs) > 1:
        x, y, keep = _cheapest_pair(subs, out, dims) if len(subs) > 2 else (0, 1, out)
        # the replay pops the later operand first and appends the product
        plan.append(((y, x), _matmul_step(subs[y], subs[x], keep, dims)))
        subs = [s for k, s in enumerate(subs) if k not in (x, y)] + [keep]
    return tuple(plan)


def _replay(spec: str, shapes: tuple) -> list:
    """The plan of ``spec`` resolved for operands of full ``shapes``: per step,
    the operand positions, each operand's (transpose, reshape) and the
    product's shape and transpose, a transpose of ``None`` the identity."""
    subs, _ = _spec_parts(spec)
    point = tuple([s[len(s) - len(sub):] for s, sub in zip(shapes, subs, strict=True)])

    def full(lead, axes):
        return None if axes is None else (*range(len(lead)), *[len(lead) + i for i in axes])

    shapes, steps = list(shapes), []
    for inds, (*preps, kept, out_axes) in _plan(spec, point):
        pair = [shapes.pop(i) for i in inds]
        leads = [s[:len(s) - count] for s, (count, _, _) in zip(pair, preps)]
        lead = np.broadcast_shapes(*leads)
        shapes.append(lead + kept)
        stacks = [(full(ld, axes), ld + shape) for ld, (_, axes, shape) in zip(leads, preps)]
        steps.append((inds, stacks, lead + kept, full(lead, out_axes)))
    return steps


def contract(spec: str, *ops) -> np.ndarray:
    """``np.einsum(spec, *ops)`` over ndarrays, where a leading ``...`` marks
    batch axes, as a chain of pairwise contractions, cheapest pair first.
    The chain is planned on the per-point operand shapes, so it is the same
    whatever the batch, once per (spec, full shapes), and resolved into a
    replay whose steps each run one stacked ``np.matmul`` of two operands.
    A stacked matmul makes one gemm per batch row on the per-point shapes,
    so every row sums in the order of the batch-of-one contraction and equals
    that result bit for bit, whatever the memory layout of the operands.  Unlike
    einsum, a letter never broadcasts from size 1: one with two sizes raises
    ``ValueError``, as does a spec that is no contraction (a lone operand, a
    trace or a diagonal; see :func:`_spec_parts`)."""
    key = (spec, tuple([op.shape for op in ops]))
    if key not in _REPLAYS:
        _REPLAYS[key] = _replay(*key)
    # the gemm path np.matmul takes, and so the bits it sums to, depends on
    # the strides of its stacks; from C-ordered operands those are the plan's
    operands = [np.asarray(op, order="C") for op in ops]
    for inds, stacks, shape, axes in _REPLAYS[key]:
        # an operand is freed once restacked, and the restacked pair once multiplied
        pair = [operands.pop(i) for i in inds]
        for k, (perm, target) in enumerate(stacks):
            pair[k] = (pair[k] if perm is None else pair[k].transpose(perm)).reshape(target)
        pair = np.matmul(*pair).reshape(shape)
        operands.append(pair if axes is None else pair.transpose(axes))
    c = operands[0]
    return c if c.ndim else c[()]    # a 0-d result stays a numpy scalar, as einsum's


@lru_cache(maxsize=None)
def _product_terms(spec: str, is_jet: tuple[bool, ...], carry_hess: bool) -> tuple:
    """The product-rule terms of ``jet_einsum(spec, ...)`` in summation order:
    (derivative order, einsum spec, channel taken from each operand), where
    channel 0 is the value, 1 the first and 2 the second derivative."""
    ins, out = spec.split("->")
    in_specs = ins.split(",")
    if len(in_specs) != len(is_jet):
        raise ValueError(f"spec {spec!r} does not match {len(is_jet)} operands")
    jet_ix = [i for i, jet in enumerate(is_jet) if jet]
    if not jet_ix:
        raise ValueError("jet_einsum needs at least one JetArray operand")
    used = set(spec)
    free = [c for c in _DERIV_LETTERS if c not in used]
    dz, dy = free[0], free[1]

    def term(marks: dict) -> tuple:
        """``marks`` maps an operand to the derivative letters it carries."""
        order = sum(len(v) for v in marks.values())
        specs = [s + marks.get(k, "") for k, s in enumerate(in_specs)]
        pick = tuple(len(marks.get(k, "")) for k in range(len(in_specs)))
        return order, ",".join(specs) + "->" + out + (dz + dy)[:order], pick

    terms = [term({})] + [term({i: dz}) for i in jet_ix]
    if carry_hess:
        terms += [term({i: dz + dy}) for i in jet_ix]
        terms += [term({i: dz, j: dy}) for i in jet_ix for j in jet_ix if i != j]
    return tuple(terms)


def jet_einsum(spec: str, *ops) -> JetArray:
    """einsum over a mix of JetArray and plain ndarray operands.

    The spec addresses value axes only; derivative axes are appended
    internally.  Plain arrays are treated as constants.  The result carries
    a Hessian only when every JetArray operand does.
    """
    is_jet = tuple(isinstance(op, JetArray) for op in ops)
    carry_hess = all(op.hess is not None for op in ops if isinstance(op, JetArray))
    channels = [(op.val, op.jac, op.hess) if jet else (np.asarray(op),)
                for op, jet in zip(ops, is_jet)]
    # the Hessian sums from 0.0 (a lone term's -0.0 entries read +0.0)
    acc = [None, None, 0.0 if carry_hess else None]
    for order, term_spec, pick in _product_terms(spec, is_jet, carry_hess):
        t = contract(term_spec, *[ch[c] for ch, c in zip(channels, pick)])
        acc[order] = t if acc[order] is None else acc[order] + t
    return JetArray(*acc)


def _signed(a: JetArray, signs: np.ndarray) -> JetArray:
    """First-order jets fresh from a contraction, scaled in place by ``signs``."""
    np.multiply(a.val, signs, out=a.val)
    np.multiply(a.jac, signs[..., None], out=a.jac)
    return a


def jet_matinv(a: JetArray) -> JetArray:
    """Inverse of a square matrix of jets, over any leading batch axes.  A
    singular matrix, or one whose inverse overflows, raises
    ``np.linalg.LinAlgError``."""
    iv = np.linalg.inv(a.val)
    if not np.isfinite(iv).all():     # inf entries would meet the jets as inf * 0
        raise np.linalg.LinAlgError("matrix inverse is not finite")
    # negated into C order, whatever the layout of the product
    jac = np.negative(contract("...ab,...bcZ,...cd->...adZ", iv, a.jac, iv), order="C")
    hess = None
    if a.hess is not None:
        t1 = -contract("...ab,...bcZY,...cd->...adZY", iv, a.hess, iv)
        t2 = contract("...ab,...bcZ,...cd,...deY,...ef->...afZY", iv, a.jac, iv, a.jac, iv)
        hess = t1 + t2 + t2.swapaxes(-1, -2)
    return JetArray(iv, jac, hess)


def jet_cayley(a: JetArray) -> JetArray:
    """Cayley transform (I - a/2)^-1 (I + a/2) = 2 (I - a/2)^-1 - I of a square
    matrix of jets, over any leading batch axes; with eta*a antisymmetric it
    lies in SO(p, q).  A singular I - a/2, or one whose inverse overflows,
    raises ``np.linalg.LinAlgError``, a non-finite entry ``ValueError`` (an
    infinite one would map to -I)."""
    if not all(np.isfinite(c).all() for c in (a.val, a.jac, a.hess) if c is not None):
        raise ValueError("Cayley transform of a matrix with a non-finite entry")
    eye = np.eye(a.val.shape[-1])
    half = a * -0.5
    inv = jet_matinv(JetArray(eye + half.val, half.jac, half.hess)) * 2.0
    return JetArray(inv.val - eye, inv.jac, inv.hess)


def chart_transfer(q: JetArray, k_val: np.ndarray, k_jac: np.ndarray | None) -> JetArray:
    """Re-express derivative axes in new coordinates.

    ``k_val[i, a]`` holds the old-by-new inverse Jacobian dx^i/dy^a at the
    point; ``k_jac[i, a, h]`` its old-coordinate derivatives (required to
    transfer a Hessian).
    """
    jac = contract("...i,ia->...a", q.jac, k_val)
    hess = None
    if q.hess is not None:
        if k_jac is None:
            raise ValueError("second-order transfer needs the Jacobian derivatives")
        dk_new = contract("iah,hb->iab", k_jac, k_val)
        hess = (contract("...ij,ia,jb->...ab", q.hess, k_val, k_val)
                + contract("...i,iab->...ab", q.jac, dk_new))
    return JetArray(q.val, jac, hess)
