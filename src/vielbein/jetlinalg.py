"""Einsum-style linear algebra over :class:`~vielbein.jets.JetArray`.

All index gymnastics run through :func:`jet_einsum`, which applies the
product rule channel by channel, so derivative bookkeeping lives in exactly
one place.  The specs address the value axes of one point, behind a leading
``...`` for any batch axes (a block of grid points); derivative axes come
last.

Every contraction of two or more operands goes through :func:`contract`: it
plans each (spec, per-point operand shapes) pair once with numpy's greedy
path search, caches the plan, and afterwards only runs its pairwise steps,
each as one stacked ``np.matmul``.  A stacked matmul makes one gemm per batch
row on the per-point shapes, so a row of a batch sums exactly as a single
point does.

First-order arrays (``hess=None``) are the workhorse wherever only one more
derivative order is needed, e.g. when the connection coefficients and their
first derivatives are assembled out of a frame known to second order.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .jets import JetArray

__all__ = [
    "JetArray",
    "contract",
    "jet_einsum",
    "jet_matinv",
    "jet_matexp",
    "chart_transfer",
]

# letters reserved for derivative axes inside jet_einsum specs
_DERIV_LETTERS = "ZYXWV"

# (spec, per-point operand shapes) -> [(operand positions, step), ...], where a
# step is a _matmul_step recipe or a plain einsum spec
_PLANS: dict = {}


def _matmul_step(a: str, b: str, out: str, dims: dict) -> tuple:
    """The step ``a,b->out`` (per-point subscripts) as one stacked matmul:
    ``(prep_a, prep_b, kept, out_axes)``.  Each ``prep`` is ``(pad, count,
    axes, shape)``.  The optional einsum ``pad`` takes the diagonal of a
    letter repeated within the operand and spreads it, by an outer product
    with ones, over the letters summed inside the other operand, which so
    become contracted letters; neither sums anything, so every sum of the
    step is the gemm's.  Then the ``count`` per-point axes go to (shared kept
    S, free in A, contracted K) order for A and (S, K, free in B) for B, and
    reshape to (s, m, k) and (s, k, n).  The (s, m, n) product reshapes to
    ``kept`` and ``out_axes`` puts it in the step's output order.  Axes of
    ``None`` are the identity."""
    uniq_a, uniq_b = "".join(dict.fromkeys(a)), "".join(dict.fromkeys(b))
    only_a = "".join(c for c in uniq_a if c not in uniq_b + out)
    only_b = "".join(c for c in uniq_b if c not in uniq_a + out)

    def pad(sub, uniq, extra):
        if sub == uniq and not extra:
            return None
        return f"...{sub},{extra}->...{uniq}{extra}", np.ones([dims[c] for c in extra])

    a2, b2 = uniq_a + only_b, uniq_b + only_a
    shared = [c for c in out if c in a2 and c in b2]
    free_a = [c for c in out if c in a2 and c not in b2]
    free_b = [c for c in out if c in b2 and c not in a2]
    summed = [c for c in a2 if c not in out]

    def order(sub, letters):
        axes = tuple(sub.index(c) for c in letters)
        return None if axes == tuple(range(len(axes))) else axes

    def size(letters):
        return math.prod(dims[c] for c in letters)

    s, m, k, n = map(size, (shared, free_a, summed, free_b))
    kept = shared + free_a + free_b
    return ((pad(a, uniq_a, only_b), len(a2), order(a2, shared + free_a + summed), (s, m, k)),
            (pad(b, uniq_b, only_a), len(b2), order(b2, shared + summed + free_b), (s, k, n)),
            tuple(dims[c] for c in kept), order("".join(kept), out))


def _as_stack(x: np.ndarray, pad: tuple | None, count: int, axes: tuple | None,
              shape: tuple) -> np.ndarray:
    """``x`` padded, with its last ``count`` axes in ``axes`` order, reshaped
    to ``shape`` behind its batch axes."""
    if pad is not None:
        x = np.einsum(pad[0], x, pad[1])
    lead = x.ndim - count
    if axes is not None:
        x = x.transpose(*range(lead), *[lead + i for i in axes])
    return x.reshape(x.shape[:lead] + shape)


def _run_matmul(step: tuple, pair: list) -> np.ndarray:
    """The step as one gemm per batch row, each on the per-point shapes.
    ``pair`` is emptied as it is restacked, so that an intermediate operand
    is freed as soon as its restacked copy exists."""
    prep_a, prep_b, kept, out_axes = step
    a = _as_stack(pair.pop(0), *prep_a)
    c = np.matmul(a, _as_stack(pair.pop(), *prep_b))
    lead = c.ndim - 3
    c = c.reshape(c.shape[:lead] + kept)
    if out_axes is not None:
        c = c.transpose(*range(lead), *[lead + i for i in out_axes])
    return c if c.ndim else c[()]    # a 0-d result stays a numpy scalar, as einsum's


@lru_cache(maxsize=None)
def _spec_parts(spec: str) -> tuple[str, tuple[int, ...], tuple[bool, ...]]:
    """``spec`` without its ``...``, the number of per-point axes of each
    operand, and which operands carry the leading batch axes."""
    ins, out = spec.split("->")
    subs = ins.split(",")
    if any(s.find("...") > 0 for s in subs + [out]):
        raise ValueError(f"batch axes must lead every subscript of {spec!r}")
    bare = [s.replace("...", "") for s in subs]
    return (",".join(bare) + "->" + out.replace("...", ""),
            tuple(len(s) for s in bare), tuple(s.startswith("...") for s in subs))


def contract(spec: str, *ops) -> np.ndarray:
    """Optimised ``np.einsum(spec, *ops)`` over ndarrays, where a leading
    ``...`` marks batch axes.  numpy's greedy path is planned once per (spec,
    per-point operand shapes), whatever the batch, and replayed pairwise,
    each step as one stacked ``np.matmul`` (a lone operand, or a letter
    broadcast from size 1, runs as a plain einsum).  A stacked matmul makes
    one gemm per batch row on the per-point shapes, so every row sums in the
    order of the batch-of-one contraction and equals that result bit for
    bit."""
    bare, sizes, batched = _spec_parts(spec)
    shapes = tuple([op.shape[op.ndim - n:] for op, n in zip(ops, sizes)])
    plan = _PLANS.get((spec, shapes))
    if plan is None:
        _, steps = np.einsum_path(bare, *[np.empty(s) for s in shapes],
                                  optimize="greedy", einsum_call=True)
        sized = {(c, n) for sub, shape in zip(bare.split("->")[0].split(","), shapes)
                 for c, n in zip(sub, shape)}
        dims = dict(sized)
        # a letter broadcast from size 1 against a longer axis stays with einsum
        matmul = len(dims) == len(sized)
        batched, plan = list(batched), []
        for step in steps:
            # numpy 2.x steps are (inds, spec, remaining); 1.x has 5 fields, spec third
            inds, step_spec = step[0], step[1] if len(step) == 3 else step[2]
            # "..." on each step operand, and result, that carries batch axes
            dots = ["..." if batched.pop(i) else "" for i in inds]
            batched.append(any(dots))
            ins, out = step_spec.split("->")
            ins = ins.split(",")
            if matmul and len(ins) == 2:
                run = _matmul_step(*ins, out, dims)
            else:
                run = (",".join(d + s for d, s in zip(dots, ins)) + "->"
                       + ("..." if batched[-1] else "") + out)
            plan.append((inds, run))
        _PLANS[spec, shapes] = plan
    operands = list(ops)
    for inds, run in plan:
        pair = [operands.pop(i) for i in inds]
        operands.append(np.einsum(run, *pair) if isinstance(run, str)
                        else _run_matmul(run, pair))
    return operands[0]


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


def jet_matinv(a: JetArray) -> JetArray:
    """Inverse of a square matrix of jets, over any leading batch axes."""
    iv = np.linalg.inv(a.val)
    jac = -contract("...ab,...bcZ,...cd->...adZ", iv, a.jac, iv)
    hess = None
    if a.hess is not None:
        t1 = -contract("...ab,...bcZY,...cd->...adZY", iv, a.hess, iv)
        t2 = contract("...ab,...bcZ,...cd,...deY,...ef->...afZY", iv, a.jac, iv, a.jac, iv)
        hess = t1 + t2 + t2.swapaxes(-1, -2)
    return JetArray(iv, jac, hess)


def jet_matexp(a: JetArray) -> JetArray:
    """Matrix exponential of a square matrix of jets (scaling and squaring)."""
    n = a.val.shape[0]
    norm = np.linalg.norm(a.val, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 1.0 else 0
    x = a * (0.5 ** squarings)

    dim = a.dim
    ident = JetArray(np.eye(n), np.zeros((n, n, dim)),
                     None if a.hess is None else np.zeros((n, n, dim, dim)))
    total = ident
    term = ident
    k = 1
    while True:
        term = jet_einsum("ab,bc->ac", term, x) * (1.0 / k)
        total = total + term
        size = max(np.abs(term.val).max(), np.abs(term.jac).max(),
                   0.0 if term.hess is None else np.abs(term.hess).max())
        if size < 1e-17 or k > 80:
            break
        k += 1
    for _ in range(squarings):
        total = jet_einsum("ab,bc->ac", total, total)
    return total


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
