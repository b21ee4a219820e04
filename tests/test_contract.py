"""``jetlinalg.contract``: numpy's optimised einsum, planned once per key.

Every ``(spec, per-point operand shapes)`` key the bundled configs plan, and
random 2- and 3-operand specs, are replayed on random operands against
``np.einsum(..., optimize=True)``, and each batch row against the unbatched
call; planning happens once per key, whatever the batch, as does building
``jet_einsum``'s product-rule terms; and no contraction under ``src/``
bypasses the plan cache.
"""

import ast
import json
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vielbein import jetlinalg
from vielbein.cli import main
from vielbein.jetlinalg import JetArray, contract, jet_einsum

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


@pytest.fixture(scope="module")
def bundled_keys(tmp_path_factory):
    """The (spec, shapes) keys planned while running every bundled config."""
    out = tmp_path_factory.mktemp("bundled")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jetlinalg, "_PLANS", {})
        for cfg in CONFIGS:
            assert main(["run", str(cfg), "--out", str(out / cfg.stem)]) == 0
        return sorted(jetlinalg._PLANS)


def test_bundled_keys_match_numpy(bundled_keys):
    assert len(bundled_keys) > 20
    for spec, shapes in bundled_keys:
        # each key seeds its own draw, so adding keys leaves the others' alone
        rng = np.random.default_rng(zlib.crc32(repr((spec, shapes)).encode()))
        # a batch of two wherever the spec marks batch axes
        subs = spec.split("->")[0].split(",")
        ops = [rng.standard_normal((2,) * sub.startswith("...") + s)
               for sub, s in zip(subs, shapes)]
        got = contract(spec, *ops)
        want = np.einsum(spec, *ops, optimize=True)
        # a sum taken in another order moves by a few ulps of the sum of |terms|
        bound = 1e-13 * np.einsum(spec, *map(np.abs, ops))
        assert got.shape == want.shape and np.all(np.abs(got - want) <= bound), spec


def test_bundled_keys_are_batch_invariant(bundled_keys):
    # every row of a batch equals the unbatched contraction bit for bit, for
    # every batched spec the bundled configs plan
    batched_keys = [(spec, shapes) for spec, shapes in bundled_keys if "..." in spec]
    assert batched_keys
    for spec, shapes in batched_keys:
        rng = np.random.default_rng(zlib.crc32(repr((spec, shapes)).encode()))
        subs = spec.split("->")[0].split(",")
        for n in (1, 3, 16, 64):
            ops = [rng.standard_normal((n,) * sub.startswith("...") + s)
                   for sub, s in zip(subs, shapes)]
            rows = contract(spec, *ops)
            for row in range(n):
                single = [op[row] if sub.startswith("...") else op
                          for sub, op in zip(subs, ops)]
                assert rows[row].tobytes() == contract(spec, *single).tobytes(), \
                    (spec, n, row)


def test_one_plan_per_spec_whatever_the_batch(monkeypatch):
    monkeypatch.setattr(jetlinalg, "_PLANS", {})
    rng = np.random.default_rng(3)
    spec = "...ab,bc,...cde,...e->...ad"
    shapes = [(4, 5), (5, 3), (3, 4, 6), (6,)]
    single = [rng.standard_normal(s) for s in shapes]
    one = contract(spec, *single)
    for batch in [(1,), (7,), (64,), (2, 3)]:
        ops = [op if k == 1 else np.broadcast_to(op, batch + op.shape)
               for k, op in enumerate(single)]
        rows = contract(spec, *ops)
        assert rows.shape == batch + one.shape
        assert all(rows[idx].tobytes() == one.tobytes() for idx in np.ndindex(*batch))
    assert list(jetlinalg._PLANS) == [(spec, tuple(shapes))]


@pytest.mark.parametrize("spec,shapes", [
    ("...ij,jk,k->...i", [(3, 2, 4, 5), (5, 6), (6,)]),
    ("ii->", [(4, 4)]),
])
def test_ellipsis_and_trace_match_numpy(spec, shapes):
    rng = np.random.default_rng(1)
    ops = [rng.standard_normal(s) for s in shapes]
    want = np.einsum(spec, *ops, optimize=True)
    for _ in range(2):   # planned, then replayed from the cache
        np.testing.assert_allclose(contract(spec, *ops), want, rtol=1e-13, atol=1e-15)


@st.composite
def _specs(draw):
    """A 2- or 3-operand spec with per-point shapes and which operands carry
    batch axes: letters may repeat within an operand (a diagonal), be summed
    inside one operand (a trace) or be shared and kept, the contracted set
    may be empty (an outer product), and the output may be 0-d."""
    size = dict(zip("abcdef", draw(st.lists(st.integers(1, 4), min_size=6, max_size=6))))
    subs = draw(st.lists(st.lists(st.sampled_from("abcdef"), max_size=4),
                         min_size=2, max_size=3))
    letters = sorted(set().union(*subs))
    out = draw(st.permutations(letters))[:draw(st.integers(0, len(letters)))]
    batched = draw(st.lists(st.booleans(), min_size=len(subs), max_size=len(subs)))
    spec = (",".join("..." * b + "".join(sub) for b, sub in zip(batched, subs))
            + "->" + "..." * any(batched) + "".join(out))
    return spec, [tuple(size[c] for c in sub) for sub in subs], batched


@settings(deadline=None, max_examples=60)
@given(case=_specs(), seed=st.integers(0, 2**16))
def test_random_specs_match_numpy_and_are_batch_invariant(case, seed):
    spec, shapes, batched = case
    rng = np.random.default_rng(seed)
    for n in (1, 3, 16):
        ops = [rng.standard_normal((n,) * b + s) for b, s in zip(batched, shapes)]
        rows = contract(spec, *ops)
        want = np.einsum(spec, *ops, optimize=True)
        bound = 1e-13 * np.einsum(spec, *map(np.abs, ops))
        assert np.shape(rows) == np.shape(want)
        assert np.all(np.abs(rows - want) <= bound), spec
        if not any(batched):
            # a 0-d result is a numpy scalar, as plain einsum's is
            assert np.ndim(rows) or isinstance(rows, float)
            break
        for row in range(n):
            single = [op[row] if b else op for b, op in zip(batched, ops)]
            assert rows[row].tobytes() == contract(spec, *single).tobytes(), (spec, n, row)


def _vacuum_job(tmp_path, name, points):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "check": "vacuum",
        "solution": {"name": "schwarzschild", "params": {"M": 1.0}},
        "grid": {"points": [[0.0, 3.0 + 0.1 * k, 1.1, 0.2] for k in range(points)]},
        "tolerance": 1e-8,
    }), encoding="utf-8")
    return ["run", str(path), "--out", str(tmp_path / name)]


def test_each_key_is_planned_once(tmp_path, monkeypatch):
    calls = []
    einsum_path = np.einsum_path

    def counting(*args, **kwargs):
        calls.append(args[0])
        return einsum_path(*args, **kwargs)

    monkeypatch.setattr(jetlinalg, "_PLANS", {})
    monkeypatch.setattr(np, "einsum_path", counting)
    assert main(_vacuum_job(tmp_path, "one", 1)) == 0
    planned = set(jetlinalg._PLANS)
    n_calls = len(calls)
    assert n_calls == len(planned) > 0
    # 65 points span two grid blocks; every contraction reuses a plan
    assert main(_vacuum_job(tmp_path, "many", 65)) == 0
    assert set(jetlinalg._PLANS) == planned
    assert len(calls) == n_calls == len(jetlinalg._PLANS)


def test_product_terms_built_once_per_key():
    terms = jetlinalg._product_terms
    terms.cache_clear()
    rng = np.random.default_rng(2)
    a = JetArray(rng.standard_normal((3, 3)), rng.standard_normal((3, 3, 4)),
                 rng.standard_normal((3, 3, 4, 4)))
    c = rng.standard_normal((3, 3))
    # three keys: the jet positions and whether a Hessian is carried
    for _ in range(3):
        jet_einsum("ab,bc->ac", c, a)
        jet_einsum("ab,bc->ac", a, a)
        jet_einsum("ab,bc->ac", a.drop_hess(), a)
    info = terms.cache_info()
    assert (info.misses, info.hits) == (3, 6)


def _numpy_calls(tree: ast.AST, func: str = "<module>"):
    """(enclosing function, numpy attribute, call node) for np.* calls."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _numpy_calls(node, node.name)
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            yield func, node.func.attr, node
        yield from _numpy_calls(node, func)


def test_contractions_cannot_bypass_the_plan_cache():
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    bypass, direct, planners = [], [], []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func, attr, call in _numpy_calls(tree):
            where = f"{path.relative_to(ROOT)}:{call.lineno}"
            if attr == "einsum" and any(k.arg == "optimize" for k in call.keywords):
                bypass.append(where)
            # a spec and two or more operands (or an unpacked list of them);
            # single-operand transposes and traces stay plain einsums
            if (attr == "einsum" and path.name != "jetlinalg.py"
                    and (len(call.args) > 2
                         or any(isinstance(arg, ast.Starred) for arg in call.args))):
                direct.append(where)
            if attr == "einsum_path":
                planners.append((path.name, func))
    assert not bypass, f"np.einsum(optimize=...) outside contract: {bypass}"
    assert not direct, f"multi-operand np.einsum outside contract: {direct}"
    assert planners == [("jetlinalg.py", "contract")]
