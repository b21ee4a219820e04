"""``jetlinalg.contract``: einsum as a chain of stacked-matmul pairs, planned
once per key.

Every ``(spec, per-point operand shapes)`` key the bundled configs plan, and
random 2- to 4-operand specs, are replayed on random operands against
``np.einsum(..., optimize=True)``, and each batch row against the unbatched
call; the bundled plans are all pairwise matmul steps that contract before
they take outer products; planning happens once per key, whatever the batch,
and resolving a replay once per (spec, full operand shapes), as does
building ``jet_einsum``'s product-rule terms; a spec that is no
contraction (a trace, a diagonal, a lone operand) is refused before any
array is made; no contraction under ``src/`` bypasses the plan cache or
passes a literal spec that ``contract`` refuses; and the first block of each
bundled config makes no contraction twice on bit-identical operands, apart
from named exemptions.
"""

import ast
import json
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vielbein import cli, frame, jetlinalg
from vielbein.cli import main
from vielbein.frame import curvature, einstein_density, evaluate_coframe, spin_connection
from vielbein.jetlinalg import JetArray, contract, jet_einsum
from vielbein.solutions import make_solution

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def _recording_plans(mp) -> dict:
    """Empty the replay cache and record each plan ``jetlinalg._plan`` makes
    from then on, by (spec, per-point shapes), in the returned dict."""
    plans, plan = {}, jetlinalg._plan

    def recording(spec, shapes):
        plans[spec, shapes] = plan(spec, shapes)
        return plans[spec, shapes]

    mp.setattr(jetlinalg, "_REPLAYS", {})
    mp.setattr(jetlinalg, "_plan", recording)
    return plans


@pytest.fixture(scope="module")
def bundled_plans(tmp_path_factory):
    """The plans made while running every bundled config, by (spec, shapes)."""
    out = tmp_path_factory.mktemp("bundled")
    with pytest.MonkeyPatch.context() as mp:
        plans = _recording_plans(mp)
        for cfg in CONFIGS:
            assert main(["run", str(cfg), "--out", str(out / cfg.stem)]) == 0
        return plans


@pytest.fixture(scope="module")
def bundled_keys(bundled_plans):
    """The (spec, shapes) keys planned while running every bundled config."""
    return sorted(bundled_plans)


def test_bundled_plans_have_no_multi_operand_einsum(bundled_plans):
    # a plain einsum over two or more operands loops in C over every index
    # and need not sum a batch row as the unbatched call does; every step is
    # a pair run as one stacked matmul
    slow = [(key, run) for key, plan in bundled_plans.items()
            for inds, run in plan if isinstance(run, str) or len(inds) != 2]
    assert not slow


def test_bundled_plans_contract_before_outer_products(bundled_plans):
    # a step whose contracted size is 1 is an outer product; run ahead of a
    # contraction it blows up the intermediate the later steps loop over
    outer = [(key, k) for key, plan in bundled_plans.items() if len(plan) > 1
             for k, (_, (prep_a, *_)) in enumerate(plan) if prep_a[2][2] == 1]
    assert not outer


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
    plans = _recording_plans(monkeypatch)
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
    # each batch resolves its own replay from the plan of the per-point shapes
    assert list(plans) == [(spec, tuple(shapes))]


@pytest.mark.parametrize("spec,shapes", [
    ("...ij,jk,k->...i", [(3, 2, 4, 5), (5, 6), (6,)]),
])
def test_ellipsis_and_trace_match_numpy(spec, shapes):
    rng = np.random.default_rng(1)
    ops = [rng.standard_normal(s) for s in shapes]
    want = np.einsum(spec, *ops, optimize=True)
    for _ in range(2):   # planned, then replayed from the cache
        np.testing.assert_allclose(contract(spec, *ops), want, rtol=1e-13, atol=1e-15)
    # only the first operand carries batch axes; each row sums as it alone
    rows = contract(spec, *ops)
    lead = ops[0].ndim - len(spec.split("->")[0].split(",")[0].lstrip("."))
    for idx in np.ndindex(*ops[0].shape[:lead]):
        single = contract(spec, ops[0][idx], *ops[1:])
        assert rows[idx].tobytes() == single.tobytes(), idx


def test_a_letter_with_two_sizes_is_refused():
    # einsum would broadcast the size-1 axis and return 3.0
    with pytest.raises(ValueError, match="sizes"):
        contract("i,i->", np.ones(1), np.ones(3))


@pytest.mark.parametrize("spec,shapes", [
    ("ii->", [(4, 4)]),                           # a trace
    ("...ii->...", [(3, 4, 4)]),                  # a batched trace
    ("ij->j", [(4, 4)]),                          # a lone operand
    ("ab,b->", [(3, 4), (4,)]),                   # a sum inside one operand
    ("abcde,fghij->", [(4,) * 5, (4,) * 5]),      # ten sums inside one operand
])
def test_non_contractions_are_refused(spec, shapes):
    # each is refused by its spec alone, before any plan or array is made
    ops = [np.ones(s) for s in shapes]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="no contraction"):
            contract(spec, *ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert (spec, tuple(shapes)) not in jetlinalg._REPLAYS


@st.composite
def _specs(draw):
    """A 2- to 4-operand spec with per-point shapes and which operands carry
    batch axes, of the forms ``contract`` accepts: no letter repeats within
    an operand, a letter of one operand only is kept in the output, one of
    two or more operands is kept or summed, the contracted set may be empty
    (an outer product), and the output may be 0-d."""
    size = dict(zip("abcdef", draw(st.lists(st.integers(1, 4), min_size=6, max_size=6))))
    subs = draw(st.lists(st.lists(st.sampled_from("abcdef"), max_size=4, unique=True),
                         min_size=2, max_size=4))
    own = [c for c in "abcdef" if sum(c in sub for sub in subs) == 1]
    kept = [c for c in sorted(set().union(*subs)) if c not in own and draw(st.booleans())]
    out = draw(st.permutations(own + kept))
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


@settings(deadline=None, max_examples=60)
@given(case=_specs(), seed=st.integers(0, 2**16))
def test_strided_operands_sum_as_contiguous_ones(case, seed):
    # the same values in another memory layout (the batch axis last in
    # memory, as fancy indexing leaves it) give the same bits, batched and
    # row by row
    spec, shapes, batched = case
    assume(any(batched))
    rng = np.random.default_rng(seed)
    for n in (1, 3, 16):
        ops = [np.moveaxis(rng.standard_normal(s + (n,)), -1, 0) if b
               else rng.standard_normal(s) for b, s in zip(batched, shapes)]
        rows = contract(spec, *ops)
        contiguous = contract(spec, *[op.copy() for op in ops])
        assert rows.tobytes() == contiguous.tobytes(), spec
        for row in range(n):
            single = [op[row] if b else op for b, op in zip(batched, ops)]
            assert rows[row].tobytes() == contract(spec, *single).tobytes(), (spec, n, row)


def test_fancy_indexed_operand_sums_as_its_contiguous_copy():
    # the m=4 theta-density shapes, with a batch of three minors laid out as
    # fancy indexing leaves them (strides (8, 144, 24))
    rng = np.random.default_rng(0)
    minors = np.moveaxis(rng.standard_normal((6, 6, 3)), -1, 0)
    assert minors.strides == (8, 144, 24)
    ops = (rng.standard_normal((6, 4, 4)), rng.standard_normal((6, 4, 4)),
           rng.standard_normal((3, 4, 4, 4, 4)))
    spec = "Qij,Fst,...FQ,...ijst->..."
    want = contract(spec, ops[0], ops[1], np.ascontiguousarray(minors), ops[2])
    assert contract(spec, ops[0], ops[1], minors, ops[2]).tobytes() == want.tobytes()


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
    plan = jetlinalg._plan

    def counting(*args):
        calls.append(args)
        return plan(*args)

    monkeypatch.setattr(jetlinalg, "_REPLAYS", {})
    monkeypatch.setattr(jetlinalg, "_plan", counting)
    assert main(_vacuum_job(tmp_path, "one", 1)) == 0
    planned = set(calls)
    assert len(calls) == len(jetlinalg._REPLAYS) > 0
    # 65 points span two grid blocks; the block of 64 plans each of its new
    # replays once, on per-point shapes planned before
    assert main(_vacuum_job(tmp_path, "many", 65)) == 0
    assert set(calls) == planned
    assert len(calls) == len(jetlinalg._REPLAYS)


def test_each_plan_is_made_once_whatever_the_batch(monkeypatch):
    # blocks of 64, 1 and 17 points resolve a replay per block size for each
    # key, and every replay asks for its plan; the plan of a (spec, per-point
    # shapes) key is made once and shared by all of them
    asked, plan = [], jetlinalg._plan
    monkeypatch.setattr(jetlinalg, "_REPLAYS", {})
    monkeypatch.setattr(jetlinalg, "_plan", lambda *key: asked.append(key) or plan(*key))
    plan.cache_clear()
    field = make_solution("schwarzschild", {"M": 1.0}).tetrad
    for n in (64, 1, 17):
        points = np.array([[0.0, 3.0 + 0.1 * k, 1.1, 0.2] for k in range(n)])
        cp = evaluate_coframe(field, points)
        einstein_density(cp, curvature(spin_connection(cp)))
    keys = set(asked)
    assert len(asked) == len(jetlinalg._REPLAYS) == 3 * len(keys) > 0
    assert plan.cache_info().misses == len(keys)


def _count_calls(monkeypatch, calls: list, name: str):
    """Wrap ``jetlinalg.<name>`` so that each call appends ``name`` to ``calls``."""
    run = getattr(jetlinalg, name)
    monkeypatch.setattr(jetlinalg, name, lambda *args: calls.append(name) or run(*args))


def _widened(spec: str, shapes: tuple, n: int) -> tuple:
    """``shapes`` with the batch axis of each batched operand set to ``n``."""
    subs = spec.split("->")[0].split(",")
    return tuple((n,) + s[1:] if sub.startswith("...") and len(s) > len(sub) - 3 else s
                 for sub, s in zip(subs, shapes))


def test_replays_resolved_once_per_full_shapes(tmp_path, monkeypatch):
    calls = []
    _count_calls(monkeypatch, calls, "_plan")
    _count_calls(monkeypatch, calls, "_replay")
    monkeypatch.setattr(jetlinalg, "_REPLAYS", {})
    assert main(_vacuum_job(tmp_path, "one", 1)) == 0
    replays = set(jetlinalg._REPLAYS)
    # each replay plans its spec once, for itself
    assert calls == ["_replay", "_plan"] * len(replays)
    # a second identical job resolves no replay and plans nothing
    del calls[:]
    assert main(_vacuum_job(tmp_path, "again", 1)) == 0
    assert not calls and set(jetlinalg._REPLAYS) == replays
    # 65 points span blocks of 64 and 1: one new replay per batched key, for
    # the batch of 64, with its plan
    assert main(_vacuum_job(tmp_path, "many", 65)) == 0
    batched = [(spec, shapes) for spec, shapes in replays if _widened(spec, shapes, 64) != shapes]
    new = set(jetlinalg._REPLAYS) - replays
    assert batched and len(new) == len(batched)
    assert new == {(spec, _widened(spec, shapes, 64)) for spec, shapes in batched}
    assert calls == ["_replay", "_plan"] * len(new)


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


def _calls(tree: ast.AST, func: str = "<module>"):
    """(enclosing function, call node) for every call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(node, node.name)
            continue
        if isinstance(node, ast.Call):
            yield func, node
        yield from _calls(node, func)


def _numpy_calls(tree: ast.AST):
    """(enclosing function, numpy attribute, call node) for np.* calls."""
    for func, call in _calls(tree):
        if (isinstance(call.func, ast.Attribute) and isinstance(call.func.value, ast.Name)
                and call.func.value.id in ("np", "numpy")):
            yield func, call.func.attr, call


def _literal_epsilon_pair_specs(call: ast.Call) -> list[str]:
    """The specs ``frame.epsilon_pair`` builds for a call with literal index
    strings, read off the specs it passes to ``contract``."""
    tails = [ast.literal_eval(arg) for arg in call.args[1:5]]
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frame, "contract", lambda spec, *ops: built.append(spec) or np.zeros(()))
        frame.epsilon_pair(np.eye(4), *tails)
    return built


def test_contractions_cannot_bypass_the_plan_cache():
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    bypass, direct, planners, specs, symbols, metrics, pairs = [], [], [], [], [], [], 0
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func, call in _calls(tree):
            where = f"{path.relative_to(ROOT)}:{call.lineno}"
            name = call.func.id if isinstance(call.func, ast.Name) else None
            # the permutation symbol is built for the dual tables alone
            if name == "levi_civita" and (path.name, func) != ("frame.py", "_compound_tables"):
                symbols.append(where)
            # the flat metric is applied as its sign vector; a dense eta is left
            # only in the gauge check of Lambda^T eta Lambda
            if name == "eta" and path.name != "tensors.py" and (path.name, func) != (
                    "gauge.py", "evaluate_gauge"):
                metrics.append(where)
            if name == "epsilon_pair":
                pairs += 1
                specs += [(where, spec) for spec in _literal_epsilon_pair_specs(call)]
        for func, attr, call in _numpy_calls(tree):
            where = f"{path.relative_to(ROOT)}:{call.lineno}"
            if attr == "einsum" and any(k.arg == "optimize" for k in call.keywords):
                bypass.append(where)
            # a spec and two or more operands (or an unpacked list of them);
            # single-operand transposes and traces stay plain einsums
            if (attr == "einsum"
                    and (len(call.args) > 2
                         or any(isinstance(arg, ast.Starred) for arg in call.args))):
                direct.append(where)
            if attr == "einsum_path":
                planners.append((path.name, func))
        specs += [(f"{path.relative_to(ROOT)}:{node.lineno}", node.args[0].value)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("contract", "jet_einsum") and node.args
                  and isinstance(node.args[0], ast.Constant)]
    assert not bypass, f"np.einsum(optimize=...) outside contract: {bypass}"
    assert not direct, f"multi-operand np.einsum in src/: {direct}"
    # contract plans every path itself
    assert not planners, f"np.einsum_path in src/: {planners}"
    assert not symbols, f"levi_civita outside frame._compound_tables: {symbols}"
    assert not metrics, f"dense eta outside its one exempt use: {metrics}"
    assert pairs >= 8
    # every literal spec is of a form contract accepts, so a refused one
    # fails here rather than on a grid run
    assert len(specs) > 30
    refused = []
    for where, spec in specs:
        try:
            jetlinalg._spec_parts(spec)
        except ValueError:
            refused.append((where, spec))
    assert not refused, f"specs contract refuses: {refused}"


# repeats a block still makes, by (site of the first call, site of the repeat):
# a site is the function outside jetlinalg that called contract or jet_einsum.
# None is left: a frame point builds each frame-tied dual once
REPEAT_EXEMPTIONS: set = set()


def _letters_in_order(spec: str) -> str:
    """``spec`` with its letters renamed a, b, c, ... in order of appearance."""
    names = {}
    return "".join(names.setdefault(c, chr(ord("a") + len(names))) if c.isalpha() else c
                   for c in spec)


def _call_site() -> str:
    """The name of the function outside jetlinalg that led to this call."""
    frame_ = sys._getframe(2)
    while frame_.f_globals.get("__name__") == jetlinalg.__name__:
        frame_ = frame_.f_back
    return frame_.f_code.co_name


def test_no_contraction_repeats_on_identical_operands(tmp_path, monkeypatch):
    # the first block of each bundled config makes no contraction twice on
    # bit-identical operands, letters renamed, apart from the named exemptions
    run, block_residuals = jetlinalg.contract, cli._block_residuals
    first, repeats, blocks = {}, {}, []

    def recorded(spec, *operands):
        if len(blocks) == 1:
            key = (_letters_in_order(spec),) + tuple(
                (np.shape(op), np.asarray(op).dtype.str, np.ascontiguousarray(op).tobytes())
                for op in operands)
            site = _call_site()
            if key in first:
                repeats.setdefault((first[key], site), []).append(spec)
            else:
                first[key] = site
        return run(spec, *operands)

    def counted_block(*args):
        blocks.append(None)
        return block_residuals(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("vielbein") and getattr(module, "contract", None) is run:
            monkeypatch.setattr(module, "contract", recorded)
    monkeypatch.setattr(cli, "_block_residuals", counted_block)
    seen = set()
    for config in CONFIGS:
        first.clear()
        repeats.clear()
        blocks.clear()
        assert main(["run", str(config), "--out", str(tmp_path / config.stem)]) == 0
        assert first, config.stem
        unexpected = {k: v for k, v in repeats.items() if k not in REPEAT_EXEMPTIONS}
        assert not unexpected, (config.stem, unexpected)
        seen |= set(repeats)
    assert seen == REPEAT_EXEMPTIONS    # an exemption no block needs is stale
