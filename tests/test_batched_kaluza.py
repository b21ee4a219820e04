"""The Kaluza checks over a batch of points: one code path for a block of grid
points and for a single point.

Every row of a batched ``_KaluzaPoint`` equals the result at that point
alone, bit for bit, for the field strength, the stress tensor, the
Einstein-Maxwell and Maxwell residuals, the reduction report and all six
forms of the appendix chain.  Sums over two indices are where a batch can
round differently, so random configurations and blocks of up to sixteen
points exercise them.
"""

import json
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vielbein import cli, frame, kaluza
from vielbein.cli import JobConfig, main
from vielbein.frame import spin_connection
from vielbein.jets import jet_seed
from vielbein.kaluza import _KaluzaPoint, em_stress
from vielbein.solutions import Poly, _seeded_rng, random_kaluza, random_so_generator

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _outputs(kp: _KaluzaPoint) -> dict:
    """Every Kaluza check's output at ``kp``, by name."""
    fs = kp.fs
    out = {f"fs.{name}": getattr(fs, name)
           for name in ("f_coord", "f_frame", "f_frame_up", "f_frame_mixed")}
    mx = kp.maxwell()
    red = kp.reduction()
    chain = kp.chain()
    out.update({
        "em_stress": em_stress(kp.cp, fs).T,
        "einstein_maxwell": kp.einstein_maxwell(),
        "maxwell.raw": mx.raw,
        "maxwell.divergence": mx.divergence,
        **{f"reduction.{name}": getattr(red, name)
           for name in ("fiber_fiber", "fiber_rotation", "mixed_block", "base_block")},
        **{f"chain.einstein{r}": form for r, form in enumerate(chain.einstein_forms)},
        **{f"chain.maxwell{r}": form for r, form in enumerate(chain.maxwell_forms)},
    })
    return {k: np.asarray(v) for k, v in out.items()}


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**16), batch=st.sampled_from([(1,), (3,), (2, 2), (16,)]),
       data=st.data())
def test_batched_kaluza_rows_equal_single_points(seed, batch, data):
    cfg = random_kaluza(seed=seed, amplitude=0.15)
    flat = data.draw(st.lists(st.tuples(*[st.floats(-0.6, 0.6)] * 4),
                              min_size=int(np.prod(batch)), max_size=int(np.prod(batch))))
    pts = np.array(flat).reshape(batch + (4,))
    rows = _outputs(_KaluzaPoint(cfg, pts))
    for idx in np.ndindex(*batch):
        one = _outputs(_KaluzaPoint(cfg, tuple(pts[idx])))
        assert one.keys() == rows.keys()
        for name, want in one.items():
            got = rows[name][idx]
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), (name, idx)


@pytest.mark.parametrize("seed", [2, 9])
def test_gauge_transformed_config_rows_equal_single_points(seed):
    # the rotated tetrad takes a block through the Cayley transform, so the
    # transformed configuration runs every check on a block as well
    cfg = random_kaluza(seed=seed, amplitude=0.15)
    rng = _seeded_rng(seed)
    gen = random_so_generator(rng, kaluza.SIG4, amplitude=0.25, degree=2)
    cfg2 = kaluza.transform_config(cfg, gen, Poly.random(rng, 4, degree=3, amplitude=0.25))
    pts = np.linspace(-0.6, 0.6, 20).reshape(5, 4)
    tet = cfg2.tetrad.eval_jets(jet_seed(pts))
    rows = _outputs(_KaluzaPoint(cfg2, pts))
    for k, pt in enumerate(pts):
        alone = cfg2.tetrad.eval_jets(jet_seed(pt))
        for got, want in ((tet.val, alone.val), (tet.jac, alone.jac), (tet.hess, alone.hess)):
            assert got[k].tobytes() == want.tobytes()
        for name, want in _outputs(_KaluzaPoint(cfg2, tuple(pt))).items():
            assert rows[name][k].tobytes() == want.tobytes(), (name, k)


def test_report_types_take_any_batch_shape():
    cfg = random_kaluza(seed=5, amplitude=0.15)
    pts = np.linspace(-0.4, 0.4, 24).reshape(2, 3, 4)
    kp = _KaluzaPoint(cfg, pts)
    red, chain = kp.reduction(), kp.chain()
    assert kp.fs.invariant.shape == (2, 3)
    assert red.max_deviation.shape == chain.max_deviation.shape == (2, 3)
    one = _KaluzaPoint(cfg, tuple(pts[1, 2]))
    # a single point still reads scalars
    for value in (one.fs.invariant, one.reduction().max_deviation,
                  one.chain().max_deviation):
        assert isinstance(value, float)
    assert red.max_deviation[1, 2] == one.reduction().max_deviation
    assert chain.max_deviation[1, 2] == one.chain().max_deviation
    assert kp.fs.invariant[1, 2] == one.fs.invariant


def _bundled_job(name: str):
    """A bundled config's job, resolved as ``cli.run_job`` resolves it."""
    job = JobConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    ref = dict(job.solution)
    if ref["name"].startswith("random"):
        ref["params"] = {"seed": job.seed, **ref.get("params", {})}
    _, _, tetrad, kcfg = cli._resolve_solution(ref)
    return job, tetrad, kcfg, cli._grid_points(job.grid, 4)


@pytest.mark.parametrize("name", ["appendixA_rn", "einstein_maxwell_rn", "reduction_random"])
def test_kaluza_residuals_do_not_depend_on_the_block_size(name):
    job, tetrad, kcfg, points = _bundled_job(name)
    runs = {}
    for size in (1, None):
        blocks = list(cli._grid_residuals(job, tetrad, kcfg, points, size))
        runs[size] = {cid: np.concatenate([named[cid] for _, named, _ in blocks])
                      for cid in blocks[0][1]}
        grid = np.concatenate([block for block, *_ in blocks])
        assert grid.shape == points.shape and grid.tobytes() == points.tobytes()
    assert runs[1].keys() == runs[None].keys()
    for cid, rows in runs[None].items():
        assert rows.shape[0] == len(points)
        assert rows.tobytes() == runs[1][cid].tobytes(), cid


def test_kaluza_frame_points_hold_the_block():
    # the 4D frame point holds the block it was given; the lift pads it with x5 = 0
    block = np.array([[0.1, 3.0, 1.2, 0.3], [0.2, 4.5, 1.1, -0.2]])
    kp = _KaluzaPoint(random_kaluza(seed=3, amplitude=0.15, k=1.1), block)
    assert kp.cp.x is block
    assert kp.cp5.x.tolist() == [[*row, 0.0] for row in block.tolist()]


def test_one_spin_connection_per_kaluza_block(tmp_path, monkeypatch):
    calls = []

    def counting(cp):
        calls.append(cp.e.shape)
        return spin_connection(cp)

    monkeypatch.setattr(kaluza, "spin_connection", counting)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "check": "appendixA",
        "solution": {"name": "reissner_nordstrom", "params": {"M": 1.0, "Q": 0.3}},
        "grid": {"points": [[0.0, 3.0 + 0.5 * n, 1.2, 0.1] for n in range(12)]},
        "tolerance": 1e-9,
    }), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == [(12, 4, 4), (12, 5, 5)]


# the frame index is lowered once per spin connection: the 4D one of an
# identities block; the 5D and the 4D ones of an appendixA block
@pytest.mark.parametrize("name, lowerings", [("identities_random", 1), ("appendixA_rn", 2)])
def test_one_lowering_per_spin_connection(name, lowerings, monkeypatch):
    job, tetrad, kcfg, points = _bundled_job(name)
    lower = frame.SpinConnectionPoint.omega_mixed.func
    calls = []

    def counting(sp):
        calls.append(sp.omega.shape)
        return lower(sp)

    prop = cached_property(counting)
    prop.__set_name__(frame.SpinConnectionPoint, "omega_mixed")
    monkeypatch.setattr(frame.SpinConnectionPoint, "omega_mixed", prop)
    cli._block_residuals(job, tetrad, kcfg, points)
    assert len(calls) == lowerings


def test_appendix_chain_builds_each_compound_once(monkeypatch):
    # the five double-epsilon blocks of a chain block take three frame
    # compounds: the 5D frame's at n_e = 2, and the tetrad's at n_e = 1 and 2,
    # which route 2 (on the tetrad block of the 5D frame) shares with route 3
    built, build = [], frame.frame_compound
    monkeypatch.setattr(frame, "frame_compound",
                        lambda e, n_e: built.append((e.shape[-1], n_e)) or build(e, n_e))
    pts = np.random.default_rng(4).uniform(-0.5, 0.5, (8, 4))
    _KaluzaPoint(random_kaluza(seed=4, amplitude=0.15), pts).chain()
    assert sorted(built) == [(4, 1), (4, 2), (5, 2)]
