"""The frame layer over a batch of points: one code path for a block of grid
points and for a single point.

Every batched frame function's rows equal its result at that point alone,
bit for bit, which is what lets the CLI run a whole block at once while the
per-point API (and a per-point replay of a job) gives the same numbers.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vielbein import cli
from vielbein.cli import main
from vielbein.expr import parse
from vielbein.frame import (
    CoframeField,
    DegenerateFrameError,
    curvature,
    curvature_to_coordinate,
    einstein_density,
    evaluate_coframe,
    kretschmann_scalar,
    metric_inverse,
    oracle_from_coframe,
    quadratic_block,
    spin_connection,
    spin_connection_via_christoffels,
    torsion_residual,
)
from vielbein.solutions import random_polynomial
from vielbein.tensors import Signature
from vielbein.variational import (
    SectionPoint,
    contact_pullback,
    el_residual_frame,
    omega_shuffle_identity,
    theta_density,
)


def _frame(case: tuple, seed: int) -> CoframeField:
    dim, sig = case
    field = random_polynomial(seed=seed, amplitude=0.15, dim=dim).tetrad
    return CoframeField(field.entries, Signature(*sig), field.params)


def _outputs(cp) -> dict:
    """Every frame function's output at the frame point ``cp``."""
    sp = spin_connection(cp)
    cv = curvature(sp)
    orc = oracle_from_coframe(cp)
    sec = SectionPoint(cp, sp, holonomic=True)
    out = {name: getattr(cp, name)
           for name in ("e", "de", "dde", "einv", "deinv", "E", "det")}
    out.update(
        omega=sp.omega, domega=sp.domega, omega_mixed=sp.omega_mixed,
        quadratic_block=quadratic_block(sp), R=cv.R, metric_inverse=metric_inverse(cp),
        torsion=torsion_residual(cp, sp), contact=contact_pullback(sec),
        theta=theta_density(sec), shuffle=omega_shuffle_identity(sec),
        einstein_density=einstein_density(cp, cv), el_residual=el_residual_frame(sec),
        christoffel_omega=spin_connection_via_christoffels(cp, orc.gamma),
        curvature_to_coordinate=curvature_to_coordinate(cp, cv),
        kretschmann=kretschmann_scalar(cp, cv),
        **{f"oracle_{k}": getattr(orc, k)
           for k in ("gamma", "riemann", "ricci", "scalar", "einstein", "g", "ginv")})
    return {k: np.asarray(v) for k, v in out.items()}


CASES = [(3, (1, 2)), (4, (1, 3)), (5, (1, 4)), (4, (0, 4)), (4, (2, 2))]


@settings(deadline=None, max_examples=25)
@given(case=st.sampled_from(CASES), seed=st.integers(0, 2**16),
       batch=st.sampled_from([(1,), (3,), (2, 2)]), data=st.data())
def test_batched_rows_equal_single_points(case, seed, batch, data):
    field = _frame(case, seed)
    m = field.dim
    flat = data.draw(st.lists(st.tuples(*[st.floats(-0.6, 0.6)] * m),
                              min_size=int(np.prod(batch)), max_size=int(np.prod(batch))))
    pts = np.array(flat).reshape(batch + (m,))
    cp = evaluate_coframe(field, pts)
    assert np.array(cp.x).shape == pts.shape
    rows = _outputs(cp)
    for idx in np.ndindex(*batch):
        one = _outputs(evaluate_coframe(field, tuple(pts[idx])))
        assert one.keys() == rows.keys()
        for name, want in one.items():
            got = rows[name][idx]
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), (name, idx)


def test_degenerate_row_named_first():
    # e^2_2 = x2 vanishes on the second and fourth rows
    field = CoframeField([[1, 0, 0], [0, parse("x2", 3), 0], [0, 0, 1]], Signature(1, 2))
    pts = np.array([[0.1, 0.5, 0.2], [0.2, 0.0, 0.3], [0.3, 0.4, 0.1], [0.4, 0.0, 0.5]])
    with pytest.raises(DegenerateFrameError) as err:
        evaluate_coframe(field, pts)
    assert str(err.value).startswith("degenerate frame at (0.2, 0.0, 0.3): det=")
    with pytest.raises(DegenerateFrameError) as one:
        evaluate_coframe(field, (0.2, 0.0, 0.3))
    assert str(one.value) == str(err.value)


def _vacuum_job(tmp_path, points, tetrad=None):
    solution = ({"name": "schwarzschild", "params": {"M": 1.0}} if tetrad is None
                else {"inline": {"signature": [1, 3], "tetrad": tetrad}})
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"check": "vacuum", "solution": solution,
                                "grid": {"points": [list(p) for p in points]},
                                "tolerance": 1e-8}), encoding="utf-8")
    return ["run", str(path), "--out", str(tmp_path / "out")]


def test_one_spin_connection_per_block(tmp_path, monkeypatch):
    calls = []

    def counting(cp):
        calls.append(cp.e.shape)
        return spin_connection(cp)

    monkeypatch.setattr(cli, "spin_connection", counting)
    points = [(0.0, 3.0 + 0.1 * n, 1.1, 0.2) for n in range(48)]
    assert main(_vacuum_job(tmp_path, points)) == 0
    assert calls == [(48, 4, 4)]


def test_non_finite_point_named_before_later_degenerate_point(tmp_path, capsys):
    # 0*ln(x2) overflows its derivative at x2 = 1e-310 (point 1, a NaN
    # residual); e^2_2 = x3 vanishes at point 3, which fails the block as a
    # whole; the error still names point 1, the first failing point
    points = [(0.0, 0.5, 1.0, 0.0), (0.0, 1e-310, 1.0, 0.0), (0.0, 0.7, 1.0, 0.0),
              (0.0, 0.5, 0.0, 0.0), (0.0, 0.6, 1.0, 0.0)]
    tetrad = [["1 + 0*ln(x2)", 0, 0, 0], [0, "x3", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    # the overflow and 0*inf in jets.py only warn today (ROADMAP item 6); this
    # fails once they raise at the expression node
    with pytest.warns(RuntimeWarning):
        assert main(_vacuum_job(tmp_path, points, tetrad)) == 3
    err = capsys.readouterr().err
    assert f"at point {points[1]}: non-finite residual vacuum" in err
    assert "degenerate" not in err
    assert not (tmp_path / "out" / "report.json").exists()
