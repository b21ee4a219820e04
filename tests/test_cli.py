import csv
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vielbein import cli
from vielbein.cli import main
from vielbein.frame import SpinConnectionPoint, evaluate_coframe, spin_connection

VAC = {
    "check": "vacuum",
    "solution": {"name": "schwarzschild", "params": {"M": 1.0}},
    "grid": {"ranges": [
        {"lo": 0, "hi": 0, "n": 1},
        {"lo": 3, "hi": 10, "n": 5},
        {"lo": 0.6, "hi": 2.5, "n": 5},
        {"lo": 0.2, "hi": 0.2, "n": 1},
    ]},
    "tolerance": 1e-8,
    "seed": 7,
}


def _write(tmp_path, cfg, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_vacuum_pass_exit_zero(tmp_path, capsys):
    code = main(["run", _write(tmp_path, VAC), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass vacuum" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert report["results"][0]["max"] < 1e-10
    assert report["solution"]["label"] == "schwarzschild"
    assert len(report["points"]) == 25
    assert set(report["points"][0]["norms"]) == {"vacuum"}
    assert report["tool"]["name"] == "vielbein"


def test_einstein_maxwell_pass(tmp_path):
    cfg = {
        "check": "einstein-maxwell",
        "solution": {"name": "reissner_nordstrom", "params": {"M": 1.0, "Q": 0.5}},
        "grid": {"points": [[0.0, 3.0, 1.2, 0.3], [0.0, 6.0, 1.0, 0.5]]},
        "tolerance": 1e-7,
        "tolerances": {"maxwell": 1e-8},
        "seed": 1,
    }
    code = main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    ids = {r["check_id"]: r for r in report["results"]}
    assert set(ids) == {"einstein_maxwell", "maxwell"}
    assert ids["maxwell"]["tolerance"] == 1e-8


def test_tolerance_failure_exit_one(tmp_path, capsys):
    cfg = dict(VAC)
    cfg["tolerance"] = 1e-30
    code = main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_identities_and_corrupt_flag(tmp_path, monkeypatch):
    cfg = {
        "check": "identities",
        "solution": {"name": "random_polynomial", "params": {"seed": 5, "amplitude": 0.1}},
        "grid": {"points": [[0.2, -0.3, 0.4, 0.1]]},
        "tolerance": 1e-9,
        "seed": 5,
    }
    path = _write(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "a")]) == 0

    def corrupt_spin_connection(cp):
        # flip the sign of one antisymmetric pair of omega
        sp = spin_connection(cp)
        omega = sp.omega.copy()
        omega[..., 0, 0, 1] = -omega[..., 0, 0, 1]
        omega[..., 0, 1, 0] = -omega[..., 0, 1, 0]
        return SpinConnectionPoint(omega=omega, domega=sp.domega, signature=sp.signature)

    monkeypatch.setattr(cli, "spin_connection", corrupt_spin_connection)
    assert main(["run", path, "--out", str(tmp_path / "b")]) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_configs_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    path.write_bytes(b"\xff{")   # not UTF-8
    assert main(["run", str(path)]) == 2
    errs = [capsys.readouterr().err]

    for broken in [
        {**VAC, "check": "nope"},
        {**VAC, "tolerance": -1},
        {**VAC, "grid": {"points": []}},
        {**VAC, "solution": {"name": "kerr"}},
        {**VAC, "grid": {"ranges": [{"lo": 0, "hi": 1, "n": 2}]}},
        {**VAC, "seed": "x"},
        {**VAC, "tolerance_overrides": {"vacuum": 1e-30}},   # meant as tolerances
        {**VAC, "debug": True},                               # removed key
        {**VAC, "grid": {"points": [1, 2]}},
        {**VAC, "grid": {"points": 5}},
        {**VAC, "grid": {"points": [["a", 3, 1.2, 0.3]]}},
        {**VAC, "grid": {"ranges": 5}},
        {**VAC, "grid": {"ranges": [{"lo": 0, "hi": 1, "n": -1}] * 4}},
        # json reads NaN and Infinity; the report could not echo them
        {**VAC, "tolerance": float("inf")},
        {**VAC, "tolerances": {"vacuum": float("inf")}},
        {**VAC, "grid": {"points": [[0.0, float("nan"), 1.2, 0.3]]}},
        {**VAC, "grid": {**VAC["grid"], "note": float("nan")}},
        {**VAC, "grid": {"ranges": [{"lo": 0, "hi": 1, "n": float("inf")}] * 4}},
        # finite in the config, not once made floats
        {**VAC, "tolerance": 10**400},
        {**VAC, "grid": {"points": [[0, 10**400, 1.2, 0.3]]}},
        {**VAC, "grid": {"ranges": [{"lo": -1e308, "hi": 1e308, "n": 3}] * 4}},
        # number literals beyond float range (the string "1e400" is written
        # bare below): json reads them as inf, even where no check reads them
        {**VAC, "grid": {**VAC["grid"], "note": "1e400"}},
        {**VAC, "solution": {"name": "schwarzschild", "params": {"M": "1e400"}}},
        {**VAC, "tolerance": "-1e400"},
        # a boolean is no number, and a fraction no count of points
        {**VAC, "grid": {"ranges": [VAC["grid"]["ranges"][0], {"lo": 3, "hi": 10, "n": 2.7},
                                    *VAC["grid"]["ranges"][2:]]}},
        {**VAC, "grid": {"ranges": [{"lo": 0, "hi": 0, "n": True}, *VAC["grid"]["ranges"][1:]]}},
        {**VAC, "grid": {"ranges": [{"lo": True, "hi": 1, "n": 1}, *VAC["grid"]["ranges"][1:]]}},
        {**VAC, "grid": {"points": [[0.0, True, 1.2, 0.3]]}},
        {**VAC, "solution": {"name": "schwarzschild", "params": {"M": True}}},
        # both alternatives of a grid or a solution: a job would run one, ignore the other
        {**VAC, "grid": {**VAC["grid"], "points": [[0.0, 3.0, 1.2, 0.3]]}},
        {**VAC, "grid": {"ranges": [], "points": [[0.0, 3.0, 1.2, 0.3]]}},
        {**VAC, "solution": {"name": "schwarzschild",
                             "inline": {"signature": [1, 3], "tetrad": np.eye(4).tolist()}}},
        # a tolerance for no check of the job would leave its check on the global one
        {**VAC, "check": "einstein-maxwell",
         "solution": {"name": "reissner_nordstrom", "params": {"M": 1.0, "Q": 0.5}},
         "grid": {"points": [[0.0, 3.0, 1.2, 0.3]]}, "tolerances": {"maxwel": 1e-3}},
    ]:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(broken).replace('"1e400"', "1e400")
                        .replace('"-1e400"', "-1e400"), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        errs.append(capsys.readouterr().err)
    assert all("config error" in err for err in errs)
    assert "'tolerance_overrides'" in "".join(errs) and "'debug'" in "".join(errs)
    for field in ("grid.ranges[1].n: 2.7", "grid.ranges[0].n: True", "grid.ranges[0].lo: True",
                  "grid.points: True", "solution.params.M: True", "'maxwel'",
                  "exactly one of 'ranges' and 'points'", "exactly one of 'name' and 'inline'"):
        assert field in "".join(errs), field
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("counts,builder", [((100000, 100000, 1, 1), "linspace"),
                                            ((100000, 100000, 1, 1), "meshgrid"),
                                            ((10**12,) * 4, "linspace")])
def test_grid_too_large_to_build_exit_two(tmp_path, capsys, monkeypatch, counts, builder):
    # numpy's MemoryError while the grid is built is a config error that
    # names the point count; no test allocates such a grid for real (the
    # axes of 10**12 points never reach a real np.linspace)
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli.np, builder, no_memory)
    cfg = {**VAC, "grid": {"ranges": [{"lo": 1, "hi": 2, "n": n} for n in counts]}}
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"a grid of {math.prod(counts)} points" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("solution, message", [
    ({"name": "random_polynomial", "params": 5}, "solution.params: 5 is not an object"),
    ({"name": "schwarzschild", "params": [1, 2, 3, 4]},
     "solution.params: [1, 2, 3, 4] is not an object"),
    ({"inline": {"signature": [1, 3], "tetrad": np.eye(4).tolist(), "params": None}},
     "solution.inline.params: None is not an object"),
    # numpy refuses a negative seed; the error names the parameter
    ({"name": "random_polynomial", "params": {"seed": -3}},
     "seed must be a non-negative integer, got -3"),
])
def test_bad_solution_params_exit_two(tmp_path, capsys, solution, message):
    cfg = {**VAC, "check": "identities", "solution": solution,
           "grid": {"points": [[0.1, 0.2, 0.3, 0.4]]}}
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_random_kaluza_seed_exit_two(tmp_path, capsys):
    cfg = {**VAC, "check": "einstein-maxwell",
           "solution": {"name": "random_kaluza", "params": {"seed": -3}},
           "grid": {"points": [[0.1, 0.2, 0.3, 0.4]]}}
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: bad parameters for random_kaluza: seed must be a non-negative" in err


def test_missing_potential_exit_two(tmp_path):
    cfg = {
        "check": "reduction",
        "solution": {"name": "schwarzschild"},
        "grid": {"points": [[0.0, 4.0, 1.2, 0.3]]},
        "tolerance": 1e-10,
    }
    assert main(["run", _write(tmp_path, cfg)]) == 2


def test_domain_error_exit_three(tmp_path, capsys):
    cfg = dict(VAC)
    cfg["grid"] = {"points": [[0.0, 1.0, 1.2, 0.3]]}   # inside the horizon
    code = main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "evaluation error" in err
    assert "1.0" in err        # offending point reported
    assert "sqrt" in err       # offending subexpression reported


def _inline_vacuum(entry):
    tetrad = [[entry, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return {**VAC, "solution": {"inline": {"signature": [1, 3], "tetrad": tetrad}},
            "grid": {"points": [[0.0, 0.5, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0]]}}


def test_number_to_jet_power_runs(tmp_path):
    cfg = _inline_vacuum("1 + 0*2^x2")
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("name", ["M", "sin"])
def test_undefined_parameter_exit_two(tmp_path, capsys, name):
    # an inline entry that reads a parameter the config does not define (a bare
    # function name reads as one) is refused before the grid runs
    flat = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for check, inline, field in [
        ("vacuum", {"tetrad": [[f"1 + 0*{name}", 0, 0, 0], *flat[1:]]}, "tetrad[0][0]"),
        ("einstein-maxwell",
         {"tetrad": flat, "params": {"Q": 0.5}, "A": ["Q", 0, 0, f"1 + 0*{name}"]}, "A[3]"),
    ]:
        cfg = {**VAC, "check": check, "solution": {"inline": {"signature": [1, 3], **inline}}}
        assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"solution.inline.{field}: undefined parameter {name!r}" in err
    assert not (tmp_path / "out").exists()


def test_negative_base_power_exit_three(tmp_path, capsys):
    cfg = _inline_vacuum("1 + 0*(0-2)^x2")
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "evaluation error" in err and "(0.0 - 2.0)^x2" in err


# 0*ln(x2) has a finite value but a 1/x2 derivative that overflows at
# x2 = 1e-310, the middle point
NAN_GRID = [[0.0, 0.5, 0.0, 0.0], [0.0, 1e-310, 0.0, 0.0], [0.0, 0.7, 0.0, 0.0]]
NAN_JOB = {
    "check": "vacuum",
    "solution": {"inline": {
        "signature": [1, 3],
        "tetrad": [["1 + 0*ln(x2)", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                   [0, 0, 0, 1]],
    }},
    "tolerance": 1e-8,
    "seed": 0,
}


@pytest.mark.parametrize("order", [[0, 1, 2], [1, 0, 2]])
def test_non_finite_residual_exit_three(tmp_path, capsys, order):
    cfg = {**NAN_JOB, "grid": {"points": [NAN_GRID[i] for i in order]}}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out), "--csv"]) == 3
    err = capsys.readouterr().err
    # the overflow raises at the expression node, before any residual is formed
    assert "at point (0.0, 1e-310, 0.0, 0.0): overflow encountered" in err
    assert "in 'ln(x2)'" in err and "non-finite" not in err
    assert not (out / "report.json").exists() and not (out / "points.csv").exists()


def test_unwritable_out_dir_exit_two(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    assert main(["run", _write(tmp_path, VAC), "--out", str(blocker)]) == 2


def test_reports_are_byte_deterministic(tmp_path):
    cfg = {
        "check": "reduction",
        "solution": {"name": "random_kaluza", "params": {"seed": 3, "amplitude": 0.1}},
        "grid": {"ranges": [
            {"lo": -0.4, "hi": 0.4, "n": 2},
            {"lo": -0.4, "hi": 0.4, "n": 2},
            {"lo": 0.1, "hi": 0.1, "n": 1},
            {"lo": 0.0, "hi": 0.2, "n": 2},
        ]},
        "tolerance": 1e-10,
        "seed": 9,
    }
    p = _write(tmp_path, cfg)
    assert main(["run", p, "--out", str(tmp_path / "r1"), "--csv"]) == 0
    assert main(["run", p, "--out", str(tmp_path / "r2"), "--csv"]) == 0
    assert ((tmp_path / "r1" / "report.json").read_bytes()
            == (tmp_path / "r2" / "report.json").read_bytes())
    assert ((tmp_path / "r1" / "points.csv").read_bytes()
            == (tmp_path / "r2" / "points.csv").read_bytes())


def test_csv_schema(tmp_path):
    code = main(["run", _write(tmp_path, VAC), "--out", str(tmp_path / "out"), "--csv"])
    assert code == 0
    with (tmp_path / "out" / "points.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "x3", "x4", "check_id", "component_id", "value"]
    # 25 points x (16 components + norm row)
    assert len(rows) - 1 == 25 * 17
    assert {r[4] for r in rows[1:]} == {"vacuum"}
    norms = [r for r in rows[1:] if r[5] == "norm"]
    assert len(norms) == 25
    assert all(abs(float(r[6])) < 1e-10 for r in norms)


def _reference_csv(dim, blocks, per_check):
    """points.csv as the nested writer wrote it, kept as the reference: per
    point, per sorted check, one f-string row per component, then its norm."""
    norms = {check_id: iter(col) for check_id, col in per_check.items()}
    out = [",".join(f"x{i + 1}" for i in range(dim)) + ",check_id,component_id,value\r\n"]
    for block, named in blocks:
        for n, point in enumerate(block):
            head = ",".join(map(repr, point))
            for check_id, arr in sorted(named.items()):
                comps = ["_".join(map(str, i)) for i in np.ndindex(arr.shape[1:])]
                out.extend(f"{head},{check_id},{comp},{v!r}\r\n"
                           for comp, v in zip(comps, arr[n].ravel().tolist()))
                out.append(f"{head},{check_id},norm,{next(norms[check_id])!r}\r\n")
    return "".join(out)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e16, 1.7976931348623157e308,
               -1.7976931348623157e308]
CSV_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _csv_jobs(draw):
    """(dim, blocks, per_check) for the block-by-block writer: 1-3 checks of
    different per-point shapes, full blocks of one size and a partial last block."""
    dim = draw(st.integers(1, 5))
    shapes = draw(st.lists(st.sampled_from([(1,), (3,), (2, 2), (4, 4, 4), (2, 1, 3)]),
                           min_size=1, max_size=3, unique=True))
    ids = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,9}", fullmatch=True),
                        min_size=len(shapes), max_size=len(shapes), unique=True))
    size = draw(st.integers(2, 5))
    sizes = [size] * draw(st.integers(1, 3)) + [draw(st.integers(1, size - 1))]
    blocks = []
    for n in sizes:
        block = [tuple(draw(st.lists(CSV_FLOATS, min_size=dim, max_size=dim)))
                 for _ in range(n)]
        named = {check_id: np.array(draw(st.lists(CSV_FLOATS, min_size=n * math.prod(shape),
                                                  max_size=n * math.prod(shape))))
                 .reshape(n, *shape) for check_id, shape in zip(ids, shapes)}
        blocks.append((block, named))
    total = sum(sizes)
    per_check = {check_id: draw(st.lists(CSV_FLOATS, min_size=total, max_size=total))
                 for check_id in ids}
    return dim, blocks, per_check


_EDGE_JOB = (2, [([(-0.0, 5e-324), (1e16, 1e-05)],
                  {"a": np.array([[1.7976931348623157e308], [-1.7976931348623157e308]]),
                   "b_2": np.array(EDGE_FLOATS).reshape(2, 2, 2)}),
                 ([(1.0, -1.0)], {"a": np.array([[-0.0]]),
                                  "b_2": np.array(EDGE_FLOATS[::2]).reshape(1, 2, 2)})],
             {"a": [1.7976931348623157e308, 1e16, 0.0], "b_2": [5e-324, 1e-05, -0.0]})
# values repeat within and across blocks, each block ranks them differently, and
# 0.0 and -0.0 share the middle block
_REPEAT_JOB = (1, [([(0.5,)], {"c": np.array([[0.25, -0.0, 0.25]])}),
                   ([(1.0,), (1.5,)], {"c": np.array([[0.0, 0.25, -0.0], [3.0, 3.0, 0.0]])}),
                   ([(2.0,)], {"c": np.array([[-0.25, 0.25, 1e-300]])})],
               {"c": [0.25, 0.25, 3.0, 0.25]})


def _stream_csv(path, blocks, per_check):
    """Write the job through the block-by-block writer, each block with its own
    slice of the norms, as run_job does."""
    start = 0
    with cli._CsvStream(path) as out:
        for block, named in blocks:
            n = len(block)
            out.write(block, named, {c: np.array(col[start:start + n])
                                     for c, col in per_check.items()})
            start += n
        out.commit()


@settings(deadline=None, max_examples=60)
@given(job=_csv_jobs())
@example(job=_EDGE_JOB)
@example(job=_REPEAT_JOB)
def test_write_csv_matches_nested_reference(tmp_path_factory, job):
    dim, blocks, per_check = job
    path = tmp_path_factory.mktemp("csv") / "points.csv"
    _stream_csv(path, blocks, per_check)
    assert path.read_bytes() == _reference_csv(dim, blocks, per_check).encode("utf-8")
    assert [p.name for p in path.parent.iterdir()] == ["points.csv"]


def test_csv_stream_removes_its_file_on_error(tmp_path):
    _, blocks, per_check = _REPEAT_JOB
    with pytest.raises(KeyError), cli._CsvStream(tmp_path / "points.csv") as out:
        out.write(*blocks[0], {"c": np.array(per_check["c"][:1])})
        assert [p.name for p in tmp_path.iterdir()] == [".points.csv.tmp"]
        out.write(*blocks[1], {})   # no norms: fails mid-stream
    assert list(tmp_path.iterdir()) == []


def _ranges(*spans):
    return {"ranges": [{"lo": lo, "hi": hi, "n": n} for lo, hi, n in spans]}


@pytest.mark.parametrize("cfg, sizes", [
    ({"check": "einstein-maxwell",
      "solution": {"name": "reissner_nordstrom", "params": {"M": 1.0, "Q": 0.5}},
      "grid": _ranges((0, 0, 1), (3, 10, 5), (0.8, 2.2, 4), (0.1, 0.1, 1)),
      "tolerance": 1e-7}, [16, 4]),
    ({**VAC, "grid": _ranges((0, 0, 1), (3, 10, 5), (0.6, 2.5, 5), (0.1, 0.3, 3))}, [64, 11]),
], ids=["einstein-maxwell", "vacuum"])
def test_csv_rows_across_blocks(tmp_path, cfg, sizes):
    # the row tails are built from the first block and each block's values are
    # formatted apart: every row of every block must still be its point's own value
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out), "--csv"]) == 0
    job = cli.JobConfig.from_dict(cfg)
    _, _, tetrad, kcfg = cli._resolve_solution(job.solution)
    blocks = list(cli._grid_residuals(job, tetrad, kcfg, cli._grid_points(job.grid, 4)))
    assert [len(block) for block, *_ in blocks] == sizes
    report = json.loads((out / "report.json").read_text())
    with (out / "points.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expected, records = [], iter(report["points"])
    for block, named, _ in blocks:
        for n, point in enumerate(block):
            norms = next(records)["norms"]
            for check_id, arr in sorted(named.items()):
                expected += [(point, check_id, "_".join(map(str, idx)), arr[n][idx])
                             for idx in np.ndindex(arr.shape[1:])]
                expected.append((point, check_id, "norm", norms[check_id]))
    assert [(tuple(map(float, r[:4])), r[4], r[5], float(r[6])) for r in rows] == expected


def test_csv_memory_does_not_grow_with_the_grid(tmp_path):
    # points.csv is written as the blocks pass: on 1024 points (16 blocks, ~450 rows
    # a point) holding every block's residuals to the end would add ~3.4 MB
    cfg = {"check": "identities",
           "solution": {"name": "random_polynomial", "params": {"seed": 5, "amplitude": 0.1}},
           "grid": _ranges((-0.2, 0.2, 4), (-0.3, 0.3, 4), (0.4, 0.5, 8), (0.0, 0.1, 8)),
           "tolerance": 1e-9}
    path = _write(tmp_path, cfg)
    # one block first, untraced, so that neither traced run pays for filling the caches
    warm = {**cfg, "grid": _ranges((-0.2, 0.2, 4), (-0.3, 0.3, 4), (0.4, 0.5, 4), (0, 0, 1))}
    assert main(["run", _write(tmp_path, warm, "warm.json"), "--out", str(tmp_path / "w")]) == 0
    peaks = []
    for args in ([], ["--csv"]):
        tracemalloc.start()
        try:
            assert main(["run", path, "--out", str(tmp_path / "out"), *args]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_outputs_of_an_earlier_run_are_removed(tmp_path):
    # a run without --csv must not leave the previous run's points.csv beside its report
    configs = Path(__file__).resolve().parent.parent / "configs"
    out = str(tmp_path / "out")
    assert main(["run", str(configs / "vacuum_schwarzschild.json"), "--out", out, "--csv"]) == 0
    assert main(["run", str(configs / "identities_random.json"), "--out", out]) == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["check"] == "identities"
    assert not (tmp_path / "out" / "points.csv").exists()


def test_failed_run_removes_earlier_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, VAC), "--out", str(out), "--csv"]) == 0
    cfg = {**VAC, "grid": {"points": [[0.0, 1.0, 1.2, 0.3]]}}   # inside the horizon
    assert main(["run", _write(tmp_path, cfg), "--out", str(out), "--csv"]) == 3
    assert not (out / "report.json").exists() and not (out / "points.csv").exists()


@pytest.mark.parametrize("cfg, code, left", [
    (VAC, 0, ["points.csv", "report.json"]),
    # the first block of 64 passes and is written, the second fails inside the horizon
    ({**VAC, "grid": {"points": [[0.0, 3.0 + r / 8, 1.2, 0.3] for r in range(64)]
                                + [[0.0, 1.0, 1.2, 0.3]]}}, 3, []),
    # refused at the first block, before the directory is made
    ({**VAC, "tolerances": {"vacum": 1e-3}}, 2, None),
], ids=["pass", "later-block-error", "unknown-tolerance"])
def test_csv_job_leaves_no_temporary_file(tmp_path, cfg, code, left):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out), "--csv"]) == code
    assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == left


def test_seed_override_recorded(tmp_path):
    p = _write(tmp_path, VAC)
    assert main(["run", p, "--out", str(tmp_path / "out"), "--seed", "123"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 123


def test_seed_flows_into_random_solutions(tmp_path):
    cfg = {
        "check": "identities",
        "solution": {"name": "random_polynomial", "params": {"amplitude": 0.1}},
        "grid": {"points": [[0.2, -0.3, 0.4, 0.1]]},
        "tolerance": 1e-9,
    }
    p = _write(tmp_path, cfg)
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert main(["run", p, "--out", str(out), "--seed", seed]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    assert reports[0]["solution"]["params"]["seed"] == 1
    assert reports[1]["solution"]["params"]["seed"] == 2
    # different seeds, different random frames, different residual norms
    assert reports[0]["points"] != reports[1]["points"]


def test_inline_solution_and_theta_density(tmp_path):
    cfg = {
        "check": "theta-density",
        "solution": {"inline": {
            "signature": [1, 3],
            "tetrad": [["1 + 0.1*x2^2", 0, 0, 0],
                       [0, 1, 0, 0],
                       [0, 0, 1, 0],
                       [0, 0, 0, 1]],
        }},
        "grid": {"points": [[0.0, 0.6, 0.0, 0.0], [0.2, -0.4, 0.3, 0.1]]},
        "tolerance": 1e-9,
    }
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0


def test_appendixA_via_cli(tmp_path):
    cfg = {
        "check": "appendixA",
        "solution": {"name": "random_kaluza", "params": {"seed": 2}},
        "grid": {"points": [[0.1, -0.2, 0.3, 0.0]]},
        "tolerance": 1e-9,
    }
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0


def test_bad_inline_solution(tmp_path):
    cfg = {
        "check": "vacuum",
        "solution": {"inline": {"signature": [1, 3], "tetrad": [["sin(", 0, 0, 0]]}},
        "grid": {"points": [[0, 0, 0, 0]]},
        "tolerance": 1e-8,
    }
    assert main(["run", _write(tmp_path, cfg)]) == 2


# a flat frame with a constant potential: every check passes
_INLINE_RN = {"signature": [1, 3], "A": ["0.1", 0, 0, 0], "k": 2,
              "tetrad": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}


# json's true is a Python int, which float() and int() read as 1
@pytest.mark.parametrize("check, inline, field", [
    ("vacuum", {**_INLINE_RN, "tetrad": [[True, 0, 0, 0], *_INLINE_RN["tetrad"][1:]]},
     "solution.inline.tetrad[0][0]: True"),
    ("einstein-maxwell", {**_INLINE_RN, "A": ["0.1", 0, True, 0]}, "solution.inline.A[2]: True"),
    ("einstein-maxwell", {**_INLINE_RN, "k": True}, "solution.inline.k: True"),
    ("vacuum", {**_INLINE_RN, "signature": [True, 3]}, "solution.inline.signature[0]: True"),
], ids=["tetrad", "A", "k", "signature"])
def test_inline_boolean_is_no_number(tmp_path, capsys, check, inline, field):
    cfg = {**VAC, "check": check, "solution": {"inline": inline},
           "grid": {"points": [[0.0, 0.5, 0.0, 0.0]]}}
    assert main(["run", _write(tmp_path, {**cfg, "solution": {"inline": _INLINE_RN}}),
                 "--out", str(tmp_path / "ok")]) == 0
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_list_solutions(capsys, monkeypatch):
    assert main(["--list-solutions"]) == 0
    out = capsys.readouterr().out
    assert "schwarzschild" in out and "reissner_nordstrom" in out
    assert "  schwarzschild(M=1.0)\n" in out
    assert "  random_kaluza(seed=0, amplitude=0.1, k=1.3)   [checks needing a potential]" in out
    # the defaults shown are read from the factory's signature
    monkeypatch.setattr(cli, "random_kaluza", lambda seed=7, amplitude=0.2, k=2.0: None)
    assert main(["--list-solutions"]) == 0
    assert "  random_kaluza(seed=7, amplitude=0.2, k=2.0)   [" in capsys.readouterr().out


def test_no_command_prints_usage():
    assert main([]) == 2


def _point_grid(points):
    return {"points": [list(p) for p in points]}


def test_error_names_first_failing_point(tmp_path, capsys):
    # the block of five fails as a whole; re-run point by point, the error
    # names the third point, the one inside the horizon
    points = [(0.0, r, 1.2, 0.3) for r in (3.0, 4.0, 1.0, 5.0, 6.0)]
    cfg = {**VAC, "grid": _point_grid(points)}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out), "--csv"]) == 3
    err = capsys.readouterr().err
    assert str(points[2]) in err and "sqrt" in err
    assert not (out / "report.json").exists() and not (out / "points.csv").exists()


def test_error_order_degenerate_before_domain(tmp_path, capsys):
    # e^1_1 = x2 is degenerate at point 1, sqrt(x3) leaves its domain at
    # point 3: the block evaluation trips on point 3, the re-run on point 1
    points = [(0.0, 1.0, 1.0, 0.0), (0.1, 0.0, 1.0, 0.0), (0.2, 1.0, 1.0, 0.0),
              (0.3, 1.0, -1.0, 0.0), (0.4, 1.0, 1.0, 0.0)]
    cfg = {
        "check": "vacuum",
        "solution": {"inline": {
            "signature": [1, 3],
            "tetrad": [["x2", 0, 0, 0], [0, "sqrt(x3)", 0, 0], [0, 0, 1, 0],
                       [0, 0, 0, 1]],
        }},
        "grid": _point_grid(points),
        "tolerance": 1e-8,
    }
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(points[1]) in err and "degenerate" in err
    assert str(points[3]) not in err
    assert not (out / "report.json").exists()


def test_singular_metric_names_the_first_point(tmp_path, capsys):
    # at x4 = 1e30 the frame passes the degeneracy test but its metric is
    # singular to working precision: numpy's LinAlgError is a point error
    ranges = [{"lo": -0.5, "hi": 0.5, "n": 2}] * 3 + [{"lo": 1e30, "hi": 1e30, "n": 1}]
    cfg = {"check": "identities",
           "solution": {"name": "random_polynomial", "params": {"seed": 42, "amplitude": 0.1}},
           "grid": {"ranges": ranges}, "tolerance": 1e-9}
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "evaluation error: at point (-0.5, -0.5, -0.5, 1e+30): Singular matrix" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_coordinate_is_degenerate_without_a_warning(tmp_path, capsys):
    # the row norms and the determinant overflow to inf, which is degenerate
    cfg = {**VAC, "grid": {"points": [[0.0, 1e200, 1.0, 1.0]]}}
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "degenerate frame at (0.0, 1e+200, 1.0, 1.0): det=inf, scale=inf" in err


def test_overflow_in_a_polynomial_entry_names_its_node(tmp_path, capsys):
    cfg = {**_inline_vacuum("1 + 0.5*x1^2*x2"), "grid": {"points": [[1e200, 1.0, 1.0, 1.0]]}}
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert ("evaluation error: at point (1e+200, 1.0, 1.0, 1.0): "
            "overflow encountered in power in 'x1^2.0'") in err


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_bundled_configs(tmp_path, config):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", str(config), "--out", str(out), "--csv"]) == 0
        runs.append([(out / f).read_bytes() for f in ("report.json", "points.csv")])
    assert runs[0] == runs[1]
    # points.csv is exactly what csv.writer writes for its rows: no field needs
    # quoting, ids are [a-z0-9_], coordinates and values are float reprs
    text = runs[0][1].decode("utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    rewritten = io.StringIO(newline="")
    csv.writer(rewritten).writerows(rows)
    assert rewritten.getvalue() == text
    assert all(re.fullmatch(r"[a-z0-9_]+", field) for row in rows[1:] for field in row[-3:-1])
    assert all(repr(float(v)) == v for row in rows[1:] for v in row[:-3] + row[-1:])
    # report.json is one compact line, sorted keys, the C encoder's output
    text = runs[0][0].decode("utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, separators=(",", ":"),
                              allow_nan=False) + "\n"
    assert text.count("\n") == 1
    assert report["format"] == 2
    # echo rule: an explicit point list is dropped from the grid echo, because
    # points[].x lists it in grid order; every other grid key stays
    grid = json.loads(config.read_text(encoding="utf-8"))["grid"]
    assert report["grid"] == {k: v for k, v in grid.items() if k != "points"}
    if "points" in grid:
        assert [p["x"] for p in report["points"]] == [list(map(float, p))
                                                      for p in grid["points"]]
    else:
        assert report["grid"]["ranges"] == grid["ranges"]


# The vacuum jobs run as blocks of 64 + 6 points, the einstein-maxwell job as
# 16 + 4; their grids run so that the worst vacuum and maxwell points fall in the
# second block.  On the flat frame every norm is exactly 0, so the ties must go to
# the first point and the first component.
@pytest.mark.parametrize("cfg", [
    {**VAC, "grid": _ranges((0, 0, 1), (3, 10, 7), (2.5, 0.6, 5), (0.1, 0.3, 2))},
    {"check": "einstein-maxwell",
     "solution": {"name": "reissner_nordstrom", "params": {"M": 1.0, "Q": 0.5}},
     "grid": _ranges((0, 0, 1), (10, 3, 5), (0.8, 2.2, 4), (0.1, 0.1, 1)),
     "tolerance": 1e-7},
    {**_inline_vacuum(1), "grid": _ranges((0, 0, 1), (3, 10, 7), (0.6, 2.5, 5), (0.1, 0.3, 2))},
    {"check": "identities",   # five checks, worst components off the first index
     "solution": {"name": "random_polynomial", "params": {"seed": 5, "amplitude": 0.1}},
     "grid": _ranges((-0.2, 0.2, 2), (-0.3, 0.3, 2), (0.4, 0.4, 1), (0.0, 0.1, 2)),
     "tolerance": 1e-9},
], ids=["vacuum-70", "einstein-maxwell-20", "flat-ties-70", "identities-8"])
def test_worst_point_fields_match_points_csv(tmp_path, cfg):
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out"), "--csv"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    with (tmp_path / "out" / "points.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    _, _, tetrad, _ = cli._resolve_solution(cfg["solution"])
    for res in report["results"]:
        check_rows = [r for r in rows if r[4] == res["check_id"]]
        norms = [float(r[6]) for r in check_rows if r[5] == "norm"]
        worst = int(np.argmax(norms))   # the first point in grid order
        assert res["worst_point"] == worst and norms[worst] == res["max"]
        per_point = len(check_rows) // len(norms)
        comps = check_rows[worst * per_point:(worst + 1) * per_point - 1]
        values = [abs(float(r[6])) for r in comps]
        assert res["worst_component"] == comps[int(np.argmax(values))][5]
        x = report["points"][worst]["x"]
        assert res["cond_e"] == np.linalg.cond(evaluate_coframe(tetrad, x).e)


def test_report_is_written_by_the_c_encoder(tmp_path, monkeypatch):
    # json falls back to its pure-Python encoder for indent (and other options):
    # the report must never take that path
    path = _write(tmp_path, VAC)

    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("report rendered by the pure-Python JSON encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    with pytest.raises(AssertionError):
        json.dumps({"a": 1}, indent=2)
    assert main(["run", path, "--out", str(tmp_path / "out"), "--csv"]) == 0
