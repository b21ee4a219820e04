import csv
import io
import json
import re
from pathlib import Path

import pytest

from vielbein import cli
from vielbein.cli import main
from vielbein.frame import SpinConnectionPoint, spin_connection

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
    ]:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(broken).replace('"1e400"', "1e400")
                        .replace('"-1e400"', "-1e400"), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        errs.append(capsys.readouterr().err)
    assert all("config error" in err for err in errs)
    assert "'tolerance_overrides'" in "".join(errs) and "'debug'" in "".join(errs)
    assert not (tmp_path / "o").exists()


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


def test_negative_base_power_exit_three(tmp_path, capsys):
    cfg = _inline_vacuum("1 + 0*(0-2)^x2")
    assert main(["run", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "evaluation error" in err and "(0.0 - 2.0)^x2" in err


# 0*ln(x2) has a finite value but a 1/x2 derivative that overflows at
# x2 = 1e-310, so the middle point's residual is NaN
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
    assert "1e-310" in err and "vacuum" in err and "non-finite" in err
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


def test_list_solutions(capsys):
    assert main(["--list-solutions"]) == 0
    out = capsys.readouterr().out
    assert "schwarzschild" in out and "reissner_nordstrom" in out


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
