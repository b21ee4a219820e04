"""Tests of the benchmark itself: span arithmetic, the correctness gate,
seeded input generation and the pass-through proxies.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json

import numpy as np
import pytest

import layers
from gate import NAN_REPRO_CONFIG, Gate, report_problems, strict_json
from spans import NullTracer, Span, Tracer, per_call_medians, self_times
from vielbein import cli
from vielbein.kaluza import appendix_chain_check
from vielbein.solutions import make_solution
from workloads import (
    CONFIGS_PER_RUN,
    WORKLOADS,
    config_bytes,
    expr_nodes,
    make_configs,
    one_point,
)
from vielbein.expr import parse


# --- spans -----------------------------------------------------------------

def _tree():
    #   root [0, 10]
    #     a [1, 4]      with grandchild g [2, 3]
    #     b [3, 6]      overlaps a: the union of a and b is [1, 6]
    #     c [8, 12]     runs past the parent: only [8, 10] counts
    return [
        Span(0, "root", 0.0, 10.0, None, "w", 0),
        Span(1, "a", 1.0, 4.0, 0, "w", 0),
        Span(2, "g", 2.0, 3.0, 1, "w", 0),
        Span(3, "b", 3.0, 6.0, 0, "w", 0),
        Span(4, "c", 8.0, 12.0, 0, "w", 0),
    ]


def test_self_time_subtracts_union_of_children():
    st = self_times(_tree())
    assert st[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0})


def test_per_call_medians_average_repeats_within_a_root():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "w", 0),
        Span(1, "k", 0.0, 1.0, 0, "w", 0),
        Span(2, "k", 1.0, 4.0, 0, "w", 0),       # mean per call at point 0: 2
        Span(3, "root", 10.0, 20.0, None, "w", 1),
        Span(4, "k", 10.0, 16.0, 3, "w", 1),     # point 1: 6
        Span(5, "root", 20.0, 30.0, None, "w", 2),
        Span(6, "k", 20.0, 23.0, 5, "w", 2),     # point 2: 3
    ]
    med = per_call_medians(spans, self_times(spans))
    assert med["k"] == pytest.approx(3.0)
    assert med["root"] == pytest.approx(6.0)


def test_tracer_records_parents_and_points():
    tr = Tracer("w")
    tr.point = 7
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    outer, inner = tr.spans
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert {s.point for s in tr.spans} == {7}
    with NullTracer().span("x"):
        pass


# --- gate ------------------------------------------------------------------

def _report(**over):
    rep = {"passed": True, "n_points": 2, "points": [{}, {}],
           "results": [{"check_id": "vacuum", "max": 1e-12, "mean": 1e-13,
                        "tolerance": 1e-8, "passed": True}]}
    rep.update(over)
    return json.dumps(rep).encode()


def test_gate_accepts_a_good_run():
    assert report_problems(0, _report(), n_points=2, checks=("vacuum",)) == []


@pytest.mark.parametrize("code, data, needle", [
    (1, _report(), "exit code"),
    (0, _report(passed=False), "passed"),
    (0, _report(results=[{"check_id": "v", "max": 1e-3, "tolerance": 1e-8}]),
     "exceeds tolerance"),
    (0, _report().replace(b"1e-13", b"NaN"), "strict JSON"),
    (0, _report().replace(b"1e-13", b"Infinity"), "strict JSON"),
    (0, _report().replace(b"1e-13", b"1e999"), "non-finite"),
    (0, _report(n_points=3), "grid points"),
    (0, None, "no report"),
])
def test_gate_failure_cases(code, data, needle):
    problems = report_problems(code, data, n_points=2)
    assert any(needle in p for p in problems), problems


def test_gate_requires_identical_repeats_and_csv_rows():
    gate = Gate()
    ok = {"report.json": _report()}
    assert gate.check("c0", 0, ok)
    assert gate.check("c0", 0, ok)
    assert not gate.check("c0", 0, {"report.json": _report(extra=1)})
    assert gate.check("c1", 0, {"report.json": _report(extra=1)})
    assert not gate.check("c2", 0, {"report.json": _report(),
                                    "points.csv": b"h\nr1\n"}, csv_rows=2)
    assert (gate.attempted, gate.failed) == (5, 2)


def test_strict_json_rejects_nan_tokens():
    with pytest.raises(ValueError):
        strict_json(b'{"a": NaN}')


def test_gate_fails_the_nan_reproduction(tmp_path):
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps(NAN_REPRO_CONFIG))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()), np.errstate(all="ignore"):
        try:
            code = cli.main(["run", str(cfg), "--out", str(out)])
        except Exception:
            code = -1
    report = out / "report.json"
    problems = report_problems(code, report.read_bytes() if report.exists() else None)
    assert problems


# --- seeded inputs ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_configs_are_a_pure_function_of_the_seed(name):
    w = WORKLOADS[name]
    a, b, c = make_configs(w, 11), make_configs(w, 11), make_configs(w, 12)
    assert [config_bytes(x) for x in a] == [config_bytes(x) for x in b]
    assert [config_bytes(x) for x in a] != [config_bytes(x) for x in c]
    assert len(a) == CONFIGS_PER_RUN
    assert all(len(x["grid"]["points"]) == w.points for x in a)
    assert one_point(a[0])["grid"]["points"] == a[0]["grid"]["points"][:1]


def test_csv_workload_uses_the_identities_inputs():
    assert (make_configs(WORKLOADS["identities-random-csv"], 5)
            == make_configs(WORKLOADS["identities-random"], 5))


def test_points_lie_in_the_solution_box():
    for w in WORKLOADS.values():
        for cfg in make_configs(w, 3):
            ref = cfg["solution"]
            sol = make_solution(ref["name"], ref["params"])
            assert all(sol.contains(p) for p in cfg["grid"]["points"])


def test_expr_nodes_counts_ast_nodes():
    assert expr_nodes(parse("1 + 0*ln(x2)", 4)) == 6
    assert expr_nodes(parse("-x1", 4)) == 2
    assert expr_nodes(0.0) == 0


# --- proxies and replay ----------------------------------------------------

def test_counting_proxies_only_delegate():
    w = WORKLOADS["appendixA-rn"]
    cfg = make_configs(w, 0)[0]
    sol = make_solution(cfg["solution"]["name"], cfg["solution"]["params"])
    plain = sol.kaluza_config()
    counted = layers.counting_config(plain, Tracer("t"))
    x = tuple(cfg["grid"]["points"][0])
    a, b = appendix_chain_check(plain, x), appendix_chain_check(counted, x)
    for fa, fb in zip(a.einstein_forms + a.maxwell_forms,
                      b.einstein_forms + b.maxwell_forms):
        assert np.array_equal(fa, fb)
    assert counted.tetrad.calls == 5
    assert layers.potential_evals(counted) == 3


@pytest.mark.parametrize("name", ["vacuum-schwarzschild", "identities-random",
                                  "appendixA-rn"])
def test_replay_reproduces_cli_norms(name, tmp_path):
    w = WORKLOADS[name]
    cfg = make_configs(w, 1)[0]
    cfg["grid"]["points"] = cfg["grid"]["points"][:2]
    path = tmp_path / "job.json"
    path.write_bytes(config_bytes(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    sol = make_solution(cfg["solution"]["name"], cfg["solution"]["params"])
    tr = Tracer(name)
    field = layers.CountingField(sol.tetrad, tr, "expr.frame_jets")
    kcfg = sol.kaluza_config()
    for rec, x in zip(report["points"], cfg["grid"]["points"]):
        plain = layers.replay_check(w.check, sol.tetrad, kcfg, tuple(x), NullTracer())
        traced = layers.replay_check(
            w.check, field, kcfg and layers.counting_config(kcfg, tr), tuple(x), tr)
        assert layers.norms(plain) == rec["norms"] == layers.norms(traced)
