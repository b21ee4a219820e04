"""Correctness gate for CLI runs.

A run counts as failed when any of these holds: the exit code is not 0;
``passed`` is not ``true``; a check's ``max`` exceeds its tolerance;
``report.json`` is not strict JSON (``NaN``/``Infinity`` tokens) or holds a
non-finite number; the report does not describe the job that was run; or
its bytes (and those of ``points.csv``) differ from an earlier repeat of the
same job, compared by sha256.
"""

from __future__ import annotations

import hashlib
import json
import math


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(data: bytes):
    """Parse RFC 8259 JSON; raises ValueError on NaN/Infinity tokens."""
    return json.loads(data, parse_constant=_reject_constant)


def nonfinite_paths(obj, path: str = "$") -> list[str]:
    """JSON paths of non-finite numbers (``1e999`` parses to inf)."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in nonfinite_paths(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in nonfinite_paths(v, f"{path}[{i}]")]
    return []


def report_problems(exit_code: int, report_bytes: bytes | None,
                    n_points: int | None = None, checks=None) -> list[str]:
    """Reasons one CLI run is wrong, judged from its exit code and report."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if report_bytes is None:
        return problems + ["no report.json"]
    try:
        report = strict_json(report_bytes)
    except ValueError as exc:
        return problems + [f"report.json is not strict JSON: {exc}"]
    bad = nonfinite_paths(report)
    if bad:
        problems.append(f"non-finite numbers at {', '.join(bad[:3])}")
    if report.get("passed") is not True:
        problems.append("passed is not true")
    for res in report.get("results", []):
        mx, tol = res.get("max"), res.get("tolerance")
        if not (isinstance(mx, (int, float)) and isinstance(tol, (int, float))
                and mx <= tol):
            problems.append(f"{res.get('check_id')}: max {mx!r} exceeds tolerance {tol!r}")
    if n_points is not None and (report.get("n_points") != n_points
                                 or len(report.get("points", [])) != n_points):
        problems.append(f"report does not cover the {n_points} grid points")
    if checks is not None:
        got = tuple(sorted(r.get("check_id") for r in report.get("results", [])))
        if got != tuple(sorted(checks)):
            problems.append(f"report checks {got} differ from {tuple(sorted(checks))}")
    return problems


class Gate:
    """Counts CLI runs and failures; repeats of one job must match byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[str, tuple] = {}

    def check(self, job_key: str, exit_code: int, outputs: dict[str, bytes | None],
              n_points: int | None = None, checks=None,
              csv_rows: int | None = None) -> bool:
        """Record one run; ``outputs`` maps file names to their bytes."""
        problems = report_problems(exit_code, outputs.get("report.json"),
                                   n_points, checks)
        if csv_rows is not None:
            csv_bytes = outputs.get("points.csv")
            rows = None if csv_bytes is None else csv_bytes.count(b"\n") - 1
            if rows != csv_rows:
                problems.append(f"points.csv has {rows} rows, expected {csv_rows}")
        digest = tuple((name, None if data is None else hashlib.sha256(data).hexdigest())
                       for name, data in sorted(outputs.items()))
        first = self._digests.setdefault(job_key, digest)
        if first != digest:
            problems.append(f"{job_key}: outputs differ from an earlier repeat (sha256)")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


# ROADMAP item 2 reproduction: the middle grid point makes ln(x2) overflow to
# a NaN residual that the CLI (at the time of writing) drops from ``max`` and
# writes as bare NaN tokens while exiting 0.  The gate must fail this run.
NAN_REPRO_CONFIG = {
    "check": "vacuum",
    "solution": {"inline": {
        "signature": [1, 3],
        "tetrad": [["1 + 0*ln(x2)", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                   [0, 0, 0, 1]],
    }},
    "grid": {"points": [[0.0, 0.5, 0.0, 0.0], [0.0, 1e-310, 0.0, 0.0],
                        [0.0, 0.7, 0.0, 0.0]]},
    "tolerance": 1e-8,
    "seed": 0,
}
