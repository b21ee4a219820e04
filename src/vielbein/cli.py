"""Batch verification driver.

Reads a JSON job description, evaluates the requested check over a point
grid, and writes a machine-readable report (plus an optional per-component
CSV).  Reports are byte-deterministic for a fixed config and seed.

Exit codes: 0 all checks pass, 1 tolerance failure, 2 malformed config,
3 evaluation error (degenerate frame, domain error, ...).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .expr import ExprError, Param, parse
from .frame import (
    CoframeField,
    DegenerateFrameError,
    curvature,
    curvature_to_coordinate,
    einstein_density,
    evaluate_coframe,
    oracle_from_coframe,
    spin_connection,
    spin_connection_via_christoffels,
    torsion_residual,
)
from .gauge import GaugeError
from .kaluza import KaluzaConfig, _KaluzaPoint
from .solutions import SOLUTIONS, make_solution, random_kaluza
from .tensors import Signature
from .variational import (
    THETA_RATIO,
    SectionPoint,
    omega_shuffle_identity,
    theta_density,
)

__all__ = ["JobConfig", "ConfigError", "run_job", "main", "main_entry"]

CHECK_KINDS = ("vacuum", "einstein-maxwell", "identities", "reduction",
               "appendixA", "theta-density")
KALUZA_CHECKS = ("einstein-maxwell", "reduction", "appendixA")

# grid points evaluated together: enough to spread numpy's per-call cost,
# few enough to bound the memory of a block's geometry (under tracemalloc a
# block of 64 peaks at 1.2 MB for the Schwarzschild vacuum chain and 1.4 MB
# for identities on a random frame, one of 768 at 14.7 and 15.5 MB)
BLOCK_SIZE = 64
# Kaluza blocks are smaller: the m=5 double-epsilon steps hold ~25 KB a point
# (VmHWM of a 192-point appendixA job on Reissner-Nordstrom: 31.9 MB point by
# point, and by block size 12 -> 31.8, 16 -> 31.9, 32 -> 33.2, 64 -> 37.4 MB)
KALUZA_BLOCK_SIZE = 16


class ConfigError(Exception):
    pass


def _number(value, field: str, integer: bool = False):
    """``value`` if it is a JSON number (an integer, with ``integer``), else a config
    error naming ``field``; json's true and false are Python ints, and are refused."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{field}: {value!r} is not {'an integer' if integer else 'a number'}")
    return value


def _object(value, field: str) -> dict:
    """``value`` as a dict if it is a JSON object, else a config error naming ``field``."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{field}: {value!r} is not an object")
    return dict(value)


class EvaluationError(Exception):
    """Evaluation failed at a specific grid point."""


_POINT_ERRORS = (ExprError, DegenerateFrameError, GaugeError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class JobConfig:
    check: str
    solution: Mapping
    grid: Mapping
    tolerance: float
    tolerances: Mapping[str, float]
    seed: int

    @staticmethod
    def from_dict(raw: Mapping) -> "JobConfig":
        if not isinstance(raw, Mapping):
            raise ConfigError("top-level config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(JobConfig)})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
        check = raw.get("check")
        if check not in CHECK_KINDS:
            raise ConfigError(f"check must be one of {CHECK_KINDS}, got {check!r}")
        solution, grid = raw.get("solution"), raw.get("grid")
        for key, value, pair in (("solution", solution, ("name", "inline")),
                                 ("grid", grid, ("ranges", "points"))):
            if not isinstance(value, Mapping) or len(set(pair) & set(value)) != 1:
                raise ConfigError(f"{key} must be an object with exactly one of "
                                  f"{pair[0]!r} and {pair[1]!r}")
        def _positive(v, field: str) -> float:   # and finite, also as a float (no 10**400)
            if not 0 < _number(v, field) <= sys.float_info.max:
                raise ConfigError(f"{field} must be a positive finite number")
            return float(v)

        tol = _positive(raw.get("tolerance"), "tolerance")
        tolerances = raw.get("tolerances", {})
        if not isinstance(tolerances, Mapping):
            raise ConfigError("tolerances must map check ids to positive finite numbers")
        tolerances = {k: _positive(v, f"tolerances.{k}") for k, v in tolerances.items()}
        seed = _number(raw.get("seed", 0), "seed", integer=True)
        return JobConfig(check=check, solution=dict(solution), grid=dict(grid),
                         tolerance=tol, tolerances=tolerances, seed=seed)

    def tol_for(self, check_id: str) -> float:
        return float(self.tolerances.get(check_id, self.tolerance))


def _param_names(node) -> set[str]:
    """The parameter names an expression reads; a bare function name reads as one."""
    if isinstance(node, Param):
        return {node.name}
    return set().union(*[_param_names(v) for v in vars(node).values()
                         if not isinstance(v, (str, int, float))])


def _build_inline(spec: Mapping):
    try:
        sig = Signature(*[_number(v, f"solution.inline.signature[{i}]", integer=True)
                          for i, v in enumerate(spec["signature"])])
        m = sig.m
        params = {k: float(_number(v, f"solution.inline.params.{k}"))
                  for k, v in _object(spec.get("params", {}), "solution.inline.params").items()}

        def entry(cell, field: str):   # an expression string or a number
            if not isinstance(cell, str):
                return float(_number(cell, field))
            node = parse(cell, m)
            if undefined := sorted(_param_names(node) - params.keys()):
                raise ConfigError(f"{field}: undefined parameter {undefined[0]!r}")
            return node

        entries = [[entry(cell, f"solution.inline.tetrad[{a}][{b}]") for b, cell in enumerate(row)]
                   for a, row in enumerate(spec["tetrad"])]
        tetrad = CoframeField(entries, sig, params)
        potential = None
        if "A" in spec:
            potential = tuple(entry(cell, f"solution.inline.A[{a}]")
                              for a, cell in enumerate(spec["A"]))
        k = float(_number(spec.get("k", 1.0), "solution.inline.k"))
        return tetrad, potential, k, params
    except (KeyError, TypeError, ValueError, OverflowError, ExprError) as exc:
        raise ConfigError(f"bad inline solution: {exc}") from None


def _resolve_solution(ref: Mapping):
    """Returns (label, params, tetrad_field, kaluza_config_or_None)."""
    if "inline" in ref:
        tetrad, potential, k, params = _build_inline(ref["inline"])
        kcfg = None
        if potential is not None:
            kcfg = KaluzaConfig(tetrad=tetrad, potential=potential, k=k, params=params)
        return "inline", params, tetrad, kcfg
    name = ref["name"]
    params = _object(ref.get("params", {}), "solution.params")
    for key, value in params.items():
        _number(value, f"solution.params.{key}")
    if name == "random_kaluza":
        try:
            kcfg = random_kaluza(**params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad parameters for random_kaluza: {exc}") from None
        return name, params, kcfg.tetrad, kcfg
    try:
        sol = make_solution(name, params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    return name, params, sol.tetrad, sol.kaluza_config()


def _grid_axis(r: Mapping, field: str, n: int) -> np.ndarray:
    lo, hi = (float(_number(r[k], f"{field}.{k}")) for k in ("lo", "hi"))
    if not math.isfinite(hi - lo):   # np.linspace would step by inf or nan
        raise ConfigError(f"grid range {lo!r} to {hi!r} overflows a float")
    return np.linspace(lo, hi, n)


def _grid_points(grid: Mapping, dim: int) -> list[tuple[float, ...]]:
    try:
        if "points" in grid:
            pts = [tuple(float(_number(c, "grid.points")) for c in p) for p in grid["points"]]
        else:
            ranges = grid["ranges"]
            if len(ranges) != dim:
                raise ConfigError(f"grid.ranges needs {dim} entries")
            counts = [_number(r["n"], f"grid.ranges[{a}].n", integer=True)
                      for a, r in enumerate(ranges)]
            try:
                axes = [_grid_axis(r, f"grid.ranges[{a}]", counts[a])
                        for a, r in enumerate(ranges)]
                mesh = np.stack(np.meshgrid(*axes, indexing="ij"), -1)
                pts = list(map(tuple, mesh.reshape(-1, dim).tolist()))
            except MemoryError:
                count = math.prod(counts)
                raise ConfigError(f"a grid of {count} points is too large to build") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid: {exc}") from None
    if not pts:
        raise ConfigError("grid is empty")
    if any(len(p) != dim for p in pts):
        raise ConfigError(f"grid points must have {dim} coordinates")
    if not np.isfinite(pts).all():
        raise ConfigError("grid coordinates must be finite")
    return pts


def _block_residuals(job: JobConfig, tetrad, kcfg, block) -> tuple[dict, np.ndarray]:
    """Named residual component arrays of a block of grid points, one leading
    row per point, and the block's 4D tetrad values ``e``.  Every check runs
    on the whole block at once, from one evaluation of the tetrad (and, for
    the Kaluza checks, the potential)."""
    kind = job.check
    if kind in KALUZA_CHECKS:
        kp = _KaluzaPoint(kcfg, block)
        if kind == "einstein-maxwell":
            named = {"einstein_maxwell": kp.einstein_maxwell(),
                     "maxwell": kp.maxwell().divergence}
        elif kind == "reduction":
            rep = kp.reduction()
            named = {"reduction": np.stack([rep.fiber_fiber, rep.fiber_rotation,
                                            rep.mixed_block, rep.base_block], axis=-1)}
        else:
            rep = kp.chain()
            named = {"chain_einstein": np.stack(rep.einstein_deviations, axis=-1),
                     "chain_maxwell": np.stack(rep.maxwell_deviations, axis=-1)}
        return named, kp.cp.e
    cp = evaluate_coframe(tetrad, block)
    sp = spin_connection(cp)
    if kind == "vacuum":
        return {"vacuum": einstein_density(cp, curvature(sp))}, cp.e
    sec = SectionPoint(cp, sp, holonomic=True)
    orc = oracle_from_coframe(cp)
    if kind == "identities":
        torsion = torsion_residual(cp, sp)
        omega_dev = sp.omega - spin_connection_via_christoffels(cp, orc.gamma)
        riem_dev = curvature_to_coordinate(cp, curvature(sp)) - orc.riemann
        return {
            "torsion": torsion,
            "contact": 0.0 - torsion,    # contact_pullback's two-form, from one contraction
            "omega_vs_oracle": omega_dev,
            "curvature_vs_oracle": riem_dev,
            "shuffle_identity": omega_shuffle_identity(sec)[:, None],
        }, cp.e
    if kind == "theta-density":
        defect = theta_density(sec) - THETA_RATIO * cp.det * orc.scalar
        return {"theta_density": defect[:, None]}, cp.e
    raise ConfigError(f"unhandled check {kind!r}")  # pragma: no cover


def _check_finite(block, named: dict[str, np.ndarray]) -> None:
    """Raise for the first point of the block, in grid order, with a
    non-finite residual component."""
    if all(np.isfinite(arr).all() for arr in named.values()):
        return
    for n, point in enumerate(block):
        for check_id, arr in sorted(named.items()):
            bad = np.argwhere(~np.isfinite(arr[n]))
            if bad.size:
                idx = tuple(bad[0])
                comp = "_".join(str(i) for i in idx)
                raise EvaluationError(f"at point {point}: non-finite residual "
                                      f"{check_id} component {comp} = {arr[n][idx]}")


def _grid_residuals(job: JobConfig, tetrad, kcfg, points, size: int | None = None):
    """(block of points, named residuals with one row per point, the block's
    tetrad values) over the grid, in grid order, every component finite;
    blocks hold ``size`` points, by default the check's block size.  A block
    whose evaluation raises is re-run as blocks of one, so an error always
    names the first failing point, whatever the failure."""
    size = size or (KALUZA_BLOCK_SIZE if job.check in KALUZA_CHECKS else BLOCK_SIZE)
    for start in range(0, len(points), size):
        block = points[start:start + size]
        try:
            named, e = _block_residuals(job, tetrad, kcfg, block)
        except _POINT_ERRORS as exc:
            if size == 1:
                raise EvaluationError(f"at point {block[0]}: {exc}") from exc
            yield from _grid_residuals(job, tetrad, kcfg, block, 1)
        else:
            _check_finite(block, named)
            yield block, named, e


class _CsvStream:
    """points.csv, written block by block into a temporary file beside it and moved
    into place by ``commit``.  The directory and the file are made at the first
    ``write``; leaving the ``with`` block removes whatever ``commit`` has not moved,
    so a failing job leaves no points.csv and no temporary file.

    Rows: per point, per sorted check, its components in row-major order, then its
    norm.  No field needs quoting (ids are [a-z0-9_], the rest float reprs), so the
    rows are those csv.writer writes.  Once per job, from the first block's
    per-point shapes (the same in every block): a (rows, 4) object array of
    coordinates, row tail ``,check_id,component_id,``, value and line end, with the
    tails and line ends filled in.  Once per block: one (points, rows) value array,
    and one repr per distinct value, keyed on its bits (0.0 and -0.0 differ).  Per
    point: its coordinates and value reprs set in that array, and one join."""

    def __init__(self, path: Path):
        self.path = path
        self.tmp = path.with_name(f".{path.name}.tmp")
        self.fh = self.cells = None

    def __enter__(self) -> "_CsvStream":
        return self

    def __exit__(self, *exc) -> None:
        if self.fh is not None:
            self.fh.close()
            self.tmp.unlink(missing_ok=True)

    def write(self, block, named: Mapping[str, np.ndarray],
              norms: Mapping[str, np.ndarray]) -> None:
        """The rows of ``block``, from its residual arrays and per-point norms."""
        if self.fh is None:
            tails = [f",{check_id},{'_'.join(map(str, i))},"
                     for check_id, arr in sorted(named.items())
                     for i in [*np.ndindex(arr.shape[1:]), ("norm",)]]
            self.cells = np.empty((len(tails), 4), dtype=object)
            self.cells[:, 1], self.cells[:, 3] = tails, "\r\n"
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.fh = self.tmp.open("w", newline="", encoding="utf-8")
            self.fh.write(",".join(f"x{i + 1}" for i in range(len(block[0])))
                          + ",check_id,component_id,value\r\n")
        n, cells = len(block), self.cells
        values = np.concatenate([col for check_id, arr in sorted(named.items())
                                 for col in (arr.reshape(n, -1), norms[check_id][:, None])],
                                1, dtype=np.float64)
        keys, index = np.unique(values.view(np.int64), return_inverse=True)
        reprs = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
        # numpy 1.x returns the inverse flat, 2.x in the input's shape
        for point, row in zip(block, index.reshape(values.shape)):
            cells[:, 0], cells[:, 2] = ",".join(map(repr, point)), reprs[row]
            self.fh.write("".join(cells.ravel().tolist()))

    def commit(self) -> None:
        self.fh.close()
        os.replace(self.tmp, self.path)


def run_job(job: JobConfig, out_dir: Path, write_csv: bool) -> tuple[int, dict]:
    sol_ref = dict(job.solution)
    if str(sol_ref.get("name", "")).startswith("random"):
        # randomness flows from the job seed unless the solution pins its own
        params = _object(sol_ref.get("params", {}), "solution.params")
        params.setdefault("seed", job.seed)
        sol_ref["params"] = params
    label, params, tetrad, kcfg = _resolve_solution(sol_ref)
    points = _grid_points(job.grid, tetrad.signature.m)
    if job.check in KALUZA_CHECKS and kcfg is None:
        raise ConfigError(f"check {job.check!r} needs a solution with a potential")
    for name in ("report.json", "points.csv"):   # no output outlives the run that wrote it
        (out_dir / name).unlink(missing_ok=True)

    per_check: dict[str, list[float]] = {}
    # per check, at its worst point: (norm, grid index, component id, tetrad values);
    # ties go to the first point in grid order, then to the first component
    worst: dict[str, tuple] = {}
    start = 0
    with _CsvStream(out_dir / "points.csv") if write_csv else nullcontext() as csv_out:
        for block, named, e in _grid_residuals(job, tetrad, kcfg, points):
            if unknown := sorted(set(job.tolerances) - set(named)):   # at the first block
                raise ConfigError(f"tolerances name no check id of this job: {unknown}")
            n = len(block)
            block_norms = {}
            for check_id, arr in named.items():
                comps = np.abs(arr).reshape(n, -1)
                block_norms[check_id] = norms = comps.max(axis=1)
                per_check.setdefault(check_id, []).extend(norms.tolist())
                i = int(norms.argmax())
                if check_id not in worst or norms[i] > worst[check_id][0]:
                    idx = np.unravel_index(int(comps[i].argmax()), arr.shape[1:])
                    worst[check_id] = (norms[i], start + i, "_".join(map(str, idx)), e[i])
            start += n
            if csv_out:
                csv_out.write(block, named, block_norms)
        point_records = [{"x": list(point), "norms": {c: col[n] for c, col in per_check.items()}}
                         for n, point in enumerate(points)]

        results = []
        conds = np.linalg.cond(np.array([worst[c][3] for c in sorted(per_check)])).tolist()
        for (check_id, norms), cond in zip(sorted(per_check.items()), conds):
            tol, mx = job.tol_for(check_id), max(norms)
            _, point, comp, _ = worst[check_id]
            results.append({"check_id": check_id, "max": mx, "mean": sum(norms) / len(norms),
                            "tolerance": tol, "passed": mx <= tol, "worst_point": point,
                            "worst_component": comp, "cond_e": cond})
        all_pass = all(r["passed"] for r in results)

        report = {
            "format": 2,
            "tool": {"name": "vielbein", "version": __version__},
            "check": job.check,
            "solution": {"label": label, "params": params},
            "seed": job.seed,
            # an explicit point list is not echoed: points[].x lists it, in grid order
            "grid": {k: v for k, v in job.grid.items() if k != "points"},
            "n_points": len(points),
            "points": point_records,
            "results": results,
            "passed": all_pass,
        }

        out_dir.mkdir(parents=True, exist_ok=True)
        # one compact line: without indent, json runs its C encoder
        text = json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
        (out_dir / "report.json").write_text(text + "\n", encoding="utf-8")
        if csv_out:
            csv_out.commit()
    return (0 if all_pass else 1), report


def _list_solutions() -> str:
    def entry(name, factory):
        params = inspect.signature(factory).parameters.values()
        return f"  {name}(" + ", ".join(f"{p.name}={p.default!r}" for p in params) + ")"

    entries = [entry(name, factory) for name, factory in sorted(SOLUTIONS.items())]
    kaluza = entry("random_kaluza", random_kaluza) + "   [checks needing a potential]"
    return "\n".join(["available solutions:", *entries, kaluza])


def _not_a_number(name: str):
    raise ValueError(f"{name} is not a finite number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if math.isinf(value):
        raise ValueError(f"{literal} overflows a float")
    return value


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every
    ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="vielbein",
        description="grid verification of frame-gravity and five-dimensional "
                    "lift identities against exact solutions",
    )
    parser.add_argument("--list-solutions", action="store_true",
                        help="print the named solution corpus and exit")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run a JSON job config")
    run_p.add_argument("config", help="path to the job config JSON")
    run_p.add_argument("--out", default=".", help="output directory (default: .)")
    run_p.add_argument("--csv", action="store_true",
                       help="also write per-component values as points.csv")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list_solutions:
        print(_list_solutions())
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    try:   # the report echoes the config as strict JSON: no NaN or Infinity
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"),
                         parse_constant=_not_a_number, parse_float=_finite_float)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        job = JobConfig.from_dict(raw)
        if args.seed is not None:
            job = replace(job, seed=args.seed)
        code, report = run_job(job, Path(args.out), args.csv)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, *_POINT_ERRORS) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 3

    for res in report["results"]:
        status = "pass" if res["passed"] else "FAIL"
        print(f"{status} {res['check_id']}: max {res['max']:.3e} "
              f"(tol {res['tolerance']:.1e}, {report['n_points']} points)")
    return code


def main_entry() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    main_entry()
