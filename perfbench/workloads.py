"""Seeded job configs for the benchmark workloads.

The program under test only ever sees the generated job configs: every grid
is an explicit ``grid.points`` list drawn with ``NamedSolution.sample_points``
inside the solution's ``box``, and every random frame is seeded from the
benchmark seed.  The same seed gives byte-identical config files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from vielbein.expr import BinOp, Call, Neg
from vielbein.solutions import make_solution

# Each run cycles through this many independently drawn job configs.  For
# identities-random that means this many random frames: their cost varies by
# about 10% from frame to frame, so one frame per run would make
# points_per_s depend on the seed more than on the code.
CONFIGS_PER_RUN = 16


@dataclass(frozen=True)
class Workload:
    name: str
    check: str
    solution: str
    params: dict
    points: int          # grid points per job, sized for ~0.1-0.2 s jobs
    tolerance: float
    csv: bool
    components: int      # residual components per point (CSV rows minus norms)
    checks: tuple        # check ids the report must carry
    why: str


# Residual components per point at m=4: a (4,4) density; for identities
# torsion, contact and omega_vs_oracle are (4,4,4), curvature_vs_oracle
# (4,4,4,4), plus the one shuffle scalar; appendixA has 3 + 3 deviations.
_IDENTITY_CHECKS = ("contact", "curvature_vs_oracle", "omega_vs_oracle",
                    "shuffle_identity", "torsion")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="vacuum-schwarzschild", check="vacuum", solution="schwarzschild",
            params={"M": 1.0}, points=48, tolerance=1e-8, csv=False,
            components=16, checks=("vacuum",),
            why="light expressions; spin connection and einstein_density dominate "
                "(frame/jetlinalg layers); never touches kaluza"),
        Workload(
            name="identities-random", check="identities", solution="random_polynomial",
            params={"amplitude": 0.1}, points=16, tolerance=1e-9, csv=False,
            components=3 * 64 + 256 + 1, checks=_IDENTITY_CHECKS,
            why="degree-3 polynomial frames evaluated twice per point, coordinate "
                "oracle and variational identities (expr/jets layers)"),
        Workload(
            name="identities-random-csv", check="identities",
            solution="random_polynomial", params={"amplitude": 0.1}, points=16,
            tolerance=1e-9, csv=True, components=3 * 64 + 256 + 1,
            checks=_IDENTITY_CHECKS,
            why="inputs of identities-random run with --csv: ~450 rows and ~54 KB "
                "per point, so the cli output path does most of the work"),
        Workload(
            name="appendixA-rn", check="appendixA", solution="reissner_nordstrom",
            params={"M": 1.0, "Q": 0.3}, points=12, tolerance=1e-9, csv=False,
            components=6, checks=("chain_einstein", "chain_maxwell"),
            why="charged black hole lifted to m=5: kaluza dominates, with the "
                "tetrad evaluated five times per point and many einsum plans"),
    )
}

# The kaluza and gauge layers run only under the appendixA check, so every
# traced run measures them on these inputs, drawn from the same seed.
KALUZA_WORKLOAD = "appendixA-rn"


def solution_ref(w: Workload, rng: np.random.Generator) -> dict:
    params = dict(w.params)
    if w.solution.startswith("random"):
        params["seed"] = int(rng.integers(0, 2**31 - 1))
    return {"name": w.solution, "params": params}


def make_configs(w: Workload, seed: int) -> list[dict]:
    """CONFIGS_PER_RUN job configs for one workload; a pure function of the
    seed (the CSV workload draws exactly what identities-random draws)."""
    base = "identities-random" if w.name == "identities-random-csv" else w.name
    rng = np.random.default_rng([seed % 2**63, sum(map(ord, base))])
    configs = []
    for _ in range(CONFIGS_PER_RUN):
        ref = solution_ref(w, rng)
        sol = make_solution(ref["name"], ref["params"])
        points = sol.sample_points(rng, w.points)
        configs.append({
            "check": w.check,
            "solution": ref,
            "grid": {"points": [list(p) for p in points]},
            "tolerance": w.tolerance,
            "seed": int(ref["params"].get("seed", 0)),
        })
    return configs


def one_point(config: dict) -> dict:
    """The same job shrunk to its first grid point (used to time set-up)."""
    out = dict(config)
    out["grid"] = {"points": config["grid"]["points"][:1]}
    return out


def all_points(configs: list[dict]) -> dict:
    """The first config's job run on the points of every config: the large
    job whose peak memory the benchmark reports."""
    out = dict(configs[0])
    out["grid"] = {"points": [p for c in configs for p in c["grid"]["points"]]}
    return out


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, sort_keys=True, indent=1) + "\n").encode("utf-8")


def expr_nodes(entry) -> int:
    """AST node count of one field entry (plain numbers count as none)."""
    if isinstance(entry, Neg):
        return 1 + expr_nodes(entry.operand)
    if isinstance(entry, BinOp):
        return 1 + expr_nodes(entry.left) + expr_nodes(entry.right)
    if isinstance(entry, Call):
        return 1 + expr_nodes(entry.arg)
    return 0 if isinstance(entry, (int, float)) else 1


def frame_nodes(config: dict) -> int:
    ref = config["solution"]
    tetrad = make_solution(ref["name"], ref["params"]).tetrad
    return sum(expr_nodes(e) for row in tetrad.entries for e in row)


def input_properties(w: Workload, configs: list[dict]) -> dict:
    return {
        "m": 4,
        "lifted_m": 5 if w.check == "appendixA" else None,
        "frame_nodes": [frame_nodes(c) for c in configs],
        "components_per_point": w.components,
        "csv": w.csv,
        "points_per_job": w.points,
        "configs_per_run": len(configs),
    }
