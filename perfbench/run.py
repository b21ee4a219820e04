#!/usr/bin/env python3
"""Grid-verification benchmark for vielbein.

    python3 perfbench/run.py --workload vacuum-schwarzschild --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

With ``--trace 0`` it times seeded ``vielbein run`` jobs end to end (points
per second in process, set-up time and peak memory of fresh processes) and
checks every run with the correctness gate.  With ``--trace 1`` it replays the
same inputs through each layer's public functions inside spans and reports
per-layer self times.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Load comes from this one process, one job at a time, BLAS threads pinned
to 1.  Work files go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

from gate import NAN_REPRO_CONFIG, Gate, report_problems
from spans import NullTracer, Tracer, per_call_medians, self_times

# BLAS/OpenMP pools pinned to one thread, set before numpy is first imported
# and passed to every child process
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5        # fresh one-point processes per run; setup_s is their median
IMPORT_REPEATS = 3       # fresh processes timing `import vielbein.cli`
RESOLVE_REPEATS = 10
KALUZA_POINTS = 12       # appendixA-rn points in the kaluza/gauge sweep
CHILD_TIMEOUT_S = 120.0

# Shared hosts switch between speed states that differ by ~30% and last tens
# of seconds, longer than a job and comparable to a run.  Every timed job and
# set-up process is preceded by reference_seconds(), and its wall time is
# scaled by REF_NOMINAL_S / reference time: time figures read as if the host
# ran the reference kernel in REF_NOMINAL_S (its common speed on the 2.1 GHz
# Xeon the benchmark was defined on).  Unscaled medians are printed too.
REF_CALLS = 30
REF_NOMINAL_S = 3.2e-3

END_TO_END_UNITS = {"points_per_s": "points/s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (span name, scale from seconds)
SPAN_METRICS = {
    "expr.frame_jets_ms": ("expr.frame_jets", 1e3),
    "frame.evaluate_coframe_ms": ("frame.evaluate_coframe", 1e3),
    "frame.spin_connection_ms": ("frame.spin_connection", 1e3),
    "frame.curvature_ms": ("frame.curvature", 1e3),
    "frame.einstein_density_ms": ("frame.einstein_density", 1e3),
    "frame.coordinate_oracle_ms": ("frame.coordinate_oracle", 1e3),
    "frame.cross_checks_ms": ("frame.cross_checks", 1e3),
    "jetlinalg.jet_einsum_us": ("jetlinalg.jet_einsum", 1e6),
    "jetlinalg.jet_matinv_us": ("jetlinalg.jet_matinv", 1e6),
    "variational.identities_ms": ("variational.identities", 1e3),
    "variational.el_residual_frame_ms": ("variational.el_residual_frame", 1e3),
    "kaluza.lift_coframe_ms": ("kaluza.lift_coframe", 1e3),
    "kaluza.field_strength_ms": ("kaluza.field_strength", 1e3),
    "kaluza.einstein_maxwell_residual_ms": ("kaluza.einstein_maxwell_residual", 1e3),
    "kaluza.maxwell_residual_ms": ("kaluza.maxwell_residual", 1e3),
    "kaluza.appendix_chain_check_ms": ("kaluza.appendix_chain_check", 1e3),
    "kaluza.reduction_check_ms": ("kaluza.reduction_check", 1e3),
    "kaluza.covariance_check_ms": ("kaluza.covariance_check", 1e3),
    "gauge.gauge_transform_frame_ms": ("gauge.gauge_transform_frame", 1e3),
}
# per-layer metrics not read off a single span -> unit
DERIVED_UNITS = {"expr.frame_nodes": "count", "kaluza.tetrad_evals_per_point": "count",
                 "kaluza.potential_evals_per_point": "count", "cli.csv_rows": "count",
                 "cli.csv_bytes": "bytes", "cli.report_bytes": "bytes",
                 "kaluza.appendix_chain_self_ms": "ms", "solutions.resolve_ms": "ms",
                 "cli.import_s": "s", "cli.overhead_ms": "ms", "trace.overhead_frac": "ratio"}


def import_library():
    """Put the checkout's own ``src/`` first on the path; refuse to run
    without it (an installed copy would measure some other code)."""
    if not (SRC / "vielbein" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no vielbein source tree at {SRC / 'vielbein'}")
    sys.path.insert(0, str(SRC))
    import vielbein.cli

    if Path(vielbein.cli.__file__).resolve().parent != (SRC / "vielbein").resolve():
        raise SystemExit(f"perfbench: imported vielbein from {vielbein.cli.__file__}")
    return vielbein.cli


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], stdout=subprocess.DEVNULL) -> tuple[int, float]:
    """Run a fresh Python process; returns (exit code, wall s).  A child that
    outlives CHILD_TIMEOUT_S is killed and waited for, and fails the run."""
    t0 = time.perf_counter()
    try:
        code = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              stdin=subprocess.DEVNULL, stdout=stdout,
                              stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = -9
    return code, time.perf_counter() - t0


# Runs ``python -m vielbein.cli <args>`` and writes the process's own peak
# resident set (VmHWM, kB) to the file named first.  The parent's rusage
# cannot give this: Linux carries the forking parent's high-water mark into
# the child's ru_maxrss across exec.
_PEAK_RSS_MAIN = """\
import runpy, sys
out = sys.argv.pop(1)
try:
    runpy.run_module("vielbein.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(out, "w") as fh:
        fh.write(peak)
"""


def run_cli_peak_rss(cli_argv: list[str], work: Path) -> tuple[int, float]:
    """Fresh CLI process; returns (exit code, peak RSS MB)."""
    out = work / "peak_rss.txt"
    out.unlink(missing_ok=True)
    code, _ = run_child(["-c", _PEAK_RSS_MAIN, str(out), *cli_argv])
    return code, int(out.read_text()) / 1024.0 if out.is_file() else 0.0


def reference_seconds() -> float:
    """Time of a fixed kernel that does not depend on ``src/``: numpy einsum
    planning a contraction path over 4x4 operands, the work that dominates
    the library's time.  See REF_NOMINAL_S."""
    import numpy as np

    m = np.eye(4) * 2.0
    t0 = time.perf_counter()
    for _ in range(REF_CALLS):
        np.einsum("mn,mi,nj,ab->ij", m, m, m, m, optimize=True)
    return time.perf_counter() - t0


def cli_args(cfg_path: Path, out_dir: Path, csv: bool) -> list[str]:
    return ["run", str(cfg_path), "--out", str(out_dir)] + (["--csv"] if csv else [])


def read_outputs(out_dir: Path, csv: bool) -> dict[str, bytes | None]:
    names = ["report.json"] + (["points.csv"] if csv else [])
    return {n: (out_dir / n).read_bytes() if (out_dir / n).is_file() else None
            for n in names}


def clear_outputs(out_dir: Path) -> None:
    for name in ("report.json", "points.csv"):
        (out_dir / name).unlink(missing_ok=True)


def cli_job(cli, cfg_path: Path, out_dir: Path, csv: bool) -> tuple[int, float]:
    """One in-process ``vielbein run``; the CLI's own stdout is discarded.
    Garbage left by earlier work is collected first, outside the timing."""
    clear_outputs(out_dir)
    args = cli_args(cfg_path, out_dir, csv)
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(args)
        except Exception:  # a crash is a failed run, not a crashed benchmark
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
    return code, wall


def nan_selftest(cli, work: Path) -> list[str]:
    """Feed the gate the non-finite-residual reproduction; it must fail it."""
    cfg_path = work / "nan_repro.json"
    cfg_path.write_text(json.dumps(NAN_REPRO_CONFIG), encoding="utf-8")
    out = work / "nan_repro"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with contextlib.redirect_stderr(io.StringIO()):
            code, _ = cli_job(cli, cfg_path, out, csv=False)
    return report_problems(code, read_outputs(out, False)["report.json"])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp() -> dict:
    import numpy as np

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
    }


class Run:
    """One benchmark run: a workload's seeded inputs written to a work dir."""

    def __init__(self, workload, seed: int, seconds: float, work: Path):
        from workloads import all_points, config_bytes, make_configs, one_point

        self.w, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.configs = make_configs(workload, seed)
        self.cfg_paths = []
        for j, cfg in enumerate(self.configs):
            path = work / f"c{j}.json"
            path.write_bytes(config_bytes(cfg))
            self.cfg_paths.append(path)
        self.setup_path = work / "setup.json"
        self.setup_path.write_bytes(config_bytes(one_point(self.configs[0])))
        self.large_path = work / "large.json"
        large = all_points(self.configs)
        self.large_points = len(large["grid"]["points"])
        self.large_path.write_bytes(config_bytes(large))
        self.outs = [work / f"out{j}" for j in range(len(self.configs))]
        self.gate = Gate()
        self.notes: list[str] = []

    def gated(self, key: str, code: int, out_dir: Path, n_points: int) -> bool:
        w = self.w
        csv_rows = n_points * (w.components + len(w.checks)) if w.csv else None
        return self.gate.check(key, code, read_outputs(out_dir, w.csv),
                               n_points=n_points, checks=w.checks, csv_rows=csv_rows)

    def job(self, cli, j: int) -> tuple[bool, float]:
        """In-process job on config ``j``, gated; returns (ok, wall s)."""
        code, wall = cli_job(cli, self.cfg_paths[j], self.outs[j], self.w.csv)
        return self.gated(f"c{j}", code, self.outs[j], self.w.points), wall

    def selftest(self, cli) -> None:
        problems = nan_selftest(cli, self.work)
        if not problems:
            self.notes.append("gate self-test: NaN reproduction was not flagged")
        else:
            print(f"gate self-test: NaN reproduction flagged ({problems[0]})")

    def untraced(self, cli) -> dict[str, float]:
        w = self.w
        # fresh process on the points of all configs: peak memory (this also
        # leaves compiled .pyc files behind, as an installed package has)
        out = self.work / "large"
        code, rss = run_cli_peak_rss(cli_args(self.large_path, out, w.csv), self.work)
        self.gated("large", code, out, self.large_points)
        setup, setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            out = self.work / "setup"
            clear_outputs(out)
            # one slow kernel run would mis-scale one of only a few samples
            scale = REF_NOMINAL_S / statistics.median(reference_seconds()
                                                      for _ in range(5))
            code, wall = run_child(["-m", "vielbein.cli"]
                                   + cli_args(self.setup_path, out, w.csv))
            self.gated("setup", code, out, 1)
            setup.append(wall * scale)
            setup_raw.append(wall)

        # A failed job makes the run incorrect; its time still counts here.
        self.job(cli, 0)                                   # warm-up
        rates, raw = [], []
        t_end = time.perf_counter() + self.seconds
        while time.perf_counter() < t_end or len(rates) < 3:
            scale = REF_NOMINAL_S / reference_seconds()
            _, wall = self.job(cli, (len(rates) + 1) % len(self.configs))
            rates.append(w.points / (wall * scale))
            raw.append(w.points / wall)
        print(f"timed jobs: {len(rates)} of {w.points} points each")
        print(f"unscaled medians: points_per_s {statistics.median(raw):.6g} points/s, "
              f"setup_s {statistics.median(setup_raw):.6g} s")
        return {"points_per_s": statistics.median(rates),
                "setup_s": statistics.median(setup), "peak_rss_mb": rss}

    def traced(self, cli) -> tuple[dict[str, float], list]:
        import layers
        from vielbein.solutions import make_solution
        from workloads import KALUZA_WORKLOAD, WORKLOADS, frame_nodes, make_configs

        w, cfg = self.w, self.configs[0]
        metrics: dict[str, float] = {"expr.frame_nodes": float(frame_nodes(cfg))}

        code_s = ("import time; t = time.perf_counter(); import vielbein.cli; "
                  "print(repr(time.perf_counter() - t))")
        imports = []
        for _ in range(IMPORT_REPEATS):
            with open(self.work / "import.txt", "w+b") as fh:
                code, _ = run_child(["-c", code_s], stdout=fh)
                fh.seek(0)
                if code == 0:
                    imports.append(float(fh.read()))
                else:
                    self.notes.append(f"import vielbein.cli exited {code}")
        metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0

        tr = Tracer(w.name)
        ref = cfg["solution"]
        for _ in range(RESOLVE_REPEATS):
            with tr.span("solutions.resolve"):
                sol = make_solution(ref["name"], ref["params"])
                sol.kaluza_config()

        self.job(cli, 0)                                   # warm-up
        outputs = read_outputs(self.outs[0], w.csv)
        report_bytes = outputs["report.json"] or b""
        reported = json.loads(report_bytes)["points"] if report_bytes else None
        csv_bytes = outputs.get("points.csv") or b""
        metrics["cli.report_bytes"] = float(len(report_bytes))
        metrics["cli.csv_bytes"] = float(len(csv_bytes))
        metrics["cli.csv_rows"] = float(max(csv_bytes.count(b"\n") - 1, 0))

        # Rounds over config 0: the CLI job, then per point the untraced and
        # the traced replay of the check, then the frame-side sweep.  Ratios
        # are taken within a round, so slow phases of the machine cancel.
        field, kcfg = sol.tetrad, sol.kaluza_config()
        counted_field = layers.CountingField(field, tr, "expr.frame_jets")
        counted_kcfg = None if kcfg is None else layers.counting_config(kcfg, tr)
        points = [tuple(p) for p in cfg["grid"]["points"]]
        overhead_frac, cli_overhead = [], []
        t_end = time.perf_counter() + self.seconds
        while not overhead_frac or time.perf_counter() < t_end:
            _, cli_wall = self.job(cli, 0)
            t_plain = t_traced = 0.0
            for i, x in enumerate(points):
                tr.point = i
                t0 = time.perf_counter()
                plain = layers.replay_check(w.check, field, kcfg, x, NullTracer())
                t_plain += time.perf_counter() - t0
                with tr.span("check") as root:
                    counted = layers.replay_check(w.check, counted_field, counted_kcfg,
                                                  x, tr)
                t_traced += root.end - root.start
                if not overhead_frac and reported:     # first round: replay == CLI
                    if layers.norms(plain) != reported[i]["norms"]:
                        self.notes.append(f"point {i}: replayed norms differ from report")
                    if layers.norms(counted) != layers.norms(plain):
                        self.notes.append(f"point {i}: counting proxies changed a residual")
                with tr.span("sweep"):
                    layers.frame_sweep(counted_field, x, tr)
            overhead_frac.append(t_traced / t_plain - 1.0)
            cli_overhead.append((cli_wall - t_plain) / len(points))
        metrics["trace.overhead_frac"] = statistics.median(overhead_frac)
        metrics["cli.overhead_ms"] = statistics.median(cli_overhead) * 1e3

        # kaluza and gauge layers, on the appendixA-rn inputs of the same seed
        kref = make_configs(WORKLOADS[KALUZA_WORKLOAD], self.seed)[0]
        ksol = make_solution(kref["solution"]["name"], kref["solution"]["params"])
        kcounted = layers.counting_config(ksol.kaluza_config(), tr)
        cov_seed = self.seed % 2**31
        ge5 = layers.gauge_element_for(cov_seed)
        counts, chain_self = [], []
        for i, x in enumerate(kref["grid"]["points"][:KALUZA_POINTS]):
            tr.point = i
            first = len(tr.spans)
            with tr.span("kaluza.point"):
                counts.append(layers.kaluza_sweep(kcounted, tuple(x), cov_seed, ge5, tr))
            incl = {s.name: s.end - s.start for s in tr.spans[first:]
                    if s.parent == first}
            chain_self.append(incl["kaluza.appendix_chain_check"]
                              - sum(incl[n] for n in layers.CHAIN_SUBCALLS))
        for key in counts[0]:
            values = {c[key] for c in counts}
            if len(values) != 1:
                self.notes.append(f"{key} differs between points: {sorted(values)}")
            metrics[key] = counts[0][key]
        metrics["kaluza.appendix_chain_self_ms"] = statistics.median(chain_self) * 1e3

        medians = per_call_medians(tr.spans, self_times(tr.spans))
        metrics["solutions.resolve_ms"] = medians["solutions.resolve"] * 1e3
        for name, (span, scale) in SPAN_METRICS.items():
            metrics[name] = medians[span] * scale
        return metrics, tr.as_records()


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object (last stdout line)."""
    from workloads import WORKLOADS, input_properties

    w = WORKLOADS[name]
    work = WORK / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(w, seed, seconds, work)
        stamp = env_stamp()
        inputs = input_properties(w, run.configs)
        print("env " + json.dumps(stamp, sort_keys=True))
        print("inputs " + json.dumps(inputs, sort_keys=True))
        run.selftest(cli)
        spans = []
        if trace:
            values, spans = run.traced(cli)
            units = {**{k: ("us" if k.endswith("_us") else "ms") for k in SPAN_METRICS},
                     **DERIVED_UNITS}
        else:
            values = run.untraced(cli)
            units = END_TO_END_UNITS
        for k, v in values.items():
            if not math.isfinite(v):
                run.notes.append(f"{k} is not finite")
                values[k] = 0.0
        metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}
        for k, m in metrics.items():
            print(f"{k} {m['value']:.6g} {m['unit']}")
        failed_frac = run.gate.failed / max(run.gate.attempted, 1)
        print(f"failed_frac {failed_frac:.6g} ratio ({run.gate.failed} of "
              f"{run.gate.attempted} runs)")
        for problem in run.gate.problems[:10] + run.notes:
            print(f"problem: {problem}")
        result = {"correct": run.gate.failed == 0 and not run.notes,
                  "attempted": run.gate.attempted, "failed": run.gate.failed,
                  "metrics": metrics}
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "env": stamp, "inputs": inputs, "problems": run.gate.problems + run.notes,
                  "result": result, "spans": spans}
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-trace{int(trace)}.json").write_text(
            json.dumps(record) + "\n", encoding="utf-8")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for an untraced summary table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_ENV)
    cli = import_library()
    from workloads import WORKLOADS

    if args.workload != "all":
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
        result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    table = {}
    for name in WORKLOADS:
        result = run_workload(cli, name, args.seed, args.seconds, bool(args.trace))
        table[name] = result
    print()
    cols = list(END_TO_END_UNITS) if not args.trace else []
    print(f"{'workload':<24}" + "".join(f"{c + ' (' + END_TO_END_UNITS[c] + ')':>24}"
                                        for c in cols) + f"{'failed_frac (ratio)':>22}")
    for name, res in table.items():
        frac = res["failed"] / res["attempted"]
        print(f"{name:<24}" + "".join(f"{res['metrics'][c]['value']:>24.6g}" for c in cols)
              + f"{frac:>22.6g}")
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
