"""corrlab benchmark: end-to-end timings of a closed batch, or a traced pass.

    python3 perfbench/run.py --workload {fixedpoint,eigen,fanout} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
Each pass runs the workload in a fresh interpreter (perfbench/child.py),
one experiment at a time, with BLAS pinned to one thread.

--trace 0  repeats untraced passes with workers=2 until S seconds have
           gone and prints the medians of the end-to-end metrics.
--trace 1  runs one untraced pass with workers=2 and one with workers=1,
           times fresh-process imports and `corrlab list`, then repeats
           traced workers=1 passes until S seconds have gone and prints
           the medians of the per-layer metrics.

Every pass is checked: all experiments report status ok, the analytic
anchors hold, and the SHA-256 of the report bytes is the same for every
pass of the run, whatever the worker count or tracing.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status: 0 correct, 1 wrong output or a failed
pass, 2 when the checkout holds no corrlab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# the variables cli._single_threaded_blas sets, pinned rather than defaulted
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKERS = 2
PROBES = 3  # fresh-process import and list timings per traced run
WARM_UP_N_REAL = 8
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

# Analytic anchors restated independently of corrlab's analytic modules, so
# a faster change cannot re-target a limit law without failing the gate.
# The default field (weights 0.5/0.5, Rademacher, amplitude 1) has
# sigma^2 = amplitude^2 Var(xi) (sum w)^2 = 1.
SIGMA2 = 1.0
ANCHORS = {
    "helmholtz-corrector": (
        ("corr_0.5", (1.0 / 160.0 - 1.0 / 192.0 + 1.0 / 896.0) / 8.0, 1e-3),
        ("moment_0", 1.0 / 10080.0, 1e-3),
    ),
    "spectral-corrector": (
        ("inv_eig_1", 1.5 * SIGMA2, 1e-4),
        ("fourier_1_2", SIGMA2 / (9.0 * math.pi**4), 1e-4),
    ),
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "real_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


# traced-run metrics in print order; tracer.layer_metrics gives all but the
# last six, which come from the reference passes and fresh-process probes
PER_LAYER = {
    "randfield.sample_us": "us",
    "randfield.calls_per_real": "count",
    "randfield.share": "frac",
    "greens.factor_us": "us",
    "greens.apply_us": "us",
    "greens.apply_calls_per_real": "count",
    "greens.apply2d_us": "us",
    "greens.share": "frac",
    "iteration.calls_per_real": "count",
    "iteration.power_ms": "ms",
    "iteration.power_share": "frac",
    "iteration.neumann_ms": "ms",
    "iteration.iters_mean": "count",
    "iteration.iters_max": "count",
    "iteration.truncated_frac": "frac",
    "iteration.norm_estimate_max": "ratio",
    "helmholtz.solve1d_ms": "ms",
    "helmholtz.solve2d_ms": "ms",
    "helmholtz.targets_ms": "ms",
    "elliptic.solve_ms": "ms",
    "elliptic.targets_ms": "ms",
    "spectral.solves_per_real": "count",
    "spectral.eigensolve_ms": "ms",
    "spectral.reference_ms": "ms",
    "spectral.match_us": "us",
    "spectral.flagged_frac": "frac",
    "spectral.share": "frac",
    "ensemble.wall_s": "s",
    "ensemble.self_s": "s",
    "ensemble.task_ms_p50": "ms",
    "ensemble.task_ms_p99": "ms",
    "experiments.validate_ms": "ms",
    "experiments.grade_ms": "ms",
    "experiments.serialize_ms": "ms",
    "ms_per_real.helmholtz-corrector": "ms",
    "ms_per_real.elliptic-corrector": "ms",
    "ms_per_real.spectral-corrector": "ms",
    "ms_per_real.heat-corrector": "ms",
    "ms_per_real.helmholtz-moments-2d": "ms",
    "ensemble.speedup_w2": "x",
    "experiments.report_bytes": "bytes",
    "failed_frac": "frac",
    "cli.import_s": "s",
    "cli.list_s": "s",
    "trace.overhead_frac": "frac",
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def _spawn(cmd, deadline: float) -> str:
    """Run cmd in its own process group; kill the group if it outlives the run."""
    proc = subprocess.Popen(
        cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1:3]} did not finish within the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def _timed_probe(args, deadline: float) -> float:
    t0 = time.monotonic()
    _spawn([sys.executable, *args], deadline)
    return time.monotonic() - t0


def grade_reports(out_dir: Path, kinds) -> dict:
    """Digest, failure count and gate problems of one pass's report files."""
    sha = hashlib.sha256()
    failed = 0
    problems = []
    for i, kind in enumerate(kinds):
        files = {n: (out_dir / str(i) / n).read_bytes() for n in ("report.csv", "report.json", "summary.txt")}
        for data in files.values():
            sha.update(data)
        report = json.loads(files["report.json"])
        if report["status"] != "ok":
            problems.append(f"{kind}: status {report['status']}")
        for ens in report["ensembles"].values():
            failed += sum(block["counts"]["count_failed"] for block in ens["per_epsilon"])
        problems.extend(check_anchors(kind, files["report.csv"].decode()))
    return {"digest": sha.hexdigest(), "failed": failed, "problems": problems}


def check_anchors(kind: str, csv_text: str) -> list:
    """Problems with the analytic-variance rows of the anchored functionals."""
    rows = {}
    for line in csv_text.splitlines():
        parts = line.split(",")
        if len(parts) == 4 and parts[2] == "analytic_variance":
            rows.setdefault(parts[1], []).append(float(parts[3]))
    problems = []
    for name, target, rel_tol in ANCHORS.get(kind, ()):
        values = rows.get(name)
        if not values:
            problems.append(f"{kind}: no analytic_variance row for {name}")
        for v in values or ():
            if not abs(v - target) <= rel_tol * abs(target):
                problems.append(f"{kind}: {name} target {v!r}, anchor {target!r} (rel tol {rel_tol})")
    return problems


def run_pass(workload: str, seed: int, workers: int, trace: bool, label: str, deadline: float,
             extra=()) -> dict:
    out_dir = WORK / label
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--workers", str(workers),
        "--out", str(out_dir), *extra,
    ]
    if trace:
        cmd.append("--trace")
    cmd += ["--t0", repr(time.monotonic())]
    out = _spawn(cmd, deadline)
    rec = json.loads(out.strip().splitlines()[-1])
    if not Path(rec["corrlab_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"corrlab was imported from {rec['corrlab_file']}, not from {SRC}")
    rec.update(grade_reports(out_dir, rec["kinds"]))
    shutil.rmtree(out_dir)
    rec["label"] = label
    return rec


def untraced_run(workload, seed, seconds, deadline) -> tuple:
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass(workload, seed, WORKERS, False, f"w{WORKERS}-{len(passes)}", deadline))
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "real_per_s": statistics.median((p["realizations"] - p["failed"]) / p["run_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced_run(workload, seed, seconds, deadline) -> tuple:
    start = time.monotonic()
    ref2 = run_pass(workload, seed, WORKERS, False, f"w{WORKERS}", deadline)
    ref1 = run_pass(workload, seed, 1, False, "w1", deadline)
    import_s = statistics.median(
        _timed_probe(["-c", "import corrlab.experiments"], deadline) for _ in range(PROBES)
    )
    list_s = statistics.median(_timed_probe(["-m", "corrlab.cli", "list"], deadline) for _ in range(PROBES))
    traced = []
    while not traced or time.monotonic() - start < seconds:
        traced.append(run_pass(workload, seed, 1, True, f"traced-{len(traced)}", deadline))
    layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    layers.update(
        {
            "ensemble.speedup_w2": ref1["run_s"] / ref2["run_s"],
            "experiments.report_bytes": float(ref2["report_bytes"]),
            "failed_frac": ref2["failed"] / ref2["realizations"],
            "cli.import_s": import_s,
            "cli.list_s": list_s,
            "trace.overhead_frac": statistics.median(p["run_s"] for p in traced) / ref1["run_s"] - 1.0,
        }
    )
    return [ref2, ref1, *traced], {k: (layers[k], unit) for k, unit in PER_LAYER.items()}


def environment(workload: str, seed: int, passes) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_env": {v: _env()[v] for v in BLAS_VARS},
        "workload": workload,
        "seed": seed,
        "configs": [f"{k} n_real={n}" for k, n in zip(passes[0]["kinds"], passes[0]["n_real"])],
        "passes": len(passes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="corrlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corrlab" / "__init__.py").is_file():
        sys.stderr.write(f"no corrlab sources under {SRC}; run from a corrlab checkout\n")
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        # a small pass first compiles bytecode and wakes the CPUs and the
        # page cache, so the first timed pass pays for none of it
        run_pass(args.workload, args.seed, WORKERS, False, "warm-up", deadline, ("--n-real", str(WARM_UP_N_REAL)))
        run = traced_run if args.trace else untraced_run
        passes, metrics = run(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    problems = sorted({p for rec in passes for p in rec["problems"]})
    digests = {rec["digest"] for rec in passes}
    if len(digests) > 1:
        problems.append(
            "report digests differ between passes: "
            + ", ".join(f"{rec['label']}={rec['digest'][:12]}" for rec in passes)
        )
    print("env " + json.dumps(environment(args.workload, args.seed, passes), sort_keys=True))
    for rec in passes:
        print(
            f"pass {rec['label']}: setup_s={rec['setup_s']:.4f} run_s={rec['run_s']:.4f} "
            f"cpu_s={rec['cpu_s']:.3f} failed={rec['failed']} sha256={rec['digest']}"
        )
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(rec["realizations"] for rec in passes),
        "failed": sum(rec["failed"] for rec in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
