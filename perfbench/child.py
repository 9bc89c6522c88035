"""One pass of a workload in a fresh interpreter.

    python child.py --workload NAME --seed N --workers W --out DIR
                    --t0 MONOTONIC [--trace] [--n-real K]

Runs each config of the workload one at a time the way `corrlab run` does
(runner, then report.csv, report.json and summary.txt in DIR/<index>/) and
prints one JSON line of timings.  `--t0` is the parent's time.monotonic()
taken just before it started this interpreter, so `setup_s` covers the
interpreter start, the import of corrlab.experiments and config validation.
With `--trace`, layer entry points are wrapped first and the per-layer
figures of the pass are added to the output.  `--n-real` shrinks every
config for a warm-up pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _cpu_s() -> float:
    """User+sys CPU of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (Linux KiB)."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def _no_span(name):
    return nullcontext()


def run_configs(configs, workers: int, out_root: Path, span=_no_span) -> int:
    """Run validated configs one at a time and write their reports.

    Mirrors `corrlab run`: the kind's runner, then report.csv, report.json
    and summary.txt in out_root/<config index>/.  Returns the report bytes.
    """
    from corrlab import experiments

    report_bytes = 0
    for i, config in enumerate(configs):
        with span("experiments.runner"):
            result = experiments.KINDS[config["kind"]].runner(config, workers)
        with span("experiments.serialize"):
            files = {
                "report.csv": result.to_csv(),
                "report.json": json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n",
                "summary.txt": result.summary_text(),
            }
            out_dir = out_root / str(i)
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                data = text.encode()
                (out_dir / name).write_bytes(data)
                report_bytes += len(data)
    return report_bytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--n-real", type=int, help="override every n_real (warm-up passes)")
    args = parser.parse_args(argv)

    import workloads
    from corrlab import experiments

    tracer = None
    span = _no_span
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        span = tracer.span

    raws = workloads.configs(args.workload, args.seed)
    if args.n_real:
        raws = [dict(raw, n_real=args.n_real) for raw in raws]
    configs = [experiments.validate_config(raw) for raw in raws]
    setup_s = time.monotonic() - args.t0

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    report_bytes = run_configs(configs, args.workers, Path(args.out), span)
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0

    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "report_bytes": report_bytes,
        "corrlab_file": experiments.__file__,
        "n_real": [c["n_real"] for c in configs],
        "kinds": [c["kind"] for c in configs],
        "realizations": sum(workloads.realizations(c) for c in configs),
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracing.layer_metrics(tracer)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
