"""Command-line driver: run one experiment config, or list the catalog.

Exit codes: 0 success, 1 runtime failure (a realization raised, or a graded
check failed), 2 invalid config. Reports land in the output directory as
report.csv, report.json, and summary.txt; reruns with the same config are
byte-identical regardless of worker count and BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _single_threaded_blas():
    # worker processes each run one realization; nested BLAS threading only
    # oversubscribes the cores (the reports do not depend on it)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, "1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrlab",
        description="Monte Carlo corrector experiments for random perturbations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("--config", required=True, help="path to a JSON config")
    runp.add_argument("--workers", type=int, default=1, help="worker process cap")
    runp.add_argument("--out-dir", default=".", help="directory for report files")
    runp.add_argument("--quiet", action="store_true", help="suppress the summary echo")
    sub.add_parser("list", help="list experiment kinds and defaults")
    return parser


def _load_config(path: str):
    from .catalog import ConfigError

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("--config", f"cannot read {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "--config", f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return raw


def main(argv=None) -> int:
    _single_threaded_blas()
    args = _build_parser().parse_args(argv)

    # the catalog loads no numpy; the numerics load only for a valid config
    from . import catalog

    if args.command == "list":
        sys.stdout.write(catalog.describe_kinds())
        return 0

    if args.workers < 1:
        sys.stderr.write("invalid config: field '--workers': must be >= 1\n")
        return 2

    try:
        # validation raises ConfigError before any realization runs
        config = catalog.validate_config(_load_config(args.config))
        from . import experiments

        # run_experiment validates the merged config again: idempotent, and
        # cheap beside the imports it follows
        result = experiments.run_experiment(config, args.workers)
    except catalog.ConfigError as exc:
        sys.stderr.write(f"invalid config: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"runtime failure: {type(exc).__name__}: {exc}\n")
        return 1

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(result.to_csv())
    (out_dir / "report.json").write_text(
        json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )
    summary = result.summary_text()
    (out_dir / "summary.txt").write_text(summary)
    if not args.quiet:
        sys.stdout.write(summary)

    if result.status == "error":
        failure = result.first_failure()
        if failure is not None:
            seed, message = failure
            sys.stderr.write(f"runtime failure: seed {seed}: {message}\n")
        else:
            sys.stderr.write("runtime failure: too many failed realizations\n")
        return 1
    if result.status == "fail":
        sys.stderr.write("threshold checks failed; see summary.txt\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
