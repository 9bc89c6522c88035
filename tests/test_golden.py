"""Golden reports: every experiment kind at a small size, compared byte for byte.

Two child interpreters run each config through the command line entry point
at one and two workers, one with BLAS at one thread and one with BLAS at two
threads.  Each report.csv, report.json and summary.txt of both must equal the
file under tests/golden/<kind>/: a report depends on its config alone, not on
the worker count or the BLAS thread count.  Several kinds grade `fail` at
these sizes; the FAIL lines are part of the recorded behaviour.

    python tests/test_golden.py OUT_DIR [KIND ...]

writes the reports the test compares under OUT_DIR/<kind>-w<workers>/, for
every kind or the ones named.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
REPORTS = ("report.csv", "report.json", "summary.txt")
WORKERS = (1, 2)
EPS3 = [0.04, 0.02, 0.01]

CONFIGS = {
    "field-stats": {"n_real": 64, "epsilon_list": [0.1, 0.05]},
    "helmholtz-corrector": {
        "n_real": 32,
        "epsilon_list": EPS3,
        "moments": ["one", "sine"],
        "normality_checks": True,
    },
    "helmholtz-moments-2d": {
        "n_real": 16,
        "epsilon_list": [0.125],
        "normality_checks": True,
    },
    "elliptic-corrector": {"n_real": 32, "epsilon_list": EPS3},
    "spectral-corrector": {
        "n_real": 32,
        "epsilon_list": EPS3,
        "normality_checks": True,
    },
    "heat-corrector": {"n_real": 32, "epsilon_list": EPS3},
    "scaling-study": {"dimensions": [1, 4, 5]},
    "periodic-compare": {"random": {"n_real": 16}},
}

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def render_all(out: Path, kinds=tuple(CONFIGS)) -> None:
    """Run the golden configs of `kinds` through `corrlab run` at each worker count."""
    from corrlab import cli

    for kind in kinds:
        cfg = out / f"{kind}.json"
        cfg.write_text(json.dumps(dict(CONFIGS[kind], kind=kind)))
        for workers in WORKERS:
            code = cli.main(
                ["run", "--config", str(cfg), "--workers", str(workers),
                 "--out-dir", str(out / f"{kind}-w{workers}"), "--quiet"]
            )
            if code not in (0, 1):
                raise SystemExit(f"{kind}: corrlab run exited {code}")


def _render(out: Path, blas_threads: str) -> Path:
    env = dict(os.environ, **{var: blas_threads for var in BLAS_VARS})
    proc = subprocess.run(
        [sys.executable, __file__, str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    return _render(tmp_path_factory.mktemp("golden"), "1")


@pytest.fixture(scope="module")
def rendered_blas2(tmp_path_factory):
    return _render(tmp_path_factory.mktemp("golden-blas2"), "2")


def _assert_golden(rendered: Path, kind: str, workers: int):
    for name in REPORTS:
        got = (rendered / f"{kind}-w{workers}" / name).read_bytes()
        want = (GOLDEN / kind / name).read_bytes()
        assert got == want, f"{kind}/{name} differs at workers={workers}"


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("kind", list(CONFIGS))
def test_report_bytes_match_golden(kind, workers, rendered):
    _assert_golden(rendered, kind, workers)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("kind", list(CONFIGS))
def test_report_bytes_match_golden_at_two_blas_threads(kind, workers, rendered_blas2):
    _assert_golden(rendered_blas2, kind, workers)


if __name__ == "__main__":
    render_all(Path(sys.argv[1]), sys.argv[2:] or tuple(CONFIGS))
