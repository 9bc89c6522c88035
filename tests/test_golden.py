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

    python tests/test_golden.py --diff OLD NEW

prints what moved between two report trees (directories of <name>/report.*,
such as tests/golden), one line per entry: checks keyed by name (verdict
and detail), CSV rows by every column but the value, JSON entries by path
and summary lines by check name.  It exits 1 if anything moved.  A failing
golden test prints the same diff.
"""

import json
import os
import shutil
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


def _csv_entries(text: str) -> dict:
    # a provenance line "# key=value" is keyed by its key, a row by every
    # column but the value, as a check name may hold commas
    return dict(line.partition("=")[::2] if line.startswith("#") else line.rpartition(",")[::2]
                for line in text.splitlines())


def _summary_entries(text: str) -> dict:
    # "[PASS] name: detail" is keyed by the check name, other lines by their label
    def entry(line):
        head, _, rest = line.partition(": ")
        word, _, name = head.partition("] ")
        return (name, f"{word[1:]} {rest}") if word in ("[PASS", "[FAIL") else (head, rest)

    return dict(entry(line) for line in text.splitlines() if line)


def _json_entries(text: str) -> dict:
    """path -> leaf, checks keyed by name; an empty dict or list is a leaf."""
    data = json.loads(text)
    out = {f"checks[{c['name']}]": f"{'PASS' if c['passed'] else 'FAIL'} {c['detail']}" for c in data.pop("checks")}

    def walk(node, path):
        if isinstance(node, dict) and node:
            for key, child in node.items():
                walk(child, f"{path}.{key}")
        elif isinstance(node, list) and node:
            for i, child in enumerate(node):
                walk(child, f"{path}[{i}]")
        else:
            out[path] = json.dumps(node)

    for key, child in data.items():
        walk(child, key)
    return out


ENTRIES = {"report.csv": _csv_entries, "report.json": _json_entries, "summary.txt": _summary_entries}


def _moved(a: dict, b: dict) -> list:
    """`- key = old`, `+ key = new` or `~ key: old -> new` per entry that moved."""
    lines = [f"- {k} = {v}" if k not in b else f"~ {k}: {v} -> {b[k]}" for k, v in a.items() if b.get(k) != v]
    return lines + [f"+ {k} = {v}" for k, v in b.items() if k not in a]


def _entries(path: Path) -> dict:
    return ENTRIES[path.name](path.read_text()) if path.exists() else {}


def diff_trees(old: Path, new: Path) -> list:
    """What moved between two report trees, each line led by <name>/<file>;
    a file only one tree holds shows as all its entries removed or added."""
    subs = sorted({d.name for root in (old, new) for d in root.iterdir() if d.is_dir()})
    return [f"{sub}/{name}: {line}" for sub in subs for name in REPORTS
            for line in _moved(_entries(old / sub / name), _entries(new / sub / name))]


def _assert_golden(rendered: Path, kind: str, workers: int):
    for name in REPORTS:
        got, want = rendered / f"{kind}-w{workers}" / name, GOLDEN / kind / name
        # the message, what moved, is formed only on a mismatch
        assert got.read_bytes() == want.read_bytes(), f"{kind}/{name} differs at workers={workers}:\n" + "\n".join(
            _moved(_entries(want), _entries(got)) or ["(only the order or layout of entries)"])


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("kind", list(CONFIGS))
def test_report_bytes_match_golden(kind, workers, rendered):
    _assert_golden(rendered, kind, workers)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("kind", list(CONFIGS))
def test_report_bytes_match_golden_at_two_blas_threads(kind, workers, rendered_blas2):
    _assert_golden(rendered_blas2, kind, workers)


def test_golden_diff_lists_only_what_moved(tmp_path):
    assert diff_trees(GOLDEN, GOLDEN) == []
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    path = copy / "helmholtz-corrector" / "report.json"
    report = json.loads(path.read_text())
    check, verdict = report["checks"][0], ("FAIL", "PASS")
    was = verdict[check["passed"]]
    check["passed"] = not check["passed"]
    del report["ensembles"]["main"]["status"]
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    now, detail = verdict[check["passed"]], check["detail"]
    assert diff_trees(GOLDEN, copy) == [
        f"helmholtz-corrector/report.json: ~ checks[{check['name']}]: {was} {detail} -> {now} {detail}",
        'helmholtz-corrector/report.json: - ensembles.main.status = "ok"',
    ]


def test_goldens_state_each_fit_once():
    """A slope fit lives in report.json's tables alone: report.csv has no fit
    row, and an ensemble block holds only what its run measured."""
    fitted = set()
    for kind in CONFIGS:
        csv = (GOLDEN / kind / "report.csv").read_text()
        assert not [line for line in csv.splitlines() if line.startswith("fit,")], kind
        report = json.loads((GOLDEN / kind / "report.json").read_text())
        for block in report["ensembles"].values():
            assert set(block) == {"task", "status", "per_epsilon", "failures"}, kind
        elsewhere = csv + json.dumps(report["ensembles"])
        for name, fit in report["tables"].items():
            if name.endswith("_fit"):
                fitted.add(kind)
                assert repr(fit["slope"]) not in elsewhere, (kind, name)
    assert fitted == {"elliptic-corrector", "heat-corrector", "helmholtz-corrector", "periodic-compare",
                      "spectral-corrector"}


if __name__ == "__main__":
    if sys.argv[1] == "--diff":
        moved = diff_trees(Path(sys.argv[2]), Path(sys.argv[3]))
        sys.stdout.write("".join(f"{line}\n" for line in moved))
        sys.exit(1 if moved else 0)
    render_all(Path(sys.argv[1]), sys.argv[2:] or tuple(CONFIGS))
