"""End-to-end command line contract, run through subprocesses."""

import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "corrlab.cli"]

SMALL = {
    "kind": "field-stats",
    "seed": 5,
    "n_real": 60,
    "epsilon_list": [0.1],
}


def _run(*args, cwd=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, cwd=cwd, timeout=600
    )


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_list_exits_zero_and_names_all_kinds():
    proc = _run("list")
    assert proc.returncode == 0
    for kind in (
        "field-stats",
        "helmholtz-corrector",
        "helmholtz-moments-2d",
        "elliptic-corrector",
        "spectral-corrector",
        "heat-corrector",
        "scaling-study",
        "periodic-compare",
    ):
        assert kind in proc.stdout
    # stable order across invocations
    assert proc.stdout == _run("list").stdout


def test_run_writes_reports_and_exits_zero(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SMALL)
    out = tmp_path / "out"
    proc = _run("run", "--config", cfg, "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    csv = (out / "report.csv").read_text()
    js = json.loads((out / "report.json").read_text())
    summary = (out / "summary.txt").read_text()
    assert csv.startswith("# kind=field-stats")
    assert "# config_sha256=" in csv
    assert js["status"] == "ok"
    assert js["kind"] == "field-stats"
    assert js["config"]["seed"] == 5
    assert "overall: OK" in summary
    assert "[PASS]" in summary
    # summary echoed to stdout unless --quiet
    assert "overall: OK" in proc.stdout


def test_run_quiet_suppresses_echo(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SMALL)
    out = tmp_path / "out"
    proc = _run("run", "--config", cfg, "--out-dir", str(out), "--quiet")
    assert proc.returncode == 0
    assert "overall" not in proc.stdout


def test_worker_count_does_not_change_bytes(tmp_path):
    cfg = _write(tmp_path, "cfg.json", dict(SMALL, n_real=70))
    outs = []
    for w in ("1", "3"):
        out = tmp_path / f"w{w}"
        proc = _run("run", "--config", cfg, "--out-dir", str(out), "--workers", w)
        assert proc.returncode == 0, proc.stderr
        outs.append(
            (
                (out / "report.csv").read_bytes(),
                (out / "report.json").read_bytes(),
                (out / "summary.txt").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


def test_invalid_config_field_exits_two(tmp_path):
    cfg = _write(tmp_path, "bad.json", dict(SMALL, epsilon_list=[0.1, -0.2]))
    proc = _run("run", "--config", cfg)
    assert proc.returncode == 2
    assert "epsilon_list" in proc.stderr


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"kind": "helmholtz-corrector", "epsilon_list": [0.03]}, "probes"),
        (
            {"kind": "spectral-corrector", "epsilon_list": [0.5], "nodes_per_eps": 2},
            "n_pairs",
        ),
        (
            {"kind": "helmholtz-corrector", "thresholds": {"slope_lo": "low"}},
            "thresholds.slope_lo",
        ),
        ({"kind": "scaling-study", "epsilon_list": [0.1, 0.05]}, "epsilon_list"),
        ({"kind": "scaling-study", "epsilon_list": [0.1, 0.08, 0.06, 0.04]}, "epsilon_list"),
        (
            {"kind": "scaling-study", "dimensions": [4], "epsilon_list_d4": [0.2, 0.1]},
            "epsilon_list_d4",
        ),
        (
            {"kind": "periodic-compare", "periodic_epsilon_list": [0.0625, 0.03125]},
            "periodic_epsilon_list",
        ),
        # past the sampler's lattice limits (never run: ~8e8 nodes at 1e-8)
        ({"kind": "helmholtz-corrector", "epsilon_list": [1e-8, 5e-9, 2.5e-9]}, "epsilon_list"),
        ({"kind": "spectral-corrector", "epsilon_list": [1e-8]}, "epsilon_list"),
        ({"kind": "field-stats", "probe": 1e17}, "probe"),
        ({"kind": "field-stats", "epsilon_list": [1e-17]}, "epsilon_list"),
        (
            {"kind": "periodic-compare", "random": {"epsilon_list": [0.02, 0.01, 1e-8]}},
            "random.epsilon_list",
        ),
    ],
)
def test_config_that_cannot_run_exits_two_before_any_realization(tmp_path, payload, field):
    cfg = _write(tmp_path, "bad.json", payload)
    out = tmp_path / "out"
    proc = _run("run", "--config", cfg, "--out-dir", str(out))
    assert proc.returncode == 2
    assert f"config field {field!r}" in proc.stderr
    assert not out.exists()


def _modules_after(code: str) -> set:
    """The modules a child interpreter holds once `code` has run."""
    code += "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_leaves_numpy_unloaded():
    """BLAS thread variables set in main() must precede the first numpy import,
    and `list` reads only the catalog, so it never loads numpy."""
    assert "numpy" not in _modules_after("import corrlab.cli")
    listed = _modules_after("from corrlab import cli\nassert cli.main(['list']) == 0")
    assert "corrlab.catalog" in listed
    assert "numpy" not in listed


@pytest.mark.parametrize(
    "payload",
    [
        dict(SMALL, epsilon_list=[0.1, -0.2]),
        {"kind": "spectral-corrector", "a_star": 1e-9},
        {"kind": "scaling-study", "epsilon_list": [0.1, 0.08, 0.06, 0.04]},
        {"kind": "elliptic-corrector", "epsilon_list": [0.03]},
    ],
)
def test_config_error_exits_before_any_scipy_module_loads(tmp_path, payload):
    """Validation may read the spec classes (numpy), but no solver module or scipy."""
    cfg = _write(tmp_path, "bad.json", payload)
    argv = ["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]
    code = f"from corrlab import cli\nassert cli.main({argv!r}) == 2"
    loaded = _modules_after(code)
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
    assert "corrlab.experiments" not in loaded


def test_unknown_kind_exits_two(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"kind": "mystery"})
    proc = _run("run", "--config", cfg)
    assert proc.returncode == 2
    assert "kind" in proc.stderr


def test_unknown_field_exits_two(tmp_path):
    cfg = _write(tmp_path, "bad.json", dict(SMALL, frobnicate=True))
    proc = _run("run", "--config", cfg)
    assert proc.returncode == 2
    assert "frobnicate" in proc.stderr


def test_malformed_json_exits_two(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"kind": "field-stats",,}')
    proc = _run("run", "--config", str(p))
    assert proc.returncode == 2
    assert "broken.json" in proc.stderr or "line" in proc.stderr


def test_missing_config_file_exits_two(tmp_path):
    proc = _run("run", "--config", str(tmp_path / "absent.json"))
    assert proc.returncode == 2


def test_bad_worker_count_exits_two(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SMALL)
    proc = _run("run", "--config", cfg, "--workers", "0")
    assert proc.returncode == 2


def test_threshold_failure_exits_one(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.json",
        dict(SMALL, thresholds={"stderr_factor": 1e-9}),
    )
    out = tmp_path / "out"
    proc = _run("run", "--config", cfg, "--out-dir", str(out))
    assert proc.returncode == 1
    assert "threshold" in proc.stderr
    # reports still written for inspection
    assert (out / "summary.txt").exists()
    assert "overall: FAIL" in (out / "summary.txt").read_text()


def test_amplitude_zero_runs_clean(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.json",
        dict(SMALL, field={"amplitude": 0.0}),
    )
    out = tmp_path / "out"
    proc = _run("run", "--config", cfg, "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    js = json.loads((out / "report.json").read_text())
    block = js["ensembles"]["main"]["per_epsilon"][0]
    for name, st in block["stats"].items():
        assert st["mean"] == 0.0
        assert st["variance"] == 0.0


def test_config_round_trip_reproduces_report(tmp_path):
    """Re-running the fully merged config from report.json matches bytes."""
    cfg = _write(tmp_path, "cfg.json", SMALL)
    out1 = tmp_path / "a"
    assert _run("run", "--config", cfg, "--out-dir", str(out1)).returncode == 0
    js = json.loads((out1 / "report.json").read_text())
    cfg2 = _write(tmp_path, "merged.json", js["config"])
    out2 = tmp_path / "b"
    assert _run("run", "--config", cfg2, "--out-dir", str(out2)).returncode == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
