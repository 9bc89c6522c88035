"""Self-tests of the benchmark: names, configs, span arithmetic, bypass counts.

Run with `PYTHONPATH=src python -m pytest perfbench` from the repository
root.  The traced passes here use a few realizations per epsilon, so they
check counts and structure, not timings or graded verdicts.
"""

import json
import re
from pathlib import Path

import pytest

import child
import run
import tracer as tracing
import workloads
from corrlab import experiments

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_matches_the_metrics_printed():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [0, 1, 20260817, 2**63 + 5, -3])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_config_validates(name, seed):
    for raw in workloads.configs(name, seed):
        cfg = experiments.validate_config(raw)
        assert 0 <= cfg["seed"] < 2**63
        # optional normality checks cannot pass at these sizes, so stay off
        assert not cfg.get("normality_checks", False)


def test_anchor_gate_rejects_a_retargeted_law():
    target = run.ANCHORS["spectral-corrector"][0][1]
    good = f"0.0025,inv_eig_1,analytic_variance,{target!r}\n"
    assert run.check_anchors("spectral-corrector", good + "0.0025,fourier_1_2,analytic_variance,"
                             f"{run.ANCHORS['spectral-corrector'][1][1]!r}\n") == []
    bad = f"0.0025,inv_eig_1,analytic_variance,{target * 1.001!r}\n"
    problems = run.check_anchors("spectral-corrector", bad)
    assert any("inv_eig_1" in p for p in problems)
    assert any("fourier_1_2" in p for p in problems)  # missing row


def test_self_times_are_nonnegative_and_bounded_by_parent():
    tr = tracing.Tracer()
    with tr.span("outer"):
        for _ in range(3):
            with tr.span("inner"):
                with tr.span("leaf"):
                    sum(range(1000))
    _assert_span_arithmetic(tr.spans)


def _assert_span_arithmetic(spans):
    table = tracing.SpanTable(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        assert end >= start, name
        assert table.self_time[i] >= -1e-9, name
        assert table.children_time[i] <= table.dur[i] + 1e-9, name
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2], name


def _traced_mini_pass(name, tmp_path):
    """One traced workers=1 pass of a workload at 4 realizations per epsilon."""
    configs = []
    for raw in workloads.configs(name, 7):
        configs.append(experiments.validate_config(dict(raw, n_real=4)))
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        child.run_configs(configs, 1, tmp_path, tr.span)
    finally:
        tr.uninstall()
    return tr


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bypassed_layers_report_zero_calls(name, tmp_path):
    tr = _traced_mini_pass(name, tmp_path)
    _assert_span_arithmetic(tr.spans)
    m = tracing.layer_metrics(tr)
    assert set(m) <= set(run.PER_LAYER)
    assert m["randfield.calls_per_real"] >= 1
    solves = name == "fixedpoint"
    eigen = name == "eigen"
    assert (m["iteration.calls_per_real"] == 1) == solves
    assert (m["greens.apply_calls_per_real"] > 2) == solves
    assert (m["spectral.solves_per_real"] == 1) == eigen
    if not solves:
        assert m["iteration.calls_per_real"] == 0
        assert m["greens.apply_calls_per_real"] == 0
    if not eigen:
        assert m["spectral.solves_per_real"] == 0


def test_uninstall_restores_every_entry_point():
    from corrlab import ensemble, greens, helmholtz

    before = (helmholtz.neumann_solve, greens.DiscreteGreenOperator.apply, dict(ensemble.REGISTRY))
    tr = tracing.Tracer()
    tracing.install(tr)
    assert helmholtz.neumann_solve is not before[0]
    tr.uninstall()
    assert (helmholtz.neumann_solve, greens.DiscreteGreenOperator.apply, dict(ensemble.REGISTRY)) == before
