"""Experiment catalog: config validation, grading, and report layout."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from corrlab import ensemble, experiments
from corrlab.catalog import MAX_NODES, aligned_cells, describe_kinds, fd_eigenvalue, inverse_eigenvalue
from corrlab.experiments import (
    KINDS,
    ConfigError,
    ExperimentResult,
    aligned_mesh,
    run_experiment,
    source_profile,
    validate_config,
)

ALL_KINDS = [
    "field-stats",
    "helmholtz-corrector",
    "helmholtz-moments-2d",
    "elliptic-corrector",
    "spectral-corrector",
    "heat-corrector",
    "scaling-study",
    "periodic-compare",
]


def test_kind_registry_stable_order():
    assert list(KINDS) == ALL_KINDS
    text = describe_kinds()
    for name in ALL_KINDS:
        assert f"{name}: " in text


def test_validate_config_requires_kind():
    with pytest.raises(ConfigError) as err:
        validate_config({})
    assert err.value.field == "kind"
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "bogus"})
    assert err.value.field == "kind"
    with pytest.raises(ConfigError):
        validate_config([1, 2])


def test_validate_config_rejects_unknown_fields():
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "field-stats", "nonsense": 1})
    assert err.value.field == "nonsense"
    # nested unknown field names the dotted path
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "field-stats", "field": {"wieghts": [1]}})
    assert "wieghts" in err.value.field


def test_validate_config_type_and_range_errors():
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "field-stats", "n_real": 1})
    assert err.value.field == "n_real"
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "field-stats", "epsilon_list": [0.1, -0.2]})
    assert err.value.field == "epsilon_list"
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "field-stats", "field": {"marginal": "cauchy"}})
    assert err.value.field == "field"
    assert "marginal" in str(err.value)


@pytest.mark.parametrize(
    "raw, field, message",
    [
        # thresholds are checked like every other field
        ({"kind": "helmholtz-corrector", "thresholds": {"slope_lo": "low"}},
         "thresholds.slope_lo", "must be a number"),
        ({"kind": "spectral-corrector", "thresholds": {"ks_level": 0.1}},
         "thresholds.ks_level", "must be one of [0.01, 0.05]"),
        ({"kind": "heat-corrector", "thresholds": 4.0}, "thresholds", "must be an object"),
        # mesh preconditions at every epsilon
        ({"kind": "helmholtz-corrector", "epsilon_list": [0.03]},
         "probes", "probe 0.25 is not a mesh node at epsilon 0.03"),
        ({"kind": "elliptic-corrector", "epsilon_list": [0.02, 0.03 / 4]},
         "probes", "probe 0.25 is not a mesh node at epsilon 0.0075"),
        ({"kind": "spectral-corrector", "epsilon_list": [0.5], "nodes_per_eps": 2},
         "n_pairs", "exceeds the 3 interior nodes at epsilon 0.5"),
        ({"kind": "heat-corrector", "epsilon_list": [0.5], "nodes_per_eps": 2, "mode": 4},
         "mode", "exceeds the 3 interior nodes"),
        ({"kind": "helmholtz-moments-2d", "epsilon_list": [10.0], "nodes_per_eps": 2},
         "epsilon_list", "epsilon 10.0 leaves fewer than 3 mesh nodes"),
        ({"kind": "periodic-compare",
          "random": {"epsilon_list": [20.0], "nodes_per_eps": 2}},
         "random.epsilon_list", "fewer than 3 mesh nodes"),
        ({"kind": "elliptic-corrector", "triple": {"amplitudes": [1.0, 1.0]}},
         "triple", "three finite amplitudes"),
        ({"kind": "field-stats", "field": {"amplitude": float("nan")}},
         "field", "amplitude must be finite"),
        ({"kind": "helmholtz-moments-2d", "f": "parabola"},
         "f", "2D sources must be one of ['one', 'sine']"),
        # at most MAX_NODES mesh nodes per realization, and no overflow on the way
        ({"kind": "helmholtz-corrector", "epsilon_list": [1e-320]},
         "epsilon_list", "epsilon 1e-320 at 8 nodes per epsilon needs over 4194304 mesh nodes"),
        ({"kind": "helmholtz-corrector", "epsilon_list": [2e-8]},
         "epsilon_list", "epsilon 2e-08 at 8 nodes per epsilon needs over"),
        ({"kind": "elliptic-corrector", "epsilon_list": [0.02, 1e-6]}, "epsilon_list", "epsilon 1e-06"),
        ({"kind": "helmholtz-moments-2d", "epsilon_list": [0.0625, 0.003]}, "epsilon_list", "epsilon 0.003"),
        ({"kind": "spectral-corrector", "epsilon_list": [0.0005], "n_pairs": 300},
         "epsilon_list", "needs over 4194304 mesh nodes per realization"),
        ({"kind": "heat-corrector", "epsilon_list": [0.0005], "mode": 300}, "epsilon_list", "needs over"),
        ({"kind": "periodic-compare", "periodic_epsilon_list": [0.0625, 0.03125, 1e-5]},
         "periodic_epsilon_list", "at 64 nodes per epsilon needs over"),
        ({"kind": "periodic-compare", "random": {"epsilon_list": [0.02, 1e-9]}},
         "random.epsilon_list", "needs over"),
        ({"kind": "helmholtz-corrector", "nodes_per_eps": MAX_NODES + 1}, "nodes_per_eps", "must be <="),
        ({"kind": "periodic-compare", "cell_nodes": MAX_NODES + 1}, "cell_nodes", "must be <="),
        # at most MAX_NODES Bessel values in a scaling-study quadrature grid
        ({"kind": "scaling-study", "epsilon_list": [1e-3, 1e-4, 1e-5, 1e-6]}, "epsilon_list",
         "epsilon 1e-06 at alpha 1.0, s_max 13.0 needs 4.24e+09 Bessel values in the quadrature grid, over 4194304"),
        ({"kind": "scaling-study", "alpha": 1e9}, "alpha", "epsilon 0.0056 at alpha 1000000000.0"),
        ({"kind": "scaling-study", "s_max": 1e5}, "s_max", "at alpha 1.0, s_max 100000.0 needs 5.82e+09"),
        ({"kind": "scaling-study", "dimensions": [3, 4], "epsilon_list_d4": [1e-3, 1e-4, 1e-5, 1e-6]},
         "epsilon_list_d4", "epsilon 1e-06"),
        ({"kind": "scaling-study", "alpha": 1e308}, "alpha", "needs inf Bessel values"),
        ({"kind": "scaling-study", "s_max": 1e308}, "s_max", "needs inf Bessel values"),
        ({"kind": "scaling-study", "epsilon_list": [1e-3, 1e-300, 1e-310, 1e-320]},
         "epsilon_list", "epsilon 1e-320 at alpha 1.0, s_max 13.0 needs inf Bessel values"),
        # an s_max below 8 fails variance_fourier's tail test instead
        ({"kind": "scaling-study", "s_max": 0.1, "dimensions": [1]}, "s_max", "must be >= 8.0"),
        ({"kind": "scaling-study", "s_max": 7.99}, "s_max", "must be >= 8.0"),
        # at most 2^32 realizations, the indices derive_seed holds; never run
        ({"kind": "field-stats", "n_real": 2**32 + 1}, "n_real", "must be <= 4294967296"),
        ({"kind": "heat-corrector", "n_real": 10**300}, "n_real", "must be <= 4294967296"),
        ({"kind": "periodic-compare", "random": {"n_real": 2**32 + 1}}, "random.n_real", "must be <= 4294967296"),
        # heat solves pairs 1..mode, so it has no pair count of its own
        ({"kind": "heat-corrector", "n_pairs": 8}, "n_pairs", "unknown field"),
        # a law names each probe and mode once
        ({"kind": "helmholtz-corrector", "probes": [0.5, 0.5]}, "probes", "probe points must not repeat"),
        ({"kind": "elliptic-corrector", "probes": [0.25, 0.75, 0.25]}, "probes", "probe points must not repeat"),
        ({"kind": "spectral-corrector", "modes": [1, 1]}, "modes", "mode indices must not repeat"),
        # distinct probes within node_indices' tolerance of one node
        ({"kind": "helmholtz-corrector", "probes": [0.5, 0.5 + 1e-12]}, "probes", "share a mesh node at epsilon"),
        ({"kind": "elliptic-corrector", "probes": [0.75 - 1e-12, 0.25, 0.75]}, "probes",
         "share a mesh node at epsilon"),
    ],
)
def test_validation_rejects_configs_that_would_fail_at_run_time(raw, field, message):
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.field == field
    assert message in str(err.value)


@pytest.mark.parametrize("eps", [1e308, 1e-320])
def test_field_stats_extreme_epsilon_is_a_config_error_without_warnings(eps):
    """The sample range is bounded in scalar arithmetic: no overflow warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            validate_config({"kind": "field-stats", "epsilon_list": [eps]})
    assert err.value.field == "epsilon_list"
    assert "lattice range overflow" in str(err.value)


def test_mesh_preconditions_accept_aligned_probes():
    # eps = 0.03 at 8 nodes per eps has no node at 0.25; at 3 it has h = 0.01
    validate_config(
        {"kind": "helmholtz-corrector", "epsilon_list": [0.03], "nodes_per_eps": 3}
    )
    validate_config({"kind": "spectral-corrector", "epsilon_list": [0.5],
                     "nodes_per_eps": 2, "n_pairs": 3, "modes": [1, 2]})


@pytest.mark.parametrize("kind, cells", [("helmholtz-corrector", MAX_NODES - 1), ("helmholtz-moments-2d", 2047)])
def test_node_budget_admits_a_mesh_of_exactly_max_nodes(kind, cells):
    """MAX_NODES nodes (2048^2 in 2D) validate; one more cell does not."""
    probes = {"probes": []} if kind == "helmholtz-corrector" else {}
    validate_config({"kind": kind, "epsilon_list": [8 / cells], **probes})
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": kind, "epsilon_list": [8 / (cells + 1)], **probes})
    assert err.value.field == "epsilon_list"


@pytest.mark.parametrize(
    "raw, field",
    [
        ({"kind": "spectral-corrector", "a_star": 1e-9}, "a_star"),
        ({"kind": "heat-corrector", "a_star": 1e-9}, "a_star"),
        ({"kind": "periodic-compare", "a_star": 1e-9}, "a_star"),
        # past the default field's bound 1, the field is at fault
        ({"kind": "spectral-corrector", "field": {"amplitude": 20.0}}, "field"),
        ({"kind": "heat-corrector", "field": {"weights": [5.0, 5.0]}}, "field"),
        # epsilon^-alpha raises the bound: 0.01^-0.24 = 3.02 against 0.3 pi^2 = 2.96
        ({"kind": "spectral-corrector", "alpha": 0.24, "a_star": 0.3}, "a_star"),
    ],
)
def test_validation_rejects_an_operator_weyl_cannot_keep_definite(raw, field):
    """These configs once failed every realization with "indefinite operator"."""
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.field == field
    assert "may be indefinite (Weyl)" in str(err.value)


@pytest.mark.parametrize("kind", ["spectral-corrector", "heat-corrector"])
def test_weyl_admission_is_the_lowest_fd_eigenvalue_against_the_field_bound(kind):
    """a* admits exactly when the lowest FD eigenvalue at the coarsest mesh,
    linear in a* at q0 = 0, exceeds the field bound 1."""
    eps = KINDS[kind].defaults["epsilon_list"][0]
    lam_per_a = fd_eigenvalue(1.0 / aligned_cells(eps, 8), 1.0, 0.0, 1)
    validate_config({"kind": kind, "a_star": 1.0001 / lam_per_a})
    with pytest.raises(ConfigError):
        validate_config({"kind": kind, "a_star": 0.9999 / lam_per_a})


@pytest.mark.parametrize("field", ["q0", "a_star"])
def test_periodic_admission_keeps_the_cosine_on_the_fd_diagonal(field):
    """periodic-compare admits 2 a*/h^2 + q0 + 1 below 2^51 at its finest
    mesh, where the cosine still moves every rounded diagonal sum; past it,
    an unmoved diagonal made the sup-norm 0 and the slope fit raise."""
    bound = 2.0**51
    eps = KINDS["periodic-compare"].defaults["periodic_epsilon_list"][-1]
    h2 = (1.0 / aligned_cells(eps, 64)) ** 2
    if field == "q0":
        below, above = bound - 2.0 / h2 - 2.0, bound - 2.0 / h2 - 1.0
    else:
        below, above = (bound - 1.0) * h2 / 2.0 * (1.0 - 1e-15), (bound - 1.0) * h2 / 2.0
    validate_config({"kind": "periodic-compare", field: below})
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "periodic-compare", field: above})
    assert err.value.field == field
    assert "cosine may not move it" in str(err.value)


@pytest.mark.parametrize(
    "raw, field, message",
    [
        # once a ZeroDivisionError in fourier_corrector_variance while grading
        ({"kind": "spectral-corrector", "q0": 1e20, "n_real": 2}, "q0",
         "swamps the gap of fourier_pair [1, 2]: their inverse eigenvalues round equal"),
        # once "eigensolver failed on tridiagonal matrix" in every realization
        ({"kind": "spectral-corrector", "a_star": 1e300}, "a_star", "FD matrix norm 6.4e+305 at epsilon 0.02"),
        ({"kind": "heat-corrector", "a_star": 1e300}, "a_star", "exceeds 1.34078e+154"),
        ({"kind": "heat-corrector", "q0": 1e300}, "q0", "FD matrix norm 1e+300 at epsilon 0.02"),
        ({"kind": "spectral-corrector", "q0": 1e300}, "q0", "FD matrix norm 1e+300"),
    ],
)
def test_validation_rejects_what_the_eigen_arithmetic_cannot_hold(raw, field, message):
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.field == field
    assert message in str(err.value)


@pytest.mark.parametrize("kind", ["spectral-corrector", "heat-corrector"])
def test_eigen_norm_admission_is_the_root_of_the_largest_double(kind):
    """|T|_inf = 4 a*/h^2 + q0 + max|q| at the finest mesh must stay at most
    sqrt(largest double): a* and (heat) q0 admit just under it, not just over."""
    eps = KINDS[kind].defaults["epsilon_list"][-1]
    h = 1.0 / aligned_cells(eps, 8)
    limit = math.sqrt(sys.float_info.max)
    a_max = (limit - 1.0) * h * h / 4.0  # the default field's bound is 1, alpha 0
    cases = [("a_star", a_max)] + ([("q0", limit - 4.0 / (h * h) - 1.0)] if kind == "heat-corrector" else [])
    for field, value in cases:
        validate_config({"kind": kind, field: 0.9999 * value})
        with pytest.raises(ConfigError) as err:
            validate_config({"kind": kind, field: 1.0001 * value})
        assert err.value.field == field


def test_fourier_admission_is_the_gap_of_the_inverse_eigenvalues():
    """q0 admits while the fourier pair's inverse eigenvalues differ: the first
    power of two at which they round equal is rejected, half of it is not."""
    powers = (2.0**k for k in range(1, 200))
    q0 = next(q for q in powers if inverse_eigenvalue(1.0, q, 1) == inverse_eigenvalue(1.0, q, 2))
    assert 1e15 < q0 / 2 < q0 < 1e20
    validate_config({"kind": "spectral-corrector", "q0": 1e15})
    validate_config({"kind": "spectral-corrector", "q0": q0 / 2})
    with pytest.raises(ConfigError) as err:
        validate_config({"kind": "spectral-corrector", "q0": q0})
    assert err.value.field == "q0"


def test_n_real_admits_the_whole_seed_range():
    """derive_seed holds 32 bits of realization index, so 2^32 realizations
    validate (the rejections above take one more).  No such config is run."""
    validate_config({"kind": "field-stats", "n_real": 2**32})
    validate_config({"kind": "periodic-compare", "random": {"n_real": 2**32}})


def test_validate_config_round_trip_idempotent():
    for kind in ALL_KINDS:
        full = validate_config({"kind": kind})
        again = validate_config(full)
        assert again == full
        assert again["kind"] == kind
        # defaults fully materialized and JSON-clean
        json.dumps(full, sort_keys=True)


def test_aligned_mesh_snaps_to_epsilon():
    mesh = aligned_mesh(0.1, 8)
    assert mesh.h == pytest.approx(0.1 / 8)
    assert mesh.n_nodes == 81
    # epsilon that does not divide 1: node count rounds up
    mesh2 = aligned_mesh(0.03, 4)
    assert mesh2.h <= 0.03 / 4 + 1e-15
    assert (mesh2.n_nodes - 1) * mesh2.h == pytest.approx(1.0)


def test_source_profile_variants():
    x = np.linspace(0.0, 1.0, 11)
    assert np.allclose(source_profile("one", x), 1.0)
    assert np.allclose(source_profile("sine", x), np.sin(np.pi * x))
    assert np.allclose(source_profile("parabola", x), x * (1 - x))
    with pytest.raises(ValueError):
        source_profile("cubic", x)


SOLVER_MODULES = ("greens", "helmholtz", "iteration", "elliptic", "spectral", "asymptotics")
TASK_KINDS = ("field-stats", "helmholtz-corrector", "helmholtz-moments-2d",
              "elliptic-corrector", "spectral-corrector", "heat-corrector")


def _child_prints(code: str) -> set:
    """The words a fresh interpreter prints on the last line of `code`."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _modules_after_run(kind: str, status: str = "ok") -> set:
    """The modules a fresh interpreter holds after one `kind` run at n_real 4
    that ends with `status`."""
    return _child_prints(
        "import sys\n"
        "from corrlab import experiments\n"
        f"config = experiments.validate_config({{'kind': {kind!r}, 'n_real': 4}})\n"
        f"assert experiments.run_experiment(config).status == {status!r}\n"
        "print(' '.join(sys.modules))"
    )


def test_field_stats_run_loads_no_solver_module():
    """The fanout path samples fields only: no scipy module at all, no solver."""
    loaded = _modules_after_run("field-stats")
    scipy_loaded = {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
    assert "corrlab.ensemble" in loaded
    assert sorted(scipy_loaded | ({f"corrlab.{m}" for m in SOLVER_MODULES} & loaded)) == []


# scipy package inits that load code no solver runs: scipy's own, scipy.linalg's,
# which loads _array_api (numpy.testing, numpy.ma, numpy.f2py, unittest), and
# scipy.fft's, which loads scipy.special
PACKAGE_INITS = {"scipy", "scipy.linalg", "scipy._lib._array_api", "scipy.fft", "scipy.special"}


# four realizations run to the end; heat's gap slope over them grades fail
@pytest.mark.parametrize("kind, status", [("spectral-corrector", "ok"), ("heat-corrector", "fail")])
def test_eigen_kind_run_loads_no_fft_or_special(kind, status):
    """The eigen kinds call LAPACK through scipy.linalg._flapack, loaded
    without any scipy package init."""
    loaded = _modules_after_run(kind, status)
    assert "scipy.linalg._flapack" in loaded
    assert sorted(PACKAGE_INITS & loaded) == []


# four realizations run to the end; elliptic's checks over them grade fail
@pytest.mark.parametrize("kind, status", [("helmholtz-corrector", "ok"), ("elliptic-corrector", "fail"),
                                          ("helmholtz-moments-2d", "ok")])
def test_source_kind_run_loads_no_scipy_package_init(kind, status):
    """The source kinds factor and solve through scipy.linalg._flapack; the 2D
    kind's sine transforms come from pocketfft's extension, loaded on the first
    2D apply, and no scipy package init runs."""
    loaded = _modules_after_run(kind, status)
    assert "scipy.linalg._flapack" in loaded
    assert ("scipy.fft._pocketfft.pypocketfft" in loaded) == (kind == "helmholtz-moments-2d")
    assert sorted(PACKAGE_INITS & loaded) == []


def test_bare_experiments_import_registers_every_task_kind():
    """The benchmark tracer wraps ensemble.REGISTRY right after its imports."""
    registered = _child_prints("import corrlab.experiments\nfrom corrlab import ensemble\n"
                               "print(' '.join(ensemble.REGISTRY))")
    assert registered == set(TASK_KINDS)
    assert sorted(experiments.RUNNERS) == sorted(KINDS)


def test_field_stats_experiment_small():
    res = run_experiment(
        {
            "kind": "field-stats",
            "seed": 7,
            "n_real": 60,
            "epsilon_list": [0.05],
            "thresholds": {"stderr_factor": 6.0},
        }
    )
    assert res.status in ("ok", "fail")
    names = [c.name for c in res.checks]
    assert any("sigma2" in n for n in names)
    # exact-estimator mean check is present and graded
    csv = res.to_csv()
    assert csv.startswith("# kind=field-stats")
    assert "# config_sha256=" in csv
    assert "epsilon,functional,statistic,value" in csv
    assert any(line.startswith("check,") for line in csv.splitlines())


def test_experiment_csv_json_deterministic_and_worker_invariant():
    cfg = {
        "kind": "field-stats",
        "seed": 3,
        "n_real": 40,
        "epsilon_list": [0.1],
    }
    r1 = run_experiment(cfg, workers=1)
    r2 = run_experiment(cfg, workers=2)
    assert r1.to_csv() == r2.to_csv()
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )
    assert r1.config_sha256() == r2.config_sha256()


def test_amplitude_zero_field_statistics_vanish():
    res = run_experiment(
        {
            "kind": "field-stats",
            "seed": 1,
            "n_real": 50,
            "epsilon_list": [0.1],
            "field": {"amplitude": 0.0},
        }
    )
    for name, st in res.ensembles["main"].stats[0].items():
        assert st.mean == 0.0
        assert st.variance == 0.0


def test_scaling_study_admits_s_max_from_eight():
    assert validate_config({"kind": "scaling-study", "s_max": 8})["s_max"] == 8


def test_scaling_study_experiment_runs_clean():
    res = run_experiment(
        {
            "kind": "scaling-study",
            "dimensions": [1, 5],
            "epsilon_list": [0.2, 0.12, 0.072, 0.043, 0.026, 0.0156, 0.0094, 0.0056],
        }
    )
    assert res.status == "ok"
    names = [c.name for c in res.checks]
    assert any(n.startswith("slope_d1") for n in names)
    assert any(n.startswith("slope_d5") for n in names)
    # deterministic: no ensembles, everything in rows/tables
    assert res.ensembles == {}
    assert res.rows
    txt = res.summary_text()
    assert "[PASS]" in txt
    assert txt.rstrip().endswith("overall: OK")
    # a tiny alpha validates and finishes with finite, positive variances, however
    # far pi/(4 alpha), the Bessel period's panel width, lies past s_max/eps
    for alpha in (1e-3, 1e-9):
        res = run_experiment({"kind": "scaling-study", "dimensions": [1, 5], "alpha": alpha})
        values = [row[3] for row in res.rows if row[1].startswith("variance_d")]
        assert len(values) == 16 and all(math.isfinite(v) and v > 0.0 for v in values)


def test_experiment_status_fail_on_impossible_threshold():
    res = run_experiment(
        {
            "kind": "field-stats",
            "seed": 2,
            "n_real": 40,
            "epsilon_list": [0.1],
            "thresholds": {"stderr_factor": 1e-9},
        }
    )
    assert res.status == "fail"
    assert any(not c.passed for c in res.checks)
    assert "[FAIL]" in res.summary_text()


def test_config_sha_tracks_content():
    a = validate_config({"kind": "field-stats", "seed": 1})
    b = validate_config({"kind": "field-stats", "seed": 2})
    ra = run_experiment(a | {"n_real": 40, "epsilon_list": [0.1]})
    rb = run_experiment(b | {"n_real": 40, "epsilon_list": [0.1]})
    assert ra.config_sha256() != rb.config_sha256()


def test_field_stats_with_every_realization_failed_reports_error(monkeypatch):
    """Checks grade only what was sampled; the failures give the status."""

    def broken(params, epsilon, seed):
        raise RuntimeError("sampler down")

    monkeypatch.setitem(ensemble.REGISTRY, "field-stats", broken)
    res = run_experiment({"kind": "field-stats", "n_real": 4, "epsilon_list": [0.1]})
    assert res.status == "error"
    assert res.checks and all("sigma2" not in c.name for c in res.checks)
    seed, message = res.first_failure()
    assert seed == res.ensembles["main"].failures[0][2]
    assert "sampler down" in message
    assert "[ERROR] main: 4 failed realizations" in res.summary_text()
    assert "# status=error" in res.to_csv()


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_prepare_reports_error_without_grading(monkeypatch, workers):
    """A prepare that raises fails every realization at its epsilon; the
    runner skips the targets and the report carries the message."""
    prepare = ensemble.PREPARE["helmholtz-corrector"]

    def broken(params, epsilon):
        if epsilon == 0.01:
            raise RuntimeError("no mesh today")
        return prepare(params, epsilon)

    monkeypatch.setitem(ensemble.PREPARE, "helmholtz-corrector", broken)
    res = run_experiment({"kind": "helmholtz-corrector", "n_real": 6, "epsilon_list": [0.02, 0.01]}, workers)
    rep = res.ensembles["main"]
    assert res.status == "error" and res.checks == []
    assert [c["count_failed"] for c in rep.counts] == [0, 6]
    assert rep.states == []
    assert res.first_failure()[1] == "RuntimeError: no mesh today"
    assert "[ERROR] main: 6 failed realizations" in res.summary_text()


@pytest.mark.parametrize("mode", [1, 2])
def test_heat_solves_exactly_mode_pairs(monkeypatch, mode):
    """heat-corrector grades pair `mode`: its reference and every realization
    hold pairs 1..mode and no more."""
    from corrlab import spectral

    cfg = validate_config({"kind": "heat-corrector", "mode": mode})
    eps = cfg["epsilon_list"][0]
    state = ensemble.PREPARE["heat-corrector"](cfg, eps)
    assert state["reference"].lam.size == mode
    solve, solved = spectral.perturbed_spectrum, []

    def recorded(*args):
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(spectral, "perturbed_spectrum", recorded)
    experiments.heat_corrector_task(state, eps, 1)
    assert [s.lam.size for s in solved] == [mode]


def _correlated_pair(params, epsilon, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    x, z = rng.normal(size=2)
    return {"x": x, "y": 0.6 * x + 0.8 * z}


@pytest.mark.parametrize("n_real", [3, 4, 300])
def test_grade_cov_forms_the_cross_moment_on_the_engine_moments(monkeypatch, n_real):
    """A law's covariance check: its value is the sample covariance and its
    standard error sqrt((vx vy + cov^2) / (n - 1)), which `_within` scales by
    stderr_factor; under 4 samples it is skipped."""
    monkeypatch.setitem(ensemble.REGISTRY, "correlated-pair", _correlated_pair)
    rep = ensemble.run(ensemble.EnsembleSpec(5, n_real, (0.1,), "correlated-pair"))
    seen, within = [], experiments._within
    monkeypatch.setattr(experiments, "_within", lambda *args: seen.append(args) or within(*args))
    res = ExperimentResult("pair", {"thresholds": {"stderr_factor": 4.0}}, {}, {}, [], [])
    # only the covariance is stated: no variance row or check, no mean check
    cov = np.array([[math.nan, 0.6], [0.6, math.nan]])
    law = experiments.Law([("x", "pair", "x"), ("y", "pair", "y")], np.full(2, math.nan), cov)
    experiments._grade_law(res, rep, 0, law)
    assert res.rows == []
    if n_real < 4:
        assert res.checks == [] and seen == []
        return
    [(_, name, label, cov, target, stderr)] = seen
    assert (name, label, target) == ("pair_cov[xy]", "cov", 0.6)
    rows = [_correlated_pair({}, 0.1, ensemble.derive_seed(5, 0, j)) for j in range(n_real)]
    x, y = np.asarray([row["x"] for row in rows]), np.asarray([row["y"] for row in rows])
    want = float(np.cov(x, y, ddof=1)[0, 1])
    assert cov == pytest.approx(want, rel=1e-12)
    vx, vy = rep.stats[0]["x"].variance, rep.stats[0]["y"].variance
    assert stderr == math.sqrt((vx * vy + cov * cov) / (n_real - 1))
    assert [c.name for c in res.checks] == ["pair_cov[xy]"]
    assert res.checks[0].detail.endswith(f" tol={4.0 * stderr:.3g}")


def test_grade_law_emits_nothing_for_a_nan_target(monkeypatch):
    """A NaN variance makes no row and no variance or mean check for its
    functional, a NaN mean no mean check, and a NaN covariance no check and
    no row; what is stated is graded as in the fully stated law."""
    monkeypatch.setitem(ensemble.REGISTRY, "correlated-pair", _correlated_pair)
    rep = ensemble.run(ensemble.EnsembleSpec(5, 50, (0.1,), "correlated-pair"))
    functionals, nan = [("x", "p", "x"), ("y", "p", "y")], math.nan

    def grade(mean, cov):
        res = ExperimentResult("pair", {"thresholds": {"stderr_factor": 4.0}}, {}, {}, [], [])
        experiments._grade_law(res, rep, 0, experiments.Law(functionals, np.array(mean), np.array(cov), ",e", True))
        return {c.name: c.detail for c in res.checks}, res.rows

    checks, rows = grade([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])
    assert list(checks) == ["p_var[x,e]", "p_mean[x,e]", "p_var[y,e]", "p_mean[y,e]", "p_cov[xy,e]"]
    assert rows == [("0.1", "x", "analytic_variance", 1.0), ("0.1", "y", "analytic_variance", 1.0),
                    ("0.1", "x_y", "analytic_covariance", 0.6)]
    # x: no mean; y: a mean but no variance; x and y: no covariance
    assert grade([nan, 0.0], [[1.0, nan], [nan, nan]]) == ({"p_var[x,e]": checks["p_var[x,e]"]}, rows[:1])


def test_law_checks_and_rows_keep_their_order_past_two_functionals():
    """Three moments and three modes: every variance and mean check comes
    before the covariances, eig_cov[12] and its row before the Fourier
    corrector, and normality after the law of its epsilon."""
    small = {"n_real": 4, "epsilon_list": [0.04, 0.02], "normality_checks": True}
    res = run_experiment({"kind": "helmholtz-corrector", "moments": ["one", "sine", "parabola"], **small})
    assert [c.name for c in res.checks] == [
        "corr_var[0.25,0.04]", "corr_mean[0.25,0.04]", "corr_var[0.5,0.04]", "corr_mean[0.5,0.04]",
        "corr_var[0.75,0.04]", "corr_mean[0.75,0.04]", "moment_var[0,0.04]", "moment_mean[0,0.04]",
        "moment_var[1,0.04]", "moment_mean[1,0.04]", "moment_var[2,0.04]", "moment_mean[2,0.04]",
        "moment_cov[01,0.04]", "moment_cov[02,0.04]", "moment_cov[12,0.04]",
        "moment_0[0.04]_skew", "moment_0[0.04]_kurtosis", "moment_0[0.04]_ks",
        "corr_var[0.25,0.02]", "corr_mean[0.25,0.02]", "corr_var[0.5,0.02]", "corr_mean[0.5,0.02]",
        "corr_var[0.75,0.02]", "corr_mean[0.75,0.02]", "moment_var[0,0.02]", "moment_mean[0,0.02]",
        "moment_var[1,0.02]", "moment_mean[1,0.02]", "moment_var[2,0.02]", "moment_mean[2,0.02]",
        "moment_cov[01,0.02]", "moment_cov[02,0.02]", "moment_cov[12,0.02]",
        "moment_0[0.02]_skew", "moment_0[0.02]_kurtosis", "moment_0[0.02]_ks",
        "truncation[0.04]", "truncation[0.02]",
    ]
    assert [r[:3] for r in res.rows] == [
        ("0.04", "corr_0.25", "analytic_variance"), ("0.04", "corr_0.5", "analytic_variance"),
        ("0.04", "corr_0.75", "analytic_variance"), ("0.04", "moment_0", "analytic_variance"),
        ("0.04", "moment_1", "analytic_variance"), ("0.04", "moment_2", "analytic_variance"),
        ("0.02", "corr_0.25", "analytic_variance"), ("0.02", "corr_0.5", "analytic_variance"),
        ("0.02", "corr_0.75", "analytic_variance"), ("0.02", "moment_0", "analytic_variance"),
        ("0.02", "moment_1", "analytic_variance"), ("0.02", "moment_2", "analytic_variance"),
    ]

    res = run_experiment({"kind": "spectral-corrector", "modes": [1, 2, 3], **small})
    assert [c.name for c in res.checks] == [
        "inv_eig_var[1]", "eig_var[1]", "inv_eig_var[2]", "eig_var[2]", "inv_eig_var[3]", "eig_var[3]",
        "eig_cov[12]", "fourier_var[12]", "inv_eig_1_skew", "inv_eig_1_kurtosis", "inv_eig_1_ks",
        "match_flags[0.04]", "match_flags[0.02]",
    ]
    assert [r[:3] for r in res.rows] == [
        ("0.02", "inv_eig_1", "analytic_variance"), ("0.02", "eig_1", "analytic_variance"),
        ("0.02", "inv_eig_2", "analytic_variance"), ("0.02", "eig_2", "analytic_variance"),
        ("0.02", "inv_eig_3", "analytic_variance"), ("0.02", "eig_3", "analytic_variance"),
        ("0.02", "eig_1_2", "analytic_covariance"), ("0.02", "fourier_1_2", "analytic_variance"),
    ]
