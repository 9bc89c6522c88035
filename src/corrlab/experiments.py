"""Experiment runners: realization tasks, report grading and reports.

Each experiment kind maps one validated config (see `catalog`) to ensemble
runs and deterministic side computations, then grades the outcome against
thresholds carried in the config itself.  Threshold defaults equal the
package acceptance values, so CI can drive the acceptance suite through
`run_experiment` directly.

Only `ensemble` and `randfield`, which field-stats runs, are imported here
at the top.  A kind that solves imports its solver modules (`greens`,
`helmholtz`, `elliptic`, `spectral`, `asymptotics`) in its own prepare,
task and grader, and calls through the module at call time, so each path
loads only the code it runs and a wrapper set on a module name still sees
every call.  Importing this module registers all six ensemble tasks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import ensemble, randfield
from .catalog import aligned_cells, field_stats_reach, node_indices, scaling_eps_key
# the catalog names callers reach through this module; run_experiment raises ConfigError
from .catalog import KINDS, ConfigError, validate_config  # noqa: F401

VERSION = "corrlab-0.1.0"


def source_profile(kind: str, x: np.ndarray) -> np.ndarray:
    """Named 1D node profile used for sources, moments, and initial data."""
    if kind == "one":
        return np.ones_like(x)
    if kind == "sine":
        return np.sin(np.pi * x)
    if kind == "parabola":
        return x * (1.0 - x)
    raise ValueError(f"unknown profile {kind!r}")


def mesh_profile(kind: str, mesh) -> np.ndarray:
    """A named profile at the nodes of a mesh: p(x), or p(x) p(y) on a 2D mesh."""
    p = source_profile(kind, mesh.nodes)
    return np.outer(p, p) if mesh.quad_weights.ndim == 2 else p


def aligned_mesh(epsilon: float, nodes_per_eps: int):
    """Mesh1D with h = epsilon / nodes_per_eps (rounded up if not integral)."""
    from .greens import Mesh1D

    return Mesh1D(aligned_cells(epsilon, nodes_per_eps) + 1)


def _probe_name(x: float) -> str:
    return "corr_" + repr(float(x))


# --- realization tasks and the per-epsilon state each kind prepares ---
#
# A kind's prepare(params, epsilon) runs once per run and epsilon, before any
# realization; its task(state, epsilon, seed) then does only per-seed work.
# A state is the params plus what every realization shares, and the runner's
# targets read the same states from the ensemble report.  The prepares run
# in the parent, so a forked worker inherits every module its task imports.


_LAG_STEPS = 8  # field-stats lag subdivisions per lattice unit


def _prepare_field_stats(params: dict, epsilon: float) -> dict:
    """The spec, the bound on |field|, and the points of every realization:
    the probe +- the mixing range in steps of epsilon / _LAG_STEPS, the
    probe in the middle."""
    spec = randfield.MAProcessSpec.from_json(params["field"])
    steps = _LAG_STEPS * field_stats_reach(spec)
    points = params["probe"] + epsilon * (np.arange(-steps, steps + 1) / _LAG_STEPS)
    return dict(params, spec=spec, points=points, bound=spec.abs_bound + 1e-12)


def field_stats_task(state: dict, epsilon: float, seed: int) -> dict:
    """Point statistics plus an exact-in-expectation integrated-covariance probe."""
    vals = randfield.sample_at(state["spec"], epsilon, state["points"], seed)
    center = float(vals[vals.size // 2])
    # sum R(k/8)/8 telescopes to int R exactly: R is piecewise linear with
    # integer knots and vanishes beyond the mixing range
    sig = center * float(vals.sum()) / _LAG_STEPS
    return {
        "point_value": center,
        "point_square": center * center,
        "sigma2_sample": sig,
        "count_bound_violation": float(np.abs(vals).max() > state["bound"]),
    }


def _prepare_helmholtz(params: dict, epsilon: float, dimension: int = 1) -> dict:
    """The problem, its G factored and u0 = G f solved, and the moment test functions."""
    from . import helmholtz
    from .greens import Mesh1D, Mesh2D

    n = aligned_cells(epsilon, params["nodes_per_eps"]) + 1
    # the unit square has a* = 1, and a 2D config no a_star field
    mesh, a_star = (Mesh2D(n), 1.0) if dimension == 2 else (Mesh1D(n), params["a_star"])
    spec, f = randfield.MAProcessSpec.from_json(params["field"]), mesh_profile(params["f"], mesh)
    prob = helmholtz.HelmholtzProblem(mesh, a_star, params["q0"], spec, f, epsilon,
                                      alpha=params["alpha"], truncation_rho=params["truncation_rho"])
    prob.u0  # computed here, once, for every realization
    moment_functions = [mesh_profile(mk, mesh) for mk in params["moments"]]
    return dict(params, problem=prob, moment_functions=moment_functions)


def _prepare_elliptic(params: dict, epsilon: float) -> dict:
    from . import elliptic

    mesh = aligned_mesh(epsilon, params["nodes_per_eps"])
    spec = randfield.CorrelatedTripleSpec.from_json(params["triple"])
    f = source_profile(params["f"], mesh.nodes)
    prob = elliptic.EllipticProblem1D(mesh, spec, params["q0"], params["rho_bar"], f, epsilon,
                                      a_base=params["a_base"], truncation_rho=params["truncation_rho"])
    prob.u0  # computed here, once, for every realization
    return dict(params, problem=prob)


def _prepare_spectral(params: dict, epsilon: float, pairs: str = "n_pairs") -> dict:
    """The problem, its reference spectrum of `params[pairs]` pairs (every
    realization solves as many), and (heat) the initial data.  No eigen-solve
    reads a source or a safeguard: the source is zero."""
    from . import helmholtz, spectral

    mesh = aligned_mesh(epsilon, params["nodes_per_eps"])
    spec = randfield.MAProcessSpec.from_json(params["field"])
    prob = helmholtz.HelmholtzProblem(mesh, params["a_star"], params["q0"], spec, np.zeros(mesh.n_nodes),
                                      epsilon, alpha=params["alpha"])
    ref = spectral.discrete_unperturbed_spectrum(prob.mesh, prob.a_star, prob.q0, params[pairs])
    state = dict(params, problem=prob, reference=ref)
    if "v0" in params:
        state["v0_values"] = source_profile(params["v0"], prob.mesh.nodes)
    return state


def _solve_record(prob, sol, corrector=None, probes=(), moments=()) -> dict:
    """Squared-norm, solver, probe and moment functionals of one fixed-point solve."""
    mesh, diff = prob.mesh, sol.u - prob.u0
    out = {
        "norm_sq": mesh.inner(diff, diff),
        "iterations": float(sol.iterations),
        "count_truncated": float(sol.truncated),
    }
    for x, i in zip(probes, node_indices(mesh.h, probes)):
        out[_probe_name(x)] = float(corrector[i])
    for i, v in enumerate(moments):
        out[f"moment_{i}"] = float(v)
    return out


def helmholtz_corrector_task(state: dict, epsilon: float, seed: int) -> dict:
    from . import helmholtz

    prob = state["problem"]
    sol = helmholtz.perturbed_solve(prob, seed, tol=state["tol"])
    c = helmholtz.corrector(prob, sol)
    moments = helmholtz.moment_functionals(prob, state["moment_functions"], c)
    return _solve_record(prob, sol, c, state["probes"], moments)


def helmholtz_moments_2d_task(state: dict, epsilon: float, seed: int) -> dict:
    from . import helmholtz

    prob = state["problem"]
    sol = helmholtz.perturbed_solve_2d(prob, seed, tol=state["tol"])
    c = helmholtz.corrector(prob, sol)
    return _solve_record(prob, sol, moments=helmholtz.moment_functionals(prob, state["moment_functions"], c))


def elliptic_corrector_task(state: dict, epsilon: float, seed: int) -> dict:
    from . import elliptic

    prob = state["problem"]
    sol = elliptic.solve_transformed(prob, seed, tol=state["tol"])
    return _solve_record(prob, sol, elliptic.corrector(prob, sol), state["probes"])


def spectral_corrector_task(state: dict, epsilon: float, seed: int) -> dict:
    from . import spectral

    sr = spectral.spectral_realization(state["problem"], seed, state["reference"])
    out = {"count_flagged": float(sr.match.any_violation)}
    for n in state["modes"]:
        out[f"inv_eig_{n}"] = sr.inverse_eigenvalue_corrector(n)
        out[f"eig_{n}"] = sr.eigenvalue_corrector(n)
        out[f"defect_{n}"] = sr.diagonal_defect(n)
    n, m = state["fourier_pair"]
    out[f"fourier_{n}_{m}"] = sr.fourier_corrector(n, m)
    return out


def heat_corrector_task(state: dict, epsilon: float, seed: int) -> dict:
    from . import spectral

    sr = spectral.spectral_realization(state["problem"], seed, state["reference"])
    args = state["mode"], state["time"], state["v0_values"], state["epsilon_const"]
    direct, surrogate = sr.heat_corrector(*args)
    return {"heat_direct": direct, "heat_surrogate": surrogate, "heat_gap": abs(direct - surrogate)}


# config keys the runner owns; every other key of a config is a task param
_RUNNER_KEYS = ("kind", "seed", "n_real", "epsilon_list", "thresholds", "normality_checks")


def _run_ensemble(config: dict, workers: int) -> ensemble.EnsembleReport:
    """Run the realization task named by config["kind"] over its epsilon_list."""
    params = {k: v for k, v in config.items() if k not in _RUNNER_KEYS}
    es = ensemble.EnsembleSpec(
        config["seed"], config["n_real"], config["epsilon_list"], config["kind"], params
    )
    return ensemble.run(es, workers=workers)


# --- result container ---


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # numpy bools are not JSON serializable
        self.passed = bool(self.passed)


@dataclass
class ExperimentResult:
    kind: str
    config: dict
    ensembles: dict  # section name -> EnsembleReport: at most one
    tables: dict  # deterministic scalar/fit payload for the JSON report
    rows: list  # extra CSV rows: (label, functional, statistic, value)
    checks: list

    @property
    def status(self) -> str:
        if any(rep.status != "ok" for rep in self.ensembles.values()):
            return "error"
        if any(not c.passed for c in self.checks):
            return "fail"
        return "ok"

    def first_failure(self):
        """(seed, message) of the first failed realization, or None."""
        for rep in self.ensembles.values():
            if rep.failures:
                _, _, seed, message = rep.failures[0]
                return seed, message
        return None

    def config_sha256(self) -> str:
        canon = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def _provenance(self) -> list:
        lines = [
            f"# kind={self.kind}",
            f"# version={VERSION}",
            f"# config_sha256={self.config_sha256()}",
        ]
        for key in ("seed", "n_real", "epsilon_list", "nodes_per_eps", "dimensions"):
            if key in self.config:
                lines.append(f"# {key}={self.config[key]}")
        return lines

    def to_csv(self) -> str:
        lines = self._provenance()
        lines.append(f"# status={self.status}")
        lines.append("epsilon,functional,statistic,value")
        for rep in self.ensembles.values():
            for k, eps in enumerate(rep.spec.epsilon_list):
                for name, st in sorted(rep.stats[k].items()):
                    for stat_name, value in st.to_dict().items():
                        lines.append(f"{eps!r},{name},{stat_name},{value!r}")
                for cname, cval in sorted(rep.counts[k].items()):
                    lines.append(f"{eps!r},{cname},count,{cval}")
        for label, name, stat_name, value in self.rows:
            val = repr(float(value)) if isinstance(value, float) else value
            lines.append(f"{label},{name},{stat_name},{val}")
        for c in self.checks:
            lines.append(f"check,{c.name},passed,{int(c.passed)}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "version": VERSION,
            "config": self.config,
            "config_sha256": self.config_sha256(),
            "status": self.status,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "ensembles": {
                name: rep.to_json_dict() for name, rep in self.ensembles.items()
            },
            "tables": self.tables,
        }

    def summary_text(self) -> str:
        lines = [
            f"experiment: {self.kind}",
            f"version: {VERSION}",
            f"config sha256: {self.config_sha256()}",
        ]
        for key in ("seed", "n_real", "epsilon_list"):
            if key in self.config:
                lines.append(f"{key}: {self.config[key]}")
        lines.append("")
        for c in self.checks:
            word = "PASS" if c.passed else "FAIL"
            lines.append(f"[{word}] {c.name}: {c.detail}")
        for section, rep in self.ensembles.items():
            if rep.failures:
                k, j, seed, message = rep.failures[0]
                lines.append(
                    f"[ERROR] {section}: {len(rep.failures)} failed realizations, "
                    f"first seed {seed}: {message}"
                )
        lines.append("")
        lines.append(f"overall: {self.status.upper()}")
        return "\n".join(lines) + "\n"


# --- grading helpers: each appends rows, checks and tables to a result ---


def _within(res, name: str, label: str, value, target, stderr: float):
    """Check that `value` lies within stderr_factor standard errors of `target`:
    the one tolerance rule of every mean, variance and covariance check."""
    tol = res.config["thresholds"]["stderr_factor"] * stderr
    err = abs(value - target)
    detail = f"{label}={value:.6g} target={target:.6g} |err|={err:.3g} tol={tol:.3g}"
    res.checks.append(Check(name, err <= tol, detail))


class Law(NamedTuple):
    """The stated Gaussian law of some functionals at one epsilon.  Functional
    i is `functionals[i] = (name, label, key)`: `name` in the ensemble stats,
    checked as `{label}_var[{key}{at}]`, `{label}_mean[{key}{at}]` and, with a
    later j, `{label}_cov[{key}{key_j}{at}]`.  `mean` and `cov` are the target
    mean vector and covariance matrix, NaN where not stated; `cov_rows` adds
    a row `{name}_{key_j}` for each stated covariance."""

    functionals: list
    mean: np.ndarray
    cov: np.ndarray
    at: str = ""
    cov_rows: bool = False


def _grade_law(res, rep, k: int, law: Law):
    """The rows and checks of a law at epsilon k, on the engine's moments: each
    functional's variance row and, if sampled, variance and mean checks, then
    each stated covariance, checked over 3 samples.  NaN makes no row or check."""
    eps, st, sample_cov = repr(rep.spec.epsilon_list[k]), rep.stats[k], rep.covariance[k]
    for (name, label, key), mean, var in zip(law.functionals, law.mean.tolist(), law.cov.diagonal().tolist()):
        if math.isnan(var):
            continue
        res.rows.append((eps, name, "analytic_variance", var))
        if name in st:
            s = st[name]
            _within(res, f"{label}_var[{key}{law.at}]", "var", s.variance, var, s.stderr_variance)
            if not math.isnan(mean):
                _within(res, f"{label}_mean[{key}{law.at}]", "mean", s.mean, mean, s.stderr_mean)
    for (i, (a, label, key)), (j, (b, _, key_b)) in itertools.combinations(enumerate(law.functionals), 2):
        target = law.cov[i, j]
        if math.isnan(target):
            continue
        if law.cov_rows:
            res.rows.append((eps, f"{a}_{key_b}", "analytic_covariance", float(target)))
        if a in st and st[a].n > 3:
            n, cov = st[a].n, sample_cov[a, b]
            stderr = math.sqrt((st[a].variance * st[b].variance + cov * cov) / (n - 1))
            _within(res, f"{label}_cov[{key}{key_b}{law.at}]", "cov", cov, target, stderr)


def _slope_in(name: str, slope: float, lo, hi) -> Check:
    return Check(name, lo <= slope <= hi, f"slope={slope:.4f} bounds=[{lo},{hi}]")


def _slope_near(name: str, slope: float, target, tol) -> Check:
    return Check(
        name, abs(slope - target) <= tol, f"slope={slope:.4f} target={target} tol={tol}"
    )


def _slope_min(name: str, slope: float, lo) -> Check:
    return Check(name, slope >= lo, f"slope={slope:.4f} min={lo}")


def _grade_normality(res, st: dict, name: str, prefix: str):
    """Skewness, kurtosis and KS checks of functional `name`, named from `prefix`,
    when the config asks for normality checks and `name` was sampled."""
    if not res.config["normality_checks"] or name not in st:
        return
    s, th = st[name], res.config["thresholds"]
    if s.variance <= 0:
        res.checks.append(Check(f"{prefix}_normality", True, "degenerate sample, skipped"))
        return
    skew, kurt, crit = th["skew_max"], th["kurt_max"], ensemble.ks_critical(s.n, th["ks_level"])
    res.checks += [
        Check(f"{prefix}_skew", abs(s.skewness) < skew, f"skew={s.skewness:.4f} bound={skew}"),
        Check(f"{prefix}_kurtosis", abs(s.excess_kurtosis) < kurt,
              f"excess kurtosis={s.excess_kurtosis:.4f} bound={kurt}"),
        Check(f"{prefix}_ks", s.ks_statistic < crit, f"ks={s.ks_statistic:.4f} critical={crit:.4f}"),
    ]


def _grade_counts(res, rep, name: str, counter: str, frac_max: float):
    """Check at each epsilon that at most frac_max of the realizations raised `counter`."""
    n = rep.spec.n_real
    for k, eps in enumerate(rep.spec.epsilon_list):
        count = rep.counts[k].get(counter, 0)
        detail = f"{count}/{n} flagged, bound {frac_max}"
        res.checks.append(Check(f"{name}[{eps!r}]", count / n <= frac_max, detail))


def _grade_fit(res, rep, functional: str, table: str, *grades, skipped: Check | None = None):
    """Log-log fit of the ensemble mean of one functional across epsilon, stored
    once, as the result's `table` (report.json's `tables`), then the check
    grade(slope) of each grade.  Too few epsilons or a mean that is not
    positive leave no fit, and only `skipped`, if given, is checked."""
    eps = rep.spec.epsilon_list
    means = [st[functional].mean if functional in st else 0.0 for st in rep.stats]
    if len(eps) < ensemble.MIN_FIT_POINTS or any(m <= 0 for m in means):
        res.checks.extend([skipped] if skipped else [])
        return
    fit = ensemble.loglog_slope(list(zip(eps, means)))
    res.tables[table] = fit.to_dict()
    res.checks.extend(grade(fit.slope) for grade in grades)


def _norm_sq_slope(th: dict):
    """The grade of the squared-norm slope fit: within [slope_lo, slope_hi]."""
    return partial(_slope_in, "norm_sq_slope", lo=th["slope_lo"], hi=th["slope_hi"])


def _grade_corrector_law(res, rep, k: int, probes, variances, moment_cov):
    """Grade the zero-mean law at epsilon k of the correctors at `probes`, of
    limit `variances`, and the moments, of limit covariance `moment_cov`, with
    no probe-probe or probe-moment covariance stated; then moment 0's normality."""
    p, m = len(probes), len(moment_cov)
    cov = np.full((p + m, p + m), np.nan)
    cov[range(p), range(p)] = variances
    cov[p:, p:] = moment_cov
    functionals = [(_probe_name(x), "corr", repr(x)) for x in probes]
    functionals += [(f"moment_{i}", "moment", str(i)) for i in range(m)]
    eps = rep.spec.epsilon_list[k]
    _grade_law(res, rep, k, Law(functionals, np.zeros(p + m), cov, at=f",{eps!r}"))
    if m:
        _grade_normality(res, rep.stats[k], "moment_0", f"moment_0[{eps!r}]")


def _ensemble_kind(kind: str, prepare, task, grade):
    """Register the realization task of a one-ensemble kind and return its runner:
    run the ensemble, then grade(config, res, rep) unless a prepare failed (an
    error result).  A result outlives its run, so the prepared states, every
    epsilon's mesh, go once the targets have read them."""
    ensemble.register_task(kind, task, prepare)

    def runner(config: dict, workers: int) -> ExperimentResult:
        rep = _run_ensemble(config, workers)
        res = ExperimentResult(config["kind"], config, {"main": rep}, {}, [], [])
        if not any(isinstance(st, Exception) for st in rep.states):
            grade(config, res, rep)
        rep.states.clear()
        return res

    return runner


# --- experiment kinds ---


def _grade_field_stats(config, res, rep):
    spec = rep.states[0]["spec"]
    s2 = randfield.sigma2(spec)
    r0 = randfield.correlation(spec, 0.0)
    for eps, st in zip(rep.spec.epsilon_list, rep.stats):
        for name, label, target in (
            ("sigma2_sample", "sigma2", s2), ("point_square", "point_var", r0), ("point_value", "mean_zero", 0.0)
        ):
            res.rows.append((repr(eps), name, "analytic", float(target)))
            if name in st:
                s = st[name]
                _within(res, f"{label}[{eps!r}]", "mean", s.mean, target, s.stderr_mean)
    _grade_counts(res, rep, "bound", "count_bound_violation", 0.0)
    res.tables.update(sigma2_analytic=s2, lag0_covariance_analytic=r0)


def _grade_helmholtz_corrector(config, res, rep):
    from . import helmholtz

    th, probes = config["thresholds"], config["probes"]
    for k, st in enumerate(rep.states):
        prob, moment_functions = st["problem"], st["moment_functions"]
        variances = helmholtz.corrector_law_1d(prob, probes) if probes else ()
        moment_cov = helmholtz.moment_covariance(prob, moment_functions) if config["moments"] else ()
        _grade_corrector_law(res, rep, k, probes, variances, moment_cov)
    # E||u_eps - u0||^2 ~ eps^{d(1-2a)}; the corrector exponent is half that, with d = 1
    target, tol = 0.5 - config["alpha"], th["exponent_tol"]

    def exponent(slope):
        e = 0.5 * slope
        detail = f"exponent={e:.4f} target={target:.4f} tol={tol}"
        return Check("corrector_exponent", abs(e - target) <= tol, detail)

    _grade_fit(res, rep, "norm_sq", "norm_sq_fit", _norm_sq_slope(th), exponent)
    _grade_counts(res, rep, "truncation", "count_truncated", th["trunc_frac_max"])


def _grade_helmholtz_moments_2d(config, res, rep):
    from . import helmholtz

    res.tables["sigma2_separable"] = rep.states[0]["problem"].sigma2
    for k, st in enumerate(rep.states):
        moment_cov = helmholtz.moment_covariance_2d(st["problem"], st["moment_functions"])
        _grade_corrector_law(res, rep, k, (), (), moment_cov)
    _grade_counts(res, rep, "truncation", "count_truncated", config["thresholds"]["trunc_frac_max"])


def _grade_elliptic_corrector(config, res, rep):
    from . import elliptic

    th, probes = config["thresholds"], config["probes"]
    if probes:
        res.tables["rho_jk"] = elliptic.driver_correlation(rep.states[0]["problem"]).tolist()
        for k, st in enumerate(rep.states):
            _grade_corrector_law(res, rep, k, probes, elliptic.limit_law(st["problem"], x_nodes=probes), ())
    _grade_fit(res, rep, "norm_sq", "norm_sq_fit", _norm_sq_slope(th))
    _grade_counts(res, rep, "truncation", "count_truncated", th["trunc_frac_max"])


def _grade_spectral_corrector(config, res, rep):
    from . import spectral

    th, modes = config["thresholds"], config["modes"]
    prob = rep.states[-1]["problem"]
    mesh, a_star, q0, s2 = prob.mesh, prob.a_star, prob.q0, prob.sigma2
    inv = partial(spectral.inverse_corrector_covariance, mesh, s2)
    eig = partial(spectral.eigenvalue_corrector_covariance, mesh, a_star, q0, s2)
    # at the last epsilon, with no mean stated: each mode's inverse and A-eigenvalue
    # correctors, the first two modes' A-eigenvalue correctors covarying, then the Fourier corrector
    functionals = [(f"{label}_{n}", label, n) for n in modes for label in ("inv_eig", "eig")]
    cov = np.full((len(functionals),) * 2, np.nan)
    np.fill_diagonal(cov, [var(n, n) for n in modes for var in (inv, eig)])
    if len(modes) >= 2:
        cov[1, 3] = cov[3, 1] = eig(*modes[:2])
    _grade_law(res, rep, -1, Law(functionals, np.full(len(functionals), np.nan), cov, cov_rows=True))
    n, m = config["fourier_pair"]
    fourier = np.array([[spectral.fourier_corrector_variance(mesh, a_star, q0, s2, n, m)]])
    _grade_law(res, rep, -1, Law([(f"fourier_{n}_{m}", "fourier", f"{n}{m}")], np.array([np.nan]), fourier))
    key = f"inv_eig_{modes[0]}"
    _grade_normality(res, rep.stats[-1], key, key)
    for n in modes:
        grade = partial(_slope_min, f"defect_slope[{n}]", lo=th["defect_slope_min"])
        _grade_fit(res, rep, f"defect_{n}", f"defect_{n}_fit", grade)
    _grade_counts(res, rep, "match_flags", "count_flagged", th["flag_frac_max"])


def _grade_heat_corrector(config, res, rep):
    skipped = Check("gap_slope", True, "skipped: needs 3 epsilon values and positive gaps")
    grade = partial(_slope_min, "gap_slope", lo=config["thresholds"]["gap_slope_min"])
    _grade_fit(res, rep, "heat_gap", "heat_gap_fit", grade, skipped=skipped)
    # context scale: gap means are read against the direct corrector spread
    for eps, st in zip(rep.spec.epsilon_list, rep.stats):
        if "heat_direct" in st:
            scale = math.sqrt(max(st["heat_direct"].variance, 0.0))
            res.rows.append((repr(eps), "heat_gap", "rms_direct", float(scale)))


def _run_scaling_study(config, workers):
    from . import asymptotics

    th = config["thresholds"]
    res = ExperimentResult("scaling-study", config, {}, {}, [], [])
    for d in config["dimensions"]:
        setup = asymptotics.RadialSetup(
            dimension=d, alpha=config["alpha"], s_max=config["s_max"]
        )
        curve = asymptotics.scaling_study(setup, config[scaling_eps_key(config, d)])
        for e, v in curve.pairs:
            res.rows.append((repr(e), f"variance_d{d}", "value", float(v)))
        res.tables[f"fit_d{d}"] = curve.fit_plain.to_dict()
        res.tables[f"fit_log_d{d}"] = curve.fit_log.to_dict()
        slope = curve.fit_plain.slope
        if d == 4:
            ratio = curve.fit_plain.max_residual / max(
                curve.fit_log.max_residual, 1e-300
            )
            res.checks.append(
                Check(
                    "d4_log_refinement",
                    ratio >= th["d4_residual_factor"],
                    f"residual ratio {ratio:.2f}, min {th['d4_residual_factor']}",
                )
            )
            res.checks.append(
                _slope_in("d4_plain_slope", slope, th["d4_slope_lo"], th["d4_slope_hi"])
            )
        else:
            target = float(min(d, 4))
            res.checks.append(_slope_near(f"slope_d{d}", slope, target, th["exponent_tol"]))
        if d >= 5:
            quartic = asymptotics.quartic_tail_integral(setup)
            res.tables[f"quartic_tail_d{d}"] = quartic
            if d == 5:
                rel = abs(quartic - th["quartic_constant"]) / th["quartic_constant"]
                res.checks.append(
                    Check(
                        "d5_quartic_constant",
                        rel <= th["quartic_rel_tol"],
                        f"value={quartic:.5g} target={th['quartic_constant']} "
                        f"rel_err={rel:.4g}",
                    )
                )
    return res


def _run_periodic_compare(config, workers):
    from . import helmholtz
    from .greens import Mesh1D

    th = config["thresholds"]
    # random-potential contrast: a helmholtz-corrector ensemble with no
    # probes or moments
    contrast = dict(config["random"], kind="helmholtz-corrector", alpha=0.0, probes=[], moments=[],
                    **{key: config[key] for key in ("seed", "a_star", "q0", "f")})
    rep = _run_ensemble(contrast, workers)
    rep.states.clear()  # no target reads them
    res = ExperimentResult("periodic-compare", config, {"random": rep}, {}, [], [])
    # single-mode cell corrector amplitude
    cell = Mesh1D(config["cell_nodes"])
    u2 = helmholtz.periodic_cell_corrector_1d(cell, np.cos(2.0 * np.pi * cell.nodes))
    amp = float(np.max(np.abs(u2)))
    target_amp = 1.0 / (4.0 * np.pi**2)
    rel = abs(amp - target_amp) / target_amp
    res.rows.append(("cell", "cell_corrector", "max_abs", amp))
    res.rows.append(("cell", "cell_corrector", "analytic", float(target_amp)))
    res.checks.append(
        Check(
            "cell_amplitude",
            rel <= th["amplitude_rel_tol"],
            f"max|u2|={amp:.8g} target={target_amp:.8g} rel_err={rel:.3g}",
        )
    )
    # periodic potential sweep: sup-norm of u_eps - u0 against epsilon
    sup_pairs = []
    for eps in config["periodic_epsilon_list"]:
        mesh = aligned_mesh(eps, config["nodes_per_eps_periodic"])
        f = source_profile(config["f"], mesh.nodes)
        qv = np.cos(2.0 * np.pi * mesh.nodes / eps)
        u_eps = helmholtz.dirichlet_solve_fd(
            mesh, config["a_star"], config["q0"] + qv, f
        )
        u0 = helmholtz.dirichlet_solve_fd(mesh, config["a_star"], config["q0"], f)
        sup = float(np.max(np.abs(u_eps - u0)))
        sup_pairs.append((eps, sup))
        res.rows.append((repr(eps), "periodic_sup", "value", sup))
    fit = ensemble.loglog_slope(sup_pairs)
    res.tables["periodic_fit"] = fit.to_dict()
    res.checks.append(
        _slope_near("periodic_slope", fit.slope, th["periodic_slope"], th["periodic_slope_tol"])
    )
    # ||u_eps - u0|| slope is half the slope of the squared-norm mean
    lo, hi = th["random_slope_lo"], th["random_slope_hi"]
    _grade_fit(res, rep, "norm_sq", "random_norm_sq_fit",
               lambda slope: _slope_in("random_slope", 0.5 * slope, lo, hi))
    return res


# each ensemble kind once: its prepare, its realization task and its grader
_ENSEMBLE_KINDS = {
    "field-stats": (_prepare_field_stats, field_stats_task, _grade_field_stats),
    "helmholtz-corrector": (_prepare_helmholtz, helmholtz_corrector_task, _grade_helmholtz_corrector),
    "helmholtz-moments-2d": (
        partial(_prepare_helmholtz, dimension=2), helmholtz_moments_2d_task, _grade_helmholtz_moments_2d
    ),
    "elliptic-corrector": (_prepare_elliptic, elliptic_corrector_task, _grade_elliptic_corrector),
    "spectral-corrector": (_prepare_spectral, spectral_corrector_task, _grade_spectral_corrector),
    # heat solves pairs 1..mode: pair `mode` and its certificate do not depend on the pairs above it
    "heat-corrector": (
        partial(_prepare_spectral, pairs="mode"), heat_corrector_task, _grade_heat_corrector
    ),
}

# the runner(config, workers) of each kind in the catalog; building it
# registers every ensemble kind's task
RUNNERS = {
    **{kind: _ensemble_kind(kind, *parts) for kind, parts in _ENSEMBLE_KINDS.items()},
    "scaling-study": _run_scaling_study,
    "periodic-compare": _run_periodic_compare,
}


def run_experiment(config: dict, workers: int = 1) -> ExperimentResult:
    """Validate and execute one experiment config."""
    full = validate_config(config)
    return KINDS[full["kind"]].runner(full, workers)
