"""Experiment catalog: validated configs, realization tasks, report grading.

Each experiment kind maps one JSON config to ensemble runs and deterministic
side computations, then grades the outcome against thresholds carried in the
config itself. Threshold defaults equal the package acceptance values, so CI
can drive the acceptance suite through `run_experiment` directly.

A kind is one spec: its defaults, the field rules that are its own, an
optional check of the rules that span fields, and a runner. Every leaf of
the defaults is validated, by the kind's rule for its path, else by the one
rule for its field name, else by the type of its default value, and the
mesh each epsilon implies is checked too, so a config that passes
validation does not fail in its realizations for a config reason.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import asymptotics, elliptic, ensemble, helmholtz, randfield, spectral
from .greens import Mesh1D, Mesh2D, node_indices

VERSION = "corrlab-0.1.0"


class ConfigError(ValueError):
    """Invalid experiment config; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


# --- config validation rules: rule(value, dotted path) raises ConfigError ---


def _merge(defaults: dict, user: dict, prefix: str = "") -> dict:
    out = {}
    for key, dval in defaults.items():
        if key in user:
            uval = user[key]
            if isinstance(dval, dict) and isinstance(uval, dict):
                out[key] = _merge(dval, uval, prefix + key + ".")
            else:
                out[key] = uval
        else:
            # kinds share default sub-objects; a config never aliases them
            out[key] = copy.deepcopy(dval)
    for key in user:
        if key not in defaults:
            raise ConfigError(prefix + key, "unknown field")
    return out


def _get(cfg: dict, path: str):
    parts = path.split(".")
    for i, part in enumerate(parts):
        if not isinstance(cfg, dict):
            raise ConfigError(".".join(parts[:i]), "must be an object")
        cfg = cfg[part]
    return cfg


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _as_float(val):
    """A JSON number as a float (inf if too large), None for anything else."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        return float(val)
    except OverflowError:
        return math.inf


def _number(val, key, lo=None, hi=None, lo_open=False, hi_open=False):
    val = _as_float(val)
    if val is None:
        raise ConfigError(key, "must be a number")
    if not math.isfinite(val):
        raise ConfigError(key, "must be finite")
    if lo is not None and (val < lo or (lo_open and val == lo)):
        raise ConfigError(key, f"must be {'>' if lo_open else '>='} {lo}")
    if hi is not None and (val > hi or (hi_open and val == hi)):
        raise ConfigError(key, f"must be {'<' if hi_open else '<='} {hi}")


def _integer(val, key, lo=None, hi=None):
    if not _is_int(val):
        raise ConfigError(key, "must be an integer")
    if lo is not None and val < lo:
        raise ConfigError(key, f"must be >= {lo}")
    if hi is not None and val > hi:
        raise ConfigError(key, f"must be <= {hi}")


def _boolean(val, key):
    if not isinstance(val, bool):
        raise ConfigError(key, "must be a boolean")


def _numbers(val, key, nonempty: bool) -> list:
    if not isinstance(val, list) or (nonempty and not val):
        raise ConfigError(key, "must be a nonempty list" if nonempty else "must be a list")
    xs = [_as_float(x) for x in val]
    if any(x is None for x in xs):
        raise ConfigError(key, "entries must be numbers")
    return xs


def _eps_list(val, key):
    eps = _numbers(val, key, nonempty=True)
    if not all(math.isfinite(e) and e > 0 for e in eps):
        raise ConfigError(key, "epsilon values must be positive")
    if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
        raise ConfigError(key, "must be strictly decreasing")


def _optional_eps_list(val, key):
    if val:
        _eps_list(val, key)


def _choice(val, key, options):
    if val not in options:
        raise ConfigError(key, f"must be one of {sorted(options)}")


def _spec(val, key, cls):
    try:
        cls.from_json(val)
    except Exception as exc:
        raise ConfigError(key, str(exc)) from exc


def _probe_list(val, key):
    if not all(0.0 < x < 1.0 for x in _numbers(val, key, nonempty=False)):
        raise ConfigError(key, "probe points must lie inside (0, 1)")


def _profile_list(val, key, options, nonempty=False):
    if nonempty and not val:
        raise ConfigError(key, "need at least one moment profile")
    if not isinstance(val, list) or any(mk not in options for mk in val):
        raise ConfigError(key, f"must use profiles from {sorted(options)}")


def _list(val, key, message):
    if not isinstance(val, list) or not val:
        raise ConfigError(key, message)


def _dimensions(val, key):
    _list(val, key, "must be a nonempty list")
    if any(not _is_int(d) or not 1 <= d <= 6 for d in val):
        raise ConfigError(key, "dimensions must be integers in 1..6")


# mesh nodes one realization may hold: n in 1D, n^2 in 2D, n_pairs * n for
# the eigenvector rows of the spectral and heat kinds (32 MB per array); also
# the Bessel values of a scaling-study quadrature grid
MAX_NODES = 1 << 22


def _aligned_cells(epsilon: float, nodes_per_eps: int) -> int:
    """Cell count with h = epsilon / nodes_per_eps (rounded up if not integral)."""
    cells = nodes_per_eps / epsilon
    n = int(round(cells))
    if abs(cells - n) > 1e-9 * max(1.0, cells):
        n = int(math.ceil(cells))
    return n


_NONNEG = partial(_number, lo=0)
_POSITIVE = partial(_number, lo=0, lo_open=True)
_MODE_COUNT = partial(_integer, lo=1)
_PROFILES = ("one", "sine", "parabola")
_PROFILES_2D = ("one", "sine")
_PROFILE = partial(_choice, options=_PROFILES)
_FOURIER_PAIR = "must be two distinct modes in 1..n_pairs"

# the rule of a config field by its name, in every kind and at any depth
_BY_NAME = {
    "seed": partial(_integer, lo=0),
    "n_real": partial(_integer, lo=2, hi=ensemble.MAX_REALIZATIONS),
    "epsilon_list": _eps_list,
    "epsilon_list_d4": _optional_eps_list,
    "periodic_epsilon_list": _eps_list,
    "dimensions": _dimensions,
    "field": partial(_spec, cls=randfield.MAProcessSpec),
    "triple": partial(_spec, cls=randfield.CorrelatedTripleSpec),
    "a_star": _POSITIVE,
    "a_base": _POSITIVE,
    "rho_bar": _POSITIVE,
    "q0": _NONNEG,
    "f": _PROFILE,
    "v0": _PROFILE,
    "truncation_rho": partial(_number, lo=0, hi=1, lo_open=True, hi_open=True),
    "nodes_per_eps": partial(_integer, lo=2, hi=MAX_NODES),
    "nodes_per_eps_periodic": partial(_integer, lo=8, hi=MAX_NODES),
    "cell_nodes": partial(_integer, lo=16, hi=MAX_NODES),
    "tol": _POSITIVE,
    "probes": _probe_list,
    "n_pairs": _MODE_COUNT,
    "mode": _MODE_COUNT,
    "modes": partial(_list, message="must be a nonempty list of mode indices"),
    "fourier_pair": partial(_list, message=_FOURIER_PAIR),
    "time": _NONNEG,
    "epsilon_const": _POSITIVE,
    "stderr_factor": _POSITIVE,
    "ks_level": partial(_choice, options=tuple(ensemble.KS_COEFF)),
    "quartic_constant": _POSITIVE,
}

# a leaf no rule names is checked by the type of its default value
_BY_TYPE = {bool: _boolean, int: _integer, float: _number}


def _rules(defaults: dict, own: dict) -> dict:
    """Rule per validated path, in the order of `defaults`: the kind's `own`
    rule for the path, else the rule for its field name, else the type of
    its default.  A dict with a rule is one spec object (`field`, `triple`).
    """
    rules = {}

    def walk(node, prefix):
        for key, dval in node.items():
            path = prefix + key
            rule = own.get(path) or _BY_NAME.get(key)
            if rule is None and isinstance(dval, dict):
                walk(dval, path + ".")
            else:
                rules[path] = rule or _BY_TYPE[type(dval)]

    walk(defaults, "")
    assert own.keys() <= rules.keys(), f"no default at {sorted(own.keys() - rules.keys())}"
    return rules


def _check_lattice(key: str, spec, lo: float, hi: float, eps: float, where: str):
    """ConfigError `key` unless the sampler's lattice takes the points in [lo, hi] at eps.

    Scalar arithmetic: an out-of-range bound becomes inf, never an overflow warning.
    """
    try:  # the phase adds less than 1 to every coordinate
        randfield.lattice_sites(lo / eps, hi / eps + 1.0, randfield.lag_window(spec))
    except ValueError as exc:
        raise ConfigError(key, f"{exc} {where} at epsilon {eps!r}") from None


def _check_mesh(cfg: dict, eps_key="epsilon_list", npe_key="nodes_per_eps", dimension=1):
    """Mesh preconditions at every epsilon, from the node count alone.

    The mesh needs 3 nodes and at most MAX_NODES per realization, the field
    (or triple) beside `eps_key`, if any, must sample the unit interval
    within the lattice limits, the config's probes must be nodes, and its
    n_pairs eigenpairs must fit in the interior nodes.
    """
    scope = _get(cfg, eps_key.rpartition(".")[0]) if "." in eps_key else cfg
    raw = scope.get("triple", scope.get("field"))
    cls = randfield.CorrelatedTripleSpec if "triple" in scope else randfield.MAProcessSpec
    spec = raw and cls.from_json(raw)
    npe = _get(cfg, npe_key)
    for eps in _get(cfg, eps_key):
        over = f"at {npe} nodes per epsilon needs over {MAX_NODES} mesh nodes per realization"
        if npe / eps > MAX_NODES:  # checked first: _aligned_cells would overflow
            raise ConfigError(eps_key, f"epsilon {eps!r} {over}")
        cells = _aligned_cells(eps, npe)
        if cells < 2:
            raise ConfigError(eps_key, f"epsilon {eps!r} leaves fewer than 3 mesh nodes")
        if spec:
            _check_lattice(eps_key, spec, 0.0, 1.0, eps, "on the unit interval")
        try:
            node_indices(1.0 / cells, cfg.get("probes", ()))
        except ValueError as exc:
            raise ConfigError("probes", f"{exc} at epsilon {eps!r}") from None
        if cfg.get("n_pairs", 0) > cells - 1:
            interior = f"the {cells - 1} interior nodes at epsilon {eps!r}"
            raise ConfigError("n_pairs", f"exceeds {interior}")
        if (cells + 1) ** dimension * cfg.get("n_pairs", 1) > MAX_NODES:
            raise ConfigError(eps_key, f"epsilon {eps!r} {over}")


def _check_elliptic(cfg: dict):
    spec = randfield.CorrelatedTripleSpec.from_json(cfg["triple"])
    if spec.component_bound(elliptic.CH_B) >= 1.0:
        raise ConfigError("triple", "b-component bound must stay below 1")
    if spec.component_bound(elliptic.CH_RHO) >= cfg["rho_bar"]:
        raise ConfigError("triple", "drho-component bound must stay below rho_bar")
    _check_mesh(cfg)


def _check_spectral(cfg: dict):
    n_pairs = cfg["n_pairs"]

    def is_mode(n):
        return _is_int(n) and 1 <= n <= n_pairs

    if not all(map(is_mode, cfg["modes"])):
        raise ConfigError("modes", f"mode indices must lie in 1..{n_pairs}")
    fp = cfg["fourier_pair"]
    if len(fp) != 2 or fp[0] == fp[1] or not all(map(is_mode, fp)):
        raise ConfigError("fourier_pair", _FOURIER_PAIR)
    _check_mesh(cfg)


def _check_heat(cfg: dict):
    if cfg["mode"] > cfg["n_pairs"]:
        raise ConfigError("mode", "must not exceed n_pairs")
    _check_mesh(cfg)


def _check_2d(cfg: dict):
    if cfg["f"] not in _PROFILES_2D:
        raise ConfigError("f", f"2D sources must be one of {sorted(_PROFILES_2D)}")
    _check_mesh(cfg, dimension=2)


def _check_field_stats(cfg: dict):
    """The points a realization samples fit the lattice at every epsilon."""
    spec, probe = randfield.MAProcessSpec.from_json(cfg["field"]), cfg["probe"]
    # the mesh kinds sample the unit interval: inside it, epsilon is at fault
    key = "probe" if abs(probe) > 1.0 else "epsilon_list"
    reach = _field_stats_reach(spec)
    for eps in cfg["epsilon_list"]:
        # the ends of the prepared points, without building the array
        lo, hi = probe - eps * reach, probe + eps * reach
        _check_lattice(key, spec, lo, hi, eps, f"for probe {probe!r}")


def _scaling_eps_key(cfg: dict, d: int) -> str:
    """The epsilon list scaling-study fits in dimension d."""
    return "epsilon_list_d4" if d == 4 and cfg["epsilon_list_d4"] else "epsilon_list"


def _check_scaling(cfg: dict):
    """The epsilon lists the runner fits must suit `asymptotics.scaling_study` and
    keep its grid within MAX_NODES Bessel values.  An oversized grid is the list's
    fault, or alpha's (at the default s_max), then s_max's, at the default list."""
    alpha, s_max = cfg["alpha"], cfg["s_max"]
    eps0 = min(SCALING_DEFAULTS["epsilon_list"])
    for key in sorted({_scaling_eps_key(cfg, d) for d in cfg["dimensions"]}):
        try:
            asymptotics.check_scaling_epsilons(cfg[key])
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None
        eps = min(cfg[key])
        size = asymptotics.grid_size(alpha, s_max, eps)
        if size > MAX_NODES:
            if asymptotics.grid_size(alpha, SCALING_DEFAULTS["s_max"], eps0) > MAX_NODES:
                key = "alpha"
            elif asymptotics.grid_size(alpha, s_max, eps0) > MAX_NODES:
                key = "s_max"
            grid = f"{size:.3g} Bessel values in the quadrature grid, over {MAX_NODES}"
            raise ConfigError(key, f"epsilon {eps!r} at alpha {alpha!r}, s_max {s_max!r} needs {grid}")


def _check_periodic(cfg: dict):
    if len(cfg["periodic_epsilon_list"]) < ensemble.MIN_FIT_POINTS:
        raise ConfigError(
            "periodic_epsilon_list",
            f"need at least {ensemble.MIN_FIT_POINTS} epsilon values for the slope fit",
        )
    _check_mesh(cfg, "periodic_epsilon_list", "nodes_per_eps_periodic")
    _check_mesh(cfg, "random.epsilon_list", "random.nodes_per_eps")


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
    """A named profile at the nodes of a mesh: p(x), or p(x) p(y) on a Mesh2D."""
    p = source_profile(kind, mesh.nodes)
    return np.outer(p, p) if isinstance(mesh, Mesh2D) else p


def aligned_mesh(epsilon: float, nodes_per_eps: int) -> Mesh1D:
    """Mesh with h = epsilon / nodes_per_eps (rounded up if not integral)."""
    return Mesh1D(_aligned_cells(epsilon, nodes_per_eps) + 1)


def _probe_name(x: float) -> str:
    return "corr_" + repr(float(x))


# --- realization tasks and the per-epsilon state each kind prepares ---
#
# A kind's prepare(params, epsilon) runs once per run and epsilon, before any
# realization; its task(state, epsilon, seed) then does only per-seed work.
# A state is the params plus what every realization shares, and the runner's
# targets read the same states from the ensemble report.


_LAG_STEPS = 8  # field-stats lag subdivisions per lattice unit


def _field_stats_reach(spec) -> int:
    """The mixing range in whole lattice cells."""
    return int(math.ceil(randfield.mixing_range(spec)))


def _prepare_field_stats(params: dict, epsilon: float) -> dict:
    """The spec, the bound on |field|, and the points of every realization:
    the probe +- the mixing range in steps of epsilon / _LAG_STEPS, the
    probe in the middle."""
    spec = randfield.MAProcessSpec.from_json(params["field"])
    steps = _LAG_STEPS * _field_stats_reach(spec)
    points = params["probe"] + epsilon * (np.arange(-steps, steps + 1) / _LAG_STEPS)
    return dict(params, spec=spec, points=points, bound=spec.abs_bound + 1e-12)


def field_stats_task(state: dict, epsilon: float, seed: int) -> dict:
    """Point statistics plus an exact-in-expectation integrated-covariance probe."""
    vals = randfield.sample_at(state["spec"], epsilon, state["points"], seed)
    center = float(vals[vals.size // 2])
    # sum R(k/8)/8 telescopes to int R exactly: R is piecewise linear with
    # integer knots and vanishes beyond the mixing range
    sig = center * float(np.sum(vals)) / _LAG_STEPS
    return {
        "point_value": center,
        "point_square": center * center,
        "sigma2_sample": sig,
        "count_bound_violation": float(np.any(np.abs(vals) > state["bound"])),
    }


def _helm_problem(params: dict, epsilon: float, dimension: int = 1) -> helmholtz.HelmholtzProblem:
    """The Helmholtz problem of a config at one epsilon; 2D configs have a* = 1."""
    cells = _aligned_cells(epsilon, params["nodes_per_eps"])
    mesh = Mesh2D(cells + 1) if dimension == 2 else Mesh1D(cells + 1)
    spec, f = randfield.MAProcessSpec.from_json(params["field"]), mesh_profile(params["f"], mesh)
    return helmholtz.HelmholtzProblem(mesh, params.get("a_star", 1.0), params["q0"], spec, f, epsilon,
                                      alpha=params["alpha"], truncation_rho=params["truncation_rho"])


def _prepare_helmholtz(params: dict, epsilon: float, dimension: int = 1) -> dict:
    """The problem, its G factored and u0 = G f solved, and the moment test functions."""
    prob = _helm_problem(params, epsilon, dimension)
    prob.u0  # computed here, once, for every realization
    mset = helmholtz.MomentSet(tuple(mesh_profile(mk, prob.mesh) for mk in params["moments"]))
    return dict(params, problem=prob, moment_set=mset)


def _prepare_elliptic(params: dict, epsilon: float) -> dict:
    mesh = aligned_mesh(epsilon, params["nodes_per_eps"])
    spec = randfield.CorrelatedTripleSpec.from_json(params["triple"])
    f = source_profile(params["f"], mesh.nodes)
    prob = elliptic.EllipticProblem1D(mesh, spec, params["q0"], params["rho_bar"], f, epsilon,
                                      a_base=params["a_base"], truncation_rho=params["truncation_rho"])
    prob.u0  # computed here, once, for every realization
    return dict(params, problem=prob)


def _prepare_spectral(params: dict, epsilon: float) -> dict:
    """The problem, its reference spectrum, and (heat) the initial data."""
    prob = _helm_problem(params, epsilon)
    ref = spectral.discrete_unperturbed_spectrum(prob.mesh, prob.a_star, prob.q0, params["n_pairs"])
    state = dict(params, problem=prob, reference=ref)
    if "v0" in params:
        state["v0_values"] = source_profile(params["v0"], prob.mesh.nodes)
    return state


def _solve_record(mesh, sol, corrector=None, probes=(), moments=()) -> dict:
    """Squared-norm, solver, probe and moment functionals of one fixed-point solve."""
    diff = sol.u_eps - sol.u0
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
    prob = state["problem"]
    sol = helmholtz.perturbed_solve(prob, seed, tol=state["tol"])
    moments = helmholtz.moment_functionals(prob, state["moment_set"], sol)
    return _solve_record(prob.mesh, sol, helmholtz.corrector(prob, sol), state["probes"], moments)


def helmholtz_moments_2d_task(state: dict, epsilon: float, seed: int) -> dict:
    prob = state["problem"]
    sol = helmholtz.perturbed_solve_2d(prob, seed, tol=state["tol"])
    moments = helmholtz.moment_functionals(prob, state["moment_set"], sol)
    return _solve_record(prob.mesh, sol, moments=moments)


def elliptic_corrector_task(state: dict, epsilon: float, seed: int) -> dict:
    prob = state["problem"]
    sol = elliptic.solve_transformed(prob, seed, tol=state["tol"])
    return _solve_record(prob.mesh, sol, elliptic.corrector(prob, sol), state["probes"])


def spectral_corrector_task(state: dict, epsilon: float, seed: int) -> dict:
    sr = spectral.spectral_realization(state["problem"], seed, state["n_pairs"], state["reference"])
    out = {"count_flagged": float(sr.match.any_violation)}
    for n in state["modes"]:
        out[f"inv_eig_{n}"] = sr.inverse_eigenvalue_corrector(n)
        out[f"eig_{n}"] = sr.eigenvalue_corrector(n)
        out[f"defect_{n}"] = sr.diagonal_defect(n)
    n, m = state["fourier_pair"]
    out[f"fourier_{n}_{m}"] = sr.fourier_corrector(n, m)
    return out


def heat_corrector_task(state: dict, epsilon: float, seed: int) -> dict:
    sr = spectral.spectral_realization(state["problem"], seed, state["n_pairs"], state["reference"])
    args = state["mode"], state["time"], state["v0_values"], state["epsilon_const"]
    direct, surrogate = sr.heat_corrector(*args)
    return {"heat_direct": direct, "heat_surrogate": surrogate, "heat_gap": abs(direct - surrogate)}


ensemble.register_task("field-stats", field_stats_task, _prepare_field_stats)
ensemble.register_task("helmholtz-corrector", helmholtz_corrector_task, _prepare_helmholtz)
ensemble.register_task(
    "helmholtz-moments-2d", helmholtz_moments_2d_task, partial(_prepare_helmholtz, dimension=2)
)
ensemble.register_task("elliptic-corrector", elliptic_corrector_task, _prepare_elliptic)
ensemble.register_task("spectral-corrector", spectral_corrector_task, _prepare_spectral)
ensemble.register_task("heat-corrector", heat_corrector_task, _prepare_spectral)

# config keys the runner owns; every other key of a config is a task param
_RUNNER_KEYS = ("kind", "seed", "n_real", "epsilon_list", "thresholds", "normality_checks")


def _run_ensemble(config: dict, workers: int) -> ensemble.EnsembleReport:
    """Run the realization task named by config["kind"] over its epsilon_list."""
    params = {k: v for k, v in config.items() if k not in _RUNNER_KEYS}
    es = ensemble.EnsembleSpec(
        config["seed"], config["n_real"], config["epsilon_list"], config["kind"], params
    )
    return ensemble.run(es, workers=workers, version=VERSION)


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
            for fit_name, fit in sorted(rep.scaling_fits.items()):
                for stat_name, value in sorted(fit.items()):
                    lines.append(f"fit,{fit_name},{stat_name},{value!r}")
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


def _within(name: str, label: str, value, target, tol) -> Check:
    err = abs(value - target)
    return Check(
        name,
        err <= tol,
        f"{label}={value:.6g} target={target:.6g} |err|={err:.3g} tol={tol:.3g}",
    )


def _grade_cov(res, rep, k: int, a: str, b: str, name: str, target: float):
    """Covariance check of functionals a and b at epsilon k, when more than 3
    were sampled; n, means and variances are the engine's."""
    st = rep.stats[k]
    if a not in st or st[a].n <= 3:
        return
    sa, sb, n = st[a], st[b], st[a].n
    xs, ys = rep.samples[k][a], rep.samples[k][b]
    cov = math.fsum((x - sa.mean) * (y - sb.mean) for x, y in zip(xs, ys)) / (n - 1)
    se = math.sqrt((sa.variance * sb.variance + cov * cov) / (n - 1))
    res.checks.append(_within(name, "cov", cov, target, res.config["thresholds"]["stderr_factor"] * se))


def _slope_in(name: str, slope: float, lo, hi) -> Check:
    return Check(name, lo <= slope <= hi, f"slope={slope:.4f} bounds=[{lo},{hi}]")


def _slope_near(name: str, slope: float, target, tol) -> Check:
    return Check(
        name, abs(slope - target) <= tol, f"slope={slope:.4f} target={target} tol={tol}"
    )


def _slope_min(name: str, slope: float, lo) -> Check:
    return Check(name, slope >= lo, f"slope={slope:.4f} min={lo}")


def _normality_checks(prefix: str, st, th: dict) -> list:
    if st.variance <= 0:
        return [Check(f"{prefix}_normality", True, "degenerate sample, skipped")]
    crit = ensemble.ks_critical(st.n, th["ks_level"])
    return [
        Check(
            f"{prefix}_skew",
            abs(st.skewness) < th["skew_max"],
            f"skew={st.skewness:.4f} bound={th['skew_max']}",
        ),
        Check(
            f"{prefix}_kurtosis",
            abs(st.excess_kurtosis) < th["kurt_max"],
            f"excess kurtosis={st.excess_kurtosis:.4f} bound={th['kurt_max']}",
        ),
        Check(
            f"{prefix}_ks",
            st.ks_statistic < crit,
            f"ks={st.ks_statistic:.4f} critical={crit:.4f}",
        ),
    ]


def _count_fraction_check(name, rep, counter: str, frac_max: float) -> list:
    checks = []
    for k, eps in enumerate(rep.spec.epsilon_list):
        count = rep.counts[k].get(counter, 0)
        frac = count / rep.spec.n_real
        checks.append(
            Check(
                f"{name}[{eps!r}]",
                frac <= frac_max,
                f"{count}/{rep.spec.n_real} flagged, bound {frac_max}",
            )
        )
    return checks


def _norm_slope(res, rep, functional: str, table: str):
    """Log-log fit of the ensemble mean of one functional across epsilon, stored
    in the report's scaling fits and as the result's `table`; None if unfit."""
    eps = rep.spec.epsilon_list
    means = [st[functional].mean if functional in st else 0.0 for st in rep.stats]
    if len(eps) < ensemble.MIN_FIT_POINTS or any(m <= 0 for m in means):
        return None
    fit = ensemble.loglog_slope(list(zip(eps, means)))
    rep.scaling_fits[f"{functional}_mean"] = fit.to_dict()
    res.tables[table] = fit.to_dict()
    return fit


def _grade_variance(res, eps, st, name, target, label, key, mean=False):
    """Analytic-variance row of functional `name` and, if it was sampled, a
    `{label}_var[{key}]` check, plus a zero-mean check when `mean` is set."""
    sf = res.config["thresholds"]["stderr_factor"]
    res.rows.append((repr(eps), name, "analytic_variance", float(target)))
    if name in st:
        s = st[name]
        res.checks.append(_within(f"{label}_var[{key}]", "var", s.variance, target, sf * s.stderr_variance))
        if mean:
            res.checks.append(_within(f"{label}_mean[{key}]", "mean", s.mean, 0.0, sf * s.stderr_mean))


def _grade_probes(res, rep, k: int, variances: np.ndarray):
    """Variance and mean checks at each probe against the law's `variances` there."""
    eps = rep.spec.epsilon_list[k]
    for x, target in zip(res.config["probes"], variances.tolist()):
        key = f"{x!r},{eps!r}"
        _grade_variance(res, eps, rep.stats[k], _probe_name(x), target, "corr", key, mean=True)


def _grade_moments(res, rep, k: int, cov):
    """Moment variance, mean and covariance checks at epsilon k, then normality."""
    eps = rep.spec.epsilon_list[k]
    st = rep.stats[k]
    for i in range(len(cov)):
        key = f"{i},{eps!r}"
        _grade_variance(res, eps, st, f"moment_{i}", cov[i, i], "moment", key, mean=True)
    for i, j in itertools.combinations(range(len(cov)), 2):
        name = f"moment_cov[{i}{j},{eps!r}]"
        _grade_cov(res, rep, k, f"moment_{i}", f"moment_{j}", name, cov[i, j])
    if res.config["normality_checks"] and "moment_0" in st:
        th = res.config["thresholds"]
        res.checks.extend(_normality_checks(f"moment_0[{eps!r}]", st["moment_0"], th))


def _grade_norm_slope(res, rep):
    th = res.config["thresholds"]
    fit = _norm_slope(res, rep, "norm_sq", "norm_sq_fit")
    if fit is not None:
        res.checks.append(_slope_in("norm_sq_slope", fit.slope, th["slope_lo"], th["slope_hi"]))
    return fit


def _grade_truncation(res, rep):
    frac_max = res.config["thresholds"]["trunc_frac_max"]
    res.checks.extend(_count_fraction_check("truncation", rep, "count_truncated", frac_max))


def _graded(grade):
    """The runner of a one-ensemble kind: run it, then grade(config, res, rep) unless a
    prepare failed (an error result).  A result outlives its run, so the prepared
    states, every epsilon's mesh, go once the targets have read them."""

    def runner(config: dict, workers: int) -> ExperimentResult:
        rep = _run_ensemble(config, workers)
        res = ExperimentResult(config["kind"], config, {"main": rep}, {}, [], [])
        if not any(isinstance(st, Exception) for st in rep.states):
            grade(config, res, rep)
        rep.states.clear()
        return res

    return runner


# --- experiment kinds ---


_DEF_FIELD = {"weights": [0.5, 0.5], "marginal": "rademacher", "amplitude": 1.0}

FIELD_STATS_DEFAULTS = {
    "seed": 20260817,
    "n_real": 400,
    "epsilon_list": [0.1],
    "field": _DEF_FIELD,
    "probe": 0.3,
    "thresholds": {"stderr_factor": 4.0},
}


def _grade_field_stats(config, res, rep):
    spec = rep.states[0]["spec"]
    sf = config["thresholds"]["stderr_factor"]
    s2 = randfield.sigma2(spec)
    r0 = randfield.correlation(spec, 0.0)
    for k, eps in enumerate(rep.spec.epsilon_list):
        st = rep.stats[k]
        for name, label, target in (
            ("sigma2_sample", "sigma2", s2), ("point_square", "point_var", r0), ("point_value", "mean_zero", 0.0)
        ):
            res.rows.append((repr(eps), name, "analytic", float(target)))
            if name in st:
                s = st[name]
                res.checks.append(_within(f"{label}[{eps!r}]", "mean", s.mean, target, sf * s.stderr_mean))
    res.checks.extend(_count_fraction_check("bound", rep, "count_bound_violation", 0.0))
    res.tables.update(sigma2_analytic=s2, lag0_covariance_analytic=r0)


# fields every Helmholtz-family kind shares (the 2D kind drops a_star)
_HELM_BASE = {
    "seed": 20260817,
    "n_real": 200,
    "epsilon_list": [0.02, 0.01],
    "field": _DEF_FIELD,
    "a_star": 1.0,
    "q0": 0.0,
    "f": "one",
    "alpha": 0.0,
    "truncation_rho": 0.5,
    "nodes_per_eps": 8,
    "tol": 1e-10,
}

_NORMALITY = {"skew_max": 0.15, "kurt_max": 0.3, "ks_level": 0.01}

HELM_DEFAULTS = {
    **_HELM_BASE,
    "probes": [0.25, 0.5, 0.75],
    "moments": ["one"],
    "normality_checks": False,
    "thresholds": {
        "stderr_factor": 4.0,
        "slope_lo": 0.85,
        "slope_hi": 1.15,
        "exponent_tol": 0.1,
        **_NORMALITY,
        "trunc_frac_max": 0.01,
    },
}


def _grade_helmholtz_corrector(config, res, rep):
    for k, st in enumerate(rep.states):
        prob, mset = st["problem"], st["moment_set"]
        if config["probes"]:
            _grade_probes(res, rep, k, helmholtz.corrector_law_1d(prob, config["probes"]))
        if config["moments"]:
            _grade_moments(res, rep, k, helmholtz.moment_covariance(prob, mset))
    fit = _grade_norm_slope(res, rep)
    if fit is not None:
        # E||u_eps - u0||^2 ~ eps^{d(1-2a)}; the corrector exponent is half
        # that, with d = 1
        target = 0.5 - config["alpha"]
        tol = config["thresholds"]["exponent_tol"]
        res.checks.append(
            Check(
                "corrector_exponent",
                abs(0.5 * fit.slope - target) <= tol,
                f"exponent={0.5 * fit.slope:.4f} target={target:.4f} tol={tol}",
            )
        )
    _grade_truncation(res, rep)


HELM2D_DEFAULTS = {
    **{k: v for k, v in _HELM_BASE.items() if k != "a_star"},
    "n_real": 128,
    "epsilon_list": [0.0625],
    "moments": ["one", "sine"],
    "normality_checks": False,
    "thresholds": {"stderr_factor": 4.0, **_NORMALITY, "trunc_frac_max": 0.01},
}


def _grade_helmholtz_moments_2d(config, res, rep):
    res.tables["sigma2_separable"] = rep.states[0]["problem"].sigma2
    for k, st in enumerate(rep.states):
        _grade_moments(res, rep, k, helmholtz.moment_covariance_2d(st["problem"], st["moment_set"]))
    _grade_truncation(res, rep)


_DEF_TRIPLE = {
    # channel 1 drives b and part of drho; channel 2 drives drho and q,
    # so all three pairwise correlations are nontrivial
    "weights": [
        [[0.25, 0.25], [0.0, 0.0]],
        [[0.2, 0.2], [0.2, 0.2]],
        [[0.0, 0.0], [0.5, 0.5]],
    ],
    "marginal": "rademacher",
    "amplitudes": [1.0, 1.0, 1.0],
}

ELLIPTIC_DEFAULTS = {
    "seed": 20260817,
    "n_real": 200,
    "epsilon_list": [0.02],
    "triple": _DEF_TRIPLE,
    "a_base": 1.0,
    "q0": 1.0,
    "rho_bar": 1.0,
    "f": "one",
    "truncation_rho": 0.5,
    "nodes_per_eps": 8,
    "tol": 1e-10,
    "probes": [0.25, 0.5, 0.75],
    "thresholds": {
        "stderr_factor": 4.0,
        "slope_lo": 0.85,
        "slope_hi": 1.15,
        "trunc_frac_max": 0.01,
    },
}


def _grade_elliptic_corrector(config, res, rep):
    for k, st in enumerate(rep.states):
        if config["probes"]:
            law = elliptic.limit_law(st["problem"], x_nodes=config["probes"])
            if k == 0:
                res.tables["rho_jk"] = law.rho_jk.tolist()
                res.tables["sigma_b"] = law.sigma_b.tolist()
                res.tables["sigma_rho"] = law.sigma_rho.tolist()
                res.tables["sigma_q"] = law.sigma_q.tolist()
            _grade_probes(res, rep, k, law.variance_fn)
    _grade_norm_slope(res, rep)
    _grade_truncation(res, rep)


SPECTRAL_DEFAULTS = {
    **_HELM_BASE,
    "n_pairs": 8,
    "modes": [1, 2],
    "fourier_pair": [1, 2],
    "normality_checks": False,
    "thresholds": {
        "stderr_factor": 4.0,
        **_NORMALITY,
        "defect_slope_min": 0.8,
        "flag_frac_max": 0.01,
    },
}


def _grade_spectral_corrector(config, res, rep):
    th = config["thresholds"]
    prob = rep.states[-1]["problem"]
    mesh, a_star, q0, s2 = prob.mesh, prob.a_star, prob.q0, prob.sigma2
    eps_last = rep.spec.epsilon_list[-1]
    st = rep.stats[-1]
    for n in config["modes"]:
        target = spectral.inverse_corrector_covariance(mesh, s2, n, n)
        _grade_variance(res, eps_last, st, f"inv_eig_{n}", target, "inv_eig", n)
        target = spectral.eigenvalue_corrector_covariance(mesh, a_star, q0, s2, n, n)
        _grade_variance(res, eps_last, st, f"eig_{n}", target, "eig", n)
    if len(config["modes"]) >= 2:
        n, m = config["modes"][0], config["modes"][1]
        target = spectral.eigenvalue_corrector_covariance(mesh, a_star, q0, s2, n, m)
        _grade_cov(res, rep, -1, f"eig_{n}", f"eig_{m}", f"eig_cov[{n}{m}]", target)
        res.rows.append(
            (repr(eps_last), f"eig_{n}_{m}", "analytic_covariance", float(target))
        )
    n, m = config["fourier_pair"]
    target = spectral.fourier_corrector_variance(mesh, a_star, q0, s2, n, m)
    _grade_variance(res, eps_last, st, f"fourier_{n}_{m}", target, "fourier", f"{n}{m}")
    if config["normality_checks"]:
        key = f"inv_eig_{config['modes'][0]}"
        if key in st:
            res.checks.extend(_normality_checks(key, st[key], th))
    for n in config["modes"]:
        fit = _norm_slope(res, rep, f"defect_{n}", f"defect_{n}_fit")
        if fit is not None:
            res.checks.append(_slope_min(f"defect_slope[{n}]", fit.slope, th["defect_slope_min"]))
    res.checks.extend(
        _count_fraction_check("match_flags", rep, "count_flagged", th["flag_frac_max"])
    )


HEAT_DEFAULTS = {
    **_HELM_BASE,
    "epsilon_list": [0.02, 0.01, 0.005],
    "n_pairs": 8,
    "mode": 1,
    "time": 1.0,
    "epsilon_const": 1.0,
    "v0": "parabola",
    "thresholds": {"stderr_factor": 4.0, "gap_slope_min": 0.3},
}


def _grade_heat_corrector(config, res, rep):
    fit = _norm_slope(res, rep, "heat_gap", "heat_gap_fit")
    if fit is not None:
        res.checks.append(_slope_min("gap_slope", fit.slope, config["thresholds"]["gap_slope_min"]))
    else:
        res.checks.append(Check("gap_slope", True, "skipped: needs 3 epsilon values and positive gaps"))
    # context scale: gap means are read against the direct corrector spread
    for k, eps in enumerate(rep.spec.epsilon_list):
        st = rep.stats[k]
        if "heat_direct" in st:
            scale = math.sqrt(max(st["heat_direct"].variance, 0.0))
            res.rows.append((repr(eps), "heat_gap", "rms_direct", float(scale)))


# smallest s_max whose first tail test in `asymptotics.variance_fourier` passes:
# the tail ratio is at most 2.7e-11 against 1e-10 for d = 1..6, alpha 0.25-4 and
# epsilon 0.0056-0.2, while at 7.5 d = 6 fails it
S_MAX_MIN = 8.0

SCALING_DEFAULTS = {
    "dimensions": [1, 2, 3, 4, 5],
    "alpha": 1.0,
    "s_max": 13.0,
    "epsilon_list": [0.2, 0.12, 0.072, 0.043, 0.026, 0.0156, 0.0094, 0.0056],
    "epsilon_list_d4": [],
    "thresholds": {
        "exponent_tol": 0.1,
        "d4_slope_lo": 3.5,
        "d4_slope_hi": 4.0,
        "d4_residual_factor": 10.0,
        "quartic_constant": 32.986,
        "quartic_rel_tol": 0.01,
    },
}


def _run_scaling_study(config, workers):
    th = config["thresholds"]
    res = ExperimentResult("scaling-study", config, {}, {}, [], [])
    for d in config["dimensions"]:
        setup = asymptotics.RadialSetup(
            dimension=d, alpha=config["alpha"], s_max=config["s_max"]
        )
        curve = asymptotics.scaling_study(setup, config[_scaling_eps_key(config, d)])
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


PERIODIC_DEFAULTS = {
    "seed": 20260817,
    "a_star": 1.0,
    "q0": 0.0,
    "f": "one",
    "periodic_epsilon_list": [0.0625, 0.03125, 0.015625, 0.0078125],
    "nodes_per_eps_periodic": 64,
    "cell_nodes": 2049,
    "random": {
        "field": _DEF_FIELD,
        "epsilon_list": [0.02, 0.01, 0.005, 0.0025],
        "n_real": 200,
        "nodes_per_eps": 8,
        "tol": 1e-10,
        "truncation_rho": 0.5,
    },
    "thresholds": {
        "periodic_slope": 2.0,
        "periodic_slope_tol": 0.05,
        "amplitude_rel_tol": 0.005,
        "random_slope_lo": 0.35,
        "random_slope_hi": 0.65,
    },
}


def _run_periodic_compare(config, workers):
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
    fit = _norm_slope(res, rep, "norm_sq", "random_norm_sq_fit")
    if fit is not None:
        # ||u_eps - u0|| slope is half the slope of the squared-norm mean
        slope = 0.5 * fit.slope
        res.checks.append(_slope_in("random_slope", slope, th["random_slope_lo"], th["random_slope_hi"]))
    return res


# --- registry ---


@dataclass(frozen=True)
class ExperimentKind:
    name: str
    description: str
    defaults: dict
    runner: object
    # dotted path -> rule(value, path), in the order of `defaults`; a path
    # names a leaf or a whole spec object.  Given as the kind's own rules,
    # the paths whose rule differs from _BY_NAME; construction resolves the
    # rest by name or by default type.
    fields: dict
    # rules that span fields, run after every field rule passed
    cross: object

    def __post_init__(self):
        object.__setattr__(self, "fields", _rules(self.defaults, self.fields))


_HELM_ALPHA = partial(_number, lo=0, hi=0.25, hi_open=True)

KINDS = {
    k.name: k
    for k in (
        ExperimentKind(
            "field-stats",
            "Moving-average field statistics against closed-form covariances.",
            FIELD_STATS_DEFAULTS,
            _graded(_grade_field_stats),
            {},
            _check_field_stats,
        ),
        ExperimentKind(
            "helmholtz-corrector",
            "1D Helmholtz corrector ensemble: scaling, pointwise law, moments.",
            HELM_DEFAULTS,
            _graded(_grade_helmholtz_corrector),
            {"alpha": _HELM_ALPHA, "moments": partial(_profile_list, options=_PROFILES)},
            _check_mesh,
        ),
        ExperimentKind(
            "helmholtz-moments-2d",
            "2D Helmholtz moment functionals against the limit covariance.",
            HELM2D_DEFAULTS,
            _graded(_grade_helmholtz_moments_2d),
            {"alpha": _HELM_ALPHA, "moments": partial(_profile_list, options=_PROFILES_2D, nonempty=True)},
            _check_2d,
        ),
        ExperimentKind(
            "elliptic-corrector",
            "1D divergence-form corrector ensemble against the three-driver law.",
            ELLIPTIC_DEFAULTS,
            _graded(_grade_elliptic_corrector),
            {},
            _check_elliptic,
        ),
        ExperimentKind(
            "spectral-corrector",
            "Eigenvalue and eigenvector corrector ensembles for the 1D operator.",
            SPECTRAL_DEFAULTS,
            _graded(_grade_spectral_corrector),
            {"alpha": _HELM_ALPHA},
            _check_spectral,
        ),
        ExperimentKind(
            "heat-corrector",
            "Heat semigroup corrector: direct difference vs two-term surrogate.",
            HEAT_DEFAULTS,
            _graded(_grade_heat_corrector),
            {"alpha": _HELM_ALPHA},
            _check_heat,
        ),
        ExperimentKind(
            "scaling-study",
            "Deterministic variance-vs-epsilon exponents across dimensions 1..6.",
            SCALING_DEFAULTS,
            _run_scaling_study,
            {"alpha": _POSITIVE, "s_max": partial(_number, lo=S_MAX_MIN)},
            _check_scaling,
        ),
        ExperimentKind(
            "periodic-compare",
            "Periodic single-mode corrector vs the random-field scaling contrast.",
            PERIODIC_DEFAULTS,
            _run_periodic_compare,
            {},
            _check_periodic,
        ),
    )
}


def validate_config(raw: dict) -> dict:
    """Merge defaults into a raw config and validate; returns the full record."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    kind = raw.get("kind")
    if kind is None:
        raise ConfigError("kind", "missing required field")
    if kind not in KINDS:
        raise ConfigError(
            "kind", f"unknown experiment kind {kind!r}; see the list command"
        )
    spec = KINDS[kind]
    body = {k: v for k, v in raw.items() if k != "kind"}
    full = {"kind": kind}
    full.update(_merge(spec.defaults, body))
    for path, rule in spec.fields.items():
        rule(_get(full, path), path)
    spec.cross(full)
    return full


def run_experiment(config: dict, workers: int = 1) -> ExperimentResult:
    """Validate and execute one experiment config."""
    full = validate_config(config)
    return KINDS[full["kind"]].runner(full, workers)


def describe_kinds() -> str:
    """One line per experiment kind, stable order, with key defaults."""
    lines = []
    for name, kind in KINDS.items():
        lines.append(f"{name}: {kind.description}")
        keys = [k for k in ("n_real", "epsilon_list", "dimensions") if k in kind.defaults]
        deco = ", ".join(f"{k}={kind.defaults[k]}" for k in keys)
        if deco:
            lines.append(f"    defaults: {deco}")
    return "\n".join(lines) + "\n"
