"""Experiment catalog: the kinds, their defaults, and config validation.

A kind is one spec: its name, description and defaults, the field rules
that are its own, and a check of the rules that span fields.  Every leaf
of the defaults is validated, by the kind's rule for its path, else by the
one rule for its field name, else by the type of its default value, and
the mesh each epsilon implies is checked too, so a config that passes
validation does not fail in its realizations for a config reason.  Each
epsilon list is walked once, by `_check_mesh`, which checks the mesh and
then the kind's FD operator bounds at every epsilon.
Threshold defaults equal the package acceptance values.

Importing this module loads no numpy, so `corrlab list` prints the catalog
without the numerics.  Validation imports `randfield` (the spec classes)
and, for scaling-study, `asymptotics`, but no scipy: a bad config exits
before any solver module loads.  The limits validation shares with the
engine and the solvers are stated here once: the realization and mesh
caps, the KS levels, the fit size, the driving-triple channels, the mesh a
node count implies, its probe nodes, its FD eigenvalues and the continuum
inverse eigenvalues.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from functools import partial

# realizations per epsilon: derive_seed keeps 32 bits for the realization index
MAX_REALIZATIONS = 1 << 32

# asymptotic KS critical-value coefficients by significance level
KS_COEFF = {0.05: 1.358, 0.01: 1.628}

# fewest (epsilon, value) points a log-log slope fit accepts
MIN_FIT_POINTS = 3

# mesh nodes one realization may hold: n in 1D, n^2 in 2D, pairs * n for
# the eigenvector rows of spectral-corrector (n_pairs) and heat-corrector
# (mode), 32 MB per array; also the Bessel values of a scaling-study
# quadrature grid
MAX_NODES = 1 << 22

# channel layout of the elliptic driving triple: b = a*/a - 1, drho, q
CH_B, CH_RHO, CH_Q = 0, 1, 2


class ConfigError(ValueError):
    """Invalid experiment config; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


# --- the mesh an epsilon implies ---


def aligned_cells(epsilon: float, nodes_per_eps: int) -> int:
    """Cell count with h = epsilon / nodes_per_eps (rounded up if not integral)."""
    cells = nodes_per_eps / epsilon
    n = int(round(cells))
    if abs(cells - n) > 1e-9 * max(1.0, cells):
        n = int(math.ceil(cells))
    return n


def node_indices(h: float, xs) -> list:
    """Index of the node at each x of a uniform mesh from 0 with spacing h.

    Raises ValueError when an x lies more than 1e-9 from every node.
    """
    out = []
    for x in xs:
        i = round(x / h)
        if abs(i * h - x) > 1e-9:
            raise ValueError(f"probe {x!r} is not a mesh node")
        out.append(i)
    return out


def fd_eigenvalue(h: float, a_star: float, q0: float, k: int) -> float:
    """Dirichlet eigenvalue k of the three-point matrix of -a* D^2 + q0 on the
    unit interval at mesh width h: (4 a* / h^2) sin^2(k pi h / 2) + q0, for k
    up to the interior node count; its eigenvector is the sampled sin(k pi x)."""
    s = math.sin(k * math.pi * h / 2.0)
    return 4.0 * a_star / (h * h) * s * s + q0


def inverse_eigenvalue(a_star: float, q0: float, n: int) -> float:
    """Continuum eigenvalue 1 / (a* (n pi)^2 + q0) of the inverse of -a* D^2 + q0
    on the unit interval with Dirichlet data."""
    return 1.0 / (a_star * (n * math.pi) ** 2 + q0)


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


# the randfield class of each spec object a config holds
_SPECS = {"field": "MAProcessSpec", "triple": "CorrelatedTripleSpec"}


def _from_json(name: str, raw):
    """The randfield spec of a `field` or `triple` config object."""
    from . import randfield

    return getattr(randfield, _SPECS[name]).from_json(raw)


def _spec(val, key):
    try:
        _from_json(key.rpartition(".")[2], val)
    except Exception as exc:
        raise ConfigError(key, str(exc)) from exc


def _probe_list(val, key):
    xs = _numbers(val, key, nonempty=False)
    if not all(0.0 < x < 1.0 for x in xs):
        raise ConfigError(key, "probe points must lie inside (0, 1)")
    if len(set(xs)) < len(xs):
        raise ConfigError(key, "probe points must not repeat")


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
    "n_real": partial(_integer, lo=2, hi=MAX_REALIZATIONS),
    "epsilon_list": _eps_list,
    "epsilon_list_d4": _optional_eps_list,
    "periodic_epsilon_list": _eps_list,
    "dimensions": _dimensions,
    "field": _spec,
    "triple": _spec,
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
    "ks_level": partial(_choice, options=tuple(KS_COEFF)),
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


# --- rules that span fields ---


def _check_lattice(key: str, spec, lo: float, hi: float, eps: float, where: str):
    """ConfigError `key` unless the sampler's lattice takes the points in [lo, hi] at eps.

    Scalar arithmetic: an out-of-range bound becomes inf, never an overflow warning.
    """
    from . import randfield

    try:  # the phase adds less than 1 to every coordinate
        randfield.lattice_sites(lo / eps, hi / eps + 1.0, randfield.lag_window(spec))
    except ValueError as exc:
        raise ConfigError(key, f"{exc} {where} at epsilon {eps!r}") from None


def _check_sigma2(spec, dimension=1):
    """The field's closed-form sigma^2, amplitude^2 Var(xi) (sum w)^(2 dimension),
    is a finite double for Var(xi) <= 1, so no scipy forms the variance."""
    try:
        finite = spec.amplitude ** 2 * sum(spec.weights) ** (2 * dimension) < math.inf
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError("field", f"closed-form sigma^2 overflows a double in dimension {dimension}")


def _check_mesh(cfg: dict, eps_key="epsilon_list", npe_key="nodes_per_eps", dimension=1, pairs=None, fd=()):
    """Mesh preconditions at every epsilon: the one walk over an epsilon list.

    The mesh needs 3 nodes and at most MAX_NODES per realization, the field
    (or triple) beside `eps_key`, if any, must sample the unit interval
    within the lattice limits, and the config's probes must be nodes, no two
    the same.  An eigen kind names in `pairs` the field that counts the
    eigenpairs it solves: they must fit in the interior nodes, and each is a
    row of mesh nodes towards MAX_NODES.  Then each bound(cfg, eps, h) in
    `fd` checks the FD operator at mesh width h, in order.  A top-level
    field's closed-form sigma^2 is checked first, at the mesh's dimension.
    """
    rows = cfg[pairs] if pairs else 1
    scope = _get(cfg, eps_key.rpartition(".")[0]) if "." in eps_key else cfg
    name = "triple" if "triple" in scope else "field"
    spec = scope.get(name) and _from_json(name, scope[name])
    if "field" in cfg:  # a top-level field's sigma^2, at the mesh's dimension
        _check_sigma2(spec, dimension)
    npe = _get(cfg, npe_key)
    for eps in _get(cfg, eps_key):
        over = f"at {npe} nodes per epsilon needs over {MAX_NODES} mesh nodes per realization"
        if npe / eps > MAX_NODES:  # checked first: aligned_cells would overflow
            raise ConfigError(eps_key, f"epsilon {eps!r} {over}")
        cells = aligned_cells(eps, npe)
        if cells < 2:
            raise ConfigError(eps_key, f"epsilon {eps!r} leaves fewer than 3 mesh nodes")
        if spec:
            _check_lattice(eps_key, spec, 0.0, 1.0, eps, "on the unit interval")
        try:
            nodes = node_indices(1.0 / cells, cfg.get("probes", ()))
        except ValueError as exc:
            raise ConfigError("probes", f"{exc} at epsilon {eps!r}") from None
        if len(set(nodes)) < len(nodes):
            raise ConfigError("probes", f"probe points share a mesh node at epsilon {eps!r}")
        if rows > cells - 1:  # never without pairs: cells >= 2
            raise ConfigError(pairs, f"exceeds the {cells - 1} interior nodes at epsilon {eps!r}")
        if (cells + 1) ** dimension * rows > MAX_NODES:
            raise ConfigError(eps_key, f"epsilon {eps!r} {over}")
        for bound in fd:
            bound(cfg, eps, 1.0 / cells)


def _weyl(cfg: dict, eps: float, h: float):
    """The perturbed FD operator is positive definite at mesh width h.

    By Weyl's inequality its smallest eigenvalue is at least the unperturbed
    one, `fd_eigenvalue(h, a*, q0, 1)`, less the largest |potential|:
    epsilon^-alpha times the bound of the config's field, or the amplitude 1
    of periodic-compare's cosine.  A sufficient condition, so some configs
    it rejects would run.  The fault is the field's if the kind's default
    field would pass, else a_star's.
    """
    field = cfg.get("field")  # none in periodic-compare, whose cosine has amplitude 1
    q_max = _from_json("field", field).abs_bound if field else 1.0
    q_default = _from_json("field", _DEF_FIELD).abs_bound if field else 1.0
    lam = fd_eigenvalue(h, cfg["a_star"], cfg["q0"], 1)
    scale = eps ** -cfg.get("alpha", 0.0)
    if not lam > scale * q_max:
        key = "field" if lam > scale * q_default else "a_star"
        raise ConfigError(key, f"lowest FD eigenvalue {lam:.6g} at epsilon {eps!r} does not exceed the "
                               f"potential bound {scale * q_max:.6g}, so the operator may be indefinite (Weyl)")


# the largest |T|_inf of an FD matrix T the eigen-solves take: LAPACK bisection
# squares T's entries (the products d_i d_{i-1} of its split test, e_i^2 of its
# Sturm counts) and Rayleigh-quotient iteration the residual |T v - theta v|^2
# <= |T|_inf^2 for a unit v, so |T|_inf^2 must be a finite double
_EIGEN_NORM_MAX = math.sqrt(sys.float_info.max)


def _eigen_norm(cfg: dict, eps: float, h: float):
    """The norm the spectral and heat kinds' eigen-solves square:
    |T|_inf = 4 a*/h^2 + q0 + max|q| at most _EIGEN_NORM_MAX at mesh width h.
    The fault is q0's if q0 = 0 would pass, else a_star's (Weyl has kept
    max|q| below the lowest eigenvalue)."""
    q_max = _from_json("field", cfg["field"]).abs_bound
    rest = 4.0 * cfg["a_star"] / (h * h) + eps ** -cfg["alpha"] * q_max
    if not rest + cfg["q0"] <= _EIGEN_NORM_MAX:
        raise ConfigError("q0" if rest <= _EIGEN_NORM_MAX else "a_star",
                          f"FD matrix norm {rest + cfg['q0']:.6g} at epsilon {eps!r} exceeds "
                          f"{_EIGEN_NORM_MAX:.6g}, the largest whose square the eigen-solves can form")


def _check_elliptic(cfg: dict):
    spec = _from_json("triple", cfg["triple"])
    if spec.component_bound(CH_B) >= 1.0:
        raise ConfigError("triple", "b-component bound must stay below 1")
    if spec.component_bound(CH_RHO) >= cfg["rho_bar"]:
        raise ConfigError("triple", "drho-component bound must stay below rho_bar")
    _check_mesh(cfg)


def _check_spectral(cfg: dict):
    n_pairs = cfg["n_pairs"]

    def is_mode(n):
        return _is_int(n) and 1 <= n <= n_pairs

    if not all(map(is_mode, cfg["modes"])):
        raise ConfigError("modes", f"mode indices must lie in 1..{n_pairs}")
    if len(set(cfg["modes"])) < len(cfg["modes"]):
        raise ConfigError("modes", "mode indices must not repeat")
    fp = cfg["fourier_pair"]
    if len(fp) != 2 or fp[0] == fp[1] or not all(map(is_mode, fp)):
        raise ConfigError("fourier_pair", _FOURIER_PAIR)
    _check_mesh(cfg, pairs="n_pairs", fd=(_weyl, _eigen_norm))
    # the Fourier corrector's limit variance divides by the gap of the pair's inverse eigenvalues
    a_star, q0 = cfg["a_star"], cfg["q0"]
    if inverse_eigenvalue(a_star, q0, fp[0]) == inverse_eigenvalue(a_star, q0, fp[1]):
        raise ConfigError("q0", f"swamps the gap of fourier_pair {fp}: their inverse eigenvalues round equal")


def _check_2d(cfg: dict):
    if cfg["f"] not in _PROFILES_2D:
        raise ConfigError("f", f"2D sources must be one of {sorted(_PROFILES_2D)}")
    _check_mesh(cfg, dimension=2)


def field_stats_reach(spec) -> int:
    """The mixing range of a field-stats spec in whole lattice cells."""
    from . import randfield

    return int(math.ceil(randfield.mixing_range(spec)))


def _check_field_stats(cfg: dict):
    """The points a realization samples fit the lattice at every epsilon."""
    spec, probe = _from_json("field", cfg["field"]), cfg["probe"]
    _check_sigma2(spec)
    # the mesh kinds sample the unit interval: inside it, epsilon is at fault
    key = "probe" if abs(probe) > 1.0 else "epsilon_list"
    reach = field_stats_reach(spec)
    for eps in cfg["epsilon_list"]:
        # the ends of the prepared points, without building the array
        lo, hi = probe - eps * reach, probe + eps * reach
        _check_lattice(key, spec, lo, hi, eps, f"for probe {probe!r}")


def scaling_eps_key(cfg: dict, d: int) -> str:
    """The epsilon list scaling-study fits in dimension d."""
    return "epsilon_list_d4" if d == 4 and cfg["epsilon_list_d4"] else "epsilon_list"


def _check_scaling(cfg: dict):
    """The epsilon lists the runner fits must suit `asymptotics.scaling_study` and
    keep its grid within MAX_NODES Bessel values.  An oversized grid is the list's
    fault, or alpha's (at the default s_max), then s_max's, at the default list."""
    from . import asymptotics

    alpha, s_max = cfg["alpha"], cfg["s_max"]
    eps0 = min(SCALING_DEFAULTS["epsilon_list"])
    for key in sorted({scaling_eps_key(cfg, d) for d in cfg["dimensions"]}):
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


# the largest FD diagonal 2 a*/h^2 + q0 + 1 periodic-compare admits, so that its
# cosine moves the diagonal: below 2^51 doubles are at most 1/4 apart, so the
# three roundings (q0 + cos, then 2 a*/h^2 plus that, against 2 a*/h^2 + q0) err
# by at most 3/8 in all, less than the cosine at the first interior node, where
# h <= epsilon/8 puts its phase within pi/4 and its value above 1/sqrt(2).  An
# unmoved diagonal at every node makes the sup-norm of u_eps - u0 exactly 0,
# which the slope fit cannot take.  Sufficient, not necessary.
_PERIODIC_DIAGONAL_MAX = 2.0**51


def _periodic_diagonal(cfg: dict, eps: float, h: float):
    """The FD diagonal at mesh width h is below the cap: q0's fault if q0 = 0 would pass, else a_star's."""
    rest = 2.0 * cfg["a_star"] / (h * h) + 1.0  # fd_matrix_banded forms (a* + a*)/h^2, the same double
    if not rest + cfg["q0"] < _PERIODIC_DIAGONAL_MAX:
        raise ConfigError("q0" if rest < _PERIODIC_DIAGONAL_MAX else "a_star",
                          f"FD diagonal {rest + cfg['q0']!r} at epsilon {eps!r} is not below "
                          f"{_PERIODIC_DIAGONAL_MAX!r}, past which the cosine may not move it")


def _check_periodic(cfg: dict):
    if len(cfg["periodic_epsilon_list"]) < MIN_FIT_POINTS:
        raise ConfigError(
            "periodic_epsilon_list",
            f"need at least {MIN_FIT_POINTS} epsilon values for the slope fit",
        )
    _check_mesh(cfg, "periodic_epsilon_list", "nodes_per_eps_periodic", fd=(_weyl, _periodic_diagonal))
    _check_mesh(cfg, "random.epsilon_list", "random.nodes_per_eps")


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

HELM2D_DEFAULTS = {
    **{k: v for k, v in _HELM_BASE.items() if k != "a_star"},
    "n_real": 128,
    "epsilon_list": [0.0625],
    "moments": ["one", "sine"],
    "normality_checks": False,
    "thresholds": {"stderr_factor": 4.0, **_NORMALITY, "trunc_frac_max": 0.01},
}

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

# the eigen kinds take no source, safeguard or solver tolerance: no eigen-solve reads one
_EIGEN_BASE = {k: v for k, v in _HELM_BASE.items() if k not in ("f", "truncation_rho", "tol")}

SPECTRAL_DEFAULTS = {
    **_EIGEN_BASE,
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

HEAT_DEFAULTS = {
    **_EIGEN_BASE,
    "epsilon_list": [0.02, 0.01, 0.005],
    "mode": 1,
    "time": 1.0,
    "epsilon_const": 1.0,
    "v0": "parabola",
    "thresholds": {"gap_slope_min": 0.3},
}

# smallest s_max whose first tail test in `asymptotics.variance_fourier` passes:
# the tail ratio is at most 2.7e-11 against 1e-10 for d = 1..6, alpha 0.25-4 and
# epsilon 0.0056-0.2, while at 7.5 d = 6 fails it
S_MAX_MIN = 8.0

# smallest scaling-study alpha: the grid cap then keeps every power of epsilon and
# rho the variance integral forms a normal double, and the variance, about 4 alpha^4
# at the default list, far above the 0 it reads below 1e-81, which no fit takes
SCALING_ALPHA_MIN = 1e-40

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


@dataclass(frozen=True)
class ExperimentKind:
    name: str
    description: str
    defaults: dict
    # dotted path -> rule(value, path), in the order of `defaults`; a path
    # names a leaf or a whole spec object.  Given as the kind's own rules,
    # the paths whose rule differs from _BY_NAME; construction resolves the
    # rest by name or by default type.
    fields: dict
    # rules that span fields, run after every field rule passed
    cross: object

    def __post_init__(self):
        object.__setattr__(self, "fields", _rules(self.defaults, self.fields))

    @property
    def runner(self):
        """runner(config, workers) -> ExperimentResult, from `experiments.RUNNERS`.

        Looked up on each access, so the numerics load only when a kind runs.
        """
        from . import experiments

        return experiments.RUNNERS[self.name]


_HELM_ALPHA = partial(_number, lo=0, hi=0.25, hi_open=True)

KINDS = {
    k.name: k
    for k in (
        ExperimentKind(
            "field-stats",
            "Moving-average field statistics against closed-form covariances.",
            FIELD_STATS_DEFAULTS,
            {},
            _check_field_stats,
        ),
        ExperimentKind(
            "helmholtz-corrector",
            "1D Helmholtz corrector ensemble: scaling, pointwise law, moments.",
            HELM_DEFAULTS,
            {"alpha": _HELM_ALPHA, "moments": partial(_profile_list, options=_PROFILES)},
            _check_mesh,
        ),
        ExperimentKind(
            "helmholtz-moments-2d",
            "2D Helmholtz moment functionals against the limit covariance.",
            HELM2D_DEFAULTS,
            {"alpha": _HELM_ALPHA, "moments": partial(_profile_list, options=_PROFILES_2D, nonempty=True)},
            _check_2d,
        ),
        ExperimentKind(
            "elliptic-corrector",
            "1D divergence-form corrector ensemble against the three-driver law.",
            ELLIPTIC_DEFAULTS,
            {},
            _check_elliptic,
        ),
        ExperimentKind(
            "spectral-corrector",
            "Eigenvalue and eigenvector corrector ensembles for the 1D operator.",
            SPECTRAL_DEFAULTS,
            {"alpha": _HELM_ALPHA},
            _check_spectral,
        ),
        ExperimentKind(
            "heat-corrector",
            "Heat semigroup corrector: direct difference vs two-term surrogate.",
            HEAT_DEFAULTS,
            {"alpha": _HELM_ALPHA},
            # heat solves pairs 1..mode: the graded pair and those below it
            partial(_check_mesh, pairs="mode", fd=(_weyl, _eigen_norm)),
        ),
        ExperimentKind(
            "scaling-study",
            "Deterministic variance-vs-epsilon exponents across dimensions 1..6.",
            SCALING_DEFAULTS,
            {"alpha": partial(_number, lo=SCALING_ALPHA_MIN), "s_max": partial(_number, lo=S_MAX_MIN)},
            _check_scaling,
        ),
        ExperimentKind(
            "periodic-compare",
            "Periodic single-mode corrector vs the random-field scaling contrast.",
            PERIODIC_DEFAULTS,
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
