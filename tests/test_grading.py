"""Two invariants of the runners: every admitted config field is read, and
every mean, variance and covariance check takes its tolerance from one rule.

Each ensemble kind runs small from a base config that reaches every check
(4 realizations, three epsilons where the kind fits slopes, normality checks
on).  Changing any one leaf of the kind's defaults to a valid value chosen to
matter must change the report once its config block and config_sha256 lines
are stripped; a leaf that changes nothing is a field nothing reads.
"""

import copy
import functools
import json
import math
import re

import pytest

from corrlab.experiments import KINDS, run_experiment, validate_config

EPS3 = [0.1, 0.05, 0.025]

BASE = {
    "field-stats": {"n_real": 4},
    "helmholtz-corrector": {"n_real": 4, "epsilon_list": EPS3, "moments": ["one", "sine"],
                            "normality_checks": True},
    "helmholtz-moments-2d": {"n_real": 4, "epsilon_list": [0.125], "normality_checks": True},
    "elliptic-corrector": {"n_real": 4, "epsilon_list": EPS3},
    # a field bound near the lowest eigenvalue flags the last solved pair, whose
    # gap has one neighbour, so n_pairs shows in the match flags
    "spectral-corrector": {"n_real": 4, "epsilon_list": EPS3, "field": {"amplitude": 9.0},
                           "normality_checks": True},
    "heat-corrector": {"n_real": 4, "epsilon_list": EPS3},
}

_FIELD = {"field.weights": [0.25, 0.75], "field.marginal": "uniform_pm1", "field.amplitude": 0.5}
_NORMALITY = {"thresholds.skew_max": 0.5, "thresholds.kurt_max": 0.6, "thresholds.ks_level": 0.05}
_HELM = {"seed": 1, "n_real": 5, **_FIELD, "q0": 1.0, "alpha": 0.1, "truncation_rho": 1e-3,
         "nodes_per_eps": 4, "tol": 1e-2, "thresholds.stderr_factor": 2.0, **_NORMALITY,
         "thresholds.trunc_frac_max": 0.5}
_EIGEN = {"seed": 1, "n_real": 5, "epsilon_list": [0.1, 0.05, 0.02], **_FIELD, "a_star": 2.0, "q0": 1.0,
          "alpha": 0.1, "nodes_per_eps": 4}

# the changed value of every default leaf, by kind; each differs from the base config's value
CHANGES = {
    "field-stats": {"seed": 1, "n_real": 5, "epsilon_list": [0.05], **_FIELD, "probe": 0.33,
                    "thresholds.stderr_factor": 2.0},
    "helmholtz-corrector": {**_HELM, "epsilon_list": [0.1, 0.05, 0.0125], "a_star": 2.0, "f": "parabola",
                            "probes": [0.5], "moments": ["one"], "normality_checks": False,
                            "thresholds.slope_lo": 0.5, "thresholds.slope_hi": 1.5,
                            "thresholds.exponent_tol": 0.2},
    "helmholtz-moments-2d": {**_HELM, "epsilon_list": [0.25], "f": "sine", "truncation_rho": 1e-6,
                             "moments": ["one"], "normality_checks": False},
    "elliptic-corrector": {"seed": 1, "n_real": 5, "epsilon_list": [0.1, 0.05, 0.0125],
                           "triple.weights": [[[0.2, 0.2], [0.0, 0.0]], [[0.1, 0.1], [0.1, 0.1]],
                                              [[0.0, 0.0], [0.4, 0.4]]],
                           "triple.marginal": "uniform_pm1", "triple.amplitudes": [0.5, 1.0, 1.0],
                           "a_base": 2.0, "q0": 2.0, "rho_bar": 2.0, "f": "sine", "truncation_rho": 1e-3,
                           "nodes_per_eps": 4, "tol": 1e-2, "probes": [0.5], "thresholds.stderr_factor": 2.0,
                           "thresholds.slope_lo": 0.5, "thresholds.slope_hi": 1.5,
                           "thresholds.trunc_frac_max": 0.5},
    "spectral-corrector": {**_EIGEN, "alpha": 0.01, "n_pairs": 2, "modes": [2, 1], "fourier_pair": [1, 3],
                           "normality_checks": False, "thresholds.stderr_factor": 2.0, **_NORMALITY,
                           "thresholds.defect_slope_min": 0.5, "thresholds.flag_frac_max": 0.5},
    "heat-corrector": {**_EIGEN, "mode": 2, "time": 0.5, "epsilon_const": 2.0, "v0": "sine",
                       "thresholds.gap_slope_min": 0.1},
}


def _leaves(node, prefix=""):
    for key, val in node.items():
        if isinstance(val, dict):
            yield from _leaves(val, prefix + key + ".")
        else:
            yield prefix + key


def _get(cfg, path):
    for part in path.split("."):
        cfg = cfg[part]
    return cfg


def _config(kind, path=None, value=None):
    cfg = {"kind": kind, **copy.deepcopy(BASE[kind])}
    if path is not None:
        *head, last = path.split(".")
        node = cfg
        for part in head:
            node = node.setdefault(part, {})
        node[last] = value
    return cfg


@functools.lru_cache(maxsize=None)
def _run(raw: str):
    return run_experiment(json.loads(raw))


def _result(cfg):
    """The result of a config, run once per test session."""
    return _run(json.dumps(cfg, sort_keys=True))


def _report(cfg) -> tuple:
    """The three report texts with the config block and config_sha256 lines stripped."""
    res = _result(cfg)
    body = {k: v for k, v in res.to_json_dict().items() if k not in ("config", "config_sha256")}
    texts = (res.to_csv(), json.dumps(body, sort_keys=True), res.summary_text())
    sha = ("config_sha256", "config sha256")
    return tuple("\n".join(ln for ln in t.splitlines() if not any(k in ln for k in sha)) for t in texts)


@pytest.mark.parametrize("kind", list(BASE))
def test_every_admitted_field_changes_the_report(kind):
    leaves = list(_leaves(KINDS[kind].defaults))
    assert sorted(CHANGES[kind]) == sorted(leaves)
    base_cfg, base = validate_config(_config(kind)), _report(_config(kind))
    unseen = []
    for path in leaves:
        value = CHANGES[kind][path]
        assert value != _get(base_cfg, path), path
        if _report(_config(kind, path, value)) == base:
            unseen.append(path)
    assert unseen == []


_TOL = re.compile(r"^(var|mean|cov)=.* tol=(\S+)$")


def _halved(printed: str) -> tuple:
    """The range of `.3g` strings that half of a value printed as `printed` can print as."""
    t = float(printed)
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(t))) - 2) if t else 0.0
    return float(f"{(t - half_digit) / 2:.3g}"), float(f"{(t + half_digit) / 2:.3g}")


@pytest.mark.parametrize(
    "kind, labels",
    [
        ("field-stats", {"mean"}),
        ("helmholtz-corrector", {"var", "mean", "cov"}),
        ("helmholtz-moments-2d", {"var", "mean", "cov"}),
        ("elliptic-corrector", {"var", "mean"}),
        ("spectral-corrector", {"var", "cov"}),
    ],
)
def test_halving_stderr_factor_halves_every_statistic_tolerance(kind, labels):
    base = _result(_config(kind)).checks
    sf = KINDS[kind].defaults["thresholds"]["stderr_factor"]
    halved = _result(_config(kind, "thresholds.stderr_factor", sf / 2)).checks
    assert [c.name for c in halved] == [c.name for c in base]
    seen = set()
    for a, b in zip(base, halved):
        m = _TOL.match(a.detail)
        if m is None:
            assert (a.passed, a.detail) == (b.passed, b.detail), a.name
            continue
        seen.add(m.group(1))
        head, _, tol = b.detail.rpartition(" tol=")
        assert head == a.detail.rpartition(" tol=")[0], a.name
        lo, hi = _halved(m.group(2))
        assert lo <= float(tol) <= hi, (a.name, m.group(2), tol)
    assert seen == labels
