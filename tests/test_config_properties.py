"""Property tests of config validation.

Every leaf of every kind's defaults is covered by a validation rule, and junk
in any one leaf ends in a ConfigError naming that leaf (or the spec object
holding it), never in another exception.  A physical config of any kind,
however extreme its numbers, is a ConfigError or a run that finishes with no
failed realization.
"""

import copy
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrlab.experiments import KINDS, ConfigError, run_experiment, validate_config


def _leaves(node, prefix=""):
    for key, val in node.items():
        path = prefix + key
        if isinstance(val, dict):
            yield from _leaves(val, path + ".")
        else:
            yield path


def _covering(kind, path):
    """Validated paths that cover `path`: the path itself or a spec object above it."""
    parts = path.split(".")
    prefixes = {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
    return prefixes & set(KINDS[kind].fields)


def _set(cfg, path, value):
    *head, last = path.split(".")
    for part in head:
        cfg = cfg[part]
    cfg[last] = value


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_default_leaf_is_covered_by_one_rule(kind):
    defaults = KINDS[kind].defaults
    for path in _leaves(defaults):
        assert len(_covering(kind, path)) == 1, path
    for path in KINDS[kind].fields:
        node = defaults
        for part in path.split("."):
            assert isinstance(node, dict) and part in node, path
            node = node[part]


JUNK = st.one_of(
    st.sampled_from([None, True, False, [], {}, "", math.nan, math.inf, -math.inf]),
    st.text(max_size=4),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9, allow_infinity=False),
    st.integers(min_value=10**12, max_value=10**18),
    st.floats(min_value=1e12, max_value=1e300),
)


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_junk_in_one_leaf_is_a_config_error_naming_it(kind, data):
    defaults = KINDS[kind].defaults
    path = data.draw(st.sampled_from(list(_leaves(defaults))), label="path")
    junk = data.draw(JUNK, label="junk")
    raw = {"kind": kind, **copy.deepcopy(defaults)}
    _set(raw, path, junk)
    try:
        validate_config(raw)
    except ConfigError as err:
        assert err.field in {path} | _covering(kind, path)


# each kind at n_real 2 on coarse meshes, so an admitted draw runs in milliseconds
COARSE = {
    "field-stats": {"n_real": 2},
    "helmholtz-corrector": {"n_real": 2, "epsilon_list": [0.25, 0.125, 0.0625]},
    "helmholtz-moments-2d": {"n_real": 2, "epsilon_list": [0.25], "nodes_per_eps": 4},
    "elliptic-corrector": {"n_real": 2, "epsilon_list": [0.25, 0.125, 0.0625]},
    "spectral-corrector": {"n_real": 2, "epsilon_list": [0.25, 0.125, 0.0625]},
    "heat-corrector": {"n_real": 2, "epsilon_list": [0.25, 0.125, 0.0625]},
    "scaling-study": {"dimensions": [1], "epsilon_list": [0.4, 0.2, 0.05, 0.0125]},
    "periodic-compare": {"periodic_epsilon_list": [0.25, 0.125, 0.0625], "nodes_per_eps_periodic": 8,
                         "cell_nodes": 17, "random.n_real": 2, "random.epsilon_list": [0.25, 0.125, 0.0625]},
}
PHYSICAL = ("amplitude", "weights", "amplitudes", "a_star", "q0", "alpha", "tol", "truncation_rho",
            "time", "epsilon_const")
MAGNITUDE = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                      st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0))


def _redrawn(value):
    """The default's shape, each number kept or drawn from MAGNITUDE."""
    if isinstance(value, list):
        return st.tuples(*map(_redrawn, value)).map(list)
    return st.just(value) | MAGNITUDE


def _physical_configs(kind):
    defaults = KINDS[kind].defaults

    def build(drawn):
        raw = {"kind": kind, **copy.deepcopy(defaults)}
        for path, value in {**COARSE[kind], **drawn}.items():
            _set(raw, path, value)
        return raw

    paths = [p for p in _leaves(defaults) if p.rpartition(".")[2] in PHYSICAL]
    node = {p: _redrawn(_get(defaults, p)) for p in paths}
    return st.fixed_dictionaries(node).map(build)


def _get(cfg, path):
    for part in path.split("."):
        cfg = cfg[part]
    return cfg


HELM_1D = {"kind": "helmholtz-corrector", "n_real": 2, "epsilon_list": [0.02]}


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(configs=st.tuples(*map(_physical_configs, KINDS)))  # one config of each kind per example
# the safeguard once failed open past 1e77: a power estimate whose |w|^2 overflowed read 0
@example(configs=[{**HELM_1D, "field": {"weights": [0.5, 0.5], "amplitude": 1e80}},
                  {**HELM_1D, "field": {"weights": [0.5, 0.5], "amplitude": 1e150}},
                  {"kind": "elliptic-corrector", "n_real": 2, "triple": {"amplitudes": [1.0, 1.0, 1e100]}},
                  {"kind": "helmholtz-moments-2d", "n_real": 2, "field": {"amplitude": 1e100}},
                  {"kind": "periodic-compare",
                   "random": {"n_real": 2, "field": {"weights": [-1e-6, -1e-12, 1e100]}}}])
# and past 1e154 its bound's square raised OverflowError
@example(configs=[{"kind": "periodic-compare", "random": {"n_real": 2, "field": {"amplitude": 1e160}}}])
# a closed-form sigma^2 that overflows is the field's fault
@example(configs=[{**HELM_1D, "field": {"weights": [0.5, 0.5], "amplitude": 1e160}},
                  {"kind": "field-stats", "n_real": 2, "field": {"amplitude": 1e300}},
                  {"kind": "helmholtz-moments-2d", "n_real": 2, "field": {"weights": [-1e300, 0.5]}}])
# a tol below rounding once met an update cycling at 1.6e-18 for 400 iterations
@example(configs=[{"kind": "elliptic-corrector", "n_real": 2, "epsilon_list": [0.1, 0.05, 0.025], "tol": 1e-300}])
# and a solution past 1e154 once squared its update to inf at every step
@example(configs=[{"kind": "helmholtz-corrector", "n_real": 2, "seed": 2, "epsilon_list": [0.1, 0.05, 0.025],
                   "a_star": 3e-200, "field": {"weights": [0.5, 0.5], "amplitude": 1.4805e-199}}])
# scaling-study's variance underflows to 0 below alpha 1e-81
@example(configs=[{"kind": "scaling-study", "dimensions": [1], "alpha": 1e-100}])
def test_a_physical_config_is_a_config_error_or_a_run_with_no_failed_realization(configs):
    """Validation admits only configs whose every realization finishes, and
    names a validated field for the rest.  The draws change no mesh and no
    realization count, so a cap is met through validation only (an alpha past
    scaling-study's grid cap is rejected there)."""
    for raw in configs:
        try:
            validate_config(raw)
        except ConfigError as err:
            assert err.field in KINDS[raw["kind"]].fields
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # an extreme law may overflow: its checks fail
            res = run_experiment(raw)
        counts = [c["count_failed"] for rep in res.ensembles.values() for c in rep.counts]
        assert counts == [0] * len(counts), [rep.failures[0] for rep in res.ensembles.values() if rep.failures]
