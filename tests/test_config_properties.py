"""Property tests of config validation.

Every leaf of every kind's defaults is covered by a validation rule, and junk
in any one leaf ends in a ConfigError naming that leaf (or the spec object
holding it), never in another exception.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab.experiments import KINDS, ConfigError, validate_config


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
