"""Property tests: sampler bounds and reproducibility, seed injectivity, fuzzed
field-stats runs, and the fixed points against their direct solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab import elliptic, helmholtz, randfield
from corrlab.ensemble import derive_seed, derive_seeds
from corrlab.greens import Mesh1D
from corrlab.experiments import ConfigError, run_experiment, validate_config
from corrlab.randfield import CorrelatedTripleSpec, MAProcessSpec, MarginalDist

ROUNDING = 1e-9  # relative slack of a computed window sum over its bound
SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)
MARGINALS = st.sampled_from(["rademacher", "uniform_pm1", {"kind": "truncated_gaussian", "bound": 2.5}])
W = st.floats(-2.0, 2.0)
WEIGHTS = st.lists(W, min_size=1, max_size=5)
POINTS = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40).map(np.array)


@st.composite
def triples(draw):
    rows = draw(st.integers(1, 3))
    mats = [draw(st.lists(st.lists(W, min_size=w, max_size=w), min_size=rows, max_size=rows))
            for w in draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))]
    return CorrelatedTripleSpec(mats, MarginalDist.from_json(draw(MARGINALS)), draw(st.tuples(W, W, W)))


@SETTINGS
@given(w=WEIGHTS, m=MARGINALS, amp=W, triple=triples(), eps=st.floats(1e-3, 1.0), pts=POINTS, seed=st.integers(0, 2**63))
def test_samples_stay_in_their_bounds_and_reproduce_bit_for_bit(w, m, amp, triple, eps, pts, seed):
    spec = MAProcessSpec(tuple(w), MarginalDist.from_json(m), amp)
    vals = randfield.sample_at(spec, eps, pts, seed)
    assert np.all(np.abs(vals) <= spec.abs_bound * (1.0 + ROUNDING))
    assert randfield.sample_at(spec, eps, pts, seed).tobytes() == vals.tobytes()
    again = randfield.sample_triple(triple, eps, pts, seed)
    for j, comp in enumerate(randfield.sample_triple(triple, eps, pts, seed)):
        assert np.all(np.abs(comp) <= triple.component_bound(j) * (1.0 + ROUNDING))
        assert comp.tobytes() == again[j].tobytes()


@SETTINGS
@given(seed=st.integers(0, 2**64 - 1), pairs=st.sets(st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**32 - 2))))
def test_derive_seed_is_injective_on_index_pairs(seed, pairs):
    pairs |= {(e, r + 1) for e, r in pairs}  # neighbours collide first under a weak mixer
    assert len({derive_seed(seed, e, r) for e, r in pairs}) == len(pairs)


@SETTINGS
@given(seed=st.integers(-2**70, 2**70), eps=st.integers(0, 2**31 - 1),
       start=st.integers(0, 2**32 - 1), count=st.integers(1, 40))
def test_derive_seeds_is_the_scalar_route_or_raises_with_it(seed, eps, start, count):
    last = start + count - 1
    if last >= 2**32:  # the chunk passes the last index, where derive_seed raises
        with pytest.raises(ValueError):
            derive_seeds(seed, eps, start, count)
        with pytest.raises(ValueError):
            derive_seed(seed, eps, last)
    else:
        want = [derive_seed(seed, eps, j) for j in range(start, last + 1)]
        assert derive_seeds(seed, eps, start, count).tolist() == want


EPS = st.floats(-20.0, 20.0).map(lambda t: 10.0**t)
FIELD_STATS = st.fixed_dictionaries({
    "kind": st.just("field-stats"),
    "seed": st.integers(0, 2**40),
    "n_real": st.integers(2, 4),
    "epsilon_list": st.lists(EPS, min_size=1, max_size=3).map(lambda e: sorted(set(e), reverse=True)),
    "probe": st.one_of(st.floats(-2.0, 2.0), EPS, EPS.map(lambda p: -p)),
    "field": st.fixed_dictionaries({"weights": WEIGHTS, "marginal": MARGINALS, "amplitude": W}),
})


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(raw=FIELD_STATS)
def test_fuzzed_field_stats_config_fails_validation_or_runs_every_realization(raw):
    try:
        config = validate_config(raw)
    except ConfigError:
        return
    res = run_experiment(config)
    assert res.first_failure() is None and res.status in ("ok", "fail")


FIXED_POINT_TOL = 1e-12  # the iteration's tolerance; the routes must agree to 1e-8
SOLVES = settings(max_examples=60, derandomize=True, database=None, deadline=None)
MESH = st.integers(11, 401).map(Mesh1D)
SEED = st.integers(0, 2**63)
EPSILON = st.floats(1e-3, 1.0)


@SOLVES
@given(mesh=MESH, a_star=st.floats(0.1, 5.0), q0=st.floats(0.0, 10.0), w=WEIGHTS, m=MARGINALS,
       amp=W, eps=EPSILON, seed=SEED)
def test_helmholtz_fixed_point_equals_the_direct_solve(mesh, a_star, q0, w, m, amp, eps, seed):
    spec = MAProcessSpec(tuple(w), MarginalDist.from_json(m), amp)
    prob = helmholtz.HelmholtzProblem(mesh, a_star, q0, spec, np.ones(mesh.n_nodes), eps)
    sol = helmholtz.perturbed_solve(prob, seed, tol=FIXED_POINT_TOL)
    if sol.truncated:  # the safeguard returned u0: no fixed point to compare
        return
    assert np.max(np.abs(sol.u - helmholtz.direct_solve_fd(prob, prob.sample_potential(seed)))) < 1e-8


def _amplitude(triple, j, bound):
    """The amplitude that gives component j of `triple` the sup bound `bound`."""
    unit = triple.marginal.abs_bound * float(np.sum(np.abs(triple.weights[j])))
    return bound / unit if unit > 0 else 0.0


FRACTION = st.floats(0.0, 0.95)  # of the bound a b or delta-rho component must stay below


@SOLVES
@given(mesh=MESH, a_base=st.floats(0.1, 5.0), q0=st.floats(0.0, 10.0), rho_bar=st.floats(0.1, 5.0),
       triple=triples(), b=FRACTION, drho=FRACTION, eps=EPSILON, seed=SEED)
def test_elliptic_fixed_point_equals_the_direct_solve(mesh, a_base, q0, rho_bar, triple, b, drho, eps, seed):
    amps = (_amplitude(triple, elliptic.CH_B, b), _amplitude(triple, elliptic.CH_RHO, drho * rho_bar),
            triple.amplitudes[elliptic.CH_Q])
    spec = CorrelatedTripleSpec(triple.weights, triple.marginal, amps)
    prob = elliptic.EllipticProblem1D(mesh, spec, q0, rho_bar, np.ones(mesh.n_nodes), eps, a_base=a_base)
    sol = elliptic.solve_transformed(prob, seed, tol=FIXED_POINT_TOL)
    if sol.truncated:
        return
    direct = elliptic.direct_solve_conservative(prob, elliptic.sample_fields(prob, seed))
    assert np.max(np.abs(sol.u - direct)) < 1e-8
