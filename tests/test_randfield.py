"""Moving-average field construction and its closed-form second moments."""

import math

import numpy as np
import pytest
import scipy.stats

from corrlab import randfield
from corrlab.elliptic import _correlation
from corrlab.randfield import CorrelatedTripleSpec, MAProcessSpec, MarginalDist

# weights (0.5, 0.5), rademacher: lattice autocovariance A(0) = 0.5,
# A(+-1) = 0.25, zero beyond; R is the piecewise-linear interpolant
SPEC_HALF = MAProcessSpec(weights=(0.5, 0.5))
A0_HALF = 0.5
A1_HALF = 0.25

# weights (1, 2, 3), amplitude 0.5, uniform marginal (variance 1/3)
SPEC_123 = MAProcessSpec(
    weights=(1.0, 2.0, 3.0), marginal=MarginalDist("uniform_pm1"), amplitude=0.5
)


def test_marginal_variances():
    assert MarginalDist("rademacher").variance == 1.0
    assert MarginalDist("uniform_pm1").variance == pytest.approx(1.0 / 3.0)
    # truncated standard normal on [-b, b], oracle from scipy
    for b in (0.5, 1.0, 2.0, 4.0):
        dist = MarginalDist("truncated_gaussian", b)
        assert dist.variance == pytest.approx(scipy.stats.truncnorm.var(-b, b))
        assert dist.abs_bound == b


def test_marginal_draws_are_bounded_and_centered():
    rng = np.random.PCG64(7)
    for dist in (
        MarginalDist("rademacher"),
        MarginalDist("uniform_pm1"),
        MarginalDist("truncated_gaussian", 1.5),
    ):
        x = dist.draw(rng, 20000)
        assert np.all(np.abs(x) <= dist.abs_bound + 1e-12)
        assert abs(np.mean(x)) < 4.0 / math.sqrt(20000)
        assert np.var(x) == pytest.approx(dist.variance, rel=0.05)


def test_rademacher_draws_are_signs():
    rng = np.random.PCG64(3)
    x = MarginalDist("rademacher").draw(rng, 1000)
    assert set(np.unique(x)) == {-1.0, 1.0}


MARGINALS = (
    MarginalDist("rademacher"),
    MarginalDist("uniform_pm1"),
    MarginalDist("truncated_gaussian", 1.5),
)


def _generator_draw(dist, rng, shape):
    """The marginal draw as numpy's Generator makes it."""
    if dist.kind == "rademacher":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    if dist.kind == "uniform_pm1":
        return rng.uniform(-1.0, 1.0, size=shape)
    from scipy.special import ndtr, ndtri

    lo, hi = ndtr(-dist.bound), ndtr(dist.bound)
    return ndtri(lo + rng.random(size=shape) * (hi - lo))


def test_raw_draws_equal_numpy_generator_bit_for_bit():
    """If a numpy release changes its Generator streams, this names the cause."""
    for seed in range(200):
        for n in (1, 2, 7, 64, 333):
            for dist in MARGINALS:
                got = dist.draw(np.random.PCG64(seed), n)
                want = _generator_draw(dist, np.random.Generator(np.random.PCG64(seed)), n)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # the phase: numpy's next_double of one raw word
        want = np.random.Generator(np.random.PCG64(seed)).random()
        assert (np.random.PCG64(seed).random_raw() >> 11) * 2**-53 == want


def test_lattice_autocovariance_closed_form():
    assert randfield.autocovariance_lattice(SPEC_HALF, 0) == pytest.approx(A0_HALF)
    assert randfield.autocovariance_lattice(SPEC_HALF, 1) == pytest.approx(A1_HALF)
    assert randfield.autocovariance_lattice(SPEC_HALF, -1) == pytest.approx(A1_HALF)
    assert randfield.autocovariance_lattice(SPEC_HALF, 2) == 0.0
    # (1,2,3) taps, amplitude 0.5, Var 1/3: A(0) = 14/12, A(1) = 8/12, A(2) = 3/12
    assert randfield.autocovariance_lattice(SPEC_123, 0) == pytest.approx(14.0 / 12.0)
    assert randfield.autocovariance_lattice(SPEC_123, 1) == pytest.approx(8.0 / 12.0)
    assert randfield.autocovariance_lattice(SPEC_123, 2) == pytest.approx(3.0 / 12.0)
    assert randfield.autocovariance_lattice(SPEC_123, 3) == 0.0


def test_correlation_interpolates_lattice_values():
    assert randfield.correlation(SPEC_HALF, 0.0) == pytest.approx(A0_HALF)
    assert randfield.correlation(SPEC_HALF, 0.5) == pytest.approx(0.375)
    assert randfield.correlation(SPEC_HALF, 1.0) == pytest.approx(A1_HALF)
    assert randfield.correlation(SPEC_HALF, 1.5) == pytest.approx(0.125)
    assert randfield.correlation(SPEC_HALF, -1.5) == pytest.approx(0.125)
    assert randfield.correlation(SPEC_HALF, 2.0) == 0.0
    assert randfield.correlation(SPEC_HALF, 7.3) == 0.0


def test_sigma2_closed_form_and_integral_consistency():
    # sigma^2 = amp^2 Var (sum w)^2
    assert randfield.sigma2(SPEC_HALF) == pytest.approx(1.0)
    assert randfield.sigma2(SPEC_123) == pytest.approx(0.25 * (1.0 / 3.0) * 36.0)
    # independent route: trapezoid of the piecewise-linear correlation
    taus = np.linspace(-4.0, 4.0, 8001)
    vals = [randfield.correlation(SPEC_123, t) for t in taus]
    assert np.trapezoid(vals, taus) == pytest.approx(randfield.sigma2(SPEC_123), rel=1e-9)


def test_mixing_range_bounds_support():
    r0 = randfield.mixing_range(SPEC_HALF)
    assert randfield.correlation(SPEC_HALF, r0) == 0.0
    assert randfield.correlation(SPEC_HALF, r0 + 0.25) == 0.0


def test_sample_at_reproducible_and_bounded():
    pts = np.linspace(0.0, 1.0, 301)
    a = randfield.sample_at(SPEC_123, 0.01, pts, seed=42)
    b = randfield.sample_at(SPEC_123, 0.01, pts, seed=42)
    c = randfield.sample_at(SPEC_123, 0.01, pts, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.abs(a) <= SPEC_123.abs_bound + 1e-12)


def test_sample_statistics_match_lag_covariances():
    """Empirical lag products agree with the closed-form R at MC accuracy."""
    eps = 0.05
    n = 4000
    x0 = 0.37
    lags = (0.0, 0.5, 1.0, 1.5, 2.5)
    prods = {tau: [] for tau in lags}
    for seed in range(n):
        pts = x0 + eps * np.array(lags)
        vals = randfield.sample_at(SPEC_HALF, eps, pts, seed=seed)
        for i, tau in enumerate(lags):
            prods[tau].append(vals[0] * vals[i])
    for tau in lags:
        arr = np.asarray(prods[tau])
        target = randfield.correlation(SPEC_HALF, tau)
        stderr = np.std(arr) / math.sqrt(n)
        assert abs(np.mean(arr) - target) < 4.0 * stderr + 1e-12


def test_sample_mean_is_centered():
    eps = 0.02
    vals = [
        randfield.sample_at(SPEC_HALF, eps, np.array([0.5]), seed=s)[0]
        for s in range(3000)
    ]
    assert abs(np.mean(vals)) < 4.0 * np.std(vals) / math.sqrt(len(vals))


TRIPLE = CorrelatedTripleSpec(
    weights=(
        [[0.25, 0.25], [0.0, 0.0]],
        [[0.2, 0.2], [0.2, 0.2]],
        [[0.0, 0.0], [0.5, 0.5]],
    )
)

# channel row sums: v_b = (0.5, 0), v_rho = (0.4, 0.4), v_q = (0, 1.0);
# integrated cross-covariances s_jk = <v_j, v_k> for unit variance marginal
S_MATRIX = np.array(
    [
        [0.25, 0.20, 0.00],
        [0.20, 0.32, 0.40],
        [0.00, 0.40, 1.00],
    ]
)


def test_triple_sigma_matrix_closed_form():
    got = randfield.sigma_matrix(TRIPLE)
    assert np.allclose(got, S_MATRIX, rtol=0, atol=1e-12)
    rho = _correlation(got)
    assert rho[0, 1] == pytest.approx(0.2 / math.sqrt(0.25 * 0.32))
    assert rho[0, 2] == 0.0
    assert rho[1, 2] == pytest.approx(0.4 / math.sqrt(0.32))
    assert np.allclose(np.diag(rho), 1.0)


def test_cross_sigma_from_integrated_cross_correlation():
    """Trapezoid of the cross-correlation reproduces the matrix entries."""
    taus = np.linspace(-4.0, 4.0, 4001)
    for j in range(3):
        for k in range(3):
            vals = [randfield.cross_correlation(TRIPLE, j, k, t) for t in taus]
            assert np.trapezoid(vals, taus) == pytest.approx(
                S_MATRIX[j, k], abs=1e-9
            )


def test_triple_samples_share_noise():
    pts = np.linspace(0.0, 1.0, 101)
    f1 = randfield.sample_triple(TRIPLE, 0.05, pts, seed=11)
    f2 = randfield.sample_triple(TRIPLE, 0.05, pts, seed=11)
    for a, b in zip(f1, f2):
        assert np.array_equal(a, b)
    # empirical cross-covariance of b and q at one point vanishes (disjoint
    # channels), b and rho do not
    prods_bq, prods_brho = [], []
    for seed in range(2500):
        b, rho, q = randfield.sample_triple(TRIPLE, 0.05, np.array([0.4]), seed=seed)
        prods_bq.append(b[0] * q[0])
        prods_brho.append(b[0] * rho[0])
    n = len(prods_bq)
    assert abs(np.mean(prods_bq)) < 4.0 * np.std(prods_bq) / math.sqrt(n)
    assert np.mean(prods_brho) > 4.0 * np.std(prods_brho) / math.sqrt(n)


def test_triple_component_bounds():
    assert TRIPLE.component_bound(0) == pytest.approx(0.5)
    assert TRIPLE.component_bound(1) == pytest.approx(0.8)
    assert TRIPLE.component_bound(2) == pytest.approx(1.0)


def test_sample_2d_reproducible_and_point_variance():
    class _M:
        nodes = np.linspace(0.0, 1.0, 33)

    a = randfield.sample_2d(SPEC_HALF, 0.125, _M(), seed=5)
    b = randfield.sample_2d(SPEC_HALF, 0.125, _M(), seed=5)
    assert np.array_equal(a, b)
    # E q(x)^2 = amp^2 Var (sum_j w_j^2)^2 at a generic point
    sq = [
        randfield.sample_2d(SPEC_HALF, 0.125, _M(), seed=s)[16, 16] ** 2
        for s in range(3000)
    ]
    target = 0.25
    assert abs(np.mean(sq) - target) < 4.0 * np.std(sq) / math.sqrt(len(sq))


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        MAProcessSpec(weights=())
    with pytest.raises(ValueError):
        MAProcessSpec(weights=(1.0, float("nan")))
    with pytest.raises(ValueError):
        MarginalDist("truncated_gaussian", 0.0)
    with pytest.raises(ValueError):
        CorrelatedTripleSpec(weights=([[1.0]], [[1.0]]))
    with pytest.raises(ValueError):
        CorrelatedTripleSpec(weights=([[1.0]], [[1.0], [2.0]], [[1.0]]))


def test_sample_at_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        randfield.sample_at(SPEC_HALF, 0.0, np.array([0.1]), seed=1)
    with pytest.raises(ValueError):
        randfield.sample_at(SPEC_HALF, -1.0, np.array([0.1]), seed=1)


# Oracles: the samplers as per-point, per-lag sums over a Generator's draws.
# The samplers filter on the lattice sites first and must equal these bit for bit.
def _oracle_block(points_over_eps, window):
    lo = float(points_over_eps.min())
    count = randfield.lattice_sites(lo, float(points_over_eps.max()), window)
    return np.floor(points_over_eps).astype(np.int64) - math.floor(lo), count


def _oracle_sample_at(spec, epsilon, pts, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    phase = rng.random()
    idx, count = _oracle_block(pts / epsilon + phase, spec.window)
    noise = _generator_draw(spec.marginal, rng, count)
    values = np.zeros(pts.shape, dtype=float)
    for k, w in enumerate(spec.weights):
        values += w * noise[idx + k]
    values *= spec.amplitude
    return values


def _oracle_sample_2d(spec, epsilon, xs, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    phase = rng.random(2)
    idx_r, count_r = _oracle_block(xs / epsilon + phase[0], spec.window)
    idx_c, count_c = _oracle_block(xs / epsilon + phase[1], spec.window)
    noise = _generator_draw(spec.marginal, rng, (count_r, count_c))
    w = np.asarray(spec.weights)
    values = np.zeros((xs.size, xs.size), dtype=float)
    for j, wj in enumerate(w):
        rows = noise[idx_r + j]
        for k, wk in enumerate(w):
            values += (wj * wk) * rows[:, idx_c + k]
    values *= spec.amplitude
    return values


def _oracle_sample_triple(spec, epsilon, pts, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    phase = rng.random()
    idx, count = _oracle_block(pts / epsilon + phase, randfield.lag_window(spec))
    noise = _generator_draw(spec.marginal, rng, (spec.n_channels, count))
    out = []
    for j in range(3):
        wj = spec.weights[j]
        values = np.zeros(pts.shape, dtype=float)
        for c in range(wj.shape[0]):
            for k in range(wj.shape[1]):
                if wj[c, k] != 0.0:
                    values += wj[c, k] * noise[c][idx + k]
        values *= spec.amplitudes[j]
        out.append(values)
    return tuple(out)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_lattice_first_samplers_equal_per_point_oracles_bit_for_bit():
    """Windows 1-4 with zero and negative weights, every marginal, 1D meshes
    of 3-900 nodes and field-stats points, 2D meshes of 3-70 nodes, and
    triples of 1-2 channels."""
    rng = np.random.default_rng(30)
    for trial in range(320):
        marginal = MARGINALS[trial % 3]
        window = 1 + trial // 3 % 4
        w = rng.normal(size=window)
        w[0] = -abs(w[0])
        if window > 1 and trial % 2:
            w[rng.integers(1, window)] = 0.0
        spec = MAProcessSpec(tuple(w), marginal, float(rng.choice([1.0, -0.7, 2.5])))
        eps = float(rng.choice([1.7, 0.3, 0.1, 0.013, 0.0025]))
        seed = int(rng.integers(0, 2**63))
        kind = trial // 12 % 4
        if kind == 0:
            pts = np.linspace(0.0, 1.0, int(rng.integers(3, 901)))
            assert _same_bits(randfield.sample_at(spec, eps, pts, seed),
                              _oracle_sample_at(spec, eps, pts, seed))
        elif kind == 1:  # field-stats points: probe +- 3 lattice units in eighths
            pts = 0.3 + eps * (np.arange(-24, 25) / 8)
            assert _same_bits(randfield.sample_at(spec, eps, pts, seed),
                              _oracle_sample_at(spec, eps, pts, seed))
        elif kind == 2:
            class _M:
                nodes = np.linspace(0.0, 1.0, int(rng.integers(3, 71)))

            assert _same_bits(randfield.sample_2d(spec, eps, _M(), seed),
                              _oracle_sample_2d(spec, eps, _M.nodes, seed))
        else:
            channels = 1 + trial % 2
            mats = [rng.normal(size=(channels, int(rng.integers(1, 5)))) for _ in range(3)]
            mats[0][0, 0] = 0.0
            mats[1][-1, -1] = -abs(mats[1][-1, -1])
            triple = CorrelatedTripleSpec(tuple(mats), marginal, tuple(rng.normal(size=3)))
            pts = np.linspace(0.0, 1.0, int(rng.integers(3, 901)))
            got = randfield.sample_triple(triple, eps, pts, seed)
            want = _oracle_sample_triple(triple, eps, pts, seed)
            assert all(_same_bits(a, b) for a, b in zip(got, want))
