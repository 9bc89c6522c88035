"""Seed derivation, ensemble execution, and the statistics toolkit."""

import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from corrlab import ensemble
from corrlab.ensemble import (
    EnsembleSpec,
    _chunk_size,
    _seed_words,
    _Seed,
    derive_seed,
    derive_seeds,
    ks_critical,
    ks_statistic,
    loglog_slope,
    register_task,
    run,
)


def _toy_task(params, epsilon, seed):
    """Deterministic pseudo-measurement with a failure hook and a counter."""
    if params.get("fail_below") and seed % 7 < params["fail_below"]:
        raise ValueError("synthetic failure")
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal()
    return {
        "value": params.get("scale", 1.0) * epsilon * x,
        "square": x * x,
        "count_positive": 1 if x > 0 else 0,
    }


register_task("toy", _toy_task)


def _toy_reversed(params, epsilon, seed):
    """The toy task's functionals, returned in the other key order."""
    return dict(reversed(_toy_task(params, epsilon, seed).items()))


register_task("toy-reversed", _toy_reversed)


def _rederive(rep, k):
    """Each functional's values at epsilon k, from calling the task again at
    the seed of every realization that did not fail, in realization order."""
    spec, fn = rep.spec, ensemble.REGISTRY[rep.spec.task]
    failed = {j for i, j, _, _ in rep.failures if i == k}
    rows = [fn(rep.states[k], spec.epsilon_list[k], derive_seed(spec.experiment_seed, k, j))
            for j in range(spec.n_real) if j not in failed]
    return {name: [float(row[name]) for row in rows] for name in (rows[0] if rows else ())}


def _stats_of(values):
    """The engine's stats of re-derived values, counters left out."""
    return {name: ensemble._moments(v)[0] for name, v in values.items() if not name.startswith("count_")}


def test_derive_seed_distinct_and_stable():
    seeds = {
        derive_seed(123, k, j) for k in range(4) for j in range(500)
    }
    assert len(seeds) == 2000
    assert derive_seed(123, 0, 0) == derive_seed(123, 0, 0)
    assert derive_seed(123, 0, 0) != derive_seed(124, 0, 0)
    assert all(0 <= s < (1 << 64) for s in seeds)
    with pytest.raises(ValueError):
        derive_seed(1, 0, 1 << 32)
    # a negative index once wrapped into the other field: (0, -1) and (5, -1) gave one seed
    for k, j in ((0, -1), (5, -1), (-1, 0)):
        with pytest.raises(ValueError):
            derive_seed(1, k, j)


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(1, 1, (0.1,), "toy")
    with pytest.raises(ValueError):
        EnsembleSpec(1, 10, (0.1, 0.2), "toy")  # increasing
    with pytest.raises(ValueError):
        EnsembleSpec(1, 10, (0.1, 0.1), "toy")  # ties
    with pytest.raises(ValueError):
        EnsembleSpec(1, 10, (0.1, -0.05), "toy")
    EnsembleSpec(1, 2**32, (0.1,), "toy")  # derive_seed's realization indices
    for n_real in (2**32 + 1, 10**300):
        with pytest.raises(ValueError, match="n_real"):
            EnsembleSpec(1, n_real, (0.1,), "toy")
    spec = EnsembleSpec(1, 10, [0.2, 0.1], "toy")
    assert spec.epsilon_list == (0.2, 0.1)
    with pytest.raises(KeyError):
        run(EnsembleSpec(1, 5, (0.1,), "no-such-task"))


# a seed at either end of each 32-bit half, which SeedSequence reads as one or two words
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _task_seed(seed):
    """The seed a chunk hands its task: seed as a _Seed carrying its words."""
    task_seed = _Seed(seed)
    task_seed.words = _seed_words(np.array([seed], np.uint64))[0]
    return task_seed


@pytest.mark.parametrize("seed", [-3, 7, 2**64, 2**70 + 12345, -(2**80) + 1])
@pytest.mark.parametrize("k, start", [(0, 0), (5, 1000), (2**31 - 1, 2**32 - 40)])
def test_derive_seeds_is_derive_seed_at_every_index(seed, k, start):
    got = derive_seeds(seed, k, start, 40)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_seed(seed, k, start + i) for i in range(40)]
    # both raise past the last realization index 2^32 - 1 and epsilon index 2^31 - 1
    with pytest.raises(ValueError):
        derive_seeds(seed, k, 2**32 - 39, 40)
    with pytest.raises(ValueError):
        derive_seed(seed, k, 2**32)
    for fn in (derive_seed, lambda *args: derive_seeds(*args, 1)):
        with pytest.raises(ValueError):
            fn(seed, 2**31, 0)
    # and below index 0, as does a negative count
    for args in ((-1, 0, 1), (k, -1, 2), (k, start, -1)):
        with pytest.raises(ValueError):
            derive_seeds(seed, *args)


def test_seed_words_are_numpys_seed_sequence_words():
    seeds = [*derive_seeds(11, 0, 0, 1000).tolist(), *range(2, 50), *EDGE_SEEDS]
    words = _seed_words(np.array(seeds, np.uint64))
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4) and words.flags.c_contiguous
    for seed, row in zip(seeds, words):
        assert row.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


SEEN = []


def _seed_echo(params, epsilon, seed):
    SEEN.append(seed)
    return {"v": 1.0}


register_task("seed-echo", _seed_echo)


def test_a_chunk_hands_each_task_a_seed_numpy_reads_as_its_int():
    SEEN.clear()
    spec = EnsembleSpec(3, 20, (0.1,), "seed-echo")
    ensemble._run_chunk(ensemble.REGISTRY["seed-echo"], spec, [{}], 0, 4, 16)
    assert SEEN == [derive_seed(3, 0, j) for j in range(4, 20)]
    # the chunk registered _Seed, so a seed at either end of each half reads the same
    for task_seed in [*SEEN, *map(_task_seed, EDGE_SEEDS)]:
        assert type(task_seed) is _Seed and isinstance(task_seed, np.random.bit_generator.ISeedSequence)
        raw = np.random.PCG64(task_seed).random_raw(16)
        assert raw.tolist() == np.random.PCG64(int(task_seed)).random_raw(16).tolist()
        # any other request gets SeedSequence's own answer
        for n_words, dtype in ((8, np.uint32), (2, np.uint64), (4, np.uint32), (5, np.uint64)):
            want = np.random.SeedSequence(int(task_seed)).generate_state(n_words, dtype)
            got = task_seed.generate_state(n_words, dtype)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("workers", [1, 2])
def test_failures_hold_plain_int_seeds(workers):
    for spec in (EnsembleSpec(9, 50, (0.1,), "toy", {"fail_below": 2}),
                 EnsembleSpec(6, 10, (0.5, 0.25), "toy-prepared", {"bad_epsilon": 0.25})):
        failures = run(spec, workers=workers).failures
        assert failures and {type(seed) for _, _, seed, _ in failures} == {int}


def test_experiment_seed_is_an_integer_of_any_sign_or_size():
    with pytest.raises(ValueError, match="experiment_seed"):
        EnsembleSpec(1.5, 10, (0.1,), "toy")
    with pytest.raises(ValueError, match="experiment_seed"):
        EnsembleSpec("7", 10, (0.1,), "toy")
    assert EnsembleSpec(np.int64(7), 10, (0.1,), "toy").experiment_seed == 7
    # seeds equal mod 2^64 derive the same realization seeds
    reports = [run(EnsembleSpec(seed, 30, (0.1, 0.05), "toy")) for seed in (-3, 2**64 - 3, 2**65 - 3)]
    assert reports[0].stats == reports[1].stats == reports[2].stats
    assert reports[0].status == "ok" and reports[0].stats[0] == _stats_of(_rederive(reports[0], 0))


def test_run_serial_statistics():
    spec = EnsembleSpec(11, 400, (0.2, 0.1), "toy", {"scale": 2.0})
    rep = run(spec)
    assert rep.status == "ok"
    assert sorted(rep.stats[0]) == sorted(rep.stats[1]) == ["square", "value"]
    st = rep.stats[0]["value"]
    assert st.n == 400
    # independent moment oracle on the re-derived values
    vals = np.asarray(_rederive(rep, 0)["value"])
    assert st.mean == pytest.approx(float(np.mean(vals)), rel=1e-12)
    assert st.variance == pytest.approx(float(np.var(vals, ddof=1)), rel=1e-12)
    assert st.skewness == pytest.approx(
        float(scipy.stats.skew(vals, bias=False)), rel=1e-10
    )
    assert st.excess_kurtosis == pytest.approx(
        float(scipy.stats.kurtosis(vals, bias=False)), rel=1e-10
    )
    assert st.stderr_mean == pytest.approx(math.sqrt(st.variance / st.n), rel=1e-12)
    # counters sum the per-realization integers
    pos = sum(1 for v in vals if v > 0)
    assert rep.counts[0]["count_positive"] == pos
    assert rep.counts[0]["count_failed"] == 0
    # the sample covariance S: its diagonal is each variance bit for bit, an
    # entry is found in either order, and no counter enters it
    for k in range(2):
        values, cov, names = _rederive(rep, k), rep.covariance[k], ("square", "value")
        assert rep.stats[k] == _stats_of(values)
        assert sorted(cov) == [(a, b) for a in names for b in names]
        assert [cov[a, a] for a in names] == [rep.stats[k][a].variance for a in names]
        want = float(np.cov(values["square"], values["value"], ddof=1)[0, 1])
        assert cov["square", "value"] == cov["value", "square"] == pytest.approx(want, rel=1e-12)
    # the same functionals returned in the other key order give the same S
    reversed_rep = run(EnsembleSpec(11, 400, (0.2, 0.1), "toy-reversed", {"scale": 2.0}))
    assert reversed_rep.covariance == rep.covariance and reversed_rep.stats == rep.stats


def test_run_worker_count_invariance():
    spec = EnsembleSpec(5, 103, (0.1, 0.05), "toy", {})
    rep1 = run(spec, workers=1)
    rep2 = run(spec, workers=2)
    assert rep1.to_json_dict() == rep2.to_json_dict()


def test_partial_chunks_and_scattered_failures_do_not_depend_on_workers():
    """47 realizations leave a short last chunk at 1, 2 and 3 workers; the
    failing seeds fall in several chunks of every epsilon."""
    spec = EnsembleSpec(13, 47, (0.2, 0.1, 0.05), "toy", {"fail_below": 1})
    reports = {w: run(spec, workers=w) for w in (1, 2, 3)}
    for w, rep in reports.items():
        size = _chunk_size(spec.n_real, w)
        assert spec.n_real % size != 0
        hit = {(k, j // size) for k, j, _, _ in rep.failures}
        assert {k for k, _ in hit} == {0, 1, 2} and len(hit) > 3
        assert rep.to_json_dict() == reports[1].to_json_dict()
        assert rep.stats == reports[1].stats and rep.covariance == reports[1].covariance
        assert rep.counts == reports[1].counts and rep.failures == reports[1].failures
        # every statistic is a plain Python number, as the reports serialize them
        numbers = [v for stats in rep.stats for st in stats.values() for v in astuple(st)]
        numbers += [v for cov in rep.covariance for v in cov.values()]
        assert {type(v) for v in numbers} == {int, float}
        assert {type(v) for counts in rep.counts for v in counts.values()} == {int}
        for k in range(len(spec.epsilon_list)):
            # exactly the surviving realizations were aggregated
            assert rep.stats[k] == _stats_of(_rederive(rep, k))
            names = [*rep.stats[k], *(name for pair in rep.covariance[k] for name in pair)]
            assert names and not [name for name in names if name.startswith("count_")]


def test_one_pool_per_run(monkeypatch):
    built = []

    class CountingPool(ensemble.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", CountingPool)
    spec = EnsembleSpec(2, 30, (0.4, 0.2, 0.1, 0.05), "toy", {})
    assert run(spec, workers=2).to_json_dict() == run(spec).to_json_dict()
    assert len(built) == 1


PREPARED = []


def _prepare_toy(params, epsilon):
    PREPARED.append(epsilon)
    if epsilon == params.get("bad_epsilon"):
        raise ValueError(f"no state at {epsilon}")
    return dict(params, scale=1.0 / epsilon)


register_task("toy-prepared", _toy_task, _prepare_toy)


@pytest.mark.parametrize("workers", [1, 2])
def test_prepare_runs_once_per_epsilon_and_feeds_every_task(workers):
    PREPARED.clear()
    rep = run(EnsembleSpec(6, 40, (0.5, 0.25), "toy-prepared", {}), workers=workers)
    assert PREPARED == [0.5, 0.25]
    plain = run(EnsembleSpec(6, 40, (0.5, 0.25), "toy", {}))
    for k, eps in enumerate((0.5, 0.25)):
        assert rep.states[k]["scale"] == 1.0 / eps
        # value = scale * epsilon * x: the task saw the prepared scale
        want = [v / eps for v in _rederive(plain, k)["value"]]
        values = _rederive(rep, k)
        assert rep.stats[k] == _stats_of(values)
        assert values["value"] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_prepare_fails_every_realization_at_its_epsilon(workers):
    spec = EnsembleSpec(6, 10, (0.5, 0.25, 0.125), "toy-prepared", {"bad_epsilon": 0.25})
    rep = run(spec, workers=workers)
    assert [c["count_failed"] for c in rep.counts] == [0, 10, 0]
    assert rep.failures == [(1, j, derive_seed(6, 1, j), "ValueError: no state at 0.25") for j in range(10)]
    assert rep.stats[1] == {} and rep.stats[0]["value"].n == 10
    assert rep.status == "error"
    assert isinstance(rep.states[1], ValueError)


def test_run_records_failures_in_order():
    spec = EnsembleSpec(9, 50, (0.1,), "toy", {"fail_below": 2})
    rep = run(spec)
    assert rep.counts[0]["count_failed"] == len(rep.failures)
    assert rep.counts[0]["count_failed"] > 1
    # failure tuples carry (eps_index, real_index, seed, message)
    for k, j, seed, msg in rep.failures:
        assert k == 0
        assert derive_seed(9, k, j) == seed
        assert "synthetic failure" in msg
    # 1% failure budget exceeded -> error status
    assert rep.status == "error"
    # stats still computed from the survivors
    assert rep.stats[0]["value"].n == 50 - len(rep.failures)


def _half_numeric(params, epsilon, seed):
    return {"a": 1.0, "b": "n/a" if seed % 3 == 0 else 2.0}


register_task("half-numeric", _half_numeric)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_value_that_is_no_float_fails_its_whole_realization(workers):
    rep = run(EnsembleSpec(2, 30, (0.1,), "half-numeric"), workers=workers)
    bad = [j for j in range(30) if derive_seed(2, 0, j) % 3 == 0]
    assert bad and [f[1] for f in rep.failures] == bad
    assert rep.failures[0][3] == "ValueError: could not convert string to float: 'n/a'"
    values = _rederive(rep, 0)
    assert len(values["a"]) == len(values["b"]) == 30 - len(bad)
    # the one chunk's columns are float64 arrays of exactly the surviving values
    cols, failed = ensemble._run_chunk(ensemble.REGISTRY["half-numeric"], rep.spec, rep.states, 0, 0, 30)
    assert failed == rep.failures and 0 < bad[0] < bad[-1] < 29
    assert {name: (type(col), col.dtype, col.tolist()) for name, col in cols.items()} == {
        name: (np.ndarray, np.float64, vals) for name, vals in values.items()}
    assert rep.stats[0] == _stats_of(values)
    assert rep.stats[0]["a"].n == rep.stats[0]["b"].n == 30 - len(bad)


@pytest.mark.parametrize("workers", [1, 2])
def test_one_or_no_surviving_realization_aggregates_without_raising(workers):
    """At seed 10 the first realization of epsilon 0.5 fails (n = 1), the
    prepare at 0.25 fails (n = 0), and both realizations at 0.125 survive."""
    spec = EnsembleSpec(10, 2, (0.5, 0.25, 0.125), "toy-prepared", {"fail_below": 3, "bad_epsilon": 0.25})
    rep = run(spec, workers=workers)
    assert [c["count_failed"] for c in rep.counts] == [1, 2, 0] and rep.status == "error"
    one, none, two = rep.stats
    assert {st.n for st in one.values()} == {1} and {st.n for st in two.values()} == {2}
    assert [(st.variance, st.skewness, st.stderr_variance) for st in one.values()] == [(0.0, 0.0, 0.0)] * 2
    assert set(rep.covariance[0].values()) == {0.0}
    assert none == {} and rep.covariance[1] == {}
    assert rep.to_json_dict() == run(spec).to_json_dict()


def test_failure_budget_boundary():
    # exactly 1% failures stays ok
    def one_fail(params, epsilon, seed):
        if params["boom"] == seed:
            raise RuntimeError("boom")
        return {"v": 1.0}

    register_task("one-fail", one_fail)
    seeds = [derive_seed(3, 0, j) for j in range(100)]
    spec = EnsembleSpec(3, 100, (0.1,), "one-fail", {"boom": seeds[17]})
    assert run(spec).status == "ok"


def test_ks_statistic_matches_scipy():
    rng = np.random.Generator(np.random.PCG64(8))
    x = rng.normal(size=500)
    got = ks_statistic(x, 0.0, 1.0)
    want = scipy.stats.kstest(x, "norm").statistic
    assert got == pytest.approx(float(want), rel=1e-10)
    skewed = np.exp(rng.normal(size=500))
    m, s = float(np.mean(skewed)), float(np.std(skewed))
    got2 = ks_statistic(skewed, m, s)
    want2 = scipy.stats.kstest(skewed, "norm", args=(m, s)).statistic
    assert got2 == pytest.approx(float(want2), rel=1e-10)
    with pytest.raises(ValueError):
        ks_statistic(x, 0.0, 0.0)


# the branch points of Cephes ndtr in a = x sqrt 2 (1, sqrt 2, 8 sqrt 2 and the
# underflow of exp(-x^2) near 37.68) and the values that stop arithmetic
NDTR_EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1.0, -1.0,
              math.sqrt(2.0), -math.sqrt(2.0), 8.0 * math.sqrt(2.0), -8.0 * math.sqrt(2.0),
              37.5, -37.5, 38.5, -38.5, math.sqrt(2.0 * 709.782712893384), -math.sqrt(2.0 * 709.782712893384))


def test_ndtr_equals_scipy_bit_for_bit():
    """The numpy port against scipy.special.ndtr, which runs the C original:
    equal bits, so equal signs of zero and the same nan, on 1.2e6 values."""
    rng = np.random.Generator(np.random.PCG64(24))
    edges = np.array(NDTR_EDGES)
    finite = edges[np.isfinite(edges)]
    x = np.concatenate([edges, np.nextafter(finite, math.inf), np.nextafter(finite, -math.inf),
                        rng.normal(size=600_000), rng.uniform(-40.0, 40.0, size=600_000)])
    got, want = ensemble.ndtr(x), scipy.special.ndtr(x)
    assert got.dtype == want.dtype == np.float64
    assert x[got.view(np.int64) != want.view(np.int64)].tolist() == []


def test_ks_statistic_of_infinite_or_one_branch_samples_warns_nothing():
    """Only the values a branch owns enter its arithmetic: no inf * 0, no
    reduction over an empty branch."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ks_statistic([-math.inf, 0.0, math.inf], 0.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert ks_statistic([math.inf, math.inf], 0.0, 1.0) == 1.0
        for centre_only in ([-0.5, 0.0, 0.5], [-0.1, 0.1], [0.5, 0.2]):
            ks_statistic(centre_only, 0.0, 1.0)
        ks_statistic([2.0, 9.0, 40.0, -30.0], 0.0, 1.0)  # no value in the centre
    assert ensemble.ndtr(np.array([])).shape == (0,)


def test_ks_critical_frozen():
    assert ks_critical(400, 0.05) == pytest.approx(1.358 / 20.0)
    assert ks_critical(100, 0.01) == pytest.approx(1.628 / 10.0)
    with pytest.raises(ValueError):
        ks_critical(100, 0.1)


def test_normality_stats_gaussian_and_errors():
    rng = np.random.Generator(np.random.PCG64(21))
    x = [float(v) for v in rng.normal(size=4000)]
    st, _ = ensemble._moments(x)
    assert abs(st.skewness) < 4.0 * math.sqrt(6.0 / 4000)
    assert abs(st.excess_kurtosis) < 4.0 * math.sqrt(24.0 / 4000)
    assert st.ks_statistic < ks_critical(4000, 0.01)
    # a degenerate sample reports zero shape statistics instead of raising
    flat, _ = ensemble._moments([0.0] * 200)
    assert flat.variance == 0.0
    assert (flat.skewness, flat.excess_kurtosis, flat.ks_statistic) == (0.0, 0.0, 0.0)
    # so does one whose shape moments underflow (m2 ~ 1e-274 here)
    tiny, _ = ensemble._moments([0.0, 1e-137, 2e-137, 3e-137])
    assert tiny.variance > 0.0 and tiny.skewness == 0.0
    # as with Python floats, an infinite value or an overflowing term warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats, cov = ensemble._aggregate({"x": np.array([0.0, math.inf, 1.0]), "y": np.array([1e200, -1e200, 0.0])})
    assert stats["x"].mean == math.inf and math.isnan(stats["x"].variance)
    assert stats["y"].variance == math.inf and math.isnan(cov["x", "y"])
    # where fsum raises, on inf - inf among the cubes or on finite squares whose
    # exact sum overflows (and m2^1.5 past 3e205), the sums fall back to IEEE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats, cov = ensemble._aggregate({"x": [1e110, -1e110, 0.0, 1.0], "y": [1.0, 2.0, 3.0, 5.0]})
        wide, _ = ensemble._aggregate({"x": [1.2e154, -1.2e154, 3.0]})
    assert stats["x"].mean == 0.25 and math.isfinite(stats["x"].variance) and math.isnan(stats["x"].skewness)
    assert stats["y"].variance == pytest.approx(35.0 / 12.0) and math.isfinite(cov["x", "y"])
    assert wide["x"].mean == 1.0 and wide["x"].variance == math.inf


def _one_extreme(params, epsilon, seed):
    """The toy task, but one realization's value is +-1e200."""
    row = _toy_task(params, epsilon, seed)
    if seed == params["extreme"]:
        row["value"] = math.copysign(1e200, row["value"])
    return row


register_task("one-extreme", _one_extreme)


@pytest.mark.parametrize("workers", [1, 2])
def test_one_extreme_realization_does_not_abort_the_run(workers):
    spec = EnsembleSpec(5, 40, (0.5, 0.25), "one-extreme", {"extreme": derive_seed(5, 1, 13)})
    rep = run(spec, workers=workers)
    assert rep.failures == [] and rep.stats[1]["value"].n == 40
    assert rep.stats[1]["value"].variance == math.inf and math.isnan(rep.stats[1]["value"].skewness)
    assert math.isfinite(rep.stats[0]["value"].skewness)
    want = run(spec)
    assert repr(rep.stats) == repr(want.stats) and repr(rep.covariance) == repr(want.covariance)


def _moments_with_two_sums(values):
    """Reference for every field of _moments, with m2 and the variance each
    taken from its own fsum of squared deviations."""
    n = len(values)
    mean = math.fsum(values) / n
    d = [v - mean for v in values]
    m2 = math.fsum(x * x for x in d) / n
    var = math.fsum(x * x for x in d) / (n - 1) if n > 1 else 0.0
    if m2 * m2 > 0.0 and n > 3:
        m3 = math.fsum(x * x * x for x in d) / n
        m4 = math.fsum(x * x * x * x for x in d) / n
        g1 = m3 / m2**1.5
        g2 = m4 / (m2 * m2) - 3.0
        skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
        kurt = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))
        ks = ks_statistic(values, mean, math.sqrt(m2))
    else:
        skew = kurt = ks = 0.0
    return (
        n, mean, var, skew, kurt, ks,
        math.sqrt(var / n) if n > 0 else 0.0,
        var * math.sqrt(2.0 / (n - 1)) if n > 1 else 0.0,
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    hst.lists(hst.floats(-1e3, 1e3), min_size=1, max_size=40),
    hst.sampled_from([1.0, 1e-137, 1e-300, 1e30]),
)
@example([2.5], 1.0)
@example([1.0, -3.0], 1.0)
@example([0.5, 0.25, -1.0], 1.0)
@example([0.0, 1.0, 2.0, 3.0], 1.0)
@example([0.7] * 4, 1.0)
@example([0.7] * 50, 1.0)
@example([0.0, 1.0, 2.0, 3.0], 1e-137)
def test_moments_match_the_two_sum_formulas_bit_for_bit(values, scale):
    values = [v * scale for v in values]
    st, d = ensemble._moments(values)
    assert astuple(st) == _moments_with_two_sums(values)
    assert d.dtype == np.float64 and d.tolist() == [v - st.mean for v in values]
    # the engine hands _moments float64 arrays: the same values give the same stats
    from_array, d_array = ensemble._moments(np.array(values))
    assert from_array == st and d_array.tolist() == d.tolist()


def test_loglog_slope_exact_recovery():
    eps = [0.2, 0.1, 0.05, 0.025]
    fit = loglog_slope([(e, 3.0 * e**1.5) for e in eps])
    assert fit.slope == pytest.approx(1.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.max_residual < 1e-13
    assert fit.log_coeff is None
    # eps |log eps| data: the extra regressor recovers both exponents
    fit2 = loglog_slope(
        [(e, e * abs(math.log(e))) for e in eps], with_log_regressor=True
    )
    assert fit2.slope == pytest.approx(1.0, abs=1e-10)
    assert fit2.log_coeff == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        loglog_slope([(0.1, 1.0), (0.05, 1.0)])
    with pytest.raises(ValueError):
        loglog_slope([(0.1, 1.0), (0.05, -1.0), (0.025, 1.0)])


def test_run_report_json_shape():
    spec = EnsembleSpec(4, 20, (0.2, 0.1), "toy", {})
    d = run(spec).to_json_dict()
    assert set(d) == {"task", "status", "per_epsilon", "failures"}
    assert d["task"] == "toy"
    assert d["status"] == "ok"
    assert [b["epsilon"] for b in d["per_epsilon"]] == [0.2, 0.1]
    block = d["per_epsilon"][0]
    assert set(block["stats"]["value"]) == {
        "n", "mean", "variance", "skewness", "excess_kurtosis",
        "ks_statistic", "stderr_mean", "stderr_variance",
    }
    assert ensemble.REGISTRY["toy"] is _toy_task
