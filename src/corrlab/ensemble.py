"""Deterministic parallel Monte Carlo engine and statistics toolkit.

Realization tasks are pure functions of (state, epsilon, seed) returning a
flat dict of named float functionals.  A task's `prepare(params, epsilon)`
builds the state, what every realization at one epsilon shares (by default
the params themselves); `run` calls it once per epsilon, in the parent, and
then starts one process pool for the whole run.  Its forked workers inherit
the states, so a work item is only (epsilon index, first realization,
count): a chunk of ceil(n_real / (4 workers)) realizations, whose seeds the
worker derives from the experiment seed and the (epsilon index, realization
index) pair by a splitmix64-style hash.  The worker forms a chunk's seeds,
and the words numpy's SeedSequence would hash from each, with one set of
array operations, and hands each task its seed as a `_Seed`: an int that
follows numpy's ISeedSequence protocol, so `PCG64(seed)` takes those words
and skips the hash, drawing bit for bit what it draws from the plain int.
A chunk returns one float64 array per functional (its columns) and its
failures; the parent joins each epsilon's chunk arrays once its last chunk
is in and aggregates them with exact (fsum) summation, so reports are
byte-identical for any worker count.  If a prepare raises, every realization
at its epsilon fails with its message.

Keys a task returns that start with "count_" are summed only (counters such
as truncation flags); every other key gets the moment and normality statistics
and, pairwise, a sample covariance; no value outlives its epsilon's aggregation.
"""

from __future__ import annotations

import itertools
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context

import numpy as np

# stated in the catalog, which validates configs against them without numpy
from .catalog import KS_COEFF, MAX_REALIZATIONS, MIN_FIT_POINTS

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

REGISTRY: dict = {}
PREPARE: dict = {}


def register_task(name: str, fn, prepare=None) -> None:
    """Register fn(state, epsilon, seed) and its prepare(params, epsilon) -> state."""
    REGISTRY[name] = fn
    PREPARE[name] = prepare


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_seed(experiment_seed: int, eps_index: int, real_index: int) -> int:
    """Collision-free per-realization seed.

    The counter k -> experiment_seed + GAMMA*(k+1) is injective mod 2^64 and
    the finalizer is a bijection, so seeds within one experiment are pairwise
    distinct.  Raises ValueError for an index outside 0..2^31 - 1 (epsilon)
    or 0..2^32 - 1 (realization).
    """
    if min(eps_index, real_index) < 0 or real_index >= MAX_REALIZATIONS or eps_index >= (1 << 31):
        raise ValueError("index out of the collision-free range")
    k = (eps_index << 32) | real_index
    return _mix64((experiment_seed + _GAMMA * (k + 1)) & _M64)


def derive_seeds(experiment_seed: int, eps_index: int, start: int, count: int) -> np.ndarray:
    """derive_seed at realizations start..start+count-1, as a uint64 array:
    the same counter and finalizer in wraparound uint64.  Raises ValueError
    where derive_seed would, and for a negative count."""
    if min(eps_index, start, count) < 0 or start + count > MAX_REALIZATIONS or eps_index >= (1 << 31):
        raise ValueError("index out of the collision-free range")
    base = (experiment_seed & _M64) + _GAMMA * ((eps_index << 32) + start + 1)
    z = np.uint64(base & _M64) + np.uint64(_GAMMA) * np.arange(count, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult^i mod 2^32 for i in 0..n-1, a column of uint32."""
    return np.array([init * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(n)], np.uint32)[:, None]


# numpy's SeedSequence (pool size 4, 32-bit words, shift 16): the hash
# constants advance the same way for every seed, through the 4 pool fills and
# 12 mixing steps and then the 8 output words, so each step is one array step
_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_OTHER_LANES = [np.array([i for i in range(4) if i != src]) for src in range(4)]


def _hashmix(values: np.ndarray, t: int, n: int) -> np.ndarray:
    """SeedSequence's hashmix of `values` at steps t..t+n-1, one step per row."""
    v = (values ^ _HASH_A[t:t + n]) * _HASH_A[t + 1:t + n + 1]
    v ^= v >> _SHIFT
    return v


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """Row i is SeedSequence(int(seeds[i])).generate_state(4, np.uint64).

    The entropy is [lo32, hi32]; below 2^32 numpy has the one word lo32, but
    pads the pool with hashes of 0, so its pool is that of [lo32, 0]."""
    lanes = np.zeros((4, seeds.size), np.uint32)
    lanes[0], lanes[1] = seeds & np.uint64(0xFFFFFFFF), seeds >> np.uint64(32)
    pool = _hashmix(lanes, 0, 4)
    for src, dst in enumerate(_OTHER_LANES):  # each source word mixes into the other three
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], 4 + 3 * src, 3)
        mixed ^= mixed >> _SHIFT
        pool[dst] = mixed
    out = (np.concatenate((pool, pool)) ^ _HASH_B[:8]) * _HASH_B[1:]
    out ^= out >> _SHIFT
    # little-endian u4 pairs read as u8, as numpy does on any host
    return np.ascontiguousarray(out.T, "<u4").view("<u8").astype(np.uint64, copy=False)


class _Seed(int):
    """A realization seed that carries its SeedSequence words.  `_run_chunk`
    registers it as an ISeedSequence, which numpy's BitGenerators take in
    place of a SeedSequence: PCG64 asks for (4, uint64) and gets the words
    unhashed."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self.words
        return np.random.SeedSequence(int(self)).generate_state(n_words, dtype)


@dataclass(frozen=True)
class EnsembleSpec:
    experiment_seed: int
    n_real: int
    epsilon_list: tuple
    task: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        try:  # an int of any sign or size; derive_seeds reduces it mod 2^64
            object.__setattr__(self, "experiment_seed", operator.index(self.experiment_seed))
        except TypeError:
            raise ValueError("experiment_seed must be an integer") from None
        if not 2 <= self.n_real <= MAX_REALIZATIONS:
            raise ValueError(f"n_real must lie in 2..{MAX_REALIZATIONS}")
        eps = tuple(float(e) for e in self.epsilon_list)
        if any(e <= 0 for e in eps):
            raise ValueError("epsilon values must be positive")
        if any(later >= earlier for earlier, later in zip(eps[:-1], eps[1:])):
            raise ValueError("epsilon_list must be strictly decreasing")
        object.__setattr__(self, "epsilon_list", eps)


@dataclass
class FunctionalStats:
    n: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_statistic: float
    stderr_mean: float
    stderr_variance: float

    def to_dict(self) -> dict:
        """Every statistic by name, in field order (the CSV row order)."""
        return asdict(self)


@dataclass
class EnsembleReport:
    """What `run` measured: each epsilon's stats, counts and covariance, and the
    failed realizations.  Its JSON block states only these and the task; the
    experiment's report states the version, seed, n_real and epsilons once."""

    spec: EnsembleSpec
    # stats[eps_index][functional] -> FunctionalStats
    stats: list
    # counts[eps_index][counter] -> int, includes "count_failed"
    counts: list
    # (eps_index, real_index, seed, message) per failed realization
    failures: list
    status: str
    # covariance[eps_index][a, b] -> sample covariance of functionals a and b
    # in either order, its diagonal the variances; no counter enters it
    covariance: list
    # prepared state per epsilon, or the exception its prepare raised, for
    # the runner's targets; no report serializes it
    states: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        blocks = [
            {"epsilon": eps, "stats": {name: st.to_dict() for name, st in sorted(stats.items())},
             "counts": dict(sorted(counts.items()))}
            for eps, stats, counts in zip(self.spec.epsilon_list, self.stats, self.counts)
        ]
        return {"task": self.spec.task, "status": self.status, "per_epsilon": blocks,
                "failures": [list(f) for f in self.failures]}


def _run_chunk(fn, spec: EnsembleSpec, states: list, k: int, start: int, count: int):
    """Realizations start..start+count-1 at epsilon index k; never raises.
    Their seeds and SeedSequence words are formed once for the chunk, and
    each task gets its seed as a `_Seed`.  Returns (columns, failures): name
    -> float64 array of the values in realization order, and (k, j, seed,
    message), seed a plain int, per failed realization."""
    state, eps, cols, failed = states[k], spec.epsilon_list[k], {}, []
    seeds = derive_seeds(spec.experiment_seed, k, start, count)
    if isinstance(state, Exception):  # its prepare failed, so does every realization
        msg = f"{type(state).__name__}: {state}"
        return {}, [(k, j, seed, msg) for j, seed in enumerate(seeds.tolist(), start)]
    # registered here, not on import: importing numpy.random before the
    # samplers do raised the peak RSS of a fanout pass by 0.8 MB
    np.random.bit_generator.ISeedSequence.register(_Seed)
    for j, (seed, words) in enumerate(zip(seeds.tolist(), _seed_words(seeds)), start):
        task_seed = _Seed(seed)
        task_seed.words = words
        try:
            row = fn(state, eps, task_seed)
            vals = [float(v) for v in row.values()]  # all or none join the columns
        except Exception as exc:  # recorded, not propagated
            failed.append((k, j, seed, f"{type(exc).__name__}: {exc}"))
            continue
        for name, val in zip(row, vals):
            cols.setdefault(name, []).append(val)
    return {name: np.array(col) for name, col in cols.items()}, failed


_WORK = None  # (fn, spec, states) of the run a pool worker serves


def _init_worker(work) -> None:
    global _WORK
    _WORK = work


def _pool_chunk(item):
    return _run_chunk(*_WORK, *item)


def _fsum(terms: np.ndarray) -> float:
    """fsum of the terms, or where it raises (inf - inf, an overflowing sum) the IEEE sum."""
    try:
        return math.fsum(terms.tolist())
    except (ValueError, OverflowError):
        return float(np.sum(terms))


def _moments(values) -> tuple[FunctionalStats, np.ndarray]:
    """Moments of one functional's values (an array or a list), and its
    deviations d as a float64 array.  numpy forms each term elementwise and
    fsum, exact only for the terms it is given, sums them: each power
    keeps its association, the cube (d*d)*d and the quartic ((d*d)*d)*d."""
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = _fsum(values) / n
    d = values - mean
    sq = d * d
    ss = _fsum(sq)
    m2 = ss / n
    var = ss / (n - 1) if n > 1 else 0.0
    # below m2 ~ 1e-162 the shape moments underflow: treated as degenerate
    if m2 * m2 > 0.0 and n > 3:
        cube = sq * d
        m3 = _fsum(cube) / n
        m4 = _fsum(cube * d) / n
        g1 = m3 / float(np.float64(m2) ** 1.5)  # libm pow, as m2**1.5, but inf past 3e205
        g2 = m4 / (m2 * m2) - 3.0
        skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
        kurt = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))
        ks = ks_statistic(values, mean, math.sqrt(m2))
    else:
        skew = kurt = ks = 0.0
    return FunctionalStats(
        n=n,
        mean=mean,
        variance=var,
        skewness=skew,
        excess_kurtosis=kurt,
        ks_statistic=ks,
        stderr_mean=math.sqrt(var / n) if n > 0 else 0.0,
        stderr_variance=var * math.sqrt(2.0 / (n - 1)) if n > 1 else 0.0,
    ), d


@np.errstate(over="ignore", invalid="ignore")  # as with Python floats, an inf term warns nothing
def _aggregate(values: dict) -> tuple[dict, dict]:
    """Each functional's stats at one epsilon, and each pair's covariance
    fsum(d_a * d_b) / (n - 1), 0 when n <= 1, under (a, b) and (b, a) alike."""
    moments = {name: _moments(vals) for name, vals in values.items()}
    cov = {(a, a): st.variance for a, (st, _) in moments.items()}
    for (a, (st, da)), (b, (_, db)) in itertools.combinations(moments.items(), 2):
        cov[a, b] = cov[b, a] = _fsum(da * db) / (st.n - 1) if st.n > 1 else 0.0
    return {name: st for name, (st, _) in moments.items()}, cov


def _prepare(spec: EnsembleSpec) -> list:
    """The task's state at each epsilon, or the exception its prepare raised."""
    prepare = PREPARE.get(spec.task) or (lambda params, epsilon: params)
    states = []
    for eps in spec.epsilon_list:
        try:
            states.append(prepare(spec.params, eps))
        except Exception as exc:  # every realization at eps fails with it
            states.append(exc)
    return states


def _chunk_size(n_real: int, workers: int) -> int:
    """Realizations per work item: about four items per worker and epsilon."""
    return -(-n_real // (4 * workers))


def run(spec: EnsembleSpec, workers: int = 1) -> EnsembleReport:
    """Execute the ensemble; byte-identical output for any `workers`.  The
    report holds what the run measured, and the caller's report its provenance."""
    if spec.task not in REGISTRY:
        raise KeyError(f"task {spec.task!r} is not registered")
    workers = max(1, workers)
    work = (REGISTRY[spec.task], spec, _prepare(spec))
    size = _chunk_size(spec.n_real, workers)
    starts = range(0, spec.n_real, size)
    items = [(k, j, min(size, spec.n_real - j)) for k in range(len(spec.epsilon_list)) for j in starts]
    all_stats, all_counts, all_cov, failures = [], [], [], []
    chunks_of: dict = {}  # name -> the arrays of epsilon k's chunks so far
    # forked workers inherit the states, which need not pickle; only items are sent
    pool = ProcessPoolExecutor(workers, get_context("fork"), _init_worker, (work,)) if workers > 1 else None
    with pool or nullcontext():
        chunks = pool.map(_pool_chunk, items) if pool else (_run_chunk(*work, *item) for item in items)
        for (k, j, count), (cols, failed) in zip(items, chunks):
            for name, col in cols.items():
                chunks_of.setdefault(name, []).append(col)
            failures += failed
            if j + count < spec.n_real:
                continue
            # the last chunk of epsilon k is in: aggregate in realization order
            values = {name: np.concatenate(parts) for name, parts in chunks_of.items()}
            counters = {"count_failed": sum(f[0] == k for f in failures)}
            for name in [name for name in values if name.startswith("count_")]:
                counters[name] = sum(map(int, values.pop(name).tolist()))
            all_counts.append(counters)
            stats, cov = _aggregate(values)
            all_stats.append(stats)
            all_cov.append(cov)
            chunks_of = {}
    status = "ok" if len(failures) <= 0.01 * len(spec.epsilon_list) * spec.n_real else "error"
    return EnsembleReport(spec, all_stats, all_counts, failures, status, all_cov, states=work[2])


# --- statistics toolkit ---

# Cephes erf/erfc (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the code scipy.special.ndtr runs: its coefficients, with
# p1evl's implicit leading one written out, and MAXLOG, the log of the
# largest double
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = math.sqrt(0.5)


def _polevl(x, coef):
    """Horner's rule, leading coefficient first (a leading 1.0 is Cephes' p1evl:
    1.0 * x is exact)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """Cephes erf for |x| <= 1; erf(-x) = -erf(x) holds bit for bit."""
    xx = x * x
    return x * _polevl(xx, _ERF_T) / _polevl(xx, _ERF_U)


def _erfc(z):
    """Cephes erfc for z >= 1/sqrt(2): 1 - erf below 1, 0 where exp(-z^2)
    would underflow, and the C library's exp (math.exp, one call per element,
    as np.exp rounds differently) times P/Q below 8 or R/S above."""
    out = np.zeros_like(z)
    near = z < 1.0
    out[near] = 1.0 - _erf(z[near])
    far = ~near & (z * z <= _MAXLOG)
    zf = z[far]
    ex = np.fromiter(map(math.exp, (-zf * zf).tolist()), float, zf.size)
    low = zf < 8.0
    p = np.where(low, _polevl(zf, _ERFC_P), _polevl(zf, _ERFC_R))
    q = np.where(low, _polevl(zf, _ERFC_Q), _polevl(zf, _ERFC_S))
    out[far] = ex * p / q
    return out


def ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise; equal bit for bit to Cephes' ndtr,
    which scipy.special.ndtr runs, with nan for nan."""
    t = np.asarray(x, dtype=float) * _SQRT1_2
    z = np.abs(t)
    out = np.full_like(t, np.nan)
    centre = z < _SQRT1_2
    out[centre] = 0.5 + 0.5 * _erf(t[centre])
    tail = z >= _SQRT1_2
    y = 0.5 * _erfc(z[tail])
    out[tail] = np.where(t[tail] > 0.0, 1.0 - y, y)
    return out


def ks_statistic(samples, mean: float, std: float) -> float:
    """One-sample KS distance between the samples and N(mean, std^2)."""
    if std <= 0.0:
        raise ValueError("degenerate sample")
    z = np.sort((np.asarray(samples, dtype=float) - mean) / std)
    n = z.size
    cdf = ndtr(z)
    grid = np.arange(n, dtype=float)
    d_plus = np.max((grid + 1.0) / n - cdf)
    d_minus = np.max(cdf - grid / n)
    return float(max(d_plus, d_minus))


def ks_critical(n: int, level: float) -> float:
    """Asymptotic KS critical value at the 5% or 1% level."""
    coeff = KS_COEFF.get(level)
    if coeff is None:
        raise ValueError("level must be 0.05 or 0.01")
    return coeff / math.sqrt(n)


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    max_residual: float
    log_coeff: float | None = None

    def to_dict(self) -> dict:
        """Every field in order, log_coeff only when fitted."""
        return {name: v for name, v in asdict(self).items() if v is not None}


def loglog_slope(pairs, with_log_regressor: bool = False) -> SlopeFit:
    """Least squares of log(value) on log(eps), optionally plus log|log eps|.

    The extra regressor captures the eps^p |ln eps| scalings; with it the
    returned slope is the exponent p and log_coeff the |ln eps| power.
    """
    pts = [(float(e), float(v)) for e, v in pairs]
    if len(pts) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points")
    for e, v in pts:
        if e <= 0 or v <= 0:
            raise ValueError(f"non-positive data point ({e}, {v})")
    x = np.log([e for e, _ in pts])
    y = np.log([v for _, v in pts])
    cols = [np.ones_like(x), x]
    if with_log_regressor:
        cols.append(np.log(np.abs(np.log([e for e, _ in pts]))))
    a = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    return SlopeFit(
        slope=float(coef[1]),
        intercept=float(coef[0]),
        max_residual=float(np.max(np.abs(resid))),
        log_coeff=float(coef[2]) if with_log_regressor else None,
    )
