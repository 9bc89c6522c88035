"""Deterministic parallel Monte Carlo engine and statistics toolkit.

Realization tasks are pure functions of (params, epsilon, seed) returning a
flat dict of named float functionals.  Seeds are derived from the experiment
seed and the (epsilon index, realization index) pair by a splitmix64-style
hash, chunks are fixed-size, and aggregation runs in realization-index order
with exact (fsum) summation, so reports are byte-identical for any worker
count.

Keys returned by a task that start with "count_" are aggregated by summation
only (diagnostic counters such as truncation flags); all other keys receive
the full moment/normality treatment.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtr

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# fixed chunk size decouples the work split from the worker count
CHUNK_SIZE = 32

REGISTRY: dict = {}

# asymptotic KS critical-value coefficients by significance level
KS_COEFF = {0.05: 1.358, 0.01: 1.628}

# fewest (epsilon, value) points a log-log slope fit accepts
MIN_FIT_POINTS = 3


def register_task(name: str, fn) -> None:
    REGISTRY[name] = fn


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_seed(experiment_seed: int, eps_index: int, real_index: int) -> int:
    """Collision-free per-realization seed.

    The counter k -> experiment_seed + GAMMA*(k+1) is injective mod 2^64 and
    the finalizer is a bijection, so seeds within one experiment are pairwise
    distinct.
    """
    if real_index >= (1 << 32) or eps_index >= (1 << 31):
        raise ValueError("index out of the collision-free range")
    k = (eps_index << 32) | real_index
    return _mix64((experiment_seed + _GAMMA * (k + 1)) & _M64)


@dataclass(frozen=True)
class EnsembleSpec:
    experiment_seed: int
    n_real: int
    epsilon_list: tuple
    task: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_real < 2:
            raise ValueError("n_real must be at least 2")
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
    spec: EnsembleSpec
    version: str
    # stats[eps_index][functional] -> FunctionalStats
    stats: list
    # counts[eps_index][counter] -> int, includes "count_failed"
    counts: list
    # (eps_index, real_index, seed, message) per failed realization
    failures: list
    status: str
    # per-realization samples, kept for scaling fits and downstream checks
    samples: list
    scaling_fits: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        blocks = []
        for k, eps in enumerate(self.spec.epsilon_list):
            blocks.append(
                {
                    "epsilon": eps,
                    "stats": {name: st.to_dict() for name, st in sorted(self.stats[k].items())},
                    "counts": dict(sorted(self.counts[k].items())),
                }
            )
        return {
            "task": self.spec.task,
            "experiment_seed": self.spec.experiment_seed,
            "n_real": self.spec.n_real,
            "epsilon_list": list(self.spec.epsilon_list),
            "version": self.version,
            "status": self.status,
            "per_epsilon": blocks,
            "failures": [list(f) for f in self.failures],
            "scaling_fits": {k: dict(sorted(v.items())) for k, v in sorted(self.scaling_fits.items())},
            "meta": dict(sorted(self.meta.items())),
        }


def _run_chunk(fn, params: dict, epsilon: float, seeds):
    """Run one chunk of realizations; never raises, returns per-seed outcomes."""
    out = []
    for seed in seeds:
        try:
            out.append((True, fn(params, epsilon, seed)))
        except Exception as exc:  # recorded, not propagated
            out.append((False, f"{type(exc).__name__}: {exc}"))
    return out


def _moments(values) -> FunctionalStats:
    n = len(values)
    mean = math.fsum(values) / n
    d = [v - mean for v in values]
    m2 = math.fsum(x * x for x in d) / n
    var = math.fsum(x * x for x in d) / (n - 1) if n > 1 else 0.0
    # below m2 ~ 1e-162 the shape moments underflow: treated as degenerate
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
    return FunctionalStats(
        n=n,
        mean=mean,
        variance=var,
        skewness=skew,
        excess_kurtosis=kurt,
        ks_statistic=ks,
        stderr_mean=math.sqrt(var / n) if n > 0 else 0.0,
        stderr_variance=var * math.sqrt(2.0 / (n - 1)) if n > 1 else 0.0,
    )


def run(spec: EnsembleSpec, workers: int = 1, version: str = "0") -> EnsembleReport:
    """Execute the ensemble; byte-identical output for any `workers`."""
    if spec.task not in REGISTRY:
        raise KeyError(f"task {spec.task!r} is not registered")
    fn = REGISTRY[spec.task]
    all_stats, all_counts, all_samples, failures = [], [], [], []
    for k, eps in enumerate(spec.epsilon_list):
        seeds = [derive_seed(spec.experiment_seed, k, j) for j in range(spec.n_real)]
        chunks = [seeds[i : i + CHUNK_SIZE] for i in range(0, len(seeds), CHUNK_SIZE)]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunk_results = list(
                    pool.map(_run_chunk, *zip(*((fn, spec.params, eps, c) for c in chunks)))
                )
        else:
            chunk_results = [_run_chunk(fn, spec.params, eps, c) for c in chunks]
        # flatten in realization-index order
        outcomes = [r for chunk in chunk_results for r in chunk]
        values: dict = {}
        counters: dict = {"count_failed": 0}
        for j, (ok, payload) in enumerate(outcomes):
            if not ok:
                counters["count_failed"] += 1
                failures.append((k, j, seeds[j], payload))
                continue
            for name, val in payload.items():
                if name.startswith("count_"):
                    counters[name] = counters.get(name, 0) + int(val)
                else:
                    values.setdefault(name, []).append(float(val))
        all_counts.append(counters)
        all_samples.append(values)
        all_stats.append({name: _moments(vals) for name, vals in values.items() if vals})
    n_total = len(spec.epsilon_list) * spec.n_real
    n_failed = sum(c["count_failed"] for c in all_counts)
    status = "ok" if n_failed <= 0.01 * n_total else "error"
    return EnsembleReport(
        spec=spec,
        version=version,
        stats=all_stats,
        counts=all_counts,
        failures=failures,
        status=status,
        samples=all_samples,
    )


# --- statistics toolkit ---


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
        out = {
            "slope": self.slope,
            "intercept": self.intercept,
            "max_residual": self.max_residual,
        }
        if self.log_coeff is not None:
            out["log_coeff"] = self.log_coeff
        return out


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
