"""Stationary moving-average random fields with exact second-order statistics.

A field value at position y is a finite weighted sum of iid bounded lattice
noise variables, with the lattice shifted by a uniform random phase drawn once
per realization.  The construction is strictly stationary, has a closed-form
piecewise-linear correlation function, a closed-form integrated correlation,
and exactly vanishing correlations beyond a finite range.  The samplers read
raw PCG64 words, drawing what numpy's Generator would, and filter the noise
once per lattice site before the points gather it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# imported with the module so that forked ensemble workers inherit it; the
# samplers read raw PCG64 words and build no numpy.random Generator
from numpy.random import PCG64

_MAX_LATTICE_SITES = 1 << 26
_FLOAT_INDEX_LIMIT = 2.0**52
_NEXT_DOUBLE = 2.0**-53  # numpy's random(): the top 53 bits of a raw word times this


@dataclass(frozen=True)
class MarginalDist:
    """Marginal law of the lattice noise: bounded, mean zero, known variance."""

    kind: str
    bound: float = 1.0

    _KINDS = ("rademacher", "uniform_pm1", "truncated_gaussian")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        if self.kind == "truncated_gaussian" and not self.bound > 0:
            raise ValueError("truncation bound must be positive")

    @property
    def variance(self) -> float:
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "uniform_pm1":
            return 1.0 / 3.0
        from scipy.special import ndtr  # only the truncated Gaussian needs scipy

        b = self.bound
        # standard normal restricted to [-b, b]
        phi = math.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
        mass = 2.0 * ndtr(b) - 1.0
        return 1.0 - 2.0 * b * phi / mass

    @property
    def abs_bound(self) -> float:
        return 1.0 if self.kind in ("rademacher", "uniform_pm1") else self.bound

    def draw(self, bits: PCG64, n: int) -> np.ndarray:
        """n values from raw words of `bits`, as numpy's Generator(bits) draws
        them: integers(0, 2) takes bit 31 of each 32-bit half, low half first
        (its Lemire draw rejects none at range 2); the others one word each."""
        if self.kind == "rademacher":
            halves = bits.random_raw(-(-n // 2)).astype("<u8", copy=False).view("<u4")
            return (halves[:n] >> 31) * 2.0 - 1.0
        u = (bits.random_raw(n) >> 11) * _NEXT_DOUBLE
        if self.kind == "uniform_pm1":
            return -1.0 + 2.0 * u
        from scipy.special import ndtr, ndtri

        b = self.bound
        lo = ndtr(-b)
        hi = ndtr(b)
        return ndtri(lo + u * (hi - lo))

    @classmethod
    def from_json(cls, obj) -> "MarginalDist":
        if isinstance(obj, str):
            return cls(obj)
        return cls(obj["kind"], bound=float(obj.get("bound", 1.0)))


@dataclass(frozen=True)
class MAProcessSpec:
    """Scalar moving-average field: amplitude * sum_k w_k xi_{k + floor(y + U)}."""

    weights: tuple
    marginal: MarginalDist = MarginalDist("rademacher")
    amplitude: float = 1.0

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if len(w) == 0:
            raise ValueError("weights must be nonempty")
        if not all(math.isfinite(v) for v in w):
            raise ValueError("weights must be finite")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def window(self) -> int:
        return len(self.weights)

    @property
    def abs_bound(self) -> float:
        """Deterministic bound on |field|: amplitude * bound(xi) * sum|w|."""
        return abs(self.amplitude) * self.marginal.abs_bound * float(
            np.sum(np.abs(self.weights))
        )

    @classmethod
    def from_json(cls, obj) -> "MAProcessSpec":
        return cls(
            weights=tuple(obj["weights"]),
            marginal=MarginalDist.from_json(obj.get("marginal", "rademacher")),
            amplitude=float(obj.get("amplitude", 1.0)),
        )


@dataclass(frozen=True)
class CorrelatedTripleSpec:
    """Three jointly stationary fields driven by one multichannel lattice noise.

    Each component j has a weight matrix of shape (n_channels, window_j); the
    channels are iid noise sequences shared by all components, so integrated
    cross-correlations are inner products of the per-channel weight sums.
    """

    weights: tuple  # three 2D arrays (channels x lags), same channel count
    marginal: MarginalDist = MarginalDist("rademacher")
    amplitudes: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.weights) != 3:
            raise ValueError("need exactly three weight matrices")
        mats = tuple(np.atleast_2d(np.asarray(w, dtype=float)) for w in self.weights)
        channels = {m.shape[0] for m in mats}
        if len(channels) != 1:
            raise ValueError("components must share the channel count")
        for m in mats:
            if m.shape[1] == 0 or not np.all(np.isfinite(m)):
                raise ValueError("weight matrices must be nonempty and finite")
        object.__setattr__(self, "weights", mats)
        amps = tuple(float(a) for a in self.amplitudes)
        if len(amps) != 3 or not all(math.isfinite(a) for a in amps):
            raise ValueError("need exactly three finite amplitudes")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_channels(self) -> int:
        return self.weights[0].shape[0]

    def window(self, j: int) -> int:
        return self.weights[j].shape[1]

    def component_bound(self, j: int) -> float:
        return abs(self.amplitudes[j]) * self.marginal.abs_bound * float(
            np.sum(np.abs(self.weights[j]))
        )

    @classmethod
    def from_json(cls, obj) -> "CorrelatedTripleSpec":
        return cls(
            weights=tuple(obj["weights"]),
            marginal=MarginalDist.from_json(obj.get("marginal", "rademacher")),
            amplitudes=tuple(obj.get("amplitudes", (1.0, 1.0, 1.0))),
        )


def autocovariance_lattice(spec: MAProcessSpec, n: int) -> float:
    """Lattice autocovariance C(n) = amp^2 Var(xi) sum_k w_k w_{k+n}."""
    w = np.asarray(spec.weights)
    n = abs(int(n))
    if n >= len(w):
        return 0.0
    overlap = float(np.dot(w[: len(w) - n], w[n:]))
    return spec.amplitude**2 * spec.marginal.variance * overlap


def correlation(spec: MAProcessSpec, tau: float) -> float:
    """Continuum correlation R(tau): linear interpolation of the lattice values."""
    t = abs(float(tau))
    n = int(math.floor(t))
    f = t - n
    return (1.0 - f) * autocovariance_lattice(spec, n) + f * autocovariance_lattice(
        spec, n + 1
    )


def sigma2(spec: MAProcessSpec) -> float:
    """Integrated correlation int R = amp^2 Var(xi) (sum_k w_k)^2."""
    s = float(np.sum(spec.weights))
    return spec.amplitude**2 * spec.marginal.variance * s * s


def lag_window(spec) -> int:
    """Lattice lags one field value reads; a triple's widest component window."""
    if isinstance(spec, CorrelatedTripleSpec):
        return max(spec.window(j) for j in range(3))
    return spec.window


def mixing_range(spec) -> float:
    """Separation beyond which field values are exactly decorrelated.

    The dependence window of floor(y + U) spans at most lag_window + 1
    lattice cells.
    """
    return float(lag_window(spec) + 1)


def cross_autocovariance_lattice(
    spec: CorrelatedTripleSpec, j: int, k: int, n: int
) -> float:
    """Lattice cross-covariance C_jk(n) = E p_j(y) p_k(y + n) on integer lags."""
    wj = spec.weights[j]
    wk = spec.weights[k]
    n = int(n)
    if n < 0:
        return cross_autocovariance_lattice(spec, k, j, -n)
    if n >= wk.shape[1]:
        total = 0.0
    else:
        m = min(wj.shape[1], wk.shape[1] - n)
        total = float(np.sum(wj[:, :m] * wk[:, n : n + m]))
    return spec.amplitudes[j] * spec.amplitudes[k] * spec.marginal.variance * total


def cross_correlation(spec: CorrelatedTripleSpec, j: int, k: int, tau: float) -> float:
    """Continuum cross-correlation R_jk(tau) = E p_j(y) p_k(y + tau)."""
    t = float(tau)
    if t < 0:
        return cross_correlation(spec, k, j, -t)
    n = int(math.floor(t))
    f = t - n
    return (1.0 - f) * cross_autocovariance_lattice(spec, j, k, n) + (
        f
    ) * cross_autocovariance_lattice(spec, j, k, n + 1)


def cross_sigma(spec: CorrelatedTripleSpec, j: int, k: int) -> float:
    """Integrated cross-correlation int R_jk = Var(xi) <channel sums_j, channel sums_k>."""
    vj = np.sum(spec.weights[j], axis=1)
    vk = np.sum(spec.weights[k], axis=1)
    return (
        spec.amplitudes[j]
        * spec.amplitudes[k]
        * spec.marginal.variance
        * float(np.dot(vj, vk))
    )


def sigma_matrix(spec: CorrelatedTripleSpec) -> np.ndarray:
    """3x3 matrix of integrated cross-correlations."""
    return np.array(
        [[cross_sigma(spec, j, k) for k in range(3)] for j in range(3)]
    )


def lattice_sites(lo: float, hi: float, window: int) -> int:
    """Noise sites of the block behind lattice coordinates in [lo, hi].

    A coordinate is point / epsilon + phase.  Raises ValueError past the
    samplers' two limits: a coordinate of magnitude 2^52 or more, where
    floor is no longer exact, and a block of more than 2^26 sites.
    """
    reach = max(abs(lo), abs(hi))
    if reach >= _FLOAT_INDEX_LIMIT:
        raise ValueError(f"lattice range overflow (coordinate {reach:.3g}, past 2^52)")
    count = math.floor(hi) - math.floor(lo) + window
    if count > _MAX_LATTICE_SITES:
        raise ValueError(f"lattice range overflow ({count} sites, more than 2^26)")
    return count


def _lattice_block(points_over_eps: np.ndarray, window: int):
    """Each point's site, the noise block size and the site count, within `lattice_sites` limits."""
    lo = float(points_over_eps.min())
    count = lattice_sites(lo, float(points_over_eps.max()), window)
    idx = np.floor(points_over_eps).astype(np.int64)
    idx -= math.floor(lo)
    return idx, count, count - window + 1


def sample_at(spec: MAProcessSpec, epsilon: float, points: np.ndarray, seed: int) -> np.ndarray:
    """Sample the field q(x/epsilon) at arbitrary points, reproducibly.

    PCG64(seed) gives the phase, then one contiguous lattice noise block, so
    a given (spec, seed, points, epsilon) reproduces the same values bit for
    bit.  The filter runs once per site, the points gather the site values.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pts = np.asarray(points, dtype=float)
    bits = PCG64(seed)
    phase = (bits.random_raw() >> 11) * _NEXT_DOUBLE
    idx, count, m = _lattice_block(pts / epsilon + phase, spec.window)
    noise = spec.marginal.draw(bits, count)
    site = np.zeros(m)
    for k, w in enumerate(spec.weights):
        site += w * noise[k : k + m]
    site *= spec.amplitude
    return site[idx]


def sample_2d(spec: MAProcessSpec, epsilon: float, mesh2d, seed: int) -> np.ndarray:
    """Sample a separable 2D field on a tensor mesh.

    Uses the same lattice construction on the 2D integer lattice with a 2D
    phase; the filter, the outer product of the 1D weights, runs per site.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    bits = PCG64(seed)
    phase = (bits.random_raw(2) >> 11) * _NEXT_DOUBLE
    xs = np.asarray(mesh2d.nodes, dtype=float)
    idx_r, count_r, m_r = _lattice_block(xs / epsilon + phase[0], spec.window)
    idx_c, count_c, m_c = _lattice_block(xs / epsilon + phase[1], spec.window)
    noise = spec.marginal.draw(bits, count_r * count_c).reshape(count_r, count_c)
    w = np.asarray(spec.weights)
    site = np.zeros((m_r, m_c))
    for j, wj in enumerate(w):
        for k, wk in enumerate(w):
            site += (wj * wk) * noise[j : j + m_r, k : k + m_c]
    site *= spec.amplitude
    return site[idx_r][:, idx_c]


def sample_triple(
    spec: CorrelatedTripleSpec, epsilon: float, points: np.ndarray, seed: int
):
    """Sample the three correlated fields at shared points.

    Returns a tuple of three value arrays that share one phase and one
    multichannel noise block, each filtered once per lattice site.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pts = np.asarray(getattr(points, "nodes", points), dtype=float)
    bits = PCG64(seed)
    phase = (bits.random_raw() >> 11) * _NEXT_DOUBLE
    idx, count, m = _lattice_block(pts / epsilon + phase, lag_window(spec))
    noise = spec.marginal.draw(bits, spec.n_channels * count).reshape(spec.n_channels, count)
    out = []
    for wj, amp in zip(spec.weights, spec.amplitudes):
        site = np.zeros(m)
        for row, ws in zip(noise, wj.tolist()):
            for k, w in enumerate(ws):
                if w != 0.0:
                    site += w * row[k : k + m]
        site *= amp
        out.append(site[idx])
    return tuple(out)
