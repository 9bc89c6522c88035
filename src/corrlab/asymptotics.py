"""Dimension-dependent variance asymptotics of the leading corrector.

The corrector variance with u0 = 1 and the truncated free-space kernel
H(x) = |x|^{2-d} 1(|x| <= alpha) reduces to the radial Fourier quadrature

    value(eps) = (2pi)^-d S_{d-1} int_0^inf Hhat(rho)^2 eps^d Rhat(eps rho)
                 rho^{d-1} drho,

with the transform convention fhat(xi) = int e^{-i xi.x} f(x) dx.  The
profile Hhat is itself a radial (Hankel-type) quadrature with Bessel
kernels evaluated in-module by power series and the large-argument
asymptotic form.  Scaling in eps follows eps^d for d <= 3, eps^4 |ln eps|
at d = 4, and eps^4 for d >= 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

_HALF_ORDERS = (-0.5, 0.5, 1.5)
_INT_ORDERS = (0.0, 1.0, 2.0)
_SERIES_SWITCH = 16.0


def bessel_j(nu: float, x) -> np.ndarray:
    """Bessel J_nu for the orders arising from dimensions 1..6.

    Half-integer orders use their closed trigonometric forms; integer orders
    use the ascending power series for x <= 16 and the Hankel asymptotic
    expansion beyond.
    """
    nu = float(nu)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    if nu in _HALF_ORDERS:
        out = _bessel_half(nu, x)
    elif nu in _INT_ORDERS:
        out = np.empty_like(x)
        small = x <= _SERIES_SWITCH
        if np.any(small):
            out[small] = _bessel_series(int(nu), x[small])
        if np.any(~small):
            out[~small] = _bessel_asymptotic(int(nu), x[~small])
    else:
        raise ValueError(f"unsupported order {nu}")
    return float(out[0]) if scalar else out


def _bessel_half(nu: float, x: np.ndarray) -> np.ndarray:
    # sin(x)/x - cos(x) cancels catastrophically below ~1e-3, so the 3/2
    # order switches to its two-term ascending series there
    tiny = x < 1e-3
    xs = np.where(tiny, 1.0, x)
    amp = np.sqrt(2.0 / (np.pi * xs))
    if nu == -0.5:
        out = amp * np.cos(xs)
        out[tiny] = np.sqrt(2.0 / (np.pi * np.maximum(x[tiny], 1e-300))) * np.cos(x[tiny])
    elif nu == 0.5:
        out = amp * np.sin(xs)
        out[tiny] = np.sqrt(2.0 / np.pi) * np.sqrt(x[tiny]) * (1.0 - x[tiny] ** 2 / 6.0)
    else:  # 1.5
        out = amp * (np.sin(xs) / xs - np.cos(xs))
        xt = x[tiny]
        out[tiny] = np.sqrt(2.0 / np.pi) * xt**1.5 / 3.0 * (1.0 - 0.1 * xt * xt)
    return out


def _bessel_series(n: int, x: np.ndarray) -> np.ndarray:
    half = 0.5 * x
    term = half**n / math.factorial(n)
    total = term.copy()
    hsq = half * half
    for k in range(1, 80):
        term = -term * hsq / (k * (k + n))
        total += term
        if np.max(np.abs(term)) < 1e-18 * max(np.max(np.abs(total)), 1e-300):
            break
    return total


def _bessel_asymptotic(n: int, x: np.ndarray) -> np.ndarray:
    mu = 4.0 * n * n
    inv8x = 1.0 / (8.0 * x)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    best = np.inf
    for j in range(1, 12):
        term = term * (mu - (2 * j - 1) ** 2) * inv8x / j
        mag = np.max(np.abs(term))
        if mag >= best:
            break
        best = mag
        sign = -1.0 if (j // 2) % 2 == 1 else 1.0
        if j % 2 == 0:
            p += sign * term
        else:
            q += sign * term
    omega = x - 0.5 * n * math.pi - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(omega) - q * np.sin(omega))


def surface_area(d: int) -> float:
    """|S^{d-1}| = 2 pi^{d/2} / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def gaussian_rhat(rho):
    """The correlation transform Rhat(rho) = exp(-rho^2 / 2) of every radial setup."""
    return np.exp(-0.5 * np.square(rho))


def gaussian_r(x):
    """Inverse transform of the Gaussian Rhat in one dimension."""
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


@dataclass(eq=False)
class RadialSetup:
    """Dimension, kernel truncation radius, and the transform cutoff s_max.

    The correlation transform is the Gaussian `gaussian_rhat`.
    """

    dimension: int
    alpha: float = 1.0
    s_max: float = 13.0

    def __post_init__(self):
        if self.dimension not in range(1, 7):
            raise ValueError("dimension must lie in 1..6")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        self._grid = None  # lazily built master quadrature table

    @property
    def bessel_order(self) -> float:
        return self.dimension / 2.0 - 1.0

    @property
    def r_power(self) -> float:
        """Power of r in the profile integrand J_nu(rho r) r^{2 - d/2}."""
        return 2.0 - self.dimension / 2.0


def profile_at_zero(setup: RadialSetup) -> float:
    """Hhat(0) = volume integral of the kernel = S_{d-1} alpha^2 / 2."""
    return surface_area(setup.dimension) * setup.alpha**2 / 2.0


def _profile_quadrature(setup: RadialSetup, rho: float, n_panels: int) -> float:
    """Composite GL16 evaluation of the radial profile integral at one rho."""
    edges = np.linspace(0.0, setup.alpha, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    r = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    vals = bessel_j(setup.bessel_order, rho * r) * r**setup.r_power
    integral = float(np.dot(w, vals))
    d = setup.dimension
    return (2.0 * math.pi) ** (d / 2.0) * rho ** (1.0 - d / 2.0) * integral


def radial_profile(setup: RadialSetup):
    """Adaptive-quadrature profile handle rho -> Hhat(rho), any dimension."""

    def profile(rho: float) -> float:
        rho = float(rho)
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        if rho < 1e-12:
            return profile_at_zero(setup)
        # resolve the oscillation: at least 4 panels per Bessel period
        n = max(8, int(math.ceil(2.0 * setup.alpha * rho / math.pi)))
        prev = _profile_quadrature(setup, rho, n)
        for _ in range(20):
            n *= 2
            cur = _profile_quadrature(setup, rho, n)
            if abs(cur - prev) <= 1e-12 * max(abs(cur), profile_at_zero(setup)):
                return cur
            prev = cur
        raise RuntimeError(f"profile quadrature did not converge at rho={rho}")

    return profile


def _build_grid(setup: RadialSetup, rho_max: float) -> dict:
    """Master quadrature table for the variance integral.

    rho nodes are composite GL16 with panel width pi/(4 alpha), four panels
    per oscillation period of Hhat^2.  The profile is evaluated at every
    node through one cumulative quadrature of K(u) = int_0^u J_nu(t)
    t^{2-d/2} dt on the gap grid u = rho alpha, which costs one 16-point
    panel per gap.
    """
    d = setup.dimension
    width = math.pi / (4.0 * setup.alpha)
    n_panels = max(8, int(math.ceil(rho_max / width)))
    edges = np.linspace(0.0, n_panels * width, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    # panels and their GL nodes ascend, so rho is globally ascending
    rho = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    # cumulative K over the gap grid u_i = rho_i * alpha
    u = rho * setup.alpha
    starts = np.concatenate(([0.0], u[:-1]))
    gmid = 0.5 * (starts + u)
    ghalf = 0.5 * (u - starts)
    t = (gmid[:, None] + ghalf[:, None] * _GL_NODES[None, :]).ravel()
    gw = (ghalf[:, None] * _GL_WEIGHTS[None, :]).ravel()
    vals = bessel_j(setup.bessel_order, t) * np.maximum(t, 1e-300) ** setup.r_power
    gap_integrals = (gw * vals).reshape(len(u), 16).sum(axis=1)
    k_cum = np.cumsum(gap_integrals)
    hhat = (2.0 * math.pi) ** (d / 2.0) * k_cum / (rho * rho)
    return {"rho": rho, "w": w, "hsq_pow": hhat * hhat * rho ** (d - 1), "rho_max": rho[-1]}


def _grid_for(setup: RadialSetup, rho_max: float) -> dict:
    if setup._grid is None or setup._grid["rho_max"] < rho_max:
        setup._grid = _build_grid(setup, rho_max)
    return setup._grid


def variance_fourier(setup: RadialSetup, epsilon: float) -> float:
    """(2pi)^-d S_{d-1} int Hhat^2 eps^d Rhat(eps rho) rho^{d-1} drho."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    d = setup.dimension
    s_max = setup.s_max
    for _ in range(5):
        grid = _grid_for(setup, s_max / epsilon)
        rho, w, core = grid["rho"], grid["w"], grid["hsq_pow"]
        mask = rho <= s_max / epsilon
        f = core[mask] * epsilon**d * gaussian_rhat(epsilon * rho[mask])
        total = float(np.dot(w[mask], f))
        tail_mask = rho[mask] > 0.9 * s_max / epsilon
        tail = float(np.dot(w[mask][tail_mask], f[tail_mask]))
        if abs(tail) <= 1e-10 * max(abs(total), 1e-300):
            return (2.0 * math.pi) ** (-d) * surface_area(d) * total
        s_max *= 2.0
    raise RuntimeError(f"tail non-convergence at epsilon={epsilon}")


def space_profile_l2(setup: RadialSetup) -> float:
    """int H^2 = S_{d-1} alpha^{4-d}/(4-d); the d <= 3 limit constant is Rhat(0) times this."""
    if setup.dimension >= 4:
        raise ValueError("the space-side L2 norm of H diverges for d >= 4")
    d = setup.dimension
    return surface_area(d) * setup.alpha ** (4 - d) / (4 - d)


def quartic_tail_integral(setup: RadialSetup) -> float:
    """int_{R^d} Rhat(xi)/|xi|^4 dxi for d >= 5, by radial quadrature."""
    if setup.dimension < 5:
        raise ValueError("the quartic tail integral requires d >= 5")
    d = setup.dimension
    n_panels = 64
    edges = np.linspace(0.0, setup.s_max, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    vals = gaussian_rhat(s) * s ** (d - 5)
    return surface_area(d) * float(np.dot(w, vals))


@dataclass
class VarianceCurve:
    pairs: tuple
    fit_plain: object
    fit_log: object


# the exponent fits of a scaling study need this many epsilons over this
# many decades
SCALING_MIN_EPS = 4
SCALING_MIN_DECADES = 1.5


def check_scaling_epsilons(epsilon_list) -> None:
    """Raise ValueError unless the list supports the scaling-study fits."""
    eps = [float(e) for e in epsilon_list]
    if len(eps) < SCALING_MIN_EPS:
        raise ValueError(f"need at least {SCALING_MIN_EPS} epsilon values")
    if max(eps) / min(eps) < 10**SCALING_MIN_DECADES:
        raise ValueError(f"epsilon values must span at least {SCALING_MIN_DECADES} decades")


def scaling_study(setup: RadialSetup, epsilon_list) -> VarianceCurve:
    """Evaluate the variance curve and fit exponents with and without |ln eps|."""
    from .ensemble import loglog_slope

    check_scaling_epsilons(epsilon_list)
    eps = [float(e) for e in epsilon_list]
    pairs = tuple((e, variance_fourier(setup, e)) for e in sorted(eps, reverse=True))
    return VarianceCurve(
        pairs=pairs,
        fit_plain=loglog_slope(pairs),
        fit_log=loglog_slope(pairs, with_log_regressor=True),
    )
