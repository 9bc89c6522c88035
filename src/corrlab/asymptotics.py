"""Dimension-dependent variance asymptotics of the leading corrector.

The corrector variance with u0 = 1 and the truncated free-space kernel
H(x) = |x|^{2-d} 1(|x| <= alpha) reduces to the radial Fourier quadrature

    value(eps) = (2pi)^-d S_{d-1} int_0^inf Hhat(rho)^2 eps^d Rhat(eps rho)
                 rho^{d-1} drho,

with the transform convention fhat(xi) = int e^{-i xi.x} f(x) dx.  The
profile Hhat is itself a radial (Hankel-type) quadrature with the Bessel
kernel J_{d/2-1} (`BESSEL_J`: closed forms at d = 1, 3, scipy's
fixed-order routines otherwise).  Every reduction is a numpy sum, so no
value depends on the BLAS thread count.  Scaling in eps follows eps^d for
d <= 3, eps^4 |ln eps| at d = 4, and eps^4 for d >= 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _special(name: str, *orders):
    """scipy.special's `name` at fixed `orders`, imported when first called, so
    validation reads `grid_size` and `check_scaling_epsilons` without scipy."""

    def fn(x):
        import scipy.special

        return getattr(scipy.special, name)(*orders, x)

    return fn


_SPHERICAL_J1 = _special("spherical_jn", 1)

# J_{d/2-1}, the Bessel kernel of the radial transform in dimension d: closed
# forms at d = 1, 3, scipy's fixed-order j0, j1 and spherical j_1 at d = 2, 4,
# 5 (the general jv is several times slower there), and jv at d = 6
BESSEL_J = {
    1: lambda x: np.sqrt(2.0 / (np.pi * x)) * np.cos(x),
    2: _special("j0"),
    3: lambda x: np.sqrt(2.0 / (np.pi * x)) * np.sin(x),
    4: _special("j1"),
    5: lambda x: np.sqrt(2.0 * x / np.pi) * _SPHERICAL_J1(x),
    6: _special("jv", 2.0),
}


def _gl16(lo: np.ndarray, hi: np.ndarray):
    """Composite GL16 nodes and weights over the panels [lo_i, hi_i], panel by panel."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * _GL_NODES).ravel(), (half[:, None] * _GL_WEIGHTS).ravel()


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


def profile_at_zero(setup: RadialSetup) -> float:
    """Hhat(0) = volume integral of the kernel = S_{d-1} alpha^2 / 2."""
    return surface_area(setup.dimension) * setup.alpha**2 / 2.0


def _profile_quadrature(setup: RadialSetup, rho: float, n_panels: int) -> float:
    """Composite GL16 evaluation of the radial profile integral at one rho:
    int_0^alpha J_{d/2-1}(rho r) r^{2-d/2} dr, scaled to Hhat(rho)."""
    d = setup.dimension
    edges = np.linspace(0.0, setup.alpha, n_panels + 1)
    r, w = _gl16(edges[:-1], edges[1:])
    integral = float(np.sum(w * BESSEL_J[d](rho * r) * r ** (2.0 - d / 2.0)))
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


def _grid_panels(alpha: float, rho_max: float):
    """Width and count of the panels that reach rho_max: width pi/(4 alpha), four
    per oscillation period of Hhat^2, capped at rho_max/8 so that at least 8 panels
    lie below rho_max.  The count is a float, inf past its range; at the cap the
    quotient is 8 up to rounding, and the floor of 8 holds it there."""
    width = min(math.pi / (4.0 * alpha), rho_max / 8.0)
    return width, (max(8.0, float(np.ceil(rho_max / width))) if width > 0.0 else math.inf)


def grid_size(alpha: float, s_max: float, epsilon: float) -> float:
    """Bessel values `variance_fourier(epsilon)` evaluates: 16 gap nodes per rho node, 16 per panel."""
    return 256.0 * _grid_panels(alpha, s_max / epsilon)[1]


def _build_grid(setup: RadialSetup, rho_max: float) -> dict:
    """Master quadrature table for the variance integral.

    rho nodes are composite GL16 over the panels of `_grid_panels`.  The profile
    is evaluated at every node through one cumulative quadrature of K(u) =
    int_0^u J_nu(t) t^{2-d/2} dt on the gap grid u = rho alpha, which costs
    one 16-point panel per gap.
    """
    d = setup.dimension
    width, n_panels = _grid_panels(setup.alpha, rho_max)
    edges = np.linspace(0.0, n_panels * width, int(n_panels) + 1)
    # panels and their GL nodes ascend, so rho is globally ascending
    rho, w = _gl16(edges[:-1], edges[1:])
    # cumulative K over the gap grid u_i = rho_i * alpha
    u = rho * setup.alpha
    t, gw = _gl16(np.concatenate(([0.0], u[:-1])), u)
    vals = BESSEL_J[d](t) * np.maximum(t, 1e-300) ** (2.0 - d / 2.0)
    gap_integrals = (gw * vals).reshape(len(u), 16).sum(axis=1)
    k_cum = np.cumsum(gap_integrals)
    hhat = (2.0 * math.pi) ** (d / 2.0) * k_cum / (rho * rho)
    return {"rho": rho, "w": w, "hsq_pow": hhat * hhat * rho ** (d - 1), "rho_max": edges[-1], "width": width}


def _grid_for(setup: RadialSetup, rho_max: float) -> dict:
    """The cached grid if it reaches rho_max with panels no wider than rho_max wants."""
    grid = setup._grid
    if grid is None or grid["rho_max"] < rho_max or grid["width"] > _grid_panels(setup.alpha, rho_max)[0]:
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
        total = float(np.sum(w[mask] * f))
        tail_mask = rho[mask] > 0.9 * s_max / epsilon
        tail = float(np.sum(w[mask][tail_mask] * f[tail_mask]))
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
    edges = np.linspace(0.0, setup.s_max, 65)  # 64 panels
    s, w = _gl16(edges[:-1], edges[1:])
    vals = gaussian_rhat(s) * s ** (d - 5)
    return surface_area(d) * float(np.sum(w * vals))


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
