"""Twice-iterated integral-equation solver with a contraction safeguard.

Solves u = G f - G q G f + G q G q u by fixed-point iteration, which is used
only while ||G q G q|| stays below a threshold; otherwise the potential is
truncated to zero (the rare-event safeguard) and the unperturbed solution is
returned flagged.

The safeguard is certified when the caller passes `green_norm`, an upper
bound on the Euclidean operator norm of G: (green_norm * max|q|)^2 bounds
||G q G q||, so when it is below the threshold no estimate is needed.  Every
kernel of the package has such a bound in closed form, 1 / lambda_min of its
operator.  When the bound is absent or too large, ||G q G q|| is estimated
by power iteration from a fixed deterministic start vector.  A power
estimate never exceeds the norm it estimates, so the truncation decision is
the same on both paths.  A bound or estimate that overflows, or an
estimate that is nan, reads inf and truncates.

A solve that is not truncated makes 2 * iterations applies of G, plus
2 * POWER_STEPS when the norm is estimated.  The first step starts at u = u0,
so the G(q u0) that forms G f - G q G f = u0 - G(q u0) is also its inner apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POWER_STEPS = 20
MAX_ITERATIONS = 400
# relative room between a certified bound and the threshold: rounding in the
# assembled operator and its solves moves a computed power estimate by about
# n^2 * 1e-16 relative (1e-9 at 3,201 nodes), far inside this margin
CERTIFY_MARGIN = 1e-6
# relative size of an update that is rounding, not convergence: a contraction's
# updates shrink until rounding in G's applies leaves them near 1e-16 of |u|,
# where they stall or cycle; a tol below that level would never be met
ROUNDING_FLOOR = 2.0**-40


@dataclass
class FixedPointResult:
    u: np.ndarray
    iterations: int
    residual: float  # weighted L2 norm of the last update
    op_norm_estimate: float
    truncated: bool
    certified: bool = False  # op_norm_estimate is the closed-form bound


def _weighted_norm(u: np.ndarray, weights: np.ndarray) -> float:
    square = float(np.sum(weights * u * u))
    if square == math.inf:  # an entry past about 1e154: scale by the largest before squaring
        top = float(np.max(np.abs(u)))
        return top * math.sqrt(float(np.sum(weights * (u / top) ** 2))) if top < math.inf else top
    return math.sqrt(max(square, 0.0))


def estimate_composed_norm(apply_green, q: np.ndarray, shape) -> float:
    """POWER_STEPS-step power estimate of ||G q G q|| from a fixed start vector."""
    v = np.ones(shape, dtype=float)
    v /= math.sqrt(v.size)
    estimate = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf below, and truncates
        for _ in range(POWER_STEPS):
            w = apply_green(q * apply_green(q * v))
            nrm = float(np.sqrt(np.sum(w * w)))
            vnrm = float(np.sqrt(np.sum(v * v)))
            if not nrm < math.inf:  # |w|^2 overflowed (|w| > 1e154 for a unit v) or is nan
                return math.inf
            if nrm < 1e-300 or vnrm < 1e-300:
                return 0.0
            estimate = nrm / vnrm
            v = w / nrm
    return estimate


def neumann_solve(
    apply_green,
    q: np.ndarray,
    u0: np.ndarray,
    quad_weights: np.ndarray,
    tol: float = 1e-10,
    truncation_rho: float = 0.5,
    green_norm: float | None = None,
) -> FixedPointResult:
    """Run the safeguarded twice-iterated fixed point from u0 = G f.

    `green_norm`, when given, must bound the Euclidean operator norm of
    `apply_green` from above; it lets the safeguard skip the power iteration
    whenever (green_norm * max|q|)^2 clears the threshold with margin.

    At most MAX_ITERATIONS updates run (read at call time); then it raises.
    An update that stops shrinking within ROUNDING_FLOOR of |u| also ends
    the solve, with a residual that may exceed a tol below rounding.
    The returned residual is the weighted L2 norm of the last update; with a
    contraction factor rho < 1 the distance to the fixed point is bounded by
    residual * rho / (1 - rho), so tol is effectively an absolute tolerance.
    """
    estimate = math.inf
    if green_norm is not None:
        try:
            estimate = (green_norm * float(np.max(np.abs(q)))) ** 2
        except OverflowError:  # far past the threshold
            pass
    certified = estimate <= truncation_rho * (1.0 - CERTIFY_MARGIN)
    if not certified:
        estimate = estimate_composed_norm(apply_green, q, u0.shape)
    if estimate > truncation_rho:
        return FixedPointResult(u=u0.copy(), iterations=0, residual=0.0, op_norm_estimate=estimate, truncated=True)
    # G(q u) for the next step; the first step starts at u = u0, so g's apply serves it
    gqu = apply_green(q * u0)
    g = u0 - gqu
    u = u0
    residual = math.inf
    for it in range(1, MAX_ITERATIONS + 1):
        u_next = g + apply_green(q * gqu)
        last, residual = residual, _weighted_norm(u_next - u, quad_weights)
        u = u_next
        if residual <= tol or last <= residual < ROUNDING_FLOOR * _weighted_norm(u, quad_weights):
            return FixedPointResult(u=u, iterations=it, residual=residual, op_norm_estimate=estimate,
                                    truncated=False, certified=certified)
        gqu = apply_green(q * u)
    raise RuntimeError(
        f"fixed point did not converge in {MAX_ITERATIONS} iterations "
        f"(last residual {residual:.3e}, norm estimate {estimate:.3f})"
    )
