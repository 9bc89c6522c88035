"""1D random elliptic problems solved through harmonic coordinates.

The problem -d/dx a_eps u' + (q0 + q_eps) u = rho_eps f is mapped by the
harmonic change of variables z_eps(x) = a* int_0^x dt/a_eps to a constant
coefficient operator plus a potential, then solved by the same safeguarded
twice-iterated fixed point as the Helmholtz path.  The module also builds
the three corrector kernels (driven by the fluctuations of 1/a, rho, and
the transformed potential) and the variance of the limiting Gaussian law
with correlated Brownian drivers.

Coefficient parametrization: 1/a(y) = (1 + b(y))/a_base with b a bounded
mean-zero moving-average component, so a* = 1/E{1/a} = a_base exactly and
b = a*/a - 1 is sampled directly as channel 0 of the driving triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import randfield
from .catalog import CH_B, CH_Q, CH_RHO, node_indices
from .greens import DiscreteGreenOperator, GreenKernel1D, Mesh1D, eval_green_1d, fd_matrix_banded
from .greens import cumulative_trapezoid, fd_green_norm, green_partials_1d
from .helmholtz import dirichlet_solve_fd
from .iteration import FixedPointResult, neumann_solve
from .randfield import CorrelatedTripleSpec


@dataclass(eq=False)
class EllipticProblem1D:
    """-(a_eps u')' + (q0 + q_eps) u = rho_eps f on (0,1), Dirichlet ends."""

    mesh: Mesh1D
    triple_spec: CorrelatedTripleSpec
    q0: float
    rho_bar: float
    f: np.ndarray
    epsilon: float
    a_base: float = 1.0
    truncation_rho: float = 0.5

    def __post_init__(self):
        if self.q0 < 0:
            raise ValueError("q0 must be nonnegative")
        if not self.rho_bar > 0:
            raise ValueError("rho_bar must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.a_base > 0:
            raise ValueError("a_base must be positive")
        if not 0.0 < self.truncation_rho < 1.0:
            raise ValueError("truncation_rho must lie in (0, 1)")
        # sup|b| < 1 keeps 1/a = (1 + b)/a_base uniformly elliptic
        if not self.triple_spec.component_bound(CH_B) < 1.0:
            raise ValueError("coefficient not uniformly elliptic")
        if not self.triple_spec.component_bound(CH_RHO) < self.rho_bar:
            raise ValueError("source density not uniformly positive")
        self.f = np.asarray(self.f, dtype=float)
        if self.f.shape != self.mesh.nodes.shape:
            raise ValueError("f must hold one value per mesh node")

    @cached_property
    def u0(self) -> np.ndarray:
        """u0 of -a* u0'' + q0 u0 = rho_bar f, one direct banded solve per problem; read-only."""
        u0 = dirichlet_solve_fd(self.mesh, self.a_base, self.q0, self.rho_bar * self.f)
        u0.flags.writeable = False
        return u0


@dataclass
class HarmonicCoords:
    """z_eps(x) = a* int_0^x dt / a_eps(t) sampled at the mesh nodes."""

    z_eps: np.ndarray
    a_star: float

    @property
    def length(self) -> float:
        return float(self.z_eps[-1])


def sample_fields(problem: EllipticProblem1D, seed: int):
    """One realization of the (b, delta rho, q) triple at the mesh nodes."""
    return randfield.sample_triple(problem.triple_spec, problem.epsilon, problem.mesh, seed)


def coefficient_values(problem: EllipticProblem1D, b_values: np.ndarray) -> np.ndarray:
    """a_eps at the nodes from the sampled b = a*/a - 1."""
    return problem.a_base / (1.0 + np.asarray(b_values, dtype=float))


def harmonic_coords(problem: EllipticProblem1D, a_values: np.ndarray) -> HarmonicCoords:
    """Cumulative-trapezoid harmonic coordinates of one coefficient realization."""
    a = np.asarray(a_values, dtype=float)
    if a.shape != problem.mesh.nodes.shape:
        raise ValueError("a must hold one value per mesh node")
    if not np.all(a > 0.0):
        raise ValueError("coefficient not uniformly elliptic")
    z = cumulative_trapezoid(problem.a_base / a, problem.mesh.nodes)
    return HarmonicCoords(z_eps=z, a_star=problem.a_base)


def tilde_q(problem: EllipticProblem1D, fields) -> np.ndarray:
    """Transformed potential (1 - a*/a_eps) q0 + q_eps = -b q0 + q_eps."""
    return -fields[CH_B] * problem.q0 + fields[CH_Q]


def harmonic_mean_half(a_values: np.ndarray) -> np.ndarray:
    """a_{i+1/2} = 2 a_i a_{i+1} / (a_i + a_{i+1}), one per cell; the harmonic mean
    keeps the conservative scheme second order for rough a."""
    a = np.asarray(a_values, dtype=float)
    return 2.0 * a[:-1] * a[1:] / (a[:-1] + a[1:])


def transformed_green(problem: EllipticProblem1D, a_values: np.ndarray):
    """Exact discrete inverse of v -> -(a_eps v')' + q0 (a*/a_eps) v.

    This is the solution operator the transformed fixed point iterates; it
    agrees with the kernel-composed quadrature operator to O(h^2).  Returns
    its apply function and a bound on its Euclidean norm: the matrix is
    sum a_{i+1/2} (x_{i+1} - x_i)^2 / h^2 + sum pot_i x_i^2 as a quadratic
    form, so it dominates the constant-coefficient FD matrix with
    a* = min a_{i+1/2} and q0 = min pot.
    """
    pot = problem.q0 * problem.a_base / np.asarray(a_values, dtype=float)
    a_half = harmonic_mean_half(a_values)
    op = DiscreteGreenOperator(problem.mesh, fd_matrix_banded(problem.mesh, a_half, pot))
    return op.apply, fd_green_norm(problem.mesh, float(np.min(a_half)), float(np.min(pot)))


def transformed_green_matrix(problem: EllipticProblem1D, coords: HarmonicCoords) -> np.ndarray:
    """Kernel-composed quadrature operator G(z(x), z(y); z(1)) w_y.

    Built from the closed-form kernel on the image interval; no Jacobian
    enters because dz = (a*/a_eps) dx cancels against the density change.
    """
    kern = GreenKernel1D(coords.a_star, problem.q0, coords.length)
    g = eval_green_1d(kern, coords.z_eps[:, None], coords.z_eps[None, :])
    return g * problem.mesh.quad_weights[None, :]


def solve_transformed(problem: EllipticProblem1D, seed: int, tol: float = 1e-10) -> FixedPointResult:
    """Fixed-point solve of u = G_eps(rho_eps f) - G_eps(tq G_eps(rho_eps f)) + ...

    G_eps is applied as the exact inverse of the conservative discretization
    of the transformed operator, so the iterate converges to the direct
    conservative solution of the original problem up to the iteration
    tolerance.
    """
    fields = sample_fields(problem, seed)
    apply_g, green_norm = transformed_green(problem, coefficient_values(problem, fields[CH_B]))
    return neumann_solve(
        apply_g,
        tilde_q(problem, fields),
        apply_g((problem.rho_bar + fields[CH_RHO]) * problem.f),
        problem.mesh.quad_weights,
        tol=tol,
        truncation_rho=problem.truncation_rho,
        green_norm=green_norm,
    )


def direct_solve_conservative(problem: EllipticProblem1D, fields) -> np.ndarray:
    """Independent oracle: conservative three-point solve of the raw problem."""
    a_half = harmonic_mean_half(coefficient_values(problem, fields[CH_B]))
    rho = problem.rho_bar + fields[CH_RHO]
    return dirichlet_solve_fd(problem.mesh, a_half, problem.q0 + fields[CH_Q], rho * problem.f)


def corrector(problem: EllipticProblem1D, solution: FixedPointResult) -> np.ndarray:
    """(u_eps - u0) / sqrt(epsilon) at the mesh nodes."""
    return (solution.u - problem.u0) / math.sqrt(problem.epsilon)


# --- corrector kernels and the limit law ---


def _split_trapezoid(values: np.ndarray, h: float, i: int):
    """Trapezoid of a two-branch integrand split at node i.

    values is a pair (branch for y <= x_i, branch for y >= x_i); both are
    full-grid arrays, only the relevant halves are read.
    """
    below, above = values
    n = below.size
    total = 0.0
    if i > 0:
        seg = below[: i + 1]
        total += h * (np.sum(seg) - 0.5 * (seg[0] + seg[-1]))
    if i < n - 1:
        seg = above[i:]
        total += h * (np.sum(seg) - 0.5 * (seg[0] + seg[-1]))
    return total


@dataclass(eq=False)
class CorrectorKernels:
    """Kernels H_b, H_rho, H_q on (x probe nodes) x (t mesh nodes).

    H_b(x, t) = chi(t < x) jump_coeff(x) + smooth(x, t); the indicator
    vanishes at t = x, matching chi_x(t) = 1 on 0 < t < x.
    """

    x_nodes: np.ndarray
    t_nodes: np.ndarray
    jump_coeff: np.ndarray  # chi_x coefficient, one entry per probe
    smooth: np.ndarray  # Lipschitz part of H_b
    H_rho: np.ndarray
    H_q: np.ndarray

    @property
    def H_b(self) -> np.ndarray:
        chi = (self.t_nodes[None, :] < self.x_nodes[:, None]).astype(float)
        return chi * self.jump_coeff[:, None] + self.smooth

    def h_b_sided(self, row: int, i: int):
        """One-sided values of H_b at t = x for the probe `row` (t -> x-, t -> x+)."""
        s = self.smooth[row, i]
        return s + self.jump_coeff[row], s


def corrector_kernels(problem: EllipticProblem1D, x_nodes) -> CorrectorKernels:
    """Materialize H_b, H_rho, H_q at probe rows, one per mesh node in x_nodes.

    The y-quadratures defining H_b are split at y = x with one-sided kernel
    derivatives on each subinterval, so the assembly is second order despite
    the derivative jumps across the diagonal.
    """
    mesh = problem.mesh
    idx = np.array(node_indices(mesh.h, x_nodes), dtype=int)
    xs = mesh.nodes[idx]
    t = mesh.nodes
    h = mesh.h
    kern = GreenKernel1D(problem.a_base, problem.q0)
    rf = problem.rho_bar * problem.f
    n = mesh.n_nodes
    m = idx.size
    jump = np.empty(m)
    smooth = np.empty((m, n))
    H_rho = np.empty((m, n))
    H_q = np.empty((m, n))
    # u0(t) = int G(t,z) rho_bar f(z) dz enters H_q
    u0 = problem.u0
    for r, (i, x) in enumerate(zip(idx, xs)):
        dx_lo, dy_lo, dx_hi, dy_hi, dL = green_partials_1d(kern, float(x), t)
        jump[r] = _split_trapezoid((dx_lo * rf, dx_hi * rf), h, i)
        # B(x, t) = int_t^1 dG/dy(x,y) rho_bar f(y) dy, split at y = x
        g_lo = dy_lo * rf
        g_hi = dy_hi * rf
        cum_lo = cumulative_trapezoid(g_lo, t)
        cum_hi = cumulative_trapezoid(g_hi, t)
        tail_hi = cum_hi[-1] - cum_hi  # int_t^1 of the upper branch
        b_vals = np.where(
            np.arange(n) >= i,
            tail_hi,
            (cum_lo[i] - cum_lo) + tail_hi[i],
        )
        c_val = _split_trapezoid((dL * rf, dL * rf), h, i)
        smooth[r] = b_vals + c_val
        g_row = eval_green_1d(kern, float(x), t)
        H_rho[r] = g_row * problem.f
        H_q[r] = g_row * u0
    return CorrectorKernels(
        x_nodes=xs, t_nodes=t, jump_coeff=jump, smooth=smooth, H_rho=H_rho, H_q=H_q
    )


def driver_covariance(problem: EllipticProblem1D) -> np.ndarray:
    """Integrated covariance matrix of the drivers (b, delta rho, -tilde q).

    -tilde q = q0 b - q, so the matrix is T S T^t with S the integrated
    cross-covariances of the sampled triple.
    """
    s = randfield.sigma_matrix(problem.triple_spec)
    t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [problem.q0, 0.0, -1.0]])
    return t @ s @ t.T


def _correlation(cov: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.diag(cov))
    out = np.eye(cov.shape[0])
    for i in range(cov.shape[0]):
        for j in range(cov.shape[0]):
            if i != j:
                # zero-variance drivers get correlation 0 by convention
                out[i, j] = cov[i, j] / (d[i] * d[j]) if d[i] > 0 and d[j] > 0 else 0.0
    return out


def driver_correlation(problem: EllipticProblem1D) -> np.ndarray:
    """Correlation matrix rho_jk of the drivers; it depends on neither probes nor epsilon."""
    return _correlation(driver_covariance(problem))


def limit_law(problem: EllipticProblem1D, x_nodes) -> np.ndarray:
    """Limit variance of (u_eps - u0)/sqrt(eps) at each probe, in the order given.

    var(x) = int_0^1 v(x,t)^t S v(x,t) dt with v = (H_b, H_rho, H_q) and S
    the driver covariance above; the t-quadrature is split at t = x where
    H_b jumps.
    """
    kernels = corrector_kernels(problem, x_nodes)
    cov = driver_covariance(problem)
    mesh = problem.mesh
    idx = np.array(node_indices(mesh.h, kernels.x_nodes), dtype=int)
    m = idx.size
    var = np.empty(m)
    hb = kernels.H_b
    for r in range(m):
        i = int(idx[r])
        rows = np.vstack([hb[r], kernels.H_rho[r], kernels.H_q[r]])
        vals = np.einsum("jt,jk,kt->t", rows, cov, rows)
        left_hb, right_hb = kernels.h_b_sided(r, i)
        v_left = np.array([left_hb, kernels.H_rho[r, i], kernels.H_q[r, i]])
        v_right = np.array([right_hb, kernels.H_rho[r, i], kernels.H_q[r, i]])
        below = vals.copy()
        below[i] = v_left @ cov @ v_left
        above = vals.copy()
        above[i] = v_right @ cov @ v_right
        var[r] = _split_trapezoid((below, above), mesh.h, i)
    return var
