"""Random-potential Helmholtz problems and their corrector statistics.

The perturbed problem (P + q_eps) u = f with P = -a* Laplace + q0 is solved
through the safeguarded twice-iterated integral equation, in any dimension
the mesh gives: on a `Mesh1D` interval G is the exact inverse of the
three-point matrix, on the `Mesh2D` unit square (a* = 1) it is the
sine-spectral solve.  The dimension also picks the field sampler and the
limit sigma^2; every other step is shared.  In 1D a direct banded solve of
the same discrete operator serves as the independent oracle.  The module
also evaluates the limiting corrector variance law, moment-functional
covariances, and the periodic-potential cell corrector used for contrast
experiments.

`perturbed_solve_2d` and `moment_covariance_2d` are the 2D names of
`perturbed_solve` and `moment_covariance`, and the sine-spectral apply is
looked up as this module's `apply_green_2d` on every call, so a wrapper on
any of these names times the 2D path alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import randfield
from .greens import (
    DiscreteGreenOperator,
    GreenKernel1D,
    Mesh1D,
    Mesh2D,
    apply_green_2d,
    cumulative_trapezoid,
    eval_green_1d,
    fd_green_norm,
    fd_matrix_banded,
    green_norm_2d,
    lapack,
    lapack_check,
)
from .iteration import FixedPointResult, neumann_solve
from .randfield import MAProcessSpec, sigma2


@dataclass(frozen=True)
class _Dimension:
    """The pieces of a Helmholtz problem that depend on its dimension."""

    d: int
    green: object  # problem -> the function v -> G v
    green_norm: object  # problem -> closed-form bound on the norm of G
    sample: object  # (problem, seed) -> unscaled field at the nodes
    sigma2: object  # field spec -> integrated correlation of the field


@dataclass(eq=False)
class HelmholtzProblem:
    """-a* Laplace u + (q0 + q_eps) u = f with Dirichlet data.

    The mesh sets the dimension: a `Mesh1D` is the unit interval, a
    `Mesh2D` the unit square, where a* must be 1.
    """

    mesh: Mesh1D | Mesh2D
    a_star: float
    q0: float
    field_spec: MAProcessSpec
    f: np.ndarray
    epsilon: float
    alpha: float = 0.0
    truncation_rho: float = 0.5

    def __post_init__(self):
        self._dim = _DIMENSIONS[type(self.mesh)]
        if not self.a_star > 0:
            raise ValueError("a_star must be positive")
        if self._dim.d == 2 and self.a_star != 1.0:
            raise ValueError("a_star must be 1 on the unit square")
        if self.q0 < 0:
            raise ValueError("q0 must be nonnegative")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.alpha < 0.25:
            raise ValueError("alpha must lie in [0, 1/4)")
        if not 0.0 < self.truncation_rho < 1.0:
            raise ValueError("truncation_rho must lie in (0, 1)")
        self.f = np.asarray(self.f, dtype=float)
        if self.f.shape != self.mesh.quad_weights.shape:
            raise ValueError("f must hold one value per mesh node")
        if not np.all(np.isfinite(self.f)):
            raise ValueError("f must be finite")

    @cached_property
    def apply_green(self):
        """Unperturbed solution operator G, a function of v factored on first use."""
        return self._dim.green(self)

    @cached_property
    def u0(self) -> np.ndarray:
        """Unperturbed solution u0 = G f, solved once per problem; read-only."""
        u0 = self.apply_green(self.f)
        u0.flags.writeable = False
        return u0

    @property
    def green_norm(self) -> float:
        """Upper bound on the Euclidean norm of `apply_green`, in closed form."""
        return self._dim.green_norm(self)

    @property
    def sigma2(self) -> float:
        """Integrated correlation of the field: the limit variance factor."""
        return self._dim.sigma2(self.field_spec)

    @property
    def corrector_scale(self) -> float:
        """epsilon^{d (1/2 - alpha)}, the corrector normalization."""
        return self.epsilon ** (self._dim.d * (0.5 - self.alpha))

    @property
    def amplitude_scale(self) -> float:
        """epsilon^{-alpha d}, the potential amplitude for alpha > 0."""
        return self.epsilon ** (-self.alpha * self._dim.d)

    def sample_potential(self, seed: int) -> np.ndarray:
        """Scaled potential q_eps at the mesh nodes for one realization."""
        return self.amplitude_scale * self._dim.sample(self, seed)


def perturbed_solve(problem: HelmholtzProblem, seed: int, tol: float = 1e-10) -> FixedPointResult:
    """Solve the perturbed problem by the safeguarded fixed-point iteration;
    the potential is `problem.sample_potential(seed)`."""
    return neumann_solve(
        problem.apply_green,
        problem.sample_potential(seed),
        problem.u0,
        problem.mesh.quad_weights,
        tol=tol,
        truncation_rho=problem.truncation_rho,
        green_norm=problem.green_norm,
    )


perturbed_solve_2d = perturbed_solve


def dirichlet_solve_fd(mesh: Mesh1D, a_half, potential, f: np.ndarray) -> np.ndarray:
    """Direct banded solve of -(a u')' + potential u = f (three-point stencil),
    with a at the half nodes as `fd_matrix_banded` takes it."""
    ab = np.asarray_chkfinite(fd_matrix_banded(mesh, a_half, potential))
    b = np.asarray_chkfinite(np.asarray(f, dtype=float)[1:-1])
    try:  # the two-row band solve of scipy's solveh_banded
        *_, interior, info = lapack.dptsv(ab[1], ab[0, 1:], b)
        lapack_check(info, "dptsv")
    except np.linalg.LinAlgError as exc:
        raise ValueError("indefinite operator") from exc
    out = np.zeros(mesh.n_nodes)
    out[1:-1] = interior
    return out


def direct_solve_fd(problem: HelmholtzProblem, q_values: np.ndarray) -> np.ndarray:
    """Independent oracle: direct solve of (P + q_eps) u = f on the same mesh."""
    return dirichlet_solve_fd(
        problem.mesh, problem.a_star, problem.q0 + np.asarray(q_values), problem.f
    )


def corrector(problem: HelmholtzProblem, solution: FixedPointResult) -> np.ndarray:
    """(u_eps - u0) / epsilon^{d (1/2 - alpha)} at the mesh nodes."""
    return (solution.u - problem.u0) / problem.corrector_scale


def leading_corrector(problem: HelmholtzProblem, seed: int) -> np.ndarray:
    """First-order corrector -G(q_eps u0) / epsilon^{d (1/2 - alpha)}.

    For alpha = 0 this is -epsilon^{-d/2} G(q_eps u0); the alpha scaling keeps
    the limiting variance law independent of alpha.
    """
    q = problem.sample_potential(seed)
    return -problem.apply_green(q * problem.u0) / problem.corrector_scale


def corrector_law_1d(problem: HelmholtzProblem, x_nodes=None) -> np.ndarray:
    """Limit variance sigma^2 int G(x,y)^2 u0(y)^2 dy at each x of x_nodes.

    The y-integral is node quadrature; x_nodes defaults to the whole mesh.
    """
    mesh = problem.mesh
    xs = mesh.nodes if x_nodes is None else np.asarray(x_nodes, dtype=float)
    u0 = problem.u0
    g = eval_green_1d(GreenKernel1D(problem.a_star, problem.q0), xs[:, None], mesh.nodes[None, :])
    return problem.sigma2 * ((g * g) @ (mesh.quad_weights * u0 * u0))


def moment_functionals(problem: HelmholtzProblem, moments, corrector_values: np.ndarray) -> np.ndarray:
    """Quadrature pairings of the normalized corrector with each test function M_k,
    given as node-value arrays."""
    w = problem.mesh.quad_weights
    return np.array([float(np.sum(w * corrector_values * m)) for m in moments])


def moment_covariance(problem: HelmholtzProblem, moments) -> np.ndarray:
    """Limit covariance Sigma_jk = sigma^2 int m_j m_k, m_k = -(G M_k) u0."""
    w = problem.mesh.quad_weights
    ms = [-problem.apply_green(m) * problem.u0 for m in moments]
    k = len(ms)
    s2 = problem.sigma2
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            out[i, j] = s2 * float(np.sum(w * ms[i] * ms[j]))
    return out


moment_covariance_2d = moment_covariance


def periodic_cell_corrector_1d(mesh: Mesh1D, q_values: np.ndarray) -> np.ndarray:
    """Zero-mean periodic cell corrector of -u2'' = <q> - q on the unit cell.

    q_values are node samples of the periodic potential on [0, 1] with equal
    first and last values; the solve is a double cumulative quadrature.
    """
    q = np.asarray(q_values, dtype=float)
    if q.shape != mesh.nodes.shape:
        raise ValueError("q must hold one value per mesh node")
    if abs(q[0] - q[-1]) > 1e-12 * (1.0 + np.max(np.abs(q))):
        raise ValueError("q must be periodic (equal end values)")
    w = mesh.quad_weights
    g = float(np.sum(w * q)) - q  # <q> - q, mean zero
    big_i = cumulative_trapezoid(g, mesh.nodes)
    slope0 = float(np.sum(w * big_i))
    du = slope0 - big_i
    u2 = cumulative_trapezoid(du, mesh.nodes)
    u2 -= float(np.sum(w * u2))
    return u2


def sigma2_separable_2d(spec: MAProcessSpec) -> float:
    """Integrated correlation of the separable 2D field: amp^2 Var(xi) (sum w)^4."""
    s = float(np.sum(spec.weights))
    return spec.amplitude**2 * spec.marginal.variance * s**4


_DIMENSIONS = {
    Mesh1D: _Dimension(
        1,
        lambda p: DiscreteGreenOperator(p.mesh, fd_matrix_banded(p.mesh, p.a_star, p.q0)).apply,
        lambda p: fd_green_norm(p.mesh, p.a_star, p.q0),
        lambda p, seed: randfield.sample_at(p.field_spec, p.epsilon, p.mesh.nodes, seed),
        sigma2,
    ),
    Mesh2D: _Dimension(
        2,
        lambda p: lambda v: apply_green_2d(p.mesh, p.q0, v),
        lambda p: green_norm_2d(p.q0),
        lambda p, seed: randfield.sample_2d(p.field_spec, p.epsilon, p.mesh, seed),
        sigma2_separable_2d,
    ),
}
