"""Spectra of the perturbed and unperturbed operators and their correctors.

Eigenpairs of P + q_eps are computed from the symmetric tridiagonal FD
matrix; the inverse-operator spectrum consists of the reciprocals.  The
rescaled eigenvalue, eigenvector-Fourier, and heat-coefficient correctors
are formed against a discrete unperturbed reference so that the zero
amplitude limit is exact and discretization bias cancels from the
corrector statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .elliptic import (
    EllipticProblem1D,
    coefficient_values,
    conservative_matrix_banded,
    sample_fields,
)
from .greens import Mesh1D, fd_matrix_banded
from .helmholtz import HelmholtzProblem


@dataclass
class SpectralPair:
    """One eigenpair of the inverse operator A; u has unit quadrature norm."""

    index: int
    lam: float
    u: np.ndarray
    multiplicity: int = 1


def unperturbed_spectrum(mesh: Mesh1D, a_star: float, q0: float, n_max: int):
    """Analytic Dirichlet pairs lambda_n = 1/(a* n^2 pi^2 + q0), u_n = sqrt(2) sin."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    pairs = []
    for n in range(1, n_max + 1):
        lam = 1.0 / (a_star * (n * math.pi) ** 2 + q0)
        u = math.sqrt(2.0) * np.sin(n * math.pi * mesh.nodes)
        pairs.append(SpectralPair(index=n, lam=lam, u=u))
    return tuple(pairs)


def _eigen_tridiagonal(d: np.ndarray, e: np.ndarray, mesh: Mesh1D, n_max: int):
    """Lowest n_max eigenpairs of the interior tridiagonal matrix.

    Returns (nu, U): eigenvalues ascending and quadrature-normalized full-mesh
    eigenvectors (boundary zeros), sign-fixed so the first interior entry is
    positive.
    """
    n_int = d.size
    if n_max > n_int:
        raise ValueError("n_max exceeds the number of interior nodes")
    try:
        nu, v = eigh_tridiagonal(d, e, select="i", select_range=(0, n_max - 1))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolver failed on tridiagonal matrix (n={n_int}, "
            f"diag range [{d.min():.3e}, {d.max():.3e}])"
        ) from exc
    if nu[0] <= 0.0:
        raise ValueError(f"indefinite operator: smallest eigenvalue {nu[0]:.3e}")
    u_full = np.zeros((n_max, mesh.n_nodes))
    u_full[:, 1:-1] = v.T / math.sqrt(mesh.h)
    flip = u_full[:, 1] < 0.0
    u_full[flip] *= -1.0
    return nu, u_full


def _pairs_from_tridiagonal(d, e, mesh, n_max, reference=None):
    nu, u_full = _eigen_tridiagonal(d, e, mesh, n_max)
    pairs = []
    for k in range(n_max):
        u = u_full[k]
        if reference is not None:
            # align to the reference eigenvector: (u_n^eps, u_n) >= 0
            if float(np.sum(mesh.quad_weights * u * reference[k].u)) < 0.0:
                u = -u
        pairs.append(SpectralPair(index=k + 1, lam=1.0 / nu[k], u=u))
    return tuple(pairs)


@lru_cache(maxsize=8)
def _cached_reference(n_nodes: int, length: float, a_star: float, q0: float, n_max: int):
    mesh = Mesh1D(n_nodes, length)
    ab = fd_matrix_banded(mesh, a_star, q0)
    return _pairs_from_tridiagonal(ab[1], ab[0, 1:], mesh, n_max)


def discrete_unperturbed_spectrum(mesh: Mesh1D, a_star: float, q0: float, n_max: int):
    """Eigenpairs of the unperturbed FD matrix; corrector reference spectrum."""
    return _cached_reference(mesh.n_nodes, mesh.length, a_star, q0, n_max)


def _perturbed_tridiagonal(problem, seed: int):
    """Interior (diag, offdiag) of the perturbed FD operator for either problem."""
    if isinstance(problem, HelmholtzProblem):
        q = problem.sample_potential(seed)
        ab = fd_matrix_banded(problem.mesh, problem.a_star, problem.q0 + q)
    elif isinstance(problem, EllipticProblem1D):
        b, _, q = sample_fields(problem, seed)
        ab = conservative_matrix_banded(
            problem.mesh, coefficient_values(problem, b), problem.q0 + q
        )
    else:
        raise TypeError("problem must be HelmholtzProblem or EllipticProblem1D")
    return ab[1], ab[0, 1:]


def perturbed_spectrum(problem, seed: int, n_max: int, reference=None):
    """Lowest n_max inverse-operator eigenpairs for one realization."""
    d, e = _perturbed_tridiagonal(problem, seed)
    return _pairs_from_tridiagonal(d, e, problem.mesh, n_max, reference)


def spectral_gaps(pairs) -> np.ndarray:
    """d_n = half the distance from lambda_n to the nearest distinct neighbor.

    Only the supplied pairs are consulted; the last pair's right neighbor is
    unknown, so its gap uses the left neighbor alone (callers wanting exact
    end gaps should request one extra pair and slice).
    """
    lam = np.array([p.lam for p in pairs])
    if lam.size == 1:
        return np.array([math.inf])
    gaps = np.empty(lam.size)
    for i in range(lam.size):
        cand = []
        if i > 0:
            cand.append(abs(lam[i] - lam[i - 1]))
        if i < lam.size - 1:
            cand.append(abs(lam[i] - lam[i + 1]))
        gaps[i] = 0.5 * min(cand)
    return gaps


@dataclass
class MatchResult:
    """Greedy eigenvalue matching with spectral-gap violation flags."""

    index_map: np.ndarray  # index_map[n-1] = position of the matched perturbed pair
    flags: np.ndarray  # True where |lam_eps - lam| >= d_n

    @property
    def any_violation(self) -> bool:
        return bool(np.any(self.flags))


def match_eigenpairs(unperturbed, perturbed) -> MatchResult:
    """Nearest-eigenvalue greedy matching within the unperturbed gaps."""
    lam0 = np.array([p.lam for p in unperturbed])
    lam1 = np.array([p.lam for p in perturbed])
    gaps = spectral_gaps(unperturbed)
    used = np.zeros(lam1.size, dtype=bool)
    index_map = np.empty(lam0.size, dtype=int)
    flags = np.empty(lam0.size, dtype=bool)
    for i in range(lam0.size):
        dist = np.abs(lam1 - lam0[i])
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        index_map[i] = j
        flags[i] = not dist[j] < gaps[i]
    return MatchResult(index_map=index_map, flags=flags)


@dataclass(eq=False)
class SpectralRealization:
    """Matched spectra of one realization plus its corrector functionals."""

    problem: object
    seed: int
    reference: tuple
    pairs: tuple
    match: MatchResult

    @property
    def eta(self) -> float:
        return math.sqrt(self.problem.epsilon)

    def _matched(self, n: int) -> SpectralPair:
        return self.pairs[self.match.index_map[n - 1]]

    def inverse_eigenvalue_corrector(self, n: int) -> float:
        """((lambda_n^eps)^-1 - lambda_n^-1)/sqrt(eps); limit N(0, sigma^2 int u_n^4)."""
        lam0 = self.reference[n - 1].lam
        lam1 = self._matched(n).lam
        return (1.0 / lam1 - 1.0 / lam0) / self.eta

    def eigenvalue_corrector(self, n: int) -> float:
        """(lambda_n^eps - lambda_n)/sqrt(eps) for the inverse operator A."""
        return (self._matched(n).lam - self.reference[n - 1].lam) / self.eta

    def fourier_corrector(self, n: int, m: int) -> float:
        """(u_n^eps - u_n, u_m)/sqrt(eps); the n = m coefficient is O(eps)."""
        if n == m:
            raise ValueError("diagonal coefficient is second order")
        w = self.problem.mesh.quad_weights
        du = self._matched(n).u - self.reference[n - 1].u
        return float(np.sum(w * du * self.reference[m - 1].u)) / self.eta

    def diagonal_defect(self, n: int) -> float:
        """1 - (u_n, u_n^eps); mean is O(eps) over the ensemble."""
        w = self.problem.mesh.quad_weights
        return 1.0 - float(np.sum(w * self._matched(n).u * self.reference[n - 1].u))

    def heat_corrector(self, n: int, t: float, v0: np.ndarray, epsilon_const: float = 1.0):
        """Heat Fourier-coefficient corrector: (direct, two-term surrogate).

        The evolution is u_t + epsilon_const * P u = 0; nu_n denotes the
        eigenvalues of P (inverse of the spectrum stored in the pairs).
        """
        if t < 0:
            raise ValueError("t must be nonnegative")
        w = self.problem.mesh.quad_weights
        ref = self.reference[n - 1]
        per = self._matched(n)
        nu0 = 1.0 / ref.lam
        nu1 = 1.0 / per.lam
        c0 = float(np.sum(w * ref.u * v0))
        c1 = float(np.sum(w * per.u * v0))
        direct = (math.exp(-epsilon_const * nu1 * t) * c1 - math.exp(-epsilon_const * nu0 * t) * c0) / self.eta
        surrogate = math.exp(-epsilon_const * nu0 * t) * (
            epsilon_const * t * (nu0 - nu1) / self.eta * c0
            + float(np.sum(w * (per.u - ref.u) * v0)) / self.eta
        )
        return direct, surrogate


def spectral_realization(problem, seed: int, n_max: int) -> SpectralRealization:
    """Solve, match, and wrap one realization's spectra."""
    if isinstance(problem, HelmholtzProblem):
        astar = problem.a_star
    else:
        astar = problem.a_base
    reference = discrete_unperturbed_spectrum(problem.mesh, astar, problem.q0, n_max)
    pairs = perturbed_spectrum(problem, seed, n_max, reference)
    return SpectralRealization(
        problem=problem,
        seed=seed,
        reference=reference,
        pairs=pairs,
        match=match_eigenpairs(reference, pairs),
    )


# --- theoretical limit statistics ---


def _sine_overlap(mesh: Mesh1D, n: int, m: int) -> float:
    """Quadrature of u_n^2 u_m^2 for the analytic sine eigenvectors."""
    un = math.sqrt(2.0) * np.sin(n * math.pi * mesh.nodes)
    um = math.sqrt(2.0) * np.sin(m * math.pi * mesh.nodes)
    return float(np.sum(mesh.quad_weights * un**2 * um**2))


def inverse_corrector_covariance(mesh: Mesh1D, sigma2: float, n: int, m: int) -> float:
    """Limit covariance of the lambda^-1 correctors: sigma^2 int u_n^2 u_m^2."""
    return sigma2 * _sine_overlap(mesh, n, m)


def eigenvalue_corrector_covariance(
    mesh: Mesh1D, a_star: float, q0: float, sigma2: float, n: int, m: int
) -> float:
    """Limit covariance of the A-eigenvalue correctors: sigma^2 lam_n^2 lam_m^2 int u_n^2 u_m^2."""
    lam_n = 1.0 / (a_star * (n * math.pi) ** 2 + q0)
    lam_m = 1.0 / (a_star * (m * math.pi) ** 2 + q0)
    return sigma2 * lam_n**2 * lam_m**2 * _sine_overlap(mesh, n, m)


def fourier_corrector_variance(
    mesh: Mesh1D, a_star: float, q0: float, sigma2: float, n: int, m: int
) -> float:
    """Limit variance of (u_n^eps - u_n, u_m)/sqrt(eps)."""
    if n == m:
        raise ValueError("diagonal coefficient is second order")
    lam_n = 1.0 / (a_star * (n * math.pi) ** 2 + q0)
    lam_m = 1.0 / (a_star * (m * math.pi) ** 2 + q0)
    factor = lam_n * lam_m / (lam_n - lam_m)
    return sigma2 * factor**2 * _sine_overlap(mesh, n, m)
