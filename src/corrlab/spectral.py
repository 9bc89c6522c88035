"""Spectra of the perturbed and unperturbed operators and their correctors.

Eigenpairs of the Helmholtz operator P + q_eps are computed from its
symmetric tridiagonal FD matrix; a `Spectrum` holds the inverse-operator
eigenvalues (the reciprocals) and the eigenvector rows as two arrays.  The
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

from .greens import Mesh1D, fd_matrix_banded
from .helmholtz import HelmholtzProblem


@dataclass
class Spectrum:
    """Lowest inverse-operator eigenpairs: lam[k] and the row u[k] (unit quadrature norm)."""

    lam: np.ndarray  # (n_max,), descending
    u: np.ndarray  # (n_max, n_nodes), boundary zeros


def _lam(a_star: float, q0: float, n: int) -> float:
    """Continuum eigenvalue 1 / (a* (n pi)^2 + q0) of the inverse operator."""
    return 1.0 / (a_star * (n * math.pi) ** 2 + q0)


def unperturbed_spectrum(mesh: Mesh1D, a_star: float, q0: float, n_max: int) -> Spectrum:
    """Analytic Dirichlet pairs lambda_n = 1/(a* n^2 pi^2 + q0), u_n = sqrt(2) sin."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    lam = np.array([_lam(a_star, q0, n) for n in range(1, n_max + 1)])
    n = np.arange(1, n_max + 1)[:, None]
    return Spectrum(lam, math.sqrt(2.0) * np.sin(n * math.pi * mesh.nodes))


def _spectrum(ab: np.ndarray, mesh: Mesh1D, n_max: int, reference: Spectrum | None = None) -> Spectrum:
    """Lowest n_max eigenpairs of a banded (upper) interior tridiagonal matrix.

    Eigenvectors are quadrature-normalized full-mesh rows (boundary zeros),
    sign-fixed so the first interior entry is positive and, given a
    reference, then aligned so that (u_n^eps, u_n) >= 0.  The reference is
    only read.
    """
    d, e = ab[1], ab[0, 1:]
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
    u = np.zeros((n_max, mesh.n_nodes))
    u[:, 1:-1] = v.T / math.sqrt(mesh.h)
    u[u[:, 1] < 0.0] *= -1.0
    if reference is not None:
        for k in range(n_max):
            if float(np.sum(mesh.quad_weights * u[k] * reference.u[k])) < 0.0:
                u[k] *= -1.0
    return Spectrum(1.0 / nu, u)


@lru_cache(maxsize=8)
def _cached_reference(n_nodes: int, a_star: float, q0: float, n_max: int) -> Spectrum:
    mesh = Mesh1D(n_nodes)
    ref = _spectrum(fd_matrix_banded(mesh, a_star, q0), mesh, n_max)
    # every realization with these coefficients shares this record
    ref.lam.flags.writeable = ref.u.flags.writeable = False
    return ref


def discrete_unperturbed_spectrum(mesh: Mesh1D, a_star: float, q0: float, n_max: int) -> Spectrum:
    """Eigenpairs of the unperturbed FD matrix; corrector reference spectrum."""
    return _cached_reference(mesh.n_nodes, a_star, q0, n_max)


def perturbed_spectrum(problem: HelmholtzProblem, seed: int, n_max: int, reference=None) -> Spectrum:
    """Lowest n_max inverse-operator eigenpairs of P + q_eps for one realization."""
    q = problem.sample_potential(seed)
    ab = fd_matrix_banded(problem.mesh, problem.a_star, problem.q0 + q)
    return _spectrum(ab, problem.mesh, n_max, reference)


def spectral_gaps(lam: np.ndarray) -> np.ndarray:
    """d_n = half the distance from lambda_n to its nearest neighbor in `lam`.

    The last eigenvalue's right neighbor is unknown, so its gap uses the left
    neighbor alone (callers wanting exact end gaps should request one extra
    pair and slice); a single eigenvalue has an infinite gap.
    """
    dist = np.abs(np.diff(lam))
    return 0.5 * np.minimum(np.append(math.inf, dist), np.append(dist, math.inf))


@dataclass
class MatchResult:
    """Greedy eigenvalue matching with spectral-gap violation flags."""

    index_map: np.ndarray  # index_map[n-1] = position of the matched perturbed pair
    flags: np.ndarray  # True where |lam_eps - lam| >= d_n

    @property
    def any_violation(self) -> bool:
        return bool(np.any(self.flags))


def match_eigenpairs(unperturbed: Spectrum, perturbed: Spectrum) -> MatchResult:
    """Nearest-eigenvalue greedy matching within the unperturbed gaps."""
    lam0, lam1 = unperturbed.lam, perturbed.lam
    gaps = spectral_gaps(lam0)
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

    problem: HelmholtzProblem
    reference: Spectrum
    perturbed: Spectrum
    match: MatchResult

    @property
    def eta(self) -> float:
        return math.sqrt(self.problem.epsilon)

    def _matched(self, n: int):
        """(lambda, u) of the perturbed pair matched to reference pair n."""
        j = self.match.index_map[n - 1]
        return self.perturbed.lam[j], self.perturbed.u[j]

    def inverse_eigenvalue_corrector(self, n: int) -> float:
        """((lambda_n^eps)^-1 - lambda_n^-1)/sqrt(eps); limit N(0, sigma^2 int u_n^4)."""
        lam1, _ = self._matched(n)
        return (1.0 / lam1 - 1.0 / self.reference.lam[n - 1]) / self.eta

    def eigenvalue_corrector(self, n: int) -> float:
        """(lambda_n^eps - lambda_n)/sqrt(eps) for the inverse operator A."""
        lam1, _ = self._matched(n)
        return (lam1 - self.reference.lam[n - 1]) / self.eta

    def fourier_corrector(self, n: int, m: int) -> float:
        """(u_n^eps - u_n, u_m)/sqrt(eps); the n = m coefficient is O(eps)."""
        if n == m:
            raise ValueError("diagonal coefficient is second order")
        w = self.problem.mesh.quad_weights
        du = self._matched(n)[1] - self.reference.u[n - 1]
        return float(np.sum(w * du * self.reference.u[m - 1])) / self.eta

    def diagonal_defect(self, n: int) -> float:
        """1 - (u_n, u_n^eps); mean is O(eps) over the ensemble."""
        w = self.problem.mesh.quad_weights
        return 1.0 - float(np.sum(w * self._matched(n)[1] * self.reference.u[n - 1]))

    def heat_corrector(self, n: int, t: float, v0: np.ndarray, epsilon_const: float = 1.0):
        """Heat Fourier-coefficient corrector: (direct, two-term surrogate).

        The evolution is u_t + epsilon_const * P u = 0; nu_n denotes the
        eigenvalues of P (inverse of the stored spectrum).
        """
        if t < 0:
            raise ValueError("t must be nonnegative")
        w = self.problem.mesh.quad_weights
        lam1, u1 = self._matched(n)
        u0 = self.reference.u[n - 1]
        nu0 = 1.0 / self.reference.lam[n - 1]
        nu1 = 1.0 / lam1
        c0 = float(np.sum(w * u0 * v0))
        c1 = float(np.sum(w * u1 * v0))
        direct = (math.exp(-epsilon_const * nu1 * t) * c1 - math.exp(-epsilon_const * nu0 * t) * c0) / self.eta
        surrogate = math.exp(-epsilon_const * nu0 * t) * (
            epsilon_const * t * (nu0 - nu1) / self.eta * c0
            + float(np.sum(w * (u1 - u0) * v0)) / self.eta
        )
        return direct, surrogate


def spectral_realization(problem: HelmholtzProblem, seed: int, n_max: int) -> SpectralRealization:
    """Solve, match, and wrap one realization's spectra."""
    reference = discrete_unperturbed_spectrum(problem.mesh, problem.a_star, problem.q0, n_max)
    perturbed = perturbed_spectrum(problem, seed, n_max, reference)
    return SpectralRealization(problem, reference, perturbed, match_eigenpairs(reference, perturbed))


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
    lam_n, lam_m = _lam(a_star, q0, n), _lam(a_star, q0, m)
    return sigma2 * lam_n**2 * lam_m**2 * _sine_overlap(mesh, n, m)


def fourier_corrector_variance(
    mesh: Mesh1D, a_star: float, q0: float, sigma2: float, n: int, m: int
) -> float:
    """Limit variance of (u_n^eps - u_n, u_m)/sqrt(eps)."""
    if n == m:
        raise ValueError("diagonal coefficient is second order")
    lam_n, lam_m = _lam(a_star, q0, n), _lam(a_star, q0, m)
    factor = lam_n * lam_m / (lam_n - lam_m)
    return sigma2 * factor**2 * _sine_overlap(mesh, n, m)
