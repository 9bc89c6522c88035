"""Spectra of the perturbed and unperturbed operators and their correctors.

Eigenpairs of the Helmholtz operator P + q_eps are computed from its
symmetric tridiagonal FD matrix by Rayleigh-quotient iteration seeded with
the unperturbed pairs, each index certified by a Weyl window (LAPACK
bisection is the fallback).  A `Spectrum` holds the inverse-operator
eigenvalues (the reciprocals) and the interior unit eigenvector rows; a
functional reads a full-mesh, quadrature-normalized row through
`Spectrum.row`.  The rescaled eigenvalue, eigenvector-Fourier, and
heat-coefficient correctors are formed against a discrete unperturbed
reference so that the zero amplitude limit is exact and discretization
bias cancels from the corrector statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import fd_eigenvalue, inverse_eigenvalue
from .greens import Mesh1D, fd_matrix_banded, lapack, lapack_check
from .helmholtz import HelmholtzProblem


@dataclass
class Spectrum:
    """Lowest inverse-operator eigenpairs: lam[k] and the interior unit row v[k].

    `certified` is False when the Weyl-window certificate failed and the
    pairs came from the bisection fallback.
    """

    lam: np.ndarray  # (n_max,), descending
    v: np.ndarray  # (n_max, n_nodes - 2), unit 2-norm
    certified: bool

    def row(self, k: int, mesh: Mesh1D) -> np.ndarray:
        """Eigenvector k on the full mesh: unit quadrature norm, boundary zeros."""
        u = np.zeros(mesh.n_nodes)
        u[1:-1] = self.v[k] / math.sqrt(mesh.h)
        return u


def unperturbed_spectrum(mesh: Mesh1D, a_star: float, q0: float, n_max: int) -> Spectrum:
    """Analytic Dirichlet pairs lambda_n = 1/(a* n^2 pi^2 + q0), u_n = sqrt(2) sin."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    lam = np.array([inverse_eigenvalue(a_star, q0, n) for n in range(1, n_max + 1)])
    n = np.arange(1, n_max + 1)[:, None]
    return Spectrum(lam, math.sqrt(2.0 * mesh.h) * np.sin(n * math.pi * mesh.nodes[1:-1]), True)


# Rayleigh-quotient iteration: residual target and Weyl-window slack in units
# of u * ||T||_inf, and the steps one pair may take before its realization
# falls back to bisection.
_RESIDUAL_TOL = 8.0
_WINDOW_SLACK = 64.0
_RQI_STEPS = 8


def _rayleigh(d: np.ndarray, e: np.ndarray, v: np.ndarray):
    """Rayleigh quotients of the unit rows of v and their residual norms ||T v - theta v||."""
    tv = d * v
    tv[:, 1:] += e * v[:, :-1]
    tv[:, :-1] += e * v[:, 1:]
    theta = (v * tv).sum(axis=1)
    tv -= theta[:, None] * v
    return theta, np.sqrt((tv * tv).sum(axis=1))


def _rqi(d: np.ndarray, e: np.ndarray, seeds: np.ndarray, ulp: float):
    """Rayleigh-quotient iteration on the tridiagonal (d, e) from each unit row of seeds.

    The rows step together until each residual is at most tol =
    _RESIDUAL_TOL ulp, with ulp >= u ||T||_inf; a seed that already meets
    tol comes back unchanged.  A shift that is an eigenvalue to working
    precision meets an exact zero pivot, and that solve is retried once with
    the shift moved by ulp.  Returns (theta, v, residual), or None when a
    solve fails, a step raises a residual, or _RQI_STEPS steps do not reach
    tol.
    """
    tol = _RESIDUAL_TOL * ulp
    v = seeds.copy()
    theta, res = _rayleigh(d, e, v)
    for _ in range(_RQI_STEPS):
        todo = np.flatnonzero(res > tol)
        if todo.size == 0:
            return theta, v, res
        w = np.empty((todo.size, v.shape[1]))
        for i, k in enumerate(todo):
            *_, w[i], info = lapack.dgtsv(e, d - theta[k], e, v[k], overwrite_d=1)
            if info > 0:
                *_, w[i], info = lapack.dgtsv(e, d - (theta[k] + ulp), e, v[k], overwrite_d=1)
            if info != 0:
                return None
        w /= np.sqrt((w * w).sum(axis=1))[:, None]
        step_theta, step_res = _rayleigh(d, e, w)
        if np.any(step_res > res[todo]):
            return None
        v[todo], theta[todo], res[todo] = w, step_theta, step_res
    return None


def _bisection_pairs(d: np.ndarray, e: np.ndarray, n_max: int):
    """Lowest n_max eigenpairs by LAPACK bisection and inverse iteration, as
    scipy's eigh_tridiagonal(select="i") computes them: dstebz in block
    order, dstein, then sorted."""
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    try:
        m, nu, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, n_max, 0.0, "B")
        lapack_check(info, "dstebz")
        nu = nu[:m]
        v, info = lapack.dstein(d, e, nu, iblock, isplit)
        lapack_check(info, "dstein")
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolver failed on tridiagonal matrix (n={d.size}, "
            f"diag range [{d.min():.3e}, {d.max():.3e}])"
        ) from exc
    order = np.argsort(nu)
    return nu[order], v[:, order].T


def _eigenpairs(d, e, seeds, centres, spread):
    """Lowest len(seeds) eigenpairs of (d, e), each index certified by a Weyl window.

    `spread` bounds the 2-norm of the diagonal change from the matrix whose
    eigenvalues are `centres` (len(seeds) + 1 of them, the last may be inf),
    so by Weyl's inequality eigenvalue k lies in window k, centres[k] +-
    spread plus a rounding slack.  When the windows are disjoint, an RQI
    pair whose residual interval [theta - res, theta + res] meets window k
    and neither neighbour holds eigenvalue k and no other.  Returns (nu, v,
    certified) with the rows of v unit vectors; when the windows touch or
    any pair fails, the pairs are `_bisection_pairs` and certified is False.
    """
    ulp = np.finfo(float).eps * (float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e), initial=0.0)))
    radius = spread + _WINDOW_SLACK * ulp  # ulp >= u ||T||_inf
    pairs = None if np.any(np.diff(centres) <= 2.0 * radius) else _rqi(d, e, seeds, ulp)
    if pairs is not None:
        theta, v, res = pairs
        lo, hi = theta - res, theta + res
        own, below, above = centres[:-1], np.append(-np.inf, centres[:-2]), centres[1:]
        if np.all((hi >= own - radius) & (lo <= own + radius) & (lo > below + radius) & (hi < above - radius)):
            return theta, v, True
    return (*_bisection_pairs(d, e, len(seeds)), False)


def _spectrum(nu, v, certified: bool, reference: Spectrum | None = None) -> Spectrum:
    """Inverse-operator pairs from operator eigenvalues nu and interior unit rows v.

    The signs of v are fixed in place: with no reference the first entry is
    made positive, against a reference each row is aligned so that
    v_n^eps . v_n >= 0.  The reference is only read.
    """
    if nu[0] <= 0.0:
        raise ValueError(f"indefinite operator: smallest eigenvalue {nu[0]:.3e}")
    if reference is None:
        v[v[:, 0] < 0.0] *= -1.0
    else:
        v[np.einsum("ij,ij->i", v, reference.v) < 0.0] *= -1.0
    return Spectrum(1.0 / nu, v, certified)


@dataclass
class _Reference(Spectrum):
    """Pairs of the unperturbed FD matrix, read-only, with what brackets a
    realization's RQI (seeded by the rows `v`): the diagonal `d` Weyl's
    inequality compares against, and the n_max + 1 window centres (the
    reference eigenvalues, then the closed-form next one)."""

    d: np.ndarray
    centres: np.ndarray


def discrete_unperturbed_spectrum(mesh: Mesh1D, a_star: float, q0: float, n_max: int) -> Spectrum:
    """Eigenpairs of the unperturbed FD matrix; corrector reference spectrum.

    Its arrays are read-only: every realization of a prepared state shares it.
    """
    if n_max > mesh.n_nodes - 2:
        raise ValueError("n_max exceeds the number of interior nodes")
    ab = fd_matrix_banded(mesh, a_star, q0)
    d, e = ab[1], ab[0, 1:]
    # the FD eigenvectors are the sampled sines; RQI only polishes them
    s = np.sin(np.arange(1, n_max + 1)[:, None] * math.pi * mesh.nodes[1:-1])
    seeds = s / np.sqrt(np.sum(s * s, axis=1))[:, None]
    # window n_max + 1 bounds the pairs from above; past the last mode it is empty
    exact = np.array([fd_eigenvalue(mesh.h, a_star, q0, k) if k < mesh.n_nodes - 1 else math.inf
                      for k in range(1, n_max + 2)])
    nu, v, certified = _eigenpairs(d, e, seeds, exact, 0.0)
    ref = _Reference(_spectrum(nu, v, certified).lam, v, certified, d, np.append(nu, exact[-1]))
    for arr in (ref.lam, v, d, ref.centres):
        arr.flags.writeable = False
    return ref


def perturbed_spectrum(problem: HelmholtzProblem, seed: int, reference) -> Spectrum:
    """Inverse-operator eigenpairs of P + q_eps for one realization, as many
    as `reference` holds.

    RQI runs from the pairs of `reference`, the `discrete_unperturbed_spectrum`
    of the problem's mesh and coefficients.  Weyl's inequality puts the k-th
    eigenvalue within max|q| of the k-th unperturbed one, which certifies
    each pair's index; if any pair fails its window, the whole realization is
    solved by bisection instead (`certified` False).
    """
    ab = fd_matrix_banded(problem.mesh, problem.a_star, problem.q0 + problem.sample_potential(seed))
    d, e = ab[1], ab[0, 1:]
    spread = float(np.max(np.abs(d - reference.d)))
    return _spectrum(*_eigenpairs(d, e, reference.v, reference.centres, spread), reference)


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

    def _matched(self, n: int) -> int:
        """Position of the perturbed pair matched to reference pair n."""
        return self.match.index_map[n - 1]

    def _rows(self, n: int):
        """Full-mesh rows (u_n^eps, u_n) of reference pair n and its match."""
        mesh = self.problem.mesh
        return self.perturbed.row(self._matched(n), mesh), self.reference.row(n - 1, mesh)

    def inverse_eigenvalue_corrector(self, n: int) -> float:
        """((lambda_n^eps)^-1 - lambda_n^-1)/sqrt(eps); limit N(0, sigma^2 int u_n^4)."""
        lam1 = self.perturbed.lam[self._matched(n)]
        return (1.0 / lam1 - 1.0 / self.reference.lam[n - 1]) / self.eta

    def eigenvalue_corrector(self, n: int) -> float:
        """(lambda_n^eps - lambda_n)/sqrt(eps) for the inverse operator A."""
        lam1 = self.perturbed.lam[self._matched(n)]
        return (lam1 - self.reference.lam[n - 1]) / self.eta

    def fourier_corrector(self, n: int, m: int) -> float:
        """(u_n^eps - u_n, u_m)/sqrt(eps); the n = m coefficient is O(eps)."""
        if n == m:
            raise ValueError("diagonal coefficient is second order")
        u1, u0 = self._rows(n)
        mesh = self.problem.mesh
        return mesh.inner(u1 - u0, self.reference.row(m - 1, mesh)) / self.eta

    def diagonal_defect(self, n: int) -> float:
        """1 - (u_n, u_n^eps); mean is O(eps) over the ensemble."""
        return 1.0 - self.problem.mesh.inner(*self._rows(n))

    def heat_corrector(self, n: int, t: float, v0: np.ndarray, epsilon_const: float):
        """Heat Fourier-coefficient corrector: (direct, two-term surrogate).

        The evolution is u_t + epsilon_const * P u = 0; nu_n denotes the
        eigenvalues of P (inverse of the stored spectrum).
        """
        if t < 0:
            raise ValueError("t must be nonnegative")
        inner = self.problem.mesh.inner
        u1, u0 = self._rows(n)
        nu0 = 1.0 / self.reference.lam[n - 1]
        nu1 = 1.0 / self.perturbed.lam[self._matched(n)]
        c0 = inner(u0, v0)
        c1 = inner(u1, v0)
        direct = (math.exp(-epsilon_const * nu1 * t) * c1 - math.exp(-epsilon_const * nu0 * t) * c0) / self.eta
        surrogate = math.exp(-epsilon_const * nu0 * t) * (
            epsilon_const * t * (nu0 - nu1) / self.eta * c0
            + inner(u1 - u0, v0) / self.eta
        )
        return direct, surrogate


def spectral_realization(problem: HelmholtzProblem, seed: int, reference):
    """Solve, match, and wrap one realization's spectra against `reference`,
    the problem's `discrete_unperturbed_spectrum`."""
    perturbed = perturbed_spectrum(problem, seed, reference)
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
    lam_n, lam_m = inverse_eigenvalue(a_star, q0, n), inverse_eigenvalue(a_star, q0, m)
    return sigma2 * lam_n**2 * lam_m**2 * _sine_overlap(mesh, n, m)


def fourier_corrector_variance(
    mesh: Mesh1D, a_star: float, q0: float, sigma2: float, n: int, m: int
) -> float:
    """Limit variance of (u_n^eps - u_n, u_m)/sqrt(eps)."""
    if n == m:
        raise ValueError("diagonal coefficient is second order")
    lam_n, lam_m = inverse_eigenvalue(a_star, q0, n), inverse_eigenvalue(a_star, q0, m)
    factor = lam_n * lam_m / (lam_n - lam_m)
    return sigma2 * factor**2 * _sine_overlap(mesh, n, m)
