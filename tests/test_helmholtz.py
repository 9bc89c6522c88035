"""Perturbed Helmholtz solves, corrector laws, and moment covariances."""

import math

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from corrlab.catalog import CH_B, CH_Q, CH_RHO
from corrlab.elliptic import EllipticProblem1D, coefficient_values, harmonic_mean_half, sample_fields
from corrlab.greens import DiscreteGreenOperator, Mesh1D, Mesh2D, fd_matrix_banded
from corrlab.helmholtz import (
    HelmholtzProblem,
    corrector,
    corrector_law_1d,
    direct_solve_fd,
    dirichlet_solve_fd,
    leading_corrector,
    moment_covariance,
    moment_covariance_2d,
    moment_functionals,
    periodic_cell_corrector_1d,
    perturbed_solve,
    perturbed_solve_2d,
    sigma2_separable_2d,
)
from corrlab.randfield import CorrelatedTripleSpec, MAProcessSpec

SPEC = MAProcessSpec(weights=(0.5, 0.5))

# sigma^2 int G(1/2, y)^2 u0(y)^2 dy with f = 1, a* = 1, q0 = 0:
# the integrand is (1/16) y^4 (1-y)^2 on [0, 1/2], doubled by symmetry
VAR_AT_HALF = (1.0 / 8.0) * (1.0 / 160.0 - 1.0 / 192.0 + 1.0 / 896.0)

# sigma^2 int u0^4 = (1/16) B(5, 5) for the constant moment function
COV_CONST_MOMENT = 1.0 / 10080.0


def _problem(n_nodes=801, epsilon=0.01, q0=0.0, alpha=0.0):
    mesh = Mesh1D(n_nodes=n_nodes)
    return HelmholtzProblem(
        mesh=mesh,
        a_star=1.0,
        q0=q0,
        field_spec=SPEC,
        f=np.ones(mesh.n_nodes),
        epsilon=epsilon,
        alpha=alpha,
    )


def test_homogenized_solution_is_parabola():
    p = _problem(n_nodes=101)
    u0 = p.u0
    # the 3-point stencil is exact for the quadratic x(1-x)/2
    want = p.mesh.nodes * (1.0 - p.mesh.nodes) / 2.0
    assert np.max(np.abs(u0 - want)) < 1e-12


def test_problem_factors_its_green_operator_once(monkeypatch):
    """A problem's FD operator is factored on first use and u0 = G f solved
    once; realizations sharing the problem reuse both."""
    factored = []
    init = DiscreteGreenOperator.__post_init__
    monkeypatch.setattr(DiscreteGreenOperator, "__post_init__", lambda op: factored.append(op) or init(op))
    mesh = Mesh1D(n_nodes=41)
    p = HelmholtzProblem(mesh, 1.5, 0.7, SPEC, np.ones(mesh.n_nodes), 0.1)
    assert factored == []
    f = np.sin(3.0 * mesh.nodes)
    first, u0 = p.apply_green(f), p.u0
    assert np.array_equal(p.apply_green(f), first) and p.u0 is u0
    perturbed_solve(p, seed=3)
    assert len(factored) == 1
    fresh = DiscreteGreenOperator(mesh, fd_matrix_banded(mesh, 1.5, 0.7))
    assert np.array_equal(first, fresh.apply(f)) and np.array_equal(u0, fresh.apply(p.f))
    assert not u0.flags.writeable


def test_perturbed_solve_matches_direct_fd():
    """Fixed-point route equals the banded direct solve of the same matrix."""
    p = _problem(n_nodes=401, epsilon=0.02)
    for seed in range(5):
        sol = perturbed_solve(p, seed=seed, tol=1e-13)
        assert not sol.truncated
        direct = direct_solve_fd(p, p.sample_potential(seed))
        assert np.max(np.abs(sol.u - direct)) < 1e-11


def test_perturbed_solve_q0_positive():
    p = _problem(n_nodes=301, epsilon=0.02, q0=2.0)
    sol = perturbed_solve(p, seed=3, tol=1e-13)
    direct = direct_solve_fd(p, p.sample_potential(3))
    assert np.max(np.abs(sol.u - direct)) < 1e-11


def test_dirichlet_solve_fd_manufactured():
    """-u'' + u = (1 + pi^2) sin(pi x) has solution sin(pi x)."""
    errs = []
    for n in (51, 101, 201):
        mesh = Mesh1D(n_nodes=n)
        f = (1.0 + math.pi**2) * np.sin(math.pi * mesh.nodes)
        u = dirichlet_solve_fd(mesh, 1.0, 1.0, f)
        errs.append(np.max(np.abs(u - np.sin(math.pi * mesh.nodes))))
    # second-order convergence
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def _direct_system(kind: str, n_nodes: int = 3201, seed: int = 5):
    """(mesh, a_half, potential, f) of a direct solve the package makes: the
    Helmholtz oracle with a sampled potential, or the elliptic conservative
    oracle (`elliptic.direct_solve_conservative`) of a sampled triple."""
    if kind == "helmholtz":
        p = _problem(n_nodes=n_nodes, q0=0.5)
        return p.mesh, 1.0, p.q0 + p.sample_potential(seed), np.sin(3.0 * p.mesh.nodes)
    mesh = Mesh1D(n_nodes)
    triple = CorrelatedTripleSpec(weights=([[0.25, 0.25]], [[0.2, 0.2]], [[0.5, 0.5]]))
    p = EllipticProblem1D(mesh, triple, q0=0.5, rho_bar=1.0, f=np.ones(n_nodes), epsilon=0.005)
    fields = sample_fields(p, seed)
    a_half = harmonic_mean_half(coefficient_values(p, fields[CH_B]))
    return mesh, a_half, p.q0 + fields[CH_Q], (p.rho_bar + fields[CH_RHO]) * p.f


@pytest.mark.parametrize("kind", ["helmholtz", "elliptic"])
def test_dirichlet_solve_fd_is_solveh_banded_bit_for_bit(kind):
    """The raw dptsv solve equals scipy's solveh_banded on the package's systems."""
    mesh, a_half, pot, f = _direct_system(kind)
    u = dirichlet_solve_fd(mesh, a_half, pot, f)
    assert u[0] == 0.0 and u[-1] == 0.0
    assert np.array_equal(u[1:-1], solveh_banded(fd_matrix_banded(mesh, a_half, pot), f[1:-1]))


def test_dirichlet_solve_fd_keeps_the_wrapper_checks():
    """An indefinite matrix is a ValueError from LAPACK's info > 0; a nan in the
    matrix or in f raises what solveh_banded raises, before LAPACK runs."""
    mesh, a_half, pot, f = _direct_system("helmholtz", n_nodes=101)
    with pytest.raises(ValueError, match="indefinite operator") as info:
        dirichlet_solve_fd(mesh, a_half, -1e5, f)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    nan_pot, nan_f = pot.copy(), f.copy()
    nan_pot[7] = nan_f[7] = np.nan
    for pot_i, f_i in ((nan_pot, f), (pot, nan_f)):
        with pytest.raises(ValueError) as want:
            solveh_banded(fd_matrix_banded(mesh, a_half, pot_i), f_i[1:-1])
        with pytest.raises(ValueError, match=want.value.args[0]):
            dirichlet_solve_fd(mesh, a_half, pot_i, f_i)


def test_corrector_scaling_alpha():
    # amplitude scale multiplies the sampled potential by epsilon^{-alpha}
    p0 = _problem(epsilon=0.01, alpha=0.0)
    pa = _problem(epsilon=0.01, alpha=0.2)
    q0 = p0.sample_potential(seed=7)
    qa = pa.sample_potential(seed=7)
    assert np.allclose(qa, q0 * 0.01 ** (-0.2), rtol=1e-12)
    assert pa.corrector_scale == pytest.approx(0.01**0.3)
    assert p0.corrector_scale == pytest.approx(0.1)


def test_corrector_definition():
    p = _problem(n_nodes=201, epsilon=0.02)
    sol = perturbed_solve(p, seed=1)
    c = corrector(p, sol)
    assert np.allclose(c, (sol.u - p.u0) / math.sqrt(0.02), rtol=1e-12)


def test_leading_corrector_tracks_full_corrector():
    """First-order term explains the corrector up to O(sqrt(eps))."""
    p = _problem(n_nodes=801, epsilon=0.005)
    sol = perturbed_solve(p, seed=2, tol=1e-13)
    full = corrector(p, sol)
    lead = leading_corrector(p, seed=2)
    gap = np.max(np.abs(full - lead))
    assert gap < 10.0 * math.sqrt(p.epsilon) * np.max(np.abs(lead))


def test_corrector_law_value_at_half():
    p = _problem(n_nodes=1601, epsilon=0.01)
    assert p.sigma2 == pytest.approx(1.0)
    var = corrector_law_1d(p, x_nodes=[0.25, 0.5])
    assert var.shape == (2,)
    assert var[1] == pytest.approx(VAR_AT_HALF, rel=1e-4)
    # quarter point by the same quadrature on the full mesh
    full = corrector_law_1d(p)
    assert var[0] == pytest.approx(full[400], rel=1e-12)


def test_corrector_law_vanishes_at_boundary():
    p = _problem(n_nodes=201)
    var = corrector_law_1d(p)
    assert var.shape == (p.mesh.n_nodes,)
    assert var[0] == 0.0
    assert var[-1] == 0.0
    assert np.all(var >= 0.0)


def test_moment_covariance_constant_function():
    p = _problem(n_nodes=1601)
    mom = (np.ones(p.mesh.n_nodes),)
    cov = moment_covariance(p, mom)
    assert cov.shape == (1, 1)
    assert cov[0, 0] == pytest.approx(COV_CONST_MOMENT, rel=1e-6)


def test_moment_covariance_is_gram_matrix():
    p = _problem(n_nodes=401)
    m1 = np.ones(p.mesh.n_nodes)
    m2 = np.sin(math.pi * p.mesh.nodes)
    cov = moment_covariance(p, (m1, m2))
    assert cov[0, 1] == pytest.approx(cov[1, 0], rel=1e-14)
    # Cauchy-Schwarz strictly for independent functions
    assert cov[0, 1] ** 2 < cov[0, 0] * cov[1, 1]
    evals = np.linalg.eigvalsh(cov)
    assert np.all(evals > 0.0)


def test_moment_functionals_quadrature():
    p = _problem(n_nodes=201, epsilon=0.02)
    sol = perturbed_solve(p, seed=4)
    mom = (np.ones(p.mesh.n_nodes),)
    c = corrector(p, sol)
    got = moment_functionals(p, mom, c)[0]
    assert got == pytest.approx(float(np.sum(p.mesh.quad_weights * c)), rel=1e-14)


def test_periodic_cell_corrector_cosine():
    """-u2'' = <q> - q with q = cos(2 pi x) gives -cos(2 pi x)/(4 pi^2)."""
    mesh = Mesh1D(n_nodes=2049)
    q = np.cos(2 * math.pi * mesh.nodes)
    u2 = periodic_cell_corrector_1d(mesh, q)
    want = -np.cos(2 * math.pi * mesh.nodes) / (4 * math.pi**2)
    assert np.max(np.abs(u2 - want)) < 1e-6
    assert abs(np.sum(mesh.quad_weights * u2)) < 1e-12
    assert np.max(np.abs(u2)) == pytest.approx(1.0 / (4 * math.pi**2), rel=1e-5)


def test_periodic_cell_corrector_constant_is_zero():
    mesh = Mesh1D(n_nodes=129)
    u2 = periodic_cell_corrector_1d(mesh, np.full(mesh.n_nodes, 3.7))
    assert np.max(np.abs(u2)) < 1e-12


def test_periodic_cell_corrector_rejects_nonperiodic():
    mesh = Mesh1D(n_nodes=65)
    with pytest.raises(ValueError):
        periodic_cell_corrector_1d(mesh, mesh.nodes.copy())


def _problem_2d(n_nodes=33, epsilon=0.125, q0=0.0):
    mesh = Mesh2D(n_nodes=n_nodes)
    f = np.ones((n_nodes, n_nodes))
    return HelmholtzProblem(
        mesh=mesh, a_star=1.0, q0=q0, field_spec=SPEC, f=f, epsilon=epsilon
    )


def test_sigma2_separable():
    assert sigma2_separable_2d(SPEC) == pytest.approx(1.0)
    spec = MAProcessSpec(weights=(1.0, 2.0), amplitude=0.5)
    assert sigma2_separable_2d(spec) == pytest.approx(0.25 * 81.0)


def test_perturbed_solve_2d_matches_dense():
    """Fixed point agrees with a dense solve using the same spectral G."""
    p = _problem_2d(n_nodes=17, epsilon=0.25)
    sol = perturbed_solve_2d(p, seed=5, tol=1e-13)
    assert not sol.truncated
    n = p.mesh.n_nodes
    ident = np.eye(n * n)
    gmat = np.array(
        [p.apply_green(col.reshape(n, n)).ravel() for col in ident]
    ).T
    q = p.sample_potential(5).ravel()
    dense = np.linalg.solve(np.eye(n * n) + gmat * q[None, :], gmat @ p.f.ravel())
    assert np.max(np.abs(sol.u.ravel() - dense)) < 1e-10


def test_corrector_scale_2d():
    p = _problem_2d(epsilon=0.1)
    assert p.corrector_scale == pytest.approx(0.1)  # eps^{d/2}, d = 2


def test_moment_covariance_2d_sine_mode():
    """Closed form when the moment function is the first sine mode."""
    p = _problem_2d(n_nodes=65)
    X, Y = np.meshgrid(p.mesh.nodes, p.mesh.nodes, indexing="ij")
    m = np.sin(math.pi * X) * np.sin(math.pi * Y)
    cov = moment_covariance_2d(p, (m,))
    # G m = m / (2 pi^2); Sigma = sigma^2 int (m u0)^2 / (2 pi^2)^2
    u0 = p.u0
    w = p.mesh.quad_weights
    want = float(np.sum(w * (m * u0) ** 2)) / (2 * math.pi**2) ** 2
    assert cov[0, 0] == pytest.approx(want, rel=1e-10)


def test_moment_functionals_2d_pairing():
    p = _problem_2d(n_nodes=17, epsilon=0.25)
    sol = perturbed_solve_2d(p, seed=2)
    m = np.ones((17, 17))
    c = (sol.u - p.u0) / p.corrector_scale
    got = moment_functionals(p, (m,), corrector(p, sol))[0]
    assert got == pytest.approx(float(np.sum(p.mesh.quad_weights * c)), rel=1e-13)


def test_problem_validation():
    mesh = Mesh1D(n_nodes=11)
    ones = np.ones(11)
    with pytest.raises(ValueError):
        HelmholtzProblem(mesh, -1.0, 0.0, SPEC, ones, 0.1)
    with pytest.raises(ValueError):
        HelmholtzProblem(mesh, 1.0, -0.5, SPEC, ones, 0.1)
    with pytest.raises(ValueError):
        HelmholtzProblem(mesh, 1.0, 0.0, SPEC, ones, -0.1)
    with pytest.raises(ValueError):
        HelmholtzProblem(mesh, 1.0, 0.0, SPEC, ones, 0.1, alpha=0.25)
    with pytest.raises(ValueError):
        HelmholtzProblem(mesh, 1.0, 0.0, SPEC, np.ones(7), 0.1)


def test_problem_validation_2d():
    """The unit-square problem gets the checks of the interval problem."""
    mesh = Mesh2D(n_nodes=9)
    ones = np.ones((9, 9))
    HelmholtzProblem(mesh, 1.0, 0.0, SPEC, ones, 0.1)
    with pytest.raises(ValueError, match="truncation_rho"):
        HelmholtzProblem(mesh, 1.0, 0.0, SPEC, ones, 0.1, truncation_rho=1.5)
    bad_f = ones.copy()
    bad_f[4, 4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        HelmholtzProblem(mesh, 1.0, 0.0, SPEC, bad_f, 0.1)
    with pytest.raises(ValueError, match="one value per mesh node"):
        HelmholtzProblem(mesh, 1.0, 0.0, SPEC, np.ones(9), 0.1)
    with pytest.raises(ValueError, match="a_star"):
        HelmholtzProblem(mesh, 2.0, 0.0, SPEC, ones, 0.1)
