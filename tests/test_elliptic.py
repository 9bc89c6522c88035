"""Divergence-form solves in harmonic coordinates and the limit-law kernels."""

import math

import numpy as np
import pytest

from corrlab.elliptic import (
    EllipticProblem1D,
    coefficient_values,
    corrector,
    corrector_kernels,
    direct_solve_conservative,
    driver_correlation,
    driver_covariance,
    harmonic_coords,
    limit_law,
    sample_fields,
    solve_transformed,
    tilde_q,
    transformed_green,
    transformed_green_matrix,
)
from corrlab.greens import Mesh1D
from corrlab.randfield import CorrelatedTripleSpec

TRIPLE = CorrelatedTripleSpec(
    weights=(
        [[0.25, 0.25], [0.0, 0.0]],
        [[0.2, 0.2], [0.2, 0.2]],
        [[0.0, 0.0], [0.5, 0.5]],
    )
)

S_MATRIX = np.array(
    [
        [0.25, 0.20, 0.00],
        [0.20, 0.32, 0.40],
        [0.00, 0.40, 1.00],
    ]
)


def _problem(n_nodes=401, epsilon=0.02, q0=0.5, f=None, rho_bar=1.0):
    mesh = Mesh1D(n_nodes=n_nodes)
    fv = np.ones(mesh.n_nodes) if f is None else f(mesh.nodes)
    return EllipticProblem1D(
        mesh=mesh,
        triple_spec=TRIPLE,
        q0=q0,
        rho_bar=rho_bar,
        f=fv,
        epsilon=epsilon,
    )


def test_harmonic_coords_identity_and_jensen():
    p = _problem(n_nodes=201)
    # constant coefficient: z is the identity map
    coords = harmonic_coords(p, np.ones(p.mesh.n_nodes))
    assert np.max(np.abs(coords.z_eps - p.mesh.nodes)) < 1e-14
    assert coords.length == pytest.approx(1.0)
    # oscillating a = 1/(1 + b): z(1) = 1 + mean(b) by construction
    b = 0.3 * np.sin(2 * math.pi * 5 * p.mesh.nodes)
    coords2 = harmonic_coords(p, coefficient_values(p, b))
    meanb = float(np.sum(p.mesh.quad_weights * b))
    assert coords2.length == pytest.approx(1.0 + meanb, abs=1e-9)
    with pytest.raises(ValueError):
        harmonic_coords(p, -np.ones(p.mesh.n_nodes))


def test_transformed_routes_agree():
    """Banded inverse and kernel-composed quadrature agree to O(h^2)."""
    errs = []
    for n in (101, 201, 401):
        p = _problem(n_nodes=n)
        b = 0.4 * np.sin(2 * math.pi * p.mesh.nodes)
        a_vals = coefficient_values(p, b)
        coords = harmonic_coords(p, a_vals)
        rhs = np.sin(math.pi * p.mesh.nodes)
        apply_g, _ = transformed_green(p, a_vals)
        u_banded = apply_g(rhs)
        u_kernel = transformed_green_matrix(p, coords) @ rhs
        errs.append(np.max(np.abs(u_banded - u_kernel)))
    assert errs[0] / errs[2] > 10.0  # roughly 16 for second order
    assert errs[2] < 5e-5


def test_solve_transformed_matches_conservative_oracle():
    """The fixed-point route reproduces the raw conservative solve."""
    p = _problem(n_nodes=401, epsilon=0.02)
    for seed in range(4):
        sol = solve_transformed(p, seed=seed, tol=1e-13)
        assert not sol.truncated
        fields = sample_fields(p, seed)
        direct = direct_solve_conservative(p, fields)
        assert np.max(np.abs(sol.u - direct)) < 5e-11


def test_tilde_q_definition():
    p = _problem()
    fields = sample_fields(p, 9)
    tq = tilde_q(p, fields)
    want = -fields[0] * p.q0 + fields[2]
    assert np.array_equal(tq, want)


def test_homogenized_solution_closed_form():
    # q0 = 0, rho_bar = 2: u0 = 2 x(1-x)/2 = x(1-x)
    p = _problem(n_nodes=201, q0=0.0, rho_bar=1.0)
    p2 = EllipticProblem1D(
        mesh=p.mesh, triple_spec=TRIPLE, q0=0.0, rho_bar=2.0,
        f=np.ones(p.mesh.n_nodes), epsilon=0.02,
    )
    u0 = p2.u0
    want = p.mesh.nodes * (1.0 - p.mesh.nodes)
    assert np.max(np.abs(u0 - want)) < 1e-12


def test_corrector_scaling():
    p = _problem(n_nodes=201, epsilon=0.04)
    sol = solve_transformed(p, seed=1)
    c = corrector(p, sol)
    assert np.allclose(c, (sol.u - p.u0) / 0.2, rtol=1e-12)


def test_driver_covariance_hand_values():
    p = _problem(q0=0.5)
    cov = driver_covariance(p)
    # T S T^t with T mapping (b, drho, q) -> (b, drho, q0 b - q)
    assert cov[0, 0] == pytest.approx(0.25)
    assert cov[1, 1] == pytest.approx(0.32)
    assert cov[0, 2] == pytest.approx(0.5 * 0.25 - 0.0)
    assert cov[1, 2] == pytest.approx(0.5 * 0.2 - 0.4)
    assert cov[2, 2] == pytest.approx(0.25 * 0.25 - 0.0 + 1.0)
    assert np.allclose(cov, cov.T)
    t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [p.q0, 0.0, -1.0]])
    assert np.allclose(cov, t @ S_MATRIX @ t.T, atol=1e-12)


# closed forms at q0 = 0, a* = 1, rho_bar f = 1:
# jump A(x) = (1 - 2x)/2, B(x,t) = -x(1-t) for t >= x else -t(1-x), C(x) = x/2
def _hb_exact(x, t):
    a = (1.0 - 2.0 * x) / 2.0
    b = -x * (1.0 - t) if t >= x else -t * (1.0 - x)
    c = x / 2.0
    return (a if t < x else 0.0) + b + c


def test_kernels_closed_form_q0_zero():
    p = _problem(n_nodes=801, q0=0.0)
    ker = corrector_kernels(p, x_nodes=[0.25, 0.5])
    assert ker.jump_coeff[0] == pytest.approx(0.25, abs=1e-6)  # A(1/4)
    assert ker.jump_coeff[1] == pytest.approx(0.0, abs=1e-9)  # A(1/2)
    hb = ker.H_b
    for r, x in enumerate((0.25, 0.5)):
        for j, t in enumerate(p.mesh.nodes):
            assert hb[r, j] == pytest.approx(_hb_exact(x, t), abs=1e-6)
    # spot values frozen by hand
    i_quart = 200  # t = 0.25 on the 801-node mesh
    assert hb[1, i_quart] == pytest.approx(0.125, abs=1e-6)
    assert hb[1, 600] == pytest.approx(0.125, abs=1e-6)
    # H_rho = G f, H_q = G u0
    assert ker.H_rho[1, i_quart] == pytest.approx(0.125, abs=1e-12)
    assert ker.H_q[1, 400] == pytest.approx(0.25 * 0.125, abs=1e-9)


def test_kernel_sided_values():
    p = _problem(n_nodes=401, q0=0.0)
    ker = corrector_kernels(p, x_nodes=[0.25])
    left, right = ker.h_b_sided(0, 100)
    # limits of the closed form at t -> x
    assert left == pytest.approx(_hb_exact(0.25, 0.2499999999), abs=1e-6)
    assert right == pytest.approx(_hb_exact(0.25, 0.25), abs=1e-6)
    assert left - right == pytest.approx(ker.jump_coeff[0], rel=1e-12)


def _fd_variation(p, channel, phi, delta=1e-5):
    """Central-difference directional derivative of the conservative solve."""
    zero = np.zeros(p.mesh.n_nodes)
    outs = []
    for s in (delta, -delta):
        vals = [zero, zero, zero]
        vals[channel] = s * phi
        outs.append(direct_solve_conservative(p, vals))
    return (outs[0] - outs[1]) / (2.0 * delta)


def _split_quad(vals, left_at_i, i, h):
    """Trapezoid of a function jumping at node i (one-sided value below)."""
    below = vals[: i + 1].copy()
    below[-1] = left_at_i
    s1 = h * (np.sum(below) - 0.5 * (below[0] + below[-1]))
    above = vals[i:]
    s2 = h * (np.sum(above) - 0.5 * (above[0] + above[-1]))
    return s1 + s2


@pytest.mark.parametrize("q0", [0.0, 1.5])
def test_kernels_are_first_variations(q0):
    """FD directional derivatives match kernel quadratures, all channels."""
    mesh = Mesh1D(n_nodes=2001)
    p = EllipticProblem1D(
        mesh=mesh,
        triple_spec=TRIPLE,
        q0=q0,
        rho_bar=1.0,
        f=np.sin(math.pi * mesh.nodes) + 1.0,
        epsilon=0.01,
    )
    phi = np.cos(2 * math.pi * mesh.nodes) + 0.5 * mesh.nodes
    probes = [0.25, 0.5, 0.8]
    ker = corrector_kernels(p, x_nodes=probes)
    idx = [500, 1000, 1600]
    w = mesh.quad_weights
    # b channel: kernel is H_b + q0 H_q (the potential shift -b q0 rides along)
    v_b = _fd_variation(p, 0, phi)
    # rho channel: +H_rho; q channel: -H_q
    v_rho = _fd_variation(p, 1, phi)
    v_q = _fd_variation(p, 2, phi)
    for r in range(len(probes)):
        i = idx[r]
        # H_b jumps across t = x; integrate each side with its own limit
        vals = (ker.H_b[r] + q0 * ker.H_q[r]) * phi
        left = (ker.h_b_sided(r, i)[0] + q0 * ker.H_q[r, i]) * phi[i]
        pred_b = _split_quad(vals, left, i, mesh.h)
        pred_rho = float(np.sum(w * ker.H_rho[r] * phi))
        pred_q = -float(np.sum(w * ker.H_q[r] * phi))
        assert v_b[i] == pytest.approx(pred_b, abs=2e-6)
        assert v_rho[i] == pytest.approx(pred_rho, abs=2e-6)
        assert v_q[i] == pytest.approx(pred_q, abs=2e-6)


def test_limit_law_degenerate_rho_only():
    """Only the source density fluctuates: variance = sigma_rho^2 int G^2."""
    mesh = Mesh1D(n_nodes=801)
    spec = CorrelatedTripleSpec(
        weights=([[0.0]], [[0.5, 0.5]], [[0.0]]),
        amplitudes=(1.0, 0.9, 1.0),
    )
    p = EllipticProblem1D(
        mesh=mesh, triple_spec=spec, q0=0.0, rho_bar=1.0,
        f=np.ones(mesh.n_nodes), epsilon=0.01,
    )
    var = limit_law(p, x_nodes=[0.5])
    # int G(1/2, t)^2 dt = 1/48; driver variance 0.81
    assert var[0] == pytest.approx(0.81 / 48.0, rel=1e-5)
    assert driver_correlation(p)[0, 1] == 0.0  # degenerate drivers decorrelate by fiat


def test_limit_law_full_triple_properties():
    p = _problem(n_nodes=401, q0=0.5)
    var_0, var_q, _, var_1 = limit_law(p, x_nodes=[0.0, 0.25, 0.5, 1.0])
    assert var_0 == pytest.approx(0.0, abs=1e-12)
    assert var_1 == pytest.approx(0.0, abs=1e-12)
    assert var_q > 0.0
    # correlation matrix consistent with the driver covariance
    cov = driver_covariance(p)
    assert driver_correlation(p)[0, 1] == pytest.approx(cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]))


def test_limit_law_matches_quadratic_form_quadrature():
    """Default-probe law equals a direct dense quadrature of v^t S v."""
    p = _problem(n_nodes=201, q0=0.5)
    var = limit_law(p, x_nodes=[0.5])
    ker = corrector_kernels(p, x_nodes=[0.5])
    cov = driver_covariance(p)
    rows = np.vstack([ker.H_b[0], ker.H_rho[0], ker.H_q[0]])
    vals = np.einsum("jt,jk,kt->t", rows, cov, rows)
    # midpoint splitting only matters at one node; crude check at O(h)
    crude = float(np.sum(p.mesh.quad_weights * vals))
    assert var[0] == pytest.approx(crude, rel=5e-3)


def test_ellipticity_validation():
    mesh = Mesh1D(n_nodes=51)
    ones = np.ones(mesh.n_nodes)
    bad_b = CorrelatedTripleSpec(
        weights=([[0.6, 0.6]], [[0.1]], [[0.1]])
    )
    with pytest.raises(ValueError, match="elliptic"):
        EllipticProblem1D(mesh, bad_b, 0.5, 1.0, ones, 0.1)
    bad_rho = CorrelatedTripleSpec(
        weights=([[0.1]], [[0.8, 0.8]], [[0.1]])
    )
    with pytest.raises(ValueError, match="positive"):
        EllipticProblem1D(mesh, bad_rho, 0.5, 1.0, ones, 0.1)
