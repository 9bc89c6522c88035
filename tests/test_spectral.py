"""Spectra, eigen matching, and corrector functionals."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from corrlab import greens, spectral
from corrlab.greens import Mesh1D, fd_matrix_banded
from corrlab.helmholtz import HelmholtzProblem
from corrlab.randfield import MAProcessSpec
from corrlab.spectral import (
    MatchResult,
    _bisection_pairs,
    Spectrum,
    discrete_unperturbed_spectrum,
    eigenvalue_corrector_covariance,
    fourier_corrector_variance,
    inverse_corrector_covariance,
    match_eigenpairs,
    perturbed_spectrum,
    spectral_gaps,
    spectral_realization,
    unperturbed_spectrum,
)

SPEC = MAProcessSpec(weights=(0.5, 0.5))
SPEC_ZERO = MAProcessSpec(weights=(0.5, 0.5), amplitude=0.0)

# frozen limits for sigma^2 = 1 sine modes: int u_n^4 = 3/2, int u_n^2 u_m^2 = 1
OVERLAP_DIAG = 1.5
OVERLAP_OFF = 1.0
FOURIER_12_VAR = 1.0 / (9.0 * math.pi**4)


def _helm(n_nodes=201, epsilon=0.01, q0=0.0, spec=SPEC):
    mesh = Mesh1D(n_nodes=n_nodes)
    return HelmholtzProblem(
        mesh=mesh, a_star=1.0, q0=q0, field_spec=spec,
        f=np.ones(mesh.n_nodes), epsilon=epsilon,
    )


def _realization(problem, seed, n_max):
    ref = discrete_unperturbed_spectrum(problem.mesh, problem.a_star, problem.q0, n_max)
    return spectral_realization(problem, seed, ref)


def test_unperturbed_spectrum_closed_form():
    mesh = Mesh1D(n_nodes=401)
    spec = unperturbed_spectrum(mesh, a_star=2.0, q0=3.0, n_max=4)
    assert spec.lam.shape == (4,) and spec.v.shape == (4, mesh.n_nodes - 2)
    for n, lam in enumerate(spec.lam, start=1):
        assert lam == pytest.approx(1.0 / (2.0 * (n * math.pi) ** 2 + 3.0))
        # unit quadrature norm
        u = spec.row(n - 1, mesh)
        assert float(np.sum(mesh.quad_weights * u**2)) == pytest.approx(1.0, rel=1e-4)
    with pytest.raises(ValueError):
        unperturbed_spectrum(mesh, 1.0, 0.0, 0)


def test_discrete_spectrum_matches_fd_eigenvalue_formula():
    """nu_n = (4a/h^2) sin^2(n pi h / 2) + q0 for the 3-point stencil."""
    mesh = Mesh1D(n_nodes=101)
    a, q0 = 1.5, 2.0
    spec = discrete_unperturbed_spectrum(mesh, a, q0, n_max=5)
    h = mesh.h
    for n, lam in enumerate(spec.lam, start=1):
        u = spec.row(n - 1, mesh)
        nu = 4.0 * a / (h * h) * math.sin(n * math.pi * h / 2.0) ** 2 + q0
        assert 1.0 / lam == pytest.approx(nu, rel=1e-12)
        # eigenvectors stay the sampled sines up to normalization sign
        want = math.sqrt(2.0) * np.sin(n * math.pi * mesh.nodes)
        overlap = float(np.sum(mesh.quad_weights * u * want))
        assert abs(overlap) == pytest.approx(1.0, rel=1e-3)
        assert u[1] > 0.0
    # the cached reference is shared, so it is read-only
    assert not spec.lam.flags.writeable and not spec.v.flags.writeable


def test_discrete_spectrum_converges_to_continuum():
    errs = []
    for n_nodes in (51, 101, 201):
        mesh = Mesh1D(n_nodes=n_nodes)
        d = discrete_unperturbed_spectrum(mesh, 1.0, 0.0, 3)
        c = unperturbed_spectrum(mesh, 1.0, 0.0, 3)
        errs.append(np.max(np.abs(d.lam - c.lam)))
    assert errs[0] / errs[2] == pytest.approx(16.0, rel=0.15)


def test_zero_amplitude_correctors_vanish():
    p = _helm(spec=SPEC_ZERO)
    r = _realization(p, 3, 3)
    assert not r.match.any_violation
    for n in (1, 2, 3):
        assert r.inverse_eigenvalue_corrector(n) == 0.0
        assert r.eigenvalue_corrector(n) == 0.0
        assert r.diagonal_defect(n) == pytest.approx(0.0, abs=1e-13)
    assert r.fourier_corrector(1, 2) == pytest.approx(0.0, abs=1e-13)


def test_corrector_identities():
    p = _helm(epsilon=0.02)
    r = _realization(p, 7, 3)
    for n in (1, 2, 3):
        lam0 = r.reference.lam[n - 1]
        lam1 = r.perturbed.lam[r.match.index_map[n - 1]]
        inv = r.inverse_eigenvalue_corrector(n)
        ev = r.eigenvalue_corrector(n)
        # exact algebraic relation between the two correctors
        assert ev == pytest.approx(-inv * lam0 * lam1, rel=1e-12)
    with pytest.raises(ValueError):
        r.fourier_corrector(2, 2)


def test_fourier_corrector_antisymmetry():
    """Leading order: (du_n, u_m) = -(du_m, u_n) for small amplitude."""
    spec = MAProcessSpec(weights=(0.5, 0.5), amplitude=1e-4)
    p = _helm(n_nodes=401, spec=spec)
    r = _realization(p, 5, 3)
    c12 = r.fourier_corrector(1, 2)
    c21 = r.fourier_corrector(2, 1)
    assert c12 == pytest.approx(-c21, abs=5e-4 * max(1.0, abs(c12)))


def test_spectral_gaps_hand_values():
    gaps = spectral_gaps(np.array([1.0, 0.5, 0.4]))
    assert np.allclose(gaps, [0.25, 0.05, 0.05])
    assert spectral_gaps(np.array([1.0]))[0] == math.inf


def test_match_eigenpairs_identity_and_violation():
    mesh = Mesh1D(n_nodes=101)
    ref = discrete_unperturbed_spectrum(mesh, 1.0, 0.0, 4)
    m = match_eigenpairs(ref, ref)
    assert isinstance(m, MatchResult)
    assert np.array_equal(m.index_map, np.arange(4))
    assert not m.any_violation
    # shift every eigenvalue beyond its own half gap: all flagged
    m2 = match_eigenpairs(ref, Spectrum(ref.lam + 10.0, ref.v, True))
    assert m2.any_violation
    assert np.all(m2.flags)


def test_overlap_covariances_frozen():
    mesh = Mesh1D(n_nodes=2001)
    assert inverse_corrector_covariance(mesh, 1.0, 1, 1) == pytest.approx(
        OVERLAP_DIAG, rel=1e-6
    )
    assert inverse_corrector_covariance(mesh, 1.0, 1, 2) == pytest.approx(
        OVERLAP_OFF, rel=1e-6
    )
    assert inverse_corrector_covariance(mesh, 0.5, 2, 2) == pytest.approx(
        0.5 * OVERLAP_DIAG, rel=1e-6
    )
    # A-eigenvalue correctors carry lam_n^2 lam_m^2
    lam1 = 1.0 / math.pi**2
    lam2 = 1.0 / (4 * math.pi**2)
    assert eigenvalue_corrector_covariance(mesh, 1.0, 0.0, 1.0, 1, 2) == pytest.approx(
        lam1**2 * lam2**2 * OVERLAP_OFF, rel=1e-6
    )


def test_fourier_variance_frozen():
    mesh = Mesh1D(n_nodes=2001)
    got = fourier_corrector_variance(mesh, 1.0, 0.0, 1.0, 1, 2)
    assert got == pytest.approx(FOURIER_12_VAR, rel=1e-6)
    assert FOURIER_12_VAR == pytest.approx(1.14066e-3, rel=1e-4)
    with pytest.raises(ValueError):
        fourier_corrector_variance(mesh, 1.0, 0.0, 1.0, 2, 2)


def test_heat_corrector_t_zero_and_linearization():
    p = _helm(n_nodes=201)
    v0 = np.sin(math.pi * p.mesh.nodes) + 0.3 * np.sin(2 * math.pi * p.mesh.nodes)
    r = _realization(p, 4, 2)
    d0, s0 = r.heat_corrector(1, 0.0, v0, 1.0)
    assert d0 == pytest.approx(s0, rel=1e-12)
    with pytest.raises(ValueError):
        r.heat_corrector(1, -1.0, v0, 1.0)
    # surrogate is the first-order expansion: gap shrinks quadratically in amp
    gaps = []
    for amp in (1e-2, 1e-3):
        spec = MAProcessSpec(weights=(0.5, 0.5), amplitude=amp)
        ra = _realization(_helm(n_nodes=201, spec=spec), 4, 2)
        d, s = ra.heat_corrector(1, 0.7, v0, epsilon_const=2.0)
        gaps.append(abs(d - s))
    assert gaps[0] / gaps[1] == pytest.approx(100.0, rel=0.3)


def test_heat_corrector_decay_scale():
    """epsilon_const rescales time in both routes identically."""
    p = _helm(n_nodes=201)
    v0 = np.sin(math.pi * p.mesh.nodes)
    r = _realization(p, 6, 1)
    d1, s1 = r.heat_corrector(1, 2.0, v0, epsilon_const=1.0)
    d2, s2 = r.heat_corrector(1, 1.0, v0, epsilon_const=2.0)
    assert d1 == pytest.approx(d2, rel=1e-12)
    assert s1 == pytest.approx(s2, rel=1e-12)


def _bisection(problem, seed, n_max, reference):
    """The bisection route: eigh_tridiagonal pairs as full-mesh rows, sign-fixed
    and aligned in quadrature with the reference rows."""
    mesh = problem.mesh
    ab = fd_matrix_banded(mesh, problem.a_star, problem.q0 + problem.sample_potential(seed))
    nu, v = eigh_tridiagonal(ab[1], ab[0, 1:], select="i", select_range=(0, n_max - 1))
    u = np.zeros((n_max, mesh.n_nodes))
    u[:, 1:-1] = v.T / math.sqrt(mesh.h)
    u[u[:, 1] < 0.0] *= -1.0
    for k in range(n_max):
        if float(np.sum(mesh.quad_weights * u[k] * reference.row(k, mesh))) < 0.0:
            u[k] *= -1.0
    return 1.0 / nu, u


def _rows(spec, mesh):
    return np.array([spec.row(k, mesh) for k in range(spec.lam.size)])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    amplitude=st.floats(0.0, 1.0),
    n_nodes=st.integers(11, 801),
    n_max=st.integers(1, 8),
    q0=st.sampled_from([0.0, 2.5]),
)
def test_certified_spectrum_matches_bisection(seed, amplitude, n_nodes, n_max, q0):
    n_max = min(n_max, n_nodes - 2)
    p = _helm(n_nodes=n_nodes, epsilon=0.05, q0=q0, spec=MAProcessSpec(weights=(0.5, 0.5), amplitude=amplitude))
    ref = discrete_unperturbed_spectrum(p.mesh, p.a_star, p.q0, n_max)
    got = perturbed_spectrum(p, seed, ref)
    lam, u = _bisection(p, seed, n_max, ref)
    got_u = _rows(got, p.mesh)
    if got.certified:
        assert np.allclose(1.0 / got.lam, 1.0 / lam, rtol=1e-9, atol=0.0)
        for k in range(n_max):
            assert np.max(np.abs(got_u[k] - u[k])) <= 1e-8 * np.max(np.abs(u[k]))
    else:  # a window miss: the realization is solved by bisection
        assert np.array_equal(got.lam, lam) and np.array_equal(got_u, u)


def test_default_field_realizations_are_certified():
    """max|q| = 1 keeps every window far inside the 3 pi^2 gap."""
    p = _helm(n_nodes=401)
    ref = discrete_unperturbed_spectrum(p.mesh, p.a_star, p.q0, 8)
    assert all(perturbed_spectrum(p, seed, ref).certified for seed in range(20))


def test_overlapping_windows_fall_back_to_bisection():
    """max|q| past half the nu_1-nu_2 gap (3 pi^2 / 2): no window certifies."""
    p = _helm(n_nodes=201, q0=40.0, spec=MAProcessSpec(weights=(0.5, 0.5), amplitude=16.0))
    assert np.max(np.abs(p.sample_potential(3))) == 16.0
    ref = discrete_unperturbed_spectrum(p.mesh, p.a_star, p.q0, 3)
    got = perturbed_spectrum(p, 3, ref)
    assert got.certified is False
    lam, u = _bisection(p, 3, 3, ref)
    assert np.array_equal(got.lam, lam) and np.array_equal(_rows(got, p.mesh), u)


def test_zero_amplitude_returns_the_reference_pairs():
    p = _helm(spec=SPEC_ZERO)
    ref = discrete_unperturbed_spectrum(p.mesh, p.a_star, p.q0, 4)
    got = perturbed_spectrum(p, 11, ref)
    assert got.certified and ref.certified
    assert np.array_equal(got.lam, ref.lam) and np.array_equal(got.v, ref.v)


@pytest.mark.parametrize("n_nodes", [57, 58, 801])
def test_discrete_spectrum_of_every_interior_mode(n_nodes):
    """n_max up to the interior size: the top sampled sines sit at the residual floor."""
    mesh = Mesh1D(n_nodes=n_nodes)
    n_max = min(n_nodes - 2, 60)
    spec = discrete_unperturbed_spectrum(mesh, 1.0, 1.0, n_max)
    h = mesh.h
    nu = [4.0 / (h * h) * math.sin(n * math.pi * h / 2.0) ** 2 + 1.0 for n in range(1, n_max + 1)]
    assert np.allclose(1.0 / spec.lam, nu, rtol=1e-12, atol=0.0)
    p = _helm(n_nodes=n_nodes, q0=1.0)
    got = perturbed_spectrum(p, 2, spec)
    lam, _ = _bisection(p, 2, n_max, spec)
    assert np.allclose(got.lam, lam, rtol=1e-9, atol=0.0)


def test_exact_zero_pivot_keeps_the_reference_certified():
    """At 58 nodes the top Rayleigh shift is an eigenvalue to working precision,
    so dgtsv meets an exact zero pivot; the solve retried one ulp away certifies it."""
    mesh = Mesh1D(58)
    ref = discrete_unperturbed_spectrum(mesh, 1.0, 1.0, 56)
    assert ref.certified
    ab = fd_matrix_banded(mesh, 1.0, 1.0)
    nu, v = _bisection_pairs(ab[1], ab[0, 1:], 56)
    assert np.allclose(1.0 / ref.lam, nu, rtol=1e-12, atol=0.0)
    assert np.allclose(np.abs(np.sum(v * ref.v, axis=1)), 1.0, rtol=0.0, atol=1e-12)


def test_bisection_pairs_are_eigh_tridiagonal_bit_for_bit():
    """The raw dstebz/dstein route equals scipy's eigh_tridiagonal(select="i") on
    a perturbed spectral matrix at 3,199 nodes."""
    p = _helm(n_nodes=3199, epsilon=0.0025, q0=1.0)
    ab = fd_matrix_banded(p.mesh, p.a_star, p.q0 + p.sample_potential(4))
    nu, v = _bisection_pairs(ab[1], ab[0, 1:], 8)
    want_nu, want_v = eigh_tridiagonal(ab[1], ab[0, 1:], select="i", select_range=(0, 7))
    assert np.array_equal(nu, want_nu) and np.array_equal(v, want_v.T)


class _Info:
    """greens.lapack with one routine's returned info replaced."""

    def __init__(self, routine, info):
        self.routine, self.info = routine, info

    def __getattr__(self, name):
        fn = getattr(greens.lapack, name)
        return (lambda *args: (*fn(*args)[:-1], self.info)) if name == self.routine else fn


def test_bisection_pairs_keep_the_wrapper_checks(monkeypatch):
    """A nan raises what eigh_tridiagonal raises; a LAPACK failure (info > 0),
    dstein's non-convergence included, reaches the RuntimeError, and an illegal
    argument (info < 0) is a ValueError."""
    ab = fd_matrix_banded(Mesh1D(58), 1.0, 1.0)
    d, e = ab[1].copy(), ab[0, 1:]
    d[3] = np.nan
    with pytest.raises(ValueError) as want:
        eigh_tridiagonal(d, e, select="i", select_range=(0, 3))
    with pytest.raises(ValueError, match=want.value.args[0]):
        _bisection_pairs(d, e, 4)
    for routine in ("dstebz", "dstein"):
        monkeypatch.setattr(spectral, "lapack", _Info(routine, 2))
        with pytest.raises(RuntimeError, match="eigensolver failed") as info:
            _bisection_pairs(ab[1], ab[0, 1:], 4)
        assert f"{routine} failed" in str(info.value.__cause__)
        monkeypatch.setattr(spectral, "lapack", _Info(routine, -4))
        with pytest.raises(ValueError, match=f"argument 4 of internal {routine}"):
            _bisection_pairs(ab[1], ab[0, 1:], 4)


def _reference(monkeypatch, problem, n_max, certified):
    """The problem's reference, by RQI or (RQI disabled while it is built) by bisection."""
    if not certified:
        monkeypatch.setattr(spectral, "_rqi", lambda *args: None)
    ref = discrete_unperturbed_spectrum(problem.mesh, problem.a_star, problem.q0, n_max)
    monkeypatch.undo()
    assert ref.certified is certified
    return ref


@pytest.mark.parametrize("certified", [True, False])
def test_signs_are_fixed_once_on_the_interior_rows(monkeypatch, certified):
    """A reference row starts positive (LAPACK's bisection rows need not), and
    every realization row has a positive quadrature product with its reference row."""
    p = _helm(n_nodes=201, epsilon=0.02)
    ref = _reference(monkeypatch, p, 8, certified)
    assert np.all(ref.v[:, 0] > 0.0)
    assert all(ref.row(k, p.mesh)[1] > 0.0 for k in range(8))
    for seed in range(10):
        got = perturbed_spectrum(p, seed, ref)
        assert got.certified
        assert all(p.mesh.inner(got.row(k, p.mesh), ref.row(k, p.mesh)) > 0.0 for k in range(8))


@pytest.mark.parametrize("certified", [True, False])
def test_negated_reference_rows_move_no_bits(monkeypatch, certified):
    """RQI from a negated seed returns the negated pair: a reference with some
    rows negated (as LAPACK's bisection signs may be) gives the same eigenvalues
    and the same rows, up to the sign the reference row sets."""
    p = _helm(n_nodes=201, epsilon=0.02)
    ref = _reference(monkeypatch, p, 8, certified)
    sign = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    flipped = dataclasses.replace(ref, v=sign[:, None] * ref.v)
    for seed in range(10):
        got, alt = perturbed_spectrum(p, seed, ref), perturbed_spectrum(p, seed, flipped)
        assert got.certified and alt.certified
        assert np.array_equal(alt.lam, got.lam)
        for k in range(8):
            assert np.array_equal(alt.row(k, p.mesh), sign[k] * got.row(k, p.mesh))
