"""The Bessel kernel table, radial profiles, and the dimension-dependent variance."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from corrlab.asymptotics import (
    BESSEL_J,
    RadialSetup,
    gaussian_r,
    gaussian_rhat,
    grid_size,
    profile_at_zero,
    quartic_tail_integral,
    radial_profile,
    scaling_study,
    space_profile_l2,
    surface_area,
    variance_fourier,
)

XS = np.array([1e-9, 1e-4, 0.5, 3.0, 15.9, 16.1, 50.0, 200.0])


def test_bessel_matches_scipy():
    """BESSEL_J[d] is J_{d/2-1} for every supported dimension."""
    assert sorted(BESSEL_J) == list(range(1, 7))
    for d, bessel in BESSEL_J.items():
        want = scipy.special.jv(d / 2.0 - 1.0, XS)
        assert np.allclose(bessel(XS), want, rtol=1e-13, atol=1e-15), d


def test_grid_size_counts_the_bessel_values_of_the_master_grid():
    setup = RadialSetup(dimension=3)
    variance_fourier(setup, 0.0056)
    assert setup._grid["rho"].size * 16 == grid_size(1.0, 13.0, 0.0056) == 756_736
    # at alpha 1e-9 a panel of width pi/(4 alpha) would start past s_max/eps: the width
    # is capped so that 8 panels lie below it, also after a smaller epsilon's grid
    tiny = RadialSetup(dimension=1, alpha=1e-9)
    for eps in (0.0056, 0.2):
        variance_fourier(tiny, eps)
        assert np.sum(tiny._grid["rho"] < 13.0 / eps) == tiny._grid["rho"].size == 8 * 16
        assert tiny._grid["rho"].size * 16 == grid_size(1e-9, 13.0, eps)


def test_surface_area_frozen():
    assert surface_area(1) == pytest.approx(2.0)
    assert surface_area(2) == pytest.approx(2 * math.pi)
    assert surface_area(3) == pytest.approx(4 * math.pi)
    assert surface_area(4) == pytest.approx(2 * math.pi**2)
    assert surface_area(5) == pytest.approx(8 * math.pi**2 / 3)
    assert surface_area(6) == pytest.approx(math.pi**3)


def test_profile_at_zero():
    # Hhat(0) = int |x|^{2-d} over the alpha ball = S_{d-1} alpha^2/2
    for d in range(1, 7):
        s = RadialSetup(dimension=d, alpha=0.7)
        assert profile_at_zero(s) == pytest.approx(surface_area(d) * 0.49 / 2)


# closed transforms of |x|^{2-d} 1(|x| <= alpha); X = rho * alpha
def _hhat_exact(d, alpha, rho):
    X = rho * alpha
    if d == 1:
        return 2.0 * (math.cos(X) - 1.0 + X * math.sin(X)) / rho**2
    if d == 2:
        return 2 * math.pi * alpha * scipy.special.j1(X) / rho
    if d == 3:
        return 4 * math.pi * (1.0 - math.cos(X)) / rho**2
    if d == 4:
        return 4 * math.pi**2 * (1.0 - scipy.special.j0(X)) / rho**2
    if d == 5:
        return 8 * math.pi**2 * (1.0 - math.sin(X) / X) / rho**2
    return 8 * math.pi**3 * (0.5 - scipy.special.j1(X) / X) / rho**2


def test_exact_transforms_against_radial_reduction():
    """Anchor the closed forms on scipy's Bessel + adaptive quadrature."""
    alpha = 1.0
    for d in range(1, 7):
        nu = d / 2.0 - 1.0
        for rho in (0.7, 3.3):
            val, err = scipy.integrate.quad(
                lambda r: scipy.special.jv(nu, rho * r) * r ** (2.0 - d / 2.0),
                0.0,
                alpha,
            )
            want = (2 * math.pi) ** (d / 2.0) * rho ** (1.0 - d / 2.0) * val
            assert _hhat_exact(d, alpha, rho) == pytest.approx(want, rel=1e-9), d


def test_radial_profile_matches_closed_forms():
    for d in range(1, 7):
        for alpha in (1.0, 0.6):
            prof = radial_profile(RadialSetup(dimension=d, alpha=alpha))
            for rho in (0.31, 1.0, 4.7, 20.0):
                assert prof(rho) == pytest.approx(
                    _hhat_exact(d, alpha, rho), rel=1e-9, abs=1e-12
                ), (d, rho)
            # continuity into the origin
            assert prof(1e-13) == pytest.approx(
                profile_at_zero(RadialSetup(dimension=d, alpha=alpha))
            )
    with pytest.raises(ValueError):
        radial_profile(RadialSetup(dimension=2))(-1.0)


def test_variance_fourier_against_space_side_d1():
    """Parseval: the Fourier quadrature equals the direct space integral."""
    setup = RadialSetup(dimension=1)
    for eps in (0.1, 0.05):
        want, err = scipy.integrate.dblquad(
            lambda z, y: abs(y) * abs(z) * gaussian_r((y - z) / eps),
            -1.0,
            1.0,
            -1.0,
            1.0,
            epsabs=1e-12,
        )
        got = variance_fourier(setup, eps)
        assert got == pytest.approx(want, rel=1e-6)
    with pytest.raises(ValueError):
        variance_fourier(setup, 0.0)


def test_space_profile_l2_closed_form_and_parseval():
    # int H^2 = S_{d-1} alpha^{4-d}/(4-d)
    assert space_profile_l2(RadialSetup(dimension=1)) == pytest.approx(2.0 / 3.0)
    assert space_profile_l2(RadialSetup(dimension=2)) == pytest.approx(math.pi)
    assert space_profile_l2(RadialSetup(dimension=3)) == pytest.approx(4 * math.pi)
    with pytest.raises(ValueError):
        space_profile_l2(RadialSetup(dimension=4))
    # (2pi)^-d S_{d-1} int Hhat^2 rho^{d-1} recovers the space norm
    for d in (1, 2):
        val, _ = scipy.integrate.quad(
            lambda rho: _hhat_exact(d, 1.0, rho) ** 2 * rho ** (d - 1),
            1e-9,
            4000.0,
            limit=4000,
        )
        got = (2 * math.pi) ** (-d) * surface_area(d) * val
        assert got == pytest.approx(space_profile_l2(RadialSetup(dimension=d)), rel=1e-3)


def test_variance_low_dimension_limit():
    """variance / eps^d -> Rhat(0) * int H^2 for d <= 3."""
    for d in (1, 2, 3):
        setup = RadialSetup(dimension=d)
        v = variance_fourier(setup, 0.005)
        assert v / 0.005**d == pytest.approx(
            space_profile_l2(setup), rel=0.02
        ), d


def test_quartic_tail_closed_forms():
    # d = 5: S_4 int exp(-s^2/2) ds = (8 pi^2/3) sqrt(pi/2)
    got5 = quartic_tail_integral(RadialSetup(dimension=5))
    assert got5 == pytest.approx(
        (8 * math.pi**2 / 3) * math.sqrt(math.pi / 2), rel=1e-10
    )
    # d = 6: S_5 int s exp(-s^2/2) ds = pi^3
    got6 = quartic_tail_integral(RadialSetup(dimension=6))
    assert got6 == pytest.approx(math.pi**3, rel=1e-10)
    with pytest.raises(ValueError):
        quartic_tail_integral(RadialSetup(dimension=4))


def test_gaussian_transform_pair():
    assert gaussian_rhat(0.0) == 1.0
    # scipy quad inverts the 1D transform at a spot value
    tau = 0.8
    val, _ = scipy.integrate.quad(
        lambda rho: math.cos(tau * rho) * gaussian_rhat(rho) / (2 * math.pi),
        -20.0,
        20.0,
    )
    assert gaussian_r(tau) == pytest.approx(val, rel=1e-10)


def test_scaling_study_input_guards_and_d1_slope():
    setup = RadialSetup(dimension=1)
    with pytest.raises(ValueError):
        scaling_study(setup, [0.1, 0.05, 0.025])
    with pytest.raises(ValueError):
        scaling_study(setup, [0.1, 0.09, 0.08, 0.07])
    # pre-asymptotic O(eps) corrections bias the d = 1 exponent low
    curve = scaling_study(setup, [0.2, 0.09, 0.03, 0.012, 0.0056])
    assert curve.fit_plain.slope == pytest.approx(1.0, abs=0.1)
    assert len(curve.pairs) == 5
    # pairs are (eps, value) with eps descending
    eps_seq = [e for e, _ in curve.pairs]
    assert eps_seq == sorted(eps_seq, reverse=True)


def test_setup_validation():
    with pytest.raises(ValueError):
        RadialSetup(dimension=0)
    with pytest.raises(ValueError):
        RadialSetup(dimension=7)
    with pytest.raises(ValueError):
        RadialSetup(dimension=2, alpha=0.0)
