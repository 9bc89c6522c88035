"""Closed-form Green kernels, their partials, and the discrete inverses."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.fft import dstn
from scipy.linalg import cholesky_banded

from corrlab.catalog import CH_B
from corrlab.elliptic import EllipticProblem1D, coefficient_values, harmonic_mean_half, sample_fields
from corrlab.greens import (
    DiscreteGreenOperator,
    GreenKernel1D,
    GreenOperator,
    Mesh1D,
    Mesh2D,
    apply_green_2d,
    eval_green_1d,
    fd_matrix_banded,
    green_partials_1d,
    sine_eigenvalues_2d,
)
from corrlab.helmholtz import HelmholtzProblem
from corrlab.randfield import CorrelatedTripleSpec, MAProcessSpec

K0 = GreenKernel1D(a_star=1.0, q0=0.0)
K1 = GreenKernel1D(a_star=2.0, q0=3.0)
KL = GreenKernel1D(a_star=1.0, q0=0.0, L=2.5)


def test_mesh1d_basics():
    m = Mesh1D(n_nodes=5)
    assert m.h == pytest.approx(0.25)
    assert np.allclose(m.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    # trapezoid weights: half at the ends
    assert np.allclose(m.quad_weights, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert m.inner(np.ones(5), np.ones(5)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Mesh1D(n_nodes=1)


def test_mesh2d_basics():
    m = Mesh2D(n_nodes=9)
    assert m.h == pytest.approx(0.125)
    u = np.ones((9, 9))
    assert m.inner(u, u) == pytest.approx(1.0)


def test_green_values_closed_form():
    # q0 = 0: G(x, y) = min(L - max)/ (a L); symmetric quarter point
    assert eval_green_1d(K0, 0.25, 0.75) == pytest.approx(0.25 * 0.25)
    assert eval_green_1d(K0, 0.5, 0.5) == pytest.approx(0.25)
    # a = 2 scales the q0 = 0 kernel by 1/2
    assert eval_green_1d(GreenKernel1D(2.0, 0.0), 0.5, 0.5) == pytest.approx(0.125)
    # hand value with q0 > 0
    k = math.sqrt(1.5)
    want = math.sinh(k * 0.3) * math.sinh(k * 0.6) / (2.0 * k * math.sinh(k))
    assert eval_green_1d(K1, 0.3, 0.4) == pytest.approx(want, rel=1e-14)


def test_green_symmetry_and_boundary():
    xs = np.array([0.1, 0.37, 0.62, 0.9])
    for k in (K0, K1, KL):
        pts = xs * k.L
        gx = eval_green_1d(k, pts[:, None], pts[None, :])
        assert np.allclose(gx, gx.T)
        assert eval_green_1d(k, 0.0, 0.5) == 0.0
        assert eval_green_1d(k, k.L, 0.5) == 0.0
        assert np.all(gx >= 0.0)


def test_green_solves_ode_pointwise():
    """-a G'' + q0 G = 0 away from the source (FD residual oracle)."""
    y = 0.4
    d = 1e-5
    for k in (K0, K1):
        for x in (0.15, 0.7):
            g2 = (
                eval_green_1d(k, x - d, y)
                - 2.0 * eval_green_1d(k, x, y)
                + eval_green_1d(k, x + d, y)
            ) / (d * d)
            res = -k.a_star * g2 + k.q0 * eval_green_1d(k, x, y)
            assert abs(res) < 1e-4


def test_partials_match_central_differences():
    """Each branch at y on its side of x matches differences of G."""
    d = 1e-6
    for k in (K0, K1, KL):
        x = 0.5 * k.L
        ys = np.array([0.2, 0.8]) * k.L  # y < x, then y > x
        dx_lo, dy_lo, dx_hi, dy_hi, dL = green_partials_1d(k, x, ys)
        fd_x = (eval_green_1d(k, x + d, ys) - eval_green_1d(k, x - d, ys)) / (2 * d)
        fd_y = (eval_green_1d(k, x, ys + d) - eval_green_1d(k, x, ys - d)) / (2 * d)
        kp = GreenKernel1D(k.a_star, k.q0, k.L + d)
        km = GreenKernel1D(k.a_star, k.q0, k.L - d)
        fd_L = (eval_green_1d(kp, x, ys) - eval_green_1d(km, x, ys)) / (2 * d)
        assert [dx_lo[0], dx_hi[1]] == pytest.approx(fd_x, abs=1e-8)
        assert [dy_lo[0], dy_hi[1]] == pytest.approx(fd_y, abs=1e-8)
        assert dL == pytest.approx(fd_L, abs=1e-8)


def test_partial_x_jump_across_diagonal():
    # flux jump of the fundamental solution: [dG/dx] = -1/a across x = y
    for k in (K0, K1):
        dx_lo, _, dx_hi, _, _ = green_partials_1d(k, 0.5, np.array([0.5]))
        # x below y is the y > x branch, x above y the y < x branch
        assert dx_hi[0] - dx_lo[0] == pytest.approx(1.0 / k.a_star, rel=1e-12)


def test_partial_L_closed_form_q0_zero():
    # dG/dL = lo hi / (a L^2) when q0 = 0, on both sides of the diagonal
    dL = green_partials_1d(K0, 0.25, np.array([0.75]))[4]
    assert dL[0] == pytest.approx(0.25 * 0.75, rel=1e-14)
    dL = green_partials_1d(KL, 2.0, np.array([0.5]))[4]
    assert dL[0] == pytest.approx(0.5 * 2.0 / 2.5**2, rel=1e-14)


def test_nystrom_apply_matches_analytic_solution():
    """G applied to f = 1 gives x(1-x)/(2a) up to quadrature error."""
    mesh = Mesh1D(n_nodes=401)
    op = GreenOperator(K0, mesh)
    u = op.apply(np.ones(mesh.n_nodes))
    want = mesh.nodes * (1.0 - mesh.nodes) / 2.0
    assert np.max(np.abs(u - want)) < 2e-5
    # sine source, q0 > 0: u = sin(pi x) / (a pi^2 + q0)
    op1 = GreenOperator(K1, Mesh1D(n_nodes=401))
    f = np.sin(math.pi * op1.mesh.nodes)
    u1 = op1.apply(f)
    want1 = f / (K1.a_star * math.pi**2 + K1.q0)
    assert np.max(np.abs(u1 - want1)) < 2e-5


def test_nystrom_mesh_length_must_match():
    with pytest.raises(ValueError):
        GreenOperator(KL, Mesh1D(n_nodes=11))


def test_discrete_operator_is_exact_inverse():
    mesh = Mesh1D(n_nodes=41)
    op = DiscreteGreenOperator(mesh, fd_matrix_banded(mesh, 1.5, 0.7))
    rng = np.random.Generator(np.random.PCG64(1))
    f = rng.normal(size=mesh.n_nodes)
    u = op.apply(f)
    assert u[0] == 0.0 and u[-1] == 0.0
    # apply the forward FD stencil and recover f at interior nodes
    h2 = mesh.h * mesh.h
    res = -1.5 * (u[2:] - 2 * u[1:-1] + u[:-2]) / h2 + 0.7 * u[1:-1]
    assert np.max(np.abs(res - f[1:-1])) < 1e-9


def test_discrete_operator_variable_potential_and_indefinite():
    mesh = Mesh1D(n_nodes=31)
    pot = 1.0 + np.sin(2 * math.pi * mesh.nodes) ** 2
    op = DiscreteGreenOperator(mesh, fd_matrix_banded(mesh, 1.0, pot))
    f = np.ones(mesh.n_nodes)
    u = op.apply(f)
    h2 = mesh.h * mesh.h
    res = -(u[2:] - 2 * u[1:-1] + u[:-2]) / h2 + pot[1:-1] * u[1:-1]
    assert np.max(np.abs(res - 1.0)) < 1e-9
    # strongly negative potential breaks positive definiteness
    with pytest.raises(ValueError):
        DiscreteGreenOperator(mesh, fd_matrix_banded(mesh, 1.0, -1e5))


def test_fd_matrix_takes_a_scalar_or_one_coefficient_per_cell():
    """A scalar a* is the constant per-cell coefficient bit for bit, and keeps the
    constant-coefficient stencil's bits; a per-cell coefficient gives the
    conservative stencil of -(a u')' with harmonic-mean a_{i+1/2}, bit for bit."""
    rng = np.random.Generator(np.random.PCG64(5))
    for n in (3, 4, 41, 3201):
        mesh = Mesh1D(n_nodes=n)
        h2 = mesh.h * mesh.h
        pot = rng.normal(size=n)
        for a_star, p in ((1.5, 0.7), (1e-9, pot), (3.7e5, pot), (0.1 + 0.2, pot)):
            got = fd_matrix_banded(mesh, a_star, p)
            assert got.tobytes() == fd_matrix_banded(mesh, np.full(n - 1, a_star), p).tobytes()
            want = np.zeros((2, n - 2))
            want[0, 1:] = -a_star / h2
            want[1, :] = 2.0 * a_star / h2 + np.broadcast_to(p, (n,))[1:-1]
            assert got.tobytes() == want.tobytes()
        # node values of a rough coefficient and the conservative stencil of their harmonic means
        a = rng.uniform(0.01, 100.0, size=n)
        a_half = 2.0 * a[:-1] * a[1:] / (a[:-1] + a[1:])
        want = np.zeros((2, n - 2))
        want[0, 1:] = -a_half[1:-1] / h2
        want[1, :] = (a_half[:-1] + a_half[1:]) / h2 + pot[1:-1]
        assert fd_matrix_banded(mesh, a_half, pot).tobytes() == want.tobytes()


def test_discrete_converges_to_kernel():
    """Discrete inverse row approaches the continuum kernel as h -> 0."""
    y = 0.5
    errs = []
    for n in (33, 65, 129):
        mesh = Mesh1D(n_nodes=n)
        op = DiscreteGreenOperator(mesh, fd_matrix_banded(mesh, 1.0, 4.0))
        j = (n - 1) // 2
        f = np.zeros(n)
        f[j] = 1.0 / mesh.h
        u = op.apply(f)
        want = eval_green_1d(GreenKernel1D(1.0, 4.0), mesh.nodes, y)
        errs.append(np.max(np.abs(u - want)))
    assert errs[-1] < errs[0]
    assert errs[-1] < 5e-4


def test_discrete_converges_to_stiff_kernel():
    """Past k L = 710, where sinh(k L) overflows, the kernel stays finite,
    symmetric and positive, and the FD inverse converges to it at second
    order on meshes with k h <= 0.1 that resolve the boundary layer of width
    1/k.  Overflow, invalid values and division by zero raise."""
    k = GreenKernel1D(1.0, 1e6)  # k = 1000
    pts = np.array([0.0, 1e-4, 1e-3, 0.3, 0.5, 0.999, 1.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        gx = eval_green_1d(k, pts[:, None], pts[None, :])
        assert np.array_equal(gx, gx.T)
        assert np.all(gx >= 0.0) and np.all(np.diag(gx)[1:-1] > 0.0)
        errs = []
        for n in (10001, 20001):
            mesh = Mesh1D(n_nodes=n)
            op = DiscreteGreenOperator(mesh, fd_matrix_banded(mesh, k.a_star, k.q0))
            err = 0.0
            for j in (2, (n - 1) // 2):  # a source inside the layer, one mid-interval
                f = np.zeros(n)
                f[j] = 1.0 / mesh.h
                want = eval_green_1d(k, mesh.nodes, mesh.nodes[j])
                err = max(err, np.max(np.abs(op.apply(f) - want)) / np.max(want))
            errs.append(err)
    assert errs[-1] < errs[0] / 3.0
    assert errs[-1] < 1e-3


def test_scaled_kernel_matches_sinh_form():
    """Where the sinh form is finite, the exp/expm1 form is within
    2e-15 max(1, k L) relative of it, G and each partial on its own side:
    rounding the exponent argument costs about k L ulps in either form."""
    ys = np.linspace(0.0, 1.0, 101)
    for q0 in (1e-6, 0.5, 3.0, 1e2, 1e4, 9e4):
        kern = GreenKernel1D(1.0, q0)
        k = kern.kappa
        s = math.sinh(k)
        rel = 2e-15 * max(1.0, k)
        for x in (0.0, 0.013, 0.37, 0.81, 1.0):
            lo, hi = np.minimum(x, ys), np.maximum(x, ys)
            below, above = ys <= x, ys >= x
            sinh_form = [
                (np.sinh(k * lo) * np.sinh(k * (1.0 - hi)) / (k * s), True),
                (-np.sinh(k * ys) * math.cosh(k * (1.0 - x)) / s, below),
                (np.cosh(k * ys) * math.sinh(k * (1.0 - x)) / s, below),
                (math.cosh(k * x) * np.sinh(k * (1.0 - ys)) / s, above),
                (-math.sinh(k * x) * np.cosh(k * (1.0 - ys)) / s, above),
                (np.sinh(k * lo) * np.sinh(k * hi) / (s * s), True),
            ]
            scaled = [eval_green_1d(kern, x, ys), *green_partials_1d(kern, x, ys)]
            for (want, side), got in zip(sinh_form, scaled):
                assert got[side] == pytest.approx(want[side], rel=rel, abs=0.0)


SINE_CASES = [(1, 1), (2, 3), (5, 2)]


def test_apply_green_2d_sine_modes_exact():
    """Sampled sine modes are eigenfunctions with continuum eigenvalues."""
    mesh = Mesh2D(n_nodes=33)
    X, Y = np.meshgrid(mesh.nodes, mesh.nodes, indexing="ij")
    for q0 in (0.0, 2.0):
        for j, k in SINE_CASES:
            f = np.sin(j * math.pi * X) * np.sin(k * math.pi * Y)
            lam = (j * j + k * k) * math.pi * math.pi + q0
            u = apply_green_2d(mesh, q0, f)
            assert np.max(np.abs(u - f / lam)) < 1e-12


def test_apply_green_2d_boundary_zero():
    mesh = Mesh2D(n_nodes=17)
    rng = np.random.Generator(np.random.PCG64(2))
    f = rng.normal(size=(17, 17))
    u = apply_green_2d(mesh, 1.0, f)
    assert np.allclose(u[0, :], 0.0) and np.allclose(u[-1, :], 0.0)
    assert np.allclose(u[:, 0], 0.0) and np.allclose(u[:, -1], 0.0)


@pytest.mark.parametrize("n_nodes", [9, 129])
@pytest.mark.parametrize("q0", [0.0, 2.5])
def test_apply_green_2d_table_matches_the_inline_formula_bit_for_bit(n_nodes, q0):
    """The eigenvalue table built once per (mesh, q0) gives the bits of the
    table built inline on every call, and nothing can write to it."""
    mesh = Mesh2D(n_nodes=n_nodes)
    rng = np.random.Generator(np.random.PCG64(n_nodes))
    f = rng.normal(size=(n_nodes, n_nodes))
    n = n_nodes - 1
    j = np.arange(1, n)
    lam = (j[:, None] ** 2 + j[None, :] ** 2) * math.pi**2 + q0
    want = np.zeros((n_nodes, n_nodes))
    want[1:-1, 1:-1] = dstn(dstn(f[1:-1, 1:-1], type=1) / (n * n) / lam, type=1) / 4.0
    for _ in range(2):  # the first call builds the table, the second reads it
        assert np.array_equal(apply_green_2d(mesh, q0, f), want)
    table = sine_eigenvalues_2d(n_nodes, q0)
    assert table is sine_eigenvalues_2d(n_nodes, q0)
    assert np.array_equal(table, lam)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def _package_matrix(kind: str, n_nodes: int = 3201, seed: int = 5):
    """A banded FD matrix the package factors: the Helmholtz operator with a
    sampled potential, or the elliptic conservative operator of a sampled
    coefficient (the form `elliptic.transformed_green` factors)."""
    mesh = Mesh1D(n_nodes)
    if kind == "helmholtz":
        p = HelmholtzProblem(mesh, 1.0, 0.5, MAProcessSpec(weights=(0.5, 0.5)), np.ones(n_nodes), 0.01)
        return mesh, fd_matrix_banded(mesh, 1.0, 0.5 + p.sample_potential(seed))
    triple = CorrelatedTripleSpec(weights=([[0.25, 0.25]], [[0.2, 0.2]], [[0.5, 0.5]]))
    p = EllipticProblem1D(mesh, triple, q0=0.5, rho_bar=1.0, f=np.ones(n_nodes), epsilon=0.005)
    fields = sample_fields(p, seed)
    a = coefficient_values(p, fields[CH_B])
    return mesh, fd_matrix_banded(mesh, harmonic_mean_half(a), p.q0 * p.a_base / a)


@pytest.mark.parametrize("kind", ["helmholtz", "elliptic"])
def test_discrete_operator_factor_is_cholesky_banded_bit_for_bit(kind):
    """The raw dpbtrf factor equals scipy's cholesky_banded on the package's matrices."""
    mesh, ab = _package_matrix(kind)
    assert np.array_equal(DiscreteGreenOperator(mesh, ab)._factor, cholesky_banded(ab))


def test_discrete_operator_keeps_the_wrapper_checks():
    """An indefinite matrix is a ValueError from LAPACK's info > 0, and a nan in
    the matrix raises what cholesky_banded raises, before LAPACK runs."""
    mesh, ab = _package_matrix("helmholtz", n_nodes=101)
    with pytest.raises(ValueError, match="indefinite operator") as info:
        DiscreteGreenOperator(mesh, fd_matrix_banded(mesh, 1.0, -1e5))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    ab[1, 7] = np.nan
    with pytest.raises(ValueError) as want:
        cholesky_banded(ab)
    with pytest.raises(ValueError, match=want.value.args[0]):
        DiscreteGreenOperator(mesh, ab)


def _child(code: str) -> str:
    """The last line a fresh interpreter prints running `code`."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_raw_modules_are_the_objects_later_public_imports_return():
    """greens loads _flapack and pypocketfft without scipy.linalg's or scipy.fft's
    package init; the public imports that follow reuse the very same modules."""
    assert _child(
        "import sys\n"
        "from corrlab import greens\n"
        "greens.apply_green_2d(greens.Mesh2D(5), 0.0, [[1.0] * 5] * 5)\n"
        "inits = {'scipy.linalg', 'scipy.fft', 'scipy.special', 'scipy._lib._array_api'} & set(sys.modules)\n"
        "from scipy.linalg import _flapack, lapack\n"
        "from scipy.fft._pocketfft import pypocketfft, realtransforms\n"
        "print(sorted(inits), greens.lapack is _flapack, lapack.dpbtrf is greens.lapack.dpbtrf,\n"
        "      realtransforms.pfft is pypocketfft is sys.modules['scipy.fft._pocketfft.pypocketfft'])"
    ) == "[] True True True"


def test_loader_falls_back_to_the_public_import():
    """With the extension file not found on its own, the public route loads the
    same module, through scipy.linalg's package init."""
    assert _child(
        "import sys\n"
        "from importlib.machinery import PathFinder\n"
        "find = PathFinder.find_spec.__func__\n"
        "def hidden(cls, name, path=None, target=None):\n"
        "    if name == 'scipy.linalg._flapack' and 'scipy.linalg' not in sys.modules:\n"
        "        return None\n"
        "    return find(cls, name, path, target)\n"
        "PathFinder.find_spec = classmethod(hidden)\n"
        "from corrlab import greens\n"
        "public = 'scipy.linalg' in sys.modules\n"
        "import scipy.linalg\n"
        "print(public, greens.lapack is scipy.linalg._flapack)"
    ) == "True True"


def test_loader_without_scipy_raises_module_not_found():
    """With no scipy to find, the loader's public import raises as `import scipy` would."""
    assert _child(
        "from importlib.machinery import PathFinder\n"
        "find = PathFinder.find_spec.__func__\n"
        "def hidden(cls, name, path=None, target=None):\n"
        "    return None if name == 'scipy' else find(cls, name, path, target)\n"
        "PathFinder.find_spec = classmethod(hidden)\n"
        "try:\n"
        "    from corrlab import greens\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(type(exc).__name__, exc.name)"
    ) == "ModuleNotFoundError scipy"
