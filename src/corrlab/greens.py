"""Closed-form Dirichlet Green's functions and discrete Green's operators.

The 1D kernel of -a* d^2/dx^2 + q0 on (0, L) is available in closed form,
with one-sided partial derivatives in x, y, and the interval length L.  Two
discrete realizations of the solution operator are provided: a quadrature
(Nystrom) matrix built from the kernel, and the exact inverse of the
three-point finite-difference matrix applied through a prefactored banded
Cholesky solve.  A sine-spectral operator covers the 2D unit square; its
eigenvalue table is built once per mesh size and q0.

The LAPACK routines (`lapack`) and the sine transform come from scipy's
compiled modules, loaded without the package inits of `scipy`, `scipy.linalg`
and `scipy.fft`; `lapack_check` restates the checks of scipy's wrappers.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .catalog import fd_eigenvalue


def _scipy_extension(name: str):
    """scipy's compiled module `scipy.<name>`, loaded from its file without
    running the `__init__` of the packages that hold it.

    Those inits load code corrlab never runs: `scipy.linalg`'s loads
    `scipy._lib._array_api` (and with it numpy.testing, numpy.ma, numpy.f2py
    and unittest), `scipy.fft`'s all of `scipy.special`.  The module is
    registered under its full name, so a later public import returns this
    very object.  The file is found from scipy's package spec, which runs no
    code, so not even `scipy`'s own init runs; when scipy or the file is not
    found, the public import loads the module (or raises ModuleNotFoundError).
    """
    full = f"scipy.{name}"
    module = sys.modules.get(full)
    if module is None:
        root = find_spec("scipy")
        package = root and os.path.join(os.path.dirname(root.origin), *name.split(".")[:-1])
        spec = package and PathFinder.find_spec(full, [package])
        if spec is None:
            return importlib.import_module(full)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    return module


lapack = _scipy_extension("linalg._flapack")


def lapack_check(info: int, routine: str) -> None:
    """Raise on a LAPACK `info` as scipy's wrappers do: an illegal argument
    (info < 0) is a ValueError, a numerical failure (info > 0) a LinAlgError."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={info})")


@dataclass(eq=False)
class Mesh1D:
    """Uniform mesh on the unit interval with trapezoid quadrature weights."""

    n_nodes: int

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ValueError("need at least 3 nodes")
        self.nodes = np.linspace(0.0, 1.0, self.n_nodes)
        self.h = 1.0 / (self.n_nodes - 1)
        w = np.full(self.n_nodes, self.h)
        w[0] = w[-1] = 0.5 * self.h
        self.quad_weights = w

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(self.quad_weights * u * v))


@dataclass(eq=False)
class Mesh2D:
    """Uniform tensor mesh on the unit square, trapezoid weights per axis."""

    n_nodes: int  # nodes per axis

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ValueError("need at least 3 nodes per axis")
        axis = Mesh1D(self.n_nodes)
        self.nodes, self.h = axis.nodes, axis.h
        self.quad_weights = np.outer(axis.quad_weights, axis.quad_weights)

    inner = Mesh1D.inner


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over the nodes x, starting from 0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


@dataclass(frozen=True)
class GreenKernel1D:
    """Green's function of -a* u'' + q0 u on (0, L), Dirichlet ends."""

    a_star: float
    q0: float
    L: float = 1.0

    def __post_init__(self):
        if not self.a_star > 0:
            raise ValueError("a_star must be positive")
        if self.q0 < 0:
            raise ValueError("q0 must be nonnegative")
        if not self.L > 0:
            raise ValueError("L must be positive")

    @property
    def kappa(self) -> float:
        return math.sqrt(self.q0 / self.a_star)


def _e(t):
    """E(t) = 1 - exp(-2t), so that sinh t = exp(t) E(t) / 2."""
    return -np.expm1(-2.0 * t)


def _c(t):
    """C(t) = 1 + exp(-2t), so that cosh t = exp(t) C(t) / 2."""
    return 1.0 + np.exp(-2.0 * t)


def eval_green_1d(kernel: GreenKernel1D, x, y):
    """Evaluate G(x, y); broadcasts over array arguments.  For q0 > 0 every
    exponent is at most 0, so no factor overflows however large k L is."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    a, L = kernel.a_star, kernel.L
    if kernel.q0 == 0.0:
        out = lo * (L - hi) / (a * L)
    else:
        k = kernel.kappa
        out = np.exp(-k * (hi - lo)) * _e(k * lo) * _e(k * (L - hi)) / (2.0 * a * k * _e(k * L))
    return out if out.ndim else float(out)


def green_partials_1d(kernel: GreenKernel1D, x: float, y: np.ndarray):
    """dG/dx, dG/dy, dG/dL at fixed x over an array of y, for both branches.

    Returns (dx_lo, dy_lo, dx_hi, dy_hi, dL): the *_lo arrays hold the
    y < x branch, the *_hi arrays the y > x branch, each valid on its own side
    only; dL is continuous.  On the diagonal y = x the two branches are the
    one-sided limits.
    """
    a, L, q0 = kernel.a_star, kernel.L, kernel.q0
    if q0 == 0.0:
        dx_lo = -y / (a * L)
        dy_lo = np.full_like(y, (L - x) / (a * L), dtype=float)
        dx_hi = (L - y) / (a * L)
        dy_hi = np.full_like(y, -x / (a * L), dtype=float)
        dL = np.minimum(x, y) * np.maximum(x, y) / (a * L * L)
        return dx_lo, dy_lo, dx_hi, dy_hi, dL
    k = kernel.kappa
    # sinh and cosh through E and C; each branch carries exp(-k |x - y|), which is
    # its own factor on its side and keeps the side the caller discards finite
    decay = np.exp(-k * np.abs(x - y)) / (2.0 * a * _e(k * L))
    # y < x: lo = y, hi = x
    dx_lo = -decay * _e(k * y) * _c(k * (L - x))
    dy_lo = decay * _c(k * y) * _e(k * (L - x))
    # y > x: lo = x, hi = y
    dx_hi = decay * _c(k * x) * _e(k * (L - y))
    dy_hi = -decay * _e(k * x) * _c(k * (L - y))
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    dL = np.exp(-k * (2.0 * L - lo - hi)) * _e(k * lo) * _e(k * hi) / (a * _e(k * L) ** 2)
    return dx_lo, dy_lo, dx_hi, dy_hi, dL


@dataclass(eq=False)
class GreenOperator:
    """Quadrature (Nystrom) realization of the solution operator.

    The matrix column j carries the trapezoid weight of node j, so apply(f)
    returns the quadrature approximation of int G(x_i, y) f(y) dy.
    """

    kernel: GreenKernel1D
    mesh: Mesh1D

    def __post_init__(self):
        if abs(1.0 - self.kernel.L) > 1e-12 * self.kernel.L:
            raise ValueError("kernel interval must be the unit interval of the mesh")
        g = eval_green_1d(self.kernel, self.mesh.nodes[:, None], self.mesh.nodes[None, :])
        self.matrix = g * self.mesh.quad_weights[None, :]

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(f, dtype=float)


def fd_matrix_banded(mesh: Mesh1D, a_half, potential) -> np.ndarray:
    """Banded (upper) form of the interior FD matrix of -(a u')' + potential u.

    `a_half` is the coefficient at the half nodes, a scalar a* or one value
    per cell; `potential` is a scalar or a node array; only interior nodes enter.
    """
    h2 = mesh.h * mesh.h
    a = np.full(mesh.n_nodes - 1, a_half, dtype=float)
    pot = np.broadcast_to(np.asarray(potential, dtype=float), (mesh.n_nodes,))
    ab = np.zeros((2, mesh.n_nodes - 2))
    np.divide(a[1:-1], -h2, out=ab[0, 1:])
    np.add(a[:-1], a[1:], out=ab[1])
    ab[1] /= h2
    ab[1] += pot[1:-1]
    return ab


@dataclass(eq=False)
class DiscreteGreenOperator:
    """Exact inverse of a symmetric tridiagonal FD operator, banded Cholesky."""

    mesh: Mesh1D
    banded_upper: np.ndarray

    def __post_init__(self):
        try:
            self._factor, info = lapack.dpbtrf(np.asarray_chkfinite(self.banded_upper), lower=0)
            lapack_check(info, "dpbtrf")
        except np.linalg.LinAlgError as exc:
            raise ValueError("indefinite operator") from exc

    def apply(self, f: np.ndarray) -> np.ndarray:
        out = np.zeros(self.mesh.n_nodes)
        out[1:-1] = np.asarray(f)[1:-1]
        lapack.dpbtrs(self._factor, out[1:-1], lower=0, overwrite_b=1)  # solves in the contiguous view
        return out


def fd_green_norm(mesh: Mesh1D, a_star: float, q0: float) -> float:
    """Euclidean norm of the FD inverse, 1 / lambda_min of -a* D^2 + q0."""
    return 1.0 / fd_eigenvalue(mesh.h, a_star, q0, 1)


@lru_cache(maxsize=4)
def sine_eigenvalues_2d(n_nodes: int, q0: float) -> np.ndarray:
    """Eigenvalues (j^2 + k^2) pi^2 + q0 of -Laplace + q0 for the sine modes
    j, k = 1 .. n_nodes - 2 of the unit square; built once per (mesh, q0)
    and returned read-only."""
    j = np.arange(1, n_nodes - 1)
    lam = (j[:, None] ** 2 + j[None, :] ** 2) * math.pi**2 + q0
    lam.flags.writeable = False
    return lam


def apply_green_2d(mesh2d: Mesh2D, q0: float, f: np.ndarray) -> np.ndarray:
    """Sine-spectral solve of -Laplace u + q0 u = f on the unit square.

    f holds node values including the boundary; the result satisfies the
    homogeneous Dirichlet condition exactly.  Every resolvable sine mode,
    n_nodes - 2 per axis, enters the synthesis.  Both transforms are the
    unnormalized 2D DST-I that `scipy.fft.dstn(x, type=1)` runs; pocketfft is
    loaded on the first call.
    """
    if q0 < 0:
        raise ValueError("q0 must be nonnegative")
    dst = _scipy_extension("fft._pocketfft.pypocketfft").dst
    n = mesh2d.n_nodes - 1
    coef = dst(np.asarray(f, dtype=float)[1:-1, 1:-1], 1, (0, 1), 0, None, 1, False)
    coef /= n * n
    coef /= sine_eigenvalues_2d(mesh2d.n_nodes, q0)
    out = np.zeros((mesh2d.n_nodes, mesh2d.n_nodes))
    dst(coef, 1, (0, 1), 0, out[1:-1, 1:-1], 1, False)
    out[1:-1, 1:-1] /= 4.0
    return out


def green_norm_2d(q0: float) -> float:
    """Euclidean norm bound of `apply_green_2d`, 1 / (2 pi^2 + q0).

    The normalized sine transform is orthogonal, so the norm is the largest
    inverse eigenvalue, that of the lowest mode.
    """
    return 1.0 / (2.0 * math.pi**2 + q0)
