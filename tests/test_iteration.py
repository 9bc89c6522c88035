"""Safeguarded fixed-point solver on small matrix fixtures, and its certified skip."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrlab import iteration
from corrlab.elliptic import (
    CH_B,
    CH_RHO,
    EllipticProblem1D,
    coefficient_values,
    sample_fields,
    tilde_q,
    transformed_green,
)
from corrlab.greens import (
    GreenKernel1D,
    GreenOperator,
    Mesh1D,
    Mesh2D,
    apply_green_2d,
    fd_green_norm,
    fd_matrix_banded,
    green_norm_2d,
)
from corrlab.helmholtz import HelmholtzProblem
from corrlab.iteration import (
    CERTIFY_MARGIN,
    MAX_ITERATIONS,
    POWER_STEPS,
    estimate_composed_norm,
    neumann_solve,
)
from corrlab.randfield import CorrelatedTripleSpec, MAProcessSpec

MESH = Mesh1D(n_nodes=101)
OP = GreenOperator(GreenKernel1D(a_star=1.0, q0=0.0), MESH)


def _apply(f):
    return OP.apply(f)


def test_converges_to_perturbed_solution():
    """Fixed point solves (-u'' + q u = f) for a mild constant potential."""
    q = np.full(MESH.n_nodes, 2.0)
    f = np.sin(math.pi * MESH.nodes)
    u0 = _apply(f)
    res = neumann_solve(_apply, q, u0, MESH.quad_weights, tol=1e-12)
    assert not res.truncated
    assert res.residual <= 1e-12
    # analytic solution for constant q: sin mode with shifted eigenvalue
    want = f / (math.pi**2 + 2.0)
    assert np.max(np.abs(res.u - want)) < 1e-4
    # u0 is the unperturbed solve
    assert np.max(np.abs(u0 - f / math.pi**2)) < 1e-4


def test_residual_history_contracts():
    q = np.full(MESH.n_nodes, 3.0)
    f = np.ones(MESH.n_nodes)
    # a solve stops at its first residual below tol, so the final residuals
    # of looser solves are the earlier steps of the tightest one
    hist = {}
    for k in range(1, 13):
        res = neumann_solve(_apply, q, _apply(f), MESH.quad_weights, tol=10.0**-k)
        hist[res.iterations] = res.residual
    steps = sorted(hist.items())
    assert [it for it, _ in steps] == list(range(1, len(steps) + 1))
    assert steps[-1][1] <= 1e-12
    # ratios bounded by the squared single-step contraction factor
    ratios = [b / a for (_, a), (_, b) in zip(steps, steps[1:]) if a > 1e-14]
    assert max(ratios) < 0.5


def test_norm_estimate_matches_eigenvalue():
    """For constant q the composed operator norm is (q / pi^2)^2."""
    qval = 3.0
    q = np.full(MESH.n_nodes, qval)
    est = estimate_composed_norm(_apply, q, MESH.n_nodes)
    assert est == pytest.approx((qval / math.pi**2) ** 2, rel=1e-3)


def test_truncation_flag_returns_unperturbed():
    # q large enough that ||G q G q|| estimate clears the 0.5 default
    q = np.full(MESH.n_nodes, 9.0)
    f = np.sin(math.pi * MESH.nodes)
    u0 = _apply(f)
    res = neumann_solve(_apply, q, u0, MESH.quad_weights)
    assert res.truncated
    assert res.iterations == 0
    assert res.residual == 0.0
    assert np.array_equal(res.u, u0)
    # raising the threshold lets the same problem iterate
    res2 = neumann_solve(_apply, q, _apply(f), MESH.quad_weights, truncation_rho=0.9)
    assert not res2.truncated
    assert res2.iterations > 0


def test_zero_potential_converges_immediately():
    q = np.zeros(MESH.n_nodes)
    f = np.ones(MESH.n_nodes)
    u0 = _apply(f)
    res = neumann_solve(_apply, q, u0, MESH.quad_weights)
    assert res.iterations == 1
    assert np.array_equal(res.u, u0)
    assert res.op_norm_estimate == 0.0


def test_nonconvergence_raises(monkeypatch):
    # contraction factor ~0.83 but too few iterations for tol
    assert MAX_ITERATIONS == 400
    monkeypatch.setattr(iteration, "MAX_ITERATIONS", 5)
    q = np.full(MESH.n_nodes, 9.0)
    f = np.ones(MESH.n_nodes)
    with pytest.raises(RuntimeError, match="did not converge in 5 iterations"):
        neumann_solve(_apply, q, _apply(f), MESH.quad_weights, tol=1e-300, truncation_rho=0.99)


@pytest.mark.parametrize("qval", [1e80, 1e160])
def test_an_overflowing_norm_truncates(qval):
    """At q = 1e80 the power estimate's |w|^2 overflows, which once read as
    norm 0 and let the solve fail to converge; at 1e160 the bound's square
    overflows too, which once raised OverflowError.  Both read inf and truncate."""
    q = np.full(MESH.n_nodes, qval)
    u0 = _apply(np.ones(MESH.n_nodes))
    with np.errstate(over="ignore", invalid="ignore"):
        assert estimate_composed_norm(_apply, q, MESH.n_nodes) == math.inf
        for green_norm in (None, 1.0 / math.pi**2):
            res = neumann_solve(_apply, q, u0, MESH.quad_weights, green_norm=green_norm)
            assert res.truncated and res.op_norm_estimate == math.inf and not res.certified
            assert np.array_equal(res.u, u0)


@pytest.mark.parametrize("wobble, stalls", [(1e-15, True), (1e-6, False)])
def test_an_update_stalled_at_rounding_ends_the_solve(monkeypatch, wobble, stalls):
    """An update that stops shrinking within ROUNDING_FLOOR of |u| ends the
    solve below any tol; one that stalls far above it still raises."""
    monkeypatch.setattr(iteration, "MAX_ITERATIONS", 50)
    calls = []

    def wobbly(v):  # G = 0.5 I, plus a term whose sign flips from step to step (two applies each)
        calls.append(1)
        return 0.5 * v + (-1) ** (len(calls) // 2) * wobble

    q = np.full(MESH.n_nodes, 0.5)
    u0 = np.ones(MESH.n_nodes)
    if not stalls:
        with pytest.raises(RuntimeError, match="did not converge in 50 iterations"):
            neumann_solve(wobbly, q, u0, MESH.quad_weights, tol=1e-300, green_norm=0.5)
        return
    res = neumann_solve(wobbly, q, u0, MESH.quad_weights, tol=1e-300, green_norm=0.5)
    assert res.iterations < 50 and 0.0 < res.residual <= iteration.ROUNDING_FLOOR
    assert np.allclose(res.u, 0.8, rtol=0.0, atol=1e-14)  # u = 0.75 u0 + 0.0625 u


def test_a_solution_past_1e154_converges_as_one_of_order_1():
    """Squares of entries past 1e154 overflow: the weighted norm then scales
    by the largest entry, and the solve stops at rounding, far above tol."""
    q = np.full(MESH.n_nodes, 2.0)
    f = np.sin(math.pi * MESH.nodes)
    unit = neumann_solve(_apply, q, _apply(f), MESH.quad_weights, tol=1e-15)
    with np.errstate(over="ignore"):
        big = neumann_solve(_apply, q, _apply(1e200 * f), MESH.quad_weights)
        assert iteration._weighted_norm(np.full(4, 1e200), np.full(4, 0.25)) == pytest.approx(1e200, rel=1e-15)
    assert not big.truncated and math.isfinite(big.residual)
    assert np.allclose(big.u / 1e200, unit.u, rtol=0.0, atol=1e-14)


def test_sign_indefinite_potential():
    """Oscillating q converges and matches a dense direct solve."""
    q = 4.0 * np.sin(2 * math.pi * MESH.nodes)
    f = MESH.nodes * (1.0 - MESH.nodes)
    res = neumann_solve(_apply, q, _apply(f), MESH.quad_weights, tol=1e-12)
    assert not res.truncated
    ident = np.eye(MESH.n_nodes)
    dense = np.linalg.solve(ident + OP.matrix * q[None, :], OP.apply(f))
    assert np.max(np.abs(res.u - dense)) < 1e-10


# --- certified safeguard: closed-form Green norm bounds ---

FIELD_WEIGHTS = (0.5, 0.5)
TRIPLE_WEIGHTS = (
    [[0.25, 0.25], [0.0, 0.0]],
    [[0.2, 0.2], [0.2, 0.2]],
    [[0.0, 0.0], [0.5, 0.5]],
)


def _fd_case(seed, amp, eps):
    mesh = Mesh1D(n_nodes=101)
    spec = MAProcessSpec(weights=FIELD_WEIGHTS, amplitude=amp)
    p = HelmholtzProblem(mesh, 1.0, 0.5, spec, np.ones(mesh.n_nodes), eps)
    return p.apply_green, p.sample_potential(seed), p.green_norm, p.u0, mesh.quad_weights


def _elliptic_case(seed, amp, eps):
    mesh = Mesh1D(n_nodes=101)
    spec = CorrelatedTripleSpec(weights=TRIPLE_WEIGHTS, amplitudes=(1.9, 1.0, amp))
    p = EllipticProblem1D(mesh, spec, 0.5, 1.0, np.ones(mesh.n_nodes), eps)
    fields = sample_fields(p, seed)
    apply_g, green_norm = transformed_green(p, coefficient_values(p, fields[CH_B]))
    u0 = apply_g((p.rho_bar + fields[CH_RHO]) * p.f)
    return apply_g, tilde_q(p, fields), green_norm, u0, mesh.quad_weights


def _case_2d(seed, amp, eps):
    mesh = Mesh2D(n_nodes=17)
    spec = MAProcessSpec(weights=FIELD_WEIGHTS, amplitude=amp)
    p = HelmholtzProblem(mesh, 1.0, 0.5, spec, np.ones((17, 17)), eps)
    return p.apply_green, p.sample_potential(seed), p.green_norm, p.u0, mesh.quad_weights


CASES = {"fd": _fd_case, "elliptic": _elliptic_case, "2d": _case_2d}


def _composed_bound(q, green_norm):
    return (green_norm * float(np.max(np.abs(q)))) ** 2


# (kernel, seed, amplitude, epsilon) per regime of the safeguard
CERTIFIED = [("fd", 3, 1.0, 0.25), ("elliptic", 3, 1.0, 0.25), ("2d", 3, 1.0, 0.25)]
BOUND_PAST_THRESHOLD = [("fd", 3, 12.0, 0.05), ("elliptic", 3, 10.0, 0.25), ("2d", 3, 60.0, 1.0)]
TRUNCATING = [("fd", 3, 60.0, 1.0), ("elliptic", 3, 200.0, 1.0), ("2d", 3, 60.0, 2.0)]

CASE_ARGS = {
    "kernel": st.sampled_from(sorted(CASES)),
    "seed": st.integers(0, 2**31),
    "amp": st.floats(0.0, 200.0),
    "eps": st.sampled_from([2.0, 1.0, 0.25, 0.05]),
}


def _with_examples(test):
    for case in CERTIFIED + BOUND_PAST_THRESHOLD + TRUNCATING:
        test = example(*case)(test)
    return test


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(**CASE_ARGS)
@_with_examples
def test_certified_bound_dominates_power_estimate(kernel, seed, amp, eps):
    apply_g, q, green_norm, _, _ = CASES[kernel](seed, amp, eps)
    est = estimate_composed_norm(apply_g, q, q.shape)
    # a constant potential makes the bound tight; allow rounding only
    assert est <= _composed_bound(q, green_norm) * (1.0 + 1e-9)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(**CASE_ARGS)
@_with_examples
def test_green_norm_leaves_the_solve_unchanged(kernel, seed, amp, eps):
    apply_g, q, green_norm, u0, weights = CASES[kernel](seed, amp, eps)
    plain = neumann_solve(apply_g, q, u0, weights)
    fast = neumann_solve(apply_g, q, u0, weights, green_norm=green_norm)
    assert np.array_equal(fast.u, plain.u)
    assert (fast.iterations, fast.truncated) == (plain.iterations, plain.truncated)
    assert not plain.certified
    bound = _composed_bound(q, green_norm)
    assert fast.certified == (bound <= 0.5 * (1.0 - CERTIFY_MARGIN))
    if fast.certified:
        assert fast.op_norm_estimate == bound
    else:
        assert fast.op_norm_estimate == plain.op_norm_estimate


@pytest.mark.parametrize("case", CERTIFIED + BOUND_PAST_THRESHOLD + TRUNCATING)
def test_regime_examples(case):
    """The fixed examples above reach every regime of the safeguard."""
    apply_g, q, green_norm, u0, weights = CASES[case[0]](*case[1:])
    res = neumann_solve(apply_g, q, u0, weights, green_norm=green_norm)
    assert res.certified == (case in CERTIFIED)
    assert res.truncated == (case in TRUNCATING)
    if case in TRUNCATING:
        plain = neumann_solve(apply_g, q, u0, weights)
        assert plain.truncated
        assert res.op_norm_estimate == plain.op_norm_estimate > 0.5
        assert np.array_equal(res.u, u0)


def _reference_recurrence(apply_g, q, u0, weights, tol=1e-10):
    """The fixed point as the recurrence reads, three applies in the first step."""
    g = u0 - apply_g(q * u0)
    u = u0.copy()
    for it in range(1, MAX_ITERATIONS + 1):
        u_next = g + apply_g(q * apply_g(q * u))
        step = u_next - u
        u = u_next
        if math.sqrt(max(float(np.sum(weights * step * step)), 0.0)) <= tol:
            return u, it
    raise AssertionError("reference recurrence did not converge")


@pytest.mark.parametrize("bounded", [True, False], ids=["with-bound", "power-estimate"])
@pytest.mark.parametrize("case", CERTIFIED + BOUND_PAST_THRESHOLD + TRUNCATING)
def test_apply_count_and_bits_against_the_reference_recurrence(case, bounded):
    """A solve makes 2 * iterations applies, plus 2 * POWER_STEPS when the
    norm is estimated and none after a truncating safeguard; its iterate has
    the bits of the recurrence that recomputes G(q u0) in its first step."""
    apply_g, q, green_norm, u0, weights = CASES[case[0]](*case[1:])
    calls = []

    def counted(v):
        calls.append(1)
        return apply_g(v)

    res = neumann_solve(counted, q, u0, weights, green_norm=green_norm if bounded else None)
    power = 0 if res.certified else 2 * POWER_STEPS
    assert res.certified == (bounded and case in CERTIFIED)
    if res.truncated:
        assert len(calls) == power
        assert np.array_equal(res.u, u0)
        return
    assert len(calls) == 2 * res.iterations + power
    u, iterations = _reference_recurrence(apply_g, q, u0, weights)
    assert res.iterations == iterations
    assert np.array_equal(res.u, u)


def test_closed_form_norms_match_dense_operators():
    # FD: exactly 1 / lambda_min of the interior matrix
    mesh = Mesh1D(n_nodes=41)
    ab = fd_matrix_banded(mesh, 1.5, 0.7)
    dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:], -1)
    lam = np.linalg.eigvalsh(dense)[0]
    assert fd_green_norm(mesh, 1.5, 0.7) == pytest.approx(1.0 / lam, rel=1e-12)
    # 2D: the lowest sine mode attains 1 / (2 pi^2 + q0)
    mesh2 = Mesh2D(n_nodes=33)
    mode = np.outer(np.sin(math.pi * mesh2.nodes), np.sin(math.pi * mesh2.nodes))
    out = apply_green_2d(mesh2, 0.5, mode)
    gain = np.linalg.norm(out) / np.linalg.norm(mode)
    assert gain == pytest.approx(green_norm_2d(0.5), rel=1e-12)
    # elliptic: the bound dominates the exact norm of the conservative inverse
    apply_g, _, green_norm, _, _ = _elliptic_case(5, 1.0, 0.25)
    cols = np.eye(101)
    mat = np.column_stack([apply_g(c) for c in cols])
    assert np.linalg.norm(mat, 2) <= green_norm * (1.0 + 1e-12)
