"""End-to-end acceptance suite.

Each test exercises one advertised guarantee at its stated sample size and
tolerance and prints a single verdict line, so running

    pytest tests/test_acceptance.py -v -s

doubles as a checklist of the ten guarantees.  Monte Carlo ensembles use the
default seed baked into the experiment configs; every run is reproducible.
"""

import json
import math

import numpy as np

from corrlab import elliptic, helmholtz, randfield
from corrlab.experiments import run_experiment, validate_config
from corrlab.greens import Mesh1D

WORKERS = 4

# independently derived anchors, repeated here so a regression in the
# analytic modules cannot silently re-target the ensemble checks
VAR_AT_HALF = (1.0 / 8.0) * (1.0 / 160.0 - 1.0 / 192.0 + 1.0 / 896.0)
COV_CONST_MOMENT = 1.0 / 10080.0
DEGENERATE_LAW_AT_HALF = 0.81 / 48.0  # sigma_rho^2 * int G(1/2,t)^2 dt
INV_EIG_VARIANCE = 1.5  # sigma^2 * int u_1^4
FOURIER_12_VARIANCE = 1.0 / (9.0 * math.pi**4)
QUARTIC_D5 = (8.0 * math.pi**2 / 3.0) * math.sqrt(math.pi / 2.0)


def _verdict(num, label, ok, detail):
    word = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {word} -- {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _check(res, name):
    for c in res.checks:
        if c.name == name:
            return c
    raise AssertionError(f"check {name!r} missing from {res.kind} result")


def _analytic_row(res, name, field="analytic_variance"):
    for eps, nm, fld, val in res.rows:
        if nm == name and fld == field:
            return val
    raise AssertionError(f"no {field} row for {name!r}")


def test_criterion_1_helmholtz_scaling():
    """E||u_eps - u0||^2 scales like eps over a dyadic epsilon sweep."""
    cfg = validate_config(
        {
            "kind": "helmholtz-corrector",
            "n_real": 500,
            "epsilon_list": [0.02, 0.01, 0.005, 0.0025, 0.00125],
            "probes": [],
            "moments": [],
        }
    )
    res = run_experiment(cfg, workers=WORKERS)
    slope = res.tables["norm_sq_fit"]["slope"]
    ok = res.status == "ok" and 0.85 <= slope <= 1.15
    _verdict(
        1,
        "1d scaling slope",
        ok,
        f"fitted slope {slope:.4f}, window [0.85, 1.15], status {res.status}",
    )


def test_criterion_2_pointwise_variance_law():
    """Scaled corrector variance matches the limit law at three probes."""
    cfg = validate_config(
        {
            "kind": "helmholtz-corrector",
            "n_real": 2000,
            "epsilon_list": [0.0025],
            "probes": [0.25, 0.5, 0.75],
            "moments": [],
        }
    )
    res = run_experiment(cfg, workers=WORKERS)
    target = _analytic_row(res, "corr_0.5")
    anchored = abs(target - VAR_AT_HALF) / VAR_AT_HALF < 1e-3
    var_checks = [c for c in res.checks if c.name.startswith("corr_var[")]
    assert len(var_checks) == 3
    ok = res.status == "ok" and anchored and all(c.passed for c in var_checks)
    _verdict(
        2,
        "pointwise variance law",
        ok,
        f"3 probes within 4 stderr at eps=1/400, x=0.5 target "
        f"{target:.6g} vs closed form {VAR_AT_HALF:.6g}",
    )


def test_criterion_3_gaussianity():
    """Moment functional is Gaussian with the predicted variance."""
    cfg = validate_config(
        {
            "kind": "helmholtz-corrector",
            "n_real": 4000,
            "epsilon_list": [0.0025],
            "probes": [],
            "moments": ["one"],
            "normality_checks": True,
        }
    )
    res = run_experiment(cfg, workers=WORKERS)
    target = _analytic_row(res, "moment_0")
    anchored = abs(target - COV_CONST_MOMENT) / COV_CONST_MOMENT < 1e-3
    names = [
        "moment_var[0,0.0025]",
        "moment_0[0.0025]_skew",
        "moment_0[0.0025]_kurtosis",
        "moment_0[0.0025]_ks",
    ]
    details = {n: _check(res, n) for n in names}
    ok = res.status == "ok" and anchored and all(c.passed for c in details.values())
    _verdict(
        3,
        "gaussian moment functional",
        ok,
        "; ".join(c.detail for c in details.values()),
    )


def test_criterion_4_oracle_equivalence():
    """Fixed-point solvers agree with independent direct solves pathwise."""
    mesh = Mesh1D(n_nodes=801)
    eps = 0.01
    f = np.ones(mesh.n_nodes)

    hp = helmholtz.HelmholtzProblem(
        mesh=mesh,
        a_star=1.0,
        q0=0.0,
        field_spec=randfield.MAProcessSpec(weights=(0.5, 0.5)),
        f=f,
        epsilon=eps,
    )
    worst_h = 0.0
    for seed in range(100):
        sol = helmholtz.perturbed_solve(hp, seed=seed, tol=1e-13)
        assert not sol.truncated
        direct = helmholtz.direct_solve_fd(hp, hp.sample_potential(seed))
        worst_h = max(worst_h, float(np.max(np.abs(sol.u - direct))))

    ep = elliptic.EllipticProblem1D(
        mesh=mesh,
        triple_spec=randfield.CorrelatedTripleSpec(
            weights=(
                [[0.25, 0.25], [0.0, 0.0]],
                [[0.2, 0.2], [0.2, 0.2]],
                [[0.0, 0.0], [0.5, 0.5]],
            )
        ),
        q0=1.0,
        rho_bar=1.0,
        f=f,
        epsilon=eps,
    )
    worst_e = 0.0
    for seed in range(100):
        sol = elliptic.solve_transformed(ep, seed=seed, tol=1e-13)
        assert not sol.truncated
        fields = elliptic.sample_fields(ep, seed)
        direct = elliptic.direct_solve_conservative(ep, fields)
        worst_e = max(worst_e, float(np.max(np.abs(sol.u - direct))))

    ok = worst_h <= 1e-6 and worst_e <= 1e-6
    _verdict(
        4,
        "dual-route agreement",
        ok,
        f"100 seeds each, sup gaps {worst_h:.3g} (Helmholtz) and "
        f"{worst_e:.3g} (divergence form), bound 1e-6",
    )


def test_criterion_5_elliptic_law():
    """Three-driver limit law holds, and its degenerate case is exact."""
    cfg = validate_config(
        {
            "kind": "elliptic-corrector",
            "n_real": 2000,
            "epsilon_list": [0.0025],
        }
    )
    res = run_experiment(cfg, workers=WORKERS)
    rho = np.array(res.tables["rho_jk"])
    off = np.abs(rho[np.triu_indices(3, k=1)])
    var_checks = [c for c in res.checks if c.name.startswith("corr_var[")]
    assert len(var_checks) == 3

    # single-process sanity anchor: only the source density fluctuates,
    # so the law collapses to sigma_rho^2 int G(x,t)^2 dt = 0.81/48 at 1/2
    dg = validate_config(
        {
            "kind": "elliptic-corrector",
            "n_real": 2000,
            "epsilon_list": [0.0025],
            "probes": [0.5],
            "q0": 0.0,
            "triple": {
                "weights": [[[0.0]], [[0.5, 0.5]], [[0.0]]],
                "amplitudes": [1.0, 0.9, 1.0],
            },
        }
    )
    res_dg = run_experiment(dg, workers=WORKERS)
    target_dg = _analytic_row(res_dg, "corr_0.5")
    anchored = abs(target_dg - DEGENERATE_LAW_AT_HALF) / DEGENERATE_LAW_AT_HALF < 1e-4

    ok = (
        res.status == "ok"
        and res_dg.status == "ok"
        and float(np.max(off)) > 0.1
        and all(c.passed for c in var_checks)
        and anchored
    )
    _verdict(
        5,
        "divergence-form law",
        ok,
        f"full triple ok (max |rho_jk| = {float(np.max(off)):.3f}), degenerate "
        f"law {target_dg:.8g} vs 0.81/48 = {DEGENERATE_LAW_AT_HALF:.8g}",
    )


def test_criterion_6_spectral_laws():
    """Eigenvalue and Fourier-mode correctors hit their limit laws."""
    cfg = validate_config(
        {
            "kind": "spectral-corrector",
            "n_real": 2000,
            "epsilon_list": [0.01, 0.005, 0.0025],
            "normality_checks": True,
        }
    )
    res = run_experiment(cfg, workers=WORKERS)
    inv_target = _analytic_row(res, "inv_eig_1")
    fr_target = _analytic_row(res, "fourier_1_2")
    anchored = (
        abs(inv_target - INV_EIG_VARIANCE) / INV_EIG_VARIANCE < 1e-4
        and abs(fr_target - FOURIER_12_VARIANCE) / FOURIER_12_VARIANCE < 1e-4
    )
    names = [
        "inv_eig_var[1]",
        "fourier_var[12]",
        "defect_slope[1]",
        "defect_slope[2]",
        "inv_eig_1_skew",
        "inv_eig_1_kurtosis",
        "inv_eig_1_ks",
    ]
    details = {n: _check(res, n) for n in names}
    ok = res.status == "ok" and anchored and all(c.passed for c in details.values())
    _verdict(
        6,
        "spectral corrector laws",
        ok,
        f"inv-eig target {inv_target:.6g} (= 1.5 sigma^2), fourier target "
        f"{fr_target:.6g} (= sigma^2/(9 pi^4)); "
        + "; ".join(details[n].detail for n in names[2:4]),
    )


def test_criterion_7_scaling_exponents():
    """Deterministic variance exponents across dimensions, with d=4 log fit."""
    res = run_experiment(validate_config({"kind": "scaling-study"}), workers=1)
    slopes = {d: res.tables[f"fit_d{d}"]["slope"] for d in (1, 2, 3, 5)}
    quartic = res.tables["quartic_tail_d5"]
    names = [
        "slope_d1",
        "slope_d2",
        "slope_d3",
        "slope_d5",
        "d4_log_refinement",
        "d4_plain_slope",
        "d5_quartic_constant",
    ]
    details = {n: _check(res, n) for n in names}
    anchored = abs(quartic - QUARTIC_D5) / QUARTIC_D5 < 1e-6
    ok = res.status == "ok" and anchored and all(c.passed for c in details.values())
    _verdict(
        7,
        "dimension scaling study",
        ok,
        f"slopes d1..d3 = {slopes[1]:.3f}/{slopes[2]:.3f}/{slopes[3]:.3f}, "
        f"d5 = {slopes[5]:.3f}, quartic constant {quartic:.5f}; "
        f"{details['d4_log_refinement'].detail}",
    )


def test_criterion_8_periodic_contrast():
    """Periodic potentials correct at order eps^2, random ones at sqrt(eps)."""
    res = run_experiment(validate_config({"kind": "periodic-compare"}), workers=WORKERS)
    names = ["cell_amplitude", "periodic_slope", "random_slope"]
    details = {n: _check(res, n) for n in names}
    ok = res.status == "ok" and all(c.passed for c in details.values())
    _verdict(
        8,
        "periodic vs random contrast",
        ok,
        "; ".join(details[n].detail for n in names),
    )


def test_criterion_9_determinism():
    """Reports are byte-identical across worker counts 1, 4, 8."""
    cfg = validate_config(
        {
            "kind": "helmholtz-corrector",
            "n_real": 71,  # spans several chunks without aligning to one
            "epsilon_list": [0.02, 0.01],
            "probes": [0.5],
            "moments": ["one"],
        }
    )
    outs = {}
    for w in (1, 4, 8):
        res = run_experiment(cfg, workers=w)
        outs[w] = (
            res.to_csv(),
            json.dumps(res.to_json_dict(), sort_keys=True),
        )
    ok = outs[1] == outs[4] == outs[8]
    _verdict(
        9,
        "worker-count determinism",
        ok,
        f"csv {len(outs[1][0])} bytes and json {len(outs[1][1])} bytes "
        "identical for workers 1/4/8",
    )


def test_criterion_10_alpha_scaling():
    """Fitted corrector exponent tracks d(1/2 - alpha) for weak potentials."""
    results = []
    for alpha in (0.0, 0.1, 0.2):
        target = 2.0 * (0.5 - alpha)  # squared-norm slope
        cfg = validate_config(
            {
                "kind": "helmholtz-corrector",
                "alpha": alpha,
                "n_real": 400,
                "epsilon_list": [0.02, 0.01, 0.005, 0.0025],
                "probes": [],
                "moments": [],
                "thresholds": {"slope_lo": target - 0.3, "slope_hi": target + 0.3},
            }
        )
        res = run_experiment(cfg, workers=WORKERS)
        exponent = 0.5 * res.tables["norm_sq_fit"]["slope"]
        results.append((alpha, exponent, res.status))
    ok = all(
        st == "ok" and abs(expo - (0.5 - al)) <= 0.1 for al, expo, st in results
    )
    _verdict(
        10,
        "alpha scaling",
        ok,
        ", ".join(
            f"alpha={al:g}: exponent {expo:.4f} (target {0.5 - al:g})"
            for al, expo, _ in results
        ),
    )
