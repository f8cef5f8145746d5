"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
The canonical test matrix: KdV wave (a=0, c=1, E=-0.05), mKdV dnoidal wave
(a=0, c=1, E=-0.5, right-hand well) and mKdV cnoidal wave (a=0, c=1, E=0.3).
"""

import numpy as np
import pytest

import kpevans as kp
from kpevans.kernel import predicted_deltaW

from block_reduction import q_diag_error
from conftest import DNOIDAL_HINT, interpolant, phase_align, tabulate
from dp5 import period_map
from elliptic import cnoidal_wave, complete_K, jacobi_elliptic
from kdv_closed_form import kdv_jacobian_closed_form
from tracking import conjugation_residual, solve_conjugator, triangularized_blocks


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_monodromy_determinant(kdv_profile):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        mu = rng.uniform(-50.0, 50.0)
        k = rng.uniform(-1.0, 1.0)
        mono = kp.monodromy(kdv_profile, mu, k)
        worst = max(worst, mono.det_residual())
    report(1, worst <= 1e-8,
           f"det(e^ls M) = 1 at 20 random (mu, k): worst residual {worst:.2e}")


def test_criterion_02_evenness(kdv_profile):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        mu = rng.uniform(0.1, 3.0)
        k = rng.uniform(0.05, 0.9)
        dp = kp.evans(kdv_profile, mu, k, 1.0).value
        dm = kp.evans(kdv_profile, complex(-mu), k, 1.0).value
        worst = max(worst, abs(dp - dm) / max(1.0, abs(dp)))
        dk = kp.evans(kdv_profile, mu, -k, 1.0)
        assert dk.mantissa == kp.evans(kdv_profile, mu, k, 1.0).mantissa
    report(2, worst <= 1e-8,
           f"D even in mu (10 points, worst {worst:.2e}) and exactly even in k")


def test_criterion_03_translation_zero(kdv_profile):
    val = abs(kp.evans(kdv_profile, 0.0, 0.0, 1.0).value)
    report(3, val <= 1e-7, f"|D(0,0,1)| = {val:.2e} <= 1e-7")


def test_criterion_04_low_frequency(kdv_profile, kdv_grads, kdv_params,
                                    dnoidal_profile, dnoidal_grads):
    rep_kdv = kp.low_freq_coefficient(kdv_profile, grads=kdv_grads)
    rep_dn = kp.low_freq_coefficient(dnoidal_profile, grads=dnoidal_grads)
    from dataclasses import replace
    prof_m = kp.integrate_profile(replace(kdv_params, sigma=-1))
    rep_m = kp.low_freq_coefficient(prof_m, grads=kdv_grads)
    sigma_dev = abs(rep_m.c4 - rep_kdv.c4) / abs(rep_kdv.c4)
    ok = (rep_kdv.relative_error <= 5e-3 and rep_dn.relative_error <= 5e-3
          and sigma_dev <= 1e-3)
    report(4, ok,
           "low-frequency c4: KdV rel err "
           f"{rep_kdv.relative_error:.2e}, dnoidal rel err "
           f"{rep_dn.relative_error:.2e}, sigma-independence {sigma_dev:.2e}")


def test_criterion_05_high_frequency_sign(kdv_params):
    from dataclasses import replace
    ok = True
    details = []
    for sigma in (1, -1):
        prof = kp.integrate_profile(replace(kdv_params, sigma=sigma))
        for k in (0.3, 0.5):
            rep = kp.high_freq_sign(prof, k, [50.0, 100.0, 200.0])
            signs = [s for _, s, _ in rep.probes]
            ok = ok and all(s == sigma for s in signs)
            details.append(f"sigma={sigma:+d},k={k}:{signs}")
    report(5, ok, "sgn D(mu,k,1) = sgn sigma at mu in {50,100,200}: "
           + "; ".join(details))


def test_criterion_06_consistency_triangle(kdv_profile, dnoidal_profile,
                                           cnoidal_mkdv_profile):
    cases = [("KdV sigma=+1", kdv_profile),
             ("mKdV dnoidal sigma=+1", dnoidal_profile),
             ("mKdV cnoidal sigma=-1", cnoidal_mkdv_profile)]
    ok = True
    details = []
    for name, prof in cases:
        scan = kp.evans_scan(prof, list(np.geomspace(1e-3, 60.0, 40)), 0.1)
        good = scan.unstable and all(r.width <= 1e-6 for r in scan.roots)
        ok = ok and good
        mu_star = scan.roots[0].mu_star if scan.roots else float("nan")
        details.append(f"{name}: mu*={mu_star:.4g}")
    report(6, ok, "every positive-index wave has a bracketed root at k=0.1: "
           + "; ".join(details))


def test_criterion_07_kdv_closed_form():
    points = [(0.0, -0.05, 1.0), (0.0, -0.2, 1.0), (0.0, -0.4, 1.0),
              (0.1, -0.1, 1.0), (0.0, -0.1, 1.3)]
    worst = 0.0
    all_positive = True
    for a, E, c in points:
        params = kp.WaveParams(a, E, c, kp.NonlinearitySpec.kdv())
        cs = kp.jacobian_TM(params)
        cf = kdv_jacobian_closed_form(params)
        worst = max(worst, abs(cs - cf) / abs(cf))
        all_positive = all_positive and cs > 0 and cf > 0
    report(7, worst <= 1e-12 and all_positive,
           f"closed-form vs complex-step Jacobian at 5 KdV points: worst rel {worst:.2e},"
           f" all positive: {all_positive}")


def test_criterion_08_gradient_identity():
    points = [(0.0, -0.05, 1.0), (0.0, -0.2, 1.0), (0.1, -0.1, 1.0),
              (0.0, -0.1, 1.3), (-0.05, -0.15, 0.8)]
    worst = 0.0
    for a, E, c in points:
        assert abs(E) > 1e-3
        params = kp.WaveParams(a, E, c, kp.NonlinearitySpec.kdv())
        grads = kp.gradients(params)
        worst = max(worst, kp.gradient_identity_residual(params, grads))
    report(8, worst <= 1e-12,
           f"E gradT + a gradM + (c/2) gradP + gradH = 0: worst rel {worst:.2e}")


def test_criterion_09_kernel_residuals(kdv_profile, kdv_basis, kdv_grads):
    res = kp.kernel_residuals(kdv_basis)
    worst_kernel = max(res.values())
    pred = predicted_deltaW(kdv_basis, kdv_grads.dT[0], kdv_grads.dT[1])
    dw = kdv_basis.W[-1] - kdv_basis.W[0]
    dw_err = np.max(np.abs(dw - pred)) / np.max(np.abs(pred))
    ok = worst_kernel <= 1e-6 and dw_err <= 1e-6
    report(9, ok, f"kernel residuals worst {worst_kernel:.2e}; deltaW vs "
           f"display (independent T_a, T_E) {dw_err:.2e}")


def test_criterion_10_inverse_column(kdv_basis):
    sup = kp.verify_inverse_column(kdv_basis)
    report(10, sup <= 1e-7,
           f"W(x) (-int int u_E, -x, int u, -1)^T = e4: sup residual {sup:.2e}")


def test_criterion_11_block_reduction(kdv_profile):
    rep = kp.verify_block_reduction(kdv_profile, 100.0, 0.5)
    slope, _ = kp.lower_left_slope(kdv_profile, 0.5)
    q_diag = q_diag_error()
    ok = (q_diag <= 1e-14
          and abs(rep.avg_A1x) <= 1e-10 and abs(rep.avg_A1A1x) <= 1e-10
          and abs(slope - 3.0) <= 0.6)
    report(11, ok,
           f"Q-diag {q_diag:.1e}; averaging ({rep.avg_A1x:.1e}, "
           f"{rep.avg_A1A1x:.1e}); lower-left slope {slope:.3f} (within 20% of 3)")


def test_criterion_12_tracking():
    import math
    const = tabulate(2.0, lambda x: [[1.0, 1.0], [0.1, -1.0]], 1)
    conj = solve_conjugator(const, fp_tol=1e-14)
    err_const = float(np.max(np.abs(conj.samples - (-1.0 + math.sqrt(1.1)))))

    T, m1, m2, th, eps = 3.0, 0.7, -0.9, 1.3, 0.05
    om = 2.0 * np.pi / T
    fourier = tabulate(T, lambda x: [[m1, 0.0], [eps * th * np.cos(om * x), m2]], 16)
    conj_f = solve_conjugator(fourier, fp_tol=1e-13)
    coef = eps * th / (1j * om - (m2 - m1))
    err_fourier = float(np.max(np.abs(
        conj_f.samples[:, 0, 0] - np.real(coef * np.exp(1j * om * conj_f.grid)))))

    synth = tabulate(2.0, lambda x: [[0.8, 0.4 + 0.1 * np.cos(np.pi * x)],
                                     [0.08 * (1.0 + 0.5 * np.sin(np.pi * x)), -1.1]], 16)
    conj_s = solve_conjugator(synth, fp_tol=1e-14)
    resid = conjugation_residual(synth, conj_s)
    tri = interpolant(triangularized_blocks(synth, conj_s))
    full = period_map(interpolant(synth), 2, 2.0)
    p1 = period_map(lambda x: tri(x)[:1, :1], 1, 2.0)
    p2 = period_map(lambda x: tri(x)[1:, 1:], 1, 2.0)
    fact_err = abs(np.linalg.det(full - np.eye(2))
                   - np.linalg.det(p1 - np.eye(1)) * np.linalg.det(p2 - np.eye(1)))

    ok = (err_const <= 1e-12 and err_fourier <= 1e-10 and resid <= 1e-10
          and conj_s.periodicity_defect <= 1e-10 and fact_err <= 1e-10)
    report(12, ok,
           f"tracking: const {err_const:.1e}, Fourier {err_fourier:.1e}, "
           f"residual {resid:.1e}, periodicity {conj_s.periodicity_defect:.1e}, "
           f"Evans factorization {fact_err:.1e}")


def test_criterion_13_elliptic_layer():
    x = np.linspace(-6.0, 6.0, 101)
    worst_id = 0.0
    for k in (0.2, 0.5, 0.8, 0.95):
        sn, cn, dn = jacobi_elliptic(x, k)
        worst_id = max(worst_id, float(np.max(np.abs(sn ** 2 + cn ** 2 - 1.0))),
                       float(np.max(np.abs(dn ** 2 + k * k * sn ** 2 - 1.0))))
    prof = cnoidal_wave(0.1, 1.0, 0.8)
    built = kp.integrate_profile(prof.params)
    sup_diff = phase_align(prof, built)
    per_err = abs(prof.period - 2.0 * complete_K(0.8))
    ok = worst_id <= 1e-12 and sup_diff <= 1e-12 and per_err <= 1e-10
    report(13, ok, f"elliptic identities {worst_id:.1e}; cnoidal vs profile "
           f"{sup_diff:.1e}; period vs 2K/kappa {per_err:.1e}")


def test_criterion_14_jensen_positivity(kdv_invariants, dnoidal_params,
                                        cnoidal_mkdv_params):
    margins = {"KdV": kdv_invariants.jensen_margin()}
    margins["mKdV dnoidal"] = kp.compute_invariants(
        dnoidal_params, bracket_hint=DNOIDAL_HINT).jensen_margin()
    margins["mKdV cnoidal"] = kp.compute_invariants(
        cnoidal_mkdv_params).jensen_margin()
    for a, E, c in [(0.1, -0.1, 1.0), (0.0, -0.4, 1.0)]:
        params = kp.WaveParams(a, E, c, kp.NonlinearitySpec.kdv())
        margins[f"KdV({a},{E},{c})"] = kp.compute_invariants(params).jensen_margin()
    ok = all(m > 0 for m in margins.values())
    report(14, ok, "P T - M^2 > 0 at every sampled wave: "
           + ", ".join(f"{k}={v:.3g}" for k, v in margins.items()))
