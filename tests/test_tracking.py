"""Periodic conjugation of coupled block systems to triangular form."""

import math
import time

import numpy as np
import pytest

from kpevans.errors import IntegrationFailure

from block_reduction import block_reduction_loop
from conftest import interpolant, tabulate
from dp5 import integrate, period_map
from tracking import (BlockSystem, NoContraction, PeriodMapSingular,
                      conjugation_residual, solve_conjugator, triangularized_blocks)


def constant_system(delta=0.1):
    """One sample: M1 = 1, M2 = -1, N = 1 and lower-left delta."""
    return tabulate(2.0, lambda x: [[1.0, 1.0], [delta, -1.0]], 1)


def fourier_system():
    """Single-mode forcing with the closed-form periodic solution exact(x)."""
    T, m1, m2, th, eps = 3.0, 0.7, -0.9, 1.3, 0.05
    om = 2.0 * np.pi / T
    system = tabulate(T, lambda x: [[m1, 0.0], [eps * th * np.cos(om * x), m2]], 16)
    coef = eps * th / (1j * om - (m2 - m1))
    return system, lambda x: np.real(coef * np.exp(1j * om * x))


def synthetic_system():
    """Constant diagonal blocks, single-mode N and lower-left, period 2."""
    return tabulate(2.0, lambda x: [[0.8, 0.4 + 0.1 * np.cos(np.pi * x)],
                                    [0.08 * (1.0 + 0.5 * np.sin(np.pi * x)), -1.1]], 16)


def test_zero_delta_gives_zero_phi():
    conj = solve_conjugator(constant_system(0.0), fp_tol=1e-14)
    assert np.max(np.abs(conj.samples)) == 0.0
    assert conj.iterations == 1
    assert conj.err_est == 0.0 and conj.steps > 0


def test_constant_coefficients_quadratic_root():
    # fixed point of -2 phi + 0.1 - phi^2 = 0, small root -1 + sqrt(1.1)
    conj = solve_conjugator(constant_system(0.1), fp_tol=1e-14)
    root = -1.0 + math.sqrt(1.1)
    assert np.max(np.abs(conj.samples - root)) <= 1e-12
    assert conj.residual <= 1e-10
    assert conj.periodicity_defect <= 1e-10
    # contraction factor of order sup(delta/eta)
    assert conj.contraction_ratios[-1] <= 2.0 * 0.05 + 0.05


def test_fourier_single_mode():
    system, exact = fourier_system()
    conj = solve_conjugator(system, fp_tol=1e-13)
    assert np.max(np.abs(conj.samples[:, 0, 0] - exact(conj.grid))) <= 1e-10
    assert conj.residual <= 1e-10
    assert conj.periodicity_defect <= 1e-10


@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
def test_engine_error_estimate_against_closed_form(rtol):
    """err_est meets its documented bound and tracks the true error."""
    system, exact = fourier_system()
    conj = solve_conjugator(system, fp_tol=1e-13, ode_rtol=rtol, ode_atol=0.0)
    assert conj.steps > 0
    assert conj.err_est <= rtol * conj.norm_bound
    observed = np.max(np.abs(conj.samples[:, 0, 0] - exact(conj.grid)))
    assert observed <= 10.0 * conj.err_est


def test_engine_unreachable_tolerance_fails_fast():
    t0 = time.perf_counter()
    with pytest.raises(IntegrationFailure):
        solve_conjugator(constant_system(0.1), fp_tol=1e-14,
                            ode_rtol=1e-30, ode_atol=0.0)
    assert time.perf_counter() - t0 < 2.0


def test_triangularization_residual_and_blocks():
    system = synthetic_system()
    conj = solve_conjugator(system, fp_tol=1e-14)
    resid = conjugation_residual(system, conj)
    assert resid <= 1e-12
    # the triangular system lives on the conjugator's grid, lower-left zero
    tri = triangularized_blocks(system, conj)
    assert tri.table.n == len(conj.grid) and (tri.n1, tri.n2) == (1, 1)
    assert np.max(np.abs(tri.table.on_grid(64)[:, 1, 0])) <= 1e-15
    # delta = 0 leaves the blocks untouched
    conj0 = solve_conjugator(constant_system(0.0), fp_tol=1e-14)
    A = triangularized_blocks(constant_system(0.0), conj0).table.on_grid(4)
    assert np.array_equal(A, constant_system(0.0).table.on_grid(4))


def test_evans_factorization():
    T = 2.0
    system = synthetic_system()
    conj = solve_conjugator(system, fp_tol=1e-14)
    tri = interpolant(triangularized_blocks(system, conj))
    full = period_map(interpolant(system), 2, T)
    p1 = period_map(lambda x: tri(x)[:1, :1], 1, T)
    p2 = period_map(lambda x: tri(x)[1:, 1:], 1, T)
    lhs = np.linalg.det(full - np.eye(2))
    rhs = np.linalg.det(p1 - np.eye(1)) * np.linalg.det(p2 - np.eye(1))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_no_contraction_for_large_delta():
    with pytest.raises(NoContraction):
        solve_conjugator(constant_system(25.0), fp_tol=1e-12, max_iter=30)


def test_period_map_singular_detected():
    # M1 = M2 = 0 makes the homogeneous Sylvester flow the identity
    system = tabulate(1.0, lambda x: [[0.0, 0.0], [0.01, 0.0]], 1)
    with pytest.raises(PeriodMapSingular):
        solve_conjugator(system)


def test_gap_margin_reporting():
    assert constant_system().gap_margin() == pytest.approx(2.0, abs=1e-12)


def test_from_tables_round_trip():
    # a trailing duplicated endpoint is dropped
    system, exact = fourier_system()
    mats = system.table.on_grid(64)
    rebuilt = BlockSystem.from_tables(3.0, np.linspace(0.0, 3.0, 65),
                                         np.concatenate([mats, mats[:1]]), n1=1, n2=1)
    assert rebuilt.table.n == 64
    conj = solve_conjugator(rebuilt, fp_tol=1e-13)
    assert np.max(np.abs(conj.samples[:, 0, 0] - exact(conj.grid))) <= 1e-10


def test_reduced_evans_system_feed(kdv_profile):
    """Tracking applied to the high-frequency reduced system (n1=3, n2=1).

    The literal two-sided gap fails here (stable and unstable directions
    share M1), but the periodic closure is still unique; Phi comes out at
    the eps^{3/2} scale of the coupling, certifying the reduction step.
    """
    ref = block_reduction_loop(kdv_profile, 100.0, 0.5)
    T_t = ref.grid[-1]
    system = BlockSystem.from_tables(T_t, ref.grid, ref.system, n1=3, n2=1)
    assert system.gap_margin() < 0  # mixed dichotomy: documented gap violation
    conj = solve_conjugator(system, fp_tol=1e-11, ode_rtol=1e-11,
                               ode_atol=1e-12, n_grid=384)
    assert conj.norm_bound <= 5.0 * ref.eps ** 1.5
    assert conj.norm_bound >= 0.05 * ref.eps ** 1.5
    assert conj.residual <= 1e-9
    assert conj.periodicity_defect <= 1e-9
    assert conj.err_est <= 1e-12 + 1e-11 * conj.norm_bound
    assert conjugation_residual(system, conj) <= 1e-9

    # DP5 reference: from every 16th grid point, integrate the conjugation
    # equation through the next 16 intervals and meet the engine's samples
    full = interpolant(system)

    def rhs(x, Phi):
        A = full(x)
        return A[3:, 3:] @ Phi - Phi @ A[:3, :3] + A[3:, :3] - Phi @ A[:3, 3:] @ Phi

    worst = 0.0
    for j in range(0, 384, 16):
        cps = conj.grid[j + 1:j + 16]
        end = conj.grid[j + 16] if j + 16 < 384 else T_t
        y_end, rec = integrate(rhs, conj.grid[j], end, conj.samples[j],
                               rtol=1e-12, atol=1e-14, checkpoints=cps)
        ref = np.array(rec + [y_end])
        worst = max(worst, float(np.max(np.abs(ref - conj.samples[np.arange(j + 1, j + 17) % 384]))))
    assert worst <= 1e-9
