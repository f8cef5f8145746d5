"""Periodic orbit construction: turning points, period, profile, cnoidal."""

from dataclasses import replace

import numpy as np
import pytest

import kpevans as kp
from kpevans import cli
from kpevans.errors import (AmbiguousWell, DegenerateTurningPoint, NoPeriodicOrbit,
                            QuadratureNotConverged)

from kpevans.wave import (_cosine_series, _real_roots, _well_nodes,
                          _x_series, complex_step_rows, orbit_theta)

from conftest import cardano_real_roots, horner_from_zero, phase_align
from dp5 import integrate
from elliptic import ModulusOutOfRange, cnoidal_wave, complete_K
from kdv_closed_form import cubic_discriminant

KDV = kp.NonlinearitySpec.kdv()
MKDV = kp.NonlinearitySpec.mkdv()


def return_time_oracle(params, u_minus, t_max=50.0):
    """Independent period oracle: integrate u'' = -V'(u) until the orbit
    returns to the starting turning point (second zero of u_x), polishing
    the crossing with Newton on x -> u_x(x)."""

    def rhs(x, y):
        return np.array([y[1], -kp.eval_V(params, y[0], 1)])

    # coarse pass: the trough return is the first ascending zero of u_x
    grid = np.linspace(0.0, t_max, 4001)
    _, rec = integrate(rhs, 0.0, t_max, np.array([u_minus, 0.0]),
                       rtol=1e-12, atol=1e-12, checkpoints=grid)
    ux = np.array([r[1] for r in rec])
    crossings = np.nonzero((ux[:-1] < 0) & (ux[1:] >= 0))[0]
    lo = grid[crossings[0] + 1]
    for _ in range(8):
        y, _ = integrate(rhs, 0.0, lo, np.array([u_minus, 0.0]),
                         rtol=1e-13, atol=1e-13)
        u, ux_v = y
        uxx = -kp.eval_V(params, u, 1)
        step = ux_v / uxx
        lo -= step
        if abs(step) < 1e-13:
            break
    return lo


def test_turning_points_against_cardano(kdv_params):
    # E - V = -u^3/6 + u^2/2 + E; oracle roots via closed form
    roots = cardano_real_roots(-1.0 / 6.0, 0.5, 0.0, kdv_params.E)
    assert len(roots) == 3
    u_minus, u_plus = kp.find_turning_points(kdv_params)
    # the well is between the two largest roots
    assert u_minus == pytest.approx(roots[1], abs=1e-12)
    assert u_plus == pytest.approx(roots[2], abs=1e-12)


def test_separatrix_is_degenerate():
    params = kp.WaveParams(0.0, 0.0, 1.0, KDV)
    # oracle: the cubic discriminant of E - V vanishes at the separatrix
    assert cubic_discriminant(params.energy_poly()) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DegenerateTurningPoint):
        kp.find_turning_points(params)


def test_harmonic_regime_turning_points():
    # E slightly above the well bottom V(2) = -2/3: u_pm ~ 2 +- sqrt(2 eps)
    eps = 1e-6
    params = kp.WaveParams(0.0, -2.0 / 3.0 + eps, 1.0, KDV)
    u_minus, u_plus = kp.find_turning_points(params)
    half_width = np.sqrt(2.0 * eps)  # V''(2) = 1
    assert u_minus == pytest.approx(2.0 - half_width, abs=3e-3 * half_width)
    assert u_plus == pytest.approx(2.0 + half_width, abs=3e-3 * half_width)


def test_harmonic_limit_period():
    params = kp.WaveParams(0.0, -2.0 / 3.0 + 1e-6, 1.0, KDV)
    T = kp.compute_period(params)
    assert T == pytest.approx(2.0 * np.pi, abs=1e-4)


def test_period_against_return_time_oracle(kdv_params, kdv_profile):
    T_quad = kp.compute_period(kdv_params)
    T_ode = return_time_oracle(kdv_params, kdv_profile.u_minus)
    assert abs(T_quad - T_ode) <= 1e-10 * T_quad


def test_period_diverges_toward_separatrix():
    energies = [-0.2, -0.1, -0.05, -0.02, -0.008]
    periods = [kp.compute_period(kp.WaveParams(0.0, E, 1.0, KDV))
               for E in energies]
    assert all(b > a for a, b in zip(periods, periods[1:]))
    assert periods[-1] > periods[0] + 2.0


def test_profile_energy_residual(kdv_profile):
    assert kdv_profile.energy_residual() <= 10.0 * 1e-12 * \
        max(1.0, kdv_profile.u_plus - kdv_profile.u_minus)


def test_profile_extrema_match_turning_points(kdv_profile):
    assert np.max(kdv_profile.u_samples) == pytest.approx(kdv_profile.u_plus, abs=1e-9)
    assert np.min(kdv_profile.u_samples) == pytest.approx(kdv_profile.u_minus, abs=1e-9)


def test_profile_is_even_about_endpoints_and_midpoint(kdv_profile):
    T = kdv_profile.period
    x = np.linspace(0.05 * T, 0.45 * T, 23)
    at = kdv_profile.at
    assert np.max(np.abs(at(T - x)[0] - at(x)[0])) <= 1e-9
    assert np.max(np.abs(at(0.5 * T + x)[0] - at(0.5 * T - x)[0])) <= 1e-9


def test_period_consistency_quadrature_vs_profile(kdv_params, kdv_profile):
    assert kp.compute_period(kdv_params) == pytest.approx(
        kdv_profile.grid[-1], rel=1e-9)


def test_profile_against_dp5(dp5_reference):
    """The theta-series profile against DP5 at rtol = atol = 1e-14."""
    profile, ref = dp5_reference
    assert np.max(np.abs(profile.u_samples - ref["u"])) <= 1e-12
    assert np.max(np.abs(profile.ux_samples - ref["up"])) <= 1e-12


def test_theta_series_not_converged_raises():
    # 1e-12 below the separatrix g nearly vanishes at u_-: dx/dtheta needs
    # far more than 2^14 cosine modes, while the period quadrature converges
    params = kp.WaveParams(0.0, -1e-12, 1.0, KDV)
    with pytest.raises(QuadratureNotConverged, match="cosine series"):
        kp.integrate_profile(params)


def test_near_separatrix_profile():
    """1e-7 below the KdV separatrix the theta series has 2048 modes.  The
    energy residual and the mirror symmetry u(T - x) = u(x) of the samples
    stay at rounding: 1.1e-15 and 6.7e-15 measured (the sine-table sum
    gave 1.0e-15 and 1.1e-14)."""
    prof = kp.integrate_profile(kp.WaveParams(0.0, -1e-7, 1.0, KDV))
    assert prof.energy_residual() <= 1e-14
    assert np.max(np.abs(prof.u_samples - prof.u_samples[::-1])) <= 1e-13


def sine_table_x(coef, theta, scale):
    """x(theta) = scale (a_0 theta + sum_k a_k sin(2k theta) / 2k) from a
    table of sines in long double, part by part for complex rows: the
    reference of _x_series."""
    th = np.asarray(theta, dtype=np.longdouble)

    def part(c):
        c = np.asarray(c, dtype=np.longdouble)
        k2 = 2 * np.arange(1, c.shape[-1])
        b = c[..., 1:] / k2
        sines = np.concatenate([np.sin(np.multiply.outer(th[i:i + 128], k2)) @ b.T
                                for i in range(0, len(th), 128)]).T
        return scale * (np.multiply.outer(c[..., 0], th) + sines)

    if np.iscomplexobj(coef):
        return part(coef.real), part(coef.imag)
    return part(coef), None


def x_series_bound(c, scale):
    """K eps (sum |b_k| + sum |a_k|) |scale| per row, b_k = a_k / 2k: the
    rounding of K multiply-adds on the unit circle."""
    K = c.shape[-1]
    b = c[..., 1:] / (2.0 * np.arange(1, K))
    total = np.sum(np.abs(b), axis=-1, keepdims=True) + np.sum(np.abs(c), axis=-1,
                                                                keepdims=True)
    return K * np.finfo(float).eps * total * np.abs(scale)


@pytest.mark.parametrize("f, E, hint, K", [
    (KDV, -0.66, None, 16), (KDV, -0.05, None, 64), (KDV, -1e-3, None, 256),
    (KDV, -1e-7, None, 2048), (MKDV, -0.5, (0.5, 3.0), 32), (MKDV, 0.3, None, 256)],
    ids=["kdv-0.66", "kdv-0.05", "kdv-1e-3", "kdv-1e-7", "dnoidal", "cnoidal"])
def test_x_series_equals_sine_table(f, E, hint, K):
    """The Horner sum of the theta series against the sine table, on the
    real row and on the complex-step rows of the kernel basis (a and E), at
    the grid's theta and at points just outside [0, pi] where Newton
    iterates can land; each series has at least K terms.  Each part meets
    its own bound, the imaginary parts included: the real part's rounding
    must not reach the complex step.  Worst measured ratio to the bound:
    0.16 (K = 16, real row)."""
    params = kp.WaveParams(0.0, E, 1.0, f)
    tps = np.array(kp.find_turning_points(params, hint))
    T = kp.compute_period(params, tuple(tps))
    p = params.energy_poly()
    rows, roots = complex_step_rows(params, tps, kp.eval_V(params, tps, 1))
    rows, roots = rows[:2], roots[:2]
    theta = orbit_theta(p, tuple(tps), T, np.linspace(0.0, T, 1025))
    theta = np.concatenate([theta, [-1e-2, -1e-8, np.pi + 1e-8, np.pi + 1e-2]])
    for asc, ends in ((p, tuple(tps)), (rows, tuple(roots.T))):
        at = _well_nodes(asc, *ends)
        coef = _cosine_series(lambda th: np.sqrt(2.0) / at(th)[1])
        assert coef.shape[-1] >= K
        scale = T / (np.pi * coef[..., :1].real)
        got = _x_series(coef, theta, scale)
        want_re, want_im = sine_table_x(coef, theta, scale)
        assert got.shape == want_re.shape
        err = np.abs((got.real - want_re).astype(float))
        assert np.all(err <= x_series_bound(coef.real, scale))
        if want_im is not None:
            err = np.abs((got.imag - want_im).astype(float))
            assert np.all(err <= x_series_bound(coef.imag, scale))


def test_interpolant_accuracy(kdv_params, kdv_profile):
    """Off-grid values against a finer profile (quintic contract)."""
    fine = kp.integrate_profile(kdv_params, samples_per_period=4096)
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, kdv_profile.period, 50)
    err_u, err_ux = (np.max(np.abs(a - b)) for a, b in zip(kdv_profile.at(xs), fine.at(xs)))
    assert err_u <= 1e-11
    assert err_ux <= 1e-9


def test_multi_well_requires_hint():
    params = kp.WaveParams(0.0, -0.5, 1.0, MKDV)
    with pytest.raises(AmbiguousWell):
        kp.find_turning_points(params)
    u_minus, u_plus = kp.find_turning_points(params, bracket_hint=(0.5, 3.0))
    # quartic roots: u^2 = 3 +- sqrt(3)
    assert u_minus == pytest.approx(np.sqrt(3.0 - np.sqrt(3.0)), abs=1e-10)
    assert u_plus == pytest.approx(np.sqrt(3.0 + np.sqrt(3.0)), abs=1e-10)


def test_no_periodic_orbit_below_well():
    params = kp.WaveParams(0.0, -1.0, 1.0, MKDV)  # E below the well bottom -3/4
    with pytest.raises(NoPeriodicOrbit):
        kp.find_turning_points(params)


def test_samples_per_period_floor(kdv_params):
    with pytest.raises(ValueError):
        kp.integrate_profile(kdv_params, samples_per_period=32)


# ----------------------------------------------------------------------
# cnoidal closed form
# ----------------------------------------------------------------------

def test_cnoidal_period_is_2K_over_kappa():
    # (u0, kappa, k) chosen so the recovered wave speed stays positive
    for u0, kappa, k in ((0.1, 1.0, 0.8), (6.0, 1.7, 0.5)):
        prof = cnoidal_wave(u0, kappa, k)
        assert prof.period == pytest.approx(2.0 * complete_K(k) / kappa,
                                            abs=1e-10)


def test_cnoidal_small_modulus_tends_to_constant():
    # amplitude 12 k^2 kappa^2 -> 0; pick u0 with c > 0
    prof = cnoidal_wave(4.5, 1.0, 0.01)
    amp = np.max(prof.u_samples) - np.min(prof.u_samples)
    assert amp == pytest.approx(12.0 * 0.01 ** 2, rel=1e-2)
    assert np.max(np.abs(prof.u_samples - 4.5)) <= 2.0 * 12.0 * 0.01 ** 2


def test_cnoidal_recovered_parameters():
    u0, kappa, k = 0.1, 1.0, 0.8
    prof = cnoidal_wave(u0, kappa, k)
    amp = 12.0 * k ** 2 * kappa ** 2
    c = 8.0 * k ** 2 * kappa ** 2 - 4.0 * kappa ** 2 + u0
    a = 2.0 * amp * kappa ** 2 * (1 - k ** 2) + 4.0 * kappa ** 2 * (1 - 2 * k ** 2) * u0 \
        - 0.5 * u0 ** 2
    E = kp.eval_V(kp.WaveParams(a, 0.0, c, KDV), u0, 0)
    assert prof.params.c == pytest.approx(c, abs=1e-14)
    assert prof.params.a == pytest.approx(a, abs=1e-11)
    assert prof.params.E == pytest.approx(E, abs=1e-11)


def test_cnoidal_matches_integrated_profile():
    prof = cnoidal_wave(0.1, 1.0, 0.8)
    built = kp.integrate_profile(prof.params)
    assert phase_align(prof, built) <= 1e-12
    assert np.max(np.abs(prof.u_samples - built.u_samples)) <= 1e-12
    assert np.max(np.abs(prof.ux_samples - built.ux_samples)) <= 1e-12


def test_cnoidal_shape_invariant_under_u0_shift():
    base = cnoidal_wave(0.1, 1.0, 0.8)
    shifted = cnoidal_wave(0.1 + 0.7, 1.0, 0.8)
    amp0 = np.max(base.u_samples) - np.min(base.u_samples)
    amp1 = np.max(shifted.u_samples) - np.min(shifted.u_samples)
    assert amp1 == pytest.approx(amp0, abs=1e-12)
    assert shifted.params.c - base.params.c == pytest.approx(0.7, abs=1e-12)


def test_cnoidal_modulus_domain():
    with pytest.raises(ModulusOutOfRange):
        cnoidal_wave(0.1, 1.0, 0.0)
    with pytest.raises(ModulusOutOfRange):
        cnoidal_wave(0.1, 1.0, 1.0)


def test_profile_json_round_trip(kdv_profile, tmp_path):
    """A profile rebuilt from its samples alone (no theta) interpolates as
    the original does, and the CLI's writer gives its CSV."""
    back = replace(kdv_profile, theta=None)
    assert back.period == kdv_profile.period
    assert np.array_equal(back.u_samples, kdv_profile.u_samples)
    x = 0.37 * kdv_profile.period
    assert back.at(x)[0] == kdv_profile.at(x)[0]
    # the interpolant is a pure function of the stored samples
    xs = np.linspace(-0.3, 1.7, 977) * kdv_profile.period
    for got, want in zip(back.at(xs), kdv_profile.at(xs)):
        assert np.array_equal(got, want)
    for m in (1, 3):
        for got, want in zip(back.substep_samples(m), kdv_profile.substep_samples(m)):
            assert np.array_equal(got, want)
    path = tmp_path / "profile.csv"
    cli._write_csv(path, "x,u,ux",
                   zip(kdv_profile.grid, kdv_profile.u_samples, kdv_profile.ux_samples))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u,ux"
    assert len(lines) == len(kdv_profile.grid) + 1


def np_roots_polished(asc):
    """The real roots by np.roots and a scalar Newton polish, merged: the
    reference _real_roots must equal bit for bit."""
    c = np.asarray(asc, dtype=float)
    while len(c) > 1 and c[-1] == 0.0:
        c = c[:-1]
    if len(c) <= 1:
        return []
    raw = np.roots(c[::-1])
    scale = 1.0 + np.max(np.abs(raw)) if len(raw) else 1.0
    d1 = c[1:] * np.arange(1, len(c))
    out = []
    for r in raw:
        if abs(r.imag) > 1e-7 * scale:
            continue
        x = float(r.real)
        for _ in range(3):
            dp = horner_from_zero(d1, x)
            if abs(dp) < 1e-12 * scale:
                break
            step = horner_from_zero(c, x) / dp
            x -= step
            if abs(step) < 1e-16 * (1.0 + abs(x)):
                break
        out.append(x)
    merged = []
    for x in sorted(out):
        if merged and abs(x - merged[-1][0] / merged[-1][1]) <= 1e-7 * (1.0 + abs(x)):
            merged[-1] = (merged[-1][0] + x, merged[-1][1] + 1)
        else:
            merged.append((x, 1))
    return [s / n for s, n in merged]


def test_real_roots_equal_np_roots_and_polish():
    rng = np.random.default_rng(20)
    polys = [
        [0.0, -1.0, 0.0, 1.0],            # u^3 - u: a root at 0
        [0.0, 0.0, 1.0, -1.0],            # a double root at 0 and 1
        [2.0, -3.0, 0.0, 1.0],            # (u - 1)^2 (u + 2): a double root
        [-1.0, 0.0, 1.0, 0.0, 0.0],       # trailing zeros
        [0.5, 2.0], [3.0], [0.0, 0.0], [0.0, 0.0, 0.0, 2.0],
    ]
    polys += [rng.normal(size=rng.integers(2, 8)) for _ in range(300)]
    for f, E, a, c in [(KDV, -0.05, 0.0, 1.0), (MKDV, -0.5, 0.0, 1.0), (MKDV, 0.3, 0.0, 1.0),
                       (KDV, 0.2, -0.3, 0.7), (MKDV, 1e-6, 0.1, 1.3)]:
        polys.append(kp.WaveParams(a, E, c, f).energy_poly())
    for asc in polys:
        got, want = _real_roots(np.asarray(asc, dtype=float)), np_roots_polished(asc)
        assert all(type(x) is float for x in got), asc
        assert np.array(got).tobytes() == np.array(want).tobytes(), (asc, got, want)
    assert _real_roots(np.array([0.0, -1.0, 0.0, 1.0]))[1] == 0.0
