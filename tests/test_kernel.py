"""Kernel quadruple (u_x, u_a, u_E, phi), W matrix, and inverse-column checks."""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import kpevans as kp
from kpevans.errors import WronskianDegenerate
from kpevans.kernel import _running_integral, predicted_deltaW, second_derivative_fd
from kpevans.wave import turning_point_derivatives

from conftest import FOLD_WELLS, SHALLOW, seeded_turning_points

KERNEL_TOL = 1e-6


def named(basis):
    """The basis' fields with its solutions by name, read from W: ux, ua,
    uE, phi (row 0), their slopes uxp, uap, uEp, phip (row 1), and
    I_E = int_0^x u_E by the basis' own quintic Hermite rule."""
    cols = {}
    for j, name in enumerate(("ux", "ua", "uE", "phi")):
        cols[name], cols[name + "p"] = basis.W[:, 0, j], basis.W[:, 1, j]
    cols["I_E"] = _running_integral(basis.grid[1] - basis.grid[0], cols["uE"],
                                    cols["uEp"], basis.W[:, 2, 2])
    return SimpleNamespace(**vars(basis), **cols)


@pytest.fixture(scope="module")
def kdv_solutions(kdv_basis):
    return named(kdv_basis)


def predicted_W0(basis):
    """The explicit W(0, 0, 0) built from turning-point data alone."""
    profile = basis.profile
    Vm = kp.eval_V(profile.params, profile.u_minus, 1)
    Vmm = kp.eval_V(profile.params, profile.u_minus, 2)
    tps = (profile.u_minus, profile.u_plus)
    aa, aE = turning_point_derivatives(tps, kp.eval_V(profile.params, np.array(tps), 1))[:2, 0]
    return np.array([
        [0.0, aa, aE, 0.0],
        [-Vm, 0.0, 0.0, 0.0],
        [0.0, 1.0 - Vmm * aa, -Vmm * aE, 0.0],
        [Vmm * Vm, 0.0, 0.0, -1.0],
    ])


def cross_identity_residual(basis):
    """Residual of u_a u_Exx - u_axx u_E = -u_E, the derivative of the
    (u_a, u_E) cross-Wronskian, with finite-difference second derivatives."""
    _, d2uE = second_derivative_fd(basis.grid, basis.uE)
    _, d2ua = second_derivative_fd(basis.grid, basis.ua)
    core = slice(3, -3)
    resid = basis.ua[core] * d2uE - d2ua * basis.uE[core] + basis.uE[core]
    return float(np.max(np.abs(resid)))


def test_kernel_relation_residuals(kdv_basis):
    res = kp.kernel_residuals(kdv_basis)
    for name in ("ux", "uE", "ua", "phi"):
        assert res[name] <= KERNEL_TOL


def test_translation_mode_boundary_values(kdv_solutions):
    assert kdv_solutions.ux[0] == 0.0
    assert abs(kdv_solutions.ux[-1]) <= 1e-9


def test_ux_matches_profile_derivative(kdv_profile, kdv_solutions):
    # the kernel's own translation mode vs the profile interpolant derivative
    diff = kdv_solutions.ux - kdv_profile.at(kdv_solutions.grid)[1]
    assert np.max(np.abs(diff)) <= 1e-9 * (1.0 + np.max(np.abs(kdv_solutions.ux)))


def test_phi_initial_data(kdv_solutions):
    # fourth column of W(0,0,0) is (0, 0, 0, -1)
    assert kdv_solutions.phi[0] == 0.0
    assert kdv_solutions.phip[0] == 0.0
    assert kdv_solutions.W[0, 2, 3] == pytest.approx(0.0, abs=1e-12)
    assert kdv_solutions.W[0, 3, 3] == pytest.approx(-1.0, abs=1e-10)


def test_wronskian_is_one(kdv_solutions):
    b = kdv_solutions
    assert np.max(np.abs(b.ux * b.uEp - b.uxp * b.uE - 1.0)) <= 1e-10


def test_wronskian_degenerate_below_separatrix():
    """1e-9 below the KdV separatrix the (u_x, u_E) Wronskian drifts from 1
    by about 3.9e-6, past the 1e-6 bound, so the basis is refused."""
    profile = kp.integrate_profile(kp.WaveParams(0.0, -1e-9, 1.0, kp.NonlinearitySpec.kdv()))
    with pytest.raises(WronskianDegenerate, match="drifted"):
        kp.variational_solutions(profile)


@pytest.mark.parametrize("wave", ["kdv", "dnoidal", "cnoidal_mkdv"])
def test_W_third_derivative_row_against_fd(request, wave):
    """W[:, 3] (v''', from the governing equation) against the 7-point
    second difference of W[:, 1] (v'), column by column, scaled as in
    kernel_residuals."""
    basis = kp.variational_solutions(request.getfixturevalue(f"{wave}_profile"))
    for j in range(4):
        vp = basis.W[:, 1, j]
        _, d2 = second_derivative_fd(basis.grid, vp)
        err = np.max(np.abs(d2 - basis.W[3:-3, 3, j]))
        assert err <= KERNEL_TOL * (1.0 + np.max(np.abs(vp))), j


@pytest.mark.parametrize("side", [0, 1], ids=["u-", "u+"])
@pytest.mark.parametrize("row, q", [(0, "a"), (1, "E"), (2, "c")], ids=["a", "E", "c"])
def test_turning_point_derivative_identities(kdv_params, kdv_profile, row, q, side):
    """V'(u) du/dq = dp/dq(u), dp/d(a, E, c) = (u, 1, u^2/2), against a central
    difference of the turning point, and turning_point_derivatives' entry."""
    seed = (kdv_profile.u_minus, kdv_profile.u_plus)
    u, h = seed[side], 1e-6

    def root_at(step):
        moved = replace(kdv_params, **{q: getattr(kdv_params, q) + step})
        return seeded_turning_points(moved, seed)[side]

    fd = (root_at(h) - root_at(-h)) / (2 * h)
    dp_dq = (u, 1.0, 0.5 * u * u)[row]
    assert kp.eval_V(kdv_params, u, 1) * fd == pytest.approx(dp_dq, abs=1e-8)
    got = turning_point_derivatives(seed, kp.eval_V(kdv_params, np.array(seed), 1))[row, side]
    assert got == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("wave", ["kdv", "dnoidal", "cnoidal_mkdv"])
def test_stored_theta_gives_the_solved_basis(request, wave):
    """The basis on the theta that integrate_profile stored equals, byte for
    byte, the basis of the same profile without theta, which solves theta
    again."""
    profile = request.getfixturevalue(f"{wave}_profile")
    read = replace(profile, theta=None)
    assert profile.theta is not None and read.theta is None
    stored, solved = kp.variational_solutions(profile), kp.variational_solutions(read)
    for f in fields(stored):
        if f.name != "profile":
            assert getattr(stored, f.name).tobytes() == getattr(solved, f.name).tobytes()


def test_ua_against_two_profile_fd(kdv_params, kdv_profile, kdv_solutions):
    """Phase-locked finite difference of neighboring profiles (h = 1e-5)."""
    h = 1e-5
    plus = kp.integrate_profile(replace(kdv_params, a=kdv_params.a + h))
    minus = kp.integrate_profile(replace(kdv_params, a=kdv_params.a - h))
    x = kdv_solutions.grid[kdv_solutions.grid <= 0.9 * min(plus.period, minus.period)]
    fd = (plus.at(x)[0] - minus.at(x)[0]) / (2.0 * h)
    ua = kdv_solutions.ua[: len(x)]
    assert np.max(np.abs(fd - ua)) <= 1e-6 * (1.0 + np.max(np.abs(ua)))


def test_uE_against_two_profile_fd(kdv_params, kdv_solutions):
    h = 1e-6
    plus = kp.integrate_profile(replace(kdv_params, E=kdv_params.E + h))
    minus = kp.integrate_profile(replace(kdv_params, E=kdv_params.E - h))
    x = kdv_solutions.grid[kdv_solutions.grid <= 0.9 * min(plus.period, minus.period)]
    fd = (plus.at(x)[0] - minus.at(x)[0]) / (2.0 * h)
    uE = kdv_solutions.uE[: len(x)]
    assert np.max(np.abs(fd - uE)) <= 1e-4 * (1.0 + np.max(np.abs(uE)))


def test_basis_against_dp5(dp5_reference):
    """Every field of the basis against the joint DP5 solve at 1e-14."""
    profile, ref = dp5_reference
    basis = named(kp.variational_solutions(profile))
    for name, vals in ref.items():
        field = "ux" if name == "up" else name   # the basis holds u' once, as u_x
        assert np.max(np.abs(getattr(basis, field) - vals)) <= 1e-10, name


@pytest.mark.parametrize("wave", ["kdv", "dnoidal", "cnoidal_mkdv"])
def test_complex_step_against_central_difference(request, wave):
    """u_a, u_E and their slopes at fixed x against central differences of
    real profiles at a +- h, E +- h (h = 1e-5, truncation about 4e-9)."""
    profile = request.getfixturevalue(f"{wave}_profile")
    basis = named(kp.variational_solutions(profile))
    params, hint, h = profile.params, (profile.u_minus, profile.u_plus), 1e-5
    for q, v, vx in (("a", basis.ua, basis.uap), ("E", basis.uE, basis.uEp)):
        plus, minus = (kp.integrate_profile(replace(params, **{q: getattr(params, q) + s}),
                                            bracket_hint=hint) for s in (h, -h))
        x = basis.grid[basis.grid <= min(plus.period, minus.period)]
        fd = np.subtract(plus.at(x), minus.at(x)) / (2.0 * h)   # rows u, u_x
        for got, exact in zip(fd, (v[:len(x)], vx[:len(x)])):
            assert np.max(np.abs(got - exact)) <= 2e-8 * (1.0 + np.max(np.abs(exact)))


def test_gram_determinant_nonzero(kdv_basis):
    T = kdv_basis.grid[-1]
    idx = [np.argmin(np.abs(kdv_basis.grid - f * T)) for f in (0.123, 0.37, 0.61, 0.83)]
    G = kdv_basis.W[idx, 0, :]    # (u_x, u_a, u_E, phi) at the four points
    norms = np.prod([np.linalg.norm(G[:, j]) for j in range(4)])
    assert abs(np.linalg.det(G)) > 1e-8 * norms


def test_det_W_is_one(kdv_basis):
    T = kdv_basis.grid[-1]
    dets = np.linalg.det(kdv_basis.W)
    for frac in (0.0, 0.25, 0.5, 1.0):
        i = np.argmin(np.abs(kdv_basis.grid - frac * T))
        assert dets[i] == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(dets - 1.0)) <= 1e-8


def deltaW(basis):
    return basis.W[-1] - basis.W[0]


def test_W0_matches_display(kdv_basis):
    pred = predicted_W0(kdv_basis)
    assert np.max(np.abs(kdv_basis.W[0] - pred)) <= 1e-12


def test_deltaW_first_column_vanishes(kdv_basis):
    assert np.max(np.abs(deltaW(kdv_basis)[:, 0])) <= 1e-9


def test_deltaW_entry_22(kdv_params, kdv_profile, kdv_basis, kdv_grads):
    Vm = kp.eval_V(kdv_params, kdv_profile.u_minus, 1)
    assert deltaW(kdv_basis)[1, 1] == pytest.approx(Vm * kdv_grads.dT[0], rel=1e-6)


def test_deltaW_matches_display(kdv_basis, kdv_grads):
    pred = predicted_deltaW(kdv_basis, kdv_grads.dT[0], kdv_grads.dT[1])
    scale = np.max(np.abs(pred))
    assert np.max(np.abs(deltaW(kdv_basis) - pred)) <= 1e-6 * scale
    # rows 1 and 3 of columns 2-3 vanish; the (a, E) block is rank one
    assert np.max(np.abs(pred[np.ix_([0, 2], [1, 2])])) == 0.0
    block = pred[np.ix_([1, 3], [1, 2])]
    assert abs(np.linalg.det(block)) <= 1e-12 * np.max(np.abs(block)) ** 2


def displayed_deltaW(profile, basis, T_a, T_E):
    """The displayed delta W: the pure int x u_E moment in column 4."""
    Vm = kp.eval_V(profile.params, profile.u_minus, 1)
    Vmm = kp.eval_V(profile.params, profile.u_minus, 2)
    tps = (profile.u_minus, profile.u_plus)
    aE = turning_point_derivatives(tps, kp.eval_V(profile.params, np.array(tps), 1))[1, 0]
    Ix, IE = basis.I_sx[-1], basis.I_sE[-1]
    return np.array([
        [0.0, 0.0, 0.0, -aE * Ix],
        [0.0, Vm * T_a, Vm * T_E, -Vm * IE],
        [0.0, 0.0, 0.0, -profile.period + Vmm * aE * Ix],
        [0.0, -Vm * Vmm * T_a, -Vm * Vmm * T_E, Vmm * Vm * IE],
    ])


def test_deltaW_column_reduction(kdv_profile, kdv_basis, kdv_grads):
    """The displayed variant differs by a column operation only."""
    pred = predicted_deltaW(kdv_basis, kdv_grads.dT[0], kdv_grads.dT[1])
    disp = displayed_deltaW(kdv_profile, kdv_basis, kdv_grads.dT[0], kdv_grads.dT[1])
    Ix = kdv_basis.I_sx[-1]
    assert np.allclose(disp[:, 3], pred[:, 3] + Ix * pred[:, 2], rtol=0, atol=1e-12)
    assert np.allclose(disp[:, :3], pred[:, :3], rtol=0, atol=0)


def test_inverse_column_identity(kdv_solutions):
    b = kdv_solutions
    assert kp.verify_inverse_column(b) <= 1e-7
    # the claimed column against a direct linear solve of W(x) c = e4
    e4 = np.array([0.0, 0.0, 0.0, 1.0])
    claimed = np.stack([-b.II_E, -b.grid, b.J, -np.ones_like(b.grid)], axis=1)
    solved = np.linalg.solve(b.W, np.broadcast_to(e4[:, None], (len(b.grid), 4, 1)))
    assert np.max(np.abs(solved[:, :, 0] - claimed)) <= 1e-7
    # the intermediate identity u_a' u_E - u_a u_E' = int u_E
    assert np.max(np.abs(b.uap * b.uE - b.ua * b.uEp - b.I_E)) <= 1e-7
    # at x = 0 the claimed vector is (0, 0, 0, -1); W(0) e4-column is too
    assert np.allclose(b.W[0] @ np.array([0.0, 0.0, 0.0, -1.0]), e4, atol=1e-12)


def shallow_well(name):
    """(params, bracket hint) of a SHALLOW or FOLD_WELLS entry."""
    if name in SHALLOW:
        return SHALLOW[name][:2]
    f, a, E, c, bottom = FOLD_WELLS[name]
    return (kp.WaveParams(a, E, c, kp.NonlinearitySpec.polynomial(f)),
            (bottom - 1e-3, bottom + 1e-3))


@pytest.mark.xfail(strict=True, reason=(
    "on wells 1e-4 to 1e-6 deep the closed-form basis mixes the turning-point "
    "derivatives 1 / V'(u+-), about 2.4e4 there, with independent rounding, and "
    "its inverse-column residual exceeds verify's 1e-7 row (the FOUND line on "
    "shallow wells in CHANGES.md)"))
@pytest.mark.parametrize("name", ["kdv-1e-6-t0.1", "kdv-1e-6-t0.5", "mixed+1~1e-06@0.1"])
def test_inverse_column_on_shallow_wells(name):
    """The inverse-column identity at verify's 1e-7 on three 1e-6-deep wells;
    measured 1.35e-6, 3.56e-7 and 3.05e-7."""
    params, hint = shallow_well(name)
    basis = kp.variational_solutions(kp.integrate_profile(params, bracket_hint=hint))
    assert kp.verify_inverse_column(basis) <= 1e-7


def test_cross_wronskian_identity(kdv_solutions):
    # u_a u_Exx - u_axx u_E = -u_E, with FD second derivatives
    assert cross_identity_residual(kdv_solutions) <= 1e-7 * (
        1.0 + np.max(np.abs(kdv_solutions.uE)))
