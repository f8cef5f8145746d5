"""Kernel quadruple (u_x, u_a, u_E, phi), W matrix, and inverse-column checks."""

from dataclasses import fields, replace

import numpy as np
import pytest

import kpevans as kp
from kpevans.kernel import predicted_deltaW, second_derivative_fd
from kpevans.wave import turning_point_derivatives

from conftest import seeded_turning_points

KERNEL_TOL = 1e-6


def predicted_W0(basis):
    """The explicit W(0, 0, 0) built from turning-point data alone."""
    profile = basis.profile
    Vm = kp.eval_V(profile.params, profile.u_minus, 1)
    Vmm = kp.eval_V(profile.params, profile.u_minus, 2)
    aa, aE = turning_point_derivatives(profile.params,
                                       (profile.u_minus, profile.u_plus))[:2, 0]
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


def test_translation_mode_boundary_values(kdv_basis):
    assert kdv_basis.ux[0] == 0.0
    assert abs(kdv_basis.ux[-1]) <= 1e-9


def test_ux_matches_profile_derivative(kdv_profile, kdv_basis):
    # the kernel's own translation mode vs the profile interpolant derivative
    diff = kdv_basis.ux - kdv_profile.ux(kdv_basis.grid)
    assert np.max(np.abs(diff)) <= 1e-9 * (1.0 + np.max(np.abs(kdv_basis.ux)))


def test_phi_initial_data(kdv_basis):
    # fourth column of W(0,0,0) is (0, 0, 0, -1)
    assert kdv_basis.phi[0] == 0.0
    assert kdv_basis.phip[0] == 0.0
    assert kdv_basis.second_derivative("phi")[0] == pytest.approx(0.0, abs=1e-12)
    assert kdv_basis.third_derivative("phi")[0] == pytest.approx(-1.0, abs=1e-10)


def test_wronskian_is_one(kdv_basis):
    assert np.max(np.abs(kdv_basis.wronskian_ux_uE() - 1.0)) <= 1e-10


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
    got = turning_point_derivatives(kdv_params, seed)[row, side]
    assert got == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("wave", ["kdv", "dnoidal", "cnoidal_mkdv"])
def test_stored_theta_gives_the_solved_basis(request, wave):
    """The basis on the theta that integrate_profile stored equals, byte for
    byte, the basis of the same profile read from JSON, which solves theta
    again."""
    profile = request.getfixturevalue(f"{wave}_profile")
    read = kp.WaveProfile.from_json_dict(profile.to_json_dict())
    assert profile.theta is not None and read.theta is None
    stored, solved = kp.variational_solutions(profile), kp.variational_solutions(read)
    for f in fields(stored):
        if f.name != "profile" and getattr(stored, f.name) is not None:
            assert getattr(stored, f.name).tobytes() == getattr(solved, f.name).tobytes()


def test_ua_against_two_profile_fd(kdv_params, kdv_profile, kdv_basis):
    """Phase-locked finite difference of neighboring profiles (h = 1e-5)."""
    h = 1e-5
    plus = kp.integrate_profile(replace(kdv_params, a=kdv_params.a + h))
    minus = kp.integrate_profile(replace(kdv_params, a=kdv_params.a - h))
    x = kdv_basis.grid[kdv_basis.grid <= 0.9 * min(plus.period, minus.period)]
    fd = (plus.u(x) - minus.u(x)) / (2.0 * h)
    ua = kdv_basis.ua[: len(x)]
    assert np.max(np.abs(fd - ua)) <= 1e-6 * (1.0 + np.max(np.abs(ua)))


def test_uE_against_two_profile_fd(kdv_params, kdv_basis):
    h = 1e-6
    plus = kp.integrate_profile(replace(kdv_params, E=kdv_params.E + h))
    minus = kp.integrate_profile(replace(kdv_params, E=kdv_params.E - h))
    x = kdv_basis.grid[kdv_basis.grid <= 0.9 * min(plus.period, minus.period)]
    fd = (plus.u(x) - minus.u(x)) / (2.0 * h)
    uE = kdv_basis.uE[: len(x)]
    assert np.max(np.abs(fd - uE)) <= 1e-4 * (1.0 + np.max(np.abs(uE)))


def test_basis_against_dp5(dp5_reference):
    """Every field of the basis against the joint DP5 solve at 1e-14."""
    profile, ref = dp5_reference
    basis = kp.variational_solutions(profile)
    for name, vals in ref.items():
        field = "ux" if name == "up" else name   # the basis holds u' once, as u_x
        assert np.max(np.abs(getattr(basis, field) - vals)) <= 1e-10, name


@pytest.mark.parametrize("wave", ["kdv", "dnoidal", "cnoidal_mkdv"])
def test_complex_step_against_central_difference(request, wave):
    """u_a, u_E and their slopes at fixed x against central differences of
    real profiles at a +- h, E +- h (h = 1e-5, truncation about 4e-9)."""
    profile = request.getfixturevalue(f"{wave}_profile")
    basis = kp.variational_solutions(profile)
    params, hint, h = profile.params, (profile.u_minus, profile.u_plus), 1e-5
    for q, v, vx in (("a", basis.ua, basis.uap), ("E", basis.uE, basis.uEp)):
        plus, minus = (kp.integrate_profile(replace(params, **{q: getattr(params, q) + s}),
                                            bracket_hint=hint) for s in (h, -h))
        x = basis.grid[basis.grid <= min(plus.period, minus.period)]
        for fd, exact in (((plus.u(x) - minus.u(x)) / (2.0 * h), v[:len(x)]),
                          ((plus.ux(x) - minus.ux(x)) / (2.0 * h), vx[:len(x)])):
            assert np.max(np.abs(fd - exact)) <= 2e-8 * (1.0 + np.max(np.abs(exact)))


def test_gram_determinant_nonzero(kdv_basis):
    T = kdv_basis.grid[-1]
    idx = [np.argmin(np.abs(kdv_basis.grid - f * T)) for f in (0.123, 0.37, 0.61, 0.83)]
    G = np.array([[getattr(kdv_basis, n)[i] for n in ("ux", "ua", "uE", "phi")]
                  for i in idx])
    norms = np.prod([np.linalg.norm(G[:, j]) for j in range(4)])
    assert abs(np.linalg.det(G)) > 1e-8 * norms


def test_det_W_is_one(kdv_wmatrix):
    T = kdv_wmatrix.grid[-1]
    dets = kdv_wmatrix.det_on_grid()
    for frac in (0.0, 0.25, 0.5, 1.0):
        i = np.argmin(np.abs(kdv_wmatrix.grid - frac * T))
        assert dets[i] == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(dets - 1.0)) <= 1e-8


def test_W0_matches_display(kdv_basis, kdv_wmatrix):
    pred = predicted_W0(kdv_basis)
    assert np.max(np.abs(kdv_wmatrix.W0 - pred)) <= 1e-12


def test_deltaW_first_column_vanishes(kdv_wmatrix):
    assert np.max(np.abs(kdv_wmatrix.deltaW[:, 0])) <= 1e-9


def test_deltaW_entry_22(kdv_params, kdv_profile, kdv_wmatrix, kdv_grads):
    Vm = kp.eval_V(kdv_params, kdv_profile.u_minus, 1)
    assert kdv_wmatrix.deltaW[1, 1] == pytest.approx(Vm * kdv_grads.dT[0], rel=1e-6)


def test_deltaW_matches_display(kdv_basis, kdv_wmatrix, kdv_grads):
    pred = predicted_deltaW(kdv_basis, kdv_grads.dT[0], kdv_grads.dT[1])
    scale = np.max(np.abs(pred))
    assert np.max(np.abs(kdv_wmatrix.deltaW - pred)) <= 1e-6 * scale
    # rows 1 and 3 of columns 2-3 vanish; the (a, E) block is rank one
    assert np.max(np.abs(pred[np.ix_([0, 2], [1, 2])])) == 0.0
    block = pred[np.ix_([1, 3], [1, 2])]
    assert abs(np.linalg.det(block)) <= 1e-12 * np.max(np.abs(block)) ** 2


def displayed_deltaW(profile, basis, T_a, T_E):
    """The displayed delta W: the pure int x u_E moment in column 4."""
    Vm = kp.eval_V(profile.params, profile.u_minus, 1)
    Vmm = kp.eval_V(profile.params, profile.u_minus, 2)
    aE = turning_point_derivatives(profile.params, (profile.u_minus, profile.u_plus))[1, 0]
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


def test_inverse_column_identity(kdv_wmatrix, kdv_basis):
    rep = kp.verify_inverse_column(kdv_wmatrix, kdv_basis)
    assert rep.sup_identity <= 1e-7
    assert rep.sup_vs_lu <= 1e-7
    assert rep.sup_intermediate <= 1e-7
    # at x = 0 the claimed vector is (0, 0, 0, -1); W(0) e4-column is too
    W0 = kdv_wmatrix.W0
    assert np.allclose(W0 @ np.array([0.0, 0.0, 0.0, -1.0]),
                       np.array([0.0, 0.0, 0.0, 1.0]), atol=1e-12)
    # first component at T equals the accumulated double integral of u_E
    assert rep.first_component_at_T == pytest.approx(-kdv_basis.II_E[-1], abs=0)


def test_cross_wronskian_identity(kdv_basis):
    # u_a u_Exx - u_axx u_E = -u_E, with FD second derivatives
    assert cross_identity_residual(kdv_basis) <= 1e-7 * (
        1.0 + np.max(np.abs(kdv_basis.uE)))
