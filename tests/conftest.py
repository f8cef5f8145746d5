"""Shared fixtures: the standard test waves, built once per session."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import kpevans as kp
from kpevans.errors import StencilLeftRegion
from kpevans.model import polyval_ascending

from dp5 import kernel_reference
from tracking import BlockSystem

# canonical KdV test wave: near-separatrix well around u = 2
KDV_A, KDV_E, KDV_C = 0.0, -0.05, 1.0

# mKdV test waves at a = 0: dnoidal branch (E < 0, one of two wells) and
# cnoidal branch (E > 0, single symmetric well)
DNOIDAL_E = -0.5
CNOIDAL_E = 0.3
DNOIDAL_HINT = (0.5, 3.0)


# Shallow and near-separatrix wells on which a fixed finite-difference step
# leaves the well.  Each entry: params, bracket hint, and (lo, bottom, hi):
# points with E - V < 0, > 0 (the minimum of V in the well) and < 0.
def _kdv_well(depth, t):
    """KdV well of the given depth at c = 1, with E a fraction t up from its bottom."""
    s = (1.5 * depth) ** (1.0 / 3.0)   # depth = (2/3) s^3, critical points 1 -+ s
    a = 0.5 * (s * s - 1.0)
    V = np.array([0.0, -a, -0.5, 1.0 / 6.0])
    E = P.polyval(1.0 + s, V) + t * (P.polyval(1.0 - s, V) - P.polyval(1.0 + s, V))
    return (kp.WaveParams(a, E, 1.0, kp.NonlinearitySpec.kdv()),
            (1.0 + s - 1e-3, 1.0 + s + 1e-3), (1.0 - s, 1.0 + s, 2.0 + s))


def _mixed_well(hint):
    a, E, c = -0.15979476282410432, 0.02487912071268847, 0.6482235935136903
    crit = np.sort(P.polyroots([-a, -c, 0.5, 1.0 / 3.0]).real)
    brackets = {(0.41, 0.452): (-10.0, crit[0], crit[1]),   # 4.5e-6 below the barrier
                (0.44, 0.5): (crit[1], crit[2], 1.0)}       # 6.6e-6 deep
    mixed = kp.NonlinearitySpec.polynomial((0.0, 0.0, 0.5, 1.0 / 3.0))
    return kp.WaveParams(a, E, c, mixed), hint, brackets[hint]


SHALLOW = {
    "kdv-1e-6-t0.1": _kdv_well(1e-6, 0.1),
    "kdv-1e-6-t0.5": _kdv_well(1e-6, 0.5),
    "mixed-separatrix": _mixed_well((0.41, 0.452)),
    "mixed-shallow": _mixed_well((0.44, 0.5)),
}


# 1e-6-deep wells next to the fold where a family's well vanishes, a tenth
# and a half of the way up (perfbench's shallow stratum, by its names):
# f, a, E, c and the bottom of the well
FOLD_WELLS = {
    "mkdv+1~1e-06@0.1": ((0.0, 0.0, 0.0, 1.0 / 3.0), -0.6665841186747318,
                         0.24991705257591965, 1.0, 1.0090718863807489),
    "mkdv-1~1e-06@0.5": ((0.0, 0.0, 0.0, 1.0 / 3.0), -0.6665841186747318,
                         0.24991745257591963, 1.0, 1.0090718863807489),
    "mixed+1~1e-06@0.1": ((0.0, 0.0, 0.5, 1.0 / 3.0), -0.34827598143834854,
                          0.07576582125426011, 1.0, 0.6267765051304824),
    "quartic-1~1e-06@0.5": ((0.0, 0.0, 0.0, 0.0, 0.25), -0.7499055063842528,
                            0.29990550737638494, 1.0, 1.0079160839438295),
}


@pytest.fixture(scope="session")
def kdv_params():
    return kp.WaveParams(KDV_A, KDV_E, KDV_C, kp.NonlinearitySpec.kdv(), sigma=1)


@pytest.fixture(scope="session")
def kdv_profile(kdv_params):
    return kp.integrate_profile(kdv_params)


@pytest.fixture(scope="session")
def kdv_basis(kdv_profile):
    return kp.variational_solutions(kdv_profile)


@pytest.fixture(scope="session")
def kdv_grads(kdv_params):
    return kp.gradients(kdv_params)


@pytest.fixture(scope="session")
def kdv_invariants(kdv_params):
    return kp.compute_invariants(kdv_params)


@pytest.fixture(scope="session")
def dnoidal_params():
    return kp.WaveParams(0.0, DNOIDAL_E, 1.0, kp.NonlinearitySpec.mkdv(), sigma=1)


@pytest.fixture(scope="session")
def dnoidal_profile(dnoidal_params):
    return kp.integrate_profile(dnoidal_params, bracket_hint=DNOIDAL_HINT)


@pytest.fixture(scope="session")
def dnoidal_grads(dnoidal_params):
    return kp.gradients(dnoidal_params, bracket_hint=DNOIDAL_HINT)


@pytest.fixture(scope="session")
def cnoidal_mkdv_params():
    return kp.WaveParams(0.0, CNOIDAL_E, 1.0, kp.NonlinearitySpec.mkdv(), sigma=-1)


@pytest.fixture(scope="session")
def cnoidal_mkdv_profile(cnoidal_mkdv_params):
    return kp.integrate_profile(cnoidal_mkdv_params)


@pytest.fixture(scope="session")
def cnoidal_mkdv_grads(cnoidal_mkdv_params):
    return kp.gradients(cnoidal_mkdv_params)


@pytest.fixture(scope="session", params=("kdv", "dnoidal", "cnoidal_mkdv"))
def dp5_reference(request):
    """(profile, DP5 kernel reference at rtol = atol = 1e-14) per canonical wave."""
    profile = request.getfixturevalue(f"{request.param}_profile")
    return profile, kernel_reference(profile)


def phase_align(profile_a, profile_b, n=512):
    """Sup-norm difference of two profiles after aligning their troughs.

    Both profile conventions already start at the trough, so alignment is a
    straight comparison on a common grid over the shorter period.
    """
    T = min(profile_a.period, profile_b.period)
    x = np.linspace(0.0, T, n)
    return float(np.max(np.abs(profile_a.at(x)[0] - profile_b.at(x)[0])))


def coefficient_matrix(profile):
    """(mu, k, x) -> H(x; mu, k), the evaluation the DP5 references integrate
    through; for a vector k, the stack of the H at each k.

    u and u_x come from one call of the profile interpolant.  Row 4 comes
    from evans._base_coefficients, looked up on each call of
    coefficient_matrix, so a patch of it reaches the next call, and built
    once for every H the call returns.
    """
    base = sys.modules["kpevans.evans"]._base_coefficients(profile.params)
    sigma = profile.params.sigma

    def H(mu, k, x):
        b41, b42, b43 = base(*profile.at(x))
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape + (4, 4), dtype=complex if isinstance(mu, complex) else float)
        out[..., 0, 1] = out[..., 1, 2] = out[..., 2, 3] = 1.0
        out[..., 3, 0] = b41 - sigma * k * k
        out[..., 3, 1], out[..., 3, 2] = b42 - mu, b43
        return out

    return H


def tabulate(period, full, n):
    """BlockSystem of 1x1 blocks from n uniform samples of the 2x2 matrix full(x)."""
    grid = np.arange(n) * (period / n)
    return BlockSystem.from_tables(period, grid, [full(x) for x in grid], 1, 1)


def interpolant(system):
    """x -> the system's full matrix, summed from its table coefficients.

    The scalar evaluation the DP5 references integrate through.
    """
    table = system.table
    return lambda x: np.einsum("k,kij->ij", np.exp(1j * table.freqs * x), table.coeffs)


def horner_from_zero(coeffs, u):
    """The Horner sum started from 0, as polyval_ascending once ran it: the
    reference of the bit-identity tests."""
    result = 0.0 * np.asarray(u) if np.ndim(u) else 0.0
    for ck in coeffs[::-1]:
        result = result * u + ck
    return result


def cardano_real_roots(p3, p2, p1, p0):
    """Closed-form real roots of p3 u^3 + p2 u^2 + p1 u + p0 (oracle).

    Trigonometric method for the three-real-root case, Cardano otherwise;
    independent of the production companion-matrix path.
    """
    b, c, d = p2 / p3, p1 / p3, p0 / p3
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = -(4.0 * p ** 3 + 27.0 * q * q)
    if disc > 0:
        m = 2.0 * np.sqrt(-p / 3.0)
        theta = np.arccos(np.clip(3.0 * q / (p * m), -1.0, 1.0)) / 3.0
        return sorted(shift + m * np.cos(theta - 2.0 * np.pi * k / 3.0)
                      for k in range(3))
    # one real root
    t = np.cbrt(-q / 2.0 + np.sqrt(q * q / 4.0 + p ** 3 / 27.0)) \
        + np.cbrt(-q / 2.0 - np.sqrt(q * q / 4.0 + p ** 3 / 27.0))
    return [shift + t]


def seeded_turning_points(params, seed, simplicity_tol=1e-8):
    """Turning points of a perturbed parameter set by real Newton from seeds.

    Finite-difference oracle: parameters move slightly, so Newton from the
    base-wave roots tracks the same well; StencilLeftRegion when it cannot.
    """
    p = params.energy_poly()
    desc = p[::-1]
    d1 = np.polyder(desc)
    out = []
    for s in seed:
        x = float(s)
        ok = False
        for _ in range(60):
            dfx = np.polyval(d1, x)
            if dfx == 0.0:
                break
            step = np.polyval(desc, x) / dfx
            x -= step
            if abs(step) <= 1e-15 * (1.0 + abs(x)):
                ok = True
                break
        if not ok and abs(np.polyval(desc, x)) > 1e-10 * (1.0 + abs(params.E)):
            raise StencilLeftRegion(f"turning point lost near seed {s:.6g}")
        out.append(x)
    u_minus, u_plus = sorted(out)
    if not u_minus < u_plus:
        raise StencilLeftRegion("turning points collapsed at stencil point")
    if polyval_ascending(p, 0.5 * (u_minus + u_plus)) <= 0.0:
        raise StencilLeftRegion("E - V not positive between tracked roots")
    for u in (u_minus, u_plus):
        if abs(kp.eval_V(params, u, 1)) <= simplicity_tol * (1.0 + abs(u) + abs(params.E)):
            raise StencilLeftRegion("stencil point reached a degenerate turning point")
    return u_minus, u_plus


def fd_gradients(params, h_rel=1e-5, bracket_hint=None):
    """Richardson-extrapolated central differences of (T, M, P, H) in (a, E, c).

    Finite-difference oracle for the complex-step gradients: steps
    h = h_rel (1 + |p|), turning points tracked from the base wave by
    seeded_turning_points, which raises StencilLeftRegion on shallow wells.
    """
    seed = kp.find_turning_points(params, bracket_hint)
    cols = []
    for name in ("a", "E", "c"):
        base = getattr(params, name)
        h = h_rel * (1.0 + abs(base))
        vals = {}
        for mult in (-2, -1, 1, 2):
            pert = replace(params, **{name: base + 0.5 * h * mult})
            tps = seeded_turning_points(pert, seed)
            inv = kp.compute_invariants(pert, turning_points=tps)
            vals[mult] = np.array([inv.T, inv.M, inv.P, inv.H])
        d_h = (vals[2] - vals[-2]) / (2.0 * h)
        d_h2 = (vals[1] - vals[-1]) / h
        cols.append((4.0 * d_h2 - d_h) / 3.0)
    dT, dM, dP, dH = np.column_stack(cols)
    return kp.GradientSet(dT=dT, dM=dM, dP=dP, dH=dH)
