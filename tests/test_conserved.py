"""Conserved quantities, gradients, and the {T, M}_{a,E} Jacobian."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.integrate import quad
from scipy.optimize import brentq

import kpevans as kp
from kpevans import cli, conserved
from kpevans.errors import AmbiguousWell, NoPeriodicOrbit, StencilLeftRegion
from kpevans.model import polyval_ascending
from kpevans.wave import CS_STEP, turning_point_derivatives

from conftest import (DNOIDAL_HINT, FOLD_WELLS, SHALLOW, fd_gradients,
                      seeded_turning_points)
from kdv_closed_form import NotKdV, cubic_discriminant, kdv_jacobian_closed_form

KDV = kp.NonlinearitySpec.kdv()
MKDV = kp.NonlinearitySpec.mkdv()

# frozen regression values for the KdV test wave (a=0, E=-0.05, c=1),
# fixed by the dual-method oracle: regularized quadrature vs dense-grid
# integration of the ODE profile agreed to ~5e-14 relative
FROZEN = {
    "T": 8.696063307048224,
    "M": 12.09443442424673,
    "P": 24.18886884849346,
    "H": -7.343621287618518,
    "jac": 57.7230547681213,
}

KDV_POINTS = [(0.0, -0.05, 1.0), (0.0, -0.2, 1.0), (0.0, -0.4, 1.0),
              (0.1, -0.1, 1.0), (0.0, -0.1, 1.3)]


def test_frozen_invariants(kdv_invariants):
    for key in ("T", "M", "P", "H"):
        assert getattr(kdv_invariants, key) == pytest.approx(FROZEN[key], rel=1e-11)


def test_invariants_match_profile_integrals(kdv_profile, kdv_invariants):
    pinv = kp.profile_invariants(kdv_profile)
    assert pinv.M == pytest.approx(kdv_invariants.M, rel=1e-8)
    assert pinv.P == pytest.approx(kdv_invariants.P, rel=1e-8)
    assert pinv.H == pytest.approx(kdv_invariants.H, rel=1e-8)


@pytest.mark.parametrize("wave", ["kdv", "dnoidal", "cnoidal_mkdv",
                                  pytest.param(-1e-4, id="kdv-E=-1e-4"),
                                  pytest.param(-1e-6, id="kdv-E=-1e-6")])
def test_profile_invariants_match_quadrature(request, wave):
    """The grid-trapezoid M, P, H against the theta quadrature, to 1e-13, on
    the canonical waves and on two KdV waves next to the separatrix E = 0
    (M against int |u| dx, as verify's row reads it)."""
    if isinstance(wave, str):
        profile = request.getfixturevalue(f"{wave}_profile")
        hint = DNOIDAL_HINT if wave == "dnoidal" else None
    else:
        profile, hint = kp.integrate_profile(kp.WaveParams(0.0, wave, 1.0, KDV)), None
    inv = kp.compute_invariants(profile.params, bracket_hint=hint)
    pinv = kp.profile_invariants(profile)
    assert pinv.T == inv.T
    abs_mass = profile.h * np.sum(np.abs(profile.u_samples[:-1]))
    assert abs(pinv.M - inv.M) <= 1e-13 * abs_mass
    assert abs(pinv.P - inv.P) <= 1e-13 * abs(inv.P)
    assert abs(pinv.H - inv.H) <= 1e-13 * max(abs(inv.H), 1.0)


def test_momentum_identity_from_profile_ode(kdv_invariants, kdv_params):
    # integrating u'' = -V'(u) over a period gives P = 2cM + 2aT exactly
    lhs = kdv_invariants.P
    rhs = 2.0 * kdv_params.c * kdv_invariants.M + 2.0 * kdv_params.a * kdv_invariants.T
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_harmonic_limit_mean_value():
    # E just above the well bottom: the profile is nearly the constant u* = 2
    inv = kp.compute_invariants(kp.WaveParams(0.0, -2.0 / 3.0 + 1e-6, 1.0, KDV))
    assert inv.M / inv.T == pytest.approx(2.0, abs=1e-3)


def test_gradient_identity(kdv_params, kdv_grads):
    assert kp.gradient_identity_residual(kdv_params, kdv_grads) <= 1e-12
    # a second point with a != 0
    params = kp.WaveParams(0.1, -0.05, 1.0, KDV)
    grads = kp.gradients(params)
    assert kp.gradient_identity_residual(params, grads) <= 1e-12


def test_dT_dE_positive_toward_separatrix(kdv_grads):
    # oracle: the period sweep in test_wave shows T increasing with E
    assert kdv_grads.dT[1] > 0


def test_richardson_step_consistency(kdv_params, kdv_grads):
    # the finite-difference oracle is step-consistent, and the complex step
    # sits within its truncation error
    g1 = fd_gradients(kdv_params, h_rel=1e-5)
    g2 = fd_gradients(kdv_params, h_rel=2e-5)
    for a, b, cs in ((g1.dT, g2.dT, kdv_grads.dT), (g1.dM, g2.dM, kdv_grads.dM)):
        assert np.max(np.abs(a - b)) <= 1e-7 * (1.0 + np.max(np.abs(a)))
        assert np.max(np.abs(a - cs)) <= 1e-7 * (1.0 + np.max(np.abs(a)))


@pytest.mark.parametrize("wave", ["kdv", "dnoidal", "cnoidal_mkdv"])
def test_complex_step_matches_fd_oracle(request, wave):
    params = request.getfixturevalue(f"{wave}_params")
    grads = request.getfixturevalue(f"{wave}_grads")
    fd = fd_gradients(params, bracket_hint=DNOIDAL_HINT if wave == "dnoidal" else None)
    for q in ("dT", "dM", "dP", "dH"):
        cs, ref = getattr(grads, q), getattr(fd, q)
        assert np.max(np.abs(cs - ref)) <= 1e-8 * np.max(np.abs(ref)), q


def test_maxwell_symmetry(kdv_grads, dnoidal_grads, cnoidal_mkdv_grads):
    # T_a = M_E: both are -(1/sqrt 2) of the finite-part integral of u (E - V)^(-3/2)
    for g in (kdv_grads, dnoidal_grads, cnoidal_mkdv_grads):
        assert g.dT[0] == pytest.approx(g.dM[1], rel=1e-13, abs=1e-13 * abs(g.dT[1]))


def test_jacobian_frozen_and_deterministic(kdv_params, kdv_grads):
    jac = kp.jacobian_TM(kdv_params, kdv_grads)
    assert jac == pytest.approx(FROZEN["jac"], rel=1e-8)
    assert kp.jacobian_TM(kdv_params, kdv_grads) == jac


def test_kdv_jacobian_positive_everywhere():
    for a, E, c in KDV_POINTS:
        params = kp.WaveParams(a, E, c, KDV)
        assert kp.jacobian_TM(params) > 0


def test_closed_form_matches_fd():
    for a, E, c in KDV_POINTS:
        params = kp.WaveParams(a, E, c, KDV)
        cs = kp.jacobian_TM(params)
        cf = kdv_jacobian_closed_form(params)
        assert cf == pytest.approx(cs, rel=1e-12)
        assert cf > 0


def test_vprime_at_mean_negative():
    # Jensen on the strictly convex V': V'(M/T) < (1/T) int V'(u) dx = 0
    for a, E, c in KDV_POINTS:
        params = kp.WaveParams(a, E, c, KDV)
        inv = kp.compute_invariants(params)
        assert kp.eval_V(params, inv.M / inv.T, 1) < 0


def test_discriminant_sign_convention():
    # disc > 0 iff three distinct real roots, for (u-r1)(u-r2)(u-r3)
    def from_roots(r1, r2, r3):
        return np.array([-r1 * r2 * r3, r1 * r2 + r1 * r3 + r2 * r3,
                         -(r1 + r2 + r3), 1.0])

    assert cubic_discriminant(from_roots(-1.0, 0.5, 2.0)) > 0
    assert cubic_discriminant(from_roots(1.0, 1.0, 2.0)) == pytest.approx(0.0, abs=1e-14)
    # complex pair: u^3 + u = u(u^2+1)
    assert cubic_discriminant(np.array([0.0, 1.0, 0.0, 1.0])) < 0
    # scaling invariance used by the closed form: disc(s*p) = s^4 disc(p)
    p = from_roots(-0.3, 0.4, 2.2)
    assert cubic_discriminant(-6.0 * p) == pytest.approx(
        1296.0 * cubic_discriminant(p), rel=1e-12)


def test_discriminant_positive_for_periodic_kdv():
    for a, E, c in KDV_POINTS:
        params = kp.WaveParams(a, E, c, KDV)
        assert cubic_discriminant(params.energy_poly()) > 0


def test_closed_form_rejects_non_kdv(dnoidal_params):
    with pytest.raises(NotKdV):
        kdv_jacobian_closed_form(dnoidal_params)


def test_mkdv_branch_signs(dnoidal_params, dnoidal_grads,
                           cnoidal_mkdv_params, cnoidal_mkdv_grads):
    assert kp.jacobian_TM(dnoidal_params, dnoidal_grads) > 0
    assert kp.jacobian_TM(cnoidal_mkdv_params, cnoidal_mkdv_grads) < 0


def test_jacobian_without_grads_takes_bracket_hint(dnoidal_params, dnoidal_grads):
    """Without grads, jacobian_TM selects the dnoidal well by bracket_hint,
    as gradients does, and refuses to guess without one."""
    jac = kp.jacobian_TM(dnoidal_params, bracket_hint=DNOIDAL_HINT)
    assert jac == kp.jacobian_TM(dnoidal_params, dnoidal_grads) and jac > 0
    with pytest.raises(AmbiguousWell):
        kp.jacobian_TM(dnoidal_params)


# one wave per family of the index sweep: f, a, E, c and a bracket hint
FAMILY_WAVES = {
    "kdv": ((0.0, 0.0, 0.5), 0.0, -0.05, 1.0, None),
    "mkdv": ((0.0, 0.0, 0.0, 1.0 / 3.0), 0.0, -0.5, 1.0, DNOIDAL_HINT),
    "quartic": ((0.0, 0.0, 0.0, 0.0, 0.25), 0.0, -0.3, 1.0, (0.5, 3.0)),
    "mixed": ((0.0, 0.0, 0.5, 1.0 / 3.0), 0.0, -0.1, 1.0, (0.5, 3.0)),
}


def _index_waves():
    """(params, hint) by name: the family waves at both signs of sigma, then
    the shallow and fold wells."""
    for name, (f, a, E, c, hint) in FAMILY_WAVES.items():
        for sigma in (1, -1):
            yield pytest.param(kp.WaveParams(a, E, c, kp.NonlinearitySpec.polynomial(f),
                                             sigma), hint, id=f"{name}{sigma:+d}")
    for name, (params, hint, _) in SHALLOW.items():
        yield pytest.param(params, hint, id=name)
    for name, (f, a, E, c, bottom) in FOLD_WELLS.items():
        yield pytest.param(kp.WaveParams(a, E, c, kp.NonlinearitySpec.polynomial(f)),
                           (bottom - 1e-3, bottom + 1e-3), id=name)


@pytest.mark.parametrize("params, hint", _index_waves())
def test_index_block_equals_gradients(params, hint):
    """The index integrates only the {T, M} x {a, E} block; its Jacobian is
    the one of the full gradients bit for bit, and the closed-form turning
    point derivatives are the polyval form of dp/dq bit for bit."""
    jac = kp.jacobian_TM(params, kp.gradients(params, bracket_hint=hint))
    assert kp.orientation_index(params, bracket_hint=hint).jacobian == jac
    assert kp.jacobian_TM(params, bracket_hint=hint) == jac
    u = np.array(kp.find_turning_points(params, hint))
    dp_dq = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])  # ascending in u
    for step in (1.0, 1j * CS_STEP):
        want = step * polyval_ascending(dp_dq.T[..., None], u) \
            / polyval_ascending(params.V_coeffs(1), u)
        got = turning_point_derivatives(tuple(u), [kp.eval_V(params, x, 1) for x in u], step)
        assert got.tobytes() == want.tobytes()


def test_jensen_margin_positive(kdv_invariants, dnoidal_params,
                                cnoidal_mkdv_params):
    assert kdv_invariants.jensen_margin() > 0
    for params, hint in ((dnoidal_params, (0.5, 3.0)), (cnoidal_mkdv_params, None)):
        inv = kp.compute_invariants(params, bracket_hint=hint)
        assert inv.jensen_margin() > 0


def test_cnoidal_mkdv_mass_vanishes(cnoidal_mkdv_params):
    # odd symmetric profile: the mass integral cancels exactly
    inv = kp.compute_invariants(cnoidal_mkdv_params)
    assert abs(inv.M) <= 1e-12 * inv.P


def test_csv_row_format(kdv_params, kdv_invariants, tmp_path):
    p, inv = kdv_params, kdv_invariants
    path = tmp_path / "invariants.csv"
    cli._write_csv(path, "a,E,c,T,M,P,H,jacobian_TM",
                   [(p.a, p.E, p.c, inv.T, inv.M, inv.P, inv.H, FROZEN["jac"])])
    row = path.read_text().splitlines()[1]
    fields = row.split(",")
    assert len(fields) == 8
    assert float(fields[3]) == pytest.approx(FROZEN["T"], rel=1e-15)


def quad_jacobian(params, lo, bottom, hi):
    """{T, M}_{a,E} by central differences of QUADPACK integrals, with error.

    Turning points by bisection inside (lo, bottom) and (bottom, hi); T and
    M by the algebraic-weight rule on the deflated E - V.  The E step is
    1e-2 of the gap from E to the critical values of V at lo, bottom, hi
    (whichever are critical points), so every stencil point keeps the well;
    the error estimate is the change when both steps double.
    """
    F = np.asarray(params.nonlinearity.F_coeffs, dtype=float)
    V = np.pad(F, (0, max(0, 3 - len(F))))
    V[1] -= params.a
    V[2] -= 0.5 * params.c
    crit = P.polyroots(P.polyder(V))
    levels = [P.polyval(u, V) for u in (lo, bottom, hi)
              if np.min(np.abs(crit - u)) <= 1e-12 * (1.0 + abs(u))]
    h_E = 1e-2 * min(abs(params.E - v) for v in levels)
    h_a = h_E / (1.0 + abs(bottom))

    def TM(a, E):
        p = -V.copy()
        p[0] += E
        p[1] += a - params.a
        u_lo = brentq(P.polyval, lo, bottom, args=(p,), xtol=1e-16, rtol=1e-15)
        u_hi = brentq(P.polyval, bottom, hi, args=(p,), xtol=1e-16, rtol=1e-15)
        q = P.polydiv(P.polydiv(p, [-u_lo, 1.0])[0], [-u_hi, 1.0])[0]
        return [math.sqrt(2.0) * quad(lambda u: u ** k / math.sqrt(-P.polyval(u, q)),
                                      u_lo, u_hi, weight="alg", wvar=(-0.5, -0.5),
                                      epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for k in (0, 1)]

    def jac(scale):
        ha, hE = scale * h_a, scale * h_E
        Ta, Ma = np.subtract(TM(params.a + ha, params.E), TM(params.a - ha, params.E)) / (2 * ha)
        TE, ME = np.subtract(TM(params.a, params.E + hE), TM(params.a, params.E - hE)) / (2 * hE)
        return Ta * ME - TE * Ma

    j1 = jac(1.0)
    return j1, abs(j1 - jac(2.0))


@pytest.mark.parametrize("name", sorted(SHALLOW))
def test_shallow_well_index(name):
    params, hint, (lo, bottom, hi) = SHALLOW[name]
    grads = kp.gradients(params, bracket_hint=hint)
    assert kp.gradient_identity_residual(params, grads) <= 1e-12
    verdict = kp.orientation_index(params, grads)
    ref, err = quad_jacobian(params, lo, bottom, hi)
    assert abs(verdict.jacobian - ref) <= err
    assert abs(ref) > 10.0 * err
    assert verdict.conclusion == ("UnstableDetected" if params.sigma * ref > 0
                                  else "IndexInconclusive")


def mp_gradients_TM(p, bottom, dps=50):
    """(dT, dM) over (a, E, c) and {T, M}_{a,E} for the ascending float
    coefficients p of E - V, at dps digits.

    Central differences with step 1e-20 along dp/d(a, E, c) = (u, 1, u^2/2)
    of T and M, each the integral of 2 sqrt(2) (1, u) / sqrt(g) over
    u = u_- + w sin^2(theta), g the deflated -p, by mpmath's tanh-sinh rule;
    the turning points are mpmath.polyroots' next to the bottom.  The step's
    truncation (1e-40 times the third derivative) and rounding (1e-50 / 1e-20)
    sit far below double precision: the values equal those at 80 digits and
    step 1e-30.
    """
    def TM(c):
        real = [r.real for r in mp.polyroots(c[::-1], maxsteps=200, extraprec=200)
                if abs(r.imag) < mp.mpf(10) ** (10 - dps)]
        lo, hi = max(r for r in real if r < bottom), min(r for r in real if r > bottom)
        g = c
        for r in (lo, hi):   # synthetic division by (u - r)
            q = [g[-1]]
            for ck in g[-2:0:-1]:
                q.insert(0, ck + r * q[0])
            g = q

        def moment(k):
            def f(theta):
                u = lo + (hi - lo) * mp.sin(theta) ** 2
                return 2 * u ** k / mp.sqrt(-mp.polyval(g[::-1], u))
            return mp.sqrt(2) * mp.quad(f, [0, mp.pi / 2])

        return moment(0), moment(1)

    with mp.workdps(dps):
        p, h, bottom = [mp.mpf(float(x)) for x in p], mp.mpf("1e-20"), mp.mpf(bottom)
        d = []
        for dp in ([0, 1], [1], [0, 0, mp.mpf(0.5)]):
            (Tp, Mp), (Tm, Mm) = (TM([ck + s * h * (dp[k] if k < len(dp) else 0)
                                      for k, ck in enumerate(p)]) for s in (1, -1))
            d.append(((Tp - Tm) / (2 * h), (Mp - Mm) / (2 * h)))
        J = d[0][0] * d[1][1] - d[1][0] * d[0][1]
        return (np.array([float(x[0]) for x in d]), np.array([float(x[1]) for x in d]),
                float(J))


@pytest.mark.parametrize("name", sorted(FOLD_WELLS))
def test_gradients_against_mpmath_on_fold_wells(name):
    """dT, dM and {T, M}_{a,E} against a 50-digit reference.

    Error model: deflating by the rounded turning points drops a remainder
    p(u+-) of about eps S, S = max over u+- of sum_k |p_k u^k|, so the
    integrals see E moved by as much.  The gradients' relative sensitivity
    to E is about 1 / (E - V_min), so each relative error (of an entry,
    against its vector's largest) stays below eps S / (E - V_min).  Worst
    measured ratio to that bound: 0.16 on these wells, 0.28 on the 24 wells
    of the stratum 1e-4 to 1e-6 deep.
    """
    f, a, E, c, bottom = FOLD_WELLS[name]
    params = kp.WaveParams(a, E, c, kp.NonlinearitySpec.polynomial(f))
    hint = (bottom - 1e-3, bottom + 1e-3)
    p = params.energy_poly()
    S = max(np.sum(np.abs(p) * abs(u) ** np.arange(len(p)))
            for u in kp.find_turning_points(params, hint))
    bound = np.finfo(float).eps * S / (E - kp.eval_V(params, bottom))
    grads = kp.gradients(params, bracket_hint=hint)
    dT, dM, J = mp_gradients_TM(p, bottom)
    for got, want in ((grads.dT, dT), (grads.dM, dM)):
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
    assert abs(kp.jacobian_TM(params, grads) - J) <= bound * abs(J)


# f of the four families, at a = 0 and c = 1: their 6 wells below a barrier
# (KdV 1, mKdV 2, u^4/4 1, u^2/2 + u^3/3 2), at sigma = +-1, and the depth
# fractions d: E = V_bar - d (V_bar - V_min)
FAMILIES = {"kdv": (0.0, 0.0, 0.5), "mkdv": (0.0, 0.0, 0.0, 1.0 / 3.0),
            "quartic": (0.0, 0.0, 0.0, 0.0, 0.25), "mixed": (0.0, 0.0, 0.5, 1.0 / 3.0)}
SEPARATRIX_D = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)


def barrier_wells(f):
    """(bottom, V_min, V_bar) of each well of V = F - u^2/2 with a barrier,
    V_bar the lower of its neighbouring maxima."""
    V = P.polyint(f)
    V[2] -= 0.5
    r = P.polyroots(P.polyder(V))
    crit = np.sort(r[np.abs(r.imag) <= 1e-9].real)
    return [(u, P.polyval(u, V), min(P.polyval(crit[j], V) for j in (i - 1, i + 1)
                                    if 0 <= j < len(crit)))
            for i, u in enumerate(crit) if P.polyval(u, P.polyder(V, 2)) > 0.0]


def separatrix_params(f, well, d, sigma=1):
    bottom, v_min, v_bar = well
    params = kp.WaveParams(0.0, v_bar - d * (v_bar - v_min), 1.0,
                           kp.NonlinearitySpec.polynomial(f), sigma=sigma)
    return params, (bottom - 1e-3, bottom + 1e-3)


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gradients_converge_near_separatrix(family, sigma):
    """The separatrix census: the gradients converge on every well below a
    barrier down to 1e-10 of its depth, with up to 16385 points (the u^3/3
    wells at 1e-10).  sigma does not enter the gradients."""
    wells = barrier_wells(FAMILIES[family])
    assert len(wells) == (2 if family in ("mkdv", "mixed") else 1)
    for well in wells:
        for d in SEPARATRIX_D:
            params, hint = separatrix_params(FAMILIES[family], well, d, sigma)
            grads = kp.gradients(params, bracket_hint=hint)
            assert np.all(np.isfinite([grads.dT, grads.dM, grads.dP, grads.dH]))
            assert grads.dT[1] > 0.0      # T grows without bound toward the separatrix


@pytest.mark.parametrize("family, index", [("kdv", 0), ("mkdv", 0)])
def test_gradients_against_mpmath_near_separatrix(family, index):
    """dT, dM and {T, M}_{a,E} against the 50-digit reference at 1e-6 of the
    depth below the barrier: the KdV well, whose near-separatrix end is u_-,
    and the left mKdV well, whose near-separatrix end is u_+.

    The error model of the fold wells with the gap to the nearer critical
    level, V_bar - E, in place of E - V_min: near the separatrix the
    gradients' relative sensitivity to E is about 1 / (V_bar - E).  Measured
    ratios to that bound: at most 6.5e-3 (KdV dM).
    """
    well = barrier_wells(FAMILIES[family])[index]
    bottom, v_min, v_bar = well
    params, hint = separatrix_params(FAMILIES[family], well, 1e-6)
    p = params.energy_poly()
    S = max(np.sum(np.abs(p) * abs(u) ** np.arange(len(p)))
            for u in kp.find_turning_points(params, hint))
    gap = min(params.E - v_min, v_bar - params.E)
    bound = np.finfo(float).eps * S / gap
    grads = kp.gradients(params, bracket_hint=hint)
    dT, dM, J = mp_gradients_TM(p, bottom)
    for got, want in ((grads.dT, dT), (grads.dM, dM)):
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
    assert abs(kp.jacobian_TM(params, grads) - J) <= bound * abs(J)


def test_stencil_leaves_region():
    # seeds from the dnoidal well, but E below the well bottom: no orbit
    params = kp.WaveParams(0.0, -1.0, 1.0, MKDV)
    with pytest.raises(StencilLeftRegion):
        seeded_turning_points(params, (1.13, 2.17))
    # a fixed step leaves every shallow well that the complex step handles
    for params, hint, _ in SHALLOW.values():
        with pytest.raises((StencilLeftRegion, NoPeriodicOrbit)):
            fd_gradients(params, bracket_hint=hint)


def test_wrong_turning_points_raise_typed_error(dnoidal_params, monkeypatch):
    # (u_-, u_+) of the dnoidal well, the left end taken from the mirror well:
    # E - V changes sign between them, so the deflated polynomial does too
    u_minus, u_plus = kp.find_turning_points(dnoidal_params, DNOIDAL_HINT)
    wrong = (-u_minus, u_plus)
    with pytest.raises(NoPeriodicOrbit, match="not positive on the well"):
        kp.compute_invariants(dnoidal_params, turning_points=wrong)
    slopes = [kp.eval_V(dnoidal_params, u, 1) for u in wrong]
    monkeypatch.setattr(conserved, "_find_well", lambda *args: (wrong, slopes))
    with pytest.raises(NoPeriodicOrbit, match="not positive on the well"):
        kp.gradients(dnoidal_params)
    with pytest.raises(NoPeriodicOrbit, match="not positive on the well"):
        kp.jacobian_TM(dnoidal_params)


def test_ndarray_turning_points(kdv_params, dnoidal_params):
    """compute_invariants and compute_period take an ndarray pair of turning
    points, as the kernel does, and return the tuple's results bit for bit."""
    for params, hint in ((kdv_params, None), (dnoidal_params, DNOIDAL_HINT)):
        tps = kp.find_turning_points(params, hint)
        pair = np.array(tps)
        assert kp.compute_invariants(params, turning_points=pair) == \
            kp.compute_invariants(params, turning_points=tps)
        assert kp.compute_period(params, pair) == kp.compute_period(params, tps)
