"""High/low frequency limits and the orientation index."""

import math

import numpy as np
import pytest

import kpevans as kp
from kpevans import asymptotics
from kpevans.asymptotics import _coefficient_functions

from block_reduction import block_reduction_loop, q_diag_error, second_derivatives
from conftest import CNOIDAL_E, DNOIDAL_E, DNOIDAL_HINT, KDV_E

MU_LIST = [25.0, 50.0, 100.0]


def test_high_freq_sign_tracks_sigma(kdv_profile):
    rep = kp.high_freq_sign(kdv_profile, 0.5, MU_LIST)
    assert rep.verdict == 1
    assert rep.onset_mu == 25.0


def test_high_freq_sign_flips_with_sigma(kdv_params):
    from dataclasses import replace
    prof = kp.integrate_profile(replace(kdv_params, sigma=-1))
    rep = kp.high_freq_sign(prof, 0.5, MU_LIST)
    assert rep.verdict == -1


def test_high_freq_independent_of_k(kdv_profile):
    verdicts = [kp.high_freq_sign(kdv_profile, k, MU_LIST).verdict
                for k in (0.3, 0.5, 0.8)]
    assert verdicts == [1, 1, 1]


def test_high_freq_k_zero_guard(kdv_profile):
    with pytest.raises(ValueError):
        kp.high_freq_sign(kdv_profile, 0.0, MU_LIST)


def test_high_freq_magnitude_fit_advisory(kdv_profile):
    """log|D| - log(k^2 / mu) regressed on mu^{1/3} T has a slope near the
    unstable-pair growth rate 1."""
    k = 0.5
    rep = kp.high_freq_sign(kdv_profile, k, [25.0, 50.0, 100.0, 200.0])
    xs = [mu ** (1.0 / 3.0) * kdv_profile.period for mu, _, _ in rep.probes]
    ys = [la - math.log(k * k / mu) for mu, _, la in rep.probes]
    slope = np.polynomial.polynomial.polyfit(xs, ys, 1)[1]
    assert slope == pytest.approx(1.0, abs=0.1)


# ----------------------------------------------------------------------
# block reduction
# ----------------------------------------------------------------------

def test_q_diagonalizes_the_principal_part():
    """inv(Q) H0 Q = D4 to 1e-14: the constants the reduction starts from."""
    assert q_diag_error() <= 1e-14


def test_block_reduction_structure(kdv_profile):
    rep = kp.verify_block_reduction(kdv_profile, 100.0, 0.5)
    ref = block_reduction_loop(kdv_profile, 100.0, 0.5)
    assert ref.btilde_numeric_error <= 1e-13
    assert ref.last_column_error <= 1e-13
    assert ref.upper_left_sup <= ref.upper_left_bound
    assert ref.e44_residual <= ref.e44_bound
    assert rep.lower_left_sup <= rep.lower_left_bound
    assert abs(rep.avg_A1x) <= 1e-10
    assert abs(rep.avg_A1A1x) <= 1e-10


@pytest.mark.parametrize("wave", ["kdv_profile", "cnoidal_mkdv_profile"])
@pytest.mark.parametrize("mu", [100.0, 800.0])
def test_block_reduction_matches_loop(request, wave, mu):
    """The stacked solves reproduce the per-point loop to rounding."""
    profile = request.getfixturevalue(wave)
    rep = kp.verify_block_reduction(profile, mu, 0.5)
    ref = block_reduction_loop(profile, mu, 0.5)
    # residual sup: each entry agrees to rounding of the O(1) diagonal
    assert rep.lower_left_sup == pytest.approx(ref.lower_left_sup, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("wave", ["kdv_profile", "cnoidal_mkdv_profile"])
def test_reference_derivatives_against_fd(request, wave):
    """The reference's A1_xx and A2_x, which form the shear's S' term,
    against central differences of the package's A1_x and A2."""
    profile = request.getfixturevalue(wave)
    fields = _coefficient_functions(profile)
    x, h = np.linspace(0.05, 0.95, 91) * profile.period, 1e-4
    (_, A2p, A1xp), (_, A2m, A1xm) = fields(x + h), fields(x - h)
    A1xx, A2x = second_derivatives(profile)(x)
    for exact, fd in ((A1xx, (A1xp - A1xm) / (2 * h)), (A2x, (A2p - A2m) / (2 * h))):
        assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(exact))


def test_block_reduction_requires_large_mu(kdv_profile):
    with pytest.raises(ValueError):
        kp.verify_block_reduction(kdv_profile, 10.0, 0.5)


def test_lower_left_slope(kdv_profile):
    slope, (r1, r2) = kp.lower_left_slope(kdv_profile, 0.5)
    assert abs(slope - 3.0) <= 0.6
    assert r2.lower_left_sup < r1.lower_left_sup
    # full transformed system (S' included) carries the tracking delta,
    # which scales as eps^{3/2}
    f1, f2 = (block_reduction_loop(kdv_profile, mu, 0.5) for mu in (100.0, 800.0))
    full_slope = np.log(f2.lower_left_full_sup / f1.lower_left_full_sup) \
        / np.log(f2.eps / f1.eps)
    assert full_slope == pytest.approx(1.5, abs=0.3)


# ----------------------------------------------------------------------
# low frequency
# ----------------------------------------------------------------------

def test_low_freq_coefficient_kdv(kdv_profile, kdv_grads):
    rep = kp.low_freq_coefficient(kdv_profile, grads=kdv_grads)
    assert rep.relative_error <= 5e-3
    assert rep.predicted_c4 < 0  # both PT - M^2 and {T,M} positive for KdV
    assert rep.c4 < 0


def test_low_freq_two_nodes_give_the_four_node_mean(kdv_profile):
    """The nodes lie on |s| = RHO / T^2 at angles pi/4 and 3 pi/4.  D at the
    conjugate nodes is the conjugate of D, bit for bit, so the mean of
    D / s^2 over all four nodes is the report's c4."""
    rep = kp.low_freq_coefficient(kdv_profile)
    r = asymptotics.RHO / kdv_profile.period ** 2
    assert np.allclose(rep.nodes, r * np.exp([0.25j * np.pi, 0.75j * np.pi]),
                       rtol=1e-15, atol=0.0)
    conj = [kp.evans(kdv_profile, 0.0, np.sqrt(np.conj(s)), 1.0).value for s in rep.nodes]
    assert conj == [np.conj(d) for d in rep.d_values]
    nodes = list(rep.nodes) + [np.conj(s) for s in rep.nodes]
    mean = sum(d / s ** 2 for s, d in zip(nodes, list(rep.d_values) + conj)) / 4.0
    assert mean.real == pytest.approx(rep.c4, rel=1e-14)
    assert abs(mean.imag) <= 1e-14 * abs(rep.c4)


def test_low_freq_sigma_independence(kdv_params, kdv_profile, kdv_grads):
    from dataclasses import replace
    prof_m = kp.integrate_profile(replace(kdv_params, sigma=-1))
    rep_p = kp.low_freq_coefficient(kdv_profile, grads=kdv_grads)
    rep_m = kp.low_freq_coefficient(prof_m, grads=kdv_grads)
    assert rep_m.c4 == rep_p.c4
    assert rep_m.predicted_c4 == rep_p.predicted_c4


# (f, E, bracket hint) at a = 0, c = 1: the three canonical waves, and mKdV
# on both sides of E* = 1.0130326, where {T, M}_{a,E} changes sign
LOW_FREQ_WAVES = {
    "kdv": (kp.NonlinearitySpec.kdv(), KDV_E, None),
    "dnoidal": (kp.NonlinearitySpec.mkdv(), DNOIDAL_E, DNOIDAL_HINT),
    "cnoidal": (kp.NonlinearitySpec.mkdv(), CNOIDAL_E, None),
    **{f"mkdv-E{E}": (kp.NonlinearitySpec.mkdv(), E, None) for E in (0.9, 1.1, 2.0)},
}


@pytest.mark.parametrize("sigma", (1, -1))
@pytest.mark.parametrize("wave", list(LOW_FREQ_WAVES))
def test_low_freq_c4_matches_prediction(wave, sigma):
    """c4 meets -(P T - M^2) {T, M}_{a,E} to 1e-7 relative: 2.8e-8 at mKdV
    E = 0.9, 2.5e-11 on KdV (a k^4, k^6, k^8 fit on a k ladder missed by
    2.4e-6 on KdV)."""
    f, E, hint = LOW_FREQ_WAVES[wave]
    params = kp.WaveParams(0.0, E, 1.0, f, sigma=sigma)
    rep = kp.low_freq_coefficient(kp.integrate_profile(params, bracket_hint=hint))
    assert rep.relative_error <= 1e-7


# ----------------------------------------------------------------------
# orientation index
# ----------------------------------------------------------------------

def test_orientation_index_kdv(kdv_params, kdv_grads):
    verdict = kp.orientation_index(kdv_params, grads=kdv_grads)
    assert verdict.conclusion == "UnstableDetected"
    assert verdict.product_sign == 1

    from dataclasses import replace
    flipped = kp.orientation_index(replace(kdv_params, sigma=-1), grads=kdv_grads)
    assert flipped.conclusion == "IndexInconclusive"


def test_orientation_index_mkdv(dnoidal_params, dnoidal_grads,
                                cnoidal_mkdv_params, cnoidal_mkdv_grads):
    assert kp.orientation_index(dnoidal_params, grads=dnoidal_grads).conclusion \
        == "UnstableDetected"
    assert kp.orientation_index(cnoidal_mkdv_params,
                                grads=cnoidal_mkdv_grads).conclusion \
        == "UnstableDetected"
    # flipping sigma on the cnoidal branch turns the index inconclusive
    from dataclasses import replace
    other = kp.orientation_index(replace(cnoidal_mkdv_params, sigma=1),
                                 grads=cnoidal_mkdv_grads)
    assert other.conclusion == "IndexInconclusive"


def test_high_freq_strict_inconclusive(kdv_profile):
    # probes straddling the sign change at mu* ~ 0.05 (k = 0.1) cannot settle
    rep = kp.high_freq_sign(kdv_profile, 0.1, [0.01, 0.02, 30.0])
    assert rep.verdict == 0
