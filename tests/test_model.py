"""Nonlinearity and effective-potential layer."""

import json

import numpy as np
import pytest

import kpevans as kp
from kpevans.errors import ConfigError
from kpevans.model import _poly_derivative, polyval_ascending

from conftest import horner_from_zero

KDV = kp.NonlinearitySpec.kdv()
MKDV = kp.NonlinearitySpec.mkdv()


def f_derivative(spec, u, order):
    """order-th derivative of f at u, as the Evans coefficients take it."""
    return polyval_ascending(_poly_derivative(spec.f_coeffs, order), u)


def test_eval_V_vanishes_at_zero():
    for params in (kp.WaveParams(0.3, -0.1, 1.7, KDV),
                   kp.WaveParams(-1.2, 0.4, 0.5, MKDV)):
        assert kp.eval_V(params, 0.0, 0) == 0.0


def test_eval_V_kdv_values():
    params = kp.WaveParams(0.0, -0.05, 1.0, KDV)
    # V(u) = u^3/6 - u^2/2: V(3) = 0, V''(2) = 2 - 1 = 1
    assert kp.eval_V(params, 3.0, 0) == pytest.approx(0.0, abs=1e-15)
    assert kp.eval_V(params, 2.0, 2) == pytest.approx(1.0, abs=0)


def test_fd_derivative_consistency():
    """Richardson check: FD of order-n derivative matches order n+1 to O(h^2)."""
    rng = np.random.default_rng(7)
    specs = [KDV, MKDV, kp.NonlinearitySpec.polynomial([0.3, -1.0, 0.25, 0.1])]
    for spec in specs:
        for u in rng.uniform(-2.0, 3.0, 6):
            for order in range(3):
                exact = f_derivative(spec, u, order + 1)
                errs = []
                for h in (1e-4, 5e-5):
                    fd = (f_derivative(spec, u + h, order)
                          - f_derivative(spec, u - h, order)) / (2.0 * h)
                    errs.append(abs(fd - exact))
                # O(h^2): quartering h halves... the error by ~4
                assert errs[0] <= 1e-6 * (1.0 + abs(exact))
                if errs[0] > 1e-11:
                    assert errs[1] <= 0.5 * errs[0]


def test_V_second_derivative_is_fprime_minus_c():
    params = kp.WaveParams(0.2, -0.1, 1.4, MKDV)
    grid = np.linspace(-2.0, 3.0, 41)
    lhs = np.array([kp.eval_V(params, u, 2) for u in grid])
    rhs = np.array([f_derivative(MKDV, u, 1) - params.c for u in grid])
    assert np.max(np.abs(lhs - rhs)) == 0.0


def test_eval_V_exact_for_polynomials():
    # expanded coefficients of V for KdV with a=0.3, c=1.2
    params = kp.WaveParams(0.3, 0.0, 1.2, KDV)
    grid = np.linspace(-3.0, 3.0, 25)
    expected = grid ** 3 / 6.0 - 0.3 * grid - 0.6 * grid ** 2
    got = np.array([kp.eval_V(params, u, 0) for u in grid])
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(1.0 + np.abs(expected))


def test_wave_params_validation():
    with pytest.raises(ConfigError):
        kp.WaveParams(0.0, 0.0, -1.0, KDV)
    with pytest.raises(ConfigError):
        kp.WaveParams(0.0, 0.0, 1.0, KDV, sigma=2)


def test_nonlinearity_json_round_trip():
    for spec in (KDV, kp.NonlinearitySpec.polynomial([0.0, 0.0, 0.5])):
        text = json.dumps(spec.to_json_dict())
        back = kp.NonlinearitySpec.from_json_dict(json.loads(text))
        assert np.allclose(back.f_coeffs, spec.f_coeffs)
    d = json.loads(json.dumps(KDV.to_json_dict()))
    assert d == {"kind": "power", "coef": 0.5, "exponent": 2}


def test_power_and_poly_agree():
    poly = kp.NonlinearitySpec.polynomial([0.0, 0.0, 0.5])
    for u in (-1.3, 0.0, 2.7):
        for order in range(4):
            assert f_derivative(poly, u, order) == f_derivative(KDV, u, order)


def test_F_coeffs_built_once_read_only():
    """F is integrated once per spec and shared read-only; the potential and
    the energy polynomial built from it are unchanged, and equal specs
    still compare and hash equal."""
    spec = kp.NonlinearitySpec.polynomial([0.0, 1.0, 0.5, 1.0 / 3.0])
    F = spec.F_coeffs
    assert F is spec.F_coeffs and not F.flags.writeable
    assert np.array_equal(F, [0.0, 0.0, 0.5, 1.0 / 6.0, 1.0 / 12.0])
    with pytest.raises(ValueError):
        F[1] = 1.0
    params = kp.WaveParams(0.2, -0.1, 1.5, spec)
    V = params.F_minus_quadratic()
    assert V.flags.writeable
    assert np.array_equal(V, [0.0, -0.2, 0.5 - 0.75, 1.0 / 6.0, 1.0 / 12.0])
    assert np.array_equal(params.energy_poly(), [-0.1] + list(-V[1:]))
    twin = kp.NonlinearitySpec.polynomial([0.0, 1.0, 0.5, 1.0 / 3.0])
    assert twin == spec and hash(twin) == hash(spec)


def test_nonlinearity_rejects_bad_input():
    with pytest.raises(ConfigError):
        kp.NonlinearitySpec.power(1.0, 0)
    with pytest.raises(ConfigError):
        kp.NonlinearitySpec.from_json_dict({"kind": "exp"})
    with pytest.raises(ConfigError):
        kp.NonlinearitySpec.from_json_dict({"kind": "power", "coef": 1.0,
                                            "exponent": 2, "junk": 1})
    for bad, key in (({"kind": "power", "coef": "0.5", "exponent": 2},
                      "nonlinearity.coef"),
                     ({"kind": "power", "coef": 0.5}, "nonlinearity.exponent"),
                     ({"kind": "power", "coef": 0.5, "exponent": 2.5},
                      "nonlinearity.exponent"),
                     ({"kind": "poly", "coeffs": 5}, "nonlinearity.coeffs")):
        with pytest.raises(ConfigError, match=key):
            kp.NonlinearitySpec.from_json_dict(bad)


def test_polyval_ascending_equals_horner_from_zero():
    """Starting from the top coefficient changes no bit of the value."""
    rng = np.random.default_rng(20)
    special = [-0.0, 0.0, np.inf, -np.inf, 1e300, -1e-300, 2.0, -3.5]
    u_real = np.concatenate([special, rng.normal(size=40) * 10.0 ** rng.integers(-5, 5, 40)])
    u_cplx = np.empty(len(u_real) + 3, dtype=complex)
    u_cplx.real = np.concatenate([u_real, [-0.0, 3.0, -2.0]])
    u_cplx.imag = np.concatenate([rng.permutation(u_real), [-0.0, -0.0, np.inf]])
    stack = rng.normal(size=(6, 2, 3, 1)) + 1j * rng.normal(size=(6, 2, 3, 1))
    stack[-1, 1] = 0.0            # a row whose top coefficient is 0, as for p'
    cases = [
        ([0.3, -1.0, 0.25, 0.1], u_real), ([0.3, -1.0, 0.25, 0.1], u_cplx),
        ([0.5, 0.0, 0.0], u_real), ([1.0, -2.0, 0.0], u_cplx),     # zero top coefficient
        ([-0.0, 1.0, -1.0 / 6.0], u_real), ([2.0], u_real),
        (np.array([0.0, 0.0, 0.5, 1.0 / 3.0]), u_real),
        (np.array([1.5, -0.5j, 0.25 + 1e-30j]), u_cplx),
        (stack, u_cplx.reshape(3, -1)), (stack, u_real.reshape(3, -1)),
    ]
    with np.errstate(invalid="ignore", over="ignore"):
        for coeffs, u in cases:
            for x in [u, *u[..., :6].ravel()]:       # arrays, then numbers
                want, got = horner_from_zero(coeffs, x), polyval_ascending(coeffs, x)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (coeffs, x)
