"""Jacobi elliptic layer: AGM values, identities, degenerate modulus."""

import numpy as np
import pytest

from elliptic import EllipticModulus, ModulusOutOfRange, complete_K, jacobi_elliptic

# frozen AGM oracle values (independently iterated arithmetic-geometric
# mean, cross-checked against the ascending series for small k)
K_HALF = 1.6857503548125960429


def agm_oracle(a, b):
    for _ in range(60):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        if abs(a - b) < 1e-17:
            break
    return a


def test_complete_K_values():
    assert complete_K(0.0) == pytest.approx(np.pi / 2.0, abs=1e-15)
    assert complete_K(0.5) == pytest.approx(K_HALF, abs=1e-13)
    # independent AGM iteration
    k = 0.73
    assert complete_K(k) == pytest.approx(
        np.pi / (2.0 * agm_oracle(1.0, np.sqrt(1 - k * k))), abs=1e-13)
    # ascending series K = pi/2 (1 + k^2/4 + 9 k^4/64 + ...) for small k
    k = 0.01
    series = np.pi / 2.0 * (1 + k ** 2 / 4 + 9 * k ** 4 / 64 + 25 * k ** 6 / 256)
    assert complete_K(k) == pytest.approx(series, abs=1e-12)


def test_values_at_origin():
    for k in (0.0, 0.3, 0.8, 0.99):
        sn, cn, dn = jacobi_elliptic(0.0, k)
        assert sn == pytest.approx(0.0, abs=1e-15)
        assert cn == pytest.approx(1.0, abs=1e-15)
        assert dn == pytest.approx(1.0, abs=1e-15)


def test_degenerate_modulus_is_trigonometric():
    x = np.linspace(-5.0, 5.0, 37)
    sn, cn, dn = jacobi_elliptic(x, 0.0)
    assert np.max(np.abs(sn - np.sin(x))) <= 1e-14
    assert np.max(np.abs(cn - np.cos(x))) <= 1e-14
    assert np.max(np.abs(dn - 1.0)) <= 1e-14


def test_pythagorean_identities():
    x = np.linspace(-6.0, 6.0, 101)
    for k in (0.1, 0.5, 0.8, 0.95):
        sn, cn, dn = jacobi_elliptic(x, k)
        assert np.max(np.abs(sn ** 2 + cn ** 2 - 1.0)) <= 1e-12
        assert np.max(np.abs(dn ** 2 + k * k * sn ** 2 - 1.0)) <= 1e-12


def test_quarter_period():
    for k in (0.2, 0.6, 0.9):
        K = complete_K(k)
        sn, cn, dn = jacobi_elliptic(K, k)
        assert sn == pytest.approx(1.0, abs=1e-12)
        assert cn == pytest.approx(0.0, abs=1e-12)
        assert dn == pytest.approx(np.sqrt(1 - k * k), abs=1e-12)


def test_derivative_relation():
    # d/dx sn = cn dn
    k, h = 0.7, 1e-6
    for x in (0.3, 1.1, 2.9):
        snp, _, _ = jacobi_elliptic(x + h, k)
        snm, _, _ = jacobi_elliptic(x - h, k)
        _, cn, dn = jacobi_elliptic(x, k)
        assert (snp - snm) / (2 * h) == pytest.approx(cn * dn, abs=1e-9)


def test_modulus_out_of_range():
    for bad in (-0.1, 1.0, 1.3):
        with pytest.raises(ModulusOutOfRange):
            jacobi_elliptic(0.5, bad)
        with pytest.raises(ModulusOutOfRange):
            complete_K(bad)
    with pytest.raises(ModulusOutOfRange):
        EllipticModulus(1.0)
