"""Nonlinearity f, antiderivative F, and the effective potential V.

The wave equation u_t = u_xxx + f(u)_x is parametrized by a polynomial (or
power-law, which is a monomial) nonlinearity.  Profiles solve the nonlinear
oscillator u_x^2/2 = E - V(u; a, c) with

    V(u; a, c) = F(u) - a*u - (c/2)*u^2,   F' = f,  F(0) = 0.

Everything here is exact polynomial arithmetic: coefficients are stored in
ascending order and differentiated symbolically, so derivative checks
downstream carry no truncation error from this layer.

read_block, read_number and read_numbers check JSON input (configs and
saved profiles) and name a malformed value by its dotted key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError

_MAX_ORDER = 3


def read_block(value, name: str, defaults: dict, required: tuple) -> dict:
    """value, a JSON object holding only keys of defaults and required, with
    the defaults filled in.  name is the block's dotted path, "" at the top."""
    path = f"{name}." if name else ""
    if not isinstance(value, dict):
        raise ConfigError(f"{name or 'config'} must be a JSON object, got {value!r}")
    allowed = set(defaults) | set(required)
    unknown = sorted(path + key for key in set(value) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}; "
                          f"{name or 'config'} takes {sorted(allowed)}")
    for key in required:
        if key not in value:
            raise ConfigError(f"missing required config key '{path}{key}'")
    return {**defaults, **value}


def read_number(value, key: str, kind):
    """A JSON number as kind, float or int; an int must be integral."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):   # JSON NaN, Infinity
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return kind(value)


def read_numbers(values, key: str, at_least: int) -> list:
    if not isinstance(values, list) or len(values) < at_least:
        raise ConfigError(f"{key} must be a list of at least {at_least} numbers, "
                          f"got {values!r}")
    return [read_number(v, key, float) for v in values]


def _poly_derivative(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Ascending-order coefficients of the order-th derivative."""
    c = np.asarray(coeffs, dtype=float)
    for _ in range(order):
        if len(c) <= 1:
            return np.zeros(1)
        c = c[1:] * np.arange(1, len(c))
    return c


def _poly_antiderivative(coeffs: np.ndarray) -> np.ndarray:
    """Antiderivative with zero constant term."""
    c = np.asarray(coeffs, dtype=float)
    return np.concatenate(([0.0], c / np.arange(1, len(c) + 1)))


def polyval_ascending(coeffs, u):
    """Horner evaluation of ascending-order coefficients (a list, or an array
    with the degree on its first axis) at a number or array u.  Started from
    the top coefficient, it is bit for bit Horner from 0, save the sign of a
    zero that a -0.0 top coefficient can leave."""
    result = coeffs[-1] + 0.0 * u
    for ck in coeffs[-2::-1]:
        result = result * u + ck
    return result


@dataclass(frozen=True)
class NonlinearitySpec:
    """Polynomial/power-law nonlinearity f with exact derivatives.

    kind is "power" (f = coef * u^exponent) or "poly"; in both cases the
    canonical representation is the ascending coefficient list of f itself.
    """

    kind: str
    coeffs: tuple = field(default=())
    coef: float = 0.0
    exponent: int = 0

    @staticmethod
    def power(coef: float, exponent: int) -> "NonlinearitySpec":
        if exponent < 1 or int(exponent) != exponent:
            raise ConfigError("power-law exponent must be a positive integer")
        c = [0.0] * exponent + [float(coef)]
        return NonlinearitySpec("power", tuple(c), float(coef), int(exponent))

    @staticmethod
    def polynomial(coeffs) -> "NonlinearitySpec":
        c = tuple(float(x) for x in coeffs)
        if not c:
            raise ConfigError("polynomial needs at least one coefficient")
        return NonlinearitySpec("poly", c)

    @staticmethod
    def kdv() -> "NonlinearitySpec":
        """f(u) = u^2/2, the KdV nonlinearity (u u_x in the flux)."""
        return NonlinearitySpec.power(0.5, 2)

    @staticmethod
    def mkdv() -> "NonlinearitySpec":
        """f(u) = u^3/3, the focusing mKdV nonlinearity (u^2 u_x)."""
        return NonlinearitySpec.power(1.0 / 3.0, 3)

    @property
    def f_coeffs(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    @cached_property
    def F_coeffs(self) -> np.ndarray:
        """Antiderivative of f with F(0) = 0, built once per spec, read-only."""
        F = _poly_antiderivative(self.f_coeffs)
        F.flags.writeable = False
        return F

    def to_json_dict(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "coef": self.coef, "exponent": self.exponent}
        return {"kind": "poly", "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json_dict(d: dict) -> "NonlinearitySpec":
        """The spec a JSON object names: kind "power" with coef and exponent,
        or "poly" with coeffs; malformed input names its nonlinearity.* key."""
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind not in ("power", "poly"):
            raise ConfigError("nonlinearity needs the kind 'power' with 'coef' and "
                              f"'exponent', or 'poly' with 'coeffs'; got {d!r}")
        keys = ("coef", "exponent") if kind == "power" else ("coeffs",)
        d = read_block(d, "nonlinearity", {}, ("kind",) + keys)
        if kind == "poly":
            return NonlinearitySpec.polynomial(
                read_numbers(d["coeffs"], "nonlinearity.coeffs", 1))
        return NonlinearitySpec.power(
            read_number(d["coef"], "nonlinearity.coef", float),
            read_number(d["exponent"], "nonlinearity.exponent", int))


@dataclass(frozen=True)
class WaveParams:
    """Integration constants (a, E) and speed c selecting a periodic orbit.

    sigma is the transverse dispersion sign carried along for the spectral
    problem; it does not affect the profile itself.
    """

    a: float
    E: float
    c: float
    nonlinearity: NonlinearitySpec
    sigma: int = 1

    def __post_init__(self):
        if not self.c > 0:
            raise ConfigError(f"wave speed must be positive, got c={self.c}")
        if self.sigma not in (-1, 1):
            raise ConfigError(f"sigma must be +1 or -1, got {self.sigma}")

    def V_coeffs(self, order: int = 0) -> np.ndarray:
        """Ascending coefficients of the order-th derivative of V(.; a, c)."""
        V = self.F_minus_quadratic()
        return _poly_derivative(V, order)

    def F_minus_quadratic(self) -> np.ndarray:
        V = np.array(self.nonlinearity.F_coeffs, dtype=float)
        if len(V) < 3:
            V = np.concatenate([V, np.zeros(3 - len(V))])
        V[1] -= self.a
        V[2] -= self.c / 2.0
        return V

    def energy_poly(self) -> np.ndarray:
        """Ascending coefficients of p(u) = E - V(u; a, c), trailing zeros trimmed."""
        p = -self.F_minus_quadratic()
        p[0] += self.E
        return _trim_trailing_zeros(p)


def _trim_trailing_zeros(c: np.ndarray) -> np.ndarray:
    """c less its trailing zeros, keeping at least one entry."""
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:   # np.trim_zeros takes 30 times longer
        n -= 1
    return c[:n]


def eval_V(params: WaveParams, u, order: int = 0):
    """order-th u-derivative of the effective potential, order in 0..3.

    V' = f(u) - a - c*u and V'' = f'(u) - c, which is the identity tying the
    Hill operator L[u] = -d^2/dx^2 - f'(u) + c to -d^2/dx^2 - V''(u).
    """
    if order not in range(_MAX_ORDER + 1):
        raise ValueError(f"unsupported derivative order {order}")
    return polyval_ascending(params.V_coeffs(order), u)
