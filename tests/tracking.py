"""Conjugation of approximately block-triangular periodic systems.

The tests use it to conjugate the block-reduced Evans system of a wave
(block_reduction.block_reduction_loop) to triangular form, the step of the
paper's high-frequency limit; no command of the package runs it.

Given W' = [[M1, N], [delta*Theta, M2]] W with a spectral gap between the
blocks and a small coupling delta, there is a periodic shear

    S = [[I, 0], [Phi, I]],   Phi of size n2 x n1,

turning the system exactly block upper triangular with blocks

    M1~ = M1 + N Phi,   M2~ = M2 - Phi N,   N~ = N,

where Phi solves Phi' = M2 Phi - Phi M1 + delta*Theta - Phi N Phi.  The
half-line Duhamel fixed point is realized here as a sequence of linear
periodic Sylvester boundary-value problems: each iterate integrates the
linear flow over one period and closes it with the unique periodic initial
condition.  Uniqueness (and hence periodicity of the fixed point) is exactly
the invertibility of the cyclic shooting matrix.

The linear flow is integrated by classical RK4 with 2m steps per interval
of the conjugator's uniform grid.  Its homogeneous part is the same in
every sweep, so the blocks are sampled once at the half steps, and the step
propagators, the per-segment prefix maps and the inverse of the shooting
matrix are built once per solve; a sweep evaluates the forcing at every
node by one inverse FFT of the previous iterate and runs one affine
recurrence.  The converged sweep is repeated with m steps per interval, and
the Richardson estimate of the difference certifies the discretization (see
solve_conjugator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kpevans.errors import IntegrationFailure, KPEvansError


class NoContraction(KPEvansError):
    """Conjugator fixed-point iteration diverges (delta/eta too large)."""


class PeriodMapSingular(KPEvansError):
    """I - P singular for the homogeneous Sylvester flow; gap failure."""


class TrigInterp:
    """Trigonometric interpolation of periodic samples on a uniform grid.

    samples[j] at x_j = j * period / n, j = 0..n-1 (no duplicated endpoint);
    works for tensor-valued samples, interpolating along axis 0.
    """

    def __init__(self, period: float, samples: np.ndarray):
        self.n = len(samples)
        self.coeffs = np.fft.fft(np.asarray(samples, dtype=complex), axis=0) / self.n
        self.modes = np.rint(np.fft.fftfreq(self.n) * self.n).astype(int)
        self.freqs = 2.0 * np.pi / period * np.fft.fftfreq(self.n, d=1.0 / self.n)

    def on_grid(self, n: int, derivative: bool = False) -> np.ndarray:
        """Values (or derivatives) at x_j = j * period / n, j < n, by one inverse FFT."""
        c = self.coeffs
        if derivative:
            c = c * (1j * self.freqs).reshape((-1,) + (1,) * (c.ndim - 1))
        spectrum = np.zeros((n,) + c.shape[1:], dtype=complex)
        np.add.at(spectrum, self.modes % n, c)
        return np.fft.ifft(spectrum, axis=0) * n


@dataclass(eq=False)
class BlockSystem:
    """Periodic full coefficient matrices [[M1, N], [delta*Theta, M2]].

    table holds the trigonometric interpolant of uniform samples of the full
    (n1 + n2) x (n1 + n2) matrix; M1 is n1 x n1 and M2 is n2 x n2.
    """

    period: float
    n1: int
    n2: int
    table: TrigInterp

    def gap_margin(self) -> float:
        """min over 64 points of [min spec Re M1 - max spec Re M2], the raw gap.

        Reported, not assumed: the periodic-BVP solver only needs I - P
        invertible, so a negative gap is diagnostic rather than fatal.
        """
        M1, M2, _, _ = _sample_blocks(self, 64)
        gap = (np.min(_hermitian_spectrum(M1[:-1]), axis=-1)
               - np.max(_hermitian_spectrum(M2[:-1]), axis=-1))
        return float(np.min(gap))

    @staticmethod
    def from_tables(period: float, grid: np.ndarray, matrices: np.ndarray,
                    n1: int, n2: int) -> "BlockSystem":
        """Build a system from sampled full coefficient matrices.

        grid must be uniform over [0, period); a trailing duplicated endpoint
        is dropped.  One sample gives a constant system.
        """
        mats = np.asarray(matrices)
        g = np.asarray(grid)
        if len(g) >= 2 and abs((g[-1] - g[0]) - period) < 1e-9 * period:
            mats = mats[:-1]
        return BlockSystem(period=period, n1=n1, n2=n2,
                           table=TrigInterp(period, mats))


@dataclass(eq=False)
class Conjugator:
    """Periodic solution Phi of the conjugation equation, with certificates."""

    grid: np.ndarray             # uniform, endpoint excluded
    samples: np.ndarray          # (n_grid, n2, n1)
    interp: TrigInterp
    norm_bound: float
    residual: float
    periodicity_defect: float
    iterations: int
    contraction_ratios: tuple
    err_est: float               # Richardson estimate of the discretization error
    steps: int                   # RK4 steps taken (see solve_conjugator)


def _hermitian_spectrum(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian parts of a stack of matrices."""
    return np.linalg.eigvalsh(0.5 * (M + M.conj().swapaxes(-1, -2)))


def _growth_rate(system: BlockSystem) -> float:
    """Crude bound on the Sylvester flow's exponential rate, for shooting."""
    M1, M2, _, _ = _sample_blocks(system, 32)
    return float(np.max(np.max(np.abs(_hermitian_spectrum(M1)), axis=-1)
                        + np.max(np.abs(_hermitian_spectrum(M2)), axis=-1)))


_MAX_STEPS = 1 << 16   # RK4 steps of one fine period solve


def _sample_blocks(system: BlockSystem, n: int):
    """M1, M2, N and delta*Theta at x_j = j T / n, j = 0..n (x_n = T), as stacks."""
    full = system.table.on_grid(n)
    full, n1 = np.concatenate([full, full[:1]]), system.n1
    return full[:, :n1, :n1], full[:, n1:, n1:], full[:, :n1, n1:], full[:, n1:, :n1]


def _sylvester_generators(M1: np.ndarray, M2: np.ndarray) -> np.ndarray:
    """Stack of the matrices of vec(Phi) -> vec(M2 Phi - Phi M1), vec row-major."""
    n, n2, n1 = len(M1), M2.shape[1], M1.shape[1]
    L = (np.einsum("xik,jl->xijkl", M2, np.eye(n1))
         - np.einsum("ik,xlj->xijkl", np.eye(n2), M1))
    return L.reshape(n, n2 * n1, n2 * n1)


def _rk4_steps(A: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step propagators of the linear flow Y' = A(x) Y.

    A holds the coefficient matrices at every half step, A[2j], A[2j + 1]
    and A[2j + 2] being step j's start, midpoint and end; h is the step.
    Returns the stack of the n = (len(A) - 1) / 2 one-step maps.
    """
    A0, Ah, A1 = A[0:-1:2], A[1::2], A[2::2]
    k2 = Ah + (0.5 * h) * (Ah @ A0)
    k3 = Ah + (0.5 * h) * (Ah @ k2)
    k4 = A1 + h * (A1 @ k3)
    return np.eye(A.shape[-1]) + (h / 6.0) * (A0 + 2.0 * (k2 + k3) + k4)


class _PeriodicRK4:
    """Periodic solutions of y' = L(x) y + q(x) by RK4 steps and shooting.

    L is sampled at the half steps of a uniform step sequence with `per_grid`
    steps per conjugator grid interval; the period splits at the grid nodes
    `edges` into segments.  Everything that depends on L alone -- the step
    propagators, the per-segment prefix maps at the grid points and the
    inverse of the cyclic shooting matrix -- is built here, once; solve()
    then costs one affine recurrence per forcing.
    """

    def __init__(self, L: np.ndarray, h: float, per_grid: int, edges):
        self.h = h
        self.Lh, self.L1 = L[1::2], L[2::2]
        d = L.shape[-1]
        n_seg = len(edges) - 1
        lengths = np.diff(edges) * per_grid
        width = max(lengths)
        # step indices per segment, padded with an identity step (index n_steps)
        self.index = np.full((n_seg, width), len(L) // 2)
        for s, (lo, n_s) in enumerate(zip(edges[:-1], lengths)):
            self.index[s, :n_s] = lo * per_grid + np.arange(n_s)
        self.step_maps = np.concatenate([_rk4_steps(L, h), np.eye(d)[None]])[self.index]
        prefix = np.empty((n_seg, width + 1, d, d), dtype=complex)
        prefix[:, 0] = np.eye(d)
        for t in range(width):
            prefix[:, t + 1] = self.step_maps[:, t] @ prefix[:, t]
        # grid point g lies in segment seg[g], offset[g] steps from its start
        self.seg = np.repeat(np.arange(n_seg), np.diff(edges))
        self.offset = (np.arange(edges[-1]) - np.asarray(edges)[self.seg]) * per_grid
        self.prefix = prefix[self.seg, self.offset]
        self.maps = prefix[:, width]
        A = np.eye(n_seg * d, dtype=complex)
        for s in range(n_seg):
            j = (s + 1) % n_seg
            A[j * d:(j + 1) * d, s * d:(s + 1) * d] -= self.maps[s]
        cond = np.linalg.cond(A)
        if cond > 1e13:
            raise PeriodMapSingular(
                f"shooting matrix nearly singular (cond {cond:.2e}); "
                "no unique periodic solution -- spectral gap failure")
        self.shoot_inv = np.linalg.inv(A)

    def solve(self, q: np.ndarray):
        """(values at the grid points, residual of the closing matching
        condition) of the periodic solution for the forcing q at the nodes."""
        h = self.h
        q0, qh, q1 = q[0:-1:2], q[1::2], q[2::2]
        k2 = qh + (0.5 * h) * np.einsum("nij,nj->ni", self.Lh, q0)
        k3 = qh + (0.5 * h) * np.einsum("nij,nj->ni", self.Lh, k2)
        k4 = q1 + h * np.einsum("nij,nj->ni", self.L1, k3)
        b = (h / 6.0) * (q0 + 2.0 * (k2 + k3) + k4)
        b = np.concatenate([b, np.zeros_like(b[:1])])[self.index]
        n_seg, width, d = b.shape
        y = np.zeros((n_seg, width + 1, d), dtype=complex)
        for t in range(width):
            y[:, t + 1] = np.einsum("sij,sj->si", self.step_maps[:, t], y[:, t]) + b[:, t]
        ends = y[:, width]
        v = (self.shoot_inv @ np.roll(ends, 1, axis=0).reshape(-1)).reshape(n_seg, d)
        values = np.einsum("gij,gj->gi", self.prefix, v[self.seg]) + y[self.seg, self.offset]
        defect = float(np.max(np.abs(self.maps[-1] @ v[-1] + ends[-1] - v[0])))
        return values, defect


def _fixed_point(solver: _PeriodicRK4, system: BlockSystem, N: np.ndarray,
                 F0: np.ndarray, n_grid: int, max_iter: int, fp_tol: float):
    """Fixed-point sweeps Phi -> periodic solution with forcing F0 - Phi N Phi.

    N and F0 are sampled at the solver's nodes; the previous iterate enters
    there through its trigonometric interpolant, evaluated by one inverse FFT.
    Returns (samples, increments, periodicity defect, last forcing).
    """
    n1, n2, T = system.n1, system.n2, system.period
    n_nodes = len(N) - 1
    samples = np.zeros((n_grid, n2, n1), dtype=complex)
    changes = []
    q = F0
    for _ in range(max_iter):
        if changes:
            Phi = TrigInterp(T, samples).on_grid(n_nodes)
            Phi = np.concatenate([Phi, Phi[:1]])
            q = F0 - Phi @ N @ Phi
        new, defect = solver.solve(q.reshape(n_nodes + 1, n1 * n2))
        new = new.reshape(n_grid, n2, n1)
        changes.append(float(np.max(np.abs(new - samples))))
        samples = new
        if changes[-1] < fp_tol:
            return samples, changes, defect, q
        if len(changes) >= 3 and changes[-1] > changes[-2] > changes[-3] \
                and changes[-1] > 10.0 * changes[0]:
            raise NoContraction(
                f"iteration diverging: increments {changes[-3:]} "
                f"(max |delta Theta| = {np.max(np.abs(F0)):.3e})")
    raise NoContraction(
        f"no convergence to {fp_tol:g} in {max_iter} sweeps "
        f"(last increment {changes[-1]:.3e})")


def solve_conjugator(system: BlockSystem, max_iter: int = 60, fp_tol: float = 1e-12,
                     ode_rtol: float = 1e-12, ode_atol: float = 1e-13,
                     n_grid: int = 256) -> Conjugator:
    """Fixed-point iteration over linear periodic Sylvester problems.

    Each sweep solves Phi' = M2 Phi - Phi M1 + [delta*Theta - Phi_prev N
    Phi_prev] with the periodic closure imposed by multiple shooting, by 2m
    RK4 steps per grid interval (see the module docstring); Phi_prev is the
    trigonometric interpolant of the previous sweep's grid values.

    Error certificate: after convergence the last sweep's linear problem is
    solved again with m steps per interval, and

        err_est = max |Phi_2m - Phi_m| / 15

    must meet ode_atol + ode_rtol * max |Phi|.  m starts at 1; on a miss it
    grows by the power of two, at least 2, that RK4's fourth order predicts
    will meet the bound, and the iteration restarts.  If the fine solve would
    then exceed 2^16 steps, IntegrationFailure is raised instead, so an
    uncertified Phi is never returned.  steps counts every RK4 step of every
    sweep and of the coarse solve.
    """
    n1, n2, T = system.n1, system.n2, system.period
    n_seg = max(1, min(64, n_grid, int(np.ceil(T * _growth_rate(system) / 2.0))))
    edges = [round(i * n_grid / n_seg) for i in range(n_seg + 1)]
    grid = np.linspace(0.0, T, n_grid, endpoint=False)
    m = 1
    steps = 0
    while True:
        M1, M2, N, F0 = _sample_blocks(system, 4 * m * n_grid)
        L = _sylvester_generators(M1, M2)
        fine = _PeriodicRK4(L, T / (2 * m * n_grid), 2 * m, edges)
        samples, changes, defect, q = _fixed_point(
            fine, system, N, F0, n_grid, max_iter, fp_tol)
        coarse = _PeriodicRK4(L[::2], T / (m * n_grid), m, edges)
        rough, _ = coarse.solve(q[::2].reshape(-1, n1 * n2))
        steps += (2 * len(changes) + 1) * m * n_grid
        err_est = float(np.max(np.abs(samples.reshape(n_grid, -1) - rough))) / 15.0
        bound = ode_atol + ode_rtol * float(np.max(np.abs(samples)))
        if err_est <= bound:
            break
        # RK4's error falls 16-fold per doubling of m
        m <<= max(1, math.ceil(math.log2(err_est / bound) / 4.0)) if bound > 0 else 64
        if 2 * m * n_grid > _MAX_STEPS:
            raise IntegrationFailure(
                f"err_est {err_est:.3g} misses {bound:.3g}; meeting it would take "
                f"{2 * m} RK4 steps per grid interval, beyond the budget of "
                f"{_MAX_STEPS} per period")

    # residual certificate with an independent (spectral) derivative
    phi_interp = TrigInterp(T, samples)
    at = slice(0, -1, 4 * m)      # the grid points among the sampled nodes
    rhs_val = (M2[at] @ samples - samples @ M1[at] + F0[at]
               - samples @ N[at] @ samples)
    resid = float(np.max(np.abs(phi_interp.on_grid(n_grid, derivative=True) - rhs_val)))
    sup_phi = float(np.max(np.abs(samples)))
    ratios = tuple(b / a for a, b in zip(changes[:-1], changes[1:]) if a > 0)
    return Conjugator(grid=grid, samples=samples, interp=phi_interp,
                      norm_bound=sup_phi, residual=resid,
                      periodicity_defect=defect,
                      iterations=len(changes), contraction_ratios=ratios,
                      err_est=err_est, steps=steps)


def _triangular(A: np.ndarray, Phi: np.ndarray, n1: int) -> np.ndarray:
    """Stack of [[M1 + N Phi, N], [0, M2 - Phi N]] from stacks of A and Phi."""
    N = A[:, :n1, n1:]
    At = A.copy()
    At[:, :n1, :n1] += N @ Phi
    At[:, n1:, n1:] -= Phi @ N
    At[:, n1:, :n1] = 0.0
    return At


def triangularized_blocks(system: BlockSystem, conj: Conjugator) -> BlockSystem:
    """The exact-triangular system [[M1~, N], [0, M2~]] on the conjugator's grid.

    M1~ = M1 + N Phi and M2~ = M2 - Phi N; the displayed convention is
    validated by the residual certificate S' + S A~ - A S = 0 rather than
    trusted blindly.
    """
    A = system.table.on_grid(len(conj.grid))
    return BlockSystem.from_tables(system.period, conj.grid,
                                   _triangular(A, conj.samples, system.n1),
                                   system.n1, system.n2)


def conjugation_residual(system: BlockSystem, conj: Conjugator) -> float:
    """sup |S' + S A~ - A S| over a uniform grid of 64 points."""
    n1 = system.n1
    A = system.table.on_grid(64)
    Phi = conj.interp.on_grid(64)
    S = np.broadcast_to(np.eye(n1 + system.n2, dtype=complex), A.shape).copy()
    S[:, n1:, :n1] = Phi
    Sp = np.zeros_like(A)
    Sp[:, n1:, :n1] = conj.interp.on_grid(64, derivative=True)
    return float(np.max(np.abs(Sp + S @ _triangular(A, Phi, n1) - A @ S)))
