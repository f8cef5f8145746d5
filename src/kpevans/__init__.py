"""Transverse spectral instability of periodic gKdV waves in the gKP equation.

Pipeline: construct a periodic traveling-wave profile of
u_t = u_xxx + f(u)_x from its integration constants (a, E, c), evaluate the
periodic Evans function D(mu, k, lambda) of the transverse spectral
problem, and decide long-wavelength transverse instability from the
orientation index sigma * {T, M}_{a,E}, with every supporting identity
(kernel relations, low/high frequency asymptotics, block reduction)
verifiable numerically.
"""

from .asymptotics import (HighFreqReport, IndexVerdict, LowFreqReport,
                          high_freq_sign, low_freq_coefficient,
                          lower_left_slope, orientation_index,
                          verify_block_reduction)
from .conserved import (GradientSet, InvariantSet, compute_invariants,
                        gradient_identity_residual, gradients, jacobian_TM,
                        profile_invariants)
from .evans import EvansValue, Monodromy, ScanReport, evans, evans_scan, monodromy
from .kernel import (KernelBasis, kernel_residuals, variational_solutions,
                     verify_inverse_column)
from .model import NonlinearitySpec, WaveParams, eval_V
from .wave import WaveProfile, compute_period, find_turning_points, integrate_profile

__version__ = "0.1.0"

__all__ = [
    "NonlinearitySpec", "WaveParams", "eval_V",
    "WaveProfile", "find_turning_points", "compute_period",
    "integrate_profile",
    "InvariantSet", "GradientSet", "compute_invariants", "profile_invariants",
    "gradients", "gradient_identity_residual", "jacobian_TM",
    "KernelBasis", "variational_solutions", "verify_inverse_column",
    "kernel_residuals",
    "Monodromy", "EvansValue", "ScanReport",
    "monodromy", "evans", "evans_scan",
    "HighFreqReport", "LowFreqReport", "IndexVerdict",
    "high_freq_sign", "verify_block_reduction", "lower_left_slope",
    "low_freq_coefficient", "orientation_index",
]
