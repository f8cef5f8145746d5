"""Classical RK4 step maps of linear flows.

_rk4_steps gives the step propagators of Y' = A(x) Y as one numpy stack;
the Evans monodromy and the tracking conjugator build their fixed-step
products on it.
"""

from __future__ import annotations

import numpy as np


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
