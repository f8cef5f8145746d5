"""The benchmark's inputs: the three canonical waves and the seeded wave set.

Everything here is plain numpy on the nonlinearity's coefficients; nothing
calls kpevans, so the inputs do not depend on the code being measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

# f(u) as ascending coefficients, one entry per family of the index sweep
FAMILIES = {
    "kdv": (0.0, 0.0, 0.5),                    # u^2/2
    "mkdv": (0.0, 0.0, 0.0, 1.0 / 3.0),        # u^3/3
    "quartic": (0.0, 0.0, 0.0, 0.0, 0.25),     # u^4/4
    "mixed": (0.0, 0.0, 0.5, 1.0 / 3.0),       # u^2/2 + u^3/3
}
WAVES_PER_STRATUM = 16       # per family and sign of sigma: 128 seeded waves a pass
A_RANGE = (-0.5, 0.5)
C_RANGE = (0.5, 1.5)
# E = V_min + t (V_barrier - V_min): away from the harmonic limit (t = 0)
# and from the separatrix (t = 1). t is stratified, one draw from each of
# WAVES_PER_STRATUM equal bins, so seeds differ little in total work.
T_RANGE = (0.1, 0.9)
# The seeded waves come from wells at least this deep. kpevans' gradient
# steps a, E and c by a fixed 1e-5 (1 + |p|), and orientation_index fails
# on wells up to about 2e-4 deep (see CHANGES.md); a seeded wave that
# failed would make the failed share depend on the seed. The shallow wells
# are measured by the fixed SHALLOW stratum instead.
MIN_WELL_DEPTH = 1e-3
# The fixed, seed-independent shallow stratum: one wave per family, depth
# and level t, at c = 1, wherever orientation_index fails on it or not.
SHALLOW_DEPTHS = (1e-6, 1e-5, 1e-4, 1e-3)
SHALLOW_LEVELS = (0.1, 0.5)


@dataclass(frozen=True)
class Wave:
    """One periodic orbit: f, (a, E, c), sigma and a point inside its well.

    bottom is the well's minimum of V (or, above a barrier, any point with
    E > V); hint is the bracket_hint that selects the well in kpevans.
    """

    name: str
    f: tuple
    a: float
    E: float
    c: float
    sigma: int
    bottom: float
    hint: tuple = None
    shallow: bool = False     # one of the fixed SHALLOW stratum


# The canonical waves of the package's tests and README: the mKdV dnoidal
# wave sits in the right-hand of two wells, the cnoidal one above the barrier.
CANONICAL = (
    Wave("kdv", FAMILIES["kdv"], 0.0, -0.05, 1.0, 1, bottom=2.0),
    Wave("dnoidal", FAMILIES["mkdv"], 0.0, -0.5, 1.0, 1, bottom=3.0 ** 0.5,
         hint=(0.5, 3.0)),
    Wave("cnoidal", FAMILIES["mkdv"], 0.0, 0.3, 1.0, -1, bottom=0.0),
)


def potential(f, a: float, c: float) -> np.ndarray:
    """Ascending coefficients of V(u) = F(u) - a u - c u^2 / 2, F(0) = 0."""
    V = np.zeros(max(len(f) + 1, 3))
    F = P.polyint(np.asarray(f, dtype=float))
    V[:len(F)] = F
    V[1] -= a
    V[2] -= 0.5 * c
    return V


def critical_points(V: np.ndarray) -> np.ndarray:
    """Sorted real simple roots of V'."""
    r = P.polyroots(P.polyder(V))
    return np.sort(r[np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r))].real)


def wells(f, a: float, c: float):
    """(bottom, V at the bottom, lowest barrier) of each well of V with a barrier."""
    V = potential(f, a, c)
    crit = critical_points(V)
    curv = P.polyval(crit, P.polyder(V, 2))
    out = []
    for i, u in enumerate(crit):
        barriers = [P.polyval(crit[j], V) for j in (i - 1, i + 1)
                    if 0 <= j < len(crit)]
        if curv[i] > 0.0 and barriers:
            out.append((float(u), float(P.polyval(u, V)), float(min(barriers))))
    return out


def _wave_at(name: str, f, a: float, c: float, sigma: int, t: float, well,
             shallow: bool = False) -> Wave:
    bottom, v_min, v_bar = well
    return Wave(name, tuple(f), float(a), float(v_min + t * (v_bar - v_min)),
                float(c), sigma, bottom=bottom,
                hint=(bottom - 1e-3, bottom + 1e-3), shallow=shallow)


def _draw_one(rng, name: str, f, sigma: int, t: float) -> Wave:
    """A wave at level t in a well of V with a barrier (see T_RANGE)."""
    while True:
        a = rng.uniform(*A_RANGE)
        c = rng.uniform(*C_RANGE)
        deep = [w for w in wells(f, a, c) if w[2] - w[1] >= MIN_WELL_DEPTH]
        if deep:    # else no deep enough well with a barrier: redraw a, c
            return _wave_at(name, f, a, c, sigma, t,
                            deep[rng.integers(len(deep))])


def _shallowest(f, a: float, c: float):
    """The shallowest well of V with a barrier and its depth (0 if none)."""
    ws = wells(f, a, c)
    if not ws:
        return None, 0.0
    w = min(ws, key=lambda w: w[2] - w[1])
    return w, w[2] - w[1]


def shallow_wave(fam: str, depth: float, t: float, sigma: int,
                 c: float = 1.0) -> Wave:
    """A wave at level t in a well exactly `depth` deep.

    a moves from 0 in steps of 0.01 toward the fold where the shallowest
    well vanishes, then bisection puts that well's depth at `depth`.
    """
    f = FAMILIES[fam]
    depth_at = lambda a: _shallowest(f, a, c)[1]
    step = 0.01 if depth_at(0.01) < depth_at(-0.01) else -0.01
    lo = 0.0
    while depth_at(lo + step) >= depth:
        lo += step
    hi = lo + step
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if depth_at(mid) >= depth else (lo, mid)
    return _wave_at(f"{fam}{sigma:+d}~{depth:.0e}@{t}", f, lo, c, sigma, t,
                    _shallowest(f, lo, c)[0], shallow=True)


def shallow_waves():
    """The SHALLOW stratum: the same 32 waves for every seed."""
    return [shallow_wave(fam, depth, t, 1 if j % 2 == 0 else -1)
            for fam in FAMILIES
            for j, (depth, t) in enumerate((d, t) for d in SHALLOW_DEPTHS
                                           for t in SHALLOW_LEVELS)]


def index_sweep_waves(seed: int):
    """The seeded wave set: WAVES_PER_STRATUM per family and sign of sigma.

    The strata have fixed sizes, so every seed gives the same mix of
    nonlinearities; only (a, E, c) within each family change with the seed.
    The SHALLOW stratum is not part of it (see shallow_waves).
    """
    rng = np.random.default_rng(seed)
    lo, hi = T_RANGE
    waves = []
    for fam, f in FAMILIES.items():
        for sigma in (1, -1):
            for i in range(WAVES_PER_STRATUM):
                t = lo + (hi - lo) * (i + rng.uniform()) / WAVES_PER_STRATUM
                waves.append(_draw_one(rng, f"{fam}{sigma:+d}#{i}", f, sigma, t))
    return waves
