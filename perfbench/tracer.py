"""Outside-in tracer for kpevans: spans around the public functions of each layer.

install() wraps every public function of the layer modules and rebinds it
under every name a kpevans module holds it by: the defining module's own
global (so evans() -> monodromy() nests), each `from .x import f` copy
(wave, kernel, evans and tracking each hold `integrate`; asymptotics holds
`evans`; cli holds `evans_value`, `evans_scan` and `monodromy`) and the
package's re-exports. No kpevans source changes.

A span is [name, start, end, parent index]. A span's self time is its
duration minus the durations of its direct children; a layer's self time
is the sum over its spans. Work counters are taken at the same boundaries:
the right-hand side passed to `integrate` and the integrand passed to the
quadrature rules are wrapped and counted per call.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

# kpevans.model (polynomial arithmetic, called from every layer) and
# kpevans.elliptic (used only by cnoidal_wave) get no spans.
LAYERS = ("wave", "quadrature", "integrate", "conserved", "kernel", "evans",
          "asymptotics", "tracking", "cli")

# span names that differ from "<layer>.<function>"
SPAN_NAMES = {
    ("wave", "find_turning_points"): "wave.turning_points",
    ("wave", "turning_points_from_seed"): "wave.turning_points",
    ("quadrature", "gauss_legendre"): "quadrature",
    ("quadrature", "adaptive_gauss_legendre"): "quadrature",
    ("integrate", "integrate"): "integrate",
    ("evans", "det_with_noise"): "evans.det",
    ("evans", "evans_scan"): "evans.scan",
    ("asymptotics", "verify_block_reduction"): "asymptotics.block_reduction",
    ("asymptotics", "high_freq_sign"): "asymptotics.high_freq",
    ("asymptotics", "low_freq_coefficient"): "asymptotics.low_freq",
    ("asymptotics", "orientation_index"): "asymptotics.index",
    ("tracking", "solve_conjugator"): "tracking.conjugator",
    ("cli", "main"): "cli",
}

# the per-layer metrics and their units, in BENCHMARK.json's order
PER_LAYER = (
    ("integrate.calls", "count"), ("integrate.rhs_evals", "count"),
    ("integrate.s", "s"),
    ("evans.monodromy.calls", "count"), ("evans.monodromy.rhs_evals", "count"),
    ("evans.monodromy.s", "s"),
    ("evans.det.calls", "count"), ("evans.det.s", "s"),
    ("evans.evans.calls", "count"), ("evans.scan.grid_evals", "count"),
    ("evans.scan.refine_evals", "count"), ("evans.scan.s", "s"),
    ("wave.integrate_profile.calls", "count"), ("wave.integrate_profile.s", "s"),
    ("wave.turning_points.calls", "count"), ("wave.turning_points.s", "s"),
    ("quadrature.calls", "count"), ("quadrature.nodes", "count"),
    ("quadrature.s", "s"),
    ("conserved.gradients.calls", "count"), ("conserved.gradients.s", "s"),
    ("conserved.profile_invariants.s", "s"),
    ("kernel.s", "s"), ("kernel.rhs_evals", "count"),
    ("asymptotics.block_reduction.s", "s"), ("asymptotics.high_freq.s", "s"),
    ("asymptotics.low_freq.s", "s"), ("asymptotics.index.s", "s"),
    ("tracking.conjugator.s", "s"), ("tracking.rhs_evals", "count"),
    ("cli.s", "s"), ("import.s", "s"),
    ("wave.s", "s"), ("conserved.s", "s"), ("evans.s", "s"),
    ("asymptotics.s", "s"), ("tracking.s", "s"),
    ("trace.wall_s", "s"), ("trace.self_share", "%"),
)


class Tracer:
    """Spans and work counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.rhs = Counter()      # RHS evaluations by the span that called integrate
        self.nodes = 0            # integrand points evaluated by the quadrature rules
        self.grid_evals = 0       # Evans evaluations on the scan grids

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller, such as the import of kpevans."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1])

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"kpevans.{layer}")
            if mod is None:
                continue
            for fname, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not fname.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(
                        SPAN_NAMES.get((layer, fname), f"{layer}.{fname}"), fn)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "kpevans" or name.startswith("kpevans.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        tracer = self

        def span(args, kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        if name == "integrate":
            def wrapper(f, *args, **kwargs):
                count = [0]

                def rhs(x, y):
                    count[0] += 1
                    return f(x, y)

                caller = spans[stack[-1]][0] if stack else ""
                try:
                    return span((rhs,) + args, kwargs)
                finally:
                    tracer.rhs[caller] += count[0]
        elif name == "quadrature":
            def wrapper(fn_q, *args, **kwargs):
                if stack and spans[stack[-1]][0] == "quadrature":
                    # adaptive_gauss_legendre's own calls of gauss_legendre:
                    # already inside a quadrature span with a counted integrand
                    return fn(fn_q, *args, **kwargs)

                def integrand(x):
                    tracer.nodes += getattr(x, "size", 1)
                    return fn_q(x)

                return span((integrand,) + args, kwargs)
        elif name == "evans.scan":
            def wrapper(*args, **kwargs):
                grid = args[1] if len(args) > 1 else kwargs["mu_grid"]
                tracer.grid_evals += len(grid)
                return span(args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return span(args, kwargs)
        return functools.wraps(fn)(wrapper)

    def summary(self) -> dict:
        """Flat counters of the spans so far: calls, self times and work."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            out[f"calls:{name}"] += 1
            out[f"self:{name}"] += (end - start) - child[i]
            if (name == "evans.evans" and parent >= 0
                    and spans[parent][0] == "evans.scan"):
                out["scan_evals"] += 1
        for caller, n in self.rhs.items():
            out[f"rhs:{caller}"] += n
        out["nodes"] += self.nodes
        out["grid_evals"] += self.grid_evals
        return dict(out)

    def reset(self) -> None:
        """Forget the spans and counts so far; call only between operations."""
        del self.spans[:]
        self.rhs.clear()
        self.nodes = 0
        self.grid_evals = 0

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def merge(*summaries) -> dict:
    out = Counter()
    for s in summaries:
        out.update(s)
    return dict(out)


def median_summary(summaries) -> dict:
    """Per-key median over passes; counts keep a value some pass had."""
    keys = set().union(*summaries)
    out = {}
    for k in keys:
        vals = [s.get(k, 0) for s in summaries]
        out[k] = statistics.median(vals) if k.startswith("self:") \
            else statistics.median_low(vals)
    return out


def layer_metrics(stats: dict, wall_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from merged summaries."""
    def total(kind, layer):
        return sum(v for k, v in stats.items()
                   if k.partition(":")[0] == kind
                   and k.partition(":")[2].split(".")[0] == layer)

    def one(kind, name):
        return stats.get(f"{kind}:{name}", 0)

    m = {
        "integrate.calls": one("calls", "integrate"),
        "integrate.rhs_evals": sum(v for k, v in stats.items() if k.startswith("rhs:")),
        "evans.monodromy.rhs_evals": one("rhs", "evans.monodromy"),
        "evans.evans.calls": one("calls", "evans.evans"),
        "evans.scan.grid_evals": stats.get("grid_evals", 0),
        "evans.scan.refine_evals": (stats.get("scan_evals", 0)
                                    - stats.get("grid_evals", 0)),
        "quadrature.nodes": stats.get("nodes", 0),
        "kernel.rhs_evals": total("rhs", "kernel"),
        "tracking.rhs_evals": total("rhs", "tracking"),
    }
    for name in ("evans.monodromy", "evans.det", "wave.integrate_profile",
                 "wave.turning_points", "quadrature", "conserved.gradients"):
        m[f"{name}.calls"] = one("calls", name)
    for name in ("integrate", "evans.monodromy", "evans.det", "evans.scan",
                 "wave.integrate_profile", "wave.turning_points", "quadrature",
                 "conserved.gradients", "conserved.profile_invariants",
                 "asymptotics.block_reduction", "asymptotics.high_freq",
                 "asymptotics.low_freq", "asymptotics.index",
                 "tracking.conjugator", "import"):
        m[f"{name}.s"] = one("self", name)
    for layer in ("wave", "conserved", "kernel", "evans", "asymptotics",
                  "tracking", "cli"):
        m[f"{layer}.s"] = total("self", layer)
    covered = sum(v for k, v in stats.items() if k.startswith("self:"))
    m["trace.wall_s"] = wall_s
    m["trace.self_share"] = 100.0 * covered / wall_s
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}
