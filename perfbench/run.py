#!/usr/bin/env python3
"""kpevans benchmark: three closed-loop workloads, one operation at a time.

    python3 perfbench/run.py --workload {index-sweep,evans-scan,verify}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a kpevans checkout; kpevans is imported from
./src. A run sets up, then makes a fixed number of whole passes over the
workload's fixed list of operations (S seconds at the reference pass time,
REF_PASS_S), then checks every output against independent oracles
(oracles.py). It prints a readable report and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the process (and each verify child) runs under the outside-in
tracer (tracer.py) and the metrics are the per-layer ones, for one set-up
plus the median pass. See README.md.
"""

import os

# BLAS held to one thread, here and in every child, before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import waves

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
# A run makes --seconds / REF_PASS_S[workload] passes (at least one). The
# reference pass times are constants, the median pass_s on the commit that
# defined the benchmark (README.md), so a faster or slower program is timed
# over the same number of passes and each operation's best latency is
# taken over the same number of samples.
REF_PASS_S = {"index-sweep": 0.85, "evans-scan": 40.0, "verify": 30.0}
# The scan the package documents and tests (README, test_acceptance)
SCAN_GRID = np.geomspace(1e-3, 60.0, 40)
SCAN_K = 0.1
HILL_MODES = (48, 96)
TM_RTOL = 1e-10          # T and M against the invariant oracle
JAC_RTOL = 1e-3          # verify's jacobian_TM against the oracle
DET_RESIDUAL_MAX = 1e-8
# The checks the cnoidal verify config fails through the two cmd_verify
# faults recorded in CHANGES.md; any other failing check is an error.
CNOIDAL_KNOWN_FAILS = frozenset({"invariants quadrature vs profile",
                                 "averaging int A1_x",
                                 "averaging int A1 A1_x"})


@dataclass
class Pass:
    wall: float
    latencies: list
    results: list
    stats: dict = None


@dataclass
class Workload:
    """What main() needs to set up, run, check and describe one workload."""
    alias: str          # the name pass_s goes by for this workload
    import_module: str  # what a user's process imports
    build: object       # () -> shared inputs
    ops: object         # inputs -> [op(pass_no) -> result]
    check: object       # (Outcome, inputs, passes) -> None
    pass_stats: object = None   # traced verify: Pass -> merged child summaries
    describe: object = None     # (passes, pass_s) -> extra report lines


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    lines: list = field(default_factory=list)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def fresh_import_s(module: str) -> float:
    """Seconds a fresh interpreter spends importing `module`."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def run_passes(ops, n_passes: int, tracer=None, pass_stats=None):
    """`n_passes` whole passes over `ops`, and the seconds they took."""
    passes = []
    start = perf_counter()
    for _ in range(n_passes):
        if tracer is not None:
            tracer.reset()
        t0 = perf_counter()
        lat, res = [], []
        for op in ops:
            t = perf_counter()
            res.append(op(len(passes)))
            lat.append(perf_counter() - t)
        p = Pass(perf_counter() - t0, lat, res)
        if tracer is not None:
            p.stats = tracer.summary()
        elif pass_stats is not None:
            p.stats = pass_stats(p)
        passes.append(p)
    return passes, perf_counter() - start


def in_process(fn):
    """An operation that returns the program's exception instead of raising."""
    from kpevans.errors import KPEvansError

    def op(_pass):
        try:
            return fn()
        except KPEvansError as exc:
            return exc
    return op


def params_of(wave):
    import kpevans
    return kpevans.WaveParams(wave.a, wave.E, wave.c,
                              kpevans.NonlinearitySpec.polynomial(wave.f),
                              wave.sigma)


def count_failures(out: Outcome, passes) -> None:
    from kpevans.errors import KPEvansError
    errors = Counter()
    for p in passes:
        for r in p.results:
            out.attempted += 1
            if isinstance(r, KPEvansError):
                out.failed += 1
                errors[f"{type(r).__name__}: {r}"] += 1
    out.lines += [f"FAILED {n}x: {msg}" for msg, n in errors.items()]


def failures_of(passes, i: int) -> list:
    """The exceptions operation i raised, one entry per pass that raised."""
    from kpevans.errors import KPEvansError
    return [p.results[i] for p in passes if isinstance(p.results[i], KPEvansError)]


def shallow_well_fault(exc) -> bool:
    """The fault the SHALLOW stratum shows (CHANGES.md): a fixed gradient
    step leaves a shallow well, caught either while tracking the turning
    points or while deflating E - V."""
    from kpevans.errors import StencilLeftRegion
    return isinstance(exc, StencilLeftRegion) or (
        "deflated energy polynomial not positive on the well" in str(exc))


# ----------------------------------------------------------------------
# index-sweep: orientation_index over the seeded wave set
# ----------------------------------------------------------------------

def index_sweep(seed: int):
    wave_set = waves.index_sweep_waves(seed) + waves.shallow_waves()

    def build():
        return [params_of(w) for w in wave_set]

    def ops(params):
        asym = sys.modules["kpevans.asymptotics"]
        return [in_process(lambda p=p, hint=w.hint:
                           asym.orientation_index(p, bracket_hint=hint))
                for p, w in zip(params, wave_set)]

    def check(out: Outcome, params, passes):
        import oracles
        conserved = sys.modules["kpevans.conserved"]
        count_failures(out, passes)
        unresolved = shallow_failed = 0
        for i, (p, w) in enumerate(zip(params, wave_set)):
            fails = failures_of(passes, i)
            if fails and (not w.shallow or len(fails) != len(passes)
                          or not all(map(shallow_well_fault, fails))):
                out.problems.append(f"{w.name}: orientation_index raised "
                                    f"{fails[0]!r} in {len(fails)} passes")
            shallow_failed += bool(fails) and w.shallow
            jac, err, T, M, (u_lo, u_hi) = oracles.jacobian_TM(w)
            inv = conserved.compute_invariants(p, bracket_hint=w.hint)
            m_scale = T * max(abs(u_lo), abs(u_hi), 1.0)
            if abs(inv.T - T) > TM_RTOL * T or abs(inv.M - M) > TM_RTOL * m_scale:
                out.problems.append(f"{w.name}: T, M = {inv.T!r}, {inv.M!r}; "
                                    f"oracle {T!r}, {M!r}")
            if not inv.P * inv.T - inv.M ** 2 > 0.0:
                out.problems.append(f"{w.name}: P T - M^2 = {inv.jensen_margin():.3e}")
            if w.name.startswith("kdv") and not jac > err:
                out.problems.append(f"{w.name}: KdV wave with {{T, M}}_a,E = {jac:.3e}")
            if fails:
                continue
            if abs(jac) <= 10.0 * err:
                unresolved += 1     # the oracle cannot resolve this sign
                continue
            want = "UnstableDetected" if w.sigma * jac > 0 else "IndexInconclusive"
            for run_pass in passes:
                v = run_pass.results[i]
                if getattr(v, "conclusion", None) != want:
                    out.problems.append(f"{w.name}: verdict {v!r}, oracle "
                                        f"sigma {{T, M}} = {w.sigma * jac:.3e}")
                    break
        out.lines += [f"oracle: {len(wave_set)} waves, {unresolved} with an "
                      "unresolved {T, M} sign",
                      f"shallow stratum: {shallow_failed} of "
                      f"{sum(w.shallow for w in wave_set)} waves fail through "
                      "the gradient-step fault"]

    def describe(passes, pass_s):
        ms = sorted(1e3 * x for p in passes for x in p.latencies)
        lines = [f"index_waves_per_s {len(wave_set) / pass_s:.4g} 1/s "
                 f"({len(wave_set)} waves / pass_s)",
                 f"index_ms_median {statistics.median(ms):.4g} ms "
                 f"({len(ms)} waves)"]
        if len(ms) >= 100:
            lines.append(f"index_ms_p90 {statistics.quantiles(ms, n=10)[-1]:.4g} ms "
                         f"({len(ms) - int(0.9 * len(ms))} waves beyond it)")
        return lines

    return Workload("index_s", "kpevans", build, ops, check, describe=describe)


# ----------------------------------------------------------------------
# evans-scan: refined Evans root scans on the three canonical waves
# ----------------------------------------------------------------------

def evans_scan(seed: int):
    order = np.random.default_rng(seed).permutation(len(waves.CANONICAL))
    canon = [waves.CANONICAL[i] for i in order]

    def build():
        wave_mod = sys.modules["kpevans.wave"]
        return [wave_mod.integrate_profile(params_of(w), bracket_hint=w.hint)
                for w in canon]

    def ops(profiles):
        ev = sys.modules["kpevans.evans"]
        return [in_process(lambda prof=prof: ev.evans_scan(prof, SCAN_GRID, SCAN_K))
                for prof in profiles]

    def check(out: Outcome, profiles, passes):
        import inspect

        import oracles
        from numpy.polynomial import polynomial as P
        ev = sys.modules["kpevans.evans"]
        count_failures(out, passes)
        refine_tol = inspect.signature(ev.evans_scan).parameters["refine_tol"].default
        self_err = oracles.hill_self_check()
        if self_err > 1e-10:
            out.problems.append(f"Hill oracle off its closed form by {self_err:.2e}")
        for i, (w, prof) in enumerate(zip(canon, profiles)):
            fails = failures_of(passes, i)
            if fails:
                out.problems.append(f"{w.name}: evans_scan raised {fails[0]!r} "
                                    f"in {len(fails)} passes")
                continue
            rep = passes[0].results[i]
            if any(p.results[i].roots != rep.roots for p in passes):
                out.problems.append(f"{w.name}: roots differ between passes")
            if not rep.unstable:
                out.problems.append(f"{w.name}: scan not unstable")
            g = P.polyval(prof.u_samples[:-1], P.polyder(w.f)) - w.c
            hill = [oracles.positive_real(
                oracles.hill_eigenvalues(g, prof.period, w.sigma, SCAN_K, m),
                SCAN_GRID[0], SCAN_GRID[-1]) for m in HILL_MODES]
            if len(hill[0]) != len(hill[1]) or np.any(
                    np.abs(hill[0] - hill[1]) > 1e-9 * hill[1]):
                out.problems.append(f"{w.name}: Hill eigenvalues move with the "
                                    f"modes: {hill}")
            if len(hill[1]) != len(rep.roots):
                out.problems.append(f"{w.name}: {len(rep.roots)} roots, "
                                    f"{len(hill[1])} positive real Hill eigenvalues")
                continue
            for r, mu in zip(rep.roots, hill[1]):
                resid = ev.monodromy(prof, r.mu_star, SCAN_K).det_residual()
                ok = (r.width <= refine_tol and resid <= DET_RESIDUAL_MAX
                      and r.mu_lo - r.width <= mu <= r.mu_hi + r.width)
                out.lines.append(
                    f"{w.name}: root [{r.mu_lo:.10f}, {r.mu_hi:.10f}], Hill "
                    f"{mu:.10f}, det residual {resid:.1e}")
                if not ok:
                    out.problems.append(f"{w.name}: root {r} against Hill {mu!r}, "
                                        f"det residual {resid:.2e}")

    return Workload("scan_s", "kpevans", build, ops, check)


# ----------------------------------------------------------------------
# verify: `kpevans verify` on the canonical configs, one fresh process each
# ----------------------------------------------------------------------

def verify(seed: int, trace: bool):
    order = np.random.default_rng(seed).permutation(len(waves.CANONICAL))
    canon = [waves.CANONICAL[i] for i in order]
    cfg_dir, run_dir = OUT / "configs", OUT / "verify"

    def build():
        cfg_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for w in canon:
            cfg = {"nonlinearity": {"kind": "poly", "coeffs": list(w.f)},
                   "a": w.a, "E": w.E, "c": w.c, "sigma": w.sigma}
            if w.hint is not None:
                cfg["bracket_hint"] = list(w.hint)
            path = cfg_dir / f"{w.name}.json"
            path.write_text(json.dumps(cfg))
            paths.append(path)
        return paths

    def command(w, cfg, pass_no):
        out_dir = run_dir / f"pass{pass_no}-{w.name}"
        out_dir.mkdir(parents=True, exist_ok=True)
        args = ["verify", "--config", str(cfg), "--out", str(out_dir)]
        if trace:
            return out_dir, [sys.executable, str(HERE / "launch.py"),
                             str(out_dir / "stats.json"),
                             str(out_dir / "spans.json"), "--"] + args
        return out_dir, [sys.executable, "-m", "kpevans.cli"] + args

    def ops(paths):
        def op_for(w, cfg):
            def op(pass_no):
                out_dir, cmd = command(w, cfg, pass_no)
                with open(out_dir / "stdout.txt", "w") as log:
                    proc = subprocess.Popen(cmd, env=child_env(), stdout=log,
                                            stderr=subprocess.STDOUT)
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                return {"wave": w, "out": out_dir, "code": proc.returncode,
                        "rss_mb": usage.ru_maxrss / 1024.0}
            return op
        return [op_for(w, cfg) for w, cfg in zip(canon, paths)]

    def check(out: Outcome, paths, passes):
        import oracles
        jac_oracle = {w.name: oracles.jacobian_TM(w)[:2] for w in canon}
        for p in passes:
            for r in p.results:
                out.attempted += 1
                name, code = r["wave"].name, r["code"]
                try:
                    rep = json.loads((r["out"] / "verify.json").read_text())
                except (OSError, ValueError) as exc:
                    out.failed += 1
                    out.problems.append(f"{name}: exit {code}, no verify.json ({exc})")
                    continue
                fails = {row["check"] for row in rep["checks"] if not row["pass"]}
                if name == "cnoidal" and code == 5 and fails == CNOIDAL_KNOWN_FAILS:
                    out.failed += 1          # the known cmd_verify faults
                elif code != 0 or fails:
                    out.failed += 1
                    out.problems.append(f"{name}: exit {code}, failing {sorted(fails)}")
                jac, err = jac_oracle[name]
                got = rep["jacobian_TM"]
                if np.sign(got) != np.sign(jac) or abs(got - jac) > JAC_RTOL * abs(jac):
                    out.problems.append(f"{name}: jacobian_TM {got!r}, oracle {jac!r}")
        for w in canon:
            out.lines.append(f"{w.name}: oracle jacobian_TM "
                             f"{jac_oracle[w.name][0]:.10g}")

    def pass_stats(p):
        import tracer
        return tracer.merge(*(json.loads((r["out"] / "stats.json").read_text())
                              for r in p.results))

    return Workload("verify_s", "kpevans.cli", build, ops, check,
                    pass_stats=pass_stats if trace else None)


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("index-sweep", "evans-scan", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kpevans" / "__init__.py").is_file():
        print(f"error: no kpevans sources under {SRC}; run from a kpevans "
              "checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    t_import = perf_counter()
    import kpevans
    import_s = perf_counter() - t_import
    if Path(kpevans.__file__).resolve().parent != SRC / "kpevans":
        print(f"error: imported kpevans from {kpevans.__file__}", file=sys.stderr)
        return 2
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()

    if args.workload == "index-sweep":
        wl = index_sweep(args.seed)
    elif args.workload == "evans-scan":
        wl = evans_scan(args.seed)
    else:
        wl = verify(args.seed, bool(args.trace))

    tr = None
    if args.trace and args.workload != "verify":
        import tracer
        tr = tracer.Tracer()
        tr.record("import", t_import, t_import + import_s)
        tr.install()

    builds = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t = perf_counter()
        inputs = wl.build()
        builds.append(perf_counter() - t)
    setup_stats = tr.summary() if tr is not None else {}

    n_passes = max(1, round(args.seconds / REF_PASS_S[args.workload]))
    passes, timed_s = run_passes(wl.ops(inputs), n_passes, tr, wl.pass_stats)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.workload == "verify":
        peak_rss_mb = max(r["rss_mb"] for p in passes for r in p.results)
    if tr is not None:
        tr.dump(OUT / f"spans-{args.workload}.json")

    (OUT / "latencies.json").write_text(json.dumps([p.latencies for p in passes]))
    out = Outcome()
    wl.check(out, inputs, passes)
    median_wall = statistics.median(p.wall for p in passes)
    # Each operation's best latency over the run's passes, summed over one
    # pass: the machine's slow phases last seconds, and a minimum over
    # repetitions spread through the run is the statistic they move least.
    pass_s = sum(min(lat) for lat in zip(*(p.latencies for p in passes)))
    ops_done = sum(len(p.results) for p in passes)
    out.lines.append(f"{wl.alias} {pass_s:.4g} s (pass_s: best of {len(passes)} "
                     f"per operation); median pass wall {median_wall:.4g} s")
    if wl.describe is not None:
        out.lines += wl.describe(passes, pass_s)
    if args.trace:
        import tracer
        stats = tracer.merge(setup_stats, tracer.median_summary(
            [p.stats for p in passes]))
        wall = median_wall + (import_s + builds[0] if tr is not None else 0.0)
        metrics = tracer.layer_metrics(stats, wall)
        out.lines.append(f"traced wall {wall:.4g} s (one set-up and the median "
                         f"pass), layer self times cover "
                         f"{metrics['trace.self_share']['value']:.1f}%")
    else:
        setup_s = statistics.median(fresh_import_s(wl.import_module)
                                    for _ in range(SETUP_REPEATS)) \
            + statistics.median(builds)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  operations {ops_done}  timed {timed_s:.3f} s")
    for line in out.lines:
        print("  " + line)
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for problem in out.problems:
        print(f"  PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not out.problems, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
