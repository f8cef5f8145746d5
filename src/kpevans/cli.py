"""Command-line front end: profile, invariants, scan, index, verify.

A problem is a JSON config naming the nonlinearity, the parameters
(a, E, c, sigma) and an optional scan block; every tolerance is a constant
of the package.
Outputs are deterministic: CSV in full-precision scientific notation, JSON
with sorted keys, no timestamps inside data files.

Exit codes: 0 success (or index inconclusive), 2 invalid input, 3 numerical
failure, 4 degenerate Jacobian, 5 verification failures, 10 instability
detected by the orientation index.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asymptotics, conserved, kernel, wave
from .errors import ConfigError, KPEvansError
from .evans import evans as evans_value
from .evans import ODE_TOL, evans_scan, monodromy
from .model import (NonlinearitySpec, WaveParams, read_block, read_number,
                    read_numbers)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DEGENERATE = 4
EXIT_VERIFY_FAILED = 5
EXIT_UNSTABLE = 10

# the defaults of each config block; None marks a setting that is off unless given
_TOP = {"sigma": 1, "scan": {}, "bracket_hint": None, "samples_per_period": 1024}
_SCAN = {"mu_grid": None, "k": [0.1], "lambda": 1.0, "high_freq": None,
         "low_freq": None}
_HIGH_FREQ = {"k": 0.5, "mu_list": [25.0, 50.0, 100.0, 200.0]}


@dataclass
class ProblemConfig:
    """A checked config with its defaults filled in; scan is None without one."""

    params: WaveParams
    bracket_hint: tuple
    scan: dict
    samples_per_period: int


def _mu_grid(spec) -> list:
    """The scan's mu grid, which must increase strictly."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in ("list", "geometric", "linear"):
        raise ConfigError("mu_grid needs the kind 'list' with 'values', or 'geometric' "
                          f"or 'linear' with 'start', 'stop' and 'n'; got {spec!r}")
    keys = ("values",) if kind == "list" else ("start", "stop", "n")
    spec = read_block(spec, "scan.mu_grid", {}, ("kind",) + keys)
    if kind == "list":
        grid = read_numbers(spec["values"], "scan.mu_grid.values", 1)
    else:
        space = np.geomspace if kind == "geometric" else np.linspace
        grid = list(space(read_number(spec["start"], "scan.mu_grid.start", float),
                          read_number(spec["stop"], "scan.mu_grid.stop", float),
                          read_number(spec["n"], "scan.mu_grid.n", int)))
    if any(m2 <= m1 for m1, m2 in zip(grid, grid[1:])):
        raise ConfigError("scan.mu_grid must be strictly increasing")
    return grid


def _scan_tag(k: float) -> str:
    """The file name, less .csv, of the Evans scan at k: k to six significant digits."""
    return f"evans_scan_k{k:g}".replace(".", "p").replace("-", "m")


def _scan(block) -> dict:
    """The scan block; mu_grid, high_freq and low_freq stay None unless given."""
    scan = read_block(block, "scan", _SCAN, ())
    scan["k"] = read_numbers(scan["k"], "scan.k", 1)
    scan["lambda"] = read_number(scan["lambda"], "scan.lambda", float)
    if "mu_grid" in block:
        scan["mu_grid"] = _mu_grid(block["mu_grid"])
        if scan["lambda"] == 1.0 and 0.0 in scan["k"]:
            raise ConfigError("scan.k must be nonzero at lambda = 1: D(mu, 0, 1) "
                              "vanishes for every mu")
        if len({_scan_tag(k) for k in scan["k"]}) < len(scan["k"]):
            raise ConfigError(f"scan.k entries must differ to six significant digits, "
                              f"which name the scans' CSV files: got {scan['k']}")
    if "high_freq" in block:
        hf = scan["high_freq"] = read_block(block["high_freq"], "scan.high_freq",
                                            _HIGH_FREQ, ())
        k = hf["k"] = read_number(hf["k"], "scan.high_freq.k", float)
        mu = hf["mu_list"] = read_numbers(hf["mu_list"], "scan.high_freq.mu_list", 1)
        if k == 0.0:
            raise ConfigError("scan.high_freq.k must be nonzero")
        if mu[0] <= 0.0 or any(m2 <= m1 for m1, m2 in zip(mu, mu[1:])):
            raise ConfigError("scan.high_freq.mu_list must be positive and strictly "
                              f"increasing, got {mu!r}")
    if "low_freq" in block:
        scan["low_freq"] = read_block(block["low_freq"], "scan.low_freq", {}, ())
    return scan


def load_config(path) -> ProblemConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    raw = read_block(raw, "", _TOP, ("nonlinearity", "a", "E", "c"))
    params = WaveParams(*(read_number(raw[key], key, float) for key in ("a", "E", "c")),
                        NonlinearitySpec.from_json_dict(raw["nonlinearity"]),
                        read_number(raw["sigma"], "sigma", int))
    hint = raw["bracket_hint"]
    if hint is not None:
        if not (isinstance(hint, (list, tuple)) and len(hint) == 2):
            raise ConfigError("bracket_hint must be a [lo, hi] pair")
        hint = tuple(read_number(v, "bracket_hint", float) for v in hint)
        if not hint[0] < hint[1]:
            raise ConfigError(f"bracket_hint must be a [lo, hi] pair with lo < hi, "
                              f"got {list(hint)}")
    spp = read_number(raw["samples_per_period"], "samples_per_period", int)
    if spp < 64:
        raise ConfigError(f"samples_per_period must be at least 64, got {spp}")
    return ProblemConfig(params=params, bracket_hint=hint,
                         scan=_scan(raw["scan"]) if raw["scan"] != {} else None,
                         samples_per_period=spp)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """The header line, then one line per row: integers as they are, every
    other number in full precision (.17e), each line ended by a bare newline."""
    def cell(v):
        return str(v) if isinstance(v, numbers.Integral) else f"{v:.17e}"

    lines = [header] + [",".join(map(cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _build_profile(cfg: ProblemConfig) -> wave.WaveProfile:
    return wave.integrate_profile(cfg.params, cfg.samples_per_period, cfg.bracket_hint)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_profile(cfg: ProblemConfig, out: Path) -> int:
    profile = _build_profile(cfg)
    _write_csv(out / "profile.csv", "x,u,ux",
               zip(profile.grid, profile.u_samples, profile.ux_samples))
    inv = conserved.compute_invariants(
        cfg.params, turning_points=(profile.u_minus, profile.u_plus))
    _write_json(out / "profile.json", {
        "params": {"a": cfg.params.a, "E": cfg.params.E, "c": cfg.params.c,
                   "sigma": cfg.params.sigma,
                   "nonlinearity": cfg.params.nonlinearity.to_json_dict()},
        "u_minus": profile.u_minus, "u_plus": profile.u_plus,
        "period": profile.period,
        "invariants": {"T": inv.T, "M": inv.M, "P": inv.P, "H": inv.H},
        "energy_residual": profile.energy_residual(),
    })
    return EXIT_OK


def cmd_invariants(cfg: ProblemConfig, out: Path) -> int:
    tps = wave.find_turning_points(cfg.params, cfg.bracket_hint)
    inv = conserved.compute_invariants(cfg.params, turning_points=tps)
    grads = conserved.gradients(cfg.params, bracket_hint=cfg.bracket_hint)
    jac = conserved.jacobian_TM(cfg.params, grads)
    p = cfg.params
    _write_csv(out / "invariants.csv", "a,E,c,T,M,P,H,jacobian_TM",
               [(p.a, p.E, p.c, inv.T, inv.M, inv.P, inv.H, jac)])
    _write_json(out / "invariants.json", {
        "T": inv.T, "M": inv.M, "P": inv.P, "H": inv.H,
        "PT_minus_M2": inv.jensen_margin(), "jacobian_TM": jac,
        "gradients": {"dT": list(grads.dT), "dM": list(grads.dM),
                      "dP": list(grads.dP), "dH": list(grads.dH)},
        "gradient_identity_residual":
            conserved.gradient_identity_residual(cfg.params, grads),
    })
    return EXIT_OK


def cmd_index(cfg: ProblemConfig, out: Path) -> int:
    verdict = asymptotics.orientation_index(cfg.params, bracket_hint=cfg.bracket_hint)
    _write_json(out / "index.json", verdict.to_json_dict())
    print(f"orientation index: {verdict.conclusion} "
          f"(jacobian {verdict.jacobian:.6e}, sigma {verdict.sigma:+d})")
    return {"UnstableDetected": EXIT_UNSTABLE, "IndexInconclusive": EXIT_OK,
            "DegenerateJacobian": EXIT_DEGENERATE}[verdict.conclusion]


def cmd_scan(cfg: ProblemConfig, out: Path) -> int:
    if cfg.scan is None:
        raise ConfigError("scan command requires a 'scan' block in the config")
    scan = cfg.scan
    profile = _build_profile(cfg)
    consolidated = {}

    if scan["mu_grid"] is not None:
        scans_json = []
        for k in scan["k"]:
            rep = evans_scan(profile, scan["mu_grid"], k, scan["lambda"])
            _write_csv(out / f"{_scan_tag(k)}.csv", "mu,k,re_D,im_D,log_scale,sign",
                       ((s.mu, rep.k, s.re, s.im, s.log_factor, s.sign)
                        for s in rep.samples))
            scans_json.append(rep.to_json_dict())
        consolidated["evans_scans"] = scans_json

    if scan["high_freq"] is not None:
        hf = scan["high_freq"]
        report = asymptotics.high_freq_sign(profile, hf["k"], hf["mu_list"])
        _write_csv(out / "high_freq.csv", "mu,sign,log_abs_D", report.probes)
        consolidated["high_freq"] = report.to_json_dict()

    if scan["low_freq"] is not None:
        report = asymptotics.low_freq_coefficient(profile)
        _write_csv(out / "low_freq.csv", "re_s,im_s,re_D,im_D",
                   ((s.real, s.imag, d.real, d.imag)
                    for s, d in zip(report.nodes, report.d_values)))
        consolidated["low_freq"] = report.to_json_dict()

    _write_json(out / "scan.json", consolidated)
    return EXIT_OK


def _row(name: str, measured, tol) -> dict:
    """One verify check as the JSON report stores it."""
    return {"check": name, "measured": float(measured), "tolerance": float(tol),
            "pass": bool(measured <= tol)}


def cmd_verify(cfg: ProblemConfig, out: Path) -> int:
    """Full invariant suite, every row measured on the config's wave at fixed
    tolerances; prints a pass/fail table, writes verify.json."""
    rows = []

    def check(name, measured, tol):
        rows.append(_row(name, measured, tol))

    profile = _build_profile(cfg)
    params = cfg.params
    tps = (profile.u_minus, profile.u_plus)
    check("profile energy residual", profile.energy_residual(),
          10.0 * ODE_TOL * max(1.0, profile.u_plus - profile.u_minus))

    inv = conserved.compute_invariants(params, turning_points=tps)
    pinv = conserved.profile_invariants(profile)
    # int |u| dx scales the mass error: M = 0 for an odd profile
    abs_mass = profile.period * np.mean(np.abs(profile.u_samples[:-1]))
    rel = max(abs(inv.M - pinv.M) / abs_mass, abs(inv.P - pinv.P) / abs(inv.P),
              abs(inv.H - pinv.H) / max(abs(inv.H), 1.0))
    check("invariants quadrature vs profile", rel, 1e-8)
    check("Jensen margin P*T - M^2 > 0", -inv.jensen_margin(), 0.0)

    grads = conserved.gradients(params, bracket_hint=tps)
    if abs(params.E) > 1e-8:
        check("gradient identity", conserved.gradient_identity_residual(params, grads),
              1e-12)

    basis = kernel.variational_solutions(profile)
    residuals = kernel.kernel_residuals(basis)
    for name in ("ux", "uE", "ua", "phi"):
        check(f"kernel residual L[u]{name}", residuals[name], 1e-6)
    W0, WT = basis.W[0], basis.W[-1]
    check("det W = 1", np.max(np.abs(np.linalg.det(basis.W) - 1.0)), 1e-8)
    dw_pred = kernel.predicted_deltaW(basis, grads.dT[0], grads.dT[1])
    scale = np.max(np.abs(dw_pred))
    check("deltaW matches display", np.max(np.abs(WT - W0 - dw_pred)) / scale, 1e-6)
    check("inverse-column identity", kernel.verify_inverse_column(basis), 1e-7)

    mono = monodromy(profile, 1.7, 0.3)
    check("monodromy det = 1", mono.det_residual(), 1e-8)
    mono00 = monodromy(profile, 0.0, 0.0)
    WtWinv = WT @ np.linalg.inv(W0)
    check("monodromy vs W(T) W(0)^-1",
          np.max(np.abs(mono00.full() - WtWinv)) / max(1.0, np.max(np.abs(WtWinv))),
          1e-7)
    d_plus = evans_value(profile, 0.9, 0.4, 1.0).value
    d_minus = evans_value(profile, complex(-0.9), 0.4, 1.0).value
    check("evenness in mu", abs(d_plus - d_minus) / max(1.0, abs(d_plus)), 1e-8)
    check("translation-mode zero",
          abs(evans_value(profile, 0.0, 0.0, 1.0).value), 1e-7)

    lf = asymptotics.low_freq_coefficient(profile, grads=grads)
    check("low-frequency c4 match", lf.relative_error, 5e-3)

    slope, (br, _) = asymptotics.lower_left_slope(profile, 0.5)   # br: mu = 100
    check("averaging int A1_x", abs(br.avg_A1x) / br.abs_A1x, 1e-10)
    check("averaging int A1 A1_x", abs(br.avg_A1A1x) / br.abs_A1A1x, 1e-10)
    check("reduced lower-left order", br.lower_left_sup, br.lower_left_bound)
    check("lower-left eps^3 slope", abs(slope - 3.0), 0.6)

    hf = asymptotics.high_freq_sign(profile, 0.5, [50.0, 100.0, 200.0])
    check("high-frequency sign = sigma", abs(hf.verdict - params.sigma), 0.0)

    verdict = asymptotics.orientation_index(params, grads=grads)
    report = {"checks": rows, "jacobian_TM": verdict.jacobian,
              "orientation": verdict.to_json_dict()}
    _write_json(out / "verify.json", report)

    width = max(len(r["check"]) for r in rows)
    for r in rows:
        print(f"{'PASS' if r['pass'] else 'FAIL'}  {r['check']:<{width}}  "
              f"measured {r['measured']:.3e}  tol {r['tolerance']:.3e}")
    n_pass = sum(r["pass"] for r in rows)
    print(f"{n_pass}/{len(rows)} checks passed")
    return EXIT_OK if n_pass == len(rows) else EXIT_VERIFY_FAILED


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_COMMANDS = {"profile": cmd_profile, "invariants": cmd_invariants, "scan": cmd_scan,
             "index": cmd_index, "verify": cmd_verify}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kpevans",
        description="Transverse-instability toolbox for periodic gKdV waves "
                    "(periodic Evans function, orientation index).")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_txt in (
            ("profile", "construct the wave profile, write CSV/JSON"),
            ("invariants", "compute T, M, P, H, gradients, and {T,M}_{a,E}"),
            ("scan", "run Evans / high-frequency / low-frequency scans"),
            ("index", "evaluate the orientation index verdict"),
            ("verify", "run the full numerical verification suite")):
        sp = sub.add_parser(name, help=help_txt)
        sp.add_argument("--config", required=True, help="problem JSON path")
        sp.add_argument("--out", default=".", help="output directory")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KPEvansError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
