"""CLI: exit codes, file formats, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from kpevans import cli

KDV_NL = {"kind": "power", "coef": 0.5, "exponent": 2}
MKDV_NL = {"kind": "power", "coef": 1.0 / 3.0, "exponent": 3}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"nonlinearity": KDV_NL, "a": 0.0, "E": -0.05, "c": 1.0, "sigma": 1}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return cli.main(args)


def test_profile_outputs(tmp_path):
    cfg = write_config(tmp_path, samples_per_period=128)
    out = tmp_path / "out"
    assert run(["profile", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "x,u,ux"
    assert len(lines) == 128 + 1 + 1  # header + N+1 samples
    summary = json.loads((out / "profile.json").read_text())
    assert summary["period"] == pytest.approx(8.696063307048224, rel=1e-9)
    assert set(summary["invariants"]) == {"T", "M", "P", "H"}


def test_profile_byte_stability(tmp_path):
    cfg = write_config(tmp_path, samples_per_period=128)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run(["profile", "--config", cfg, "--out", str(out1)])
    run(["profile", "--config", cfg, "--out", str(out2)])
    assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()
    assert (out1 / "profile.json").read_bytes() == (out2 / "profile.json").read_bytes()


def test_invariants_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "inv"
    assert run(["invariants", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "invariants.csv").read_text().splitlines()
    assert lines[0] == "a,E,c,T,M,P,H,jacobian_TM"
    assert len(lines[1].split(",")) == 8
    data = json.loads((out / "invariants.json").read_text())
    assert data["PT_minus_M2"] > 0
    assert data["gradient_identity_residual"] <= 1e-12


def test_write_csv_format(tmp_path):
    """The one CSV writer: the header line, floats (numpy float64 and -inf
    included) as .17e, integers (numpy ones included) as integers, and bare
    newline line ends."""
    path = tmp_path / "t.csv"
    cli._write_csv(path, "mu,sign,D", [(0.1, 1, np.float64(-2.5)),
                                       (np.float64(1e-300), np.int64(-1), -np.inf)])
    assert path.read_bytes() == (
        b"mu,sign,D\n"
        b"1.00000000000000006e-01,1,-2.50000000000000000e+00\n"
        b"1.00000000000000003e-300,-1,-inf\n")


def test_missing_key_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nonlinearity": KDV_NL, "a": 0.0, "E": -0.05}))
    assert run(["profile", "--config", str(path), "--out", str(tmp_path)]) == 2


GRID = {"kind": "geometric", "start": 0.01, "stop": 1.0, "n": 6}


def test_unknown_key_exit_2(tmp_path, capsys):
    # every block is checked when the config is read, whatever the command
    for overrides, key in (
            ({"bogus": 1}, "bogus"),
            ({"tolerances": {"ode_tol": 1e-12}}, "['tolerances']"),
            ({"scan": {"high_freq": {"mu_lsit": [25.0]}}}, "scan.high_freq.mu_lsit"),
            ({"scan": {"low_freq": {"k_lader": [0.04, 0.08, 0.12, 0.16]}}},
             "scan.low_freq.k_lader"),
            ({"scan": {"mu_grid": dict(GRID, values=[1.0])}}, "scan.mu_grid.values"),
            ({"nonlinearity": dict(KDV_NL, junk=1)}, "nonlinearity.junk")):
        cfg = write_config(tmp_path, **overrides)
        assert run(["profile", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("overrides, key", [
    ({"samples_per_period": 32}, "samples_per_period"),
    ({"samples_per_period": "abc"}, "samples_per_period"),
    ({"tolerances": {"quad_tol": "x"}}, "['tolerances']"),
    ({"scan": {"mu_grid": {"kind": "list", "values": [1.0, 0.5]}}}, "scan.mu_grid"),
    ({"scan": {"mu_grid": {"kind": "list"}}}, "mu_grid"),
    ({"scan": {"low_freq": {"k_ladder": [0.05, 0.1]}}}, "['scan.low_freq.k_ladder']"),
    ({"scan": {"mu_grid": GRID, "k": 0.1}}, "scan.k"),
    ({"scan": {"mu_grid": GRID, "lambda": "x"}}, "scan.lambda"),
    ({"scan": {"high_freq": {"mu_list": 5}}}, "scan.high_freq.mu_list"),
    ({"scan": {"high_freq": {"k": "x"}}}, "scan.high_freq.k"),
    ({"scan": {"high_freq": [1]}}, "scan.high_freq"),
    ({"scan": {"low_freq": [1]}}, "scan.low_freq"),
    ({"scan": {"high_freq": {"mu_list": [50.0, 25.0]}}}, "scan.high_freq.mu_list"),
    ({"samples_per_period": 100.9}, "samples_per_period must be an integer"),
    ({"scan": {"mu_grid": dict(GRID, n=6.5)}}, "scan.mu_grid.n must be an integer"),
    ({"a": "0.0"}, "a must be a number"),
    ({"a": True}, "a must be a number"),
    ({"sigma": True}, "sigma must be a number"),
    ({"sigma": 2}, "sigma must be +1 or -1"),
    ({"nonlinearity": dict(KDV_NL, coef="x")}, "nonlinearity.coef"),
    ({"nonlinearity": {"kind": "power", "coef": 0.5}}, "nonlinearity.exponent"),
    ({"nonlinearity": {"kind": "poly", "coeffs": 5}}, "nonlinearity.coeffs"),
    ({"E": float("nan")}, "E must be a finite number"),
    ({"tolerances": {"ode_tol": float("inf")}}, "['tolerances']"),
    ({"scan": {"mu_grid": GRID, "k": [0.1, 0.0]}}, "scan.k must be nonzero"),
    ({"bracket_hint": [3.0, 0.5]}, "bracket_hint"),
    ({"scan": {"mu_grid": GRID, "k": [0.1, 0.1000001]}}, "scan.k entries must differ to six"),
], ids=["spp-32", "spp-abc", "quad_tol-x", "mu_grid-decreasing", "mu_grid-no-values",
        "k_ladder-2", "k-scalar", "lambda-x", "mu_list-scalar", "high_freq_k-x",
        "high_freq-list", "low_freq-list", "mu_list-decreasing", "spp-fraction",
        "mu_grid_n-fraction", "a-string", "a-bool", "sigma-bool", "sigma-2", "coef-x",
        "power-no-exponent", "coeffs-scalar", "E-nan", "ode_tol-inf", "k-zero",
        "bracket_hint-reversed", "k-tag-collision"])
def test_malformed_value_exit_2(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path, **overrides)
    assert run(["scan", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_separatrix_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, E=0.0)
    assert run(["profile", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: DegenerateTurningPoint: ")


def test_verify_wronskian_degenerate_exit_3(tmp_path, capsys):
    # 1e-9 below the separatrix the kernel basis is refused
    cfg = write_config(tmp_path, E=-1e-9)
    out = tmp_path / "v"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: WronskianDegenerate: ")
    assert not (out / "verify.json").exists()


def test_index_exit_codes(tmp_path):
    out = tmp_path / "idx"
    cfg_plus = write_config(tmp_path, "plus.json", sigma=1)
    assert run(["index", "--config", cfg_plus, "--out", str(out)]) == 10
    verdict = json.loads((out / "index.json").read_text())
    assert verdict["conclusion"] == "UnstableDetected"

    cfg_minus = write_config(tmp_path, "minus.json", sigma=-1)
    assert run(["index", "--config", cfg_minus, "--out", str(out)]) == 0
    # determinism of the exit code
    assert run(["index", "--config", cfg_minus, "--out", str(out)]) == 0


def test_index_mkdv_cnoidal(tmp_path):
    cfg = write_config(tmp_path, "mkdv.json", nonlinearity=MKDV_NL, E=0.3,
                       sigma=-1)
    assert run(["index", "--config", cfg, "--out", str(tmp_path / "m")]) == 10


def test_scan_outputs(tmp_path):
    scan = {
        "mu_grid": {"kind": "geometric", "start": 0.005, "stop": 2.0, "n": 12},
        "k": [0.1],
        "lambda": 1.0,
    }
    cfg = write_config(tmp_path, scan=scan, samples_per_period=512)
    out = tmp_path / "scan"
    assert run(["scan", "--config", cfg, "--out", str(out)]) == 0
    csv = (out / "evans_scan_k0p1.csv").read_text().splitlines()
    assert csv[0] == "mu,k,re_D,im_D,log_scale,sign"
    assert len(csv) == 12 + 1
    data = json.loads((out / "scan.json").read_text())
    roots = data["evans_scans"][0]["roots"]
    assert len(roots) == 1
    assert roots[0]["width"] <= 1e-6
    assert roots[0]["mu_star"] > 0


def test_scan_high_freq_k_zero_exit_2(tmp_path):
    cfg = write_config(tmp_path, scan={"high_freq": {"k": 0.0}})
    assert run(["scan", "--config", cfg, "--out", str(tmp_path / "s")]) == 2


def test_scan_requires_scan_block(tmp_path):
    cfg = write_config(tmp_path)
    assert run(["scan", "--config", cfg, "--out", str(tmp_path / "s")]) == 2


def test_bad_mu_grid_kind(tmp_path):
    cfg = write_config(tmp_path, scan={"mu_grid": {"kind": "cubic"}})
    assert run(["scan", "--config", cfg, "--out", str(tmp_path / "s")]) == 2


def test_verify_passes_on_default_kdv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "v"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert all(row["pass"] for row in report["checks"])
    printed = capsys.readouterr().out
    assert "checks passed" in printed


def cnoidal_verify(tmp_path):
    """verify on the mKdV cnoidal wave, whose mass vanishes by symmetry."""
    cfg = write_config(tmp_path, nonlinearity=MKDV_NL, E=0.3, sigma=-1)
    out = tmp_path / "vc"
    code = run(["verify", "--config", cfg, "--out", str(out)])
    report = json.loads((out / "verify.json").read_text())
    return code, {row["check"]: row["pass"] for row in report["checks"]}


# verify's rows in report order; E != 0 on the cnoidal wave, so it has the
# gradient identity row
VERIFY_ROWS = [
    "profile energy residual", "invariants quadrature vs profile",
    "Jensen margin P*T - M^2 > 0", "gradient identity",
    "kernel residual L[u]ux", "kernel residual L[u]uE", "kernel residual L[u]ua",
    "kernel residual L[u]phi", "det W = 1", "deltaW matches display",
    "inverse-column identity", "monodromy det = 1", "monodromy vs W(T) W(0)^-1",
    "evenness in mu", "translation-mode zero", "low-frequency c4 match",
    "averaging int A1_x", "averaging int A1 A1_x",
    "reduced lower-left order", "lower-left eps^3 slope",
    "high-frequency sign = sigma",
]


def test_verify_passes_on_mkdv_cnoidal(tmp_path):
    code, rows = cnoidal_verify(tmp_path)
    assert code == 0 and list(rows) == VERIFY_ROWS and all(rows.values())


def test_verify_cnoidal_catches_mass_defect(tmp_path, monkeypatch):
    # a profile mass off by just over the 1e-8 tolerance, in units of int |u|
    from kpevans import conserved
    profile_invariants = conserved.profile_invariants

    def defective(profile):
        inv = profile_invariants(profile)
        abs_mass = profile.period * np.mean(np.abs(profile.u_samples[:-1]))
        return dataclasses.replace(inv, M=inv.M + 1.1e-8 * abs_mass)

    monkeypatch.setattr(conserved, "profile_invariants", defective)
    code, rows = cnoidal_verify(tmp_path)
    assert code == 5
    assert [name for name, ok in rows.items() if not ok] == \
        ["invariants quadrature vs profile"]


def test_verify_cnoidal_catches_non_periodic_a1(tmp_path, monkeypatch):
    # A1 + 1e-8 x is not periodic: int A1_x gains 1e-8 T, about 1e-9 of int |A1_x|
    from kpevans import asymptotics
    coefficient_functions = asymptotics._coefficient_functions

    def drifting(profile):
        fields = coefficient_functions(profile)

        def out(x):
            A1, A2, A1x = fields(x)
            return A1 + 1e-8 * x, A2, A1x + 1e-8
        return out

    monkeypatch.setattr(asymptotics, "_coefficient_functions", drifting)
    code, rows = cnoidal_verify(tmp_path)
    assert code == 5 and not rows["averaging int A1_x"]


@pytest.mark.parametrize("E", [1.013, 1.01302])
def test_verify_passes_near_E_star(tmp_path, E):
    """mKdV at a = 0, sigma = +1, just below E* = 1.0130326, where
    {T, M}_{a,E}, and with it the predicted c4, vanishes: at E = 1.013 it is
    1% of its size at E = 1.01, at 1.01302 0.4%.  The Cauchy mean's c4 meets
    it to 7.5e-5 and 1.6e-5 relative, within the row's 5e-3 (a k^4, k^6,
    k^8 fit on a k ladder read 3.4e-3 and 8.9e-3)."""
    cfg = write_config(tmp_path, nonlinearity=MKDV_NL, E=E)
    out = tmp_path / "ve"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads((out / "verify.json").read_text())["checks"]
    assert [row["check"] for row in rows] == VERIFY_ROWS and all(row["pass"] for row in rows)


def test_verify_catches_c4_defect(tmp_path, monkeypatch):
    # every Evans value the low-frequency coefficient reads, scaled by
    # 1 + 6e-3: c4 moves by just over the row's 5e-3.  The high-frequency
    # sign reads the same evans, but a scale keeps every sign; cli's own rows
    # import evans themselves
    from kpevans import asymptotics
    evans = asymptotics.evans

    def scaled(*args):
        ev = evans(*args)
        return dataclasses.replace(ev, mantissa=ev.mantissa * (1.0 + 6e-3))

    monkeypatch.setattr(asymptotics, "evans", scaled)
    out = tmp_path / "v"
    assert run(["verify", "--config", write_config(tmp_path), "--out", str(out)]) == 5
    rows = json.loads((out / "verify.json").read_text())["checks"]
    assert [row["check"] for row in rows if not row["pass"]] == ["low-frequency c4 match"]


def test_scan_rerun_byte_identical(tmp_path):
    scan = {"mu_grid": {"kind": "geometric", "start": 0.01, "stop": 1.0, "n": 6},
            "k": [0.1, 0.2], "high_freq": {"k": 0.5, "mu_list": [25.0, 50.0, 100.0]},
            "low_freq": {}}
    cfg = write_config(tmp_path, scan=scan, samples_per_period=256)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(["scan", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["scan", "--config", cfg, "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert names == ["evans_scan_k0p1.csv", "evans_scan_k0p2.csv", "high_freq.csv",
                     "low_freq.csv", "scan.json"]
    for name in names:
        data = (out1 / name).read_bytes()
        assert data == (out2 / name).read_bytes(), name
        # the monodromy's work and error figures stay out of the data files
        assert b"err_est" not in data and b"steps" not in data
