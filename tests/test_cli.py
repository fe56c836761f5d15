import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csv_oracle
from annular_dirichlet import cli
from annular_dirichlet import discrete as dc
from annular_dirichlet import lagrangians as lg
from annular_dirichlet import radial as rd
from annular_dirichlet.weights import Weight, weight_from_config


BASE = {
    "weight": {"kind": "constant", "value": 1.0},
    "pair": {"r": 1.0, "R": 2.0, "r_star": 1.0, "R_star": 1.25},
    "numerics": {"ode_grid": 1024, "polar_grid": [48, 48],
                 "radial_grid": 256, "max_iter": 100},
}


def write_config(tmp_path, cfg):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


# tabulated samples on [1, 2]: they cover the ratio 1.5's [1, 1.5] and the
# pair A(1, 2), not the ratio 3's [1, 3]
SAMPLES_TO_2 = {
    "weight": {"kind": "tabulated",
               "samples": [[float(x), 1.0 + x]
                           for x in np.linspace(1.0, 2.0, 11)]},
    "rho_values": [1.5, 3.0],
    "numerics": {"ode_grid": 1024, "polar_grid": [48, 48],
                 "radial_grid": 256, "max_iter": 100},
}


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.linalg is the one scipy dependency; these would add about 0.3 s
    # to every cold start on a 2-core x86-64 host
    code = ("import sys, annular_dirichlet.cli; print(' '.join(m for m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.special', "
            "'scipy.sparse') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
    assert out.split() == []


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = cli.parse_config(json.dumps(BASE))
        assert cfg["numerics"]["seed"] == 0
        assert cfg["mode"]["fixed_outer_boundary"] is False
        assert cfg["pair"].R_star == 1.25

    def test_unknown_top_key_named_in_error(self):
        bad = dict(BASE, weigth={"kind": "constant"})
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(json.dumps(bad))
        assert "weigth" in str(err.value)

    def test_bad_radii_ordering(self):
        bad = dict(BASE, pair={"r": 2.0, "R": 1.0,
                               "r_star": 1.0, "R_star": 1.25})
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(json.dumps(bad))
        assert "r" in str(err.value)

    @pytest.mark.parametrize("section, key, value", [
        ("numerics", "modulus_tol", 1e-10), ("output", "formats", ["csv"])])
    def test_removed_keys_are_unknown(self, section, key, value):
        # nothing read them: the modulus tolerance is a constant of the
        # solver and every command writes its fixed set of files
        bad = dict(BASE, **{section: {**BASE.get(section, {}), key: value}})
        with pytest.raises(cli.ConfigError, match=f"unknown {section} keys"):
            cli.parse_config(json.dumps(bad))

    @pytest.mark.parametrize("key, value", [
        ("ode_grid", "abc"), ("ode_grid", 0), ("ode_grid", 1024.5),
        ("ode_grid", True), ("radial_grid", -4), ("radial_grid", None),
        ("max_iter", 0), ("max_iter", 10.0),
        ("polar_grid", [2, 2]), ("polar_grid", [48]), ("polar_grid", 48),
        ("polar_grid", [48, 48, 48]), ("polar_grid", [48.0, 48]),
        ("perturbation", -1), ("perturbation", float("nan")),
        ("perturbation", float("inf")), ("perturbation", "0.1"),
        ("seed", 1.0), ("seed", True), ("seed", "0"), ("seed", -1),
        # too small for their solvers
        ("ode_grid", 8), ("radial_grid", 1), ("radial_grid", 2)])
    def test_bad_numerics_named(self, key, value):
        bad = dict(BASE)
        bad["numerics"] = dict(BASE["numerics"], **{key: value})
        with pytest.raises(cli.ConfigError, match=f"numerics.{key}"):
            cli.parse_config(bad)

    @pytest.mark.parametrize("numerics", [
        {"polar_grid": [2, 2]}, {"ode_grid": "abc"}, {"max_iter": 0},
        {"perturbation": -1}, {"radial_grid": 1}, {"radial_grid": 2},
        {"ode_grid": 8}])
    def test_bad_numerics_exit_2(self, tmp_path, capsys, numerics):
        cfg = dict(BASE, numerics=dict(BASE["numerics"], **numerics))
        p = write_config(tmp_path, cfg)
        rc = cli.main(["direct", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert f"numerics.{next(iter(numerics))}" in capsys.readouterr().err

    @pytest.mark.parametrize("pair, message", [
        ({"r": 1.0, "R": 2.0, "r_star": 1.0},
         r"pair is missing radii: \['R_star'\]"),
        ({"r": 1.0, "R": 1.0, "r_star": 1.0, "R_star": 1.25},
         r"domain radii ordering"),
        ({"r": 1.0, "R": 2.0, "r_star": 1.5, "R_star": 1.25},
         r"target radii ordering \(need 0 < r_star < R_star\)"),
        ({"r": 1.0, "R": 2.0, "r_star": 0.0, "R_star": 1.25},
         r"target radii ordering")])
    def test_bad_pair_named(self, pair, message):
        with pytest.raises(cli.ConfigError, match=message):
            cli.parse_config(dict(BASE, pair=pair))

    @pytest.mark.parametrize("query", [{}, {"rho_values": []}])
    def test_neither_pair_nor_ratio(self, query):
        cfg = {"weight": BASE["weight"], **query}
        with pytest.raises(cli.ConfigError,
                           match="needs a pair or a rho/rho_values query"):
            cli.parse_config(cfg)

    def test_every_ratio_weight_must_be_positive(self, tmp_path, capsys):
        # positive on the pair's [1, 2], not on the ratio's [1, 3]
        cfg = {"weight": {"kind": "tabulated",
                          "samples": [[1, 1], [2, 1], [2.5, -1], [3, 1]]},
               "pair": BASE["pair"], "rho_values": [3]}
        p = write_config(tmp_path, cfg)
        rc = cli.main(["threshold", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: rho 3: tabulated weight must be positive on [1, 3]: "
            "non-positive value -1 at s = 2.5\n")

    def test_weight_overflowing_on_a_ratio_exits_2(self, tmp_path, capsys):
        cfg = {"weight": {"kind": "power", "exponent": 500}, "rho": 5}
        p = write_config(tmp_path, cfg)
        rc = cli.main(["threshold", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: rho 5: power weight must be finite on [1, 5]: "
            "non-finite value inf at s = 5\n")

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    @pytest.mark.parametrize("query, message", [
        pytest.param({"rho_values": [0.5, 2.0]}, "rho_values must be a list "
                     "of finite numbers > 1, got [0.5, 2.0]", id="rho_values"),
        pytest.param({"rho": 1}, "rho must be a finite number > 1, got 1",
                     id="rho")])
    def test_ratio_at_most_1_named(self, tmp_path, capsys, command, query,
                                   message):
        p = write_config(tmp_path, dict(BASE, **query))
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_rho_with_rho_values_named(self, tmp_path, capsys, command):
        # one of the two would be dropped
        p = write_config(tmp_path, dict(BASE, rho=1.5, rho_values=[2.0]))
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: give rho or rho_values, not both\n"
        assert list(tmp_path.iterdir()) == [p]

    def test_missing_weight(self):
        bad = {k: v for k, v in BASE.items() if k != "weight"}
        with pytest.raises(cli.ConfigError):
            cli.parse_config(json.dumps(bad))

    def test_invalid_json(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("{not json")


class TestSolveCommand:
    def test_artifacts_and_values(self, tmp_path):
        p = write_config(tmp_path, BASE)
        rc = cli.main(["solve", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "solution.json").read_text())
        assert summary["energy"] == pytest.approx(15 * np.pi / 8, rel=1e-6)
        assert summary["case"] == "case1"
        lines = (tmp_path / "solution.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "s,phi_tilde,phi,H,Hdot,lambda"
        first = [ln for ln in lines if not ln.startswith("#")][1]
        assert float(first.split(",")[0]) == 1.0

    def test_odd_ode_grid(self, tmp_path):
        # an odd interval count is used as given: 1001 intervals, 1002 nodes
        cfg = dict(BASE, numerics=dict(BASE["numerics"], ode_grid=1001))
        p = write_config(tmp_path, cfg)
        rc = cli.main(["solve", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "solution.csv").read_text().splitlines()
        assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + 1002
        summary = json.loads((tmp_path / "solution.json").read_text())
        # case-1 energy is 2 pi (R*^2 Phi(R) - r*^2 Phi(r)) from the path's
        # end values, so it follows the fundamental matrix to the bit; it
        # lies 8.0e-15 below 15 pi / 8
        assert summary["energy"] == 5.890486225480854
        assert abs(summary["energy"] - 15 * np.pi / 8) <= 2.4e-14
        assert summary["energy"] == pytest.approx(15 * np.pi / 8, rel=1e-6)

    def test_reruns_byte_identical(self, tmp_path):
        p = write_config(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["solve", "--config", str(p), "--out", str(out1)])
        cli.main(["solve", "--config", str(p), "--out", str(out2)])
        assert (out1 / "solution.csv").read_bytes() == \
            (out2 / "solution.csv").read_bytes()
        assert (out1 / "solution.json").read_bytes() == \
            (out2 / "solution.json").read_bytes()

    @pytest.mark.parametrize("command", ["solve", "energy", "direct",
                                         "verify"])
    def test_a_pair_command_reads_no_ratio(self, tmp_path, capsys, command):
        # the weight is read on the pair's [1, 2] only, so a ratio past the
        # samples does not fail a command that never reads it
        p = write_config(tmp_path, dict(SAMPLES_TO_2, pair=BASE["pair"]))
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path)])
        assert capsys.readouterr().err == ""
        assert rc == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the ODE residual's finite-difference stencil spans the tabulated "
        "weight's kinks: 5.2e-5 at n=4096, 1.9e-5 at 16384, 4.2e-6 at "
        "65536, above RESIDUAL_TOL = 1e-9, while m moves by 6.0e-9 from "
        "n=4096 to 16384"))
    def test_tabulated_weight_with_kinks(self, tmp_path, capsys):
        s = np.linspace(1.0, 3.0, 41)
        samples = [[float(x), float(2.0 + np.sin(4.0 * x))] for x in s]
        cfg = {"weight": {"kind": "tabulated", "samples": samples},
               "pair": {"r": 1.0, "R": 3.0, "r_star": 1.0, "R_star": 2.0},
               "numerics": {"ode_grid": 4096}}
        p = write_config(tmp_path, cfg)
        rc = cli.main(["solve", "--config", str(p), "--out", str(tmp_path)])
        assert capsys.readouterr().err == ""
        assert rc == 0


class TestThresholdCommand:
    def test_values(self, tmp_path):
        cfg = {"weight": {"kind": "constant", "value": 1.0},
               "rho_values": [1.5, 2.0],
               "numerics": {"ode_grid": 2048}}
        p = write_config(tmp_path, cfg)
        rc = cli.main(["threshold", "--config", str(p),
                       "--out", str(tmp_path)])
        assert rc == 0
        rows = [ln for ln in
                (tmp_path / "thresholds.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        for row in rows:
            rho, m, g = map(float, row.split(","))
            assert m == pytest.approx((rho * rho + 1) / (2 * rho), abs=1e-7)
            assert g == pytest.approx(rho, abs=1e-6)

    @pytest.mark.parametrize("command", ["threshold", "sweep"])
    def test_table_needs_a_ratio(self, tmp_path, capsys, command):
        p = write_config(tmp_path, BASE)
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: a threshold table needs rho or rho_values\n"

    def test_rho_key_is_a_one_ratio_query(self, tmp_path):
        weight = {"kind": "power", "exponent": 1.0}
        rows = []
        for query in ({"rho": 2.5}, {"rho_values": [2.5]}):
            out = tmp_path / next(iter(query))
            p = write_config(tmp_path, {"weight": weight, **query})
            assert cli.main(["threshold", "--config", str(p),
                             "--out", str(out)]) == 0
            rows.append([ln for ln in (out / "thresholds.csv").read_text()
                         .splitlines() if not ln.startswith("#")])
        assert rows[0] == rows[1]
        assert len(rows[0]) == 2

    def test_extreme_path_lost_to_cancellation(self, tmp_path, capsys):
        # at the default grid threshold_m stops s^-12 on [1, 50] first
        cfg = {"weight": {"kind": "power", "exponent": -12},
               "rho_values": [50]}
        p = write_config(tmp_path, cfg)
        rc = cli.main(["threshold", "--config", str(p), "--out",
                       str(tmp_path), "--grid", "32768"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: threshold_g: the extreme path")
        assert not (tmp_path / "thresholds.csv").exists()


class TestEnergyCommand:
    def test_consistency(self, tmp_path):
        p = write_config(tmp_path, BASE)
        rc = cli.main(["energy", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        e = json.loads((tmp_path / "energy.json").read_text())
        assert e["radial_quadrature"] == pytest.approx(e["closed_form"],
                                                       rel=1e-3)
        assert e["polar_quadrature"] == pytest.approx(e["closed_form"],
                                                      rel=1e-2)


class TestDirectCommand:
    def test_runs_and_reports(self, tmp_path):
        p = write_config(tmp_path, BASE)
        rc = cli.main(["direct", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        d = json.loads((tmp_path / "direct.json").read_text())
        exact = 15 * np.pi / 8
        assert d["closed_form"] == pytest.approx(exact, rel=1e-6)
        assert d["polar_minimized"] >= exact * (1 - 5e-3)
        assert d["polar_converged"] is True
        # the radial start is stationary: one boundary step, and the map
        # it returns is a KKT point
        assert d["polar_iterations"] == 1
        assert 0.0 <= d["polar_kkt_residual"] <= dc.KKT_TOL
        # the 1-D minimizer makes one banded solve, collapsing pair or not
        assert d["radial_solves"] == 1
        assert (tmp_path / "polar_map.csv").exists()

    def test_collapsing_pair_converges_at_the_radial_candidate(self,
                                                                 tmp_path):
        # the benchmark's collapse config: the s weight on A(1, 2) ->
        # A*(1, 1.05) at 96 x 96; the grid's radial candidate is a KKT
        # point, so one boundary step and one full-grid step converge
        cfg = {"weight": {"kind": "power", "exponent": 1.0},
               "pair": {"r": 1.0, "R": 2.0, "r_star": 1.0, "R_star": 1.05},
               "numerics": {"ode_grid": 4096, "polar_grid": [96, 96],
                            "max_iter": 200}}
        p = write_config(tmp_path, cfg)
        rc = cli.main(["direct", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        d = json.loads((tmp_path / "direct.json").read_text())
        assert d["polar_converged"] is True
        assert d["polar_iterations"] == 2
        assert d["polar_kkt_residual"] <= 1e-11
        assert d["polar_minimized"] >= d["closed_form"] * (1 - 5e-3)
        # the contact band's Jacobian density is 0 up to rounding
        assert d["negative_jacobian_fraction"] == 0.0

    def test_fixed_outer_mode_flag(self, tmp_path):
        p = write_config(tmp_path, BASE)
        rc = cli.main(["direct", "--config", str(p), "--out", str(tmp_path),
                       "--mode", "fixed-outer"])
        assert rc == 0
        d = json.loads((tmp_path / "direct.json").read_text())
        assert d["polar_converged"] is True and d["polar_iterations"] == 1
        assert d["polar_kkt_residual"] <= dc.KKT_TOL


class TestVerifyCommand:
    def test_identities_hold(self, tmp_path):
        cfg = dict(BASE)
        cfg["numerics"] = dict(BASE["numerics"], polar_grid=[128, 128])
        p = write_config(tmp_path, cfg)
        rc = cli.main(["verify", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        rows = [ln for ln in
                (tmp_path / "verify.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == 12      # 4 identities x 3 map kinds
        for row in rows:
            rel = float(row.split(",")[-1])
            assert rel < 1e-2

    def test_failed_identity_is_reported(self, tmp_path, capsys):
        # a 4 x 8 grid is too coarse for the identities: exit 1, with the
        # worst row of verify.csv named on stderr and the CSV kept
        cfg = dict(BASE, numerics=dict(BASE["numerics"], polar_grid=[4, 8]))
        p = write_config(tmp_path, cfg)
        rc = cli.main(["verify", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 1
        rows = [ln.split(",") for ln in
                (tmp_path / "verify.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        worst = max(rows, key=lambda row: float(row[-1]))
        assert float(worst[-1]) == pytest.approx(0.0997, abs=1e-4)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: verify: ")
        assert f"{worst[0]} on the {worst[1]} map" in err[0]
        assert f"{float(worst[-1]):.3g}" in err[0]

    def test_builds_once_on_the_ode_grid(self, tmp_path, monkeypatch):
        # the radial and twist maps share one radial minimizer, built on
        # numerics.ode_grid (here set by --grid)
        calls, build = [], rd.build
        monkeypatch.setattr(rd, "build", lambda w, pair, n=4096:
                            calls.append(n) or build(w, pair, n=n))
        p = write_config(tmp_path, BASE)
        assert cli.main(["verify", "--config", str(p), "--out", str(tmp_path),
                         "--grid", "1024"]) == 0
        assert calls == [1024]

    def test_maps_match_their_specs(self, tmp_path, monkeypatch):
        # verify perturbs the radial map it holds instead of rebuilding it
        maps, residual = [], lg.fl_pullback_residual
        monkeypatch.setattr(lg, "fl_pullback_residual",
                            lambda m, N: maps.append(m) or residual(m, N))
        p = write_config(tmp_path, dict(BASE, numerics=dict(
            BASE["numerics"], seed=5)))
        assert cli.main(["verify", "--config", str(p),
                         "--out", str(tmp_path)]) == 0
        pair = rd.AnnulusPair(**BASE["pair"])
        w = weight_from_config(BASE["weight"], pair.r, pair.R)
        profile = lg.radial_profile(rd.build(w, pair, n=1024))
        radial = lg.TestMapSpec("radial", pair, 48, 48, profile=profile)
        specs = [radial,
                 lg.TestMapSpec("twist", pair, 48, 48,
                                profile=profile, twist=np.log),
                 lg.TestMapSpec("perturbed", pair, 48, 48, base=radial,
                                amplitude=0.02, seed=5)]
        assert len(maps) == 3
        for m, spec in zip(maps, specs):
            assert np.array_equal(m.h, lg.make_test_map(spec).h)

    def test_fallback_pair_reads_the_weight_on_its_own_domain(self, tmp_path):
        # no pair: verify runs on A(1, 2) -> A*(1, 1.25), past max rho = 1.5
        cfg = {"weight": {"kind": "constant", "value": 1.0},
               "rho_values": [1.5],
               "numerics": {"ode_grid": 1024, "polar_grid": [48, 48]}}
        p = write_config(tmp_path, cfg)
        rc = cli.main(["verify", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "verify.csv").is_file()

    def test_fallback_pair_reads_no_ratio(self, tmp_path, capsys):
        p = write_config(tmp_path, SAMPLES_TO_2)
        rc = cli.main(["verify", "--config", str(p), "--out", str(tmp_path)])
        assert capsys.readouterr().err == ""
        assert rc == 0


class TestSweepCommand:
    @pytest.mark.parametrize("command, table", [("threshold", "thresholds.csv"),
                                                ("sweep", "sweep.csv")])
    def test_power_weight_several_rhos(self, tmp_path, command, table):
        # a non-constant weight read on [1, 3] answers each ratio on its
        # prefix [1, rho], as the weight read there would
        rhos = [1.5, 2.0, 3.0]
        cfg = {"weight": {"kind": "power", "exponent": 1.0},
               "rho_values": rhos, "numerics": {"ode_grid": 1024}}
        p = write_config(tmp_path, cfg)
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        rows = [ln for ln in (tmp_path / table).read_text().splitlines()
                if not ln.startswith("#")][1:]
        values = [tuple(map(float, row.split(","))) for row in rows]
        assert [v[0] for v in values] == rhos
        for rho, m, g in values:
            w = Weight.power(1.0, 1.0, rho)
            assert m == rd.threshold_m(w, rho, n=1024)
            assert g == rd.threshold_g(w, rho, n=1024)
        ms = [v[1] for v in values]
        assert ms == sorted(ms)     # increasing in rho


    # a linear weight, so that interpolation adds no kinks for the ODE
    SAMPLES = [[1.0 + 0.25 * i, 1.5 + 0.125 * i] for i in range(9)]

    @pytest.mark.parametrize("command, table", [("threshold", "thresholds.csv"),
                                                ("sweep", "sweep.csv")])
    def test_tabulated_weight_several_rhos(self, tmp_path, command, table):
        # samples on [1, 3]: the ratio 2.1 is answered on [1, 2.1], as by
        # the samples cut there
        cfg = {"weight": {"kind": "tabulated", "samples": self.SAMPLES},
               "rho_values": [2.1, 3.0], "numerics": {"ode_grid": 1024}}
        p = write_config(tmp_path, cfg)
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path)])
        assert rc == 0
        rows = [ln for ln in (tmp_path / table).read_text().splitlines()
                if not ln.startswith("#")][1:]
        values = [tuple(map(float, row.split(","))) for row in rows]
        s, lam = np.array(self.SAMPLES).T
        for (rho, m, g), n_inside in zip(values, (4, 7)):
            w = Weight.tabulated(np.r_[s[:n_inside + 1], rho],
                                 np.r_[lam[:n_inside + 1],
                                       np.interp(rho, s, lam)])
            assert m == rd.threshold_m(w, rho, n=1024)
            assert g == rd.threshold_g(w, rho, n=1024)

    def test_ratio_beyond_the_samples_named(self, tmp_path, capsys):
        cfg = {"weight": {"kind": "tabulated", "samples": self.SAMPLES},
               "rho_values": [2.0, 3.5]}
        p = write_config(tmp_path, cfg)
        rc = cli.main(["sweep", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "rho 3.5" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [None, BASE["pair"]])
    @pytest.mark.parametrize("command", ["threshold", "sweep"])
    def test_each_ratio_is_read(self, tmp_path, capsys, command, pair):
        # one read on [1, max rho] covers every ratio and names the largest
        cfg = SAMPLES_TO_2 if pair is None else dict(SAMPLES_TO_2, pair=pair)
        p = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = cli.main([command, "--config", str(p), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: rho 3: tabulated samples cover [1, 2], not [1, 3]\n")
        assert not out.exists()


class TestWeightRead:
    """Each command reads the weight spec once, on the one interval it
    computes on; parse_config reads it on none."""

    def test_one_read_per_command(self, tmp_path, monkeypatch):
        calls, read = [], cli.weight_from_config
        monkeypatch.setattr(cli, "weight_from_config", lambda spec, r, R:
                            calls.append((r, R)) or read(spec, r, R))
        with_pair = dict(BASE, rho_values=[1.5, 2, 5])
        without = {k: v for k, v in with_pair.items() if k != "pair"}
        cli.parse_config(with_pair)
        seen = {"parse_config": calls[:]}
        for command, cfg in [*((c, with_pair) for c in sorted(cli.COMMANDS)),
                             ("verify without a pair", without)]:
            calls.clear()
            p = write_config(tmp_path, cfg)
            assert cli.main([command.split()[0], "--config", str(p),
                             "--out", str(tmp_path / "out")]) == 0
            seen[command] = calls[:]
        pair, table = [(1, 2)], [(1, 5)]
        assert seen == {"parse_config": [], "solve": pair, "energy": pair,
                        "direct": pair, "verify": pair, "threshold": table,
                        "sweep": table, "verify without a pair": [(1, 2)]}

    def test_a_table_reads_no_pair(self, tmp_path, capsys):
        # samples on [1, 2] cover the ratios' [1, 2], not the pair's [1, 3],
        # which solve reads
        cfg = dict(SAMPLES_TO_2, rho_values=[1.5, 2.0], pair={
            "r": 1.0, "R": 3.0, "r_star": 1.0, "R_star": 2.0})
        p = write_config(tmp_path, cfg)
        for command, table in [("threshold", "thresholds.csv"),
                               ("sweep", "sweep.csv")]:
            assert cli.main([command, "--config", str(p),
                             "--out", str(tmp_path)]) == 0
            rows = [ln for ln in (tmp_path / table).read_text().splitlines()
                    if not ln.startswith("#")][1:]
            assert [float(row.split(",")[0]) for row in rows] == [1.5, 2.0]
        capsys.readouterr()
        out = tmp_path / "solve"
        assert cli.main(["solve", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: tabulated samples cover [1, 2], not [1, 3]\n")
        assert not out.exists()


INF = float("inf")
RHO_QUERY = {"weight": {"kind": "constant", "value": 1.0}, "rho": 2.0}


def _with(base, **changes):
    return json.dumps(dict(base, **changes))


def _pair(**radii):
    return _with(BASE, pair=dict(BASE["pair"], **radii))


class TestMalformedConfig:
    """Malformed or non-finite config values exit 2 with the key named,
    before any command runs (JSON's Infinity parses to inf)."""

    @pytest.mark.parametrize("text, key", [
        pytest.param("[]", "config", id="top-list"),
        pytest.param("5", "config", id="top-number"),
        pytest.param(_with(BASE, numerics=[]), "numerics", id="numerics"),
        pytest.param(_with(BASE, mode=3), "mode", id="mode"),
        pytest.param(_with(BASE, mode={"fixed_outer_boundary": "yes"}),
                     "mode.fixed_outer_boundary", id="mode-flag"),
        pytest.param(_with(BASE, output={"directory": 5}), "output.directory",
                     id="output-directory"),
        pytest.param(_with(BASE, pair=[1, 2, 1, 1.25]), "pair", id="pair"),
        pytest.param(_with(RHO_QUERY, rho_values=2), "rho_values",
                     id="rho-values-number"),
        pytest.param(_with(RHO_QUERY, rho_values={"a": 2}), "rho_values",
                     id="rho-values-object"),
        pytest.param(_with(RHO_QUERY, rho="x"), "rho", id="rho-string"),
        pytest.param(_with(RHO_QUERY, rho=INF), "rho", id="rho-inf"),
        pytest.param(_with(RHO_QUERY, rho_values=[2.0, INF]), "rho_values",
                     id="rho-values-inf"),
        pytest.param(_pair(r="a"), "pair.r", id="pair-r-string"),
        pytest.param(_pair(R=INF), "pair.R", id="pair-R-inf"),
        pytest.param(_pair(R_star=INF), "pair.R_star", id="pair-R_star-inf"),
        pytest.param(_pair(r_star=True), "pair.r_star", id="pair-r_star-bool"),
        pytest.param(_with(BASE, weight={"kind": "power", "exponent": "x"}),
                     "weight.exponent", id="power-exponent"),
        pytest.param(_with(BASE, weight={"kind": "constant", "value": INF}),
                     "weight.value", id="constant-value-inf"),
        pytest.param(_with(BASE, weight={"kind": ["constant"]}),
                     "weight.kind", id="weight-kind-list"),
        pytest.param(_with(BASE, weight={"kind": "tabulated",
                                         "samples": [[1, 1], [2]]}),
                     "weight.samples", id="samples-ragged"),
        pytest.param(_with(BASE, weight={"kind": "tabulated",
                                         "samples": "abc"}),
                     "weight.samples", id="samples-string"),
        pytest.param(_with(BASE, weight={"kind": "tabulated",
                                         "samples": [[1, 1], [2, INF]]}),
                     "weight.samples", id="samples-inf")])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, text, key):
        p = tmp_path / "config.json"
        p.write_text(text)
        command = "solve" if '"pair"' in text else "threshold"
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(f"error: {key} ") or f" {key} " in err, err

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_weight_spec_named_before_any_interval(self, tmp_path, capsys,
                                                   command):
        # without a pair, solve, energy and direct read the weight on no
        # interval, and threshold, sweep and verify on others than the
        # pair's: the spec's keys and types are checked first, in every
        # command, and nothing is written
        p = write_config(tmp_path, {"weight": {"kind": "power",
                                               "exponent": "x"},
                                    "rho_values": [1.5]})
        out = tmp_path / "out"
        rc = cli.main([command, "--config", str(p), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: weight.exponent must be a finite number, got 'x'\n"
        assert not out.exists()


class TestErrorPaths:
    def test_bad_config_returns_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        rc = cli.main(["solve", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_partial_artifacts_removed(self, tmp_path):
        cfg = {"weight": {"kind": "constant", "value": 1.0},
               "rho_values": [1.5]}
        p = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = cli.main(["solve", "--config", str(p), "--out", str(out)])
        assert rc == 1              # solve needs a pair, not a rho query
        assert not (out / "solution.csv").exists()
        assert not (out / "solution.json").exists()

    @pytest.mark.parametrize("command", ["verify", "direct"])
    def test_negative_seed_override_exits_2(self, tmp_path, capsys, command):
        # numpy's generators reject a negative seed without naming the key
        p = write_config(tmp_path, BASE)
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path),
                       "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: numerics.seed must be an integer >= 0, got -1\n")
        assert list(tmp_path.iterdir()) == [p]

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        p = write_config(tmp_path, BASE)
        rc = cli.main(["solve", "--config", str(p), "--out", str(p)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(p) in err
        assert json.loads(p.read_text()) == BASE

    @pytest.mark.parametrize("command", ["solve", "energy", "direct"])
    def test_missing_pair_named(self, tmp_path, capsys, command):
        cfg = {"weight": {"kind": "constant", "value": 1.0},
               "rho_values": [1.5]}
        p = write_config(tmp_path, cfg)
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {command} needs a pair" in capsys.readouterr().err


class TestOverrides:
    def test_no_override_keeps_the_hash(self, tmp_path):
        p = write_config(tmp_path, BASE)
        assert cli.main(["solve", "--config", str(p), "--out",
                         str(tmp_path)]) == 0
        echo = json.loads((tmp_path / "effective_config.json").read_text())
        assert echo == {"config": BASE,
                        "hash": cli.parse_config(json.dumps(BASE))["hash"]}

    def test_grid_override_recorded(self, tmp_path):
        p = write_config(tmp_path, BASE)
        cli.main(["solve", "--config", str(p), "--out", str(tmp_path),
                  "--grid", "512"])
        echo = json.loads((tmp_path / "effective_config.json").read_text())
        assert echo["config"]["numerics"]["ode_grid"] == 512
        summary = json.loads((tmp_path / "solution.json").read_text())
        assert summary["config_hash"] == echo["hash"]
        assert echo["hash"] != cli.parse_config(json.dumps(BASE))["hash"]

    @given(seed=st.one_of(st.none(), st.integers(0, 2 ** 31 - 1)),
           grid=st.one_of(st.none(), st.integers(64, 8192).filter(
               lambda n: n != BASE["numerics"]["ode_grid"])),
           mode=st.sampled_from([None, "free", "fixed-outer"]))
    @settings(max_examples=40, deadline=None)
    def test_each_override_changes_the_hash(self, seed, grid, mode):
        base = cli.parse_config(json.dumps(BASE))["hash"]
        raw = cli.with_overrides(BASE, seed=seed, grid=grid, mode=mode)
        cfg = cli.parse_config(raw)
        changed = (seed, grid, mode) != (None, None, None)
        assert (cfg["hash"] != base) == changed
        assert cfg["numerics"]["seed"] == (0 if seed is None else seed)
        assert cfg["numerics"]["ode_grid"] == (grid or 1024)
        assert cfg["mode"]["fixed_outer_boundary"] == (mode == "fixed-outer")
        # the echoed config reproduces the run's hash
        echo = json.loads(json.dumps({"config": cfg["raw"],
                                      "hash": cfg["hash"]}))
        assert cli.parse_config(echo["config"])["hash"] == echo["hash"]
        for key, value in (("seed", seed), ("grid", grid), ("mode", mode)):
            if value is not None:
                others = {"seed": seed, "grid": grid, "mode": mode, key: None}
                partial = cli.parse_config(cli.with_overrides(BASE, **others))
                assert partial["hash"] != cfg["hash"]

    @pytest.mark.parametrize("text, key", [
        pytest.param("[]", "config", id="top-list"),
        pytest.param(_with(BASE, numerics=[]), "numerics", id="numerics"),
        pytest.param(_with(BASE, mode=3), "mode", id="mode")])
    def test_malformed_config_named_under_overrides(self, tmp_path, capsys,
                                                    text, key):
        # the overrides are folded in before the config is checked
        p = tmp_path / "config.json"
        p.write_text(text)
        rc = cli.main(["solve", "--config", str(p), "--out", str(tmp_path),
                       "--seed", "3", "--grid", "512", "--mode", "free"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {key} must be a JSON object, got ")

    @pytest.mark.parametrize("overrides", [
        [], ["--seed", "3", "--grid", "512", "--mode", "fixed-outer"]])
    def test_config_parsed_once(self, tmp_path, monkeypatch, overrides):
        calls, parse = [], cli.parse_config
        monkeypatch.setattr(cli, "parse_config",
                            lambda doc: calls.append(doc) or parse(doc))
        p = write_config(tmp_path, BASE)
        assert cli.main(["solve", "--config", str(p), "--out", str(tmp_path),
                         *overrides]) == 0
        assert len(calls) == 1


SPECIAL_FLOATS = [0.0, -0.0, float("inf"), -float("inf"), float("nan"),
                  5e-324, -5e-324, 1e16, 1e-5, 1.0, -3.0, 2.0 ** 53, 0.1]


# where the CLI's writer computes %.17g's digits itself
FIXED_NOTATION = st.floats(1e-4, 1e16, exclude_max=True)


@st.composite
def csv_columns(draw):
    """Equal-length columns of floats, ints or strs, as lists or arrays."""
    n = draw(st.integers(0, 20))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "str"]),
                              min_size=1, max_size=6)):
        values = st.text()
        if kind == "float":
            values = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(),
                               st.integers(-2 ** 60, 2 ** 60).map(float),
                               FIXED_NOTATION, FIXED_NOTATION.map(lambda x: -x))
        elif kind == "int":
            values = st.integers(-2 ** 63, 2 ** 63 - 1)
        col = draw(st.lists(values, min_size=n, max_size=n))
        if kind != "str" and draw(st.booleans()):
            col = np.array(col, dtype=np.float64 if kind == "float" else np.int64)
        columns.append(col)
    return columns


def float_bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def two_blocks_and_one_row():
    n = 2 * cli.ROW_BLOCK + 1
    x = np.round(np.random.default_rng(3).standard_normal(n), 2)
    return [np.arange(n), x, -x, x.tolist(), np.sqrt(np.arange(n) % 7.0)]


def float_texts(values):
    """The CLI's texts of these floats, and %.17g's."""
    values = np.asarray(values, dtype=np.float64)
    got = cli._format_once(values.view(np.uint64), cli._float_texts).tolist()
    return got, [csv_oracle.fmt(v) for v in values.tolist()]


def next_to(values):
    """The values and their neighbours one ulp down and up."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


def sweep_floats():
    """About 250k floats: log-uniform magnitudes over [1e-6, 1e18] of both
    signs, uniform bit patterns, and powers of ten and the edges of %.17g's
    fixed notation with their neighbours."""
    rng = np.random.default_rng(26)
    mags = np.exp(rng.uniform(np.log(1e-6), np.log(1e18), 200_000))
    bits = rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64, endpoint=False)
    edges = next_to([float(f"1e{k}") for k in range(-5, 18)] + [1e-4, 1e16])
    return np.concatenate([mags * rng.choice([-1.0, 1.0], mags.size),
                           bits.view(np.float64), edges, -edges])


CSV_EDGE_TABLES = {
    # Phi = Phi~ in case 1: one float in two columns, repeated down each
    "shared_float": lambda: [np.array([0.1, 0.1, 1 / 3, 0.1]),
                             np.array([0.1, 1 / 3, 1 / 3, 0.1])],
    "signed_zero": lambda: [np.array([0.0, -0.0, 0.0, -0.0]), np.zeros(4),
                            -np.zeros(4), [-0.0, 0.0, -0.0, 0.0]],
    "nan_payloads": lambda: [
        float_bits(0x7FF8000000000000, 0xFFF8000000000000,
                   0x7FF8000000000123, 0xFFF4000000000ABC),
        float_bits(0xFFF4000000000ABC, 0x7FF8000000000000,
                   0x7FF8000000000000, 0xFFF8000000000000)],
    "inf_and_subnormal": lambda: [np.array([np.inf, -np.inf, 5e-324, -5e-324]),
                                  [5e-324, np.inf, -np.inf, 5e-324]],
    "list_beside_arrays": lambda: [
        [0.5, 2.0, 1e300, 0.5], np.array([2.0, 0.5, 0.5, -1e-300]),
        np.array([-3, 0, 2 ** 62, -3], dtype=np.int64), ["a", "b", "a", "c"]],
    "no_rows": lambda: [np.zeros(0), [], np.zeros(0, dtype=np.int64)],
    "two_blocks_and_one_row": two_blocks_and_one_row,
}


class TestCsvWriter:
    """The block-wise writer against the per-value one, byte for byte."""

    @given(columns=csv_columns())
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_per_value_writer(self, tmp_path_factory, columns):
        d = tmp_path_factory.mktemp("csv")
        meta = {"config_hash": "0123456789abcdef", "weight": "{}"}
        names = [f"c{k}" for k in range(len(columns))]
        cli._write_csv(d / "columns.csv", meta, names, columns)
        csv_oracle.write_csv(d / "rows.csv", meta, names, zip(*columns))
        assert (d / "columns.csv").read_bytes() == (d / "rows.csv").read_bytes()

    @given(columns=csv_columns())
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_with_every_block_through_numpy(self, tmp_path_factory,
                                                        columns):
        d = tmp_path_factory.mktemp("csv")
        names = [f"c{k}" for k in range(len(columns))]
        with mock.patch.object(cli, "VECTOR_FROM", 1):
            cli._write_csv(d / "columns.csv", {}, names, columns)
        csv_oracle.write_csv(d / "rows.csv", {}, names, zip(*columns))
        assert (d / "columns.csv").read_bytes() == (d / "rows.csv").read_bytes()

    @pytest.mark.parametrize("table", sorted(CSV_EDGE_TABLES))
    def test_edge_cases_match_per_value_writer(self, tmp_path, table):
        columns = CSV_EDGE_TABLES[table]()
        meta = {"config_hash": "0123456789abcdef"}
        names = [f"c{k}" for k in range(len(columns))]
        cli._write_csv(tmp_path / "columns.csv", meta, names, columns)
        csv_oracle.write_csv(tmp_path / "rows.csv", meta, names, zip(*columns))
        got = (tmp_path / "columns.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        if table == "signed_zero":
            assert got.endswith(b"\n0,0,-0,-0\n-0,0,-0,0\n0,0,-0,-0\n"
                                b"-0,0,-0,0\n")

    def test_float_sweep_matches_per_value_format(self):
        got, want = float_texts(sweep_floats())
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        assert not bad, f"{len(bad)} mismatches, first {bad[:5]}"

    def test_half_way_ties_round_to_even(self):
        # v = k / 2**(F+1), k odd, in [10**(16-F), 10**(17-F)): %.17g's
        # digits are v * 10**F = k * 5**F / 2, half-way between integers
        rng = np.random.default_rng(27)
        ties = []
        for F in range(1, 21):
            lo, hi = (math.ceil(Fraction(10) ** e * 2 ** (F + 1))
                      for e in (16 - F, 17 - F))
            m = rng.integers((lo + 1) // 2, (min(hi, 2 ** 53) - 1) // 2, 2000)
            ties.append((2 * m + 1) / 2.0 ** (F + 1))
        ties = np.concatenate(ties)
        got, want = float_texts(np.concatenate([ties, -ties]))
        assert got == want

    def test_floats_read_back_to_the_same_bits(self, tmp_path):
        # README: every float written to a CSV parses back to the same
        # double; a NaN reads back as a NaN
        values = np.concatenate([sweep_floats()[::10], SPECIAL_FLOATS])
        cli._write_csv(tmp_path / "t.csv", {}, ["v"], [values])
        lines = (tmp_path / "t.csv").read_text().splitlines()[1:]
        back = np.array([float(x) for x in lines])
        nan = np.isnan(values)
        assert (np.isnan(back) == nan).all()
        assert (back[~nan].view(np.uint64) == values[~nan].view(np.uint64)).all()

    def test_columns_of_different_lengths_raise(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=r"\[3, 2, 3\]"):
            cli._write_csv(path, {}, ["a", "b", "c"],
                           [np.zeros(3), [1.0, 2.0], ["x", "y", "z"]])
        assert not path.exists()

    @pytest.fixture
    def recorded(self, monkeypatch):
        """The tables the CLI writes, and the polar maps `direct` descends to."""
        tables, maps = [], []
        write, minimize = cli._write_csv, dc.minimize_polar

        def record(path, meta, names, columns):
            write(path, meta, names, columns)
            tables.append((path, meta, names, columns))

        def capture(*args, **kwargs):
            out = minimize(*args, **kwargs)
            maps.append(out[0])
            return out

        monkeypatch.setattr(cli, "_write_csv", record)
        monkeypatch.setattr(dc, "minimize_polar", capture)
        return tables, maps

    # 96² writes every node; 256² every 4th node per axis.  The collapse
    # config's solve table holds the Phi = 0 plateau and values below
    # 1e-4; its direct map holds the contact rows.
    @pytest.mark.parametrize("command, grid, weight, R_star", [
        *(pytest.param(command, grid, BASE["weight"], 1.25,
                       id=f"{command}-{grid}")
          for command in ["direct", "solve", "threshold", "verify"]
          for grid in [256, 96]),
        *(pytest.param(command, 96, {"kind": "power", "exponent": 1.0}, 1.05,
                       id=f"collapse-{command}-96")
          for command in ["solve", "direct"])])
    def test_artifacts_match_per_value_writer(self, tmp_path, recorded,
                                              command, grid, weight, R_star):
        cfg = dict(BASE, weight=weight, rho_values=[1.5, 2.0, 5.0],
                   pair=dict(BASE["pair"], R_star=R_star),
                   numerics={"ode_grid": 4096, "polar_grid": [grid, grid],
                             "max_iter": 200, "seed": 7})
        p = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(p), "--out", str(out)]) == 0
        tables, maps = recorded
        [(path, meta, names, columns)] = tables
        if R_star == 1.05 and command == "solve":
            # some floats take the per-value fallback
            phi = np.asarray(columns[names.index("phi")])
            assert (phi == 0).any() and ((0 < phi) & (phi < 1e-4)).any()
        if R_star == 1.05 and command == "direct":
            # the contact rows are r* e^{i theta}, to rounding
            assert np.abs(np.abs(maps[0].h[:2]) - 1.0).max() <= 4e-16
        rows = zip(*columns)
        if command == "direct":
            rows = csv_oracle.polar_map_rows(maps[0])
            assert len(columns[0]) == (grid // max(1, grid // 64)) ** 2
        if command == "solve":
            phi0 = json.loads((out / "solution.json").read_text())["phi0"]
            assert meta["phi0"] == csv_oracle.fmt(phi0)
        csv_oracle.write_csv(tmp_path / "oracle.csv", meta, names, rows)
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestStdout:
    """Nothing reaches stdout, so a caller that runs `main` in-process
    keeps its own last stdout line; errors go to stderr."""

    CONFIGS = {
        "unit": dict(BASE, rho_values=[1.5, 2.0]),
        # below its Nitsche bound: the minimizer collapses
        "collapse": {"weight": {"kind": "power", "exponent": 1.0},
                     "pair": {"r": 1.0, "R": 2.0, "r_star": 1.0,
                              "R_star": 1.05},
                     "rho_values": [2.0], "numerics": BASE["numerics"]},
        # no pair: solve, energy and direct exit 1
        "no_pair": {"weight": {"kind": "power", "exponent": 1.0},
                    "rho_values": [1.5, 2.0], "numerics": BASE["numerics"]},
    }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_nothing_on_stdout(self, tmp_path, capsys, config, command):
        p = write_config(tmp_path, self.CONFIGS[config])
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert rc in (0, 1)
        if rc:
            assert captured.err.startswith("error: ")
        if config == "no_pair" and command in ("solve", "energy", "direct"):
            assert rc == 1
