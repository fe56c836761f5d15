import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annular_dirichlet import cli
from annular_dirichlet import radial as rd
from annular_dirichlet.weights import Weight


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

    def test_nonpositive_tolerance(self):
        bad = dict(BASE)
        bad["numerics"] = dict(BASE["numerics"], modulus_tol=0.0)
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(json.dumps(bad))
        assert "modulus_tol" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("ode_grid", "abc"), ("ode_grid", 0), ("ode_grid", 1024.5),
        ("ode_grid", True), ("radial_grid", -4), ("radial_grid", None),
        ("max_iter", 0), ("max_iter", 10.0),
        ("polar_grid", [2, 2]), ("polar_grid", [48]), ("polar_grid", 48),
        ("polar_grid", [48, 48, 48]), ("polar_grid", [48.0, 48]),
        ("perturbation", -1), ("perturbation", float("nan")),
        ("perturbation", float("inf")), ("perturbation", "0.1")])
    def test_bad_numerics_named(self, key, value):
        bad = dict(BASE)
        bad["numerics"] = dict(BASE["numerics"], **{key: value})
        with pytest.raises(cli.ConfigError, match=f"numerics.{key}"):
            cli.parse_config(bad)

    @pytest.mark.parametrize("numerics", [
        {"polar_grid": [2, 2]}, {"ode_grid": "abc"}, {"max_iter": 0},
        {"perturbation": -1}])
    def test_bad_numerics_exit_2(self, tmp_path, capsys, numerics):
        cfg = dict(BASE, numerics=dict(BASE["numerics"], **numerics))
        p = write_config(tmp_path, cfg)
        rc = cli.main(["direct", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert f"numerics.{next(iter(numerics))}" in capsys.readouterr().err

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

    def test_reruns_byte_identical(self, tmp_path):
        p = write_config(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["solve", "--config", str(p), "--out", str(out1)])
        cli.main(["solve", "--config", str(p), "--out", str(out2)])
        assert (out1 / "solution.csv").read_bytes() == \
            (out2 / "solution.csv").read_bytes()
        assert (out1 / "solution.json").read_bytes() == \
            (out2 / "solution.json").read_bytes()


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
        assert (tmp_path / "polar_map.csv").exists()

    def test_fixed_outer_mode_flag(self, tmp_path):
        p = write_config(tmp_path, BASE)
        rc = cli.main(["direct", "--config", str(p), "--out", str(tmp_path),
                       "--mode", "fixed-outer"])
        assert rc == 0


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


class TestSweepCommand:
    @pytest.mark.parametrize("command, table", [("threshold", "thresholds.csv"),
                                                ("sweep", "sweep.csv")])
    def test_power_weight_several_rhos(self, tmp_path, command, table):
        # a non-constant weight is read on each ratio's own interval
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
