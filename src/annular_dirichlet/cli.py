"""Command-line harness: config ingestion, orchestration and CSV/JSON output.

Commands: solve, threshold, energy, direct, verify, sweep.  Outputs are
CSV files for curves and tables (header comment lines prefixed ``#``) and
JSON for summaries; reruns with identical configs and seeds are
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import discrete as dc
from . import lagrangians as lg
from . import radial as rd
from .weights import WeightError, weight_from_config

DEFAULTS = {
    "numerics": {
        "ode_grid": 4096,
        "polar_grid": [256, 256],
        "radial_grid": 2048,
        "modulus_tol": 1e-10,
        "max_iter": 2000,
        "seed": 0,
        "perturbation": 0.0,
    },
    "mode": {"fixed_outer_boundary": False},
    "output": {"directory": ".", "formats": ["csv", "json"]},
}

KNOWN_TOP = {"weight", "pair", "rho", "rho_values", "numerics", "mode", "output"}


class ConfigError(ValueError):
    pass


def parse_config(text_or_dict):
    """Parse and validate a JSON configuration document."""
    if isinstance(text_or_dict, str):
        try:
            raw = json.loads(text_or_dict)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    else:
        raw = dict(text_or_dict)
    unknown = set(raw) - KNOWN_TOP
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {
        "numerics": {**DEFAULTS["numerics"], **raw.get("numerics", {})},
        "mode": {**DEFAULTS["mode"], **raw.get("mode", {})},
        "output": {**DEFAULTS["output"], **raw.get("output", {})},
    }
    for section in ("numerics", "mode", "output"):
        extra = set(cfg[section]) - set(DEFAULTS[section])
        if extra:
            raise ConfigError(f"unknown {section} keys: {sorted(extra)}")
    for key in ("modulus_tol",):
        if cfg["numerics"][key] <= 0:
            raise ConfigError(f"numerics.{key} must be positive")
    _check_numerics(cfg["numerics"])

    if "pair" in raw:
        p = raw["pair"]
        missing = {"r", "R", "r_star", "R_star"} - set(p)
        if missing:
            raise ConfigError(f"pair is missing radii: {sorted(missing)}")
        if not (0 < p["r"] < p["R"]):
            raise ConfigError("pair: domain radii ordering (need 0 < r < R)")
        if not (0 < p["r_star"] < p["R_star"]):
            raise ConfigError("pair: target radii ordering "
                              "(need 0 < r_star < R_star)")
        cfg["pair"] = rd.AnnulusPair(p["r"], p["R"], p["r_star"], p["R_star"])
    if "rho" in raw:
        cfg["rho_values"] = [float(raw["rho"])]
    if "rho_values" in raw:
        cfg["rho_values"] = [float(x) for x in raw["rho_values"]]
    if "weight" not in raw:
        raise ConfigError("config is missing the weight spec")
    cfg["weight_spec"] = raw["weight"]
    if "pair" in cfg:
        r, R = cfg["pair"].r, cfg["pair"].R
    elif cfg.get("rho_values"):
        r, R = 1.0, max(cfg["rho_values"])
    else:
        raise ConfigError("config needs a pair or a rho/rho_values query")
    try:
        cfg["weight"] = weight_from_config(raw["weight"], r, R)
    except WeightError as e:
        raise ConfigError(str(e)) from e
    if cfg["weight"].validate() is not None:
        raise ConfigError("weight failed positivity validation")
    cfg["hash"] = _config_hash(raw)
    cfg["raw"] = raw
    return cfg


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_numerics(num):
    if not _is_int(num["seed"]):
        raise ConfigError("numerics.seed must be an explicit integer")
    for key in ("ode_grid", "radial_grid", "max_iter"):
        if not (_is_int(num[key]) and num[key] > 0):
            raise ConfigError(f"numerics.{key} must be a positive integer, "
                              f"got {num[key]!r}")
    grid = num["polar_grid"]
    if not (isinstance(grid, list) and len(grid) == 2
            and all(_is_int(n) and n >= 3 for n in grid)):
        raise ConfigError("numerics.polar_grid must be two integers >= 3, "
                          f"got {grid!r}")
    p = num["perturbation"]
    if not (isinstance(p, (int, float)) and not isinstance(p, bool)
            and math.isfinite(p) and p >= 0):
        raise ConfigError("numerics.perturbation must be a finite number "
                          f">= 0, got {p!r}")


def with_overrides(raw, seed=None, grid=None, mode=None):
    """The raw config with the command-line overrides folded in, so that
    its hash and effective_config.json describe the run."""
    out = dict(raw)
    fixed = None if mode is None else mode == "fixed-outer"
    for section, key, value in (("numerics", "seed", seed),
                                ("numerics", "ode_grid", grid),
                                ("mode", "fixed_outer_boundary", fixed)):
        if value is not None:
            out[section] = {**out.get(section, {}), key: value}
    return out


def _config_hash(raw):
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header_meta, columns, rows):
    lines = [f"# {k}: {v}" for k, v in header_meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_dir(cfg, override=None):
    d = Path(override) if override else Path(cfg["output"]["directory"])
    d.mkdir(parents=True, exist_ok=True)
    return d


def _meta(cfg, extra=None):
    meta = {"config_hash": cfg["hash"],
            "weight": json.dumps(cfg["weight_spec"], sort_keys=True)}
    if extra:
        meta.update(extra)
    return meta


def _echo_config(cfg, out):
    _write_json(out / "effective_config.json",
                {"config": cfg["raw"], "hash": cfg["hash"]})


def cmd_solve(cfg, out):
    pair = cfg["pair"]
    w = cfg["weight"]
    sol = rd.build(w, pair, n=cfg["numerics"]["ode_grid"])
    s = sol.phi.s
    lam = np.asarray(w(s), dtype=float)
    rows = list(zip(s, sol.phi.phi_tilde, sol.phi.phi,
                    sol.profile.H, sol.profile.Hdot, lam))
    _write_csv(out / "solution.csv",
               _meta(cfg, {"pair": f"{pair.r},{pair.R},{pair.r_star},{pair.R_star}",
                           "phi0": _fmt(sol.phi0), "case": sol.case_tag}),
               ["s", "phi_tilde", "phi", "H", "Hdot", "lambda"], rows)
    _write_json(out / "solution.json", {
        "config_hash": cfg["hash"],
        "phi0": sol.phi0, "r0": sol.r0, "case": sol.case_tag,
        "energy": sol.energy,
        "modulus_target": pair.mod_target,
        "ode_residual": sol.phi.residual,
    })
    return 0


def _threshold_rows(cfg):
    """(rho, m, g) per ratio.  Each ratio reads the weight spec on its own
    interval [r, r rho], r the configured left end: a non-constant weight
    built once on the widest interval has the wrong ratio for the others."""
    n = cfg["numerics"]["ode_grid"]
    r = cfg["weight"].r
    rows = []
    for rho in cfg["rho_values"]:
        w = weight_from_config(cfg["weight_spec"], r, r * rho)
        rows.append((float(rho), rd.threshold_m(w, rho, n=n),
                     rd.threshold_g(w, rho, n=n)))
    return rows


def cmd_threshold(cfg, out):
    if not cfg.get("rho_values"):
        raise ConfigError("threshold needs rho or rho_values")
    _write_csv(out / "thresholds.csv", _meta(cfg),
               ["rho", "m_lambda", "g_lambda"], _threshold_rows(cfg))
    return 0


def cmd_energy(cfg, out):
    pair = cfg["pair"]
    w = cfg["weight"]
    sol = rd.build(w, pair, n=cfg["numerics"]["ode_grid"])
    emb = dc.embed_radial(sol, *cfg["numerics"]["polar_grid"])
    rv = dc.RadialVector(sol.phi.s, sol.profile.H)
    _write_json(out / "energy.json", {
        "config_hash": cfg["hash"],
        "case": sol.case_tag,
        "closed_form": sol.energy,
        "radial_quadrature": dc.radial_energy(w, rv, check=False),
        "polar_quadrature": dc.polar_energy(w, emb).total,
    })
    return 0


def cmd_direct(cfg, out):
    pair = cfg["pair"]
    w = cfg["weight"]
    num = cfg["numerics"]
    mode = dc.MODE_FIXED_OUTER if cfg["mode"]["fixed_outer_boundary"] \
        else dc.MODE_FREE
    sol = rd.build(w, pair, n=num["ode_grid"])
    rv, rrep = dc.minimize_radial(w, pair, n=num["radial_grid"])
    ns, ntheta = num["polar_grid"]
    pm, prep = dc.minimize_polar(
        w, pair, ns=ns, ntheta=ntheta, mode=mode, seed=num["seed"],
        perturbation=num["perturbation"], max_iter=num["max_iter"],
        radial_solution=sol)
    _write_json(out / "direct.json", {
        "config_hash": cfg["hash"],
        "closed_form": sol.energy,
        "radial_minimized": rrep.total,
        "radial_gap": rrep.total - sol.energy,
        "polar_minimized": prep.total,
        "polar_gap": prep.total - sol.energy,
        "polar_iterations": prep.iterations,
        "negative_jacobian_fraction": prep.negative_jacobian_fraction,
    })
    rows = [(i, j, float(pm.s[i]), float(pm.theta[j]),
             float(pm.h[i, j].real), float(pm.h[i, j].imag))
            for i in range(0, pm.ns, max(1, pm.ns // 64))
            for j in range(0, pm.ntheta, max(1, pm.ntheta // 64))]
    _write_csv(out / "polar_map.csv", _meta(cfg),
               ["i", "j", "s", "theta", "re_h", "im_h"], rows)
    return 0


def cmd_verify(cfg, out):
    pair = cfg.get("pair") or rd.AnnulusPair(1, 2, 1, 1.25)
    w = cfg["weight"]
    ns, ntheta = cfg["numerics"]["polar_grid"]
    seed = cfg["numerics"]["seed"]
    base = lg.TestMapSpec("radial", pair, ns, ntheta, weight=w)
    specs = [("radial", base),
             ("twist", lg.TestMapSpec("twist", pair, ns, ntheta,
                                      profile=None, weight=w, twist=np.log)),
             ("perturbed", lg.TestMapSpec("perturbed", pair, ns, ntheta,
                                          base=base, amplitude=0.02,
                                          seed=seed))]
    one = np.ones_like
    checks = [
        ("fl_pullback", lambda m: lg.fl_pullback_residual(m, lambda G: one(G))),
        ("fl_radial", lambda m: lg.fl_radial_residual(m, lambda G: one(G))),
        ("fl_tangential", lambda m: lg.fl_tangential_residual(m, lambda s: one(s))),
        ("fl_boundary", lambda m: lg.fl_boundary_residual(
            m, lg.CFunction(lambda s, G: 1.0, lambda s, G: 0.0,
                            lambda s, G: 0.0))),
    ]
    rows = []
    worst = 0.0
    for kind, spec in specs:
        m = lg.make_test_map(spec)
        for name, fn in checks:
            res = fn(m)
            rows.append((name, kind, f"{ns}x{ntheta}", res.lhs, res.rhs,
                         res.residual, res.rel_residual))
            worst = max(worst, res.rel_residual)
    _write_csv(out / "verify.csv", _meta(cfg),
               ["identity_id", "map_kind", "grid", "lhs", "rhs",
                "residual", "rel_residual"], rows)
    return 0 if worst < 1e-2 else 1


def cmd_sweep(cfg, out):
    if not cfg.get("rho_values"):
        raise ConfigError("sweep needs rho_values")
    _write_csv(out / "sweep.csv", _meta(cfg),
               ["rho", "m_lambda", "g_lambda"], _threshold_rows(cfg))
    return 0


COMMANDS = {"solve": cmd_solve, "threshold": cmd_threshold,
            "energy": cmd_energy, "direct": cmd_direct,
            "verify": cmd_verify, "sweep": cmd_sweep}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="annular-dirichlet",
        description="Radial minimizers of the weighted Dirichlet energy "
                    "between planar annuli")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--grid", type=int, default=None,
                        help="override the ODE grid size")
    parser.add_argument("--mode", choices=["free", "fixed-outer"], default=None)
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        raw = with_overrides(cfg["raw"], args.seed, args.grid, args.mode)
        if raw != cfg["raw"]:
            cfg = parse_config(raw)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = _out_dir(cfg, args.out)
    _echo_config(cfg, out)
    written_before = set(out.iterdir())
    try:
        if "pair" not in cfg and args.command in ("solve", "energy", "direct"):
            raise ConfigError(f"{args.command} needs a pair")
        return COMMANDS[args.command](cfg, out)
    except Exception as e:  # remove partial artifacts, then report
        for path in set(out.iterdir()) - written_before:
            path.unlink(missing_ok=True)
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
