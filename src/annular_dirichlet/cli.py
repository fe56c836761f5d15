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
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import discrete as dc
from . import lagrangians as lg
from . import radial as rd
from .weights import WeightError, _is_finite_number, weight_from_config

DEFAULTS = {
    "numerics": {
        "ode_grid": 4096,
        "polar_grid": [256, 256],
        "radial_grid": 2048,
        "max_iter": 2000,
        "seed": 0,
        "perturbation": 0.0,
    },
    "mode": {"fixed_outer_boundary": False},
    "output": {"directory": "."},
}

KNOWN_TOP = {"weight", "pair", "rho", "rho_values", "numerics", "mode", "output"}


class ConfigError(ValueError):
    pass


def parse_config(text_or_dict):
    """Parse and validate a JSON configuration document."""
    raw = text_or_dict
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    _need(isinstance(raw, dict), "config", "a JSON object", raw)
    unknown = set(raw) - KNOWN_TOP
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for section, defaults in DEFAULTS.items():
        given = raw.get(section, {})
        _need(isinstance(given, dict), section, "a JSON object", given)
        extra = set(given) - set(defaults)
        if extra:
            raise ConfigError(f"unknown {section} keys: {sorted(extra)}")
        cfg[section] = {**defaults, **given}
    _check_numerics(cfg["numerics"])
    fixed, out = cfg["mode"]["fixed_outer_boundary"], cfg["output"]["directory"]
    _need(isinstance(fixed, bool), "mode.fixed_outer_boundary",
          "true or false", fixed)
    _need(isinstance(out, str), "output.directory", "a string", out)

    if "pair" in raw:
        p = raw["pair"]
        _need(isinstance(p, dict), "pair", "a JSON object", p)
        missing = {"r", "R", "r_star", "R_star"} - set(p)
        if missing:
            raise ConfigError(f"pair is missing radii: {sorted(missing)}")
        for key in ("r", "R", "r_star", "R_star"):
            _need(_is_finite_number(p[key]), f"pair.{key}", "a finite number",
                  p[key])
        if not (0 < p["r"] < p["R"]):
            raise ConfigError("pair: domain radii ordering (need 0 < r < R)")
        if not (0 < p["r_star"] < p["R_star"]):
            raise ConfigError("pair: target radii ordering "
                              "(need 0 < r_star < R_star)")
        cfg["pair"] = rd.AnnulusPair(p["r"], p["R"], p["r_star"], p["R_star"])
    if "rho" in raw:
        _need(_is_finite_number(raw["rho"]), "rho", "a finite number",
              raw["rho"])
        cfg["rho_values"] = [float(raw["rho"])]
    if "rho_values" in raw:
        rhos = raw["rho_values"]
        _need(isinstance(rhos, list) and all(map(_is_finite_number, rhos)),
              "rho_values", "a list of finite numbers", rhos)
        cfg["rho_values"] = [float(x) for x in rhos]
    if "weight" not in raw:
        raise ConfigError("config is missing the weight spec")
    cfg["weight_spec"] = raw["weight"]
    if "pair" in cfg:
        r, R = cfg["pair"].r, cfg["pair"].R
    elif cfg.get("rho_values"):
        r, R = 1.0, max(cfg["rho_values"])
    else:
        raise ConfigError("config needs a pair or a rho/rho_values query")
    # the weight spec read on each ratio's own interval [r, r rho] (on the
    # widest one a non-constant weight has the wrong ratio for the others),
    # then on the domain
    ratios = cfg.get("rho_values", [])
    weights = []
    for label, end in [(f"rho {rho:g}: ", r * rho) for rho in ratios] + [("", R)]:
        try:
            weights.append(weight_from_config(raw["weight"], r, end))
        except WeightError as e:
            raise ConfigError(label + str(e)) from e
    *ratio_weights, cfg["weight"] = weights
    cfg["ratio_weights"] = list(zip(ratios, ratio_weights))
    cfg["hash"] = _config_hash(raw)
    cfg["raw"] = raw
    return cfg


def _need(ok, key, what, value):
    """Raise ConfigError naming the key unless ok."""
    if not ok:
        raise ConfigError(f"{key} must be {what}, got {value!r}")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_numerics(num):
    for key, least in (("seed", 0), ("ode_grid", 16), ("radial_grid", 3),
                       ("max_iter", 1)):
        _need(_is_int(num[key]) and num[key] >= least, f"numerics.{key}",
              f"an integer >= {least}", num[key])
    grid = num["polar_grid"]
    _need(isinstance(grid, list) and len(grid) == 2
          and all(_is_int(n) and n >= 3 for n in grid),
          "numerics.polar_grid", "two integers >= 3", grid)
    p = num["perturbation"]
    _need(_is_finite_number(p) and p >= 0, "numerics.perturbation",
          "a finite number >= 0", p)


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


FLOAT = "%.17g"   # exact on round trip
ROW_BLOCK = 2048  # rows formatted and written at a time
VECTOR_FROM = 256  # distinct floats from which _float_texts uses numpy
# 10**k as doubles for k = -4..20: exact from 1e0, and for k < 0 the least
# double above 10**k; and 10**k as int64 for k = 0..18
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 21)])
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# [negative][integer part, 10 for >= 10][z + 1]: a value's text before its
# %d arguments, z the leading zeros of its fraction (-1: no fraction)
_FRAGMENTS = np.array([[[sign + i + ("" if z < 0 else "." + "0" * z + "%d")
                         for z in range(-1, 21)] for i in [*"0123456789", "%d"]]
                       for sign in ("", "-")], dtype=object)


def _two_product(a, b):
    """(p, e) with p + e = a * b exactly (Dekker, on Veltkamp's split)."""
    (ah, al), (bh, bl) = [(h, x - h) for x in (a, b)
                          for h in [134217729.0 * x - (134217729.0 * x - x)]]
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fixed_notation(v):
    """Fragments, (n, 2) int64 arguments and the mask of those used, for
    FLOAT % v with 1e-4 <= |v| < 1e16: `" ".join(fragments) %
    tuple(arguments[used])` split at " ".  There FLOAT prints fixed notation
    with digits N = |v| * 10**F rounded half to even, F = 16 - floor(log10
    |v|), 10**16 <= N <= 10**17 (the last if rounding carries); |v| * 10**F
    = hi + lo exactly, hi >= 10**16 > 2**53 even, so N = hi + rint(lo)."""
    a = np.abs(v)
    F = 21 - np.searchsorted(_DECADES, a, "right")   # exact: see _DECADES
    hi, lo = _two_product(a, _DECADES[F + 4])
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    I, R = np.divmod(N, _POW10[np.minimum(F, 18)])   # N < 10**18
    z = F - np.searchsorted(_POW10, R, "right")
    for p in _POW10[[16, 8, 4, 2, 1]]:   # strip up to 31 trailing zeros
        q = R // p
        R = np.where(q * p == R, q, R)
    frags = _FRAGMENTS[(v < 0).view(np.int8), np.minimum(I, 10),
                       np.where(R > 0, z + 1, 0)]
    return frags, np.stack([I, R], axis=1), np.stack([I >= 10, R > 0], axis=1)


def _float_texts(bits):
    """FLOAT % v for the float64 values v with these bit patterns."""
    values = bits.view(np.float64)
    a = np.abs(values)
    # on fewer values numpy's cost per call outweighs the saving
    fast = (a >= 1e-4) & (a < 1e16) & (len(values) >= VECTOR_FROM)
    texts = np.empty(len(values), dtype=object)
    texts[~fast] = [FLOAT % v for v in values[~fast].tolist()]
    if fast.any():
        frags, args, used = _fixed_notation(values[fast])
        out = []
        for k in range(0, len(frags), 1024):   # few Python ints alive at once
            at = slice(k, k + 1024)
            out += (" ".join(frags[at].tolist())
                    % tuple(args[at][used[at]].tolist())).split(" ")
        texts[fast] = out
    return texts


def _write_csv(path, header_meta, names, columns):
    """One CSV table from equal-length columns of one type each (arrays or
    sequences); columns of different lengths raise ValueError.

    A column's format is read off its first value after `tolist()`: a
    Python float means FLOAT for the whole column, anything else str.
    Rows are formatted and written ROW_BLOCK at a time, so that only one
    block of strings is alive at once.  Within a block each distinct float
    is formatted once, keyed by its bit pattern so that 0.0 and -0.0 keep
    their own text, and so is each distinct value of an integer or boolean
    array column.  In a block of at least VECTOR_FROM distinct floats,
    those in FLOAT's fixed-notation range get FLOAT's text from exact
    integer digits (`_fixed_notation`).
    """
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    n = lengths[0] if lengths else 0
    first = [c[:1].tolist() if isinstance(c, np.ndarray) else c[:1]
             for c in columns]
    is_float = [bool(f) and isinstance(f[0], float) for f in first]
    # float columns as bit patterns, integer and boolean arrays as they are,
    # anything else as a sequence of values
    columns = [np.asarray(c, dtype=np.float64).view(np.uint64) if f
               else c.tolist() if isinstance(c, np.ndarray)
               and c.dtype.kind not in "biu" else c
               for c, f in zip(columns, is_float)]
    head = [f"# {k}: {v}" for k, v in header_meta.items()]
    head.append(",".join(names))
    with path.open("w") as out:
        out.write("\n".join(head) + "\n")
        for a in range(0, n, ROW_BLOCK):
            block = [c[a:min(a + ROW_BLOCK, n)] for c in columns]
            bits = [c for c, f in zip(block, is_float) if f]
            if bits:
                texts = _format_once(np.concatenate(bits), _float_texts)
                floats = iter(texts.reshape(len(bits), -1).tolist())
            cells = []
            for c, f in zip(block, is_float):
                if f:
                    cells.append(next(floats))
                elif isinstance(c, np.ndarray):
                    cells.append(_format_once(
                        c, lambda d: list(map(str, d.tolist()))).tolist())
                else:
                    cells.append([str(v) for v in c])
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _format_once(keys, texts_of):
    """The text of each key, as an object array, from texts_of(distinct
    keys): each distinct key is formatted once."""
    distinct, index = np.unique(keys, return_inverse=True)
    return np.asarray(texts_of(distinct), dtype=object)[index]


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
    _write_csv(out / "solution.csv",
               _meta(cfg, {"pair": f"{pair.r},{pair.R},{pair.r_star},{pair.R_star}",
                           "phi0": FLOAT % sol.phi0, "case": sol.case_tag}),
               ["s", "phi_tilde", "phi", "H", "Hdot", "lambda"],
               [s, sol.phi.phi_tilde, sol.phi.phi, sol.profile.H,
                sol.profile.Hdot, sol.phi.grid.lam])
    _write_json(out / "solution.json", {
        "config_hash": cfg["hash"],
        "phi0": sol.phi0, "r0": sol.r0, "case": sol.case_tag,
        "energy": sol.energy,
        "modulus_target": pair.mod_target,
        "ode_residual": sol.phi.residual,
    })
    return 0


def cmd_thresholds(cfg, out, table):
    """(rho, m, g) per ratio, each on its own interval (see parse_config):
    the threshold and sweep commands, which differ in the table's name."""
    if not cfg.get("rho_values"):
        raise ConfigError("a threshold table needs rho or rho_values")
    n = cfg["numerics"]["ode_grid"]
    rows = [(rho, *rd.thresholds(w, rho, n=n))
            for rho, w in cfg["ratio_weights"]]
    _write_csv(out / table, _meta(cfg), ["rho", "m_lambda", "g_lambda"],
               list(zip(*rows)))
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
        "polar_converged": prep.converged,
        "radial_solves": rrep.iterations,
        "negative_jacobian_fraction": prep.negative_jacobian_fraction,
    })
    # every max(1, n // 64)-th node per axis, row-major in (i, j)
    si, sj = max(1, pm.ns // 64), max(1, pm.ntheta // 64)
    i, j = np.meshgrid(np.arange(0, pm.ns, si), np.arange(0, pm.ntheta, sj),
                       indexing="ij")
    s, theta = np.meshgrid(pm.s[::si], pm.theta[::sj], indexing="ij")
    h = pm.h[::si, ::sj]
    _write_csv(out / "polar_map.csv", _meta(cfg),
               ["i", "j", "s", "theta", "re_h", "im_h"],
               [a.ravel() for a in (i, j, s, theta, h.real, h.imag)])
    return 0


def cmd_verify(cfg, out):
    if "pair" in cfg:
        pair, w = cfg["pair"], cfg["weight"]
    else:   # a fallback pair, with the weight read on its own domain
        pair = rd.AnnulusPair(1, 2, 1, 1.25)
        w = weight_from_config(cfg["weight_spec"], pair.r, pair.R)
    ns, ntheta = cfg["numerics"]["polar_grid"]
    seed = cfg["numerics"]["seed"]
    profile = lg.radial_profile(rd.build(w, pair,
                                         n=cfg["numerics"]["ode_grid"]))
    radial = lg.make_test_map(lg.TestMapSpec("radial", pair, ns, ntheta,
                                             profile=profile))
    maps = [("radial", radial),
            ("twist", lg.make_test_map(lg.TestMapSpec(
                "twist", pair, ns, ntheta, profile=profile, twist=np.log))),
            ("perturbed", dc.perturb_map(radial, 0.02, seed))]
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
    for kind, m in maps:
        for name, fn in checks:
            res = fn(m)
            rows.append((name, kind, f"{ns}x{ntheta}", res.lhs, res.rhs,
                         res.residual, res.rel_residual))
    _write_csv(out / "verify.csv", _meta(cfg),
               ["identity_id", "map_kind", "grid", "lhs", "rhs",
                "residual", "rel_residual"], list(zip(*rows)))
    name, kind, *_, worst = max(rows, key=lambda row: row[-1])
    if worst < 1e-2:
        return 0
    print(f"error: verify: {name} on the {kind} map has relative residual "
          f"{worst:.3g}, not below 1e-2", file=sys.stderr)
    return 1


COMMANDS = {"solve": cmd_solve,
            "threshold": partial(cmd_thresholds, table="thresholds.csv"),
            "energy": cmd_energy, "direct": cmd_direct, "verify": cmd_verify,
            "sweep": partial(cmd_thresholds, table="sweep.csv")}


PARSER = argparse.ArgumentParser(
    prog="annular-dirichlet",
    description="Radial minimizers of the weighted Dirichlet energy "
                "between planar annuli")
PARSER.add_argument("command", choices=sorted(COMMANDS))
PARSER.add_argument("--config", required=True, help="JSON config file")
PARSER.add_argument("--out", default=None, help="output directory")
PARSER.add_argument("--seed", type=int, default=None)
PARSER.add_argument("--grid", type=int, default=None,
                    help="override the ODE grid size")
PARSER.add_argument("--mode", choices=["free", "fixed-outer"], default=None)


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        raw = with_overrides(cfg["raw"], args.seed, args.grid, args.mode)
        if raw != cfg["raw"]:
            cfg = parse_config(raw)
        out = _out_dir(cfg, args.out)
        _echo_config(cfg, out)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
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
