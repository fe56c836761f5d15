"""Acceptance suite: ten criteria, one printed pass/fail line each.

Every criterion is checked against an analytically derived closed form or
an independent property (lower bounds, invariances, convergence orders).
"""

import time

import numpy as np
import pytest

from annular_dirichlet import discrete as dc
from annular_dirichlet import lagrangians as lg
from annular_dirichlet import radial as rd
from annular_dirichlet.weights import Weight

UNIT = Weight.constant(1.0, 1.0, 2.0)
NITSCHE = 15 * np.pi / 8
N_SEEDS = 20


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"\n[acceptance {num:02d}] {description}: {status}{tail}")
    assert ok, f"criterion {num} failed: {description} {tail}"


def aligned_weight(f, r=1.0, R=2.0, n=4096):
    """Tabulated weight whose nodes coincide with the ODE evaluation
    points, so the interpolant is never sampled off-node."""
    return Weight.from_callable(f, r, R, samples=2 * n + 1)


def test_criterion_01_homeomorphism_threshold():
    t0 = time.perf_counter()
    errs = []
    for rho in (1.5, 2.0, 5.0):
        m = rd.threshold_m(UNIT, rho)
        errs.append(abs(m - (rho * rho + 1) / (2 * rho)))
    elapsed = time.perf_counter() - t0
    ok = max(errs) < 1e-8 and elapsed < 1.0
    report(1, "homeomorphism threshold closed form", ok,
           f"max err {max(errs):.2e}, {elapsed:.2f}s")


def test_criterion_02_case1_minimal_energy():
    t0 = time.perf_counter()
    pair = rd.AnnulusPair(1.0, 2.0, 1.0, 1.25)
    sol = rd.build(UNIT, pair)
    closed_err = abs(sol.energy - NITSCHE)

    _, rrep = dc.minimize_radial(UNIT, pair, n=2048)
    radial_rel = abs(rrep.total - NITSCHE) / NITSCHE

    lower = NITSCHE * (1 - 5e-3)
    polar_min = np.inf
    converged = True
    for seed in range(N_SEEDS):
        _, prep = dc.minimize_polar(UNIT, pair, ns=256, ntheta=256,
                                    seed=seed, perturbation=0.05,
                                    max_iter=350)
        polar_min = min(polar_min, prep.total)
        converged &= prep.converged
    elapsed = time.perf_counter() - t0
    ok = (closed_err < 1e-6 and radial_rel < 5e-3 and converged
          and polar_min >= lower and elapsed < 120.0)
    report(2, "expanding-target minimal energy (closed form, 1-D, 2-D)", ok,
           f"closed err {closed_err:.1e}, radial rel {radial_rel:.1e}, "
           f"polar min/bound {polar_min / lower:.6f}, "
           f"converged {converged}, {elapsed:.0f}s")


def test_criterion_03_case2_collapse():
    pair = rd.AnnulusPair(1.0, 2.0, 1.0, 3.0 / (2 * np.sqrt(2.0)))
    sol = rd.build(UNIT, pair)
    r0_err = abs(sol.r0 - np.sqrt(2.0))
    exact = 2 * np.pi * (3.0 / 8.0 + np.log(2.0) / 2.0)
    closed_err = abs(sol.energy - exact)

    rv, rrep = dc.minimize_radial(UNIT, pair, n=2048)
    plateau = np.flatnonzero(rv.H <= pair.r_star + 1e-6)
    has_plateau = plateau.size > 100 and \
        abs(rv.s[plateau[-1]] - np.sqrt(2.0)) < 5e-3
    radial_rel = abs(rrep.total - exact) / exact
    ok = (r0_err < 1e-6 and closed_err < 1e-5
          and has_plateau and radial_rel < 1e-2)
    report(3, "thin-target collapse radius and minimal energy", ok,
           f"r0 err {r0_err:.1e}, closed err {closed_err:.1e}, "
           f"radial rel {radial_rel:.1e}")


def test_criterion_04_conformal_sanity():
    pair = rd.AnnulusPair(1.0, 2.0, 1.0, 2.0)
    sol = rd.build(UNIT, pair)
    closed_err = abs(sol.energy - 6 * np.pi)
    m0 = dc.embed_radial(sol, 256, 256)
    e0 = dc.polar_energy(UNIT, m0).total
    _, prep = dc.minimize_polar(UNIT, pair, ns=256, ntheta=256,
                                init=m0, max_iter=300)
    drift = abs(prep.total - e0) / e0
    ok = closed_err < 1e-6 and drift < 2e-3
    report(4, "conformal configuration energy and fixed point", ok,
           f"closed err {closed_err:.1e}, drift {drift:.1e}")


def test_criterion_05_thin_target_threshold():
    errs = [abs(rd.threshold_g(UNIT, rho) - rho) for rho in (1.5, 2.0, 5.0)]
    g_ok = max(errs) < 1e-6

    w = aligned_weight(lambda s: 2.0 + np.sin(4.0 * s))
    g_l = rd.threshold_g(w, 2.0)
    pair = rd.AnnulusPair(1.0, 2.0, 1.0, 0.95 * g_l)
    sol = rd.build(w, pair)
    lower = sol.energy * (1 - 5e-3)
    polar_min = np.inf
    converged = True
    for seed in range(N_SEEDS):
        _, prep = dc.minimize_polar(w, pair, ns=128, ntheta=128,
                                    seed=seed, perturbation=0.05,
                                    max_iter=250)
        polar_min = min(polar_min, prep.total)
        converged &= prep.converged
    ok = g_ok and converged and polar_min >= lower
    report(5, "thin-target threshold and no-competitor bound", ok,
           f"max g err {max(errs):.1e}, polar min/bound "
           f"{polar_min / lower:.6f}, converged {converged}")


def test_criterion_06_fixed_outer_boundary():
    w = Weight.power(-1.0, 1.0, 2.0)      # decreasing weight 1/s
    pair = rd.AnnulusPair(1.0, 2.0, 1.0, 1.5)
    sol = rd.build(w, pair)
    fb = rd.fixed_boundary_coefficients(sol, w)
    lower = sol.energy * (1 - 5e-3)
    polar_min = np.inf
    converged = True
    for seed in range(N_SEEDS):
        _, prep = dc.minimize_polar(w, pair, ns=128, ntheta=128,
                                    mode=dc.MODE_FIXED_OUTER, seed=seed,
                                    perturbation=0.05, max_iter=250)
        polar_min = min(polar_min, prep.total)
        converged &= prep.converged
    ok = converged and polar_min >= lower and fb.residual <= 1e-6
    report(6, "fixed outer boundary: radial optimality and coefficients", ok,
           f"polar min/bound {polar_min / lower:.6f}, "
           f"coeff residual {fb.residual:.1e}, converged {converged}")


def test_criterion_07_certificate():
    weights = [
        # the exponential weight is tabulated, so it needs a grid whose
        # evaluation points coincide with its nodes at a finer resolution
        ("1", Weight.constant(1.0, 1.0, 2.0), 4096),
        ("s", Weight.power(1.0, 1.0, 2.0), 4096),
        ("e^s", aligned_weight(np.exp, n=8192), 8192),
    ]
    # five expanding-target pairs and five collapsing-target pairs
    case1 = [rd.AnnulusPair(1, 2, 1, x) for x in (1.3, 1.6, 2.0, 3.0, 5.0)]
    case2 = [rd.AnnulusPair(1, 2, 1, x) for x in
             (1.005, 1.01, 1.03, 1.06, 1.1)]
    worst_margin, worst_res = np.inf, 0.0
    for _, w, n in weights:
        for pair in case1 + case2:
            sol = rd.build(w, pair, n=n)
            rep = rd.claim1_certificate(sol, w)
            worst_margin = min(worst_margin, rep.margin_tau,
                               rep.margin_tau_dot, rep.margin_angular,
                               rep.margin_radial)
            worst_res = max(worst_res, rep.identity_residual)
    ok = worst_margin >= -1e-8 and worst_res <= 1e-8
    report(7, "pointwise lower-bound certificate across weights and pairs",
           ok, f"worst margin {worst_margin:.1e}, "
           f"worst identity residual {worst_res:.1e}")


def _identity_checks():
    one = np.ones_like
    return [
        ("pullback", lambda m: lg.fl_pullback_residual(m, lambda G: G)),
        ("radial", lambda m: lg.fl_radial_residual(m, np.cos)),
        ("tangential", lambda m: lg.fl_tangential_residual(
            m, lambda s: 1.0 / s)),
        ("boundary", lambda m: lg.fl_boundary_residual(
            m, lg.CFunction(lambda s, G: np.log(s) * one(np.asarray(G)),
                            lambda s, G: 1.0 / s * one(np.asarray(G)),
                            lambda s, G: 0.0 * np.asarray(G)))),
    ]


def test_criterion_08_free_lagrangians():
    pair = rd.AnnulusPair(1.0, 2.0, 1.0, 2.0)
    sol = rd.build(UNIT, pair)
    base = dc.embed_radial(sol, 512, 512)
    checks = _identity_checks()
    worst_rel, worst_iso = 0.0, np.inf
    for seed in range(N_SEEDS):
        m = dc.perturb_map(base, 0.03, seed)
        for _, fn in checks:
            worst_rel = max(worst_rel, fn(m).rel_residual)
        worst_iso = min(worst_iso, lg.isoperimetric_margins(m).min())

    # residual convergence order under grid doubling (fixed seed)
    orders = []
    for name, fn in checks:
        res = []
        for n in (128, 256, 512):
            mn = dc.perturb_map(dc.embed_radial(sol, n, n), 0.03, 1)
            res.append(fn(mn).residual)
        orders.append(min(np.log2(res[0] / res[1]),
                          np.log2(res[1] / res[2])))
    ok = worst_rel < 1e-3 and worst_iso >= -1e-9 and min(orders) >= 1.5
    report(8, "free-Lagrangian identities, convergence, isoperimetry", ok,
           f"worst rel {worst_rel:.1e}, worst iso margin {worst_iso:.1e}, "
           f"min order {min(orders):.2f}")


def test_criterion_09_gradient_correctness():
    pair = rd.AnnulusPair(1.0, 2.0, 1.0, 2.0)
    w = aligned_weight(lambda s: 2.0 + np.sin(4.0 * s))
    sol = rd.build(w, pair)
    base = dc.embed_radial(sol, 48, 40)
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = dc.perturb_map(base, 0.04, seed)
        g = dc.polar_gradient(w, m)
        d = (rng.standard_normal(m.h.shape)
             + 1j * rng.standard_normal(m.h.shape))
        d[0] = d[-1] = 0.0
        eps = 1e-6
        ep = dc.polar_energy(w, dc.PolarGridMap(m.h + eps * d, pair),
                             check=False).total
        em = dc.polar_energy(w, dc.PolarGridMap(m.h - eps * d, pair),
                             check=False).total
        fd = (ep - em) / (2 * eps)
        pairing = float(np.sum(g.real * d.real + g.imag * d.imag))
        worst = max(worst, abs(pairing - fd) / max(abs(fd), 1e-300))
    ok = worst < 1e-6
    report(9, "energy gradient matches finite differences", ok,
           f"worst rel err {worst:.1e}")


def test_criterion_10_invariances():
    f = lambda s: 2.0 + np.sin(4.0 * s)
    w = aligned_weight(f)
    m0, g0 = rd.threshold_m(w, 2.0), rd.threshold_g(w, 2.0)

    worst = 0.0
    for c in (0.1, 7.0):
        wc = w.scale(c)
        worst = max(worst, abs(rd.threshold_m(wc, 2.0) - m0),
                    abs(rd.threshold_g(wc, 2.0) - g0))

    k = 3.0
    wk = aligned_weight(lambda s: f(s / k), k, 2 * k)
    worst = max(worst, abs(rd.threshold_m(wk, 2.0) - m0),
                abs(rd.threshold_g(wk, 2.0) - g0))

    ladder = [1.2, 1.5, 2.0, 3.0, 5.0]
    ms = [rd.threshold_m(UNIT, rho) for rho in ladder]
    gs = [rd.threshold_g(UNIT, rho) for rho in ladder]
    monotone = (np.all(np.diff(ms) > 0) and np.all(np.diff(gs) > 0))
    ok = worst < 1e-8 and monotone
    report(10, "threshold invariances (weight scaling, domain scaling)", ok,
           f"worst invariance err {worst:.1e}, ladder strictly increasing: "
           f"{bool(monotone)}")
