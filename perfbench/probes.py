"""Per-layer micro-timings for the traced run.

Each probe times one call into a layer at a fixed size and reports the
median of several repetitions.  A probe whose entry point is gone (an
internal removed by a later simplification, or a changed signature) is
reported absent instead of raising.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

from annular_dirichlet import cli
from annular_dirichlet import discrete as dc
from annular_dirichlet import lagrangians as lg
from annular_dirichlet import phi_ode as po
from annular_dirichlet import radial as rd
from annular_dirichlet.weights import Weight

from workloads import ODE_GRID, PERTURBATION, aligned_weight, derived_seed

MISSING = (AttributeError, TypeError, ImportError)


def median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


class Probes:
    """Collects probe readings; an entry point that is gone marks the
    reading absent."""

    def __init__(self):
        self.metrics, self.absent = {}, []

    def value(self, name, compute):
        try:
            self.metrics[name] = float(compute())
        except MISSING as e:
            self.absent.append(f"{name} ({type(e).__name__}: {e})")

    def time(self, name, make, reps):
        """`make()` returns the zero-argument call to time."""
        self.value(name, lambda: median_ms(make(), reps))


def run_probes(seed, config_text):
    p = Probes()
    unit = Weight.constant(1.0, 1.0, 2.0)
    pair = rd.AnnulusPair(1.0, 2.0, 1.0, 1.25)
    sol = rd.build(unit, pair, n=ODE_GRID)

    tab = aligned_weight(lambda s: 2.0 + np.sin(4.0 * s))   # 8193 nodes
    p.time("weights.eval_ms", lambda: functools.partial(tab, tab.abscissae), 51)
    p.time("weights.validate_ms", lambda: tab.validate, 21)

    p.time("phi_ode.grid_setup_ms",
           lambda: functools.partial(po.OdeGrid, unit, 1.0, 2.0, ODE_GRID), 21)
    p.time("phi_ode.integrate_ms",
           lambda: functools.partial(po.OdeGrid(unit, 1.0, 2.0, ODE_GRID)
                                     .integrate, 0.0), 9)
    p.time("phi_ode.solve_ms",
           lambda: functools.partial(po.solve_phi_tilde, unit, 1.0, 2.0, 0.0,
                                     n=ODE_GRID), 7)
    p.time("phi_ode.recover_H_ms",
           lambda: functools.partial(po.recover_H, sol.phi, unit, 1.0), 21)

    for n in (128, 256):
        m = dc.perturb_map(dc.embed_radial(sol, n, n), PERTURBATION,
                           derived_seed(seed, n))
        reps = 31 if n == 128 else 11
        p.time(f"discrete.energy_ms.{n}",
               lambda: functools.partial(dc.polar_energy, unit, m, check=False),
               reps)
        p.time(f"discrete.gradient_ms.{n}",
               lambda: functools.partial(dc.polar_gradient, unit, m), reps)
        p.time(f"discrete.project_ms.{n}",
               lambda: functools.partial(dc._project, m.h, m), reps)

    # the verify command's work: test maps and identity residuals
    base = lg.TestMapSpec("radial", pair, 256, 256, weight=unit)
    specs = [base,
             lg.TestMapSpec("twist", pair, 256, 256, weight=unit, twist=np.log),
             lg.TestMapSpec("perturbed", pair, 256, 256, base=base,
                            amplitude=0.02, seed=derived_seed(seed) % 2 ** 31)]
    one = np.ones_like
    c_one = lg.CFunction(lambda s, G: 1.0, lambda s, G: 0.0, lambda s, G: 0.0)

    def identities(m):
        return [lg.fl_pullback_residual(m, lambda G: one(G)),
                lg.fl_radial_residual(m, lambda G: one(G)),
                lg.fl_tangential_residual(m, lambda s: one(s)),
                lg.fl_boundary_residual(m, c_one)]

    p.time("lagrangians.make_test_map_ms.256",
           lambda: functools.partial(lg.make_test_map, base), 5)
    maps = [lg.make_test_map(spec) for spec in specs]
    p.time("lagrangians.identity_ms.256",
           lambda: functools.partial(identities, maps[0]), 5)
    p.value("lagrangians.worst_rel_residual",
            lambda: max(r.rel_residual for m in maps for r in identities(m)))
    big = dc.perturb_map(dc.embed_radial(sol, 512, 512), 0.03,
                         derived_seed(seed, 512))
    p.time("lagrangians.iso_margins_ms.512",
           lambda: functools.partial(lg.isoperimetric_margins, big), 5)

    p.time("cli.parse_config_ms",
           lambda: functools.partial(cli.parse_config, config_text), 51)
    return p.metrics, p.absent
