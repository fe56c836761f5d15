"""The two threshold curves of a weight.

m(rho): the radial minimizer between A(1, rho) and the target is
injective iff the target ratio is at least m(rho).  For the unit weight
this is the classical (rho^2+1)/(2 rho) bound.

g(rho): if the target ratio is at most g(rho), the radial minimizer is
the global minimum among all homeomorphisms.  For the unit weight
g(rho) = rho.
"""

import numpy as np

from annular_dirichlet import Weight, threshold_g, threshold_m

unit = Weight.constant(1.0, 1.0, 2.0)

print("unit weight")
print(f"{'rho':>6} {'m(rho)':>16} {'(rho^2+1)/2rho':>16} {'g(rho)':>16}")
for rho in (1.5, 2.0, 3.0, 5.0):
    m = threshold_m(unit, rho)
    g = threshold_g(unit, rho)
    print(f"{rho:6.2f} {m:16.10f} {(rho * rho + 1) / (2 * rho):16.10f} "
          f"{g:16.10f}")

print()
print("oscillating weight lambda(s) = 2 + sin(4s)")
print(f"{'rho':>6} {'m(rho)':>16} {'g(rho)':>16}")
for rho in (1.5, 2.0, 3.0):
    # a weight answers every ratio up to its own, on [1, rho]; tabulate it
    # on [1, rho] itself, so that its samples fall on that grid's nodes
    # (one tabulation on [1, 3] puts kinks between the nodes of [1, 1.5]
    # and [1, 2], and the ODE residual check then fails there)
    w = Weight.from_callable(lambda s: 2.0 + np.sin(4.0 * s), 1.0, rho,
                             samples=8193)
    print(f"{rho:6.2f} {threshold_m(w, rho):16.10f} "
          f"{threshold_g(w, rho):16.10f}")
print("for moderate ratios m(rho) < g(rho): a strip of target ratios")
print("where the radial map is injective and certified globally minimal;")
print("for wider domains the two curves can cross")
