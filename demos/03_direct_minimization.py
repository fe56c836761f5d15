"""Direct energy minimization, 1-D and 2-D, against the closed form.

The 1-D path minimizes over radial profiles H(s) >= r* with one banded
solve, which also gives the contact index of a collapse plateau.  The 2-D
path minimizes over full polar-grid maps with the boundary rows on the
target circles, started from a smooth random perturbation of the grid's
radial candidate (the same banded solve at the grid's angular step): the
interior is eliminated exactly, mode by mode, and the descent moves only
the two boundary rows.  Neither ever beats the closed form, and both
approach it from above.
"""

import numpy as np

from annular_dirichlet import (AnnulusPair, Weight, build, minimize_polar,
                               minimize_radial)

w = Weight.constant(1.0, 1.0, 2.0)
pair = AnnulusPair(1.0, 2.0, 1.0, 1.25)
sol = build(w, pair)
exact = sol.energy
print(f"closed-form minimum: {exact:.10f}  (= 15 pi / 8)")

rv, rrep = minimize_radial(w, pair, n=2048)
print(f"1-D minimizer:       {rrep.total:.10f}  "
      f"(rel gap {abs(rrep.total - exact) / exact:.2e}, "
      f"{rrep.iterations} banded solve(s))")

print()
print("2-D minimization from perturbed starts (128 x 128):")
from annular_dirichlet import embed_radial, polar_energy
discrete_min = polar_energy(w, embed_radial(sol, 128, 128)).total
print(f"discrete energy of the embedded radial minimizer: "
      f"{discrete_min:.8f}")
for seed in range(4):
    m, prep = minimize_polar(w, pair, ns=128, ntheta=128, seed=seed,
                             perturbation=0.05)
    print(f"  seed {seed}: E = {prep.total:.8f}, "
          f"gap vs embedded minimizer {prep.total - discrete_min:+.2e}, "
          f"converged {prep.converged} in {prep.iterations} steps, "
          f"negative-Jacobian cells {prep.negative_jacobian_fraction:.1%}")
print("no run beats the radial map beyond discretization error, and all")
print(f"stay above the certified bound {exact * (1 - 5e-3):.8f}")
