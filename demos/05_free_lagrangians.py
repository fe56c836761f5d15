"""Free-Lagrangian identities and the proof-step margins.

A free Lagrangian is an integrand whose integral over the annulus is the
same for every admissible map — it depends only on the boundary data.
The four families here (pullback, radial, tangential, boundary) are
verified by quadrature on generated test maps.  The isoperimetric margin
of each image circle and the chained proof-step estimates are all
nonnegative, and collapse to zero exactly at the radial minimizer.
"""

import numpy as np

from annular_dirichlet import (AnnulusPair, CFunction, TestMapSpec, Weight,
                               build, embed_radial, fl_boundary_residual,
                               fl_pullback_residual, fl_radial_residual,
                               fl_tangential_residual, isoperimetric_margins,
                               make_test_map, proof_step_suite)
from annular_dirichlet.discrete import perturb_map

pair = AnnulusPair(1.0, 2.0, 1.0, 2.0)
w = Weight.constant(1.0, 1.0, 2.0)
sol = build(w, pair)

base = embed_radial(sol, 256, 256)
m = perturb_map(base, 0.05, seed=11)

print("identity residuals on a randomly perturbed admissible map:")
checks = [
    ("pullback  (N(|h|) J)", fl_pullback_residual(m, lambda G: G)),
    ("radial    (A(|h|) d|h|)", fl_radial_residual(m, np.cos)),
    ("tangential(B(s) Im h_th/h)",
     fl_tangential_residual(m, lambda s: 1.0 / s)),
    ("boundary  (C(s,|h|) form)",
     fl_boundary_residual(m, CFunction(lambda s, G: np.log(s),
                                       lambda s, G: 1.0 / s,
                                       lambda s, G: 0.0))),
]
for name, r in checks:
    print(f"  {name}: lhs {r.lhs:+.8f}  rhs {r.rhs:+.8f}  "
          f"rel {r.rel_residual:.1e}")

print()
print(f"isoperimetric margins over all rows: min = "
      f"{isoperimetric_margins(m).min():.2e} (>= 0 up to rounding)")

print()
rep = proof_step_suite(m, sol)
print("proof-step margins for the perturbed competitor:")
print(f"  per-ray Cauchy-Schwarz step: {rep.westim1:.3e}")
print(f"  weighted isoperimetric step: {rep.westim2:.3e}")
print(f"  boundary free-Lagrangian step: {rep.westim4:.3e}")
print(f"  energy above the minimum:    {rep.energy_margin:.3e}")

rep0 = proof_step_suite(base, sol)
print("same margins at the embedded radial minimizer (all ~ 0):")
print(f"  {rep0.westim1:.1e}, {rep0.westim2:.1e}, {rep0.westim4:.1e}, "
      f"{rep0.energy_margin:.1e}")
