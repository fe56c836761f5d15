"""Numerical toolkit for radial minimizers of the weighted Dirichlet
energy between planar annuli."""

from .weights import Weight, WeightError, weight_from_config
from .phi_ode import (OdeGrid, PhiSolution, RadialProfile, clamp_and_collapse,
                      modulus_of, recover_H, solve_phi_tilde)
from .radial import (AnnulusPair, CertificateReport, FixedBoundaryCoeffs,
                     RadialSolution, build, claim1_certificate,
                     energy_closed_form, find_initial_value,
                     fixed_boundary_coefficients, threshold_g, threshold_m)
from .discrete import (EnergyReport, PolarGridMap, RadialVector, embed_radial,
                       minimize_polar, minimize_radial, perturb_map,
                       polar_energy, polar_gradient, radial_energy,
                       winding_number)
from .lagrangians import (CFunction, IdentityResidual, TestMapSpec,
                          fl_boundary_residual, fl_pullback_residual,
                          fl_radial_residual, fl_tangential_residual,
                          isoperimetric_margins,
                          make_test_map, proof_step_suite)

__version__ = "0.1.0"
