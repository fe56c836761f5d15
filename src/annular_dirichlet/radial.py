"""Radial minimizer construction, thresholds and proof certificates.

Builds the radial minimizer for an annulus pair from its initial value
phi0 (one division in the homeomorphism case, a bisection in the
collapsing case), computes the homeomorphism threshold m and the
thin-target threshold g, the closed-form minimal energies, and the
numerical certificates behind the monotone-weight and fixed-boundary
minimality proofs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phi_ode import (DEFAULT_N, OdeGrid, PhiSolution, RadialProfile,
                      _simpson, clamp_and_collapse, fd_derivative, recover_H,
                      solve_phi_tilde)
from .weights import Weight

MODULUS_TOL = 1e-10
PHI0_INTERVAL_TOL = 1e-12
RATIO_RTOL = 1e-12         # interval ratios this close are the same ratio
CERTIFICATE_TOL = 1e-8     # margins this far below zero fail

CASE1 = "case1"   # homeomorphism: phi0 >= 0
CASE2 = "case2"   # collapsing: phi0 < 0, flat profile on [r, r0]


class CertificateError(RuntimeError):
    """A certificate margin is negative where theory forbids it."""


@dataclass(frozen=True)
class AnnulusPair:
    r: float
    R: float
    r_star: float
    R_star: float

    def __post_init__(self):
        if not (0 < self.r < self.R):
            raise ValueError(f"domain radii must satisfy 0 < r < R: {self}")
        if not (0 < self.r_star < self.R_star):
            raise ValueError(f"target radii must satisfy 0 < r* < R*: {self}")

    @property
    def mod_domain(self):
        return float(np.log(self.R / self.r))

    @property
    def mod_target(self):
        return float(np.log(self.R_star / self.r_star))


@dataclass
class RadialSolution:
    pair: AnnulusPair
    phi: PhiSolution
    profile: RadialProfile
    case_tag: str
    energy: float

    @property
    def phi0(self):
        return self.phi.phi0

    @property
    def r0(self):
        return self.phi.r0


@dataclass
class CertificateReport:
    c: float
    tau: np.ndarray
    margin_tau: float
    margin_tau_dot: float
    margin_angular: float      # lambda/s - tau_dot
    margin_radial: float       # s*lambda - c/Hdot
    identity_residual: float   # |(lambda/s - tau_dot)(s lambda - c/Hdot) - tau^2|
    obs2_residual: float       # |d/ds(H Phi) - lambda H / s|


@dataclass
class FixedBoundaryCoeffs:
    g: np.ndarray        # Phi^2/(Phi^2 + lambda^2), in [0, 1)
    rho1: np.ndarray     # Phi * H
    rho2: np.ndarray     # lambda * H / s
    residual: float      # max |d rho1/ds - rho2| where the ODE holds


def find_initial_value(w: Weight, pair: AnnulusPair, n=DEFAULT_N,
                       grid: OdeGrid | None = None):
    """Initial value phi0 whose target modulus matches the annulus pair.

    Case 1 (phi0 >= 0): the path never clamps and H = h0 + phi0 h1 ends
    at R*/r*, so phi0 = (R*/r* - h0(R)) / h1(R).  Case 2: bisection of the
    clamped path's modulus, nondecreasing in phi0, on [-max lambda, 0] (a
    path from -max lambda stays below it, with modulus 0).
    """
    g = grid if grid is not None else OdeGrid(w, pair.r, pair.R, n)
    h0, h1, _, _ = g.columns
    phi0 = (pair.R_star / pair.r_star - h0[-1]) / h1[-1]
    if phi0 >= 0:
        return float(phi0)
    target = pair.mod_target

    def mod(phi0):
        y = np.maximum(0.0, g.integrate(phi0))
        return g.modulus(y)

    lo, hi = -g.lam_max, 0.0
    scale = max(1.0, g.lam_max)
    while hi - lo > PHI0_INTERVAL_TOL * scale:
        mid = 0.5 * (lo + hi)
        m = mod(mid)
        if abs(m - target) <= MODULUS_TOL:
            lo = hi = mid
            break
        if m < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def build(w: Weight, pair: AnnulusPair, n=DEFAULT_N):
    """Construct the radial minimizer end to end for the given pair."""
    grid = OdeGrid(w, pair.r, pair.R, n)
    phi0 = find_initial_value(w, pair, grid=grid)
    p = clamp_and_collapse(solve_phi_tilde(w, pair.r, pair.R, phi0, grid=grid), w)
    profile = recover_H(p, w, pair.r_star)
    # pin the outer target radius exactly; the modulus already matches to tol
    factor = pair.R_star / profile.H[-1]
    profile.H *= factor
    profile.Hdot *= factor
    profile.H[-1] = pair.R_star   # the product can land one ulp off
    case = CASE1 if phi0 >= 0 else CASE2
    sol = RadialSolution(pair=pair, phi=p, profile=profile, case_tag=case,
                         energy=0.0)
    sol.energy = energy_closed_form(sol, w)
    return sol


def _threshold_grid(w: Weight, rho, n):
    """Grid for a threshold at ratio rho.  Thresholds depend only on the
    ratio: the weight's own interval serves when its ratio is rho,
    otherwise [1, rho] with a transported copy of the weight."""
    if rho <= 1:
        raise ValueError(f"need rho > 1, got {rho}")
    r, R = w.r, w.R
    if not abs(R / r - rho) <= RATIO_RTOL * abs(rho):
        w, r, R = _transport(w, 1.0, rho), 1.0, rho
    return OdeGrid(w, r, R, n)


def threshold_m(w: Weight, rho, n=DEFAULT_N):
    """Homeomorphism threshold: exp of the modulus integral at phi0 = 0."""
    return _threshold_m(_threshold_grid(w, rho, n))


def threshold_g(w: Weight, rho, n=DEFAULT_N):
    """Thin-target threshold: exp of the modulus of the largest solution
    staying below the weight everywhere (see `_threshold_g`)."""
    return _threshold_g(_threshold_grid(w, rho, n))


def thresholds(w: Weight, rho, n=DEFAULT_N):
    """(m, g) at ratio rho, both from one grid and its fundamental matrix;
    equal to (threshold_m, threshold_g) bit for bit."""
    g = _threshold_grid(w, rho, n)
    return _threshold_m(g), _threshold_g(g)


def _threshold_m(g: OdeGrid):
    p = solve_phi_tilde(g.w, g.s[0], g.s[-1], 0.0, grid=g)
    return float(np.exp(g.modulus(np.maximum(0.0, p.phi_tilde))))


def _threshold_g(g: OdeGrid):
    """Thin-target threshold on the grid of its ratio.

    With (H, q) = F (1, phi0) from the grid's fundamental matrix, the
    condition phi_tilde = q/H <= lambda at a node where H > 0 reads
    a + phi0 b <= 0, a = q0 - lambda h0, b = q1 - lambda h1.  phi_tilde
    grows with phi0, so the largest admissible phi0 is the least -a/b over
    the nodes with b > 0 (b = 1 at the left end).

    phi_tilde/lambda = H_t/H and q = lambda H_t increases, so H has a
    single minimum, where the clamped path has its kink.  From there to
    the first node k with phi_tilde >= 0 the modulus is ln(H_k / min H),
    with min H from the cubic Hermite interpolant of H on that cell; from
    node k on, Simpson's rule integrates a smooth phi_tilde/lambda.  (A
    ratio of H over the whole interval would carry the accumulated
    rounding of the fundamental matrix, which phi_tilde = q/H cancels.)
    """
    h0, h1, q0, q1 = g.columns
    a, b = q0 - g.lam * h0, q1 - g.lam * h1
    up = b > 0
    phi_g = float(np.min(-a[up] / b[up]))
    y = g.integrate(phi_g)
    k = int(np.searchsorted(y >= 0, True))
    ratio = 1.0                     # H_k / min H; H(r) = 1 is least if k = 0
    if k > 0:
        cell = slice(k - 1, k + 1)
        H = h0[cell] + phi_g * h1[cell]
        dH = g.h * (q0[cell] + phi_g * q1[cell]) / g.lam[cell]   # per cell
        ratio = H[1] / _cell_minimum(H[0], H[1], dH[0], dH[1])
    return float(ratio * np.exp(_simpson(y[k:] / g.lam[k:], g.h)))


def _cell_minimum(y0, y1, d0, d1):
    """Least value on [0, 1] of the cubic with end values y0, y1 and end
    slopes d0, d1 (per unit cell)."""
    c2, c3 = 3 * (y1 - y0) - 2 * d0 - d1, 2 * (y0 - y1) + d0 + d1
    u = np.roots([3 * c3, 2 * c2, d0])
    u = u[(u.imag == 0) & (u.real >= 0) & (u.real <= 1)].real
    return float(min(y0, y1, *(y0 + u * (d0 + u * (c2 + u * c3)))))


def _transport(w: Weight, r, R):
    """Copy of the weight rescaled in s to live on [r, R]."""
    if w.kind == "constant":
        return Weight.constant(w.value, r, R)
    if not abs(R / r - w.R / w.r) <= RATIO_RTOL * abs(w.R / w.r):
        raise ValueError(
            "threshold ratio must match the weight's interval ratio "
            "(except for constant weights)")
    k = r / w.r
    if w.kind == "power":
        return Weight.power(w.exponent, r, R, value=w.value * k ** (-w.exponent))
    return Weight.tabulated(w.abscissae * k, w.ordinates, r=r, R=R)


def energy_closed_form(sol: RadialSolution, w: Weight):
    """Minimal energy of the pair from the boundary values of Phi.

    Case 1: 2 pi (R*^2 Phi(R) - r*^2 Phi(r)).
    Case 2: 2 pi R*^2 Phi(R) + 2 pi r*^2 int_r^{r0} lambda/s ds.
    """
    pair = sol.pair
    phiR = float(sol.phi.phi[-1])
    if sol.case_tag == CASE1:
        phir = float(sol.phi.phi[0])
        return float(2 * np.pi * (pair.R_star ** 2 * phiR
                                  - pair.r_star ** 2 * phir))
    t = np.linspace(np.log(pair.r), np.log(sol.r0), 2049)
    lam = np.asarray(w(np.minimum(np.exp(t), pair.R)), dtype=float)
    collapse = _simpson(lam, t[1] - t[0])
    return float(2 * np.pi * (pair.R_star ** 2 * phiR
                              + pair.r_star ** 2 * collapse))


def _smooth_start(sol: RadialSolution):
    """First grid index from which the unclamped ODE holds (s >= r0)."""
    if sol.case_tag == CASE1:
        return 0
    return int(np.searchsorted(sol.phi.s, sol.r0, side="left"))


def claim1_certificate(sol: RadialSolution, w: Weight):
    """Margins and residuals for the tau-identity certificate.

    Requires a nondecreasing weight.  The constant is c = H(r) Phi(r)
    (zero in the collapsing case).  Derivatives are 4th-order finite
    differences restricted to the range where the unclamped ODE holds.
    """
    if not w.is_nondecreasing():
        raise CertificateError(
            "certificate requires a nondecreasing weight")
    s = sol.phi.s
    h = sol.phi.t[1] - sol.phi.t[0]
    lam = np.asarray(w(s), dtype=float)
    phi = sol.phi.phi
    H = sol.profile.H
    Hdot = sol.profile.Hdot
    c = float(H[0] * phi[0])
    tau = phi - c / H

    i0 = _smooth_start(sol)
    tau_dot = np.zeros_like(tau)
    if len(tau) - i0 >= 6:
        tau_dot[i0:] = fd_derivative(tau[i0:], h) / s[i0:]
    ang = lam / s - tau_dot

    if c == 0.0:
        # collapse region contributes s*lambda since the c/Hdot term vanishes
        rad = s * lam
    else:
        # c/Hdot = c*s*lambda/(H*Phi); the quotient form avoids cancellation
        # where Hdot is tiny, and H*Phi >= c by the monotonicity of H*Phi
        rad = s * lam * (1.0 - c / (H * phi))

    ident = np.abs(ang[i0:] * rad[i0:] - tau[i0:] ** 2)
    hphi_dot = fd_derivative((H * phi)[i0:], h) / s[i0:]
    obs2 = np.abs(hphi_dot - (lam * H / s)[i0:])

    report = CertificateReport(
        c=c,
        tau=tau,
        margin_tau=float(np.min(tau[i0:])),
        margin_tau_dot=float(np.min(tau_dot[i0:])),
        margin_angular=float(np.min(ang[i0:])),
        margin_radial=float(np.min(rad[i0:])),
        identity_residual=float(np.max(ident)),
        obs2_residual=float(np.max(obs2)),
    )
    margins = [report.margin_tau, report.margin_tau_dot,
               report.margin_angular, report.margin_radial]
    if min(margins) < -CERTIFICATE_TOL:
        raise CertificateError(
            f"negative certificate margin with nondecreasing weight: {margins}")
    return report


def fixed_boundary_coefficients(sol: RadialSolution, w: Weight):
    """Coefficients of the fixed-outer-boundary estimate and their identity
    residual d(Phi H)/ds = lambda H / s on the range where the ODE holds."""
    s = sol.phi.s
    h = sol.phi.t[1] - sol.phi.t[0]
    lam = np.asarray(w(s), dtype=float)
    phi = sol.phi.phi
    H = sol.profile.H
    g = phi ** 2 / (phi ** 2 + lam ** 2)
    rho1 = phi * H
    rho2 = lam * H / s
    i0 = _smooth_start(sol)
    rho1_dot = fd_derivative(rho1[i0:], h) / s[i0:]
    residual = float(np.max(np.abs(rho1_dot - rho2[i0:])))
    return FixedBoundaryCoeffs(g=g, rho1=rho1, rho2=rho2, residual=residual)
