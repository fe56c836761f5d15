"""Radial minimizer construction, thresholds and proof certificates.

Builds the radial minimizer for an annulus pair from its initial value
phi0 (one division in the homeomorphism case; in the collapsing case
safeguarded Newton on the clamped modulus ln H(R) - ln min H, read from
the grid's fundamental matrix like the profile), computes the homeomorphism
threshold m = h0(R) and the thin-target threshold g, the closed-form
minimal energies, and the numerical certificates behind the
monotone-weight and fixed-boundary minimality proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phi_ode import (DEFAULT_N, FD_STENCIL, AccuracyError, OdeGrid,
                      PhiSolution, RadialProfile, _hermite, _kink, _simpson,
                      fd_derivative, recover_H)
from .weights import Weight

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
        if not (0 < self.r < self.R < np.inf):
            raise ValueError(f"need finite domain radii 0 < r < R: {self}")
        if not (0 < self.r_star < self.R_star < np.inf):
            raise ValueError(f"need finite target radii 0 < r* < R*: {self}")

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
    """Least margins and largest identity residual of the tau-identity
    certificate on the nodes on [r0, R]."""
    c: float
    margin_tau: float
    margin_tau_dot: float
    margin_angular: float      # lambda/s - tau_dot
    margin_radial: float       # s*lambda - c/Hdot
    identity_residual: float   # |(lambda/s - tau_dot)(s lambda - c/Hdot) - tau^2|


@dataclass
class FixedBoundaryCoeffs:
    g: np.ndarray        # Phi^2/(Phi^2 + lambda^2), in [0, 1)
    rho1: np.ndarray     # Phi * H
    rho2: np.ndarray     # lambda * H / s
    residual: float      # max |d rho1/ds - rho2| where the ODE holds


def find_initial_value(grid: OdeGrid, pair: AnnulusPair):
    """Initial value phi0 whose target modulus matches the annulus pair, on
    `grid`, the OdeGrid of the pair's domain and the weight.

    Case 1 (phi0 >= 0): the path never clamps and its H (`grid.integrate`)
    ends at R*/r*, so phi0 = (R*/r* - h0(R)) / h1(R).  Case 2: safeguarded
    Newton on v = sqrt(2 modulus) ~ T - t_min, with the clamped path's
    modulus ln H(T) - ln min H, min H at its kink (`_kink`).  By the
    envelope rule dv/dphi0 = (h1(T)/H(T) - h1(t_min)/min H)/v, h1(t_min)
    from the cubic Hermite on the kink's cell.  The bracket's ends need no
    path: from -q0/q1 (at T) the kink is at T, so v = 0 with slope
    q1^2/(W lambda), W = h0 q1 - h1 q0; from 0 it is at r, so v =
    sqrt(2 ln h0) with slope h1/(h0 v).  Each step is Newton's from the
    last path, else from the bracket's other end, else bisection.
    """
    h0, h1, q0, q1 = grid.columns
    phi0 = (pair.R_star / pair.r_star - h0[-1]) / h1[-1]
    if phi0 >= 0:
        return float(phi0)
    target = math.sqrt(2.0 * pair.mod_target)
    h0T, h1T, q0T, q1T, lT = (float(a[-1]) for a in (h0, h1, q0, q1, grid.lam))
    v0 = math.sqrt(2.0 * math.log(h0T))
    lo = (-q0T / q1T, 0.0, q1T * q1T / ((h0T * q1T - h1T * q0T) * lT))
    last = hi = (0.0, v0, h1T / (h0T * v0))    # (phi0, v, dv/dphi0)
    for _ in range(100):
        for p0, v, dv in (last, lo if last is hi else hi):
            phi0 = p0 + (target - v) / dv if dv > 0.0 else math.nan
            if lo[0] < phi0 < hi[0]:
                break
        else:
            phi0 = 0.5 * (lo[0] + hi[0])
        H, q, y = grid.integrate(phi0)
        k, t0, _, H_min = _kink(grid, H, q, y)
        HT, h = float(H[-1]), grid.h
        v = dv = math.sqrt(2.0 * max(0.0, math.log(HT / H_min)))
        if v > 0.0:     # 0 with no kink before T: the lower end, to rounding
            (ta, _), (a, b), (qa, qb), (la, lb) = (
                x[k - 1:k + 1].tolist() for x in (grid.t, h1, q1, grid.lam))
            c3, c2, c1, c0 = _hermite(a, b, h * qa / la, h * qb / lb)
            u = (t0 - ta) / h
            dv = (h1T / HT - (((c3 * u + c2) * u + c1) * u + c0) / H_min) / v
        step = (target - v) / dv if dv > 0.0 else math.nan
        # Newton's error after a step is of the step's square
        if abs(step) <= 1e-10 * max(1.0, grid.lam_max):
            return float(phi0 + step if lo[0] < phi0 + step < hi[0] else phi0)
        last = (phi0, v, dv)
        lo, hi = (last, hi) if v < target else (lo, last)
    return float(phi0)


def build(w: Weight, pair: AnnulusPair, n=DEFAULT_N):
    """Construct the radial minimizer end to end for the given pair."""
    grid = OdeGrid(w, pair.r, pair.R, n)
    phi0 = find_initial_value(grid, pair)
    p = grid.solve(phi0)
    case = CASE1 if phi0 >= 0 else CASE2
    sol = RadialSolution(pair=pair, phi=p, profile=recover_H(p, w, pair.r_star),
                         case_tag=case, energy=0.0)
    sol.energy = energy_closed_form(sol)
    return sol


def _threshold_grid(w: Weight, rho, n):
    """Grid on [r, r rho] for a threshold at ratio rho, which lambda there
    fixes: the weight's own at its own ratio, else [1, rho] for a constant
    weight and the prefix for a smaller ratio; ValueError past it."""
    if not 1 < rho < np.inf:
        raise ValueError(f"need 1 < rho < inf, got {rho}")
    r, R = w.r, w.R
    if not abs(R / r - rho) <= RATIO_RTOL * abs(rho):
        if w.kind == "constant":
            w, r = Weight.constant(w.value, 1.0, rho), 1.0
        elif rho > R / r:
            raise ValueError(f"threshold ratio {rho:g} reaches past the "
                             f"weight's interval [{r:g}, {R:g}]")
        R = r * rho
    return OdeGrid(w, r, R, n)


def threshold_m(w: Weight, rho, n=DEFAULT_N):
    """Homeomorphism threshold: H(R)/H(r) on the phi0 = 0 path."""
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
    """h0(R), after the phi0 = 0 path's checks: the ratio build splits on."""
    g.solve(0.0)
    return float(g.columns[0][-1])


def _threshold_g(g: OdeGrid):
    """Thin-target threshold on the grid of its ratio.

    With (H, q, phi_tilde = q/H) = `g.integrate(phi0)` from the grid's
    fundamental matrix, the condition phi_tilde <= lambda at a node where
    H > 0 reads a + phi0 b <= 0, a = q0 - lambda h0, b = q1 - lambda h1.
    phi_tilde grows with phi0, so the largest admissible phi0 is the least
    -a/b over the nodes with b > 0 (b = 1 at the left end).

    phi_tilde/lambda = H_t/H and q = lambda H_t increases, so H has a
    single minimum, where the clamped path has its kink (`_kink`).  From
    there to a node j >= k, k the first node with phi_tilde >= 0, the
    modulus is ln(H_j / min H); from node j on, Simpson's rule integrates
    a smooth phi_tilde/lambda on an odd count of at least three nodes, or
    AccuracyError.  (A ratio of H over the whole interval would carry the
    accumulated rounding of the fundamental matrix, which phi_tilde = q/H
    cancels.)
    """
    h0, h1, q0, q1 = g.columns
    a, b = q0 - g.lam * h0, q1 - g.lam * h1
    up = b > 0
    phi_g = float(np.min(-a[up] / b[up]))
    H, q, y = g.integrate(phi_g)
    if not np.all(H > 0):
        raise AccuracyError(
            f"threshold_g: the extreme path H = h0 + phi_g h1 reaches "
            f"{np.min(H):.3g} <= 0, cancelled in columns up to "
            f"{np.max(np.abs(h1)):.3g}")
    k, _, _, H_min = _kink(g, H, q, y)
    j = k + (len(y) - k + 1) % 2    # k + 1 if the count from k is even
    if len(y) - j < 3:
        raise AccuracyError(f"threshold_g: the extreme path turns nonnegative"
                            f" within two cells of R, or not at all (k = {k})")
    return float(H[j] / H_min * np.exp(_simpson(y[j:] / g.lam[j:], g.h)))


def energy_closed_form(sol: RadialSolution):
    """Minimal energy of the pair from the boundary values of Phi, with
    the weight of the solution's grid.

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
    lam = np.asarray(sol.phi.grid.w(np.minimum(np.exp(t), pair.R)), dtype=float)
    collapse = _simpson(lam, t[1] - t[0])
    return float(2 * np.pi * (pair.R_star ** 2 * phiR
                              + pair.r_star ** 2 * collapse))


def _smooth_range(sol: RadialSolution):
    """(s, lambda, Phi, H) as views on the grid nodes on [r0, R], where the
    unclamped ODE holds; AccuracyError when fewer than fd_derivative's
    stencil remain."""
    s = sol.phi.s
    i0 = int(np.searchsorted(s, sol.r0))   # r0 = s[0] in case 1
    if len(s) - i0 < FD_STENCIL:
        raise AccuracyError(
            f"{len(s) - i0} grid node(s) on [r0, R] from r0 = {sol.r0!r}, "
            f"fewer than the {FD_STENCIL} of the derivative stencil")
    return [a[i0:] for a in (s, sol.phi.grid.lam, sol.phi.phi, sol.profile.H)]


def claim1_certificate(sol: RadialSolution, w: Weight):
    """Margins and residuals for the tau-identity certificate.

    Requires the solution's weight to be nondecreasing (w is unused).  The
    constant is c = H(r) Phi(r) (zero in the collapsing case).  Everything
    is evaluated on the nodes on [r0, R] (`_smooth_range`), where the
    unclamped ODE holds; tau_dot is a 4th-order finite difference there.
    """
    if not sol.phi.grid.w.is_nondecreasing():
        raise CertificateError("certificate requires a nondecreasing weight")
    s, lam, phi, H = _smooth_range(sol)
    c = float(sol.profile.H[0] * sol.phi.phi[0])
    tau = phi - c / H
    tau_dot = fd_derivative(tau, sol.phi.t[1] - sol.phi.t[0]) / s
    ang = lam / s - tau_dot
    # s lambda - c/Hdot, c/Hdot = c s lambda/(H Phi): the quotient form
    # avoids cancellation where Hdot is tiny (H Phi >= c, as H Phi grows);
    # with c = 0 (collapse) the term vanishes, and Phi may be 0 at r0
    rad = s * lam if c == 0.0 else s * lam * (1.0 - c / (H * phi))
    report = CertificateReport(
        c=c,
        margin_tau=float(np.min(tau)),
        margin_tau_dot=float(np.min(tau_dot)),
        margin_angular=float(np.min(ang)),
        margin_radial=float(np.min(rad)),
        identity_residual=float(np.max(np.abs(ang * rad - tau ** 2))),
    )
    margins = [report.margin_tau, report.margin_tau_dot,
               report.margin_angular, report.margin_radial]
    if min(margins) < -CERTIFICATE_TOL:
        raise CertificateError(
            f"negative certificate margin with nondecreasing weight: {margins}")
    return report


def fixed_boundary_coefficients(sol: RadialSolution, w: Weight):
    """Coefficients of the fixed-outer-boundary estimate, with the weight of
    the solution's grid (w is unused), and their identity residual
    d(Phi H)/ds = lambda H / s on the nodes on [r0, R] (`_smooth_range`),
    where the ODE holds."""
    lam, phi, H = sol.phi.grid.lam, sol.phi.phi, sol.profile.H
    g = phi ** 2 / (phi ** 2 + lam ** 2)
    rho1 = phi * H
    rho2 = lam * H / sol.phi.s
    s, lam, phi, H = _smooth_range(sol)    # the same, on [r0, R]
    rho1_dot = fd_derivative(phi * H, sol.phi.t[1] - sol.phi.t[0]) / s
    residual = float(np.max(np.abs(rho1_dot - lam * H / s)))
    return FixedBoundaryCoeffs(g=g, rho1=rho1, rho2=rho2, residual=residual)
