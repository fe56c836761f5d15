"""Closed-form thresholds, case-1 initial values and case-2 collapse data
for the power weights lambda = c s^p.

In t = ln s the radial Euler-Lagrange equation (lambda H_t)_t = lambda H
has constant coefficients, H'' + p H' - H = 0, with the characteristic
roots alpha_pm = (-p +- sqrt(p^2 + 4))/2, and Phi = lambda H_t/H.  The
thresholds depend on p and rho only, not on c or on where the interval
starts; t runs over [0, T], T = ln rho.
"""

import numpy as np


def _solution(p, t0, H0, dH0):
    """(H, H') as functions of t, for H(t0) = H0 and H'(t0) = dH0."""
    d = np.sqrt(p * p + 4.0)
    ap, am = 0.5 * (-p + d), 0.5 * (-p - d)
    A, B = (dH0 - am * H0) / d, (ap * H0 - dH0) / d

    def H(t):
        return A * np.exp(ap * (t - t0)) + B * np.exp(am * (t - t0))

    def dH(t):
        return A * ap * np.exp(ap * (t - t0)) + B * am * np.exp(am * (t - t0))

    return H, dH, (A, B, ap, am)


def threshold_m(p, rho):
    """m = u(ln rho) for u(0) = 1, u'(0) = 0 (phi0 = 0)."""
    H, _, _ = _solution(p, 0.0, 1.0, 0.0)
    return float(H(np.log(rho)))


def initial_value(p, rho, ratio):
    """phi0 of the case-1 minimizer A(1, rho) -> A*(1, ratio), ratio >= m,
    for c = 1 (phi0 scales with c): H = A e^{alpha+ t} + B e^{alpha- t}
    with H(0) = 1 and H(T) = ratio, and phi0 = c H'(0)."""
    d = np.sqrt(p * p + 4.0)
    ap, am = 0.5 * (-p + d), 0.5 * (-p - d)
    T = np.log(rho)
    A = (ratio - np.exp(am * T)) / (np.exp(ap * T) - np.exp(am * T))
    return float(A * ap + (1.0 - A) * am)


def collapse(p, rho, ratio):
    """(phi0 for c = 1, r0) of the case-2 minimizer A(1, rho) -> A*(1, ratio),
    1 < ratio < m (phi0 scales with c, r0 does not).  The profile is flat
    up to t0 = ln r0 and H = u(t - t0) from there, with u the solution from
    u(0) = 1, u'(0) = 0 and u(T - t0) = ratio; the unclamped path is the
    same solution continued back to t = 0, so phi0 = c u'(-t0)/u(-t0).
    u increases on (0, T) from 1 to m, so T - t0 is found by bisection."""
    H, dH, _ = _solution(p, 0.0, 1.0, 0.0)
    T = np.log(rho)
    lo, hi = 0.0, T
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if H(mid) < ratio:
            lo = mid
        else:
            hi = mid
    t0 = T - 0.5 * (lo + hi)
    return float(dH(-t0) / H(-t0)), float(np.exp(t0))


def threshold_g(p, rho):
    """(g, phi_g >= 0).  H_t/H = Phi/lambda <= 1 is the admissibility
    condition, and along H_t/H = 1 its derivative is -p.  So for p >= 0
    the extreme solution touches it at the inner end (H(0) = H'(0) = 1)
    and for p < 0 at the outer end (H'(T) = H(T)).  g is H(T) over the
    least H on [0, T]: Phi is clamped at zero up to the minimum."""
    T = np.log(rho)
    if p >= 0:
        H, _, _ = _solution(p, 0.0, 1.0, 1.0)
        return float(H(T)), True
    H, dH, (A, B, ap, am) = _solution(p, T, 1.0, 1.0)
    if dH(0.0) >= 0.0:
        return float(1.0 / H(0.0)), True
    # H' = 0 where A ap e^{ap (t - T)} = -B am e^{am (t - T)}
    t_min = T + np.log(-B * am / (A * ap)) / (ap - am)
    return float(1.0 / H(t_min)), False
