"""Independent oracle for `phi_ode`: fixed-step RK4 on the nonlinear
characteristic equation dPhi/dt = lambda - Phi^2/lambda, one Python step at
a time, and a bisection for the zero of phi_tilde inside one grid cell.

The package integrates the linearised equation instead; the two are
different discretisations of the same ODE, so they agree to the RK4
truncation error, not bit for bit.
"""

import numpy as np


def rk4_path(grid, phi0, every=1):
    """phi_tilde at the grid's nodes (every=1) or every other node (every=2),
    with the weight taken from the grid's node and half-node tables."""
    if every == 1:
        lam, lam_half = grid.lam, grid.lam_half
    else:
        lam, lam_half = grid.lam[::2], grid.lam[1::2]
    h = grid.h * every
    y = np.empty(len(lam))
    y[0] = v = float(phi0)
    # a blow-up start overflows to -inf, which is where it stays
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(lam) - 1):
            la, lm, lb = lam[i], lam_half[i], lam[i + 1]
            v = _step(v, h, la, lm, lb)
            y[i + 1] = v
    return y


def _step(v, h, la, lm, lb):
    k1 = la - v * v / la
    v2 = v + 0.5 * h * k1
    k2 = lm - v2 * v2 / lm
    v3 = v + 0.5 * h * k2
    k3 = lm - v3 * v3 / lm
    v4 = v + h * k3
    k4 = lb - v4 * v4 / lb
    return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def bisect_root(w, t_lo, y_lo, t_hi, R, substeps=4, iters=60):
    """Zero of phi_tilde in [t_lo, t_hi], from short RK4 integrations started
    at (t_lo, y_lo), where phi_tilde(t_lo) = y_lo < 0."""

    def value_at(t):
        h = (t - t_lo) / substeps
        v, tt = y_lo, t_lo
        for _ in range(substeps):
            v = _step(v, h, w(min(np.exp(tt), R)),
                      w(min(np.exp(tt + 0.5 * h), R)),
                      w(min(np.exp(tt + h), R)))
            tt += h
        return v

    a, b, fa = t_lo, t_hi, y_lo
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = value_at(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
        if b - a < 1e-15:
            break
    return float(np.exp(0.5 * (a + b)))
