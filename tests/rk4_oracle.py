"""Independent oracle for `phi_ode`: fixed-step RK4 on the nonlinear
characteristic equation dPhi/dt = lambda - Phi^2/lambda, one Python step at
a time, the same steps on its linearisation for the fundamental matrix, a
bisection for the zero of phi_tilde inside one grid cell, the kink of the
clamped path from the companion-matrix roots of its cell cubic, the least
value of a cubic Hermite interpolant on one cell, the thin-target
threshold g by bracketing and bisection on the initial value, Simpson's
rule for the modulus, the clamped path's modulus ln H(T) - ln min H on
the fundamental matrix, and the collapsing-case initial value by bisection
of that modulus.

The package integrates the linearised equation instead; the two are
different discretisations of the same ODE, so they agree to the RK4
truncation error, not bit for bit.
"""

import numpy as np
from scipy.integrate import simpson


def rk4_path(grid, phi0):
    """phi_tilde at the grid's nodes, with the weight taken from the grid's
    node and half-node tables."""
    lam, lam_half, h = grid.lam, grid.lam_half, grid.h
    y = np.empty(len(lam))
    y[0] = v = float(phi0)
    # a blow-up start overflows to -inf, which is where it stays
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(lam) - 1):
            la, lm, lb = lam[i], lam_half[i], lam[i + 1]
            v = _step(v, h, la, lm, lb)
            y[i + 1] = v
    return y


def fundamental_columns(grid):
    """(h0, h1, q0, q1): the RK4 fundamental matrix of the linearised
    system y' = A y, A(lambda) = [[0, 1/lambda], [lambda, 0]], for
    y = (H, lambda H_t), one step per interval with the stages formed from
    A itself."""

    def A(la):
        return np.array([[0.0, 1.0 / la], [la, 0.0]])

    lam, lam_half, h = grid.lam, grid.lam_half, grid.h
    F = np.empty((len(lam), 2, 2))
    F[0] = Y = np.eye(2)
    for i in range(len(lam) - 1):
        Am = A(lam_half[i])
        k1 = A(lam[i]) @ Y
        k2 = Am @ (Y + 0.5 * h * k1)
        k3 = Am @ (Y + 0.5 * h * k2)
        k4 = A(lam[i + 1]) @ (Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        F[i + 1] = Y
    return F[:, 0, 0], F[:, 0, 1], F[:, 1, 0], F[:, 1, 1]


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


def companion_kink(grid, H, q, y, k):
    """(t0, H(t0)) as `phi_ode._kink` defines them, with t0 from numpy's
    companion-matrix roots of phi_tilde's cubic Hermite on [t_{k-1}, t_k]
    (the root next to the linear guess, clipped to the cell) and H(t0) from
    `np.polyval` of H's."""
    cell = slice(k - 1, k + 1)
    t, lam, y = grid.t[cell], grid.lam[cell], y[cell]
    h = t[1] - t[0]
    guess = y[0] / (y[0] - y[1])
    roots = np.roots(_hermite(y, h * (lam - y * y / lam)))
    u = float(np.clip(roots[np.argmin(np.abs(roots - guess))].real, 0.0, 1.0))
    H_u = np.polyval(_hermite(H[cell], h * q[cell] / lam), u)
    return float(t[0] + u * h), float(H_u)


def _hermite(v, d):
    """The cubic on [0, 1] with end values v, slopes d, highest power first."""
    (v0, v1), (d0, d1) = v, d
    return [2 * v0 + d0 - 2 * v1 + d1, -3 * v0 - 2 * d0 + 3 * v1 - d1, d0, v0]


def cell_minimum(y0, y1, d0, d1):
    """Least value on [0, 1] of the cubic with end values y0, y1 and end
    slopes d0, d1 (per unit cell), from the roots of its derivative."""
    c2, c3 = 3 * (y1 - y0) - 2 * d0 - d1, 2 * (y0 - y1) + d0 + d1
    u = np.roots([3 * c3, 2 * c2, d0])
    u = u[(u.imag == 0) & (u.real >= 0) & (u.real <= 1)].real
    return float(min(y0, y1, *(y0 + u * (d0 + u * (c2 + u * c3)))))


def bisect_threshold_g(grid):
    """exp of the modulus of the largest RK4 path that stays below the
    weight at every node (to 1e-10 max lambda): a bracket grown by doubling
    from [0, max lambda], then bisection on the initial value."""

    def admissible(phi0):
        y = rk4_path(grid, phi0)
        return float(np.max(np.maximum(0.0, y) - grid.lam)) <= 1e-10 * grid.lam_max

    lo, hi = 0.0, grid.lam_max * (1 + 1e-6)
    step = grid.lam_max
    while not admissible(lo):
        step *= 2.0
        lo -= step
    while admissible(hi):
        step *= 2.0
        hi += step
    while hi - lo > 1e-12 * max(1.0, grid.lam_max):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return float(np.exp(modulus(grid, np.maximum(0.0, rk4_path(grid, lo)))))


def modulus(grid, phi):
    """Simpson's rule for the modulus int Phi/lambda dt on the grid's nodes."""
    return float(simpson(phi / grid.lam, dx=grid.h))


def collapse_modulus(grid, phi0):
    """Modulus ln H(T) - ln min H of the clamped path from phi0 on the
    grid's fundamental matrix: min H is H(r) = 1 when phi_tilde(r) >= 0,
    H's kink value (`companion_kink`) when phi_tilde turns nonnegative
    inside [r, R], and H(T) when it never does (modulus 0)."""
    H, q, y = grid.integrate(phi0)
    if y[-1] < 0:
        return 0.0
    k = int(np.searchsorted(y >= 0, True))
    low = companion_kink(grid, H, q, y, k)[1] if k > 0 else 1.0
    return float(np.log(H[-1]) - np.log(low))


def bisect_initial_value(grid, target):
    """Collapsing-case phi0 < 0 whose clamped path has the modulus
    `target` (`collapse_modulus`, nondecreasing in phi0): bisection on
    [-max lambda, 0] until no double lies between the ends."""
    lo, hi = -grid.lam_max, 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if collapse_modulus(grid, mid) < target:
            lo = mid
        else:
            hi = mid
