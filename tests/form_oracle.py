"""Independent references for the weighted cylinder form of `discrete`.

`energy` and `gradient` are the cell-difference form and its adjoint
gradient as `discrete` first wrote them, one array expression per corner
and per roll.  `radial_minimum` is the discrete radial oracle: restricted
to h = H(t) e^{i theta} the form is a 1-D quadratic in H,

    E(H) = 2 pi dt sum lambda_{i+1/2} [cos^2(dtheta/2) slope_i^2
                                       + sinc^2(dtheta/2) Hm_i^2],

built here from that formula alone and minimized with both ends pinned.
`radial_obstacle_minimum` minimizes it over H >= r_star instead, by a
pinned solve for every contact index.
"""

import numpy as np
from scipy.linalg import solveh_banded


def cell_diffs(h, dt, dtheta):
    hr = np.roll(h, -1, axis=1)
    Dt = (h[1:] + hr[1:] - h[:-1] - hr[:-1]) / (2 * dt)
    Dth = (hr[1:] + hr[:-1] - h[1:] - h[:-1]) / (2 * dtheta)
    return Dt, Dth


def energy(h, lamc, dt, dtheta):
    """lamc: the cell weights, shape (ns - 1, 1)."""
    Dt, Dth = cell_diffs(h, dt, dtheta)
    cell = dt * dtheta
    radl = cell * float(np.sum(lamc * (Dt.real ** 2 + Dt.imag ** 2)))
    ang = cell * float(np.sum(lamc * (Dth.real ** 2 + Dth.imag ** 2)))
    return radl + ang


def gradient(h, lamc, dt, dtheta):
    Dt, Dth = cell_diffs(h, dt, dtheta)
    A = lamc * Dt
    B = lamc * Dth
    ns = h.shape[0]
    Aj = A + np.roll(A, 1, axis=1)
    Gt = np.empty_like(h)
    Gt[0] = -Aj[0]
    Gt[1:ns - 1] = Aj[:-1] - Aj[1:]
    Gt[ns - 1] = Aj[-1]
    Gt /= 2 * dt
    Bv = np.empty_like(h)
    Bv[0] = B[0]
    Bv[1:ns - 1] = B[1:] + B[:-1]
    Bv[ns - 1] = B[-1]
    Gth = (np.roll(Bv, 1, axis=1) - Bv) / (2 * dtheta)
    return 2 * dt * dtheta * (Gt + Gth)


def _radial_form(lam, dt, dtheta):
    """(diag, off, energy): the tridiagonal rows of E(H) up to the factor
    2 pi dt, and E itself (lam: the ns - 1 cell weights)."""
    c = np.cos(dtheta / 2) ** 2
    d = np.sinc(dtheta / (2 * np.pi)) ** 2
    # E = 2 pi dt sum lam (c (H_{i+1} - H_i)^2 / dt^2 + d (H_i + H_{i+1})^2 / 4)
    a = lam * (c / dt ** 2 + d / 4)
    off = lam * (d / 4 - c / dt ** 2)
    diag = np.zeros(lam.size + 1)
    diag[:-1] += a
    diag[1:] += a

    def energy(H):
        slope = np.diff(H) / dt
        Hm = 0.5 * (H[1:] + H[:-1])
        return 2 * np.pi * dt * float(np.sum(lam * (c * slope ** 2
                                                    + d * Hm ** 2)))
    return diag, off, energy


def _pinned(diag, off, first, last):
    """Stationary H of the rows (diag, off) with H[0] = first and
    H[-1] = last; a one-node interior is solved as a scalar."""
    H = np.empty(diag.size)
    H[0], H[-1] = first, last
    if diag.size == 3:
        H[1] = -(off[0] * first + off[1] * last) / diag[1]
    elif diag.size > 3:
        ab = np.zeros((2, diag.size - 2))
        ab[0, 1:] = off[1:-1]
        ab[1] = diag[1:-1]
        rhs = np.zeros(diag.size - 2)
        rhs[0] -= off[0] * first
        rhs[-1] -= off[-1] * last
        H[1:-1] = solveh_banded(ab, rhs)
    return H


def radial_minimum(lam, dt, dtheta, r_star, R_star):
    """Minimum of E(H) over profiles with H[0] = r_star, H[-1] = R_star
    (lam: the ns - 1 cell weights).  Returns (H, E)."""
    diag, off, energy = _radial_form(lam, dt, dtheta)
    H = _pinned(diag, off, r_star, R_star)
    return H, energy(H)


def radial_obstacle_minimum(lam, dt, dtheta, r_star, R_star):
    """Minimum of E(H) over profiles H >= r_star with H[0] = r_star,
    H[-1] = R_star, among those equal to r_star on nodes 0..j and
    stationary on the rest, for every contact index j.  Returns
    (H, E, j)."""
    diag, off, energy = _radial_form(lam, dt, dtheta)
    feasible = []
    for j in range(lam.size):
        H = np.full(lam.size + 1, float(r_star))
        H[j:] = _pinned(diag[j:], off[j:], r_star, R_star)
        if H.min() >= r_star:
            feasible.append((energy(H), j, H))
    E, j, H = min(feasible, key=lambda c: c[0])
    return H, E, j
