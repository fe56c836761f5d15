"""Characteristic ODE for the auxiliary phase function.

The first-order problem

    lambda^2(s) - Phi^2(s) = s lambda(s) dPhi/ds,    Phi(r) = phi0

is integrated in the log variable t = ln s, where it reads
dPhi/dt = (lambda^2 - Phi^2)/lambda.  This Riccati equation linearises:
with y = (H, lambda dH/dt), y' = [[0, 1/lambda], [lambda, 0]] y and
Phi = lambda H_t / H.  One fundamental matrix of the linear system per
grid therefore answers every initial value phi0 (y(r) = (1, phi0)); its
RK4 recurrence is one LAPACK band forward substitution.  A solve returns
the clamped function Phi = max(0, Phi_tilde) and its collapse radius r0,
up to which Phi = 0; Phi drives the radial profile through
H'/H = Phi/(s lambda), i.e. H(s) = r_star * exp(int Phi/lambda dt).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .weights import Weight

DEFAULT_N = 4096
RESIDUAL_TOL = 1e-9


class AccuracyError(RuntimeError):
    """The ODE path failed an accuracy check: the residual of the linear
    pair (H, lambda H_t) is above tolerance, or phi_tilde left its bound."""


@dataclass
class PhiSolution:
    grid: OdeGrid            # the grid the path lives on
    phi_tilde: np.ndarray
    phi: np.ndarray          # max(0, phi_tilde)
    phi0: float
    r0: float                # collapse radius: phi = 0 on [r, r0]
    residual: float          # max relative defect of (H, lambda H_t)

    @property
    def s(self):              # radii, uniform in log s
        return self.grid.s

    @property
    def t(self):              # log radii
        return self.grid.t


@dataclass
class RadialProfile:
    H: np.ndarray            # on the phase solution's grid
    Hdot: np.ndarray


class OdeGrid:
    """Log-uniform grid with the weight pretabulated at nodes and half nodes.

    Reusable across solves with different initial values: the RK4
    fundamental matrix of the linearised equation is built on first use,
    by one band forward substitution, and turns every later `integrate`
    into a few O(n) array operations.
    """

    def __init__(self, w: Weight, r, R, n=DEFAULT_N):
        if not (0 < r < R):
            raise ValueError(f"need 0 < r < R, got {r}, {R}")
        if n < 16:
            raise ValueError(f"grid size too small: {n}")
        if n % 2:
            n += 1  # Simpson quadrature needs an even interval count
        self.w = w
        self.n = n
        self.t = np.linspace(np.log(r), np.log(R), n + 1)
        self.h = (self.t[-1] - self.t[0]) / n
        self.s = np.exp(self.t)
        self.s[0], self.s[-1] = r, R
        t_fine = np.linspace(np.log(r), np.log(R), 2 * n + 1)
        s_fine = np.exp(t_fine)
        s_fine[0], s_fine[-1] = r, R
        lam_fine = np.asarray(w(s_fine), dtype=float)
        self.lam = lam_fine[::2]          # at nodes
        self.lam_half = lam_fine[1::2]    # at midpoints
        self.lam_max = float(lam_fine.max())

    @cached_property
    def columns(self):
        """(h0, h1, q0, q1): the RK4 fundamental matrix F at every node, as
        the paths y = (H, lambda H_t) = F y(r) from y(r) = (1, 0) (h0, q0)
        and from y(r) = (0, 1) (h1, q1), from one LAPACK band forward
        substitution that takes one rounded RK4 step per node."""
        return _fundamental_columns(self.lam, self.lam_half, self.h)

    def integrate(self, phi0):
        """RK4 path of phi_tilde from the left endpoint.

        phi_tilde = q/H for y = (H, q) = F (1, phi0).  From the first node
        with H <= 0 on, the Riccati solution has blown up to -inf.
        """
        h0, h1, q0, q1 = self.columns
        phi0 = float(phi0)
        H = h0 + phi0 * h1
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            y = (q0 + phi0 * q1) / H
        dead = np.flatnonzero(H <= 0.0)
        if dead.size:
            y[dead[0]:] = -np.inf
        return y

    def modulus(self, phi):
        """Composite-Simpson quadrature of Phi/(s lambda) ds = Phi/lambda dt."""
        return float(_simpson(phi / self.lam, self.h))


def _simpson(y, dx):
    """Composite Simpson's rule on an odd count of at least 3 uniform
    samples."""
    n = len(y)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd count >= 3, got {n}")
    return np.sum(y[0:n - 2:2] + 4.0 * y[1:n - 1:2] + y[2:n:2]) * (dx / 3.0)


def _fundamental_columns(lam, lam_half, h):
    """The RK4 fundamental matrix of y' = A y, A(lambda) = [[0, 1/lambda],
    [lambda, 0]], at every node, by forward substitution.

    With y_i = (H_i, q_i) and P_i the RK4 step matrix on interval i
    (lambda at its left node a, midpoint m and right node b; the entries
    of I + h/6 (K1 + 2 K2 + 2 K3 + K4) multiplied out), the recurrences
    y_{i+1} - P_i y_i = 0 over (H_0, q_0, H_1, q_1, ...) form one unit
    lower band-triangular system with three subdiagonals.  One LAPACK
    solve for the right-hand sides y_0 = (1, 0) and y_0 = (0, 1) takes
    one rounded step per node, as a sequential loop would.  Returns the
    columns (h0, h1, q0, q1) as four arrays of length n + 1.
    """
    a, m, b = lam[:-1], lam_half, lam[1:]
    c, hh = h / 6.0, h * h
    size = 2 * len(m) + 2
    ab = np.zeros((4, size), order="F")   # ab[k, j] = L[j + k, j]
    ab[2, 0:-2:2] = -1.0 - c * h * (a / m + 1.0 + (m + 0.25 * hh * a) / b)
    ab[1, 1:-2:2] = -c * ((1.0 + 0.5 * hh) * (1.0 / a + 1.0 / b) + 4.0 / m)
    ab[3, 0:-2:2] = -c * ((1.0 + 0.5 * hh) * (a + b) + 4.0 * m)
    ab[2, 1:-2:2] = -1.0 - c * h * (m / a + 1.0 + b * (1.0 / m + 0.25 * hh / a))
    rhs = np.zeros((size, 2), order="F")
    rhs[0, 0] = rhs[1, 1] = 1.0
    y, _ = dtbtrs(ab, rhs, uplo="L", diag="U", overwrite_b=1)
    (h0, q0), (h1, q1) = y.T.reshape(2, -1, 2).transpose(0, 2, 1).copy()
    return h0, h1, q0, q1


def solve_phi_tilde(w: Weight, r, R, phi0, n=DEFAULT_N,
                    grid: OdeGrid | None = None):
    """Integrate the characteristic ODE with initial value phi0; the
    solution carries phi_tilde, phi = max(0, phi_tilde) and the collapse
    radius r0 (r when phi0 >= 0, R when phi_tilde stays negative)."""
    g = grid if grid is not None else OdeGrid(w, r, R, n)
    y = g.integrate(phi0)
    h0, h1, q0, q1 = g.columns
    H, q = h0 + phi0 * h1, q0 + phi0 * q1
    residual = _ode_residual(g, H, q)
    if residual > RESIDUAL_TOL:
        raise AccuracyError(
            f"ODE residual {residual:.3e} above {RESIDUAL_TOL:.1e}")
    bound = max(abs(phi0), g.lam_max) * (1 + 1e-12) + 1e-15
    if not np.max(np.abs(y)) <= bound:
        raise AccuracyError(
            f"a priori bound violated: max |phi_tilde| "
            f"{np.max(np.abs(y)):.6g} above {bound:.6g}")
    if phi0 >= 0:
        r0 = g.s[0]
    elif y[-1] < 0:
        r0 = g.s[-1]
    else:
        r0 = np.exp(_kink(g, H, q, y, int(np.searchsorted(y >= 0, True)))[0])
    return PhiSolution(grid=g, phi_tilde=y, phi=np.maximum(0.0, y),
                       phi0=float(phi0), r0=float(r0), residual=residual)


def _ode_residual(g: OdeGrid, H, q):
    """Largest finite-difference defect of y = (H, q) = F (1, phi0) in
    H_t = q/lambda and q_t/lambda = H, relative to max(|H|, |H_t|) at each
    node.  The pair stays smooth where phi_tilde = q/H is steep or blows up."""
    Ht = q / g.lam
    defect = np.maximum(np.abs(fd_derivative(H, g.h) - Ht),
                        np.abs(fd_derivative(q, g.h) / g.lam - H))
    return float(np.max(defect / np.maximum(np.abs(H), np.abs(Ht))))


def fd_derivative(y, h):
    """Fourth-order finite-difference derivative on a uniform grid."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 6:
        return np.gradient(y, h)
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    # one-sided 4th order at the two nodes next to each boundary
    c0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    d[0] = np.dot(c0, y[:5]) / h
    d[1] = np.dot(c1, y[:5]) / h
    d[-1] = -np.dot(c0, y[-5:][::-1]) / h
    d[-2] = -np.dot(c1, y[-5:][::-1]) / h
    return d


def cumulative_integral(f, h):
    """Cumulative integral on a uniform grid, 4th order.

    Interior steps use the cubic through the four surrounding nodes; the
    first and last steps use one-sided cubics.  Steps whose own endpoints
    both vanish contribute exactly zero, so an identically-zero stretch of
    the integrand accumulates nothing (needed for the collapse plateau).
    """
    f = np.asarray(f, dtype=float)
    n = len(f) - 1
    inc = np.empty(n)
    if n >= 3:
        inc[1:-1] = (h / 24.0) * (-f[:-3] + 13 * f[1:-2] + 13 * f[2:-1] - f[3:])
        inc[0] = (h / 24.0) * (9 * f[0] + 19 * f[1] - 5 * f[2] + f[3])
        inc[-1] = (h / 24.0) * (9 * f[-1] + 19 * f[-2] - 5 * f[-3] + f[-4])
    else:
        inc[:] = 0.5 * h * (f[:-1] + f[1:])
    inc[(f[:-1] == 0.0) & (f[1:] == 0.0)] = 0.0
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def _kink(g: OdeGrid, H, q, y, k):
    """(t0, H(t0)) at the kink of the clamped path, in the cell
    [t_{k-1}, t_k] where phi_tilde = q/H turns nonnegative: t0 is the root
    of the cubic Hermite interpolant of phi_tilde (end slopes from the ODE)
    and H(t0) that of H (end slopes q/lambda), both O(h^4) for a smooth
    weight.  H is least at t0, where q = 0."""
    cell = slice(k - 1, k + 1)
    t, lam, y = g.t[cell], g.lam[cell], y[cell]
    h = t[1] - t[0]
    # the cubic is nearly linear on the cell: its root there is the one
    # next to the linear guess, the other two lie O(1/h) away
    guess = y[0] / (y[0] - y[1])
    roots = np.roots(_hermite(y, h * (lam - y * y / lam)))
    u = float(np.clip(roots[np.argmin(np.abs(roots - guess))].real, 0.0, 1.0))
    H_u = np.polyval(_hermite(H[cell], h * q[cell] / lam), u)
    return t[0] + u * h, float(H_u)


def _hermite(v, d):
    """The cubic on [0, 1] with end values v, slopes d, highest power first."""
    (v0, v1), (d0, d1) = v, d
    return [2 * v0 + d0 - 2 * v1 + d1, -3 * v0 - 2 * d0 + 3 * v1 - d1, d0, v0]


def recover_H(p: PhiSolution, w: Weight, r_star):
    """Radial profile H(s) = r_star * exp(int_r^s Phi/(t lambda) dt)."""
    if r_star <= 0:
        raise ValueError(f"r_star must be positive, got {r_star}")
    lam = np.asarray(w(p.s), dtype=float)
    h = p.t[1] - p.t[0]
    H = r_star * np.exp(cumulative_integral(p.phi / lam, h))
    Hdot = H * p.phi / (p.s * lam)
    return RadialProfile(H, Hdot)
