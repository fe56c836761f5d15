"""Characteristic ODE for the auxiliary phase function.

The first-order problem

    lambda^2(s) - Phi^2(s) = s lambda(s) dPhi/ds,    Phi(r) = phi0

is integrated in the log variable t = ln s, where it reads
dPhi/dt = (lambda^2 - Phi^2)/lambda.  This Riccati equation linearises:
with y = (H, lambda dH/dt), y' = [[0, 1/lambda], [lambda, 0]] y and
Phi = lambda H_t / H.  One fundamental matrix of the linear system per
grid therefore answers every initial value phi0 (y(r) = (1, phi0)); its
RK4 recurrence is one LAPACK band forward substitution.  A solve returns
the clamped function Phi = max(0, Phi_tilde), its collapse radius r0, up
to which Phi = 0, and the pair it checked.  The radial profile is that
pair: flat at r_star up to r0, where H is least, and r_star H/min H from
there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .weights import Weight

DEFAULT_N = 4096
RESIDUAL_TOL = 1e-9
FD_STENCIL = 5      # fd_derivative's stencil width


class AccuracyError(RuntimeError):
    """The ODE path failed an accuracy check: the residual of the linear
    pair (H, lambda H_t) is above tolerance, or phi_tilde left its bound."""


@dataclass
class PhiSolution:
    grid: OdeGrid            # the grid the path lives on
    H: np.ndarray            # the checked linear pair (H, lambda H_t) from
    q: np.ndarray            # y(r) = (1, phi0), of which phi_tilde = q/H
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
    by one band forward substitution, and turns the pair of every later
    `integrate` into two O(n) array operations.  The n intervals are used
    as given, odd or even.
    """

    def __init__(self, w: Weight, r, R, n=DEFAULT_N):
        if not (0 < r < R):
            raise ValueError(f"need 0 < r < R, got {r}, {R}")
        if n < 16:
            raise ValueError(f"grid size too small: {n}")
        self.w = w
        self.n = n
        # nodes: every other point of the half-step grid (half the node step),
        # so linspace(ln r, ln R, n + 1) bit for bit; contiguous for w(s)
        t_fine = np.linspace(np.log(r), np.log(R), 2 * n + 1)
        s_fine = np.exp(t_fine)
        s_fine[0], s_fine[-1] = r, R
        self.t, self.s = t_fine[::2].copy(), s_fine[::2].copy()
        self.h = (self.t[-1] - self.t[0]) / n
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
        """(H, q = lambda H_t) = F (1, phi0) at every node, and phi_tilde =
        q/H, which is -inf from the first node with H <= 0 on, where the
        Riccati solution has blown up."""
        h0, h1, q0, q1 = self.columns
        phi0 = float(phi0)
        H, q = h0 + phi0 * h1, q0 + phi0 * q1
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            y = q / H
        if H.min() <= 0.0:     # no index array on a live path
            y[np.argmax(H <= 0.0):] = -np.inf
        return H, q, y

    def solve(self, phi0):
        """The characteristic ODE from phi0 on this grid: the checked pair
        (H, q), phi_tilde, phi = max(0, phi_tilde) and the collapse radius
        r0 (`_kink`); AccuracyError on a failed check."""
        H, q, y = self.integrate(phi0)
        # largest finite-difference defect of (H, q) in H_t = q/lambda and
        # q_t/lambda = H, relative to max(|H|, |H_t|) at each node: the pair
        # stays smooth where phi_tilde = q/H is steep or blows up
        Ht = q / self.lam
        defect = np.maximum(np.abs(fd_derivative(H, self.h) - Ht),
                            np.abs(fd_derivative(q, self.h) / self.lam - H))
        residual = float(np.max(defect / np.maximum(np.abs(H), np.abs(Ht))))
        if residual > RESIDUAL_TOL:
            raise AccuracyError(
                f"ODE residual {residual:.3e} above {RESIDUAL_TOL:.1e}")
        bound = max(abs(phi0), self.lam_max) * (1 + 1e-12) + 1e-15
        if not np.max(np.abs(y)) <= bound:
            raise AccuracyError(
                f"a priori bound violated: max |phi_tilde| "
                f"{np.max(np.abs(y)):.6g} above {bound:.6g}")
        return PhiSolution(grid=self, H=H, q=q, phi_tilde=y,
                           phi=np.maximum(0.0, y), phi0=float(phi0),
                           r0=_kink(self, H, q, y)[2], residual=residual)


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


def solve_phi_tilde(w: Weight, r, R, phi0, n=DEFAULT_N):
    """`OdeGrid.solve` of phi0 on the n-interval grid of w on [r, R]."""
    return OdeGrid(w, r, R, n).solve(phi0)


def fd_derivative(y, h):
    """Fourth-order finite differences on >= FD_STENCIL uniform samples."""
    y = np.asarray(y, dtype=float)
    if len(y) < FD_STENCIL:
        raise ValueError(
            f"fd_derivative needs at least {FD_STENCIL} samples, got {len(y)}")
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


def _kink(g: OdeGrid, H, q, y):
    """(k, t0, r0 = e^t0, min H = H(t0)) of the clamped path, flat on the
    nodes before k, the first with phi_tilde = q/H >= 0: the end r (H = 1)
    if k = 0, the end R if phi_tilde < 0 up to R (k = len(y)), else in the
    cell [t_{k-1}, t_k] the root t0 of the cubic Hermite interpolant of
    phi_tilde (end slopes from the ODE) and H(t0) from that of H (end slopes
    q/lambda), both O(h^4) for a smooth weight."""
    k = int(np.searchsorted(y >= 0, True))
    if not 0 < k < len(y):      # no kink inside: the end r (k = 0) or R
        return (k, *(float(a[-1 if k else 0]) for a in (g.t, g.s, H)))
    # Python floats: numpy scalars cost more than the cell's arithmetic
    (t0, t1), (l0, l1), (y0, y1), (H0, H1), (q0, q1) = (
        a[k - 1:k + 1].tolist() for a in (g.t, g.lam, y, H, q))
    h = t1 - t0
    c3, c2, c1, c0 = _hermite(y0, y1, h * (l0 - y0 * y0 / l0),
                              h * (l1 - y1 * y1 / l1))
    # the cubic rises nearly linearly from y0 < 0 to y1 >= 0 (its other two
    # roots lie O(1/h) away): Newton from the linear guess, bisecting [lo, hi]
    u, lo, hi = y0 / (y0 - y1), 0.0, 1.0
    for _ in range(100):
        p = ((c3 * u + c2) * u + c1) * u + c0
        lo, hi = (u, hi) if p < 0.0 else (lo, u)
        dp = (3.0 * c3 * u + 2.0 * c2) * u + c1
        new = u - p / dp if dp > 0.0 else np.nan
        if not lo <= new <= hi:     # a step out of the bracket, or none
            new = 0.5 * (lo + hi)
        u, step = new, new - u
        if abs(step) <= 2.0 ** -52:     # an ulp of 1, far below h's
            break
    c3, c2, c1, c0 = _hermite(H0, H1, h * q0 / l0, h * q1 / l1)
    t0 += u * h
    return k, t0, float(np.exp(t0)), ((c3 * u + c2) * u + c1) * u + c0


def _hermite(v0, v1, d0, d1):
    """The cubic on [0, 1] with end values v0, v1 and slopes d0, d1, highest
    power first."""
    return 2 * v0 + d0 - 2 * v1 + d1, -3 * v0 - 2 * d0 + 3 * v1 - d1, d0, v0


def recover_H(p: PhiSolution, w: Weight, r_star):
    """Radial profile of p's clamped path, from the linear pair (H, q) that
    its solve checked (w is unused): H = r_star up to the kink and
    r_star H/min H from there, min H at the kink (`_kink`; H(r) = 1 in
    case 1); Hdot = dH/ds = r_star q/(lambda s min H), 0 on the plateau."""
    if r_star <= 0:
        raise ValueError(f"r_star must be positive, got {r_star}")
    g = p.grid
    k, _, _, H_min = _kink(g, p.H, p.q, p.phi_tilde)
    scale = r_star / H_min
    H, Hdot = scale * p.H, scale * p.q / (g.lam * g.s)
    H[:k], Hdot[:k] = r_star, 0.0
    return RadialProfile(H, Hdot)
