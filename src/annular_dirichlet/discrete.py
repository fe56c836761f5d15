"""Discrete weighted Dirichlet energies and projected-descent minimizers.

Everything is set up in the log-radius variable t = ln s, where the polar
energy of a map h on the annulus becomes a weighted flat Dirichlet energy
on a cylinder:

    E = int int lambda(s(t)) (|h_t|^2 + |h_theta|^2) dt dtheta.

Node-centered values, cell-averaged differences and midpoint-cell
quadrature make the discrete energy a positive quadratic form with an
exact, cheap gradient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solveh_banded

from . import radial as rd
from .weights import Weight

MODE_FREE = "free"
MODE_FIXED_OUTER = "fixed_outer"
PERTURBATION_MODES = 4     # k = 1..4 radial and m = 0..4 angular modes
POLAR_TOL = 1e-12          # relative energy change of a quiet descent step
KKT_TOL = 1e-11            # KKT residual that ends a descent as stationary
ADMISSIBLE_TOL = 1e-9      # slack of |h| about [r_star, R_star] and its ends
PROFILE_TOL = 1e-10        # slack of a nondecreasing radial profile H


class AdmissibilityError(ValueError):
    """Map or profile violates the admissible-class constraints."""


class DegenerateRowError(ValueError):
    """Winding number undefined: a row passes through or collapses to a point."""


class FeasibilityError(RuntimeError):
    """A minimizer found no admissible optimum."""


@dataclass
class EnergyReport:
    total: float
    iterations: int = 0
    converged: bool = True
    negative_jacobian_fraction: float | None = None
    kkt_residual: float | None = None


@dataclass
class RadialVector:
    s: np.ndarray
    H: np.ndarray

    def check(self):
        if np.any(np.diff(self.H) < -PROFILE_TOL):
            raise AdmissibilityError("H must be nondecreasing")


def polar_grid(pair: rd.AnnulusPair, ns, ntheta):
    """(t, theta): ns log radii from ln r to ln R and ntheta angles
    2 pi j / ntheta, the grid of every polar-grid map of this shape."""
    if ns < 3 or ntheta < 3:
        raise ValueError(f"polar grid needs ns, ntheta >= 3, got {ns} x {ntheta}")
    t = np.linspace(np.log(pair.r), np.log(pair.R), ns)
    return t, 2 * np.pi * np.arange(ntheta) / ntheta


@dataclass
class PolarGridMap:
    """h on its pair's `polar_grid`, read once per map (h keeps its shape)."""
    h: np.ndarray                 # complex, shape (ns, ntheta)
    pair: rd.AnnulusPair
    mode: str = MODE_FREE

    @property
    def ns(self):
        return self.h.shape[0]

    @property
    def ntheta(self):
        return self.h.shape[1]

    @cached_property
    def t(self):                  # log radii per row
        return polar_grid(self.pair, self.ns, self.ntheta)[0]

    @cached_property
    def theta(self):              # angle per column
        return polar_grid(self.pair, self.ns, self.ntheta)[1]

    @property
    def s(self):
        return np.exp(self.t)

    @property
    def dt(self):
        return self.t[1] - self.t[0]

    @property
    def dtheta(self):
        return 2 * np.pi / self.ntheta

    def check(self):
        """AdmissibilityError unless |h| is in [r_star, R_star], the boundary
        rows are pinned for the mode, rows 0, ns // 2 and ns - 1 wind once
        and no boundary-row step goes backwards (a fold)."""
        p, tol = self.pair, ADMISSIBLE_TOL
        mod = np.abs(self.h)
        _check_moduli(mod, p)
        if np.max(np.abs(mod[0] - p.r_star)) > tol:
            raise AdmissibilityError("inner boundary row must have |h| = r_star")
        if np.max(np.abs(mod[-1] - p.R_star)) > tol:
            raise AdmissibilityError("outer boundary row must have |h| = R_star")
        if self.mode == MODE_FIXED_OUTER:
            pinned = p.R_star * np.exp(1j * self.theta)
            if np.max(np.abs(self.h[-1] - pinned)) > tol:
                raise AdmissibilityError("outer row must be pinned in fixed mode")
        for i in (0, self.ns // 2, self.ns - 1):
            steps, winding = _row_steps(self, i)
            if winding != 1:
                raise AdmissibilityError(f"row {i} winding is not +1")
            back = int(np.sum(steps <= 0)) if i in (0, self.ns - 1) else 0
            if back:
                raise AdmissibilityError(f"folds: {back} of row {i}'s "
                                         f"{self.ntheta} steps go backwards")


def _check_moduli(mod, pair: rd.AnnulusPair):
    """AdmissibilityError when a modulus leaves [r_star, R_star] by more
    than ADMISSIBLE_TOL."""
    if (mod.min() < pair.r_star - ADMISSIBLE_TOL
            or mod.max() > pair.R_star + ADMISSIBLE_TOL):
        raise AdmissibilityError("|h| outside [r_star, R_star]")


def _row_steps(m: PolarGridMap, row):
    """Angle steps arg(z[j+1] / z[j]) around the periodic row z of m, and
    the winding number about the origin that they sum to."""
    z = m.h[row]
    if np.any(np.abs(z) < 1e-300):
        raise DegenerateRowError(f"row {row} passes through the origin")
    if np.ptp(z.real) == 0.0 and np.ptp(z.imag) == 0.0:
        raise DegenerateRowError(f"row {row} collapsed to a single point")
    steps = np.angle(np.roll(z, -1) / z)
    return steps, int(np.rint(np.sum(steps) / (2 * np.pi)))


def winding_number(m: PolarGridMap, row):
    """Discrete degree of the image of a grid circle about the origin."""
    return _row_steps(m, row)[1]


def _negative_share(m: PolarGridMap, Dt, Dth):
    """Share of m's cells, by their `cell_diffs`, whose Jacobian density
    Im(conj(h_t) h_theta) (J_h * s^2, against dt dtheta) is below -64 eps
    R_star^2 / (dt dtheta), which bounds the rounding of a zero density."""
    tol = 64 * np.finfo(float).eps * m.pair.R_star ** 2 / (m.dt * m.dtheta)
    return float(np.mean(np.imag(np.conj(Dt) * Dth) < -tol))


def cell_diffs(h, dt, dtheta):
    """Cell-averaged forward differences; theta is periodic."""
    hr = np.roll(h, -1, axis=1)
    Dt = (h[1:] + hr[1:] - h[:-1] - hr[:-1]) / (2 * dt)
    Dth = (hr[1:] + hr[:-1] - h[1:] - h[:-1]) / (2 * dtheta)
    return Dt, Dth


def cell_average(v):
    """Average of the four corner nodes per cell (periodic in theta)."""
    vr = np.roll(v, -1, axis=1)
    return 0.25 * (v[1:] + v[:-1] + vr[1:] + vr[:-1])


def cell_weights(w: Weight, t, R):
    """lambda at the cell midpoints of the log-radius nodes t."""
    s_mid = np.minimum(np.exp(0.5 * (t[1:] + t[:-1])), R)
    return np.asarray(w(s_mid), dtype=float)


def _reduce(diag, off):
    """Exact elimination of the interior nodes of tridiagonal blocks B with
    rows (diag, off) of `CylinderForm.block`.

    Returns (Z, S), Z of shape (blocks, nodes - 2, 2) and S of shape
    (blocks, 2, 2).  Split B into the end nodes and the interior: for end
    values b the interior minimizer is -Z b with Z = B_II^{-1} B_IB, and
    the minimum is b^H S b with the Schur complement S = B_BB - B_BI Z.
    The interior blocks are solved as one banded system.
    """
    modes, n = diag.shape[0], diag.shape[1] - 2
    ab = np.zeros((2, modes, n))    # upper form; 0 couples the blocks
    ab[0, :, 1:] = off[:, 1:-1]
    ab[1] = diag[:, 1:-1]
    rhs = np.zeros((modes, n, 2))
    rhs[:, 0, 0] = off[:, 0]
    rhs[:, -1, 1] = off[:, -1]
    Z = solveh_banded(ab.reshape(2, modes * n),
                      rhs.reshape(modes * n, 2)).reshape(modes, n, 2)
    S = np.empty((modes, 2, 2))
    S[:, 0, 0] = diag[:, 0] - off[:, 0] * Z[:, 0, 0]
    S[:, 0, 1] = S[:, 1, 0] = -off[:, 0] * Z[:, 0, 1]
    S[:, 1, 1] = diag[:, -1] - off[:, -1] * Z[:, -1, 1]
    return Z, S


class CylinderForm:
    """The weighted cylinder form E(h) = dt dtheta sum lambda_{i+1/2}
    (|D_t h|^2 + |D_theta h|^2) of `cell_diffs`, for the cell weights lam.

    lambda depends on t only, so E is block-diagonal in the theta-Fourier
    modes k: on h = v(t) e^{ik theta} it is v^T B_k v, B_k tridiagonal in t
    with the factors cos^2(k dtheta/2) on the slopes and
    (sin(k dtheta/2)/(dtheta/2))^2 on the cell means.  dtheta = 0 is the
    limit of continuous theta: the form of radial profiles.
    """

    def __init__(self, lam, dt, dtheta):
        self.lam, self.dt, self.dtheta = lam, dt, dtheta

    @classmethod
    def on(cls, w: Weight, m: PolarGridMap):
        return cls(cell_weights(w, m.t, m.pair.R), m.dt, m.dtheta)

    def energy(self, h):
        return self._energy(*cell_diffs(h, self.dt, self.dtheta))

    def _energy(self, Dt, Dth):
        lamc = self.lam[:, None]
        cell = self.dt * self.dtheta
        radl = cell * float(np.sum(lamc * (Dt.real ** 2 + Dt.imag ** 2)))
        ang = cell * float(np.sum(lamc * (Dth.real ** 2 + Dth.imag ** 2)))
        return radl + ang

    def grad(self, h):
        """Exact gradient, complex: the derivative of E along v is
        sum Re(conj(grad) v), and E(h) = Re<grad(h), h> / 2."""
        lamc = self.lam[:, None]
        hr = np.roll(h, -1, axis=1)
        u = h + hr                  # theta-sums: D_t h = diff(u) / (2 dt)
        hr -= h                     # theta-differences, summed in t: D_theta h
        p = u[1:] - u[:-1]
        p *= (self.dtheta / (2 * self.dt)) * lamc
        q = np.add(hr[1:], hr[:-1], out=u[1:])      # u is spent
        q *= (self.dt / (2 * self.dtheta)) * lamc
        plus = np.add(p, q, out=hr[1:])             # and so is hr
        minus = np.subtract(p, q, out=p)
        # cell (i, j) adds -plus to node (i, j), minus to (i+1, j), -minus
        # to (i, j+1) and plus to (i+1, j+1)
        g = np.empty_like(h)
        g[0] = -plus[0]
        np.subtract(minus[:-1], plus[1:], out=g[1:-1])
        g[-1] = minus[-1]
        g[1:, 1:] += plus[:, :-1]
        g[1:, 0] += plus[:, -1]
        g[:-1, 1:] -= minus[:, :-1]
        g[:-1, 0] -= minus[:, -1]
        return g

    @property
    def ntheta(self):
        return round(2 * np.pi / self.dtheta)

    def _factors(self, k):
        x = k * self.dtheta / 2
        return np.cos(x) ** 2, (k * np.sinc(x / np.pi)) ** 2

    def block(self, k):
        """(diagonal, off-diagonal) of B_k; for an array of modes k, one
        row of each per mode."""
        c, d = self._factors(np.asarray(k, dtype=float)[..., None])
        scale = 2 * np.pi * self.dt * self.lam
        a = scale * (c / self.dt ** 2 + d / 4)
        diag = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
        diag[..., :-1] += a
        diag[..., 1:] += a
        return diag, scale * (d / 4 - c / self.dt ** 2)

    @property
    def L(self):
        """Lipschitz constant of `grad`: dtheta / pi times the top
        eigenvalue of the blocks.  Along k the factors move on the segment
        c + d (dtheta/2)^2 = 1, on which the top eigenvalue is convex, so
        it is largest at k = 0 or k = ntheta // 2."""
        n = self.lam.size
        top = max(eigvalsh_tridiagonal(*self.block(k), select="i",
                                       select_range=(n, n))[0]
                  for k in (0, self.ntheta // 2))
        return top * self.dtheta / np.pi

    def boundary_reduction(self):
        """Exact elimination of the interior rows (`_reduce`), mode by mode,
        for the distinct modes k = 0 .. ntheta // 2 (B_k = B_{ntheta - k}):
        Z of shape (modes, ns - 2, 2) and S of shape (modes, 2, 2)."""
        return _reduce(*self.block(np.arange(self.ntheta // 2 + 1)))

    def radial_minimum(self, r_star, R_star):
        """Minimizer H >= r_star of the radial energy (B_1) with H_0 =
        r_star, H_n = R_star.  One banded solve (`_reduce`) gives X and Y,
        the interior solutions for end values (1, 0) and (0, 1).  Pinned
        to r_star at node j, the solution on j..n is a_j X + R_star Y,
        a_j = (r_star - R_star Y_j) / X_j, so every contact index j is
        tried at once: H = r_star up to the least j whose next value is
        >= r_star.  While H > 0 the flux lambda H_t grows, so j = 0
        exactly when r_star X + R_star Y stays above r_star.  The KKT
        multipliers on the contact set must be nonnegative and H monotone
        (FeasibilityError otherwise)."""
        diag, off = self.block(1)
        X, Y = np.zeros((2, self.lam.size + 1))
        X[0], Y[-1] = 1.0, 1.0
        X[1:-1], Y[1:-1] = -_reduce(diag[None], off[None])[0][0].T
        a = (r_star - R_star * Y[:-1]) / X[:-1]
        feasible = a * X[1:] + R_star * Y[1:] >= r_star
        j = int(np.argmax(feasible))
        H = a[j] * X + R_star * Y
        H[:j + 1] = r_star
        grad = 2 * diag * H
        grad[1:] += 2 * off * H[:-1]
        grad[:-1] += 2 * off * H[1:]
        if np.any(grad[1:j + 1] < 0):
            raise FeasibilityError("negative obstacle multiplier at contact "
                                   f"node {1 + int(np.argmin(grad[1:j + 1]))}")
        if np.any(np.diff(H) < 0):
            raise FeasibilityError("radial minimizer is not monotone")
        return H

    def radial_energy(self, H):
        """Energy of h = H(t) e^{i theta}, from the differences of H."""
        c, d = self._factors(1)
        scale = 2 * np.pi * self.dt
        radl = scale * c * float(np.sum(self.lam * (np.diff(H) / self.dt) ** 2))
        ang = scale * d * float(np.sum(self.lam * (0.5 * (H[1:] + H[:-1])) ** 2))
        return radl + ang


# ---------------------------------------------------------------------------
# 1-D radial energy and minimizer


def radial_energy(w: Weight, rv: RadialVector, check=True):
    """Energy 2 pi int lambda (H^2/s + s Hdot^2) ds of a radial map."""
    if check:
        rv.check()
    t = np.log(rv.s)
    return CylinderForm(cell_weights(w, t, rv.s[-1]), t[1] - t[0],
                        0.0).radial_energy(rv.H)


def minimize_radial(w: Weight, pair: rd.AnnulusPair, n=2048):
    """`CylinderForm.radial_minimum` at dtheta = 0 on n cells: the radial
    minimizer without the ODE.  rep.iterations is the one solve."""
    if n < 3:
        raise ValueError(f"minimize_radial needs n >= 3 cells, got {n}")
    t = np.linspace(np.log(pair.r), np.log(pair.R), n + 1)
    s = np.exp(t)
    s[0], s[-1] = pair.r, pair.R
    form = CylinderForm(cell_weights(w, t, pair.R), (t[-1] - t[0]) / n, 0.0)
    H = form.radial_minimum(pair.r_star, pair.R_star)
    return RadialVector(s=s, H=H), EnergyReport(form.radial_energy(H), 1)


# ---------------------------------------------------------------------------
# 2-D polar energy, gradient and minimizer


def polar_energy(w: Weight, m: PolarGridMap, check=True):
    if check:
        m.check()
    return EnergyReport(CylinderForm.on(w, m).energy(m.h))


def polar_gradient(w: Weight, m: PolarGridMap):
    """Exact gradient of the discrete polar energy (`CylinderForm.grad`)."""
    return CylinderForm.on(w, m).grad(m.h)


def embed_radial(sol: rd.RadialSolution, ns=256, ntheta=256, mode=MODE_FREE):
    """Embed a radial minimizer as a polar-grid map h = H(s) e^{i theta}."""
    pair = sol.pair
    t, theta = polar_grid(pair, ns, ntheta)
    H = np.interp(t, sol.phi.t, sol.profile.H)
    H[0], H[-1] = pair.r_star, pair.R_star
    h = H[:, None] * np.exp(1j * theta)[None, :]
    return PolarGridMap(h, pair, mode)


def smooth_perturbation(t, theta, amplitude, rng):
    """Seeded random trigonometric field vanishing at the s-boundaries:
    the sum over k = 1..K, m = 0..K (K = PERTURBATION_MODES) of
    sin(pi k u) (a cos(m theta + c) + b sin(m theta)), u in [0, 1]."""
    kmax = PERTURBATION_MODES
    u = (t - t[0]) / (t[-1] - t[0])
    a, b, c = np.moveaxis(rng.standard_normal((kmax, kmax + 1, 3)), -1, 0)
    m_ = np.arange(kmax + 1)[:, None]
    radial = np.sin(np.pi * np.arange(1, kmax + 1)[:, None] * u)
    angular = (a[..., None] * np.cos(m_ * theta + c[..., None])
               + b[..., None] * np.sin(m_ * theta))
    field_ = np.einsum("ki,kmj->ij", radial, angular)
    # normalize by the analytic sup bound so the continuum field does not
    # depend on the grid resolution (needed for convergence studies); the
    # bound is summed in draw order, as the terms were
    bound = np.cumsum(np.abs(a) + np.abs(b))[-1]
    return field_ * (amplitude / bound)


def perturb_map(m: PolarGridMap, amplitude, seed):
    """Smooth perturbation of modulus and argument, checked admissible; m's
    moduli are checked first, so the clip below never repairs them."""
    rng = np.random.default_rng(seed)
    G = np.abs(m.h)
    _check_moduli(G, m.pair)
    alpha = np.angle(m.h)
    span = m.pair.R_star - m.pair.r_star
    dG = smooth_perturbation(m.t, m.theta, amplitude * span, rng)
    dA = smooth_perturbation(m.t, m.theta, amplitude * np.pi, rng)
    G2 = np.clip(G + dG, m.pair.r_star, m.pair.R_star)
    out = PolarGridMap(G2 * np.exp(1j * (alpha + dA)), m.pair, m.mode)
    if m.mode == MODE_FIXED_OUTER:
        out.h[-1] = m.pair.R_star * np.exp(1j * m.theta)
    out.check()
    return out


def _project(h, m: PolarGridMap):
    p = m.pair
    mod = np.abs(h)
    bad = mod < 1e-300
    if np.any(bad):
        # re-seat degenerate nodes on the inner target circle
        h = np.where(bad, p.r_star * np.exp(1j * m.theta)[None, :], h)
        mod = np.abs(h)
    out = h * (np.clip(mod, p.r_star, p.R_star) / mod)
    out[0] = p.r_star * out[0] / np.abs(out[0])
    if m.mode == MODE_FIXED_OUTER:
        out[-1] = p.R_star * np.exp(1j * m.theta)
    else:
        out[-1] = p.R_star * out[-1] / np.abs(out[-1])
    return out


def _kkt_residual(h, G, m: PolarGridMap):
    """KKT residual of the rows h of a map on m's pair and mode (all rows,
    or the two boundary rows) at its energy gradient G, relative to
    max |G|: the largest of the tangential gradient at every free node,
    the radial gradient off the active set |h| in {r_star, R_star}, and a
    wrong-signed multiplier on it.  The moduli of the first and last rows
    are pinned, and in fixed-outer mode the last row is pinned entirely."""
    p = m.pair
    mod = np.abs(h)
    g = np.conj(h) * G          # |h| (radial + i tangential component)
    radl = g.real / mod
    tang = np.abs(g.imag)
    tang /= mod
    held = (((mod <= p.r_star + ADMISSIBLE_TOL) & (radl > 0))
            | ((mod >= p.R_star - ADMISSIBLE_TOL) & (radl < 0)))
    np.abs(radl, out=radl)
    radl[held] = 0.0
    radl[[0, -1]] = 0.0
    if m.mode == MODE_FIXED_OUTER:
        tang[-1] = 0.0
    scale = np.abs(G).max()
    return float(max(radl.max(), tang.max()) / scale) if scale else 0.0


def _descend(x0, grad, project, kkt, L, max_iter):
    """Projected FISTA with function-value restarts (none at the first
    step, whose y is x0) and step 1/L on the quadratic with gradient
    `grad`.  The gradient is linear, so a step applies it once, to the new
    iterate: its gradient G gives its energy Re<G, x>/2 and, with the
    previous one, the gradient at the extrapolated point.  A step whose
    energy changes by at most POLAR_TOL (relative) is quiet.  The descent
    converges at a quiet step whose iterate has `kkt` residual at most
    KKT_TOL (stationary), or else at the 10th quiet step in a row (flat).
    Returns (x, steps, converged)."""
    step = 1.0 / L
    h = x0.copy()
    G_h = grad(h)
    E_cur = 0.5 * np.vdot(G_h, h).real
    y, G_y = h, G_h
    t_k = 1.0
    quiet = 0
    it = 0
    for it in range(1, max_iter + 1):
        h_new = project(y - step * G_y)
        G_new = grad(h_new)
        E_new = 0.5 * np.vdot(G_new, h_new).real
        if E_new > E_cur and t_k > 1.0:   # overshoot: restart from h
            t_k = 1.0
            h_new = project(h - step * G_h)
            G_new = grad(h_new)
            E_new = 0.5 * np.vdot(G_new, h_new).real
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        beta = (t_k - 1.0) / t_next
        y = h_new + beta * (h_new - h)
        G_y = (1.0 + beta) * G_new - beta * G_h
        t_k = t_next
        small = abs(E_new - E_cur) <= POLAR_TOL * max(abs(E_new), 1.0)
        quiet = quiet + 1 if small else 0
        h, G_h, E_cur = h_new, G_new, E_new
        if quiet >= 10 or (quiet and kkt(h, G_h) <= KKT_TOL):
            return h, it, True
    warnings.warn("minimize_polar hit the iteration cap; "
                  "returning the best iterate", RuntimeWarning)
    return h, it, False


def minimize_polar(w: Weight, pair: rd.AnnulusPair, ns=256, ntheta=256,
                   mode=MODE_FREE, init: PolarGridMap | None = None,
                   seed=0, perturbation=0.0, max_iter=2000,
                   radial_solution: rd.RadialSolution | None = None):
    """Projected descent over admissible polar-grid maps.

    The start is `init`, else the grid's radial candidate H(t) e^{i theta}
    with H = `CylinderForm.radial_minimum` of the descent's own form, or
    else the embedded `radial_solution` (`ns`, `ntheta` and `mode` shape
    only these defaults).  It must be on `pair` (ValueError) and brings
    the result's grid and mode.  `perturbation` > 0 adds a seeded smooth
    perturbation.  The interior minimizer of the form is linear in the
    boundary rows (`CylinderForm.boundary_reduction`), so the descent runs
    on those rows only (row 0 only in fixed-outer mode): gradient
    (2 / ntheta) ifft(S_k b_k), step 1/L_S, L_S = (2 / ntheta)
    max_k lambda_max(S_k), interior -ifft(Z_k b_k).  If that extension
    leaves [r_star, R_star] (collapsing pairs), the whole grid descends
    from the start instead; the unperturbed candidate is a KKT point
    there.  Both are `_descend`, whose projection clamps the moduli and
    re-pins the boundary rows, and whose KKT residual stops it at a
    stationary quiet step.  Start and result are checked once each; an
    inadmissible result raises FeasibilityError.  rep.iterations counts
    the steps of both descents, and rep.kkt_residual is the result's."""
    candidate = init is None and radial_solution is None
    if candidate:
        init = PolarGridMap(np.empty((ns, ntheta), dtype=complex), pair, mode)
    elif init is None:
        init = embed_radial(radial_solution, ns, ntheta, mode)
    if init.pair != pair:
        raise ValueError(f"start map is on {init.pair}, not on {pair}")
    form = CylinderForm.on(w, init)
    if candidate:
        H = form.radial_minimum(pair.r_star, pair.R_star)
        init.h[:] = H[:, None] * np.exp(1j * init.theta)
    if perturbation > 0:
        init = perturb_map(init, perturbation, seed)
    else:
        init.check()
    ns, ntheta = init.h.shape
    Z, S = form.boundary_reduction()
    L_S = 2 / ntheta * np.linalg.eigvalsh(S)[:, -1].max()
    k = np.minimum(np.arange(ntheta), ntheta - np.arange(ntheta))
    Z, S = Z[k], S[k]           # per column of fft(rows, axis=1)

    project = partial(_project, m=init)
    kkt = partial(_kkt_residual, m=init)

    def reduced_grad(b):
        bh = np.fft.fft(b, axis=1)
        return (2 / ntheta) * np.fft.ifft(np.einsum("kab,bk->ak", S, bh),
                                          axis=1)

    def extend(b):
        h = np.empty((ns, ntheta), dtype=complex)
        h[[0, -1]] = b
        h[1:-1] = -np.fft.ifft(np.einsum("kib,bk->ik", Z,
                                         np.fft.fft(b, axis=1)), axis=1)
        return h

    b, iterations, converged = _descend(init.h[[0, -1]], reduced_grad,
                                        project, kkt, L_S, max_iter)
    h = extend(b)
    try:
        _check_moduli(np.abs(h), pair)
    except AdmissibilityError:      # the relaxation is infeasible
        h, steps, converged = _descend(init.h, form.grad, project, kkt,
                                       form.L, max_iter)
        iterations += steps
    out = PolarGridMap(h, pair, init.mode)
    try:
        out.check()
    except AdmissibilityError as e:
        raise FeasibilityError(f"descended map: {e}") from e
    residual = _kkt_residual(h, form.grad(h), out)
    diffs = cell_diffs(h, form.dt, form.dtheta)
    return out, EnergyReport(form._energy(*diffs), iterations, converged,
                             _negative_share(out, *diffs), residual)
