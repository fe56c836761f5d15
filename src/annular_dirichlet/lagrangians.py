"""Free-Lagrangian identities, the isoperimetric inequality and the
chain of proof-step estimates, checked numerically on generated maps.

The four identities pair an area integral over the annulus (quadrature on
the polar grid) with a boundary-data value that does not depend on the
map.  Theta derivatives for the circle-by-circle checks are spectral, so
the isoperimetric margin of a smooth admissible map is nonnegative down
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import discrete as dc
from . import radial as rd
from .weights import Weight

# 48-point Gauss-Legendre rule on [-1, 1] for the identities' exact sides:
# their integrands are smooth on the radius intervals, where the rule
# agrees with adaptive quadrature to rounding
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


@dataclass
class IdentityResidual:
    lhs: float
    rhs: float

    @property
    def residual(self):
        return abs(self.lhs - self.rhs)

    @property
    def rel_residual(self):
        scale = max(abs(self.lhs), abs(self.rhs), 1e-300)
        return self.residual / scale


@dataclass
class TestMapSpec:
    kind: str                      # "radial" | "twist" | "perturbed"
    pair: rd.AnnulusPair
    ns: int = 256
    ntheta: int = 256
    profile: object = None         # H(s) on an array of radii; None = radial minimizer
    twist: object = None           # angular shift on an array of radii, for "twist"
    base: "TestMapSpec" = None     # for "perturbed"
    amplitude: float = 0.0
    seed: int = 0
    weight: Weight = None          # used when profile is None


@dataclass
class CFunction:
    """Scalar function C(s, G) with its partial derivatives."""
    f: object
    fs: object
    fG: object


@dataclass
class ProofStepReport:
    westim1: float | None        # min over rays, Cauchy-Schwarz step
    westim2: float               # min over rows, isoperimetric step
    westim4: float               # boundary free-Lagrangian step
    energy_margin: float         # E[h] - closed-form minimum
    notes: list = field(default_factory=list)


def radial_profile(sol: rd.RadialSolution):
    """The radial minimizer's profile as a callable s -> H(s), linear in
    t = ln s between the ODE grid's nodes."""
    return lambda s: np.interp(np.log(s), sol.phi.t, sol.profile.H)


def make_test_map(spec: TestMapSpec):
    """Generate an admissible polar-grid map from a declarative spec."""
    pair = spec.pair
    if spec.kind == "perturbed":
        base = make_test_map(spec.base)
        return dc.perturb_map(base, spec.amplitude, spec.seed)
    t, theta = dc.polar_grid(pair, spec.ns, spec.ntheta)
    s = np.exp(t)
    profile = spec.profile
    if profile is None:
        w = spec.weight or Weight.constant(1.0, pair.r, pair.R)
        profile = radial_profile(rd.build(w, pair))
    H = np.array(profile(s), dtype=float)
    H[0], H[-1] = pair.r_star, pair.R_star
    phase = theta[None, :]
    if spec.kind == "twist":
        shift = np.asarray(spec.twist(s), dtype=float)
        phase = phase + shift[:, None]
    elif spec.kind != "radial":
        raise ValueError(f"unknown test map kind: {spec.kind!r}")
    m = dc.PolarGridMap(H[:, None] * np.exp(1j * phase), pair)
    m.check()
    return m


def theta_derivative(rows):
    """Spectral d/dtheta along the periodic axis (last axis)."""
    rows = np.asarray(rows)
    n = rows.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k = k.copy()
        k[n // 2] = 0.0   # drop the Nyquist mode of the derivative
    return np.fft.ifft(1j * k * np.fft.fft(rows, axis=-1), axis=-1)


def _cells(m: dc.PolarGridMap):
    Dt, Dth = dc.cell_diffs(m.h, m.dt, m.dtheta)
    sc = np.exp(0.5 * (m.t[1:] + m.t[:-1]))[:, None]
    return Dt, Dth, sc, m.dt * m.dtheta


def fl_pullback_residual(m: dc.PolarGridMap, N):
    """Pullback identity: int N(|h|) J dz = 2 pi int N(G) G dG."""
    Dt, Dth, _, cell = _cells(m)
    Gc = dc.cell_average(np.abs(m.h))
    J = np.imag(np.conj(Dt) * Dth)
    lhs = cell * float(np.sum(_apply(N, Gc) * J))
    rhs = 2 * np.pi * _integral(lambda G: N(G) * G,
                                m.pair.r_star, m.pair.R_star)
    return IdentityResidual(lhs, rhs)


def fl_radial_residual(m: dc.PolarGridMap, A):
    """Radial identity: int int A(|h|) d|h|/ds ds dtheta = 2 pi int A."""
    G = np.abs(m.h)
    DtG, _ = dc.cell_diffs(G.astype(complex), m.dt, m.dtheta)
    Gc = dc.cell_average(G)
    cell = m.dt * m.dtheta
    lhs = cell * float(np.sum(_apply(A, Gc) * DtG.real))
    rhs = 2 * np.pi * _integral(A, m.pair.r_star, m.pair.R_star)
    return IdentityResidual(lhs, rhs)


def fl_tangential_residual(m: dc.PolarGridMap, B):
    """Tangential identity: int int B(s) Im(h_theta/h) ds dtheta = 2 pi int B."""
    if np.any(np.abs(m.h) < 1e-300):
        raise dc.DegenerateRowError("zero modulus in tangential identity")
    Dt, Dth, sc, cell = _cells(m)
    hc = dc.cell_average(m.h)
    lhs = cell * float(np.sum(_apply(B, sc) * sc * np.imag(Dth / hc)))
    rhs = 2 * np.pi * _integral(B, m.pair.r, m.pair.R)
    return IdentityResidual(lhs, rhs)


def fl_boundary_residual(m: dc.PolarGridMap, C: CFunction):
    """Boundary identity:

    int (2C + G C_G) J + C_s (|h|^2/s) Im(h_theta/h) dz
        = 2 pi [R*^2 C(R, R*) - r*^2 C(r, r*)].
    """
    Dt, Dth, sc, cell = _cells(m)
    Gc = dc.cell_average(np.abs(m.h))
    hc = dc.cell_average(m.h)
    J = np.imag(np.conj(Dt) * Dth)
    term1 = (2 * _apply2(C.f, sc, Gc) + Gc * _apply2(C.fG, sc, Gc)) * J
    term2 = _apply2(C.fs, sc, Gc) * Gc ** 2 * sc * np.imag(Dth / hc)
    lhs = cell * float(np.sum(term1 + term2))
    p = m.pair
    rhs = 2 * np.pi * (p.R_star ** 2 * C.f(p.R, p.R_star)
                       - p.r_star ** 2 * C.f(p.r, p.r_star))
    return IdentityResidual(lhs, rhs)


def _integral(f, a, b):
    """int_a^b f by the Gauss-Legendre rule; f may return a scalar."""
    half = 0.5 * (b - a)
    x = half * _GL_NODES + 0.5 * (a + b)
    return half * float(np.dot(_GL_WEIGHTS, _apply(f, x)))


def _apply(f, arr):
    out = f(arr)
    return np.broadcast_to(np.asarray(out, dtype=float), arr.shape)


def _apply2(f, a, b):
    out = f(a, b)
    shape = np.broadcast_shapes(a.shape, b.shape)
    return np.broadcast_to(np.asarray(out, dtype=float), shape)


def isoperimetric_margins(m: dc.PolarGridMap):
    """Row margins (1/2pi)(length)^2 - oriented area term, >= 0 for closed
    curves and zero exactly on circles, for all rows at once."""
    if np.any(np.abs(m.h) < 1e-300):
        raise dc.DegenerateRowError("map passes through the origin")
    zth = theta_derivative(m.h)
    length = np.sum(np.abs(zth), axis=1) * m.dtheta
    area2 = np.sum(np.imag(np.conj(m.h) * zth), axis=1) * m.dtheta
    return length ** 2 / (2 * np.pi) - area2


def proof_step_suite(m: dc.PolarGridMap, sol: rd.RadialSolution, w: Weight):
    """Margins of the minimality-proof inequalities for the map m.

    All margins are nonnegative up to quadrature error, and vanish when m
    is the embedded radial minimizer.
    """
    notes = []
    pair = sol.pair
    phi_m = np.interp(m.t, sol.phi.t, sol.phi.phi)
    H_m = np.interp(m.t, sol.phi.t, sol.profile.H)
    c = float(H_m[0] * phi_m[0]) if sol.case_tag == rd.CASE1 else 0.0
    tau = phi_m - (c / H_m if c else 0.0)

    # Cauchy-Schwarz step: per-ray int |h_s|^2 / Hdot ds >= R* - r*
    westim1 = None
    if sol.case_tag == rd.CASE1 and np.all(np.diff(H_m) > 0):
        dh = np.abs(np.diff(m.h, axis=0)) ** 2
        ray = np.sum(dh / np.diff(H_m)[:, None], axis=0)
        westim1 = float(np.min(ray)) - (pair.R_star - pair.r_star)
    else:
        notes.append("westim1 skipped: flat profile segment (collapsing case)")

    # isoperimetric step per circle, weighted by the slope of tau
    zth = theta_derivative(m.h)
    q = np.imag(np.conj(m.h) * zth)           # oriented area density
    sq = np.abs(zth) ** 2
    dtau = np.maximum(0.0, np.diff(tau))
    row_gap = (np.sum(sq, axis=1) - np.sum(q, axis=1)) * m.dtheta
    cell_gap = 0.5 * (row_gap[1:] + row_gap[:-1])
    westim2 = float(np.min(dtau * cell_gap))

    # boundary free-Lagrangian step; averaging in t only keeps the
    # embedded radial minimizer an exact (telescoping) equality case
    q_cell = 0.5 * (q[1:] + q[:-1])           # node-average in t per cell
    term1 = float(np.sum(np.diff(tau)[:, None] * q_cell)) * m.dtheta
    zth_abs = np.abs(zth)
    zth_abs_cell = 0.5 * (zth_abs[1:] + zth_abs[:-1])
    dt_edge = np.abs(np.diff(m.h, axis=0)) / m.dt
    tau_c = 0.5 * (tau[1:] + tau[:-1])[:, None]
    term2 = 2 * float(np.sum(tau_c * zth_abs_cell * dt_edge)) \
        * m.dt * m.dtheta
    rhs = 2 * np.pi * (tau[-1] * pair.R_star ** 2 - tau[0] * pair.r_star ** 2)
    westim4 = float(term1 + term2 - rhs)

    energy_margin = dc.polar_energy(w, m, check=False).total - sol.energy
    return ProofStepReport(westim1=westim1, westim2=westim2, westim4=westim4,
                           energy_margin=float(energy_margin), notes=notes)
