import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annular_dirichlet import discrete as dc
from annular_dirichlet import lagrangians as lg
from annular_dirichlet import radial as rd
from annular_dirichlet.weights import Weight

import form_oracle


def unit():
    return Weight.constant(1.0, 1.0, 2.0)


WEIGHTS = {
    "1": Weight.constant(1.0, 1.0, 2.0),
    "s": Weight.power(1.0, 1.0, 2.0),
    "1/s": Weight.power(-1.0, 1.0, 2.0),
    "2+sin4s": Weight.from_callable(lambda s: 2.0 + np.sin(4.0 * s), 1.0, 2.0,
                                    samples=8193),
}

# the weights of the twisted-start gate (TestMinimizePolar.TWISTED)
GATE_WEIGHTS = {
    **WEIGHTS,
    "s^2": Weight.power(2.0, 1.0, 2.0),
    "s^-2(1,3)": Weight.power(-2.0, 1.0, 3.0),
    "2+sin4s(1,3)": Weight.from_callable(lambda s: 2.0 + np.sin(4.0 * s),
                                         1.0, 3.0, samples=8193),
}


def identity_map(ns=64, ntheta=64, pair=None):
    pair = pair or rd.AnnulusPair(1, 2, 1, 2)
    t, theta = dc.polar_grid(pair, ns, ntheta)
    h = np.exp(t)[:, None] * np.exp(1j * theta)[None, :]
    return dc.PolarGridMap(h, pair)


def twisted_map(pair, n, mode, amplitude=0.3):
    """Admissible map with a linear profile whose boundary rows are
    reparametrized circles: the inner row always, the outer row when free."""
    t, theta = dc.polar_grid(pair, n, n)
    u = (t - t[0]) / (t[-1] - t[0])
    angle = np.outer(1 - u, np.sin(theta) + 0.5 * np.cos(3 * theta))
    if mode == dc.MODE_FREE:
        angle += np.outer(u, np.cos(2 * theta + 1.0))
    H = pair.r_star + (pair.R_star - pair.r_star) * u
    h = H[:, None] * np.exp(1j * (theta[None, :] + amplitude * angle))
    return dc.PolarGridMap(h, pair, mode)


def oracle_minimum(w, m):
    """Energy of the discrete radial candidate on m's grid, at its own
    dtheta: the form's minimum over H(t) e^{i theta} with H >= r_star."""
    lam = np.asarray(w(np.minimum(np.exp(0.5 * (m.t[1:] + m.t[:-1])),
                                  m.pair.R)))
    return form_oracle.radial_obstacle_minimum(
        lam, m.dt, m.dtheta, m.pair.r_star, m.pair.R_star)[1]


class TestPolarGridMap:
    def test_identity_is_admissible(self):
        identity_map().check()

    def test_modulus_bound_enforced(self):
        m = identity_map()
        m.h[3, 4] = 5.0
        with pytest.raises(dc.AdmissibilityError):
            m.check()

    def test_boundary_rows_enforced(self):
        m = identity_map()
        m.h[0, 0] = 1.5
        with pytest.raises(dc.AdmissibilityError):
            m.check()

    def test_fixed_outer_mode_pins_outer_row(self):
        pair = rd.AnnulusPair(1, 2, 1, 2)
        m = identity_map(pair=pair)
        fixed = dc.PolarGridMap(m.h, pair, mode=dc.MODE_FIXED_OUTER)
        fixed.check()
        bad = m.h.copy()
        bad[-1] *= np.exp(0.3j)     # rigid rotation of the outer circle
        with pytest.raises(dc.AdmissibilityError):
            dc.PolarGridMap(bad, pair, mode=dc.MODE_FIXED_OUTER).check()

    def test_winding_number(self):
        m = identity_map()
        assert dc.winding_number(m, 0) == 1
        assert dc.winding_number(m, m.h.shape[0] // 2) == 1
        rev = dc.PolarGridMap(np.conj(m.h), m.pair)
        assert dc.winding_number(rev, 3) == -1

    def test_collapse_embedding_is_admissible(self):
        # the plateau is r* exactly, and H ends at R* to rounding
        sol = rd.build(Weight.power(1.0, 1.0, 2.0),
                       rd.AnnulusPair(1.0, 2.0, 1.0, 1.05))
        H = sol.profile.H
        assert np.all(H[sol.phi.s < sol.r0] == 1.0)
        assert H[-1] == pytest.approx(1.05, rel=1e-15, abs=0)
        dc.embed_radial(sol, 96, 96).check()

    def test_degenerate_row_raises(self):
        m = identity_map()
        m.h[5] = 0.0
        with pytest.raises(dc.DegenerateRowError):
            dc.winding_number(m, 5)


class TestRadialEnergy:
    def test_conformal_value(self):
        t = np.linspace(0.0, np.log(2.0), 2048)
        rv = dc.RadialVector(s=np.exp(t), H=np.exp(t))
        e = dc.radial_energy(unit(), rv)
        assert e == pytest.approx(6 * np.pi, rel=1e-6)

    def test_monotonicity_check(self):
        s = np.linspace(1.0, 2.0, 64)
        H = np.linspace(1.0, 2.0, 64)
        H[10] = 1.8
        H[11] = 1.0
        with pytest.raises(dc.AdmissibilityError):
            dc.radial_energy(unit(), dc.RadialVector(s=s, H=H))


class TestMinimizeRadial:
    def test_case1_energy(self):
        pair = rd.AnnulusPair(1, 2, 1, 1.25)
        rv, rep = dc.minimize_radial(unit(), pair)
        assert rep.converged
        exact = 15 * np.pi / 8
        assert abs(rep.total - exact) / exact < 5e-3

    def test_case2_plateau(self):
        pair = rd.AnnulusPair(1, 2, 1, 3 / (2 * np.sqrt(2)))
        rv, rep = dc.minimize_radial(unit(), pair)
        plateau = np.flatnonzero(rv.H <= pair.r_star + 1e-6)
        # active clamp set should extend to s ~ r0 = sqrt(2)
        assert rv.s[plateau[-1]] == pytest.approx(np.sqrt(2.0), abs=5e-3)
        exact = 2 * np.pi * (3 / 8 + np.log(2) / 2)
        assert abs(rep.total - exact) / exact < 1e-2

    def test_case1_one_solve_second_order(self):
        pair = rd.AnnulusPair(1.0, 2.0, 1.0, 1.25)
        gaps = []
        for n in (256, 512, 1024, 2048):
            _, rep = dc.minimize_radial(unit(), pair, n=n)
            assert rep.iterations == 1
            gaps.append(rep.total - 15 * np.pi / 8)
        orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        np.testing.assert_allclose(orders, 2.0, atol=0.02)

    def test_case2_contact_set_and_multipliers(self):
        pair = rd.AnnulusPair(1.0, 2.0, 1.0, 3 / (2 * np.sqrt(2)))
        n = 2048
        rv, rep = dc.minimize_radial(unit(), pair, n=n)
        assert rep.iterations == 1
        plateau = np.flatnonzero(rv.H == pair.r_star)
        assert plateau.size > 100
        np.testing.assert_array_equal(plateau, np.arange(plateau.size))
        dt = np.log(2.0) / n
        assert abs(np.log(rv.s[plateau[-1]]) - np.log(np.sqrt(2.0))) <= dt
        t = np.log(rv.s)
        diag, off = dc.CylinderForm(dc.cell_weights(unit(), t, 2.0), dt,
                                    0.0).block(1)
        grad = 2 * diag * rv.H
        grad[1:] += 2 * off * rv.H[:-1]
        grad[:-1] += 2 * off * rv.H[1:]
        assert np.all(grad[1:plateau[-1] + 1] >= 0)
        # off the contact set the profile is stationary
        free = grad[plateau[-1] + 1:-1]
        assert np.max(np.abs(free)) < 1e-9 * np.max(np.abs(grad))

    # energies of the isotonic-projection FISTA that minimize_radial used
    # before the banded solves (n = 2048, stopped after 10 quiet steps)
    FISTA = {
        ("1", 1.02): 4.388782866588676, ("1", 1.05): 4.4886224436112565,
        ("1", 1.25): 5.890486267379128, ("1", 2.0): 18.84955592153876,
        ("s", 1.02): 6.347105687667264, ("s", 1.05): 6.529666639367473,
        ("s", 1.25): 8.865914919378111, ("s", 2.0): 28.821268492689313,
        ("1/s", 1.02): 3.15924555146741, ("1/s", 1.05): 3.213643031001494,
        ("1/s", 1.25): 4.0438071963577435, ("1/s", 2.0): 12.33184011541801,
        ("2+sin4s", 1.02): 7.652558418221527,
        ("2+sin4s", 1.05): 7.927460010089741,
        ("2+sin4s", 1.25): 11.018841974031302,
        ("2+sin4s", 2.0): 35.34328123296553,
    }

    @pytest.mark.parametrize("key", sorted(FISTA))
    def test_not_above_the_projected_descent(self, key):
        name, R_star = key
        _, rep = dc.minimize_radial(WEIGHTS[name],
                                    rd.AnnulusPair(1.0, 2.0, 1.0, R_star))
        # a few ulps of slack: at R* = 2 the descent starts at the minimizer
        old = self.FISTA[key]
        assert rep.total <= old + 4 * np.spacing(old)

    def _with_shifted_solve(self, monkeypatch, shift):
        # the one banded solve returns Z = -(X, Y) on the interior nodes
        solve = dc.solveh_banded
        monkeypatch.setattr(dc, "solveh_banded",
                            lambda ab, b: solve(ab, b) + shift(b.shape))

    def test_negative_multiplier_raises(self, monkeypatch):
        # X lowered at node 1: r_star X + R_star Y dips below r_star there
        # and a_1 lifts the next value above it, so the contact set ends at
        # node 1, which the profile pulls away from
        def shift(shape):
            dZ = np.zeros(shape)
            dZ[0, 0] = 0.5
            return dZ
        self._with_shifted_solve(monkeypatch, shift)
        pair = rd.AnnulusPair(1.0, 2.0, 1.0, 1.06)
        with pytest.raises(dc.FeasibilityError, match="multiplier"):
            dc.minimize_radial(unit(), pair, n=256)

    def test_non_monotone_profile_raises(self, monkeypatch):
        def shift(shape):       # X and Y lifted at the middle node
            dZ = np.zeros(shape)
            dZ[shape[0] // 2] = -0.5
            return dZ
        self._with_shifted_solve(monkeypatch, shift)
        pair = rd.AnnulusPair(1.0, 2.0, 1.0, 2.0)
        with pytest.raises(dc.FeasibilityError, match="monotone"):
            dc.minimize_radial(unit(), pair, n=256)

    @staticmethod
    def _obstacle_oracle(w, pair, n):
        t = np.linspace(np.log(pair.r), np.log(pair.R), n + 1)
        return form_oracle.radial_obstacle_minimum(
            dc.cell_weights(w, t, pair.R), (t[-1] - t[0]) / n, 0.0,
            pair.r_star, pair.R_star)

    @pytest.mark.parametrize("R_star, n", [(1 + 1e-7, 2048), (1 + 1e-9, 2048),
                                           (1.0001, 16)])
    def test_thin_target_contact_runs_to_the_last_interior_node(self, R_star,
                                                                 n):
        # too thin a target to leave r_star before the last node
        pair = rd.AnnulusPair(1.0, 2.0, 1.0, R_star)
        rv, rep = dc.minimize_radial(unit(), pair, n=n)
        np.testing.assert_array_equal(rv.H[:n], pair.r_star)
        assert rv.H[n] == pair.R_star
        _, E, j = self._obstacle_oracle(unit(), pair, n)
        assert j == n - 1
        assert rep.total == pytest.approx(E, rel=1e-15)

    OBSTACLE_WEIGHTS = {**WEIGHTS, "s^3": Weight.power(3.0, 1.0, 2.0),
                        "s^-3": Weight.power(-3.0, 1.0, 2.0),
                        "s^-8": Weight.power(-8.0, 1.0, 2.0)}

    @pytest.mark.parametrize("n", [16, 1024])
    @pytest.mark.parametrize("R_star", [1 + 1e-7, 1.06, 1.5, 3.0])
    @pytest.mark.parametrize("name", sorted(OBSTACLE_WEIGHTS))
    def test_matches_the_obstacle_oracle(self, name, R_star, n):
        # measured: energies within 3.1e-16 relative and H within 6.9e-11
        # (2.2e-10 at n = 2048); contact indices equal
        pair = rd.AnnulusPair(1.0, 2.0, 1.0, R_star)
        w = self.OBSTACLE_WEIGHTS[name]
        rv, rep = dc.minimize_radial(w, pair, n=n)
        H, E, j = self._obstacle_oracle(w, pair, n)
        assert np.flatnonzero(rv.H > pair.r_star)[0] - 1 == j
        assert rep.total == pytest.approx(E, rel=1e-15)
        np.testing.assert_allclose(rv.H, H, rtol=0, atol=3e-10)


class TestCylinderForm:
    @pytest.mark.parametrize("shape", [(48, 40), (128, 128)])
    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_matches_reference_form(self, name, shape):
        w = WEIGHTS[name]
        m = dc.perturb_map(identity_map(*shape, pair=rd.AnnulusPair(1, 2, 1, 2)),
                           0.1, 3)
        form = dc.CylinderForm.on(w, m)
        lamc = np.asarray(w(np.minimum(np.exp(0.5 * (m.t[1:] + m.t[:-1])),
                                       2.0)))[:, None]
        E = form_oracle.energy(m.h, lamc, m.dt, m.dtheta)
        assert abs(form.energy(m.h) - E) <= 1e-14 * E
        # entries of the gradient cancel, so its rounding is measured
        # against the operator bound L |h|, not against |G|
        G = form_oracle.gradient(m.h, lamc, m.dt, m.dtheta)
        scale = form.L * np.max(np.abs(m.h))
        assert np.max(np.abs(form.grad(m.h) - G)) <= 1e-14 * scale
        assert 0.5 * np.vdot(form.grad(m.h), m.h).real == \
            pytest.approx(E, rel=1e-14)

    @pytest.mark.xfail(strict=True, reason="one-point (cell-centre) "
                       "quadrature gives the checkerboard zero energy; the "
                       "fully integrated form of ROADMAP item 3 removes it")
    def test_checkerboard_has_positive_energy(self):
        form = dc.CylinderForm(np.ones(8), 0.1, 2 * np.pi / 12)
        i, j = np.indices((9, 12))
        assert form.energy((-1.0) ** (i + j) + 0j) > 0.0

    def test_blocks_are_the_mode_restrictions(self):
        m = identity_map(16, 12)
        form = dc.CylinderForm.on(WEIGHTS["s"], m)
        v = np.random.default_rng(4).standard_normal(16)
        for k in range(12):
            diag, off = form.block(k)
            B = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            h = v[:, None] * np.exp(1j * k * m.theta)[None, :]
            E = form.energy(h)
            assert v @ B @ v == pytest.approx(E, rel=1e-12)
            if k == 1:
                assert form.radial_energy(v) == pytest.approx(E, rel=1e-12)
            np.testing.assert_allclose(
                form.grad(h), (2 / 12) * (B @ v)[:, None]
                * np.exp(1j * k * m.theta)[None, :], rtol=0, atol=1e-12 * E)

    @pytest.mark.parametrize("ntheta", [12, 13])
    def test_L_is_the_top_eigenvalue(self, ntheta):
        m = identity_map(16, ntheta)
        form = dc.CylinderForm.on(WEIGHTS["2+sin4s"], m)
        lamc = form.lam[:, None]
        N = m.h.size
        cols = []
        for e in np.eye(2 * N):
            g = form_oracle.gradient((e[:N] + 1j * e[N:]).reshape(m.h.shape),
                                     lamc, m.dt, m.dtheta)
            cols.append(np.concatenate([g.real.ravel(), g.imag.ravel()]))
        top = np.linalg.eigvalsh(np.array(cols)).max()
        assert form.L == pytest.approx(top, rel=1e-12)

    @pytest.mark.parametrize("mode", [dc.MODE_FREE, dc.MODE_FIXED_OUTER])
    @pytest.mark.parametrize("ntheta", [12, 13])
    def test_boundary_reduction_is_the_dense_schur_complement(self, ntheta,
                                                              mode):
        ns = 16
        m = identity_map(ns, ntheta)
        form = dc.CylinderForm.on(WEIGHTS["2+sin4s"], m)
        Z, S = form.boundary_reduction()
        assert Z.shape == (ntheta // 2 + 1, ns - 2, 2)
        k = np.minimum(np.arange(ntheta), ntheta - np.arange(ntheta))

        # dense real Hessian of the form: E = x^T A x / 2 on x = (Re h, Im h)
        N = ns * ntheta
        cols = []
        for e in np.eye(2 * N):
            g = form.grad((e[:N] + 1j * e[N:]).reshape(ns, ntheta))
            cols.append(np.concatenate([g.real.ravel(), g.imag.ravel()]))
        A = np.array(cols)
        node = np.arange(N).reshape(ns, ntheta)

        def real(rows):     # indices of (Re, Im) of the nodes in rows
            return np.r_[node[rows].ravel(), N + node[rows].ravel()]

        moving = [0] if mode == dc.MODE_FIXED_OUTER else [0, ns - 1]
        U, I = real(moving), real(slice(1, -1))
        B = real([0, ns - 1])

        def as_complex(x, rows):
            return (x[:x.size // 2] + 1j * x[x.size // 2:]).reshape(rows, -1)

        # Schur complement on the moving rows, interior eliminated
        dense_S = A[np.ix_(U, U)] - A[np.ix_(U, I)] @ np.linalg.solve(
            A[np.ix_(I, I)], A[np.ix_(I, U)])
        rng = np.random.default_rng(0)
        for _ in range(3):
            b = rng.standard_normal((2, ntheta)) \
                + 1j * rng.standard_normal((2, ntheta))
            bh = np.fft.fft(b, axis=1)
            # reduced gradient on the moving rows: (2/ntheta) ifft(S_k b_k)
            g = (2 / ntheta) * np.fft.ifft(
                np.einsum("kab,bk->ak", S[k], bh), axis=1)[:len(moving)]
            bu = b[:len(moving)]
            expect = dense_S @ np.r_[bu.real.ravel(), bu.imag.ravel()]
            if mode == dc.MODE_FIXED_OUTER:   # the outer row enters as data
                expect += (A[np.ix_(U, real([ns - 1]))] - A[np.ix_(U, I)]
                           @ np.linalg.solve(A[np.ix_(I, I)],
                                             A[np.ix_(I, real([ns - 1]))])) \
                    @ np.r_[b[1].real, b[1].imag]
            np.testing.assert_allclose(g, as_complex(expect, len(moving)),
                                       rtol=0, atol=1e-12 * np.abs(S).max())
            # interior minimizer for these boundary rows
            interior = -np.linalg.solve(A[np.ix_(I, I)], A[np.ix_(I, B)]
                                        @ np.r_[b.real.ravel(), b.imag.ravel()])
            ext = -np.fft.ifft(np.einsum("kib,bk->ik", Z[k], bh), axis=1)
            np.testing.assert_allclose(ext, as_complex(interior, ns - 2),
                                       rtol=0, atol=1e-12)


class TestPolarEnergy:
    def test_identity_energy(self):
        e = dc.polar_energy(unit(), identity_map(256, 256))
        assert e.total == pytest.approx(6 * np.pi, rel=1e-3)

    def test_embedded_radial_matches_closed_form(self):
        pair = rd.AnnulusPair(1, 2, 1, 1.25)
        sol = rd.build(unit(), pair)
        m = dc.embed_radial(sol, 256, 256)
        e = dc.polar_energy(unit(), m)
        assert abs(e.total - sol.energy) / sol.energy < 1e-3

    def test_weighted_identity_energy(self):
        # lambda = s: E[id] = int lambda(|z|) |Dh|^2 dz = 4 pi int_1^2 s^2 ds
        w = Weight.power(1.0, 1.0, 2.0)
        m = identity_map(512, 256)
        e = dc.polar_energy(w, m)
        exact = 4 * np.pi * (2.0 ** 3 - 1.0) / 3
        assert e.total == pytest.approx(exact, rel=1e-3)


class TestPolarGradient:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        m = identity_map(48, 40)
        m = dc.perturb_map(m, 0.05, seed)
        w = Weight.power(1.0, 1.0, 2.0)
        g = dc.polar_gradient(w, m)
        d = rng.standard_normal(m.h.shape) + 1j * rng.standard_normal(m.h.shape)
        d[0] = d[-1] = 0.0     # keep the variation admissible
        eps = 1e-6
        ep = dc.polar_energy(w, dc.PolarGridMap(m.h + eps * d, m.pair),
                             check=False).total
        em = dc.polar_energy(w, dc.PolarGridMap(m.h - eps * d, m.pair),
                             check=False).total
        fd = (ep - em) / (2 * eps)
        pairing = float(np.sum(g.real * d.real + g.imag * d.imag))
        assert pairing == pytest.approx(fd, rel=1e-6)


class TestPerturbation:
    def test_zero_amplitude_is_identity(self):
        m = identity_map()
        p = dc.perturb_map(m, 0.0, 0)
        # equal up to the polar decomposition round trip
        np.testing.assert_allclose(p.h, m.h, atol=1e-14)

    def test_perturbed_map_admissible(self):
        m = identity_map(128, 128)
        for seed in range(5):
            p = dc.perturb_map(m, 0.1, seed)
            p.check()
            assert dc.winding_number(p, 64) == 1

    def test_perturbation_that_unwinds_a_row_names_it(self):
        sol = rd.build(unit(), rd.AnnulusPair(1, 2, 1, 1.25))
        with pytest.raises(dc.AdmissibilityError,
                           match=r"^row 16 winding is not \+1$"):
            dc.perturb_map(dc.embed_radial(sol, 32, 32), 10.0, 7)

    def test_inadmissible_start_is_not_repaired(self):
        # an admissible collapse embedding with one interior row lowered
        # 1.5e-9 below r*, beyond ADMISSIBLE_TOL; clipping the perturbed
        # moduli into [r*, R*] would lift it, and the descent would run
        # from a start that fails check()
        w, pair = WEIGHTS["s"], rd.AnnulusPair(1.0, 2.0, 1.0, 1.05)
        m = dc.embed_radial(rd.build(w, pair, n=4096), 32, 32)
        m.check()
        m.h[5] *= (pair.r_star - 1.5e-9) / np.abs(m.h[5])
        outside = r"^\|h\| outside \[r_star, R_star\]$"
        with pytest.raises(dc.AdmissibilityError, match=outside):
            m.check()
        for amplitude in (0.0, 1e-12, 0.05):
            with pytest.raises(dc.AdmissibilityError, match=outside):
                dc.perturb_map(m, amplitude, 0)
        with pytest.raises(dc.AdmissibilityError, match=outside):
            dc.minimize_polar(w, pair, init=m, perturbation=1e-12, seed=0)

    def test_seed_determinism(self):
        m = identity_map()
        a = dc.perturb_map(m, 0.05, 7)
        b = dc.perturb_map(m, 0.05, 7)
        np.testing.assert_array_equal(a.h, b.h)

    def test_resolution_consistency(self):
        # same seed and amplitude describe the same continuum perturbation:
        # coarse-grid samples must agree with subsampled fine-grid values
        coarse = dc.perturb_map(identity_map(65, 64), 0.05, 3)
        fine = dc.perturb_map(identity_map(129, 128), 0.05, 3)
        np.testing.assert_allclose(fine.h[::2, ::2], coarse.h, atol=1e-12)

    @pytest.mark.parametrize("ns, ntheta", [(64, 64), (129, 96)])
    def test_field_matches_the_term_by_term_sum(self, ns, ntheta):
        # one draw of all coefficients, in the order of the double loop
        t = np.linspace(0.0, np.log(2.0), ns)
        theta = 2 * np.pi * np.arange(ntheta) / ntheta
        u = t / t[-1]
        for seed in range(6):
            rng = np.random.default_rng(seed)
            field_, bound = np.zeros((ns, ntheta)), 0.0
            for k in range(1, 5):
                for m_ in range(5):
                    a, b, c = rng.standard_normal(3)
                    field_ += np.outer(np.sin(np.pi * k * u),
                                       a * np.cos(m_ * theta + c)
                                       + b * np.sin(m_ * theta))
                    bound += abs(a) + abs(b)
            got = dc.smooth_perturbation(t, theta, 0.3,
                                         np.random.default_rng(seed))
            np.testing.assert_array_equal(got, field_ * (0.3 / bound))


class TestMinimizePolar:
    def test_conformal_fixed_point(self):
        pair = rd.AnnulusPair(1, 2, 1, 2)
        m, rep = dc.minimize_polar(unit(), pair, ns=128, ntheta=128,
                                   max_iter=300)
        assert abs(rep.total - 6 * np.pi) / (6 * np.pi) < 2e-3

    def test_perturbed_start_descends(self):
        pair = rd.AnnulusPair(1, 2, 1, 1.25)
        m, rep = dc.minimize_polar(unit(), pair, ns=96, ntheta=96,
                                   seed=1, perturbation=0.05, max_iter=400)
        exact = 15 * np.pi / 8
        # never below the certified lower bound; close from above
        assert rep.total >= exact * (1 - 5e-3)
        assert rep.total <= exact * 1.05
        assert rep.negative_jacobian_fraction < 1e-2


    @pytest.mark.parametrize("name, R_star, mode",
                             [("1", 1.25, dc.MODE_FREE),
                              ("1/s", 1.5, dc.MODE_FIXED_OUTER)])
    def test_converged_descent_ends_at_radial_oracle(self, name, R_star, mode):
        w, pair = WEIGHTS[name], rd.AnnulusPair(1.0, 2.0, 1.0, R_star)
        m, rep = dc.minimize_polar(w, pair, ns=64, ntheta=64, mode=mode,
                                   seed=2, perturbation=0.05, max_iter=20000)
        assert rep.converged
        E = oracle_minimum(w, m)
        assert abs(rep.total - E) <= 1e-12 * E
        # the radial start is stationary: the first quiet boundary step
        # is a KKT point, and so is the extended map
        assert rep.iterations == 1
        assert rep.kkt_residual <= dc.KKT_TOL

    @pytest.mark.parametrize("mode", [dc.MODE_FREE, dc.MODE_FIXED_OUTER])
    def test_kkt_residual_of_the_radial_map(self, mode):
        pair = rd.AnnulusPair(1.0, 2.0, 1.0, 1.25)
        m = dc.embed_radial(rd.build(unit(), pair), 32, 32, mode)
        form = dc.CylinderForm.on(unit(), m)
        G = form.grad(m.h)
        assert dc._kkt_residual(m.h, G, m) < 1e-3
        # a tangential force on an inner-row node, and in free mode on an
        # outer-row node, is a residual; in fixed-outer mode the outer row
        # is pinned
        top = np.abs(G).max()
        for row, counts in [(0, True), (-1, mode == dc.MODE_FREE)]:
            G2 = G.copy()
            G2[row, 5] += 1j * m.h[row, 5] / abs(m.h[row, 5]) * 0.5 * top
            assert (dc._kkt_residual(m.h, G2, m) >= 0.4) == counts
        # the radial force on a boundary row is a pinned modulus's multiplier
        G2 = G.copy()
        G2[0, 5] -= 0.5 * top * m.h[0, 5] / abs(m.h[0, 5])
        assert dc._kkt_residual(m.h, G2, m) < 1e-3
        # off the bounds an interior radial force is a residual; on the
        # inner bound only an inward one (a wrong-signed multiplier)
        i = 3
        G2 = G.copy()
        G2[i, 5] = 0.5 * top * m.h[i, 5] / abs(m.h[i, 5])
        assert dc._kkt_residual(m.h, G2, m) >= 0.4
        h = m.h.copy()
        h[i, 5] *= pair.r_star / abs(h[i, 5])
        for sign, counts in [(1.0, False), (-1.0, True)]:
            G2 = G.copy()
            G2[i, 5] = sign * 0.5 * top * h[i, 5] / abs(h[i, 5])
            assert (dc._kkt_residual(h, G2, m) >= 0.4) == counts

    # The paper's three claims on the discrete problem, from twisted
    # starts: nondecreasing weights on thick (R*/r* > m) and thin pairs;
    # thin targets (R*/r* <= g) with s^-2 and 2+sin 4s on [1, 3]; a fixed
    # outer boundary with s^-2 on [1, 3] at 2m and at sqrt(g m), in the
    # gap.  Each descent ends at its grid's radial candidate, from above
    # in every case measured; the bound is set from the measured relative
    # gap (in the comment).  Collapsing pairs end flat, not at a KKT point,
    # hence their looser bounds; at 64 x 64 the s and s^2 ones reach the
    # 2000-step cap.  Steps are pinned for the two 64 x 64 starts (the KKT
    # stop does not fire on their non-stationary quiet iterates).  Free
    # thick decreasing pairs are item 3's xfail below.
    M13, G13 = rd.thresholds(GATE_WEIGHTS["s^-2(1,3)"], 3.0)
    FREE, FIXED = dc.MODE_FREE, dc.MODE_FIXED_OUTER
    TWISTED = [
        # weight, R*, mode, grid, steps, bound
        pytest.param("1", 1.25, FREE, 64, 65, 1e-12,             # 8.5e-15
                     id="1-1.25-free"),
        pytest.param("1/s", 1.5, FIXED, 64, 44, 1e-12,           # 3.0e-16
                     id="1/s-1.5-fixed_outer"),
        pytest.param("1", 1.5, FREE, 32, None, 1e-12,            # 1.0e-15
                     id="1-1.5-free"),
        pytest.param("1", 1.05, FREE, 32, None, 1e-9,            # 2.3e-10
                     id="1-1.05-free"),
        pytest.param("s", 1.5, FREE, 32, None, 1e-12,            # 3.9e-16
                     id="s-1.5-free"),
        pytest.param("s", 1.05, FREE, 32, None, 1e-9,            # 2.4e-10
                     id="s-1.05-free"),
        pytest.param("s^2", 1.5, FREE, 32, None, 1e-12,          # 1.2e-14
                     id="s^2-1.5-free"),
        pytest.param("s^2", 1.05, FREE, 32, None, 1e-10,         # 6.9e-12
                     id="s^2-1.05-free"),
        pytest.param("s^-2(1,3)", 1.25, FREE, 32, None, 1e-10,   # 3.8e-11
                     id="s^-2(1,3)-1.25-free"),
        pytest.param("2+sin4s(1,3)", 1.25, FREE, 32, None, 1e-9,  # 3.1e-10
                     id="2+sin4s(1,3)-1.25-free"),
        pytest.param("s^-2(1,3)", 2 * M13, FIXED, 32, None, 1e-12,  # 0
                     id="s^-2(1,3)-2m-fixed_outer"),
        pytest.param("s^-2(1,3)", np.sqrt(G13 * M13), FIXED, 32, None,
                     1e-10, id="s^-2(1,3)-sqrt(gm)-fixed_outer"),  # 2.2e-11
    ]

    @pytest.mark.parametrize("name, R_star, mode, n, steps, bound", TWISTED)
    def test_twisted_boundary_rows_end_at_radial_oracle(self, name, R_star,
                                                        mode, n, steps, bound):
        w = GATE_WEIGHTS[name]
        pair = rd.AnnulusPair(w.r, w.R, 1.0, R_star)
        init = twisted_map(pair, n, mode)
        init.check()
        m, rep = dc.minimize_polar(w, pair, mode=mode, init=init)
        assert rep.converged
        assert steps is None or rep.iterations == steps
        m.check()
        E = oracle_minimum(w, m)
        assert abs(rep.total - E) <= bound * E

    # The default start is the grid's radial candidate.  On collapsing
    # pairs its boundary-row extension leaves the annulus, and the
    # candidate is a KKT point of the full-grid descent: one boundary step
    # and one full-grid step end at the oracle.
    WEIGHTS_13 = {"1": Weight.constant(1.0, 1.0, 3.0),
                  "s": Weight.power(1.0, 1.0, 3.0),
                  "1/s": Weight.power(-1.0, 1.0, 3.0),
                  "s^2": Weight.power(2.0, 1.0, 3.0),
                  "s^-2": GATE_WEIGHTS["s^-2(1,3)"]}
    COLLAPSING = [*(pytest.param(name, 1.05, id=f"{name}-1.05")
                    for name in WEIGHTS_13),
                  pytest.param("s^-2", 0.999 * G13, id="s^-2-0.999g"),
                  pytest.param("s^-2", np.sqrt(G13 * M13), id="s^-2-sqrt(gm)")]

    @pytest.mark.parametrize("mode", [FREE, FIXED])
    @pytest.mark.parametrize("name, R_star", COLLAPSING)
    def test_default_start_on_collapsing_pairs_is_the_oracle(self, name,
                                                            R_star, mode):
        w = self.WEIGHTS_13[name]
        pair = rd.AnnulusPair(1.0, 3.0, 1.0, R_star)
        m, rep = dc.minimize_polar(w, pair, ns=32, ntheta=32, mode=mode)
        assert rep.converged
        assert rep.iterations <= 2
        assert rep.kkt_residual <= dc.KKT_TOL
        E = oracle_minimum(w, m)
        assert abs(rep.total - E) <= 1e-12 * E
        # the flat contact band's Jacobian density is 0 up to rounding
        assert rep.negative_jacobian_fraction == 0.0

    def test_negative_share_counts_beyond_rounding(self):
        # the collapse config's candidate (s weight, A(1, 2) -> A*(1, 1.05),
        # 96 x 96): its contact band reads a density of about -3e-14, which
        # a plain sign test counted on 24% of the cells
        w, pair = WEIGHTS["s"], rd.AnnulusPair(1.0, 2.0, 1.0, 1.05)
        m, rep = dc.minimize_polar(w, pair, ns=96, ntheta=96)
        Dt, Dth = dc.cell_diffs(m.h, m.dt, m.dtheta)
        assert -1e-13 < np.imag(np.conj(Dt) * Dth).min() < 0
        assert rep.negative_jacobian_fraction == 0.0
        # a reflection reverses the orientation of every cell
        m0 = identity_map(32, 32)
        mirror = dc.PolarGridMap(np.conj(m0.h), m0.pair)
        assert dc._negative_share(mirror, *dc.cell_diffs(
            mirror.h, mirror.dt, mirror.dtheta)) == 1.0

    # on case-1 pairs the boundary stage reads only the start's boundary
    # rows, which the candidate and the embedded solution share bit for bit
    @pytest.mark.parametrize("perturbation", [0.0, 0.05])
    @pytest.mark.parametrize("name, R_star, mode", [("1", 1.5, FREE),
                                                    ("s", 1.5, FREE),
                                                    ("1/s", 1.5, FIXED),
                                                    ("2+sin4s", 2.0, FREE)])
    def test_default_start_on_case1_pairs_as_from_the_solution(
            self, name, R_star, mode, perturbation):
        w, pair = WEIGHTS[name], rd.AnnulusPair(1.0, 2.0, 1.0, R_star)
        kw = dict(ns=32, ntheta=32, mode=mode, seed=3,
                  perturbation=perturbation)
        m, rep = dc.minimize_polar(w, pair, **kw)
        m_sol, rep_sol = dc.minimize_polar(
            w, pair, init=dc.embed_radial(rd.build(w, pair), 32, 32, mode), **kw)
        assert m.h.tobytes() == m_sol.h.tobytes()
        assert rep.total == rep_sol.total
        assert rep.iterations == rep_sol.iterations

    # energy of the full-grid projected FISTA before the boundary
    # reduction, from the same 32 x 32 init (tol 1e-12, 45 steps)
    FULL_GRID_COLLAPSE = 4.518751247533227

    def test_infeasible_relaxation_falls_back_to_full_grid(
            self, collapse_solution):
        pair = collapse_solution.pair
        init = dc.embed_radial(collapse_solution, 32, 32)
        init.h *= np.maximum(np.abs(init.h), pair.r_star) / np.abs(init.h)
        init.check()
        m, rep = dc.minimize_polar(unit(), pair, init=init)
        m.check()
        assert rep.converged
        assert rep.total < dc.polar_energy(unit(), init).total
        assert rep.total == pytest.approx(self.FULL_GRID_COLLAPSE, rel=1e-14)
        # the boundary descent's one stationary step, then the full grid's
        # 45, of which the last ten are quiet: that descent ends flat, not
        # at a KKT point
        assert rep.iterations == 1 + 45
        assert rep.kkt_residual > dc.KKT_TOL

    def test_cap_stops_the_full_grid_descent(self, collapse_solution):
        # on a collapsing pair the boundary descent is stationary after one
        # step and its extension leaves the annulus, so the full grid descends
        # (about 680 steps) and stops at the cap
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            _, rep = dc.minimize_polar(
                unit(), collapse_solution.pair, seed=1, perturbation=0.05,
                max_iter=150, init=dc.embed_radial(collapse_solution, 32, 32))
        assert rep.iterations == 1 + 150
        assert not rep.converged

    def test_final_map_that_does_not_wind_once_raises(self, monkeypatch):
        pair = rd.AnnulusPair(1, 2, 1, 1.25)
        init = twisted_map(pair, 32, dc.MODE_FREE)
        check, descend = dc.PolarGridMap.check, dc._descend
        calls = []

        def counted_check(m):
            # 1: init.check, 2: the final map
            calls.append(m)
            return check(m)

        def unwinding_descend(x0, *args):
            x, steps, converged = descend(x0, *args)
            x = x.copy()
            x[0] = np.conj(x[0])
            return x, steps, converged

        monkeypatch.setattr(dc.PolarGridMap, "check", counted_check)
        monkeypatch.setattr(dc, "_descend", unwinding_descend)
        with pytest.raises(dc.FeasibilityError, match="row 0"):
            dc.minimize_polar(unit(), pair, init=init)
        assert len(calls) == 2

    @pytest.mark.parametrize("row", [0, 31])
    def test_final_map_with_a_folded_boundary_row_raises(self, monkeypatch,
                                                         row):
        # the row still winds once, but a quarter of its steps go backwards
        pair = rd.AnnulusPair(1, 2, 1, 1.25)
        init = twisted_map(pair, 32, dc.MODE_FREE)
        theta = init.theta
        radius = pair.r_star if row == 0 else pair.R_star
        fold = radius * np.exp(1j * (theta + 0.9 * np.sin(2 * theta)))
        assert dc.winding_number(dc.PolarGridMap(np.array([fold] * 3), pair),
                                 0) == 1
        descend = dc._descend

        def folding_descend(x0, *args):
            x, steps, converged = descend(x0, *args)
            x = x.copy()
            x[0 if row == 0 else -1] = fold
            return x, steps, converged

        monkeypatch.setattr(dc, "_descend", folding_descend)
        with pytest.raises(dc.FeasibilityError,
                           match=f"folds: 8 of row {row}'s 32 steps"):
            dc.minimize_polar(unit(), pair, init=init)

    @pytest.mark.xfail(strict=True, raises=dc.FeasibilityError,
                       reason="the checkerboard mode of the one-point form "
                       "lets the descent fold the outer row (ROADMAP item 3)")
    def test_thick_decreasing_twisted_descent_does_not_fold(self):
        # s^-2 on A(1, 3) -> A*(1, 2m): with the one-point form the descent
        # settles in 1575 steps on a map at 0.5645 of the closed-form
        # energy, 16 of whose 32 outer-row steps go backwards
        w = Weight.power(-2.0, 1.0, 3.0)
        pair = rd.AnnulusPair(1.0, 3.0, 1.0, 2 * rd.threshold_m(w, 3.0))
        sol = rd.build(w, pair)
        init = dc.embed_radial(sol, 32, 32)
        theta = init.theta
        init.h[0] = pair.r_star * np.exp(1j * (theta + 0.3 * np.sin(theta)))
        init.h[-1] = pair.R_star * np.exp(
            1j * (theta + 0.5 * np.sin(2 * theta) + 0.2))
        init.check()
        m, rep = dc.minimize_polar(w, pair, init=init)
        m.check()
        assert abs(rep.total - sol.energy) <= 1e-2 * sol.energy

    @pytest.mark.parametrize("row, mode", [(0, dc.MODE_FREE),
                                           (0, dc.MODE_FIXED_OUTER),
                                           (31, dc.MODE_FREE)])
    def test_folded_start_map_is_rejected(self, row, mode):
        # the row winds once, but 8 of its 32 steps go backwards: the start
        # is not admissible, and is not descended
        pair = rd.AnnulusPair(1, 2, 1, 1.25)
        init = dc.embed_radial(rd.build(unit(), pair), 32, 32, mode)
        theta = init.theta
        rho = np.abs(init.h[row, 0])
        init.h[row] = rho * np.exp(1j * (theta + 0.9 * np.sin(2 * theta)))
        assert dc.winding_number(init, row) == 1
        with pytest.raises(dc.AdmissibilityError,
                           match=f"folds: 8 of row {row}'s 32 steps"):
            dc.minimize_polar(unit(), pair, init=init)

    def test_start_map_brings_its_mode(self):
        # a free start with a rotated outer row, descended with the
        # fixed-outer default: the result keeps the start's mode
        init = identity_map(32, 32)
        pair = init.pair
        init.h[-1] *= np.exp(0.3j)
        init.check()
        m, rep = dc.minimize_polar(unit(), pair, mode=dc.MODE_FIXED_OUTER,
                                   init=init)
        assert m.mode == dc.MODE_FREE and rep.converged
        m.check()

    def test_start_map_on_another_pair_raises(self, collapse_solution):
        pair = rd.AnnulusPair(1.0, 2.0, 1.0, 1.25)
        with pytest.raises(ValueError, match="start map is on"):
            dc.minimize_polar(unit(), pair, init=identity_map(32, 32))
        with pytest.raises(ValueError, match="start map is on"):
            dc.minimize_polar(unit(), pair,
                              init=dc.embed_radial(collapse_solution, 32, 32))

    @pytest.mark.parametrize("ns, ntheta", [(2, 32), (32, 2)])
    def test_grid_too_small_raises(self, conformal_solution, ns, ntheta):
        # the default start, built on the descent's own grid
        with pytest.raises(ValueError, match=f"got {ns} x {ntheta}"):
            dc.minimize_polar(unit(), conformal_solution.pair, ns=ns,
                              ntheta=ntheta)


@pytest.mark.parametrize("n", [1, 2])
def test_minimize_radial_grid_too_small_raises(n):
    with pytest.raises(ValueError, match=f"n >= 3 cells, got {n}"):
        dc.minimize_radial(unit(), rd.AnnulusPair(1, 2, 1, 1.25), n=n)


def test_maps_are_on_their_polar_grid(conformal_solution):
    pair = conformal_solution.pair
    embedded = dc.embed_radial(conformal_solution, 48, 40)
    maps = [embedded, dc.perturb_map(embedded, 0.05, 3),
            lg.make_test_map(lg.TestMapSpec(kind="radial", pair=pair,
                                            ns=48, ntheta=40))]
    t, theta = dc.polar_grid(pair, 48, 40)
    for m in maps:
        assert m.t.tobytes() == t.tobytes()
        assert m.theta.tobytes() == theta.tobytes()


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       amplitude=st.floats(min_value=0.0, max_value=0.15))
@settings(max_examples=15, deadline=None)
def test_perturbed_identity_stays_admissible(seed, amplitude):
    m = identity_map(64, 64)
    p = dc.perturb_map(m, amplitude, seed)
    p.check()


@given(c=st.sampled_from([0.5, 2.0, 4.0]))
@settings(max_examples=3, deadline=None)
def test_polar_energy_linear_in_weight(c):
    m = identity_map(64, 64)
    e1 = dc.polar_energy(unit(), m).total
    ec = dc.polar_energy(unit().scale(c), m).total
    assert ec == pytest.approx(c * e1, rel=1e-12)
