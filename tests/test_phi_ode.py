import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from annular_dirichlet import phi_ode as po
from annular_dirichlet.weights import Weight

from conftest import closed_form_phi
from rk4_oracle import (bisect_root, cell_minimum, fundamental_columns,
                        rk4_path)


def k_for_phi0(phi0, s=1.0):
    """Invert the closed-form family at s for the unit weight."""
    return s * s * (1.0 - phi0) / (1.0 + phi0)


class TestSolveAgainstClosedForm:
    @pytest.mark.parametrize("phi0", [-0.6, -0.2, 0.0, 0.3, 0.9])
    def test_unit_weight_family(self, phi0):
        w = Weight.constant(1.0, 1.0, 2.0)
        p = po.solve_phi_tilde(w, 1.0, 2.0, phi0)
        exact = closed_form_phi(p.s, k_for_phi0(phi0))
        np.testing.assert_allclose(p.phi_tilde, exact, atol=5e-13)

    def test_scaled_weight_gives_scaled_solution(self):
        w1 = Weight.constant(1.0, 1.0, 2.0)
        w3 = Weight.constant(3.0, 1.0, 2.0)
        p1 = po.solve_phi_tilde(w1, 1.0, 2.0, 0.4)
        p3 = po.solve_phi_tilde(w3, 1.0, 2.0, 3 * 0.4)
        np.testing.assert_allclose(p3.phi_tilde, 3 * p1.phi_tilde, atol=1e-12)

    def test_residual_reported(self):
        w = Weight.constant(1.0, 1.0, 2.0)
        p = po.solve_phi_tilde(w, 1.0, 2.0, 0.3)
        assert p.residual < 1e-9

    def test_a_priori_bound(self):
        # |phi_tilde| <= max lambda along the whole solution
        w = Weight.from_callable(lambda s: 2.0 + np.sin(4 * s), 1.0, 2.0,
                                 samples=8193)
        p = po.solve_phi_tilde(w, 1.0, 2.0, 0.5)
        s = np.exp(np.linspace(0.0, np.log(2.0), 4096))
        s[0], s[-1] = 1.0, 2.0
        assert np.max(np.abs(p.phi_tilde)) <= np.max(w(s)) + 1e-12

    def test_residual_above_tolerance_raises(self):
        # a coarse tabulated weight's kinks keep the residual at 2.5e-4
        w = Weight.tabulated([1.0, 1.5, 2.0], [1.0, 2.0, 1.5])
        with pytest.raises(po.AccuracyError, match="ODE residual"):
            po.solve_phi_tilde(w, 1.0, 2.0, 0.5, n=1024)

    def test_a_priori_bound_violation_raises(self):
        # phi0 < -lambda: phi_tilde blows up while the linear pair (H, q)
        # stays smooth, so the residual check passes and only the bound
        # check can reject it
        w = Weight.constant(1.0, 1.0, 1.2)
        with pytest.raises(po.AccuracyError, match="a priori bound"):
            po.solve_phi_tilde(w, 1.0, 1.2, -1.2)


class TestOdeGrid:
    def test_grid_reuse_matches_fresh_solve(self):
        w = Weight.power(1.0, 1.0, 2.0)
        grid = po.OdeGrid(w, 1.0, 2.0)
        a = po.solve_phi_tilde(w, 1.0, 2.0, 0.2, grid=grid)
        b = po.solve_phi_tilde(w, 1.0, 2.0, 0.2)
        np.testing.assert_array_equal(a.phi_tilde, b.phi_tilde)

    def test_steep_path_stays_on_its_grid(self):
        # the s weight's phi0 for A(1, 2) -> A*(1, 5): phi_tilde is steep,
        # but the linear pair meets the residual tolerance at n = 4096
        w = Weight.power(1.0, 1.0, 2.0)
        grid = po.OdeGrid(w, 1.0, 2.0)
        p = po.solve_phi_tilde(w, 1.0, 2.0, 7.027001980692148, grid=grid)
        assert p.grid is grid
        assert len(p.s) == len(p.phi) == grid.n + 1
        assert p.grid.modulus(p.phi) == pytest.approx(np.log(5.0), abs=1e-9)

    def test_modulus_of_identity_profile(self):
        # phi == lambda gives H(s) = const * s, modulus log(R/r)
        w = Weight.constant(1.0, 1.0, 2.0)
        grid = po.OdeGrid(w, 1.0, 2.0)
        p = po.solve_phi_tilde(w, 1.0, 2.0, 1.0, grid=grid)
        assert p.grid.modulus(p.phi) == pytest.approx(np.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("r, R, n, message", [
        (1.0, 2.0, 15, "grid size too small: 15"),
        (2.0, 2.0, 64, "need 0 < r < R"), (2.0, 1.5, 64, "need 0 < r < R")])
    def test_bad_grid_raises(self, r, R, n, message):
        with pytest.raises(ValueError, match=message):
            po.OdeGrid(Weight.constant(1.0, 1.0, 2.0), r, R, n)

    @pytest.mark.parametrize("name", ["1", "s", "1/s", "2+sin4s", "s^0.37"])
    def test_node_weights_are_the_weight_at_the_nodes(self, name):
        # solve's lambda column is grid.lam: the even nodes of the fine grid
        # must stay bit for bit w(grid.s)
        w = LAM_WEIGHTS[name]
        for n in (16, 1000, 1023, 4096, 8192, 12345):
            grid = po.OdeGrid(w, w.r, w.R, n)
            assert grid.lam.tobytes() == \
                np.asarray(w(grid.s), dtype=float).tobytes(), n


N_ORACLE = 4096
ORACLE_WEIGHTS = {
    "1": Weight.constant(1.0, 1.0, 2.0),
    "s": Weight.power(1.0, 1.0, 2.0),
    "1/s": Weight.power(-1.0, 1.0, 2.0),
    "2+sin4s": Weight.from_callable(lambda s: 2.0 + np.sin(4 * s), 1.0, 2.0,
                                    samples=2 * N_ORACLE + 1),
}
LAM_WEIGHTS = {**ORACLE_WEIGHTS, "s^0.37": Weight.power(0.37, 1.3, 6.1)}


class TestAgainstNonlinearRk4:
    """The linear propagators against RK4 on the Riccati equation itself."""

    @pytest.fixture(scope="class", params=sorted(ORACLE_WEIGHTS))
    def grid(self, request):
        return po.OdeGrid(ORACLE_WEIGHTS[request.param], 1.0, 2.0, N_ORACLE)

    def test_paths_agree(self, grid):
        for phi0 in (-0.7, -0.2, 0.0, 0.4, 0.99, 1.5, 3.0):
            np.testing.assert_allclose(grid.integrate(phi0), rk4_path(grid, phi0),
                                       rtol=0, atol=1e-12)

    def test_blow_up_start_clamps_identically(self, grid):
        ours = grid.integrate(-3.0)
        assert np.isneginf(ours[-1])
        np.testing.assert_array_equal(np.maximum(0.0, ours),
                                      np.maximum(0.0, rk4_path(grid, -3.0)))

    @pytest.mark.parametrize("phi0", [-0.45, -0.3, -0.05, -0.01])
    def test_collapse_radius_matches_bisection(self, grid, phi0):
        w = grid.w
        p = po.solve_phi_tilde(w, 1.0, 2.0, phi0, grid=grid)
        y = rk4_path(grid, phi0)
        i = int(np.searchsorted(y >= 0, True)) - 1
        r0 = bisect_root(w, grid.t[i], y[i], grid.t[i + 1], grid.s[-1])
        # a tabulated weight's slope jumps at the half node inside the cell,
        # which limits the cubic interpolant to O(h^3) there (about 2e-12)
        tol = 5e-12 if w.kind == "tabulated" else 1e-12
        assert abs(p.r0 - r0) <= tol

    @pytest.mark.parametrize("phi0", [-0.45, -0.3, -0.05, -0.01])
    def test_kink_value_is_the_cell_minimum_of_H(self, grid, phi0):
        # H is flat at its minimum, so H's cubic read at phi_tilde's root
        # is the least value of that cubic on the cell (measured within
        # 2.4e-16 relative)
        h0, h1, q0, q1 = grid.columns
        H, q = h0 + phi0 * h1, q0 + phi0 * q1
        y = grid.integrate(phi0)
        k = int(np.searchsorted(y >= 0, True))
        t0, H_kink = po._kink(grid, H, q, y, k)
        assert grid.t[k - 1] <= t0 <= grid.t[k]
        cell = slice(k - 1, k + 1)
        dH = (grid.t[k] - grid.t[k - 1]) * q[cell] / grid.lam[cell]
        ref = cell_minimum(*H[cell], *dH)
        assert abs(H_kink - ref) <= 1e-14 * ref


class TestFundamentalColumns:
    """The band forward substitution against a plain RK4 loop on the
    linearised system, whose stages are formed from A(lambda)."""

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("name", sorted(ORACLE_WEIGHTS))
    def test_matches_sequential_rk4(self, name, n):
        grid = po.OdeGrid(ORACLE_WEIGHTS[name], 1.0, 2.0, n)
        ours, ref = np.array(grid.columns), np.array(fundamental_columns(grid))
        err = np.max(np.abs(ours - ref), axis=0) / np.max(np.abs(ref), axis=0)
        # the stage form rounds each step differently from the multiplied-out
        # entries, a gap that grows with n: measured at most 2.3e-13 (the
        # 1/s and s weights at n=4096), 2.4e-13 for blocked prefix products
        assert np.max(err) <= 5e-13


def test_blocked_products_keep_fd_residual_small():
    # criterion 7's tabulated e^s weight at n=8192, phi0 of A(1,2) -> A*(1,3).
    # Prefix products from a log-depth scan round each node differently; the
    # 4th-order residual amplifies that jitter by 1/h to 1.2e-10 relative.
    # Sequential products, one rounded step per node, stay small: 9.7e-12
    # from the band forward substitution, 7.0e-12 from blocked products.
    n = 8192
    w = Weight.from_callable(np.exp, 1.0, 2.0, samples=2 * n + 1)
    p = po.solve_phi_tilde(w, 1.0, 2.0, 9.873127315019374, n=n)
    assert p.residual <= 3e-11


class TestClampAndCollapse:
    """The clamped path phi and collapse radius r0 that a solve returns."""

    def test_positive_start_never_clamps(self):
        w = Weight.constant(1.0, 1.0, 2.0)
        p = po.solve_phi_tilde(w, 1.0, 2.0, 0.3)
        assert p.r0 == 1.0      # collapse radius degenerates to the inner edge
        np.testing.assert_array_equal(p.phi, p.phi_tilde)

    def test_negative_start_collapse_radius(self):
        # phi0 < 0: phi_tilde = (s^2-k)/(s^2+k) crosses zero at s = sqrt(k)
        w = Weight.constant(1.0, 1.0, 2.0)
        phi0 = -0.3
        p = po.solve_phi_tilde(w, 1.0, 2.0, phi0)
        assert p.r0 == pytest.approx(np.sqrt(k_for_phi0(phi0)), abs=1e-10)
        assert np.all(p.phi >= 0.0)
        assert np.all(p.phi[p.s < p.r0] == 0.0)

    def test_clamped_region_is_exactly_zero(self):
        w = Weight.constant(1.0, 1.0, 2.0)
        p = po.solve_phi_tilde(w, 1.0, 2.0, -0.5)
        inside = p.phi[p.s < p.r0 * (1 - 1e-12)]
        assert inside.size > 0
        assert np.all(inside == 0.0)

    def test_path_that_stays_negative_collapses_to_R(self):
        # phi_tilde = (s^2 - 19)/(s^2 + 19) < 0 on [1, 2]
        w = Weight.constant(1.0, 1.0, 2.0)
        p = po.solve_phi_tilde(w, 1.0, 2.0, -0.9)
        assert p.phi_tilde[-1] < 0.0
        assert p.r0 == 2.0
        assert np.all(p.phi == 0.0)

    @pytest.mark.parametrize("phi0", [-0.5, 0.0, 0.4])
    def test_phi_is_the_clamped_path(self, phi0):
        p = po.solve_phi_tilde(Weight.power(1.0, 1.0, 2.0), 1.0, 2.0, phi0)
        assert p.phi.tobytes() == np.maximum(0.0, p.phi_tilde).tobytes()


class TestRecoverH:
    def test_conformal_profile(self):
        # phi == lambda == 1 gives H(s) = r_star * s / r
        w = Weight.constant(1.0, 1.0, 2.0)
        p = po.solve_phi_tilde(w, 1.0, 2.0, 1.0)
        prof = po.recover_H(p, w, 1.0)
        np.testing.assert_allclose(prof.H, p.s, rtol=1e-12)
        np.testing.assert_allclose(prof.Hdot, 1.0, rtol=1e-10)

    def test_plateau_in_collapse_case(self):
        w = Weight.constant(1.0, 1.0, 2.0)
        p = po.solve_phi_tilde(w, 1.0, 2.0, -0.5)
        prof = po.recover_H(p, w, 1.0)
        inside = prof.H[p.s < p.r0 * (1 - 1e-12)]
        np.testing.assert_array_equal(inside, 1.0)
        assert prof.H[-1] > 1.0
        # the derivative kink at r0 limits the FD residual to ~h^2 there
        fd = po.fd_derivative(prof.H, p.t[1] - p.t[0]) / p.s
        assert np.max(np.abs(fd - prof.Hdot)) < 1e-4

    def test_H_is_nondecreasing(self):
        w = Weight.power(1.0, 1.0, 2.0)
        p = po.solve_phi_tilde(w, 1.0, 2.0, 0.2)
        prof = po.recover_H(p, w, 1.5)
        assert np.all(np.diff(prof.H) >= 0.0)
        assert prof.H[0] == 1.5


class TestNumericalKernels:
    def test_fd_derivative_fourth_order(self):
        x = np.linspace(0.0, 1.0, 101)
        errs = []
        for n in (101, 201):
            x = np.linspace(0.0, 1.0, n)
            d = po.fd_derivative(np.sin(3 * x), x[1] - x[0])
            errs.append(np.max(np.abs(d - 3 * np.cos(3 * x))))
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5

    def test_cumulative_integral_fourth_order(self):
        errs = []
        for n in (101, 201):
            x = np.linspace(0.0, 1.0, n)
            c = po.cumulative_integral(np.exp(x), x[1] - x[0])
            errs.append(np.max(np.abs(c - (np.exp(x) - 1.0))))
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5

    @pytest.mark.parametrize("n", [*range(2, 65), 1001, 1002, 4097, 8193])
    def test_simpson_is_scipys_to_the_bit(self, n):
        # composite Simpson on odd counts; scipy's even-count (Cartwright)
        # and two-point branches are not kept, so an even count raises
        rng = np.random.default_rng(n)
        for _ in range(5):
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            dx = rng.uniform(1e-4, 1.0)
            if n % 2:
                assert po._simpson(y, dx) == simpson(y, dx=dx)
            else:
                with pytest.raises(ValueError, match="odd count"):
                    po._simpson(y, dx)

    @pytest.mark.parametrize("n", [0, 1])
    def test_simpson_needs_three_samples(self, n):
        with pytest.raises(ValueError, match="odd count >= 3"):
            po._simpson(np.ones(n), 0.1)

    def test_cumulative_integral_preserves_zero_runs(self):
        f = np.zeros(33)
        f[20:] = np.linspace(0.0, 1.0, 13)
        c = po.cumulative_integral(f, 0.1)
        assert np.all(c[:20] == 0.0)
        assert c[-1] > 0.0


@given(phi0=st.floats(min_value=-0.9, max_value=0.99))
@settings(max_examples=20, deadline=None)
def test_solution_matches_family_property(phi0):
    w = Weight.constant(1.0, 1.0, 2.0)
    p = po.solve_phi_tilde(w, 1.0, 2.0, phi0, n=1024)
    exact = closed_form_phi(p.s, k_for_phi0(phi0))
    np.testing.assert_allclose(p.phi_tilde, exact, atol=1e-10)


@given(phi0=st.floats(min_value=0.0, max_value=0.99),
       n=st.sampled_from([512, 1024, 2048]))
@settings(max_examples=15, deadline=None)
def test_modulus_monotone_in_phi0(phi0, n):
    # larger phi0 -> strictly larger target modulus for fixed domain
    w = Weight.constant(1.0, 1.0, 2.0)
    grid = po.OdeGrid(w, 1.0, 2.0, n=n)
    lo = po.solve_phi_tilde(w, 1, 2, phi0, n=n, grid=grid)
    hi = po.solve_phi_tilde(w, 1, 2, phi0 + 0.005, n=n, grid=grid)
    assert hi.grid.modulus(hi.phi) > lo.grid.modulus(lo.phi)
