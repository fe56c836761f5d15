import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from annular_dirichlet import radial as rd
from annular_dirichlet.phi_ode import AccuracyError, OdeGrid
from annular_dirichlet.weights import Weight

import power_oracle
from rk4_oracle import (bisect_initial_value, bisect_threshold_g,
                        collapse_modulus)


def unit(r=1.0, R=2.0):
    return Weight.constant(1.0, r, R)


class TestAnnulusPair:
    def test_moduli(self):
        pair = rd.AnnulusPair(1.0, 2.0, 3.0, 12.0)
        assert pair.mod_target == pytest.approx(np.log(4.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            rd.AnnulusPair(2.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            rd.AnnulusPair(1.0, 2.0, -1.0, 2.0)

    @pytest.mark.parametrize("radii", [
        (1.0, np.inf, 1.0, 2.0), (1.0, 2.0, 1.0, np.inf),
        (1.0, np.nan, 1.0, 2.0), (1.0, 2.0, np.nan, 2.0)])
    def test_non_finite_radii_rejected(self, radii):
        with pytest.raises(ValueError, match="need finite .* radii"):
            rd.AnnulusPair(*radii)


class TestFindInitialValue:
    def test_hits_target_modulus(self):
        # the modulus of the grid's own columns, ln H(T) - ln min H:
        # measured within 7e-18 (case 1 at 1.25, just above the grid's m,
        # and at 2.0; case 2 at 1.02)
        w = unit()
        grid = OdeGrid(w, 1.0, 2.0)
        for pair in (rd.AnnulusPair(1, 2, 1, 1.25),
                     rd.AnnulusPair(1, 2, 1, 2.0),
                     rd.AnnulusPair(1, 2, 1, 1.02)):
            phi0 = rd.find_initial_value(grid, pair)
            mod = collapse_modulus(grid, phi0)
            assert abs(mod - pair.mod_target) <= 1e-15

    def test_sign_encodes_case(self):
        grid = OdeGrid(unit(), 1.0, 2.0)
        phi0_wide = rd.find_initial_value(grid, rd.AnnulusPair(1, 2, 1, 2.0))
        phi0_thin = rd.find_initial_value(grid, rd.AnnulusPair(1, 2, 1, 1.02))
        assert phi0_wide > 0          # expanding target: no collapse
        assert phi0_thin < 0          # thin target: collapse regime


@given(p=st.floats(min_value=-3.0, max_value=3.0),
       c=st.floats(min_value=0.1, max_value=10.0),
       rho=st.floats(min_value=1.01, max_value=5.0),
       f=st.floats(min_value=1.001, max_value=4.0))
@settings(max_examples=30, deadline=None)
@example(p=0.8217701239287258, c=2.770888466262316, rho=1.1734843605054168,
         f=1.0505663789500586)
@example(p=0.842040106809816, c=2.8235488088413536, rho=1.0115972199762593,
         f=1.009396146133278)
def test_case1_initial_value_matches_power_closed_form(p, c, rho, f):
    # ratio >= m: phi0 is one division by the fundamental matrix, whose
    # rounding it divides by h1(R) ~ ln rho.  Relative to max(lambda(r),
    # |phi0|) the worst of 4000 random draws (half with rho < 1.012) was
    # 3.8e-11 (second example); a bisection on the modulus missed by 6.8e-10
    # (first example) and 8.7e-9 at worst
    ratio = f * power_oracle.threshold_m(p, rho)
    w = Weight.power(p, 1.0, rho, value=c)
    phi0 = rd.find_initial_value(OdeGrid(w, 1.0, rho),
                                 rd.AnnulusPair(1.0, rho, 1.0, ratio))
    exact = c * power_oracle.initial_value(p, rho, ratio)
    assert abs(phi0 - exact) <= 1e-10 * max(c, abs(exact))


def item10(raises, today):
    """Strict xfail for ROADMAP item 10: for steep decreasing weights the
    extreme path H = h0 + phi_g h1 loses its digits in the growing
    columns, down to a nonpositive H."""
    return pytest.mark.xfail(strict=True, raises=raises,
                             reason=f"ROADMAP item 10, {today}")


class CountingGrid(OdeGrid):
    """OdeGrid that counts the paths it integrates."""
    calls = 0

    def integrate(self, phi0):
        self.calls += 1
        return super().integrate(phi0)


@given(p=st.floats(min_value=-3.0, max_value=3.0),
       c=st.floats(min_value=0.1, max_value=10.0),
       rho=st.floats(min_value=1.01, max_value=5.0),
       f=st.floats(min_value=1e-6, max_value=1 - 1e-9))
@settings(max_examples=30, deadline=None)
@example(p=3.0, c=0.1, rho=4.42186416308189, f=1.6231336387022867e-06)
@example(p=1.0, c=1.0, rho=1.01, f=1e-6)
@example(p=0.0, c=10.0, rho=5.0, f=0.3096606768944577)
@example(p=2.799220166540043, c=7.024508903943962, rho=4.608464068217278,
         f=6.309589336000607e-05)
@example(p=-2.937574367638944, c=6.258027352167978, rho=4.888439610554008,
         f=3.724811308023128e-05)
def test_case2_initial_value_meets_the_modulus_contract(p, c, rho, f):
    # ratio = 1 + f (m - 1) with m = h0(R), the grid's own threshold, so
    # the pair is in case 2 however close f is to 1
    w = Weight.power(p, 1.0, rho, value=c)
    grid = CountingGrid(w, 1.0, rho)
    ratio = 1.0 + f * (grid.columns[0][-1] - 1.0)
    pair = rd.AnnulusPair(1.0, rho, 1.0, ratio)
    phi0 = rd.find_initial_value(grid, pair)
    # the worst of 3400 draws (random, small f and f near 1) took 7 paths
    assert grid.calls <= 16
    assert phi0 < 0
    # the root meets the columns' modulus to rounding: the worst of those
    # draws was 4.1e-15 off (fourth example)
    assert abs(collapse_modulus(grid, phi0) - pair.mod_target) <= 1e-14
    # and it is the bisection's root of the same modulus, within rounding
    # of the modulus over its slope, taken at the lower one (0 on the flat
    # part at the kink's exit at R): at worst 3.0e-15 (fifth example)
    ref = bisect_initial_value(grid, pair.mod_target)
    low, step = min(phi0, ref), 1e-7 * c
    slope = (collapse_modulus(grid, low + step)
             - collapse_modulus(grid, low - step)) / (2 * step)
    assert abs(phi0 - ref) * slope <= 1e-14


@pytest.mark.parametrize("w", [
    unit(1.0, 3.0), Weight.power(1.0, 1.0, 3.0), Weight.power(-1.0, 1.0, 3.0),
    Weight.power(-4.0, 1.0, 3.0), Weight.power(3.0, 1.0, 3.0),
    Weight.from_callable(lambda s: 2.0 + np.sin(4 * s), 1.0, 3.0,
                         samples=8193)],
    ids=["1", "s", "1/s", "s^-4", "s^3", "2+sin4s"])
@pytest.mark.parametrize("f", [1e-6, 0.5])
def test_case2_build_raises_no_warning(w, f):
    # the Newton slope divides by v and by min H
    m = OdeGrid(w, 1.0, 3.0).columns[0][-1]
    pair = rd.AnnulusPair(1.0, 3.0, 1.0, 1.0 + f * (m - 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = rd.build(w, pair)
    assert sol.case_tag == rd.CASE2
    grid = sol.phi.grid
    assert abs(collapse_modulus(grid, sol.phi0) - pair.mod_target) <= 1e-14


@pytest.mark.parametrize("w", [
    Weight.power(-4.0, 1.0, 5.0),
    Weight.from_callable(lambda s: 2.0 + np.sin(4 * s), 1.0, 5.0,
                         samples=8193)], ids=["s^-4", "2+sin4s"])
def test_case2_root_on_a_coarse_grid_just_below_m(w):
    # the case split and the modulus come from the same columns, so a ratio
    # 1e-9 (m - 1) below m on a 256-interval grid still meets the modulus:
    # measured exactly, in one path (a Simpson-rule modulus beside the
    # columns' split missed it by 9.8e-10 and 6.2e-10 here)
    grid = CountingGrid(w, 1.0, 5.0, 256)
    m = grid.columns[0][-1]
    pair = rd.AnnulusPair(1.0, 5.0, 1.0, m - 1e-9 * (m - 1.0))
    phi0 = rd.find_initial_value(grid, pair)
    assert grid.calls == 1
    assert phi0 < 0
    assert abs(collapse_modulus(grid, phi0) - pair.mod_target) <= 1e-15


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("R", [4.4, 4.6, 4.8, 5.0])
def test_case2_thin_target_takes_few_paths(p, R):
    # a thin target 1 + 1e-6 (m - 1) puts the kink next to R, so Newton's
    # first step is taken from the bracket's lower end (kink at R):
    # measured 2-3 paths (Newton on a Simpson-rule modulus, which is
    # quadratic in phi0 there, took 6-15)
    grid = CountingGrid(Weight.power(p, 1.0, R), 1.0, R)
    m = grid.columns[0][-1]
    pair = rd.AnnulusPair(1.0, R, 1.0, 1.0 + 1e-6 * (m - 1.0))
    phi0 = rd.find_initial_value(grid, pair)
    assert grid.calls <= 3
    assert abs(collapse_modulus(grid, phi0) - pair.mod_target) <= 1e-14


CASE2_GRID = [(p, rho, f) for p in (0.0, 1.0, -1.0, 2.0, -2.0)
              for rho in (2.0, 5.0) for f in (1e-3, 0.05, 0.5, 0.95)]


@lru_cache(maxsize=None)
def case2_errors(p, rho, f):
    """(case tag, |r0 error|, |phi0 error|) of `build` for A(1, rho) ->
    A*(1, 1 + f (m - 1)) with the weight s^p, against the closed form."""
    ratio = 1.0 + f * (power_oracle.threshold_m(p, rho) - 1.0)
    sol = rd.build(Weight.power(p, 1.0, rho),
                   rd.AnnulusPair(1.0, rho, 1.0, ratio))
    phi0, r0 = power_oracle.collapse(p, rho, ratio)
    return sol.case_tag, abs(sol.r0 - r0), abs(sol.phi0 - phi0)


@pytest.mark.parametrize("R_star", [1.02, 1.05, 1.2, 1.25])
def test_collapse_oracle_unit_weight_closed_form(R_star):
    # A(1, 2) -> A*(1, R*): H = cosh(t - t0) with cosh(ln 2 - t0) = R*
    _, r0 = power_oracle.collapse(0.0, 2.0, R_star)
    assert r0 == pytest.approx(2 * R_star - 2 * np.sqrt(R_star ** 2 - 1),
                               rel=0, abs=2e-15)


@pytest.mark.parametrize("p, rho, f", CASE2_GRID)
def test_case2_build_matches_power_closed_form(p, rho, f):
    # measured: r0 off by at most 1.7e-12 (p=1, rho=5, f=1e-3) and phi0 by
    # at most 1.1e-12 (p=2, rho=2, f=1e-3), the RK4 grid's own error: the
    # root meets the columns' modulus to rounding
    case, r0_err, phi0_err = case2_errors(p, rho, f)
    assert case == rd.CASE2
    assert r0_err <= 5e-12
    assert phi0_err <= 3e-12


def test_case2_collapse_radius_within_1e_10():
    assert max(case2_errors(*case)[1] for case in CASE2_GRID) <= 1e-10


def test_case1_exactly_from_the_threshold():
    # build splits the cases on h0(R) of the fundamental matrix, and
    # threshold_m returns that h0(R): with Simpson's rule for Phi/lambda
    # instead, 10 of these 24 probes within an ulp of m disagreed
    wrong = []
    for w in (unit(1.0, 1.5), unit(), Weight.power(-2.0, 1.0, 1.5),
              Weight.power(-2.0, 1.0, 2.0)):
        rho = w.R / w.r
        for n in (1024, 4096):
            m = rd.threshold_m(w, rho, n=n)
            for ratio in (np.nextafter(m, 0.0), m, np.nextafter(m, np.inf)):
                sol = rd.build(w, rd.AnnulusPair(1.0, rho, 1.0, ratio), n=n)
                if (sol.case_tag == rd.CASE1) != (ratio >= m):
                    wrong.append((w.kind, rho, n, ratio, m, sol.case_tag))
    assert not wrong


class TestBuild:
    def test_boundary_values_pinned(self):
        sol = rd.build(unit(), rd.AnnulusPair(1, 2, 1.5, 2.5))
        assert sol.profile.H[0] == pytest.approx(1.5, rel=1e-9)
        assert sol.profile.H[-1] == 2.5

    def test_case_tags(self):
        assert rd.build(unit(), rd.AnnulusPair(1, 2, 1, 2)).case_tag == rd.CASE1
        assert rd.build(unit(),
                        rd.AnnulusPair(1, 2, 1, 1.02)).case_tag == rd.CASE2

    def test_energy_matches_closed_form(self):
        sol = rd.build(unit(), rd.AnnulusPair(1, 2, 1, 2))
        assert sol.energy == pytest.approx(6 * np.pi, rel=1e-10)

    def test_case1_integrates_one_path(self, monkeypatch):
        # the profile scales the pair that the solve checked
        monkeypatch.setattr(rd, "OdeGrid", CountingGrid)
        sol = rd.build(unit(), rd.AnnulusPair(1, 2, 1, 2))
        assert sol.case_tag == rd.CASE1
        assert sol.phi.grid.calls == 1

    def test_H_monotone(self):
        for R_star in (1.02, 1.25, 3.0):
            sol = rd.build(unit(), rd.AnnulusPair(1, 2, 1, R_star))
            assert np.all(np.diff(sol.profile.H) >= 0.0)


class TestThickTargets:
    """Targets far above m, where phi_tilde is steep; each pair raised
    AccuracyError while the residual was taken on phi_tilde."""

    def test_unit_weight_closed_forms(self):
        # Phi = (s^2 - k)/(s^2 + k) with k = -25/33: phi0 = 7.25 and
        # E = 2 pi (400 Phi(5) - phi0) = 2 pi 417.75
        sol = rd.build(unit(1.0, 5.0), rd.AnnulusPair(1, 5, 1, 20))
        assert sol.phi.grid.n == 4096
        assert sol.phi0 == pytest.approx(7.25, abs=1e-11)
        assert sol.energy == pytest.approx(2 * np.pi * 417.75, rel=1e-12)
        assert sol.phi.residual <= 1e-9

    @pytest.mark.parametrize("rho", [2.0, 5.0])
    def test_s_weight_at_four_times_g(self, rho):
        ratio = 4 * power_oracle.threshold_g(1.0, rho)[0]
        sol = rd.build(Weight.power(1.0, 1.0, rho),
                       rd.AnnulusPair(1, rho, 1, ratio), n=4096)
        assert sol.case_tag == rd.CASE1
        assert sol.phi.grid.n == 4096
        assert sol.phi.residual <= 1e-9
        assert sol.phi0 == pytest.approx(
            power_oracle.initial_value(1.0, rho, ratio), rel=1e-11)


class TestThresholds:
    def test_m_closed_form(self):
        # homeomorphism threshold for the unit weight: (rho^2+1)/(2 rho)
        for rho in (1.5, 2.0, 5.0):
            m = rd.threshold_m(unit(1.0, rho), rho)
            assert m == pytest.approx((rho * rho + 1) / (2 * rho), abs=1e-10)

    def test_g_closed_form(self):
        for rho in (1.5, 2.0, 5.0):
            g = rd.threshold_g(unit(1.0, rho), rho)
            assert g == pytest.approx(rho, abs=1e-8)

    def test_constant_weight_transport(self):
        # a constant weight on [1, 2] answers questions about any ratio
        m = rd.threshold_m(unit(), 5.0)
        assert m == pytest.approx(2.6, abs=1e-8)

    @pytest.mark.parametrize("fn", [rd.threshold_m, rd.threshold_g])
    def test_ratio_past_a_non_constant_weight_raises(self, fn):
        # only a constant weight answers ratios past its interval's
        with pytest.raises(ValueError, match=r"^threshold ratio 3 reaches "
                           r"past the weight's interval \[1, 2\]$"):
            fn(Weight.power(1.0, 1.0, 2.0), 3.0)

    @pytest.mark.parametrize("p", [1.0, -1.0])
    @pytest.mark.parametrize("fn", [rd.threshold_m, rd.threshold_g])
    def test_smaller_ratio_is_read_on_the_prefix(self, fn, p):
        # a threshold depends on lambda on [r, r rho] only: a weight on
        # [1, 2] answers 1.5 on the same grid as one on [1, 1.5]
        assert fn(Weight.power(p, 1.0, 2.0), 1.5) == \
            fn(Weight.power(p, 1.0, 1.5), 1.5)

    @pytest.mark.parametrize("rho", [1.0, np.inf, np.nan])
    def test_ratio_must_be_finite_and_above_one(self, rho):
        with pytest.raises(ValueError, match="need 1 < rho < inf"):
            rd.thresholds(unit(), rho)

    def test_ratio_just_off_the_weight_interval(self):
        # a ratio 1.5e-5 above the weight's own must not be answered on [1, 2]
        rho = 2.000015
        m = rd.threshold_m(unit(), rho)
        g = rd.threshold_g(unit(), rho)
        assert m == pytest.approx((rho * rho + 1) / (2 * rho), abs=1e-12)
        assert g == pytest.approx(rho, abs=1e-12)

    @pytest.mark.parametrize("w, rho", [
        (unit(), 2.0), (unit(), 5.0), (Weight.power(1.0, 1.0, 2.0), 2.0),
        (Weight.power(-1.0, 1.0, 5.0), 5.0)])
    def test_one_grid_for_both(self, w, rho):
        # the CLI's tables take m and g from one grid, bit for bit
        assert rd.thresholds(w, rho, n=1024) == \
            (rd.threshold_m(w, rho, n=1024), rd.threshold_g(w, rho, n=1024))

    def test_m_below_g(self):
        w = Weight.from_callable(lambda s: 2.0 + np.sin(4 * s), 1.0, 2.0,
                                 samples=8193)
        m = rd.threshold_m(w, 2.0)
        g = rd.threshold_g(w, 2.0)
        assert 1.0 < m < g


    @pytest.mark.parametrize("k", [4, 8])
    def test_g_matches_bisection_on_tabulated_weights(self, k):
        w = Weight.from_callable(lambda s: 2.0 + np.sin(k * s), 1.0, 2.0,
                                 samples=4097)
        g = rd.threshold_g(w, 2.0, n=2048)
        assert g == pytest.approx(bisect_threshold_g(OdeGrid(w, 1.0, 2.0, 2048)),
                                  abs=1e-8)

    @pytest.mark.parametrize("p, rho", [(1.0, 2.0), (-1.0, 2.0), (-1.0, 5.0),
                                        (-3.0, 1.5)])
    def test_g_path_touches_the_weight_from_below(self, p, rho):
        # at the closed-form phi_g the path stays below lambda and meets it
        w = Weight.power(p, 1.0, rho)
        grid = OdeGrid(w, 1.0, rho)
        h0, h1, q0, q1 = grid.columns
        a, b = q0 - grid.lam * h0, q1 - grid.lam * h1
        phi_g = np.min(-a[b > 0] / b[b > 0])
        excess = (grid.integrate(phi_g)[2] - grid.lam) / grid.lam
        assert np.max(excess) <= 1e-14
        assert np.max(excess) >= -1e-14
        assert np.min(h0 + phi_g * h1) > 0.0

    @pytest.mark.parametrize("p, rho, n", [(-12.0, 50.0, 4096),
                                           (-10.0, 50.0, 4096),
                                           (-24.0, 10.0, 4096),
                                           (-12.0, 50.0, 32768),
                                           (-25.5, 5.0, 4096),
                                           (-18.25, 10.0, 64),
                                           (-9.75, 50.0, 256)])
    def test_g_extreme_path_lost_to_cancellation(self, p, rho, n):
        # the columns reach 1e18 and beyond, and H = h0 + phi_g h1 cancels
        # to a nonpositive value, or phi_tilde turns nonnegative within two
        # cells of R or not at all (the last three): a typed error, not an
        # IndexError or Simpson's ValueError on a one-node tail
        with pytest.raises(AccuracyError, match="extreme path"):
            rd.threshold_g(Weight.power(p, 1.0, rho), rho, n=n)

    @pytest.mark.parametrize("n", [1001, 4095])
    @pytest.mark.parametrize("w, p, rho", [(unit(1.0, 2.0), 0.0, 2.0),
                                           (unit(1.0, 5.0), 0.0, 5.0),
                                           (Weight.power(1.0, 1.0, 2.0), 1.0,
                                            2.0)], ids=["1-2", "1-5", "s-2"])
    def test_odd_interval_count_matches_closed_forms(self, w, p, rho, n):
        # an odd n is used as given; with phi_g >= 0 the kink is at r, and
        # the Simpson start j = 1 carries the ratio H_1 / H(r) (relative
        # errors measured within 4.4e-13 for m, the unit weight at 5 and
        # 4095, and 5.7e-14 for g)
        m_exact, (g_exact, _) = (power_oracle.threshold_m(p, rho),
                                 power_oracle.threshold_g(p, rho))
        assert rd.threshold_m(w, rho, n=n) == pytest.approx(m_exact, rel=1e-12)
        assert rd.threshold_g(w, rho, n=n) == pytest.approx(g_exact, rel=1e-12)

    @pytest.mark.parametrize("p, rho", [
        pytest.param(-12.0, 50.0, marks=item10(AccuracyError, "H at -4.3e3")),
        pytest.param(-10.0, 50.0, marks=item10(AccuracyError, "H at -0.1")),
        pytest.param(-24.0, 10.0, marks=item10(AccuracyError, "H at -8.9e6")),
        pytest.param(-4.0, 50.0, marks=item10(AssertionError, "1.07e-9 off"))])
    def test_g_on_steep_decreasing_weights_matches_closed_form(self, p, rho):
        # for p < 0 the extreme path touches lambda at the outer end, so the
        # closed form of tests/power_oracle is well conditioned in double
        g_exact, _ = power_oracle.threshold_g(p, rho)
        g = rd.threshold_g(Weight.power(p, 1.0, rho), rho)
        assert g == pytest.approx(g_exact, rel=1e-12)


class TestEnergyClosedForm:
    def test_case1(self):
        sol = rd.build(unit(), rd.AnnulusPair(1, 2, 1, 1.25))
        e = rd.energy_closed_form(sol)
        assert e == pytest.approx(15 * np.pi / 8, abs=1e-8)
        assert sol.energy == pytest.approx(e, rel=1e-10)

    def test_case2(self):
        pair = rd.AnnulusPair(1, 2, 1, 3 / (2 * np.sqrt(2)))
        sol = rd.build(unit(), pair)
        e = rd.energy_closed_form(sol)
        assert e == pytest.approx(2 * np.pi * (3 / 8 + np.log(2) / 2),
                                  abs=1e-7)

    # The collapse integral int_r^r0 lambda/s ds against exact integrals,
    # with r0 and Phi(R) the solution's own (r* = 1), on A(1, 2) -> A*(1,
    # 1.05).  Bounds from measurement: the 2049-point Simpson rule is
    # 1.1e-11 off on the table, whose kinks it crosses, and within 1.8e-15
    # (an ulp of the energy) on powers.  Simpson's rule on the grid's nodes
    # and half nodes, with a parabolic end piece, is 2.5e-8 off on the table.

    def test_case2_collapse_integral_of_a_table(self):
        w = Weight.from_callable(lambda s: 2.0 + np.sin(4.0 * s), 1.0, 2.0,
                                 samples=8193)
        sol = rd.build(w, rd.AnnulusPair(1.0, 2.0, 1.0, 1.05))
        assert sol.case_tag == rd.CASE2
        s, lam = w.abscissae, w.ordinates
        b = np.minimum(s[1:], sol.r0)
        keep = s[:-1] < sol.r0
        slope = np.diff(lam) / np.diff(s)
        # int_a^b (lam_a + slope (s - a))/s ds on each piece up to r0
        pieces = ((lam[:-1] - slope * s[:-1]) * np.log(b / s[:-1])
                  + slope * (b - s[:-1]))[keep]
        exact = 2 * np.pi * (1.05 ** 2 * sol.phi.phi[-1] + math.fsum(pieces))
        assert abs(sol.energy - exact) <= 2e-11

    @pytest.mark.parametrize("p", [1.0, -1.0, 2.0, -2.0])
    def test_case2_collapse_integral_of_a_power(self, p):
        sol = rd.build(Weight.power(p, 1.0, 2.0),
                       rd.AnnulusPair(1.0, 2.0, 1.0, 1.05))
        assert sol.case_tag == rd.CASE2
        exact = 2 * np.pi * (1.05 ** 2 * sol.phi.phi[-1]
                             + (sol.r0 ** p - 1.0) / p)
        assert abs(sol.energy - exact) <= 4e-15


class TestCertificate:
    def test_unit_weight_case1(self):
        sol = rd.build(unit(), rd.AnnulusPair(1, 2, 1, 1.5))
        rep = rd.claim1_certificate(sol, unit())
        assert rep.margin_tau >= -1e-10
        assert rep.margin_tau_dot >= -1e-10
        assert rep.margin_angular >= -1e-10
        assert rep.margin_radial >= -1e-10
        assert rep.identity_residual <= 1e-9
        assert rd.fixed_boundary_coefficients(sol, unit()).residual <= 1e-9

    def test_increasing_weight_case2(self):
        w = Weight.power(1.0, 1.0, 2.0)
        pair = rd.AnnulusPair(1, 2, 1, 1.01)
        sol = rd.build(w, pair)
        rep = rd.claim1_certificate(sol, w)
        assert rep.c == 0.0        # collapse case: constant part vanishes
        assert rep.margin_tau >= -1e-10
        assert rep.identity_residual <= 1e-8

    def test_decreasing_weight_rejected(self):
        w = Weight.power(-1.0, 1.0, 2.0)
        sol = rd.build(w, rd.AnnulusPair(1, 2, 1, 1.5))
        with pytest.raises(rd.CertificateError):
            rd.claim1_certificate(sol, w)

    @pytest.mark.parametrize("eps", [1e-8, 1e-9])
    def test_thin_collapse_leaves_too_few_smooth_nodes(self, eps):
        # r0 lies within 2 nodes of R at n=4096: a certificate there would
        # read a one-sided difference over the kink (eps = 1e-8) or fail
        # inside numpy (eps = 1e-9), so both raise a typed error
        w = unit()
        sol = rd.build(w, rd.AnnulusPair(1, 2, 1, 1 + eps), n=4096)
        assert sol.case_tag == rd.CASE2
        with pytest.raises(AccuracyError, match=r"grid node\(s\) on \[r0, R\]"):
            rd.claim1_certificate(sol, w)
        with pytest.raises(AccuracyError, match=r"fewer than the 5"):
            rd.fixed_boundary_coefficients(sol, w)


class TestTheWeightIsTheSolutions:
    # s^-2 on A(1, 2) -> A*(1, 1.5), with the unit weight in the unused
    # argument: the certificate and the coefficients read lambda from the
    # solution's grid
    W = Weight.power(-2.0, 1.0, 2.0)
    PAIR = rd.AnnulusPair(1.0, 2.0, 1.0, 1.5)

    def test_certificate_rejects_the_decreasing_solution(self):
        sol = rd.build(self.W, self.PAIR)
        with pytest.raises(rd.CertificateError,
                           match="requires a nondecreasing weight"):
            rd.claim1_certificate(sol, unit())

    def test_coefficients_are_those_of_the_solutions_weight(self):
        sol = rd.build(self.W, self.PAIR)
        own = rd.fixed_boundary_coefficients(sol, self.W)
        other = rd.fixed_boundary_coefficients(sol, unit())
        for a, b in [(other.g, own.g), (other.rho1, own.rho1),
                     (other.rho2, own.rho2)]:
            assert a.tobytes() == b.tobytes()
        assert other.residual == own.residual <= 1e-12


class TestFixedBoundaryCoefficients:
    def test_decreasing_weight(self):
        w = Weight.power(-1.0, 1.0, 2.0)
        sol = rd.build(w, rd.AnnulusPair(1, 2, 1, 1.5))
        fb = rd.fixed_boundary_coefficients(sol, w)
        assert np.all(fb.g >= 0.0) and np.all(fb.g <= 1.0)
        assert fb.residual <= 1e-6

    def test_rho1_derivative_identity(self):
        w = unit()
        sol = rd.build(w, rd.AnnulusPair(1, 2, 1, 2))
        fb = rd.fixed_boundary_coefficients(sol, w)
        # conformal case: rho1 = s, rho2 = 1 -> residual is machine small
        assert fb.residual <= 1e-9


@given(rho=st.floats(min_value=1.1, max_value=6.0))
@settings(max_examples=15, deadline=None)
def test_m_between_one_and_rho(rho):
    m = rd.threshold_m(unit(1.0, rho), rho, n=1024)
    assert 1.0 < m < rho


@given(r_star=st.floats(min_value=0.5, max_value=4.0),
       ratio=st.floats(min_value=1.05, max_value=3.0))
@settings(max_examples=10, deadline=None)
def test_energy_scales_with_target_size(r_star, ratio):
    # E is 2-homogeneous in the target: scaling both target radii by c
    # multiplies the minimal radial energy by c^2
    w = unit()
    base = rd.build(w, rd.AnnulusPair(1, 2, 1.0, ratio), n=1024)
    scaled = rd.build(w, rd.AnnulusPair(1, 2, r_star, r_star * ratio), n=1024)
    np.testing.assert_allclose(scaled.energy, r_star ** 2 * base.energy,
                               rtol=1e-8)


@given(p=st.floats(min_value=-3.0, max_value=3.0),
       c=st.floats(min_value=0.1, max_value=10.0),
       rho=st.floats(min_value=1.01, max_value=5.0))
@settings(max_examples=30, deadline=None)
@example(p=-0.875, c=1.0, rho=5.0)   # even node count from k: one cell folded
@example(p=-2.0, c=1.0, rho=5.0)     # odd node count from k
def test_thresholds_match_power_weight_closed_forms(p, c, rho):
    w = Weight.power(p, 1.0, rho, value=c)
    m = rd.threshold_m(w, rho)
    assert m == pytest.approx(power_oracle.threshold_m(p, rho), rel=1e-12)
    g_exact, phi_g_nonnegative = power_oracle.threshold_g(p, rho)
    # with phi_g < 0 the modulus from the minimum of H on is ln H ratios
    # and Simpson's rule on an odd node count; the worst of 3414 random
    # draws was 8.4e-13
    tol = 1e-12 if phi_g_nonnegative else 2e-12
    assert rd.threshold_g(w, rho) == pytest.approx(g_exact, rel=tol)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 10's latent flake: rounding, not truncation, leaves "
    "threshold_g 1.53e-12 relative off at p = -0.1, rho = 5, n = 4096, past "
    "the 1e-12 that test_thresholds_match_power_weight_closed_forms allows "
    "when phi_g >= 0"))
def test_g_at_a_slightly_decreasing_weight_within_1e_12():
    g_exact, phi_g_nonnegative = power_oracle.threshold_g(-0.1, 5.0)
    assert phi_g_nonnegative    # the branch held to 1e-12 above
    w = Weight.power(-0.1, 1.0, 5.0, value=1.0)
    assert rd.threshold_g(w, 5.0, n=4096) == pytest.approx(g_exact, rel=1e-12)
