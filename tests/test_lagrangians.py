import numpy as np
import pytest

from annular_dirichlet import discrete as dc
from annular_dirichlet import lagrangians as lg
from annular_dirichlet import radial as rd
from annular_dirichlet.weights import Weight

PAIR = rd.AnnulusPair(1.0, 2.0, 1.0, 2.0)
UNIT = Weight.constant(1.0, 1.0, 2.0)


def radial_spec(ns=256, ntheta=256):
    return lg.TestMapSpec(kind="radial", pair=PAIR, ns=ns, ntheta=ntheta,
                          weight=UNIT)


def perturbed_spec(seed=0, amplitude=0.05, ns=256, ntheta=256):
    return lg.TestMapSpec(kind="perturbed", pair=PAIR, ns=ns, ntheta=ntheta,
                          base=radial_spec(ns, ntheta),
                          amplitude=amplitude, seed=seed)


class TestMakeTestMap:
    def test_radial(self):
        m = lg.make_test_map(radial_spec())
        m.check()
        np.testing.assert_allclose(np.abs(m.h)[:, 0], np.abs(m.h)[:, -1])

    def test_explicit_profile(self):
        spec = lg.TestMapSpec(kind="radial", pair=PAIR,
                              profile=lambda s: s)
        m = lg.make_test_map(spec)
        np.testing.assert_allclose(
            np.abs(m.h), np.broadcast_to(np.exp(m.t)[:, None], m.h.shape),
            rtol=1e-12)

    def test_twist(self):
        spec = lg.TestMapSpec(kind="twist", pair=PAIR,
                              profile=lambda s: s,
                              twist=lambda s: 0.3 * np.log(s))
        m = lg.make_test_map(spec)
        m.check()
        assert dc.winding_number(m, 10) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            lg.make_test_map(lg.TestMapSpec(kind="spiral", pair=PAIR))


class TestThetaDerivative:
    def test_exact_on_trig_modes(self):
        n = 64
        theta = 2 * np.pi * np.arange(n) / n
        z = np.exp(3j * theta)
        d = lg.theta_derivative(z)
        np.testing.assert_allclose(d, 3j * z, atol=1e-12)


class TestIdentities:
    def test_pullback_on_identity_map(self):
        spec = lg.TestMapSpec(kind="radial", pair=PAIR, ns=512, ntheta=512,
                              profile=lambda s: s)
        m = lg.make_test_map(spec)
        r = lg.fl_pullback_residual(m, lambda G: G)
        assert r.rel_residual < 1e-3

    def test_radial_identity(self):
        m = lg.make_test_map(perturbed_spec(seed=2, ns=512, ntheta=512))
        r = lg.fl_radial_residual(m, lambda G: np.cos(G))
        assert r.rel_residual < 1e-3

    def test_tangential_identity(self):
        m = lg.make_test_map(perturbed_spec(seed=4, ns=512, ntheta=512))
        r = lg.fl_tangential_residual(m, lambda s: 1.0 / s)
        assert r.rel_residual < 1e-3

    def test_boundary_identity(self):
        m = lg.make_test_map(perturbed_spec(seed=6, ns=512, ntheta=512))
        C = lg.CFunction(f=lambda s, G: np.log(s),
                         fs=lambda s, G: 1.0 / s,
                         fG=lambda s, G: 0.0)
        r = lg.fl_boundary_residual(m, C)
        assert r.rel_residual < 1e-3

    def test_pullback_convergence_order(self):
        res = []
        for n in (128, 256, 512):
            m = lg.make_test_map(perturbed_spec(seed=1, ns=n, ntheta=n))
            res.append(lg.fl_pullback_residual(m, lambda G: G * G).residual)
        order = np.log2(res[0] / res[1])
        assert order > 1.5
        order = np.log2(res[1] / res[2])
        assert order > 1.5


class TestIsoperimetric:
    def test_circle_is_exact_equality(self):
        m = lg.make_test_map(radial_spec(64, 64))
        margins = lg.isoperimetric_margins(m)
        for row in (0, 30, 63):
            assert abs(margins[row]) < 1e-12

    def test_perturbed_rows_nonnegative(self):
        m = lg.make_test_map(perturbed_spec(seed=9, amplitude=0.1))
        margins = lg.isoperimetric_margins(m)
        assert margins.min() >= -1e-9

    def test_vectorized_matches_per_row(self):
        m = lg.make_test_map(perturbed_spec(seed=5))
        margins = lg.isoperimetric_margins(m)
        for row in (0, 17, 200):
            zth = lg.theta_derivative(m.h[row])
            length = float(np.sum(np.abs(zth))) * m.dtheta
            area2 = float(np.sum(np.imag(np.conj(m.h[row]) * zth))) * m.dtheta
            assert margins[row] == pytest.approx(
                length ** 2 / (2 * np.pi) - area2, abs=1e-12)

    def test_degenerate_row_raises(self):
        m = lg.make_test_map(radial_spec(32, 32))
        m.h[4] = 0.0
        with pytest.raises(dc.DegenerateRowError):
            lg.isoperimetric_margins(m)


class TestProofSteps:
    def test_margins_vanish_at_minimizer(self):
        sol = rd.build(UNIT, PAIR)
        m = dc.embed_radial(sol, 256, 256)
        rep = lg.proof_step_suite(m, sol, UNIT)
        assert abs(rep.westim2) < 1e-10
        assert abs(rep.westim4) < 1e-9
        assert rep.westim1 is not None and rep.westim1 >= -1e-10

    def test_margins_nonnegative_for_competitors(self):
        sol = rd.build(UNIT, PAIR)
        for seed in range(4):
            m = lg.make_test_map(perturbed_spec(seed=seed, amplitude=0.08))
            rep = lg.proof_step_suite(m, sol, UNIT)
            assert rep.westim1 >= -1e-9
            assert rep.westim2 >= -1e-9
            assert rep.westim4 >= -1e-9
            assert rep.energy_margin >= -1e-9

    def test_collapsing_case_skips_ray_step(self):
        pair = rd.AnnulusPair(1, 2, 1, 1.02)
        sol = rd.build(UNIT, pair)
        m = dc.embed_radial(sol, 128, 128)
        rep = lg.proof_step_suite(m, sol, UNIT)
        assert rep.westim1 is None
        assert rep.notes
        assert rep.westim2 >= -1e-10
