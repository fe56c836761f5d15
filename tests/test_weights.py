import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from annular_dirichlet.weights import (MONOTONE_TOL, Weight, WeightError,
                                       weight_from_config)


def test_constant_evaluation():
    w = Weight.constant(3.0, 1.0, 2.0)
    assert w(1.5) == 3.0
    np.testing.assert_array_equal(w(np.array([1.0, 1.3, 2.0])), 3.0)


def test_power_evaluation():
    w = Weight.power(2.0, 1.0, 2.0)
    s = np.linspace(1.0, 2.0, 11)
    np.testing.assert_allclose(w(s), s * s, rtol=1e-15)


def test_power_with_coefficient():
    w = Weight.power(-1.0, 1.0, 4.0, value=0.5)
    np.testing.assert_allclose(w(2.0), 0.25, rtol=1e-15)


def test_tabulated_interpolates_linearly():
    s = np.array([1.0, 1.5, 2.0])
    v = np.array([1.0, 3.0, 2.0])
    w = Weight.tabulated(s, v)
    assert w(1.25) == pytest.approx(2.0, rel=1e-15)
    assert w(1.75) == pytest.approx(2.5, rel=1e-15)


def test_tabulated_reads_samples_on_a_subinterval():
    s = np.array([1.0, 1.5, 2.0, 3.0])
    v = np.array([1.0, 3.0, 2.0, 4.0])
    w = Weight.tabulated(s, v, r=1.25, R=2.5)
    np.testing.assert_array_equal(w.abscissae, [1.25, 1.5, 2.0, 2.5])
    np.testing.assert_array_equal(w.ordinates, [2.0, 3.0, 2.0, 3.0])
    assert (w.r, w.R) == (1.25, 2.5)
    with pytest.raises(WeightError, match=r"cover \[1, 3\], not \[1, 3.5\]"):
        Weight.tabulated(s, v, r=1.0, R=3.5)


def test_from_callable_matches_function():
    w = Weight.from_callable(np.exp, 1.0, 2.0, samples=4097)
    s = np.exp(np.linspace(0.0, np.log(2.0), 333))
    np.testing.assert_allclose(w(s), np.exp(s), rtol=1e-7)


def test_domain_is_enforced():
    w = Weight.constant(1.0, 1.0, 2.0)
    with pytest.raises(WeightError):
        w(0.5)
    with pytest.raises(WeightError):
        w(np.array([1.0, 2.5]))


def test_positivity_validation():
    s = np.array([1.0, 1.5, 2.0])
    with pytest.raises(WeightError, match=r"value -0.5 at s = 1.5$"):
        Weight.tabulated(s, np.array([1.0, -0.5, 2.0]))
    good = Weight.tabulated(s, np.array([1.0, 0.5, 2.0]))
    assert good.validate() is None


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: Weight.constant(0.0, 1.0, 2.0),
                 r"constant weight must be positive on \[1, 2\]: "
                 r"non-positive value 0 at s = 1$", id="constant-zero"),
    pytest.param(lambda: Weight.constant(-3.0, 1.0, 2.0),
                 r"value -3 at s = 1$", id="constant-negative"),
    pytest.param(lambda: Weight.constant(float("nan"), 1.0, 2.0),
                 r"value nan at s = 1$", id="constant-nan"),
    pytest.param(lambda: Weight.power(1.0, 1.0, 2.0, value=0.0),
                 r"value 0 at s = 1$", id="power-zero-prefactor"),
    pytest.param(lambda: Weight.power(-2.0, 1.0, 2.0, value=-2.0),
                 r"power weight must be positive on \[1, 2\]: "
                 r"non-positive value -2 at s = 1$",
                 id="power-negative-prefactor"),
    # 50**-400 underflows to 0 at the outer end only
    pytest.param(lambda: Weight.power(-400.0, 1.0, 50.0),
                 r"value 0 at s = 50$", id="power-end-underflows"),
    pytest.param(lambda: Weight.tabulated([1.0, 2.0, 3.0], [1.0, 2.0, -1.0]),
                 r"tabulated weight must be positive on \[1, 3\]: "
                 r"non-positive value -1 at s = 3$", id="tabulated-sample"),
    # the cut interpolates the end value 2 - 0.75 * 4 at R = 2.75
    pytest.param(lambda: Weight.tabulated([1.0, 2.0, 3.0], [1.0, 2.0, -2.0],
                                          R=2.75),
                 r"value -1 at s = 2.75$", id="tabulated-cut-end"),
    pytest.param(lambda: Weight.power(1.0, 1.0, 2.0).scale(-1.0),
                 r"value -1 at s = 1$", id="negative-scale"),
    # 5**500 overflows to inf at the outer end only
    pytest.param(lambda: Weight.power(500.0, 1.0, 5.0),
                 r"power weight must be finite on \[1, 5\]: "
                 r"non-finite value inf at s = 5$", id="power-end-overflows"),
    pytest.param(lambda: Weight.constant(np.inf, 1.0, 2.0),
                 r"value inf at s = 1$", id="constant-inf"),
    pytest.param(lambda: Weight.tabulated([1.0, 2.0], [1.0, np.inf]),
                 r"tabulated weight must be finite on \[1, 2\]: "
                 r"non-finite value inf at s = 2$", id="tabulated-inf"),
    pytest.param(lambda: Weight.constant(1.0, 2.0, 2.0), r"need 0 < r < R",
                 id="empty-interval"),
    pytest.param(lambda: Weight.power(1.0, 1.0, np.inf), r"need 0 < r < R",
                 id="infinite-interval"),
])
def test_construction_rejects_non_positive_weights(make, message):
    with pytest.raises(WeightError, match=message):
        make()


def test_sample_dropped_by_the_cut_is_accepted():
    # the negative sample at s = 1 lies outside [2, 4]
    w = Weight.tabulated([1.0, 2.0, 3.0, 4.0], [-1.0, 1.0, 1.0, 2.0],
                         r=2.0, R=4.0)
    np.testing.assert_array_equal(w.abscissae, [2.0, 3.0, 4.0])
    assert w.validate() is None


@pytest.mark.parametrize("s, lam, message", [
    ([1.0], [1.0], "length >= 2"), ([1.0, 2.0], [1.0, 2.0, 3.0], "length >= 2"),
    ([[1.0, 2.0]], [[1.0, 2.0]], "length >= 2"),
    ([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], "strictly increasing"),
    ([1.0, 3.0, 2.0], [1.0, 1.0, 1.0], "strictly increasing")])
def test_tabulated_shape_and_order_errors(s, lam, message):
    with pytest.raises(WeightError, match=message):
        Weight.tabulated(s, lam)


def test_scale():
    w = Weight.power(1.0, 1.0, 2.0).scale(3.0)
    np.testing.assert_allclose(w(1.5), 4.5, rtol=1e-15)
    with pytest.raises(WeightError):
        w.scale(-1.0)


def test_is_nondecreasing():
    assert Weight.power(1.0, 1.0, 2.0).is_nondecreasing()
    assert Weight.constant(2.0, 1.0, 2.0).is_nondecreasing()
    assert not Weight.power(-1.0, 1.0, 2.0).is_nondecreasing()


def test_dip_between_grid_nodes_is_not_nondecreasing():
    # lambda = s on 8191 log-uniform samples over [1, 2], with a 1e-3 dip
    # at an odd sample, which no node of a 4096-node log-uniform grid hits
    s = np.exp(np.linspace(0.0, np.log(2.0), 8191))
    s[0], s[-1] = 1.0, 2.0
    lam = s.copy()
    lam[1001] -= 1e-3
    assert not Weight.tabulated(s, lam).is_nondecreasing()


def test_weight_from_config():
    w = weight_from_config({"kind": "constant", "value": 2.0}, 1.0, 2.0)
    assert w(1.5) == 2.0
    w = weight_from_config({"kind": "power", "value": 1.0,
                            "exponent": 2.0}, 1.0, 2.0)
    assert w(2.0) == pytest.approx(4.0)
    w = weight_from_config({"kind": "tabulated",
                            "samples": [[1.0, 1.0], [2.0, 3.0]]}, 1.0, 2.0)
    assert w(1.5) == pytest.approx(2.0)


def test_weight_from_config_rejects_unknown_keys():
    with pytest.raises(WeightError) as err:
        weight_from_config({"kind": "constant", "value": 1.0,
                            "exponnent": 2.0}, 1.0, 2.0)
    assert "exponnent" in str(err.value)


def test_weight_from_config_rejects_unknown_kind():
    with pytest.raises(WeightError):
        weight_from_config({"kind": "quadratic"}, 1.0, 2.0)


@given(value=st.floats(min_value=1e-6, max_value=1e6),
       s=st.floats(min_value=1.0, max_value=2.0))
@settings(max_examples=50, deadline=None)
def test_constant_weight_is_constant(value, s):
    w = Weight.constant(value, 1.0, 2.0)
    assert w(s) == value


@given(exponent=st.floats(min_value=-3.0, max_value=3.0),
       c=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_scaling_commutes_with_evaluation(exponent, c):
    w = Weight.power(exponent, 1.0, 2.0)
    s = np.linspace(1.0, 2.0, 17)
    np.testing.assert_allclose(w.scale(c)(s), c * w(s), rtol=1e-13)


def _oracle_grid(r, R, n=4096):
    s = np.exp(np.linspace(np.log(r), np.log(R), n))
    s[0], s[-1] = r, R
    return s


def tabulated_violates(s, lam, r, R):
    """The former positivity check of a tabulated weight, the oracle for
    its construction: the samples cut to [r, R] as `Weight.tabulated`
    cuts them, then their interpolant on a 4096-node log-uniform grid."""
    at_r, at_R = np.isclose(s[0], r), np.isclose(s[-1], R)
    if not (at_r and at_R):
        a, b = (s[0] if at_r else r), (s[-1] if at_R else R)
        cut = np.r_[a, s[(s > a) & (s < b)], b]
        s, lam = cut, np.interp(cut, s, lam)
    return bool(np.any(lam <= 0)
                or np.any(np.interp(_oracle_grid(r, R), s, lam) <= 0))


def sampled_nondecreasing(w):
    """The former monotonicity check, the oracle for `is_nondecreasing`:
    w on a 4096-node log-uniform grid against its running maximum."""
    vals = w(_oracle_grid(w.r, w.R))
    return bool(np.all(vals >= np.maximum.accumulate(vals) - MONOTONE_TOL))


def largest_drop(w):
    """How far w falls below its running maximum on the oracle's grid."""
    vals = w(_oracle_grid(w.r, w.R))
    return float(np.max(np.maximum.accumulate(vals) - vals))


def power_violates(exponent, r, R, value):
    """The former check of value * s**exponent on the 4096-node grid."""
    return bool(np.any(value * _oracle_grid(r, R) ** exponent <= 0))


def power_overflows(exponent, r, R, value):
    """Whether value * s**exponent is inf somewhere on the same grid."""
    return bool(np.any(value * _oracle_grid(r, R) ** exponent == np.inf))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_tabulated_construction_matches_grid_oracle(data):
    s = np.sort(data.draw(st.lists(st.floats(1.0, 10.0), min_size=2,
                                   max_size=8, unique=True)))
    lam = np.array(data.draw(st.lists(st.floats(-0.3, 3.0), min_size=len(s),
                                      max_size=len(s))))
    if data.draw(st.booleans()):
        r = R = None
        oracle = tabulated_violates(s, lam, s[0], s[-1])
    else:   # an interval inside the samples, whose cut may drop some
        span = s[-1] - s[0]
        r = s[0] + span * data.draw(st.floats(0.0, 0.45))
        R = s[0] + span * data.draw(st.floats(0.55, 1.0))
        oracle = tabulated_violates(s, lam, r, R)
    if oracle:
        with pytest.raises(WeightError, match="must be positive"):
            Weight.tabulated(s, lam, r=r, R=R)
    else:
        assert Weight.tabulated(s, lam, r=r, R=R).validate() is None


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_power_construction_matches_grid_oracle(data):
    r, R = sorted(data.draw(st.lists(st.floats(1.0, 50.0), min_size=2,
                                     max_size=2, unique=True)))
    # besides uniform draws, exponents where R**p nears the underflow to 0
    exponent = data.draw(st.one_of(
        st.floats(-400.0, 400.0),
        st.floats(700.0, 760.0).map(lambda c: max(-c / np.log(R), -400.0))))
    value = data.draw(st.one_of(st.floats(1e-3, 1e3), st.floats(-10.0, -1e-3)))
    with np.errstate(over="ignore"):    # s**400 can overflow to inf
        if power_violates(exponent, r, R, value):
            with pytest.raises(WeightError, match="must be positive"):
                Weight.power(exponent, r, R, value=value)
        elif power_overflows(exponent, r, R, value):
            with pytest.raises(WeightError, match="must be finite"):
                Weight.power(exponent, r, R, value=value)
        else:
            assert Weight.power(exponent, r, R, value=value).validate() is None


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_power_monotonicity_matches_grid_oracle(data):
    r, R = sorted(data.draw(st.lists(st.floats(0.5, 50.0), min_size=2,
                                     max_size=2, unique=True)))
    c = data.draw(st.floats(0.1, 10.0))
    if data.draw(st.booleans()):
        w = Weight.constant(c, r, R)
    else:
        w = Weight.power(data.draw(st.floats(-3.0, 3.0)), r, R, value=c)
    # where the drop is near the tolerance, rounding decides either check
    drop = largest_drop(w)
    assume(not MONOTONE_TOL / 10 <= drop <= 10 * MONOTONE_TOL)
    assert w.is_nondecreasing() == sampled_nondecreasing(w)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_tabulated_monotonicity_catches_every_sampled_drop(data):
    # sampling the interpolant can miss a drop at a knot, never add one
    s = np.sort(data.draw(st.lists(st.floats(1.0, 10.0), min_size=2,
                                   max_size=8, unique=True)))
    lam = np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=len(s),
                                      max_size=len(s))))
    w = Weight.tabulated(s, lam)
    if not sampled_nondecreasing(w):
        assert not w.is_nondecreasing()
