import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annular_dirichlet.weights import Weight, WeightError, weight_from_config


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
    bad = Weight.tabulated(s, np.array([1.0, -0.5, 2.0]))
    violation = bad.validate()
    assert violation is not None
    assert violation.value <= 0.0
    good = Weight.tabulated(s, np.array([1.0, 0.5, 2.0]))
    assert good.validate() is None


def test_scale():
    w = Weight.power(1.0, 1.0, 2.0).scale(3.0)
    np.testing.assert_allclose(w(1.5), 4.5, rtol=1e-15)
    with pytest.raises(WeightError):
        w.scale(-1.0)


def test_extrema():
    w = Weight.power(1.0, 1.0, 2.0)
    assert w.min_value() == pytest.approx(1.0, rel=1e-6)
    assert w.max_value() == pytest.approx(2.0, rel=1e-6)


def test_is_nondecreasing():
    assert Weight.power(1.0, 1.0, 2.0).is_nondecreasing()
    assert Weight.constant(2.0, 1.0, 2.0).is_nondecreasing()
    assert not Weight.power(-1.0, 1.0, 2.0).is_nondecreasing()


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
