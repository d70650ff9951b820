import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertia_lab.absmon import (
    boundary_extrapolation,
    builtin_fn,
    forward_difference_test,
    maclaurin_estimate,
)
from inertia_lab.errors import ConfigError
from inertia_lab.functions import Series


def _coeff(report, alpha):
    for row in report["coefficients"]:
        if row["alpha"] == list(alpha):
            return row["value"]
    raise AssertionError(f"no coefficient for {alpha}")


def test_exp_passes_all_low_order_difference_checks():
    r = forward_difference_test(builtin_fn("exp"), [[0.1, 0.9]], order=4)
    assert r["pass"]
    assert r["differences_checked"] == 4
    assert r["worst_violation"] is None


def test_sin_fails_with_a_located_violation():
    r = forward_difference_test(math.sin, [[0.1, 3.0]], order=2)
    assert not r["pass"]
    worst = r["worst_violation"]
    assert worst["value"] < 0.0
    # sin'' < 0 everywhere on (0, pi): first signal can come from the
    # first or second difference depending on where the lattice lands
    (x,) = worst["x"]
    assert 0.1 <= x <= 3.0
    assert "violated at difference" in r["label"]


def test_product_passes_on_the_unit_box():
    r = forward_difference_test(lambda x, y: x * y, [[0.05, 0.95], [0.05, 0.95]], order=3)
    assert r["pass"]


def test_negated_product_fails():
    r = forward_difference_test(lambda x, y: -x * y, [[0.05, 0.95], [0.05, 0.95]], order=2)
    assert not r["pass"]
    worst = r["worst_violation"]
    assert worst["value"] < 0.0
    assert sum(worst["alpha"]) >= 1


def test_high_order_violation_is_not_hidden_by_the_slack():
    # the 6th difference is -0.01 * 720 * h^6 = -2.7e-11 at the default step
    # h = 0.0125; one slack for every order, 1e-10 * max|f| = 4.7e-10, hid it
    def f(x):
        return 1 + x + x**2 + x**3 + x**4 + x**5 - 0.01 * x**6

    r = forward_difference_test(f, [[0.1, 0.9]], order=6)
    assert not r["pass"]
    assert r["worst_violation"]["alpha"] == [6]
    assert -3e-11 < r["worst_violation"]["value"] < -2e-11
    # without the negative term every difference is nonnegative up to rounding
    assert forward_difference_test(lambda x: f(x) + 0.01 * x**6, [[0.1, 0.9]], order=9)["pass"]


def test_include_zeroth_flags_negative_values():
    r = forward_difference_test(lambda x: x - 10.0, [[0.1, 0.9]], order=1, include_zeroth=True)
    assert not r["pass"]
    assert r["worst_violation"]["alpha"] == [0]
    # without the zeroth check the same function is fine
    assert forward_difference_test(lambda x: x - 10.0, [[0.1, 0.9]], order=1)["pass"]


@pytest.mark.parametrize("c", [2.0**-40, 2.0**40], ids=["2^-40", "2^40"])
@pytest.mark.parametrize(
    "f,box,zeroth,passes",
    [
        (lambda x: x - 10.0, [[0.1, 0.9]], True, False),
        (math.sin, [[0.1, 3.0]], False, False),
        (math.exp, [[0.1, 0.9]], False, True),
    ],
)
def test_verdict_does_not_depend_on_the_scale_of_f(f, box, zeroth, passes, c):
    # a power of two scales every value and difference exactly
    for g in (f, lambda x: c * f(x)):
        r = forward_difference_test(g, box, order=2, include_zeroth=zeroth)
        assert r["pass"] is passes


def test_forward_difference_rejects_bad_boxes():
    with pytest.raises(ConfigError):
        forward_difference_test(math.exp, [[0.9, 0.1]], order=2)
    with pytest.raises(ConfigError):
        forward_difference_test(math.exp, [[0.1, 0.9]], order=0)


def test_maclaurin_recovers_affine_coefficients():
    r = maclaurin_estimate(lambda x: 1.0 + 2.0 * x, 1, 2)
    assert abs(_coeff(r, (0,)) - 1.0) < 1e-12
    assert abs(_coeff(r, (1,)) - 2.0) < 1e-10
    assert abs(_coeff(r, (2,))) < 1e-8


def test_maclaurin_recovers_square_exactly():
    r = maclaurin_estimate(lambda x: x * x, 1, 3)
    assert abs(_coeff(r, (2,)) - 1.0) < 1e-10
    for alpha in ((0,), (1,), (3,)):
        assert abs(_coeff(r, alpha)) < 1e-10


def test_maclaurin_recovers_mixed_product():
    r = maclaurin_estimate(lambda x, y: x * y, 2, 2)
    assert abs(_coeff(r, (1, 1)) - 1.0) < 1e-10
    for alpha in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2)):
        assert abs(_coeff(r, alpha)) < 1e-10


def test_maclaurin_exp_leading_terms():
    r = maclaurin_estimate(math.exp, 1, 3, step=0.01)
    assert abs(_coeff(r, (0,)) - 1.0) < 1e-6
    assert abs(_coeff(r, (1,)) - 1.0) < 1e-4
    assert abs(_coeff(r, (2,)) - 0.5) < 1e-3


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=1,
        max_size=3,
    )
)
def test_maclaurin_is_exact_on_polynomials(coeffs):
    def poly(x):
        return sum(c * x**j for j, c in enumerate(coeffs))

    r = maclaurin_estimate(poly, 1, len(coeffs) - 1, step=0.05)
    for j, c in enumerate(coeffs):
        assert abs(_coeff(r, (j,)) - c) < 1e-6 * max(1.0, abs(c))


#: the largest order the lattice cap of 200000 points allows at each arity
#: below the divisor limit 170 (at arity 2 the old expansion cap stopped at 55)
TOP_ORDER = {1: 170, 2: 170, 3: 57}


def _series_of(arity, degree, draw_coeff):
    alphas = [a for a in itertools.product(range(degree + 1), repeat=arity) if sum(a) <= degree]
    want = {a: draw_coeff() for a in alphas}
    return Series(arity, want), want


def _assert_recovers(report, want, arity, order):
    got = {tuple(row["alpha"]): row["value"] for row in report["coefficients"]}
    assert set(got) == {a for a in itertools.product(range(order + 1), repeat=arity) if sum(a) <= order}
    for alpha, value in got.items():
        c = want.get(alpha, 0.0)
        assert abs(value - c) < 1e-6 * max(1.0, abs(c)), (alpha, value, c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_maclaurin_recovers_polynomials_up_to_the_caps(data):
    # dyadic coefficients on a dyadic lattice make every value and every
    # difference exact, so the differences above the degree vanish at any
    # order and the test sees the Newton matrix alone
    arity = data.draw(st.integers(1, 3), label="arity")
    order = data.draw(st.integers(1, TOP_ORDER[arity]), label="order")
    degree = data.draw(st.integers(0, min(order, 3)), label="degree")
    step = data.draw(st.sampled_from([0.25, 0.5]), label="step")
    f, want = _series_of(arity, degree, lambda: data.draw(st.integers(-16, 16)) / 8.0)
    _assert_recovers(maclaurin_estimate(f, arity, order, step=step), want, arity, order)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_maclaurin_recovers_rounded_polynomials_at_low_order(data):
    # here every difference carries rounding, which Delta^b amplifies by up to
    # 2^b and Newton's formula by the step's powers; at order <= 3 it stays small
    arity = data.draw(st.integers(1, 3), label="arity")
    order = data.draw(st.integers(1, 3), label="order")
    coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    f, want = _series_of(arity, order, lambda: data.draw(coeff))
    _assert_recovers(maclaurin_estimate(f, arity, order, step=0.05), want, arity, order)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: maclaurin_estimate(f, 1, 2, step=400.0),
        lambda f: boundary_extrapolation(f, step=1e308, levels=3),
        lambda f: forward_difference_test(f, [[0.0, 800.0]], order=2),
    ],
    ids=["maclaurin", "limit", "check"],
)
@pytest.mark.parametrize(
    "f",
    [np.exp, lambda x: np.exp(x), Series(1, {(800,): 1.0})],
    ids=["ufunc", "callable", "spec"],
)
def test_overflow_in_f_is_a_config_error_not_a_warning(call, f):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="function returned non-finite values"):
            call(f)


def test_boundary_extrapolation_of_continuous_function():
    r = boundary_extrapolation(lambda x: 3.0 + x)
    assert abs(r["limit"] - 3.0) < 1e-9
    assert r["points"][0] == 0.01
    assert len(r["values"]) == r["levels"] == 6


def test_boundary_extrapolation_tracks_halved_steps():
    r = boundary_extrapolation(lambda x: x, step=0.08, levels=4)
    assert r["points"] == [0.08, 0.04, 0.02, 0.01]
    assert abs(r["limit"]) < 1e-12


def test_builtin_fn_names():
    assert builtin_fn("exp")(0.0) == 1.0
    assert builtin_fn("sqrt")(4.0) == 2.0
    with pytest.raises(ConfigError):
        builtin_fn("nope")


def test_lattice_density_grows_with_order():
    lo = forward_difference_test(math.exp, [[0.1, 0.9]], order=2)
    hi = forward_difference_test(math.exp, [[0.1, 0.9]], order=5)
    assert hi["lattice_points"] >= lo["lattice_points"]
    assert hi["differences_checked"] == 5


def test_a_builtin_is_refused_at_another_arity():
    # a ufunc reads arguments past its nin as output arrays: np.exp(x, y) is exp(x)
    with pytest.raises(ConfigError, match="arity 1 does not match box arity 2"):
        maclaurin_estimate(np.exp, 2, 2)
    with pytest.raises(ConfigError, match="arity 1 does not match box arity 2"):
        forward_difference_test(np.sin, [(0.0, 1.0), (0.0, 1.0)], order=2)
    assert abs(_coeff(maclaurin_estimate(np.exp, 1, 2, step=0.05), (2,)) - 0.5) < 0.05


@pytest.mark.parametrize(
    "call",
    [
        lambda f: maclaurin_estimate(f, 1, 2, step=400.0),
        lambda f: boundary_extrapolation(f, step=1e308, levels=3),
        lambda f: forward_difference_test(f, [[0.0, 800.0]], order=2),
    ],
    ids=["maclaurin", "limit", "check"],
)
def test_a_scalar_callable_that_raises_is_a_config_error(call):
    # math.exp takes no arrays, so it runs point by point and raises on overflow
    with pytest.raises(ConfigError, match="function raised OverflowError on the lattice"):
        call(math.exp)


def test_maclaurin_arity_is_capped_at_the_axes_of_a_numpy_array():
    # the lattice has an axis per variable: numpy 1.x arrays hold 32 axes, numpy 2.x 64
    report = maclaurin_estimate(Series(32, {(0,) * 32: 2.5}), 32, 0)
    assert report["coefficients"] == [{"alpha": [0] * 32, "value": 2.5, "error": 0.0}]
    for arity in (33, 70):
        with pytest.raises(ConfigError, match=f"arity {arity} out of range 1..32"):
            maclaurin_estimate(Series(arity, {(0,) * arity: 2.5}), arity, 0)
