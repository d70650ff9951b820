import math

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
