import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertia_lab.errors import ConfigError, RegimeNotCovered
from inertia_lab.functions import (
    AdmissibleK,
    Affine,
    Constant,
    Homothety,
    Series,
    SplitForm,
    apply_entrywise,
    classify,
    fn_from_json_dict,
)
from inertia_lab.linalg import DomainSpec, Inertia, SymMatrix, inertia, sym

TWO_SIDED = DomainSpec()


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------

def test_series_merges_and_drops_terms():
    f = Series(1, [((1,), 1.0), ((1,), 2.0), ((2,), 0.0)])
    assert f.term_map() == {(1,): 3.0}
    assert f.degree == 1


def test_series_degree_must_cover_support():
    with pytest.raises(ConfigError):
        Series(1, {(3,): 1.0}, degree=2)


def test_homothety_requires_positive_slope():
    with pytest.raises(ConfigError):
        Homothety(0.0)
    with pytest.raises(ConfigError):
        Homothety(-1.0)


def test_split_form_slot_must_follow_base():
    base = Series(1, {(1,): 1.0})
    with pytest.raises(ConfigError):
        SplitForm(2, base, 1.0, 1)
    f = SplitForm(2, base, 1.0, 2)
    assert f.term_map() == {(1, 0): 1.0, (0, 1): 1.0}


def test_fn_json_round_trips():
    examples = [
        Constant(-5.0),
        Constant(2.0, arity=3),
        Homothety(3.0),
        Homothety(1.5, slot=2, arity=2),
        Affine(-1.0, 1.0),
        Series(2, {(1, 0): 1.0, (0, 2): -0.5}),
        SplitForm(3, Series(2, {(1, 1): 0.25}), 2.0, 3),
        Series(1, {(1,): 2.0}, degree=4),
        SplitForm(3, Series(2, {(1, 0): 0.5}), 1.0, 3),
        Constant(0.0),
    ]
    for f in examples:
        assert fn_from_json_dict(f.to_json_dict()) == f
        assert fn_from_json_dict(f.to_json_dict()).to_json_dict() == f.to_json_dict()


def test_to_json_dict_returns_a_fresh_dict():
    f = SplitForm(2, Series(1, {(1,): 1.0}), 0.5, 2)
    before = f.to_json_dict()
    blob = f.to_json_dict()
    blob["c"] = 9.0
    blob["base"]["terms"].clear()
    assert f.to_json_dict() == before
    assert f == fn_from_json_dict(before)


def test_fn_from_json_rejects_unknown_type():
    with pytest.raises(ConfigError):
        fn_from_json_dict({"type": "cubic-spline"})


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_apply_affine_shifts_and_scales():
    f = Affine(1.0, 1.0)
    a = sym(-0.5 * np.eye(2))
    out = apply_entrywise(f, (a,), TWO_SIDED)
    assert np.allclose(out.entries, [[0.5, 1.0], [1.0, 0.5]])
    # ones direction picks up 2*1 - 0.5, the complement stays at -0.5
    assert inertia(out) == Inertia(1, 0, 1)


def _reference(f, xs):
    """sum_alpha c_alpha * prod_p x_p**alpha_p by a plain Python loop."""
    return sum(c * math.prod(x**e for x, e in zip(xs, alpha)) for alpha, c in f.terms)


def test_apply_entrywise_matches_pointwise_evaluation():
    rng = np.random.default_rng(5)
    f = Series(2, {(1, 0): 0.5, (1, 1): 2.0, (0, 2): -1.0, (0, 0): 0.25, (3, 1): 0.75})
    for _ in range(20):
        n = int(rng.integers(1, 6))
        g1, g2 = rng.standard_normal((2, n, n))
        a = SymMatrix((g1 + g1.T) / 2)
        b = SymMatrix((g2 + g2.T) / 2)
        out = apply_entrywise(f, (a, b), TWO_SIDED)
        for i in range(n):
            for j in range(n):
                want = _reference(f, (float(a.entries[i, j]), float(b.entries[i, j])))
                assert abs(out.entries[i, j] - want) < 1e-12


def test_evaluator_on_stacks_and_points():
    rng = np.random.default_rng(11)
    f = Series(2, {(0, 0): -0.5, (2, 0): 1.5, (1, 2): -2.0, (0, 3): 0.25})
    x, y = rng.standard_normal((2, 4, 3, 3))
    stack = f(x, y)
    assert stack.shape == (4, 3, 3)
    for b in range(4):
        assert np.array_equal(stack[b], f(x[b], y[b]))
    point = f(0.5, -2.0)
    assert np.shape(point) == ()
    assert abs(float(point) - _reference(f, (0.5, -2.0))) < 1e-12
    assert float(Constant(3.0, arity=2)(0.5, 0.25)) == 3.0
    with pytest.raises(ConfigError):
        f(x, y[0])
    with pytest.raises(ConfigError):
        f(x)



def test_a_high_power_keeps_only_the_powers_its_terms_use():
    # a table of every power up to 20000 of an 8 x 8 array would hold 10 MB
    f = Series(1, {(20_000,): 2.0, (3,): -1.0})
    x = np.linspace(0.9999, 1.0001, 64).reshape(8, 8)
    tracemalloc.start()
    try:
        out = f(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # the same repeated multiplications give the same bytes
    powers = [np.ones(x.shape)]
    for _ in range(20_000):
        powers.append(powers[-1] * x)
    assert out.tobytes() == (2.0 * powers[20_000] + -1.0 * powers[3]).tobytes()


def test_apply_arity_mismatch():
    with pytest.raises(ConfigError):
        apply_entrywise(Homothety(1.0), (sym([[1.0]]), sym([[1.0]])), TWO_SIDED)


def test_apply_size_mismatch():
    f = Series(2, {(1, 1): 1.0})
    with pytest.raises(ConfigError):
        apply_entrywise(f, (sym([[1.0]]), sym(np.eye(2))), TWO_SIDED)


def test_apply_permutation_equivariance():
    rng = np.random.default_rng(17)
    f = Series(1, {(1,): 1.0, (2,): 0.25, (0,): 0.5})
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n))
        a = SymMatrix(g + g.T)
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        pap = SymMatrix(p @ a.entries @ p.T)
        lhs = apply_entrywise(f, (pap,), TWO_SIDED).entries
        rhs = p @ apply_entrywise(f, (a,), TWO_SIDED).entries @ p.T
        assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# admissible tuples
# ---------------------------------------------------------------------------

def test_admissible_k_zeros_first():
    ks = AdmissibleK([0, 0, 2, 1])
    assert ks.m == 4 and ks.m0 == 2
    assert ks.min_positive == 1
    with pytest.raises(ConfigError):
        AdmissibleK([1, 0])


def test_admissible_k_all_zero_floor():
    ks = AdmissibleK([0, 0])
    assert ks.all_zero
    assert ks.min_positive is None


def test_admissible_k_from_json_scalar_and_list():
    assert AdmissibleK.from_json(2) == AdmissibleK([2])
    assert AdmissibleK.from_json([0, 3]) == AdmissibleK([0, 3])
    with pytest.raises(ConfigError):
        AdmissibleK.from_json([-1])


# ---------------------------------------------------------------------------
# classifier verdicts
# ---------------------------------------------------------------------------

def test_classify_homothety_conforms_exact():
    v = classify(Homothety(3.0), AdmissibleK([2]), 2, TWO_SIDED, mode="exact")
    assert v.conforms and v.clause == "homothety"


def test_classify_negative_constant_conforms_exact_k1():
    v = classify(Constant(-5.0), AdmissibleK([1]), 1, TWO_SIDED, mode="exact")
    assert v.conforms and v.clause == "negative-constant"


def test_classify_negative_constant_rejected_for_k2():
    v = classify(Constant(-5.0), AdmissibleK([2]), 2, TWO_SIDED, mode="exact")
    assert not v.conforms and v.clause == "constant-map"


def test_classify_offset_rejected_exact():
    v = classify(Affine(-1.0, 1.0), AdmissibleK([2]), 2, TWO_SIDED, mode="exact")
    assert not v.conforms and v.clause == "nonzero-offset"


def test_classify_negative_offset_rejected_bounded():
    v = classify(Affine(-1.0, 1.0), AdmissibleK([2]), 2, TWO_SIDED, mode="bounded")
    assert not v.conforms and v.clause == "negative-offset"


def test_classify_nonneg_offset_conforms_bounded():
    v = classify(Affine(0.5, 2.0), AdmissibleK([2]), 2, TWO_SIDED, mode="bounded")
    assert v.conforms and v.clause == "affine"


def test_classify_square_rejected():
    v = classify(Series(1, {(2,): 1.0}), AdmissibleK([1]), 1, TWO_SIDED, mode="exact")
    assert not v.conforms and v.clause == "nonlinear-term"


def test_classify_split_form_conforms_bounded():
    base = Series(1, {(0,): 0.25, (1,): 1.0, (2,): 0.5})
    f = SplitForm(2, base, 1.5, 2)
    v = classify(f, AdmissibleK([0, 2]), 2, TWO_SIDED, mode="bounded")
    assert v.conforms and v.clause == "split-form"


def test_classify_negative_base_coefficient_rejected():
    base = Series(1, {(1,): 1.0, (3,): -0.2})
    f = SplitForm(2, base, 1.0, 2)
    v = classify(f, AdmissibleK([0, 2]), 2, TWO_SIDED, mode="bounded")
    assert not v.conforms and v.clause == "nonmonotone-base"


def test_classify_budget_slack_rejected():
    v = classify(Homothety(1.0), AdmissibleK([3]), 2, TWO_SIDED, mode="bounded")
    assert not v.conforms and v.clause == "l-less-than-k"


def test_classify_psd_target_rejects_constrained_dependence():
    f = Series(2, {(0, 1): 1.0})
    v = classify(f, AdmissibleK([0, 1]), 0, TWO_SIDED, mode="bounded")
    assert not v.conforms and v.clause == "constrained-dependence"


def test_classify_psd_target_accepts_nonneg_series():
    f = Series(2, {(1, 0): 1.0, (2, 0): 0.5, (0, 0): 0.25})
    v = classify(f, AdmissibleK([0, 1]), 0, TWO_SIDED, mode="bounded")
    assert v.conforms and v.clause == "series-nonnegative"


def test_classify_uncovered_regime_raises():
    with pytest.raises(RegimeNotCovered):
        classify(Homothety(1.0), AdmissibleK([3]), 5, TWO_SIDED, mode="bounded")
    # l inside the window is fine
    classify(Homothety(1.0), AdmissibleK([3]), 4, TWO_SIDED, mode="bounded")


def test_classify_exact_requires_uniform_tuple():
    with pytest.raises(ConfigError):
        classify(Homothety(1.0, arity=2), AdmissibleK([1, 2]), 1, TWO_SIDED, mode="exact")


def test_classify_multiple_slopes_rejected():
    f = Series(2, {(1, 0): 1.0, (0, 1): 1.0})
    v = classify(f, AdmissibleK([1, 1]), 1, TWO_SIDED, mode="bounded")
    assert not v.conforms and v.clause == "multiple-linear-variables"


@pytest.mark.parametrize(
    "fn, k, l, mode, conforms, clause",
    [
        (Series(2, {(1, 1): 1.0}), [1, 1], 1, "bounded", False, "mixed-term"),
        (Series(1, {(1,): -1.0}), [1], 1, "exact", False, "negative-linear-coefficient"),
        (Series(1, {(1,): -1.0}), [1], 1, "bounded", False, "negative-linear-coefficient"),
        # several slopes, one of them negative: the negative slope is reported
        # before the count of slopes, in every mode
        (Series(2, {(1, 0): -1.0, (0, 1): -1.0}), [1, 1], 1, "exact", False, "negative-linear-coefficient"),
        (Series(2, {(1, 0): -1.0, (0, 1): 1.0}), [1, 1], 1, "exact", False, "negative-linear-coefficient"),
        (Series(2, {(1, 0): 1.0, (0, 1): -1.0}), [1, 1], 1, "bounded", False, "negative-linear-coefficient"),
        (Homothety(2.0), [1], 1, "inertia", True, "homothety"),
        (Constant(1.0), [1], 1, "inertia", False, "constant-map"),
        (Affine(0.5, 1.0), [1], 1, "inertia", False, "nonzero-offset"),
        (Constant(-1.0), [0], 0, "bounded", False, "negative-coefficient"),
        (Series(1, {(1,): 1.0, (2,): -0.5}), [0], 0, "bounded", False, "negative-coefficient"),
        (Series(1, {(1,): 1.0, (2,): -0.5}), [0], 1, "bounded", False, "negative-coefficient"),
        (Constant(1.0), [0], 1, "bounded", True, "constant"),
        (Constant(-1.0), [0], 1, "bounded", True, "negative-constant"),
        (Constant(1.0), [1], 1, "bounded", True, "constant"),
        (Constant(-1.0), [1], 1, "bounded", True, "negative-constant"),
        (Series(2, {(1, 0): 1.0}), [0, 1], 1, "bounded", True, "base-only"),
        (Homothety(1.0), [1], 1, "bounded", True, "homothety"),
        (Series(1, {(0,): 1.0, (2,): 0.5}), [0], 1, "bounded", True, "series-nonnegative"),
    ],
)
def test_classify_clause_table(fn, k, l, mode, conforms, clause):
    v = classify(fn, AdmissibleK(k), l, TWO_SIDED, mode=mode)
    assert (v.conforms, v.mode, v.clause) == (conforms, mode, clause)


def test_verdict_json_shape():
    v = classify(Homothety(2.0), AdmissibleK([1]), 1, TWO_SIDED, mode="exact")
    d = v.to_json_dict()
    assert set(d) == {"conforms", "mode", "clause", "detail"}


# ---------------------------------------------------------------------------
# homotheties keep the inertia
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=5.0),
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-6, max_value=3.0),
        st.floats(min_value=-3.0, max_value=-1e-6),
    ),
    st.integers(min_value=1, max_value=5),
)
def test_homothety_preserves_inertia_pointwise(c, x, n):
    # |x| is kept clear of the zero-classification tolerance: an eigenvalue
    # sitting exactly on the threshold may legitimately cross it when scaled
    a = sym(x * np.eye(n))
    out = apply_entrywise(Homothety(c), (a,), TWO_SIDED)
    assert inertia(out) == inertia(a)
