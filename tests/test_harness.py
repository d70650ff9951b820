import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertia_lab import harness
from inertia_lab._json import dumps
from inertia_lab.errors import ConfigError, SamplingError
from inertia_lab.functions import (
    AdmissibleK,
    Affine,
    Constant,
    Homothety,
    Series,
    SplitForm,
    apply_entrywise,
)
from inertia_lab.harness import (
    TrialConfig,
    falsify,
    lemma_suite,
    sample_member_tuple,
    sample_with_inertia,
    verify_forward,
)
from inertia_lab.linalg import DomainSpec, TolerancePolicy, inertia, is_member

TOL = TolerancePolicy()


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


@pytest.mark.parametrize("kind", ["two_sided", "open_positive", "closed_left"])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_sampler_hits_requested_inertia(kind, k):
    dom = DomainSpec(kind, 1.0)
    rng = _rng(17 * k + len(kind))
    n = k + 2
    for _ in range(10):
        m = sample_with_inertia(n, k, dom, rng)
        assert m.n == n
        assert inertia(m).n_neg == k
        assert is_member(m, k, dom, TOL, closure=False)


def test_sampler_unbounded_domain():
    m = sample_with_inertia(4, 2, DomainSpec("two_sided", float("inf")), _rng(5))
    assert inertia(m).n_neg == 2


def test_one_sided_square_case_is_impossible():
    # entries >= 0 force a nonnegative trace, so all-negative spectra are out
    with pytest.raises(SamplingError):
        sample_with_inertia(3, 3, DomainSpec("open_positive", 1.0), _rng(0))


def test_two_sided_allows_negative_definite():
    m = sample_with_inertia(3, 3, DomainSpec("two_sided", 1.0), _rng(1))
    assert inertia(m) == inertia(m).__class__(3, 0, 0)


def test_tuple_sampler_respects_each_slot():
    ks = AdmissibleK((0, 1, 2))
    dom = DomainSpec("two_sided", 1.0)
    mats = sample_member_tuple(ks, 4, dom, _rng(2))
    assert [inertia(m).n_neg for m in mats] == [0, 1, 2]


def test_tuple_sampler_closure_stays_at_or_below():
    ks = AdmissibleK((0, 3))
    dom = DomainSpec("closed_left", 2.0)
    rng = _rng(3)
    seen = set()
    for _ in range(20):
        mats = sample_member_tuple(ks, 5, dom, rng, closure=True)
        assert inertia(mats[0]).n_neg == 0
        j = inertia(mats[1]).n_neg
        assert 0 <= j <= 3
        seen.add(j)
    assert len(seen) > 1  # closure sampling actually varies the count


def test_trial_config_floor_and_defaults():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((2,)), 2)
    assert cfg.n_range == (3, 8)
    # one-sided with k >= 1 needs one extra dimension
    cfg2 = TrialConfig(DomainSpec("open_positive", 1.0), AdmissibleK((2,)), 2)
    assert cfg2.n_range == (4, 9)
    with pytest.raises(ConfigError):
        TrialConfig(DomainSpec("open_positive", 1.0), AdmissibleK((2,)), 2, n_range=(2, 5))


def test_trial_config_json_round_trip():
    cfg = TrialConfig(
        DomainSpec("closed_left", 3.0),
        AdmissibleK((0, 2)),
        2,
        n_range=(4, 7),
        trials=50,
        seed=11,
    )
    blob = cfg.to_json_dict()
    back = TrialConfig.from_json_dict(blob)
    assert back == cfg


def test_trial_config_rejects_unknown_keys():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1)
    blob = cfg.to_json_dict()
    blob["extra"] = 1
    with pytest.raises(ConfigError):
        TrialConfig.from_json_dict(blob)


def test_trial_config_validates_ranges():
    dom = DomainSpec("two_sided", 1.0)
    with pytest.raises(ConfigError):
        TrialConfig(dom, AdmissibleK((1,)), -1)
    with pytest.raises(ConfigError):
        TrialConfig(dom, AdmissibleK((1,)), 1, trials=0)
    with pytest.raises(ConfigError):
        TrialConfig(dom, AdmissibleK((1,)), 1, seed=-1)
    # JSON true is a bool, not a count
    for bad in ({"trials": True}, {"seed": False}, {"n_range": (True, 3)}, {"n_range": (2, True)}):
        with pytest.raises(ConfigError):
            TrialConfig(dom, AdmissibleK((1,)), 1, **bad)


def test_verify_homothety_has_no_failures():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((2,)), 2, trials=40, seed=7)
    rep = verify_forward("exact", Homothety(2.0), cfg)
    assert rep.trials == 40
    assert rep.failures == 0
    assert list(rep.witnesses) == []
    assert rep.label.startswith("pass:")


def test_verify_inertia_claim_single_variable_only():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1, 1)), 1, trials=5)
    with pytest.raises(ConfigError):
        verify_forward("inertia", Series(2, {(1, 0): 1.0}), cfg)


def test_verify_is_vacuous_for_a_violating_function():
    # x^2 cannot satisfy an exact claim, so nothing should be sampled
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=30, seed=0)
    rep = verify_forward("exact", Series(1, {(2,): 1.0}), cfg)
    assert rep.trials == 0
    assert "vacuous" in rep.label
    assert "nonlinear-term" in rep.label


def test_verify_lift_claim_on_identity():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=20, seed=3)
    rep = verify_forward("lift", Homothety(1.0), cfg)
    assert rep.failures == 0


def test_falsify_finds_offset_witness_and_it_revalidates():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=50, seed=1)
    rep = falsify("exact", Affine(1.0, 1.0), cfg)
    assert rep.failures >= 1
    w = rep.witnesses[0]
    assert w.clause == "nonzero-offset"
    assert w.revalidate("exact", cfg)
    got = inertia(apply_entrywise(Affine(1.0, 1.0), list(w.mats), cfg.dom))
    assert got.n_neg != 1


# one (claim, fn, k, l) per recipe clause: the shapes of the falsify benchmark
RECIPE_CASES = {
    "nonlinear-term": ("exact", Series(1, {(2,): 1.0}), [1], 1),
    "mixed-term": ("bounded", Series(2, {(1, 1): 1.0}), [1, 1], 1),
    "negative-linear-coefficient": ("exact", Series(1, {(1,): -1.0}), [1], 1),
    "multiple-linear-variables": ("bounded", Series(2, {(1, 0): 1.0, (0, 1): 1.0}), [1, 1], 1),
    "constrained-dependence": ("bounded", Series(2, {(0, 1): 1.0}), [0, 1], 0),
    "negative-coefficient": ("bounded", Series(1, {(1,): 1.0, (2,): -0.5}), [0], 0),
    "nonmonotone-base": ("bounded", SplitForm(2, Series(1, {(1,): 1.0, (3,): -0.2}), 1.0, 2), [0, 2], 2),
    "negative-offset": ("bounded", Affine(-0.5, 1.0), [2], 2),
    "nonzero-offset": ("exact", Affine(0.5, 1.0), [1], 1),
    "constant-map": ("exact", Constant(1.0), [2], 2),
    "l-less-than-k": ("bounded", Homothety(1.0), [3], 2),
}


KINDS = ["two_sided", "open_positive", "closed_left"]

# the cases at rho = 1 keep their plain kind as id
RECIPE_DOMAINS = [
    pytest.param(kind, rho, id=kind if rho == 1.0 else f"{kind}-rho={rho:g}")
    for rho in (1.0, 1e12)
    for kind in KINDS
]


@pytest.mark.parametrize("kind,rho", RECIPE_DOMAINS)
@pytest.mark.parametrize("clause", list(RECIPE_CASES))
def test_every_recipe_finds_a_witness_that_revalidates(clause, kind, rho):
    claim, fn, k, l = RECIPE_CASES[clause]
    cfg = TrialConfig(DomainSpec(kind, rho), AdmissibleK(k), l, trials=6, seed=5)
    rep = falsify(claim, fn, cfg, strategy="recipe")
    assert rep.label == f"witness found via recipe for clause '{clause}'"
    assert [w.clause for w in rep.witnesses] == [clause]
    assert rep.witnesses[0].revalidate(claim, cfg)


def test_falsify_exact_claim_with_only_negative_slopes():
    # two slopes, both negative: reported as a negative slope, whose recipe applies
    fn = Series(2, {(1, 0): -1.0, (0, 1): -1.0})
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1, 1)), 1, trials=5, seed=0)
    rep = falsify("exact", fn, cfg, strategy="recipe")
    assert rep.label == "witness found via recipe for clause 'negative-linear-coefficient'"
    assert rep.witnesses[0].revalidate("exact", cfg)


def test_falsify_conforming_function_is_vacuous():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((2,)), 2, trials=10, seed=0)
    rep = falsify("exact", Homothety(3.0), cfg)
    assert rep.failures == 0
    assert rep.trials == 0
    assert "conforms" in rep.label


def test_falsify_sum_of_variables_needs_two_negative_directions():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1, 1)), 1, trials=60, seed=4)
    rep = falsify("bounded", Series(2, {(1, 0): 1.0, (0, 1): 1.0}), cfg)
    assert rep.failures >= 1
    w = rep.witnesses[0]
    img = apply_entrywise(Series(2, {(1, 0): 1.0, (0, 1): 1.0}), list(w.mats), cfg.dom)
    assert inertia(img).n_neg >= 2


def test_falsify_random_strategy_skips_recipes():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((2,)), 2, trials=50, seed=9)
    rep = falsify("exact", Constant(-5.0), cfg, strategy="random")
    # a constant map always lands at exactly one negative eigenvalue, never two
    assert rep.failures >= 1
    assert inertia(apply_entrywise(Constant(-5.0), list(rep.witnesses[0].mats), cfg.dom)).n_neg == 1


def test_random_search_on_a_lift_claim_checks_the_lift(monkeypatch):
    calls = []
    real = harness.lift_finite

    def spy(m, size):
        calls.append((m.n, size))
        return real(m, size)

    monkeypatch.setattr(harness, "lift_finite", spy)
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=5, seed=2)
    rep = falsify("lift", Series(1, {(2,): 1.0}), cfg, strategy="random")
    assert rep.failures == 0
    # one slot, lifted to n + 3 and n + 7 in every trial
    assert len(calls) == 2 * cfg.trials
    assert all(size - n in (3, 7) for n, size in calls)


def test_falsify_rejects_unknown_strategy():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1)
    with pytest.raises(ConfigError):
        falsify("exact", Homothety(1.0), cfg, strategy="clever")


def test_witness_json_shape():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=20, seed=2)
    rep = falsify("exact", Affine(0.5, 1.0), cfg)
    blob = rep.to_json_dict()
    assert blob["theorem"] == "exact"
    assert "runtime_ms" not in blob
    assert blob["config"]["fn"]["type"] == "affine"
    w = blob["witnesses"][0]
    assert set(w) == {"matrices", "fn", "observed", "clause"}


def test_json_floats_are_shortest_round_trip_and_finite():
    assert dumps({"x": 0.1}) == '{"x":0.1}'
    assert dumps({"a": [1, 2.0]}, indent=2) == '{\n  "a": [\n    1,\n    2.0\n  ]\n}'
    with pytest.raises(ValueError):
        dumps([math.inf])


def test_falsify_reports_are_deterministic():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=40, seed=13)
    fn = Affine(0.25, 2.0)
    a = dumps(falsify("exact", fn, cfg).to_json_dict())
    b = dumps(falsify("exact", fn, cfg).to_json_dict())
    assert a == b


def test_lemma_suite_all_green():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=25, seed=5)
    rep = lemma_suite(cfg)
    assert rep.claim == "lemma-suite"
    assert rep.mode == "suite"
    assert rep.failures == 0, rep.label
    assert rep.trials == 5 * 25
    assert rep.label.count("25/25 ok") == 5


def test_csv_row_has_runtime_column():
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=10, seed=0)
    rep = verify_forward("exact", Homothety(1.0), cfg)
    row = rep.csv_row()
    assert set(row) == {"theorem", "mode", "trials", "failures", "witnesses", "label", "runtime_ms"}
    assert float(row["runtime_ms"]) >= 0.0


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sampler_property_two_sided(k, seed):
    dom = DomainSpec("two_sided", 2.0)
    m = sample_with_inertia(k + 2, k, dom, _rng(seed))
    tri = inertia(m)
    assert tri.n_neg == k
    assert float(np.abs(m.entries).max()) < 2.0


# ---------------------------------------------------------------------------
# the sampler builds members: nothing counts them at run time, so test here
# ---------------------------------------------------------------------------

def _eigvalsh_negatives(m) -> int:
    lam = np.linalg.eigvalsh(m.entries)
    return int(np.sum(lam < -1e-9 * float(np.linalg.norm(m.entries))))


@pytest.mark.parametrize("rho", [1e-150, 1e-12, 1.0, 1e12, 1e150, math.inf])
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sampler_output_is_a_member_at_every_scale(kind, rho, seed):
    dom = DomainSpec(kind, rho)
    rng = _rng(seed)
    for n in range(1, 9):
        for k in range(n + 1 - dom.one_sided):
            m = sample_with_inertia(n, k, dom, rng)
            assert m.n == n
            dom.check_matrix(m)
            assert _eigvalsh_negatives(m) == k, (n, k)


@pytest.mark.parametrize("rho", [1e-150, 1e-12, 1e12, 1e150])
def test_verify_and_falsify_at_extreme_scales(rho):
    cfg = TrialConfig(DomainSpec("two_sided", rho), AdmissibleK((2,)), 2, trials=30, seed=7)
    rep = verify_forward("exact", Homothety(2.0), cfg)
    assert rep.label == "pass: 30 trials, 0 failures"
    fn = Series(1, {(2,): 1.0})
    rep = falsify("exact", fn, cfg)
    assert rep.label == "witness found via recipe for clause 'nonlinear-term'"
    assert rep.witnesses[0].revalidate("exact", cfg)
