import contextlib
import hashlib
import io
import json
import math
from functools import partial
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertia_lab import cli, harness, linalg
from inertia_lab._json import dumps
from inertia_lab.constructions import (
    block_pair,
    embed_with_negatives,
    inflate,
    lift_finite,
    ones_pencil,
    pencil_base,
)
from inertia_lab.errors import ConfigError, DomainViolation, InertiaLabError, SamplingError
from inertia_lab.functions import (
    AdmissibleK,
    Affine,
    Constant,
    Homothety,
    Series,
    SplitForm,
    _parts,
    apply_entrywise,
    classify,
)
from inertia_lab.harness import (
    TrialConfig,
    falsify,
    lemma_suite,
    sample_with_inertia,
    verify_forward,
)
from inertia_lab.linalg import DomainSpec, Inertia, SymMatrix, inertia, is_member, sturm_count


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


def _member_tuple(ks, n, dom, rng, closure=False):
    """One SymMatrix per slot, each with the bytes ``sample_with_inertia``
    builds from the slot's draws: exactly k_p negatives (or j <= k_p under
    closure)."""
    return tuple(SymMatrix(harness._settle([d])[0]) for d in harness._sample_slots(ks, n, dom, rng, closure))


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
        assert is_member(m, k, dom, closure=False)


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
    mats = _member_tuple(ks, 4, dom, _rng(2))
    assert [inertia(m).n_neg for m in mats] == [0, 1, 2]


def test_tuple_sampler_closure_stays_at_or_below():
    ks = AdmissibleK((0, 3))
    dom = DomainSpec("closed_left", 2.0)
    rng = _rng(3)
    seen = set()
    for _ in range(20):
        mats = _member_tuple(ks, 5, dom, rng, closure=True)
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


def test_trial_config_caps_the_matrix_size():
    # builds the config only: a trial at n = 256 is never run here
    dom = DomainSpec("two_sided", 1.0)
    assert TrialConfig(dom, AdmissibleK((1,)), 1, n_range=(256, 256)).n_range == (256, 256)
    with pytest.raises(ConfigError, match="N_MAX = 256"):
        TrialConfig(dom, AdmissibleK((1,)), 1, n_range=(1, 257))
    # k = 251 over a one-sided domain: the default range 253..258 passes the cap
    with pytest.raises(ConfigError, match="N_MAX = 256"):
        TrialConfig(DomainSpec("closed_left", 1.0), AdmissibleK((251,)), 1)


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


@pytest.mark.parametrize("rho", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("clause", list(RECIPE_CASES))
def test_recipe_candidates_are_tuples_of_bitwise_symmetric_arrays(clause, kind, rho):
    """The judge wraps each slot in SymMatrix once, which keeps a bitwise symmetric array's bytes."""
    assert set(RECIPE_CASES) == set(harness._RECIPES)
    claim, fn, k, l = RECIPE_CASES[clause]
    cfg = TrialConfig(DomainSpec(kind, rho), AdmissibleK(k), l, trials=6, seed=5)
    candidates = list(islice(_ladder(clause, claim, fn, cfg), 6))
    assert candidates
    for slots in candidates:
        assert type(slots) is tuple and len(slots) == len(k)
        assert len({a.shape for a in slots}) == 1
        for a in slots:
            assert type(a) is np.ndarray and a.dtype == np.float64
            assert a.ndim == 2 and a.shape[0] == a.shape[1]
            assert np.all(np.isfinite(a)) and np.array_equal(a, a.T)


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
    sizes = []
    real = linalg.inertia_stack

    def spy(a, n):
        sizes.extend(n)
        return real(a, n)

    monkeypatch.setattr(linalg, "inertia_stack", spy)
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=5, seed=2)
    rep = falsify("lift", Series(1, {(2,): 1.0}), cfg, strategy="random")
    assert rep.failures == 0
    # every trial adds its image at size n and the lifted images at n + 3 and n + 7
    assert len(sizes) == 3 * cfg.trials
    lanes = [sizes[t : t + 3] for t in range(0, len(sizes), 3)]
    assert all(n3 == n + 3 and n7 == n + 7 for n, n3, n7 in lanes)


@pytest.mark.parametrize("l", [50, 51, 100_000])
def test_a_recipe_candidate_above_the_size_cap_falls_through_to_random_search(l):
    # the negative-coefficient recipe lays out l + 1 blocks of size 5: 5 * 51 <= N_MAX < 5 * 52
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((0,)), l, trials=10, seed=1)
    rep = falsify("bounded", Series(1, {(1,): 1.0, (2,): -0.5}), cfg)
    if l == 50:
        assert rep.label == "witness found via recipe for clause 'negative-coefficient'"
        assert rep.witnesses[0].mats[0].n == 255
    else:
        assert rep.label == "no witness found: 0 recipe candidates and 10 random trials exhausted"


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


@pytest.mark.parametrize("shift, pinned", [(0.0, True), (1e-6, False), (-1e-6, False)])
def test_the_pinned_batch_sees_negatives_moved_off_a_minus_b(monkeypatch, shift, pinned):
    # the second lane's zero window is REL_ZERO ||out - (a - b) I||_F < 1e-7
    # wide; a shift of 1e-6 moves the k pinned eigenvalues out of it, to
    # positive (no zeros) or to negative (k below)
    real = harness._direct_sum

    def moved(blocks, eps):
        out = real(blocks, eps)
        return out + shift * np.eye(len(out))

    monkeypatch.setattr(harness, "_direct_sum", moved)
    for seed in range(20):
        mats, ok = harness._suite_pinned(None, np.random.default_rng(seed))
        assert ok(*linalg._count(mats)) is pinned
        assert ok(*(inertia(SymMatrix(m)) for m in mats)) is pinned


def _old_pinned_verdict(out: np.ndarray, count: Inertia, rng) -> bool:
    """The pinned batch's former rule on its trial ``out``, with k, a and b
    replayed from the trial's stream: n_neg(out) == k, and one Sturm count
    at a - b -+ 1e-9 |a - b| finds none below the window and at least k
    below its top."""
    k = int(rng.integers(1, 5))
    a = rng.uniform(0.0, 0.3)
    b = a + rng.uniform(0.1, 0.5)
    w = 1e-9 * abs(a - b)
    low, high = sturm_count(SymMatrix(out), [a - b - w, a - b + w])
    return count.n_neg == k and low == 0 and high >= k


def test_the_pinned_lane_gives_the_verdicts_of_the_sturm_window():
    draws = [harness._suite_pinned(None, harness._trial_rng(0, i)) for i in range(2000)]
    counts = iter(linalg._count([m for mats, _ in draws for m in mats]))
    for i, (mats, ok) in enumerate(draws):
        out, lane = next(counts), next(counts)
        verdict = ok(out, lane)
        assert verdict == _old_pinned_verdict(mats[0], out, harness._trial_rng(0, i)), i
        assert verdict, i
        # the new window, REL_ZERO ||out - (a - b) I||_F, stays narrow
        assert linalg.REL_ZERO * float(np.linalg.norm(mats[1])) < 1e-7, i


def test_lemma_suite_counts_the_pencil_base_once(monkeypatch):
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=6, seed=5)
    built = []
    monkeypatch.setattr(harness, "pencil_base", lambda: built.append(1) or SymMatrix(np.eye(3)))
    rep = lemma_suite(cfg)
    assert len(built) == 1
    # a base matrix with the wrong inertia fails every pencil trial
    assert rep.failures == 6
    assert rep.label.endswith("pencil-counts: 0/6 ok")


def _eigvalsh_counts(a) -> tuple[int, int, int]:
    lam = np.linalg.eigvalsh(a)
    tau = 1e-9 * float(np.linalg.norm(a))
    neg, pos = int(np.sum(lam < -tau)), int(np.sum(lam > tau))
    return neg, len(a) - neg - pos, pos


def _public_block_identity(cfg, rng):
    n = int(rng.integers(1, 7))
    scale = cfg.dom.rho_eff / 2.0
    a, b = (SymMatrix(scale * (lambda g: g + g.T)(rng.uniform(-0.5, 0.5, size=(n, n)))) for _ in "ab")
    return [block_pair(a, b).entries, a.entries + b.entries, a.entries - b.entries]


def _public_inflation(cfg, rng):
    s = int(rng.integers(1, 6))
    n = s + int(rng.integers(0, 6))
    a = SymMatrix((lambda g: g + g.T)(rng.uniform(-1.0, 1.0, size=(s, s))))
    return [a.entries, inflate(a, harness._random_partition(n, s, rng)).entries]


def _public_pinned(cfg, rng):
    k = int(rng.integers(1, 5))
    a = rng.uniform(0.0, 0.3)
    b = a + rng.uniform(0.1, 0.5)
    eps = rng.uniform(0.0, 0.2)
    nb = int(rng.integers(1, 5))
    v = rng.uniform(0.1, 1.0, size=(nb, nb))
    out = embed_with_negatives(a, b, k, eps, SymMatrix(np.einsum("ik,jk->ij", v, v))).entries
    return [out, out - (a - b) * np.eye(len(out))]


def _public_pencil(cfg, rng):
    k = int(rng.integers(1, 5))
    return [ones_pencil(k, float(rng.uniform(1.05, 10.0))).entries]


#: each array-built batch's trial, drawn the same way but built by the public
#: constructions it stands for (the rank-one batch stands for none)
_PUBLIC = {
    "block-identity": _public_block_identity,
    "inflation": _public_inflation,
    "pinned-negatives": _public_pinned,
    "pencil-counts": _public_pencil,
}


@pytest.mark.parametrize("rho", [1.0, 1e-100])
@pytest.mark.parametrize("j,name,batch", [(j, *b) for j, b in enumerate(harness._SUITE, start=1)])
def test_suite_batches_count_on_the_stack_as_inertia_and_eigvalsh_do(j, name, batch, rho):
    cfg = TrialConfig(DomainSpec("two_sided", rho), AdmissibleK((1,)), 1, trials=150, seed=3)
    if batch is harness._suite_pencil:
        batch = partial(batch, base=pencil_base().entries)
    for i in range(cfg.trials):
        mats, check = batch(cfg, harness._trial_rng(cfg.seed, (j << 40) + i))
        if name in _PUBLIC:
            public = _PUBLIC[name](cfg, harness._trial_rng(cfg.seed, (j << 40) + i))
            assert [(m.shape, m.tobytes()) for m in mats] == [(m.shape, m.tobytes()) for m in public]
        counts = linalg._count(mats)
        assert counts == [inertia(SymMatrix(m)) for m in mats], (name, i)
        assert [tuple(c) for c in counts] == [_eigvalsh_counts(m) for m in mats], (name, i)
        assert check(*counts), (name, i)


def test_lemma_suite_splits_the_stack_without_changing_the_label(monkeypatch):
    shapes = []
    real = linalg.inertia_stack

    def spy(a, n):
        shapes.append(a.shape[:2])
        return real(a, n)

    monkeypatch.setattr(linalg, "inertia_stack", spy)
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=40, seed=9)
    whole = lemma_suite(cfg)
    # one stack per suite while it fits: 40 trials of 10 lanes, at most 12 x 12
    assert shapes == [(40 * 10, 12)]
    lanes = sum(b for b, _ in shapes)
    shapes.clear()
    monkeypatch.setattr(linalg, "STACK_ENTRIES", 300)
    split = lemma_suite(cfg)
    assert split.label == whole.label
    assert split.failures == whole.failures == 0
    assert len(shapes) > 5 * len(harness._SUITE)
    assert sum(b for b, _ in shapes) == lanes
    # a stack passes the cap only when it holds one trial (at most 3 lanes)
    assert all(b * n * n <= 300 or b <= 3 for b, n in shapes)


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
# the sampler builds members by construction, and a run counts them only to
# judge a flagged trial again, so test here
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


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


# sha256 prefixes of sample_with_inertia's entries for seeds 0, 1 and 2, each
# drawing n = 1..8 and every valid k in turn from one stream
SAMPLER_DIGESTS = {
    ("two_sided", 1e-150): "c927147c3293fb2b",
    ("two_sided", 1e-12): "f69adb4544d96313",
    ("two_sided", 1.0): "4c827c34f3c1d354",
    ("two_sided", 1e12): "d8f53b056c06560b",
    ("two_sided", 1e150): "280290cfc830202f",
    ("two_sided", math.inf): "4c827c34f3c1d354",
    ("open_positive", 1e-150): "c95f0068bd0a1c75",
    ("open_positive", 1e-12): "15d773211d7b29d9",
    ("open_positive", 1.0): "94b2f6acf544f02a",
    ("open_positive", 1e12): "77e3f866ad438a24",
    ("open_positive", 1e150): "d078643a36dff615",
    ("closed_left", 1e-150): "b1595c0fe3b621a9",
    ("closed_left", 1e-12): "4892dda1303c9fd3",
    ("closed_left", 1.0): "b57d46ea510f1b5b",
    ("closed_left", 1e12): "a814648a4438b434",
    ("closed_left", 1e150): "317b778700389b26",
}

# the QR factors and products the sampler's bytes stand on, at n = 1..8, as
# the BLAS the digests above were taken with rounds them (OpenBLAS, numpy 2.4)
BLAS_DIGEST = "e4c0c966ba1dcc29"


def _blas_digest() -> str:
    rng = np.random.default_rng(0)
    out = []
    for n in range(1, 9):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        v = rng.uniform(0.3, 1.0, size=(n, n))
        out += [q, r, (q * rng.uniform(-1.0, 1.0, size=n)) @ q.T, v @ v.T]
    return _digest(out)


@pytest.mark.parametrize("kind,rho", list(SAMPLER_DIGESTS))
def test_sampler_bytes_are_pinned(kind, rho):
    """A change to the sampler's draws or formulas changes these bytes."""
    if _blas_digest() != BLAS_DIGEST:
        pytest.skip("this BLAS rounds the sampler's QR and products differently")
    dom = DomainSpec(kind, rho)
    mats = []
    for seed in (0, 1, 2):
        rng = _rng(seed)
        for n in range(1, 9):
            mats += [sample_with_inertia(n, k, dom, rng).entries for k in range(n + 1 - dom.one_sided)]
    assert _digest(mats) == SAMPLER_DIGESTS[kind, rho]


@pytest.mark.parametrize("rho", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("kind", KINDS)
def test_a_size_group_built_at_once_has_the_bytes_of_its_slots_built_one_at_a_time(kind, rho):
    """The trial loop builds a chunk's slots of one size in one call; the
    sampler builds each one alone (a batch of one).  Groups of 1 to 40 slots
    over every valid (n, k) with n <= 12."""
    dom = DomainSpec(kind, rho)
    pairs = [(n, k) for n in range(1, 13) for k in range(n + 1 - dom.one_sided)]
    for i, (n, k) in enumerate(pairs):
        size = 1 + i % 40
        rng = _rng(i)
        draws = [harness._draw(n, k, dom, rng) for _ in range(size)]
        group = harness._settle(draws)
        assert group.shape == (size, n, n)
        rng = _rng(i)
        alone = [sample_with_inertia(n, k, dom, rng).entries for _ in range(size)]
        assert [a.tobytes() for a in group] == [a.tobytes() for a in alone], (n, k, size)
    assert len(pairs) >= 40


# the recipe domains plus rho = 1e-12, where three recipes find no witness
PINNED_DOMAINS = [p.values for p in RECIPE_DOMAINS] + [(kind, 1e-12) for kind in KINDS]

# sha256 prefixes of the recipe-only falsify reports of each RECIPE_CASES
# clause over PINNED_DOMAINS in order (trials=6, seed=5)
RECIPE_DIGESTS = {
    "nonlinear-term": "b9902a84c8bda706",
    "mixed-term": "83ad595fcecea33f",
    "negative-linear-coefficient": "04a245a0a9a4b7fb",
    "multiple-linear-variables": "0c0ae31cbf835eff",
    "constrained-dependence": "eddcf82b75342b69",
    "negative-coefficient": "fab15c0b1b988d66",
    "nonmonotone-base": "950e920c68f839ef",
    "negative-offset": "5caa63d2ecb3ab9e",
    "nonzero-offset": "4fa57a33443b7637",
    "constant-map": "e388b4359bbd23c2",
    "l-less-than-k": "917ea7a7ea0c75a9",
}


@pytest.mark.parametrize("clause", list(RECIPE_DIGESTS))
def test_recipe_witness_bytes_are_pinned(clause):
    """A change to what a recipe builds, or to the order it builds it in, changes these bytes."""
    if clause == "constant-map" and _blas_digest() != BLAS_DIGEST:
        # its two-sided core is a sample, drawn through QR and products
        pytest.skip("this BLAS rounds the sampler's QR and products differently")
    claim, fn, k, l = RECIPE_CASES[clause]
    h = hashlib.sha256()
    for kind, rho in PINNED_DOMAINS:
        cfg = TrialConfig(DomainSpec(kind, rho), AdmissibleK(k), l, trials=6, seed=5)
        h.update(dumps(falsify(claim, fn, cfg, strategy="recipe").to_json_dict()).encode())
    assert h.hexdigest()[:16] == RECIPE_DIGESTS[clause]


def _draws(rng) -> bytes:
    """64-bit, float, normal and (last, an odd number of) 32-bit draws."""
    out = [rng.integers(0, 2**40, size=4), rng.uniform(size=3), rng.standard_normal(3)]
    out.append(rng.integers(0, 10, size=5, dtype=np.uint32))
    return b"".join(a.tobytes() for a in out)


def test_seeds_at_and_above_2_63_key_distinct_streams():
    for a, b in ((2**63, 2**63 + 5), (0, 2**64 - 1)):
        assert _draws(harness._trial_rng(a, 0)) != _draws(harness._trial_rng(b, 0))
    # the recipe stream 2**63 is the one the float64 key [seed, 2**63 + 1]
    # selected, for every seed below 2**53
    for seed in (0, 7, 2**53 - 1):
        old = np.random.Generator(np.random.Philox(key=np.array([seed, 2**63 + 1], dtype=float)))
        assert _draws(harness._trial_rng(seed, 2**63)) == _draws(old)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
def test_a_rekeyed_generator_draws_the_bytes_of_a_new_one(seed):
    rng = harness._trial_rng(seed, 99)
    _draws(rng)
    for index in (0, 1, 2**40 + 3, 2**63):
        state = rng.bit_generator.state
        # mid-stream: the counter has moved, the buffer and the 32-bit cache are in use
        assert state["buffer_pos"] < 4 and state["has_uint32"] == 1
        assert _draws(harness._rekey(rng, seed, index)) == _draws(harness._trial_rng(seed, index))


@pytest.mark.parametrize("rho", [1e-150, 1e-12, 1e12, 1e150])
def test_verify_and_falsify_at_extreme_scales(rho):
    cfg = TrialConfig(DomainSpec("two_sided", rho), AdmissibleK((2,)), 2, trials=30, seed=7)
    rep = verify_forward("exact", Homothety(2.0), cfg)
    assert rep.label == "pass: 30 trials, 0 failures"
    fn = Series(1, {(2,): 1.0})
    rep = falsify("exact", fn, cfg)
    assert rep.label == "witness found via recipe for clause 'nonlinear-term'"
    assert rep.witnesses[0].revalidate("exact", cfg)


# ---------------------------------------------------------------------------
# stacked trials give the reports of the scalar trial loop, byte for byte
# ---------------------------------------------------------------------------

def _scalar_trials(claim, fn, cfg, clause, closure):
    """The scalar trial loop: sample, check, apply and count one trial at a
    time; a slot outside the domain or a non-finite image raises."""
    witnesses = []
    for i in range(cfg.trials):
        rng = harness._trial_rng(cfg.seed, i)
        n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
        slots = [m.entries for m in _member_tuple(cfg.k, n, cfg.dom, rng, closure=closure)]
        for p, a in enumerate(slots, start=1):
            cfg.dom.check_matrix(a, slot=p)
        if not np.all(np.isfinite(fn(*slots))):
            raise ConfigError("matrix entries must be finite")
        w = harness._make_witness(claim, fn, slots, cfg, clause)
        if w is not None:
            witnesses.append(w)
    return len(witnesses), witnesses[: harness.WITNESS_CAP]


# (run, claim, fn, kind, k, l[, config overrides]): all five claims; constant
# and affine maps have f(0) != 0, so the stack's padding must be zeroed after
# f is applied.  Over n_range (4, 5) a chunk of the many-chunks runs holds
# several trials of each size, so size groups cross chunk boundaries; x^26
# overflows on samples whose peak entry passes 10^(308.25 / 26) ~ 7.2e11.
STACKED_RUNS = {
    "verify-inertia": (verify_forward, "inertia", Homothety(2.5), "two_sided", [1], 1),
    "verify-exact-constant": (verify_forward, "exact", Constant(-5.0), "closed_left", [1], 1),
    "verify-exact-two-slots": (verify_forward, "exact", Homothety(2.0, 2, 2), "two_sided", [1, 1], 1),
    "verify-exact-two-sizes": (
        verify_forward, "exact", Homothety(2.0, 2, 2), "two_sided", [1, 1], 1, {"n_range": (4, 5)},
    ),
    "verify-closure-affine": (verify_forward, "closure", Affine(0.75, 1.5), "two_sided", [2], 2),
    "verify-bounded": (
        verify_forward, "bounded", Series(1, {(0,): 0.25, (1,): 1.0, (2,): 0.5}), "closed_left", [0], 0,
    ),
    "verify-lift": (verify_forward, "lift", Series(1, {(2,): 1.0, (0,): -0.5}), "closed_left", [1], 1),
    "random-exact-constant": (falsify, "exact", Constant(-5.0), "two_sided", [2], 2),
    "random-inertia-affine": (falsify, "inertia", Affine(-0.5, 1.0), "open_positive", [1], 1),
    "random-exact-affine": (falsify, "exact", Affine(1.0, 1.0), "two_sided", [1], 1),
    "random-bounded-base": (falsify, "bounded", Series(1, {(1,): 1.0, (2,): -0.5}), "closed_left", [0], 0),
    "random-closure-square": (falsify, "closure", Series(1, {(2,): 1.0}), "two_sided", [1], 1),
    "random-lift": (falsify, "lift", Series(1, {(2,): 1.0}), "open_positive", [2], 2),
    "overflow-lift": (verify_forward, "lift", Series(1, {(26,): 1.0}), "two_sided", [1], 1, {"rho": 1e12}),
}

#: the cases whose run raises the scalar loop's error instead of reporting
RAISING = {"overflow-lift"}


def _stacked_run(case, trials):
    """A STACKED_RUNS case at seed 11 as a call with no arguments, its claim
    and its config (rho = 1 unless set)."""
    run, claim, fn, kind, k, l, *overrides = STACKED_RUNS[case]
    opts = {"rho": 1.0, **dict(*overrides)}
    cfg = TrialConfig(DomainSpec(kind, opts.pop("rho")), AdmissibleK(k), l, trials=trials, seed=11, **opts)
    kwargs = {} if run is verify_forward else {"strategy": "random"}
    return partial(run, claim, fn, cfg, **kwargs), claim, cfg


def _outcome(call):
    """The report of ``call``, or the InertiaLabError it raises."""
    try:
        with np.errstate(over="ignore"):
            return call()
    except InertiaLabError as exc:
        return exc


@pytest.mark.parametrize("stack_entries", [linalg.STACK_ENTRIES, 300], ids=["one-chunk", "many-chunks"])
@pytest.mark.parametrize("case", list(STACKED_RUNS))
def test_stacked_trials_report_the_bytes_of_the_scalar_loop(case, stack_entries, monkeypatch):
    call, claim, cfg = _stacked_run(case, 40)
    monkeypatch.setattr(linalg, "STACK_ENTRIES", stack_entries)
    stacked = _outcome(call)
    monkeypatch.setattr(harness, "_run_trials", _scalar_trials)
    scalar = _outcome(call)
    if case in RAISING:
        assert (type(stacked), str(stacked)) == (type(scalar), str(scalar))
        assert (type(stacked), str(stacked)) == (ConfigError, "matrix entries must be finite")
        return
    assert dumps(stacked.to_json_dict()) == dumps(scalar.to_json_dict())
    # every random search but the lift one fails, and carries witnesses
    assert bool(stacked.witnesses) == (case.startswith("random-") and case != "random-lift")
    assert all(w.revalidate(claim, cfg) for w in stacked.witnesses)


def test_an_overflowing_image_exits_as_the_scalar_loop_does(monkeypatch):
    spec = {
        "theorem": "lift",
        "fn": {"type": "series", "arity": 1, "terms": [{"alpha": [26], "coeff": 1.0}]},
        "config": {"domain": {"kind": "two_sided", "rho": 1e12}, "k": [1], "l": 1, "trials": 40, "seed": 11},
    }
    outputs = []
    for loop in (harness._run_trials, _scalar_trials):
        monkeypatch.setattr(harness, "_run_trials", loop)
        out, err = io.StringIO(), io.StringIO()
        with np.errstate(over="ignore"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", json.dumps(spec)])
        outputs.append((code, out.getvalue(), err.getvalue()))
    assert outputs[0] == outputs[1]
    assert outputs[0][:2] == (cli.EXIT_CONFIG, "")
    assert "matrix entries must be finite" in outputs[0][2]


def test_an_overflow_raises_from_the_first_failing_trial(monkeypatch):
    """When a size group fails, the chunk's trials are checked in index
    order: here the first failing trial is not in the chunk's first size
    group, which holds a later failing trial of its own."""
    fn = Series(1, {(26,): 1.0})
    cfg = TrialConfig(DomainSpec("two_sided", 1e12), AdmissibleK((1,)), 1, trials=40, seed=5)
    trials = []
    for i in range(cfg.trials):
        rng = harness._trial_rng(cfg.seed, i)
        n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
        slots = [m.entries for m in _member_tuple(cfg.k, n, cfg.dom, rng)]
        with np.errstate(over="ignore"):
            trials.append((n, slots, bool(np.all(np.isfinite(fn(*slots))))))
    first = next(i for i, (_, _, finite) in enumerate(trials) if not finite)
    assert first > 0 and trials[first][0] != trials[0][0]
    assert any(n == trials[0][0] and not finite for n, _, finite in trials[first:])
    checked, real = [], DomainSpec.check_matrix
    monkeypatch.setattr(DomainSpec, "check_matrix", lambda dom, a, **kw: checked.append(a) or real(dom, a, **kw))
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="matrix entries must be finite"):
        harness._run_trials("lift", fn, cfg, "test", closure=False)
    # the slots checked before the error are those of the trial that raised, alone
    assert [a.tobytes() for a in checked] == [a.tobytes() for a in trials[first][1]]


@pytest.mark.parametrize("kind", KINDS)
def test_the_stacked_domain_check_gives_check_matrix_s_verdict_and_message_at_the_edges(kind, monkeypatch):
    rho = 1.5
    dom = DomainSpec(kind, rho)
    cfg = TrialConfig(dom, AdmissibleK((1, 1)), 1, n_range=(2, 2), trials=6)
    fn = Homothety(1.0, 2, 2)
    inner = np.full((2, 2), 0.75)
    edges = [rho, -rho, np.nextafter(rho, 0.0), np.nextafter(-rho, 0.0), 0.0, -0.0, 5e-324]
    refused = set()
    for value in edges:
        for i, j in ((0, 0), (1, 0)):
            edge = inner.copy()
            edge[i, j] = value
            try:
                dom.check_matrix(edge, slot=2)
                want = None
            except DomainViolation as exc:
                want = str(exc)
            # trial 3 of 6 holds the edge in slot 2; all six form one size group
            queue = iter([(inner, inner)] * 3 + [(inner, edge)] + [(inner, inner)] * 2)
            monkeypatch.setattr(harness, "_sample_slots", lambda *args: next(queue))
            try:
                harness._run_trials("exact", fn, cfg, "test", closure=False)
                got = None
            except DomainViolation as exc:
                got = str(exc)
            assert got == want, (value, i, j)
            refused.add(want is not None)
    # every kind refuses an entry at rho and keeps the entries next to it
    assert refused == {True, False}


@pytest.mark.parametrize("case", [c for c in STACKED_RUNS if c.startswith("verify-")])
def test_a_passing_verify_builds_no_symmatrix(case, monkeypatch):
    """Trials sample, check and apply f on arrays; only a flagged trial gets SymMatrix slots."""
    call, _, _ = _stacked_run(case, 50)
    built = []
    real = SymMatrix.__init__
    monkeypatch.setattr(SymMatrix, "__init__", lambda self, entries: built.append(1) or real(self, entries))
    rep = call()
    assert rep.label == "pass: 50 trials, 0 failures"
    assert not built


def test_size_groups_cross_chunk_boundaries(monkeypatch):
    groups = _spy(monkeypatch, "_spectral")
    monkeypatch.setattr(linalg, "STACK_ENTRIES", 300)
    call, _, cfg = _stacked_run("verify-exact-two-sizes", 40)
    assert call().failures == 0
    # one build per size and chunk, both slots of its trials at once: each
    # size is built in several chunks, and a build holds several trials
    sizes = [len(draws[0].g) for (draws,) in groups]
    assert sizes.count(4) > 1 and sizes.count(5) > 1
    assert sum(len(draws) for (draws,) in groups) == 2 * cfg.trials
    assert max(len(draws) for (draws,) in groups) > 2


def test_many_chunks_really_split_the_trials(monkeypatch):
    sizes = []
    real = linalg.inertia_stack

    def spy(a, n):
        sizes.append(len(n))
        return real(a, n)

    monkeypatch.setattr(linalg, "inertia_stack", spy)
    monkeypatch.setattr(linalg, "STACK_ENTRIES", 300)
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK((1,)), 1, trials=40, seed=11)
    verify_forward("inertia", Homothety(2.5), cfg)
    # two lanes per trial, packed while the padded stack holds at most 300
    # entries: 3 trials up to n = 7, 4 up to 6, 6 up to 5
    assert sizes == [6, 8, 6, 6, 6, 10, 6, 12, 6, 6, 6, 2]


@pytest.mark.parametrize("case", [c for c in STACKED_RUNS if c not in RAISING])
def test_trial_stacks_keep_under_the_entry_cap_or_hold_one_trial(case, monkeypatch):
    call, claim, cfg = _stacked_run(case, 40)
    shapes = []
    real = linalg.inertia_stack

    def spy(a, n):
        shapes.append(a.shape[:2])
        return real(a, n)

    monkeypatch.setattr(linalg, "inertia_stack", spy)
    monkeypatch.setattr(linalg, "STACK_ENTRIES", 300)
    call()
    lanes = 1 + (claim == "inertia") + 2 * (claim == "lift")
    assert sum(b for b, _ in shapes) == lanes * cfg.trials
    assert all(b * n * n <= 300 or b == lanes for b, n in shapes)
    assert len(shapes) > 1


# one case per claim
@pytest.mark.parametrize(
    "case", ["verify-inertia", "verify-exact-two-sizes", "verify-closure-affine", "verify-bounded", "verify-lift"],
)
def test_the_trial_loop_declares_the_sizes_of_the_arrays_it_settles(case, monkeypatch):
    """The packer packs by the sizes a trial declares and counts the arrays
    its chunk settles into: they agree trial by trial, in order."""
    call, claim, cfg = _stacked_run(case, 40)
    declared, settled = [], []
    real = harness._on_stack

    def spy(trials, settle):
        def settle_spy(chunk):
            pairs = settle(chunk)
            settled.extend(list(arrays) for arrays, _ in pairs)
            return pairs

        return real(((declared.append(sizes) or sizes, draw) for sizes, draw in trials), settle_spy)

    monkeypatch.setattr(harness, "_on_stack", spy)
    monkeypatch.setattr(linalg, "STACK_ENTRIES", 300)
    call()
    fn = call.args[1]
    assert len(declared) == len(settled) == cfg.trials
    for i, (sizes, arrays) in enumerate(zip(declared, settled)):
        rng = harness._trial_rng(cfg.seed, i)
        n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
        slots = [m.entries for m in _member_tuple(cfg.k, n, cfg.dom, rng, closure=claim == "closure")]
        # slot 1 for an inertia claim, then the image, then the lifts for a lift claim
        want = [n] * (claim == "inertia") + [n] + [n + 3, n + 7] * (claim == "lift")
        assert list(sizes) == want
        assert [a.shape for a in arrays] == [(s, s) for s in want]
        assert arrays[claim == "inertia"].tobytes() == fn(*slots).tobytes()
        if claim == "inertia":
            assert arrays[0].tobytes() == slots[0].tobytes()


@pytest.mark.parametrize("rho", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "fn",
    [Constant(-5.0), Affine(0.5, 2.0), Series(2, {(0, 0): -0.5, (1, 0): 1.0, (1, 1): 0.25, (0, 3): -1.5})],
    ids=["constant", "affine", "series"],
)
def test_lift_lanes_are_the_image_of_the_lifted_slots(fn, kind, rho, monkeypatch):
    stacks = []
    real = linalg.inertia_stack

    def spy(a, n):
        stacks.append((a.copy(), list(n)))
        return real(a, n)

    monkeypatch.setattr(linalg, "inertia_stack", spy)
    cfg = TrialConfig(DomainSpec(kind, rho), AdmissibleK((1,) * fn.arity), 1, trials=6, seed=5)
    harness._run_trials("lift", fn, cfg, "test", closure=False)
    (stack, sizes), = stacks
    for i in range(cfg.trials):
        rng = harness._trial_rng(cfg.seed, i)
        n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
        mats = _member_tuple(cfg.k, n, cfg.dom, rng)
        for b, extra in zip((3 * i + 1, 3 * i + 2), (3, 7)):
            want = fn(*(lift_finite(m, n + extra).entries for m in mats))
            assert sizes[b] == n + extra
            assert stack[b, : n + extra, : n + extra].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the one judge counts the trial's lanes and keeps the judged tuple
# ---------------------------------------------------------------------------

# diag(-1, 1, -5e-10): the last eigenvalue is inside the zero threshold at
# n = 3, but copies of the last coordinate add up to a negative at n + 3
LIFT_EDGE = np.diag([-1.0, 1.0, -5e-10])


def test_a_lift_witness_keeps_the_size_n_tuple_and_revalidates():
    cfg = TrialConfig(DomainSpec(), AdmissibleK((1,)), 1)
    w = harness._make_witness("lift", Homothety(1.0), [LIFT_EDGE], cfg, "test")
    assert w is not None
    assert [m.n for m in w.mats] == [3]
    assert w.mats[0].entries.tobytes() == LIFT_EDGE.tobytes()
    assert inertia(w.mats[0]).n_neg == 1
    assert w.observed == inertia(lift_finite(w.mats[0], 6)) and w.observed.n_neg == 2
    assert w.revalidate("lift", cfg)


def test_a_flagged_lift_trial_applies_f_once_in_the_trial_and_once_in_the_judge(monkeypatch):
    monkeypatch.setattr(harness, "_sample_slots", lambda *args: (LIFT_EDGE,))
    fn = Homothety(1.0)
    calls = []
    real = type(fn).__call__
    monkeypatch.setattr(type(fn), "__call__", lambda self, *xs: calls.append(1) or real(self, *xs))
    cfg = TrialConfig(DomainSpec(), AdmissibleK((1,)), 1, n_range=(3, 3), trials=1)
    failures, witnesses = harness._run_trials("lift", fn, cfg, "test", closure=False)
    assert failures == 1 and [m.n for m in witnesses[0].mats] == [3]
    assert len(calls) == 2


# (fn, slots): with l = 0, each tuple would be a witness if it were well formed
UNJUDGEABLE = {
    "too-few-slots": (Series(2, {(1, 0): 1.0}), [np.diag([1.0, -1.0])]),
    "too-many-slots": (Homothety(1.0), [np.diag([1.0, -1.0]), np.diag([1.0, -1.0])]),
    "non-finite-entry": (Homothety(1.0), [np.array([[np.nan, 0.0], [0.0, -1.0]])]),
    "infinite-entry": (Homothety(1.0), [np.array([[np.inf, 0.0], [0.0, -1.0]])]),
    "entry-out-of-domain": (Homothety(1.0), [np.diag([2.0, -1.0])]),
    "sizes-differ": (Series(2, {(1, 0): 1.0}), [np.diag([1.0, -0.5]), np.diag([1.0, -0.5, 0.5])]),
    "non-finite-image": (Series(1, {(1,): 1.0, (3,): 1.0}), [np.diag([1e200, -1e200])]),
}


@pytest.mark.parametrize("case", list(UNJUDGEABLE))
def test_the_judge_returns_none_for_a_tuple_it_cannot_judge(case):
    fn, slots = UNJUDGEABLE[case]
    rho = math.inf if case == "non-finite-image" else 1.5
    cfg = TrialConfig(DomainSpec("two_sided", rho), AdmissibleK((1,) * fn.arity), 0)
    with np.errstate(over="ignore"):
        assert harness._make_witness("exact", fn, slots, cfg, "test") is None
    # the same function on a well-formed member tuple is a witness
    well_formed = [np.diag([1.0, -1.0])] * fn.arity
    assert harness._make_witness("exact", fn, well_formed, cfg, "test") is not None


def test_the_size_floor_is_one_rule_for_configs_the_sampler_and_the_recipes():
    rng = _rng(3)
    for kind in KINDS:
        dom = DomainSpec(kind, 1.0)
        for k in range(1, 5):
            floor = harness._min_size(k, dom)
            assert floor == (k + 1 if kind != "two_sided" else k)
            if floor > 1:
                with pytest.raises(ConfigError, match=f"needs n >= {floor}"):
                    TrialConfig(dom, AdmissibleK((k,)), k, n_range=(floor - 1, floor + 2))
                with pytest.raises(ConfigError, match="cannot place"):
                    harness._member_filler(floor - 1, k, dom, 0.125, 0.0625)
            if floor - 1 >= k:
                with pytest.raises(SamplingError):
                    sample_with_inertia(floor - 1, k, dom, rng)
            assert inertia(sample_with_inertia(floor, k, dom, rng)).n_neg == k
            assert inertia(SymMatrix(harness._member_filler(floor, k, dom, 0.125, 0.0625))).n_neg == k


# ---------------------------------------------------------------------------
# a recipe ladder screens its later candidates on the stack; the judge
# confirms only flagged ones, so reports are those of judging each in turn
# ---------------------------------------------------------------------------

def _ladder(clause, claim, fn, cfg):
    """The candidates of the clause's recipe ladder, built from the parts of f
    that the claim's classification splits off, as ``_recipe_witness`` builds them."""
    parts = _parts(fn, cfg.k, harness._CLAIM_TO_MODE[claim])
    return harness._candidates(harness._RECIPES[clause], fn, cfg, parts)


def _sequential_recipe(clause, claim, fn, cfg):
    """The reference ladder: the judge on every candidate, in order."""
    attempts = 0
    for attempts, slots in enumerate(_ladder(clause, claim, fn, cfg), start=1):
        w = harness._make_witness(claim, fn, slots, cfg, clause)
        if w is not None:
            return w, attempts
    return None, attempts


#: an offset next to a free slot: g = f(t0/4, 0) = t0/4 - 0.5 changes sign
#: inside a ladder at rho = 1e12, and is negative only at its last rungs
SIGN_CHANGING_OFFSET = Series(2, {(0, 0): -0.5, (1, 0): 1.0, (0, 1): 1.0})

# clause -> (claim, fn, k, l): every RECIPE_CASES clause, plus an inertia
# claim (slot 1's count is the reference) and a closure claim (at most k_p
# negatives per slot), whose offsets climb ladders at rho = 1e12, and an
# offset whose sign changes inside the ladder, so that its rungs where g >= 0
# are judged too
LADDER_CASES = {
    **{clause: (clause, *case) for clause, case in RECIPE_CASES.items()},
    "inertia-claim": ("nonzero-offset", "inertia", Affine(-0.5, 1.0), [1], 1),
    "closure-claim": ("negative-offset", "closure", Affine(-0.5, 1.0), [2], 2),
    "sign-changing-offset": ("negative-offset", "bounded", SIGN_CHANGING_OFFSET, [0, 2], 2),
}


@pytest.mark.parametrize("rho", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("case", list(LADDER_CASES))
def test_the_screened_ladder_reports_what_judging_each_candidate_gives(case, rho, monkeypatch):
    clause, claim, fn, k, l = LADDER_CASES[case]
    for kind in KINDS:
        for seed in (5, 2**40 + 3):
            cfg = TrialConfig(DomainSpec(kind, rho), AdmissibleK(k), l, trials=6, seed=seed)
            screened = falsify(claim, fn, cfg, strategy="recipe")
            with monkeypatch.context() as m:
                m.setattr(harness, "_recipe_witness", _sequential_recipe)
                reference = falsify(claim, fn, cfg, strategy="recipe")
            assert dumps(screened.to_json_dict()) == dumps(reference.to_json_dict())
            assert screened.trials == reference.trials >= 1
            assert clause in screened.label


def _flags(claim, fn, cfg, candidates):
    """Whether ``_checks``, given each candidate as 1-slice stacks, returns
    its slots and a check that asks the judge on the counts of its arrays;
    a candidate it refuses is not flagged."""
    flags = []
    with pytest.MonkeyPatch.context() as m:
        asked = _spy(m, "_make_witness")
        for slots in candidates:
            (one, pair), = harness._checks(claim, fn, cfg, "test", [a[None] for a in slots], 0)
            assert [a.tobytes() for a in one] == [a.tobytes() for a in slots]
            before = len(asked)
            if pair is not None:
                arrays, check = pair
                check(*linalg._count(arrays))
            flags.append(len(asked) > before)
    return flags


@pytest.mark.parametrize("case", list(LADDER_CASES))
def test_the_screen_flags_exactly_the_candidates_the_judge_confirms(case):
    clause, claim, fn, k, l = LADDER_CASES[case]
    for kind, rho in PINNED_DOMAINS:
        cfg = TrialConfig(DomainSpec(kind, rho), AdmissibleK(k), l, trials=6, seed=5)
        candidates = list(_ladder(clause, claim, fn, cfg))
        flags = _flags(claim, fn, cfg, candidates)
        assert flags == [harness._make_witness(claim, fn, c, cfg, clause) is not None for c in candidates]


def _spy(monkeypatch, name, module=harness):
    """Record the arguments of every call of module.<name>."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_first_candidate_hit_counts_no_stack(monkeypatch):
    counts, judged = _spy(monkeypatch, "_count", linalg), _spy(monkeypatch, "_make_witness")
    claim, fn, k, l = RECIPE_CASES["nonlinear-term"]
    cfg = TrialConfig(DomainSpec("two_sided", 1.0), AdmissibleK(k), l, trials=6, seed=5)
    w, attempts = harness._recipe_witness("nonlinear-term", claim, fn, cfg)
    assert w is not None and attempts == 1
    assert len(judged) == 1 and not counts


def test_a_ladder_that_finds_nothing_judges_once_and_counts_one_stack(monkeypatch):
    counts, judged = _spy(monkeypatch, "_count", linalg), _spy(monkeypatch, "_make_witness")
    claim, fn, k, l = RECIPE_CASES["negative-coefficient"]
    cfg = TrialConfig(DomainSpec("two_sided", 1e-12), AdmissibleK(k), l, trials=6, seed=5)
    w, attempts = harness._recipe_witness("negative-coefficient", claim, fn, cfg)
    assert w is None and attempts == harness.RECIPE_HALVINGS == 40
    # the first rung goes to the judge; the other 39 are one run, one stack
    assert len(judged) == 1 and len(counts) == 1
    assert len(counts[0][0]) == 2 * 39  # each rung's slot and image


def test_a_ladder_splits_f_once_as_the_classifier_does(monkeypatch):
    split = _spy(monkeypatch, "_parts")
    claim, fn, k, l = RECIPE_CASES["negative-coefficient"]
    cfg = TrialConfig(DomainSpec("two_sided", 1e-12), AdmissibleK(k), l, trials=6, seed=5)
    assert harness._recipe_witness("negative-coefficient", claim, fn, cfg)[1] == 40
    assert split == [(fn, cfg.k, "bounded")]


# an inertia claim constrains its one slot also at k = 0: f must keep the
# zero count of a PSD input too, so a recipe places PSD slots that f breaks
INERTIA_AT_K_0 = {
    "nonlinear-term": Series(1, {(2,): 1.0}),
    "negative-linear-coefficient": Series(1, {(1,): -1.0}),
    "constant-and-powers": Series(1, {(0,): 0.5, (2,): -1.0, (3,): 0.75}),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", list(INERTIA_AT_K_0))
def test_an_inertia_claim_at_k_0_gets_a_recipe_witness(case, kind):
    fn = INERTIA_AT_K_0[case]
    cfg = TrialConfig(DomainSpec(kind, 1.0), AdmissibleK((0,)), 0, trials=5, seed=0)
    clause = classify(fn, (0,), 0, cfg.dom, mode="inertia").clause
    assert clause == ("nonlinear-term" if case == "constant-and-powers" else case)
    rep = falsify("inertia", fn, cfg, strategy="recipe")
    assert rep.label == f"witness found via recipe for clause '{clause}'"
    w = rep.witnesses[0]
    assert w.revalidate("inertia", cfg)
    assert inertia(w.mats[0]).n_neg == 0 and w.observed != inertia(w.mats[0])


def test_candidates_built_past_the_hit_never_reach_the_judge(monkeypatch):
    claim, fn, k, l = RECIPE_CASES["negative-offset"]
    cfg = TrialConfig(DomainSpec("two_sided", 1e12), AdmissibleK(k), l, trials=6, seed=5)
    recipe = harness._RECIPES["negative-offset"]
    ladder = [s[0].tobytes() for s in _ladder("negative-offset", claim, fn, cfg)]
    runs = []

    def spy(*args):
        runs.append(len(args[4]))  # the rungs of t0
        return recipe(*args)

    monkeypatch.setitem(harness._RECIPES, "negative-offset", spy)
    judged = _spy(monkeypatch, "_make_witness")
    w, attempts = harness._recipe_witness("negative-offset", claim, fn, cfg)
    assert w is not None and attempts == 10
    # the first rung alone, then the other 39 in one call
    assert runs == [1, 39]
    assert [ladder.index(args[2][0].tobytes()) + 1 for args in judged] == [1, 10]


# a recipe builds a run of rungs in one call, each rung's slices with the
# bytes of that rung built alone
def _one_rung_per_call(clause, claim, fn, cfg):
    """The ladder with each rung built by its own recipe call, in order."""
    parts = _parts(fn, cfg.k, harness._CLAIM_TO_MODE[claim])
    build = harness._builder(harness._RECIPES[clause], fn, cfg, parts)
    t0, eps = harness._scales(cfg.dom)
    out = []
    for h in range(len(t0)):
        with contextlib.suppress(ConfigError):
            out += harness._slices(build(t0[h : h + 1], eps[h : h + 1]))
    return out


def _same_ladders(clause, claim, fn, k, l, kind, rho):
    """The ladder built one rung per call; built in one call (``_candidates``)
    and as ``_ladder`` builds it (its first rung, then runs), it has the same
    candidates, byte for byte and in order."""
    cfg = TrialConfig(DomainSpec(kind, rho), AdmissibleK(k), l, trials=6, seed=5)
    alone = _one_rung_per_call(clause, claim, fn, cfg)
    parts = _parts(fn, cfg.k, harness._CLAIM_TO_MODE[claim])
    build = harness._builder(harness._RECIPES[clause], fn, cfg, parts)
    built = []

    def spy(t0, eps):
        run = build(t0, eps)
        built.extend(harness._slices(run))
        return run

    list(harness._ladder(claim, fn, cfg, clause, spy))
    for ladder in (_ladder(clause, claim, fn, cfg), built):
        assert [[(a.shape, a.tobytes()) for a in slots] for slots in ladder] == [
            [(a.shape, a.tobytes()) for a in slots] for slots in alone
        ]
    return alone


@pytest.mark.parametrize("rho", [1e-12, 1.0, 1e12, 1e150])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("clause", list(RECIPE_CASES))
def test_a_ladder_built_in_one_call_has_the_bytes_of_one_rung_per_call(clause, kind, rho):
    assert _same_ladders(clause, *RECIPE_CASES[clause], kind, rho)


@pytest.mark.parametrize("kind", KINDS)
def test_every_candidate_has_a_slice_at_every_rung_of_its_run(kind):
    for clause, (claim, fn, k, l) in RECIPE_CASES.items():
        cfg = TrialConfig(DomainSpec(kind, 1e12), AdmissibleK(k), l, trials=6, seed=5)
        parts = _parts(fn, cfg.k, harness._CLAIM_TO_MODE[claim])
        build = harness._builder(harness._RECIPES[clause], fn, cfg, parts)
        t0, eps = harness._scales(cfg.dom)
        for lo, hi in ((0, 1), (1, 40), (5, 9)):
            built = build(t0[lo:hi], eps[lo:hi])
            assert built and all(len(a) == hi - lo for slots in built for a in slots), (clause, lo, hi)


#: the candidate of SIGN_CHANGING_OFFSET's ladder at rho = 1e12 that is its
#: first witness: the rungs before it, where g >= 0, are judged and break nothing
SIGN_CHANGING_HIT = {"two_sided": 37, "open_positive": 38, "closed_left": 37}


@pytest.mark.parametrize("kind", KINDS)
def test_a_ladder_whose_offset_changes_sign_has_a_candidate_at_every_rung(kind):
    alone = _same_ladders("negative-offset", "bounded", SIGN_CHANGING_OFFSET, [0, 2], 2, kind, 1e12)
    assert len(alone) == harness.RECIPE_HALVINGS
    cfg = TrialConfig(DomainSpec(kind, 1e12), AdmissibleK((0, 2)), 2, trials=6, seed=5)
    rep = falsify("bounded", SIGN_CHANGING_OFFSET, cfg, strategy="recipe")
    assert rep.label == "witness found via recipe for clause 'negative-offset'"
    assert rep.trials == SIGN_CHANGING_HIT[kind]
    w = rep.witnesses[0]
    assert w.revalidate("bounded", cfg)
    assert [m.entries.tobytes() for m in w.mats] == [a.tobytes() for a in alone[rep.trials - 1]]


@pytest.mark.parametrize("kind", KINDS)
def test_a_ladder_whose_offset_changes_sign_makes_two_recipe_calls(kind, monkeypatch):
    # its first rung is built alone, and its sizes pack the other 39 rungs as one run
    cfg = TrialConfig(DomainSpec(kind, 1e12), AdmissibleK((0, 2)), 2, trials=6, seed=5)
    recipe = harness._RECIPES["negative-offset"]
    runs = []

    def spy(*args):
        runs.append(len(args[4]))  # the rungs of t0
        return recipe(*args)

    monkeypatch.setitem(harness._RECIPES, "negative-offset", spy)
    harness._recipe_witness("negative-offset", "bounded", SIGN_CHANGING_OFFSET, cfg)
    assert runs == [1, 39]


# an offset next to a slope on a slot with k = 0 (an inertia claim): the slot
# holds no negatives, so the recipe places a PSD core whose rank f changes
@pytest.mark.parametrize("offset", [1.0, -1.0])
@pytest.mark.parametrize("kind", KINDS)
def test_an_offset_on_a_slot_with_k_0_gets_a_recipe_witness(kind, offset):
    fn = Series(1, {(0,): offset, (1,): 1.0})
    cfg = TrialConfig(DomainSpec(kind, 1.0), AdmissibleK((0,)), 0, trials=5, seed=0)
    rep = falsify("inertia", fn, cfg, strategy="recipe")
    assert rep.label == "witness found via recipe for clause 'nonzero-offset'"
    assert rep.trials == 1
    w = rep.witnesses[0]
    assert w.revalidate("inertia", cfg)
    assert inertia(w.mats[0]).n_neg == 0 and w.observed != inertia(w.mats[0])


#: the UNJUDGEABLE tuples shaped as a well-formed 2x2 tuple of their arity
SAME_SHAPE = ["non-finite-entry", "infinite-entry", "entry-out-of-domain", "non-finite-image"]


# each UNJUDGEABLE tuple on both sides of a well-formed witness, tuple by
# tuple and, where the shapes match, as one stack
@pytest.mark.parametrize("case", list(UNJUDGEABLE))
def test_the_screen_skips_a_candidate_the_judge_cannot_judge(case):
    fn, slots = UNJUDGEABLE[case]
    rho = math.inf if case == "non-finite-image" else 1.5
    cfg = TrialConfig(DomainSpec("two_sided", rho), AdmissibleK((1,) * fn.arity), 0)
    well_formed = [np.diag([1.0, -1.0])] * fn.arity
    tuples = [slots, well_formed, slots]
    with np.errstate(over="ignore"):
        flags = _flags("exact", fn, cfg, tuples)
    assert flags == [False, True, False]
    if case not in SAME_SHAPE:
        return
    with pytest.MonkeyPatch.context() as m, np.errstate(over="ignore"):
        asked = _spy(m, "_make_witness")
        checked = harness._checks("exact", fn, cfg, "test", [np.stack(s) for s in zip(*tuples)], 0)
        assert [[a.tobytes() for a in one] for one, _ in checked] == [[a.tobytes() for a in t] for t in tuples]
        assert [pair is not None for _, pair in checked] == flags
        for _, pair in checked:
            if pair is not None:
                pair[1](*linalg._count(pair[0]))
        assert [args[2] for args in asked] == [checked[1][0]]


@pytest.mark.parametrize("claim,member", [("closure", True), ("bounded", False)])
def test_a_closure_slot_may_hold_fewer_negatives_than_k(claim, member):
    # one negative in a slot with k = 2: a member for closure only; its image breaks l = 0
    cfg = TrialConfig(DomainSpec("two_sided", 2.0), AdmissibleK((2,)), 0)
    slots = [np.diag([-1.0, 1.0, 1.0])]
    assert (harness._make_witness(claim, Homothety(1.0), slots, cfg, "test") is not None) == member
    assert _flags(claim, Homothety(1.0), cfg, [slots]) == [member]
