import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertia_lab import linalg
from inertia_lab.constructions import block_pair, inflate
from inertia_lab.errors import (
    AsymmetryError,
    ConfigError,
    ConvergenceError,
    DomainViolation,
)
from inertia_lab.harness import _random_partition
from inertia_lab.linalg import (
    DEFAULT_TOL,
    DomainSpec,
    Inertia,
    SymMatrix,
    TolerancePolicy,
    direct_sum,
    eig_sym,
    hadamard_power,
    inertia,
    is_member,
    loewner_geq,
    rank,
    schur_product,
    sym,
)


def random_sym(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return SymMatrix(scale * (g + g.T) / 2.0)


# ---------------------------------------------------------------------------
# eigensolver against the LAPACK oracle
# ---------------------------------------------------------------------------

def test_eig_matches_lapack_on_random_matrices():
    rng = np.random.default_rng(20240811)
    for trial in range(500):
        n = int(rng.integers(1, 13))
        a = random_sym(rng, n, scale=float(rng.uniform(0.01, 50.0)))
        lam, q = eig_sym(a)
        oracle = np.linalg.eigvalsh(a.entries)
        scale = max(1.0, a.fro)
        assert np.max(np.abs(lam - oracle)) <= 1e-10 * scale, (trial, n)
        # reconstruction and orthogonality
        rebuilt = (q * lam) @ q.T
        assert np.linalg.norm(rebuilt - a.entries) <= 1e-9 * scale
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-10


def test_eig_sorted_ascending():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_sym(rng, int(rng.integers(2, 9)))
        lam, _ = eig_sym(a)
        assert all(lam[i] <= lam[i + 1] for i in range(len(lam) - 1))


def test_eig_one_by_one():
    lam, q = eig_sym(sym([[3.5]]))
    assert lam[0] == 3.5
    assert q[0, 0] == 1.0


def test_eig_diagonal_is_exact():
    a = sym(np.diag([3.0, -1.0, 2.0]))
    lam, _ = eig_sym(a)
    assert list(lam) == [-1.0, 2.0, 3.0]


def test_eig_raises_when_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError):
        eig_sym(sym([[1.0, 2.0], [2.0, 1.0]]))
    # an already diagonal matrix needs no sweep
    lam, _ = eig_sym(sym([[2.0, 0.0], [0.0, -1.0]]))
    assert lam.tolist() == [-1.0, 2.0]


# ---------------------------------------------------------------------------
# inertia on pinned examples
# ---------------------------------------------------------------------------

def test_inertia_identity():
    assert inertia(sym(np.eye(4))) == Inertia(0, 0, 4)


def test_inertia_indefinite_2x2():
    assert inertia(sym([[1.0, 2.0], [2.0, 1.0]])) == Inertia(1, 0, 1)


def test_inertia_with_zero_eigenvalue():
    assert inertia(sym(np.ones((3, 3)))) == Inertia(0, 2, 1)


def test_inertia_base_pencil_matrix():
    a = sym([[4.0, 2.0, 3.0], [2.0, 1.0, 2.0], [3.0, 2.0, 4.0]])
    assert inertia(a) == Inertia(1, 0, 2)
    lam, _ = eig_sym(a)
    expected = [4.0 - math.sqrt(17.0), 1.0, 4.0 + math.sqrt(17.0)]
    assert np.max(np.abs(lam - np.array(expected))) < 1e-12


def test_inertia_equicorrelation_frozen_spectra():
    # (a - b) Id + b * ones at k=2, a=1, b=3 has eigenvalues {-2, -2, 7}
    a = sym((1.0 - 3.0) * np.eye(3) + 3.0 * np.ones((3, 3)))
    lam, _ = eig_sym(a)
    assert np.allclose(lam, [-2.0, -2.0, 7.0], atol=1e-12)
    assert inertia(a) == Inertia(2, 0, 1)


def test_inertia_scaling_invariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = random_sym(rng, int(rng.integers(1, 8)))
        c = float(rng.uniform(0.1, 100.0))
        assert inertia(a) == inertia(SymMatrix(c * a.entries))


def test_inertia_orthogonal_conjugation_invariance():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        a = random_sym(rng, n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = SymMatrix(q @ a.entries @ q.T)
        assert inertia(a) == inertia(b)


def test_rank_of_outer_product():
    v = np.array([1.0, 2.0, 3.0])
    assert rank(SymMatrix(np.outer(v, v))) == 1


# ---------------------------------------------------------------------------
# SymMatrix container behaviour
# ---------------------------------------------------------------------------

def test_symmatrix_is_immutable():
    a = sym([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


def test_symmatrix_symmetrizes_construction_input():
    a = SymMatrix(np.array([[1.0, 2.0], [4.0, 1.0]]))
    assert a.entries[0, 1] == a.entries[1, 0] == 3.0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_symmatrix_matches_the_mirrored_average_bitwise(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 301, size=(n, n))
    a[rng.uniform(size=(n, n)) < 0.3] = 0.0
    a *= rng.choice([-1.0, 1.0], size=(n, n))  # signed zeros
    avg = 0.5 * (a + a.T)
    mirrored = np.triu(avg) + np.triu(avg, 1).T
    with np.errstate(over="ignore"):  # ||A||_F may overflow; only entries are compared
        got = SymMatrix(a).entries
    assert got.tobytes() == mirrored.tobytes()


def test_symmatrix_equality_and_hash():
    a = sym([[1.0, 2.0], [2.0, 1.0]])
    b = sym([[1.0, 2.0], [2.0, 1.0]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != sym([[1.0, 2.0], [2.0, 1.5]])


def test_symmatrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ConfigError):
        SymMatrix(np.ones((2, 3)))
    with pytest.raises(ConfigError):
        SymMatrix(np.array([[np.nan]]))


def test_json_round_trip_rejects_asymmetric_payload():
    good = sym([[0.0, 1.0], [1.0, 0.0]])
    d = good.to_json_dict()
    assert SymMatrix.from_json_dict(d) == good
    d["rows"][0][1] = 2.0
    with pytest.raises(AsymmetryError):
        SymMatrix.from_json_dict(d)


def test_json_dict_strict_keys():
    with pytest.raises(ConfigError):
        SymMatrix.from_json_dict({"n": 1, "rows": [[1.0]], "extra": 1})


# ---------------------------------------------------------------------------
# domains and tolerances
# ---------------------------------------------------------------------------

def test_domain_membership_two_sided_bounded():
    dom = DomainSpec("two_sided", 2.0)
    assert dom.contains(1.99) and dom.contains(-1.99)
    assert not dom.contains(2.0) and not dom.contains(-2.5)


def test_domain_membership_one_sided():
    op = DomainSpec("open_positive", 1.0)
    cl = DomainSpec("closed_left", 1.0)
    assert not op.contains(0.0) and cl.contains(0.0)
    assert op.contains(0.5) and not op.contains(1.0)


def test_domain_violation_reports_position_and_slot():
    dom = DomainSpec("open_positive", math.inf)
    bad = sym([[1.0, -3.0], [-3.0, 1.0]])
    with pytest.raises(DomainViolation) as err:
        dom.check_matrix(bad, slot=2)
    assert err.value.row == 0 and err.value.col == 1
    assert err.value.slot == 2
    assert "-3.0" in str(err.value)


def test_domain_json_round_trip_with_infinite_radius():
    dom = DomainSpec("closed_left", math.inf)
    d = dom.to_json_dict()
    assert d["rho"] == "inf"
    assert DomainSpec.from_json_dict(d) == dom


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, -math.inf, 1e-151, 1e151])
def test_domain_radius_must_be_inf_or_within_range(rho):
    with pytest.raises(ConfigError):
        DomainSpec("two_sided", rho)


def test_domain_radius_range_is_closed():
    assert DomainSpec("two_sided", linalg.RHO_MIN).rho == 1e-150
    assert DomainSpec("closed_left", linalg.RHO_MAX).rho == 1e150


def test_tolerance_policy_validation():
    with pytest.raises(ConfigError):
        TolerancePolicy(rel_zero=0.5)
    # below the eigensolver's stop, the eigenvalue error could cross the threshold
    with pytest.raises(ConfigError):
        TolerancePolicy(rel_zero=1e-14)
    assert TolerancePolicy(rel_zero=linalg.EIG_CONVERGENCE).rel_zero == 1e-13
    with pytest.raises(ConfigError):
        TolerancePolicy.from_json_dict({"rel_zero": 1e-9, "eig_convergence": 1e-13})
    t = TolerancePolicy()
    assert TolerancePolicy.from_json_dict(t.to_json_dict()) == t


def test_is_member_exact_and_closure():
    dom = DomainSpec()
    a = sym(np.diag([-1.0, -1.0, 3.0]))
    assert is_member(a, 2, dom)
    assert not is_member(a, 1, dom)
    assert is_member(a, 3, dom, closure=True)
    off = DomainSpec("open_positive", math.inf)
    assert not is_member(a, 2, off)  # entries are out of domain


# ---------------------------------------------------------------------------
# matrix algebra helpers
# ---------------------------------------------------------------------------

def test_loewner_comparison():
    a = sym([[3.0, 5.0], [5.0, 9.0]])
    z = sym(np.zeros((2, 2)))
    assert loewner_geq(a, z)
    assert not loewner_geq(z, a)
    assert loewner_geq(a, a)


def test_schur_product_and_psd_closure():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        g1 = rng.standard_normal((n, n + 1))
        g2 = rng.standard_normal((n, n + 1))
        a = SymMatrix(g1 @ g1.T)
        b = SymMatrix(g2 @ g2.T)
        assert inertia(schur_product(a, b)).n_neg == 0


def test_hadamard_power_zero_exponent_is_ones():
    a = sym([[0.0, 2.0], [2.0, 0.0]])
    out = hadamard_power((a,), (0,))
    assert np.array_equal(out.entries, np.ones((2, 2)))


def test_hadamard_power_multi_slot():
    a = sym([[2.0, 1.0], [1.0, 2.0]])
    b = sym([[3.0, 1.0], [1.0, 3.0]])
    out = hadamard_power((a, b), (1, 2))
    assert out.entries[0, 0] == 2.0 * 9.0
    assert out.entries[0, 1] == 1.0


def test_direct_sum_block_layout():
    a = sym([[1.0]])
    b = sym([[2.0, 0.0], [0.0, 3.0]])
    out = direct_sum([a, b])
    assert out.n == 3
    assert out.entries[0, 0] == 1.0 and out.entries[2, 2] == 3.0
    assert out.entries[0, 1] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_inertia_counts_always_total_n(n, seed):
    rng = np.random.default_rng(seed)
    a = random_sym(rng, n)
    ine = inertia(a)
    assert ine.n_neg + ine.n_zero + ine.n_pos == n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_negation_swaps_inertia(seed):
    rng = np.random.default_rng(seed)
    a = random_sym(rng, int(rng.integers(1, 7)))
    ine = inertia(a)
    neg = inertia(SymMatrix(-a.entries))
    assert (ine.n_neg, ine.n_zero, ine.n_pos) == (neg.n_pos, neg.n_zero, neg.n_neg)


# ---------------------------------------------------------------------------
# the zero rule is scale-free
# ---------------------------------------------------------------------------

def _pinned(rng, k: int, s: int, n: int) -> tuple[SymMatrix, Inertia]:
    """Q diag(lam) Q^T with k of its s eigenvalues negative and |lam| in
    [0.1, 1], inflated to size n (n - s exact zeros), and its inertia."""
    q, _ = np.linalg.qr(rng.standard_normal((s, s)))
    signs = np.where(np.arange(s) < k, -1.0, 1.0)
    core = SymMatrix((q * (signs * rng.uniform(0.1, 1.0, size=s))) @ q.T)
    return inflate(core, _random_partition(n, s, rng)), Inertia(k, n - s, s - k)


def _scaled(a: SymMatrix, c: float) -> SymMatrix:
    return SymMatrix(c * a.entries)


PINNED = st.tuples(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
).map(lambda t: (t[0], t[0] + t[1], t[2]))

SCALES = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


# overflow, division by zero and NaNs raise; underflow to zero is expected
STRICT = dict(over="raise", divide="raise", invalid="raise")


@settings(max_examples=80, deadline=None)
@given(PINNED, SCALES)
def test_inertia_is_scale_free_from_1e_minus_300_to_1e300(sizes, c):
    s, n, seed = sizes
    rng = np.random.default_rng(seed)
    a, want = _pinned(rng, int(rng.integers(0, s + 1)), s, n)
    with np.errstate(**STRICT):
        assert inertia(a) == want
        assert inertia(_scaled(a, c)) == want
        # the eigensolver's stop is relative too: the spectrum scales with A
        lam = eig_sym(_scaled(a, c))[0] / c
    assert np.max(np.abs(lam - np.linalg.eigvalsh(a.entries))) <= 1e-12 * a.fro


def test_counts_at_the_ends_of_the_double_range():
    with np.errstate(**STRICT):
        big = SymMatrix(1e160 * np.diag([-1.0, 1.0, 2.0]))
        assert big.fro == pytest.approx(1e160 * math.sqrt(6.0))
        assert inertia(big) == Inertia(1, 0, 2)
        # eigenvalues -1, 3, 3 (times 1e-170): the off-diagonal 2e-170 squares to 0
        small = SymMatrix(1e-170 * np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]]))
        assert inertia(small) == Inertia(1, 0, 2)
        assert eig_sym(small)[0] / 1e-170 == pytest.approx([-1.0, 3.0, 3.0])


def test_tiny_matrix_keeps_its_negative_eigenvalue():
    a = SymMatrix(1e-10 * np.diag([-1.0, 1.0, 2.0]))
    assert inertia(a) == Inertia(1, 0, 2)
    assert inertia(SymMatrix(np.zeros((3, 3)))) == Inertia(0, 3, 0)


@settings(max_examples=60, deadline=None)
@given(PINNED, SCALES)
def test_negation_swap_and_block_pair_identity_are_scale_free(sizes, c):
    s, n, seed = sizes
    rng = np.random.default_rng(seed)
    p, p_in = _pinned(rng, int(rng.integers(0, s + 1)), s, n)
    m, m_in = _pinned(rng, int(rng.integers(0, s + 1)), s, n)
    # [[A, B], [B, A]] with A + B = P and A - B = M carries both inertias
    half_sum = _scaled(SymMatrix(p.entries + m.entries), 0.5 * c)
    half_gap = _scaled(SymMatrix(p.entries - m.entries), 0.5 * c)
    with np.errstate(**STRICT):
        assert inertia(_scaled(p, -c)) == Inertia(p_in.n_pos, p_in.n_zero, p_in.n_neg)
        pair = inertia(block_pair(half_sum, half_gap))
    assert pair == Inertia(*(x + y for x, y in zip(p_in, m_in)))


# sizes (s, n, seed) with n <= 8, and scales c from 1e-150 to 1e150, where
# every entry and every square of an entry is a normal double
SMALL_PINNED = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**32 - 1),
).map(lambda t: (t[0], t[0] + t[1], t[2]))

MID_SCALES = st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None)
@given(SMALL_PINNED, MID_SCALES)
def test_congruence_keeps_the_inertia_from_1e_minus_150_to_1e150(sizes, c):
    s, n, seed = sizes
    rng = np.random.default_rng(seed)
    a, want = _pinned(rng, int(rng.integers(0, s + 1)), s, n)
    # S = Q diag(d) with d in [0.5, 2]: by Ostrowski every nonzero eigenvalue
    # of S A S^T is A's times a factor in [0.25, 4], so none comes near zero
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s_mat = q * rng.uniform(0.5, 2.0, size=n)
    image = s_mat @ a.entries @ s_mat.T
    with np.errstate(all="raise"):
        assert inertia(SymMatrix(c * image)) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1), MID_SCALES)
def test_rank_one_updates_interlace_from_1e_minus_150_to_1e150(n, seed, c):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, n + 1))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.where(np.arange(n) < k, -1.0, 1.0)
    a = (q * (signs * rng.uniform(0.2, 1.0, size=n))) @ q.T
    v = rng.standard_normal(n)
    bump = rng.uniform(0.1, 2.0) * np.outer(v, v)
    # no eigenvalue of A lies in (-0.2, 0.2), and the update's eigenvalues
    # interlace A's, so at most one of them can come near zero
    with np.errstate(all="raise"):
        up = inertia(SymMatrix(c * (a + bump))).n_neg
        down = inertia(SymMatrix(c * (a - bump))).n_neg
    assert up in (k - 1, k)
    assert down in (k, k + 1)
