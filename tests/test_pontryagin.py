import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertia_lab import linalg, pontryagin
from inertia_lab.errors import ConfigError
from inertia_lab.linalg import REL_ZERO, SymMatrix, direct_sum, inertia, sym
from inertia_lab.pontryagin import (
    gram_of,
    gram_realize,
    leading_negativity_profile,
    stabilization_index,
)


def test_gram_of_plain_euclidean():
    vecs = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    g = gram_of(vecs, (2, 0))
    want = vecs @ vecs.T
    assert np.allclose(g.entries, want, atol=1e-15)


def test_gram_of_isotropic_vector():
    # (1, 1) has zero self-pairing under diag(+1, -1)
    vecs = np.array([[1.0, 1.0]])
    g = gram_of(vecs, (1, 1))
    assert g.entries[0, 0] == 0.0


def test_gram_of_signature_must_match_width():
    with pytest.raises(ConfigError):
        gram_of(np.eye(2), (2, 1))


def test_gram_realize_indefinite_diagonal():
    d = sym(np.diag([1.0, -1.0]))
    vecs, sig, err = gram_realize(d, 1)
    assert sig == (1, 1)
    assert err == 0.0
    assert np.array_equal(vecs, np.eye(2))


def test_gram_realize_pads_extra_minus_directions():
    d = sym(np.diag([2.0, 3.0]))
    vecs, sig, err = gram_realize(d, 2)
    assert sig == (2, 2)
    assert vecs.shape == (2, 4)
    assert np.allclose(vecs[:, 2:], 0.0)
    assert err < 1e-12


def test_gram_realize_rejects_too_many_negatives():
    d = sym(np.diag([1.0, -1.0, -2.0]))
    with pytest.raises(ConfigError):
        gram_realize(d, 1)


def test_gram_realize_round_trip_on_random_matrices():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        g = rng.standard_normal((n, n))
        a = SymMatrix(g + g.T)
        r = inertia(a).n_neg
        k = int(rng.integers(r, r + 3))
        vecs, sig, err = gram_realize(a, k)
        assert sig[1] == k
        assert sig[0] + sig[1] == vecs.shape[1]
        back = gram_of(vecs, sig)
        scale = max(1.0, float(np.abs(a.entries).max()))
        assert np.max(np.abs(back.entries - a.entries)) < 1e-8 * scale
        assert err < 1e-8


@pytest.mark.parametrize("c", [2.0**660, 2.0**-660], ids=["2^660", "2^-660"])
def test_gram_error_is_scale_free(c):
    rng = np.random.default_rng(12)
    errs = []
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n))
        a = SymMatrix(g + g.T)
        k = inertia(a).n_neg
        err = gram_realize(a, k)[2]
        # a power of two scales the factorization and its residual exactly
        assert gram_realize(SymMatrix(c * a.entries), k)[2] == err
        errs.append(err)
    assert max(errs) > 0.0
    assert gram_realize(SymMatrix(np.zeros((3, 3))), 0)[2] == 0.0


def test_gram_error_stays_positive_past_the_largest_double():
    # ||A||_F passes the largest double at 2^1023; the ratio comes from the
    # norms over 2^e, so it is still the residual's and not gap / inf = 0
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 6))
    a = (g + g.T) / np.max(np.abs(g + g.T))
    errs = {}
    for j in (-1000, 0, 1000, 1023):
        vecs, sig, errs[j] = gram_realize(SymMatrix(np.ldexp(a, j)), 6)
    assert errs[-1000] == errs[0] == errs[1000] > 0.0
    assert not math.isfinite(SymMatrix(np.ldexp(a, 1023)).fro)
    # numpy's residual of the same vectors, all scaled down by 2^-1000
    v = np.ldexp(vecs, -500)
    j_diag = np.concatenate([np.ones(sig[0]), -np.ones(sig[1])])
    ref = np.ldexp(a, 23)
    want = np.linalg.norm((v * j_diag) @ v.T - ref) / np.linalg.norm(ref)
    assert errs[1023] > 0.0
    assert errs[1023] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_a_subnormal_matrix_counts_its_zero_eigenvalue_as_zero(k):
    # REL_ZERO * ||A||_F underflows to 0.0 below about 5e-315; the count is
    # taken on A / 2^e at its threshold, as the elimination is, so the zero
    # eigenvalue stays a plus direction at every binade
    for scale in (1.0, 1e-300, 1e-315, 5e-324):
        a = SymMatrix([[0.0, 0.0], [0.0, -scale]])
        assert inertia(a) == (1, 1, 0)
        vecs, sig, err = gram_realize(a, k)
        assert sig == (1, k) and err == 0.0


def test_profile_of_hollow_ones():
    h = sym(np.ones((4, 4)) - np.eye(4))
    assert leading_negativity_profile(h) == [0, 1, 2, 3]


def test_profile_of_psd_matrix_is_zero():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((5, 5))
    assert leading_negativity_profile(SymMatrix(g @ g.T)) == [0, 0, 0, 0, 0]


def test_profile_counts_match_leading_blocks():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        g = rng.standard_normal((n, n))
        a = SymMatrix(g + g.T)
        prof = leading_negativity_profile(a)
        assert len(prof) == n
        for j in range(1, n + 1):
            top = SymMatrix(a.entries[:j, :j])
            assert prof[j - 1] == inertia(top).n_neg
        # interlacing: each step changes the count by at most one
        for j in range(1, n):
            assert abs(prof[j] - prof[j - 1]) <= 1


def test_stabilization_index_examples():
    assert stabilization_index([0, 1, 1, 1], 1) == 2
    assert stabilization_index([0, 0, 0], 2) == 1
    assert stabilization_index([0, 1, 2, 3], 3) == 4
    assert stabilization_index([0, 0, 1, 2, 2, 2], 2) == 4


def test_stabilization_index_unsettled_tail():
    # ends on a strict increase below the cap: too early to call
    assert stabilization_index([0, 0, 1], 2) is None
    # same tail at the cap is final
    assert stabilization_index([0, 0, 1], 1) == 3


def test_stabilization_index_rejects_profile_above_cap():
    with pytest.raises(ConfigError) as exc:
        stabilization_index([0, 1, 2], 1)
    assert "exceeds the cap" in str(exc.value)


def test_stabilization_index_rejects_empty_profile():
    with pytest.raises(ConfigError):
        stabilization_index([], 1)


@pytest.mark.parametrize(
    "profile", [[0, 1.5], [0, 1.0], [True, True], [0, "1"], [np.float64(0.0)], [np.True_], [None]],
    ids=["fraction", "whole-float", "bools", "string", "numpy-float", "numpy-bool", "none"],
)
def test_stabilization_index_refuses_entries_that_are_not_ints(profile):
    with pytest.raises(ConfigError, match="profile value must be an int"):
        stabilization_index(profile, 2)


def test_stabilization_index_takes_numpy_ints_and_keeps_its_range_messages():
    assert stabilization_index([np.int64(0), np.int32(1), np.uint8(1)], 1) == 2
    with pytest.raises(ConfigError, match="must be nonnegative"):
        stabilization_index([0, np.int64(-1)], 1)
    with pytest.raises(ConfigError, match="exceeds the cap"):
        stabilization_index([np.int64(2)], 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=3))
def test_gram_realize_signature_counts(n, extra):
    rng = np.random.default_rng(n * 17 + extra)
    g = rng.standard_normal((n, n))
    a = SymMatrix(g + g.T)
    tri = inertia(a)
    k = tri.n_neg + extra
    vecs, (plus, minus), err = gram_realize(a, k)
    assert plus == tri.n_pos + tri.n_zero or plus == n - tri.n_neg
    assert minus == k
    assert err < 1e-8


# ---------------------------------------------------------------------------
# the signed Gram factor by Bunch-Parlett elimination
# ---------------------------------------------------------------------------

def _round_trip(a: SymMatrix, k: int) -> np.ndarray:
    """gram_realize's vectors at k, checked: signature (n - r, k) and relative error <= 1e-12."""
    r = inertia(a).n_neg
    vecs, sig, err = gram_realize(a, k)
    assert sig == (a.n - r, k) and vecs.shape == (a.n, a.n - r + k)
    assert err <= 1e-12
    j = np.concatenate([np.ones(sig[0]), -np.ones(k)])
    assert np.linalg.norm((vecs * j) @ vecs.T - a.entries) <= 1e-12 * a.fro
    return vecs


def test_a_zero_diagonal_takes_a_jacobi_split_2x2_pivot():
    # no diagonal entry can pivot, so [[0, 1], [1, 0]] is split into one plus
    # and one minus direction, (1, 1) / sqrt(2) and (1, -1) / sqrt(2)
    vecs = _round_trip(sym([[0.0, 1.0], [1.0, 0.0]]), 1)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(vecs, [[s, s], [s, -s]], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5, 9, 16])
def test_hollow_ones_round_trip(n):
    h = sym(np.ones((n, n)) - np.eye(n))
    assert inertia(h).n_neg == n - 1
    for k in (n - 1, n + 1):
        _round_trip(h, k)


def test_direct_sums_of_hollow_2x2_blocks_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        blocks = [b * np.array([[0.0, 1.0], [1.0, 0.0]]) for b in rng.choice([-3.0, 0.5, 2e-3, 7.0], size=4)]
        if rng.uniform() < 0.5:
            blocks.append(np.diag(rng.standard_normal(2)))
        order = rng.permutation(2 * len(blocks))
        a = SymMatrix(direct_sum([SymMatrix(b) for b in blocks]).entries[np.ix_(order, order)])
        _round_trip(a, inertia(a).n_neg)


@pytest.mark.parametrize("signs", [(1, 1), (1, 1, -1), (-1, -1, 1, -1)], ids=["psd-2", "indef-3", "indef-4"])
def test_low_rank_matrices_stop_after_their_rank(signs):
    # rank len(signs): the Schur complement left after that many pivots is
    # rounding noise, far below the stop rule's tau / m
    rng = np.random.default_rng(len(signs))
    for n in (6, 12, 24):
        b = rng.standard_normal((n, len(signs)))
        a = SymMatrix((b * np.array(signs, dtype=float)) @ b.T)
        r = signs.count(-1)
        assert inertia(a).n_neg == r
        vecs = _round_trip(a, r + 1)
        used = np.any(vecs != 0.0, axis=0)
        assert int(np.sum(used[: n - r])) == len(signs) - r
        assert int(np.sum(used[n - r :])) == r


@pytest.mark.parametrize(
    "head", [np.eye(3), np.array([[0.0, 1.0], [1.0, 0.0]])], ids=["1x1-pivots", "2x2-pivot"]
)
def test_the_stop_rule_counts_the_rows_left(head):
    # a last diagonal entry of 1e-9 lies below tau / m for the one row left,
    # but above tau / n: elimination stops before it
    n = len(head) + 1
    a = np.zeros((n, n))
    a[:-1, :-1] = head
    a[-1, -1] = 1e-9
    vecs, _, _ = gram_realize(SymMatrix(a), 1)
    assert int(np.sum(np.any(vecs != 0.0, axis=0))) == n - 1


def test_the_zero_matrix_factors_to_zero_vectors():
    vecs, sig, err = gram_realize(SymMatrix(np.zeros((3, 3))), 2)
    assert sig == (3, 2) and err == 0.0
    assert vecs.shape == (3, 5) and not np.any(vecs)


@pytest.mark.parametrize("n", [16, 33, 64])
def test_round_trips_up_to_n_64(n):
    rng = np.random.default_rng(n)
    for trial in range(4):
        if trial % 2:  # a spread spectrum, every fourth value negated
            lam = np.geomspace(0.1, 10.0, n)
            lam[1::4] *= -1.0
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = SymMatrix((q * lam) @ q.T)
        else:
            g = rng.standard_normal((n, n))
            a = SymMatrix(g + g.T)
        r = inertia(a).n_neg
        _round_trip(a, r)
        _round_trip(a, r + 2)


@pytest.mark.parametrize("seed", range(3))
def test_gram_factor_of_tight_clusters_round_trips(seed):
    # the eigenvalue clusters that once tested the orthogonality of eig_sym's vectors
    rng = np.random.default_rng(seed)
    n = 64
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam0 = 1.0 + 1e-12 * rng.standard_normal(n)
    if seed:  # two clusters, at -1 and at 1
        lam0[: n // 2] -= 2.0
    a = SymMatrix((q * lam0) @ q.T)
    _round_trip(a, int(np.sum(lam0 < 0.0)))


# eigenvalues 2 and -1.5e-9: the zero rule (threshold 2e-9) calls the second
# zero, but the last pivot, -3e-9 / 4 on A / 4, passes the stop rule's tau
NEAR_ZERO = [[1.0, 1.0], [1.0, 1.0 - 3e-9]]


def test_a_near_zero_minus_pivot_is_padded_to_the_signature_within_k():
    a = sym(NEAR_ZERO)
    assert inertia(a) == (0, 1, 1)
    vecs = _round_trip(a, 1)
    # one plus column, the zero pad of the zero eigenvalue, one minus column
    assert np.any(vecs[:, 0]) and not np.any(vecs[:, 1]) and np.any(vecs[:, 2])


def test_a_near_zero_minus_pivot_above_k_is_refused():
    with pytest.raises(ConfigError, match=r"eigenvalue -1\.500e-09 counts as zero.*more than k = 0"):
        gram_realize(sym(NEAR_ZERO), 0)


def test_a_factor_forms_no_eigenvalue_unless_it_refuses(monkeypatch):
    calls = []
    real = pontryagin.eig_sym
    monkeypatch.setattr(pontryagin, "eig_sym", lambda a: calls.append(a.n) or real(a))
    rng = np.random.default_rng(21)
    for n in (1, 2, 5, 24, 63):
        g = rng.standard_normal((n, n))
        a = SymMatrix(g + g.T)
        _round_trip(a, inertia(a).n_neg + n % 3)
    _round_trip(sym(NEAR_ZERO), 1)
    _round_trip(SymMatrix(np.zeros((3, 3))), 0)
    assert calls == []
    # the refusal that names a zero-counted eigenvalue is the one that solves
    with pytest.raises(ConfigError, match="counts as zero"):
        gram_realize(sym(NEAR_ZERO), 0)
    assert calls == [2]


# ---------------------------------------------------------------------------
# the profile by one certified elimination, the rest on the stack
# ---------------------------------------------------------------------------

def _spy_stacks(monkeypatch) -> list[tuple[int, list[int]]]:
    """Record (entries, block sizes) of every inertia_stack call the profile makes."""
    calls = []
    real = linalg.inertia_stack

    def spy(a, n):
        calls.append((np.asarray(a).size, [int(j) for j in n]))
        return real(a, n)

    monkeypatch.setattr(linalg, "inertia_stack", spy)
    return calls


def test_profile_of_n_100_matches_every_leading_block(monkeypatch):
    # the elimination certifies every block of a generic matrix: none is stacked
    calls = _spy_stacks(monkeypatch)
    rng = np.random.default_rng(100)
    g = rng.standard_normal((100, 100))
    a = SymMatrix(g + g.T)
    prof = leading_negativity_profile(a)
    assert calls == []
    assert prof == [inertia(SymMatrix(a.entries[:j, :j])).n_neg for j in range(1, 101)]


def test_a_seeded_n_64_profile_makes_no_stack_call(monkeypatch):
    calls = _spy_stacks(monkeypatch)
    rng = np.random.default_rng(64)
    lam = np.geomspace(0.1, 10.0, 64)
    lam[1::4] *= -1.0
    q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
    a = SymMatrix((q * lam) @ q.T)
    prof = leading_negativity_profile(a)
    assert calls == []
    assert prof[-1] == 16
    assert prof == [_eigvalsh_neg(a.entries[:j, :j]) for j in range(1, 65)]


@pytest.mark.parametrize(
    "rows, want, stacked",
    [
        # -1 sits far below -tau_1 but above sigma_lo = -2 tau_2: neither
        # block's bracket holds, and the stack counts both
        ([[-1.0, 0.0], [0.0, 1e10]], [1, 0], [1, 2]),
        # the first two blocks are certified; the third has -1 between sigma_lo and sigma_hi
        ([[1.0, 0.0, 0.0], [0.0, 1e10, 0.0], [0.0, 0.0, -1.0]], [0, 0, 0], [3]),
    ],
    ids=["both-stacked", "last-stacked"],
)
def test_the_stack_counts_exactly_the_uncertified_blocks(monkeypatch, rows, want, stacked):
    calls = _spy_stacks(monkeypatch)
    assert leading_negativity_profile(sym(rows)) == want
    assert [sizes for _, sizes in calls] == [stacked]


def test_profile_stacks_keep_under_a_small_cap_or_hold_one_block(monkeypatch):
    # with a_11 = 0 the first pivot at sigma_hi = -tau_1 / 2 = 0 vanishes, so
    # no block is certified and all 30 go to the packer
    rng = np.random.default_rng(30)
    g = rng.standard_normal((30, 30))
    a = g + g.T
    a[0, 0] = 0.0
    a = SymMatrix(a)
    want = [inertia(SymMatrix(a.entries[:j, :j])).n_neg for j in range(1, 31)]
    monkeypatch.setattr(linalg, "STACK_ENTRIES", 300)
    calls = _spy_stacks(monkeypatch)
    assert leading_negativity_profile(a) == want
    assert len(calls) > 10 and [j for _, sizes in calls for j in sizes] == list(range(1, 31))
    assert all(entries <= 300 or len(sizes) == 1 for entries, sizes in calls)


def test_subnormal_blocks_go_to_the_stack():
    # a leading block of subnormal entries: without the underflow term in the
    # error bound, the elimination would certify [0, 0, 0] for its counts
    rows = [
        [2.493e-320, -1.8725e-320, 1.86e-320, 0.0],
        [-1.8725e-320, 8.4727e-320, 7.08e-321, 0.0],
        [1.86e-320, 7.08e-321, 2.015e-320, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
    a = np.array(rows)
    stack = [int(linalg.inertia_stack(a[None, :j, :j], [j])[0, 0]) for j in range(1, 5)]
    assert stack == [0, 0, 1, 0]
    assert leading_negativity_profile(sym(rows)) == stack


# ---------------------------------------------------------------------------
# the profile against each leading block's own count
# ---------------------------------------------------------------------------

def _profile_inputs() -> list[np.ndarray]:
    """Seeded symmetric arrays, n up to 64: generic, with exact zeros, with
    a_11 = 0, rank-deficient, and direct sums of blocks 1e10 apart."""
    rng = np.random.default_rng(2028)
    out = []
    for n in (1, 2, 3, 5, 8, 13, 24, 40, 64):
        g = rng.standard_normal((n, n))
        a = g + g.T
        keep = np.triu(rng.uniform(size=(n, n)) < 0.4)
        sparse = np.where(keep | keep.T, a, 0.0)
        hollow = a.copy()
        hollow[0, 0] = 0.0
        b = rng.standard_normal((n, max(1, n // 3)))
        low = (b * rng.choice([-1.0, 1.0], size=b.shape[1])) @ b.T
        out += [a, sparse, hollow, low]
        if n > 1:
            h = rng.standard_normal((n, n))
            cut = n // 2
            small, big = (h + h.T)[:cut, :cut], 1e10 * (h + h.T)[cut:, cut:]
            out += [direct_sum([SymMatrix(small), SymMatrix(big)]).entries,
                    direct_sum([SymMatrix(big), SymMatrix(small)]).entries]
    return out


def _eigvalsh_neg(a: np.ndarray) -> int:
    lam = np.linalg.eigvalsh(a)
    return int(np.sum(lam < -REL_ZERO * np.linalg.norm(a)))


def test_profile_equals_every_blocks_stack_count_and_eigvalsh_count():
    for a in _profile_inputs():
        n = len(a)
        prof = leading_negativity_profile(SymMatrix(a))
        stack = [int(linalg.inertia_stack(a[None, :j, :j], [j])[0, 0]) for j in range(1, n + 1)]
        assert prof == stack == [_eigvalsh_neg(a[:j, :j]) for j in range(1, n + 1)]


@pytest.mark.parametrize("c", [2.0**600, 2.0**-600, 1e150, 1e-150], ids=["2^600", "2^-600", "1e150", "1e-150"])
def test_profile_is_scale_free(c):
    for a in _profile_inputs():
        assert leading_negativity_profile(SymMatrix(c * a)) == leading_negativity_profile(SymMatrix(a))
