import hashlib
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
    DomainSpec,
    Inertia,
    SymMatrix,
    direct_sum,
    eig_sym,
    inertia,
    inertia_stack,
    is_member,
    sturm_count,
    sym,
)
from inertia_lab.pontryagin import gram_realize


def random_sym(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return SymMatrix(scale * (g + g.T) / 2.0)


# ---------------------------------------------------------------------------
# eigensolver against the LAPACK oracle
# ---------------------------------------------------------------------------

def _eig_input(rng, trial) -> np.ndarray:
    """A symmetric test array of one of five shapes, at a scale in [1e-150, 1e150]."""
    # every shape gets sizes above 12, where QL chains are long
    n = int(rng.integers(13, 65)) if (trial // 5) % 4 == 0 else int(rng.integers(1, 13))
    shape = trial % 5
    if shape == 0:  # dense
        g = rng.standard_normal((n, n))
        a = g + g.T
    elif shape == 1:  # repeated eigenvalues, zero among them
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * rng.choice([-1.0, 0.0, 2.0], size=n)) @ q.T
    elif shape == 2:  # diagonal with repeats and exact zeros
        a = np.diag(rng.choice([-1.5, 0.0, 1.0, float(rng.standard_normal())], size=n))
    elif shape == 3:  # already tridiagonal, some couplings exactly zero
        off = rng.standard_normal(n - 1) * (rng.uniform(size=n - 1) < 0.8)
        a = np.diag(rng.standard_normal(n)) + np.diag(off, 1) + np.diag(off, -1)
    else:  # dense with exact zero rows and columns
        g = rng.standard_normal((n, n))
        keep = rng.uniform(size=n) < 0.7
        a = (g + g.T) * np.outer(keep, keep)
    return a * 10.0 ** rng.uniform(-150.0, 150.0)


def test_eig_matches_lapack_on_random_matrices():
    rng = np.random.default_rng(20240811)
    for trial in range(500):
        a = SymMatrix(_eig_input(rng, trial))
        n, fro = a.n, a.fro
        lam, no_vectors = eig_sym(a)
        assert no_vectors is None
        oracle = np.linalg.eigvalsh(a.entries)
        # EIG_CONVERGENCE bounds the eigenvalue error
        assert np.max(np.abs(lam - oracle)) <= linalg.EIG_CONVERGENCE * fro, (trial, n)
        if trial % 5 == 2:
            assert lam.tolist() == sorted(np.diag(a.entries).tolist())
        # bitwise repeatable, and the same steps at every power-of-two scale
        assert eig_sym(a)[0].tobytes() == lam.tobytes()
        shift = -600 if fro > 1.0 else 600
        lam3, _ = eig_sym(SymMatrix(np.ldexp(a.entries, shift)))
        assert lam3.tobytes() == np.ldexp(lam, shift).tobytes()
        # the signed Gram factor that replaced the eigenvectors rebuilds A
        r = inertia(a, lam=lam).n_neg
        vecs, sig, err = gram_realize(a, r)
        assert sig == (n - r, r) and err <= 1e-12, (trial, n, err)


def test_eig_sorted_ascending():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_sym(rng, int(rng.integers(2, 9)))
        lam, _ = eig_sym(a)
        assert all(lam[i] <= lam[i + 1] for i in range(len(lam) - 1))


def test_eig_one_by_one():
    lam, q = eig_sym(sym([[3.5]]))
    assert lam[0] == 3.5
    assert q is None


def test_eig_diagonal_is_exact():
    a = sym(np.diag([3.0, -1.0, 2.0]))
    lam, _ = eig_sym(a)
    assert list(lam) == [-1.0, 2.0, 3.0]


def test_eig_raises_when_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_QL_ITERATIONS", 0)
    with pytest.raises(ConvergenceError):
        eig_sym(sym([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]))
    # an already diagonal matrix needs no iteration, nor does a 2x2 block
    lam, _ = eig_sym(sym(np.diag([2.0, -1.0, 0.5])))
    assert lam.tolist() == [-1.0, 0.5, 2.0]
    lam, _ = eig_sym(sym([[1.0, 2.0], [2.0, 1.0]]))
    assert lam.tolist() == [-1.0, 3.0]


def _pin_input(n: int) -> np.ndarray:
    i, j = np.indices((n, n))
    return ((7 * (i + j) + 3 * i * j) % 17 - 8).astype(float)


# sha256 of the eigenvalue bytes, recorded while eig_sym still formed
# eigenvectors: no change to the vectors, or their removal, moves a bit
PINNED_SPECTRA = {
    2: "e71a13d2e4151163fc5a674647b89ffeb82220a0bbf8643d2307886974e0a24e",
    3: "4b3965a07f55bb43f23c2f638ae0b3c5c9554856ba59a7fa5f12ce87233b6fa4",
    5: "e6ffe37591b3597816aa63f2b6672de2e1bb1abb52eb716a55eafc30109f2a0d",
    12: "d4ca88f970251e32a22567478b74fdf8f56cd9ad2de9b34c699a6296a83532f8",
    24: "df5bfd97c6b9098fa7995796086213de455a349da148f75aab1dc74e694fc252",
    63: "18a9c4414d524f7b4e6ed75d991bcb6d0a57a2fbeaa08c0513b2ae31d0512f27",
}


@pytest.mark.parametrize("n", sorted(PINNED_SPECTRA))
def test_eigenvalue_bytes_are_pinned(n):
    a = SymMatrix(_pin_input(n))
    assert hashlib.sha256(eig_sym(a)[0].tobytes()).hexdigest() == PINNED_SPECTRA[n]


def _block_input() -> SymMatrix:
    """Blocks of sizes 4, 2, 5, 1 and 3: the reduction skips a column at the
    end of each block, which the dense pinned inputs never do."""
    blocks = [_pin_input(4), np.diag([3.0, -2.0]), _pin_input(5)[::-1, ::-1], np.ones((1, 1)), _pin_input(3)]
    return SymMatrix(linalg._direct_sum(blocks))


def test_reduction_bytes_of_a_block_diagonal_input_are_pinned():
    # sha256 of (d, off), recorded before the reduction mirrored its rank-two
    # update in a scratch buffer
    a = _block_input()
    d, off = linalg._tridiagonalize(np.ldexp(a.entries, -a._e), linalg._EPS * a._s)
    assert [k for k, x in enumerate(off) if x == 0.0] == [3, 4, 5, 10, 11, 14]
    digest = hashlib.sha256(np.array(d).tobytes() + np.array(off).tobytes()).hexdigest()
    assert digest == "54d3567bf1f06f548a731a85dd7753ebeea8ea7bd96ef60f8b3e0b3eff07750c"


def test_a_one_by_one_reduction_has_a_zero_off_diagonal():
    assert linalg._tridiagonalize(np.array([[3.0]]), 0.0) == ([3.0], [0.0])
    d, off = linalg._tridiagonalize_stack(np.array([[[3.0]]]), np.zeros(1))
    assert (d.tolist(), off.tolist()) == ([[3.0]], [[0.0]])


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
    c = inertia(SymMatrix(np.outer(v, v)))
    assert c.n_neg + c.n_pos == 1


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


def test_symmatrix_equality():
    a = sym([[1.0, 2.0], [2.0, 1.0]])
    b = sym([[1.0, 2.0], [2.0, 1.0]])
    assert a == b
    with pytest.raises(TypeError):  # __eq__ compares entries and there is no __hash__
        hash(a)
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
# domains
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


def test_domain_check_takes_the_entry_array_as_the_matrix():
    dom = DomainSpec("two_sided", 2.0)
    dom.check_matrix(np.array([[1.0, 0.5], [0.5, -1.5]]))
    bad = [[1.0, 2.5], [2.5, -1.0]]
    messages = []
    for a in (sym(bad), np.array(bad)):
        with pytest.raises(DomainViolation) as err:
            dom.check_matrix(a, slot=3)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


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


@pytest.mark.parametrize("e", [-600, 0, 600])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_the_zero_rule_at_its_boundary(e, sign):
    # ||diag(1, t)||_F rounds to exactly 1 for t this small, so the eigenvalue
    # t * 2^e lies at ratio times the threshold REL_ZERO * 2^e
    nonzero = Inertia(1, 0, 1) if sign < 0 else Inertia(0, 0, 2)
    for ratio, want in ((0.9, Inertia(0, 1, 1)), (1.1, nonzero)):
        t = sign * ratio * linalg.REL_ZERO
        a = SymMatrix(np.ldexp(np.diag([1.0, t]), e))
        assert a.fro == math.ldexp(1.0, e)
        assert linalg.zero_threshold(a) == linalg.REL_ZERO * a.fro
        assert eig_sym(a)[0].tolist() == sorted([math.ldexp(1.0, e), math.ldexp(t, e)])
        assert inertia(a) == want


def test_symmetrizing_keeps_the_bytes_of_an_entry_pair_whose_sum_is_finite():
    # 2^1023 sits next to -2^1023: the branch for large entries averages
    # a + a^T wherever it is finite, as below 2^1023; halving first would
    # round the smallest subnormal pair to zero
    a = np.array([[0.0, 2.0**1023, 5e-324], [-(2.0**1023), 0.0, 1.0], [5e-324, 3.0, 0.0]])
    got = SymMatrix(a).entries
    assert got.tobytes() == (0.5 * (a + a.T) + 0.0).tobytes()

def test_a_matrix_whose_norm_overflows_keeps_a_finite_zero_rule():
    a = SymMatrix([[1.0, 1.7e308], [1.7e308, 1.0]])
    assert a.fro == math.inf
    assert linalg.zero_threshold(a) == pytest.approx(linalg.REL_ZERO * 1.7e308 * math.sqrt(2.0))
    assert inertia(a) == Inertia(1, 0, 1)

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


# ---------------------------------------------------------------------------
# stacks of zero-padded slices
# ---------------------------------------------------------------------------

def _oracle(a: np.ndarray) -> Inertia:
    lam = np.linalg.eigvalsh(a)
    thresh = linalg.REL_ZERO * float(np.linalg.norm(a))
    neg, pos = int(np.sum(lam < -thresh)), int(np.sum(lam > thresh))
    return Inertia(neg, a.shape[0] - neg - pos, pos)


def _lane(rng, n: int) -> tuple[np.ndarray, Inertia]:
    """A size-n slice with pinned inertia: all zero, inflated, or with zero rows."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return np.zeros((n, n)), Inertia(0, n, 0)
    s = int(rng.integers(1, n + 1))
    if kind == 1:  # exact zero eigenvalues from repeated rows
        a, want = _pinned(rng, int(rng.integers(0, s + 1)), s, n)
        return a.entries, want
    # exact zero rows and columns: the core sits on s random coordinates
    core, want = _pinned(rng, int(rng.integers(0, s + 1)), s, s)
    at = np.sort(rng.choice(n, size=s, replace=False))
    a = np.zeros((n, n))
    a[np.ix_(at, at)] = core.entries
    return a, Inertia(want.n_neg, n - s + want.n_zero, want.n_pos)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_stack_counts_match_inertia_and_eigvalsh_from_1e_minus_150_to_1e150(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 13, size=int(rng.integers(1, 25)))
    size = int(sizes.max()) + int(rng.integers(0, 3))
    stack = np.zeros((len(sizes), size, size))
    wants = []
    for b, n in enumerate(sizes):
        a, want = _lane(rng, int(n))
        stack[b, :n, :n] = a * 10.0 ** rng.uniform(-150.0, 150.0)
        wants.append(want)
    with np.errstate(**STRICT):
        got = [Inertia(*c) for c in inertia_stack(stack, sizes).tolist()]
        scalar = [inertia(SymMatrix(stack[b, :n, :n])) for b, n in enumerate(sizes)]
    assert got == wants
    assert scalar == wants
    assert [_oracle(stack[b, :n, :n]) for b, n in enumerate(sizes)] == wants


def test_stack_edge_cases():
    assert inertia_stack(np.zeros((0, 4, 4)), []).shape == (0, 3)
    one = np.array([[[0.0]], [[-2.0]], [[3e-200]]])
    assert inertia_stack(one, [1, 1, 1]).tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    # an all-zero slice has tau = 0; its exact zeros must not count as negative
    zeros = np.zeros((3, 5, 5))
    zeros[2, 0, 0] = -1.0
    assert inertia_stack(zeros, [5, 2, 3]).tolist() == [[0, 5, 0], [0, 2, 0], [1, 2, 0]]
    # the input stack is left as it is
    a = np.array([[[1.0, 2.0], [2.0, 1.0]]])
    assert inertia_stack(a, [2]).tolist() == [[1, 0, 1]]
    assert a.tolist() == [[[1.0, 2.0], [2.0, 1.0]]]


def test_a_column_every_lane_has_reduced_is_skipped():
    # a diagonal stack skips every column in every lane: it comes back bit
    # for bit, -0.0 included, with no update applied
    rng = np.random.default_rng(5)
    diag = rng.standard_normal((4, 6))
    diag[1, 2] = -0.0
    a = np.zeros((4, 6, 6))
    a[:, range(6), range(6)] = diag
    d, off = linalg._tridiagonalize_stack(a, np.full(4, 1e-16))
    assert d.tobytes() == diag.tobytes()
    assert off.tobytes() == np.zeros((4, 6)).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_stack_counts_of_lanes_that_share_block_boundaries(seed):
    # every lane splits at the same places, so those columns are skipped by
    # the whole stack while the others are reduced lane by lane
    rng = np.random.default_rng(seed)
    parts = _random_partition(12, 4, rng)
    stack = np.stack([
        linalg._direct_sum([random_sym(rng, len(p)).entries for p in parts]) for _ in range(7)
    ])
    stack[3, :5, :5] = 0.0  # a lane whose first block is already zero
    got = inertia_stack(stack, [12] * 7).tolist()
    assert got == [list(inertia(SymMatrix(a))) for a in stack]


# ---------------------------------------------------------------------------
# the scalar Sturm count
# ---------------------------------------------------------------------------

def _counted(a: SymMatrix) -> Inertia:
    """inertia(a) from sturm_count at -tau and +tau."""
    tau = linalg.zero_threshold(a)
    below, above = sturm_count(a, [-tau, tau])
    return Inertia(below, above - below, a.n - above)


def _spread(rng, n: int) -> SymMatrix:
    """Q diag(lam) Q^T with O(1) eigenvalues, some of them at 0, +-tau / 2 and
    +-2 tau: every one at least 1e-3 tau from +-tau."""
    lam = rng.standard_normal(n)
    lam[np.abs(lam) < 1e-3] = 1.0
    tau = linalg.REL_ZERO * float(np.linalg.norm(lam))
    small = rng.random(n) < 0.3
    lam[small] = tau * rng.choice([0.0, -0.5, 0.5, -2.0, 2.0], size=int(small.sum()))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return SymMatrix((q * lam) @ q.T)


def test_sturm_count_agrees_with_inertia_and_a_one_slice_stack():
    rng = np.random.default_rng(64)
    for n in range(1, 65):
        a = _spread(rng, n)
        tau = linalg.zero_threshold(a)
        gap = np.abs(np.abs(np.linalg.eigvalsh(a.entries)) - tau)
        assert np.min(gap) >= 1e-3 * tau  # the spectrum stays clear of +-tau
        want = inertia(a)
        assert _counted(a) == want
        assert Inertia(*inertia_stack(a.entries[None], [n])[0].tolist()) == want


@pytest.mark.parametrize("c", [2.0**-600, 2.0**600, 1e-150, 1e150])
def test_sturm_count_holds_across_scales_and_at_exact_zeros(c):
    rng = np.random.default_rng(600)
    for trial in range(40):
        # exact zero eigenvalues from repeated rows or from zero rows
        entries, want = _lane(rng, int(rng.integers(1, 13)))
        if not entries.any():
            continue  # the zero matrix has tau = 0; it is counted below
        a = SymMatrix(entries)
        with np.errstate(**STRICT):
            assert _counted(a) == want
            assert _counted(_scaled(a, c)) == want
    for n in (1, 2, 7):
        zero = SymMatrix(np.zeros((n, n)))
        # tau = 0: at -tau the floor alone would call every zero negative
        assert sturm_count(zero, [-1.0, -0.0, 0.0, 5e-324, 1.0]) == [0, 0, 0, n, n]
    # eigenvalues 0 and 2; the shift 1 makes the first pivot exactly zero,
    # which the pivmin floor takes as negative instead of dividing by it
    assert sturm_count(sym([[1.0, 1.0], [1.0, 1.0]]), [0.5, 1.0, 3.0]) == [1, 1, 2]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=2**32 - 1))
def test_sturm_counts_are_identical_under_power_of_two_scaling(n, seed):
    rng = np.random.default_rng(seed)
    a = random_sym(rng, n)
    # shifts on the eigenvalues themselves, where rounding decides the count
    shifts = np.concatenate([np.linalg.eigvalsh(a.entries), rng.standard_normal(3)]).tolist()
    counts = sturm_count(a, shifts)
    for j in (-600, -1, 1, 600):
        scaled = SymMatrix(np.ldexp(a.entries, j))
        assert sturm_count(scaled, [math.ldexp(s, j) for s in shifts]) == counts
