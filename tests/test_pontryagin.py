import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertia_lab.errors import ConfigError
from inertia_lab.linalg import SymMatrix, inertia, sym
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
