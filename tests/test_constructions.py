import math

import numpy as np
import pytest

from inertia_lab.constructions import (
    block_pair,
    embed_with_negatives,
    equicorrelation,
    inflate,
    lift_finite,
    ones_orthogonal_basis,
    ones_pencil,
    ones_spike,
    pencil_base,
    replicated_block,
    two_by_two_pair,
    vandermonde_psd,
    weight_matrix,
)
from inertia_lab.errors import ConfigError
from inertia_lab.linalg import Inertia, SymMatrix, eig_sym, inertia, sym


def test_pencil_base_spectrum():
    lam, _ = eig_sym(pencil_base())
    want = [4.0 - math.sqrt(17.0), 1.0, 4.0 + math.sqrt(17.0)]
    assert np.max(np.abs(lam - np.array(want))) < 1e-12
    assert inertia(pencil_base()) == Inertia(1, 0, 2)
    # entries stay strictly inside (0, 5)
    e = pencil_base().entries
    assert e.min() > 0.0 and e.max() < 5.0


def test_ones_pencil_single_block_spectrum():
    lam, _ = eig_sym(ones_pencil(1, 2.0))
    want = [7.0 - 4.0 * math.sqrt(3.0), 1.0, 7.0 + 4.0 * math.sqrt(3.0)]
    assert np.max(np.abs(lam - np.array(want))) < 1e-12


def test_ones_pencil_negative_count_drops_by_one():
    for k in range(1, 5):
        for t in (1.1, 2.0, 10.0):
            assert inertia(ones_pencil(k, t)).n_neg == k - 1, (k, t)


def test_ones_pencil_at_t_zero_keeps_all_blocks():
    assert inertia(ones_pencil(3, 0.0)) == Inertia(3, 0, 6)


def test_two_by_two_pair_difference_is_rank_one():
    a, b = two_by_two_pair(0.5)
    gap = b.entries - a.entries
    assert np.array_equal(gap, 0.5 * np.ones((2, 2)))


def test_two_by_two_power_determinant_sequence():
    # det(B^(j) - A^(j)) for the entrywise j-th powers, j = 1, 2, 3
    a, b = two_by_two_pair(1.0)
    seen = []
    for j in (1, 2, 3):
        d = b.entries**j - a.entries**j
        seen.append(round(float(np.linalg.det(d))))
    assert seen == [0, 2, 66]


def test_two_by_two_scaling_in_determinant():
    t0 = 0.5
    a, b = two_by_two_pair(t0)
    for j in (1, 2, 3):
        d = b.entries**j - a.entries**j
        a1, b1 = two_by_two_pair(1.0)
        d1 = b1.entries**j - a1.entries**j
        assert abs(np.linalg.det(d) - t0 ** (2 * j) * np.linalg.det(d1)) < 1e-12


def test_equicorrelation_frozen_spectra():
    for (k, a, b), want in [
        ((2, 1.0, 3.0), [-2.0, -2.0, 7.0]),
        ((1, 0.0, 1.0), [-1.0, 1.0]),
        ((1, 1.0, 3.0), [-2.0, 4.0]),
    ]:
        lam, _ = eig_sym(equicorrelation(k, a, b))
        assert np.allclose(lam, want, atol=1e-12), (k, a, b)


def test_equicorrelation_rejects_bad_interval():
    with pytest.raises(ConfigError):
        equicorrelation(2, 3.0, 3.0)
    with pytest.raises(ConfigError):
        equicorrelation(2, -0.5, 1.0)


def test_ones_spike_inertia_and_spectrum():
    for k in range(1, 6):
        m = ones_spike(k, 0.25, 0.1)
        assert inertia(m) == Inertia(k, 0, 1), k
        lam, _ = eig_sym(m)
        want = sorted([0.25 * (k + 1)] + [-0.1 * (j - 1) * j for j in range(2, k + 2)])
        assert np.max(np.abs(lam - np.array(want))) < 1e-12


def test_ones_spike_requires_positive_parameters():
    with pytest.raises(ConfigError):
        ones_spike(2, 0.0, 0.1)
    with pytest.raises(ConfigError):
        ones_spike(2, 0.1, -0.1)


def test_ones_orthogonal_basis_shapes_and_norms():
    for size in (2, 3, 6):
        rows = ones_orthogonal_basis(size)
        assert rows.shape == (size, size)
        assert np.array_equal(rows[0], np.ones(size))
        gram = rows @ rows.T
        assert np.allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-12)
        for j in range(1, size):
            # the j-th completion vector has squared norm j(j+1)
            assert abs(gram[j, j] - j * (j + 1)) < 1e-12


def test_vandermonde_psd_rank_jump_under_squaring():
    b = vandermonde_psd(2, 1.0)
    assert b.n == 3
    # PSD, so the rank is the positive count
    assert inertia(b) == Inertia(0, 1, 2)
    assert inertia(SymMatrix(b.entries**2)) == Inertia(0, 0, 3)


def test_vandermonde_psd_rejects_repeated_nodes():
    with pytest.raises(ConfigError):
        vandermonde_psd(2, 1.0, u=[0.5, 0.5, 0.7])


def test_block_pair_congruent_to_sum_and_difference():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        g1, g2 = rng.standard_normal((2, n, n))
        a = SymMatrix(g1 + g1.T)
        b = SymMatrix(g2 + g2.T)
        big = block_pair(a, b)
        ip = inertia(SymMatrix(a.entries + b.entries))
        im = inertia(SymMatrix(a.entries - b.entries))
        assert inertia(big) == Inertia(
            ip.n_neg + im.n_neg, ip.n_zero + im.n_zero, ip.n_pos + im.n_pos
        )


def test_block_pair_eigenvalues_union():
    a = sym(np.diag([1.0, 2.0]))
    b = sym(np.zeros((2, 2)))
    lam, _ = eig_sym(block_pair(a, b))
    assert np.allclose(lam, [1.0, 1.0, 2.0, 2.0], atol=1e-12)


def test_embed_with_negatives_pins_the_negative_eigenvalues():
    rng = np.random.default_rng(4)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        a = float(rng.uniform(0.0, 0.5))
        b = a + float(rng.uniform(0.1, 0.8))
        nb = int(rng.integers(1, 5))
        g = rng.uniform(0.1, 1.0, size=(nb, nb))
        eps = float(rng.uniform(0.0, 0.3))
        out = embed_with_negatives(a, b, k, eps, SymMatrix(g @ g.T))
        lam, _ = eig_sym(out)
        negs = lam[lam < -1e-12]
        assert len(negs) == k
        assert np.max(np.abs(negs - (a - b))) < 1e-9


def test_embed_rejects_indefinite_block():
    bad = sym([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ConfigError):
        embed_with_negatives(0.5, 1.0, 2, 0.0, bad)


def test_replicated_block_inertia():
    a = sym([[1.0, 2.0], [2.0, 1.0]])  # inertia (1, 0, 1)
    out = replicated_block(a, k=2, l=1, t0=0.5)
    assert out.n == 2 + 3 * 2
    got = inertia(out)
    assert got == Inertia(2 + 3, 0, 3)


def test_weight_matrix_indicator_columns():
    w = weight_matrix([[0, 2], [1]], 3)
    assert np.array_equal(w, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_weight_matrix_rejects_bad_partitions():
    with pytest.raises(ConfigError):
        weight_matrix([[0], [0, 1]], 2)  # overlap
    with pytest.raises(ConfigError):
        weight_matrix([[0]], 2)  # not a cover


def test_inflate_duplicates_entries_and_keeps_signs():
    a = sym([[2.0, -1.0], [-1.0, 3.0]])
    out = inflate(a, [[0, 1], [2]])
    assert out.n == 3
    assert out.entries[0, 1] == 2.0  # duplicated diagonal value
    assert out.entries[0, 2] == -1.0
    before, after = inertia(a), inertia(out)
    assert (before.n_neg, before.n_pos) == (after.n_neg, after.n_pos)


def _weight_oracle(partition, n):
    w = np.zeros((n, len(partition)))
    for j, block in enumerate(partition):
        w[block, j] = 1.0
    return w


def test_inflate_is_w_a_wt_byte_for_byte():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = int(rng.integers(1, 6))
        n = s + int(rng.integers(0, 6))
        owner = np.concatenate([np.arange(s), rng.integers(0, s, size=n - s)])
        rng.shuffle(owner)
        partition = [np.flatnonzero(owner == j).tolist() for j in range(s)]
        g = rng.standard_normal((s, s)) * (rng.uniform(size=(s, s)) < 0.8)
        a = SymMatrix(g + g.T)
        w = _weight_oracle(partition, n)
        assert inflate(a, partition).entries.tobytes() == (w @ a.entries @ w.T).tobytes()
        assert weight_matrix(partition, n).tobytes() == w.tobytes()
        for size in (s, s + 1, s + 4):
            rows = list(range(s - 1)) + [list(range(s - 1, size))]
            lift_w = _weight_oracle([[i] for i in range(s - 1)] + [rows[-1]], size)
            want = lift_w @ a.entries @ lift_w.T
            assert lift_finite(a, size).entries.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "partition,message",
    [
        ([[0], []], "partition blocks must be nonempty"),
        ([[0, 2], [1, 5]], "partition index 5 out of range 0..3"),
        ([[0, -1], [1, 2]], "partition index -1 out of range 0..3"),
        ([[0, 1.0], [2, 3]], "partition index 1.0 out of range 0..3"),
        ([[0, True], [2, 3]], "partition index True out of range 0..3"),
        ([[0, 1], [1, 2, 3]], "partition index 1 repeated"),
        ([[3], [0, 1], [2, 1]], "partition index 1 repeated"),
    ],
)
def test_bad_partitions_raise_the_same_message_everywhere(partition, message):
    with pytest.raises(ConfigError) as err:
        inflate(sym(np.eye(len(partition))), partition)
    assert str(err.value) == message
    with pytest.raises(ConfigError) as err:
        weight_matrix(partition, 4)
    assert str(err.value) == message


def test_inflate_needs_one_block_per_row():
    with pytest.raises(ConfigError, match="partition has 2 blocks, matrix has size 3"):
        inflate(sym(np.eye(3)), [[0], [1, 2]])


def test_lift_finite_replicates_last_coordinate():
    a = sym([[1.0, 2.0], [2.0, 5.0]])
    out = lift_finite(a, 4)
    assert out.n == 4
    assert out.entries[1, 1] == out.entries[3, 3] == 5.0
    assert out.entries[0, 3] == 2.0
    assert inertia(out).n_neg == inertia(a).n_neg


def test_lift_finite_identity_when_sizes_match():
    a = sym([[1.0, 0.0], [0.0, -1.0]])
    assert lift_finite(a, 2) == a
