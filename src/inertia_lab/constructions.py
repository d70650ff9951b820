"""Structured matrix families with pinned inertia.

Each builder returns a :class:`~inertia_lab.linalg.SymMatrix` whose eigenvalue
sign pattern is known in closed form; the test suite checks those facts
against an independent eigensolver.  The harness uses these families both to
sample class members and to manufacture witnesses against false negativity
claims.  A builder that sizes its matrix from a count refuses a size above
``N_MAX`` before it allocates anything; ``lift_finite`` is capped by its
callers instead, since the harness lifts a size-``N_MAX`` tuple to N_MAX + 7.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, finite_float, int_in
from .linalg import N_MAX, SymMatrix, _direct_sum, direct_sum, inertia

__all__ = [
    "block_pair",
    "replicated_block",
    "vandermonde_psd",
    "two_by_two_pair",
    "ones_orthogonal_basis",
    "ones_spike",
    "equicorrelation",
    "embed_with_negatives",
    "weight_matrix",
    "inflate",
    "lift_finite",
    "pencil_base",
    "ones_pencil",
]


def block_pair(A: SymMatrix, B: SymMatrix) -> SymMatrix:
    """The 2n x 2n block matrix [[A, B], [B, A]].

    It is orthogonally congruent to (A + B) (+) (A - B), so its inertia is the
    componentwise sum of the inertias of A + B and A - B.
    """
    if A.n != B.n:
        raise ConfigError("block_pair needs two matrices of one size")
    return SymMatrix(np.block([[A.entries, B.entries], [B.entries, A.entries]]))


def replicated_block(A: SymMatrix, k: int, l: int, t0: float) -> SymMatrix:
    """(-t0 Id_k) (+) A^(+(l+2)): k pinned negatives plus l+2 copies of A."""
    int_in(k, "k", 1)
    int_in(k + (int_in(l, "l") + 2) * A.n, "size k + (l + 2) n", 1, N_MAX)
    t0 = finite_float(t0, "t0", positive=True)
    blocks = [SymMatrix(-t0 * np.eye(k))]
    blocks.extend([A] * (l + 2))
    return direct_sum(blocks)


def vandermonde_psd(k: int, t0: float, u: Sequence[float] | None = None) -> SymMatrix:
    """PSD moment matrix t0 * sum_{j<k} (u^j)(u^j)^T on 2k-1 distinct nodes.

    Rank is exactly k (Vandermonde columns on distinct positive nodes), while
    entrywise squaring pushes the rank up to min(2k-1, k(k+1)/2).  Defaults to
    equispaced nodes u_i = (i + 1) / (2k) in (0, 1).
    """
    size = 2 * int_in(k, "k", 1, (N_MAX + 1) // 2) - 1
    t0 = finite_float(t0, "t0", positive=True)
    if u is None:
        u = [(i + 1) / (2 * k) for i in range(size)]
    if not (isinstance(u, (list, tuple, np.ndarray)) and len(u) == size):
        raise ConfigError(f"u must be a list of {size} numbers")
    u_arr = np.array([finite_float(x, "node") for x in u])
    if not np.all(u_arr > 0.0) or len(set(u_arr.tolist())) != size:
        raise ConfigError("u must consist of distinct positive values")
    out = np.zeros((size, size))
    for j in range(k):
        col = u_arr**j
        out += np.outer(col, col)
    return SymMatrix(t0 * out)


def two_by_two_pair(t0: float) -> tuple[SymMatrix, SymMatrix]:
    """The ordered pair A = t0*[[1,2],[2,4]], B = t0*[[2,3],[3,5]].

    B - A is the all-ones rank-one matrix times t0, while B^(j) - A^(j)
    (entrywise powers) is positive definite for every j >= 2: its determinant
    expands to t0^(2j) * (10^j - 9^j - 8^j + 6^j + 6^j - 5^j) > 0.
    """
    t0 = finite_float(t0, "t0", positive=True)
    a = SymMatrix(t0 * np.array([[1.0, 2.0], [2.0, 4.0]]))
    b = SymMatrix(t0 * np.array([[2.0, 3.0], [3.0, 5.0]]))
    return a, b


def ones_orthogonal_basis(size: int) -> np.ndarray:
    """Rows: the all-ones vector followed by the classical ones-orthogonal
    completion v_j = (1, ..., 1, -(j-1), 0, ..., 0) with ||v_j||^2 = (j-1)j."""
    int_in(size, "size", 1, N_MAX)
    basis = np.zeros((size, size))
    basis[0] = 1.0
    for j in range(2, size + 1):
        basis[j - 1, : j - 1] = 1.0
        basis[j - 1, j - 1] = -(j - 1)
    return basis


def ones_spike(k: int, delta: float, epsilon: float) -> SymMatrix:
    """delta * ones - epsilon * (projection complement of the ones line).

    Size k+1; eigenvalues are (k+1) * delta on the ones direction and
    -epsilon * (j-1) * j on the ones-orthogonal completion vectors, so the
    inertia is (k, 0, 1).
    """
    return SymMatrix(_ones_spike(k, delta, epsilon))


def _ones_spike(k: int, delta: float, epsilon: float) -> np.ndarray:
    """The entries of :func:`ones_spike`, with its checks; they are bitwise
    symmetric with no -0.0, so :class:`SymMatrix` keeps their bytes."""
    n = int_in(k, "k", 1, N_MAX - 1) + 1
    delta = finite_float(delta, "delta", positive=True)
    epsilon = finite_float(epsilon, "epsilon", positive=True)
    basis = ones_orthogonal_basis(n)
    out = delta * np.ones((n, n))
    for j in range(1, n):
        v = basis[j]
        out -= epsilon * np.outer(v, v)
    return out


def _equicorrelation(n: int, a: float, b: float) -> np.ndarray:
    """(a - b) Id + b * ones of size n, unchecked."""
    return (a - b) * np.eye(n) + b


def equicorrelation(k: int, a: float, b: float) -> SymMatrix:
    """(a - b) Id + b * ones of size k+1, with 0 <= a < b.

    Eigenvalues: a + k*b once (ones direction) and a - b < 0 with
    multiplicity k, so the matrix has exactly k negative eigenvalues while
    all entries stay nonnegative.
    """
    int_in(k, "k", 1, N_MAX - 1)
    a = finite_float(a, "a")
    b = finite_float(b, "b")
    if not 0.0 <= a < b:
        raise ConfigError("need 0 <= a < b")
    return SymMatrix(_equicorrelation(k + 1, a, b))


def embed_with_negatives(
    a: float, b: float, k: int, epsilon: float, B: SymMatrix
) -> SymMatrix:
    """(equicorrelation(k, a, b) (+) B) + epsilon * ones.

    For PSD ``B`` the result has exactly k negative eigenvalues, all equal to
    a - b: vectors supported on the equicorrelation block and orthogonal to
    the ones vector are untouched by both the direct sum and the rank-one
    shift, while the complementary subspace carries a PSD form.  ``B`` is
    counted once to check that it is PSD.
    """
    epsilon = finite_float(epsilon, "epsilon")
    if epsilon < 0.0:
        raise ConfigError("epsilon must be >= 0")
    core = equicorrelation(k, a, b)  # validates k, a, b
    if inertia(B).n_neg:
        raise ConfigError("the embedded block must be positive semidefinite")
    return SymMatrix(_direct_sum([core.entries, B.entries], epsilon))


def _row_map(partition: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Entry i is the block that holds index i; ConfigError unless the blocks
    split 0..n-1 into nonempty disjoint pieces."""
    owner: dict[int, int] = {}
    for j, block in enumerate(partition):
        if not len(block):
            raise ConfigError("partition blocks must be nonempty")
        for i in block:
            if int_in(i, "partition index", 0, n - 1) in owner:
                raise ConfigError(f"partition index {i} repeated")
            owner[i] = j
    if len(owner) != n:
        raise ConfigError("partition must cover every index exactly once")
    return np.array([owner[i] for i in range(n)], dtype=np.intp)


def _lift_rows(n: int, N: int) -> np.ndarray:
    """The row map of the lift from size n to N: min(i, n - 1)."""
    return np.minimum(np.arange(N), n - 1)


def _gather(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a[rows][:, rows]: entry (i, j) is a copy of a[rows[i], rows[j]]; on a
    (B, n, n) stack, that of every slice (it gathers on the last two axes)."""
    return a.take(rows, -2).take(rows, -1)


def weight_matrix(partition: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """0/1 matrix W with W[i, j] = 1 iff index i lies in block j.

    Row i is the identity row of the block holding i (a gather by the row
    map), so columns are disjoint indicators and W^T W = diag(block sizes).
    """
    rows = _row_map(partition, int_in(n, "n", 0, N_MAX))
    return np.eye(len(partition)).take(rows, 0)


def inflate(A: SymMatrix, partition: Sequence[Sequence[int]]) -> SymMatrix:
    """Blow A up by repeating entry (r, s) over block r x block s.

    A gather by the row map: entry (i, j) is a copy of A[r, s] with i in
    block r and j in block s, which is W A W^T for W the partition weight
    matrix, with no product formed.  W has full column rank, so the counts
    of negative and positive eigenvalues are preserved and only zeros are
    added.
    """
    rows = _row_map(partition, sum(len(block) for block in partition))
    if len(partition) != A.n:
        raise ConfigError(f"partition has {len(partition)} blocks, matrix has size {A.n}")
    return SymMatrix(_gather(A.entries, rows))


def lift_finite(A: SymMatrix, N: int) -> SymMatrix:
    """Replicate the last row/column of A until the size reaches N.

    The inflation along blocks {0}, ..., {n-2}, {n-1..N-1}, as a gather by
    the row map min(i, n - 1), so the result is W A W^T.
    """
    int_in(N, "target size", A.n)
    return SymMatrix(_gather(A.entries, _lift_rows(A.n, N)))


def pencil_base() -> SymMatrix:
    """A fixed 3x3 matrix with entries in (0, 5) and exactly one negative
    eigenvalue; its characteristic polynomial factors as
    (x - 1)(x^2 - 8x - 1), giving eigenvalues 4 - sqrt(17), 1, 4 + sqrt(17).
    """
    return SymMatrix([[4.0, 2.0, 3.0], [2.0, 1.0, 2.0], [3.0, 2.0, 4.0]])


def ones_pencil(k: int, t: float) -> SymMatrix:
    """pencil_base^(+k) + t * ones, size 3k.

    The all-ones shift couples the k copies: for t > 1 the pencil has exactly
    k - 1 negative eigenvalues (one fewer than the unshifted direct sum), a
    count that is independent of the magnitude of t beyond the threshold.
    """
    int_in(k, "k", 1, N_MAX // 3)
    t = finite_float(t, "t")
    return SymMatrix(_direct_sum([pencil_base().entries] * k, t))
