"""Gram factorizations in indefinite inner products and negativity profiles.

A symmetric matrix A with at most k negative eigenvalues is the Gram matrix
of n vectors under an inner product with k minus directions.  ``gram_realize``
produces such vectors explicitly; ``gram_of`` is the inverse map.  The
leading-minor negativity profile tracks how the negative count fills in as
coordinates are added, which is the finite shadow of realizing A inside a
space with a fixed negative index.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, int_in
from .linalg import N_MAX, SymMatrix, eig_sym, inertia, zero_threshold


def gram_of(vectors: np.ndarray, signature: tuple[int, int]) -> SymMatrix:
    """Gram matrix of row vectors under diag(+1 x plus, -1 x minus)."""
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2:
        raise ConfigError("vectors must form a 2-d array (rows are vectors)")
    plus, minus = signature
    int_in(plus, "signature plus")
    int_in(minus, "signature minus")
    if v.shape[1] != plus + minus:
        raise ConfigError(
            f"vectors have {v.shape[1]} coordinates, signature needs {plus + minus}"
        )
    j_diag = np.concatenate([np.ones(plus), -np.ones(minus)])
    return SymMatrix((v * j_diag) @ v.T)


def gram_realize(A: SymMatrix, k: int) -> tuple[np.ndarray, tuple[int, int], float]:
    """Realize A as a Gram matrix with exactly k minus directions.

    Requires n_neg(A) <= k <= N_MAX.  Returns ``(vectors, (plus, minus), err)`` where
    vectors are rows in an ambient space of dimension (n - r) + k with
    r = n_neg(A), minus coordinates padded with k - r zeros, and ``err`` is
    the relative Frobenius reconstruction error of gram_of on the output.
    """
    int_in(k, "k", 0, N_MAX)
    lam, q = eig_sym(A)
    if not np.all(np.isfinite(lam)):
        raise ConfigError("an eigenvalue is beyond the largest double")
    thresh = zero_threshold(A)
    neg_idx = [i for i, v in enumerate(lam) if v < -thresh]
    other_idx = [i for i, v in enumerate(lam) if v >= -thresh]
    r = len(neg_idx)
    if r > k:
        raise ConfigError(f"matrix has {r} negative eigenvalues, more than k = {k}")
    n = A.n
    plus = n - r
    vectors = np.zeros((n, plus + k))
    for col, i in enumerate(other_idx):
        vectors[:, col] = np.sqrt(max(lam[i], 0.0)) * q[:, i]
    for col, i in enumerate(neg_idx):
        vectors[:, plus + col] = np.sqrt(-lam[i]) * q[:, i]
    rebuilt = gram_of(vectors, (plus, k))
    # the zero matrix is rebuilt exactly
    err = SymMatrix(rebuilt.entries - A.entries).fro / A.fro if A.fro else 0.0
    return vectors, (plus, k), err


def leading_negativity_profile(A: SymMatrix) -> list[int]:
    """Negative-eigenvalue counts of the leading principal j x j blocks.

    By eigenvalue interlacing the sequence is nondecreasing and ends at
    n_neg(A).
    """
    ent = A.entries
    return [inertia(SymMatrix(ent[:j, :j])).n_neg for j in range(1, A.n + 1)]


def stabilization_index(profile: list[int], k: int) -> int | None:
    """First 1-based position after which the profile stays constant.

    ``k`` is the negativity cap of the ambient claim; any profile value above
    it is rejected.  When the profile ends on a strict increase to a value
    still below ``k``, the count may not have stabilized yet and ``None`` is
    returned.
    """
    int_in(k, "k")
    prof = [int(v) for v in profile]
    if not prof:
        raise ConfigError("profile must be nonempty")
    for v in prof:
        if v < 0:
            raise ConfigError("profile values must be nonnegative")
        if v > k:
            raise ConfigError(f"profile value {v} exceeds the cap k = {k}")
    if len(prof) >= 2 and prof[-1] > prof[-2] and prof[-1] < k:
        return None
    last = prof[-1]
    idx = len(prof)
    while idx > 1 and prof[idx - 2] == last:
        idx -= 1
    return idx
