"""Gram factorizations in indefinite inner products and negativity profiles.

A symmetric matrix A with at most k negative eigenvalues is the Gram matrix
of n vectors under an inner product with k minus directions.  ``gram_realize``
produces such vectors by symmetric indefinite elimination; ``gram_of`` is the
inverse map.  The leading-minor negativity profile tracks how the negative
count fills in as coordinates are added, which is the finite shadow of
realizing A inside a space with a fixed negative index; ``linalg`` counts it,
by one certified elimination with the stack as its fallback.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, int_in, int_of
from .linalg import N_MAX, REL_ZERO, SymMatrix, _leading_counts, eig_sym, sturm_count

#: a 1x1 pivot must reach ALPHA * max|S| (Bunch & Parlett, SIAM J. Numer. Anal. 8, 1971)
ALPHA = (1.0 + math.sqrt(17.0)) / 8.0


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


def _eliminate(s: np.ndarray, tau: float) -> tuple[list, list]:
    """Columns of s = sum(v v^T, plus) - sum(v v^T, minus) + E, ||E||_2 <= tau.

    Bunch-Parlett complete pivoting on ``s`` (overwritten): a diagonal entry
    of at least ``ALPHA * max|S|`` is a 1x1 pivot, else the largest entry
    makes a 2x2 pivot, split in two along the closed-form Jacobi rotation's
    columns (1, -t) and (t, 1), unnormalised, so each mu carries 1 + t^2.  A
    pivot mu with column u deflates S -= u u^T / mu and sends u sqrt|mu| / mu
    to its side.  It stops when the m rows left have m * max|S| <= tau.
    |S| and each deflation's u (u / mu)^T are written into two n x n
    scratch arrays, allocated once.
    """
    n = left = len(s)
    plus, minus = cols = ([], [])
    big, uu = np.empty_like(s), np.empty_like(s)
    while True:
        np.abs(s, out=big)
        p, q = divmod(int(big.argmax()), n)
        if left * big[p, q] <= tau:
            return cols
        i = int(big.diagonal().argmax())
        if big[i, i] >= ALPHA * big[p, q]:
            pivots, done = [(s[:, i].copy(), s[i, i])], [i]
        else:
            a, b, c = s[p, p], s[p, q], s[q, q]
            theta = (c - a) / (2.0 * b)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
            up, uq, w = s[:, p], s[:, q], 1.0 + t * t
            pivots, done = [(up - t * uq, (a - t * b) * w), (t * up + uq, (c + t * b) * w)], [p, q]
        for u, mu in pivots:
            s -= np.multiply.outer(u, u / mu, out=uu)
            cols[int(mu < 0.0)].append(u * (math.sqrt(abs(mu)) / mu) + 0.0)  # no -0.0 printed
        s[done] = s[:, done] = 0.0
        left -= len(done)


def gram_realize(A: SymMatrix, k: int) -> tuple[np.ndarray, tuple[int, int], float]:
    """Realize A as a Gram matrix with exactly k minus directions.

    Requires r = n_neg(A) <= k <= N_MAX.  Returns ``(vectors, (n - r, k), err)``,
    rows are vectors, with ``err`` the relative Frobenius error of gram_of on
    them.  r and the vectors share one scale and one threshold: A / 2^e (e
    the binade of A rounded up to even, so 2^(e/2) scales the vectors back
    exactly) and its zero threshold, which stays normal where that of A
    would underflow.  r is the Sturm count :func:`sturm_count` at minus the
    threshold, and the vectors come from :func:`_eliminate`, whose minus
    count is at least r (Weyl), and more only through eigenvalues counted as
    zero: it is padded like r up to k, refused above.  Only the refusals
    run :func:`eig_sym`.
    """
    int_in(k, "k", 0, N_MAX)
    if not math.isfinite(A.fro) and not np.all(np.isfinite(eig_sym(A)[0])):
        raise ConfigError("an eigenvalue is beyond the largest double")
    n, e = A.n, A._e + (A._e & 1)
    s, tau = np.ldexp(A.entries, -e), math.ldexp(REL_ZERO * A._s, A._e - e)
    r = sturm_count(SymMatrix(s), [-tau])[0]
    if r > k:
        raise ConfigError(f"matrix has {r} negative eigenvalues, more than k = {k}")
    plus, minus = _eliminate(s, tau)
    if len(minus) > k:
        raise ConfigError(
            f"eigenvalue {eig_sym(A)[0][k]:.3e} counts as zero, but elimination takes it as a minus "
            f"direction ({len(minus)} in all, more than k = {k})"
        )
    vectors = np.zeros((n, n - r + k))
    for at, side in ((0, plus), (n - r, minus)):
        vectors[:, at : at + len(side)] = np.ldexp(np.reshape(side, (-1, n)).T, e // 2)
    gap = SymMatrix(gram_of(vectors, (n - r, k)).entries - A.entries)
    # from the norms over 2^e, finite when ||A||_F is not; the zero matrix is rebuilt exactly
    err = math.ldexp(gap._s / A._s, gap._e - A._e) if A._s else 0.0
    return vectors, (n - r, k), err


def leading_negativity_profile(A: SymMatrix) -> list[int]:
    """Negative-eigenvalue counts of the leading principal j x j blocks.

    Block j counts against its own zero threshold, ``REL_ZERO`` *
    ||A_j||_F, so the sequence ends at n_neg(A) but can fall:
    ``[[-1, 0], [0, 1e10]]`` gives [1, 0].  ``linalg._leading_counts``
    counts every block with one unpivoted LDL^T elimination at two shifts
    (Jacobi's signature rule) and keeps each count that its backward-error
    bound certifies; the blocks left go in order of size to
    ``linalg._on_stack`` and are counted there as every block was before,
    so the profile is the same.
    """
    return _leading_counts(A)


def stabilization_index(profile: list[int], k: int) -> int | None:
    """First 1-based position after which the profile stays constant.

    ``k`` is the negativity cap of the ambient claim; any profile value above
    it is rejected.  When the profile ends on a strict increase to a value
    still below ``k``, the count may not have stabilized yet and ``None`` is
    returned.
    """
    int_in(k, "k")
    prof = [int_of(v, "profile value") for v in profile]
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
