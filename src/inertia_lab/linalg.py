"""Symmetric matrices, inertia counting, and the basic matrix algebra.

The public API (constructions, the CLI, the harness's judge) speaks
:class:`SymMatrix`; the harness's trial loop, recipes and suite build plain
arrays.  Eigenvalues come from a hand-written Householder reduction to
tridiagonal form followed by implicit-shift QL (Golub & Van Loan, *Matrix
Computations*, section 8.3; EISPACK ``tql2``), in elementwise numpy only, so
the whole negativity bookkeeping chain is self-contained and its bytes do not
depend on the BLAS build; LAPACK never enters the runtime path.  No
eigenvectors are formed.  Many matrices are counted at once by
:func:`inertia_stack`: the same reduction run on a whole zero-padded stack,
then a Sturm count instead of QL.  :func:`_on_stack` is the one packer of
such stacks: the trial loop, the recipe ladder, the lemma suite and the
leading negativity profile hand it their matrices, and only it knows the
``STACK_ENTRIES`` rule.  :func:`sturm_count` is the same Sturm count for one
matrix and a few shifts; its one caller is ``pontryagin.gram_realize``.
:func:`_leading_counts` counts every leading block of one matrix by a single
unpivoted LDL^T elimination at two shifts (Jacobi's signature rule), keeps
the counts that its backward-error bound certifies, and hands only the other
blocks to :func:`_on_stack`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    AsymmetryError,
    ConfigError,
    ConvergenceError,
    DomainViolation,
    finite_float,
    int_in,
)

#: hard cap on the implicit QL iterations spent on one eigenvalue
MAX_QL_ITERATIONS = 30

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: bound on the eigensolver's error relative to ||A||_F.  The computed
#: spectrum is the exact spectrum of a matrix within about n * eps * ||A||_F of
#: A (Householder reduction and QL are backward stable), so every eigenvalue is
#: off by less than this times ||A||_F for n up to a few hundred.
EIG_CONVERGENCE = 1e-13

#: the zero rule of inertia counting: an eigenvalue counts as zero when
#: |lam| <= REL_ZERO * ||A||_F.  The threshold is relative to ||A||_F alone,
#: so no positive scaling of A changes a count.  It sits four orders above
#: EIG_CONVERGENCE, so the solver's error is at most 1e-4 of the threshold:
#: only an eigenvalue within 0.01% of it can land on the wrong side.
REL_ZERO = 1e-9

#: relative asymmetry beyond which a parsed matrix is rejected instead of averaged
ASYMMETRY_TOL = 1e-12

DOMAIN_KINDS = ("two_sided", "open_positive", "closed_left")

#: bounds on a finite domain radius: squared entries of members stay normal doubles
RHO_MIN, RHO_MAX = 1e-150, 1e150

#: largest matrix size a run may sample, or a recipe or a construction may
#: build from a count: the cap bounds the memory one matrix can ask for
N_MAX = 256

#: entries in one counted stack (2 MiB of doubles): :func:`_on_stack` splits
#: the matrices it counts into stacks of this size, so memory stays flat in
#: the number of matrices
STACK_ENTRIES = 1 << 18


class Inertia(NamedTuple):
    """Eigenvalue sign counts of a symmetric matrix."""

    n_neg: int
    n_zero: int
    n_pos: int

    def to_json_dict(self) -> dict:
        return {"neg": self.n_neg, "zero": self.n_zero, "pos": self.n_pos}


@dataclass(frozen=True)
class DomainSpec:
    """Entry domain for matrix entries: an interval with a scale ``rho``.

    ``two_sided`` is the open interval (-rho, rho); ``open_positive`` is
    (0, rho); ``closed_left`` is [0, rho).  ``rho`` is ``inf`` or lies in
    [``RHO_MIN``, ``RHO_MAX``].
    """

    kind: str = "two_sided"
    rho: float = math.inf

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        if not (self.rho == math.inf or RHO_MIN <= self.rho <= RHO_MAX):
            raise ConfigError(f"rho must be inf or lie in [{RHO_MIN:g}, {RHO_MAX:g}]")

    @property
    def rho_eff(self) -> float:
        """Working scale for sampling and witness construction: rho, capped at 1."""
        return 1.0 if math.isinf(self.rho) else self.rho

    @property
    def one_sided(self) -> bool:
        return self.kind != "two_sided"

    def _inside(self, x) -> np.ndarray:
        """Elementwise membership of the entries of ``x`` (any shape)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "two_sided":
            above = x > -self.rho
        elif self.kind == "open_positive":
            above = x > 0.0
        else:
            above = x >= 0.0
        return np.isfinite(x) & above & (x < self.rho)

    def contains(self, x: float) -> bool:
        return bool(self._inside(x))

    def check_matrix(self, A: "SymMatrix | np.ndarray", slot: int = 1) -> None:
        """Raise :class:`DomainViolation` at the first out-of-domain entry."""
        ent = A.entries if isinstance(A, SymMatrix) else A
        ok = self._inside(ent)
        if bool(ok.all()):
            return
        bad = np.argwhere(~ok)
        i, j = (int(v) for v in bad[0])
        worst = float(np.max(np.abs(ent[~ok])))
        raise DomainViolation(
            float(ent[i, j]), i, j, slot,
            detail=f"domain {self.describe()}, max offending magnitude {worst:g}",
        )

    def describe(self) -> str:
        lo = {"two_sided": f"(-{self.rho}", "open_positive": "(0", "closed_left": "[0"}[self.kind]
        return f"{lo}, {self.rho})"

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "rho": "inf" if math.isinf(self.rho) else self.rho}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DomainSpec":
        if not isinstance(d, dict):
            raise ConfigError("domain must be a JSON object")
        unknown = set(d) - {"kind", "rho"}
        if unknown:
            raise ConfigError(f"unknown domain keys: {sorted(unknown)}")
        rho = d.get("rho", "inf")
        rho = math.inf if rho == "inf" else finite_float(rho, "rho")
        return cls(kind=d.get("kind", "two_sided"), rho=rho)


def _symmetric(a: np.ndarray) -> np.ndarray:
    """0.5 (a + a^T) + 0.0, the array :class:`SymMatrix` stores for an ``a``
    whose entries lie below 2^1023, where a + a^T cannot overflow; on a
    (B, n, n) stack, that of every slice."""
    return 0.5 * (a + a.swapaxes(-1, -2)) + 0.0


class SymMatrix:
    """Immutable real symmetric matrix.

    Construction symmetrizes the input by averaging it with its transpose;
    IEEE addition commutes, so the stored array is bitwise symmetric, and
    adding +0.0 stores every zero as +0.0.
    The entry array is frozen (non-writeable), so an instance never changes
    after construction.  ``_e`` is the binade of the largest entry (max
    |a_ij| in [2^(e-1), 2^e), 0 for the zero matrix), the power of two by
    which :func:`eig_sym` scales, and ``_s`` is ||A||_F / 2^e, which stays
    finite when ||A||_F itself passes the largest double.
    """

    __slots__ = ("_a", "_e", "_s")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ConfigError("matrices must have at least one row")
        top = float(np.max(np.abs(a)))
        if not math.isfinite(top):
            raise ConfigError("matrix entries must be finite")
        if top < 2.0**1023:
            a = _symmetric(a)
        else:
            # where a + a^T overflows, average the halves instead
            with np.errstate(over="ignore"):
                twice = a + a.T
            a = np.where(np.isfinite(twice), 0.5 * twice, 0.5 * a + 0.5 * a.T) + 0.0
        a.flags.writeable = False
        self._a = a
        # summed over a / 2^e (exact), the squares neither overflow nor underflow
        self._e = e = math.frexp(float(np.max(np.abs(a))))[1]
        self._s = float(np.sqrt(np.sum(np.ldexp(a, -e) ** 2)))

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._a

    @property
    def fro(self) -> float:
        """||A||_F; inf when it passes the largest double."""
        try:
            return math.ldexp(self._s, self._e)
        except OverflowError:
            return math.inf

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.array_equal(self._a, other._a))

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"

    def to_rows(self) -> list[list[float]]:
        return self._a.tolist()

    def to_json_dict(self) -> dict:
        return {"n": self.n, "rows": self.to_rows()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SymMatrix":
        if not isinstance(d, dict) or set(d) != {"n", "rows"}:
            raise ConfigError('matrix JSON must be exactly {"n": ..., "rows": ...}')
        n = int_in(d["n"], "matrix size", 1)
        rows = d["rows"]
        try:
            a = np.array(rows, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("matrix rows must be numeric") from None
        if a.shape != (n, n):
            raise ConfigError(f"rows shape {a.shape} does not match n={n}")
        # numpy parses numeric strings and bools; the rule is judged by type,
        # so one entry of each type stands for all (finiteness is checked below)
        for x in {type(x): x for row in rows for x in row}.values():
            finite_float(x, "matrix entry")
        if not np.all(np.isfinite(a)):
            raise ConfigError("matrix entries must be finite")
        scale = float(np.max(np.abs(a)))
        # a gap beyond the largest double reads inf and is refused like any other
        with np.errstate(over="ignore"):
            gap = float(np.max(np.abs(a - a.T)))
        if gap > ASYMMETRY_TOL * scale:
            raise AsymmetryError(
                f"matrix is asymmetric: max |a_ij - a_ji| = {gap:.3e} "
                f"exceeds {ASYMMETRY_TOL:.0e} * {scale:g}"
            )
        return cls(a)


def sym(entries) -> SymMatrix:
    """Shorthand for :class:`SymMatrix` in tests and interactive use; the package calls the class."""
    return SymMatrix(entries)


def _tridiagonalize(a: np.ndarray, tiny: float) -> tuple[list, list]:
    """Householder reduction of the symmetric ``a`` (overwritten) to tridiagonal T.

    Returns T's diagonal ``d`` and off-diagonal ``off`` (``off[i]`` couples
    ``d[i]`` and ``d[i + 1]``; ``off[n - 1] = 0``).  A column whose entries
    below the subdiagonal have norm at most ``tiny`` is left as it is.  Each
    step forms its rank-two update v w^T + w v^T once, as the m x m view
    ``t`` of one n^2 scratch buffer mirrored onto itself (t = v w^T, then
    t += t^T: w_i v_j == v_j w_i in IEEE arithmetic), and the same view holds
    the products that sum to p = beta S v.
    """
    n = a.shape[0]
    off = [0.0] * n
    buf = np.empty(n * n)
    for k in range(n - 2):
        x = a[k + 1 :, k]
        x0 = float(x[0])
        tail = float(np.add.reduce(x[1:] ** 2))
        if tail <= tiny * tiny:
            off[k] = x0
            continue
        norm = math.sqrt(x0 * x0 + tail)
        # H = I - beta v v^T maps x to alpha e_1; the sign of alpha avoids cancellation
        alpha = -math.copysign(norm, x0)
        v = x.copy()
        v[0] -= alpha
        beta = 1.0 / (norm * (norm + abs(x0)))
        m = n - k - 1
        sub, t = a[k + 1 :, k + 1 :], buf[: m * m].reshape(m, m)
        p = beta * np.add.reduce(np.multiply(sub, v, out=t), axis=1)
        w = p - (0.5 * beta * float(np.add.reduce(p * v))) * v
        np.multiply.outer(v, w, out=t)
        t += t.T
        sub -= t
        off[k] = alpha
    if n > 1:
        off[n - 2] = float(a[n - 1, n - 2])
    return np.diag(a).tolist(), off


def eig_sym(A: SymMatrix):
    """Eigenvalues of ``A``: Householder tridiagonalisation, then implicit QL.

    Returns ``(lam, None)`` with ``lam`` ascending: no eigenvectors are
    formed, and the None keeps the pair that callers unpack.  An eigenvalue
    beyond the largest double is returned as +-inf, which still counts with
    the right sign.  An off-diagonal entry of T at most ``eps * ||A||_F``
    counts as zero, and a 2x2 block is diagonalised in closed form.  Raises
    :class:`ConvergenceError` when one eigenvalue takes more than
    ``MAX_QL_ITERATIONS`` QL iterations.
    """
    n = A.n
    if n == 1:
        return A.entries[0].copy(), None

    # the solver runs on A / 2^e: exact, the same steps for every power-of-two
    # scaling, and no overflow or underflow
    ex = A._e
    tiny = _EPS * A._s
    d, off = _tridiagonalize(np.ldexp(A.entries, -ex), tiny)

    # QL with implicit shifts (EISPACK tql2)
    for l in range(n):
        for it in range(MAX_QL_ITERATIONS + 1):
            m = l
            while m < n - 1 and abs(off[m]) > tiny:
                m += 1
            if m == l:
                break
            if m == l + 1:
                # the closed-form Jacobi rotation keeps 2x2 spectra such as
                # [-1, 3] exact; the next pass finds the block split
                apq, app, aqq = off[l], d[l], d[l + 1]
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                d[l], d[l + 1] = app - t * apq, aqq + t * apq
                off[l] = 0.0
            else:
                if it == MAX_QL_ITERATIONS:
                    raise ConvergenceError(
                        f"QL did not converge in {MAX_QL_ITERATIONS} iterations "
                        f"(eigenvalue {l} of {n}, off-diagonal {abs(off[l]):.3e}, target {tiny:.3e})"
                    )
                g = (d[l + 1] - d[l]) / (2.0 * off[l])
                r = math.hypot(g, 1.0)
                g = d[m] - d[l] + off[l] / (g + math.copysign(r, g))
                s = c = 1.0
                p = 0.0
                for i in range(m - 1, l - 1, -1):
                    f = s * off[i]
                    b = c * off[i]
                    r = math.hypot(f, g)
                    off[i + 1] = r
                    if r == 0.0:
                        # underflow: T splits at i + 1; iterate again
                        d[i + 1] -= p
                        off[m] = 0.0
                        break
                    s = f / r
                    c = g / r
                    g = d[i + 1] - p
                    r = (d[i] - g) * s + 2.0 * c * b
                    p = s * r
                    d[i + 1] = g + p
                    g = c * r - b
                else:
                    d[l] -= p
                    off[l] = g
                    off[m] = 0.0

    with np.errstate(over="ignore"):
        lam = np.ldexp(np.array(d), ex)
    return np.sort(lam, kind="stable"), None


def zero_threshold(A: SymMatrix) -> float:
    """Eigenvalues of ``A`` with |lam| <= this count as zero: REL_ZERO * ||A||_F.

    Purely relative, so inertia(c * A) == inertia(A) for every c > 0.  It is
    formed from ||A||_F / 2^e, so it is finite when ||A||_F is not.
    """
    return math.ldexp(REL_ZERO * A._s, A._e)


def inertia(A: SymMatrix, *, lam: np.ndarray | None = None) -> Inertia:
    """Count (negative, zero, positive) eigenvalues of ``A`` (of ``lam`` when the
    caller has A's :func:`eig_sym` spectrum); |lam| <= :func:`zero_threshold` is zero."""
    lam = eig_sym(A)[0] if lam is None else lam
    thresh = zero_threshold(A)
    n_neg = int(np.sum(lam < -thresh))
    n_pos = int(np.sum(lam > thresh))
    return Inertia(n_neg, A.n - n_neg - n_pos, n_pos)


def sturm_count(A: SymMatrix, shifts) -> list[int]:
    """#{lam(A) < sigma} for each sigma of ``shifts``: the Sturm count of
    :func:`inertia_stack` for one matrix, run on :func:`_tridiagonalize` of
    A / 2^e, so a power-of-two scaling of A and the shifts keeps the counts.
    The zero matrix has n eigenvalues below a positive shift, else none."""
    n, e = A.n, A._e
    if A._s == 0.0:
        return [n * (s > 0.0) for s in shifts]
    d, off = _tridiagonalize(np.ldexp(A.entries, -e), _EPS * A._s)
    e2 = [x * x for x in off[: n - 1]]
    pivmin = _TINY * max([1.0, *e2])
    counts = []
    for s in shifts:
        sigma, below = math.ldexp(s, -e), 0
        for i in range(n):
            q = d[i] - sigma - (e2[i - 1] / q if i else 0.0)
            if abs(q) < pivmin:
                q = -pivmin
            below += q < 0.0
        counts.append(below)
    return counts


def _tridiagonalize_stack(a: np.ndarray, tiny: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_tridiagonalize` on every slice of the (B, N, N) stack ``a`` at once.

    ``a`` is overwritten; ``tiny`` holds one skip threshold
    per slice.  A lane whose column is already reduced gets beta = 0, so the
    update leaves it as it is (it can only turn a -0.0 into +0.0); a column
    that every lane has reduced is skipped, as :func:`_tridiagonalize` skips
    it.  The rank-two update is mirrored in one scratch stack, as there.
    Returns the (B, N) arrays ``d`` and ``off``.
    """
    n = a.shape[1]
    off = np.zeros(a.shape[:2])
    tiny2 = tiny * tiny
    buf = np.empty(a.size)
    for k in range(n - 2):
        x = a[:, k + 1 :, k]
        x0 = x[:, 0]
        tail = np.einsum("bi,bi->b", x[:, 1:], x[:, 1:])
        skip = tail <= tiny2
        if skip.all():
            off[:, k] = x0
            continue
        norm = np.sqrt(x0 * x0 + tail)
        alpha = -np.copysign(norm, x0)
        v = x.copy()
        v[:, 0] -= alpha
        den = norm * (norm + np.abs(x0))
        beta = np.divide(1.0, den, out=np.zeros_like(den), where=~skip)
        m = n - k - 1
        sub, t = a[:, k + 1 :, k + 1 :], buf[: len(a) * m * m].reshape(-1, m, m)
        p = beta[:, None] * np.einsum("bij,bj->bi", sub, v)
        w = p - (0.5 * beta * np.einsum("bi,bi->b", p, v))[:, None] * v
        np.multiply(v[:, :, None], w[:, None, :], out=t)
        t += t.transpose(0, 2, 1)
        sub -= t
        off[:, k] = np.where(skip, x0, alpha)
    if n > 1:
        off[:, n - 2] = a[:, n - 1, n - 2]
    return np.diagonal(a, axis1=1, axis2=2).copy(), off


def inertia_stack(a, n) -> np.ndarray:
    """(neg, zero, pos) counts of every slice of a zero-padded symmetric stack.

    ``a`` has shape (B, N, N): slice b holds a symmetric ``n[b]`` x ``n[b]``
    matrix in its leading block and zeros elsewhere.  Padding adds only zero
    eigenvalues and keeps ||.||_F, so slices of mixed sizes share one stack
    and one zero rule, that of :func:`inertia`.  Each slice is scaled by its
    own 2^-e and reduced to tridiagonal T with B lanes; then the number of
    negative pivots of T - sigma I, which is #{lam < sigma}, is counted at
    sigma = -tau and +tau, tau = REL_ZERO * ||A||_F (Kahan 1966; Demmel,
    Dhillon & Ren, ETNA 3, 1995; LAPACK ``dstebz``).  A count can differ from
    :func:`inertia` only for an eigenvalue within about 1e-4 of tau.  Returns
    a (B, 3) int array.  For one matrix, :func:`inertia` is faster.
    """
    # the scaling below makes a new array, so the reduction never writes to the input
    a = np.asarray(a, dtype=float)
    n = np.asarray(n, dtype=int)
    if a.shape[0] == 0:
        return np.zeros((0, 3), dtype=int)
    size = a.shape[1]
    a = np.ldexp(a, -np.frexp(np.max(np.abs(a), axis=(1, 2)))[1][:, None, None])
    fro = np.sqrt(np.einsum("bij,bij->b", a, a))
    d, off = _tridiagonalize_stack(a, _EPS * fro)

    # Sturm pivots q_i = d_i - sigma - off_(i-1)^2 / q_(i-1), floored away
    # from zero as in dstebz so that no division overflows
    e2 = off[:, :-1] ** 2
    pivmin = _TINY * np.maximum(1.0, np.max(e2, axis=1, initial=0.0))
    sigma = REL_ZERO * np.stack([-fro, fro])
    below = np.zeros(sigma.shape, dtype=int)
    for i in range(size):
        q = d[:, i] - sigma - (e2[:, i - 1] / q if i else 0.0)
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        below += q < 0.0
    # padded zeros lie in (-tau, tau) and count toward n - neg - pos alone;
    # tau = 0 only for a zero slice, whose zeros the floor would call negative
    flat = fro == 0.0
    neg = np.where(flat, 0, below[0])
    pos = np.where(flat, 0, size - below[1])
    return np.stack([neg, n - neg - pos, pos], axis=1)


def _padded(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """The lanes of (B, n_j, n_j) stacks as one zero-padded stack, lane by
    lane: lane b of every stack in turn, each in the leading block of an
    N x N slice with zeros elsewhere, N the largest n_j."""
    size = max(a.shape[-1] for a in stacks)
    if all(a.shape[-1] == size for a in stacks):
        return np.stack(stacks, axis=1).reshape(-1, size, size)
    out = np.zeros((len(stacks[0]), len(stacks), size, size))
    for j, a in enumerate(stacks):
        out[:, j, : a.shape[-1], : a.shape[-1]] = a
    return out.reshape(-1, size, size)


def _counts(stack: np.ndarray, sizes: Sequence[int]) -> list[Inertia]:
    """The counts of a zero-padded stack's lanes, of the given sizes, in order."""
    return list(map(Inertia._make, inertia_stack(stack, sizes).tolist()))


def _count(arrays: Sequence[np.ndarray]) -> list[Inertia]:
    """Counts of symmetric arrays of any sizes in one :func:`inertia_stack`
    call, zero-padded to the largest (:func:`_padded`)."""
    return _counts(_padded([a[None] for a in arrays]), [len(a) for a in arrays])


def _built(trial: tuple[list, Callable]) -> tuple[list[int], tuple[list, Callable]]:
    """A trial (arrays to count, check over their counts) whose arrays are
    built, as :func:`_on_stack` takes it: its lane sizes and itself."""
    return [len(a) for a in trial[0]], trial


def _laid(chunk: Sequence[tuple[list, Callable]]) -> tuple[np.ndarray, list[Callable]]:
    """The default settle of :func:`_on_stack`: built trials (:func:`_built`)
    as the zero-padded stack of their arrays, in order, and their checks."""
    return _padded([a[None] for arrays, _ in chunk for a in arrays]), [check for _, check in chunk]


def _on_stack(trials: Iterable[tuple[list[int], object]], settle: Callable = _laid) -> Iterator:
    """The checks of ``trials``, pairs (lane sizes, draw), in order, counted
    on the stack.

    Trials are packed in order, by their lane sizes alone, until the next one
    would take the zero-padded stack past ``STACK_ENTRIES`` entries (one
    trial alone may pass it).  Then ``settle`` turns the chunk's draws, in
    one call, into their lanes laid out as one zero-padded stack, in the
    declared order (each lane in the leading block of its slice, zeros
    elsewhere), and one check per draw.  One :func:`inertia_stack` call
    counts the stack against the declared sizes, and each check gets the
    counts of its own lanes.  By default a draw is a built trial
    (:func:`_built`), laid out by :func:`_laid`.  ``trials`` is drawn lazily:
    the next trial is drawn before the chunk it does not fit in is settled.
    """
    chunk, sizes, size = [], [], 0
    # past the last trial, one with no lanes and no draw flushes the last chunk
    for lanes, draw in chain(trials, [((), None)]):
        big = max(lanes, default=0)
        if chunk and (draw is None or (len(sizes) + len(lanes)) * max(size, big) ** 2 > STACK_ENTRIES):
            stack, checks = settle([d for _, d in chunk])
            counts = iter(_counts(stack, sizes))
            yield from (c(*islice(counts, width)) for (width, _), c in zip(chunk, checks))
            chunk, sizes, size = [], [], 0
        chunk.append((len(lanes), draw))
        sizes.extend(lanes)
        size = max(size, big)


def _leading_counts(A: SymMatrix) -> list[int]:
    """n_neg of every leading block A_j, each against its own zero threshold
    tau_j = ``REL_ZERO`` * ||A_j||_F: one elimination certifies what it can,
    and :func:`_on_stack` counts the rest, as it counted every block before.

    Jacobi's signature rule (Gantmacher, *The Theory of Matrices* I, ch. X):
    while no pivot of the unpivoted LDL^T of M = A - sigma I vanishes, the
    negative pivots among the first j number #{lam(A_j) < sigma}.  The
    elimination runs once, on a = A / 2^e, at sigma_lo = -2 tau_n and
    sigma_hi = -tau_1 / 2, which bracket every -tau_j with room tau_j / 4 on
    each side.  The computed factors of M_j are exact for M_j + E_j with
    ||E_j||_2 <= err_j = gamma * (|| |M_j| + |L_j| |D_j| |L_j^T| ||_F +
    j * 2^-511) (Higham, *Accuracy and Stability of Numerical Algorithms*,
    chs. 9-11).  Block j keeps its pivot count when it is certified: every
    pivot up to j is finite and nonzero at both shifts, the two counts
    agree, err_j <= tau_n / 2 at sigma_lo and err_j <= tau_j / 4 at sigma_hi.
    Then no eigenvalue of A_j lies within tau_j / 4 of -tau_j, while
    :func:`inertia_stack` is off only within about 1e-4 tau_j of it, so the
    two counts are equal.  gamma = 4 (n + 1) u covers the roundings that
    each update and pivot division add to Higham's gamma_n.  The term
    j * 2^-511 covers what underflow takes: squares below 2^-1022 in the norm
    sums (j^2 of them), subnormal entries that the scaling by 2^-e rounds,
    and products that gradual underflow rounds in the elimination; it leaves
    to the stack a block whose norm lies below about 1e-160 (n = 2) to
    1e-157 (n = 256) of A's largest entry.  The factors come from the lower triangle alone: each update is
    w l^T, with w the pivot column and l = w / pivot, and what it writes
    above the diagonal enters only the bound, where it equals its mirror
    entry up to rounding.
    """
    n = A.n
    a = np.ldexp(A.entries, -A._e)
    # the 2-D cumulative sum of a^2 holds ||a_j||_F^2 on its diagonal
    tau = REL_ZERO * np.sqrt(np.diagonal(np.cumsum(np.cumsum(a * a, axis=0), axis=1)))
    diag = np.arange(n)
    m = np.stack([a, a])
    m[:, diag, diag] += np.array([[2.0 * tau[-1]], [0.5 * tau[0]]])
    # |M| + |L| |D| |L^T|: |M| plus the magnitude of every update
    bound = np.abs(m)
    buf = np.empty(m.size)
    with np.errstate(all="ignore"):  # a zero pivot leaves inf and nan, which certify nothing
        for k in range(n):
            w = m[:, k:, k]
            t = buf[: w.size * (n - k)].reshape(2, n - k, n - k)
            np.multiply(w[:, :, None], (w / w[:, :1])[:, None, :], out=t)
            m[:, k + 1 :, k + 1 :] -= t[:, 1:, 1:]
            bound[:, k:, k:] += np.abs(t, out=t)
        d = m[:, diag, diag]
        fro = np.sqrt(np.diagonal(np.cumsum(np.cumsum(bound * bound, axis=1), axis=2), axis1=1, axis2=2))
        err = 4.0 * (n + 1) * (0.5 * _EPS) * (fro + np.ldexp(diag + 1.0, -511))
        below = np.cumsum(d < 0.0, axis=1)
        sure = (
            np.logical_and.accumulate(np.isfinite(d) & (d != 0.0), axis=1).all(axis=0)
            & (below[0] == below[1])
            & (err[0] <= 0.5 * tau[-1])
            & (err[1] <= 0.25 * tau)
        )
    counts = below[0].tolist()
    loose = [j for j in range(1, n + 1) if not sure[j - 1]]
    for j, c in zip(loose, _on_stack(_built(([A.entries[:j, :j]], lambda c: c.n_neg)) for j in loose)):
        counts[j - 1] = c
    return counts


def is_member(A: SymMatrix, k: int, dom: DomainSpec, closure: bool = False) -> bool:
    """Membership test: entries inside ``dom`` and exactly ``k`` negative
    eigenvalues (at most ``k`` with ``closure=True``)."""
    int_in(k, "negative-eigenvalue count")
    try:
        dom.check_matrix(A)
    except DomainViolation:
        return False
    n_neg = inertia(A).n_neg
    return n_neg <= k if closure else n_neg == k


def _direct_sum(blocks: list[np.ndarray], shift=0.0) -> np.ndarray:
    """Block-diagonal sum of square arrays plus ``shift`` in every entry,
    unchecked.  With (H, n, n) stacks among the blocks, or a shift of
    shape (H, 1, 1), it is the (H, N, N) stack of the sums of each slice (a
    2-D block or a float shift is the same in every slice)."""
    n, lead = 0, getattr(shift, "shape", ())[:-2]
    for b in blocks:
        n += b.shape[-1]
        if b.ndim > 2:
            lead = b.shape[:-2]
    out = np.full(lead + (n, n), shift)
    at = 0
    for b in blocks:
        m = b.shape[-1]
        out[..., at : at + m, at : at + m] += b
        at += m
    return out


def direct_sum(mats: Iterable[SymMatrix]) -> SymMatrix:
    """Block-diagonal sum of symmetric matrices (at least one)."""
    mats = list(mats)
    if not mats:
        raise ConfigError("direct_sum needs at least one block")
    return SymMatrix(_direct_sum([m.entries for m in mats]))
