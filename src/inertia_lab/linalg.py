"""Symmetric matrices, inertia counting, and the basic matrix algebra.

Everything downstream (constructions, the verification harness, the CLI)
speaks :class:`SymMatrix`.  Eigenvalues come from a hand-written cyclic
Jacobi sweep so that the whole negativity bookkeeping chain is self-contained
and deterministic; LAPACK never enters the runtime path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import AsymmetryError, ConfigError, ConvergenceError, DomainViolation

#: hard cap on Jacobi sweeps before giving up
MAX_SWEEPS = 100

#: relative asymmetry beyond which a parsed matrix is rejected instead of averaged
ASYMMETRY_TOL = 1e-12

DOMAIN_KINDS = ("two_sided", "open_positive", "closed_left")

#: bounds on a finite domain radius: squared entries of members stay normal doubles
RHO_MIN, RHO_MAX = 1e-150, 1e150


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical thresholds used by the eigensolver and inertia counting.

    Both are relative to ``||A||_F`` alone, so no positive scaling of A
    changes a count.  ``rel_zero`` decides when an eigenvalue counts as zero:
    |lam| <= rel_zero * ||A||_F.  ``eig_convergence`` is the off-diagonal
    Frobenius mass, over ``||A||_F``, below which the Jacobi iteration stops.
    """

    rel_zero: float = 1e-9
    eig_convergence: float = 1e-13

    def __post_init__(self):
        for name in ("rel_zero", "eig_convergence"):
            v = getattr(self, name)
            if not (isinstance(v, float) and 0.0 < v < 1e-2):
                raise ConfigError(f"{name} must be a float in (0, 1e-2), got {v!r}")
        if self.eig_convergence > self.rel_zero:
            raise ConfigError("eig_convergence must not exceed rel_zero")

    def to_json_dict(self) -> dict:
        return {"rel_zero": self.rel_zero, "eig_convergence": self.eig_convergence}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TolerancePolicy":
        if not isinstance(d, dict):
            raise ConfigError("tolerance policy must be a JSON object")
        unknown = set(d) - {"rel_zero", "eig_convergence"}
        if unknown:
            raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
        try:
            kwargs = {k: float(v) for k, v in d.items()}
        except (TypeError, ValueError):
            raise ConfigError(f"tolerance values must be numbers, got {d!r}") from None
        return cls(**kwargs)


DEFAULT_TOL = TolerancePolicy()


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

    def check_matrix(self, A: "SymMatrix", slot: int = 1) -> None:
        """Raise :class:`DomainViolation` at the first out-of-domain entry."""
        ent = A.entries
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
        if rho == "inf":
            rho_f = math.inf
        else:
            try:
                rho_f = float(rho)
            except (TypeError, ValueError):
                raise ConfigError(f"bad rho value {rho!r}") from None
        return cls(kind=d.get("kind", "two_sided"), rho=rho_f)


def _binade(a: np.ndarray) -> int:
    """The e with max |a_ij| in [2^(e-1), 2^e); 0 for the zero matrix."""
    return math.frexp(float(np.max(np.abs(a))))[1]


class SymMatrix:
    """Immutable real symmetric matrix.

    Construction symmetrizes the input by averaging it with its transpose;
    IEEE addition commutes, so the stored array is bitwise symmetric, and
    adding +0.0 stores every zero as +0.0.
    The entry array is frozen (non-writeable), so an instance never changes
    after construction.
    """

    __slots__ = ("_a", "_fro")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ConfigError("matrices must have at least one row")
        if not np.all(np.isfinite(a)):
            raise ConfigError("matrix entries must be finite")
        a = 0.5 * (a + a.T) + 0.0
        a.flags.writeable = False
        self._a = a
        # summed over a / 2^e (exact), the squares neither overflow nor underflow
        e = _binade(a)
        self._fro = math.ldexp(float(np.sqrt(np.sum(np.ldexp(a, -e) ** 2))), e)

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._a

    @property
    def fro(self) -> float:
        return self._fro

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self._a.shape[0], self._a.tobytes()))

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
        n = d["n"]
        rows = d["rows"]
        if not isinstance(n, int) or n < 1:
            raise ConfigError(f"bad matrix size {n!r}")
        try:
            a = np.array(rows, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("matrix rows must be numeric") from None
        if a.shape != (n, n):
            raise ConfigError(f"rows shape {a.shape} does not match n={n}")
        if not np.all(np.isfinite(a)):
            raise ConfigError("matrix entries must be finite")
        scale = float(np.max(np.abs(a)))
        gap = float(np.max(np.abs(a - a.T)))
        if gap > ASYMMETRY_TOL * scale:
            raise AsymmetryError(
                f"matrix is asymmetric: max |a_ij - a_ji| = {gap:.3e} "
                f"exceeds {ASYMMETRY_TOL:.0e} * {scale:g}"
            )
        return cls(a)


def sym(entries) -> SymMatrix:
    """Shorthand constructor used throughout the package."""
    return SymMatrix(entries)


def _rotate(a: np.ndarray, qmat: np.ndarray, p: int, q: int) -> None:
    """Apply one two-sided Jacobi rotation annihilating a[p, q]."""
    apq = a[p, q]
    app = a[p, p]
    aqq = a[q, q]
    theta = (aqq - app) / (2.0 * apq)
    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - s * col_q
    a[:, q] = s * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = s * row_p + c * row_q
    # closed forms for the pivot entries keep the zero exact
    a[p, p] = app - t * apq
    a[q, q] = aqq + t * apq
    a[p, q] = 0.0
    a[q, p] = 0.0

    col_p = qmat[:, p].copy()
    col_q = qmat[:, q].copy()
    qmat[:, p] = c * col_p - s * col_q
    qmat[:, q] = s * col_p + c * col_q


def eig_sym(A: SymMatrix, tol: TolerancePolicy = DEFAULT_TOL):
    """Full symmetric eigendecomposition by cyclic Jacobi with threshold sweeps.

    Returns ``(lam, Q)`` with ``lam`` ascending and ``A = Q diag(lam) Q^T``.
    Raises :class:`ConvergenceError` after ``MAX_SWEEPS`` sweeps.
    """
    n = A.n
    qmat = np.eye(n)
    if n == 1:
        return A.entries[0].copy(), qmat

    # Jacobi runs on A / 2^e: exact, the same rotations, and no overflow or
    # underflow in the off-diagonal mass.  The zero matrix stops at once.
    e = _binade(A.entries)
    a = np.ldexp(A.entries, -e)
    stop = tol.eig_convergence * math.ldexp(A.fro, -e)
    # if every pivot is below `skip`, the total off-diagonal mass is below `stop`
    skip = stop / (2.0 * n)

    for sweep in range(MAX_SWEEPS + 1):
        off = math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))
        if off <= stop:
            break
        if sweep == MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi did not converge in {MAX_SWEEPS} sweeps "
                f"(off-diagonal mass {off:.3e}, target {stop:.3e})"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > skip:
                    _rotate(a, qmat, p, q)

    lam = np.ldexp(np.diag(a), e)
    order = np.argsort(lam, kind="stable")
    return lam[order], qmat[:, order]


def zero_threshold(A: SymMatrix, tol: TolerancePolicy) -> float:
    """Eigenvalues of ``A`` with |lam| <= this count as zero: rel_zero * ||A||_F.

    Purely relative, so inertia(c * A) == inertia(A) for every c > 0.
    """
    return tol.rel_zero * A.fro


def spectrum_inertia(A: SymMatrix, lam: np.ndarray, tol: TolerancePolicy) -> Inertia:
    """The sign counts of ``lam``, the spectrum of ``A``, against :func:`zero_threshold`."""
    thresh = zero_threshold(A, tol)
    n_neg = int(np.sum(lam < -thresh))
    n_pos = int(np.sum(lam > thresh))
    return Inertia(n_neg, A.n - n_neg - n_pos, n_pos)


def inertia(A: SymMatrix, tol: TolerancePolicy = DEFAULT_TOL) -> Inertia:
    """Count (negative, zero, positive) eigenvalues of ``A``.

    An eigenvalue is treated as zero when |lam| <= :func:`zero_threshold`.
    """
    return spectrum_inertia(A, eig_sym(A, tol)[0], tol)


def rank(A: SymMatrix, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    ine = inertia(A, tol)
    return ine.n_neg + ine.n_pos


def is_member(
    A: SymMatrix,
    k: int,
    dom: DomainSpec,
    tol: TolerancePolicy = DEFAULT_TOL,
    closure: bool = False,
) -> bool:
    """Membership test: entries inside ``dom`` and exactly ``k`` negative
    eigenvalues (at most ``k`` with ``closure=True``)."""
    if not isinstance(k, int) or k < 0:
        raise ConfigError(f"negative-eigenvalue count must be a nonnegative int, got {k!r}")
    try:
        dom.check_matrix(A)
    except DomainViolation:
        return False
    n_neg = inertia(A, tol).n_neg
    return n_neg <= k if closure else n_neg == k


def loewner_geq(A: SymMatrix, B: SymMatrix, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Loewner comparison A >= B: is A - B positive semidefinite?"""
    if A.n != B.n:
        raise ConfigError("Loewner comparison needs matching sizes")
    diff = SymMatrix(A.entries - B.entries)
    return inertia(diff, tol).n_neg == 0


def schur_product(A: SymMatrix, B: SymMatrix) -> SymMatrix:
    """Entrywise product of two symmetric matrices of the same size."""
    if A.n != B.n:
        raise ConfigError("Schur product needs matching sizes")
    return SymMatrix(A.entries * B.entries)


def hadamard_power(mats: Sequence[SymMatrix], alpha: Sequence[int]) -> SymMatrix:
    """Entrywise monomial of a tuple: prod_p mats[p] ** alpha[p], with 0**0 = 1."""
    mats = list(mats)
    alpha = tuple(alpha)
    if not mats:
        raise ConfigError("hadamard_power needs at least one matrix")
    if len(mats) != len(alpha):
        raise ConfigError(f"tuple arity {len(mats)} does not match exponent arity {len(alpha)}")
    n = mats[0].n
    for m in mats:
        if m.n != n:
            raise ConfigError("all matrices in a tuple must share one size")
    out = np.ones((n, n))
    for m, e in zip(mats, alpha):
        if not isinstance(e, int) or e < 0:
            raise ConfigError(f"exponents must be nonnegative ints, got {e!r}")
        if e:
            out = out * m.entries**e
    return SymMatrix(out)


def direct_sum(mats: Iterable[SymMatrix]) -> SymMatrix:
    """Block-diagonal sum of symmetric matrices (at least one)."""
    mats = list(mats)
    if not mats:
        raise ConfigError("direct_sum needs at least one block")
    total = sum(m.n for m in mats)
    out = np.zeros((total, total))
    at = 0
    for m in mats:
        out[at : at + m.n, at : at + m.n] = m.entries
        at += m.n
    return SymMatrix(out)
