"""Entrywise function specs, their evaluation, and the syntactic classifier.

Every function spec is one :class:`FunctionSpec`: a finitely supported real
polynomial in ``arity`` variables, kept as canonical terms.  Five
constructors build the shapes the classifier and the harness talk about:

* :func:`Constant` -- f(x) = d
* :func:`Homothety` -- f(x) = c * x_slot with c > 0
* :func:`Affine` -- f(x) = offset + c * x_slot with c > 0
* :func:`Series` -- finitely supported multivariate polynomial
* :func:`SplitForm` -- f(x) = F(x_1..x_m0) + c * x_slot with c >= 0

A spec keeps the JSON form of the constructor that built it, so ``fn`` in a
report names its shape; evaluation and classification see only the terms.
Calling a spec evaluates it entry by entry on same-shape arrays (a point, a
matrix, a stack of matrices or a lattice).

``classify`` inspects a spec purely syntactically and reports whether the
function belongs to the family that is compatible with a negativity claim
(see ``inertia_lab.harness`` for the claim vocabulary), or names the clause
it violates.  The harness uses those clause names to pick witness recipes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, RegimeNotCovered, finite_float, int_in
from .linalg import DomainSpec, SymMatrix

CLASSIFY_MODES = ("bounded", "exact", "inertia")


# ---------------------------------------------------------------------------
# multi-index helpers
# ---------------------------------------------------------------------------

def _check_multi_index(alpha, arity: int) -> tuple[int, ...]:
    alpha = tuple(alpha)
    if len(alpha) != arity:
        raise ConfigError(f"multi-index {alpha} has arity {len(alpha)}, expected {arity}")
    what = f"component of multi-index {alpha}"
    for e in alpha:
        int_in(e, what)
    return alpha


def _canonical_terms(arity: int, coeffs) -> tuple[tuple[tuple[int, ...], float], ...]:
    """Validate, merge, drop zeros, and sort by (total degree, lex)."""
    if isinstance(coeffs, Mapping):
        items = coeffs.items()
    else:
        items = list(coeffs)
    merged: dict[tuple[int, ...], float] = {}
    for alpha, c in items:
        alpha = _check_multi_index(alpha, arity)
        c = finite_float(c, "series coefficient")
        merged[alpha] = merged.get(alpha, 0.0) + c
    terms = tuple(
        (alpha, c)
        for alpha, c in sorted(merged.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        if c != 0.0
    )
    return terms


def _unit(slot: int, arity: int) -> tuple[int, ...]:
    """The multi-index of x_slot (1-based)."""
    return tuple(int(p == slot) for p in range(1, arity + 1))


# ---------------------------------------------------------------------------
# the function spec type and its constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """A finitely supported polynomial sum_alpha c_alpha * x^alpha.

    ``terms`` is canonical: zero coefficients dropped, sorted by total
    degree and then lexicographically.  Evaluation accumulates in that
    order, so results are bit-reproducible.  ``_form`` is the JSON text of
    the constructor that built the spec; it only feeds :meth:`to_json_dict`
    and equality.
    Build specs with the constructors below or :func:`fn_from_json_dict`.
    """

    arity: int
    terms: tuple[tuple[tuple[int, ...], float], ...]
    _form: str = field(repr=False)

    @property
    def degree(self) -> int:
        """The declared degree cap of a series, else the support's degree."""
        return self.to_json_dict().get("degree", max((sum(a) for a, _ in self.terms), default=0))

    def term_map(self) -> dict[tuple[int, ...], float]:
        return dict(self.terms)

    def to_json_dict(self) -> dict:
        return json.loads(self._form)

    def __call__(self, *xs):
        """Evaluate entry by entry on ``arity`` same-shape arrays (or floats).

        Each variable's powers are built by repeated multiplication, and only
        those the terms use are kept, so memory does not grow with the
        exponent.  The terms are added in canonical order, starting from zeros.
        """
        if len(xs) != self.arity:
            raise ConfigError(f"got {len(xs)} arguments, function needs {self.arity}")
        xs = [np.asarray(x, dtype=float) for x in xs]
        shape = xs[0].shape
        if any(x.shape != shape for x in xs):
            raise ConfigError("all arguments must share one shape")
        powers = []
        for p, x in enumerate(xs):
            used, tab, power = {a[p] for a, _ in self.terms}, {}, np.ones(shape)
            for e in range(1, max(used, default=0) + 1):
                power = power * x
                if e in used:
                    tab[e] = power
            powers.append(tab)
        out = np.zeros(shape)
        for alpha, c in self.terms:
            prod = None
            for p, e in enumerate(alpha):
                if e:
                    prod = powers[p][e] if prod is None else prod * powers[p][e]
            out = out + (c if prod is None else c * prod)
        return out


def _spec(arity: int, terms, form: dict) -> FunctionSpec:
    return FunctionSpec(arity, _canonical_terms(arity, terms), json.dumps(form))


def Constant(value: float, arity: int = 1) -> FunctionSpec:
    """f(x) = value, in any number of variables."""
    value = finite_float(value, "constant value")
    int_in(arity, "arity", 1)
    form = {"type": "constant", "value": value, "arity": arity}
    return _spec(arity, [((0,) * arity, value)], form)


def Homothety(c: float, slot: int = 1, arity: int = 1) -> FunctionSpec:
    """f(x) = c * x_slot with c > 0 (slot is 1-based)."""
    c = finite_float(c, "homothety ratio", positive=True)
    int_in(slot, "slot", 1, int_in(arity, "arity", 1))
    form = {"type": "homothety", "c": c, "slot": slot, "arity": arity}
    return _spec(arity, [(_unit(slot, arity), c)], form)


def Affine(offset: float, c: float, slot: int = 1, arity: int = 1) -> FunctionSpec:
    """f(x) = offset + c * x_slot with c > 0."""
    offset = finite_float(offset, "affine offset")
    c = finite_float(c, "affine slope", positive=True)
    int_in(slot, "slot", 1, int_in(arity, "arity", 1))
    form = {"type": "affine", "offset": offset, "c": c, "slot": slot, "arity": arity}
    return _spec(arity, [((0,) * arity, offset), (_unit(slot, arity), c)], form)


def Series(arity: int, coeffs, degree: int | None = None) -> FunctionSpec:
    """Finitely supported polynomial from (alpha, coeff) pairs or a mapping.

    Repeated multi-indices are merged.  ``degree`` bounds the total degree of
    the support; it defaults to the largest |alpha| present.
    """
    int_in(arity, "arity", 1)
    terms = _canonical_terms(arity, coeffs)
    max_deg = max((sum(a) for a, _ in terms), default=0)
    degree = max_deg if degree is None else int_in(degree, "degree")
    if degree < max_deg:
        raise ConfigError(f"support has total degree {max_deg} above the declared cap {degree}")
    form = {
        "type": "series",
        "arity": arity,
        "degree": degree,
        "terms": [{"alpha": list(a), "coeff": c} for a, c in terms],
    }
    return _spec(arity, terms, form)


def SplitForm(arity: int, base: FunctionSpec, c: float, slot: int) -> FunctionSpec:
    """f(x) = base(x_1, ..., x_m0) + c * x_slot with c >= 0 and slot > m0."""
    int_in(arity, "arity", 1)
    if not isinstance(base, FunctionSpec) or base.to_json_dict()["type"] != "series":
        raise ConfigError("split-form base must be a Series")
    c = finite_float(c, "split-form slope")
    if c < 0.0:
        raise ConfigError("split-form slope must be >= 0")
    if base.arity >= arity:
        raise ConfigError("split-form base must use fewer variables than the full arity")
    int_in(slot, "slot", base.arity + 1, arity)
    pad = (0,) * (arity - base.arity)
    terms = [(a + pad, b) for a, b in base.terms] + [(_unit(slot, arity), c)]
    form = {"type": "split", "arity": arity, "base": base.to_json_dict(), "c": c, "slot": slot}
    return _spec(arity, terms, form)


_FN_TYPES = {
    "constant": Constant,
    "homothety": Homothety,
    "affine": Affine,
    "series": Series,
    "split": SplitForm,
}


def fn_from_json_dict(d: dict) -> FunctionSpec:
    if not isinstance(d, dict) or "type" not in d:
        raise ConfigError('function JSON must be an object with a "type" key')
    kind = d["type"]
    if not isinstance(kind, str) or kind not in _FN_TYPES:
        raise ConfigError(f"unknown function type {kind!r}")
    body = {k: v for k, v in d.items() if k != "type"}
    try:
        if kind == "series":
            terms = body.pop("terms")
            coeffs = [(tuple(t["alpha"]), t["coeff"]) for t in terms]
            return Series(coeffs=coeffs, **body)
        if kind == "split":
            return SplitForm(base=fn_from_json_dict(body.pop("base")), **body)
        return _FN_TYPES[kind](**body)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} spec: {exc}") from None
    except (KeyError, AttributeError) as exc:
        raise ConfigError(f"bad {kind} spec: missing {exc}") from None


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def apply_entrywise(
    f: FunctionSpec, mats: Sequence[SymMatrix], dom: DomainSpec
) -> SymMatrix:
    """Apply ``f`` to a tuple of same-size symmetric matrices entry by entry."""
    mats = list(mats)
    if len(mats) != f.arity:
        raise ConfigError(f"tuple has {len(mats)} matrices, function needs {f.arity}")
    n = mats[0].n
    for p, m in enumerate(mats, start=1):
        if m.n != n:
            raise ConfigError("all matrices in a tuple must share one size")
        dom.check_matrix(m, slot=p)
    with np.errstate(over="ignore", invalid="ignore"):  # SymMatrix refuses a non-finite entry
        return SymMatrix(f(*(m.entries for m in mats)))


# ---------------------------------------------------------------------------
# admissible negativity tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibleK:
    """Per-variable negative-eigenvalue counts, zeros listed first."""

    k: tuple[int, ...]

    def __init__(self, k: Iterable[int]):
        k = tuple(k)
        if not k:
            raise ConfigError("k must have at least one component")
        seen_positive = False
        what = f"component of k {k}"
        for v in k:
            if int_in(v, what) == 0 and seen_positive:
                raise ConfigError(f"zeros in k must come first, got {k}")
            if v > 0:
                seen_positive = True
        object.__setattr__(self, "k", k)

    @property
    def m(self) -> int:
        return len(self.k)

    @property
    def m0(self) -> int:
        """Number of leading zero components (unconstrained variables)."""
        return sum(1 for v in self.k if v == 0)

    @property
    def all_zero(self) -> bool:
        return self.m0 == self.m

    @property
    def min_positive(self) -> int | None:
        pos = [v for v in self.k if v > 0]
        return min(pos) if pos else None

    def to_json_list(self) -> list[int]:
        return list(self.k)

    @classmethod
    def from_json(cls, v) -> "AdmissibleK":
        if isinstance(v, int):
            v = [v]
        if not isinstance(v, list):
            raise ConfigError("k must be an int or a list of ints")
        return cls(v)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreserverVerdict:
    """Outcome of the syntactic check of a function against a claim."""

    conforms: bool
    mode: str
    clause: str
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "conforms": self.conforms,
            "mode": self.mode,
            "clause": self.clause,
            "detail": self.detail,
        }


class _Parts(NamedTuple):
    """The terms of f split by the slots a claim constrains, those past the
    first ``m0``: the constant, the ``base`` terms on the free slots alone,
    the ``linear`` coefficients of pure slopes on constrained slots (1-based)
    and the ``bad`` terms that touch a constrained slot otherwise, each with
    the clause it breaks; all in canonical term order, which the
    classifier's first-offender messages rely on."""

    m0: int
    const: float
    base: dict[tuple[int, ...], float]
    linear: dict[int, float]
    bad: list[tuple[tuple[int, ...], float, str]]

    @property
    def touched(self) -> list[int]:
        """The constrained slots (1-based, ascending) that f depends on."""
        in_bad = {p for a, _, _ in self.bad for p, e in enumerate(a, 1) if e and p > self.m0}
        return sorted(set(self.linear) | in_bad)


def _parts(f: FunctionSpec, ks: AdmissibleK, mode: str) -> _Parts:
    """The terms of f split by the slots a claim in ``mode`` constrains: all
    of them for an inertia claim, also at k = 0, where the zero count is kept
    too; else all but the leading slots with k_p = 0 (``ks.m0`` of them)."""
    m0 = 0 if mode == "inertia" else ks.m0
    const, base, linear, bad = 0.0, {}, {}, []
    for alpha, c in f.terms:
        total = sum(alpha)
        constrained = [(p, e) for p, e in enumerate(alpha, start=1) if e and p > m0]
        if total == 0:
            const = c
        elif not constrained:
            base[alpha] = c
        elif total == 1:
            linear[constrained[0][0]] = c
        elif any(e >= 2 for _, e in constrained):
            bad.append((alpha, c, "nonlinear-term"))
        else:
            bad.append((alpha, c, "mixed-term"))
    return _Parts(m0, const, base, linear, bad)


def _regime_covered(ks: AdmissibleK, l: int) -> bool:
    if l == 0 or ks.all_zero:
        return True
    kmin = ks.min_positive
    assert kmin is not None
    if kmin == 1:
        return l == 1
    return 1 <= l <= 2 * kmin - 2


def classify(
    f: FunctionSpec,
    k,
    l: int,
    dom: DomainSpec,
    mode: str = "bounded",
) -> PreserverVerdict:
    """Syntactic check of ``f`` against a negativity claim.

    ``mode="bounded"``: inputs with exactly ``k`` negative eigenvalues per
    slot, image required to have at most ``l`` (``l=0`` means PSD).  The same
    rules cover closure-domain claims.  ``mode="exact"``: image required to
    have exactly ``l`` negatives.  ``mode="inertia"``: full inertia must be
    preserved.  A violating function is reported by its first offender; where
    a slot may carry a slope, every mode checks the offenders of
    :func:`_offender` first.  Raises :class:`RegimeNotCovered` for (k, l)
    combinations the classification does not decide.
    """
    ks = k if isinstance(k, AdmissibleK) else AdmissibleK(k)
    int_in(l, "l")
    if mode not in CLASSIFY_MODES:
        raise ConfigError(f"unknown classify mode {mode!r}")
    if f.arity != ks.m:
        raise ConfigError(f"function arity {f.arity} does not match k arity {ks.m}")

    parts = _parts(f, ks, mode)
    if mode in ("exact", "inertia"):
        distinct = set(ks.k)
        if len(distinct) != 1:
            raise ConfigError(f"{mode} claims need a uniform k tuple, got {ks.k}")
        kstar = ks.k[0]
        if mode == "exact" and l != kstar:
            raise ConfigError(f"exact claims need l == k, got l={l}, k={kstar}")
        if mode == "exact" and kstar == 0:
            # exactly-PSD image on PSD inputs is the l = 0 bounded regime
            return _classify_bounded(parts, ks, 0)
        return _classify_rigid(parts, ks, l, mode)

    if not _regime_covered(ks, l):
        kmin = ks.min_positive
        window = "l == 1" if kmin == 1 else f"1 <= l <= {2 * kmin - 2}"
        raise RegimeNotCovered(
            f"no decision for k={ks.k} with l={l}; covered: l == 0, or {window}"
        )
    return _classify_bounded(parts, ks, l)


def _offender(parts: _Parts) -> tuple[str, str] | None:
    """The first offender every claim rejects, as (clause, detail), or None.

    In order: a term that is not a pure slope on one constrained slot, the
    first negative slope, slopes on two or more slots.
    """
    if parts.bad:
        alpha, c, reason = parts.bad[0]
        return reason, f"term {alpha} with coefficient {c:g}"
    for slot, c in sorted(parts.linear.items()):
        if c < 0.0:
            return "negative-linear-coefficient", f"slope {c:g} on slot {slot}"
    if len(parts.linear) > 1:
        return "multiple-linear-variables", f"slots {sorted(parts.linear)}"
    return None


def _classify_rigid(parts: _Parts, ks: AdmissibleK, l: int, mode: str) -> PreserverVerdict:
    """Exact and inertia claims: f must be one positive slope and nothing else.

    Every slot is constrained here (m0 = 0), so there are no base terms.
    """
    _, const, _, linear, _ = parts
    offender = _offender(parts)
    if offender:
        return PreserverVerdict(False, mode, *offender)
    if not linear:
        if mode == "exact" and const < 0.0 and ks.k[0] == l == 1:
            return PreserverVerdict(
                True, mode, "negative-constant", f"f = {const:g} pins one negative eigenvalue"
            )
        return PreserverVerdict(False, mode, "constant-map", f"f is constant {const:g}")
    (slot, c), = linear.items()
    if const != 0.0:
        return PreserverVerdict(False, mode, "nonzero-offset", f"offset {const:g}")
    return PreserverVerdict(True, mode, "homothety", f"f = {c:g} * x_{slot}")


def _classify_bounded(parts: _Parts, ks: AdmissibleK, l: int) -> PreserverVerdict:
    _, const, base, linear, _ = parts
    negative_base = next((f"coefficient {c:g} on {a}" for a, c in base.items() if c < 0.0), None)

    if l == 0:
        # image must be PSD: no dependence on constrained slots at all,
        # and every coefficient (constant included) nonnegative
        slots = parts.touched
        if slots:
            return PreserverVerdict(
                False, "bounded", "constrained-dependence",
                f"f depends on constrained slot(s) {slots}",
            )
        if const < 0.0:
            return PreserverVerdict(
                False, "bounded", "negative-coefficient", f"constant term {const:g}"
            )
        if negative_base:
            return PreserverVerdict(False, "bounded", "negative-coefficient", negative_base)
        return PreserverVerdict(True, "bounded", "series-nonnegative", "")

    if ks.all_zero:
        # PSD inputs, at most l >= 1 negatives allowed: the constant is free
        if negative_base:
            return PreserverVerdict(False, "bounded", "negative-coefficient", negative_base)
        if not base:
            clause = "negative-constant" if const < 0.0 else "constant"
            return PreserverVerdict(True, "bounded", clause, f"f = {const:g}")
        return PreserverVerdict(True, "bounded", "series-nonnegative", "")

    # some slot is genuinely constrained
    offender = _offender(parts)
    if offender:
        return PreserverVerdict(False, "bounded", *offender)
    if negative_base:
        return PreserverVerdict(False, "bounded", "nonmonotone-base", negative_base)
    if not linear:
        clause = "base-only" if base else ("negative-constant" if const < 0.0 else "constant")
        return PreserverVerdict(True, "bounded", clause, "no slope on constrained slots")
    (slot, _), = linear.items()
    k_slot = ks.k[slot - 1]
    if l < k_slot:
        return PreserverVerdict(
            False, "bounded", "l-less-than-k",
            f"slope on slot {slot} needs l >= {k_slot}, claim has l = {l}",
        )
    if l == k_slot and const < 0.0:
        return PreserverVerdict(
            False, "bounded", "negative-offset",
            f"offset {const:g} < 0 is not allowed when l == k_slot == {l}",
        )
    if base:
        return PreserverVerdict(True, "bounded", "split-form", f"slope on slot {slot}")
    if const != 0.0:
        return PreserverVerdict(True, "bounded", "affine", f"offset {const:g}, slope on slot {slot}")
    return PreserverVerdict(True, "bounded", "homothety", f"slope on slot {slot}")
