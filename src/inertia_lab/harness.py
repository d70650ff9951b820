"""Randomized verification and witness search for negativity claims.

Claim vocabulary (the ``theorem`` field of run configs and reports):

* ``inertia`` -- f[A] has the same (neg, zero, pos) counts as A.
* ``exact``   -- on tuples with exactly k_p negatives per slot, the image has
  exactly l negatives (uniform k, l = k).
* ``closure`` -- on tuples with at most k_p negatives per slot, the image has
  at most l negatives.
* ``bounded`` -- on tuples with exactly k_p negatives per slot, the image has
  at most l negatives; l = 0 means the image must be PSD.
* ``lift``    -- the image negativity count is unchanged when every slot is
  lifted by replicating its last coordinate (compared at n+3 and n+7 against n).

``verify_forward`` first runs the syntactic classifier; a non-conforming
function yields a vacuous report (nothing is verified).  ``falsify`` goes the
other way: it uses the violated clause to pick a witness recipe, validates
every candidate numerically (membership, domain, and the violation itself),
and falls back to seeded random search when no recipe applies.  Forward
verification and random search run the same trial: sample a member tuple from
the trial's own stream, apply ``fn`` and judge the image.  Trials run one
after another in index order, so reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .constructions import (
    block_pair,
    direct_sum,
    embed_with_negatives,
    equicorrelation,
    inflate,
    lift_finite,
    ones_pencil,
    ones_spike,
    pencil_base,
    two_by_two_pair,
    vandermonde_psd,
)
from .errors import ConfigError, DomainViolation, SamplingError
from .functions import (
    AdmissibleK,
    FunctionSpec,
    PreserverVerdict,
    _constrained_slots,
    _decompose,
    apply_entrywise,
    classify,
)
from .linalg import (
    DomainSpec,
    Inertia,
    SymMatrix,
    TolerancePolicy,
    eig_sym,
    inertia,
    spectrum_inertia,
)

CLAIMS = ("inertia", "exact", "closure", "bounded", "lift")
STRATEGIES = ("auto", "recipe", "random")

_CLAIM_TO_MODE = {"inertia": "inertia", "exact": "exact", "closure": "bounded", "bounded": "bounded"}

#: cap on witnesses stored in a report (keeps files small and deterministic)
WITNESS_CAP = 10

#: scale halvings a recipe may take before giving up
RECIPE_HALVINGS = 40


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    # counter-based Philox keyed by (seed, stream): a trial's stream depends
    # only on its index, not on which trials ran before it
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _is_int(x) -> bool:
    # JSON true/false arrive as bools, which are ints to Python
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialConfig:
    """Sampling parameters shared by verification and falsification runs."""

    dom: DomainSpec
    k: AdmissibleK
    l: int
    n_range: tuple[int, int] | None = None
    trials: int = 200
    seed: int = 0
    tol: TolerancePolicy = field(default_factory=TolerancePolicy)

    def __post_init__(self):
        if not _is_int(self.l) or self.l < 0:
            raise ConfigError(f"l must be a nonnegative int, got {self.l!r}")
        if not _is_int(self.trials) or not 1 <= self.trials <= 10_000_000:
            raise ConfigError("trials must be an int in 1..10_000_000")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an int in [0, 2^64)")
        kmax = max(self.k.k)
        floor = kmax + 1 if (self.dom.one_sided and kmax >= 1) else max(1, kmax)
        if self.n_range is None:
            object.__setattr__(self, "n_range", (floor + 1, floor + 6))
        lo, hi = self.n_range
        if not (_is_int(lo) and _is_int(hi) and 1 <= lo <= hi):
            raise ConfigError(f"bad n_range {self.n_range!r}")
        if lo < floor:
            raise ConfigError(
                f"n_range starts at {lo}, but k={self.k.k} over {self.dom.kind} needs n >= {floor}"
            )
        object.__setattr__(self, "n_range", (lo, hi))

    def to_json_dict(self) -> dict:
        return {
            "domain": self.dom.to_json_dict(),
            "k": self.k.to_json_list(),
            "l": self.l,
            "n_range": list(self.n_range),
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tol.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrialConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        allowed = {"domain", "k", "l", "n_range", "trials", "seed", "tolerance"}
        unknown = set(d) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "k" not in d or "l" not in d:
            raise ConfigError('config must set "k" and "l"')
        n_range = d.get("n_range")
        if n_range is not None:
            if not (isinstance(n_range, list) and len(n_range) == 2):
                raise ConfigError("n_range must be a [min, max] pair")
            n_range = (n_range[0], n_range[1])
        return cls(
            dom=DomainSpec.from_json_dict(d.get("domain", {})),
            k=AdmissibleK.from_json(d["k"]),
            l=d["l"],
            n_range=n_range,
            trials=d.get("trials", 200),
            seed=d.get("seed", 0),
            tol=TolerancePolicy.from_json_dict(d.get("tolerance", {})),
        )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    sgn = np.sign(np.diag(r))
    sgn[sgn == 0.0] = 1.0
    return q * sgn


def _random_partition(n: int, s: int, rng: np.random.Generator) -> list[list[int]]:
    """range(n) cut at s - 1 random places into s consecutive blocks."""
    cuts = sorted(rng.choice(np.arange(1, n), size=s - 1, replace=False).tolist()) if s > 1 else []
    bounds = [0, *cuts, n]
    return [list(range(bounds[j], bounds[j + 1])) for j in range(s)]


def sample_with_inertia(n: int, k: int, dom: DomainSpec, rng: np.random.Generator) -> SymMatrix:
    """Random matrix with exactly k negative eigenvalues and entries in dom.

    Every branch fixes the inertia and the entry range by construction, so
    one candidate is built and returned without being counted or checked;
    ``DomainSpec`` bounds rho so that this holds in floating point too.
    Over a two-sided domain the sample is Q diag(lam) Q^T with |lam| in
    [0.2, 1], rescaled to a peak entry below 0.85 rho.  Over one-sided
    domains entries must be nonnegative, so a matrix with all-negative
    spectrum is impossible (the trace would be negative); n == k raises
    :class:`SamplingError`.  Sizes k+1 use the equicorrelation family; larger
    sizes embed a random PSD block next to it and occasionally inflate a
    smaller core, which adds zero eigenvalues but no negatives.
    """
    if not isinstance(n, int) or n < 1:
        raise ConfigError("n must be a positive int")
    if not isinstance(k, int) or not 0 <= k <= n:
        raise ConfigError(f"k must lie in 0..{n}, got {k!r}")
    rho = dom.rho_eff

    if dom.one_sided and k >= 1 and n == k:
        raise SamplingError(
            f"no {n}x{n} matrix over {dom.kind} has all {k} eigenvalues negative "
            "(nonnegative entries force a nonnegative trace)"
        )

    if not dom.one_sided:
        q = _random_orthogonal(n, rng)
        lam = np.concatenate([-rng.uniform(0.2, 1.0, size=k), rng.uniform(0.2, 1.0, size=n - k)])
        a0 = (q * lam) @ q.T
        peak = float(np.max(np.abs(a0)))
        target = (0.25 + 0.6 * rng.uniform()) * rho
        return SymMatrix(a0 * (target / peak))
    if k == 0:
        v = rng.uniform(0.3, 1.0, size=(n, n))
        g = v @ v.T
        target = (0.25 + 0.6 * rng.uniform()) * rho
        return SymMatrix(g * (target / float(np.max(g))))
    a = rho * rng.uniform(0.05, 0.2)
    b = a + rho * rng.uniform(0.15, 0.35)
    if n == k + 1:
        return equicorrelation(k, a, b)
    if rng.uniform() < 0.35:
        s = int(rng.integers(k + 1, n))
        return inflate(sample_with_inertia(s, k, dom, rng), _random_partition(n, s, rng))
    nb = n - k - 1
    v = rng.uniform(0.3, 1.0, size=(nb, nb))
    g = v @ v.T
    psd = SymMatrix(g * (b / float(np.max(g))))
    eps = rho * rng.uniform(0.01, 0.05)
    if dom.kind == "closed_left" and rng.uniform() < 0.3:
        eps = 0.0
    return embed_with_negatives(a, b, k, eps, psd)


def sample_member_tuple(
    ks: AdmissibleK,
    n: int,
    dom: DomainSpec,
    rng: np.random.Generator,
    closure: bool = False,
) -> tuple[SymMatrix, ...]:
    """One matrix per slot: exactly k_p negatives (or j <= k_p under closure)."""
    mats = []
    for k_p in ks.k:
        kk = int(rng.integers(0, k_p + 1)) if closure else k_p
        mats.append(sample_with_inertia(n, kk, dom, rng))
    return tuple(mats)


# ---------------------------------------------------------------------------
# witnesses and reports
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    """A concrete tuple on which a claim fails, plus the observed image counts."""

    mats: tuple[SymMatrix, ...]
    fn: FunctionSpec
    observed: Inertia
    clause: str

    def to_json_dict(self) -> dict:
        return {
            "matrices": [m.to_json_dict() for m in self.mats],
            "fn": self.fn.to_json_dict(),
            "observed": self.observed.to_json_dict(),
            "clause": self.clause,
        }

    def revalidate(self, claim: str, cfg: TrialConfig) -> bool:
        """Recompute everything from scratch and confirm the violation."""
        try:
            checked = _make_witness(claim, self.fn, self.mats, cfg, self.clause)
        except (ConfigError, DomainViolation):
            return False
        return checked is not None and checked.observed == self.observed


CSV_FIELDS = ["theorem", "mode", "trials", "failures", "witnesses", "label", "runtime_ms"]


@dataclass
class VerdictReport:
    claim: str
    mode: str
    fn: FunctionSpec | None
    config: TrialConfig
    trials: int
    failures: int
    witnesses: list[Witness]
    label: str
    runtime_ms: float = 0.0

    def to_json_dict(self) -> dict:
        # runtime_ms is intentionally absent: report files must be
        # byte-identical across runs; wall time goes to the CSV summary
        return {
            "theorem": self.claim,
            "mode": self.mode,
            "config": {
                "fn": self.fn.to_json_dict() if self.fn is not None else None,
                **self.config.to_json_dict(),
            },
            "trials": self.trials,
            "failures": self.failures,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "label": self.label,
        }

    def summary_line(self) -> str:
        return (
            f"{self.mode} {self.claim}: trials={self.trials} failures={self.failures} "
            f"witnesses={len(self.witnesses)} runtime_ms={self.runtime_ms:.1f} :: {self.label}"
        )

    def csv_row(self) -> dict:
        return dict(zip(CSV_FIELDS, (
            self.claim, self.mode, self.trials, self.failures, len(self.witnesses),
            self.label, f"{self.runtime_ms:.3f}",
)))


def _violation(claim: str, l: int, out: Inertia, ref: Inertia | None) -> bool:
    if claim in ("bounded", "closure"):
        return out.n_neg > l
    if claim == "exact":
        return out.n_neg != l
    if claim == "inertia":
        return out != ref
    raise ConfigError(f"no violation predicate for claim {claim!r}")


def _judge(
    claim: str,
    fn: FunctionSpec,
    mats: tuple[SymMatrix, ...],
    cfg: TrialConfig,
    clause: str,
    ref: Inertia | None,
) -> Witness | None:
    """Apply ``fn`` to a member tuple and count the image; a Witness on violation.

    ``ref`` is the first slot's inertia (used by the inertia claim).  A lift
    claim compares the image count at size n with the counts at n+3 and n+7,
    and its witness is the lifted tuple.
    """
    out = inertia(apply_entrywise(fn, mats, cfg.dom), cfg.tol)
    if claim != "lift":
        return Witness(mats, fn, out, clause) if _violation(claim, cfg.l, out, ref) else None
    for extra in (3, 7):
        lifted = tuple(lift_finite(m, mats[0].n + extra) for m in mats)
        up = inertia(apply_entrywise(fn, lifted, cfg.dom), cfg.tol)
        if up.n_neg != out.n_neg:
            return Witness(lifted, fn, up, clause)
    return None


def _make_witness(
    claim: str,
    fn: FunctionSpec,
    mats: Sequence[SymMatrix],
    cfg: TrialConfig,
    clause: str,
) -> Witness | None:
    """Check each slot's domain and inertia, then judge; None when it is no witness."""
    mats = tuple(mats)
    if len(mats) != cfg.k.m:
        return None
    ref = None
    for p, (m, k_p) in enumerate(zip(mats, cfg.k.k), start=1):
        cfg.dom.check_matrix(m, slot=p)
        ine = inertia(m, cfg.tol)
        if ine.n_neg > k_p or (claim != "closure" and ine.n_neg != k_p):
            return None
        if p == 1:
            ref = ine
    return _judge(claim, fn, mats, cfg, clause, ref)


def _trial(
    claim: str, fn: FunctionSpec, cfg: TrialConfig, i: int, clause: str, closure: bool
) -> Witness | None:
    """Trial i: sample a member tuple from stream i and judge it.

    The sampled slots are not counted: ``sample_with_inertia`` builds them
    with their negative count fixed in closed form, and the property tests
    check that count against ``numpy.linalg.eigvalsh``.  Their domain is
    checked when ``fn`` is applied.
    """
    rng = _trial_rng(cfg.seed, i)
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    mats = sample_member_tuple(cfg.k, n, cfg.dom, rng, closure=closure)
    ref = inertia(mats[0], cfg.tol) if claim == "inertia" else None
    return _judge(claim, fn, mats, cfg, clause, ref)


# ---------------------------------------------------------------------------
# forward verification
# ---------------------------------------------------------------------------

def _check_claim(claim: str, fn: FunctionSpec, cfg: TrialConfig) -> None:
    if claim not in CLAIMS:
        raise ConfigError(f"unknown claim {claim!r}; choose from {CLAIMS}")
    if fn.arity != cfg.k.m:
        raise ConfigError(f"function arity {fn.arity} does not match k arity {cfg.k.m}")
    if claim == "inertia" and cfg.k.m != 1:
        raise ConfigError("the inertia claim is single-variable")


def _verdict(claim: str, fn: FunctionSpec, cfg: TrialConfig) -> PreserverVerdict | None:
    """The classifier's verdict; None for lift, which every function satisfies."""
    if claim == "lift":
        return None
    return classify(fn, cfg.k, cfg.l, cfg.dom, mode=_CLAIM_TO_MODE[claim])


def verify_forward(claim: str, fn: FunctionSpec, cfg: TrialConfig) -> VerdictReport:
    """Sample members, apply ``fn``, and check the claim on every image.

    When the classifier says the function is outside the conforming family,
    the run is vacuous: nothing is sampled and the label says so.
    """
    _check_claim(claim, fn, cfg)
    started = time.perf_counter()

    verdict = _verdict(claim, fn, cfg)
    if verdict is not None and not verdict.conforms:
        return VerdictReport(
            claim, "verify", fn, cfg, 0, 0, [],
            label=(
                f"vacuous: function violates clause '{verdict.clause}'"
                f" ({verdict.detail}); nothing verified"
            ),
            runtime_ms=1000.0 * (time.perf_counter() - started),
        )

    clause = "lift-transfer-mismatch" if claim == "lift" else f"verify-failure:{claim}"
    found = (_trial(claim, fn, cfg, i, clause, claim == "closure") for i in range(cfg.trials))
    witnesses = [w for w in found if w is not None]
    failures = len(witnesses)
    label = (
        f"pass: {cfg.trials} trials, 0 failures"
        if failures == 0
        else f"FAIL: {failures} of {cfg.trials} trials violated the claim"
    )
    return VerdictReport(
        claim, "verify", fn, cfg, cfg.trials, failures, witnesses[:WITNESS_CAP],
        label=label, runtime_ms=1000.0 * (time.perf_counter() - started),
    )


# ---------------------------------------------------------------------------
# witness recipes
# ---------------------------------------------------------------------------
#
# A recipe maps (fn, cfg, rng, t0, eps) to a list of candidate tuples at the
# entry scale t0 (and the open_positive shift eps); the caller validates
# every candidate and halves both scales until one is a witness.

def _ones(n: int, v: float) -> SymMatrix:
    return SymMatrix(np.full((n, n), v))


def _shifted(core: SymMatrix, dom: DomainSpec, eps: float) -> SymMatrix:
    """``core + eps * ones`` over open_positive, where zero entries are out of domain."""
    if dom.kind != "open_positive":
        return core
    return SymMatrix(core.entries + eps * np.ones((core.n, core.n)))


def _member_filler(n: int, k_q: int, dom: DomainSpec, t0: float, eps: float) -> SymMatrix:
    """A size-n matrix with exactly k_q negatives, valid in dom."""
    if k_q == 0:
        return _ones(n, t0)
    if dom.one_sided and n < k_q + 1:
        raise ConfigError(f"cannot place {k_q} negatives in size {n} over {dom.kind}")
    if n < k_q:
        raise ConfigError(f"cannot place {k_q} negatives in size {n}")
    if not dom.one_sided:
        diag = np.concatenate([-t0 * np.ones(k_q), t0 * np.ones(n - k_q)])
        return SymMatrix(np.diag(diag))
    if n == k_q + 1:
        return equicorrelation(k_q, t0, 2 * t0)
    pad = SymMatrix(t0 * np.eye(n - k_q - 1))
    shift = eps if dom.kind == "open_positive" else 0.0
    return embed_with_negatives(t0, 2 * t0, k_q, shift, pad)


def _pad_with_identity(core: SymMatrix, n: int, t0: float, dom: DomainSpec, eps: float) -> SymMatrix:
    """Extend to size n with a positive identity block; exact negatives kept."""
    if core.n > n:
        raise ConfigError("cannot pad downwards")
    if core.n == n:
        return core
    return _shifted(direct_sum([core, SymMatrix(t0 * np.eye(n - core.n))]), dom, eps)


def _fill_slots(
    n: int,
    placed: dict[int, SymMatrix],
    free: SymMatrix,
    ks: AdmissibleK,
    dom: DomainSpec,
    t0: float,
    eps: float,
) -> tuple[SymMatrix, ...]:
    """One size-n matrix per slot.

    Slot q gets ``placed[q]`` where given, else ``free`` when it is
    unconstrained, else a member filler with exactly k_q negatives.
    """
    return tuple(
        placed[q] if q in placed else free if k_q == 0 else _member_filler(n, k_q, dom, t0, eps)
        for q, k_q in enumerate(ks.k, start=1)
    )


def _recipe_nonlinear(fn, cfg, rng, t0, eps):
    ks, dom = cfg.k, cfg.dom
    _, _, _, bad = _decompose(fn, ks.m0)
    alpha = bad[0][0]
    p = next(q for q, e in enumerate(alpha, start=1) if e and q > ks.m0)
    k_p = ks.k[p - 1]
    if k_p >= 2:
        size = 2 * k_p - 1
        zero = SymMatrix(np.zeros((size, size)))
        core = block_pair(zero, vandermonde_psd(k_p, t0))
        if dom.one_sided:
            core = SymMatrix(core.entries + eps * np.ones((core.n, core.n)))
    else:
        a2, b2 = two_by_two_pair(t0)
        core = block_pair(a2, b2)
    # every slot the offending term touches gets the same core, so its
    # structure survives the entrywise product
    placed = {
        q: core for q, k_q in enumerate(ks.k, start=1) if q == p or (alpha[q - 1] and k_q == k_p)
    }
    return [_fill_slots(core.n, placed, _ones(core.n, t0), ks, dom, t0, eps)]


def _recipe_negative_linear(fn, cfg, rng, t0, eps):
    ks, dom = cfg.k, cfg.dom
    _, _, linear, _ = _decompose(fn, ks.m0)
    p = min(q for q, c in linear.items() if c < 0.0)
    k_p = ks.k[p - 1]
    # a pad block of size l + 3 on every domain kind
    core = _member_filler(k_p + cfg.l + 3 + dom.one_sided, k_p, dom, t0, eps)
    return [_fill_slots(core.n, {p: core}, _ones(core.n, t0), ks, dom, t0, eps)]


def _recipe_multiple_linear(fn, cfg, rng, t0, eps):
    ks, dom = cfg.k, cfg.dom
    _, _, linear, _ = _decompose(fn, ks.m0)
    # the classifier reports this clause only once every slope is positive
    min_c = min(linear.values())
    constrained = range(ks.m0 + 1, ks.m + 1)
    blocks = {q: ks.k[q - 1] + 1 for q in constrained}
    n = sum(blocks.values())
    offsets = {}
    at = 0
    for q in constrained:
        offsets[q] = at
        at += blocks[q]
    eta = t0 * min_c / (4.0 * sum(linear.values()))
    placed = {}
    for q in constrained:
        k_q = ks.k[q - 1]
        if not dom.one_sided:
            ent = np.zeros((n, n))
            o = offsets[q]
            ent[o : o + k_q, o : o + k_q] = -t0 * np.eye(k_q)
            placed[q] = SymMatrix(ent)
        else:
            parts = [
                equicorrelation(k_q, 4 * t0, 8 * t0) if r == q else SymMatrix(eta * np.eye(blocks[r]))
                for r in constrained
            ]
            placed[q] = _shifted(direct_sum(parts), dom, eps / 8)
    return [_fill_slots(n, placed, _ones(n, eps / 4 if eps > 0 else t0 / 16), ks, dom, t0, eps)]


def _recipe_constrained_dependence(fn, cfg, rng, t0, eps):
    ks, dom = cfg.k, cfg.dom
    _, _, linear, bad = _decompose(fn, ks.m0)
    p = _constrained_slots(linear, bad, ks.m0)[0]
    k_p = ks.k[p - 1]
    constrained = list(range(ks.m0 + 1, ks.m + 1))
    out = []
    if not dom.one_sided and all(ks.k[q - 1] == 1 for q in constrained):
        # smallest possible witness: a tuple of 1x1 matrices
        tiny = tuple(
            SymMatrix([[-t0]]) if q in constrained else SymMatrix([[t0]])
            for q in range(1, ks.m + 1)
        )
        out.append(tiny)
    kmax = max(ks.k[q - 1] for q in constrained)
    n = 2 + max(k_p, kmax + 1)
    # two spreads for the probe pair: a mild one and a wide one, since
    # which separates f(a) from f(b) depends on the function's shape
    for a, b in ((2 * t0, 3 * t0), (t0 / 2, 6 * t0)):
        placed = {}
        for q in constrained:
            k_q = ks.k[q - 1]
            if q == p:
                parts = [SymMatrix([[a, b], [b, a]])]
                if k_p >= 2:
                    parts.append(equicorrelation(k_p - 1, t0, 2 * t0))
                pad = n - sum(x.n for x in parts)
                if pad:
                    parts.append(SymMatrix(t0 * np.eye(pad)))
                core = direct_sum(parts)
            else:
                inner = [equicorrelation(k_q, t0, 2 * t0)]
                pad = (n - 1) - (k_q + 1)
                if pad:
                    inner.append(SymMatrix(t0 * np.eye(pad)))
                partition = [[0, 1]] + [[i] for i in range(2, n)]
                core = inflate(direct_sum(inner), partition)
            placed[q] = _shifted(core, dom, eps)
        out.append(_fill_slots(n, placed, _ones(n, a), ks, dom, t0, eps))
    return out


def _recipe_negative_coefficient(fn, cfg, rng, t0, eps):
    ks, dom = cfg.k, cfg.dom
    _, base, _, _ = _decompose(fn, ks.m0)
    kmax = max(ks.k)
    negative = [a for a in base if base[a] < 0.0]
    if not negative:
        # l == 0 with a negative constant: any small PSD-ish tuple works,
        # the image hugs const * ones which has a negative direction
        n = max(2, kmax + 2)
        return [_fill_slots(n, {}, _ones(n, t0 / 8), ks, dom, t0 / 8, eps / 8)]

    target = negative[0]
    # collapse the multivariate support onto one variable: weights encode
    # each active slot in base (degree+1) so collapsed exponents stay
    # distinct, then evaluate every slot on powers of one node vector
    degree = max(sum(a) for a in base)
    weights = [0] * ks.m
    active = sorted({q for a in base for q, e in enumerate(a, start=1) if e})
    for rank_, q in enumerate(active):
        weights[q - 1] = (degree + 1) ** rank_
    exps = sorted({sum(w * e for w, e in zip(weights, a)) for a in base} | {0})
    block = len(exps) + 2
    copies = cfg.l + 1
    scale = min(1.0, dom.rho_eff) * min(1.0, 8.0 * t0 / dom.rho_eff)
    nodes = scale * (0.35 + 0.5 * (np.arange(block) + 0.5) / block)
    e_t = sum(w * e for w, e in zip(weights, target))
    eta = abs(base[target]) * float(np.min(nodes)) ** (2 * e_t) / 64.0
    eta = min(max(eta, 1e-12 * min(t0, scale)), t0)
    shift = min(eps, eta) / 4.0
    n = max(block * copies, kmax + 2)
    placed = {}
    for q in active:
        col = nodes ** weights[q - 1]
        grid = np.outer(col, col)
        ent = np.zeros((n, n))
        for c in range(copies):
            o = c * block
            ent[o : o + block, o : o + block] = grid
        for j in range(block * copies, n):
            ent[j, j] = eta
        placed[q] = _shifted(SymMatrix(ent), dom, shift)
    return [_fill_slots(n, placed, _ones(n, min(t0, scale) / 8), ks, dom, eta, shift)]


def _recipe_offset(fn, cfg, rng, t0, eps, negative_only=False):
    """Witnesses for a bad constant offset next to a positive slope.

    A negative base value g is exposed by small negatives on the slope's
    slot.  A nonnegative g (exact and inertia claims) is exposed by
    negatives that the offset cancels, unless ``negative_only`` is set, in
    which case there is no candidate.
    """
    ks, dom = cfg.k, cfg.dom
    _, _, linear, _ = _decompose(fn, ks.m0)
    (p, c), = linear.items()
    k_p = ks.k[p - 1]
    s = t0 / 4.0
    # f with the free slots at s and the constrained ones at 0
    g = float(fn(*(s if q <= ks.m0 else 0.0 for q in range(1, ks.m + 1))))
    if g < 0.0:
        delta = min(t0, abs(g) / (2.0 * c))
        if not dom.one_sided:
            core = ones_spike(k_p, delta, min(eps, delta / 2.0))
        else:
            core = equicorrelation(k_p, delta / 2.0, delta)
        core = _pad_with_identity(core, max(core.n, max(ks.k) + 2), t0, dom, eps / 4)
    elif negative_only:
        return []
    elif not dom.one_sided:
        t_small = min(t0, max(1, k_p) * g / (2.0 * c))
        core = SymMatrix(-t_small * np.eye(max(k_p, 1)))
    else:
        delta = min(t0 / 5.0, g / (2.0 * c))
        t_shift = 0.02 / max(k_p, 1)
        core = SymMatrix(delta * ones_pencil(max(k_p, 1), t_shift).entries)
    return [_fill_slots(core.n, {p: core}, _ones(core.n, s), ks, dom, t0, eps)]


def _recipe_constant_map(fn, cfg, rng, t0, eps):
    ks, dom = cfg.k, cfg.dom
    kstar = max(ks.k)
    if not dom.one_sided and kstar == 1:
        core = SymMatrix(t0 * np.array([[1.0, 2.0], [2.0, 1.0]]))
    else:
        n = kstar + 2 if dom.one_sided else max(kstar + 1, 2)
        core = sample_with_inertia(n, kstar, dom, rng)
    placed = {q: core for q, k_q in enumerate(ks.k, start=1) if k_q == kstar}
    return [_fill_slots(core.n, placed, _ones(core.n, t0), ks, dom, t0, eps)]


def _recipe_budget(fn, cfg, rng, t0, eps):
    """Slope on a slot whose negativity exceeds the claimed budget l."""
    ks, dom = cfg.k, cfg.dom
    _, _, linear, _ = _decompose(fn, ks.m0)
    (p, _), = linear.items()
    k_p = ks.k[p - 1]
    if not dom.one_sided:
        n0 = k_p + 1
        core = SymMatrix(-t0 * (np.eye(n0) - np.ones((n0, n0)) / n0))
    else:
        core = equicorrelation(k_p, t0, 2 * t0)
    core = _pad_with_identity(core, max(core.n, max(ks.k) + 2), t0, dom, eps / 4)
    return [_fill_slots(core.n, {p: core}, _ones(core.n, t0 / 4), ks, dom, t0, eps)]


_RECIPES: dict[str, Callable] = {
    "nonlinear-term": _recipe_nonlinear,
    "mixed-term": _recipe_nonlinear,
    "negative-linear-coefficient": _recipe_negative_linear,
    "multiple-linear-variables": _recipe_multiple_linear,
    "constrained-dependence": _recipe_constrained_dependence,
    "negative-coefficient": _recipe_negative_coefficient,
    "nonmonotone-base": _recipe_negative_coefficient,
    "negative-offset": partial(_recipe_offset, negative_only=True),
    "nonzero-offset": _recipe_offset,
    "constant-map": _recipe_constant_map,
    "l-less-than-k": _recipe_budget,
}


def _recipe_witness(
    clause: str, claim: str, fn: FunctionSpec, cfg: TrialConfig
) -> tuple[Witness | None, int]:
    """Build and validate recipe candidates, halving scales on failure."""
    recipe = _RECIPES.get(clause)
    if recipe is None:
        return None, 0
    rng = _trial_rng(cfg.seed, 2**63 + 1)
    t0 = cfg.dom.rho_eff / 8.0
    eps = cfg.dom.rho_eff / 16.0
    attempts = 0
    for _ in range(RECIPE_HALVINGS):
        try:
            tuples = recipe(fn, cfg, rng, t0, eps)
        except (ConfigError, DomainViolation):
            tuples = []
        for mats in tuples:
            attempts += 1
            try:
                w = _make_witness(claim, fn, mats, cfg, clause)
            except (ConfigError, DomainViolation):
                w = None
            if w is not None:
                return w, attempts
        t0 /= 2.0
        eps /= 2.0
    return None, attempts


def falsify(
    claim: str,
    fn: FunctionSpec,
    cfg: TrialConfig,
    strategy: str = "auto",
) -> VerdictReport:
    """Search for a concrete witness against a claim.

    ``auto`` asks the classifier which clause fails and tries the matching
    recipe before random search; ``recipe`` stops after the recipe; ``random``
    skips the classifier shortcut entirely.
    """
    _check_claim(claim, fn, cfg)
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    started = time.perf_counter()

    def report(trials: int, witnesses: list[Witness], label: str) -> VerdictReport:
        return VerdictReport(
            claim, "falsify", fn, cfg, trials, len(witnesses), witnesses[:WITNESS_CAP],
            label=label, runtime_ms=1000.0 * (time.perf_counter() - started),
        )

    verdict = _verdict(claim, fn, cfg)
    if (verdict is None or verdict.conforms) and strategy != "random":
        clause = verdict.clause if verdict is not None else "universal-identity"
        label = f"conforms (clause '{clause}'): no witness exists for this claim; nothing searched"
        return report(0, [], label)

    attempts = 0
    if verdict is not None and not verdict.conforms and strategy in ("auto", "recipe"):
        witness, attempts = _recipe_witness(verdict.clause, claim, fn, cfg)
        if witness is not None:
            return report(
                attempts, [witness], f"witness found via recipe for clause '{verdict.clause}'"
            )
        if strategy == "recipe":
            return report(
                attempts, [],
                f"no witness from recipe for clause '{verdict.clause}' after {attempts} candidates",
            )

    # random search samples exactly k_p negatives per slot, also under closure
    clause = verdict.clause if verdict is not None else "random-search"
    found = (_trial(claim, fn, cfg, i, clause, False) for i in range(cfg.trials))
    witnesses = [w for w in found if w is not None]
    total = attempts + cfg.trials
    if witnesses:
        label = f"witness found by random search ({len(witnesses)} of {cfg.trials} trials)"
    else:
        label = (
            f"no witness found: {attempts} recipe candidates and "
            f"{cfg.trials} random trials exhausted"
        )
    return report(total, witnesses, label)


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------

def _suite_block_identity(cfg: TrialConfig, rng: np.random.Generator) -> bool:
    n = int(rng.integers(1, 7))
    scale = cfg.dom.rho_eff / 2.0
    a = SymMatrix(scale * (lambda g: g + g.T)(rng.uniform(-0.5, 0.5, size=(n, n))))
    b = SymMatrix(scale * (lambda g: g + g.T)(rng.uniform(-0.5, 0.5, size=(n, n))))
    lhs = inertia(block_pair(a, b), cfg.tol)
    plus = inertia(SymMatrix(a.entries + b.entries), cfg.tol)
    minus = inertia(SymMatrix(a.entries - b.entries), cfg.tol)
    return lhs == Inertia(
        plus.n_neg + minus.n_neg, plus.n_zero + minus.n_zero, plus.n_pos + minus.n_pos
    )


def _suite_rank_one(cfg: TrialConfig, rng: np.random.Generator) -> bool:
    n = int(rng.integers(2, 11))
    k = int(rng.integers(0, n + 1))
    dom = DomainSpec("two_sided", math.inf)
    a = sample_with_inertia(n, k, dom, rng)
    v = rng.standard_normal(n)
    t = rng.uniform(0.1, 2.0)
    bump = SymMatrix(t * np.outer(v, v))
    up = inertia(SymMatrix(a.entries + bump.entries), cfg.tol).n_neg
    down = inertia(SymMatrix(a.entries - bump.entries), cfg.tol).n_neg
    return up in (k - 1, k) and down in (k, k + 1)


def _suite_inflation(cfg: TrialConfig, rng: np.random.Generator) -> bool:
    s = int(rng.integers(1, 6))
    n = s + int(rng.integers(0, 6))
    g = rng.uniform(-1.0, 1.0, size=(s, s))
    a = SymMatrix(g + g.T)
    before = inertia(a, cfg.tol)
    after = inertia(inflate(a, _random_partition(n, s, rng)), cfg.tol)
    return (before.n_neg, before.n_pos) == (after.n_neg, after.n_pos)


def _suite_pinned(cfg: TrialConfig, rng: np.random.Generator) -> bool:
    k = int(rng.integers(1, 5))
    a = rng.uniform(0.0, 0.3)
    b = a + rng.uniform(0.1, 0.5)
    eps = rng.uniform(0.0, 0.2)
    nb = int(rng.integers(1, 5))
    v = rng.uniform(0.1, 1.0, size=(nb, nb))
    out = embed_with_negatives(a, b, k, eps, SymMatrix(v @ v.T))
    lam, _ = eig_sym(out)
    # lam ascends, so its first k entries are the negatives
    pinned = all(abs(x - (a - b)) <= 1e-9 * abs(a - b) for x in lam[:k])
    return spectrum_inertia(out, lam, cfg.tol).n_neg == k and pinned


def _suite_pencil(cfg: TrialConfig, rng: np.random.Generator) -> bool:
    k = int(rng.integers(1, 5))
    t = float(rng.uniform(1.05, 10.0))
    if inertia(pencil_base(), cfg.tol) != Inertia(1, 0, 2):
        return False
    return inertia(ones_pencil(k, t), cfg.tol).n_neg == k - 1


_SUITE = [
    ("block-identity", _suite_block_identity),
    ("rank-one-perturbation", _suite_rank_one),
    ("inflation", _suite_inflation),
    ("pinned-negatives", _suite_pinned),
    ("pencil-counts", _suite_pencil),
]


def lemma_suite(cfg: TrialConfig) -> VerdictReport:
    """Run the structural property batches that back the constructions."""
    started = time.perf_counter()
    failures = 0
    parts = []
    # batch j draws trial i from stream (j << 40) + i, apart from every
    # verify and falsify stream
    for j, (name, batch) in enumerate(_SUITE, start=1):
        streams = (_trial_rng(cfg.seed, (j << 40) + i) for i in range(cfg.trials))
        bad = sum(1 for rng in streams if not batch(cfg, rng))
        failures += bad
        parts.append(f"{name}: {cfg.trials - bad}/{cfg.trials} ok")
    label = "; ".join(parts)
    return VerdictReport(
        "lemma-suite", "suite", None, cfg, cfg.trials * len(_SUITE), failures, [],
        label=label, runtime_ms=1000.0 * (time.perf_counter() - started),
    )
