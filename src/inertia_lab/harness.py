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
and falls back to seeded random search when no recipe applies.

Forward verification, random search and the ``lemma_suite`` batches run
through one trial loop, ``_stacked``.  Trial i draws from its own stream
(one generator, rekeyed) and names the sizes of the symmetric arrays it
will count.  ``linalg._on_stack``, the one packer of every batch count,
packs trials in index order, by those sizes alone, into chunks of at most
``linalg.STACK_ENTRIES`` zero-padded entries (a single trial may pass it),
settles each chunk into the arrays and a check over their counts per
trial, and counts the chunk as one stack.  A suite's five batches share
one such stream and build their trials as plain arrays, with the unchecked
builders; each check reads its lanes' counts alone, so the pinned-negatives
batch counts out - (a - b) I as a second lane: exactly k zero eigenvalues
and none below.
One rule decides every tuple that can be judged: ``_trial`` gives the
arrays it counts, its slots and then the lanes of ``_lanes`` (the image,
and for a lift claim the image gathered to n+3 and n+7), and ``_breach``
reads the counts of the counted slots (all, slot 1 alone, or none), then
of the lanes.  Its two callers, ``_checks`` on the stack and the judge
one matrix at a time, differ only in how they count and which slots they
count.
A verify or random-search trial only draws: its size n, then each slot's
draws (``_draw``), in the order the scalar sampler made them.  Its chunk is
settled by size group: the group's two-sided slots are built by one
stacked QR factorization and one stacked product (``_spectral``), and
``_checks`` checks the group's (B, n, n) slot stacks.  Each slice has
the bytes of the same slot built alone, which is how
``sample_with_inertia`` builds it (a batch of one).  A slot's inertia is
fixed in closed form, so a trial counts the lanes alone, after slot 1 for
an inertia claim.  The first trial, in index order, that ``_trial``
refuses raises.
A recipe builds its candidate tuples on plain arrays too, as (H, n, n)
stacks over a run of H rungs of a ladder, whose scale halves from one rung
to the next.  The ladder (``_ladder``) builds its first rung alone, and
its first candidate goes straight to the judge; that rung's others are
counted as one stack, and the later rungs are built in runs that
``_on_stack`` packs, each one recipe call counted as one stack.
``_checks`` is the one path from slot stacks to the judge, for trials and
candidates alike: ``_trial`` runs once on the stacks (tuple by tuple on
stacks it refuses), and a tuple whose counts ``_breach`` flags goes to
the judge.
``_make_witness``, the one judge, wraps each slot in SymMatrix once, counts
all the arrays of ``_trial`` one matrix at a time and asks the same
``_breach``: it makes the witness of a flagged trial or recipe candidate,
in order, and is what ``Witness.revalidate`` runs.  Outside the
judge, only ``sample_with_inertia`` builds a SymMatrix, and only the pencil
base (once per suite) is counted alone.  Reports are deterministic for a
fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .constructions import (
    _PAIR,
    _block_pair,
    _equicorrelation,
    _gather,
    _lift_rows,
    _moments,
    _ones_spike,
    _row_map,
    ones_pencil,
    pencil_base,
)
from .errors import ConfigError, SamplingError, int_in
from .functions import (
    AdmissibleK,
    FunctionSpec,
    PreserverVerdict,
    _parts,
    _Parts,
    classify,
)
from .linalg import (
    N_MAX,
    DomainSpec,
    Inertia,
    SymMatrix,
    _built,
    _direct_sum,
    _on_stack,
    _symmetric,
    inertia,
)

CLAIMS = ("inertia", "exact", "closure", "bounded", "lift")
STRATEGIES = ("auto", "recipe", "random")

_CLAIM_TO_MODE = {"inertia": "inertia", "exact": "exact", "closure": "bounded", "bounded": "bounded"}

#: cap on witnesses stored in a report (keeps files small and deterministic)
WITNESS_CAP = 10

#: rungs of a recipe ladder, each at half the scale of the one before
RECIPE_HALVINGS = 40

#: a lift claim compares the image at n against its lifts to n + e, e in LIFTS
LIFTS = (3, 7)


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    # counter-based Philox keyed by (seed, stream): a trial's stream depends
    # only on its index.  The key is uint64: a list holding a value >= 2**63
    # goes through float64, where seeds collide
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _rekey(rng: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    """``rng`` at the start of stream (seed, index), as :func:`_trial_rng`
    builds it (counter 0, empty buffer), without a new Philox."""
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0,) * 4, "key": (seed, index)},
        "buffer": (0,) * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def _min_size(k: int, dom: DomainSpec) -> int:
    """The smallest n that holds k negatives: k + 1 over a one-sided domain if k >= 1, else max(1, k)."""
    return k + 1 if dom.one_sided and k >= 1 else max(1, k)


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

    def __post_init__(self):
        int_in(self.l, "l")
        int_in(self.trials, "trials", 1, 10_000_000)
        int_in(self.seed, "seed", 0, 2**64 - 1)
        floor = _min_size(max(self.k.k), self.dom)
        if self.n_range is None:
            object.__setattr__(self, "n_range", (floor + 1, floor + 6))
        lo, hi = self.n_range
        int_in(hi, "n_range end", int_in(lo, "n_range start", 1))
        if lo < floor:
            raise ConfigError(
                f"n_range starts at {lo}, but k={self.k.k} over {self.dom.kind} needs n >= {floor}"
            )
        if hi > N_MAX:
            raise ConfigError(
                f"n_range ends at {hi}, above the size cap N_MAX = {N_MAX} "
                f"(k={self.k.k} over {self.dom.kind} needs n >= {floor})"
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
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrialConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        allowed = {"domain", "k", "l", "n_range", "trials", "seed"}
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
        )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class _TwoSidedDraws(NamedTuple):
    """The draws of a two-sided sample, which :func:`_spectral` builds: the
    Gaussian matrix ``g``, the spectrum ``lam`` and the peak entry ``target``."""

    g: np.ndarray
    lam: np.ndarray
    target: float


def _spectral(draws: Sequence[_TwoSidedDraws]) -> np.ndarray:
    """The (B, n, n) stack of two-sided samples of one size n, one per draw:
    Q diag(lam) Q^T for Q of the QR factorization of g, scaled to the peak
    entry target and symmetrized as :class:`SymMatrix` does.

    One stacked ``np.linalg.qr`` and one stacked product build the whole
    stack, and each slice has the bytes of the same calls on its draw alone.
    Q itself is not Haar (its column signs follow R's diagonal), but only
    Q diag(lam) Q^T is formed, which no sign flip D of Q's columns changes
    (Q D diag(lam) D Q^T = Q diag(lam) Q^T): each sample is the one a Haar Q
    would give.
    """
    g, lam, target = map(np.array, zip(*draws))
    q = np.linalg.qr(g)[0]
    a0 = (q * lam[:, None, :]) @ q.swapaxes(1, 2)
    return _symmetric(a0 * (target / np.max(np.abs(a0), axis=(1, 2)))[:, None, None])


def _settle(slots: Sequence) -> np.ndarray:
    """The (B, n, n) stack of drawn slots of one size n (:func:`_draw`), in
    order: two-sided draws built by one :func:`_spectral` call, or arrays
    already built."""
    if all(isinstance(s, _TwoSidedDraws) for s in slots):
        return _spectral(slots)
    return np.stack(slots)


def _random_partition(n: int, s: int, rng: np.random.Generator) -> list[list[int]]:
    """range(n) cut at s - 1 random places into s consecutive blocks."""
    cuts = sorted(rng.choice(np.arange(1, n), size=s - 1, replace=False).tolist()) if s > 1 else []
    bounds = [0, *cuts, n]
    return [list(range(bounds[j], bounds[j + 1])) for j in range(s)]


def _draw(n: int, k: int, dom: DomainSpec, rng: np.random.Generator) -> np.ndarray | _TwoSidedDraws:
    """The draws of one :func:`sample_with_inertia` sample, in its stream's
    order.  A two-sided sample is returned as its draws, for :func:`_settle`
    to build with others of its size; a one-sided one is built at once,
    unchecked, its scaled products symmetrized as :class:`SymMatrix` does.
    No draw depends on arithmetic, only on earlier draws."""
    rho = dom.rho_eff
    if not dom.one_sided:
        g = rng.standard_normal((n, n))
        lam = np.concatenate([-rng.uniform(0.2, 1.0, size=k), rng.uniform(0.2, 1.0, size=n - k)])
        return _TwoSidedDraws(g, lam, (0.25 + 0.6 * rng.uniform()) * rho)
    if k == 0:
        v = rng.uniform(0.3, 1.0, size=(n, n))
        a0 = v @ v.T
        target = (0.25 + 0.6 * rng.uniform()) * rho
        return _symmetric(a0 * (target / float(np.max(np.abs(a0)))))
    a = rho * rng.uniform(0.05, 0.2)
    b = a + rho * rng.uniform(0.15, 0.35)
    if n == k + 1:
        return _equicorrelation(n, a, b)
    if rng.uniform() < 0.35:
        s = int(rng.integers(k + 1, n))
        return _gather(_draw(s, k, dom, rng), _row_map(_random_partition(n, s, rng), n))
    nb = n - k - 1
    v = rng.uniform(0.3, 1.0, size=(nb, nb))
    g = v @ v.T
    # v v^T is PSD, so the embedding keeps exactly k negatives uncounted
    psd = _symmetric(g * (b / float(np.max(g))))
    eps = rho * rng.uniform(0.01, 0.05)
    if dom.kind == "closed_left" and rng.uniform() < 0.3:
        eps = 0.0
    return _direct_sum([_equicorrelation(k + 1, a, b), psd], eps)


def _sample(n: int, k: int, dom: DomainSpec, rng: np.random.Generator) -> np.ndarray:
    """The entries of :func:`sample_with_inertia`, unchecked and with its
    draws: a batch of one of the trial loop's builder (:func:`_settle`)."""
    return _settle([_draw(n, k, dom, rng)])[0]


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
    int_in(k, "k", 0, int_in(n, "n", 1))
    if n < _min_size(k, dom):
        raise SamplingError(
            f"no {n}x{n} matrix over {dom.kind} has all {k} eigenvalues negative "
            "(nonnegative entries force a nonnegative trace)"
        )
    return SymMatrix(_sample(n, k, dom, rng))


def _sample_slots(ks: AdmissibleK, n: int, dom: DomainSpec, rng, closure: bool, sample=_draw):
    """One ``sample`` per slot, by default its draws (:func:`_draw`): exactly
    k_p negatives (or j <= k_p under closure)."""
    return tuple(sample(n, int(rng.integers(0, k_p + 1)) if closure else k_p, dom, rng) for k_p in ks.k)


def sample_member_tuple(
    ks: AdmissibleK, n: int, dom: DomainSpec, rng: np.random.Generator, closure: bool = False
) -> tuple[SymMatrix, ...]:
    """One matrix per slot: exactly k_p negatives (or j <= k_p under closure)."""
    return _sample_slots(ks, n, dom, rng, closure, sample_with_inertia)


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
        """Judge the tuple again from scratch and confirm the observed counts."""
        checked = _make_witness(claim, self.fn, [m.entries for m in self.mats], cfg, self.clause)
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


def _lanes(claim: str, fn: FunctionSpec, slots: Sequence[np.ndarray]) -> list[np.ndarray] | None:
    """f[slots] and, for a lift claim, f[slots] gathered by the lift's row map
    to n + e for each e of ``LIFTS`` (f commutes with the lift); None when
    f[slots] is not finite.

    The slots are n x n arrays, or (B, n, n) stacks of B tuples at once: f
    acts entrywise and :func:`_gather` on the last two axes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        image = fn(*slots)
    if not np.all(np.isfinite(image)):
        return None
    n = image.shape[-1]
    return [image, *(_gather(image, _lift_rows(n, n + e)) for e in (LIFTS if claim == "lift" else ()))]


def _trial(
    claim: str, fn: FunctionSpec, slots: Sequence[np.ndarray], cfg: TrialConfig
) -> tuple[list[np.ndarray], Callable] | None:
    """The arrays a tuple counts, the slots then the lanes of :func:`_lanes`,
    and the rule its counts answer to (:func:`_breach`); None for a tuple
    that cannot be judged: a number of slots other than the arity, sizes
    that differ, an entry outside the domain, or a non-finite image.

    The slots are n x n arrays, or (B, n, n) stacks of B tuples at once.
    """
    if not (
        len(slots) == cfg.k.m == fn.arity
        and len({np.shape(a) for a in slots}) == 1
        and all(cfg.dom._inside(a).all() for a in slots)
    ):
        return None
    lanes = _lanes(claim, fn, slots)
    return None if lanes is None else ([*slots, *lanes], partial(_breach, claim, cfg))


def _lane_sizes(claim: str, counted: int, n: int) -> list[int]:
    """The sizes of the arrays a size-n tuple counts on the stack: ``counted``
    of its slots, then the lanes of :func:`_lanes`."""
    return [n] * (counted + 1) + [n + e for e in LIFTS if claim == "lift"]


def _breach(claim: str, cfg: TrialConfig, *counts: Inertia) -> Inertia | None:
    """The count that breaks the claim, or None.

    ``counts`` holds the counts of the counted slots (all of them, slot 1
    alone, or none), then those of the lanes of :func:`_lanes`.  A counted
    slot outside the class (exactly k_p negatives, at most k_p under
    closure) breaks nothing; slot 1 is an inertia claim's reference.
    """
    split = len(counts) - (1 + len(LIFTS) if claim == "lift" else 1)
    held, (out, *lifted) = counts[:split], counts[split:]
    if any(h.n_neg > k_p if claim == "closure" else h.n_neg != k_p for h, k_p in zip(held, cfg.k.k)):
        return None
    if claim == "lift":
        return next((up for up in lifted if up.n_neg != out.n_neg), None)
    if claim == "inertia":
        return out if out != held[0] else None
    if claim == "exact":
        return out if out.n_neg != cfg.l else None
    if claim in ("bounded", "closure"):
        return out if out.n_neg > cfg.l else None
    raise ConfigError(f"no violation predicate for claim {claim!r}")


def _make_witness(
    claim: str, fn: FunctionSpec, slots: Sequence[np.ndarray], cfg: TrialConfig, clause: str
) -> Witness | None:
    """The one judge: a Witness of the tuple ``slots`` when the claim fails on it, else None.

    Each slot is wrapped in SymMatrix once; the arrays of :func:`_trial`
    are counted one matrix at a time and its :func:`_breach` decides.  A
    lift claim's witness holds the size-n tuple, and its ``observed`` is the
    lifted image's count that differs.  A tuple :func:`_trial` cannot judge
    gives None.
    """
    trial = _trial(claim, fn, slots, cfg)
    if trial is None:
        return None
    arrays, breach = trial
    mats = tuple(map(SymMatrix, slots))
    out = breach(*(inertia(m) for m in [*mats, *map(SymMatrix, arrays[len(mats) :])]))
    return None if out is None else Witness(mats, fn, out, clause)


def _checks(
    claim: str, fn: FunctionSpec, cfg: TrialConfig, clause: str, slots: Sequence[np.ndarray], first: int
) -> list[tuple[tuple, tuple[list, Callable] | None]]:
    """Each tuple of the (B, n, n) slot stacks ``slots``, in order: its n x n
    slots, and None when :func:`_trial` refuses it, else its pair as
    :func:`_on_stack` takes it.

    :func:`_trial` runs once on the stacks, or tuple by tuple on stacks it
    refuses.  A pair holds the tuple's arrays of :func:`_trial` from index
    ``first`` on, the ones counted, and a check over their counts that asks
    the judge (:func:`_make_witness`) when :func:`_breach` returns a count.
    """

    def check(one, breach, *counts):
        return _make_witness(claim, fn, one, cfg, clause) if breach(*counts) is not None else None

    stacked = _trial(claim, fn, slots, cfg)
    if stacked is not None:
        counted, breach = stacked[0][first:], stacked[1]
        return [(one, ([a[b] for a in counted], partial(check, one, breach))) for b, one in enumerate(zip(*slots))]
    alone = [(one, _trial(claim, fn, one, cfg)) for one in zip(*slots)]
    return [(one, None if t is None else (t[0][first:], partial(check, one, t[1]))) for one, t in alone]


def _stacked(
    cfg: TrialConfig, batches: Sequence[tuple[int, Callable]], settle: Callable = list
) -> Iterator:
    """The checks of trials 0..trials-1 of each batch (stream, draw), batch
    after batch and in index order, counted on the stack (:func:`_on_stack`).

    Trial i of a batch draws from stream ``stream + i`` (one generator,
    rekeyed): ``draw(rng)`` returns the trial's lane sizes and what
    ``settle`` builds its arrays and check from.
    """
    rng = _trial_rng(cfg.seed, 0)
    return _on_stack(
        (draw(_rekey(rng, cfg.seed, stream + i)) for stream, draw in batches for i in range(cfg.trials)),
        settle,
    )


def _run_trials(
    claim: str, fn: FunctionSpec, cfg: TrialConfig, clause: str, closure: bool
) -> tuple[int, list[Witness]]:
    """Run trials 0..trials-1; returns the failure count and the first witnesses.

    Trial i makes the draws of a member tuple from stream i (its size n, then
    each slot's, :func:`_draw`), and declares the sizes of the arrays it
    counts on the stack (:func:`_stacked`), which follow from n.  A chunk is
    settled by size group: the group's slots are built as (B, n, n) stacks
    (:func:`_settle`) and checked at once (:func:`_checks`).  A trial counts
    the lanes of :func:`_lanes`, after slot 1 for an inertia claim (its one
    slot); the other slots are not counted, since the sampler fixes each
    slot's count by construction.  The first trial, in index order, that
    :func:`_trial` refuses raises the error the scalar loop raised for it.
    A trial :func:`_breach` flags goes to :func:`_make_witness`, so its
    witness is what :meth:`Witness.revalidate` recomputes.
    """
    lo, hi = cfg.n_range
    # the counted arrays start at slot 1 for an inertia claim, else at the image
    first = 0 if claim == "inertia" else cfg.k.m

    def draw(rng):
        n = int(rng.integers(lo, hi + 1))
        return _lane_sizes(claim, cfg.k.m - first, n), (n, _sample_slots(cfg.k, n, cfg.dom, rng, closure))

    def settle(chunk):
        groups, where = {}, []
        for n, slots in chunk:
            where.append((n, len(groups.setdefault(n, []))))
            groups[n].append(slots)
        # each group's slots, slot by slot: (m, B, n, n)
        built = {
            n: _settle([a for column in zip(*group) for a in column]).reshape(cfg.k.m, len(group), n, n)
            for n, group in groups.items()
        }
        checked = {n: _checks(claim, fn, cfg, clause, list(s), first) for n, s in built.items()}
        pairs = []
        for n, b in where:
            slots, pair = checked[n][b]
            if pair is None:
                for p, a in enumerate(slots, start=1):
                    cfg.dom.check_matrix(a, slot=p)
                raise ConfigError("matrix entries must be finite")
            pairs.append(pair)
        return pairs

    failures, witnesses = 0, []
    for w in _stacked(cfg, [(0, draw)], settle):
        if w is not None:
            failures += 1
            if len(witnesses) < WITNESS_CAP:
                witnesses.append(w)
    return failures, witnesses


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
    failures, witnesses = _run_trials(claim, fn, cfg, clause, claim == "closure")
    label = (
        f"pass: {cfg.trials} trials, 0 failures"
        if failures == 0
        else f"FAIL: {failures} of {cfg.trials} trials violated the claim"
    )
    return VerdictReport(
        claim, "verify", fn, cfg, cfg.trials, failures, witnesses,
        label=label, runtime_ms=1000.0 * (time.perf_counter() - started),
    )


# ---------------------------------------------------------------------------
# witness recipes
# ---------------------------------------------------------------------------
#
# A recipe maps (fn, cfg, parts, rng, t0, eps) to its candidates at a run
# of H rungs of a ladder: t0 and eps, of shape (H, 1, 1), are each rung's
# entry scale and open_positive shift.  A candidate is a pair (slots, at):
# one (len(at), n, n) stack per slot, at the rungs ``at`` of the run.  It
# is at every rung but where ``_recipe_offset`` splits the run by the sign
# of f's offset, or where a positivity check (``_ones_spike``'s) refuses a
# rung.  ``at`` may be empty: the stacks then have length 0, and their
# shapes still give the candidate's sizes, so the first rung names the
# sizes of every candidate of the ladder.  Slice b of a stack has the bytes
# of the candidate built at its rung alone.  ``parts`` are f's terms split
# as the classifier splits them (``functions._parts``), and ``rng()`` is
# the ladder's one generator, drawn in ladder order.  A candidate larger
# than ``N_MAX`` is a ConfigError, raised before any size that grows with l
# or the arity is allocated; no size depends on the scale, so the ladder
# has no candidate and the run falls through to random search.

def _shift(dom: DomainSpec, eps):
    """``eps`` over open_positive, where zero entries are out of domain, else 0."""
    return eps if dom.kind == "open_positive" else 0.0


def _everywhere(*candidates: tuple[np.ndarray, ...]) -> list[tuple[tuple, Sequence[int]]]:
    """Candidates given as slot stacks, each at every rung of its run."""
    return [(slots, range(len(slots[0]))) for slots in candidates]


def _member_filler(n: int, k_q: int, dom: DomainSpec, t0, eps) -> np.ndarray:
    """A size-n array with exactly k_q negatives, valid in dom; for t0 and
    eps of shape (H, 1, 1), the (H, n, n) stack of one per scale."""
    int_in(n, "candidate size", 1, N_MAX)
    if k_q == 0:
        return np.full(np.shape(t0)[:-2] + (n, n), t0)
    if n < _min_size(k_q, dom):
        raise ConfigError(f"cannot place {k_q} negatives in size {n} over {dom.kind}")
    if not dom.one_sided:
        # diag(-t0, ..., -t0, t0, ..., t0) with k_q entries -t0
        return np.where(np.eye(n, dtype=bool), np.where(np.arange(n) < k_q, -t0, t0), 0.0)
    if n == k_q + 1:
        return _equicorrelation(n, t0, 2 * t0)
    # embed_with_negatives uncounted: the t0 * I pad is PSD by construction
    return _direct_sum([_equicorrelation(k_q + 1, t0, 2 * t0), t0 * np.eye(n - k_q - 1)], _shift(dom, eps))


def _fill_slots(
    n: int,
    placed: dict[int, np.ndarray],
    free: np.ndarray,
    ks: AdmissibleK,
    dom: DomainSpec,
    t0,
    eps,
) -> tuple[np.ndarray, ...]:
    """One size-n array (or stack of them) per slot.

    Slot q gets ``placed[q]`` where given, else ``free`` when it is
    unconstrained, else a member filler with exactly k_q negatives.  Every
    candidate but a 1x1 tuple is finished here, so none is larger than ``N_MAX``.
    """
    int_in(n, "candidate size", 1, N_MAX)
    return tuple(
        placed[q] if q in placed else free if k_q == 0 else _member_filler(n, k_q, dom, t0, eps)
        for q, k_q in enumerate(ks.k, start=1)
    )


# t0 is a positive normal double at every rung (rho_eff / 8 >= 1.25e-151,
# halved 39 times), so the positivity checks of ``vandermonde_psd`` and
# ``two_by_two_pair`` refuse no rung
def _recipe_nonlinear(fn, cfg, parts, rng, t0, eps):
    ks, dom = cfg.k, cfg.dom
    alpha = parts.bad[0][0]
    p = next(q for q, e in enumerate(alpha, start=1) if e and q > parts.m0)
    k_p = ks.k[p - 1]
    if k_p >= 2:
        # block_pair(0, V) for V = vandermonde_psd(k_p, t0): [[0, V], [V, 0]]
        v = t0 * _moments(k_p)
        core = _block_pair(np.zeros_like(v), v)
        if dom.one_sided:
            core = core + eps
    elif k_p:
        core = _block_pair(t0 * _PAIR[0], t0 * _PAIR[1])  # block_pair(*two_by_two_pair(t0))
    else:
        core = t0 * _moments(2)  # vandermonde_psd(2, t0), PSD of rank 2: entrywise powers raise its rank
    # every slot the offending term touches gets the same core, so its
    # structure survives the entrywise product
    placed = {
        q: core for q, k_q in enumerate(ks.k, start=1) if q == p or (alpha[q - 1] and k_q == k_p)
    }
    return _everywhere(_fill_slots(core.shape[-1], placed, np.full(core.shape, t0), ks, dom, t0, eps))


def _recipe_negative_linear(fn, cfg, parts, rng, t0, eps):
    ks, dom = cfg.k, cfg.dom
    p = min(q for q, c in parts.linear.items() if c < 0.0)
    k_p = ks.k[p - 1]
    # a pad block of size l + 3 on every domain kind
    core = _member_filler(k_p + cfg.l + 3 + dom.one_sided, k_p, dom, t0, eps)
    return _everywhere(_fill_slots(core.shape[-1], {p: core}, np.full(core.shape, t0), ks, dom, t0, eps))


def _recipe_multiple_linear(fn, cfg, parts, rng, t0, eps):
    ks, dom, linear = cfg.k, cfg.dom, parts.linear
    # the classifier reports this clause only once every slope is positive
    min_c = min(linear.values())
    constrained = range(parts.m0 + 1, ks.m + 1)
    blocks = {q: ks.k[q - 1] + 1 for q in constrained}
    n = int_in(sum(blocks.values()), "candidate size", 1, N_MAX)
    eta = t0 * min_c / (4.0 * sum(linear.values()))
    placed = {}
    for q in constrained:
        k_q = ks.k[q - 1]
        if not dom.one_sided:
            # diagonal: -t0 at the first k_q places of block q, 0 elsewhere
            first = [np.arange(blocks[r]) < (k_q if r == q else 0) for r in constrained]
            placed[q] = np.where(np.diag(np.concatenate(first)), -t0, 0.0)
        else:
            summands = [
                _equicorrelation(blocks[r], 4 * t0, 8 * t0) if r == q else eta * np.eye(blocks[r])
                for r in constrained
            ]
            placed[q] = _direct_sum(summands, _shift(dom, eps / 8))
    return _everywhere(_fill_slots(n, placed, np.full((len(t0), n, n), eps / 4), ks, dom, t0, eps))


def _recipe_constrained_dependence(fn, cfg, parts, rng, t0, eps):
    ks, dom = cfg.k, cfg.dom
    p = parts.touched[0]
    k_p = ks.k[p - 1]
    constrained = list(range(parts.m0 + 1, ks.m + 1))
    out = []
    if not dom.one_sided and all(ks.k[q - 1] == 1 for q in constrained):
        # smallest possible witness: a tuple of 1x1 matrices
        out.append(tuple((-1.0 if q in constrained else 1.0) * t0 for q in range(1, ks.m + 1)))
    kmax = max(ks.k[q - 1] for q in constrained)
    n = 2 + max(k_p, kmax + 1)
    # inflates size n - 1 to n by repeating the first coordinate
    rows = _row_map([[0, 1]] + [[i] for i in range(2, n)], n)
    # two spreads for the probe pair: a mild one and a wide one, since
    # which separates f(a) from f(b) depends on the function's shape
    for a, b in ((2 * t0, 3 * t0), (t0 / 2, 6 * t0)):
        placed = {}
        for q in constrained:
            k_q = ks.k[q - 1]
            if q == p:
                summands = [_block_pair(a, b)]
                if k_p >= 2:
                    summands.append(_equicorrelation(k_p, t0, 2 * t0))
                summands.append(t0 * np.eye(n - sum(s.shape[-1] for s in summands)))
                placed[q] = _direct_sum(summands, _shift(dom, eps))
            else:
                inner = [_equicorrelation(k_q + 1, t0, 2 * t0), t0 * np.eye(n - k_q - 2)]
                placed[q] = _gather(_direct_sum(inner, _shift(dom, eps)), rows)
        out.append(_fill_slots(n, placed, np.full((len(t0), n, n), a), ks, dom, t0, eps))
    return _everywhere(*out)


def _recipe_negative_coefficient(fn, cfg, parts, rng, t0, eps):
    ks, dom, base = cfg.k, cfg.dom, parts.base
    kmax = max(ks.k)
    negative = [a for a in base if base[a] < 0.0]
    if not negative:
        # l == 0 with a negative constant: any small PSD-ish tuple works,
        # the image hugs const * ones which has a negative direction
        n = max(2, kmax + 2)
        return _everywhere(_fill_slots(n, {}, np.full((len(t0), n, n), t0 / 8), ks, dom, t0 / 8, eps / 8))

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
    scale = min(1.0, dom.rho_eff) * np.fmin(1.0, 8.0 * t0 / dom.rho_eff)
    nodes = scale * (0.35 + 0.5 * (np.arange(block) + 0.5) / block)
    e_t = sum(w * e for w, e in zip(weights, target))
    # each rung's least node to a Python power, the float pow of the C library
    least = [x ** (2 * e_t) for x in nodes.min(axis=-1).ravel().tolist()]
    eta = abs(base[target]) * np.reshape(least, t0.shape) / 64.0
    eta = np.fmin(np.fmax(eta, 1e-12 * np.fmin(t0, scale)), t0)
    shift = np.fmin(eps, eta) / 4.0
    n = int_in(max(block * copies, kmax + 2), "candidate size", 1, N_MAX)
    placed = {}
    for q in active:
        col = nodes ** weights[q - 1]
        grid = col.swapaxes(-1, -2) * col  # np.outer(col, col) at each rung
        placed[q] = _direct_sum([grid] * copies + [eta * np.eye(n - block * copies)], _shift(dom, shift))
    free = np.full((len(t0), n, n), np.fmin(t0, scale) / 8)
    return _everywhere(_fill_slots(n, placed, free, ks, dom, eta, shift))


def _recipe_offset(fn, cfg, parts, rng, t0, eps, negative_only=False):
    """Witnesses for a bad constant offset next to a positive slope.

    A negative base value g is exposed by small negatives on the slope's
    slot.  A nonnegative g (exact and inertia claims) is exposed by
    negatives that the offset cancels, unless ``negative_only`` is set, in
    which case there is no candidate.  A slot with k_p = 0 (an inertia
    claim) holds no negatives: for g >= 0 it gets the rank-one PSD core
    t0 u u^T, u = (1/2, 1), whose entries are dyadic and positive, and
    g J + c A gains rank.  With a free slot, g moves with t0 and can
    change sign inside a ladder: its rungs with g < 0 and the others are
    two candidates, each kept at every run, at no rung if need be, so the
    first run gives the sizes of both.  Without one, g is f(0) at every
    rung and the other side is no candidate.  A ConfigError drops a side.
    """
    ks, dom = cfg.k, cfg.dom
    (p, c), = parts.linear.items()
    k_p = ks.k[p - 1]
    s = t0 / 4.0
    # f with the free slots at s and the constrained ones at 0
    g = fn(*(s if q <= parts.m0 else np.zeros_like(s) for q in range(1, ks.m + 1)))
    below = (g.ravel() < 0.0).tolist()
    out = []
    for negative in (True, False) if not negative_only else (True,):
        at = [h for h, b in enumerate(below) if b == negative]
        if not (at or parts.m0):
            continue
        # a run wholly on one side of zero is taken as it is
        t, e, g_at = (t0, eps, g) if len(at) == len(t0) else (t0[at], eps[at], g[at])
        keep = None
        try:
            if negative:
                delta = np.fmin(t, np.abs(g_at) / (2.0 * c))
                if k_p and not dom.one_sided:
                    spread = np.fmin(e, delta / 2.0)
                    # ones_spike's positivity checks, which refuse a rung alone
                    keep = ((delta > 0.0) & (spread > 0.0)).ravel()
                    core = _ones_spike(k_p, delta, spread)
                else:
                    core = _equicorrelation(k_p + 1, delta / 2.0, delta)
                # a t0 * I pad up to size max(k) + 2; exact negatives kept
                core = _direct_sum([core, t * np.eye(max(ks.k) + 1 - k_p)], _shift(dom, e / 4))
            elif k_p == 0:
                core = t * np.array([[0.25, 0.5], [0.5, 1.0]])  # t0 u u^T, u = (1/2, 1)
            elif not dom.one_sided:
                core = -np.fmin(t, k_p * g_at / (2.0 * c)) * np.eye(k_p)
            else:
                delta = np.fmin(t / 5.0, g_at / (2.0 * c))
                core = delta * ones_pencil(k_p, 0.02 / k_p).entries
            slots = _fill_slots(core.shape[-1], {p: core}, np.full(core.shape, t / 4.0), ks, dom, t, e)
        except ConfigError:
            continue
        if keep is not None and not keep.all():
            slots, at = tuple(a[keep] for a in slots), [h for h, ok in zip(at, keep.tolist()) if ok]
        out.append((slots, at))
    return out


def _recipe_constant_map(fn, cfg, parts, rng, t0, eps):
    ks, dom = cfg.k, cfg.dom
    kstar = max(ks.k)
    if not dom.one_sided and kstar == 1:
        core = t0 * np.array([[1.0, 2.0], [2.0, 1.0]])
    else:
        n = kstar + 2 if dom.one_sided else max(kstar + 1, 2)
        # a sample per rung, drawn in ladder order: a batch of the sampler's builder
        draws = rng()
        core = _settle([_draw(n, kstar, dom, draws) for _ in range(len(t0))])
    placed = {q: core for q, k_q in enumerate(ks.k, start=1) if k_q == kstar}
    return _everywhere(_fill_slots(core.shape[-1], placed, np.full(core.shape, t0), ks, dom, t0, eps))


def _recipe_budget(fn, cfg, parts, rng, t0, eps):
    """Slope on a slot whose negativity exceeds the claimed budget l."""
    ks, dom = cfg.k, cfg.dom
    (p, _), = parts.linear.items()
    k_p = ks.k[p - 1]
    if not dom.one_sided:
        n0 = k_p + 1
        core = -t0 * (np.eye(n0) - np.ones((n0, n0)) / n0)
    else:
        core = _equicorrelation(k_p + 1, t0, 2 * t0)
    # a t0 * I pad up to size max(k) + 2; exact negatives kept
    core = _direct_sum([core, t0 * np.eye(max(ks.k) + 1 - k_p)], _shift(dom, eps / 4))
    return _everywhere(_fill_slots(core.shape[-1], {p: core}, np.full(core.shape, t0 / 4), ks, dom, t0, eps))


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

#: 2^-h at rung h of a ladder, shaped (H, 1, 1) as a recipe takes its scales
_HALVINGS = np.ldexp(1.0, -np.arange(RECIPE_HALVINGS))[:, None, None]


def _scales(dom: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """t0 and eps at every rung: rho/8 and rho/16 at the first, halved at
    each next one (exactly: they stay normal doubles)."""
    return dom.rho_eff / 8.0 * _HALVINGS, dom.rho_eff / 16.0 * _HALVINGS


def _builder(recipe: Callable, fn: FunctionSpec, cfg: TrialConfig, parts: _Parts) -> Callable:
    """``build(t0, eps)``: the recipe at a run of rungs, drawing from the
    ladder's one generator, which is made when a recipe first asks for it."""
    # the key [seed, 2**63 + 1] once went through float64 as [float(seed), 2**63]:
    # the same key, so the same recipe bytes, for every seed below 2**53
    return partial(recipe, fn, cfg, parts, cache(lambda: _trial_rng(cfg.seed, 2**63)))


def _order(built: list) -> list[tuple[int, int]]:
    """(candidate, slice) of each candidate a run built, in ladder order:
    rung by rung, and at each rung in the recipe's order."""
    return [(c, b) for _, c, b in sorted((h, c, b) for c, (_, at) in enumerate(built) for b, h in enumerate(at))]


def _slices(built: list) -> list[tuple]:
    """The candidates a run built, as tuples of n x n arrays in ladder order."""
    return [tuple(a[b] for a in built[c][0]) for c, b in _order(built)]


def _candidates(recipe: Callable, fn: FunctionSpec, cfg: TrialConfig, parts: _Parts) -> list[tuple]:
    """The candidates of the recipe's whole ladder (:func:`_scales`) built in
    one call, sliced from the stacks in ladder order; none when a candidate
    would pass ``N_MAX``."""
    t0, eps = _scales(cfg.dom)
    try:
        return _slices(_builder(recipe, fn, cfg, parts)(t0, eps))
    except ConfigError:
        return []


def _ladder(
    claim: str, fn: FunctionSpec, cfg: TrialConfig, clause: str, build: Callable
) -> Iterator[Witness | None]:
    """The judge's verdict, a Witness or None, on every candidate of a
    recipe ladder (``build``, :func:`_builder`), in order.

    The first rung is built alone, and its first candidate goes straight to
    the judge.  Its other candidates are counted as one stack, and the later
    rungs are built in runs that :func:`_on_stack` packs by the sizes the
    first rung gives every candidate (one rung alone may pass the cap), each
    run once the candidates before it are judged.  A run is one ``build``
    call whose candidates are checked on their stacks (:func:`_checks`); only
    those :func:`_breach` flags reach the judge, and a candidate
    :func:`_trial` refuses gets None.  A ConfigError (a candidate past
    ``N_MAX``) ends the ladder.
    """
    t0, eps = _scales(cfg.dom)

    def pairs(built, skip=0):
        # the candidates of a build, past the first ``skip`` in ladder order, as _on_stack takes them
        order = _order(built)[skip:]
        checked = {c: _checks(claim, fn, cfg, clause, built[c][0], 0) for c in {c for c, _ in order}}
        return [checked[c][b][1] or ([], lambda: None) for c, b in order]

    try:
        head = build(t0[:1], eps[:1])
        alone = _slices(head)
        if alone:
            yield _make_witness(claim, fn, alone[0], cfg, clause)
        # the judged candidate is the only slice of its stacks at one rung:
        # skipping it leaves its candidate unchecked
        yield from _on_stack(map(_built, pairs(head, 1)))
        sizes = [n for slots, _ in head for n in _lane_sizes(claim, len(slots), slots[0].shape[-1])]
        yield from _on_stack(
            ((sizes, h) for h in range(1, len(t0))),
            lambda run: pairs(build(t0[run[0] : run[-1] + 1], eps[run[0] : run[-1] + 1])),
        )
    except ConfigError:
        return


def _recipe_witness(
    clause: str, claim: str, fn: FunctionSpec, cfg: TrialConfig
) -> tuple[Witness | None, int]:
    """The first witness among the clause's recipe candidates, and the
    candidates judged up to it (all of them when there is none): the first
    verdict of the ladder (:func:`_ladder`) that is a witness, so every
    witness is the judge's and the count is what judging each candidate in
    turn gives.
    """
    recipe = _RECIPES.get(clause)
    if recipe is None:
        return None, 0
    build = _builder(recipe, fn, cfg, _parts(fn, cfg.k, _CLAIM_TO_MODE[claim]))
    attempts = 0
    for attempts, w in enumerate(_ladder(claim, fn, cfg, clause, build), start=1):
        if w is not None:
            return w, attempts
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

    def report(trials: int, failures: int, witnesses: list[Witness], label: str) -> VerdictReport:
        return VerdictReport(
            claim, "falsify", fn, cfg, trials, failures, witnesses,
            label=label, runtime_ms=1000.0 * (time.perf_counter() - started),
        )

    verdict = _verdict(claim, fn, cfg)
    if (verdict is None or verdict.conforms) and strategy != "random":
        clause = verdict.clause if verdict is not None else "universal-identity"
        label = f"conforms (clause '{clause}'): no witness exists for this claim; nothing searched"
        return report(0, 0, [], label)

    attempts = 0
    if verdict is not None and not verdict.conforms and strategy in ("auto", "recipe"):
        witness, attempts = _recipe_witness(verdict.clause, claim, fn, cfg)
        if witness is not None:
            return report(
                attempts, 1, [witness], f"witness found via recipe for clause '{verdict.clause}'"
            )
        if strategy == "recipe":
            return report(
                attempts, 0, [],
                f"no witness from recipe for clause '{verdict.clause}' after {attempts} candidates",
            )

    # random search samples exactly k_p negatives per slot, also under closure
    clause = verdict.clause if verdict is not None else "random-search"
    failures, witnesses = _run_trials(claim, fn, cfg, clause, False)
    total = attempts + cfg.trials
    if failures:
        label = f"witness found by random search ({failures} of {cfg.trials} trials)"
    else:
        label = (
            f"no witness found: {attempts} recipe candidates and "
            f"{cfg.trials} random trials exhausted"
        )
    return report(total, failures, witnesses, label)


# ---------------------------------------------------------------------------
# lemma suite: a batch draws one trial from its stream and returns the
# symmetric arrays to count plus a check over their counts, in that order
# ---------------------------------------------------------------------------

def _suite_block_identity(cfg: TrialConfig, rng: np.random.Generator):
    n = int(rng.integers(1, 7))
    scale = cfg.dom.rho_eff / 2.0
    a = scale * (lambda g: g + g.T)(rng.uniform(-0.5, 0.5, size=(n, n)))
    b = scale * (lambda g: g + g.T)(rng.uniform(-0.5, 0.5, size=(n, n)))
    mats = [np.block([[a, b], [b, a]]), a + b, a - b]
    return mats, lambda lhs, plus, minus: lhs == Inertia(*(x + y for x, y in zip(plus, minus)))


def _suite_rank_one(cfg: TrialConfig, rng: np.random.Generator):
    n = int(rng.integers(2, 11))
    k = int(rng.integers(0, n + 1))
    a = _sample(n, k, DomainSpec("two_sided", math.inf), rng)
    v = rng.standard_normal(n)
    bump = rng.uniform(0.1, 2.0) * np.outer(v, v)
    return [a + bump, a - bump], lambda up, down: up.n_neg in (k - 1, k) and down.n_neg in (k, k + 1)


def _suite_inflation(cfg: TrialConfig, rng: np.random.Generator):
    s = int(rng.integers(1, 6))
    n = s + int(rng.integers(0, 6))
    g = rng.uniform(-1.0, 1.0, size=(s, s))
    a = g + g.T
    mats = [a, _gather(a, _row_map(_random_partition(n, s, rng), n))]
    return mats, lambda before, after: (before.n_neg, before.n_pos) == (after.n_neg, after.n_pos)


def _suite_pinned(cfg: TrialConfig, rng: np.random.Generator):
    k = int(rng.integers(1, 5))
    a = rng.uniform(0.0, 0.3)
    b = a + rng.uniform(0.1, 0.5)
    eps = rng.uniform(0.0, 0.2)
    nb = int(rng.integers(1, 5))
    v = rng.uniform(0.1, 1.0, size=(nb, nb))
    # v v^T is PSD, so the embedding keeps exactly k negatives uncounted
    psd = _symmetric(np.einsum("ik,jk->ij", v, v))
    out = _direct_sum([_equicorrelation(k + 1, a, b), psd], eps)
    # the k negatives are a - b: out - (a - b) I has exactly k zeros, nothing below
    n = len(out)
    pinned = Inertia(0, k, n - k)
    return [out, out - (a - b) * np.eye(n)], lambda c, s: c.n_neg == k and s == pinned


def _suite_pencil(cfg: TrialConfig, rng: np.random.Generator, base: np.ndarray):
    k = int(rng.integers(1, 5))
    t = float(rng.uniform(1.05, 10.0))
    return [_direct_sum([base] * k, t)], lambda c: c.n_neg == k - 1


_SUITE = [
    ("block-identity", _suite_block_identity),
    ("rank-one-perturbation", _suite_rank_one),
    ("inflation", _suite_inflation),
    ("pinned-negatives", _suite_pinned),
    ("pencil-counts", _suite_pencil),
]


def lemma_suite(cfg: TrialConfig) -> VerdictReport:
    """Run the structural property batches that back the constructions.

    The batches' trials run through one trial loop, batch after batch, so
    they share their stacks.
    """
    started = time.perf_counter()
    # every pencil trial stands on one fixed matrix: with the wrong count, none is drawn
    base = pencil_base()
    pencil = partial(_suite_pencil, base=base.entries) if inertia(base) == Inertia(1, 0, 2) else None
    batches = [(name, pencil if batch is _suite_pencil else batch) for name, batch in _SUITE]
    # trial i of batch j draws from stream (j << 40) + i, apart from every
    # verify and falsify stream
    checks = _stacked(cfg, [
        (j << 40, lambda rng, batch=batch: _built(batch(cfg, rng)))
        for j, (_, batch) in enumerate(batches, start=1) if batch is not None
    ])
    failures = 0
    parts = []
    for name, batch in batches:
        bad = cfg.trials if batch is None else sum(not ok for ok in islice(checks, cfg.trials))
        failures += bad
        parts.append(f"{name}: {cfg.trials - bad}/{cfg.trials} ok")
    label = "; ".join(parts)
    return VerdictReport(
        "lemma-suite", "suite", None, cfg, cfg.trials * len(_SUITE), failures, [],
        label=label, runtime_ms=1000.0 * (time.perf_counter() - started),
    )
