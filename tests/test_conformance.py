"""The classification conformance sweep.

``classify`` encodes the paper's classification.  On a seeded grid of random
``Series`` (1-3 terms, exponents 0-3, coefficients in {2, 1, 0.5, -0.25, -1},
arity 1-2), claims ``exact``, ``inertia``, ``bounded`` and ``closure`` with
valid random k and l, every domain kind and rho in {1e-3, 1, 1e3, inf}, each
spec that ``classify`` says conforms must pass ``verify`` with no failure.
Every function satisfies the ``lift`` claim, so each ``lift`` draw must pass
too.  Each spec that ``classify`` says violates must get a ``falsify``
witness that revalidates, whose image numpy's ``eigvalsh`` counts as the
witness's ``observed``, and that breaks the claim by those counts.  Draws
whose (k, l) ``classify`` does not decide (``RegimeNotCovered``) are
counted, and the decided ones have a floor, so the grid cannot shrink
unnoticed.  A draw that fails is listed in ``KNOWN_MISSES`` (verify) or
``FALSIFY_MISSES`` (falsify) by its id, as a strict expected failure, so a
new miss fails here and a fix must remove its entry.
"""

import math

import numpy as np
import pytest

from inertia_lab.errors import RegimeNotCovered
from inertia_lab.functions import AdmissibleK, Series, classify
from inertia_lab.harness import _CLAIM_TO_MODE, CLAIMS, TrialConfig, falsify, verify_forward
from inertia_lab.linalg import DOMAIN_KINDS, REL_ZERO, DomainSpec, Inertia

SEED = 1
DRAWS = 600
TRIALS = 30
COEFFS = (2.0, 1.0, 0.5, -0.25, -1.0)
RHOS = (1e-3, 1.0, 1e3, math.inf)

#: ids of draws that fail verify, each a strict expected failure.  The one
#: miss is a lift draw at rho = 1e-3: f[A] has an eigenvalue within a few
#: REL_ZERO * ||f[A]||_F of zero, and the lifted images' larger norms move
#: their zero thresholds past it, so the float counts differ though the
#: exact ones agree
KNOWN_MISSES = {
    "lift:+2x^0-0.25x^1+2x^3:k=1:l=0:open_positive:rho=0.001",
}

#: ids of violating draws for which falsify returns no witness, each a
#: strict expected failure: no recipe candidate breaks the claim by the
#: float count, and random search finds no witness either.  Seven are at
#: rho = 1e-3; the two at rho = 1 have k = (0, 3), l = 4 and a term x1^2 x2^3
FALSIFY_MISSES = {
    "bounded:+1x^10-0.25x^31-1x^23:k=0,3:l=4:two_sided:rho=1",
    "closure:+0.5x^20-0.25x^12+1x^23:k=0,3:l=4:two_sided:rho=1",
    "closure:+0.5x^00-1x^32:k=1,2:l=0:open_positive:rho=0.001",
    "bounded:+0.5x^0+1x^3:k=1:l=1:two_sided:rho=0.001",
    "bounded:+0.5x^0+2x^3:k=3:l=4:two_sided:rho=0.001",
    "exact:+2x^1-0.25x^2+0.5x^3:k=1:l=1:closed_left:rho=0.001",
    "exact:+0.5x^10+1x^30+2x^33:k=3,3:l=3:two_sided:rho=0.001",
    "closure:+0.5x^00-0.25x^30+1x^32:k=1,2:l=0:two_sided:rho=0.001",
    "closure:+0.5x^10-1x^20:k=1,3:l=1:two_sided:rho=0.001",
}


def _draw(rng: np.random.Generator) -> tuple[str, Series, TrialConfig]:
    """One draw of the grid: (claim, f, config)."""
    claim = CLAIMS[int(rng.integers(len(CLAIMS)))]
    # the inertia claim is single-variable
    arity = 1 if claim == "inertia" else int(rng.integers(1, 3))
    terms = [
        (tuple(int(e) for e in rng.integers(0, 4, size=arity)), COEFFS[int(rng.integers(len(COEFFS)))])
        for _ in range(int(rng.integers(1, 4)))
    ]
    if claim in ("exact", "inertia"):
        # a uniform k, and l == k
        k = (int(rng.integers(0, 4)),) * arity
        l = k[0]
    else:
        # zeros first, as AdmissibleK requires
        k = tuple(sorted(int(v) for v in rng.integers(0, 4, size=arity)))
        l = int(rng.integers(0, 5))
    dom = DomainSpec(DOMAIN_KINDS[int(rng.integers(3))], RHOS[int(rng.integers(len(RHOS)))])
    cfg = TrialConfig(dom, AdmissibleK(k), l, trials=TRIALS, seed=int(rng.integers(2**32)))
    return claim, Series(arity, terms), cfg


def _label(claim: str, fn: Series, cfg: TrialConfig) -> str:
    """The draw's test id: claim, f as coeff*x^alpha terms, k, l and the domain."""
    terms = "".join(f"{c:+g}x^{''.join(map(str, a))}" for a, c in fn.terms) or "0"
    k = ",".join(map(str, cfg.k.k))
    return f"{claim}:{terms}:k={k}:l={cfg.l}:{cfg.dom.kind}:rho={cfg.dom.rho:g}"


def _grid() -> tuple[list, list, int]:
    """The draws to verify (conforming and lift), those to falsify (violating)
    and the undecided count."""
    rng = np.random.default_rng(SEED)
    runs, violating, undecided = [], [], 0
    for _ in range(DRAWS):
        claim, fn, cfg = _draw(rng)
        if claim != "lift":
            try:
                verdict = classify(fn, cfg.k, cfg.l, cfg.dom, mode=_CLAIM_TO_MODE[claim])
            except RegimeNotCovered:
                undecided += 1
                continue
            if not verdict.conforms:
                violating.append((claim, fn, cfg))
                continue
        runs.append((claim, fn, cfg))
    return runs, violating, undecided


RUNS, VIOLATING, UNDECIDED = _grid()
DECIDED = len(VIOLATING) + sum(claim != "lift" for claim, _, _ in RUNS)


def test_the_grid_keeps_its_size():
    lifts = sum(claim == "lift" for claim, _, _ in RUNS)
    assert UNDECIDED + DECIDED + lifts == DRAWS
    assert DECIDED >= 350 and len(RUNS) - lifts >= 50 and lifts >= 100
    assert {claim for claim, _, _ in RUNS} == set(CLAIMS)
    assert {cfg.dom.kind for _, _, cfg in RUNS} == set(DOMAIN_KINDS)
    assert {cfg.dom.rho for _, _, cfg in RUNS} == set(RHOS)


def _param(run, misses=KNOWN_MISSES):
    miss = _label(*run) in misses
    return pytest.param(*run, id=_label(*run), marks=pytest.mark.xfail(strict=True) if miss else ())


@pytest.mark.parametrize("claim, fn, cfg", [_param(run) for run in RUNS])
def test_a_conforming_spec_passes_verify(claim, fn, cfg):
    rep = verify_forward(claim, fn, cfg)
    assert (rep.failures, rep.label) == (0, f"pass: {cfg.trials} trials, 0 failures")


def _eigvalsh_inertia(a: np.ndarray) -> Inertia:
    """The inertia of ``a`` by numpy's eigvalsh, |lam| <= REL_ZERO * ||a||_F counted as zero."""
    lam, tau = np.linalg.eigvalsh(a), REL_ZERO * np.linalg.norm(a)
    neg, pos = int(np.sum(lam < -tau)), int(np.sum(lam > tau))
    return Inertia(neg, len(a) - neg - pos, pos)


def _breaks(claim: str, cfg: TrialConfig, slots: list, image: Inertia) -> bool:
    """Whether members with these slot counts and this image count break the claim."""
    counts = [_eigvalsh_inertia(a) for a in slots]
    if not all(c.n_neg == k_p for c, k_p in zip(counts, cfg.k.k)):
        return False
    if claim == "inertia":
        return image != counts[0]
    return image.n_neg != cfg.l if claim == "exact" else image.n_neg > cfg.l


@pytest.mark.parametrize("claim, fn, cfg", [_param(run, FALSIFY_MISSES) for run in VIOLATING])
def test_a_violating_spec_gets_a_witness_that_breaks_the_claim(claim, fn, cfg):
    rep = falsify(claim, fn, cfg)
    assert rep.witnesses, rep.label
    w = rep.witnesses[0]
    assert w.revalidate(claim, cfg)
    slots = [m.entries for m in w.mats]
    assert all(cfg.dom._inside(a).all() for a in slots)
    image = _eigvalsh_inertia(fn(*slots))
    assert image == w.observed
    assert _breaks(claim, cfg, slots, image)
