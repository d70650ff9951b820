"""The conforming half of the classification conformance sweep.

``classify`` encodes the paper's classification.  On a seeded grid of random
``Series`` (1-3 terms, exponents 0-3, coefficients in {2, 1, 0.5, -0.25, -1},
arity 1-2), claims ``exact``, ``inertia``, ``bounded`` and ``closure`` with
valid random k and l, every domain kind and rho in {1e-3, 1, 1e3, inf}, each
spec that ``classify`` says conforms must pass ``verify`` with no failure.
Every function satisfies the ``lift`` claim, so each ``lift`` draw must pass
too.  Draws whose (k, l) ``classify`` does not decide (``RegimeNotCovered``)
are counted, and the decided ones have a floor, so the grid cannot shrink
unnoticed.  A draw that fails is listed in ``KNOWN_MISSES`` by its id, as a
strict expected failure, so a new miss fails here and a fix must remove its
entry.
"""

import math

import numpy as np
import pytest

from inertia_lab.errors import RegimeNotCovered
from inertia_lab.functions import AdmissibleK, Series, classify
from inertia_lab.harness import _CLAIM_TO_MODE, CLAIMS, TrialConfig, verify_forward
from inertia_lab.linalg import DOMAIN_KINDS, DomainSpec

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


def _grid() -> tuple[list, int, int]:
    """The draws to verify (conforming and lift), the undecided count and the decided count."""
    rng = np.random.default_rng(SEED)
    runs, undecided, decided = [], 0, 0
    for _ in range(DRAWS):
        claim, fn, cfg = _draw(rng)
        if claim != "lift":
            try:
                verdict = classify(fn, cfg.k, cfg.l, cfg.dom, mode=_CLAIM_TO_MODE[claim])
            except RegimeNotCovered:
                undecided += 1
                continue
            decided += 1
            if not verdict.conforms:
                continue
        runs.append((claim, fn, cfg))
    return runs, undecided, decided


RUNS, UNDECIDED, DECIDED = _grid()


def test_the_grid_keeps_its_size():
    lifts = sum(claim == "lift" for claim, _, _ in RUNS)
    assert UNDECIDED + DECIDED + lifts == DRAWS
    assert DECIDED >= 350 and len(RUNS) - lifts >= 50 and lifts >= 100
    assert {claim for claim, _, _ in RUNS} == set(CLAIMS)
    assert {cfg.dom.kind for _, _, cfg in RUNS} == set(DOMAIN_KINDS)
    assert {cfg.dom.rho for _, _, cfg in RUNS} == set(RHOS)


def _param(run):
    miss = _label(*run) in KNOWN_MISSES
    return pytest.param(*run, id=_label(*run), marks=pytest.mark.xfail(strict=True) if miss else ())


@pytest.mark.parametrize("claim, fn, cfg", [_param(run) for run in RUNS])
def test_a_conforming_spec_passes_verify(claim, fn, cfg):
    rep = verify_forward(claim, fn, cfg)
    assert (rep.failures, rep.label) == (0, f"pass: {cfg.trials} trials, 0 failures")
