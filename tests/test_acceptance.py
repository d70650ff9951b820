"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``criterion NN: PASS/FAIL`` line (visible even under pytest capture), then
asserts.  Tolerances and trial counts are part of the contract and should not
be loosened.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from inertia_lab.cli import main as cli_main
from inertia_lab.constructions import (
    block_pair,
    embed_with_negatives,
    inflate,
    lift_finite,
    ones_pencil,
    ones_spike,
    pencil_base,
    vandermonde_psd,
    weight_matrix,
)
from inertia_lab.functions import (
    AdmissibleK,
    Affine,
    Homothety,
    Series,
    SplitForm,
    apply_entrywise,
)
from inertia_lab.harness import TrialConfig, falsify, verify_forward
from inertia_lab.linalg import (
    DomainSpec,
    Inertia,
    SymMatrix,
    direct_sum,
    eig_sym,
    inertia,
    sym,
)
from inertia_lab.pontryagin import (
    gram_of,
    gram_realize,
    leading_negativity_profile,
    stabilization_index,
)
from inertia_lab.absmon import forward_difference_test, maclaurin_estimate

UNBOUNDED = DomainSpec("two_sided", float("inf"))


@pytest.fixture
def say(capsys):
    def _say(num, ok, detail):
        line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _say


def _rand_sym(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) * scale
    return SymMatrix(g + g.T)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def test_criterion_01_base_pencil(say):
    t_start = time.perf_counter()
    lam, _ = eig_sym(pencil_base())
    want = np.array([4.0 - math.sqrt(17.0), 1.0, 4.0 + math.sqrt(17.0)])
    eig_err = float(np.max(np.abs(lam - want)))
    ok = eig_err <= 1e-9 and inertia(pencil_base()) == Inertia(1, 0, 2)
    bad = []
    for k in range(1, 5):
        for t in (1.1, 2.0, 10.0):
            if inertia(ones_pencil(k, t)).n_neg != k - 1:
                bad.append((k, t))
    elapsed = time.perf_counter() - t_start
    ok = ok and not bad and elapsed < 1.0
    say(1, ok, f"eig err {eig_err:.1e}, pencil misses {bad}, {elapsed:.2f}s < 1s")


def test_criterion_02_block_identity(say):
    t_start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        a, b = _rand_sym(rng, n), _rand_sym(rng, n)
        c = block_pair(a, b)
        eye = np.eye(n)
        j = np.block([[eye, eye], [eye, -eye]]) / math.sqrt(2.0)
        conj = j.T @ c.entries @ j
        target = direct_sum(
            [SymMatrix(a.entries + b.entries), SymMatrix(a.entries - b.entries)]
        ).entries
        scale = max(1.0, float(np.linalg.norm(c.entries)))
        worst = max(worst, float(np.linalg.norm(conj - target)) / scale)
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-12 and elapsed < 5.0
    say(2, ok, f"200 pairs, worst congruence residual {worst:.2e} <= 1e-12, {elapsed:.2f}s < 5s")


def test_criterion_03_rank_one_perturbation(say):
    rng = np.random.default_rng(303)
    failures = 0
    for _ in range(500):
        n = int(rng.integers(1, 11))
        a = _rand_sym(rng, n)
        k = inertia(a).n_neg
        v = rng.standard_normal(n)
        t = float(rng.uniform(0.1, 3.0))
        b = t * np.outer(v, v)
        up = inertia(SymMatrix(a.entries + b)).n_neg
        down = inertia(SymMatrix(a.entries - b)).n_neg
        if up not in (k - 1, k) or down not in (k, k + 1):
            failures += 1
    say(3, failures == 0, f"500 rank-one shifts, {failures} failures")


def test_criterion_04_inflation(say):
    rng = np.random.default_rng(404)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = _rand_sym(rng, n)
        # random partition: each coordinate gets 1..3 copies
        sizes = [int(rng.integers(1, 4)) for _ in range(n)]
        partition, pos = [], 0
        for s in sizes:
            partition.append(list(range(pos, pos + s)))
            pos += s
        big = inflate(a, partition)
        before, after = inertia(a), inertia(big)
        w = weight_matrix(partition, pos)
        gram = w.T @ w
        if (before.n_neg, before.n_pos) != (after.n_neg, after.n_pos):
            failures += 1
        elif not np.array_equal(gram, np.diag(np.array(sizes, dtype=float))):
            failures += 1
    say(4, failures == 0, f"200 inflations, {failures} failures (counts and W^T W exact)")


def test_criterion_05_pinned_negative_embeddings(say):
    rng = np.random.default_rng(505)
    failures = 0
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        a = float(rng.uniform(0.0, 1.0))
        b = a + float(rng.uniform(0.1, 1.0))
        eps = float(rng.uniform(0.0, 0.5))
        nb = int(rng.integers(1, 5))
        g = rng.uniform(0.1, 1.0, size=(nb, nb))
        m = embed_with_negatives(a, b, k, eps, SymMatrix(g @ g.T))
        lam, _ = eig_sym(m)
        negs = lam[lam < -1e-12]
        if len(negs) != k:
            failures += 1
            continue
        gap = float(np.max(np.abs(negs - (a - b))))
        worst = max(worst, gap)
        if gap > 1e-9:
            failures += 1
    say(5, failures == 0, f"100 embeddings, {failures} failures, worst eigenvalue drift {worst:.1e}")


def test_criterion_06_moment_matrix_falsifier(say):
    b = vandermonde_psd(2, 1.0, u=[1.0, 2.0, 3.0])
    r1, r2 = (c.n_neg + c.n_pos for c in (inertia(b), inertia(SymMatrix(b.entries**2))))
    c = block_pair(sym(np.zeros((3, 3))), b)
    tri = inertia(c)
    img = apply_entrywise(Series(1, {(2,): 1.0}), [c], UNBOUNDED)
    img_neg = inertia(img).n_neg
    ok = r1 == 2 and r2 == 3 and c.n == 6 and tri.n_neg == 2 and img_neg == 3
    say(
        6,
        ok,
        f"rank(B)={r1}, rank(B^2)={r2}, witness has {tri.n_neg} negatives, square image has {img_neg}",
    )


def test_criterion_07_spike_witness(say):
    m = ones_spike(2, 0.3, 0.05)  # delta < 0.5
    img = apply_entrywise(Affine(-0.5, 1.0), [m], UNBOUNDED)
    got = inertia(img)
    say(7, got == Inertia(3, 0, 0), f"image inertia {(got.n_neg, got.n_zero, got.n_pos)} == (3, 0, 0)")


def test_criterion_08_affine_shift_witness(say):
    m = sym(-0.5 * np.eye(2))
    img = apply_entrywise(Affine(1.0, 1.0), [m], UNBOUNDED)
    got = inertia(img)
    say(8, got == Inertia(1, 0, 1), f"image inertia {(got.n_neg, got.n_zero, got.n_pos)} == (1, 0, 1)")


def test_criterion_09_forward_verification(say):
    t_start = time.perf_counter()
    dom = DomainSpec("two_sided", 1.0)
    details = []
    total_failures = 0
    for k in (1, 2, 3):
        cfg = TrialConfig(dom, AdmissibleK((k,)), k, trials=200, seed=900 + k)
        rep = verify_forward("inertia", Homothety(2.5), cfg)
        total_failures += rep.failures + (rep.trials != 200)
        details.append(f"homothety k={k}: {rep.failures}")
    cfg = TrialConfig(dom, AdmissibleK((2,)), 2, trials=200, seed=910)
    rep = verify_forward("closure", Affine(0.75, 1.5), cfg)
    total_failures += rep.failures + (rep.trials != 200)
    details.append(f"affine closure: {rep.failures}")
    base = Series(1, {(0,): 0.5, (1,): 1.0, (2,): 0.25})
    split = SplitForm(2, base, 1.5, 2)
    cfg = TrialConfig(DomainSpec("open_positive", 1.0), AdmissibleK((0, 2)), 2, trials=200, seed=920)
    rep = verify_forward("bounded", split, cfg)
    total_failures += rep.failures + (rep.trials != 200)
    details.append(f"split-form bounded: {rep.failures}")
    elapsed = time.perf_counter() - t_start
    ok = total_failures == 0 and elapsed < 60.0
    say(9, ok, f"failures [{', '.join(details)}], {elapsed:.1f}s < 60s")


def test_criterion_10_multivariable_falsifiers(say):
    dom = DomainSpec("two_sided", 1.0)
    f_sum = Series(2, {(1, 0): 1.0, (0, 1): 1.0})
    cfg = TrialConfig(dom, AdmissibleK((1, 1)), 1, trials=50, seed=1000)
    rep = falsify("bounded", f_sum, cfg)
    sum_ok = rep.failures >= 1
    if sum_ok:
        img = apply_entrywise(f_sum, list(rep.witnesses[0].mats), dom)
        sum_negs = inertia(img).n_neg
        sum_ok = sum_negs >= 2
    else:
        sum_negs = 0

    f_last = Series(2, {(0, 1): 1.0})
    cfg2 = TrialConfig(dom, AdmissibleK((0, 1)), 0, trials=50, seed=1001)
    rep2 = falsify("bounded", f_last, cfg2)
    last_ok = rep2.failures >= 1
    tiny = None
    if last_ok:
        mats = rep2.witnesses[0].mats
        tiny = [m.entries.tolist() for m in mats]
        last_ok = all(m.n == 1 for m in mats) and mats[1].entries[0, 0] == -0.125
    say(
        10,
        sum_ok and last_ok,
        f"sum witness has {sum_negs} >= 2 negatives; last-variable witness {tiny} hits [-0.125]",
    )


def test_criterion_11_indefinite_gram_round_trip(say):
    rng = np.random.default_rng(1111)
    failures = 0
    done = 0
    worst = 0.0
    while done < 200:
        n = int(rng.integers(1, 11))
        a = _rand_sym(rng, n)
        r = inertia(a).n_neg
        if r > 4:
            continue
        done += 1
        k = int(rng.integers(r, 5))
        vecs, sig, err = gram_realize(a, k)
        back = gram_of(vecs, sig)
        scale = max(1.0, float(np.linalg.norm(a.entries)))
        gap = float(np.linalg.norm(back.entries - a.entries)) / scale
        worst = max(worst, gap, err)
        prof = leading_negativity_profile(a)
        monotone = all(prof[j] <= prof[j + 1] for j in range(len(prof) - 1))
        idx = stabilization_index(prof, k)
        idx_ok = idx is None or 1 <= idx <= n
        if gap > 1e-8 or err > 1e-8 or not monotone or not idx_ok:
            failures += 1
    say(11, failures == 0, f"200 round trips, {failures} failures, worst relative gap {worst:.1e}")


def test_criterion_12_replication_transfer(say):
    rng = np.random.default_rng(1212)
    fns = [
        Homothety(2.0),
        Affine(0.5, 1.0),
        Affine(1.0, 2.0),
        Series(1, {(2,): 1.0}),
        Series(1, {(0,): 1.0, (1,): 1.0, (2,): 0.5}),
        Series(1, {(1,): -1.0}),
    ]
    failures = 0
    for trial in range(120):
        n = int(rng.integers(2, 7))
        a = _rand_sym(rng, n)
        fn = fns[trial % len(fns)]
        base_neg = inertia(apply_entrywise(fn, [a], UNBOUNDED)).n_neg
        for extra in (0, 3, 7):
            lifted = lift_finite(a, n + extra)
            got = inertia(apply_entrywise(fn, [lifted], UNBOUNDED)).n_neg
            if got != base_neg:
                failures += 1
    say(12, failures == 0, f"120 matrices x sizes (n, n+3, n+7), {failures} count mismatches")


def test_criterion_13_series_diagnostics(say):
    t_start = time.perf_counter()
    exp_ok = forward_difference_test(math.exp, [[0.1, 0.9]], order=4)["pass"]
    sin_rep = forward_difference_test(math.sin, [[0.1, 3.0]], order=2)
    sin_ok = not sin_rep["pass"] and sin_rep["worst_violation"]["value"] < 0.0
    prod_ok = forward_difference_test(
        lambda x, y: x * y, [[0.05, 0.95], [0.05, 0.95]], order=3
    )["pass"]
    coeffs = {0: 0.5, 1: 1.5, 3: 2.0}
    est = maclaurin_estimate(
        lambda x: sum(c * x**j for j, c in coeffs.items()), 1, 3, step=0.05
    )
    mac_ok = True
    for row in est["coefficients"]:
        want = coeffs.get(row["alpha"][0], 0.0)
        if abs(row["value"] - want) > 1e-6 * max(1.0, abs(want)):
            mac_ok = False
    elapsed = time.perf_counter() - t_start
    ok = exp_ok and sin_ok and prod_ok and mac_ok and elapsed < 5.0
    say(
        13,
        ok,
        f"exp pass={exp_ok}, sin located={sin_ok}, product pass={prod_ok}, "
        f"coefficients within 1e-6={mac_ok}, {elapsed:.2f}s < 5s",
    )


def test_criterion_14_deterministic_reports(say, tmp_path):
    verify_spec = {
        "theorem": "exact",
        "fn": {"type": "homothety", "c": 2.0, "slot": 1, "arity": 1},
        "config": {
            "domain": {"kind": "two_sided", "rho": 1.0},
            "k": [2],
            "l": 2,
            "trials": 120,
            "seed": 1400,
        },
    }
    falsify_spec = dict(
        verify_spec, fn={"type": "affine", "offset": 1.0, "c": 1.0, "slot": 1, "arity": 1}
    )
    suite_spec = {"config": dict(verify_spec["config"], trials=40)}
    mismatches = []
    for name, argv_base in (
        ("verify", ["verify", json.dumps(verify_spec)]),
        ("falsify", ["falsify", json.dumps(falsify_spec)]),
        ("suite", ["suite", json.dumps(suite_spec)]),
    ):
        blobs = []
        for threads in ("1", "8"):
            path = tmp_path / f"{name}-{threads}.json"
            run_cli(argv_base + ["--threads", threads, "--out-json", str(path)])
            blobs.append(path.read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(name)
    say(14, not mismatches, f"byte-identical across --threads 1/8 for verify, falsify, suite"
        + (f"; mismatches: {mismatches}" if mismatches else ""))
