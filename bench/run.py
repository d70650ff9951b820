"""inertia-lab benchmark: drives the public CLI in-process and checks its output.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-small --seed 1 --seconds 30 --trace 0

Every input is generated from ``--seed``.  A pass runs a list of calls
through ``inertia_lab.cli.main(argv)`` in-process, with stdout and stderr
captured, at ``--threads 1``.  Passes follow each other (a closed loop with
one client) while the next one still fits in ``--seconds``.  The second pass
repeats the first, and every repeated call must print the same bytes as its
first run; later passes draw fresh calls from the seed.

Times are normalised for the speed of the machine at the moment of the call.
A fixed probe (Jacobi-like column rotations, outside the timed region) runs
before and after every call; a call's time is its wall time scaled by
``PROBE_REF_S`` over the mean of the two probe times.  On a shared host the
same work can take twice as long from one second to the next; the probe
takes the same slowdown and cancels it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs passes
untraced and then the same passes traced, and reports the per-layer metrics
of the traced passes plus the tracing overhead; spans go to ``.bench_out/``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# timed fresh imports of the package before the first pass; one more follows
# every pass of an end-to-end run, so the samples spread over the run
SETUP_IMPORTS = 5

# probe time of a quiet 2-core Intel Xeon sandbox (Python 3.11, numpy 2.4):
# normalised times read as seconds on that machine
PROBE_REF_S = 1.0e-3
_PROBE_STEPS = 250
_PROBE_INPUT = np.random.default_rng(0).standard_normal((16, 16))

E2E_UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_ms.p50": "ms",
    "call_ms.p90": "ms",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def probe() -> float:
    """Seconds taken by a fixed slice of Jacobi-like work."""
    b = _PROBE_INPUT.copy()
    t0 = time.perf_counter()
    for i in range(_PROBE_STEPS):
        p = i % 15
        col_p = b[:, p].copy()
        col_q = b[:, 15].copy()
        b[:, p] = 0.8 * col_p - 0.6 * col_q
        b[:, 15] = 0.6 * col_p + 0.8 * col_q
    return time.perf_counter() - t0


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "inertia_lab" or n.startswith("inertia_lab.")}


def _timed_import() -> float:
    """Normalised seconds for a fresh import of inertia_lab.cli.

    The modules already loaded are put back afterwards, so the calls keep
    running the same (warm) module objects.
    """
    loaded = _package_modules()
    for name in loaded:
        del sys.modules[name]
    before = probe()
    t0 = time.perf_counter()
    importlib.import_module("inertia_lab.cli")
    dt = time.perf_counter() - t0
    after = probe()
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(loaded)
    return dt * PROBE_REF_S * 2.0 / (before + after)


def _import_package():
    """Import inertia_lab.cli from this checkout's src/; returns the module."""
    if not (SRC / "inertia_lab" / "cli.py").is_file():
        _fail(f"no inertia_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("inertia_lab.cli")
    if Path(cli.__file__).resolve().parent != SRC / "inertia_lab":
        _fail(f"imported inertia_lab from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    """Runs passes of CLI calls and checks every output.

    ``build(index)`` gives the calls of pass content ``index``.  A call that
    runs again must print the same bytes as its first run.
    """

    def __init__(self, cli, build, workloads):
        self.cli = cli
        self._build = build
        self._content: tuple[int, list] | None = None  # only the latest, so memory stays flat
        self.wl = workloads
        self.first: dict[tuple[int, int], tuple[str, str, int]] = {}  # digest, status, trials
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.trials = 0
        self.times: list[float] = []  # normalised seconds of every call
        self.mismatches: list[str] = []

    def calls(self, content: int) -> list:
        if self._content is None or self._content[0] != content:
            self._content = (content, self._build(content))
        return self._content[1]

    def invoke(self, argv, tracer=None):
        """Run one CLI call; returns (exit code, stdout, stderr, wall seconds)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.call_id += 1
                tracer.active = True
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an escaped exception is a failed call, not a crash
                code = None
                err.write(traceback.format_exc())
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        return code, out.getvalue(), err.getvalue(), dt

    def run_pass(self, content: int, tracer=None) -> float:
        """One pass over the calls of ``content``; returns its normalised call time."""
        total = 0.0
        before = probe()
        for i, call in enumerate(self.calls(content)):
            code, out, err, dt = self.invoke(call.argv, tracer)
            after = probe()
            scale = PROBE_REF_S * 2.0 / (before + after)
            before = after
            if tracer is not None:
                tracer.scale[tracer.call_id] = scale
            total += dt * scale
            self.times.append(dt * scale)
            self._account((content, i), call, code, out, err)
        return total

    def _account(self, key, call, code, out, err) -> None:
        self.attempted += 1
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        if key not in self.first:
            try:
                status = call.check(code, out, err)
            except Exception as exc:  # a malformed report is a mismatch
                status = f"check raised {type(exc).__name__}: {exc}"
            self.first[key] = (digest, status, self.wl.trials_of(out))
        first_digest, status, trials = self.first[key]
        self.trials += trials
        if digest != first_digest:
            status = "output differs from the first run of this call"
        if status == self.wl.KNOWN_DEFECT:
            self.known_defect += 1
        elif status != self.wl.OK:
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"call {key} {call.argv[:2]}: {status} {err.strip()[-300:]}")

    def run_for(self, seconds: float, min_passes: int, content, between=None) -> tuple[int, float]:
        """Run whole passes, pass p over ``content(p)``: at least ``min_passes``,
        then more while another still fits in ``seconds`` of wall time.
        Returns (passes, normalised call time); ``between`` runs after every
        pass."""
        done, busy, last = 0, 0.0, 0.0
        started = time.perf_counter()
        while done < min_passes or time.perf_counter() - started + last <= seconds:
            t0 = time.perf_counter()
            busy += self.run_pass(content(done))
            last = time.perf_counter() - t0
            done += 1
            if between is not None:
                between()
        return done, busy


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one benchmark invocation and return the result object."""
    os.environ.pop("INERTIA_LAB_SEED", None)  # the CLI would override config seeds
    sys.path.insert(0, str(BENCH))
    import workloads as wl

    if workload not in wl.WORKLOADS:
        _fail(f"unknown workload {workload!r}; choose from {sorted(wl.WORKLOADS)}")
    cli = _import_package()
    setup = [_timed_import() for _ in range(SETUP_IMPORTS)]
    runner = Runner(cli, lambda index: wl.build(workload, seed, index, tiny), wl)
    calls_per_pass = len(runner.calls(0))

    # warm-up: one call of each command, untimed and uncounted
    seen = set()
    for call in runner.calls(0):
        key = tuple(a for a in call.argv[:2] if a.isidentifier())
        if key not in seen:
            seen.add(key)
            runner.invoke(call.argv)

    if not trace:
        # passes 0 and 1 run the same calls (the determinism check on every
        # call of pass 0); each later pass draws fresh calls, so one run
        # averages over more inputs.  At least 100 calls run, so that the
        # 90th percentile has ten samples beyond it.
        min_passes = max(2, math.ceil(100 / calls_per_pass))
        passes, busy = runner.run_for(
            seconds, min_passes, lambda p: max(0, p - 1), between=lambda: setup.append(_timed_import())
        )
        ms = [1000.0 * t for t in runner.times]
        metrics = {
            "setup_s": statistics.median(setup),
            "calls_per_s": len(ms) / busy,
            "call_ms.p50": statistics.median(ms),
            "call_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
            "trials_per_s": runner.trials / busy,
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = E2E_UNITS
        extra = {"passes": passes, "call_samples": len(ms), "setup_samples": len(setup)}
    else:
        from tracing import LAYER_UNITS, Tracer

        # every traced and untraced pass runs the same calls, so the counts
        # per pass are exact and the overhead compares equal work
        passes, untraced = runner.run_for(0.35 * seconds, 1, lambda p: 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = sum(runner.run_pass(0, tracer) for _ in range(passes))
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(passes)
        # the tracer's own statistics run with its clock stopped; they are
        # not part of the traced program's time
        metrics["trace.overhead"] = (traced - tracer.stopped_scaled()) / untraced
        metrics["failed_frac"] = (runner.failed + runner.known_defect) / runner.attempted
        units = LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-{seed}.jsonl.gz"
        tracer.write_spans(spans_path)
        extra = {"passes": passes, "spans": len(tracer.spans), "spans_file": str(spans_path)}

    summary = {
        "workload": workload,
        "seed": seed,
        "calls_per_pass": calls_per_pass,
        **extra,
        "known_defect_calls": runner.known_defect,
        "failed_frac": (runner.failed + runner.known_defect) / runner.attempted,
    }
    for line in runner.mismatches:
        print(f"bench: mismatch: {line}", file=sys.stderr)
    print(f"bench: {json.dumps(summary)}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"bench: {name} = {value} {units[name]}", file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
