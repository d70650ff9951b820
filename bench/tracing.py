"""Span tracing of inertia-lab's layers, installed from outside the package.

The tracer replaces each traced function in every ``inertia_lab`` module
namespace that binds it, so calls made through any import path are seen.
Spans are kept in memory (name, parent, CLI call id, start, end, ok) and
written out at the end of the run.  Work the tracer does for its own
statistics (the ``numpy.linalg.eigvalsh`` cross-check, margins) runs on a
clock that is stopped, so it lands in no span.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

import numpy as np

# (module, attribute, span name) of every traced function.  Constructions and
# absmon are traced as whole layers: every public builder is one span name.
_TRACED = [
    ("linalg", "eig_sym", "linalg.eig_sym"),
    ("linalg", "inertia", "linalg.inertia"),
    ("harness", "sample_with_inertia", "harness.sample_with_inertia"),
    ("harness", "verify_forward", "harness.verify_forward"),
    ("harness", "falsify", "harness.falsify"),
    ("harness", "lemma_suite", "harness.lemma_suite"),
    ("harness", "_recipe_witness", "harness.recipe"),
    ("functions", "apply_entrywise", "functions.apply_entrywise"),
    ("functions", "classify", "functions.classify"),
    ("pontryagin", "gram_realize", "pontryagin.gram_realize"),
    ("pontryagin", "leading_negativity_profile", "pontryagin.leading_negativity_profile"),
    ("absmon", "forward_difference_test", "absmon"),
    ("absmon", "maclaurin_estimate", "absmon"),
    ("absmon", "boundary_extrapolation", "absmon"),
    ("cli", "main", "cli"),
    ("_json", "dumps", "json.dumps"),
]

_ORCHESTRATION = ("harness.verify_forward", "harness.falsify", "harness.lemma_suite")

# every per-layer metric of a traced run, with its unit; the last two are
# added by run.py
LAYER_UNITS = {
    "linalg.eig_sym.calls": "count",
    "linalg.eig_sym.self_s": "s",
    "linalg.eig_sym.work_n3": "n3",
    "linalg.eig_sym.calls_n_le_8": "count",
    "linalg.eig_sym.calls_n_9_24": "count",
    "linalg.eig_sym.calls_n_gt_24": "count",
    "linalg.inertia.min_margin": "factor",
    "linalg.eig_rel_err_max": "ratio",
    "harness.sample_with_inertia.calls": "count",
    "harness.sample_with_inertia.self_s": "s",
    "harness.sample_with_inertia.eigsolves": "count",
    "harness.sample_with_inertia.accept_ratio": "ratio",
    "harness.orchestration.self_s": "s",
    "harness.recipe.self_s": "s",
    "harness.trials": "count",
    "harness.recipe.candidates": "count",
    "functions.apply_entrywise.calls": "count",
    "functions.apply_entrywise.self_s": "s",
    "functions.apply_entrywise.entries": "count",
    "functions.classify.calls": "count",
    "functions.classify.self_s": "s",
    "constructions.calls": "count",
    "constructions.self_s": "s",
    "constructions.eigsolves": "count",
    "pontryagin.gram_realize.self_s": "s",
    "pontryagin.leading_negativity_profile.self_s": "s",
    "pontryagin.eigsolves": "count",
    "absmon.calls": "count",
    "absmon.self_s": "s",
    "cli.self_s": "s",
    "json.dumps.self_s": "s",
    "json.dumps.bytes": "bytes",
    "trace.overhead": "ratio",
    "failed_frac": "ratio",
}


def _traced_functions() -> list[tuple[object, str]]:
    """(original function, span name) for every traced function."""
    pkg = "inertia_lab"
    out = []
    for module, attr, name in _TRACED:
        out.append((getattr(sys.modules[f"{pkg}.{module}"], attr), name))
    constructions = sys.modules[f"{pkg}.constructions"]
    for attr in constructions.__all__:
        out.append((getattr(constructions, attr), "constructions"))
    return out


def _per_pass(total, passes: int):
    """A whole number when every pass did the same work, else the mean."""
    return total // passes if total % passes == 0 else total / passes


class Tracer:
    """Records spans around the package's layer functions while active."""

    def __init__(self):
        self.active = False
        self.call_id = 0
        self.spans: list[list] = []  # [name, parent, call_id, t0, t1, ok]
        self._stack: list[int] = []
        self.stopped = 0.0  # seconds the clock was stopped for tracer work
        self._stopped_by_call: dict[int, float] = {}
        self.scale: dict[int, float] = {}  # call id -> probe normalisation factor
        self._installed: list[tuple[object, str, object]] = []
        self.stats = {
            "eig_n": [],  # size of every eigensolve, in order
            "eig_rel_err_max": 0.0,
            "margin_min": float("inf"),
            "json_bytes": 0,
            "entries": 0,
            "trials": 0,
            "recipe_candidates": 0,
        }
        self._last_lam = None

    # -- clock ---------------------------------------------------------------

    def _clock(self) -> float:
        return time.perf_counter() - self.stopped

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every inertia_lab namespace."""
        wrappers = {}
        for fn, name in _traced_functions():
            wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "inertia_lab" or mod_name.startswith("inertia_lab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def _wrap(self, fn, name: str):
        after = {
            "linalg.eig_sym": self._after_eig,
            "linalg.inertia": self._after_inertia,
            "functions.apply_entrywise": self._after_apply,
            "json.dumps": self._after_dumps,
            "harness.recipe": self._after_recipe,
        }.get(name)
        if name in _ORCHESTRATION:
            after = self._after_report
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, parent, tracer.call_id, tracer._clock(), 0.0, False]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = tracer._clock()
                tracer._stack.pop()
            span[5] = True
            if after is not None:
                t0 = time.perf_counter()
                after(args, kwargs, result)
                dt = time.perf_counter() - t0
                tracer.stopped += dt
                calls = tracer._stopped_by_call
                calls[tracer.call_id] = calls.get(tracer.call_id, 0.0) + dt
            return result

        return wrapper

    # -- per-layer statistics (run with the clock stopped) -------------------

    def _after_eig(self, args, kwargs, result) -> None:
        a = args[0]
        lam = np.asarray(result[0])
        self._last_lam = lam
        self.stats["eig_n"].append(a.n)
        ref = np.linalg.eigvalsh(a.entries)
        scale = float(np.max(np.abs(ref)))
        if scale > 0.0:
            err = float(np.max(np.abs(np.sort(lam) - ref))) / scale
            self.stats["eig_rel_err_max"] = max(self.stats["eig_rel_err_max"], err)

    def _after_inertia(self, args, kwargs, result) -> None:
        a = args[0]
        tol = args[1] if len(args) > 1 else kwargs.get("tol")
        rel_zero = tol.rel_zero if tol is not None else 1e-9
        thresh = rel_zero * max(1.0, a.fro)
        mags = np.abs(self._last_lam)
        mags = mags[mags > 0.0]
        if mags.size:
            # distance of the closest eigenvalue from the zero threshold, as a
            # factor >= 1 on either side (1 means exactly on the threshold)
            ratio = mags / thresh
            margin = float(np.min(np.maximum(ratio, 1.0 / ratio)))
            self.stats["margin_min"] = min(self.stats["margin_min"], margin)

    def _after_apply(self, args, kwargs, result) -> None:
        fn, mats = args[0], list(args[1])
        self.stats["entries"] += fn.arity * mats[0].n ** 2

    def _after_dumps(self, args, kwargs, result) -> None:
        self.stats["json_bytes"] += len(result)

    def _after_recipe(self, args, kwargs, result) -> None:
        self.stats["recipe_candidates"] += result[1]

    def _after_report(self, args, kwargs, result) -> None:
        self.stats["trials"] += result.trials

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass, over ``passes`` identical traced passes.

        Counts are totals divided by ``passes``; a deterministic program gives
        whole numbers.  Times are normalised seconds of self time per pass.
        """
        spans = self.spans
        self_time = [s[4] - s[3] for s in spans]
        for s in spans:
            if s[1] >= 0:
                self_time[s[1]] -= s[4] - s[3]
        by_name: dict[str, float] = {}
        for s, t in zip(spans, self_time):
            by_name[s[0]] = by_name.get(s[0], 0.0) + t * self.scale.get(s[2], 1.0)

        def per_pass(name: str) -> float:
            return by_name.get(name, 0.0) / passes

        c = {k: _per_pass(v, passes) for k, v in self._counts().items()}
        return {
            "linalg.eig_sym.calls": c["eig_calls"],
            "linalg.eig_sym.self_s": per_pass("linalg.eig_sym"),
            "linalg.eig_sym.work_n3": c["work_n3"],
            "linalg.eig_sym.calls_n_le_8": c["n_le_8"],
            "linalg.eig_sym.calls_n_9_24": c["n_9_24"],
            "linalg.eig_sym.calls_n_gt_24": c["n_gt_24"],
            "linalg.inertia.min_margin": self.stats["margin_min"],
            "linalg.eig_rel_err_max": self.stats["eig_rel_err_max"],
            "harness.sample_with_inertia.calls": c["sampler_calls"],
            "harness.sample_with_inertia.self_s": per_pass("harness.sample_with_inertia"),
            "harness.sample_with_inertia.eigsolves": c["sampler_eig"],
            "harness.sample_with_inertia.accept_ratio": self._accept_ratio(),
            "harness.orchestration.self_s": sum(per_pass(n) for n in _ORCHESTRATION),
            "harness.recipe.self_s": per_pass("harness.recipe"),
            "harness.trials": c["trials"],
            "harness.recipe.candidates": c["recipe_candidates"],
            "functions.apply_entrywise.calls": c["apply_calls"],
            "functions.apply_entrywise.self_s": per_pass("functions.apply_entrywise"),
            "functions.apply_entrywise.entries": c["entries"],
            "functions.classify.calls": c["classify_calls"],
            "functions.classify.self_s": per_pass("functions.classify"),
            "constructions.calls": c["constructions_calls"],
            "constructions.self_s": per_pass("constructions"),
            "constructions.eigsolves": c["constructions_eig"],
            "pontryagin.gram_realize.self_s": per_pass("pontryagin.gram_realize"),
            "pontryagin.leading_negativity_profile.self_s": per_pass(
                "pontryagin.leading_negativity_profile"
            ),
            "pontryagin.eigsolves": c["pontryagin_eig"],
            "absmon.calls": c["absmon_calls"],
            "absmon.self_s": per_pass("absmon"),
            "cli.self_s": per_pass("cli"),
            "json.dumps.self_s": per_pass("json.dumps"),
            "json.dumps.bytes": c["json_bytes"],
        }

    def stopped_scaled(self) -> float:
        """Normalised seconds the clock was stopped, summed over calls."""
        return sum(t * self.scale.get(c, 1.0) for c, t in self._stopped_by_call.items())

    def _accept_ratio(self) -> float:
        """Samples returned over membership counts made directly by a sampler."""
        spans = self.spans
        sampler = "harness.sample_with_inertia"
        returned = sum(1 for s in spans if s[0] == sampler and s[5])
        checks = sum(
            1 for s in spans if s[0] == "linalg.inertia" and s[1] >= 0 and spans[s[1]][0] == sampler
        )
        return returned / checks if checks else 0.0

    def _counts(self) -> dict:
        """Whole-number counts over every traced pass."""
        spans = self.spans
        names = [s[0] for s in spans]
        calls: dict[str, int] = {}
        for n in names:
            calls[n] = calls.get(n, 0) + 1

        def under(idx: int, prefix: str) -> bool:
            p = spans[idx][1]
            while p >= 0:
                if spans[p][0].startswith(prefix):
                    return True
                p = spans[p][1]
            return False

        eig = [i for i, n in enumerate(names) if n == "linalg.eig_sym"]
        sizes = self.stats["eig_n"]
        return {
            "eig_calls": len(eig),
            "work_n3": sum(n**3 for n in sizes),
            "n_le_8": sum(1 for n in sizes if n <= 8),
            "n_9_24": sum(1 for n in sizes if 9 <= n <= 24),
            "n_gt_24": sum(1 for n in sizes if n > 24),
            "sampler_calls": calls.get("harness.sample_with_inertia", 0),
            "sampler_eig": sum(1 for i in eig if under(i, "harness.sample_with_inertia")),
            "trials": self.stats["trials"],
            "recipe_candidates": self.stats["recipe_candidates"],
            "apply_calls": calls.get("functions.apply_entrywise", 0),
            "entries": self.stats["entries"],
            "classify_calls": calls.get("functions.classify", 0),
            "constructions_calls": calls.get("constructions", 0),
            "constructions_eig": sum(1 for i in eig if under(i, "constructions")),
            "pontryagin_eig": sum(1 for i in eig if under(i, "pontryagin.")),
            "absmon_calls": calls.get("absmon", 0),
            "json_bytes": self.stats["json_bytes"],
        }

    def write_spans(self, path) -> None:
        """Gzipped, one JSON list per span: [name, parent, call_id, start_s, end_s, ok]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")
