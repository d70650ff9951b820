"""Command-line front end.

Every JSON-valued argument accepts either inline JSON or ``@path`` to read a
file.  Exit codes: 0 success / property holds, 1 negative outcome (a verify
run failed or was vacuous, a falsify run found nothing, a difference test was
violated, or the eigensolver did not converge), 2 configuration problems,
3 asymmetric input, 4 domain violations.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys

from . import _json
from .absmon import (
    boundary_extrapolation,
    builtin_fn,
    forward_difference_test,
    maclaurin_estimate,
)
from .constructions import (
    block_pair,
    embed_with_negatives,
    equicorrelation,
    inflate,
    lift_finite,
    ones_orthogonal_basis,
    ones_pencil,
    ones_spike,
    pencil_base,
    replicated_block,
    two_by_two_pair,
    vandermonde_psd,
    weight_matrix,
)
from .errors import (
    AsymmetryError,
    ConfigError,
    ConvergenceError,
    DomainViolation,
    RegimeNotCovered,
    SamplingError,
    positive_int,
)
from .functions import apply_entrywise, fn_from_json_dict
from .harness import (
    CSV_FIELDS,
    TrialConfig,
    VerdictReport,
    falsify,
    lemma_suite,
    verify_forward,
)
from .linalg import (
    DEFAULT_TOL,
    DomainSpec,
    SymMatrix,
    TolerancePolicy,
    eig_sym,
    inertia,
    spectrum_inertia,
    sym,
)
from .pontryagin import (
    gram_realize,
    leading_negativity_profile,
    stabilization_index,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_CONFIG = 2
EXIT_ASYMMETRY = 3
EXIT_DOMAIN = 4


# ---------------------------------------------------------------------------
# argument coercion
# ---------------------------------------------------------------------------

def _load_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raw = text
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON argument: {exc}") from None


def _matrix_arg(text: str) -> SymMatrix:
    value = _load_json_arg(text)
    if isinstance(value, list):
        # same strict validation as the object form: user input is not
        # silently symmetrized
        return SymMatrix.from_json_dict({"n": len(value), "rows": value})
    if isinstance(value, dict):
        return SymMatrix.from_json_dict(value)
    raise ConfigError("matrix argument must be a rows list or a {n, rows} object")


def _domain_arg(text: str | None) -> DomainSpec:
    if text is None:
        return DomainSpec()
    if not text.startswith(("{", "@")):
        return DomainSpec(kind=text)
    value = _load_json_arg(text)
    if not isinstance(value, dict):
        raise ConfigError("domain argument must be a JSON object or a kind name")
    return DomainSpec.from_json_dict(value)


def _tol_arg(text: str | None) -> TolerancePolicy:
    if text is None:
        return DEFAULT_TOL
    value = _load_json_arg(text)
    if not isinstance(value, dict):
        raise ConfigError("tolerance argument must be a JSON object")
    return TolerancePolicy.from_json_dict(value)


def _fn_arg(text: str):
    value = _load_json_arg(text)
    if not isinstance(value, dict):
        raise ConfigError("fn argument must be a JSON object")
    return fn_from_json_dict(value)


def _emit(obj, indent: int | None = 2) -> None:
    sys.stdout.write(_json.dumps(obj, indent=indent) + "\n")


def _err(message) -> None:
    print(f"inertia-lab: error: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# simple commands
# ---------------------------------------------------------------------------

def _cmd_inertia(args) -> int:
    a = _matrix_arg(args.matrix)
    tol = _tol_arg(args.tolerance)
    lam, _ = eig_sym(a)
    out = spectrum_inertia(a, lam, tol).to_json_dict()
    if args.eigenvalues:
        out["eigenvalues"] = lam.tolist()
    _emit(out, indent=None)
    return EXIT_OK


def _cmd_apply(args) -> int:
    fn = _fn_arg(args.fn)
    mats = tuple(_matrix_arg(m) for m in args.matrix)
    dom = _domain_arg(args.domain)
    tol = _tol_arg(args.tolerance)
    image = apply_entrywise(fn, mats, dom)
    _emit({"matrix": image.to_json_dict(), "inertia": inertia(image, tol).to_json_dict()})
    return EXIT_OK


def _cmd_construct(args) -> int:
    result = args.builder(args)
    if isinstance(result, SymMatrix):
        payload = {
            "matrix": result.to_json_dict(),
            "inertia": inertia(result).to_json_dict(),
        }
    else:
        payload = result
    _emit(payload)
    return EXIT_OK


def _partition_arg(text: str) -> list[list[int]]:
    value = _load_json_arg(text)
    if not (isinstance(value, list) and all(isinstance(block, list) for block in value)):
        raise ConfigError("partition must be a JSON list of index blocks")
    return value


# ---------------------------------------------------------------------------
# harness commands
# ---------------------------------------------------------------------------

def _write_csv(report: VerdictReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerow(report.csv_row())


def _cmd_run(args) -> int:
    """verify, falsify and suite: read the run config, run, write the report."""
    suite = args.command == "suite"
    spec = _load_json_arg(args.config)
    if not isinstance(spec, dict):
        raise ConfigError("run config must be a JSON object")
    allowed = {"config", "out_json", "out_csv"}
    if not suite:
        allowed |= {"theorem", "fn", "strategy"}
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown run config keys: {sorted(unknown)}")
    if "config" not in spec or not isinstance(spec["config"], dict):
        raise ConfigError('run config must carry a "config" object')
    if not suite:
        if "theorem" not in spec:
            raise ConfigError('run config must name a "theorem" claim')
        if "fn" not in spec:
            raise ConfigError('run config must carry an "fn" object')
    # a flag overrides the config value; null or an absent key means no file
    out_json = args.out_json or spec.get("out_json")
    out_csv = args.out_csv or spec.get("out_csv")
    for key, path in (("out_json", out_json), ("out_csv", out_csv)):
        if path is not None and not (isinstance(path, str) and path):
            raise ConfigError(f'run config "{key}" must be a nonempty path string or null')
    if args.threads is not None:
        positive_int(args.threads, "threads")
    cfg = TrialConfig.from_json_dict(spec["config"])
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if suite:
        report = lemma_suite(cfg)
    else:
        fn = fn_from_json_dict(spec["fn"])
        if args.command == "verify":
            report = verify_forward(spec["theorem"], fn, cfg)
        else:
            strategy = args.strategy or spec.get("strategy", "auto")
            report = falsify(spec["theorem"], fn, cfg, strategy=strategy)
    payload = report.to_json_dict()
    if out_json is not None:
        _json.dump_path(payload, out_json, indent=2)
    if out_csv is not None:
        _write_csv(report, out_csv)
    _emit(payload)
    print(report.summary_line(), file=sys.stderr)
    if args.command == "falsify":
        return EXIT_OK if report.failures > 0 else EXIT_NEGATIVE
    return EXIT_OK if report.trials > 0 and report.failures == 0 else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# pontryagin / absmon commands
# ---------------------------------------------------------------------------

def _cmd_factor(args) -> int:
    a = _matrix_arg(args.matrix)
    tol = _tol_arg(args.tolerance)
    vectors, (plus, minus), err = gram_realize(a, args.k, tol)
    _emit(
        {
            "vectors": vectors.tolist(),
            "signature": {"plus": plus, "minus": minus},
            "error": float(err),
        }
    )
    return EXIT_OK


def _cmd_profile(args) -> int:
    a = _matrix_arg(args.matrix)
    tol = _tol_arg(args.tolerance)
    profile = leading_negativity_profile(a, tol)
    out: dict = {"profile": profile}
    if args.k is not None:
        out["stabilization"] = stabilization_index(profile, args.k)
    _emit(out)
    return EXIT_OK


def _absmon_fn(text: str):
    """A builtin name, or a FunctionSpec JSON object; returns (f, arity|None)."""
    if text.isidentifier():
        return builtin_fn(text), None
    f = _fn_arg(text)
    return f, f.arity


def _box_arg(text: str) -> list[tuple[float, float]]:
    box = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ConfigError(f"bad box interval {part!r}; expected lo:hi")
        try:
            box.append((float(pieces[0]), float(pieces[1])))
        except ValueError:
            raise ConfigError(f"bad box interval {part!r}") from None
    return box


def _cmd_absmon_check(args) -> int:
    f, _ = _absmon_fn(args.fn)
    box = _box_arg(args.box)
    report = forward_difference_test(
        f, box, order=args.order, step=args.step, include_zeroth=args.include_zeroth
    )
    _emit(report)
    return EXIT_OK if report["pass"] else EXIT_NEGATIVE


def _cmd_absmon_maclaurin(args) -> int:
    f, arity = _absmon_fn(args.fn)
    if args.arity is not None:
        arity = args.arity
    if arity is None:
        arity = 1
    report = maclaurin_estimate(f, arity, args.order, step=args.step)
    _emit(report)
    return EXIT_OK


def _cmd_absmon_limit(args) -> int:
    f, _ = _absmon_fn(args.fn)
    report = boundary_extrapolation(f, step=args.step, levels=args.levels)
    _emit(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="run config: inline JSON or @file")
    p.add_argument("--threads", type=int, default=None, help="kept for old scripts; no effect")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out-json", default=None, help="write the report JSON here")
    p.add_argument("--out-csv", default=None, help="write a one-line CSV summary here")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="inertia-lab",
        description=(
            "Entrywise matrix transforms and negative-eigenvalue bookkeeping: "
            "inertia computation, named constructions, claim verification and "
            "falsification, Gram factorization, and difference tests."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inertia", help="inertia counts of a symmetric matrix")
    p.add_argument("--matrix", required=True, help="rows list or {n, rows}; inline or @file")
    p.add_argument("--tolerance", default=None)
    p.add_argument("--eigenvalues", action="store_true", help="include the spectrum")
    p.set_defaults(func=_cmd_inertia)

    p = sub.add_parser("apply", help="apply a function entrywise to matrix slots")
    p.add_argument("--fn", required=True, help="FunctionSpec JSON; inline or @file")
    p.add_argument(
        "--matrix", action="append", required=True, help="one per slot, in slot order"
    )
    p.add_argument("--domain", default=None, help="kind name or {kind, rho} JSON")
    p.add_argument("--tolerance", default=None)
    p.set_defaults(func=_cmd_apply)

    c = sub.add_parser("construct", help="build one of the named matrices")
    c.set_defaults(func=_cmd_construct)
    csub = c.add_subparsers(dest="what", required=True)

    q = csub.add_parser("pencil-base", help="the fixed 3x3 with one negative eigenvalue")
    q.set_defaults(builder=lambda a: pencil_base())

    q = csub.add_parser("ones-pencil", help="k copies of the base plus t * ones")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--t", type=float, required=True)
    q.set_defaults(builder=lambda a: ones_pencil(a.k, a.t))

    q = csub.add_parser("equicorrelation", help="(a-b) Id + b * ones, size k+1")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--b", type=float, required=True)
    q.set_defaults(builder=lambda a: equicorrelation(a.k, a.a, a.b))

    q = csub.add_parser("vandermonde", help="rank-k moment matrix on positive nodes")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--t0", type=float, required=True)
    q.add_argument("--nodes", default=None, help="JSON list of 2k-1 distinct positive nodes")
    q.set_defaults(
        builder=lambda a: vandermonde_psd(
            a.k, a.t0, None if a.nodes is None else _load_json_arg(a.nodes)
        ),
    )

    q = csub.add_parser("two-by-two", help="the 2x2 pair whose gap is t0 * ones")
    q.add_argument("--t0", type=float, required=True)
    q.set_defaults(
        builder=lambda a: (lambda pair: {"a": pair[0].to_json_dict(), "b": pair[1].to_json_dict()})(
            two_by_two_pair(a.t0)
        ),
    )

    q = csub.add_parser("ones-spike", help="delta * ones minus a basis-spread PSD part")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--delta", type=float, required=True)
    q.add_argument("--epsilon", type=float, required=True)
    q.set_defaults(builder=lambda a: ones_spike(a.k, a.delta, a.epsilon))

    q = csub.add_parser("block-pair", help="[[A, B], [B, A]]")
    q.add_argument("--a", required=True, help="matrix JSON")
    q.add_argument("--b", required=True, help="matrix JSON")
    q.set_defaults(builder=lambda a: block_pair(_matrix_arg(a.a), _matrix_arg(a.b)))

    q = csub.add_parser("replicated", help="(-t0 Id_k) direct-sum (l+2 copies of A)")
    q.add_argument("--matrix", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--t0", type=float, required=True)
    q.set_defaults(builder=lambda a: replicated_block(_matrix_arg(a.matrix), a.k, a.l, a.t0))

    q = csub.add_parser("embed", help="equicorrelation block next to a PSD block")
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--epsilon", type=float, required=True)
    q.add_argument("--block", required=True, help="PSD matrix JSON")
    q.set_defaults(
        builder=lambda a: embed_with_negatives(a.a, a.b, a.k, a.epsilon, _matrix_arg(a.block)),
    )

    q = csub.add_parser("inflate", help="duplicate coordinates along a partition")
    q.add_argument("--matrix", required=True)
    q.add_argument("--partition", required=True, help="JSON list of index blocks")
    q.set_defaults(builder=lambda a: inflate(_matrix_arg(a.matrix), _partition_arg(a.partition)))

    q = csub.add_parser("weight", help="0/1 block-indicator matrix of a partition")
    q.add_argument("--partition", required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(
        builder=lambda a: {"rows": weight_matrix(_partition_arg(a.partition), a.n).tolist()},
    )

    q = csub.add_parser("lift", help="replicate the last coordinate up to size N")
    q.add_argument("--matrix", required=True)
    q.add_argument("--size", type=int, required=True)
    q.set_defaults(builder=lambda a: lift_finite(_matrix_arg(a.matrix), a.size))

    q = csub.add_parser("basis", help="ones vector completed to an orthogonal basis")
    q.add_argument("--size", type=int, required=True)
    q.set_defaults(builder=lambda a: {"rows": ones_orthogonal_basis(a.size).tolist()})

    p = sub.add_parser("verify", help="sample members and check a claim forward")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("falsify", help="search for a witness against a claim")
    _add_run_flags(p)
    p.add_argument("--strategy", choices=["auto", "recipe", "random"], default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("suite", help="run the structural property batches")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("pontryagin", help="Gram factorizations with minus directions")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("factor", help="realize A as a signed Gram matrix")
    q.add_argument("--matrix", required=True)
    q.add_argument("--k", type=int, required=True, help="minus directions to allow")
    q.add_argument("--tolerance", default=None)
    q.set_defaults(func=_cmd_factor)
    q = psub.add_parser("profile", help="negativity of the leading principal blocks")
    q.add_argument("--matrix", required=True)
    q.add_argument("--k", type=int, default=None, help="cap for the stabilization index")
    q.add_argument("--tolerance", default=None)
    q.set_defaults(func=_cmd_profile)

    p = sub.add_parser("absmon", help="forward-difference and series diagnostics")
    asub = p.add_subparsers(dest="action", required=True)
    q = asub.add_parser("check", help="nonnegativity of forward differences on a box")
    q.add_argument("--fn", required=True, help="FunctionSpec JSON or builtin name")
    q.add_argument("--box", required=True, help="comma-separated lo:hi intervals")
    q.add_argument("--order", type=int, default=6)
    q.add_argument("--step", type=float, default=None)
    q.add_argument("--include-zeroth", action="store_true")
    q.set_defaults(func=_cmd_absmon_check)
    q = asub.add_parser("maclaurin", help="estimate series coefficients at 0")
    q.add_argument("--fn", required=True)
    q.add_argument("--arity", type=int, default=None)
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--step", type=float, default=1e-3)
    q.set_defaults(func=_cmd_absmon_maclaurin)
    q = asub.add_parser("limit", help="extrapolate a one-variable function to 0+")
    q.add_argument("--fn", required=True)
    q.add_argument("--step", type=float, default=1e-2)
    q.add_argument("--levels", type=int, default=6)
    q.set_defaults(func=_cmd_absmon_limit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RegimeNotCovered, SamplingError, OSError) as exc:
        _err(exc)
        return EXIT_CONFIG
    except AsymmetryError as exc:
        _err(exc)
        return EXIT_ASYMMETRY
    except DomainViolation as exc:
        _err(exc)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        _err(exc)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    raise SystemExit(main())
