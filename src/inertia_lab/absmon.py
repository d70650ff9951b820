"""Finite-difference testing of absolute monotonicity, plus Maclaurin recovery.

``forward_difference_test`` is a falsifier/corroborator: it checks that every
mixed forward difference up to a total order is nonnegative on a box lattice.
A pass corroborates absolute monotonicity on the box (it proves nothing); a
failure is a concrete counterexample with its location.

``maclaurin_estimate`` recovers low-order series coefficients from the same
forward-difference data: the difference table at base h*(1,...,1) determines
the Newton interpolation polynomial.  Its monomial coefficients about 0 come
from one (order+1)^2 matrix N applied along each axis in turn: Newton's
formula separates by axis, and column b of N holds the monomial coefficients
of prod_{i<b} (x - h*(1+i)) / (b! h^b).  For polynomials of total degree
<= order the recovery is exact up to rounding; otherwise the h vs h/2
disagreement is reported as a heuristic error bar.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, finite_float, int_in
from .functions import FunctionSpec

_MAX_LATTICE = 200_000

#: the lattice has an axis per variable, and numpy 1.x arrays hold at most 32 axes
_MAX_AXES = 32

#: relative rounding error allowed in each value of f.  The coefficients of an
#: order-k difference have moduli summing to 2^k, so the difference counts as
#: negative only below -2^k * SLACK_REL * max|f| over the lattice; f and c * f
#: get the same verdict for every c > 0
SLACK_REL = 1e-14

_BUILTINS: dict[str, Callable] = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "log1p": np.log1p,
    "sqrt": np.sqrt,
}


def builtin_fn(name: str) -> Callable:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ConfigError(
            f"unknown builtin {name!r}; choose from {sorted(_BUILTINS)}"
        ) from None


def _as_grid_fn(f, arity: int) -> Callable:
    """Turn a FunctionSpec or a scalar/vectorized callable into a grid evaluator
    that raises no overflow warning (every caller checks the values are finite)."""
    if isinstance(f, FunctionSpec):
        if f.arity != arity:
            raise ConfigError(f"function arity {f.arity} does not match box arity {arity}")
    # a ufunc takes arguments past its nin as output arrays: np.exp(x, y) is exp(x)
    elif isinstance(f, np.ufunc) and f.nin != arity:
        raise ConfigError(f"function arity {f.nin} does not match box arity {arity}")
    elif not callable(f):
        raise ConfigError("f must be a function spec or a callable")

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def wrapped(*grids):
        if isinstance(f, FunctionSpec):
            return f(*grids)
        try:
            out = np.asarray(f(*grids), dtype=float)
            if out.shape == grids[0].shape:
                return out
        except (TypeError, ValueError):
            pass
        try:
            return np.vectorize(f, otypes=[float])(*grids)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigError(f"function raised {type(exc).__name__} on the lattice: {exc}") from None

    return wrapped


def _check_box(box) -> list[tuple[float, float]]:
    if not box:
        raise ConfigError("box must have at least one axis")
    out = []
    for lo, hi in box:
        lo, hi = finite_float(lo, "box end"), finite_float(hi, "box end")
        if not lo < hi:
            raise ConfigError(f"bad box axis [{lo}, {hi}]")
        out.append((lo, hi))
    return out


def forward_difference_test(
    f,
    box: Sequence[Sequence[float]],
    order: int = 6,
    step: float | None = None,
    include_zeroth: bool = False,
) -> dict:
    """Check nonnegativity of all forward differences with 1 <= |alpha| <= order.

    Returns a report dict with ``pass``, the lattice parameters, and either
    ``worst_violation`` (value, difference multi-index, base point) or None.
    """
    axes = _check_box(box)
    m = len(axes)
    int_in(order, "order", 1)
    width = min(hi - lo for lo, hi in axes)
    step = finite_float(width / 64.0 if step is None else step, "step", positive=True)

    counts = []
    for lo, hi in axes:
        span = (hi - lo) / step
        # one axis past the cap passes it alone; an infinite span has no int
        if span > _MAX_LATTICE:
            raise ConfigError(
                f"axis [{lo}, {hi}] at step {step:g} holds over {_MAX_LATTICE} lattice points "
                f"(cap {_MAX_LATTICE})"
            )
        total = int(math.floor(span + 1e-12)) + 1
        if total - order < 1:
            raise ConfigError(
                f"axis [{lo}, {hi}] holds {total} lattice points, "
                f"too few for order {order} at step {step:g}"
            )
        counts.append(total)
    n_points = math.prod(counts)
    if n_points > _MAX_LATTICE:
        raise ConfigError(f"lattice would hold {n_points} points (cap {_MAX_LATTICE})")

    axes_pts = [lo + step * np.arange(cnt) for (lo, _), cnt in zip(axes, counts)]
    grids = np.meshgrid(*axes_pts, indexing="ij")
    values = _as_grid_fn(f, m)(*grids)
    if not np.all(np.isfinite(values)):
        raise ConfigError("function returned non-finite values on the lattice")
    fmax = float(np.max(np.abs(values)))

    lowest = 0 if include_zeroth else 1
    worst = None
    checked = 0
    for alpha in itertools.product(range(order + 1), repeat=m):
        total = sum(alpha)
        if total < lowest or total > order:
            continue
        table = values
        for axis, e in enumerate(alpha):
            if e:
                table = np.diff(table, n=e, axis=axis)
        checked += 1
        min_val = float(np.min(table))
        if min_val < -(2.0**total * SLACK_REL * fmax):
            flat = int(np.argmin(table))
            idx = np.unravel_index(flat, table.shape)
            x = [float(axes_pts[p][i]) for p, i in enumerate(idx)]
            if worst is None or min_val < worst["value"]:
                worst = {"value": min_val, "alpha": list(alpha), "x": x}

    report = {
        "pass": worst is None,
        "order": order,
        "step": step,
        "box": [[lo, hi] for lo, hi in axes],
        "lattice_points": n_points,
        "differences_checked": checked,
        "worst_violation": worst,
    }
    report["label"] = (
        f"corroborated ({n_points} lattice points, order {order})"
        if worst is None
        else f"violated at difference {tuple(worst['alpha'])} near {worst['x']}"
    )
    return report


def _newton_matrix(order: int, h: float) -> np.ndarray:
    """Column b: monomial coefficients (ascending) of prod_{i<b} (x - h*(1+i)) / (b! h^b)."""
    newton = np.zeros((order + 1, order + 1))
    poly = np.array([1.0])
    for b in range(order + 1):
        newton[: b + 1, b] = poly / (math.factorial(b) * h**b)
        poly = np.convolve(poly, [-h * (1 + b), 1.0])
    return newton


def _maclaurin_once(fn, arity: int, order: int, h: float) -> np.ndarray:
    pts = h * (1.0 + np.arange(order + 1))
    coeff = fn(*np.meshgrid(*[pts] * arity, indexing="ij"))
    if not np.all(np.isfinite(coeff)):
        raise ConfigError("function returned non-finite values near the base point")
    # the difference table dd[beta] = Delta^beta f at the first point, then N along each axis
    for axis in range(arity):
        rows = np.moveaxis(coeff, axis, 0)
        table = np.empty_like(rows)
        for b in range(order + 1):
            table[b] = rows[0]
            rows = np.diff(rows, axis=0)
        coeff = np.moveaxis(table, 0, axis)
    newton = _newton_matrix(order, h)
    for axis in range(arity):
        moved = np.einsum("jb,b...->j...", newton, np.moveaxis(coeff, axis, 0))
        coeff = np.moveaxis(moved, 0, axis)
    if not np.all(np.isfinite(coeff)):
        raise ConfigError(f"the expansion at order {order} and step {h:g} overflows")
    return coeff


def maclaurin_estimate(
    f,
    arity: int,
    order: int,
    step: float = 1e-3,
) -> dict:
    """Estimate Maclaurin coefficients c_alpha for |alpha| <= order.

    Runs the Newton-expansion recovery at ``step`` and ``step/2``; the value
    reported is the finer one and the spread between the two runs is the
    heuristic error (O(step) for smooth non-polynomial functions, rounding
    level for polynomials of total degree <= order).  An arity above
    ``_MAX_AXES`` is refused, and so is an order whose lattice of
    (order+1)^arity points passes ``_MAX_LATTICE`` or where some divisor
    b! h^b of either run is not a normal float (b <= order, h = step or step/2).
    """
    int_in(arity, "arity", 1, _MAX_AXES)
    int_in(order, "order")
    step = finite_float(step, "step", positive=True)
    # in logs, so that a huge arity builds no huge int
    if arity * math.log(order + 1) > math.log(_MAX_LATTICE):
        raise ConfigError(f"order {order} at arity {arity}: (order+1)^arity passes {_MAX_LATTICE}")
    # every divisor b! h^b of either run must be a normal float
    for h in (step, step / 2.0):
        for b in range(order + 1):
            try:
                divisor = math.factorial(b) * h**b
            except OverflowError:
                divisor = math.inf
            if not sys.float_info.min <= divisor < math.inf:
                raise ConfigError(f"order {order} at step {h:g}: b! h^b is not normal at b = {b}")

    fn = _as_grid_fn(f, arity)
    coarse = _maclaurin_once(fn, arity, order, step)
    fine = _maclaurin_once(fn, arity, order, step / 2.0)

    alphas = [a for a in itertools.product(range(order + 1), repeat=arity) if sum(a) <= order]
    entries = [
        {"alpha": list(a), "value": float(fine[a]), "error": abs(float(fine[a]) - float(coarse[a]))}
        for a in sorted(alphas, key=lambda a: (sum(a), a))
    ]
    return {"order": order, "step": step, "arity": arity, "coefficients": entries}


def boundary_extrapolation(f, step: float = 1e-2, levels: int = 6) -> dict:
    """Estimate the limit of a one-variable function at 0+ by Neville
    extrapolation over the points step * 2^-i."""
    int_in(levels, "levels", 2)
    step = finite_float(step, "step", positive=True)
    # below the normal range step * 2^-i rounds, so two points can coincide
    # (step 1e-2, levels 1069) or vanish, and Neville would divide by zero
    if step * 2.0 ** (1 - levels) < sys.float_info.min:
        raise ConfigError(
            f"levels {levels} at step {step:g} puts step * 2^-{levels - 1} "
            "below the smallest normal float"
        )
    fn = _as_grid_fn(f, 1)
    pts = np.array([step * 2.0**-i for i in range(levels)])
    vals = fn(pts)
    if not np.all(np.isfinite(vals)):
        raise ConfigError("function returned non-finite values near 0+")
    # Neville tableau evaluated at x = 0
    tab = [float(v) for v in vals]
    xs = [float(p) for p in pts]
    for j in range(1, levels):
        for i in range(levels - 1, j - 1, -1):
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) * (0.0 - xs[i]) / (xs[i] - xs[i - j])
    return {
        "limit": tab[-1],
        "points": xs,
        "values": [float(v) for v in vals],
        "levels": levels,
    }
