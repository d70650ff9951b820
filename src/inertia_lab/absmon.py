"""Finite-difference testing of absolute monotonicity, plus Maclaurin recovery.

``forward_difference_test`` is a falsifier/corroborator: it checks that every
mixed forward difference up to a total order is nonnegative on a box lattice.
A pass corroborates absolute monotonicity on the box (it proves nothing); a
failure is a concrete counterexample with its location.

``maclaurin_estimate`` recovers low-order series coefficients from the same
forward-difference data: the difference table at base h*(1,...,1) determines
the Newton interpolation polynomial, which is expanded into the monomial
basis about 0.  For polynomials of total degree <= order the recovery is
exact up to rounding; otherwise the h vs h/2 disagreement is reported as a
heuristic error bar.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, positive_float, positive_int
from .functions import FunctionSpec

_MAX_LATTICE = 200_000

#: a difference counts as negative below -SLACK_REL * max|f| over the lattice,
#: so f and c * f get the same verdict for every c > 0
SLACK_REL = 1e-10

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
    """Turn a FunctionSpec or a scalar/vectorized callable into a grid evaluator."""
    if isinstance(f, FunctionSpec):
        if f.arity != arity:
            raise ConfigError(f"function arity {f.arity} does not match box arity {arity}")
        return f
    if not callable(f):
        raise ConfigError("f must be a function spec or a callable")

    def wrapped(*grids):
        try:
            out = np.asarray(f(*grids), dtype=float)
            if out.shape == grids[0].shape:
                return out
        except (TypeError, ValueError):
            pass
        return np.vectorize(f, otypes=[float])(*grids)

    return wrapped


def _check_box(box) -> list[tuple[float, float]]:
    if not box:
        raise ConfigError("box must have at least one axis")
    out = []
    for pair in box:
        lo, hi = (float(v) for v in pair)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
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
    positive_int(order, "order")
    width = min(hi - lo for lo, hi in axes)
    step = positive_float(width / 64.0 if step is None else step, "step")

    counts = []
    for lo, hi in axes:
        total = int(math.floor((hi - lo) / step + 1e-12)) + 1
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
    slack = SLACK_REL * float(np.max(np.abs(values)))

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
        if min_val < -slack:
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


def _difference_table(values: np.ndarray, order: int) -> np.ndarray:
    """dd[beta] = forward difference Delta^beta at the first lattice point."""
    out = values
    m = values.ndim
    for axis in range(m):
        moved = np.moveaxis(out, axis, 0)
        stacked = np.empty_like(moved)
        current = moved
        stacked[0] = current[0]
        for j in range(1, order + 1):
            current = np.diff(current, axis=0)
            stacked[j] = current[0]
        out = np.moveaxis(stacked, 0, axis)
    return out


def _newton_axis_poly(degree: int, h: float) -> np.ndarray:
    """Monomial coefficients (ascending) of prod_{i<degree} (x - h*(1+i))."""
    coeffs = np.array([1.0])
    for i in range(degree):
        node = h * (1 + i)
        coeffs = np.convolve(coeffs, np.array([-node, 1.0]))
    return coeffs


def _maclaurin_once(fn, arity: int, order: int, h: float) -> np.ndarray:
    axes_pts = [h * (1.0 + np.arange(order + 1)) for _ in range(arity)]
    grids = np.meshgrid(*axes_pts, indexing="ij")
    values = fn(*grids)
    if not np.all(np.isfinite(values)):
        raise ConfigError("function returned non-finite values near the base point")
    dd = _difference_table(values, order)

    shape = (order + 1,) * arity
    coeff = np.zeros(shape)
    polys = [_newton_axis_poly(d, h) for d in range(order + 1)]
    for beta in itertools.product(range(order + 1), repeat=arity):
        weight = float(dd[beta])
        for b in beta:
            weight /= math.factorial(b) * h**b
        if weight == 0.0:
            continue
        block = polys[beta[0]]
        for b in beta[1:]:
            block = np.multiply.outer(block, polys[b])
        pad = [(0, order + 1 - s) for s in block.shape]
        coeff += weight * np.pad(block, pad)
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
    level for polynomials of total degree <= order).
    """
    positive_int(arity, "arity")
    if not isinstance(order, int) or order < 0:
        raise ConfigError("order must be a nonnegative int")
    step = positive_float(step, "step")
    if (order + 1) ** arity > _MAX_LATTICE:
        raise ConfigError("order/arity combination needs too many lattice points")

    fn = _as_grid_fn(f, arity)
    coarse = _maclaurin_once(fn, arity, order, step)
    fine = _maclaurin_once(fn, arity, order, step / 2.0)

    entries = []
    for alpha in sorted(
        itertools.product(range(order + 1), repeat=arity), key=lambda a: (sum(a), a)
    ):
        if sum(alpha) > order:
            continue
        value = float(fine[alpha])
        spread = abs(value - float(coarse[alpha]))
        entries.append({"alpha": list(alpha), "value": value, "error": spread})
    return {"order": order, "step": step, "arity": arity, "coefficients": entries}


def boundary_extrapolation(f, step: float = 1e-2, levels: int = 6) -> dict:
    """Estimate the limit of a one-variable function at 0+ by Neville
    extrapolation over the points step * 2^-i."""
    if not isinstance(levels, int) or levels < 2:
        raise ConfigError("levels must be an int >= 2")
    step = positive_float(step, "step")
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
