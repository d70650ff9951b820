"""Exception types shared across the package, and the one number rule.

The CLI maps the exceptions onto process exit codes; see ``inertia_lab.cli``.

Every count and scalar read from JSON or the command line is checked here
and nowhere else: a number is a JSON number.  :func:`int_in` takes a Python
``int`` in a range and :func:`finite_float` an ``int`` or ``float`` that is
finite; a bool (JSON ``true``/``false``) or a numeric string is neither, and
either helper raises :class:`ConfigError` for it.  Both check one value and
run inside the sampler, once per trial; a caller with many entries (the
rows of a JSON matrix) checks them in one pass of its own.  :func:`int_of`
takes a count that a caller may have computed with numpy (a profile
entry): an ``int`` or a numpy integer, never a bool.
"""

from __future__ import annotations

import math

import numpy as np


class InertiaLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(InertiaLabError):
    """Malformed JSON input, unknown keys, or out-of-contract parameters."""


class AsymmetryError(InertiaLabError):
    """A matrix parsed from JSON is too far from symmetric to canonicalize."""


class ConvergenceError(InertiaLabError):
    """One eigenvalue took more than ``linalg.MAX_QL_ITERATIONS`` implicit QL iterations."""


class DomainViolation(InertiaLabError):
    """A matrix entry falls outside the declared entry domain.

    Carries the first offending coordinate in scan order: ``slot`` is the
    1-based position of the matrix within its tuple, ``row``/``col`` are
    0-based entry indices.
    """

    def __init__(self, value: float, row: int, col: int, slot: int = 1, detail: str = ""):
        self.value = value
        self.row = row
        self.col = col
        self.slot = slot
        msg = f"entry {value!r} at ({row}, {col}) in slot {slot} lies outside the domain"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class RegimeNotCovered(InertiaLabError):
    """classify() was asked about a (k, l) combination it does not decide."""


class SamplingError(InertiaLabError):
    """No matrix with the requested inertia/domain could be produced."""


def int_in(value, what: str, lo: int = 0, hi: int | None = None) -> int:
    """``value`` itself; :class:`ConfigError` unless it is an int (a bool is
    not) with ``lo <= value``, and ``value <= hi`` unless ``hi`` is None."""
    if isinstance(value, int) and not isinstance(value, bool):
        if lo <= value and (hi is None or value <= hi):
            return value
    if hi is None:
        raise ConfigError(f"{what} must be an int >= {lo}, got {value!r}")
    raise ConfigError(f"{what} {value!r} out of range {lo}..{hi}")


def int_of(value, what: str) -> int:
    """``int(value)``; :class:`ConfigError` unless it is an int or a numpy
    integer (a bool, Python's or numpy's, is neither)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{what} must be an int, got {value!r}")


def finite_float(value, what: str, positive: bool = False) -> float:
    """``float(value)``; :class:`ConfigError` unless ``value`` is an int or a
    float (a bool or a string is not) that is finite, and > 0 if ``positive``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the double range
            x = math.inf
        if math.isfinite(x) and (x > 0.0 or not positive):
            return x
    sign = "positive " if positive else ""
    raise ConfigError(f"{what} must be a {sign}finite number, got {value!r}")
