"""Exception types shared across the package.

The CLI maps these onto process exit codes; see ``inertia_lab.cli``.
"""

from __future__ import annotations

import math


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


def positive_int(value, what: str) -> int:
    """``value`` itself; :class:`ConfigError` unless it is an int >= 1 (bools are not)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{what} must be a positive int")
    return value


def positive_float(value, what: str) -> float:
    """``float(value)``; :class:`ConfigError` unless it is positive and finite."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{what} must be a positive finite float")
    return value
