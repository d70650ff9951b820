"""JSON text for reports and CLI output.

A thin layer over ``json.dumps`` that refuses NaN and infinity.  Floats are
written as Python's shortest round-trip ``repr`` and dict keys keep the order
in which the writers build them, so report bytes are deterministic.
"""

from __future__ import annotations

import json
from typing import Any


def dumps(obj: Any, indent: int | None = None) -> str:
    """Render ``obj`` as JSON text; non-finite floats raise ``ValueError``."""
    separators = (",", ":") if indent is None else (",", ": ")
    return json.dumps(obj, indent=indent, separators=separators, allow_nan=False)


def dump_path(obj: Any, path, indent: int | None = 2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj, indent=indent) + "\n")
