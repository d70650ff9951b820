"""JSON text for reports and CLI output, with NaN and infinity refused.

Compact text is ``json.dumps``'s; indented text is the package's own writer
(json indents only in pure Python), byte-identical to ``json.dumps(obj,
indent=indent, separators=(",", ": "), allow_nan=False)`` for str keys.
Floats are Python's shortest round-trip ``repr`` and dict keys keep the
order in which the writers build them, so report bytes are deterministic.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _string
from typing import Any


def dumps(obj: Any, indent: int | None = None) -> str:
    """Render ``obj`` as JSON text; non-finite floats raise ``ValueError``."""
    if indent is None:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False)
    out: list[str] = []
    _write(obj, "\n", " " * indent, out)
    return "".join(out)


def _float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _write(obj: Any, nl: str, pad: str, out: list[str]) -> None:
    """Append the text of ``obj``, whose line starts at ``nl``, to ``out``."""
    inner = nl + pad
    if isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for key, value in obj.items():  # _string refuses a key that is no str
            out.append(f"{inner}{_string(key)}: ")
            _write(value, inner, pad, out)
            out.append(",")
        out[-1] = nl + "}" if obj else "{}"  # the last "," or the "{"
    elif not isinstance(obj, (list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    elif obj and all(isinstance(x, float) for x in obj):
        # a row of floats, the bulk of a matrix, is one join
        if not all(map(math.isfinite, obj)):
            _float(next(x for x in obj if not math.isfinite(x)))
        out.append(f"[{inner}{(',' + inner).join(map(float.__repr__, obj))}{nl}]")
    else:
        out.append("[")
        for value in obj:
            out.append(inner)
            _write(value, inner, pad, out)
            out.append(",")
        out[-1] = nl + "]" if obj else "[]"  # the last "," or the "["


def dump_path(obj: Any, path, indent: int | None = 2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj, indent=indent) + "\n")
