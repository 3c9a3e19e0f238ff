"""Deterministic JSON serialization for reports.

Keys are emitted sorted, floats with 17 significant decimal digits (exact
round-trip for doubles), matrices as nested row-major lists.  Identical data
always serializes to identical bytes, which the report formats rely on.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _convert(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _scalar(x) -> str:
    """JSON text of a converted scalar: a float, bool, int or None."""
    if type(x) is float:
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        return format(x, ".17g")
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return _scalar(float(x))


def _write(obj, indent: int, out: list[str]) -> None:
    obj = _convert(obj)
    pad = "  " * indent
    if obj is None or isinstance(obj, (int, float)):
        out.append(_scalar(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            out.append(f'{pad}  {json.dumps(key)}: ')
            _write(obj[key], indent + 1, out)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = [_convert(x) for x in obj]
        if not items:
            out.append("[]")
            return
        if all(x is None or isinstance(x, (int, float)) for x in items):
            out.append("[" + ", ".join(map(_scalar, items)) + "]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad + "  ")
            _write(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to deterministic, human-readable JSON (trailing newline)."""
    out: list[str] = []
    _write(obj, 0, out)
    return "".join(out) + "\n"
