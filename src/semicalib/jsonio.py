"""Deterministic JSON serialization for reports.

Keys are emitted sorted, floats with 17 significant decimal digits (exact
round-trip for doubles), matrices as nested row-major lists.  Identical data
always serializes to identical bytes, which the report formats rely on.

A record, a dict whose leaves are floats, ints, bools, ``None``, float64
ndarrays or dicts of these (a report's point entries with their residuals
and checks, its summary, a ``comass`` row), is written in one step: one walk
collects its layout (the sorted keys and each leaf's kind or array shape) and
its leaf values, and one ``%`` formats the values against a template of that
layout, cached per (layout, indent); an array's part of it is the template of
its shape, cached per (shape, indent).  The templates follow the general
writer's layout rules, and ``'%.17g' % x`` and ``'%d' % i`` are the
conversions ``format(x, '.17g')`` and ``str(i)``, so the bytes are the
general writer's.  A record is checked for finiteness once, by the sum of its
floats, which is finite only if every term is (a sum that overflows only
sends the record the slow way).  Anything else (a non-finite value, a numpy
scalar, a string, a list, a non-str key, another array, an array outside a
record) goes through the general writer, the one path that raises: for the
first non-finite entry and for a non-str key.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=256)
def _template(shape: tuple[int, ...], indent: int) -> str:
    """The JSON layout of a float array of this shape, one ``%.17g`` per entry."""
    if not shape:
        return "%.17g"
    if shape[0] == 0:
        return "[]"
    if len(shape) == 1:
        return "[" + ", ".join(["%.17g"] * shape[0]) + "]"
    pad = "  " * indent
    row = pad + "  " + _template(shape[1:], indent + 1)
    return "[\n" + ",\n".join([row] * shape[0]) + "\n" + pad + "]"


def _walk(obj: dict, layout: list, values: list):
    """Append a dict's layout and leaf values in writing order; the sum of its floats, or None if not a record.

    The layout is flat: the dict's key count, then per sorted key the key and
    its leaf's kind: the leaf's template (``%.17g``, ``%d``, ``%s`` for a
    bool, whose value is ``true`` or ``false``, ``null``), an array's shape,
    or a nested dict's key count followed by its own layout.
    """
    try:
        keys = sorted(obj)
    except TypeError:  # mixed key types: the general writer raises
        return None
    layout.append(len(keys))
    total = 0.0
    for key in keys:
        if type(key) is not str:
            return None
        value = obj[key]
        kind = type(value)
        if kind is float:
            layout += (key, "%.17g")
            values.append(value)
            total += value
        elif kind is np.ndarray and value.dtype == np.float64:
            items = value.ravel().tolist()
            layout += (key, value.shape)
            values += items
            total += sum(items)
        elif kind is dict:
            layout.append(key)
            part = _walk(value, layout, values)
            if part is None:
                return None
            total += part
        elif kind is bool:
            layout += (key, "%s")
            values.append("true" if value else "false")
        elif kind is int:
            layout += (key, "%d")
            values.append(value)
        elif value is None:
            layout += (key, "null")
        else:
            return None
    return total


def _dict_template(layout: tuple, at: int, indent: int):
    """(template of the dict whose layout starts at ``layout[at]``, the index after it)."""
    count, at = layout[at], at + 1
    if not count:
        return "{}", at
    pad = "  " * indent
    lines = []
    for _ in range(count):
        key, kind = layout[at], layout[at + 1]
        if type(kind) is int:
            piece, at = _dict_template(layout, at + 1, indent + 1)
        else:
            piece = _template(kind, indent + 1) if type(kind) is tuple else kind
            at += 2
        lines.append(f"{pad}  {json.dumps(key).replace('%', '%%')}: {piece}")
    return "{\n" + ",\n".join(lines) + "\n" + pad + "}", at


@functools.lru_cache(maxsize=256)
def _record_template(layout: tuple, indent: int) -> str:
    """The JSON layout of a record, one ``%`` conversion per leaf value."""
    return _dict_template(layout, 0, indent)[0]


def _record(obj: dict, indent: int):
    """The JSON text of ``obj`` if it is a record whose floats are all finite, else None."""
    layout, values = [], []
    total = _walk(obj, layout, values)
    if total is None or not math.isfinite(total):
        return None
    return _record_template(tuple(layout), indent) % tuple(values)


def _emit(obj, indent: int, out: list[str]) -> None:
    """Write ``obj``: in one step if it is a record, else by the general writer."""
    if type(obj) is dict:
        text = _record(obj, indent)
        if text is not None:
            out.append(text)
            return
    _write(obj, indent, out)


def _write(obj, indent: int, out: list[str]) -> None:
    """The general writer: any JSON-able value, its containers' items through :func:`_emit`."""
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
            _emit(obj[key], indent + 1, out)
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
            _emit(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to deterministic, human-readable JSON (trailing newline)."""
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)
