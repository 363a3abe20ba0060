"""Deterministic serialization: canonical JSON and one CSV writer.

Identical inputs must produce byte-identical output, so floats are
formatted at a fixed 15 significant digits, dict keys are emitted sorted,
and nothing time- or path-dependent enters the documents.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .lattice import WaveVector

__all__ = ["to_canonical_json", "to_csv"]


def format_float(x: float) -> str:
    if x != x:
        raise UsageError("refusing to serialize NaN")
    if math.isinf(x):
        raise UsageError("refusing to serialize an infinity")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.15g}"


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return _emit({"im": z.imag, "re": z.real})
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, WaveVector):
        return _emit([obj.k1, obj.k2])
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{_emit(str(k))}:{_emit(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    raise UsageError(f"no canonical JSON form for {type(obj)!r}")


def to_canonical_json(obj) -> str:
    return _emit(obj) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else _emit(value)


def to_csv(header, rows) -> str:
    """A header line of column names, then one line per row.  A cell is
    written as in JSON (floats at 15 significant digits, bools as
    true/false, ints as digits), except that None is an empty cell and a
    str goes in as is."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"
