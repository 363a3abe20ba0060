"""Deterministic serialization: canonical JSON and one CSV writer.

Identical inputs must produce byte-identical output, so floats are
formatted at a fixed 15 significant digits, dict keys are emitted sorted,
and nothing time- or path-dependent enters the documents.
"""

from __future__ import annotations

import functools
import re
from json.encoder import encode_basestring  # '"', '\' and U+0000-U+001F escaped, as RFC 8259 asks

import numpy as np

from .errors import UsageError
from .lattice import WaveVector

__all__ = ["to_canonical_json", "to_csv"]

# every other type that has a canonical form, and the builtin value it is written
# as; numpy scalars are converted by type, since np.longdouble's item() is itself
_PLAIN = ((np.ndarray, np.ndarray.tolist), (WaveVector, WaveVector.as_tuple), ((int, np.integer), int),
          ((float, np.floating), float), ((complex, np.complexfloating), complex), (str, str.__str__),
          (dict, dict), ((list, tuple), list))
_CSV_QUOTED = re.compile('[,"\r\n]').search


def format_float(x: float) -> str:
    if x - x == 0.0:  # finite; -0.0 is written as 0
        return f"{x:.15g}" if x else "0"
    raise UsageError("refusing to serialize NaN" if x != x else "refusing to serialize an infinity")


def _emitter():
    """The writer of one document: it tests the exact type of each value,
    the builtin ones first, and escapes each distinct dict key once."""
    key = functools.cache(lambda k: encode_basestring(k) + ":")

    def emit(obj) -> str:
        kind = type(obj)
        if kind is float:
            return format_float(obj)
        if kind is dict:
            return "{" + ",".join([key(str(k)) + emit(obj[k]) for k in sorted(obj)]) + "}"
        if kind is list or kind is tuple:
            return "[" + ",".join([emit(v) for v in obj]) + "]"
        if kind is str:
            return encode_basestring(obj)
        if kind is int:
            return str(obj)
        if kind is bool:
            return "true" if obj else "false"
        if obj is None:
            return "null"
        if kind is complex:
            return '{"im":' + format_float(obj.imag) + ',"re":' + format_float(obj.real) + "}"
        for kinds, plain in _PLAIN:
            if isinstance(obj, kinds):
                return emit(plain(obj))
        raise UsageError(f"no canonical JSON form for {kind!r}")

    return emit


def to_canonical_json(obj) -> str:
    return _emitter()(obj) + "\n"


def to_csv(header, rows) -> str:
    """A header line of column names, then one line per row.  A cell is
    written as in JSON (floats at 15 significant digits, bools as
    true/false, ints as digits), except that None is an empty cell and a
    str goes in as is; a cell that holds ',', '"', CR or LF is quoted with
    its quotes doubled (RFC 4180), and so is a lone empty cell."""
    emit = _emitter()
    texts = ([v if isinstance(v, str) else "" if v is None else emit(v) for v in row] for row in (header, *rows))
    lines = (",".join(['"' + t.replace('"', '""') + '"' if _CSV_QUOTED(t) else t for t in row]) or '""' for row in texts)
    return "\n".join(lines) + "\n"
