"""Deterministic JSON/CSV writers.

Reports must be byte identical across runs, so object keys are emitted
sorted and floats print as ``repr`` (the shortest string that reads back to
the same double).  JSON has no NaN or infinity, so those are written as
the strings ``"nan"``, ``"inf"`` and ``"-inf"``.
"""

from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring

import numpy as np

__all__ = ["dumps", "csv_text"]


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return '"nan"' if math.isnan(x) else ('"inf"' if x > 0 else '"-inf"')


# The text of each plain scalar type, by exact type: a subclass (an IntEnum,
# numpy's float64) takes the isinstance chain of ``_text``.
_SCALARS = {str: encode_basestring, float: _float, int: int.__repr__,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _text(obj, indent: str) -> str:
    """The text that ``json.dumps(obj, indent=2, sort_keys=True,
    ensure_ascii=False)`` gives once arrays, numpy scalars and tuples are
    lists, ints and floats, non-finite floats are strings and every dict key
    is its ``str``; ``indent`` is the current line's.  A container writes
    its plain scalar values in place."""
    text = _SCALARS.get(type(obj))
    if text is not None:
        return text(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        # Keys are unique once they are strings, so no value is ever compared.
        return "{\n" + inner + (",\n" + inner).join([
            f"{encode_basestring(k)}: {t(v) if (t := _SCALARS.get(type(v))) else _text(v, inner)}"
            for k, v in sorted({str(k): v for k, v in obj.items()}.items())]) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join([
            t(v) if (t := _SCALARS.get(type(v))) else _text(v, inner)
            for v in obj]) + "\n" + indent + "]"
    if isinstance(obj, np.ndarray):
        return _text(obj.tolist(), indent)
    if isinstance(obj, np.generic):
        return _text(obj.item(), indent)
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    return _text(obj, "") + "\n"


def csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # Floats (numpy's float64 too) print as repr; other cells as str().
    writer.writerows([v if isinstance(v, float) else str(v) for v in row] for row in rows)
    return buf.getvalue()
