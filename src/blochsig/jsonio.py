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


def _write(obj, out: list, indent: str) -> None:
    """Append to ``out`` the text that ``json.dumps(obj, indent=2,
    sort_keys=True, ensure_ascii=False)`` gives once arrays, numpy scalars
    and tuples are lists, ints and floats, non-finite floats are strings and
    every dict key is its ``str``; ``indent`` is the current line's."""
    if isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out, indent)
    elif isinstance(obj, np.generic):
        _write(obj.item(), out, indent)
    elif isinstance(obj, float):
        if math.isfinite(obj):
            out.append(float.__repr__(obj))
        else:
            out.append('"nan"' if math.isnan(obj) else ('"inf"' if obj > 0 else '"-inf"'))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        out.append("[\n" + inner)
        for i, value in enumerate(obj):
            if i:
                out.append(",\n" + inner)
            _write(value, out, inner)
        out.append("\n" + indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        out.append("{\n" + inner)
        # Keys are unique once they are strings, so no value is ever compared.
        for i, (key, value) in enumerate(sorted({str(k): v for k, v in obj.items()}.items())):
            if i:
                out.append(",\n" + inner)
            out.append(encode_basestring(key) + ": ")
            _write(value, out, inner)
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    out = []
    _write(obj, out, "")
    out.append("\n")
    return "".join(out)


def csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # Floats (numpy's float64 too) print as repr; other cells as str().
    writer.writerows([v if isinstance(v, float) else str(v) for v in row] for row in rows)
    return buf.getvalue()
