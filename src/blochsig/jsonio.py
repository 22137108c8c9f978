"""Deterministic JSON/CSV writers.

Reports must be byte identical across runs, so object keys are emitted
sorted and floats print as ``repr`` (the shortest string that reads back to
the same double).  JSON has no NaN or infinity, so those are written as
the strings ``"nan"``, ``"inf"`` and ``"-inf"``.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

__all__ = ["dumps", "csv_text"]


def _plain(obj):
    """``obj`` with arrays, numpy scalars and tuples turned into plain
    lists, ints and floats, and non-finite floats into strings."""
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.generic):
        return _plain(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def dumps(obj) -> str:
    return json.dumps(_plain(obj), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # Floats (numpy's float64 too) print as repr; other cells as str().
    writer.writerows([v if isinstance(v, float) else str(v) for v in row] for row in rows)
    return buf.getvalue()
