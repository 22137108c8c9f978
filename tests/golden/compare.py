"""Compare a regenerated golden set with the committed files.

For each file this prints whether its bytes match, the largest change of a
number (and where), and each moved label: the member, time and component
of a case row, of ``worst_case`` and of ``per_channel_worst``.  On linear
and xi audits the labels choose among values at rounding level (~1e-17),
so they may move when a last bit does.  Any other change (an exit code,
stderr line, verdict, status, reason or other string, a key or a length)
is listed too, and makes the exit status 1.

    PYTHONPATH=src python tests/golden/regen.py --out OTHER_DIR
    python tests/golden/compare.py OTHER_DIR
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LABELS = ("member", "time", "component")


def _records(value):
    """CSV output (a header row, then rows of cells) as one dict per row;
    anything else as it is."""
    if (isinstance(value, list) and value and isinstance(value[0], list)
            and all(isinstance(cell, str) for cell in value[0])):
        return [dict(zip(value[0], row)) for row in value[1:]]
    return value


def numbers(new, old):
    """Two leaves as floats when both are JSON numbers, or both CSV cells
    that read as numbers; else ``None``."""
    if isinstance(new, str) != isinstance(old, str) or bool in (type(new), type(old)):
        return None
    try:
        return float(new), float(old)
    except (TypeError, ValueError):
        return None


def walk(new, old, differ, where=""):
    """Call ``differ(where, new, old)`` for each difference of ``new`` from
    ``old``: a leaf whose value or type differs, or (at ``"<where> keys"``
    and ``"<where> length"``) a dict's keys or a list's length.  The one
    walk of the golden format, which ``tests/test_golden.py`` shares."""
    if isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            differ(f"{where} keys", sorted(new), sorted(old))
            return
        for key in old:
            walk(new[key], old[key], differ, f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            differ(f"{where} length", f"{len(new)} items", f"{len(old)} items")
            return
        for i, (a, b) in enumerate(zip(new, old)):
            walk(a, b, differ, f"{where}[{i}]")
    elif type(new) is not type(old) or new != old:
        differ(where, new, old)


def compare(new: Path, old: Path) -> dict:
    """The differences of the golden file ``new`` from ``old``."""
    a, b = (json.loads(path.read_text(encoding="utf-8")) for path in (new, old))
    found = {"numeric": (0.0, None), "labels": [], "other": [],
             "same_bytes": new.read_bytes() == old.read_bytes()}

    def differ(where, after, before):
        key, pair = where.rsplit(".", 1)[-1], numbers(after, before)
        if key in LABELS:
            found["labels"].append((where, before, after))
        elif key != "exit_code" and pair is not None:
            x, y = pair
            change = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
            if change > found["numeric"][0]:
                found["numeric"] = (change, where)
        else:
            found["other"].append((where, before, after))

    for part in (a, b):
        part.pop("output_sha256", None)
        part["output"] = _records(part.get("output"))
    walk(a, b, differ)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="a directory written by regen.py --out")
    args = parser.parse_args(argv)
    names = sorted({p.name for d in (args.dir, HERE) for p in d.glob("*.json")})
    bad = False
    for name in names:
        new, old = args.dir / name, HERE / name
        if not (new.exists() and old.exists()):
            print(f"{name}: only in {args.dir if new.exists() else HERE}")
            bad = True
            continue
        found = compare(new, old)
        if found["same_bytes"]:
            print(f"{name}: identical bytes")
            continue
        change, where = found["numeric"]
        at = f" at {where[1:]}" if where else ""
        print(f"{name}: largest numeric change {change:.3g}{at}")
        for kind in ("labels", "other"):
            for where, before, after in found[kind]:
                print(f"  {'label' if kind == 'labels' else 'CHANGED'} {where[1:]}: "
                      f"{before!r} -> {after!r}")
        bad = bad or bool(found["other"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
