"""Property test of the command line's exit contract: a tiny ``evolve``,
``audit`` or ``convert`` input with one field replaced or removed exits with
0, 1, 2 or 3, prints exactly one ``error:`` line on failure, and never a
traceback.  Dims stay [2, 2], numbers stay bounded and every integrator has
a small ``max_steps``, so no example integrates for long."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from blochsig.cli import main

_RK4 = {"method": "rk4", "step": 0.1, "max_steps": 50}
_H = {"H1": [0.1, 0.0, 0.5], "H12": [[0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.3]]}
BASES = {
    "evolve": {"dims": [2, 2], "law": "linear", "hamiltonian": _H, "initial_state": "product",
               "times": [0.5], "integrator": _RK4},
    "audit": {"dims": [2, 2], "law": {"name": "polesink", "epsilon": 0.1},
              "audit": {"ensemble_size": 1, "seed": 1, "times": [0.5], "fit_probes": 2,
                        "integrator": _RK4},
              "channel_demo": {"initial_state": "singlet", "remote_a": "computational",
                               "remote_b": "hadamard-like", "local": "computational",
                               "time": 0.5}},
    "convert": {"dim": 2, "r": [0.1, 0.0, 0.2]},
    "convert-joint": {"dims": [2, 2], "r1": [0.1, 0.0, 0.0], "r2": [0.0, 0.2, 0.0],
                      "r12": [[-0.3, 0.0, 0.0], [0.0, -0.3, 0.0], [0.0, 0.0, -0.3]]},
}


def _paths(node, prefix=()):
    """Every field path below ``node``, except the fixed dims."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if key in ("dim", "dims"):
            continue
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


MUTABLE = [(name, path) for name, base in BASES.items() for path in _paths(base)]
DELETE = object()
values = st.one_of(
    st.just(DELETE),
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["linear", "xi", "polesink", "rkf45", "singlet", "random:3", "computational"]),
    st.text(max_size=4),
    st.lists(st.floats(-1.0, 1.0), max_size=3),
    st.dictionaries(st.sampled_from(["name", "step", "re", "r1"]), st.integers(0, 2), max_size=2),
)


def _mutated(name, path, value):
    payload = json.loads(json.dumps(BASES[name]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return payload


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(target=st.sampled_from(MUTABLE), value=values)
def test_one_mutated_field_exits_with_a_code_and_one_error_line(target, value):
    name, path = target
    command = name.split("-")[0]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "input.json"
        config.write_text(json.dumps(_mutated(name, path, value)), encoding="utf-8")
        flag = "--in" if command == "convert" else "--config"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, flag, str(config), "--out", str(Path(tmp) / "out")]
                         + (["--no-timestamp"] if command != "convert" else []))
    lines = err.getvalue().splitlines()
    assert code in ((0, 1, 2, 3) if command == "audit" else (0, 2, 3))
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines == []
