"""Deterministic JSON/CSV writers: key order, floats, numpy inputs, and
the one-pass JSON writer against the standard encoder it replaced."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsig.jsonio import csv_text, dumps


def _plain(obj):
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


def reference_dumps(obj) -> str:
    """The former writer: plain values first, then the standard encoder."""
    return json.dumps(_plain(obj), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf]),
)
_SCALARS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u2028", "é😀"]),
    st.integers(),
    st.booleans(),
    st.none(),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(_FLOATS, max_size=6).map(np.array),
    st.lists(st.integers(-(2**31), 2**31 - 1), min_size=4, max_size=4).map(
        lambda v: np.array(v).reshape(2, 2)),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_one_pass_writer_gives_the_bytes_of_the_standard_encoder(value):
    assert dumps(value).encode("utf-8") == reference_dumps(value).encode("utf-8")


def test_empty_containers_and_an_audit_report_keep_their_bytes():
    from blochsig.dynamics import BlochHamiltonian, linear_law
    from blochsig.nosignal_audit import AuditConfig, audit

    for value in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}]):
        assert dumps(value) == reference_dumps(value)
    report = audit(linear_law(), BlochHamiltonian((2, 3)), AuditConfig(ensemble_size=3, seed=4))
    assert dumps(report.to_dict()) == reference_dumps(report.to_dict())


def test_keys_are_sorted_at_every_depth():
    text = dumps({"b": 1, "a": {"z": [{"y": 0, "x": 1}], "c": 2}})
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"c"') < text.index('"z"')
    assert text.index('"x"') < text.index('"y"')


def test_nonfinite_floats_are_strings():
    values = [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.array([np.inf])]
    assert json.loads(dumps(values)) == ["nan", "inf", "-inf", "nan", ["inf"]]


def test_numpy_inputs_become_plain_values():
    payload = {
        "matrix": np.arange(4.0).reshape(2, 2),
        "count": np.int64(3),
        "value": np.float64(0.25),
        "flag": np.bool_(True),
        "pair": (1, 2.5),
    }
    assert json.loads(dumps(payload)) == {
        "count": 3, "flag": True, "matrix": [[0.0, 1.0], [2.0, 3.0]], "pair": [1, 2.5], "value": 0.25,
    }


def test_ints_and_floats_keep_their_type():
    back = json.loads(dumps({"int": 1, "float": 1.0, "small": 1e-5}))
    assert type(back["int"]) is int and back["int"] == 1
    assert type(back["float"]) is float and back["float"] == 1.0
    assert back["small"] == 1e-5


def test_random_doubles_round_trip_exactly():
    rng = np.random.default_rng(5)
    x = (rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)).tolist()
    assert json.loads(dumps(x)) == x


def test_output_ends_with_newline_and_reruns_are_identical():
    payload = {"r": np.linspace(0.0, 1.0, 7), "name": "ü", "nested": {"k": [1, None, True]}}
    text = dumps(payload)
    assert text.endswith("}\n")
    assert dumps(payload).encode("utf-8") == text.encode("utf-8")


def test_csv_float_cells_read_back_exactly():
    rng = np.random.default_rng(6)
    values = rng.standard_normal(20) * 10.0 ** rng.integers(-20, 20, 20)
    rows = [["i", "value"]] + [[i, v] for i, v in enumerate(values)]
    back = list(csv.reader(io.StringIO(csv_text(rows))))
    assert back[0] == ["i", "value"]
    assert [int(r[0]) for r in back[1:]] == list(range(20))
    assert [float(r[1]) for r in back[1:]] == values.tolist()


def test_an_object_that_is_not_json_is_refused_naming_its_type():
    with pytest.raises(TypeError) as excinfo:
        dumps({"a": [1.0, object()]})
    assert str(excinfo.value) == "Object of type object is not JSON serializable"
