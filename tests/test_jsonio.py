"""Deterministic JSON/CSV writers: key order, floats, numpy inputs."""

import csv
import io
import json

import numpy as np

from blochsig.jsonio import csv_text, dumps


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
