"""Golden CLI reports: every case in ``tests/golden`` reruns with the same
exit code, stderr lines, keys, strings, verdicts and statuses, and with
numbers within ``1e-10 + 1e-9 |expected|`` (``tests/golden/regen.py``
rewrites the files)."""

import json
import math
from pathlib import Path

import pytest

from golden.regen import CASES, run_case

GOLDEN = Path(__file__).resolve().parent / "golden"
FILES = sorted(GOLDEN.glob("*.json"))


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _cell(value):
    """A CSV cell as a float when it reads as one, else as the string."""
    try:
        return float(value)
    except ValueError:
        return value


def assert_close(actual, expected, where="output"):
    if _number(expected):
        assert _number(actual), f"{where}: {actual!r} is not a number"
        assert actual == expected or abs(actual - expected) <= 1e-10 + 1e-9 * abs(expected), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), (
            f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
        )
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), f"{where}: length"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, str) and isinstance(actual, str) and actual != expected:
        # CSV cells hold numbers as text: compare those as numbers.
        assert _number(_cell(expected)), f"{where}: {actual!r} != {expected!r}"
        assert_close(_cell(actual), _cell(expected), where)
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


def test_corpus_matches_the_case_list():
    assert [f.stem for f in FILES] == sorted(CASES)


@pytest.mark.parametrize("path", FILES, ids=[f.stem for f in FILES])
def test_golden_case(tmp_path, path):
    golden = json.loads(path.read_text(encoding="utf-8"))
    got = run_case(golden["argv"], golden["config"], tmp_path)
    assert got["exit_code"] == golden["exit_code"]
    assert got["stderr"] == golden["stderr"]
    assert_close(got["output"], golden["output"])


def test_assert_close_tolerance_and_exact_fields():
    assert_close({"a": [1.0, "x"], "v": "pass"}, {"a": [1.0 + 1e-11, "x"], "v": "pass"})
    assert_close(["0.5"], ["0.50000000001"])
    for actual, expected in (({"v": "pass"}, {"v": "signaling-detected"}),
                             ({"a": 1.0}, {"b": 1.0}),
                             ([1.0], [1.0 + 1e-6]),
                             ([True], [1]),
                             ([math.nan], [0.0])):
        with pytest.raises(AssertionError):
            assert_close(actual, expected)
