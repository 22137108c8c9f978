"""Golden CLI reports: every case in ``tests/golden`` reruns with the same
exit code, stderr lines, keys, strings, verdicts and statuses, and with
numbers within ``1e-10 + 1e-9 |expected|`` (``tests/golden/regen.py``
rewrites the files).  Component, member and time labels are compared
exactly; on linear and xi audits they choose among values at rounding level
(~1e-17), so another BLAS that moves a last bit can change them."""

import json
import math
from pathlib import Path

import pytest

from golden import compare
from golden.compare import numbers, walk
from golden.regen import CASES, run_case

GOLDEN = Path(__file__).resolve().parent / "golden"
FILES = sorted(GOLDEN.glob("*.json"))


def assert_close(actual, expected, where="output"):
    """Numbers (CSV cells that read as numbers too) within the tolerance,
    everything else exactly, by the walk ``tests/golden/compare.py`` makes."""

    def differ(at, a, e):
        pair = numbers(a, e)
        assert pair is not None and abs(pair[0] - pair[1]) <= 1e-10 + 1e-9 * abs(pair[1]), (
            f"{at}: {a!r} != {e!r}")

    walk(actual, expected, differ, where)


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
                             ([1], [True]),
                             (["0.5"], [0.5]),
                             ([math.nan], [0.0])):
        with pytest.raises(AssertionError):
            assert_close(actual, expected)


def test_compare_lists_numbers_labels_and_other_changes(tmp_path, capsys, monkeypatch):
    # a copy of an audit file with a moved number, a moved label and a
    # changed reason string, against the committed file alone
    name = "audit_linear_ci.json"
    record = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    committed, moved = tmp_path / "committed", tmp_path / "moved"
    committed.mkdir()
    moved.mkdir()
    (committed / name).write_bytes((GOLDEN / name).read_bytes())
    assert compare.main([str(committed)]) == 1  # the other committed files are missing
    assert f"{name}: identical bytes" in capsys.readouterr().out
    monkeypatch.setattr(compare, "HERE", committed)
    output = record["output"]
    output["cases"][0]["value"] += 1e-17
    output["per_channel_worst"]["d_remote_state"]["time"] = -1.0
    (moved / name).write_text(json.dumps(record), encoding="utf-8")
    assert compare.main([str(moved)]) == 0
    out = capsys.readouterr().out
    assert "largest numeric change 1e-17 at output.cases[0].value" in out
    assert "label output.per_channel_worst.d_remote_state.time:" in out
    output["verdict"] = "signaling-detected"
    output["cases"].pop()
    (moved / name).write_text(json.dumps(record), encoding="utf-8")
    assert compare.main([str(moved)]) == 1
    out = capsys.readouterr().out
    assert "CHANGED output.verdict: 'pass' -> 'signaling-detected'" in out
    assert "CHANGED output.cases length:" in out
