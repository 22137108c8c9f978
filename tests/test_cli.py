"""End-to-end command-line behaviour: outputs, exit codes, error contract."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blochsig
from blochsig import cli
from blochsig.cli import main
from blochsig.errors import (
    ConfigError,
    DimensionMismatchError,
    IntegrationFailureError,
    InvalidDimensionError,
    UnphysicalStateError,
)
from blochsig.jsonio import dumps


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps(payload), encoding="utf-8")
    return str(path)


LINEAR_AUDIT_CONFIG = {
    "dims": [2, 2],
    "law": {"name": "linear"},
    "hamiltonian": {
        "H1": [0.1, 0.0, 0.5],
        "H2": [0.0, 0.2, 0.3],
        "H12": [[0.4, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.3]],
    },
    "audit": {"ensemble_size": 6, "seed": 1},
}

POLESINK_AUDIT_CONFIG = {
    "dims": [2, 2],
    "law": {"name": "polesink", "epsilon": 0.1},
    "audit": {"ensemble_size": 6, "seed": 0},
    "channel_demo": {
        "initial_state": "singlet",
        "remote_a": "computational",
        "remote_b": "hadamard-like",
        "local": "computational",
        "time": 1.0,
    },
}


def test_basis_qubit_output(tmp_path, capsys):
    out = tmp_path / "basis.json"
    assert main(["basis", "--dim", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["dim"] == 2
    assert len(payload["generators"]) == 3
    f = np.array(payload["f"])
    assert f[0, 1, 2] == pytest.approx(1.0)
    assert f[1, 0, 2] == pytest.approx(-1.0)
    assert np.max(np.abs(np.array(payload["g"]))) <= 1e-14


def test_basis_qutrit_structure_constants(tmp_path):
    out = tmp_path / "basis3.json"
    assert main(["basis", "--dim", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["generators"]) == 8
    g = np.array(payload["g"])
    assert g[0, 0, 7] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


def test_basis_invalid_dimension_exit_code(capsys):
    assert main(["basis", "--dim", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dimension:")
    assert "dimension must be >= 2" in err


def test_convert_roundtrip(tmp_path):
    state = {"dim": 2, "r": [0.3, -0.2, 0.5]}
    src = write_config(tmp_path, "state.json", state)
    mid = tmp_path / "matrix.json"
    assert main(["convert", "--in", src, "--out", str(mid)]) == 0
    back = tmp_path / "state2.json"
    assert main(["convert", "--in", str(mid), "--out", str(back)]) == 0
    r = json.loads(back.read_text())["r"]
    np.testing.assert_allclose(r, state["r"], atol=1e-12)


def test_convert_joint_roundtrip(tmp_path):
    payload = {
        "dims": [2, 2],
        "r1": [0.0, 0.0, 0.0],
        "r2": [0.0, 0.0, 0.0],
        "r12": (-np.eye(3)).tolist(),
    }
    src = write_config(tmp_path, "joint.json", payload)
    mid = tmp_path / "joint_matrix.json"
    assert main(["convert", "--in", src, "--out", str(mid)]) == 0
    back = tmp_path / "joint2.json"
    assert main(["convert", "--in", str(mid), "--out", str(back)]) == 0
    out = json.loads(back.read_text())
    np.testing.assert_allclose(out["r12"], -np.eye(3), atol=1e-12)


_RHO1 = [[0.6, 0.1], [0.1, 0.4]]
_JOINT = {"r1": [0.1, 0.0, 0.0], "r2": [0.0, 0.2, 0.0], "r12": (-0.3 * np.eye(3)).tolist()}


_ROUTE_KEYS = {
    "matrix-dim": "dim, matrix_im, matrix_re",
    "matrix-dims": "dims, matrix_im, matrix_re",
    "r-dim": "dim, r",
    "state": "dims, r1, r12, r2",
}


@pytest.mark.parametrize(
    "payload, error",
    [
        ({"dim": 2, "dims": [2, 2], **_JOINT}, ("dim", "state")),
        ({"dim": 2, "dims": [2, 2], "r": [0.0, 0.0, 0.1], **_JOINT}, ("dims", "r-dim")),
        ({"dims": [2, 2], "r": [0.0, 0.0, 0.1], **_JOINT}, ("r", "state")),
        ({"dim": 2, "dims": [2, 2], "matrix_re": _RHO1, **_JOINT}, ("dims", "matrix-dim")),
        ({"dims": [2, 2], "matrix_re": (np.eye(4) / 4).tolist(), "r": [0.0, 0.0, 0.1], **_JOINT},
         ("r", "matrix-dims")),
        ({"dim": 2, "r": [0.0, 0.0, 0.9], "matrix_re": _RHO1}, ("r", "matrix-dim")),
        ({"dim": "x", "dims": [2, 2], **_JOINT}, ("dim", "state")),
        ({"dim": 2, "dims": [2, 2], "matrix_re": (np.eye(4) / 4).tolist()},
         ("dims", "matrix-dim")),
        ({"dim": 2, **_JOINT}, "error: config: input: expected"),
        ({"dims": [2, 2], "r": [0.0, 0.0, 0.1]}, "error: config: input: expected"),
    ],
    ids=["dim-dims-joint", "dim-dims-r-joint", "dims-r-joint", "dim-dims-matrix",
         "dims-matrix-coords", "dim-r-matrix", "bad-dim-joint", "dim-before-dims",
         "dim-joint", "dims-r"],
)
def test_convert_route_precedence_on_mixed_keys(tmp_path, capsys, payload, error):
    """matrix_re with dim, then with dims; r with dim, then r1 with dims.
    The route chosen names the keys it takes; a key of another route is
    unknown."""
    code = main(["convert", "--in", write_config(tmp_path, "mixed.json", payload)])
    out, err = capsys.readouterr()
    if isinstance(error, tuple):
        key, route = error
        error = f"error: config: input.{key}: unknown key (expected {_ROUTE_KEYS[route]})\n"
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and err.startswith(error)


def test_convert_unphysical_state_rejected(tmp_path, capsys):
    src = write_config(tmp_path, "bad.json", {"dim": 2, "r": [0.0, 0.0, 2.0]})
    assert main(["convert", "--in", src]) == 2
    assert "error: state:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, reason",
    [
        ({"dim": 2, "matrix_re": [[0.5, 0.0], [0.0, 0.5]], "matrix_im": [[0.0, 0.1], [0.1, 0.0]]},
         "matrix is not Hermitian"),
        ({"dims": [2, 2], "matrix_re": [[0.5, 0.2, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0],
                                        [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]},
         "matrix is not Hermitian"),
        ({"dim": 2, "matrix_re": [[0.6, 0.0], [0.0, 0.6]]}, "trace deviates from 1"),
        ({"dims": [2, 2], "matrix_re": np.diag([0.25, 0.25, 0.25, 0.0]).tolist()},
         "trace deviates from 1"),
    ],
    ids=["non-hermitian", "non-hermitian-joint", "trace-not-one", "trace-not-one-joint"],
)
def test_convert_of_a_matrix_that_is_not_a_density_exits_two(tmp_path, capsys, payload, reason):
    assert main(["convert", "--in", write_config(tmp_path, "matrix.json", payload)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith(f"error: state: {reason}")


@pytest.mark.parametrize("command", ["evolve", "audit"])
def test_the_timestamp_is_utc_and_all_that_differs_from_a_run_without_it(
    tmp_path, capsys, command
):
    cfg = write_config(tmp_path, "config.json",
                       _EVOLVE if command == "evolve" else LINEAR_AUDIT_CONFIG)
    stamped, plain = tmp_path / "stamped.json", tmp_path / "plain.json"
    assert main([command, "--config", cfg, "--out", str(stamped)]) == 0
    assert main([command, "--config", cfg, "--no-timestamp", "--out", str(plain)]) == 0
    payload = json.loads(stamped.read_text(encoding="utf-8"))
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", payload.pop("timestamp"))
    assert dumps(payload).encode("utf-8") == plain.read_bytes()


def test_evolve_interaction_free_singlet_reduced_parts_stay_zero(tmp_path):
    cfg = write_config(
        tmp_path,
        "evolve.json",
        {
            "dims": [2, 2],
            "law": "linear",
            "hamiltonian": {"H1": [0.0, 0.0, 0.5], "H2": [0.3, 0.0, 0.1]},
            "initial_state": "singlet",
            "times": [0.0, 0.5, 1.0],
        },
    )
    out = tmp_path / "traj.json"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
    payload = json.loads(out.read_text())
    for sample in payload["samples"]:
        assert np.max(np.abs(sample["r1"])) <= 1e-9
        assert np.max(np.abs(sample["r2"])) <= 1e-9


def test_evolve_oracle_check(tmp_path):
    cfg = write_config(
        tmp_path,
        "evolve.json",
        {
            "dims": [2, 2],
            "law": "linear",
            "hamiltonian": LINEAR_AUDIT_CONFIG["hamiltonian"],
            "initial_state": "random:7",
            "times": [0.25, 1.0],
        },
    )
    out = tmp_path / "traj.json"
    assert (
        main(["evolve", "--config", cfg, "--out", str(out), "--check-oracle", "--no-timestamp"])
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["oracle_max_deviation"] <= 1e-6


def test_evolve_oracle_check_rejects_a_nonlinear_law_before_evolving(tmp_path, capsys, monkeypatch):
    import blochsig.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("evolve_path ran")

    monkeypatch.setattr(cli, "evolve_path", never)
    cfg = write_config(
        tmp_path,
        "evolve.json",
        {"dims": [2, 2], "law": {"name": "xi", "preset": "corrnorm"},
         "initial_state": "random:7", "times": [0.25, 1.0]},
    )
    assert main(["evolve", "--config", cfg, "--check-oracle", "--no-timestamp"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: config: law: --check-oracle requires the linear law"]


def test_evolve_csv_output(tmp_path):
    cfg = write_config(
        tmp_path,
        "evolve.json",
        {
            "dims": [2, 2],
            "law": "linear",
            "initial_state": "product",
            "times": [0.0, 1.0],
        },
    )
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,physical,min_eigenvalue,r1_0")
    assert len(lines) == 3


def test_evolve_csv_carries_the_oracle_deviation(tmp_path):
    cfg = write_config(tmp_path, "evolve.json", {
        "dims": [2, 3], "law": "linear", "initial_state": "random:7", "times": [0.5, 1.0],
        "hamiltonian": {"H1": [0.1, 0.0, 0.5], "H12": np.full((3, 8), 0.1).tolist()},
    })
    runs = {}
    for fmt, flags in (("json", ["--check-oracle"]), ("csv", ["--check-oracle"]), ("plain", [])):
        out = tmp_path / f"traj.{fmt}"
        argv = ["evolve", "--config", cfg, "--out", str(out), "--no-timestamp", *flags]
        assert main(argv + ([] if fmt == "json" else ["--format", "csv"])) == 0
        runs[fmt] = out.read_text()
    samples = json.loads(runs["json"])["samples"]
    rows = [line.split(",") for line in runs["csv"].splitlines()]
    assert rows[0][-1] == "oracle_deviation"
    assert [float(row[-1]) for row in rows[1:]] == [s["oracle_deviation"] for s in samples]
    assert max(float(row[-1]) for row in rows[1:]) <= 1e-6
    # without the flag, the same table less the oracle column
    assert runs["plain"].splitlines() == [",".join(row[:-1]) for row in rows]


def test_audit_linear_exit_zero(tmp_path):
    cfg = write_config(tmp_path, "audit.json", LINEAR_AUDIT_CONFIG)
    out = tmp_path / "report.json"
    assert main(["audit", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "pass"
    assert payload["residuals"]["d_remote_state"] <= 1e-6


def test_audit_polesink_exit_one_with_channel_delta(tmp_path):
    cfg = write_config(tmp_path, "audit.json", POLESINK_AUDIT_CONFIG)
    out = tmp_path / "report.json"
    assert main(["audit", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "signaling-detected"
    assert payload["channel_demo"]["delta"] == pytest.approx(np.tanh(0.1) / 2.0, abs=1e-4)


def test_polesink_audits_of_one_config_share_one_reduced_flow(tmp_path):
    from blochsig import dynamics

    cfg = write_config(tmp_path, "audit.json", {**POLESINK_AUDIT_CONFIG,
                                                "audit": {"ensemble_size": 1, "seed": 0}})
    dynamics._shared_flow.cache_clear()
    for _ in range(3):
        assert main(["audit", "--config", cfg, "--out", str(tmp_path / "r.json"),
                     "--no-timestamp"]) == 1
    assert dynamics._shared_flow.cache_info().misses == 1


def test_audit_csv_output(tmp_path):
    cfg = write_config(tmp_path, "audit.json", LINEAR_AUDIT_CONFIG)
    out = tmp_path / "report.csv"
    assert main(["audit", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "member,time,channel,component,value,status"
    assert len(lines) == 1 + 6 * 3 * 3  # members x times x channels


def test_audit_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "audit.json", LINEAR_AUDIT_CONFIG)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["audit", "--config", cfg, "--out", str(out_a), "--no-timestamp"]) == 0
    assert main(
        ["audit", "--config", cfg, "--out", str(out_b), "--no-timestamp", "--seed", "99"]
    ) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


def test_a_seed_above_2_53_reaches_the_audit_exactly(tmp_path):
    # 2**53 + 1 is the first integer a float cannot hold.
    seed = 2**53 + 1
    audit_block = {"ensemble_size": 2, "seed": seed}
    in_file = write_config(tmp_path, "in_file.json", {**LINEAR_AUDIT_CONFIG, "audit": audit_block})
    by_flag = write_config(tmp_path, "by_flag.json",
                           {**LINEAR_AUDIT_CONFIG, "audit": {**audit_block, "seed": 1}})
    rounded = write_config(tmp_path, "rounded.json",
                           {**LINEAR_AUDIT_CONFIG, "audit": {**audit_block, "seed": 2**53}})
    outs = [tmp_path / f"{name}.out.json" for name in ("file", "flag", "rounded")]
    assert main(["audit", "--config", in_file, "--out", str(outs[0]), "--no-timestamp"]) == 0
    assert main(["audit", "--config", by_flag, "--out", str(outs[1]), "--no-timestamp",
                 "--seed", str(seed)]) == 0
    assert main(["audit", "--config", rounded, "--out", str(outs[2]), "--no-timestamp"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() != outs[2].read_bytes()
    assert json.loads(outs[0].read_text())["config"]["seed"] == seed


def test_an_integral_float_is_an_integer(tmp_path):
    reports = []
    for seed in (3, 3.0):
        cfg = write_config(tmp_path, "audit.json",
                           {**LINEAR_AUDIT_CONFIG, "audit": {"ensemble_size": 2, "seed": seed}})
        out = tmp_path / "report.json"
        assert main(["audit", "--config", cfg, "--out", str(out), "--no-timestamp"]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["config"]["seed"] == 3


def test_audit_malformed_config_field_path(tmp_path, capsys):
    bad = dict(LINEAR_AUDIT_CONFIG)
    bad["audit"] = {"pass_tolerance": -1.0}
    cfg = write_config(tmp_path, "audit.json", bad)
    assert main(["audit", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "pass_tolerance" in err or "audit" in err


def test_evolve_nonfinite_integrator_step_reported(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "evolve.json",
        {
            "dims": [2, 2],
            "law": "linear",
            "initial_state": "singlet",
            "integrator": {"step": "nan"},
        },
    )
    assert main(["evolve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: integrator")
    assert len(err.splitlines()) == 1


def test_missing_law_field_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, "audit.json", {"dims": [2, 2]})
    assert main(["audit", "--config", cfg]) == 2
    assert "law: missing required field" in capsys.readouterr().err


def test_missing_config_file_reported(capsys):
    assert main(["audit", "--config", "/nonexistent/config.json"]) == 2
    assert "file not found" in capsys.readouterr().err


def test_demo_json_runs_and_is_deterministic(tmp_path):
    out_a = tmp_path / "demo_a.json"
    out_b = tmp_path / "demo_b.json"
    assert main(["demo", "--json", "--no-timestamp", "--out", str(out_a)]) == 0
    assert main(["demo", "--json", "--no-timestamp", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    verdicts = {row["law"]: row["verdict"] for row in payload["rows"]}
    assert verdicts["xi:corrnorm"] == "pass"
    assert verdicts["polesink(eps=0.1)"] == "signaling-detected"
    assert payload["as_expected"] is True


def test_demo_negative_seed_exits_two_with_one_error_line(capsys):
    assert main(["demo", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: config: --seed: seed and fit_probes must be >= 0"]


def test_audit_negative_seed_exits_two_with_one_error_line_naming_the_flag(tmp_path, capsys):
    path = write_config(tmp_path, "linear.json", LINEAR_AUDIT_CONFIG)
    assert main(["audit", "--config", path, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: config: --seed: seed and fit_probes must be >= 0"]


def test_demo_reports_unexpected_verdicts_in_its_table(monkeypatch, capsys):
    # with a linear law in place of the positive control both rows pass
    monkeypatch.setattr(cli, "polesink_law", lambda eps: cli.linear_law())
    assert main(["demo", "--seed", "7"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines[2:4]] == ["pass", "pass"]
    assert lines[-1] == "UNEXPECTED verdicts — see rows above"


def test_evolve_over_a_span_far_beyond_its_first_step_returns_the_zero_field_state(tmp_path):
    # the rkf45 step floor is 1e-14 of the span (here 0.1, above the 0.01 first
    # step); the zero field leaves the initial state where it is
    payload = {"dims": [2, 2], "law": "linear", "initial_state": "product", "times": [1e13]}
    reports = []
    for times in ([1e13], [0.0]):
        out = tmp_path / "evolve.json"
        path = write_config(tmp_path, "span.json", {**payload, "times": times})
        assert main(["evolve", "--config", path, "--no-timestamp", "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    [late], [start] = (report["samples"] for report in reports)
    assert late["t"] == 1e13
    assert all(late[block] == start[block] for block in ("r1", "r2", "r12"))


def test_demo_table_output(capsys):
    assert main(["demo", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "signaling-detected" in out


_EVOLVE = {"dims": [2, 2], "law": "linear", "initial_state": "singlet"}
# Finite coefficients whose generator is not finite.
_OVERFLOW_EVOLVE = {"dims": [2, 2], "law": "linear", "hamiltonian": {"H1": [1e308, 0, 0]},
                    "initial_state": "random:7", "times": [1.0]}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("evolve", {**_EVOLVE, "times": ["a"]}),
        ("evolve", {**_EVOLVE, "times": [float("nan")]}),
        ("evolve", {**_EVOLVE, "dims": [2.5, 2]}),
        ("evolve", {**_EVOLVE, "law": {"name": "xi", "preset": {}}}),
        (
            "evolve",
            {**_EVOLVE, "initial_state": {
                "r1": [float("nan"), 0, 0], "r2": [0, 0, 0], "r12": np.zeros((3, 3)).tolist(),
            }},
        ),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"times": ["a"]}}),
        ("audit", {**POLESINK_AUDIT_CONFIG, "law": {"name": "polesink", "epsilon": float("nan")}}),
        ("audit", {**POLESINK_AUDIT_CONFIG, "law": {"name": "polesink", "epsilon": True}}),
        (
            "audit",
            {**POLESINK_AUDIT_CONFIG,
             "channel_demo": {**POLESINK_AUDIT_CONFIG["channel_demo"], "time": "abc"}},
        ),
        ("convert", {"dim": "x", "r": [0.0, 0.0, 0.0]}),
        ("convert", 5),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"ensemble_size": 2.5}}),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"ensemble_size": True}}),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"seed": 1.5}}),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"seed": -1}}),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"fit_probes": 2.5}}),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"integrator": {"max_steps": True}}}),
        ("evolve", {**_EVOLVE, "integrator": {"max_steps": 10.5}}),
        ("evolve", {**_EVOLVE, "hamiltonian": {"H1": [float("nan"), 0, 0]}}),
        (
            "audit",
            {**LINEAR_AUDIT_CONFIG,
             "hamiltonian": {**LINEAR_AUDIT_CONFIG["hamiltonian"], "H0": float("inf")}},
        ),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"pass_tolerance": True}}),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"pass_tolerance": "1e-6"}}),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"integrator": {"step": True}}}),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"integrator": {"method": 5}}}),
        ("audit", {**LINEAR_AUDIT_CONFIG, "hamiltonian": {"file": 5}}),
        ("evolve", {**_EVOLVE, "initial_state": "random:-1"}),
        ("evolve", _OVERFLOW_EVOLVE),
        ("audit", {**LINEAR_AUDIT_CONFIG, "hamiltonian": _OVERFLOW_EVOLVE["hamiltonian"]}),
    ],
    ids=[
        "evolve-times", "evolve-nan-time", "fractional-dims", "xi-preset-object",
        "nan-initial-state", "audit-times", "nan-epsilon", "bool-epsilon",
        "channel-demo-time", "convert-dim", "convert-not-object",
        "fractional-ensemble-size", "bool-ensemble-size", "fractional-seed", "negative-seed",
        "fractional-fit-probes", "bool-branch-max-steps", "fractional-max-steps",
        "nan-hamiltonian", "inf-h0", "bool-pass-tolerance", "string-pass-tolerance",
        "bool-branch-step", "numeric-branch-method", "numeric-hamiltonian-file", "negative-random-seed",
        "overflowing-evolve-generator", "overflowing-audit-generator",
    ],
)
def test_malformed_input_exits_two_with_one_error_line(tmp_path, capsys, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    flag = "--in" if command == "convert" else "--config"
    assert main([command, flag, str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    if command == "audit" and "integrator" in payload["audit"]:
        assert "audit.integrator." in err[0]


def test_an_overflowing_generator_names_the_hamiltonian(tmp_path, capsys):
    cfg = write_config(tmp_path, "overflow.json", _OVERFLOW_EVOLVE)
    assert main(["evolve", "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: hamiltonian: Hamiltonian of dims (2, 2) has a non-finite generator "
        "(largest |coefficient| 1e+308)"
    ]


@pytest.mark.parametrize("command", ["evolve", "audit"])
def test_a_trajectory_that_overflows_exits_three_with_one_integration_line(
    tmp_path, capsys, command
):
    # a finite generator, but every trial step overflows; no numpy warning
    # may reach stderr (tier-1 turns one into an error)
    payload = {**_OVERFLOW_EVOLVE, "hamiltonian": {"H1": [1e150, 0, 0]}}
    if command == "audit":
        payload = {**LINEAR_AUDIT_CONFIG, "hamiltonian": payload["hamiltonian"]}
    cfg = write_config(tmp_path, "overflow.json", payload)
    assert main([command, "--config", cfg, "--no-timestamp"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: integration: ")


_DEMO = POLESINK_AUDIT_CONFIG["channel_demo"]
_PRODUCT = {"r1": [0.0, 0.0, 0.4], "r2": [0.0, 0.0, 0.4],
            "r12": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.16]]}
_HADAMARD = [{"re": [[0.5, 0.5], [0.5, 0.5]]}, {"re": [[0.5, -0.5], [-0.5, 0.5]]}]
# The Hamiltonian file every case below may name: its interaction key is misspelt.
_H_FILE = {"H1": [0.1, 0.0, 0.5], "h12": np.eye(3).tolist()}


@pytest.mark.parametrize(
    "command, key, payload",
    [
        ("audit", "audit.fd_step", {**LINEAR_AUDIT_CONFIG, "audit": {"fd_step": 1e-5}}),
        ("audit", "audit.integrator.stepsize",
         {**LINEAR_AUDIT_CONFIG, "audit": {"integrator": {"stepsize": 0.01}}}),
        ("evolve", "integrator.fd_step", {**_EVOLVE, "integrator": {"fd_step": 1e-5}}),
        ("audit", "chanel_demo", {**LINEAR_AUDIT_CONFIG, "chanel_demo": _DEMO}),
        ("evolve", "time", {**_EVOLVE, "time": [0.5]}),
        ("audit", "law.epsilon ", {**POLESINK_AUDIT_CONFIG,
                                   "law": {"name": "polesink", "epsilon ": 5.0}}),
        ("evolve", "law.preset", {**_EVOLVE, "law": {"name": "linear", "preset": "one"}}),
        ("evolve", "law.epsilon", {**_EVOLVE, "law": {"name": "xi", "epsilon": 0.1}}),
        ("audit", "hamiltonian.h12",
         {**LINEAR_AUDIT_CONFIG, "hamiltonian": {"H1": [0.1, 0.0, 0.5], "h12": np.eye(3).tolist()}}),
        ("audit", "hamiltonian.H1",
         {**LINEAR_AUDIT_CONFIG, "hamiltonian": {"file": "h.json", "H1": [0.1, 0.0, 0.5]}}),
        ("audit", "hamiltonian.h12", {**LINEAR_AUDIT_CONFIG, "hamiltonian": {"file": "h.json"}}),
        ("evolve", "initial_state.r3", {**_EVOLVE, "initial_state": {**_PRODUCT, "r3": []}}),
        ("audit", "channel_demo.initial_state.r3", {**POLESINK_AUDIT_CONFIG, "channel_demo": {
            **_DEMO, "initial_state": {**_PRODUCT, "r3": []}}}),
        ("audit", "channel_demo.tiem", {**POLESINK_AUDIT_CONFIG,
                                        "channel_demo": {**_DEMO, "tiem": 2.0}}),
        ("audit", "channel_demo.remote_b[1].imag", {**POLESINK_AUDIT_CONFIG, "channel_demo": {
            **_DEMO, "remote_b": [_HADAMARD[0], {**_HADAMARD[1], "imag": np.zeros((2, 2)).tolist()}]}}),
        ("convert", "input.r3", {"dims": [2, 2], **_PRODUCT, "r3": []}),
    ],
    ids=["audit", "branch-integrator", "evolve-integrator", "top-level-audit",
         "top-level-evolve", "polesink-law", "linear-law", "xi-law", "hamiltonian",
         "hamiltonian-beside-file", "hamiltonian-file", "state", "channel-demo-state",
         "channel-demo", "projector-matrix", "convert-state"],
)
def test_an_unknown_options_key_exits_two_naming_it(tmp_path, capsys, command, key, payload):
    # a stale or misspelt key must not be ignored silently
    write_config(tmp_path, "h.json", _H_FILE)
    cfg = write_config(tmp_path, "config.json", payload)
    assert main([command, "--in" if command == "convert" else "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: {key}: unknown key (expected ")


@pytest.mark.parametrize(
    "command, payload, path",
    [
        ("evolve", "{", "config"),
        ("evolve", {**_EVOLVE, "dims": [2]}, "dims"),
        ("audit", {**POLESINK_AUDIT_CONFIG, "law": {"name": "polesink", "epsilon": 10**400}},
         "law.epsilon"),
        ("audit", {**LINEAR_AUDIT_CONFIG, "hamiltonian": [0.1, 0.0, 0.5]}, "hamiltonian"),
        ("evolve", {**_EVOLVE, "law": 5}, "law"),
        ("evolve", {**_EVOLVE, "law": {"name": "quadratic"}}, "law.name"),
        ("evolve", {**_EVOLVE, "law": {"name": "xi", "preset": "cubic"}}, "law.preset"),
        ("evolve", {**_EVOLVE, "dims": [2, 3]}, "initial_state"),
        ("evolve", {**_EVOLVE, "initial_state": "mixed"}, "initial_state"),
        ("audit", {**POLESINK_AUDIT_CONFIG, "channel_demo": {**_DEMO, "remote_a": "diagonal"}},
         "channel_demo.remote_a"),
        ("audit", {**POLESINK_AUDIT_CONFIG, "channel_demo": {
            **_DEMO, "remote_a": [{"im": np.zeros((2, 2)).tolist()}]}}, "channel_demo.remote_a[0]"),
        ("audit", {**POLESINK_AUDIT_CONFIG, "channel_demo": {**_DEMO, "remote_a": _HADAMARD[:1]}},
         "channel_demo.remote_a"),
        ("audit", {**LINEAR_AUDIT_CONFIG, "audit": None}, "audit"),
        ("audit", {**POLESINK_AUDIT_CONFIG, "channel_demo": 5}, "channel_demo"),
        ("audit", {**POLESINK_AUDIT_CONFIG, "channel_demo": {**_DEMO, "initial_state": "mixed"}},
         "channel_demo.initial_state"),
        ("audit", {**POLESINK_AUDIT_CONFIG, "channel_demo": {
            k: v for k, v in _DEMO.items() if k != "initial_state"}}, "channel_demo.initial_state"),
    ],
    ids=["invalid-json", "dims-not-a-pair", "huge-integer", "hamiltonian-not-object",
         "law-not-name-or-object", "unknown-law", "unknown-xi-preset", "singlet-not-2x2",
         "unknown-state-preset", "unknown-observable-preset", "matrix-without-re",
         "invalid-observable", "null-audit", "channel-demo-not-object",
         "channel-demo-state-preset", "channel-demo-state-missing"],
)
def test_each_config_error_exits_two_with_one_line_naming_its_path(tmp_path, capsys, command,
                                                                   payload, path):
    cfg = tmp_path / "config.json"
    cfg.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith(f"error: config: {path}: ")


# Every key of the README config schema, in one file.
_README_SCHEMA = {
    "dims": [2, 2],
    "law": {"name": "xi", "preset": "corrnorm"},
    "hamiltonian": {"H0": 0.0, "H1": [0.0, 0.0, 0.6], "H2": [0.4, 0.0, 0.3],
                    "H12": [[0.5, 0.2, 0.0], [0.0, 0.3, 0.0], [0.1, 0.0, 0.4]]},
    "initial_state": "singlet",
    "times": [0.0, 0.5, 1.0],
    "integrator": {"method": "rkf45", "atol": 1e-10, "rtol": 1e-8, "step": 0.01,
                   "max_steps": 200000},
    "audit": {"pass_tolerance": 1e-6, "ensemble_size": 2, "times": [0.25, 0.5, 1.0], "seed": 0,
              "mix_weight": 0.2, "fit_probes": 20, "integrator": {"method": "rk4", "step": 0.01}},
    "channel_demo": _DEMO,
}


@pytest.mark.parametrize("command", ["evolve", "audit"])
def test_a_config_with_every_schema_key_runs(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "config.json", _README_SCHEMA)
    assert main([command, "--config", cfg, "--no-timestamp"]) == 0
    assert capsys.readouterr().err == ""


def test_an_audit_reads_the_same_hamiltonian_from_a_file(tmp_path):
    write_config(tmp_path, "h.json", LINEAR_AUDIT_CONFIG["hamiltonian"])
    configs = (LINEAR_AUDIT_CONFIG, {**LINEAR_AUDIT_CONFIG, "hamiltonian": {"file": "h.json"}})
    reports = []
    for i, payload in enumerate(configs):
        out = tmp_path / f"report{i}.json"
        cfg = write_config(tmp_path, f"config{i}.json", payload)
        assert main(["audit", "--config", cfg, "--no-timestamp", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_a_channel_demo_observable_written_as_matrices_equals_its_preset(tmp_path):
    deltas = []
    for remote_b in ("hadamard-like", _HADAMARD):
        payload = {**POLESINK_AUDIT_CONFIG, "audit": {"ensemble_size": 2, "seed": 0},
                   "channel_demo": {**_DEMO, "remote_b": remote_b}}
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, "config.json", payload)
        assert main(["audit", "--config", cfg, "--no-timestamp", "--out", str(out)]) == 1
        deltas.append(json.loads(out.read_text())["channel_demo"]["delta"])
    assert deltas[1] == pytest.approx(deltas[0], rel=0, abs=1e-12)
    assert deltas[0] == pytest.approx(math.tanh(0.1) / 2, abs=1e-4)


@pytest.mark.parametrize(
    "argv, payload, line",
    [
        (["audit", "--config"], {**LINEAR_AUDIT_CONFIG, "dims": [10**20, 2]}, "dims[0]"),
        (["audit", "--config"], {**LINEAR_AUDIT_CONFIG, "dims": [100000, 2]}, "dims[0]"),
        (["evolve", "--config"], {**_EVOLVE, "dims": [2, 13]}, "dims[1]"),
        (["convert", "--in"], {"dim": 13, "r": [0.0] * 168}, "dim"),
        (["basis", "--dim", "100000"], None, "--dim"),
    ],
    ids=["audit-1e20", "audit-1e5", "evolve-13", "convert-13", "basis-1e5"],
)
def test_a_dimension_above_max_dim_exits_two_naming_its_field(tmp_path, capsys, argv, payload,
                                                              line):
    # it used to exit 3 with an internal ValueError or MemoryError
    if payload is not None:
        argv = [*argv, write_config(tmp_path, "input.json", payload)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: {line}: dimensions must lie in [2, {cli.MAX_DIM}]"]


def test_max_dim_itself_is_a_dimension():
    assert cli._parse_dim(cli.MAX_DIM, "dims[0]") == cli.MAX_DIM


@pytest.mark.parametrize("base", [LINEAR_AUDIT_CONFIG, POLESINK_AUDIT_CONFIG], ids=["linear", "polesink"])
def test_branch_max_steps_is_enforced_for_every_law(tmp_path, capsys, base):
    branch = {"method": "rk4", "step": 0.01, "max_steps": 10}
    cfg = write_config(tmp_path, "audit.json", {**base, "audit": {**base["audit"], "integrator": branch}})
    assert main(["audit", "--config", cfg, "--no-timestamp"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: integration: rk4 would need 100 steps (> max_steps=10)"]


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_a_fit_that_is_not_finite_ends_the_audit_with_the_fits_message(tmp_path, capsys, method):
    # polesink at epsilon 1e300 overflows every fit probe; under rk4 the fit
    # rides in the branch batch and still ends the audit as it does alone
    law = {"name": "polesink", "epsilon": 1e300}
    branch = {"method": method}
    cfg = write_config(tmp_path, "audit.json", {
        **POLESINK_AUDIT_CONFIG, "law": law,
        "audit": {**POLESINK_AUDIT_CONFIG["audit"], "integrator": branch}})
    assert main(["audit", "--config", cfg, "--no-timestamp"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: integration: {method} result at t=1 is not finite"]


@pytest.mark.parametrize("command, payload", [
    ("audit", {**LINEAR_AUDIT_CONFIG, "audit": {"ensemble_size": 2, "seed": 1, "times": [1e308]}}),
    ("audit", {**POLESINK_AUDIT_CONFIG, "audit": {"ensemble_size": 2, "seed": 1, "times": [1e308]}}),
    ("evolve", {**_OVERFLOW_EVOLVE, "hamiltonian": {"H1": [0.1, 0, 0]}, "times": [1e308],
                "integrator": {"method": "rk4"}}),
    ("evolve", {**_OVERFLOW_EVOLVE, "hamiltonian": {"H1": [0.1, 0, 0]},
                "integrator": {"method": "rk4", "step": 1e-320}}),
], ids=["audit-linear-time", "audit-polesink-time", "evolve-time", "evolve-step"])
def test_an_rk4_step_count_past_any_float_exits_three_with_one_integration_line(
    tmp_path, capsys, command, payload
):
    # t / step overflows to inf; it used to exit 3 with an internal OverflowError
    cfg = write_config(tmp_path, "huge.json", payload)
    assert main([command, "--config", cfg, "--no-timestamp"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: integration: rk4 would need inf steps (> max_steps=200000)"]


def _audit_report(tmp_path, name, payload):
    cfg = write_config(tmp_path, f"{name}.json", payload)
    out = tmp_path / f"{name}.report.json"
    code = main(["audit", "--config", cfg, "--out", str(out), "--no-timestamp"])
    return code, out


def test_null_branch_integrator_keeps_the_rk4_default(tmp_path):
    null = {**LINEAR_AUDIT_CONFIG, "audit": {**LINEAR_AUDIT_CONFIG["audit"], "integrator": None}}
    code_null, out_null = _audit_report(tmp_path, "null", null)
    code_absent, out_absent = _audit_report(tmp_path, "absent", LINEAR_AUDIT_CONFIG)
    assert code_null == code_absent == 0
    branch = json.loads(out_null.read_text())["config"]["branch_integrator"]
    assert branch["method"] == "rk4" and branch["step"] == 0.01
    assert out_null.read_bytes() == out_absent.read_bytes()


def test_partial_branch_integrator_keeps_the_rk4_method(tmp_path):
    audit = {**LINEAR_AUDIT_CONFIG["audit"], "integrator": {"step": 0.02}}
    partial = {**LINEAR_AUDIT_CONFIG, "audit": audit}
    code, out = _audit_report(tmp_path, "partial", partial)
    assert code == 0
    branch = json.loads(out.read_text())["config"]["branch_integrator"]
    assert branch["method"] == "rk4" and branch["step"] == 0.02


def test_partial_evolve_integrator_keeps_rkf45(tmp_path, monkeypatch):
    import blochsig.cli as cli

    seen, original = [], cli.evolve_path

    def recording(law, hamiltonian, state0, times, options):
        seen.append(options)
        return original(law, hamiltonian, state0, times, options)

    monkeypatch.setattr(cli, "evolve_path", recording)
    cfg = write_config(
        tmp_path,
        "evolve.json",
        {
            "dims": [2, 2],
            "law": "linear",
            "hamiltonian": LINEAR_AUDIT_CONFIG["hamiltonian"],
            "initial_state": "random:7",
            "times": [0.5],
            "integrator": {"atol": 1e-9},
        },
    )
    out = str(tmp_path / "traj.json")
    assert main(["evolve", "--config", cfg, "--out", out, "--no-timestamp"]) == 0
    assert [(o.method, o.atol, o.rtol) for o in seen] == [("rkf45", 1e-9, 1e-8)]


def test_report_config_block_reruns_the_same_audit(tmp_path):
    from blochsig.cli import _parse_audit_config

    branch = {"method": "rk4", "step": 0.02, "max_steps": 60}
    raw = {"ensemble_size": 3, "seed": 4, "times": [0.5, 0.25], "fit_probes": 5,
           "integrator": branch}
    code, out = _audit_report(tmp_path, "first", {**LINEAR_AUDIT_CONFIG, "audit": raw})
    assert code == 0
    block = dict(json.loads(out.read_text())["config"])
    block["integrator"] = block.pop("branch_integrator")
    assert block["integrator"] == {**branch, "atol": 1e-10, "rtol": 1e-8}
    assert _parse_audit_config({"audit": block}, None) == _parse_audit_config({"audit": raw}, None)
    rerun_code, rerun = _audit_report(tmp_path, "rerun", {**LINEAR_AUDIT_CONFIG, "audit": block})
    assert rerun_code == code and rerun.read_bytes() == out.read_bytes()


def test_unexpected_error_exits_three_with_one_internal_line(monkeypatch, capsys):
    import blochsig.cli as cli

    def broken(args):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(cli, "cmd_basis", broken)
    assert main(["basis", "--dim", "2"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: internal: RuntimeError: unexpected state"]


@pytest.mark.parametrize(
    "error, line, code",
    [
        (ConfigError("audit.seed", "bad"), "error: config: audit.seed: bad", 2),
        (InvalidDimensionError("too small"), "error: dimension: too small", 2),
        (UnphysicalStateError("negative"), "error: state: negative", 2),
        (IntegrationFailureError("gave up"), "error: integration: gave up", 3),
        (DimensionMismatchError("2 != 3"), "error: DimensionMismatchError: 2 != 3", 2),
        (FileNotFoundError("gone"), "error: io: gone", 2),
        (KeyError("k"), "error: internal: KeyError: 'k'", 3),
    ],
    ids=["config", "dimension", "state", "integration", "other-package-error", "io", "internal"],
)
def test_error_contract_labels_and_exit_codes(monkeypatch, capsys, error, line, code):
    import blochsig.cli as cli

    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_basis", failing)
    assert main(["basis", "--dim", "2"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [line]


def test_one_parser_serves_successive_calls_like_fresh_ones(tmp_path, capsys):
    import blochsig.cli as cli

    small = {**LINEAR_AUDIT_CONFIG, "audit": {"ensemble_size": 2}}
    linear = write_config(tmp_path, "linear.json", small)
    calls = [
        ["basis", "--dim", "3"],
        ["audit", "--config", linear, "--no-timestamp", "--format", "csv", "--seed", "4"],
        ["audit"],  # no --config: argparse exits 2
        ["audit", "--config", linear, "--no-timestamp"],
        ["basis", "--dim", "1"],
    ]

    def run(argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    reused = [run(argv, fresh=False) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    fresh = [run(argv, fresh=True) for argv in calls]
    assert [code for code, _ in reused] == [0, 0, 2, 0, 2]
    assert reused == fresh


def test_the_package_and_its_cli_import_no_third_party_module_but_numpy():
    code = (
        "import sys; before = set(sys.modules); import blochsig, blochsig.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} "
        "- set(sys.stdlib_module_names)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(blochsig.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "['blochsig', 'numpy']"
