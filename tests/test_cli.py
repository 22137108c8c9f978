"""End-to-end command-line behaviour: outputs, exit codes, error contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blochsig
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


@pytest.mark.parametrize(
    "payload, keys",
    [
        ({"dim": 2, "dims": [2, 2], **_JOINT}, {"dims", "matrix_re", "matrix_im"}),
        ({"dim": 2, "dims": [2, 2], "r": [0.0, 0.0, 0.1], **_JOINT},
         {"dim", "matrix_re", "matrix_im"}),
        ({"dims": [2, 2], "r": [0.0, 0.0, 0.1], **_JOINT}, {"dims", "matrix_re", "matrix_im"}),
        ({"dim": 2, "dims": [2, 2], "matrix_re": _RHO1, **_JOINT}, {"dim", "r"}),
        ({"dims": [2, 2], "matrix_re": (np.eye(4) / 4).tolist(), "r": [0.0, 0.0, 0.1], **_JOINT},
         {"dims", "r1", "r2", "r12"}),
        ({"dim": 2, "r": [0.0, 0.0, 0.9], "matrix_re": _RHO1}, {"dim", "r"}),
        ({"dim": "x", "dims": [2, 2], **_JOINT}, {"dims", "matrix_re", "matrix_im"}),
        ({"dim": 2, "dims": [2, 2], "matrix_re": (np.eye(4) / 4).tolist()},
         "error: config: matrix.re: must have shape [2, 2], got [4, 4]"),
        ({"dim": 2, **_JOINT}, "error: config: input: expected"),
        ({"dims": [2, 2], "r": [0.0, 0.0, 0.1]}, "error: config: input: expected"),
    ],
    ids=["dim-dims-joint", "dim-dims-r-joint", "dims-r-joint", "dim-dims-matrix",
         "dims-matrix-coords", "dim-r-matrix", "bad-dim-joint", "dim-before-dims",
         "dim-joint", "dims-r"],
)
def test_convert_route_precedence_on_mixed_keys(tmp_path, capsys, payload, keys):
    """matrix_re with dim, then with dims; r with dim, then r1 with dims."""
    code = main(["convert", "--in", write_config(tmp_path, "mixed.json", payload)])
    out, err = capsys.readouterr()
    if isinstance(keys, str):
        assert code == 2 and len(err.splitlines()) == 1 and err.startswith(keys)
        return
    assert code == 0 and err == ""
    result = json.loads(out)
    assert set(result) == keys
    if "r" in keys:  # read off the matrix, not the input's own r
        np.testing.assert_allclose(result["r"], [0.2, 0.0, 0.2], atol=1e-15)
    if "r12" in keys:
        assert result["r1"] == result["r2"] == [0.0, 0.0, 0.0]


def test_convert_unphysical_state_rejected(tmp_path, capsys):
    src = write_config(tmp_path, "bad.json", {"dim": 2, "r": [0.0, 0.0, 2.0]})
    assert main(["convert", "--in", src]) == 2
    assert "error: state:" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, key, payload",
    [
        ("audit", "audit.fd_step", {**LINEAR_AUDIT_CONFIG, "audit": {"fd_step": 1e-5}}),
        ("audit", "audit.integrator.stepsize",
         {**LINEAR_AUDIT_CONFIG, "audit": {"integrator": {"stepsize": 0.01}}}),
        ("evolve", "integrator.fd_step", {**_EVOLVE, "integrator": {"fd_step": 1e-5}}),
    ],
    ids=["audit", "branch-integrator", "evolve-integrator"],
)
def test_an_unknown_options_key_exits_two_naming_it(tmp_path, capsys, command, key, payload):
    # a stale or misspelt key must not be ignored silently
    cfg = write_config(tmp_path, "config.json", payload)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: {key}: unknown key (expected ")


@pytest.mark.parametrize("base", [LINEAR_AUDIT_CONFIG, POLESINK_AUDIT_CONFIG], ids=["linear", "polesink"])
def test_branch_max_steps_is_enforced_for_every_law(tmp_path, capsys, base):
    branch = {"method": "rk4", "step": 0.01, "max_steps": 10}
    cfg = write_config(tmp_path, "audit.json", {**base, "audit": {**base["audit"], "integrator": branch}})
    assert main(["audit", "--config", cfg, "--no-timestamp"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: integration: rk4 would need 100 steps (> max_steps=10)"]


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
