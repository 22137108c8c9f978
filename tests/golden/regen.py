"""Golden CLI cases: the definitions, the runner, and the writer.

Each case is one ``blochsig`` command line run in process on a config file.
Its golden file ``<name>.json`` holds the argv, the config, the exit code,
the stderr lines, the output (parsed JSON, CSV rows or ``null``) and the
SHA-256 of the raw output bytes.  ``tests/test_golden.py`` reruns every file
and compares exit codes, stderr, keys and strings exactly and numbers to a
tolerance; the hash is checked only by regenerating into another directory
on the same machine and comparing the files.  The tolerance does not keep a
different BLAS from failing the test: the labels (each case row's component,
and the member, time and component of ``worst_case`` and
``per_channel_worst``) are compared exactly, and on linear and xi audits
each label picks the largest of values at rounding level (~1e-17), so a
last-bit change in any member can flip it.

Rewrite the committed files (from the repository root):

    PYTHONPATH=src python tests/golden/regen.py

or write them elsewhere, to compare with the committed ones:

    PYTHONPATH=src python tests/golden/regen.py --out OTHER_DIR
    diff -r -x regen.py -x __pycache__ OTHER_DIR tests/golden
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from blochsig import cli

HERE = Path(__file__).resolve().parent

_SINGLET_DEMO = {
    "initial_state": "singlet",
    "remote_a": "computational",
    "remote_b": "hadamard-like",
    "local": "computational",
    "time": 1.0,
}
_H_LINEAR = {
    "H1": [0.1, 0.0, 0.5],
    "H12": [[0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.3]],
}
_POLESINK = {"dims": [2, 2], "law": {"name": "polesink", "epsilon": 0.1},
             "audit": {"ensemble_size": 2, "seed": 1}}
_LINEAR = {"dims": [2, 2], "law": {"name": "linear"}, "hamiltonian": _H_LINEAR,
           "audit": {"ensemble_size": 2, "seed": 1}}
_EVOLVE = {"dims": [2, 2], "law": "linear", "initial_state": "singlet"}
_AUDIT = ["audit", "--config", "{config}", "--no-timestamp"]

# name -> (argv, config).  ``{config}`` is the config file and ``{out}`` the
# output file; a config of ``("output of", name)`` is that case's output.
CASES = {
    # The console-script configs of the CI workflow.
    "audit_polesink_ci": (_AUDIT, _POLESINK),
    "audit_linear_ci": (_AUDIT, _LINEAR),
    "audit_linear_pure_states": (
        _AUDIT, {**_LINEAR, "audit": {**_LINEAR["audit"], "mix_weight": 0.0}},
    ),
    "evolve_linear_2x3_oracle": (
        ["evolve", "--config", "{config}", "--check-oracle", "--no-timestamp"],
        {"dims": [2, 3], "law": "linear",
         "hamiltonian": {
             "H1": [0.1, 0.0, 0.5],
             "H2": [0.3, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.4],
             "H12": [[0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2],
                     [0.0, 0.3, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.2, 0.0]]},
         "initial_state": "random:7", "times": [0.5, 1.0]},
    ),
    "convert_coords_to_matrix": (
        ["convert", "--in", "{config}", "--out", "{out}"],
        {"dims": [2, 2], "r1": [0.1, 0.0, 0.0], "r2": [0.0, 0.2, 0.0],
         "r12": [[-0.3, 0.0, 0.0], [0.0, -0.3, 0.0], [0.0, 0.0, -0.3]]},
    ),
    "convert_matrix_to_coords": (
        ["convert", "--in", "{config}"], ("output of", "convert_coords_to_matrix"),
    ),
    # Polesink with the singlet channel demo, as JSON and as CSV.
    "audit_polesink_demo_json": (_AUDIT, {**_POLESINK, "channel_demo": _SINGLET_DEMO}),
    "audit_polesink_demo_csv": (
        [*_AUDIT, "--format", "csv", "--out", "{out}"],
        {**_POLESINK, "channel_demo": _SINGLET_DEMO},
    ),
    # Adaptive branches: one solve per row and time.
    "audit_polesink_rkf45": (
        _AUDIT, {**_POLESINK, "audit": {**_POLESINK["audit"], "integrator": {"method": "rkf45"}}},
    ),
    "audit_linear_rkf45": (
        _AUDIT, {**_LINEAR, "audit": {**_LINEAR["audit"], "integrator": {"method": "rkf45"}}},
    ),
    "audit_xi_corrnorm_2x3": (
        _AUDIT,
        {"dims": [2, 3], "law": {"name": "xi", "preset": "corrnorm"},
         "hamiltonian": {"H1": [0.2, 0.0, 0.4],
                         "H12": [[0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2],
                                 [0.0, 0.3, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.2, 0.0]]},
         "audit": {"ensemble_size": 2, "seed": 3, "times": [0.5, 1.0]}},
    ),
    # Party 1 the larger party, so member sampling and the fit run at n1 > n2.
    "audit_linear_3x2": (
        _AUDIT,
        {"dims": [3, 2], "law": {"name": "linear"},
         "hamiltonian": {"H1": [0.1, 0.0, 0.5, 0.0, 0.0, 0.2, 0.0, 0.0],
                         "H2": [0.3, 0.0, 0.4],
                         "H12": [[0.3, 0.0, 0.0], [0.0, 0.3, 0.1], [0.0, 0.0, 0.3],
                                 [0.0, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.0],
                                 [0.1, 0.0, 0.0], [0.0, 0.2, 0.0]]},
         "audit": {"ensemble_size": 8, "seed": 3}},
    ),
    "demo_json": (["demo", "--json", "--no-timestamp"], None),
    # Malformed input: exit 2 with one error line.
    "malformed_evolve_times": (
        ["evolve", "--config", "{config}"], {**_EVOLVE, "times": ["a"]},
    ),
    "malformed_fractional_dims": (
        ["evolve", "--config", "{config}"], {**_EVOLVE, "dims": [2.5, 2]},
    ),
    "malformed_bool_ensemble_size": (
        _AUDIT, {**_LINEAR, "audit": {"ensemble_size": True}},
    ),
    "malformed_audit_unknown_key": (
        _AUDIT, {**_LINEAR, "audit": {**_LINEAR["audit"], "fd_step": 1e-5}},
    ),
    "malformed_channel_demo_time": (
        _AUDIT, {**_POLESINK, "channel_demo": {**_SINGLET_DEMO, "time": "abc"}},
    ),
    "malformed_convert_not_object": (["convert", "--in", "{config}"], 5),
}


def _parse_output(text: str | None):
    """JSON output as its value, anything else as CSV rows."""
    if text is None:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return list(csv.reader(io.StringIO(text)))


def run_case(argv, config, workdir: Path) -> dict:
    """Run one case in ``workdir`` (files named relative to it, so no path
    enters a message) and return its golden record."""
    workdir = Path(workdir)
    if config is not None:
        (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    args = [a.replace("{config}", "config.json").replace("{out}", "out.txt") for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
    finally:
        os.chdir(cwd)
    out_file = workdir / "out.txt"
    if "{out}" in argv and out_file.exists():
        text = out_file.read_text(encoding="utf-8")
        out_file.unlink()
    else:
        text = stdout.getvalue() or None
    return {
        "argv": list(argv),
        "config": config,
        "exit_code": code,
        "stderr": stderr.getvalue().splitlines(),
        "output": _parse_output(text),
        "output_sha256": None if text is None else hashlib.sha256(text.encode()).hexdigest(),
    }


def regenerate(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, config) in CASES.items():
            if isinstance(config, tuple):
                config = records[config[1]]["output"]
            records[name] = run_case(argv, config, Path(tmp))
            text = json.dumps(records[name], indent=1, sort_keys=True) + "\n"
            (out_dir / f"{name}.json").write_text(text, encoding="utf-8")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE, help="directory to write (default: here)")
    regenerate(parser.parse_args(argv).out)


if __name__ == "__main__":
    main()
