"""Command-line front door.

Subcommands
-----------
basis    dump a generator basis and its structure constants as JSON
convert  convert states between matrix JSON and coordinate JSON
evolve   integrate a configured law and write trajectory samples
audit    run the no-signaling audit described by a config file
demo     paired showcase: a nonlinear law that passes, and one that fails

Exit codes: 0 success (audit: verdict pass); 1 audit detected signaling;
2 bad usage, config or input; 3 runtime failure (integrator gave up, or any
other unexpected error, reported as ``error: internal: <Type>: <msg>``).
Every failure prints a single machine-parsable line ``error: <field>: <msg>``
to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import jsonio
from .bloch import (
    BlochState,
    JointBlochState,
    from_bloch,
    joint_from_bloch,
    joint_to_bloch,
    pack_coords,
    to_bloch,
    validate_density_matrix,
)
from .dynamics import (
    BlochHamiltonian,
    EvolutionLaw,
    evolve_path,
    linear_law,
    vector_field,
    xi_law,
)
from .errors import (
    BlochSigError,
    ConfigError,
    IntegrationFailureError,
    InvalidDimensionError,
    NonFiniteGeneratorError,
    UnphysicalStateError,
)
from .integrate import DEFAULT_OPTIONS
from .measurement import (
    ProjectiveObservable,
    computational_observable,
    fourier_observable,
    observable_from_matrices,
)
from .nosignal_audit import (
    AuditConfig,
    audit,
    polesink_law,
    signaling_channel_demo,
)
from .sampling import random_density, random_interior_joint, singlet_state
from .su_basis import build_generators, cached_basis, structure_constants
from .version import __version__

__all__ = ["main"]

MAX_DIM = 12  # largest party dimension: 2 (N**2 - 1)**3 structure constants, ~4 s at 12


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_report(payload: dict, args) -> None:
    """``payload`` as JSON, stamped with the UTC time unless ``--no-timestamp``."""
    if not args.no_timestamp:
        payload["timestamp"] = _timestamp()
    _emit(jsonio.dumps(payload), args.out)


# ---------------------------------------------------------------------------
# Config parsing (field-addressed errors)


def _load_json(path: str, field: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(field, f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(field, f"invalid JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(field, f"{path} must hold a JSON object")
    return data


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return cfg[key]


def _check_keys(raw: dict, path: str, allowed) -> None:
    """Refuse the first key of the JSON object ``raw`` outside ``allowed``."""
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key,
                              f"unknown key (expected {', '.join(sorted(allowed))})")


# One config file may hold both the evolve and the audit keys.
_CONFIG_KEYS = frozenset({"dims", "law", "hamiltonian", "initial_state", "times", "integrator",
                          "audit", "channel_demo"})
_LAW_KEYS = {"linear": ("name",), "xi": ("name", "preset"), "polesink": ("name", "epsilon")}
_STATE_KEYS = ("r1", "r2", "r12")


def _finite(raw) -> float | None:
    """``raw`` as a float when it is a finite JSON number (not a bool)."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None
    try:
        value = float(raw)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _parse_float(raw, path: str) -> float:
    value = _finite(raw)
    if value is None:
        raise ConfigError(path, "must be a finite number")
    return value


def _parse_int(raw, path: str) -> int:
    value = _finite(raw)
    if value is None or not value.is_integer():
        raise ConfigError(path, "must be an integer")
    return raw if isinstance(raw, int) else int(value)  # an int may not survive float()


def _parse_dim(raw, path: str) -> int:
    value = _parse_int(raw, path)
    if not 2 <= value <= MAX_DIM:
        raise ConfigError(path, f"dimensions must lie in [2, {MAX_DIM}]")
    return value


def _parse_dims(cfg: dict) -> tuple[int, int]:
    raw = _require(cfg, "dims", "")
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError("dims", "must be a pair [N1, N2]")
    return _parse_dim(raw[0], "dims[0]"), _parse_dim(raw[1], "dims[1]")


def _parse_time(raw, path: str) -> float:
    value = _finite(raw)
    if value is None or value < 0:
        raise ConfigError(path, "must be a finite nonnegative number")
    return value


def _parse_times(raw, path: str) -> list[float]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(path, "must be a nonempty list")
    return [_parse_time(t, f"{path}[{i}]") for i, t in enumerate(raw)]


def _parse_real_array(raw, shape, path: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, "must be a numeric array")
    if arr.shape != shape:
        raise ConfigError(path, f"must have shape {list(shape)}, got {list(arr.shape)}")
    if not np.isfinite(arr).all():
        raise ConfigError(path, "entries must be finite")
    return arr


def _parse_hamiltonian(cfg: dict, dims: tuple[int, int], base_dir: Path) -> BlochHamiltonian:
    raw = cfg.get("hamiltonian")
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    if raw is None:
        return BlochHamiltonian(dims)
    if not isinstance(raw, dict):
        raise ConfigError("hamiltonian", "must be an object")
    if "file" in raw:
        _check_keys(raw, "hamiltonian", ("file",))  # the file holds every coefficient
        if not isinstance(raw["file"], str):
            raise ConfigError("hamiltonian.file", "must be a path")
        raw = _load_json(str(base_dir / raw["file"]), "hamiltonian.file")
    _check_keys(raw, "hamiltonian", ("H0", "H1", "H2", "H12"))
    h0 = _parse_float(raw.get("H0", 0.0), "hamiltonian.H0")
    h1 = _parse_real_array(raw.get("H1", np.zeros(d1)), (d1,), "hamiltonian.H1")
    h2 = _parse_real_array(raw.get("H2", np.zeros(d2)), (d2,), "hamiltonian.H2")
    h12 = _parse_real_array(raw.get("H12", np.zeros((d1, d2))), (d1, d2), "hamiltonian.H12")
    return BlochHamiltonian(dims, h0, h1, h2, h12)


def _parse_law(cfg: dict) -> EvolutionLaw:
    raw = _require(cfg, "law", "")
    if isinstance(raw, str):
        raw = {"name": raw}
    if not isinstance(raw, dict):
        raise ConfigError("law", "must be a name or an object with a `name`")
    name = _require(raw, "name", "law")
    if not isinstance(name, str) or name not in _LAW_KEYS:
        raise ConfigError("law.name", f"unknown law {name!r} (linear | xi | polesink)")
    _check_keys(raw, "law", _LAW_KEYS[name])
    if name == "linear":
        return linear_law()
    if name == "xi":
        preset = raw.get("preset", "one")
        if not isinstance(preset, str):
            raise ConfigError("law.preset", "must be a preset name")
        try:
            return xi_law(preset)
        except ValueError as exc:
            raise ConfigError("law.preset", str(exc))
    eps = _finite(raw.get("epsilon", 0.1))
    if eps is None or eps <= 0:
        raise ConfigError("law.epsilon", "must be a positive finite number")
    return polesink_law(eps)


def _product_state(dims: tuple[int, int]) -> JointBlochState:
    # Mild polarization along each party's last (diagonal) axis; physical
    # for every dimension.
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    r1 = np.zeros(d1)
    r1[-1] = 0.4
    r2 = np.zeros(d2)
    r2[-1] = 0.4
    return JointBlochState(dims, r1, r2, np.outer(r1, r2))


def _parse_state(raw, dims: tuple[int, int], path: str) -> JointBlochState:
    if isinstance(raw, str):
        if raw == "singlet":
            if dims != (2, 2):
                raise ConfigError(path, "preset 'singlet' needs dims [2, 2]")
            return singlet_state()
        if raw == "product":
            return _product_state(dims)
        if raw.startswith("random:"):
            seed = raw.split(":", 1)[1]
            if not seed.isdecimal():
                raise ConfigError(path, "random preset must look like 'random:SEED', SEED >= 0")
            rng = np.random.default_rng(int(seed))
            rho = random_density(rng, dims[0] * dims[1])
            return joint_to_bloch(rho, cached_basis(dims[0]), cached_basis(dims[1]))
        raise ConfigError(path, f"unknown preset {raw!r} (singlet | product | random:SEED)")
    if not isinstance(raw, dict):
        raise ConfigError(path, "must be a preset name or {r1, r2, r12}")
    _check_keys(raw, path, _STATE_KEYS)
    return _parse_coords(raw, dims, path)


def _parse_coords(raw: dict, dims: tuple[int, int], path: str) -> JointBlochState:
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    r1 = _parse_real_array(_require(raw, "r1", path), (d1,), f"{path}.r1")
    r2 = _parse_real_array(_require(raw, "r2", path), (d2,), f"{path}.r2")
    r12 = _parse_real_array(_require(raw, "r12", path), (d1, d2), f"{path}.r12")
    state = JointBlochState(dims, r1, r2, r12)
    try:
        joint_from_bloch(state, cached_basis(dims[0]), cached_basis(dims[1]), check=True)
    except UnphysicalStateError as exc:
        raise ConfigError(path, f"not a physical state ({exc})")
    return state


def _parse_complex_matrix(raw, dim: int, path: str) -> np.ndarray:
    if not isinstance(raw, dict) or "re" not in raw:
        raise ConfigError(path, "must be an object with `re` (and optional `im`)")
    _check_keys(raw, path, ("re", "im"))
    re = _parse_real_array(raw["re"], (dim, dim), f"{path}.re")
    im = (
        _parse_real_array(raw["im"], (dim, dim), f"{path}.im")
        if "im" in raw
        else np.zeros((dim, dim))
    )
    return re + 1j * im


def _parse_observable(raw, dim: int, path: str) -> ProjectiveObservable:
    if isinstance(raw, str):
        if raw == "computational":
            return computational_observable(dim)
        if raw == "hadamard-like":
            return fourier_observable(dim)
        raise ConfigError(path, f"unknown preset {raw!r} (computational | hadamard-like)")
    if not isinstance(raw, list):
        raise ConfigError(path, "must be a preset name or a list of matrices")
    mats = [_parse_complex_matrix(m, dim, f"{path}[{i}]") for i, m in enumerate(raw)]
    try:
        return observable_from_matrices(mats, cached_basis(dim))
    except BlochSigError as exc:
        raise ConfigError(path, str(exc))


def _parse_name(raw, path: str) -> str:
    if not isinstance(raw, str):
        raise ConfigError(path, "must be a method name")
    return raw


_FIELD_PARSERS = {float: _parse_float, int: _parse_int, str: _parse_name, tuple: _parse_times}


def _parse_options(raw, path: str, default):
    """A copy of the options dataclass ``default`` with the fields the JSON
    object ``raw`` names, each parsed by the type of its default value;
    ``null`` means ``default``.  ``branch_options`` is read from the key
    ``integrator``; any other key is an error."""
    if raw is None:
        return default
    if not isinstance(raw, dict):
        raise ConfigError(path, "must be an object")
    keys = {"integrator" if f.name == "branch_options" else f.name: f
            for f in dataclasses.fields(default)}
    _check_keys(raw, path, keys)
    kwargs = {}
    for key, field in keys.items():
        if key in raw:
            value, where = getattr(default, field.name), f"{path}.{key}"
            kwargs[field.name] = (
                _parse_options(raw[key], where, value) if dataclasses.is_dataclass(value)
                else _FIELD_PARSERS[type(value)](raw[key], where)
            )
    try:
        return dataclasses.replace(default, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc))


def _parse_audit_config(cfg: dict, seed_override: int | None) -> AuditConfig:
    raw = cfg.get("audit", {})
    if raw is None:
        raise ConfigError("audit", "must be an object")
    config = _parse_options(raw, "audit", AuditConfig())
    return config if seed_override is None else _parse_options(
        {"seed": seed_override}, "--seed", config
    )


# ---------------------------------------------------------------------------
# Subcommands


def _matrix_json(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _joint_json(state: JointBlochState) -> dict:
    return {"r1": state.r1.tolist(), "r2": state.r2.tolist(), "r12": state.r12.tolist()}


def cmd_basis(args) -> int:
    if args.dim > MAX_DIM:  # below 2, build_generators names the dimension
        raise ConfigError("--dim", f"dimensions must lie in [2, {MAX_DIM}]")
    basis = build_generators(args.dim)
    constants = structure_constants(basis)
    payload = {
        "dim": basis.dim,
        "generators": [_matrix_json(m) for m in basis.matrices],
        "f": constants.f.tolist(),
        "g": constants.g.tolist(),
    }
    _emit(jsonio.dumps(payload), args.out)
    return 0


def cmd_convert(args) -> int:
    """Matrix to coordinates, or coordinates to matrix, for one party
    (``dim``) or two (``dims``).  Route precedence: ``matrix_re`` with
    ``dim``, then with ``dims``; ``r`` with ``dim``, then ``r1`` with ``dims``."""
    data = _load_json(args.infile, "input")
    to_coords = "matrix_re" in data and ("dim" in data or "dims" in data)
    single = "dim" in data and (to_coords or "r" in data)
    if not (to_coords or single or ("r1" in data and "dims" in data)):
        raise ConfigError(
            "input", "expected {dim|dims, matrix_re[, matrix_im]} or {dim, r} or {dims, r1, r2, r12}"
        )
    route = ("matrix_re", "matrix_im") if to_coords else ("r",) if single else _STATE_KEYS
    _check_keys(data, "input", {"dim" if single else "dims", *route})
    dims = (_parse_dim(data["dim"], "dim"),) if single else _parse_dims(data)
    payload = {"dim": dims[0]} if single else {"dims": list(dims)}
    if to_coords:
        nn = math.prod(dims)
        im = data.get("matrix_im", np.zeros((nn, nn)).tolist())
        rho = _parse_complex_matrix({"re": data["matrix_re"], "im": im}, nn, "matrix")
        validate_density_matrix(rho)
        bases = [cached_basis(n) for n in dims]
        if single:
            payload["r"] = to_bloch(rho, *bases).r.tolist()
        else:
            payload.update(_joint_json(joint_to_bloch(rho, *bases)))
    else:
        if single:
            r = _parse_real_array(data["r"], (dims[0] ** 2 - 1,), "r")
            rho = from_bloch(BlochState(dims[0], r), cached_basis(dims[0]))
        else:
            state = _parse_coords(data, dims, "state")
            rho = joint_from_bloch(state, cached_basis(dims[0]), cached_basis(dims[1]))
        payload.update(matrix_re=np.real(rho).tolist(), matrix_im=np.imag(rho).tolist())
    _emit(jsonio.dumps(payload), args.out)
    return 0


def _unitary_oracle_coords(hamiltonian, state0, dims, t):
    b1, b2 = cached_basis(dims[0]), cached_basis(dims[1])
    rho0 = joint_from_bloch(state0, b1, b2, check=False)
    w, v = np.linalg.eigh(hamiltonian.matrix())
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return joint_to_bloch(u @ rho0 @ u.conj().T, b1, b2)


def cmd_evolve(args) -> int:
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, "", _CONFIG_KEYS)
    dims = _parse_dims(cfg)
    law = _parse_law(cfg)
    hamiltonian = _parse_hamiltonian(cfg, dims, Path(args.config).parent)
    state0 = _parse_state(_require(cfg, "initial_state", ""), dims, "initial_state")
    times = sorted(_parse_times(cfg.get("times", [0.0, 0.25, 0.5, 0.75, 1.0]), "times"))
    options = _parse_options(cfg.get("integrator"), "integrator", DEFAULT_OPTIONS)
    if args.check_oracle and law.kind != "linear":
        raise ConfigError("law", "--check-oracle requires the linear law")

    records = []
    for t, result in evolve_path(law, hamiltonian, state0, times, options):
        rec = {
            "t": t,
            **_joint_json(result.state),
            "physical": result.physical,
            "min_eigenvalue": result.min_eigenvalue,
        }
        if args.check_oracle:
            ref = pack_coords(_unitary_oracle_coords(hamiltonian, state0, dims, t))
            rec["oracle_deviation"] = float(np.max(np.abs(pack_coords(result.state) - ref)))
        records.append(rec)

    if args.format == "csv":
        d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
        extra = ["oracle_deviation"] if args.check_oracle else []
        header = (
            ["t", "physical", "min_eigenvalue"]
            + [f"r1_{i}" for i in range(d1)]
            + [f"r2_{j}" for j in range(d2)]
            + [f"r12_{i}_{j}" for i in range(d1) for j in range(d2)]
            + extra
        )
        rows = [[rec["t"], int(rec["physical"]), rec["min_eigenvalue"], *rec["r1"], *rec["r2"],
                 *(x for row in rec["r12"] for x in row), *(rec[key] for key in extra)]
                for rec in records]
        _emit(jsonio.csv_text([header, *rows]), args.out)
        return 0

    payload = {"law": law.name, "dims": list(dims), "samples": records}
    if args.check_oracle:
        payload["oracle_max_deviation"] = max(rec["oracle_deviation"] for rec in records)
    _emit_report(payload, args)
    return 0


# Channel-demo observables: (config key, index of the party they act on).
_DEMO_OBSERVABLES = (("remote_a", 1), ("remote_b", 1), ("local", 0))
_DEMO_KEYS = frozenset({"initial_state", "time", *(key for key, _ in _DEMO_OBSERVABLES)})


def _parse_channel_demo(cfg: dict, dims: tuple[int, int], config: AuditConfig):
    """The optional two-observable demo: (state, remote_a, remote_b, local,
    time), or None when the config has no ``channel_demo``."""
    demo_cfg = cfg.get("channel_demo")
    if demo_cfg is None:
        return None
    if not isinstance(demo_cfg, dict):
        raise ConfigError("channel_demo", "must be an object")
    _check_keys(demo_cfg, "channel_demo", _DEMO_KEYS)
    state = _parse_state(_require(demo_cfg, "initial_state", "channel_demo"), dims,
                         "channel_demo.initial_state")
    observables = [
        _parse_observable(_require(demo_cfg, key, "channel_demo"), dims[party],
                          f"channel_demo.{key}")
        for key, party in _DEMO_OBSERVABLES
    ]
    t_demo = _parse_time(demo_cfg.get("time", max(config.times)), "channel_demo.time")
    return state, *observables, t_demo


def cmd_audit(args) -> int:
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, "", _CONFIG_KEYS)
    dims = _parse_dims(cfg)
    law = _parse_law(cfg)
    hamiltonian = _parse_hamiltonian(cfg, dims, Path(args.config).parent)
    config = _parse_audit_config(cfg, args.seed)

    demo = _parse_channel_demo(cfg, dims, config)

    report = audit(law, hamiltonian, config)
    payload = report.to_dict()

    if demo is not None:
        state, *observables, t_demo = demo
        delta, (pa, pb) = signaling_channel_demo(
            law, state, *observables, t_demo,
            hamiltonian=hamiltonian, options=config.branch_options,
        )
        payload["channel_demo"] = {
            "time": t_demo,
            "delta": delta,
            "distribution_a": pa.tolist(),
            "distribution_b": pb.tolist(),
            **{key: obs.to_json() for (key, _), obs in zip(_DEMO_OBSERVABLES, observables)},
        }

    if args.format == "csv":
        _emit(jsonio.csv_text(report.csv_rows()), args.out)
    else:
        _emit_report(payload, args)
    return 0 if report.passed else 1


_DEMO_H12 = [[0.5, 0.2, 0.0], [0.0, 0.3, 0.0], [0.1, 0.0, 0.4]]


def _demo_row(law: EvolutionLaw, nonlinearity: float, report) -> dict:
    return {
        "law": law.name,
        "nonlinearity": nonlinearity,
        "max_residual": max(report.residuals().values()),
        "linearity_residual": report.linearity_residual,
        "verdict": report.verdict,
    }


def cmd_demo(args) -> int:
    dims = (2, 2)
    hamiltonian = BlochHamiltonian(
        dims, 0.0, [0.0, 0.0, 0.6], [0.4, 0.0, 0.3], _DEMO_H12
    )
    config = _parse_options({"seed": args.seed}, "--seed", AuditConfig(ensemble_size=16))

    # Showcase (a): interaction-weighted nonlinear law.  Prove it is
    # genuinely nonlinear (its joint field differs from the linear one),
    # then audit it.
    law_a = xi_law("corrnorm")
    rng = np.random.default_rng(args.seed)
    field_gap = 0.0
    for _ in range(8):
        state = random_interior_joint(rng, dims)
        weighted = vector_field(law_a, hamiltonian, state)
        linear = vector_field(linear_law(), hamiltonian, state)
        gaps = (float(np.max(np.abs(a - b))) for a, b in zip(weighted, linear))
        field_gap = max(field_gap, *gaps)
    row_a = _demo_row(law_a, field_gap, audit(law_a, hamiltonian, config))

    # Showcase (b): local nonlinear drift; audited and exercised as an
    # operational channel on the singlet.
    law_b = polesink_law(0.1)
    report_b = audit(law_b, BlochHamiltonian(dims), config)
    delta, _ = signaling_channel_demo(
        law_b,
        singlet_state(),
        computational_observable(2),
        fourier_observable(2),
        computational_observable(2),
        t=1.0,
    )
    rows = [row_a, _demo_row(law_b, delta, report_b)]

    as_expected = [row["verdict"] for row in rows] == ["pass", "signaling-detected"]
    if args.json:
        _emit_report({"seed": args.seed, "rows": rows, "as_expected": as_expected}, args)
    else:
        lines = [
            f"{'law':<22} {'nonlinearity':>13} {'max residual':>13} {'verdict':>20}",
            "-" * 72,
        ]
        for row in rows:
            lines.append(
                f"{row['law']:<22} {row['nonlinearity']:>13.4e} "
                f"{row['max_residual']:>13.4e} {row['verdict']:>20}"
            )
        lines.append("")
        lines.append(
            "nonlinear-but-silent law passes; local nonlinear drift is flagged"
            if as_expected
            else "UNEXPECTED verdicts — see rows above"
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if as_expected else 1


# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """Built once; ``main`` looks up ``cmd_<subcommand>`` at call time."""
    parser = argparse.ArgumentParser(
        prog="blochsig",
        description="Bloch-coordinate dynamics and no-signaling audits",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="dump generators and structure constants")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("convert", help="convert between matrix and coordinate JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("evolve", help="integrate a configured evolution")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--check-oracle", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("audit", help="run the no-signaling audit")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("demo", help="paired pass/fail showcase")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--no-timestamp", action="store_true")

    return parser


# The error contract: (error type, stderr label, exit code), first match wins.
# ``{type}`` in a label is the error's class name.  Exit 1 must only ever mean
# "signaling detected", so anything unexpected is an internal error, exit 3.
_ERRORS = (
    (ConfigError, "config", 2),
    (InvalidDimensionError, "dimension", 2),
    (UnphysicalStateError, "state", 2),
    (NonFiniteGeneratorError, "hamiltonian", 2),
    (IntegrationFailureError, "integration", 3),
    (BlochSigError, "{type}", 2),
    (OSError, "io", 2),
    (Exception, "internal: {type}", 3),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except Exception as exc:
        label, code = next((label, code) for kind, label, code in _ERRORS if isinstance(exc, kind))
        print(f"error: {label.format(type=type(exc).__name__)}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
