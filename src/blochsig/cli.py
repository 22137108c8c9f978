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
    to_bloch,
    validate_density_matrix,
)
from .dynamics import (
    BlochHamiltonian,
    EvolutionLaw,
    evolve_path,
    linear_law,
    xi_law,
)
from .errors import (
    BlochSigError,
    ConfigError,
    IntegrationFailureError,
    InvalidDimensionError,
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
from .sampling import random_density, singlet_state
from .su_basis import build_generators, cached_basis, structure_constants
from .version import __version__

__all__ = ["main"]


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Config parsing (field-addressed errors)


def _load_json(path: str, field: str) -> dict:
    import json

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
    return int(value)


def _parse_dim(raw, path: str) -> int:
    value = _parse_int(raw, path)
    if value < 2:
        raise ConfigError(path, "dimensions must be >= 2")
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
        if not isinstance(raw["file"], str):
            raise ConfigError("hamiltonian.file", "must be a path")
        raw = _load_json(str(base_dir / raw["file"]), "hamiltonian.file")
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
    if name == "polesink":
        eps = _finite(raw.get("epsilon", 0.1))
        if eps is None or eps <= 0:
            raise ConfigError("law.epsilon", "must be a positive finite number")
        return polesink_law(eps)
    raise ConfigError("law.name", f"unknown law {name!r} (linear | xi | polesink)")


def _product_state(dims: tuple[int, int]) -> JointBlochState:
    # Mild polarization along each party's last (diagonal) axis; physical
    # for every dimension.
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    r1 = np.zeros(d1)
    r1[-1] = 0.4
    r2 = np.zeros(d2)
    r2[-1] = 0.4
    return JointBlochState(dims, r1, r2, np.outer(r1, r2))


def _parse_state(cfg: dict, dims: tuple[int, int], key: str = "initial_state") -> JointBlochState:
    raw = _require(cfg, key, "")
    if isinstance(raw, str):
        if raw == "singlet":
            if dims != (2, 2):
                raise ConfigError(key, "preset 'singlet' needs dims [2, 2]")
            return singlet_state()
        if raw == "product":
            return _product_state(dims)
        if raw.startswith("random:"):
            seed = raw.split(":", 1)[1]
            if not seed.isdecimal():
                raise ConfigError(key, "random preset must look like 'random:SEED', SEED >= 0")
            rng = np.random.default_rng(int(seed))
            rho = random_density(rng, dims[0] * dims[1])
            return joint_to_bloch(rho, cached_basis(dims[0]), cached_basis(dims[1]))
        raise ConfigError(key, f"unknown preset {raw!r} (singlet | product | random:SEED)")
    if not isinstance(raw, dict):
        raise ConfigError(key, "must be a preset name or {r1, r2, r12}")
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    r1 = _parse_real_array(_require(raw, "r1", key), (d1,), f"{key}.r1")
    r2 = _parse_real_array(_require(raw, "r2", key), (d2,), f"{key}.r2")
    r12 = _parse_real_array(_require(raw, "r12", key), (d1, d2), f"{key}.r12")
    state = JointBlochState(dims, r1, r2, r12)
    try:
        joint_from_bloch(state, cached_basis(dims[0]), cached_basis(dims[1]), check=True)
    except UnphysicalStateError as exc:
        raise ConfigError(key, f"not a physical state ({exc})")
    return state


def _parse_complex_matrix(raw, dim: int, path: str) -> np.ndarray:
    if not isinstance(raw, dict) or "re" not in raw:
        raise ConfigError(path, "must be an object with `re` (and optional `im`)")
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
    ``integrator``."""
    if raw is None:
        return default
    if not isinstance(raw, dict):
        raise ConfigError(path, "must be an object")
    kwargs = {}
    for field in dataclasses.fields(default):
        key = "integrator" if field.name == "branch_options" else field.name
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
        {"seed": seed_override}, "audit", config
    )


# ---------------------------------------------------------------------------
# Subcommands


def _matrix_json(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def cmd_basis(args) -> int:
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
    data = _load_json(args.infile, "input")
    if "matrix_re" in data and "dim" in data:
        n = _parse_dim(data["dim"], "dim")
        rho = _parse_complex_matrix(
            {"re": data["matrix_re"], "im": data.get("matrix_im", np.zeros((n, n)).tolist())},
            n,
            "matrix",
        )
        validate_density_matrix(rho)
        state = to_bloch(rho, cached_basis(n))
        payload = {"dim": n, "r": state.r.tolist()}
    elif "matrix_re" in data and "dims" in data:
        dims = _parse_dims(data)
        nn = dims[0] * dims[1]
        rho = _parse_complex_matrix(
            {"re": data["matrix_re"], "im": data.get("matrix_im", np.zeros((nn, nn)).tolist())},
            nn,
            "matrix",
        )
        validate_density_matrix(rho)
        state = joint_to_bloch(rho, cached_basis(dims[0]), cached_basis(dims[1]))
        payload = {
            "dims": list(dims),
            "r1": state.r1.tolist(),
            "r2": state.r2.tolist(),
            "r12": state.r12.tolist(),
        }
    elif "r" in data and "dim" in data:
        n = _parse_dim(data["dim"], "dim")
        r = _parse_real_array(data["r"], (n**2 - 1,), "r")
        rho = from_bloch(BlochState(n, r), cached_basis(n))
        payload = {"dim": n, "matrix_re": np.real(rho).tolist(), "matrix_im": np.imag(rho).tolist()}
    elif "r1" in data and "dims" in data:
        dims = _parse_dims(data)
        state = _parse_state({"state": data}, dims, key="state")
        rho = joint_from_bloch(state, cached_basis(dims[0]), cached_basis(dims[1]))
        payload = {
            "dims": list(dims),
            "matrix_re": np.real(rho).tolist(),
            "matrix_im": np.imag(rho).tolist(),
        }
    else:
        raise ConfigError(
            "input", "expected {dim|dims, matrix_re[, matrix_im]} or {dim, r} or {dims, r1, r2, r12}"
        )
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
    dims = _parse_dims(cfg)
    law = _parse_law(cfg)
    hamiltonian = _parse_hamiltonian(cfg, dims, Path(args.config).parent)
    state0 = _parse_state(cfg, dims)
    times = sorted(_parse_times(cfg.get("times", [0.0, 0.25, 0.5, 0.75, 1.0]), "times"))
    options = _parse_options(cfg.get("integrator"), "integrator", DEFAULT_OPTIONS)
    if args.check_oracle and law.kind != "linear":
        raise ConfigError("law", "--check-oracle requires the linear law")

    samples = evolve_path(law, hamiltonian, state0, times, options)
    records = []
    oracle_dev = 0.0
    for t, result in samples:
        rec = {
            "t": t,
            "r1": result.state.r1.tolist(),
            "r2": result.state.r2.tolist(),
            "r12": result.state.r12.tolist(),
            "physical": result.physical,
            "min_eigenvalue": result.min_eigenvalue,
        }
        if args.check_oracle:
            ref = _unitary_oracle_coords(hamiltonian, state0, dims, t)
            dev = max(
                float(np.max(np.abs(result.state.r1 - ref.r1))),
                float(np.max(np.abs(result.state.r2 - ref.r2))),
                float(np.max(np.abs(result.state.r12 - ref.r12))),
            )
            rec["oracle_deviation"] = dev
            oracle_dev = max(oracle_dev, dev)
        records.append(rec)

    if args.format == "csv":
        d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
        header = (
            ["t", "physical", "min_eigenvalue"]
            + [f"r1_{i}" for i in range(d1)]
            + [f"r2_{j}" for j in range(d2)]
            + [f"r12_{i}_{j}" for i in range(d1) for j in range(d2)]
        )
        rows = [header]
        for t, result in samples:
            rows.append(
                [t, int(result.physical), result.min_eigenvalue]
                + list(result.state.r1)
                + list(result.state.r2)
                + list(result.state.r12.ravel())
            )
        _emit(jsonio.csv_text(rows), args.out)
        return 0

    payload = {"law": law.name, "dims": list(dims), "samples": records}
    if args.check_oracle:
        payload["oracle_max_deviation"] = oracle_dev
    if not args.no_timestamp:
        payload["timestamp"] = _timestamp()
    _emit(jsonio.dumps(payload), args.out)
    return 0


def _parse_channel_demo(cfg: dict, dims: tuple[int, int], config: AuditConfig):
    """The optional two-observable demo: (state, remote_a, remote_b, local,
    time), or None when the config has no ``channel_demo``."""
    demo_cfg = cfg.get("channel_demo")
    if demo_cfg is None:
        return None
    if not isinstance(demo_cfg, dict):
        raise ConfigError("channel_demo", "must be an object")
    state = _parse_state(demo_cfg, dims)
    obs_a = _parse_observable(
        _require(demo_cfg, "remote_a", "channel_demo"), dims[1], "channel_demo.remote_a"
    )
    obs_b = _parse_observable(
        _require(demo_cfg, "remote_b", "channel_demo"), dims[1], "channel_demo.remote_b"
    )
    local = _parse_observable(
        _require(demo_cfg, "local", "channel_demo"), dims[0], "channel_demo.local"
    )
    t_demo = _parse_time(demo_cfg.get("time", max(config.times)), "channel_demo.time")
    return state, obs_a, obs_b, local, t_demo


def cmd_audit(args) -> int:
    cfg = _load_json(args.config, "config")
    dims = _parse_dims(cfg)
    law = _parse_law(cfg)
    hamiltonian = _parse_hamiltonian(cfg, dims, Path(args.config).parent)
    config = _parse_audit_config(cfg, args.seed)

    demo = _parse_channel_demo(cfg, dims, config)

    report = audit(law, hamiltonian, config)
    payload = report.to_dict()

    if demo is not None:
        state, obs_a, obs_b, local, t_demo = demo
        delta, (pa, pb) = signaling_channel_demo(
            law, state, obs_a, obs_b, local, t_demo,
            h_local=hamiltonian.h1, options=config.branch_options,
        )
        payload["channel_demo"] = {
            "time": t_demo,
            "delta": delta,
            "distribution_a": pa.tolist(),
            "distribution_b": pb.tolist(),
            "remote_a": obs_a.to_json(),
            "remote_b": obs_b.to_json(),
            "local": local.to_json(),
        }

    if not args.no_timestamp:
        payload["timestamp"] = _timestamp()

    if args.format == "csv":
        _emit(jsonio.csv_text(report.csv_rows()), args.out)
    else:
        _emit(jsonio.dumps(payload), args.out)
    return 0 if report.passed else 1


_DEMO_H12 = [[0.5, 0.2, 0.0], [0.0, 0.3, 0.0], [0.1, 0.0, 0.4]]


def cmd_demo(args) -> int:
    dims = (2, 2)
    hamiltonian = BlochHamiltonian(
        dims, 0.0, [0.0, 0.0, 0.6], [0.4, 0.0, 0.3], _DEMO_H12
    )
    config = AuditConfig(seed=args.seed, ensemble_size=16)
    rows = []
    expected = {"xi:corrnorm": "pass"}

    # Showcase (a): interaction-weighted nonlinear law.  Prove it is
    # genuinely nonlinear (its joint field differs from the linear one),
    # then audit it.
    law_a = xi_law("corrnorm")
    from .dynamics import vector_field
    from .sampling import random_interior_joint

    rng = np.random.default_rng(args.seed)
    field_gap = 0.0
    for _ in range(8):
        state = random_interior_joint(rng, dims)
        weighted = vector_field(law_a, hamiltonian, state)
        linear = vector_field(linear_law(), hamiltonian, state)
        gaps = (float(np.max(np.abs(a - b))) for a, b in zip(weighted, linear))
        field_gap = max(field_gap, *gaps)
    report_a = audit(law_a, hamiltonian, config)
    rows.append(
        {
            "law": law_a.name,
            "nonlinearity": field_gap,
            "max_residual": max(report_a.residuals().values()),
            "linearity_residual": report_a.linearity_residual,
            "verdict": report_a.verdict,
        }
    )

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
    rows.append(
        {
            "law": law_b.name,
            "nonlinearity": delta,
            "max_residual": max(report_b.residuals().values()),
            "linearity_residual": report_b.linearity_residual,
            "verdict": report_b.verdict,
        }
    )
    expected[law_b.name] = "signaling-detected"

    as_expected = all(row["verdict"] == expected[row["law"]] for row in rows)
    if args.json:
        payload = {"seed": args.seed, "rows": rows, "as_expected": as_expected}
        if not args.no_timestamp:
            payload["timestamp"] = _timestamp()
        _emit(jsonio.dumps(payload), args.out)
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except InvalidDimensionError as exc:
        print(f"error: dimension: {exc}", file=sys.stderr)
        return 2
    except UnphysicalStateError as exc:
        print(f"error: state: {exc}", file=sys.stderr)
        return 2
    except IntegrationFailureError as exc:
        print(f"error: integration: {exc}", file=sys.stderr)
        return 3
    except BlochSigError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 must only ever mean "signaling detected"
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
