"""The three workloads of the blochsig benchmark.

Each workload is a closed loop with one client: a researcher waits for each
trajectory or verdict before asking for the next.  Inputs are made from the
seed one *round* at a time.  A round is a fixed mix of operations (law x
dims), so the mix a run sees does not drift with the seed or with where the
clock stops; only the generated values (Hamiltonians, states, times, audit
seeds) change.  The library receives only those generated inputs.

Every operation has a timed ``run`` and an untimed ``check``.  The check
returns whether the result is correct, plus a fingerprint of the result that
lets a traced and an untraced pass over the same inputs be compared.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from blochsig import cli, dynamics, nosignal_audit, sampling
from blochsig.bloch import joint_from_bloch, joint_to_bloch
from blochsig.measurement import computational_observable, fourier_observable
from blochsig.su_basis import cached_basis

# Bound before any tracer is installed, so fingerprinting a report is never
# counted as the library's own JSON work.
from blochsig.jsonio import dumps as report_text

ALL_DIMS = ((2, 2), (2, 3), (3, 3))
ORACLE_TOL = 1e-6
SPECTRUM_TOL = 1e-6
CHANNEL_TOL = 1e-4
# The 2x2 audit is anchored on the singlet, where the remote-observable
# channel of the positive control exceeds 1e-2 (acceptance criterion 6).  A
# 2x3 audit is anchored on a random pure state and reads ~1e-3 there, so it
# must only clear the audit's own pass tolerance.
MIN_SIGNAL_2X2 = 1e-2
# Frac part of k * GOLDEN is a low-discrepancy sequence: each slot's
# evolution times cover U(0.2, 1.0) evenly over however many rounds run.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``TINY`` exists only for the benchmark's own tests."""

    dims: tuple = ALL_DIMS
    audit_ensemble: int = 8
    polesink_ensemble: int = 4
    # Two 2x2 audits (~1.5 s) per 2x3 audit (~4.8 s): with one of each, the
    # median op time would fall in the gap between the two sizes and jump
    # between the slowest 2x2 and the fastest 2x3 from run to run.
    polesink_dims: tuple = ((2, 2), (2, 3), (2, 2))
    indexed_dims: tuple = ((2, 2),)


FULL = Size()
TINY = Size(dims=((2, 2),), audit_ensemble=2, polesink_ensemble=1,
            polesink_dims=((2, 2),))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _law(name: str) -> dynamics.EvolutionLaw:
    if name == "linear":
        return dynamics.linear_law()
    preset = name.split(":")[1]
    if name.endswith(":indexed"):
        return dynamics.xi_law(dynamics.xi_preset(preset).as_indexed())
    return dynamics.xi_law(preset)


def _hamiltonian(rng: np.random.Generator, dims) -> dynamics.BlochHamiltonian:
    """Random interacting Hamiltonian with a fixed coefficient norm.

    rkf45 step counts grow with |H| t, so fixing the norm keeps the cost of a
    round from drifting with the seed; the direction stays random.
    """
    h = dynamics.random_hamiltonian(rng, dims, scale=0.5, interaction=True)
    coeffs = np.concatenate([h.h1, h.h2, h.h12.ravel()])
    c = 0.5 * math.sqrt(coeffs.size) / float(np.linalg.norm(coeffs))
    return dynamics.BlochHamiltonian(dims, 0.0, c * h.h1, c * h.h2, c * h.h12)


def _pack(state) -> np.ndarray:
    return np.concatenate([state.r1, state.r2, state.r12.ravel()])


def _density(state) -> np.ndarray:
    n1, n2 = state.dims
    return joint_from_bloch(state, cached_basis(n1), cached_basis(n2), check=False)


def _unitary_oracle(hamiltonian, state0, t: float) -> np.ndarray:
    """Packed coordinates of U rho U^dagger with U = exp(-i H t)."""
    n1, n2 = hamiltonian.dims
    w, v = np.linalg.eigh(hamiltonian.matrix())
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    rho = u @ _density(state0) @ u.conj().T
    return _pack(joint_to_bloch(rho, cached_basis(n1), cached_basis(n2)))


# ---------------------------------------------------------------------------
# evolve_joint


def _evolve_slots(size: Size) -> list[tuple[str, tuple]]:
    laws = ("linear", "xi:one", "xi:corrnorm", "xi:purity1")
    slots = [(law, dims) for dims in size.dims for law in laws]
    return slots + [("xi:corrnorm:indexed", dims) for dims in size.indexed_dims]


def _evolve_op(law_name, hamiltonian, state0, t) -> Op:
    law = _law(law_name)

    def run():
        return dynamics.evolve(law, hamiltonian, state0, t)

    def check(result):
        final = result.state
        ok = True
        if law_name in ("linear", "xi:one"):
            oracle = _unitary_oracle(hamiltonian, state0, t)
            ok = float(np.max(np.abs(_pack(final) - oracle))) <= ORACLE_TOL
        if law_name != "linear":
            # The xi field is a commutator with a state-dependent Hermitian
            # Hamiltonian, so the spectrum of rho cannot change.
            before = np.linalg.eigvalsh(_density(state0))
            after = np.linalg.eigvalsh(_density(final))
            ok = ok and float(np.max(np.abs(after - before))) <= SPECTRUM_TOL
        return ok, _digest(_pack(final).tobytes())

    return Op(f"evolve {law_name} {dims_label(hamiltonian.dims)}", run, check)


def evolve_joint_round(seed: int, index: int, size: Size, workdir: Path) -> list[Op]:
    slots = _evolve_slots(size)
    offsets = np.random.default_rng([seed, 0xE701]).random(len(slots))
    rng = np.random.default_rng([seed, index])
    ops = []
    for slot, (law_name, dims) in enumerate(slots):
        hamiltonian = _hamiltonian(rng, dims)
        state0 = sampling.random_interior_joint(rng, dims)
        t = 0.2 + 0.8 * ((offsets[slot] + index * GOLDEN) % 1.0)
        ops.append(_evolve_op(law_name, hamiltonian, state0, t))
    return ops


# ---------------------------------------------------------------------------
# audit_linear


def _audit_config_file(path: Path, law_name: str, hamiltonian, ensemble: int, seed: int):
    law = "linear" if law_name == "linear" else {"name": "xi", "preset": law_name[3:]}
    cfg = {
        "dims": list(hamiltonian.dims),
        "law": law,
        "hamiltonian": {
            "H1": hamiltonian.h1.tolist(),
            "H2": hamiltonian.h2.tolist(),
            "H12": hamiltonian.h12.tolist(),
        },
        "audit": {"ensemble_size": ensemble, "seed": seed},
    }
    path.write_text(json.dumps(cfg), encoding="utf-8")


def _cli_audit_op(config: Path, out: Path, label: str) -> Op:
    argv = ["audit", "--config", str(config), "--no-timestamp", "--out", str(out)]

    def run():
        return cli.main(argv)

    def check(code):
        text = out.read_bytes()
        report = json.loads(text)
        tol = report["pass_tolerance"]
        ok = (
            code == 0
            and report["verdict"] == "pass"
            and all(v <= tol for v in report["residuals"].values())
        )
        return ok, _digest(text)

    return Op(label, run, check)


def audit_linear_round(seed: int, index: int, size: Size, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, index])
    ops = []
    for dims in size.dims:
        for law_name in ("linear", "xi:corrnorm", "xi:purity1"):
            hamiltonian = _hamiltonian(rng, dims)
            audit_seed = int(rng.integers(2**31))
            stem = f"audit-{index}-{law_name.replace(':', '_')}-{dims[0]}x{dims[1]}"
            config = workdir / f"{stem}.json"
            _audit_config_file(config, law_name, hamiltonian, size.audit_ensemble, audit_seed)
            ops.append(_cli_audit_op(config, workdir / f"{stem}.out.json",
                                     f"audit {law_name} {dims_label(dims)}"))
    return ops


# ---------------------------------------------------------------------------
# audit_nonlinear


def _polesink_op(dims, eps: float, audit_seed: int, t_demo: float, ensemble: int) -> Op:
    law = nosignal_audit.polesink_law(eps)
    hamiltonian = dynamics.BlochHamiltonian(dims)
    config = nosignal_audit.AuditConfig(seed=audit_seed, ensemble_size=ensemble)
    singlet = sampling.singlet_state()
    comp, fourier = computational_observable(2), fourier_observable(2)
    min_signal = MIN_SIGNAL_2X2 if dims == (2, 2) else config.pass_tolerance

    def run():
        report = nosignal_audit.audit(law, hamiltonian, config)
        delta, _ = nosignal_audit.signaling_channel_demo(
            law, singlet, comp, fourier, comp, t_demo
        )
        return report, delta

    def check(result):
        report, delta = result
        ok = (
            report.verdict == "signaling-detected"
            and report.max_d_remote_observable > min_signal
            and abs(delta - math.tanh(eps * t_demo) / 2.0) <= CHANNEL_TOL
        )
        text = report_text(report.to_dict()) + repr(delta)
        return ok, _digest(text.encode("utf-8"))

    return Op(f"polesink(eps={eps:.3f}) {dims_label(dims)}", run, check)


def audit_nonlinear_round(seed: int, index: int, size: Size, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, index])
    ops = []
    for dims in size.polesink_dims:
        eps = float(rng.uniform(0.08, 0.12))
        audit_seed = int(rng.integers(2**31))
        t_demo = float(rng.uniform(0.5, 1.0))
        ops.append(_polesink_op(dims, eps, audit_seed, t_demo, size.polesink_ensemble))
    return ops


# ---------------------------------------------------------------------------


def dims_label(dims) -> str:
    return f"{dims[0]}x{dims[1]}"


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[int, int, Size, Path], list[Op]]
    dims_in_use: Callable[[Size], tuple]


WORKLOADS = {
    "evolve_joint": Workload(
        "evolve_joint", evolve_joint_round, lambda s: s.dims + s.indexed_dims
    ),
    "audit_linear": Workload("audit_linear", audit_linear_round, lambda s: s.dims),
    "audit_nonlinear": Workload(
        "audit_nonlinear", audit_nonlinear_round, lambda s: s.polesink_dims
    ),
}
