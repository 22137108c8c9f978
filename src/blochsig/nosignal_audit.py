"""Numerical no-signaling audits for evolution laws.

A law keeps party 2's measurement choice invisible to party 1 exactly when
party 1's outcome distribution (:func:`blochsig.measurement.local_distribution`)
is insensitive to

1. party 2's reduced coordinates,
2. the shared correlation block, and
3. which observable party 2 measured.

The audit estimates all three sensitivities by central differences and
treats them as *total* derivatives: the perturbed parameter re-enters the
branch weights, the collapsed states and the evolved trajectories alike —
that is the quantity an eavesdropper could actually exploit.  A fourth
number, the reduced-propagator residual, measures whether isolated
subsystems evolve by a state-independent matrix; every law that fails any
of the four at the pass tolerance is flagged as signaling.

Numerical hygiene notes baked into the defaults:

* Branch trajectories integrate with a fixed-step method so the numerical
  flow is smooth in its initial condition; adaptive step-acceptance noise
  would otherwise be amplified by the 1/(2h) of the central difference.
  Both signs of a component and every remote outcome form one batch, and
  one trajectory serves every audit time whose step grid nests.
* Ensembles sample full-rank states (Hilbert-Schmidt draws shrunk toward
  the maximally mixed state) so coordinate perturbations stay physical; if
  one still falls outside, the step is halved up to six times and then the
  component is flagged infeasible rather than silently skipped.
* Measurement-choice sensitivity is probed along one-parameter rotation
  families of the remote basis.  Differentiating raw projector coordinates
  would leave the projector manifold; rotations are the valid realization.
* Every case, draw and summation runs in a fixed order, so a seeded audit
  is reproducible bit for bit.

The bundled ``polesink`` law is a deliberately signaling positive control
(a local nonlinear drift toward one pole); the audit must flag it, and the
two-observable channel demo on the singlet has the closed-form capacity
witness tanh(eps*t)/2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bloch import JointBlochState, joint_from_bloch, pack_coords, unpack_coords
from .dynamics import (
    BlochHamiltonian,
    EvolutionLaw,
    custom_law,
    reduced_propagator_fit,
)
from .errors import (
    DimensionMismatchError,
    IntegrationFailureError,
    PerturbationInfeasibleError,
    UnphysicalStateError,
)
from .integrate import IntegratorOptions
from .measurement import (
    ProjectiveObservable,
    computational_observable,
    local_distribution,
    local_distributions,
    observable_from_basis,
    rotate_observable,
)
from .sampling import (
    interior_joint_state,
    maximally_entangled_density,
    random_hermitian_direction,
    random_interior_joint,
    random_orthonormal_basis,
    random_pure_density,
    singlet_density,
)
from .su_basis import cached_basis
from .version import __version__

__all__ = [
    "DEFAULT_BRANCH_OPTIONS",
    "AuditConfig",
    "AuditReport",
    "ObservableFamily",
    "d_remote_state",
    "d_correlations",
    "d_remote_observable",
    "audit",
    "signaling_channel_demo",
    "polesink_law",
]

# Fixed-step branch propagation: smooth in the initial condition, cheap to
# cache for laws with linear reduced flows.
DEFAULT_BRANCH_OPTIONS = IntegratorOptions(method="rk4", step=0.01)

VERDICT_PASS = "pass"
VERDICT_SIGNALING = "signaling-detected"


@dataclass(frozen=True)
class AuditConfig:
    """Knobs of the audit sweep; defaults match the shipped acceptance runs."""

    fd_step: float = 1e-5
    pass_tolerance: float = 1e-6
    ensemble_size: int = 50
    times: tuple = (0.25, 0.5, 1.0)
    seed: int = 0
    mix_weight: float = 0.2
    branch_options: IntegratorOptions = DEFAULT_BRANCH_OPTIONS
    fit_probes: int = 20

    def __post_init__(self):
        if not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise ValueError("fd_step must be positive and finite")
        if not (math.isfinite(self.pass_tolerance) and self.pass_tolerance > 0):
            raise ValueError("pass_tolerance must be positive and finite")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if self.seed < 0 or self.fit_probes < 0:
            raise ValueError("seed and fit_probes must be >= 0")
        times = tuple(float(t) for t in self.times)
        if not times or not all(math.isfinite(t) and t >= 0 for t in times):
            raise ValueError("times must be nonempty, finite and nonnegative")
        object.__setattr__(self, "times", times)
        if not 0.0 <= self.mix_weight < 1.0:
            raise ValueError("mix_weight must lie in [0, 1)")

    def to_dict(self) -> dict:
        return {
            "fd_step": self.fd_step,
            "pass_tolerance": self.pass_tolerance,
            "ensemble_size": self.ensemble_size,
            "times": list(self.times),
            "seed": self.seed,
            "mix_weight": self.mix_weight,
            "branch_integrator": {
                "method": self.branch_options.method,
                "step": self.branch_options.step,
                "atol": self.branch_options.atol,
                "rtol": self.branch_options.rtol,
            },
            "fit_probes": self.fit_probes,
        }


@dataclass(frozen=True)
class ObservableFamily:
    """One-parameter rotation of a remote observable: outcomes conjugated by
    exp(-i theta G) for a fixed Hermitian direction G."""

    base: ProjectiveObservable
    direction: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.direction, dtype=complex)
        if g.shape != (self.base.dim, self.base.dim):
            raise DimensionMismatchError(
                f"direction must be {(self.base.dim, self.base.dim)}, got {g.shape}"
            )
        object.__setattr__(self, "direction", g)

    def at(self, theta: float) -> ProjectiveObservable:
        if theta == 0.0:
            return self.base
        return rotate_observable(self.base, self.direction, theta)


def _central_difference(law, hamiltonian, branch, obs1, t, h, options):
    """``max |p(+h) - p(-h)| / 2h`` over party 1's outcomes, where
    ``branch(delta)`` gives the joint state and remote observable at offset
    delta.  ``t`` is one time (a float comes back) or an ascending sequence
    (a list comes back, one value per time); the branches of both signs
    propagate as one batch either way."""
    scalar = np.ndim(t) == 0
    dists = local_distributions(
        [branch(+h), branch(-h)], obs1, law, [t] if scalar else list(t),
        h_local=hamiltonian.h1, options=options or DEFAULT_BRANCH_OPTIONS,
    )
    values = [float(np.max(np.abs(plus - minus)) / (2.0 * h)) for plus, minus in dists]
    return values[0] if scalar else values


def _state_difference(law, hamiltonian, joint, obs2, obs1, t, index, what, fd_step, options):
    """Central difference along packed coordinate ``index`` of the joint
    state.  The step starts at ``fd_step`` and is halved, at most six
    times, while either perturbed state is unphysical."""
    x = pack_coords(joint)

    def shifted(delta):
        y = x.copy()
        y[index] += delta
        return unpack_coords(y, joint.dims)

    b1, b2 = cached_basis(joint.dims[0]), cached_basis(joint.dims[1])
    h = fd_step
    for _ in range(7):
        try:
            joint_from_bloch(shifted(+h), b1, b2, check=True)
            joint_from_bloch(shifted(-h), b1, b2, check=True)
            break
        except UnphysicalStateError:
            h *= 0.5
    else:
        raise PerturbationInfeasibleError(
            f"perturbation of {what} leaves the physical set even at step {2 * h:.3e}"
        )
    return _central_difference(
        law, hamiltonian, lambda delta: (shifted(delta), obs2), obs1, t, h, options
    )


def d_remote_state(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    joint: JointBlochState,
    obs2: ProjectiveObservable,
    obs1: ProjectiveObservable,
    t: float | Sequence[float],
    component: int,
    fd_step: float = 1e-5,
    options: IntegratorOptions | None = None,
) -> float | list[float]:
    """Sensitivity of party 1's distribution to one coordinate of party 2's
    reduced state, maximized over local outcomes.

    ``t`` is one time, giving a float, or an ascending sequence of times,
    giving one value per time from a single batched propagation."""
    d1, d2 = joint.dims[0] ** 2 - 1, joint.dims[1] ** 2 - 1
    if not 0 <= component < d2:
        raise ValueError(f"component must lie in [0, {d2})")
    return _state_difference(
        law, hamiltonian, joint, obs2, obs1, t, d1 + component,
        f"r2[{component}]", fd_step, options,
    )


def d_correlations(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    joint: JointBlochState,
    obs2: ProjectiveObservable,
    obs1: ProjectiveObservable,
    t: float | Sequence[float],
    component: tuple[int, int],
    fd_step: float = 1e-5,
    options: IntegratorOptions | None = None,
) -> float | list[float]:
    """Sensitivity to one element of the shared correlation block; ``t`` as
    for :func:`d_remote_state`."""
    i, j = component
    d1, d2 = joint.dims[0] ** 2 - 1, joint.dims[1] ** 2 - 1
    if not (0 <= i < d1 and 0 <= j < d2):
        raise ValueError(f"component must lie in [0, {d1}) x [0, {d2})")
    return _state_difference(
        law, hamiltonian, joint, obs2, obs1, t, d1 + d2 + i * d2 + j,
        f"r12[{i},{j}]", fd_step, options,
    )


def d_remote_observable(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    joint: JointBlochState,
    family: ObservableFamily,
    obs1: ProjectiveObservable,
    t: float | Sequence[float],
    fd_step: float = 1e-5,
    options: IntegratorOptions | None = None,
) -> float | list[float]:
    """Sensitivity to the remote measurement choice along a rotation family;
    ``t`` as for :func:`d_remote_state`."""
    if family.base.dim != joint.dims[1]:
        raise DimensionMismatchError(
            f"family dim {family.base.dim} != second subsystem dim {joint.dims[1]}"
        )
    return _central_difference(
        law, hamiltonian, lambda delta: (joint, family.at(delta)), obs1, t, fd_step, options
    )


# ---------------------------------------------------------------------------
# Ensemble audit


@dataclass(frozen=True)
class AuditCase:
    index: int
    state: JointBlochState
    obs_remote: ProjectiveObservable
    obs_local: ProjectiveObservable
    direction: np.ndarray  # rotation axis for the observable family


def _anchor_case(dims: tuple[int, int], config: AuditConfig, rng) -> AuditCase:
    """Deterministic canonical probe: a strongly correlated full-rank state
    with a remote basis anchored halfway along a fixed rotation.

    Product states hide measurement-choice sensitivity (their conditionals
    do not depend on the remote choice at all), and symmetric anchors such
    as an unrotated basis on a maximally entangled state can sit exactly at
    a stationary point of the sensitivity.  The half-rotated anchor on a
    smoothed maximally entangled state avoids both blind spots.
    """
    n1, n2 = dims
    if dims == (2, 2):
        rho = singlet_density()
    elif n1 == n2:
        rho = maximally_entangled_density(n1)
    else:
        rho = random_pure_density(rng, n1 * n2)
    state = interior_joint_state(rho, dims, config.mix_weight)
    direction = 0.5 * cached_basis(n2).matrices[1]  # antisymmetric (0,1) generator
    obs_remote = rotate_observable(computational_observable(n2), direction, math.pi / 4.0)
    return AuditCase(0, state, obs_remote, computational_observable(n1), direction)


def _ensemble(dims: tuple[int, int], config: AuditConfig, rng) -> list[AuditCase]:
    n1, n2 = dims
    b1, b2 = cached_basis(n1), cached_basis(n2)
    cases = [_anchor_case(dims, config, rng)]
    for i in range(1, config.ensemble_size):
        state = random_interior_joint(rng, dims, config.mix_weight)
        obs2 = observable_from_basis(random_orthonormal_basis(rng, n2), b2)
        obs1 = observable_from_basis(random_orthonormal_basis(rng, n1), b1)
        direction = random_hermitian_direction(rng, n2)
        cases.append(AuditCase(i, state, obs2, obs1, direction))
    return cases


def _per_time(call, times) -> list:
    """Each time's sensitivity, or the error that left it unchecked.

    ``call(times)`` covers every time in one batch.  An integrator failure
    there may hit only the later times, so the times are then rerun one by
    one and each keeps its own result or error.
    """
    try:
        return call(times)
    except PerturbationInfeasibleError as exc:
        return [exc] * len(times)
    except IntegrationFailureError:
        pass
    out = []
    for t in times:
        try:
            out.append(call(t))
        except (PerturbationInfeasibleError, IntegrationFailureError) as exc:
            out.append(exc)
    return out


@dataclass(frozen=True)
class AuditReport:
    """Aggregated sensitivities, verdict, and the configurations behind them."""

    law: str
    dims: tuple[int, int]
    max_d_remote_state: float
    max_d_correlations: float
    max_d_remote_observable: float
    linearity_residual: float
    verdict: str
    worst_case: dict
    per_channel_worst: dict
    infeasible: tuple
    failures: tuple
    cases: tuple
    config: AuditConfig

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_PASS

    def residuals(self) -> dict:
        return {
            "d_remote_state": self.max_d_remote_state,
            "d_correlations": self.max_d_correlations,
            "d_remote_observable": self.max_d_remote_observable,
            "linearity": self.linearity_residual,
        }

    def to_dict(self) -> dict:
        return {
            "version": __version__,
            "law": self.law,
            "dims": list(self.dims),
            "residuals": self.residuals(),
            "pass_tolerance": self.config.pass_tolerance,
            "verdict": self.verdict,
            "worst_case": dict(self.worst_case),
            "per_channel_worst": {k: dict(v) for k, v in self.per_channel_worst.items()},
            "infeasible": [dict(x) for x in self.infeasible],
            "failures": [dict(x) for x in self.failures],
            "config": self.config.to_dict(),
            "cases": [dict(c) for c in self.cases],
        }

    def csv_rows(self) -> list[list]:
        rows = [["member", "time", "channel", "component", "value", "status"]]
        for c in self.cases:
            rows.append(
                [c["member"], c["time"], c["channel"], c["component"], c["value"], c["status"]]
            )
        return rows


def audit(
    law: EvolutionLaw, hamiltonian: BlochHamiltonian, config: AuditConfig | None = None
) -> AuditReport:
    """Sweep a seeded ensemble and aggregate the four signaling residuals.

    Branch evolution is the isolated flow of party 1 driven by the local
    part of the Hamiltonian — interactions are switched off during the
    audit window, which is what spatial separation means operationally.
    Each finite-difference component is one call covering every audit
    time (one batched branch propagation); rows still come out per member,
    time and channel, in config order.  Partial failures (infeasible
    perturbations, integrator giving up, non-finite sensitivities or
    linearity residual) are recorded per case and excluded from the
    maxima; a failure also rules out a pass, since no-signaling went
    unchecked there.
    """
    config = config or AuditConfig()
    dims = hamiltonian.dims
    seq = np.random.SeedSequence(config.seed)
    s_members, s_fit = seq.spawn(2)
    cases = _ensemble(dims, config, np.random.default_rng(s_members))
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1

    channels = ("d_remote_state", "d_correlations", "d_remote_observable")
    maxima = {ch: 0.0 for ch in channels}
    worst = {ch: {} for ch in channels}
    rows: list[dict] = []
    infeasible: list[dict] = []
    failures: list[dict] = []

    def record(channel, case, t, label, outcome):
        entry = {"member": case.index, "time": t, "channel": channel, "component": label}
        if isinstance(outcome, PerturbationInfeasibleError):
            infeasible.append({**entry, "reason": str(outcome)})
            return "infeasible"
        if isinstance(outcome, IntegrationFailureError):
            failures.append({**entry, "reason": str(outcome), "status": "integration-failure"})
            return "integration-failure"
        if not math.isfinite(outcome):
            failures.append(
                {**entry, "reason": f"sensitivity is not finite ({outcome!r})",
                 "status": "non-finite"}
            )
            return "non-finite"
        if outcome > maxima[channel]:
            maxima[channel] = outcome
            worst[channel] = {"member": case.index, "time": t, "component": label, "value": outcome}
        return "ok"

    opts = config.branch_options
    fd = {"fd_step": config.fd_step, "options": opts}

    # One call per component covers every audit time; rows, maxima and
    # failure records then follow member, time, channel, component order.
    grid = sorted(set(config.times))
    at = {t: i for i, t in enumerate(grid)}
    for case in cases:
        family = ObservableFamily(case.obs_remote, case.direction)
        table = (
            [("d_remote_state", str(k), d_remote_state, case.obs_remote, {"component": k})
             for k in range(d2)]
            + [("d_correlations", f"{i},{j}", d_correlations, case.obs_remote,
                {"component": (i, j)}) for i in range(d1) for j in range(d2)]
            + [("d_remote_observable", "theta", d_remote_observable, family, {})]
        )
        runs = {ch: [] for ch in channels}
        for channel, label, d_fn, remote, args in table:
            call = partial(d_fn, law, hamiltonian, case.state, remote, case.obs_local, **args, **fd)
            runs[channel].append((label, _per_time(call, grid)))
        for t in config.times:
            for channel in channels:
                best_value, best_label, row_status = 0.0, "", "ok"
                saw_ok = False
                for label, outcomes in runs[channel]:
                    value = outcomes[at[t]]
                    status = record(channel, case, t, label, value)
                    if status != "ok":
                        row_status = status
                        continue
                    saw_ok = True
                    if value >= best_value:
                        best_value, best_label = value, label
                rows.append(
                    {
                        "member": case.index,
                        "time": t,
                        "channel": channel,
                        "component": best_label if saw_ok else "-",
                        "value": best_value if saw_ok else float("nan"),
                        "status": row_status if not saw_ok else ("ok" if row_status == "ok" else f"partial:{row_status}"),
                    }
                )

    t_fit = max(config.times)
    _, linearity = reduced_propagator_fit(
        law,
        hamiltonian.interaction_free(),
        subsystem=1,
        t=t_fit,
        probes=config.fit_probes,
        seed=int(s_fit.generate_state(1)[0]),
        options=opts,
    )
    if not math.isfinite(linearity):
        failures.append(
            {"member": None, "time": t_fit, "channel": "linearity", "component": "-",
             "reason": f"linearity residual is not finite ({linearity!r})",
             "status": "non-finite"}
        )

    overall = max(maxima.values())
    verdict = (
        VERDICT_PASS
        if overall <= config.pass_tolerance
        and linearity <= config.pass_tolerance
        and not failures
        else VERDICT_SIGNALING
    )
    if linearity > overall:
        worst_overall = {"channel": "linearity", "value": linearity}
    else:
        top = max(channels, key=lambda ch: maxima[ch])
        worst_overall = {"channel": top, **worst[top]}
    return AuditReport(
        law=law.name,
        dims=dims,
        max_d_remote_state=maxima["d_remote_state"],
        max_d_correlations=maxima["d_correlations"],
        max_d_remote_observable=maxima["d_remote_observable"],
        linearity_residual=linearity,
        verdict=verdict,
        worst_case=worst_overall,
        per_channel_worst=worst,
        infeasible=tuple(infeasible),
        failures=tuple(failures),
        cases=tuple(rows),
        config=config,
    )


def signaling_channel_demo(
    law: EvolutionLaw,
    joint: JointBlochState,
    obs_a: ProjectiveObservable,
    obs_b: ProjectiveObservable,
    local_obs: ProjectiveObservable,
    t: float,
    h_local=None,
    options: IntegratorOptions | None = None,
):
    """Operational two-party witness: party 2 measures either obs_a or
    obs_b; the total-variation distance between party 1's resulting
    distributions is the signaling capacity of the channel (zero for any
    law whose measurement-choice sensitivity vanishes along the connecting
    family)."""
    options = options or DEFAULT_BRANCH_OPTIONS
    pa = local_distribution(joint, obs_a, local_obs, law, t, h_local=h_local, options=options)
    pb = local_distribution(joint, obs_b, local_obs, law, t, h_local=h_local, options=options)
    delta = 0.5 * float(np.sum(np.abs(pa - pb)))
    return delta, (pa, pb)


def polesink_law(epsilon: float = 0.1) -> EvolutionLaw:
    """Positive control for the detector: a local nonlinear drift.

    Reduced field ``dr/dt = eps * (e - (r.e) r)`` with ``e`` the unit
    vector on the last coordinate axis.  For a qubit this preserves the
    unit sphere and sinks everything toward the +pole; on the polar axis it
    is the logistic flow ``dz/dt = eps (1 - z^2)`` with solution
    ``z(t) = tanh(eps t + artanh z0)``.  The flow is manifestly nonlinear
    in its initial condition and acts on each party separately, so the
    audit must flag it.  The joint extension applies the same drift to both
    reduced blocks and leaves correlations frozen.
    """
    eps = float(epsilon)

    def reduced(h_local, r):
        r = np.asarray(r, dtype=float)
        e = np.zeros(r.shape[-1])
        e[-1] = 1.0
        return eps * (e - r[..., -1:] * r)

    def joint(hamiltonian, r1, r2, r12):
        return reduced(None, r1), reduced(None, r2), np.zeros_like(r12)

    return custom_law(f"polesink(eps={eps:g})", reduced_field=reduced, joint_field=joint)
