"""Numerical no-signaling audits for evolution laws.

A law keeps party 2's measurement choice invisible to party 1 exactly when
party 1's outcome distribution (:func:`blochsig.measurement.local_distribution`)
is insensitive to

1. party 2's reduced coordinates,
2. the shared correlation block, and
3. which observable party 2 measured.

The audit computes all three sensitivities by complex steps: the row
``x + i eps e_k`` carries ``eps dp/dx_k`` in the imaginary part of every
probability ``p`` it yields, exact to machine precision, with nothing
subtracted and the real part of the state never moved (Squire & Trapp,
SIAM Rev. 40, 110 (1998); Martins, Sturdza & Alonso, ACM TOMS 29, 245
(2003)).  They are *total* derivatives: the step re-enters the branch
weights, the collapsed states and the evolved trajectories alike — that is
the quantity an eavesdropper could actually exploit.  A fourth number, the
reduced-propagator residual, measures whether isolated subsystems evolve by
a state-independent affine map, as every local CPTP map does; every law
that fails any of the four at the pass tolerance is flagged as signaling.

Numerical hygiene notes baked into the defaults:

* Branch trajectories integrate with a fixed-step method, so the numerical
  flow is analytic in its initial condition.  Every component and every
  remote outcome of every member (a leading member axis) form one batch per
  channel, and one trajectory serves every audit time whose step grid nests.
* No step has to stay physical, so pure states are audited like any other.
  Only a component moving a zero-weight branch, which the average drops,
  is flagged infeasible (its derivative is one-sided), never skipped.
* Measurement-choice sensitivity is probed along one-parameter rotation
  families of the remote basis, by the complex step ``u + i eps du/dtheta``
  of the outcome rows.  Differentiating raw projector coordinates would
  leave the projector manifold; rotations are the valid realization.
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
from dataclasses import asdict, dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .bloch import JointBlochState, joint_from_bloch, pack_coords
from .dynamics import (
    DEFAULT_BRANCH_OPTIONS,
    BlochHamiltonian,
    EvolutionLaw,
    custom_law,
    reduced_generator,
    reduced_propagator_fit,
)
from .errors import IntegrationFailureError, PerturbationInfeasibleError
from .integrate import IntegratorOptions, _require_number
from .measurement import (
    ProjectiveObservable,
    _member_distributions,
    _observables_from_bases,
    _outcome_rows,
    _rotation_direction,
    computational_observable,
    local_distribution,  # noqa: F401  (a module attribute perfbench/spans.py wraps)
    packed_distributions,
    rotate_observable,
)
from .sampling import (
    haar_unitaries,
    hermitian_directions,
    hs_densities,
    interior_joint_state,
    maximally_entangled_density,
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

VERDICT_PASS = "pass"
VERDICT_SIGNALING = "signaling-detected"

# The complex step: far below any coordinate, so its square vanishes beside
# every real part, and far above the smallest normal float.
_EPS = 1e-30


@dataclass(frozen=True)
class AuditConfig:
    """Knobs of the audit sweep; defaults match the shipped acceptance runs."""

    pass_tolerance: float = 1e-6
    ensemble_size: int = 50
    times: tuple = (0.25, 0.5, 1.0)
    seed: int = 0
    mix_weight: float = 0.2
    branch_options: IntegratorOptions = DEFAULT_BRANCH_OPTIONS
    fit_probes: int = 20

    def __post_init__(self):
        _require_number(Real, pass_tolerance=self.pass_tolerance, mix_weight=self.mix_weight,
                        **{f"times[{i}]": t for i, t in enumerate(self.times)})
        if not (math.isfinite(self.pass_tolerance) and self.pass_tolerance > 0):
            raise ValueError("pass_tolerance must be positive and finite")
        _require_number(Integral, ensemble_size=self.ensemble_size, seed=self.seed,
                        fit_probes=self.fit_probes)
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
        names = {"branch_options": "branch_integrator"}
        return {names.get(k, k): list(v) if k == "times" else v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class ObservableFamily:
    """One-parameter rotation of a remote observable: outcomes conjugated by
    exp(-i theta G) for a fixed Hermitian direction G (as
    :func:`blochsig.measurement.rotate_observable` does at angle theta,
    whose checks of G run at construction)."""

    base: ProjectiveObservable
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "direction", _rotation_direction(self.direction, self.base.dim))

    def tangent(self) -> np.ndarray:
        """``du/dtheta`` of every outcome row at theta = 0: ``u @ L_G^T``,
        where ``L_G = reduced_generator(1/2 Re Tr(s_a G))`` generates the
        rotation of Bloch coordinates by exp(-i theta G)."""
        s = cached_basis(self.base.dim).matrices
        g = 0.5 * np.real(np.einsum("aij,ji->a", s, self.direction))
        return self.base.u_matrix() @ reduced_generator(g, self.base.dim).T


def _channel(law, hamiltonian, joint, obs2, obs1, t, plan, options, single):
    """``max |Im p| / _EPS`` over party 1's outcomes ``p`` per complex-step
    row (the first only when ``single``), a float per time or a list per
    time sequence, for one member ``joint, obs2, obs1`` or each of sequences
    of them; ``plan(joint, obs2)`` gives a member's rows, outcomes and row
    names.  Every member's branches propagate as one batch.  A member
    outside the physical set raises ``UnphysicalStateError``, and a row
    moving a dropped branch ``PerturbationInfeasibleError`` (see
    :func:`blochsig.measurement.packed_distributions`)."""
    if isinstance(joint, JointBlochState):
        return _channel(law, hamiltonian, [joint], [obs2], [obs1], t, plan, options, single)[0]
    members = list(zip(joint, obs2, obs1, strict=True))
    if not members:
        raise ValueError("a member sequence needs at least one member")

    def planned():  # one member at a time: its rows are dropped once collapsed
        for state, remote, local in members:
            # the steps need no physical neighbours, but the member itself must be a state
            joint_from_bloch(state, *map(cached_basis, state.dims))
            x, u0, u, names = plan(state, remote)
            yield x, u0, u, local, names

    dists = _member_distributions(planned(), members[0][0].dims, law,
                                  [t] if np.ndim(t) == 0 else list(t),
                                  h_local=hamiltonian.h1, options=options)
    out = []
    for d in dists:
        values = (np.max(np.abs(d.imag), axis=-1) / _EPS).T.tolist()
        values = [v[0] for v in values] if np.ndim(t) == 0 else values
        out.append(values[0] if single else values)
    return out


def _state_rows(joint, obs2, index, names):
    """One complex-step row ``x + i _EPS e_k`` of ``joint`` per packed
    coordinate ``k`` in ``index``, the outcomes of ``obs2`` and the names."""
    x = np.tile(pack_coords(joint).astype(complex), (len(index), 1))
    x[np.arange(len(index)), index] += 1j * _EPS
    return x, obs2.u0_vector(), obs2.u_matrix(), names


def d_remote_state(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    joint: JointBlochState | Sequence[JointBlochState],
    obs2: ProjectiveObservable | Sequence[ProjectiveObservable],
    obs1: ProjectiveObservable | Sequence[ProjectiveObservable],
    t: float | Sequence[float],
    component: int | Sequence[int],
    options: IntegratorOptions | None = None,
) -> float | list:
    """Sensitivity of party 1's distribution to one coordinate of party 2's
    reduced state, maximized over local outcomes.

    ``t`` is one time, giving a float, or an ascending sequence of times,
    giving one value per time.  ``component`` is one index, or a sequence
    of them (shape ``(C,)``), giving one such result per component.
    ``joint``, ``obs2`` and ``obs1`` are one ensemble member, or equal-length
    sequences of M members (shape ``(M,)``), giving one such result per
    member.  Every member, time and component comes from a single batched
    propagation; a member that fails makes the whole call raise."""
    ks = [int(k) for k in np.reshape(component, -1)]

    def plan(state, remote):
        d1, d2 = (n**2 - 1 for n in state.dims)
        if not all(0 <= k < d2 for k in ks):
            raise ValueError(f"component must lie in [0, {d2})")
        return _state_rows(state, remote, [d1 + k for k in ks], [f"r2[{k}]" for k in ks])

    return _channel(law, hamiltonian, joint, obs2, obs1, t, plan, options,
                    single=np.ndim(component) == 0)


def d_correlations(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    joint: JointBlochState | Sequence[JointBlochState],
    obs2: ProjectiveObservable | Sequence[ProjectiveObservable],
    obs1: ProjectiveObservable | Sequence[ProjectiveObservable],
    t: float | Sequence[float],
    component: tuple[int, int] | Sequence[tuple[int, int]],
    options: IntegratorOptions | None = None,
) -> float | list:
    """Sensitivity to one element ``(i, j)`` of the shared correlation
    block, or to each of a sequence of them (shape ``(C, 2)``); ``t``, the
    members and the results as for :func:`d_remote_state`."""
    ijs = [(int(i), int(j)) for i, j in np.reshape(component, (-1, 2))]

    def plan(state, remote):
        d1, d2 = (n**2 - 1 for n in state.dims)
        if not all(0 <= i < d1 and 0 <= j < d2 for i, j in ijs):
            raise ValueError(f"component must lie in [0, {d1}) x [0, {d2})")
        return _state_rows(state, remote, [d1 + d2 + i * d2 + j for i, j in ijs],
                           [f"r12[{i},{j}]" for i, j in ijs])

    return _channel(law, hamiltonian, joint, obs2, obs1, t, plan, options,
                    single=np.ndim(component) == 1)


def d_remote_observable(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    joint: JointBlochState | Sequence[JointBlochState],
    family: ObservableFamily | Sequence[ObservableFamily],
    obs1: ProjectiveObservable | Sequence[ProjectiveObservable],
    t: float | Sequence[float],
    options: IntegratorOptions | None = None,
) -> float | list:
    """Sensitivity to the remote measurement choice along a rotation family
    at its base, from the outcome rows ``u + i _EPS du/dtheta``; ``t`` and
    the members as for :func:`d_remote_state`."""
    def plan(state, fam):
        u = fam.base.u_matrix() + 1j * _EPS * fam.tangent()
        return pack_coords(state)[None], fam.base.u0_vector(), u, ["theta"]

    return _channel(law, hamiltonian, joint, family, obs1, t, plan, options, single=True)


# ---------------------------------------------------------------------------
# Ensemble audit


@dataclass(frozen=True)
class AuditCase:
    state: JointBlochState
    obs_remote: ProjectiveObservable
    obs_local: ProjectiveObservable
    direction: np.ndarray  # rotation axis for the observable family


@lru_cache(maxsize=16)
def _anchor_observables(n1: int, n2: int):
    """The anchor's remote observable (the computational basis rotated by
    pi/4 about the antisymmetric (0,1) generator), its local observable and
    that direction, built once per dims and read-only."""
    direction = 0.5 * cached_basis(n2).matrices[1]
    direction.setflags(write=False)
    obs_remote = rotate_observable(computational_observable(n2), direction, math.pi / 4.0)
    return obs_remote, computational_observable(n1), direction


def _anchor_case(dims: tuple[int, int], config: AuditConfig, rng) -> AuditCase:
    """Canonical probe: a strongly correlated state with a remote basis
    anchored halfway along a fixed rotation.

    Product states hide measurement-choice sensitivity (their conditionals
    do not depend on the remote choice at all), and symmetric anchors such
    as an unrotated basis on a maximally entangled state can sit exactly at
    a stationary point of the sensitivity.  The half-rotated anchor on a
    maximally entangled state (a random pure one, the generator's first
    draw, when ``n1 != n2``), mixed by ``mix_weight``, avoids both blind
    spots.
    """
    n1, n2 = dims
    if dims == (2, 2):
        rho = singlet_density()
    elif n1 == n2:
        rho = maximally_entangled_density(n1)
    else:
        rho = random_pure_density(rng, n1 * n2)
    obs_remote, obs_local, direction = _anchor_observables(n1, n2)
    state = interior_joint_state(rho, dims, config.mix_weight)
    return AuditCase(state, obs_remote, obs_local, direction)


def _ensemble(dims: tuple[int, int], config: AuditConfig, rng) -> list[AuditCase]:
    """The anchor, then ``ensemble_size - 1`` random members from one block
    of standard normals, one row per member.  A row holds, in this order,
    the ``(2, n, n)`` normals of the member's joint state, remote basis,
    local basis and rotation direction, so a member is the one that the
    single samplers (``random_interior_joint``, ``random_orthonormal_basis``
    twice, ``random_hermitian_direction``) draw in turn, bit for bit."""
    n1, n2 = dims
    cases = [_anchor_case(dims, config, rng)]
    sides = (n1 * n2, n2, n1, n2)
    sizes = [2 * n * n for n in sides]
    block = rng.standard_normal((config.ensemble_size - 1, sum(sizes)))
    parts = np.split(block, np.cumsum(sizes)[:-1], axis=1)
    state_normals, remote_normals, local_normals, direction_normals = (
        part.reshape(len(block), 2, n, n) for part, n in zip(parts, sides)
    )
    states = [interior_joint_state(rho, dims, config.mix_weight)
              for rho in hs_densities(state_normals)]
    remotes = _observables_from_bases(haar_unitaries(remote_normals).swapaxes(-1, -2),
                                      cached_basis(n2))
    locals_ = _observables_from_bases(haar_unitaries(local_normals).swapaxes(-1, -2),
                                      cached_basis(n1))
    directions = hermitian_directions(direction_normals)
    cases += [AuditCase(*member) for member in zip(states, remotes, locals_, directions)]
    return cases


def _outcomes(call, members, components, times) -> list:
    """Each member's sensitivity per component and time, or the error that
    left it unchecked, from one ``call(members, times, components)``: a
    failed batch of several members reruns each member alone.  For one
    member, an infeasible component fails at every time, so its batch splits
    into single components.  An integrator failure may hit only later times,
    so its batch reruns one time at a time with every component, and only a
    time that still fails splits into single components.
    """
    try:
        return call(members, times, components)
    except (PerturbationInfeasibleError, IntegrationFailureError) as exc:
        if len(members) > 1:
            return [_outcomes(call, [m], components, times)[0] for m in members]
        if isinstance(exc, IntegrationFailureError) and len(times) > 1:
            per_time = [_outcomes(call, members, components, [t])[0] for t in times]
            return [[[run[i][0] for run in per_time] for i in range(len(components))]]
        if len(components) == 1:
            return [[[exc] * len(times)]]
    return [[_outcomes(call, members, [c], times)[0][0] for c in components]]


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
    Each channel makes one call over every member, component and audit
    time (one batched branch propagation); when it fails, ``_outcomes``
    reruns each member alone.  The report is read off the outcomes in one
    walk, in member, time (config order), channel, component order.
    Partial failures (infeasible perturbations, integrator giving up,
    non-finite sensitivities or linearity residual) are recorded per case
    and excluded from the maxima; a failure also rules out a pass, since
    no-signaling went unchecked there.
    """
    config = config or AuditConfig()
    dims = hamiltonian.dims
    seq = np.random.SeedSequence(config.seed)
    s_members, s_fit = seq.spawn(2)
    cases = _ensemble(dims, config, np.random.default_rng(s_members))
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    opts = config.branch_options

    channels = ("d_remote_state", "d_correlations", "d_remote_observable")
    grid = sorted(set(config.times))
    at = {t: i for i, t in enumerate(grid)}
    components = (list(range(d2)), [(i, j) for i in range(d1) for j in range(d2)], [None])
    labels = ([str(k) for k in components[0]], [f"{i},{j}" for i, j in components[1]], ["theta"])
    remote = [(case.state, case.obs_remote, case.obs_local) for case in cases]
    rotated = [(case.state, ObservableFamily(case.obs_remote, case.direction), case.obs_local)
               for case in cases]
    calls = (  # each takes a list of members and gives one result per member
        lambda ms, ts, cs: d_remote_state(law, hamiltonian, *zip(*ms), ts, cs, options=opts),
        lambda ms, ts, cs: d_correlations(law, hamiltonian, *zip(*ms), ts, cs, options=opts),
        lambda ms, ts, _: [[v] for v in d_remote_observable(law, hamiltonian, *zip(*ms), ts,
                                                            options=opts)],
    )
    # The fit runs first: an integrator failure there ends the audit, so it
    # ends it before the channel sweep rather than after.
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
    runs = [_outcomes(call, members, c, grid)
            for call, members, c in zip(calls, (remote, remote, rotated), components)]
    # One walk in member, time (config order), channel, component order: a
    # channel's worst case is its first largest value; a row's is its last.
    infeasible, failures, rows = [], [], []
    maxima, worst = dict.fromkeys(channels, 0.0), {ch: {} for ch in channels}
    for m, outcomes in enumerate(zip(*runs)):
        for t in config.times:
            for ch, names, per_member in zip(channels, labels, outcomes):
                best, last = None, "ok"
                for label, per_time in zip(names, per_member):
                    value = per_time[at[t]]
                    if isinstance(value, PerturbationInfeasibleError):
                        last, reason = "infeasible", str(value)
                    elif isinstance(value, IntegrationFailureError):
                        last, reason = "integration-failure", str(value)
                    elif not math.isfinite(value):
                        last, reason = "non-finite", f"sensitivity is not finite ({value!r})"
                    else:
                        if value > maxima[ch]:
                            maxima[ch] = value
                            worst[ch] = {"member": m, "time": t, "component": label, "value": value}
                        if best is None or value >= best[1]:
                            best = (label, value)
                        continue
                    where = {"member": m, "time": t, "channel": ch, "component": label,
                             "reason": reason}
                    if last == "infeasible":
                        infeasible.append(where)
                    else:
                        failures.append({**where, "status": last})
                rows.append({
                    "member": m, "time": t, "channel": ch,
                    "component": best[0] if best else "-",
                    "value": best[1] if best else math.nan,
                    "status": f"partial:{last}" if best and last != "ok" else last,
                })

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
    family).  Both observables' branches propagate as one batch."""
    u0, u = _outcome_rows((obs_a, obs_b), joint.dims[1])
    pa, pb = packed_distributions(
        np.tile(pack_coords(joint), (2, 1)), u0, u, joint.dims, local_obs, law, [t],
        h_local=h_local, options=options,
    )[0]
    delta = 0.5 * float(np.sum(np.abs(pa - pb)))
    return delta, (pa, pb)


@lru_cache(maxsize=64)
def polesink_law(epsilon: float = 0.1) -> EvolutionLaw:
    """Positive control for the detector: a local nonlinear drift.

    Reduced field ``dr/dt = eps * (e - (r.e) r)`` with ``e`` the unit
    vector on the last coordinate axis.  For a qubit this preserves the
    unit sphere and sinks everything toward the +pole; on the polar axis it
    is the logistic flow ``dz/dt = eps (1 - z^2)`` with solution
    ``z(t) = tanh(eps t + artanh z0)``.  The flow is manifestly nonlinear
    in its initial condition and acts on each party separately, so the
    audit must flag it.  The joint extension applies the same drift to both
    reduced blocks and leaves correlations frozen.  Laws are memoized, so
    the shared reduced flow of one ``epsilon`` is built once."""
    eps = float(epsilon)

    def reduced(h_local, r):
        r = np.asarray(r)  # complex rows stay complex: the audit's steps
        e = np.zeros(r.shape[-1])
        e[-1] = 1.0
        return eps * (e - r[..., -1:] * r)

    def joint(hamiltonian, r1, r2, r12):
        return reduced(None, r1), reduced(None, r2), np.zeros_like(r12)

    return custom_law(f"polesink(eps={eps:g})", reduced_field=reduced, joint_field=joint)
