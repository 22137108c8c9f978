"""Numerical no-signaling audits for evolution laws.

A law keeps party 2's measurement choice invisible to party 1 exactly when
party 1's outcome distribution (:func:`blochsig.measurement.local_distribution`)
is insensitive to

1. party 2's reduced coordinates,
2. the shared correlation block, and
3. which observable party 2 measured.

The audit computes all three sensitivities by the chain rule (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008): party 1's
distribution is a branch-weighted average behind an affine collapse, so
each derivative is one contraction of the branch Jacobians of party 1's
flow with the outcome coordinates of both parties, exact to rounding, with
nothing subtracted and no state moved.  Only the flow Jacobian of a flow
without a generator is a complex step (Squire & Trapp, SIAM Rev. 40, 110
(1998); Martins, Sturdza & Alonso, ACM TOMS 29, 245 (2003)); a flow with a
generator supplies its cached propagator.  They are *total* derivatives:
they run through the branch weights, the collapsed states and the evolved
trajectories alike — that is the quantity an eavesdropper could actually
exploit.  A fourth number, the reduced-propagator residual, measures
whether isolated subsystems evolve by a state-independent affine map, as
every local CPTP map does; every law that fails any of the four at the pass
tolerance is flagged as signaling.

Numerical hygiene notes baked into the defaults:

* Branch trajectories integrate with a fixed-step method, so the numerical
  flow is analytic in its initial condition.  Every component, remote
  outcome and member forms one stacked call (:mod:`blochsig.measurement`):
  one for both of party 2's coordinate blocks and one for the measurement
  choice, which reuses the first one's propagation; one trajectory serves
  every audit time whose step grid nests.
* No state is moved, so pure states are audited like any other.  Only a
  component moving a zero-weight branch, which the average drops, is
  flagged infeasible (its derivative is one-sided), never skipped.
* Measurement-choice sensitivity is probed along one-parameter rotation
  families of the remote basis, through the tangent ``du/dtheta`` of the
  outcome rows.  Differentiating raw projector coordinates would leave the
  projector manifold; rotations are the valid realization.
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
    _fit_read_off,
    _fit_starts,
    custom_law,
    reduced_flow,
    reduced_generator,
    reduced_propagator_fit,
)
from .errors import DimensionMismatchError, IntegrationFailureError, PerturbationInfeasibleError
from .integrate import IntegratorOptions, _require_number, rk4_grid
from .measurement import (
    ProjectiveObservable,
    _member_distributions,
    _observables_from_bases,
    _outcomes,
    _rotation_direction,
    computational_observable,
    local_distribution,  # noqa: F401  (a module attribute perfbench/spans.py wraps)
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


@dataclass(frozen=True, eq=False)
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
        return self.base.u @ reduced_generator(g, self.base.dim).T


def _channel(law, hamiltonian, joints, obs2s, obs1s, times, plan, options, extra=None):
    """``max |dp/dx|`` over party 1's outcomes ``p``, as
    ``[member][row][time]``, of each stepped row ``x`` of each member of the
    equal-length sequences ``joints, obs2s, obs1s`` at each of the ascending
    ``times``; ``plan(dims, obs2s)`` gives the remote outcomes, row names and
    stepped rows (as keywords) that ``_member_distributions`` takes.  Each member is
    checked once (one outside the physical set raises
    ``UnphysicalStateError``), all go into one stacked call, and an outcome
    left unchecked holds its error (see ``_member_distributions``, which
    also takes the ``extra`` rows and says what a call with them returns)."""
    if not (all(isinstance(c, Sequence) for c in (joints, obs2s, obs1s)) and joints):
        raise ValueError("members must be nonempty sequences of states and observables")
    if np.ndim(times) != 1:
        raise ValueError("times must be a sequence of times")
    dims = hamiltonian.dims
    for state, *_ in zip(joints, obs2s, obs1s, strict=True):
        # the steps need no physical neighbours, but the member itself must be a state
        joint_from_bloch(state, *map(cached_basis, state.dims))
        if state.dims != dims:
            raise DimensionMismatchError(f"member dims {state.dims} do not fit dims {dims}")
    remote, names, rows = plan(dims, obs2s)
    slopes, failures, *ridden = _member_distributions(
        np.stack([pack_coords(state) for state in joints]), remote, _outcomes(obs1s, dims, 1), law,
        hamiltonian, list(times), options, names, extra, **rows)
    values = np.max(np.abs(slopes), axis=-1).transpose(1, 2, 0).tolist()
    for (m, i, row), error in failures.items():
        values[m][row][i] = error
    return values if extra is None else (values, *ridden)


def _coordinate_plan(ks, ijs):
    """The plan of one stepped row per packed coordinate ``x_k`` of party
    2: ``r2[k]`` for each ``k`` in ``ks``, then ``r12[i,j]`` for each pair
    in ``ijs``, with the outcomes of the remote observables.  Every index is
    a Python or numpy integer: the public channels check theirs, and the
    audit's sweep makes its own."""
    ks, ijs = [int(k) for k in ks], [(int(i), int(j)) for i, j in ijs]

    def plan(dims, remotes):
        d1, d2 = (n**2 - 1 for n in dims)
        if not all(0 <= k < d2 for k in ks):
            raise ValueError(f"component must lie in [0, {d2})")
        if not all(0 <= i < d1 and 0 <= j < d2 for i, j in ijs):
            raise ValueError(f"component must lie in [0, {d1}) x [0, {d2})")
        index = [d1 + k for k in ks] + [d1 + d2 + i * d2 + j for i, j in ijs]
        names = [f"r2[{k}]" for k in ks] + [f"r12[{i},{j}]" for i, j in ijs]
        return _outcomes(remotes, dims, 2), names, {"index": index}

    return plan


def d_remote_state(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    joint: Sequence[JointBlochState],
    obs2: Sequence[ProjectiveObservable],
    obs1: Sequence[ProjectiveObservable],
    t: Sequence[float],
    component: Sequence[int],
    options: IntegratorOptions | None = None,
) -> list:
    """Sensitivity of party 1's distribution to coordinates of party 2's
    reduced state, maximized over local outcomes.

    ``joint``, ``obs2`` and ``obs1`` are equal-length sequences of M ensemble
    members, ``t`` an ascending sequence of times and ``component`` a
    sequence of C integer indices; the result is ``[member][component][time]``.
    Every member, time and component comes from a single batched
    propagation; an outcome left unchecked holds its error instead.  A bare
    member, time or component, or a component that is not an integer,
    raises ``ValueError``."""
    if np.ndim(component) != 1:
        raise ValueError("component must be a sequence of indices")
    _require_number(Integral, **{f"component[{n}]": k for n, k in enumerate(component)})
    plan = _coordinate_plan(component, [])
    return _channel(law, hamiltonian, joint, obs2, obs1, t, plan, options)


def d_correlations(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    joint: Sequence[JointBlochState],
    obs2: Sequence[ProjectiveObservable],
    obs1: Sequence[ProjectiveObservable],
    t: Sequence[float],
    component: Sequence[tuple[int, int]],
    options: IntegratorOptions | None = None,
) -> list:
    """Sensitivity to elements ``(i, j)`` of the shared correlation block:
    ``component`` is a sequence of C pairs of integers (a bare pair raises
    ``ValueError``); the members, ``t`` and the result as for
    :func:`d_remote_state`."""
    if np.size(component) and np.shape(component)[1:] != (2,):
        raise ValueError("component must be a sequence of (i, j) pairs")
    _require_number(Integral, **{f"component[{n}][{m}]": c for n, ij in enumerate(component)
                                 for m, c in enumerate(ij)})
    plan = _coordinate_plan([], component)
    return _channel(law, hamiltonian, joint, obs2, obs1, t, plan, options)


def d_remote_observable(
    law: EvolutionLaw,
    hamiltonian: BlochHamiltonian,
    joint: Sequence[JointBlochState],
    family: Sequence[ObservableFamily],
    obs1: Sequence[ProjectiveObservable],
    t: Sequence[float],
    options: IntegratorOptions | None = None,
) -> list:
    """Sensitivity to the remote measurement choice along a rotation family
    at its base, along the tangent ``du/dtheta`` of the outcome rows; the members,
    ``t`` and the result (one ``theta`` component) as for :func:`d_remote_state`."""
    def plan(dims, families):
        u0, u = _outcomes([fam.base for fam in families], dims, 2)
        tangents = np.zeros_like(u)
        for tangent, fam in zip(tangents, families):
            tangent[: len(fam.base)] = fam.tangent()
        return (u0, u), ["theta"], {"tangents": tangents}

    return _channel(law, hamiltonian, joint, family, obs1, t, plan, options)


# ---------------------------------------------------------------------------
# Ensemble audit


@lru_cache(maxsize=16)
def _anchor_observables(n1: int, n2: int):
    """The anchor's rotation family (the computational basis rotated by
    pi/4 about the antisymmetric (0,1) generator, along that generator) and
    its local observable, built once per dims and read-only."""
    direction = 0.5 * cached_basis(n2).matrices[1]
    direction.setflags(write=False)
    base = rotate_observable(computational_observable(n2), direction, math.pi / 4.0)
    return ObservableFamily(base, direction), computational_observable(n1)


def _anchor_state(dims: tuple[int, int], config: AuditConfig, rng) -> JointBlochState:
    """Canonical probe: a strongly correlated state, measured with a remote
    basis anchored halfway along a fixed rotation.

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
    return interior_joint_state(rho, dims, config.mix_weight)


def _ensemble(dims: tuple[int, int], config: AuditConfig, rng) -> tuple[list, ...]:
    """The members as the four columns the channels take: joint states,
    remote observables, local observables and ``ObservableFamily``s (each
    based at its member's remote observable).  The anchor comes first, then
    ``ensemble_size - 1`` random members from one block of standard normals,
    one row per member.  A row holds, in this order, the ``(2, n, n)``
    normals of the member's joint state, remote basis, local basis and
    rotation direction: a Hilbert-Schmidt density mixed by ``mix_weight``,
    two Haar bases (the columns of ``haar_unitaries``) and a
    ``hermitian_directions`` axis.  ``tests/helpers.reference_ensemble``
    draws the same members one object at a time, bit for bit."""
    n1, n2 = dims
    anchor = _anchor_state(dims, config, rng)
    family, local = _anchor_observables(n1, n2)
    sides = (n1 * n2, n2, n1, n2)
    sizes = [2 * n * n for n in sides]
    block = rng.standard_normal((config.ensemble_size - 1, sum(sizes)))
    parts = np.split(block, np.cumsum(sizes)[:-1], axis=1)
    state_normals, remote_normals, local_normals, direction_normals = (
        part.reshape(len(block), 2, n, n) for part, n in zip(parts, sides)
    )
    states = [anchor, *(interior_joint_state(rho, dims, config.mix_weight)
                        for rho in hs_densities(state_normals))]
    remotes = [family.base, *_observables_from_bases(
        haar_unitaries(remote_normals).swapaxes(-1, -2), cached_basis(n2))]
    locals_ = [local, *_observables_from_bases(
        haar_unitaries(local_normals).swapaxes(-1, -2), cached_basis(n1))]
    families = [family, *map(ObservableFamily, remotes[1:],
                             hermitian_directions(direction_normals))]
    return states, remotes, locals_, families


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
    Two batched channel calls, each over every member and audit time,
    give each outcome its value or the error that left it unchecked: one
    sweep over all of party 2's coordinates (``r2``, then ``r12``), split
    back into the ``d_remote_state`` and ``d_correlations`` channels, and
    one ``d_remote_observable`` call.  Under a flow without a generator the
    second call reuses the first one's linearized branches; under rk4 the
    linearity fit's start rows ride in that same batch and are read at
    ``max(times)``, so a nonlinear audit makes one rk4 propagation in all.
    Elsewhere the fit runs alone, before the sweep.  :func:`_report` reads
    the report off the outcomes.
    """
    config = config or AuditConfig()
    dims = hamiltonian.dims
    s_members, s_fit = np.random.SeedSequence(config.seed).spawn(2)
    states, remotes, locals_, families = _ensemble(dims, config, np.random.default_rng(s_members))
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    opts = config.branch_options
    grid = sorted(set(config.times))
    t_fit, fit_seed = max(config.times), int(s_fit.generate_state(1)[0])
    # One sweep over party 2's coordinates serves both state channels: each
    # member's rows are r2, then r12, split at d2 into the two channels.
    sweep = _coordinate_plan(range(d2), [(i, j) for i in range(d1) for j in range(d2)])
    if reduced_flow(law, hamiltonian.h1, dims[0]).generator is None and opts.method == "rk4":
        # The fit's rows ride in the sweep's linearization, which reads them
        # at max(times): one rk4 propagation for both.  Its step count is
        # checked first, so a fit that cannot run ends the audit as it would
        # alone.  (rkf45 solves every row from 0 at every time, and a flow
        # with a generator fits by one cached product: they fit alone.)
        rk4_grid(t_fit, opts)
        starts = _fit_starts(dims[0], config.fit_probes, fit_seed)
        coords, ends = _channel(law, hamiltonian, states, remotes, locals_, grid, sweep, opts,
                                extra=starts)
        _, linearity = _fit_read_off(starts, ends[-1], t_fit, opts)
    else:
        # The fit runs first: an integrator failure there ends the audit, so
        # it ends it before the channel sweep rather than after.
        _, linearity = reduced_propagator_fit(
            law, hamiltonian, t_fit, config.fit_probes, fit_seed, opts)
        coords = _channel(law, hamiltonian, states, remotes, locals_, grid, sweep, opts)
    theta = d_remote_observable(law, hamiltonian, states, families, locals_, grid, options=opts)
    runs = ([rows[:d2] for rows in coords], [rows[d2:] for rows in coords], theta)
    return _report(law.name, dims, config, runs, linearity)


def _report(law_name, dims, config, runs, linearity) -> AuditReport:
    """The audit's report of the channel outcomes ``runs`` (per channel,
    ``[member][component][time]`` in the audit's component order for
    ``dims`` and on the sorted distinct ``config.times``, each a value or an
    error) and the ``linearity`` residual, read in one walk in member, time
    (config order), channel, component order.  Failures are recorded per
    case, excluded from the maxima and rule out a pass, since no-signaling
    went unchecked there.  A channel's worst case is its first largest
    value; a row's is its last."""
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    channels = ("d_remote_state", "d_correlations", "d_remote_observable")
    labels = ([str(k) for k in range(d2)], [f"{i},{j}" for i in range(d1) for j in range(d2)],
              ["theta"])
    at = {t: i for i, t in enumerate(sorted(set(config.times)))}
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
        failures.append({"member": None, "time": max(config.times), "channel": "linearity",
                         "component": "-", "reason": f"linearity residual is not finite "
                         f"({linearity!r})", "status": "non-finite"})
    overall = max(maxima.values())
    checked = overall <= config.pass_tolerance and linearity <= config.pass_tolerance
    verdict = VERDICT_PASS if checked and not failures else VERDICT_SIGNALING
    if linearity > overall:
        worst_overall = {"channel": "linearity", "value": linearity}
    else:
        top = max(channels, key=lambda ch: maxima[ch])
        worst_overall = {"channel": top, **worst[top]}
    return AuditReport(
        law=law_name,
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
    hamiltonian: BlochHamiltonian | None = None,
    options: IntegratorOptions | None = None,
):
    """Operational two-party witness: party 2 measures either obs_a or
    obs_b; the total-variation distance between party 1's resulting
    distributions is the signaling capacity of the channel (zero for any
    law whose measurement-choice sensitivity vanishes along the connecting
    family).  Both observables' branches propagate as one batch, under
    the ``hamiltonian``'s party-1 block (``None``: zero)."""
    h = hamiltonian or BlochHamiltonian(joint.dims)
    dist, failures = _member_distributions(
        np.tile(pack_coords(joint), (2, 1)), _outcomes([obs_a, obs_b], h.dims, 2),
        _outcomes([local_obs] * 2, h.dims, 1), law, h, [t], options)
    if failures:
        raise failures[min(failures)]
    pa, pb = dist[0, :, 0]
    return 0.5 * float(np.sum(np.abs(pa - pb))), (pa, pb)


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

    poles = {}  # the pole vector e of each length, built once per law

    def reduced(h_local, r):
        r = np.asarray(r)  # complex rows stay complex: the audit's tangent rows
        e = poles.get(r.shape[-1])
        if e is None:
            e = poles[r.shape[-1]] = np.zeros(r.shape[-1])
            e[-1] = 1.0
            e.setflags(write=False)
        return eps * (e - r[..., -1:] * r)

    def joint(hamiltonian, r1, r2, r12):
        return reduced(None, r1), reduced(None, r2), np.zeros_like(r12)

    return custom_law(f"polesink(eps={eps:g})", reduced_field=reduced, joint_field=joint)
