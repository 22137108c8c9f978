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
  flow is analytic in its initial condition.  Every channel is a view of
  the gradient along party 2's packed coordinates, which one stacked call
  (:mod:`blochsig.measurement`) gives for every member and time.
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

import itertools
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .bloch import JointBlochState, joint_frame, joint_from_bloch, pack_coords, unpack_coords
from .dynamics import (
    DEFAULT_BRANCH_OPTIONS,
    BlochHamiltonian,
    EvolutionLaw,
    _fit_read_off,
    _fit_starts,
    _not_finite,
    custom_law,
    reduced_generator,
    reduced_propagator_fit,  # noqa: F401  (a module attribute perfbench/spans.py wraps)
)
from .errors import DimensionMismatchError, PerturbationInfeasibleError
from .integrate import IntegratorOptions, _require_number
from .measurement import (
    EPS_PROB,
    ProjectiveObservable,
    _basis_outcomes,
    _dots,
    _member_distributions,
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
        """``du/dtheta = u @ L_G^T`` of every outcome row at theta = 0."""
        return self.base.u @ _rotation_generators(self.direction, self.base.dim).T


def _rotation_generators(directions, dim: int) -> np.ndarray:
    """``L_G = reduced_generator(1/2 Re Tr(s_a G))``, which rotates outcome
    rows by exp(-i theta G), of each direction ``G`` of a stack ``(..., dim, dim)``."""
    s = cached_basis(dim).matrices
    return reduced_generator(0.5 * np.real(np.einsum("aij,...ji->...a", s, directions)), dim)


def _checked(hamiltonian, joints, obs2s, obs1s, times) -> np.ndarray:
    """The packed states ``(M, D)`` of a public channel's members, refused
    unless the members are equal-length nonempty sequences of physical
    states (else ``UnphysicalStateError``) of the Hamiltonian's dims and
    ``times`` is a sequence.  The audit's own members, which ``_ensemble``
    builds, skip this."""
    if not (all(isinstance(c, Sequence) for c in (joints, obs2s, obs1s)) and joints):
        raise ValueError("members must be nonempty sequences of states and observables")
    if np.ndim(times) != 1:
        raise ValueError("times must be a sequence of times")
    dims = hamiltonian.dims
    for state, *_ in zip(joints, obs2s, obs1s, strict=True):
        # the chain rule needs no physical neighbours, but the member itself must be a state
        joint_from_bloch(state, *map(cached_basis, state.dims))
        if state.dims != dims:
            raise DimensionMismatchError(f"member dims {state.dims} do not fit dims {dims}")
    return np.stack([pack_coords(state) for state in joints])


def _view(values, moved, weights, failures, columns, d2, times, options):
    """``max |dp/dX|`` over party 1's outcomes ``p``, ``(T, M, C)``, of C
    views ``X`` of a stepped call with ``weights`` and ``failures``, and the
    error ``{(time index, member, column): error}`` of each outcome left
    unchecked: signed ``values`` ``(T, M, K1, C)``; ``moved`` ``(M, C, K)``
    marks ``X u_k != 0``; ``columns[c]`` is the packed coordinate ``q`` of
    party 2 (``r2[q]`` or ``r12[i,j]``, ``d2`` in ``r2``) or ``None``
    (``theta``).  One rule gives every status: a view that moves a remote
    outcome of weight <= ``EPS_PROB``, which the average drops, is one-sided
    (``PerturbationInfeasibleError`` at every time); else one that is not
    finite, or whose member's distribution is not (then it holds that
    failure), is an ``IntegrationFailureError``."""
    values = np.max(np.abs(values), axis=2)
    failed = ~np.isfinite(values)
    for m, i in failures:
        failed[i, m] = True
    errors = {(i, m, c): failures.get((m, i)) or _not_finite(options, times[i])
              for i, m, c in np.argwhere(failed).tolist()}
    hits = moved & (weights <= EPS_PROB)[:, None]
    for m, c in np.argwhere(hits.any(axis=-1)).tolist():
        q, k = columns[c], hits[m, c].argmax()
        name = ("theta" if q is None else f"r2[{q}]" if q < d2 else
                "r12[{},{}]".format(*divmod(q - d2, d2)))
        error = PerturbationInfeasibleError(
            f"perturbation of {name} moves remote outcome {k} of weight {weights[m, k]:.3e}, "
            "so only a one-sided derivative exists")
        errors.update(((i, m, c), error) for i in range(len(times)))
    return values, errors


def _as_lists(values, errors) -> list:
    """A view's outcomes as the public channels return them,
    ``[member][component][time]``, each error in place of its value."""
    outcomes = values.transpose(1, 2, 0).tolist()
    for (i, m, c), error in errors.items():
        outcomes[m][c][i] = error
    return outcomes


def _column_view(u, grad, failures, weights, columns, times, options):
    """The outcomes (:func:`_view`) of party 2's packed coordinates ``columns``
    on members with remote outcomes ``u``: ``R_ij`` moves those with ``u_k[j] != 0``."""
    q, d2 = np.asarray(columns, dtype=int), u.shape[-1]
    moved = (u[:, :, q % d2] != 0).swapaxes(1, 2)
    return _view(grad[..., q], moved, weights, failures, q, d2, times, options)


def _coordinates(law, hamiltonian, joints, obs2s, obs1s, times, columns, options):
    """The public outcomes of party 2's packed coordinates ``columns``: one
    stepped call on the checked members, viewed and listed."""
    x = _checked(hamiltonian, joints, obs2s, obs1s, times)
    remote = _outcomes(obs2s, hamiltonian.dims, 2)
    call = _member_distributions(x, remote, _outcomes(obs1s, hamiltonian.dims, 1), law,
                                 hamiltonian, list(times), options, stepped=True)
    return _as_lists(*_column_view(remote[1], *call, columns, times, options))


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
    Every member, time and component is a view of one stepped call; an
    outcome left unchecked holds its error instead.  A bare member, time or
    component, or a component that is not an integer, raises
    ``ValueError``."""
    if np.ndim(component) != 1:
        raise ValueError("component must be a sequence of indices")
    _require_number(Integral, **{f"component[{n}]": k for n, k in enumerate(component)})
    d2 = hamiltonian.dims[1] ** 2 - 1
    if not all(0 <= k < d2 for k in component):
        raise ValueError(f"component must lie in [0, {d2})")
    return _coordinates(law, hamiltonian, joint, obs2, obs1, t, component, options)


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
    d1, d2 = (n**2 - 1 for n in hamiltonian.dims)
    if not all(0 <= i < d1 and 0 <= j < d2 for i, j in component):
        raise ValueError(f"component must lie in [0, {d1}) x [0, {d2})")
    return _coordinates(law, hamiltonian, joint, obs2, obs1, t,
                        [d2 + i * d2 + j for i, j in component], options)


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
    at its base, which moves ``(p_k, p_k r1'_k)`` by ``R L_G u_k``: the
    gradient along ``R = [r2; r12]`` contracted with ``R L_G``.  The
    members, ``t`` and the result (one ``theta`` component) as for
    :func:`d_remote_state`."""
    x = _checked(hamiltonian, joint, family, obs1, t)
    remote = _outcomes([fam.base for fam in family], hamiltonian.dims, 2)
    grad, failures, weights = _member_distributions(
        x, remote, _outcomes(obs1, hamiltonian.dims, 1), law, hamiltonian, list(t), options,
        stepped=True)
    (n1, n2), u = hamiltonian.dims, remote[1]
    d2 = u.shape[-1]
    generators = _rotation_generators(np.array([fam.direction for fam in family]), n2)
    turn = x[:, n1**2 - 1 :].reshape(len(x), -1, d2) @ generators  # R L_G
    values = _dots(grad, turn.reshape(len(x), 1, -1))
    moved = (turn @ u.swapaxes(1, 2) != 0).any(axis=1)[:, None]
    return _as_lists(*_view(values[..., None], moved, weights, failures, [None], d2, t, options))


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


def _anchor_density(dims: tuple[int, int], rng) -> np.ndarray:
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
        return singlet_density()
    if n1 == n2:
        return maximally_entangled_density(n1)
    return random_pure_density(rng, n1 * n2)


def _ensemble(dims: tuple[int, int], config: AuditConfig, rng) -> tuple[tuple, tuple]:
    """The members as the four columns the public channels take (joint
    states, remote observables, local observables and ``ObservableFamily``s,
    each based at its member's remote observable), then as the packed states
    ``(M, D)`` and remote and local outcomes the sweep takes.  The anchor
    comes first, then ``ensemble_size - 1`` random members from one block of
    standard normals, one row per member.  A row holds, in this order, the
    ``(2, n, n)`` normals of the member's joint state, remote basis, local
    basis and rotation direction: a Hilbert-Schmidt density, two Haar bases
    (the columns of ``haar_unitaries``) and a ``hermitian_directions`` axis.
    Each density is mixed as :func:`interior_joint_state` mixes it and
    projected by the frame's stacked ``project``, as ``joint_to_bloch``
    projects it.  Each party's outcomes are one stack, the anchor's first;
    every basis is rank 1, so all share the anchor's ``u0``.
    ``tests/helpers.reference_ensemble`` draws the same members one object
    at a time, bit for bit."""
    n1, n2 = dims
    anchor = _anchor_density(dims, rng)
    family, local = _anchor_observables(n1, n2)
    sides = (n1 * n2, n2, n1, n2)
    sizes = [2 * n * n for n in sides]
    block = rng.standard_normal((config.ensemble_size - 1, sum(sizes)))
    parts = np.split(block, np.cumsum(sizes)[:-1], axis=1)
    state_normals, remote_normals, local_normals, direction_normals = (
        part.reshape(len(block), 2, n, n) for part, n in zip(parts, sides)
    )
    nn = n1 * n2
    rhos = np.concatenate([anchor[None], hs_densities(state_normals)])
    smoothed = (1.0 - config.mix_weight) * rhos + config.mix_weight * np.eye(nn) / nn
    x = nn * joint_frame(cached_basis(n1), cached_basis(n2)).project(smoothed)
    columns, outcomes = [], []
    for obs, normals in ((family.base, remote_normals), (local, local_normals)):
        u = np.concatenate([obs.u[None], _basis_outcomes(
            haar_unitaries(normals).swapaxes(-1, -2), cached_basis(obs.dim))])
        columns.append([obs, *(ProjectiveObservable(obs.dim, obs.u0, rows) for rows in u[1:])])
        outcomes.append((np.tile(obs.u0, (len(x), 1)), u))
    remotes, locals_ = columns
    families = [family, *map(ObservableFamily, remotes[1:],
                             hermitian_directions(direction_normals))]
    states = [unpack_coords(row, dims) for row in x]
    return (states, remotes, locals_, families), (x, *outcomes)


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
        keys = ["member", "time", "channel", "component", "value", "status"]
        return [keys, *([c[k] for k in keys] for c in self.cases)]


def audit(
    law: EvolutionLaw, hamiltonian: BlochHamiltonian, config: AuditConfig | None = None
) -> AuditReport:
    """Sweep a seeded ensemble and aggregate the four signaling residuals.

    Branch evolution is the isolated flow of party 1 driven by the local
    part of the Hamiltonian — interactions are switched off during the
    audit window, which is what spatial separation means operationally.
    Two stepped branch calls, each over every member and audit time, give
    each outcome its value or the error that left it unchecked.  The first
    reads the gradient along all of party 2's packed coordinates, whose
    columns (``r2``, then ``r12``) are the ``d_remote_state`` and
    ``d_correlations`` channels; the linearity fit's start rows ride in its
    batch and are read at ``max(times)``, on every flow and integrator.
    The second is the ``d_remote_observable`` call, which checks the
    members once and, under a flow without a generator, reuses the first
    one's linearized branches.  The branch layer meets the last time first,
    so a fit that cannot integrate ends the audit with the error it raises
    alone.  :func:`_report` reads the report off the outcomes.
    """
    config = config or AuditConfig()
    dims = hamiltonian.dims
    s_members, s_fit = np.random.SeedSequence(config.seed).spawn(2)
    (states, _, locals_, families), members = _ensemble(
        dims, config, np.random.default_rng(s_members))
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    opts = config.branch_options
    grid = sorted(set(config.times))
    starts = _fit_starts(dims[0], config.fit_probes, int(s_fit.generate_state(1)[0]))
    *sweep, ends = _member_distributions(*members, law, hamiltonian, grid, opts, stepped=True,
                                         extra=starts)
    _, linearity = _fit_read_off(starts, ends[-1], grid[-1], opts)
    # every packed coordinate of party 2 (the two state channels), then theta
    values, errors = _column_view(members[1][1], *sweep, range((1 + d1) * d2), grid, opts)
    theta = d_remote_observable(law, hamiltonian, states, families, locals_, grid, options=opts)
    errors.update(((i, m, values.shape[-1]), value) for m, (per_time,) in enumerate(theta)
                  for i, value in enumerate(per_time) if isinstance(value, Exception))
    theta = [[math.nan if isinstance(v, Exception) else v for v in per_time]
             for (per_time,) in theta]
    values = np.concatenate([values, np.array(theta).T[..., None]], axis=-1)
    return _report(law.name, dims, config, values, errors, linearity)


def _report(law_name, dims, config, values, errors, linearity) -> AuditReport:
    """The audit's report of its outcomes and the ``linearity`` residual:
    ``values`` ``(T, M, C)`` on the sorted distinct ``config.times``, whose
    columns are party 2's packed coordinates for ``dims`` (``r2``, then
    row-major ``r12``) and ``theta``, and ``errors`` ``{(time index, member,
    column): error}`` in place of values.  Every field reads the outcomes in
    member, time (config order), channel, component order.  Failures (an
    error or a value that is not finite) are recorded per case, excluded
    from the maxima and rule out a pass, since no-signaling went unchecked
    there.  A channel's worst case is its first largest value; a row's is
    its last."""
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    channels = ("d_remote_state", "d_correlations", "d_remote_observable")
    labels = [*map(str, range(d2)), *(f"{i},{j}" for i in range(d1) for j in range(d2)), "theta"]
    bounds = (0, d2, d2 + d1 * d2, len(labels))
    statuses = ("ok", "infeasible", "integration-failure", "non-finite")
    status = np.where(np.isfinite(values), 0, 3)  # an index into statuses
    for key, error in errors.items():
        status[key] = 1 if isinstance(error, PerturbationInfeasibleError) else 2
    at = {t: i for i, t in enumerate(sorted(set(config.times)))}
    order = [at[t] for t in config.times]
    values, status = values[order].swapaxes(0, 1), status[order].swapaxes(0, 1)  # (M, T', C)
    ok, failed = status == 0, status > 0
    masked = np.where(ok, values, -np.inf)
    maxima, worst, best, last = {}, {}, [], []
    for ch, lo, hi in zip(channels, bounds, bounds[1:]):
        block = masked[..., lo:hi]
        m, j, c = np.unravel_index(block.argmax(), block.shape)  # the first largest
        top = float(block[m, j, c])
        maxima[ch], worst[ch] = (top, {"member": int(m), "time": config.times[j],
                                       "component": labels[lo + c], "value": top}
                                 ) if top > 0 else (0.0, {})
        # each row's last largest value and last failure
        best.append(hi - 1 - block[..., ::-1].argmax(axis=-1))
        last.append(hi - 1 - failed[..., lo:hi][..., ::-1].argmax(axis=-1))
    best, last = np.stack(best, axis=-1), np.stack(last, axis=-1)  # (M, T', 3)
    found, partial = np.take_along_axis(ok, best, -1), np.take_along_axis(failed, last, -1)
    code = np.where(partial, np.take_along_axis(status, last, -1), 0) + 4 * (found & partial)
    rows = tuple(
        {"member": m, "time": t, "channel": ch, "component": label, "value": value,
         "status": state}
        for (m, t, ch), label, value, state in zip(
            itertools.product(range(len(values)), config.times, channels),
            np.array([*labels, "-"], dtype=object)[np.where(found, best, -1)].ravel().tolist(),
            np.where(found, np.take_along_axis(values, best, -1), math.nan).ravel().tolist(),
            np.array([*statuses, *(f"partial:{s}" for s in statuses)], dtype=object)[code]
            .ravel().tolist()))

    infeasible, failures = [], []
    channel_of = [ch for ch, lo, hi in zip(channels, bounds, bounds[1:]) for _ in range(lo, hi)]
    for m, j, c in np.argwhere(failed).tolist():
        error = errors.get((order[j], m, c))
        where = {"member": m, "time": config.times[j], "channel": channel_of[c],
                 "component": labels[c], "reason": str(error) if error is not None else
                 f"sensitivity is not finite ({float(values[m, j, c])!r})"}
        if status[m, j, c] == 1:
            infeasible.append(where)
        else:
            failures.append({**where, "status": statuses[status[m, j, c]]})
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
        **{f"max_{ch}": maxima[ch] for ch in channels},
        linearity_residual=linearity,
        verdict=verdict,
        worst_case=worst_overall,
        per_channel_worst=worst,
        infeasible=tuple(infeasible),
        failures=tuple(failures),
        cases=rows,
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
    pa, pb = dist[0]
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
