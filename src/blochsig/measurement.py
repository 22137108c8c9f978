"""Projective measurements in Bloch coordinates.

An observable with K outcomes on an N-level system is its outcome
coordinates: ``ProjectiveObservable(N, u0, u)`` holds the read-only arrays
``u0`` ``(K,)`` and ``u`` ``(K, N**2 - 1)``, with ``u0_k = Tr(P_k)/N`` and
``u_k,i = Tr(P_k s_i)/N``, i.e. ``P_k = u0_k I + (N/2) u_k . s``
(``matrices(basis)`` gives the ``P_k``).  Under the state scaling of
:mod:`blochsig.bloch` the Born rule is then literally ``p = u0 + u @ r``,
and the branch layer takes the arrays as they are.

For a bipartite state, outcome k of a measurement on party 2 leaves party 1
in the collapsed coordinates

    r1'_j = ( u0_k r1_j + sum_n r12_jn u_k_n ) / p_k ,

and the later single-outcome statistics of party 1 are the branch-weighted
average of its evolved conditional states.  That average is the quantity
whose sensitivities the audit module differentiates.

:func:`_member_distributions` is the one route to it.  It takes the members
of a call stacked (packed joint states ``(M, D)``, remote and local outcomes
padded by :func:`_outcomes`), collapses them once, propagates every
member's branches as one batch under the law's shared reduced flow
(``dynamics.reduced_flow``) at several times, and gives each member the
bits it gets alone.  Its stepped mode returns the gradient along every
packed coordinate of party 2, read by the chain rule: the collapse is
affine in those coordinates, so the gradient contracts the branch
Jacobians of party 1's flow with the outcome coordinates.  A flow with a
generator supplies its cached propagator; the Jacobian of any other flow
is a complex step, and the last one is kept, so the audit's
measurement-choice call reuses its coordinate sweep's.

Outcomes of any rank are allowed; an observable only has to consist of
mutually orthogonal projectors resolving the identity, which
:func:`observable_from_matrices`, the one validating builder, checks on the
matrices.  Derived observables skip the matrix checks:
:func:`observable_from_basis` reads ``u`` off the vectors, and
:func:`rotate_observable` maps it through the unitary's adjoint matrix,
once their inputs pass (finite, orthonormal, Hermitian).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .bloch import BlochState, JointBlochState, pack_coords
from .errors import (
    DimensionMismatchError,
    InvalidObservableError,
    InvalidProjectorError,
    ZeroProbabilityBranchError,
)
from .su_basis import GeneratorSet, cached_basis

__all__ = [
    "EPS_PROB",
    "ProjectiveObservable",
    "observable_from_matrices",
    "observable_from_basis",
    "computational_observable",
    "fourier_observable",
    "rotate_observable",
    "outcome_probabilities",
    "conditional_state",
    "local_distribution",
]

# Branches below this weight are excluded from conditional updates and
# contribute zero to branch averages.
EPS_PROB = 1e-12

# The complex step of the branch Jacobians of a flow without a generator:
# far below any coordinate, so its square vanishes beside every real part,
# and far above the smallest normal float.
_EPS = 1e-30

# The last linearization of a flow without a generator (one entry, see
# ``_linearization``).
_LINEARIZED: dict = {}

_PROJ_TOL = 1e-10
_ORTHO_TOL = 1e-11
_COMPLETE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ProjectiveObservable:
    """Ordered, mutually orthogonal projectors resolving the identity, as the
    read-only outcome coordinates ``u0`` ``(K,)`` and ``u`` ``(K, dim**2 -
    1)``: outcome k is ``P_k = u0[k] I + (dim/2) u[k] . s``.  Only the
    shapes are checked here; :func:`observable_from_matrices` validates."""

    dim: int
    u0: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        u0, u = np.array(self.u0, dtype=float), np.array(self.u, dtype=float)
        if u0.ndim != 1 or u.shape != (len(u0), self.dim**2 - 1):
            raise DimensionMismatchError(f"u0 and u must have shapes (K,) and (K, "
                                         f"{self.dim**2 - 1}), got {u0.shape} and {u.shape}")
        u0.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "u", u)

    def __len__(self) -> int:
        return len(self.u0)

    def matrices(self, basis: GeneratorSet) -> np.ndarray:
        """The projector matrices of the outcomes, shape ``(K, dim, dim)``."""
        return self.u0[:, None, None] * np.eye(self.dim) + 0.5 * self.dim * np.einsum(
            "ki,iab->kab", self.u, basis.matrices)

    def to_json(self) -> list[dict]:
        return [{"u0": float(a), "u": row.tolist()} for a, row in zip(self.u0, self.u)]


def observable_from_matrices(matrices, basis: GeneratorSet) -> ProjectiveObservable:
    """The observable of a sequence of projector matrices, each refused
    unless it is a finite Hermitian idempotent of the basis's dim, and all
    together unless they resolve the identity and are mutually orthogonal."""
    n = basis.dim
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    for p in mats:
        if p.shape != (n, n):
            raise DimensionMismatchError(f"projector must be {(n, n)}, got {p.shape}")
        if not np.isfinite(p).all():
            raise InvalidProjectorError("matrix entries must be finite")
        herm = np.max(np.abs(p - p.conj().T))
        if herm > _PROJ_TOL:
            raise InvalidProjectorError(f"matrix is not Hermitian (deviation {herm:.3e})")
        idem = np.max(np.abs(p @ p - p))
        if idem > _PROJ_TOL:
            raise InvalidProjectorError(f"matrix is not idempotent (deviation {idem:.3e})")
    if not mats:
        raise InvalidObservableError("an observable needs at least one outcome")
    u0 = np.array([np.trace(p).real for p in mats]) / n
    u = np.array([np.real(np.einsum("ab,iba->i", p, basis.matrices)) for p in mats]) / n
    if abs(u0.sum() - 1.0) > _COMPLETE_TOL or np.max(np.abs(u.sum(axis=0))) > _COMPLETE_TOL:
        raise InvalidObservableError("outcomes do not resolve the identity")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            cross = np.max(np.abs(mats[i] @ mats[j]))
            if cross > _ORTHO_TOL:
                raise InvalidObservableError(
                    f"outcomes {i} and {j} are not orthogonal (deviation {cross:.3e})"
                )
    return ProjectiveObservable(n, u0, u)


def observable_from_basis(vectors, basis: GeneratorSet) -> ProjectiveObservable:
    """Rank-1 observable from an orthonormal set of vectors (rows): outcome k
    has ``u0 = 1/N`` and ``u_i = Re(v_k^dagger s_i v_k) / N``."""
    vecs, n = np.asarray(vectors, dtype=complex), basis.dim
    if vecs.ndim != 2 or vecs.shape[1] != n:
        raise DimensionMismatchError(f"expected vectors of length {n}, got shape {vecs.shape}")
    return ProjectiveObservable(n, np.full(n, 1.0 / n), _basis_outcomes(vecs[None], basis)[0])


def _basis_outcomes(vectors: np.ndarray, basis: GeneratorSet) -> np.ndarray:
    """The ``u`` of :func:`observable_from_basis` of each set of rows of a
    stack ``(M, K, N)``, shape ``(M, N, N**2 - 1)``, read off by one ``einsum``."""
    if not np.isfinite(vectors).all():
        raise InvalidObservableError("vector entries must be finite")
    gram = vectors @ vectors.conj().swapaxes(-1, -2)
    if np.max(np.abs(gram - np.eye(vectors.shape[1])), initial=0.0) > 1e-10:
        raise InvalidObservableError("vectors are not orthonormal")
    n = basis.dim
    if vectors.shape[1] != n:
        raise InvalidObservableError(
            f"need {n} vectors to resolve the identity, got {vectors.shape[1]}"
        )
    return np.real(np.einsum("mka,iab,mkb->mki", vectors.conj(), basis.matrices, vectors)) / n


def computational_observable(dim: int) -> ProjectiveObservable:
    return observable_from_basis(np.eye(dim), cached_basis(dim))


def fourier_observable(dim: int) -> ProjectiveObservable:
    """Discrete-Fourier (Hadamard at dim = 2) conjugate basis."""
    omega = np.exp(2j * np.pi / dim)
    cols = np.array([[omega ** (j * k) for j in range(dim)] for k in range(dim)])
    return observable_from_basis(cols / np.sqrt(dim), cached_basis(dim))


def _rotation_direction(direction, dim: int, theta: float = 0.0) -> np.ndarray:
    """``direction`` as a complex array once it is a finite Hermitian
    ``(dim, dim)`` matrix and ``theta`` is finite: the checks of
    :func:`rotate_observable`, which a rotation family runs at construction."""
    g = np.asarray(direction, dtype=complex)
    if g.shape != (dim, dim):
        raise DimensionMismatchError(f"direction must be {(dim, dim)}, got {g.shape}")
    if not (np.isfinite(g).all() and np.isfinite(theta)):
        raise InvalidObservableError("rotation direction and angle must be finite")
    if np.max(np.abs(g - g.conj().T)) > 1e-12:
        raise InvalidObservableError("rotation direction must be Hermitian")
    return g


def rotate_observable(
    obs: ProjectiveObservable, direction: np.ndarray, theta: float
) -> ProjectiveObservable:
    """Conjugate every outcome by U = exp(-i theta G) for Hermitian G: each
    ``u`` maps through ``R_ij = 1/2 Re Tr(s_i U s_j U^dagger)``, ``u0`` stays."""
    g = _rotation_direction(direction, obs.dim, theta)
    w, v = np.linalg.eigh(g)
    unitary = (v * np.exp(-1j * theta * w)) @ v.conj().T
    s = cached_basis(obs.dim).matrices
    adjoint = 0.5 * np.real(np.einsum("iab,jba->ij", s, unitary @ s @ unitary.conj().T))
    # one matrix-vector product per outcome: a matrix product may sum in another order
    return ProjectiveObservable(obs.dim, obs.u0, [adjoint @ row for row in obs.u])


def outcome_probabilities(obs: ProjectiveObservable, state: BlochState) -> np.ndarray:
    """Born rule in coordinates: p_k = u0_k + u_k . r."""
    if obs.dim != state.dim:
        raise DimensionMismatchError(f"observable dim {obs.dim} != state dim {state.dim}")
    return obs.u0 + obs.u @ state.r


def conditional_state(
    joint: JointBlochState, obs2: ProjectiveObservable, k: int
) -> tuple[float, BlochState]:
    """Probability of outcome k (an integer in ``[0, len(obs2))``, else
    ``ValueError``) on party 2 and the collapsed state of party 1."""
    if obs2.dim != joint.dims[1]:
        raise DimensionMismatchError(
            f"observable dim {obs2.dim} != second subsystem dim {joint.dims[1]}"
        )
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < len(obs2):
        raise ValueError(f"k must be an integer in [0, {len(obs2)}), got {k!r}")
    p, r = _collapse(pack_coords(joint)[None], *_outcomes([obs2], joint.dims, 2), len(joint.r1))
    if p[0, k] <= EPS_PROB:
        raise ZeroProbabilityBranchError(f"outcome {k} has probability {p[0, k]:.3e}")
    return float(p[0, k]), BlochState(joint.dims[0], r[0, k] / p[0, k])


def _outcomes(observables, dims, party) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes ``(u0, u)`` of each of a sequence of observables of
    ``party`` (1 or 2) of ``dims``, stacked to shapes ``(M, K)`` and
    ``(M, K, n**2 - 1)``; one with fewer than ``K`` outcomes is padded with
    zero outcomes, whose branches have weight 0 and read 0."""
    n = dims[party - 1]
    if any(obs.dim != n for obs in observables):
        found = sorted({obs.dim for obs in observables})
        raise DimensionMismatchError(f"observables of dims {found} do not fit dims {dims}")
    u0 = np.zeros((len(observables), max(map(len, observables))))
    u = np.zeros((*u0.shape, n * n - 1))
    for m, obs in enumerate(observables):
        u0[m, : len(obs)], u[m, : len(obs)] = obs.u0, obs.u
    return u0, u


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the others.

    ``np.matmul`` hands every ``(1, d) @ (d, 1)`` slice to the same BLAS dot
    as ``u @ r`` on two vectors, so each entry equals ``float(u @ r)`` bit
    for bit at any d and in any stack (a gemm or einsum over the same rows
    may sum in another order).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _collapse(x, u0, u, d1):
    """Born weights ``p`` ``(M, K)`` and party 1's unnormalized collapsed
    coordinates ``p * r1'`` ``(M, K, d1)`` of packed joint states ``x``
    ``(M, D)`` under outcomes ``u0, u`` as for :func:`_member_distributions`,
    with ``r12 @ u`` from the BLAS matrix-vector product of ``joint.r12 @
    proj.u`` and ``u . r2`` from :func:`_dots`."""
    d2 = u.shape[-1]
    r12 = x[:, d1 + d2 :].reshape(len(x), 1, d1, d2)
    p = u0 + _dots(x[:, None, d1 : d1 + d2], u)
    return p, u0[..., None] * x[:, None, :d1] + (r12 @ u[..., None])[..., 0]


def local_distribution(
    joint: JointBlochState,
    obs2: ProjectiveObservable,
    obs1: ProjectiveObservable,
    law: "dynamics.EvolutionLaw",
    t: float,
    *,
    hamiltonian=None,
    options=None,
) -> np.ndarray:
    """Outcome distribution of party 1 at time t, given that party 2
    measured obs2 at time 0: every branch state collapses per
    :func:`conditional_state`, evolves in isolation under the law's reduced
    flow (the ``hamiltonian``'s party-1 block; ``None``: zero) and is
    averaged with its weight, in ascending outcome order; branches at or
    below the probability floor contribute zero.  Raises the failure of
    its :func:`_member_distributions` call."""
    h = hamiltonian or dynamics.BlochHamiltonian(joint.dims)
    dist, failures = _member_distributions(
        pack_coords(joint)[None], _outcomes([obs2], h.dims, 2), _outcomes([obs1], h.dims, 1),
        law, h, [t], options)
    if failures:
        raise failures[0, 0]
    return dist[0, 0]


def _member_distributions(x, remote, local, law, hamiltonian, times, options=None,
                          stepped=False, extra=None):
    """Party 1's distributions ``(T, M, K1)`` at each of the ``T`` ascending
    ``times`` of ``M`` members (real packed joint states ``x`` ``(M, D)`` of
    the ``hamiltonian``'s dims, remote outcomes ``(u0, u)`` ``(M, K)``, ``(M,
    K, d2)``, ``local`` outcomes ``(M, K1)``, ``(M, K1, d1)``), and the
    ``IntegrationFailureError`` of each (member, time index) whose
    distribution is not finite.  ``stepped``, the distributions give way to
    their signed derivatives along each packed coordinate of party 2, ``r2``
    then row-major ``r12``, ``(T, M, K1, (1 + d1) d2)``, and the Born weights
    ``(M, K)`` come third: a branch of weight <= ``EPS_PROB`` is dropped, and
    the caller judges which derivatives move it and so are one-sided.  The
    branches propagate as one batch under the reduced flow of the
    Hamiltonian's party-1 block (``options``:
    ``dynamics.DEFAULT_BRANCH_OPTIONS``); every other step is a product or
    :func:`_dots` per member, summing its branches in ascending outcome
    order, so each member gets the bits of its call alone.

    The collapse is affine in ``R = [r2; r12]``, ``(p_k, p_k r1'_k) = (u0_k,
    u0_k r1) + R u_k``, so by the chain rule ``R_ij`` moves party 1's
    outcome ``k1`` by ``sum_k u_k[j] (Born_k1(Phi(r1'_k)) - g . r1'_k,
    g)_i``, with ``g = v_k1 J_k`` and ``J_k`` the Jacobian of the flow
    ``Phi`` at ``r1'_k``: under a flow with a generator the cached
    propagator, read off unit rows in the batch (the identity at t = 0);
    otherwise the complex-step tangents of one :func:`_linearization`.  The
    ``extra`` real party-1 rows ``(E, d1)`` of a stepped call ride in its
    batch on either route (after the unit rows, or in the linearization),
    and their states ``(T, E, d1)`` come back fourth."""
    n1, n2 = dims = hamiltonian.dims
    d1, d2 = n1**2 - 1, n2**2 - 1
    (u0, u), (v0, v) = remote, local
    x = np.ascontiguousarray(x)  # the branch products round an F-ordered stack otherwise
    if (v.shape[-1], u.shape[-1], x.shape[-1]) != (d1, d2, d1 + d2 + d1 * d2):
        raise DimensionMismatchError(f"local outcomes, remote outcomes and rows of lengths "
                                     f"{v.shape[-1]}, {u.shape[-1]}, {x.shape[-1]} do not fit "
                                     f"dims {dims}")
    options = options or dynamics.DEFAULT_BRANCH_OPTIONS
    flow = dynamics.reduced_flow(law, hamiltonian.h1, n1)
    p, scaled = _collapse(x, u0, u, d1)
    keep = ~(p <= EPS_PROB)  # a NaN weight stays in, and poisons its member
    states = scaled[keep] / p[keep][:, None]
    if stepped and flow.generator is None:  # J_k^T: the tangents, one (d1, d1) block a branch
        evolved, steps, ridden = _linearization(flow, states, tuple(times), options, extra)
        jt = np.zeros((len(times), *keep.shape, d1, d1))
        jt[:, keep] = steps / _EPS
    elif stepped:  # J^T: the unit rows, propagated in the batch (the propagator's columns)
        rows = [states, np.eye(d1), *([] if extra is None else [extra])]
        evolved, jt, ridden = np.split(flow.sample(np.concatenate(rows), times, options),
                                       [len(states), len(states) + d1], axis=1)
        jt = jt[:, None, None]
    else:
        evolved = flow.sample(states, times, options)
    grid = np.zeros((len(times), *keep.shape, d1))
    grid[:, keep] = evolved
    born = v0[:, None] + _dots(grid[..., None, :], v[:, None])  # (T, M, K, K1)
    weighted = np.where(keep, p, 0)[..., None] * born
    dist = np.zeros((len(times), len(x), v.shape[1]))
    for k in range(weighted.shape[2]):  # dropped branches add +0, which changes no sum
        dist += weighted[:, :, k]
    failures = {(m, i): dynamics._not_finite(options, times[i])
                for i, m in zip(*np.nonzero(~np.isfinite(dist).all(axis=-1)))}
    if not stepped:
        return dist, failures
    g = (jt[:, :, :, None] @ v[:, None, ..., None])[..., 0]  # each its own product
    slopes = np.zeros((*born.shape, 1 + d1))  # (B - g . r1', g), zero where dropped
    bases = np.zeros((*keep.shape, 1, d1))  # r1'_k, zero where dropped
    bases[keep] = states[:, None]
    slopes[..., 0] = born - _dots(g, bases)
    slopes[..., 1:] = g
    slopes[:, ~keep] = 0
    grad = np.zeros((len(times), len(x), v.shape[1], 1 + d1, d2))
    for k in range(u.shape[1]):  # R_ij moves outcome k by u_k[j] along e_i
        grad += slopes[:, :, k, :, :, None] * u[:, k, None, None, :]
    grad = grad.reshape(*grad.shape[:3], (1 + d1) * d2)
    return (grad, failures, p) if extra is None else (grad, failures, p, ridden)


def _linearization(flow, bases, times, options, extra=None):
    """``Re Phi(b)`` and the tangents ``Im Phi(b + i _EPS e_i)`` of the field
    ``flow`` at each of the ascending ``times``, shapes ``(T, B, d)`` and
    ``(T, B, d, d)``, of the real ``bases`` (``(B, d)``), read-only, and the
    states ``(T, E, d)`` of the ``extra`` real rows ``(E, d)``, which ride
    in the same batch, cast to complex.  The last linearization is kept,
    keyed on the flow, the exact shape and bytes of the bases, the times
    and the options, and serves only a call without extra rows: the audit's
    measurement-choice channel collapses its members onto the bases of its
    coordinate sweep bit for bit, so its branches reuse that propagation.

    A batch never mixes its rows (every rk4 operation is elementwise, and
    rkf45 solves row by row), and with a zero imaginary part, complex ``+ -
    * /`` give the real results exactly, so under a field built from them
    (polesink) an extra row gets the numbers it gets alone as a real row,
    bit for bit."""
    key = (flow, bases.shape, bases.tobytes(), times, options)
    if extra is None and key in _LINEARIZED:
        return (*_LINEARIZED[key], None)
    d = bases.shape[-1]
    extra = np.empty((0, d)) if extra is None else extra
    tangent = (bases[:, None, :] + 1j * _EPS * np.eye(d)).reshape(-1, d)
    sampled = flow.sample(np.concatenate([extra, tangent]), times, options)
    ridden = sampled[:, : len(extra)].copy()  # not a view that holds the whole batch
    sampled = sampled[:, len(extra) :].reshape(len(times), len(bases), d, d)
    real, tangents = sampled[:, :, 0].real.copy(), sampled.imag.copy()
    real.setflags(write=False)
    tangents.setflags(write=False)
    _LINEARIZED.clear()
    _LINEARIZED[key] = real, tangents
    return real, tangents, ridden
