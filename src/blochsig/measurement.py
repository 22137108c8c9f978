"""Projective measurements in Bloch coordinates.

A projector P on an N-level system is stored as the affine pair
``(u0, u)`` with ``u0 = Tr(P)/N`` and ``u_i = Tr(P s_i)/N``, i.e.
``P = u0 I + (N/2) u . s``.  Under the state scaling of
:mod:`blochsig.bloch` the Born rule is then literally ``p = u0 + u . r``.

For a bipartite state, outcome k of a measurement on party 2 leaves party 1
in the collapsed coordinates

    r1'_j = ( u0_k r1_j + sum_n r12_jn u_k_n ) / p_k ,

and the later single-outcome statistics of party 1 are the branch-weighted
average of its evolved conditional states.  That average is the quantity
whose sensitivities the audit module differentiates.

:func:`_member_distributions` is the one route to it: the packed joint rows
``x`` and remote outcomes ``(u0, u)`` of one or several members, whose
branches propagate as one rk4 batch under the law's shared reduced flow
(``dynamics.reduced_flow``), sampled at several times;
:func:`local_distribution` is its one-row, one-time case.  Complex rows or
outcomes (the audit's complex steps) stay complex throughout; a branch is
kept by the real part of its weight, and a row that moves a dropped branch
fails, since its derivative is one-sided.

A complex row moves party 1 only through its Born weights and collapsed
states, so under a flow without a generator its branches are read off a
linearization (forward-mode complex steps): each kept outcome ``k`` of a
member propagates only the ``d1`` tangent rows ``r1'_k + i eps e_i`` of its
real collapsed state, whatever the member's row count, and the last such
linearization is kept, so the audit's measurement-choice channel reuses
the propagation of its coordinate sweep.  Other real rows of party 1 (the
audit's linearity fit) can ride in the same batch.  A flow with a
generator applies its cached propagator to every row, as do real rows
under any flow.

Outcomes of any rank are allowed; an observable only has to consist of
mutually orthogonal projectors resolving the identity.  Derived observables
skip the matrix checks: :func:`observable_from_basis` reads ``u`` off the
vectors, and :func:`rotate_observable` maps it through the unitary's adjoint
matrix, once their inputs pass (finite, orthonormal, Hermitian).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .bloch import BlochState, JointBlochState, pack_coords
from .errors import (
    DimensionMismatchError,
    IntegrationFailureError,
    InvalidObservableError,
    InvalidProjectorError,
    PerturbationInfeasibleError,
    ZeroProbabilityBranchError,
)
from .su_basis import GeneratorSet, cached_basis

__all__ = [
    "EPS_PROB",
    "Projector",
    "ProjectiveObservable",
    "projector_from_matrix",
    "observable_from_projectors",
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

# The complex step of the audit's sensitivities: far below any coordinate,
# so its square vanishes beside every real part, and far above the smallest
# normal float.
_EPS = 1e-30

# The last linearization of a flow without a generator (one entry, see
# ``_linearization``).
_LINEARIZED: dict = {}

_PROJ_TOL = 1e-10
_ORTHO_TOL = 1e-11
_COMPLETE_TOL = 1e-12


@dataclass(frozen=True)
class Projector:
    """Affine coordinates (u0, u) of an orthogonal projector."""

    dim: int
    u0: float
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).reshape(-1)
        if u.shape != (self.dim**2 - 1,):
            raise DimensionMismatchError(f"u must have length {self.dim**2 - 1}, got {u.shape}")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "u0", float(self.u0))

    @property
    def rank(self) -> int:
        return round(self.u0 * self.dim)

    def matrix(self, basis: GeneratorSet | None = None) -> np.ndarray:
        basis = basis or cached_basis(self.dim)
        n = self.dim
        return self.u0 * np.eye(n, dtype=complex) + 0.5 * n * np.einsum(
            "i,iab->ab", self.u, basis.matrices
        )

    def to_json(self) -> dict:
        return {"u0": self.u0, "u": self.u.tolist()}


@dataclass(frozen=True)
class ProjectiveObservable:
    """Ordered, mutually orthogonal projectors resolving the identity."""

    dim: int
    outcomes: tuple[Projector, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    def __len__(self) -> int:
        return len(self.outcomes)

    def u0_vector(self) -> np.ndarray:
        return np.array([p.u0 for p in self.outcomes])

    def u_matrix(self) -> np.ndarray:
        """Outcome coordinate rows, shape (K, dim**2 - 1)."""
        return np.stack([p.u for p in self.outcomes])

    def to_json(self) -> list[dict]:
        return [p.to_json() for p in self.outcomes]


def projector_from_matrix(p: np.ndarray, basis: GeneratorSet) -> Projector:
    """Coordinates of a projector; rejects anything not Hermitian idempotent."""
    p = np.asarray(p, dtype=complex)
    n = basis.dim
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
    u0 = float(np.trace(p).real) / n
    u = np.real(np.einsum("ab,iba->i", p, basis.matrices)) / n
    return Projector(n, u0, u)


def observable_from_projectors(
    projectors, basis: GeneratorSet | None = None
) -> ProjectiveObservable:
    """Validate completeness and mutual orthogonality, then assemble."""
    projectors = tuple(projectors)
    if not projectors:
        raise InvalidObservableError("an observable needs at least one outcome")
    dim = projectors[0].dim
    basis = basis or cached_basis(dim)
    if any(p.dim != dim for p in projectors):
        raise DimensionMismatchError("all outcomes must share one dimension")
    if not all(np.isfinite(p.u0) and np.isfinite(p.u).all() for p in projectors):
        raise InvalidObservableError("outcome coordinates must be finite")
    total_u0 = sum(p.u0 for p in projectors)
    total_u = np.sum([p.u for p in projectors], axis=0)
    if abs(total_u0 - 1.0) > _COMPLETE_TOL or np.max(np.abs(total_u)) > _COMPLETE_TOL:
        raise InvalidObservableError("outcomes do not resolve the identity")
    mats = [p.matrix(basis) for p in projectors]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            cross = np.max(np.abs(mats[i] @ mats[j]))
            if cross > _ORTHO_TOL:
                raise InvalidObservableError(
                    f"outcomes {i} and {j} are not orthogonal (deviation {cross:.3e})"
                )
    return ProjectiveObservable(dim, projectors)


def observable_from_matrices(matrices, basis: GeneratorSet) -> ProjectiveObservable:
    return observable_from_projectors(
        [projector_from_matrix(m, basis) for m in matrices], basis
    )


def observable_from_basis(vectors, basis: GeneratorSet) -> ProjectiveObservable:
    """Rank-1 observable from an orthonormal set of vectors (rows): outcome k
    has ``u0 = 1/N`` and ``u_i = Re(v_k^dagger s_i v_k) / N``."""
    vecs = np.asarray(vectors, dtype=complex)
    if vecs.ndim != 2 or vecs.shape[1] != basis.dim:
        raise DimensionMismatchError(
            f"expected vectors of length {basis.dim}, got shape {vecs.shape}"
        )
    return _observables_from_bases(vecs[None], basis)[0]


def _observables_from_bases(vectors: np.ndarray, basis: GeneratorSet) -> list:
    """:func:`observable_from_basis` of each set of rows of a stack of shape
    ``(M, K, N)``, every outcome row read off by one ``einsum``."""
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
    u = np.real(np.einsum("mka,iab,mkb->mki", vectors.conj(), basis.matrices, vectors)) / n
    return [ProjectiveObservable(n, [Projector(n, 1.0 / n, row) for row in rows]) for rows in u]


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
    return ProjectiveObservable(
        obs.dim, [Projector(obs.dim, p.u0, adjoint @ p.u) for p in obs.outcomes]
    )


def outcome_probabilities(obs: ProjectiveObservable, state: BlochState) -> np.ndarray:
    """Born rule in coordinates: p_k = u0_k + u_k . r."""
    if obs.dim != state.dim:
        raise DimensionMismatchError(f"observable dim {obs.dim} != state dim {state.dim}")
    return obs.u0_vector() + obs.u_matrix() @ state.r


def conditional_state(
    joint: JointBlochState, obs2: ProjectiveObservable, k: int
) -> tuple[float, BlochState]:
    """Probability of outcome k on party 2 and the collapsed state of party 1."""
    if obs2.dim != joint.dims[1]:
        raise DimensionMismatchError(
            f"observable dim {obs2.dim} != second subsystem dim {joint.dims[1]}"
        )
    p, r = _collapse(pack_coords(joint)[None], obs2.u0_vector(), obs2.u_matrix(), len(joint.r1))
    if p[0, k] <= EPS_PROB:
        raise ZeroProbabilityBranchError(f"outcome {k} has probability {p[0, k]:.3e}")
    return float(p[0, k]), BlochState(joint.dims[0], r[0, k] / p[0, k])


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the others.

    ``np.matmul`` hands every ``(1, d) @ (d, 1)`` slice to the same BLAS dot
    as ``u @ r`` on two vectors, so each entry equals ``float(u @ r)`` bit
    for bit at any d (a gemm or einsum over the same rows may sum in
    another order).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _collapse(x, u0, u, d1):
    """Born weights ``p`` (shape ``(P, K)``) and party 1's unnormalized
    collapsed coordinates ``p * r1'`` (``(P, K, d1)``) of packed joint rows
    ``x`` under outcomes ``u0, u`` as for :func:`_member_distributions`.
    Each gets ``r12 @ u`` from the BLAS matrix-vector product that
    ``joint.r12 @ proj.u`` uses, and ``u . r2`` from :func:`_dots`."""
    d2 = u.shape[-1]
    r12 = x[:, d1 + d2 :].reshape(len(x), d1, d2)
    p = u0 + _dots(x[:, None, d1 : d1 + d2], u)
    scaled = u0[..., None] * x[:, None, :d1] + (r12[:, None] @ u[..., None])[..., 0]
    return p, scaled


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
    averaged with its weight, in ascending outcome order.  The one-row,
    one-time case of :func:`_member_distributions`, raising its failure;
    branches at or below the probability floor contribute zero."""
    [(dist, failures)] = _member_distributions(
        [(pack_coords(joint)[None], obs2.u0_vector(), obs2.u_matrix(), obs1, None)],
        law, hamiltonian or dynamics.BlochHamiltonian(joint.dims), [t], options,
    )
    if failures:
        raise failures[0, 0]
    return dist[0, 0]


def _member_distributions(members, law, hamiltonian, times, options=None, extra=None):
    """Party 1's distributions at each ascending time, shape
    ``(len(times), P, len(obs1))``, of each member ``(x, u0, u, obs1, names)``
    (``P`` packed joint rows ``x`` of the ``hamiltonian``'s dims, remote
    outcomes ``u0, u`` of shapes ``(K,), (K, d2)``), read once in order, with
    its failures: the error that left a distribution unchecked, keyed by
    (time index, row).  Only the collapsed party-1 states of its rows are
    kept, every member's propagate as one batch under the law's reduced flow
    of the Hamiltonian's party-1 block (``options`` default to the audit's
    rk4 ``dynamics.DEFAULT_BRANCH_OPTIONS``), and each member's segment is
    averaged with its own ``obs1``, each row's weighted branches summed in
    ascending outcome order (one unbuffered scatter-add), as one row would.
    A branch of real weight <= ``EPS_PROB`` is dropped; a complex row moving
    one (its weight or collapsed state) has a one-sided derivative:
    ``PerturbationInfeasibleError`` at every time, named by ``names`` (None:
    by its index).  A distribution that is not finite is an
    ``IntegrationFailureError``.

    A flow with a generator, or a call whose rows and outcomes are all
    real, propagates every collapsed state.  Complex rows under a flow
    without one take the tangent route (:func:`_tangent_branches`): each
    member's rows must then share one real part, else ``ValueError``.
    ``extra`` real party-1 rows ``(E, d1)`` ride in that route's batch
    (:func:`_linearization`); given them, the call returns its distributions
    and their states at each time, ``(len(times), E, d1)`` (``None`` off the
    tangent route)."""
    n1, n2 = dims = hamiltonian.dims
    d1, d2 = n1**2 - 1, n2**2 - 1
    options = options or dynamics.DEFAULT_BRANCH_OPTIONS
    flow = dynamics.reduced_flow(law, hamiltonian.h1, n1)
    branches, states, bases = [], [], []
    for x, u0, u, obs1, names in members:
        if (obs1.dim, u.shape[-1], x.shape[-1]) != (n1, d2, d1 + d2 + d1 * d2):
            raise DimensionMismatchError(
                f"local observable dim {obs1.dim}, remote outcomes of length {u.shape[-1]} "
                f"and rows of length {x.shape[-1]} do not fit dims {dims}"
            )
        p, scaled = _collapse(x, u0, u, d1)
        drop = p.real <= EPS_PROB  # a NaN weight stays in, and poisons its row
        moved = drop & ((p.imag != 0) | (scaled.imag != 0).any(axis=-1))
        infeasible = {}
        for row, k in zip(*moved.nonzero()):  # a row's first moved outcome names it
            infeasible.setdefault(row, PerturbationInfeasibleError(
                f"perturbation of {f'row {row}' if names is None else names[row]} moves remote "
                f"outcome {k} of weight {p.real[row, k]:.3e}, so only a one-sided derivative exists"
            ))
        keep = ~drop
        branches.append((len(x), infeasible, obs1, np.nonzero(keep)[0], p[keep]))
        states.append(scaled[keep] / p[keep][:, None])
        if flow.generator is None:
            bases.append(_bases(x, u0, u, keep, d1))
    states = np.concatenate(states)
    if flow.generator is None and np.iscomplexobj(states):
        evolved, ridden = _tangent_branches(flow, bases, states, times, options, extra)
    else:
        evolved, ridden = flow.sample(states, times, options), None
    out, ends = [], np.cumsum([len(weights) for *_, weights in branches])[:-1]
    segments = zip(np.split(evolved, ends, axis=1), branches)
    for segment, (rows, infeasible, obs1, owners, weights) in segments:
        born = obs1.u0_vector() + _dots(segment[:, :, None, :], obs1.u_matrix())
        dist = np.zeros((len(evolved), rows, len(obs1)), dtype=evolved.dtype)
        np.add.at(dist, (slice(None), owners), weights[:, None] * born)
        failures = {(i, row): e for row, e in infeasible.items() for i in range(len(times))}
        for i, row in zip(*(~np.isfinite(dist).all(axis=-1)).nonzero()):
            failures.setdefault((i, row), IntegrationFailureError(
                f"{options.method} result at t={times[i]:.6g} is not finite"))
        out.append((dist, failures))
    return out if extra is None else (out, ridden)


def _bases(x, u0, u, keep, d1):
    """A member's linearization points for :func:`_tangent_branches`: party
    1's real collapsed states ``r1'_k``, one per outcome that some row keeps
    (``keep``, shape ``(P, K)``), from the real part of its first row and
    outcomes; with ``keep`` restricted to those outcomes, and whether every
    row shares that real part."""
    real = x.real
    shared = np.array_equal(real, np.broadcast_to(real[:1], real.shape), equal_nan=True)
    kept = keep.any(axis=0)
    # contiguous copies: a strided operand may take another BLAS route, and
    # every channel must collapse its real part onto the same bits
    p, scaled = _collapse(*map(np.ascontiguousarray, (real[:1], u0.real, u.real)), d1)
    return (scaled[:, kept] / p[:, kept, None]).reshape(-1, d1), keep[:, kept], shared


def _tangent_branches(flow, bases, states, times, options, extra=None):
    """The evolved branches of the complex collapsed ``states`` (each
    member's kept (row, outcome) pairs in row-major order, as
    :func:`_member_distributions` lists them), from one linearization of the
    field ``flow`` about every member's ``bases`` (:func:`_bases`).

    A row moves party 1's branch ``k`` only through its collapsed state
    ``r1'_row,k``, whose real part is the base ``r1'_k`` and whose imaginary
    part is a complex step.  So its evolved branch is
    ``Re Phi(r1'_k) + i (Im r1'_row,k / _EPS) @ Im Phi(r1'_k + i _EPS e_i)``
    over the ``d1`` tangent rows ``i``: ``K d1`` propagated rows per member,
    whatever its row count.  Each row's tangent contraction is its own
    ``(1, d1) @ (d1, d1)`` product, so a row gets the same bits in any
    batch.  Returns them with the states of the ``extra`` rows
    (:func:`_linearization`).  Raises ``ValueError`` when a member's rows
    differ in their real part."""
    if not all(shared for *_, shared in bases):
        raise ValueError(
            "under a flow without a generator, the complex rows of a member must share one "
            "real part"
        )
    real, tangents, ridden = _linearization(
        flow, np.concatenate([base for base, *_ in bases]), tuple(times), options, extra
    )
    evolved = np.empty((len(times), *states.shape), dtype=complex)
    start = end = 0
    for base, keep, _ in bases:
        stop, rows = start + len(base), slice(end, end + np.count_nonzero(keep))
        steps = np.zeros((*keep.shape, states.shape[-1]))
        steps[keep] = states[rows].imag / _EPS
        contracted = steps[None, :, :, None, :] @ tangents[:, None, start:stop]
        evolved[:, rows].real = real[:, start + keep.nonzero()[1]]
        evolved[:, rows].imag = contracted[..., 0, :][:, keep]
        start, end = stop, rows.stop
    return evolved, ridden


def _linearization(flow, bases, times, options, extra=None):
    """``Re Phi(b)`` and the tangents ``Im Phi(b + i _EPS e_i)`` of the field
    ``flow`` at each of the ascending ``times``, shapes ``(T, B, d)`` and
    ``(T, B, d, d)``, of the real ``bases`` (``(B, d)``), read-only.  The last
    one is kept, keyed on the flow, the exact shape and bytes of the bases,
    the times and the options: the audit's measurement-choice channel
    collapses its members onto the bases of its coordinate sweep bit for
    bit, so its branches reuse that propagation.

    The ``extra`` real rows ``(E, d)`` ride in the same batch, cast to
    complex, and their states at each time come back as a third item,
    ``(T, E, d)``; with the linearization kept, they propagate alone, as
    real rows.  A batch never mixes its rows (every rk4 operation is
    elementwise, and rkf45 solves row by row), and with a zero imaginary
    part, complex ``+ - * /`` give the real results exactly, so under a
    field built from them (polesink) an extra row gets the numbers it gets
    alone as a real row, bit for bit."""
    key = (flow, bases.shape, bases.tobytes(), times, options)
    kept = _LINEARIZED.get(key)
    if extra is None and kept is not None:
        return (*kept, None)
    d = bases.shape[-1]
    extra = np.empty((0, d)) if extra is None else extra
    rows = [extra]
    if kept is None:
        rows.append((bases[:, None, :] + 1j * _EPS * np.eye(d)).reshape(-1, d))
    sampled = flow.sample(np.concatenate(rows), times, options)
    ridden = sampled[:, : len(extra)].copy()  # not a view that holds the whole batch
    if kept is None:
        sampled = sampled[:, len(extra) :].reshape(len(times), len(bases), d, d)
        real, tangents = sampled[:, :, 0].real.copy(), sampled.imag.copy()
        real.setflags(write=False)
        tangents.setflags(write=False)
        _LINEARIZED.clear()
        kept = _LINEARIZED[key] = real, tangents
    return (*kept, ridden)
