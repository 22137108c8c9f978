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

:func:`packed_distributions` is the one route to it: packed joint rows
``x`` and remote outcomes ``(u0, u)``, per row or shared by every row, of
one or several members, whose branches propagate as one rk4 batch under the
law's shared reduced flow (``dynamics.reduced_flow``), sampled at several
times; :func:`local_distribution` is its one-row, one-time case.  Complex
rows or outcomes (the audit's complex steps) stay complex throughout; a
branch is kept by the real part of its weight, and a row that moves a
dropped branch raises, since its derivative is one-sided.

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
    "packed_distributions",
]

# Branches below this weight are excluded from conditional updates and
# contribute zero to branch averages.
EPS_PROB = 1e-12

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
    ``x`` under outcomes ``u0, u`` as for :func:`packed_distributions`.
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
    h_local=None,
    options=None,
) -> np.ndarray:
    """Outcome distribution of party 1 at time t, given that party 2
    measured obs2 at time 0: every branch state collapses per
    :func:`conditional_state`, evolves in isolation under the law's reduced
    flow (party 1's local Hamiltonian ``h_local``; ``options`` default to
    the audit's rk4 branch integrator) and is averaged with its weight, in
    ascending outcome order, as in :func:`packed_distributions`.  Branches
    at or below the probability floor contribute zero."""
    return packed_distributions(
        pack_coords(joint)[None], obs2.u0_vector(), obs2.u_matrix(), joint.dims, obs1, law,
        [t], h_local=h_local, options=options,
    )[0, 0]


def _outcome_rows(observables, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row remote outcomes ``(u0, u)`` of ``observables`` for
    :func:`packed_distributions`, shapes ``(P, K)`` and ``(P, K, dim**2 - 1)``;
    zero rows pad an observable with fewer than K outcomes."""
    if any(obs.dim != dim for obs in observables):
        raise DimensionMismatchError(
            f"remote observables must have dim {dim}, got {[obs.dim for obs in observables]}"
        )
    width = max(len(obs) for obs in observables)
    u0, u = np.zeros((len(observables), width)), np.zeros((len(observables), width, dim**2 - 1))
    for row, obs in enumerate(observables):
        u0[row, : len(obs)] = obs.u0_vector()
        u[row, : len(obs)] = obs.u_matrix()
    return u0, u


def _member_distributions(members, dims, law, times, *, h_local=None, options=None):
    """:func:`packed_distributions` of each member ``(x, u0, u, obs1, names)``,
    read once in order: only the collapsed party-1 states of its rows are
    kept, every member's propagate as one batch, and each member's segment
    is averaged with its own ``obs1``, each row's weighted branches summed in
    ascending outcome order (one unbuffered scatter-add), as one row would.
    A branch of real weight <= ``EPS_PROB`` is dropped; a complex row moving
    one (its weight or collapsed state) has a one-sided derivative, and raises
    ``PerturbationInfeasibleError`` named by ``names`` (None: by its index)."""
    n1, n2 = dims
    d1, d2 = n1**2 - 1, n2**2 - 1
    branches, states = [], []
    for x, u0, u, obs1, names in members:
        if (obs1.dim, u.shape[-1], x.shape[-1]) != (n1, d2, d1 + d2 + d1 * d2):
            raise DimensionMismatchError(
                f"local observable dim {obs1.dim}, remote outcomes of length {u.shape[-1]} "
                f"and rows of length {x.shape[-1]} do not fit dims {dims}"
            )
        p, scaled = _collapse(x, u0, u, d1)
        drop = p.real <= EPS_PROB  # a NaN weight stays in, and poisons its row
        moved = drop & ((p.imag != 0) | (scaled.imag != 0).any(axis=-1))
        if moved.any():
            row, k = np.argwhere(moved)[0]
            name = f"row {row}" if names is None else names[row]
            raise PerturbationInfeasibleError(
                f"perturbation of {name} moves remote outcome {k} of weight "
                f"{p.real[row, k]:.3e}, so only a one-sided derivative exists"
            )
        keep = ~drop
        branches.append((len(x), obs1, np.nonzero(keep)[0], p[keep]))
        states.append(scaled[keep] / p[keep][:, None])
    flow = dynamics.reduced_flow(law, h_local, n1)
    states = np.concatenate(states)
    evolved = flow.sample(states, times, options or dynamics.DEFAULT_BRANCH_OPTIONS)
    out, ends = [], np.cumsum([len(weights) for *_, weights in branches])[:-1]
    for segment, (rows, obs1, owners, weights) in zip(np.split(evolved, ends, axis=1), branches):
        born = obs1.u0_vector() + _dots(segment[:, :, None, :], obs1.u_matrix())
        out.append(np.zeros((len(evolved), rows, len(obs1)), dtype=evolved.dtype))
        np.add.at(out[-1], (slice(None), owners), weights[:, None] * born)
    return out


def packed_distributions(x, u0, u, dims, obs1, law, times, *, h_local=None, options=None):
    """Party 1's distributions at each ascending time, shape
    ``(len(times), P, len(obs1))``, for packed joint rows ``x`` (``(P, d)``)
    of ``dims`` with remote outcomes ``u0, u`` of shapes ``(P, K), (P, K, d2)``
    (zero rows pad fewer outcomes), or ``(K,), (K, d2)`` shared by every row.

    The branches of every row form one batch that the flow propagates once,
    under ``options`` or the audit's rk4 ``dynamics.DEFAULT_BRANCH_OPTIONS``,
    and is averaged as :func:`_member_distributions` describes.
    """
    return _member_distributions([(x, u0, u, obs1, None)], dims, law, times,
                                h_local=h_local, options=options)[0]
