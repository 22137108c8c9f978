"""Projective measurements in Bloch coordinates.

A projector P on an N-level system is stored as the affine pair
``(u0, u)`` with ``u0 = Tr(P)/N`` and ``u_i = Tr(P s_i)/N``, i.e.
``P = u0 I + (N/2) u . s``.  Under the state scaling of
:mod:`blochsig.bloch` the Born rule is then literally ``p = u0 + u . r``.

For a bipartite state, outcome k of a measurement on party 2 leaves party 1
in the collapsed coordinates

    r1'_j = ( u0_k r1_j + sum_n r12_jn u_k_n ) / p_k ,

and the later single-outcome statistics of party 1 are the branch-weighted
average of its evolved conditional states (:func:`local_distribution`;
:func:`local_distributions` evolves the branches of several states and
remote observables as one batch, sampled at several times).  That average
is the quantity whose sensitivities the audit module differentiates.

:func:`packed_distributions` is that batch on arrays: packed joint rows
``x`` and remote outcomes ``(u0, u)``, per row or shared by every row.
:func:`local_distributions` packs its pairs once and calls it, as the
audit's state channels do with their shifted rows.

Outcomes of any rank are allowed; an observable only has to consist of
mutually orthogonal projectors resolving the identity.
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
    "local_distributions",
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
    """Rank-1 observable from an orthonormal set of vectors (rows)."""
    vecs = np.asarray(vectors, dtype=complex)
    if vecs.ndim != 2 or vecs.shape[1] != basis.dim:
        raise DimensionMismatchError(
            f"expected vectors of length {basis.dim}, got shape {vecs.shape}"
        )
    gram = vecs @ vecs.conj().T
    if np.max(np.abs(gram - np.eye(len(vecs)))) > 1e-10:
        raise InvalidObservableError("vectors are not orthonormal")
    if len(vecs) != basis.dim:
        raise InvalidObservableError(
            f"need {basis.dim} vectors to resolve the identity, got {len(vecs)}"
        )
    return observable_from_matrices([np.outer(v, v.conj()) for v in vecs], basis)


def computational_observable(dim: int) -> ProjectiveObservable:
    return observable_from_basis(np.eye(dim), cached_basis(dim))


def fourier_observable(dim: int) -> ProjectiveObservable:
    """Discrete-Fourier (Hadamard at dim = 2) conjugate basis."""
    omega = np.exp(2j * np.pi / dim)
    cols = np.array([[omega ** (j * k) for j in range(dim)] for k in range(dim)])
    return observable_from_basis(cols / np.sqrt(dim), cached_basis(dim))


def rotate_observable(
    obs: ProjectiveObservable, direction: np.ndarray, theta: float
) -> ProjectiveObservable:
    """Conjugate every outcome by exp(-i theta G) for Hermitian G."""
    g = np.asarray(direction, dtype=complex)
    if g.shape != (obs.dim, obs.dim):
        raise DimensionMismatchError(f"direction must be {(obs.dim, obs.dim)}, got {g.shape}")
    if np.max(np.abs(g - g.conj().T)) > 1e-12:
        raise InvalidObservableError("rotation direction must be Hermitian")
    w, v = np.linalg.eigh(g)
    unitary = (v * np.exp(-1j * theta * w)) @ v.conj().T
    basis = cached_basis(obs.dim)
    mats = [unitary @ p.matrix(basis) @ unitary.conj().T for p in obs.outcomes]
    return observable_from_matrices(mats, basis)


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
    measured obs2 at time 0.

    Every branch state collapses per :func:`conditional_state`, evolves in
    isolation under the reduced flow the law induces (driven by party 1's
    local Hamiltonian coefficients ``h_local``), and is averaged with its
    branch weight.  Branches at or below the probability floor contribute
    zero.  Summation order is ascending in the outcome index so results are
    reproducible bit for bit.
    """
    return local_distributions(
        [(joint, obs2)], obs1, law, [t], h_local=h_local, options=options
    )[0, 0]


def local_distributions(
    pairs,
    obs1: ProjectiveObservable,
    law: "dynamics.EvolutionLaw",
    times,
    *,
    h_local=None,
    options=None,
) -> np.ndarray:
    """:func:`local_distribution` for each ``(joint, obs2)`` pair at each
    ascending time, shape ``(len(times), len(pairs), len(obs1))``.

    The pairs must share their dims.  Their branches form one ``(B, d)``
    batch that the reduced flow propagates once, sampled at every time.
    Party 1's Born probabilities of every evolved branch come from one
    affine map per time, and each pair's weighted branches are summed in
    ascending outcome order (one unbuffered scatter-add), as a single pair
    at a single time would sum them.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (joint, obs2) pair")
    dims = pairs[0][0].dims
    width = max(len(obs2) for _, obs2 in pairs)  # zero projectors pad shorter observables
    u0, u = np.zeros((len(pairs), width)), np.zeros((len(pairs), width, dims[1] ** 2 - 1))
    for i, (joint, obs2) in enumerate(pairs):
        if joint.dims != dims or obs2.dim != dims[1]:
            raise DimensionMismatchError(
                f"every pair needs dims {dims} and a remote observable of dim {dims[1]}, "
                f"got dims {joint.dims} and dim {obs2.dim}"
            )
        u0[i, : len(obs2)] = obs2.u0_vector()
        u[i, : len(obs2)] = obs2.u_matrix()
    x = np.stack([pack_coords(joint) for joint, _ in pairs])
    return packed_distributions(x, u0, u, dims, obs1, law, times, h_local=h_local, options=options)


def packed_distributions(x, u0, u, dims, obs1, law, times, *, h_local=None, options=None):
    """:func:`local_distributions` for packed joint rows ``x`` (shape
    ``(P, d)``) of ``dims`` with remote outcomes ``u0, u`` of shapes
    ``(P, K), (P, K, d2)`` (zero rows pad fewer outcomes), or ``(K,), (K, d2)``
    for one observable shared by every row; ``(len(times), P, len(obs1))``."""
    n1, n2 = dims
    d1, d2 = n1**2 - 1, n2**2 - 1
    if (obs1.dim, u.shape[-1], x.shape[-1]) != (n1, d2, d1 + d2 + d1 * d2):
        raise DimensionMismatchError(
            f"local observable dim {obs1.dim}, remote outcomes of length {u.shape[-1]} "
            f"and rows of length {x.shape[-1]} do not fit dims {dims}"
        )
    p, scaled = _collapse(x, u0, u, d1)
    keep = ~(p <= EPS_PROB)  # a NaN weight stays in, and poisons its row
    owners = np.nonzero(keep)[0]
    weights = p[keep]
    states = scaled[keep] / weights[:, None]
    if h_local is None:
        h_local = np.zeros(d1)
    flow = dynamics.reduced_flow(law, h_local, n1)
    evolved = flow.sample(states, times, options)
    born = obs1.u0_vector() + _dots(evolved[:, :, None, :], obs1.u_matrix())
    out = np.zeros((len(evolved), len(x), len(obs1)))
    np.add.at(out, (slice(None), owners), weights[:, None] * born)
    return out
