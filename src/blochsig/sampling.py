"""Seeded random states, bases and Hamiltonians.

Everything here is driven by an explicit ``numpy.random.Generator`` so that
audits and tests are reproducible bit for bit.  Mixed states are drawn from
the Hilbert-Schmidt ensemble (Ginibre ``G``, ``rho = G G+ / Tr``;
Zyczkowski & Sommers, J. Phys. A 34, 7111 (2001)) and unitaries from the
phase-fixed QR of a Ginibre matrix (Mezzadri, Notices AMS 54, 592 (2007)).

Each random object is a transform of pre-drawn standard normals of shape
``(..., 2, n, n)`` (real parts, then imaginary parts) over the leading axes:
:func:`hs_densities`, :func:`haar_unitaries` and
:func:`hermitian_directions`.  A stack's normals come from one call,
member-major, so it holds bit for bit the objects drawn one at a time
(``tests/helpers.reference_ensemble`` draws the audit's block that way).

Audits mix every drawn joint state with the maximally mixed one,
``(1 - w) rho + w I / N`` for ``mix_weight`` w (:func:`interior_joint_state`):
that chooses which part of the state space the ensemble probes (every
eigenvalue at least w / N).  The audit's complex steps need no physical
neighbours, so it plays no part in whether a component can be audited.
"""

from __future__ import annotations

import numpy as np

from .bloch import JointBlochState, joint_to_bloch
from .su_basis import _check_pair, cached_basis

__all__ = [
    "hs_densities",
    "haar_unitaries",
    "hermitian_directions",
    "random_density",
    "random_pure_density",
    "singlet_density",
    "singlet_state",
    "maximally_entangled_density",
    "interior_joint_state",
    "random_interior_joint",
]


def _ginibre(normals: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices ``re + i im`` from normals ``(..., 2, n, n)``."""
    return normals[..., 0, :, :] + 1j * normals[..., 1, :, :]


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)[..., None, None]


def hs_densities(normals: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt random mixed states ``G G+ / Tr`` of the Ginibre
    matrices of ``normals``."""
    g = _ginibre(normals)
    rho = g @ _adjoint(g)
    return rho / _trace(rho).real


def haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries: the QR factor ``Q`` of each Ginibre
    matrix, its columns rephased so that ``R`` has a positive diagonal."""
    q, r = np.linalg.qr(_ginibre(normals))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def hermitian_directions(normals: np.ndarray) -> np.ndarray:
    """Traceless Hermitian matrices of unit Frobenius norm (rotation axes
    for observable families; the traceless part is what actually rotates)."""
    a = _ginibre(normals)
    n = a.shape[-1]
    h = 0.5 * (a + _adjoint(a))
    h -= _trace(h) / n * np.eye(n)
    # One norm per matrix: a norm over the stacked axes sums in another order.
    norms = [np.linalg.norm(m) for m in h.reshape(-1, n, n)]
    return h / np.reshape(norms, h.shape[:-2] + (1, 1))


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hilbert-Schmidt random mixed state."""
    return hs_densities(rng.standard_normal((2, n, n)))


def random_pure_density(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def singlet_density() -> np.ndarray:
    """Two-qubit singlet (|01> - |10>)/sqrt(2) as a density matrix."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def singlet_state() -> JointBlochState:
    """Singlet in coordinates: r1 = r2 = 0, r12 = -identity."""
    return joint_to_bloch(singlet_density(), cached_basis(2), cached_basis(2))


def maximally_entangled_density(n: int) -> np.ndarray:
    """|Phi><Phi| with |Phi> = sum_i |ii> / sqrt(n), for two n-level parties."""
    v = np.zeros(n * n, dtype=complex)
    for i in range(n):
        v[i * n + i] = 1.0 / np.sqrt(n)
    return np.outer(v, v.conj())


def interior_joint_state(rho: np.ndarray, dims: tuple[int, int], mix: float) -> JointBlochState:
    """Shrink a joint density matrix toward maximal mixedness and convert."""
    n1, n2 = _check_pair(dims)
    nn = n1 * n2
    smoothed = (1.0 - mix) * np.asarray(rho) + mix * np.eye(nn) / nn
    return joint_to_bloch(smoothed, cached_basis(n1), cached_basis(n2))


def random_interior_joint(
    rng: np.random.Generator, dims: tuple[int, int], mix: float = 0.2
) -> JointBlochState:
    """Hilbert-Schmidt random joint state, mixed with the maximally mixed
    state by ``mix`` as :func:`interior_joint_state` does."""
    n1, n2 = _check_pair(dims)
    return interior_joint_state(random_density(rng, n1 * n2), (n1, n2), mix)
