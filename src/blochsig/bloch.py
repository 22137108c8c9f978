"""Bloch-coordinate representation of single and bipartite density matrices.

A single system of dimension N is written
``rho = (1/N) (I + r . s)`` with the real coordinate vector
``r_i = (N/2) Tr(rho s_i)``.  A bipartite system factors into the triple
``(r1, r2, r12)``:

    rho = (1/(N1 N2)) ( I  +  r1 . (s x I)  +  r2 . (I x l)
                          +  sum_ij r12_ij  s_i x l_j )

with ``r12_ij = (N1 N2 / 4) Tr(rho s_i x l_j)``.  Under this scaling the
Born rule and the collapse update used in :mod:`blochsig.measurement` hold
with no stray prefactors, and the two-qubit singlet gets the clean
coordinates r1 = r2 = 0, r12 = -I.

The packed joint layout ``x = (r1, r2, row-major r12)`` has one home, the
Fano form of :func:`joint_frame`: every joint conversion, Hamiltonian matrix
and the commutator oracle go through its ``combine`` and ``project``.

Physicality is always decided by eigenvalues of the reconstructed matrix;
for N > 2 the physical set is a proper subset of the coordinate ball, so
norm bounds alone prove nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, UnphysicalStateError
from .su_basis import GeneratorSet, _check_dim, _check_pair, _readonly

__all__ = [
    "PSD_TOLERANCE",
    "BlochState",
    "JointBlochState",
    "to_bloch",
    "from_bloch",
    "joint_to_bloch",
    "joint_from_bloch",
    "joint_frame",
    "pack_coords",
    "unpack_coords",
    "reduce",
    "purity",
    "partial_trace",
    "min_eigenvalue",
    "validate_density_matrix",
]

# Smallest eigenvalue still counted as physical; absorbs integrator noise
# without masking genuine violations.
PSD_TOLERANCE = -1e-10

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12


def _asvector(r, length, what: str) -> np.ndarray:
    arr = np.asarray(r, dtype=float).reshape(-1)
    if arr.shape != (length,):
        raise DimensionMismatchError(f"{what} must have length {length}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BlochState:
    """Coordinate vector of a single system of dimension ``dim``."""

    dim: int
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_dim(self.dim))
        object.__setattr__(self, "r", _asvector(self.r, self.dim**2 - 1, "r"))


@dataclass(frozen=True, eq=False)
class JointBlochState:
    """Coordinate triple (r1, r2, r12) of a bipartite system."""

    dims: tuple[int, int]
    r1: np.ndarray
    r2: np.ndarray
    r12: np.ndarray

    def __post_init__(self):
        n1, n2 = _check_pair(self.dims)
        object.__setattr__(self, "dims", (n1, n2))
        d1, d2 = n1**2 - 1, n2**2 - 1
        object.__setattr__(self, "r1", _asvector(self.r1, d1, "r1"))
        object.__setattr__(self, "r2", _asvector(self.r2, d2, "r2"))
        r12 = np.asarray(self.r12, dtype=float)
        if r12.shape != (d1, d2):
            raise DimensionMismatchError(f"r12 must have shape {(d1, d2)}, got {r12.shape}")
        r12.setflags(write=False)
        object.__setattr__(self, "r12", r12)


def min_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of a (numerically) Hermitian matrix."""
    return float(np.linalg.eigvalsh(rho)[0])


def _check_psd(rho: np.ndarray, what: str) -> None:
    """Raise ``UnphysicalStateError`` unless rho is finite with smallest
    eigenvalue at least ``PSD_TOLERANCE``; ``what`` opens the message."""
    if not np.isfinite(rho).all():
        raise UnphysicalStateError(f"{what}: non-finite entries")
    low = min_eigenvalue(rho)
    if low < PSD_TOLERANCE:
        raise UnphysicalStateError(f"{what} (min eigenvalue {low:.3e})", min_eigenvalue=low)


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ``UnphysicalStateError`` unless rho is finite, Hermitian, unit
    trace and positive semidefinite within tolerance."""
    rho = np.asarray(rho)
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > _HERM_TOL:
        raise UnphysicalStateError(f"matrix is not Hermitian (deviation {herm:.3e})")
    tr = abs(np.trace(rho) - 1.0)
    if tr > _TRACE_TOL:
        raise UnphysicalStateError(f"trace deviates from 1 by {tr:.3e}")
    _check_psd(rho, "matrix is not positive semidefinite")


def _check_dims(dim: int, basis: GeneratorSet) -> None:
    if basis.dim != dim:
        raise DimensionMismatchError(f"basis dimension {basis.dim} != system dimension {dim}")


def to_bloch(rho: np.ndarray, basis: GeneratorSet) -> BlochState:
    """Project a density matrix onto coordinates r_i = (N/2) Tr(rho s_i)."""
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0]
    _check_dims(n, basis)
    r = 0.5 * n * np.real(np.einsum("ab,iba->i", rho, basis.matrices))
    return BlochState(n, r)


def from_bloch(state: BlochState, basis: GeneratorSet, *, check: bool = True) -> np.ndarray:
    """Reconstruct ``(1/N)(I + r . s)``.

    With ``check`` (the default) the result must be positive semidefinite,
    otherwise ``UnphysicalStateError`` is raised with the offending
    eigenvalue attached.
    """
    _check_dims(state.dim, basis)
    n = state.dim
    rho = (np.eye(n, dtype=complex) + np.einsum("i,iab->ab", state.r, basis.matrices)) / n
    if check:
        _check_psd(rho, "coordinates leave the physical set")
    return rho


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite matrix; ``keep`` is 1 or 2."""
    n1, n2 = _check_pair(dims)
    rho4 = np.asarray(rho).reshape(n1, n2, n1, n2)
    if keep == 1:
        return np.einsum("abcb->ac", rho4)
    if keep == 2:
        return np.einsum("abad->bd", rho4)
    raise ValueError("keep must be 1 or 2")


class JointFrame(NamedTuple):
    """Fano form of the packed layout: coordinate u is ``S_a x L_b`` of the flat stacks ``s1``,
    ``s2`` of ``(I, s_1, ...)``, at grid index ``order[u]``, of squared norm ``norms[u]``."""

    dims: tuple[int, int]
    s1: np.ndarray
    s2: np.ndarray
    order: np.ndarray
    norms: np.ndarray

    def combine(self, unit: float, x: np.ndarray) -> np.ndarray:
        """``unit I + sum_u x_u S_a x L_b`` of packed ``x``, or of each row of a stack."""
        (n1, n2), lead = self.dims, x.shape[:-1]
        grid = np.empty((*lead, n1 * n1, n2 * n2), dtype=complex)
        grid[..., 0, 0], grid.reshape(*lead, -1)[..., self.order] = unit, x
        m = (self.s1.T @ grid @ self.s2).reshape(*lead, n1, n1, n2, n2)
        return m.swapaxes(-3, -2).reshape(*lead, n1 * n2, -1)

    def project(self, m: np.ndarray) -> np.ndarray:
        """Packed ``Re Tr(S_a x L_b m) / norms_u`` of one matrix, or of each of a stack."""
        (n1, n2), lead = self.dims, m.shape[:-2]
        r = np.swapaxes(m, -1, -2).reshape(*lead, n1, n2, n1, n2).swapaxes(-3, -2)
        c = self.s1 @ r.reshape(*lead, n1 * n1, -1) @ self.s2.T
        return np.real(c).reshape(*lead, -1).take(self.order, axis=-1) / self.norms


@lru_cache(maxsize=16)
def joint_frame(b1: GeneratorSet, b2: GeneratorSet) -> JointFrame:
    """The read-only Fano frame of the bases ``b1, b2``, built once."""
    s1, s2 = (np.insert(b.matrices, 0, np.eye(b.dim), 0).reshape(b.dim**2, -1) for b in (b1, b2))
    grid = np.arange(len(s1) * len(s2)).reshape(len(s1), -1)
    order = _pack(grid[1:, 0], grid[0, 1:], grid[1:, 1:])
    norms = np.outer(*(np.real(np.einsum("ai,ai->a", s, s.conj())) for s in (s1, s2)))
    return JointFrame((b1.dim, b2.dim), *map(_readonly, (s1, s2, order, norms.ravel()[order])))


def _pack(x1, x2, x12) -> np.ndarray:
    return np.concatenate([x1, x2, x12.ravel()])


def pack_coords(state: JointBlochState) -> np.ndarray:
    return _pack(state.r1, state.r2, state.r12)


@lru_cache(maxsize=16)
def _blocks(n1: int, n2: int) -> tuple[slice, slice, slice]:
    """Slices of r1, r2 and the row-major r12 in packed coordinates."""
    d1, d2 = n1**2 - 1, n2**2 - 1
    return slice(0, d1), slice(d1, d1 + d2), slice(d1 + d2, d1 + d2 + d1 * d2)


def _split(x: np.ndarray, dims: tuple[int, int]):
    s1, s2, s12 = _blocks(*dims)
    return x[s1], x[s2], x[s12].reshape(s1.stop, s2.stop - s1.stop)


def unpack_coords(x: np.ndarray, dims: tuple[int, int]) -> JointBlochState:
    return JointBlochState(dims, *_split(x, dims))


def joint_to_bloch(rho12: np.ndarray, b1: GeneratorSet, b2: GeneratorSet) -> JointBlochState:
    """Project a bipartite density matrix onto the (r1, r2, r12) triple."""
    rho12, nn = np.asarray(rho12, dtype=complex), b1.dim * b2.dim
    if rho12.shape != (nn, nn):
        raise DimensionMismatchError(f"joint matrix must be {(nn, nn)}, got {rho12.shape}")
    return unpack_coords(nn * joint_frame(b1, b2).project(rho12), (b1.dim, b2.dim))


def joint_from_bloch(
    state: JointBlochState, b1: GeneratorSet, b2: GeneratorSet, *, check: bool = True
) -> np.ndarray:
    """Inverse of :func:`joint_to_bloch`; optionally verifies physicality."""
    n1, n2 = state.dims
    _check_dims(n1, b1)
    _check_dims(n2, b2)
    rho = joint_frame(b1, b2).combine(1.0, pack_coords(state)) / (n1 * n2)
    if check:
        _check_psd(rho, "joint coordinates leave the physical set")
    return rho


def reduce(state: JointBlochState, subsystem: int) -> BlochState:
    """Reduced coordinates of one party; identical to tracing out the other
    factor of the reconstructed matrix."""
    if subsystem == 1:
        return BlochState(state.dims[0], state.r1)
    if subsystem == 2:
        return BlochState(state.dims[1], state.r2)
    raise ValueError("subsystem must be 1 or 2")


def purity(state: BlochState) -> float:
    """Tr(rho^2) = (1/N)(1 + 2|r|^2/N) without reconstructing the matrix."""
    n = state.dim
    return (1.0 + 2.0 * float(state.r @ state.r) / n) / n
