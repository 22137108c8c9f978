"""Generalized Gell-Mann bases of su(N) and their structure constants.

Every other module expands states, projectors and Hamiltonians in one of
these bases, so the normalization and the ordering fixed here propagate
through the whole package:

* normalization: ``Tr(s_i s_j) = 2 delta_ij`` (the Pauli matrices appear
  unchanged at N = 2);
* ordering: walk the columns k = 1..N-1 of the matrix; for every row
  j < k emit the symmetric pair ``E_jk + E_kj`` followed by the
  antisymmetric pair ``-i E_jk + i E_kj``, then close the column with the
  diagonal generator supported on the first k+1 levels.  At N = 3 this is
  the textbook numbering of the eight Gell-Mann matrices, so the familiar
  constants (f_123 = 1, g_118 = 1/sqrt(3)) keep their usual indices.

Structure constants are always computed from traces on the actual basis,
never read from closed-form tables; the tables only show up in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidDimensionError

__all__ = [
    "GeneratorSet",
    "StructureConstants",
    "build_generators",
    "structure_constants",
    "cached_basis",
    "cached_constants",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Ordered basis of the N**2 - 1 traceless Hermitian generators of SU(N).

    ``matrices`` has shape ``(N**2 - 1, N, N)`` and is read-only; instances
    are safe to share freely between threads.  Equality and hashing are by
    identity, so any basis can key a cache.
    """

    dim: int
    matrices: np.ndarray

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def __getitem__(self, i) -> np.ndarray:
        return self.matrices[i]

    def __iter__(self):
        return iter(self.matrices)


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Commutation data of a generator set.

    ``f`` is the totally antisymmetric tensor with
    ``[s_i, s_j] = 2i sum_k f_ijk s_k`` and ``g`` the totally symmetric one
    with ``{s_i, s_j} = (4/N) delta_ij I + 2 sum_k g_ijk s_k``.
    """

    dim: int
    f: np.ndarray
    g: np.ndarray

    @property
    def z(self) -> np.ndarray:
        """Combined tensor g + i f, the expansion of plain products:
        ``s_i s_j = (2/N) delta_ij I + sum_k z_ijk s_k``."""
        return self.g + 1j * self.f


def _check_dim(dim) -> int:
    """``dim`` as an ``int``: the dimension of a system, an integer (not a
    bool) >= 2, or ``InvalidDimensionError``.  Every constructor that takes
    dims applies it."""
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {dim!r}")
    return int(dim)


def _check_pair(dims) -> tuple[int, int]:
    """``dims`` as a pair of ``int`` dimensions (:func:`_check_dim` each), or
    ``InvalidDimensionError`` naming ``dims`` when it is no pair."""
    try:
        n1, n2 = dims
    except (TypeError, ValueError):
        raise InvalidDimensionError(f"dims must be a pair of dimensions, got {dims!r}") from None
    return _check_dim(n1), _check_dim(n2)


def build_generators(dim: int) -> GeneratorSet:
    """Construct the canonical generalized Gell-Mann basis for SU(dim).

    Returns the Pauli triple (x, y, z) at dim = 2 and the standard eight
    Gell-Mann matrices at dim = 3.  Raises ``InvalidDimensionError`` for
    dim < 2.
    """
    dim = _check_dim(dim)
    mats = []
    for k in range(1, dim):
        for j in range(k):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = 1.0
            sym[k, j] = 1.0
            mats.append(sym)
            ant = np.zeros((dim, dim), dtype=complex)
            ant[j, k] = -1.0j
            ant[k, j] = 1.0j
            mats.append(ant)
        diag = np.zeros((dim, dim), dtype=complex)
        scale = math.sqrt(2.0 / (k * (k + 1)))
        for m in range(k):
            diag[m, m] = scale
        diag[k, k] = -k * scale
        mats.append(diag)
    return GeneratorSet(dim, _readonly(np.stack(mats)))


def structure_constants(basis: GeneratorSet) -> StructureConstants:
    """Compute f and g from traces over the given basis.

    ``f_ijk = Tr([s_i, s_j] s_k) / (4i)`` and
    ``g_ijk = Tr({s_i, s_j} s_k) / 4``.  For a Hermitian basis
    ``Tr(s_j s_i s_k)`` is the conjugate of ``T_ijk = Tr(s_i s_j s_k)``, so
    ``f = Im(T) / 2`` and ``g = Re(T) / 2``, with ``T`` one matrix product of
    the pair products ``(d**2, N**2)`` and the transposed basis ``(N**2, d)``.
    """
    m = basis.matrices
    d, n = len(m), basis.dim
    pairs = (m[:, None] @ m).reshape(d * d, n * n)  # (s_i s_j)_ac
    t = (pairs @ m.transpose(2, 1, 0).reshape(n * n, d)).reshape(d, d, d)  # sum_ac (..)_ac s_k,ca
    return StructureConstants(basis.dim, _readonly(t.imag / 2.0), _readonly(t.real / 2.0))


@lru_cache(maxsize=64)
def cached_basis(dim: int) -> GeneratorSet:
    """Memoized ``build_generators`` (instances are immutable)."""
    return build_generators(dim)


@lru_cache(maxsize=64)
def cached_constants(dim: int) -> StructureConstants:
    """Memoized structure constants for the canonical basis."""
    return structure_constants(cached_basis(dim))
