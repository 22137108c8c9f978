"""Generator bases: construction, orthonormality, closure, known tables."""

import itertools
import math

import numpy as np
import pytest

from blochsig.errors import InvalidDimensionError
from blochsig.su_basis import build_generators, cached_basis, structure_constants

from helpers import random_traceless_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_qubit_basis_is_pauli_triple():
    basis = build_generators(2)
    assert len(basis) == 3
    np.testing.assert_array_equal(basis[0], SX)
    np.testing.assert_array_equal(basis[1], SY)
    np.testing.assert_array_equal(basis[2], SZ)
    # iterating yields the same matrices in the same order
    for matrix, pauli in zip(basis, (SX, SY, SZ), strict=True):
        np.testing.assert_array_equal(matrix, pauli)


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_invalid_dimension_rejected(bad):
    with pytest.raises(InvalidDimensionError):
        build_generators(bad)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_generator_invariants(dim):
    basis = build_generators(dim)
    m = basis.matrices
    assert m.shape == (dim**2 - 1, dim, dim)
    assert np.max(np.abs(m - m.conj().transpose(0, 2, 1))) <= 1e-14
    assert np.max(np.abs(np.einsum("iaa->i", m))) <= 1e-14
    gram = np.real(np.einsum("iab,jba->ij", m, m))
    np.testing.assert_allclose(gram, 2.0 * np.eye(dim**2 - 1), atol=1e-12)
    assert np.linalg.matrix_rank(gram) == dim**2 - 1


def test_qutrit_last_diagonal_generator():
    basis = build_generators(3)
    np.testing.assert_allclose(
        basis[-1], np.diag([1.0, 1.0, -2.0]) / math.sqrt(3.0), atol=1e-15
    )


def test_qubit_structure_constants_are_levi_civita():
    sc = structure_constants(build_generators(2))
    eps = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        sign = 1.0
        perm = [i, j, k]
        # parity of the permutation
        if perm in ([0, 2, 1], [1, 0, 2], [2, 1, 0]):
            sign = -1.0
        eps[i, j, k] = sign
    np.testing.assert_allclose(sc.f, eps, atol=1e-14)
    assert np.max(np.abs(sc.g)) <= 1e-14


def test_qutrit_table_values():
    sc = structure_constants(build_generators(3))
    f, g = sc.f, sc.g
    s3 = math.sqrt(3.0)
    expected_f = {
        (0, 1, 2): 1.0,
        (0, 3, 6): 0.5,
        (0, 4, 5): -0.5,
        (1, 3, 5): 0.5,
        (1, 4, 6): 0.5,
        (2, 3, 4): 0.5,
        (2, 5, 6): -0.5,
        (3, 4, 7): s3 / 2,
        (5, 6, 7): s3 / 2,
    }
    for idx, value in expected_f.items():
        assert abs(f[idx] - value) <= 1e-12, (idx, f[idx], value)
    expected_g = {
        (0, 0, 7): 1 / s3,
        (1, 1, 7): 1 / s3,
        (2, 2, 7): 1 / s3,
        (7, 7, 7): -1 / s3,
        (0, 3, 5): 0.5,
        (3, 3, 7): -0.5 / s3,
    }
    for idx, value in expected_g.items():
        assert abs(g[idx] - value) <= 1e-12, (idx, g[idx], value)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_f_antisymmetric_g_symmetric(dim):
    sc = structure_constants(build_generators(dim))
    for perm, sign in (
        ((1, 0, 2), -1.0),
        ((0, 2, 1), -1.0),
        ((2, 1, 0), -1.0),
        ((1, 2, 0), 1.0),
        ((2, 0, 1), 1.0),
    ):
        assert np.max(np.abs(sc.f.transpose(perm) - sign * sc.f)) <= 1e-12
        assert np.max(np.abs(sc.g.transpose(perm) - sc.g)) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_jacobi_identity(dim):
    f = structure_constants(build_generators(dim)).f
    jac = (
        np.einsum("ijm,mkl->ijkl", f, f)
        + np.einsum("jkm,mil->ijkl", f, f)
        + np.einsum("kim,mjl->ijkl", f, f)
    )
    assert np.max(np.abs(jac)) <= 1e-11


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_closure_relations(dim):
    basis = build_generators(dim)
    sc = structure_constants(basis)
    m = basis.matrices
    prod = np.einsum("iab,jbc->ijac", m, m)
    comm = prod - prod.transpose(1, 0, 2, 3)
    anti = prod + prod.transpose(1, 0, 2, 3)
    d = dim**2 - 1
    comm_rebuilt = 2j * np.einsum("ijk,kab->ijab", sc.f, m)
    anti_rebuilt = (4.0 / dim) * np.einsum("ij,ab->ijab", np.eye(d), np.eye(dim)) + (
        2.0 * np.einsum("ijk,kab->ijab", sc.g, m)
    )
    assert np.max(np.abs(comm - comm_rebuilt)) <= 1e-11
    assert np.max(np.abs(anti - anti_rebuilt)) <= 1e-11


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_traceless_hermitian_reconstruction(dim):
    rng = np.random.default_rng(17 + dim)
    basis = build_generators(dim)
    for _ in range(10):
        a = random_traceless_hermitian(rng, dim)
        coeffs = np.real(np.einsum("ab,iba->i", a, basis.matrices)) / 2.0
        rebuilt = np.einsum("i,iab->ab", coeffs, basis.matrices)
        assert np.max(np.abs(a - rebuilt)) <= 1e-12


def test_z_view_combines_f_and_g():
    sc = structure_constants(build_generators(3))
    np.testing.assert_array_equal(sc.z, sc.g + 1j * sc.f)
    assert sc.z[0, 1, 2] == sc.g[0, 1, 2] + 1j * sc.f[0, 1, 2]


def test_cached_basis_is_memoized():
    assert cached_basis(3) is cached_basis(3)
