"""Coordinate conversions, physicality checks, reductions, purity."""

import numpy as np
import pytest

from blochsig.bloch import (
    BlochState,
    JointBlochState,
    from_bloch,
    joint_from_bloch,
    joint_to_bloch,
    partial_trace,
    purity,
    reduce,
    to_bloch,
    validate_density_matrix,
)
from blochsig.errors import DimensionMismatchError, UnphysicalStateError
from blochsig.sampling import random_density, singlet_state
from blochsig.su_basis import cached_basis

from helpers import trace_out


def test_maximally_mixed_has_zero_coordinates():
    state = to_bloch(np.eye(3) / 3.0, cached_basis(3))
    np.testing.assert_allclose(state.r, 0.0, atol=1e-15)


def test_qubit_ground_state_points_up():
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    state = to_bloch(rho, cached_basis(2))
    np.testing.assert_allclose(state.r, [0.0, 0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_single_system_roundtrip(dim):
    rng = np.random.default_rng(100 + dim)
    basis = cached_basis(dim)
    for _ in range(30):
        rho = random_density(rng, dim)
        rebuilt = from_bloch(to_bloch(rho, basis), basis)
        assert np.max(np.abs(rho - rebuilt)) <= 1e-12


def test_from_bloch_zero_vector_is_maximally_mixed():
    rho = from_bloch(BlochState(3, np.zeros(8)), cached_basis(3))
    np.testing.assert_allclose(rho, np.eye(3) / 3.0, atol=1e-15)


def test_from_bloch_plus_state():
    rho = from_bloch(BlochState(2, [1.0, 0.0, 0.0]), cached_basis(2))
    np.testing.assert_allclose(rho, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-15)


def test_from_bloch_outside_ball_raises_with_payload():
    with pytest.raises(UnphysicalStateError) as info:
        from_bloch(BlochState(2, [0.0, 0.0, 2.0]), cached_basis(2))
    assert info.value.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)


def test_singlet_coordinates():
    state = singlet_state()
    np.testing.assert_allclose(state.r1, 0.0, atol=1e-14)
    np.testing.assert_allclose(state.r2, 0.0, atol=1e-14)
    np.testing.assert_allclose(state.r12, -np.eye(3), atol=1e-14)


def test_product_state_correlations_factorize():
    rng = np.random.default_rng(5)
    b2, b3 = cached_basis(2), cached_basis(3)
    rho1, rho2 = random_density(rng, 2), random_density(rng, 3)
    joint = joint_to_bloch(np.kron(rho1, rho2), b2, b3)
    r1 = to_bloch(rho1, b2).r
    r2 = to_bloch(rho2, b3).r
    np.testing.assert_allclose(joint.r1, r1, atol=1e-13)
    np.testing.assert_allclose(joint.r2, r2, atol=1e-13)
    np.testing.assert_allclose(joint.r12, np.outer(r1, r2), atol=1e-12)


def test_joint_maximally_mixed_is_all_zero():
    joint = joint_to_bloch(np.eye(6) / 6.0, cached_basis(2), cached_basis(3))
    assert np.max(np.abs(joint.r1)) <= 1e-15
    assert np.max(np.abs(joint.r2)) <= 1e-15
    assert np.max(np.abs(joint.r12)) <= 1e-15


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_joint_roundtrip(dims):
    rng = np.random.default_rng(sum(dims))
    b1, b2 = cached_basis(dims[0]), cached_basis(dims[1])
    for _ in range(100):
        rho = random_density(rng, dims[0] * dims[1])
        rebuilt = joint_from_bloch(joint_to_bloch(rho, b1, b2), b1, b2)
        assert np.max(np.abs(rho - rebuilt)) <= 1e-12


def test_positive_identity_correlations_are_unphysical():
    state = JointBlochState((2, 2), np.zeros(3), np.zeros(3), np.eye(3))
    with pytest.raises(UnphysicalStateError) as info:
        joint_from_bloch(state, cached_basis(2), cached_basis(2))
    assert info.value.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)


def test_reduce_singlet_and_product():
    assert np.max(np.abs(reduce(singlet_state(), 1).r)) <= 1e-14
    rng = np.random.default_rng(8)
    rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
    joint = joint_to_bloch(np.kron(rho1, rho2), cached_basis(2), cached_basis(2))
    np.testing.assert_allclose(reduce(joint, 1).r, to_bloch(rho1, cached_basis(2)).r, atol=1e-13)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_reduce_matches_partial_trace_oracle(dims):
    rng = np.random.default_rng(31)
    b1, b2 = cached_basis(dims[0]), cached_basis(dims[1])
    for _ in range(20):
        rho = random_density(rng, dims[0] * dims[1])
        joint = joint_to_bloch(rho, b1, b2)
        for subsystem, basis in ((1, b1), (2, b2)):
            oracle = to_bloch(trace_out(rho, dims, keep=subsystem), basis).r
            assert np.max(np.abs(reduce(joint, subsystem).r - oracle)) <= 1e-12


def test_partial_trace_consistency():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 6)
    np.testing.assert_allclose(partial_trace(rho, (2, 3), 1), trace_out(rho, (2, 3), 1))
    np.testing.assert_allclose(partial_trace(rho, (2, 3), 2), trace_out(rho, (2, 3), 2))


def test_purity_bounds_and_examples():
    assert purity(BlochState(3, np.zeros(8))) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert purity(BlochState(2, [0.0, 0.0, 1.0])) == pytest.approx(1.0, abs=1e-15)


def test_purity_matches_matrix():
    rng = np.random.default_rng(77)
    basis = cached_basis(3)
    for _ in range(20):
        rho = random_density(rng, 3)
        expected = float(np.real(np.trace(rho @ rho)))
        assert purity(to_bloch(rho, basis)) == pytest.approx(expected, abs=1e-12)
        assert 1.0 / 3.0 - 1e-12 <= purity(to_bloch(rho, basis)) <= 1.0 + 1e-12


def test_pure_states_saturate_the_norm_bound():
    rng = np.random.default_rng(12)
    for dim in (2, 3, 4):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        state = to_bloch(np.outer(v, v.conj()), cached_basis(dim))
        assert float(state.r @ state.r) == pytest.approx(dim * (dim - 1) / 2.0, abs=1e-10)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        to_bloch(np.eye(3) / 3.0, cached_basis(2))
    with pytest.raises(DimensionMismatchError):
        from_bloch(BlochState(2, np.zeros(3)), cached_basis(3))
    with pytest.raises(DimensionMismatchError):
        JointBlochState((2, 2), np.zeros(3), np.zeros(8), np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        joint_to_bloch(np.eye(4) / 4.0, cached_basis(2), cached_basis(3))


@pytest.mark.parametrize(
    "reconstruct",
    [
        lambda: from_bloch(BlochState(2, [np.nan, 0.0, 0.0]), cached_basis(2)),
        lambda: joint_from_bloch(
            JointBlochState((2, 2), np.zeros(3), np.zeros(3), np.diag([np.nan, 0.0, 0.0])),
            cached_basis(2),
            cached_basis(2),
        ),
        lambda: validate_density_matrix(np.full((2, 2), np.nan)),
    ],
    ids=["from_bloch", "joint_from_bloch", "validate_density_matrix"],
)
def test_nonfinite_input_is_unphysical(reconstruct):
    with pytest.raises(UnphysicalStateError, match="non-finite"):
        reconstruct()
