"""Property tests of the packed joint frame over random dimensions 2..4."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsig.bloch import joint_frame, joint_from_bloch, joint_to_bloch
from blochsig.dynamics import BlochHamiltonian, hamiltonian_from_matrix, random_hamiltonian
from blochsig.sampling import random_density
from blochsig.su_basis import cached_basis

from helpers import coord_distance

dims_strategy = st.tuples(st.integers(2, 4), st.integers(2, 4))
seeds = st.integers(0, 2**32 - 1)
fixed = settings(max_examples=25, deadline=None, derandomize=True, database=None)
DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]


def kron_frame(dims):
    """The directions ``s_i x I``, ``I x l_j``, ``s_i x l_j`` in packed order,
    one ``np.kron`` each, and their trace duals."""
    (n1, n2), (s, l) = dims, (cached_basis(n).matrices for n in dims)
    dirs = np.array([np.kron(a, np.eye(n2)) for a in s] + [np.kron(np.eye(n1), b) for b in l]
                    + [np.kron(a, b) for a in s for b in l])
    return dirs, dirs / np.real(np.einsum("uab,uba->u", dirs, dirs))[:, None, None]


@pytest.mark.parametrize("dims", DIMS, ids=[f"{a}x{b}" for a, b in DIMS])
def test_project_inverts_combine_on_every_unit_row(dims):
    frame = joint_frame(*map(cached_basis, dims))
    units = np.eye((dims[0] * dims[1]) ** 2 - 1)
    for e in units:
        np.testing.assert_allclose(frame.project(frame.combine(0.0, e)), e, rtol=0, atol=1e-15)
    np.testing.assert_allclose(frame.project(frame.combine(0.0, units)), units, rtol=0, atol=1e-15)


@fixed
@given(dims=dims_strategy, seed=seeds, unit=st.floats(-2.0, 2.0))
def test_frame_agrees_with_a_kron_frame(dims, seed, unit):
    rng = np.random.default_rng(seed)
    frame = joint_frame(*map(cached_basis, dims))
    dirs, duals = kron_frame(dims)
    rho = random_density(rng, dims[0] * dims[1])
    x = 0.1 * rng.standard_normal(len(dirs))
    want = unit * np.eye(len(rho)) + np.einsum("u,uab->ab", x, dirs)
    np.testing.assert_allclose(frame.combine(unit, x), want, rtol=0, atol=1e-15)
    for m in (rho, want):
        want_x = np.real(np.einsum("uab,ba->u", duals, m))
        np.testing.assert_allclose(frame.project(m), want_x, rtol=0, atol=1e-15)


@fixed
@given(dims=dims_strategy, seed=seeds, size=st.integers(1, 6))
def test_project_of_a_stack_is_the_project_of_each_matrix(dims, seed, size):
    # the audit projects its members stacked and must get joint_to_bloch's bits
    rng = np.random.default_rng(seed)
    frame = joint_frame(*map(cached_basis, dims))
    n = dims[0] * dims[1]
    stack = np.array([random_density(rng, n) for _ in range(size)])
    stacked = frame.project(stack)
    for m, x in zip(stack, stacked):
        assert np.array_equal(frame.project(m), x)
    state = joint_to_bloch(stack[0], *map(cached_basis, dims))
    assert np.array_equal(n * stacked[0], np.concatenate([state.r1, state.r2, state.r12.ravel()]))


@fixed
@given(dims=dims_strategy, seed=seeds)
def test_joint_conversion_round_trip(dims, seed):
    b1, b2 = map(cached_basis, dims)
    rho = random_density(np.random.default_rng(seed), dims[0] * dims[1])
    state = joint_to_bloch(rho, b1, b2)
    np.testing.assert_allclose(joint_from_bloch(state, b1, b2), rho, atol=1e-12)
    assert coord_distance(joint_to_bloch(joint_from_bloch(state, b1, b2), b1, b2), state) <= 1e-12


@fixed
@given(dims=dims_strategy, seed=seeds, h0=st.floats(-2.0, 2.0))
def test_hamiltonian_matrix_round_trip(dims, seed, h0):
    r = random_hamiltonian(np.random.default_rng(seed), dims, scale=1.0)
    h = BlochHamiltonian(dims, h0, r.h1, r.h2, r.h12)
    back = hamiltonian_from_matrix(h.matrix(), dims)
    assert abs(back.h0 - h.h0) <= 1e-12
    for name in ("h1", "h2", "h12"):
        np.testing.assert_allclose(getattr(back, name), getattr(h, name), rtol=0, atol=1e-12)
