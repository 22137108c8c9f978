"""Property tests of the packed joint frame over random dimensions 2..4."""

import numpy as np
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


@fixed
@given(dims=dims_strategy)
def test_frame_directions_and_duals_are_biorthogonal(dims):
    dirs, duals = joint_frame(*map(cached_basis, dims))
    gram = np.einsum("uab,vba->uv", dirs, duals)
    np.testing.assert_allclose(gram, np.eye(len(dirs)), atol=1e-12)


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
