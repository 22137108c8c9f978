"""Property tests of the branch layer over random dimensions 2..4: the Born
weights of a remote measurement, the collapse identity, and
``_member_distributions`` at t = 0 with one member per remote observable
(their outcome counts differ); and of the audit: every random linear
Hamiltonian passes it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsig.bloch import BlochState, pack_coords
from blochsig.dynamics import (
    DEFAULT_BRANCH_OPTIONS,
    BlochHamiltonian,
    linear_law,
    random_hamiltonian,
)
from blochsig.measurement import (
    _member_distributions,
    conditional_state,
    observable_from_matrices,
    outcome_probabilities,
)
from blochsig.nosignal_audit import AuditConfig, audit, polesink_law
from blochsig.sampling import random_interior_joint
from blochsig.su_basis import cached_basis

from helpers import reference_haar_unitary

dims_strategy = st.tuples(st.integers(2, 4), st.integers(2, 4))
seeds = st.integers(0, 2**32 - 1)
fixed = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _observables(rng, n):
    """Three observables on n levels, each grouping the columns of its own
    Haar unitary into outcomes: all of rank 1; one of rank 2 and the rest
    of rank 1 (the identity alone at n = 2); a random grouping."""

    def grouped(labels):
        u = reference_haar_unitary(rng, n)
        mats = [u[:, labels == g] @ u[:, labels == g].conj().T for g in np.unique(labels)]
        return observable_from_matrices(mats, cached_basis(n))

    return [grouped(np.arange(n)), grouped(np.r_[0, np.arange(n - 1)]),
            grouped(rng.integers(0, n, size=n))]


@fixed
@given(dims=dims_strategy, seed=seeds)
def test_born_weights_sum_to_one_and_branches_average_back_to_r1(dims, seed):
    rng = np.random.default_rng(seed)
    joint = random_interior_joint(rng, dims)
    for obs2 in _observables(rng, dims[1]):
        branches = [conditional_state(joint, obs2, k) for k in range(len(obs2))]
        assert abs(sum(p for p, _ in branches) - 1.0) <= 1e-12
        mean = sum(p * state.r for p, state in branches)
        np.testing.assert_allclose(mean, joint.r1, rtol=0.0, atol=1e-12)


@fixed
@given(dims=dims_strategy, seed=seeds)
def test_distributions_at_time_zero_are_party_one_born_distributions(dims, seed):
    rng = np.random.default_rng(seed)
    joints = [random_interior_joint(rng, dims) for _ in range(3)]
    remotes = _observables(rng, dims[1])
    obs1 = _observables(rng, dims[0])[2]
    hamiltonian = random_hamiltonian(rng, dims)
    born = np.stack([outcome_probabilities(obs1, BlochState(dims[0], j.r1)) for j in joints])
    x = np.stack([pack_coords(j) for j in joints])
    for law in (linear_law(), polesink_law(0.1)):
        members = [(x, obs.u0_vector(), obs.u_matrix(), obs1, None) for obs in remotes]
        for dist, failures in _member_distributions(members, law, hamiltonian, [0.0],
                                                    DEFAULT_BRANCH_OPTIONS):
            assert not failures
            np.testing.assert_allclose(dist[0], born, rtol=0.0, atol=1e-12)


@fixed
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]), members=st.integers(2, 3),
       seed=st.integers(0, 2**16), data=st.data())
def test_random_linear_hamiltonians_pass_the_audit(dims, members, seed, data):
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1

    def coefficients(n):
        return np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))

    h = BlochHamiltonian(dims, h1=coefficients(d1), h2=coefficients(d2),
                         h12=coefficients(d1 * d2).reshape(d1, d2))
    report = audit(linear_law(), h, AuditConfig(seed=seed, ensemble_size=members, fit_probes=4))
    assert all(v <= report.config.pass_tolerance for v in report.residuals().values())
    assert report.verdict == "pass"
