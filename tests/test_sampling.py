"""Stacked sampling: the audit's one-block ensemble and fit probes against
their one-object-at-a-time oracles, bit for bit, and every stacked
transform's one-member case against its oracle (and ``random_density``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsig import nosignal_audit
from blochsig.dynamics import BlochHamiltonian, linear_law, reduced_propagator_fit
from blochsig.measurement import observable_from_basis
from blochsig.nosignal_audit import AuditConfig, polesink_law
from blochsig.sampling import (
    haar_unitaries,
    hermitian_directions,
    hs_densities,
    interior_joint_state,
    random_density,
    random_interior_joint,
)
from blochsig.su_basis import cached_basis

from helpers import (
    reference_basis_observable,
    reference_density,
    reference_direction,
    reference_ensemble,
    reference_haar_unitary,
    reference_propagator_fit,
)

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]


def _same_observable(obs, ref):
    assert np.array_equal(obs.u0_vector(), ref.u0_vector())
    assert np.array_equal(obs.u_matrix(), ref.u_matrix())


@pytest.mark.parametrize("dims", DIMS, ids=[f"{a}x{b}" for a, b in DIMS])
@settings(max_examples=18, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ensemble_size=st.sampled_from([1, 2, 7]),
    mix_weight=st.sampled_from([0.0, 0.2, 0.9]),
    fit_probes=st.sampled_from([0, 20]),
    nonlinear=st.booleans(),
)
def test_one_block_ensemble_and_fit_equal_the_per_member_draws(
    dims, seed, ensemble_size, mix_weight, fit_probes, nonlinear
):
    config = AuditConfig(ensemble_size=ensemble_size, seed=seed, mix_weight=mix_weight,
                         fit_probes=fit_probes)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    columns = nosignal_audit._ensemble(dims, config, rng)
    members = reference_ensemble(dims, config, ref_rng)
    assert [len(column) for column in columns] == [len(members)] * 4 == [ensemble_size] * 4
    for (joint, remote, local, family), (state, obs2, obs1, direction) in zip(zip(*columns),
                                                                             members):
        for block in ("r1", "r2", "r12"):
            assert np.array_equal(getattr(joint, block), getattr(state, block))
        _same_observable(remote, obs2)
        _same_observable(local, obs1)
        assert family.base is remote
        assert np.array_equal(family.direction, direction)
    assert rng.standard_normal() == ref_rng.standard_normal()

    law = polesink_law(0.1) if nonlinear else linear_law()
    hamiltonian = BlochHamiltonian(dims, h1=0.3 * np.ones(dims[0] ** 2 - 1),
                                   h2=0.2 * np.ones(dims[1] ** 2 - 1))
    # party 2's fit is party 1's fit of the Hamiltonian with the parties swapped
    for h in (hamiltonian, BlochHamiltonian(dims[::-1], h1=hamiltonian.h2)):
        a, residual = reduced_propagator_fit(law, h, 0.5, fit_probes, seed)
        ref_a, ref_residual = reference_propagator_fit(law, h, 0.5, fit_probes, seed)
        assert np.array_equal(a, ref_a)
        assert residual == ref_residual


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9])
def test_each_single_sampler_is_its_transform_of_one_member(n):
    rng, stacked_rng, ref_rng = (np.random.default_rng(n) for _ in range(3))
    single = random_density(rng, n)
    assert np.array_equal(single, hs_densities(stacked_rng.standard_normal((1, 2, n, n)))[0])
    assert np.array_equal(single, reference_density(ref_rng, n))
    assert rng.standard_normal() == stacked_rng.standard_normal() == ref_rng.standard_normal()

    for transform, reference in ((haar_unitaries, reference_haar_unitary),
                                 (hermitian_directions, reference_direction)):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        one = transform(rng.standard_normal((1, 2, n, n)))[0]
        assert np.array_equal(one, reference(ref_rng, n))
        assert rng.standard_normal() == ref_rng.standard_normal()

    vectors = reference_haar_unitary(np.random.default_rng(n), n).T
    _same_observable(observable_from_basis(vectors, cached_basis(n)),
                     reference_basis_observable(vectors, cached_basis(n)))


@pytest.mark.parametrize("dims", DIMS, ids=[f"{a}x{b}" for a, b in DIMS])
def test_random_interior_joint_is_the_mixed_hilbert_schmidt_draw(dims):
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    state = random_interior_joint(rng, dims, 0.3)
    ref = interior_joint_state(reference_density(ref_rng, dims[0] * dims[1]), dims, 0.3)
    for block in ("r1", "r2", "r12"):
        assert np.array_equal(getattr(state, block), getattr(ref, block))
    assert rng.standard_normal() == ref_rng.standard_normal()

