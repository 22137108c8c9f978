"""The stacked planner of the state channels against the per-component route
of ``helpers.reference_state_differences``.

``d_remote_state`` and ``d_correlations`` check every component's +-h
matrices with one eigenvalue call per halving round and shift packed rows;
the reference checks each component through ``joint_from_bloch`` and builds
``JointBlochState`` branches.  Both feed the same rows, in the same order,
to the same batched propagation, so the sensitivities must be equal, not
merely close, and an infeasible component must raise the same message.
"""

import math
import re

import numpy as np
import pytest

from helpers import reference_state_differences

from blochsig import dynamics, nosignal_audit
from blochsig.bloch import joint_to_bloch
from blochsig.dynamics import linear_law, random_hamiltonian, xi_law
from blochsig.errors import PerturbationInfeasibleError
from blochsig.nosignal_audit import (
    DEFAULT_BRANCH_OPTIONS,
    AuditConfig,
    d_correlations,
    d_remote_state,
    polesink_law,
)
from blochsig.sampling import haar_unitary, singlet_state
from blochsig.su_basis import cached_basis

FD_STEP = 1e-5
TIMES = (0.25, 0.5, 1.0)


def _channels(dims):
    """(d_* function, components, packed indices, names) of both state channels."""
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    ks = list(range(d2))
    ijs = [(i, j) for i in range(d1) for j in range(d2)]
    return (
        (d_remote_state, ks, [d1 + k for k in ks], [f"r2[{k}]" for k in ks]),
        (d_correlations, ijs, [d1 + d2 + i * d2 + j for i, j in ijs],
         [f"r12[{i},{j}]" for i, j in ijs]),
    )


def _member(dims, seed):
    """The first random (non-anchor) member of a seeded ensemble."""
    config = AuditConfig(ensemble_size=2)
    return nosignal_audit._ensemble(dims, config, np.random.default_rng(seed))[1]


def _assert_planner_matches(law, hamiltonian, state, obs2, obs1):
    """Both channels over all components equal the reference exactly;
    returns the reference steps of every component."""
    steps = []
    for d_fn, components, index, names in _channels(state.dims):
        values = d_fn(law, hamiltonian, state, obs2, obs1, TIMES, components,
                      FD_STEP, DEFAULT_BRANCH_OPTIONS)
        expected, used = reference_state_differences(
            law, hamiltonian, state, obs2, obs1, TIMES, index, names, FD_STEP,
            DEFAULT_BRANCH_OPTIONS,
        )
        assert values == expected
        steps += used
    return steps


@pytest.mark.parametrize(
    "law, dims",
    [(polesink_law(0.1), (2, 2)), (linear_law(), (2, 3)), (xi_law("corrnorm"), (3, 3))],
    ids=["polesink-2x2", "linear-2x3", "corrnorm-3x3"],
)
def test_planner_equals_the_per_component_route_on_ensemble_members(law, dims):
    hamiltonian = random_hamiltonian(np.random.default_rng(60), dims, scale=0.6)
    cases = nosignal_audit._ensemble(
        dims, AuditConfig(ensemble_size=2), np.random.default_rng(61)
    )
    for case in cases:
        steps = _assert_planner_matches(
            law, hamiltonian, case.state, case.obs_remote, case.obs_local
        )
        assert steps == [FD_STEP] * len(steps)


def test_planner_halves_only_the_failing_components_near_the_boundary():
    # full rank, with two eigenvalues of 4e-7 and 1.5e-6: a step of 1e-5
    # leaves the physical set along some coordinates and not along others
    dims = (2, 3)
    u = haar_unitary(np.random.default_rng(0), 6)
    spectrum = np.array([4e-7, 1.5e-6, 1.0, 1.0, 1.0, 1.0])
    spectrum[2:] *= (1.0 - spectrum[:2].sum()) / 4.0
    state = joint_to_bloch(u @ np.diag(spectrum) @ u.conj().T, cached_basis(2), cached_basis(3))
    case = _member(dims, 62)
    hamiltonian = random_hamiltonian(np.random.default_rng(63), dims, scale=0.6)
    steps = _assert_planner_matches(
        linear_law(), hamiltonian, state, case.obs_remote, case.obs_local
    )
    assert set(steps) == {FD_STEP, FD_STEP / 2, FD_STEP / 4}


@pytest.mark.parametrize(
    "state",
    [singlet_state(), singlet_state().replace(r1=[math.nan, 0.0, 0.0])],
    ids=["pure-singlet", "non-finite"],
)
def test_every_infeasible_component_raises_the_reference_message(state):
    law, hamiltonian = linear_law(), random_hamiltonian(np.random.default_rng(64), (2, 2))
    case = _member((2, 2), 65)
    args = (law, hamiltonian, state, case.obs_remote, case.obs_local, TIMES)
    for d_fn, components, index, names in _channels(state.dims):
        for component, k, name in zip(components, index, names):
            with pytest.raises(PerturbationInfeasibleError) as planned:
                d_fn(*args, component, FD_STEP, DEFAULT_BRANCH_OPTIONS)
            with pytest.raises(PerturbationInfeasibleError) as reference:
                reference_state_differences(*args, [k], [name], FD_STEP, DEFAULT_BRANCH_OPTIONS)
            assert str(planned.value) == str(reference.value)
            assert str(planned.value) == (
                f"perturbation of {name} leaves the physical set even at step 1.563e-07"
            )
        first = "^" + re.escape(f"perturbation of {names[0]} ")
        with pytest.raises(PerturbationInfeasibleError, match=first):
            d_fn(*args, components, FD_STEP, DEFAULT_BRANCH_OPTIONS)


def test_two_linear_calls_reuse_one_flow_and_its_propagators():
    dims = (2, 3)
    law, hamiltonian = linear_law(), random_hamiltonian(np.random.default_rng(66), dims, scale=0.6)
    case = _member(dims, 67)
    dynamics._shared_flow.cache_clear()
    dynamics.ReducedFlow._rk4_matrix.cache_clear()
    args = (law, hamiltonian, case.state, case.obs_remote, case.obs_local, TIMES, [0, 1, 2],
            FD_STEP, DEFAULT_BRANCH_OPTIONS)
    first = d_remote_state(*args)
    built = dynamics.ReducedFlow._rk4_matrix.cache_info()
    second = d_remote_state(*args)
    again = dynamics.ReducedFlow._rk4_matrix.cache_info()
    assert (built.misses, again.misses, again.hits - built.hits) == (3, 3, 3)  # one per time
    assert repr(second) == repr(first)
    flow = dynamics.reduced_flow(law, hamiltonian.h1.copy(), dims[0])
    assert flow is dynamics.reduced_flow(xi_law("corrnorm"), list(hamiltonian.h1), dims[0])
    assert dynamics._shared_flow.cache_info().misses == 1
    assert not flow.generator.flags.writeable
    assert not flow._rk4_matrix(TIMES[0], DEFAULT_BRANCH_OPTIONS).flags.writeable
