"""The state channels against the central differences of
``helpers.reference_audit``.

``d_remote_state`` and ``d_correlations`` read every component by the chain
rule through the branch Jacobians: the exact derivative of each
probability, to rounding.  The reference shifts each component by ``+-h``
in matrix space and subtracts two real propagations.  On interior members
both shifted states stay physical, so the two must agree to within the
central difference's own error (``h**2`` truncation and ``eps/h``
rounding, both far below 1e-10 at ``h = 1e-5``).  Unlike the central
difference, the chain rule moves no state, so pure states are audited too.
"""

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_audit, reference_ensemble

from blochsig import dynamics
from blochsig.bloch import joint_from_bloch
from blochsig.dynamics import linear_law, random_hamiltonian, xi_law
from blochsig.errors import DimensionMismatchError, UnphysicalStateError
from blochsig.nosignal_audit import (
    DEFAULT_BRANCH_OPTIONS,
    AuditConfig,
    ObservableFamily,
    d_correlations,
    d_remote_observable,
    d_remote_state,
    polesink_law,
)
from blochsig.measurement import computational_observable, fourier_observable
from blochsig.sampling import singlet_state
from blochsig.su_basis import cached_basis

FD_STEP = 1e-5
TIMES = (0.25, 0.5, 1.0)


def _channels(dims):
    """(d_* function, components, report labels) of both state channels."""
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    ks = list(range(d2))
    ijs = [(i, j) for i in range(d1) for j in range(d2)]
    return (
        (d_remote_state, ks, [str(k) for k in ks]),
        (d_correlations, ijs, [f"{i},{j}" for i, j in ijs]),
    )


def _member(dims, seed):
    """The first random (non-anchor) member of a seeded ensemble: its state,
    remote and local observables and rotation family."""
    config = AuditConfig(ensemble_size=2)
    state, remote, local, direction = reference_ensemble(dims, config,
                                                         np.random.default_rng(seed))[1]
    return state, remote, local, ObservableFamily(remote, direction)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3)]),
    law=st.sampled_from([linear_law(), polesink_law(0.1)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_complex_steps_match_central_differences_on_interior_members(dims, law, seed):
    state, remote, local, _ = _member(dims, seed)
    rho = joint_from_bloch(state, *map(cached_basis, dims))
    assert np.linalg.eigvalsh(rho)[0] > 1e-3  # both +-h neighbours are physical
    hamiltonian = random_hamiltonian(np.random.default_rng(seed), dims, scale=0.6)
    differences = reference_audit(law, hamiltonian, [(state, remote, local, None)], TIMES,
                                  fd_step=FD_STEP)
    for d_fn, components, labels in _channels(dims):
        [values] = d_fn(law, hamiltonian, [state], [remote], [local], TIMES, components,
                        DEFAULT_BRANCH_OPTIONS)
        expected = [[differences[0, t, d_fn.__name__, label] for t in TIMES] for label in labels]
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-10)
        if law.name == "linear":
            assert max(map(max, values)) <= 1e-14


def test_pure_singlet_under_polesink_has_finite_state_derivatives():
    law, hamiltonian = polesink_law(0.1), dynamics.BlochHamiltonian((2, 2))
    args = (law, hamiltonian, [singlet_state()], [computational_observable(2)],
            [fourier_observable(2)], TIMES)
    values = [d_fn(*args, components, DEFAULT_BRANCH_OPTIONS)[0]
              for d_fn, components, _ in _channels((2, 2))]
    flat = [v for channel in values for per_time in channel for v in per_time]
    assert all(math.isfinite(v) for v in flat) and max(flat) > 1e-3


@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=["linear", "polesink"])
@pytest.mark.parametrize(
    ("state", "message"),
    [(replace(singlet_state(), r1=[math.nan, 0.0, 0.0]), "non-finite entries"),
     (replace(singlet_state(), r1=[0.0, 0.0, 2.0]), r"min eigenvalue -")],
    ids=["non-finite", "outside"],
)
def test_a_member_outside_the_physical_set_raises_in_every_channel(law, state, message):
    """The channels need no physical neighbours, but the member itself must
    be a state: no channel returns a number for one that is not."""
    hamiltonian = random_hamiltonian(np.random.default_rng(64), (2, 2))
    member, remote, local, family = _member((2, 2), 65)
    args = (law, hamiltonian, [state], [remote], [local], TIMES)
    for d_fn, components, _ in _channels((2, 2)):
        with pytest.raises(UnphysicalStateError, match=message):
            d_fn(*args, components, DEFAULT_BRANCH_OPTIONS)
    with pytest.raises(UnphysicalStateError, match=message):
        d_remote_observable(law, hamiltonian, [member, state], [family, family],
                            [local] * 2, TIMES, DEFAULT_BRANCH_OPTIONS)


def test_a_remote_observable_of_the_wrong_dimension_is_refused():
    state, _, local, _ = _member((2, 2), 65)
    args = (linear_law(), dynamics.BlochHamiltonian((2, 2)), [state],
            [computational_observable(3)], [local], TIMES)
    for d_fn, components, _ in _channels((2, 2)):
        with pytest.raises(DimensionMismatchError, match="do not fit dims"):
            d_fn(*args, components, DEFAULT_BRANCH_OPTIONS)


def test_two_linear_calls_reuse_one_flow_and_its_propagators():
    dims = (2, 3)
    law, hamiltonian = linear_law(), random_hamiltonian(np.random.default_rng(66), dims, scale=0.6)
    state, remote, local, _ = _member(dims, 67)
    dynamics._shared_flow.cache_clear()
    args = (law, hamiltonian, [state], [remote], [local], TIMES, [0, 1, 2],
            DEFAULT_BRANCH_OPTIONS)
    first = d_remote_state(*args)
    flow = dynamics.reduced_flow(law, hamiltonian)
    key, stack = flow._propagators
    assert key == (TIMES, DEFAULT_BRANCH_OPTIONS) and stack.shape == (3, 3, 3)  # one per time
    second = d_remote_state(*args)
    assert flow._propagators[1] is stack  # the second call builds none
    assert flow.propagators(TIMES, DEFAULT_BRANCH_OPTIONS) is stack
    assert repr(second) == repr(first)
    # a xi law on another Hamiltonian with the same party-1 block shares the flow
    other = dynamics.BlochHamiltonian(dims, h1=hamiltonian.h1.copy())
    assert flow is dynamics.reduced_flow(xi_law("corrnorm"), other)
    assert dynamics._shared_flow.cache_info().misses == 1
    assert not flow.generator.flags.writeable
    assert not stack.flags.writeable


@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=["linear", "polesink"])
def test_a_flow_dropped_from_the_shared_cache_is_freed(law):
    # its propagators or its last linearization live with it, not beside it
    dims, hamiltonian = (2, 2), random_hamiltonian(np.random.default_rng(68), (2, 2), scale=0.6)
    state, remote, local, _ = _member(dims, 69)
    flow = dynamics.reduced_flow(law, hamiltonian)
    flow.sample(np.zeros((2, 3)), TIMES, DEFAULT_BRANCH_OPTIONS)
    d_remote_state(law, hamiltonian, [state], [remote], [local], TIMES, [0, 1, 2],
                   DEFAULT_BRANCH_OPTIONS)
    dropped = weakref.ref(flow)
    del flow
    dynamics._shared_flow.cache_clear()
    gc.collect()
    assert dropped() is None
