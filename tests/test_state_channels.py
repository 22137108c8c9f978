"""The stacked planner of the state channels against the per-component route
of ``helpers.reference_state_differences``.

``d_remote_state`` and ``d_correlations`` plan every component of a member
from one ``eigvalsh`` of its matrix rho: Weyl's inequality,
``lambda_min(rho +- s D) >= lambda_min(rho) - s ||D||_2``, accepts each
component whose bound stays a fixed margin above ``PSD_TOLERANCE``.  Only
the rest take the exact check, one stacked eigenvalue call over their +-h
matrices per halving round; the planner then shifts packed rows.  The
reference checks each component through ``joint_from_bloch`` and builds
``JointBlochState`` branches.  Both feed the same rows, in the same order,
to the same batched propagation, so the steps and sensitivities must be
equal, not merely close, and an infeasible component must raise the same
message, whether the bound or the exact check accepted a component.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_state_differences, reference_state_steps

from blochsig import dynamics, nosignal_audit
from blochsig.bloch import PSD_TOLERANCE, joint_to_bloch
from blochsig.dynamics import linear_law, random_hamiltonian, xi_law
from blochsig.errors import PerturbationInfeasibleError
from blochsig.nosignal_audit import (
    DEFAULT_BRANCH_OPTIONS,
    AuditConfig,
    d_correlations,
    d_remote_state,
    polesink_law,
)
from blochsig.measurement import observable_from_basis
from blochsig.sampling import haar_unitary, random_orthonormal_basis, singlet_state
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


def _steps_or_message(plan):
    try:
        return list(plan())
    except PerturbationInfeasibleError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    low=st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-5, 0.02]),
    seed=st.integers(0, 2**32 - 1),
)
def test_weyl_bound_keeps_every_step_value_and_message_of_the_reference(dims, low, seed):
    # A random spectrum whose smallest eigenvalue is ``low``.  Over the three
    # steps the bound accepts every component (0.02 at 1e-5), none (near 0),
    # or some, with halving rounds on the rest (1e-7 at 1e-5, 1e-5 at 1e-3,
    # 0.02 at 0.05).
    rng = np.random.default_rng(seed)
    n = dims[0] * dims[1]
    spectrum = np.r_[low, low + (1.0 - n * low) * rng.dirichlet(np.ones(n - 1))]
    u = haar_unitary(rng, n)
    state = joint_to_bloch(u @ np.diag(spectrum) @ u.conj().T, *map(cached_basis, dims))
    obs2, obs1 = (observable_from_basis(random_orthonormal_basis(rng, k), cached_basis(k))
                  for k in (dims[1], dims[0]))
    law, hamiltonian = linear_law(), random_hamiltonian(rng, dims, scale=0.6)
    args = (law, hamiltonian, state, obs2, obs1, TIMES)
    for fd_step in (1e-5, 1e-3, 0.05):
        for d_fn, components, index, names in _channels(dims):
            for k, name in zip(index, names):
                planned = _steps_or_message(
                    lambda: nosignal_audit._state_plan(state, obs2, [k], [name], fd_step)[-1]
                )
                assert planned == _steps_or_message(
                    lambda: reference_state_steps(state, [k], [name], fd_step)
                )
            try:
                expected, _ = reference_state_differences(*args, index, names, fd_step,
                                                          DEFAULT_BRANCH_OPTIONS)
            except PerturbationInfeasibleError as exc:
                with pytest.raises(PerturbationInfeasibleError) as raised:
                    d_fn(*args, components, fd_step, DEFAULT_BRANCH_OPTIONS)
                assert str(raised.value) == str(exc)
            else:
                assert d_fn(*args, components, fd_step, DEFAULT_BRANCH_OPTIONS) == expected


def _eigvalsh_shapes(monkeypatch):
    """The shape of every matrix or stack passed to ``np.linalg.eigvalsh``,
    as ``nosignal_audit`` calls it, from here on.  The frame norms of the
    (2, 2) and (3, 3) bases, built once with a call of their own, are built
    first."""
    for n in (2, 3):
        nosignal_audit._frame_norms(cached_basis(n), cached_basis(n))
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(nosignal_audit.np.linalg, "eigvalsh", spy)
    return shapes


def test_an_interior_plan_makes_one_eigvalsh_call_and_the_singlet_stacked_ones(monkeypatch):
    dims = (3, 3)
    case = _member(dims, 68)
    hamiltonian = random_hamiltonian(np.random.default_rng(69), dims, scale=0.6)
    shapes = _eigvalsh_shapes(monkeypatch)
    d_correlations(linear_law(), hamiltonian, case.state, case.obs_remote, case.obs_local,
                   TIMES, _channels(dims)[1][1], FD_STEP, DEFAULT_BRANCH_OPTIONS)
    assert shapes == [(9, 9)]

    shapes.clear()
    case = _member((2, 2), 65)
    with pytest.raises(PerturbationInfeasibleError, match=re.escape(
            "perturbation of r12[0,0] leaves the physical set even at step 1.563e-07")):
        d_correlations(linear_law(), random_hamiltonian(np.random.default_rng(64), (2, 2)),
                       singlet_state(), case.obs_remote, case.obs_local, TIMES,
                       _channels((2, 2))[1][1], FD_STEP, DEFAULT_BRANCH_OPTIONS)
    assert shapes == [(4, 4)] + [(18, 4, 4)] * 7


def test_a_bound_inside_the_margin_takes_the_exact_check(monkeypatch):
    # rho is diagonal and r2[2] moves it along I x sigma_z = diag(1, -1, 1, -1),
    # whose +1 eigenvector is rho's lowest: Weyl's bound is exact here and
    # clears PSD_TOLERANCE by half the margin, so only the exact check may
    # accept the step.
    s = FD_STEP / 4
    low = PSD_TOLERANCE + s + nosignal_audit._WEYL_MARGIN / 2
    spectrum = np.array([low, 0.2, 0.3, 0.5 - low])
    state = joint_to_bloch(np.diag(spectrum), cached_basis(2), cached_basis(2))
    case = _member((2, 2), 65)
    shapes = _eigvalsh_shapes(monkeypatch)
    plan = nosignal_audit._state_plan(state, case.obs_remote, [5], ["r2[2]"], FD_STEP)
    assert shapes == [(4, 4), (2, 4, 4)]
    assert plan[-1].tolist() == [FD_STEP]


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
