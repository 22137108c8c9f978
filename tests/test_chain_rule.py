"""The channels on flows without a generator, against central differences of
the public ``local_distribution``.

The audit reads every channel by the chain rule through the branch
Jacobians.  Here each component of ``d_remote_state`` and
``d_correlations`` moves one packed coordinate of party 2 by ``+-H``, and
``d_remote_observable`` rotates the remote observable by ``+-H`` with
``rotate_observable``: the differences only evaluate distributions, so they
check the chain rule independently.  A zero-weight member keeps its
one-sided components ``infeasible``: those are the coordinates ``r2[j]`` and
``r12[i,j]`` with ``u_k[j] != 0`` for an outcome ``k`` of weight 0.
"""

import numpy as np
import pytest

from blochsig.bloch import BlochState, JointBlochState, joint_to_bloch
from blochsig.dynamics import BlochHamiltonian, custom_law
from blochsig.errors import PerturbationInfeasibleError
from blochsig.measurement import (
    EPS_PROB,
    computational_observable,
    local_distribution,
    observable_from_basis,
    outcome_probabilities,
    rotate_observable,
)
from blochsig.nosignal_audit import (
    ObservableFamily,
    d_correlations,
    d_remote_observable,
    d_remote_state,
    polesink_law,
)
from blochsig.sampling import random_density, random_interior_joint
from blochsig.su_basis import cached_basis

from helpers import reference_direction, reference_haar_unitary

H = 1e-5  # the central difference step
TIMES = (0.5, 1.0)
RTOL = 1e-6  # relative to the largest difference of the channel
FLOOR = 1e-10  # above the rounding of a difference of distributions, ~1e-16 / H


def _wobble_law():
    """A custom nonlinear law that mixes party 1's coordinates: ``dr/dt =
    0.3 sin(reversed r) - 0.2 r r_0``."""
    def field(h_local, r):
        r = np.asarray(r)
        return 0.3 * np.sin(r[..., ::-1]) - 0.2 * r * r[..., :1]

    return custom_law("wobble", reduced_field=field)


def _members(dims, seed):
    """An interior member and a zero-weight one (party 2 in |0>, measured
    computationally), each ``(state, remote, local, family)``."""
    rng = np.random.default_rng(seed)
    b1, b2 = cached_basis(dims[0]), cached_basis(dims[1])
    local = observable_from_basis(reference_haar_unitary(rng, dims[0]).T, b1)
    remote = observable_from_basis(reference_haar_unitary(rng, dims[1]).T, b2)
    interior = random_interior_joint(rng, dims)
    zero = np.zeros((dims[1], dims[1]))
    zero[0, 0] = 1.0
    product = joint_to_bloch(np.kron(random_density(rng, dims[0]), zero), b1, b2)
    comp = computational_observable(dims[1])
    return [(interior, remote, local, ObservableFamily(remote, reference_direction(rng, dims[1]))),
            (product, comp, local, ObservableFamily(comp, reference_direction(rng, dims[1])))]


def _moved(state, coordinate, sign):
    """``state`` with its packed coordinate of party 2 (``("r2", j)`` or
    ``("r12", i, j)``) moved by ``sign * H``."""
    r2, r12 = state.r2.copy(), state.r12.copy()
    if coordinate[0] == "r2":
        r2[coordinate[1]] += sign * H
    else:
        r12[coordinate[1:]] += sign * H
    return JointBlochState(state.dims, state.r1, r2, r12)


def _central_difference(law, hamiltonian, member, t, coordinate):
    """``max_k1 |dp(k1)|`` over party 1's outcomes, by central differences of
    ``local_distribution``; the coordinate ``"theta"`` rotates the remote
    observable along the member's family."""
    state, remote, local, family = member

    def distribution(joint, observable):
        return local_distribution(joint, observable, local, law, t, hamiltonian=hamiltonian)

    if coordinate == "theta":
        plus, minus = (distribution(state, rotate_observable(remote, family.direction, s * H))
                       for s in (1.0, -1.0))
    else:
        plus, minus = (distribution(_moved(state, coordinate, s), remote) for s in (1.0, -1.0))
    return float(np.max(np.abs(plus - minus)) / (2 * H))


def _one_sided(state, remote, coordinate):
    """Whether moving ``coordinate`` moves a branch of weight 0: the weight
    (``r2[j]``) or the collapsed state (``r12[i,j]``) of an outcome ``k``
    of weight at most ``EPS_PROB`` moves by ``u_k[j]``."""
    weights = outcome_probabilities(remote, BlochState(state.dims[1], state.r2))
    return bool(np.any(remote.u[weights <= EPS_PROB, coordinate[-1]] != 0))


@pytest.mark.parametrize("law, dims", [
    (polesink_law(0.1), (2, 2)),
    (polesink_law(0.1), (2, 3)),
    (_wobble_law(), (2, 3)),
], ids=["polesink-2x2", "polesink-2x3", "wobble-2x3"])
def test_channels_on_a_flow_without_a_generator_are_central_differences(law, dims):
    hamiltonian = BlochHamiltonian(dims, h1=[0.3, -0.2, 0.5])
    members = _members(dims, 97 + dims[1])
    states, remotes, locals_, families = (list(column) for column in zip(*members))
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    pairs = [(i, j) for i in range(d1) for j in range(d2)]
    channels = [
        ([("r2", j) for j in range(d2)],
         d_remote_state(law, hamiltonian, states, remotes, locals_, TIMES, range(d2))),
        ([("r12", i, j) for i, j in pairs],
         d_correlations(law, hamiltonian, states, remotes, locals_, TIMES, pairs)),
        (["theta"], d_remote_observable(law, hamiltonian, states, families, locals_, TIMES)),
    ]
    infeasible = 0
    for m, member in enumerate(members):
        for coordinates, outcomes in channels:
            for i, t in enumerate(TIMES):
                got, expected = [], []
                for coordinate, per_time in zip(coordinates, outcomes[m]):
                    value = per_time[i]
                    if coordinate != "theta" and _one_sided(member[0], member[1], coordinate):
                        assert isinstance(value, PerturbationInfeasibleError), (m, coordinate)
                        infeasible += 1
                        continue
                    assert isinstance(value, float), (m, coordinate, value)
                    got.append(value)
                    expected.append(_central_difference(law, hamiltonian, member, t, coordinate))
                np.testing.assert_allclose(got, expected, rtol=RTOL,
                                           atol=max(RTOL * max(expected), FLOOR),
                                           err_msg=f"member {m} at t={t}: {coordinates}")
    # the zero-weight member: r2[j] and r12[i,j] for each j that moves one of
    # its n2 - 1 outcomes of weight 0, at every time
    assert infeasible > 0 and infeasible % (len(TIMES) * (1 + d1)) == 0
