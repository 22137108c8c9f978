"""Observable coordinates, Born rule, collapse, and branch-averaged statistics."""

import math
import re

import numpy as np
import pytest

from blochsig.bloch import BlochState, joint_to_bloch
from blochsig.dynamics import BlochHamiltonian, linear_law
from blochsig.errors import (
    DimensionMismatchError,
    InvalidObservableError,
    InvalidProjectorError,
    PerturbationInfeasibleError,
    ZeroProbabilityBranchError,
)
from blochsig.measurement import (
    ProjectiveObservable,
    computational_observable,
    conditional_state,
    fourier_observable,
    local_distribution,
    observable_from_basis,
    observable_from_matrices,
    outcome_probabilities,
    rotate_observable,
)
from blochsig.nosignal_audit import ObservableFamily, d_remote_state, polesink_law
from blochsig.sampling import random_density, singlet_state
from blochsig.su_basis import cached_basis, cached_constants

from helpers import (
    collapse_reduced,
    reference_direction,
    reference_haar_unitary,
    reference_observable_from_basis,
    reference_rotate_observable,
    unitary_evolve,
    trace_out,
)


def test_qubit_up_projector_coordinates():
    obs = observable_from_matrices([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], cached_basis(2))
    assert obs.u0[0] == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(obs.u[0], [0.0, 0.0, 0.5], atol=1e-15)
    assert obs.u0[0] * obs.dim == pytest.approx(1.0, abs=1e-15)  # the rank, Tr P


def test_identity_projector_coordinates():
    obs = observable_from_matrices([np.eye(2)], cached_basis(2))
    assert len(obs) == 1
    assert obs.u0[0] == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(obs.u[0], 0.0, atol=1e-15)
    assert obs.u0[0] * obs.dim == pytest.approx(2.0, abs=1e-15)


def test_qutrit_rank2_projector_roundtrip():
    basis = cached_basis(3)
    mat = np.diag([1.0, 1.0, 0.0]).astype(complex)
    obs = observable_from_matrices([mat, np.eye(3) - mat], basis)
    assert obs.u0[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert np.max(np.abs(obs.matrices(basis)[0] - mat)) <= 1e-12


def test_invalid_projector_rejected():
    basis = cached_basis(2)
    with pytest.raises(InvalidProjectorError, match="not idempotent"):
        observable_from_matrices([np.array([[0.5, 0.0], [0.0, 0.0]]), np.eye(2)], basis)
    with pytest.raises(InvalidProjectorError, match="not Hermitian"):
        observable_from_matrices([np.array([[1.0, 0.2], [0.0, 0.0]]), np.eye(2)], basis)
    # two halves of the identity resolve it, but are not projectors
    with pytest.raises(InvalidProjectorError, match="not idempotent"):
        observable_from_matrices([np.eye(2) / 2, np.eye(2) / 2], basis)


@pytest.mark.parametrize("dim", [2, 3])
def test_coordinate_idempotence_identities(dim):
    # P**2 = P written in (u0, u) coordinates:
    #   u0 = u0**2 + (N/2) |u|**2
    #   (N/2) u_k = N u0 u_k + (N**2/4) sum_ij g_ijk u_i u_j
    rng = np.random.default_rng(dim)
    basis = cached_basis(dim)
    g = cached_constants(dim).g
    vectors = reference_haar_unitary(rng, dim).T
    for rank in range(1, dim):
        mat = sum(np.outer(v, v.conj()) for v in vectors[:rank])
        obs = observable_from_matrices([mat, np.eye(dim) - mat], basis)
        for u0, u in zip(obs.u0, obs.u):
            assert u0 == pytest.approx(u0**2 + 0.5 * dim * float(u @ u), abs=1e-12)
            quad = np.einsum("ijk,i,j->k", g, u, u)
            resid = 0.5 * dim * u - dim * u0 * u - 0.25 * dim**2 * quad
            assert np.max(np.abs(resid)) <= 1e-12


def test_computational_observable_qubit():
    obs = computational_observable(2)
    np.testing.assert_allclose(obs.u0, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(obs.u, [[0, 0, 0.5], [0, 0, -0.5]], atol=1e-15)


def test_fourier_observable_qubit_is_hadamard_pair():
    obs = fourier_observable(2)
    np.testing.assert_allclose(obs.u0, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(
        np.sort(obs.u[:, 0]), [-0.5, 0.5], atol=1e-12
    )
    np.testing.assert_allclose(obs.u[:, 1:], 0.0, atol=1e-12)


def test_qutrit_observable_completeness():
    obs = computational_observable(3)
    assert len(obs) == 3
    assert obs.u0.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(np.sum(obs.u, axis=0))) <= 1e-14


def test_non_orthonormal_vectors_rejected():
    with pytest.raises(InvalidObservableError):
        observable_from_basis(np.array([[1.0, 0.0], [1.0, 0.0]]), cached_basis(2))


def test_rotated_observable_stays_valid():
    basis = cached_basis(2)
    direction = 0.5 * basis.matrices[1]
    obs = rotate_observable(computational_observable(2), direction, 0.7)
    assert obs.u0.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(np.sum(obs.u, axis=0))) <= 1e-12


def _assert_same_observable(obs, ref, atol=1e-12):
    assert obs.dim == ref.dim and len(obs) == len(ref)
    np.testing.assert_allclose(obs.u0, ref.u0, rtol=0, atol=atol)
    np.testing.assert_allclose(obs.u, ref.u, rtol=0, atol=atol)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_observable_from_basis_matches_the_matrix_route(n):
    rng = np.random.default_rng(40 + n)
    basis = cached_basis(n)
    for vectors in (np.eye(n), reference_haar_unitary(rng, n).T):
        _assert_same_observable(observable_from_basis(vectors, basis),
                                reference_observable_from_basis(vectors, basis))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rotation_in_coordinates_matches_the_matrix_route(n):
    rng = np.random.default_rng(50 + n)
    basis = cached_basis(n)
    vecs = reference_haar_unitary(rng, n).T
    rank1 = observable_from_basis(vecs, basis)
    pair = np.outer(vecs[0], vecs[0].conj()) + np.outer(vecs[1], vecs[1].conj())
    coarse = observable_from_matrices([pair, np.eye(n) - pair], basis)
    assert coarse.u0[0] * n == pytest.approx(2.0, abs=1e-14)  # a rank-2 outcome
    for obs in (rank1, coarse, fourier_observable(n)):
        for theta in (0.3, -1.7, 2 * math.pi / 3):
            direction = reference_direction(rng, n)
            rotated = rotate_observable(obs, direction, theta)
            _assert_same_observable(rotated, reference_rotate_observable(obs, direction, theta))
            assert np.array_equal(rotated.u0, obs.u0)  # every rank kept


def test_observable_validators_reject_nonfinite_input():
    basis = cached_basis(2)
    up = np.diag([1.0, 0.0])
    with pytest.raises(InvalidProjectorError, match="finite"):
        observable_from_matrices([np.full((2, 2), np.nan)], basis)
    with pytest.raises(InvalidProjectorError, match="finite"):
        observable_from_matrices([np.diag([1.0, np.inf])], basis)
    with pytest.raises(InvalidObservableError, match="finite"):
        observable_from_basis(np.array([[1.0, 0.0], [0.0, np.nan]]), basis)
    with pytest.raises(InvalidProjectorError, match="finite"):
        observable_from_matrices([up, np.diag([np.nan, 1.0])], basis)
    with pytest.raises(InvalidProjectorError, match="finite"):
        observable_from_matrices([up, np.array([[0.0, np.nan], [np.nan, 1.0]])], basis)


def test_rotation_rejects_a_nonfinite_direction_or_angle():
    obs = computational_observable(2)
    direction = 0.5 * cached_basis(2).matrices[0]
    bad_direction = np.array([[0.0, np.nan], [np.nan, 0.0]])
    for args in ((bad_direction, 0.3), (direction, np.nan), (direction, np.inf)):
        with pytest.raises(InvalidObservableError, match="finite"):
            rotate_observable(obs, *args)
    with pytest.raises(InvalidObservableError, match="finite"):
        ObservableFamily(obs, bad_direction)


@pytest.mark.parametrize("bad", [
    np.eye(3),
    np.array([[0.0, np.inf], [np.inf, 0.0]]),
    np.array([[0.0, 1.0], [0.0, 0.0]]),
], ids=["wrong-shape", "non-finite", "non-hermitian"])
def test_a_family_rejects_a_direction_as_the_rotation_does(bad):
    obs = computational_observable(2)
    with pytest.raises(Exception) as rotation:
        rotate_observable(obs, bad, 0.0)
    with pytest.raises(Exception) as family:
        ObservableFamily(obs, bad)
    assert type(family.value) is type(rotation.value)
    assert isinstance(family.value, (DimensionMismatchError, InvalidObservableError))
    assert str(family.value) == str(rotation.value)


def test_probabilities_maximally_mixed():
    probs = outcome_probabilities(computational_observable(2), BlochState(2, np.zeros(3)))
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)


def test_probabilities_polarized_state():
    probs = outcome_probabilities(computational_observable(2), BlochState(2, [0, 0, 1.0]))
    np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-15)


def test_probabilities_match_trace_oracle():
    rng = np.random.default_rng(9)
    basis = cached_basis(3)
    from blochsig.bloch import to_bloch

    for _ in range(20):
        rho = random_density(rng, 3)
        obs = observable_from_basis(reference_haar_unitary(rng, 3).T, basis)
        probs = outcome_probabilities(obs, to_bloch(rho, basis))
        oracle = [float(np.real(np.trace(rho @ p))) for p in obs.matrices(basis)]
        np.testing.assert_allclose(probs, oracle, atol=1e-12)
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= -1e-12) and np.all(probs <= 1.0 + 1e-12)


def test_singlet_conditionals_anticorrelate():
    joint = singlet_state()
    obs_z = computational_observable(2)
    p, cond = conditional_state(joint, obs_z, 0)
    assert p == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_allclose(cond.r, [0.0, 0.0, -1.0], atol=1e-13)
    obs_x = fourier_observable(2)
    k_minus = int(np.argmin(obs_x.u[:, 0]))
    p, cond = conditional_state(joint, obs_x, k_minus)
    assert p == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_allclose(cond.r, [1.0, 0.0, 0.0], atol=1e-13)


def test_product_state_conditionals_are_unchanged():
    rng = np.random.default_rng(3)
    b = cached_basis(2)
    rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
    joint = joint_to_bloch(np.kron(rho1, rho2), b, b)
    obs = observable_from_basis(reference_haar_unitary(rng, 2).T, b)
    for k in range(2):
        _, cond = conditional_state(joint, obs, k)
        np.testing.assert_allclose(cond.r, joint.r1, atol=1e-12)


def test_zero_probability_branch_raises():
    b = cached_basis(2)
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    joint = joint_to_bloch(ket00, b, b)
    with pytest.raises(ZeroProbabilityBranchError):
        conditional_state(joint, computational_observable(2), 1)


def test_a_complex_row_moving_a_dropped_branch_fails_alone():
    """|00>, measured computationally: outcome 1 has weight 0 and is dropped.
    A complex step of r2[2] moves that weight, one of r2[0] neither branch,
    so only the first has a one-sided derivative."""
    b = cached_basis(2)
    joint = joint_to_bloch(np.diag([1.0, 0.0, 0.0, 0.0]), b, b)
    obs = computational_observable(2)
    [[(value,), (error,)]] = d_remote_state(linear_law(), BlochHamiltonian((2, 2)), [joint],
                                            [obs], [obs], [0.0], [0, 2])
    assert value == 0.0
    assert isinstance(error, PerturbationInfeasibleError)
    assert re.match(r"^perturbation of r2\[2\] moves remote outcome 1 of weight 0\.000e\+00",
                    str(error))


@pytest.mark.parametrize("k", [-1, 2, 1.0, True, np.float64(0.0), "0"])
def test_an_outcome_index_that_is_no_outcome_is_a_value_error(k):
    # never the last outcome for -1, nor an IndexError
    with pytest.raises(ValueError, match=r"^k must (lie in \[0, 2\)|be an integer)"):
        conditional_state(singlet_state(), computational_observable(2), k)
    p, state = conditional_state(singlet_state(), computational_observable(2), np.int64(1))
    assert p == 0.5 and abs(state.r[2] - 1.0) <= 1e-12  # party 2 in |1> leaves party 1 in |0>


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_conditionals_match_collapse_oracle(dims):
    rng = np.random.default_rng(40 + dims[0] * dims[1])
    n1, n2 = dims
    b1, b2 = cached_basis(n1), cached_basis(n2)
    from blochsig.bloch import to_bloch

    for _ in range(20):
        rho = random_density(rng, n1 * n2)
        joint = joint_to_bloch(rho, b1, b2)
        obs = observable_from_basis(reference_haar_unitary(rng, n2).T, b2)
        average = np.zeros(n1**2 - 1)
        for k in range(n2):
            p, cond = conditional_state(joint, obs, k)
            prob_oracle, reduced_oracle = collapse_reduced(rho, dims, obs.matrices(b2)[k])
            assert p == pytest.approx(prob_oracle, abs=1e-12)
            assert np.max(np.abs(cond.r - to_bloch(reduced_oracle, b1).r)) <= 1e-11
            average += p * cond.r
        # non-selective measurement leaves the remote marginal untouched
        assert np.max(np.abs(average - joint.r1)) <= 1e-12


def test_local_distribution_at_t0_is_born_marginal():
    rng = np.random.default_rng(21)
    b1, b2 = cached_basis(2), cached_basis(3)
    rho = random_density(rng, 6)
    joint = joint_to_bloch(rho, b1, b2)
    obs2 = observable_from_basis(reference_haar_unitary(rng, 3).T, b2)
    obs1 = observable_from_basis(reference_haar_unitary(rng, 2).T, b1)
    dist = local_distribution(joint, obs2, obs1, linear_law(), 0.0)
    marginal = [
        float(np.real(np.trace(trace_out(rho, (2, 3), 1) @ p)))
        for p in obs1.matrices(b1)
    ]
    np.testing.assert_allclose(dist, marginal, atol=1e-12)
    assert float(np.sum(dist)) == pytest.approx(1.0, abs=1e-10)


def test_local_distribution_linear_singlet_is_uniform():
    joint = singlet_state()
    h1 = np.array([0.3, -0.2, 0.8])
    for t in (0.0, 0.5, 1.0):
        dist = local_distribution(
            joint, fourier_observable(2), computational_observable(2),
            linear_law(), t, hamiltonian=BlochHamiltonian((2, 2), h1=h1),
        )
        np.testing.assert_allclose(dist, [0.5, 0.5], atol=1e-12)


def test_local_distribution_qubit_precession_closed_form():
    # product state polarized along x, local Hamiltonian along z:
    # the x-basis statistics oscillate as (1 +/- cos 2ht)/2.
    b = cached_basis(2)
    joint = joint_to_bloch(
        np.kron(0.5 * (np.eye(2) + np.array([[0, 1], [1, 0]])), np.eye(2) / 2), b, b
    )
    h = 0.35
    t = 0.9
    dist = local_distribution(
        joint, computational_observable(2), fourier_observable(2),
        linear_law(), t, hamiltonian=BlochHamiltonian((2, 2), h1=[0.0, 0.0, h]),
    )
    plus = int(np.argmax(fourier_observable(2).u[:, 0]))
    expected_plus = 0.5 * (1.0 + math.cos(2 * h * t))
    assert dist[plus] == pytest.approx(expected_plus, abs=1e-9)
    assert float(np.sum(dist)) == pytest.approx(1.0, abs=1e-12)


def test_local_distribution_polesink_closed_form():
    # singlet + x-basis remote measurement: both conditionals drift to
    # z(t) = tanh(eps t); the up-branch weight becomes (1 + tanh)/2.
    eps, t = 0.1, 1.0
    dist = local_distribution(
        singlet_state(), fourier_observable(2), computational_observable(2),
        polesink_law(eps), t,
    )
    expected_up = 0.5 * (1.0 + math.tanh(eps * t))
    assert dist[0] == pytest.approx(expected_up, abs=1e-8)


def test_local_distribution_matches_unitary_oracle_branches():
    rng = np.random.default_rng(55)
    b = cached_basis(2)
    rho = random_density(rng, 4)
    joint = joint_to_bloch(rho, b, b)
    obs2 = observable_from_basis(reference_haar_unitary(rng, 2).T, b)
    obs1 = observable_from_basis(reference_haar_unitary(rng, 2).T, b)
    h1 = np.array([0.4, 0.1, -0.3])
    h1_matrix = np.einsum("i,iab->ab", h1, b.matrices)
    t = 0.8
    dist = local_distribution(joint, obs2, obs1, linear_law(), t,
                              hamiltonian=BlochHamiltonian((2, 2), h1=h1))
    oracle = np.zeros(2)
    from blochsig.bloch import from_bloch

    for k in range(2):
        p, cond = conditional_state(joint, obs2, k)
        evolved = unitary_evolve(h1_matrix, from_bloch(cond, b), t)
        for idx, proj in enumerate(obs1.matrices(b)):
            oracle[idx] += p * float(np.real(np.trace(evolved @ proj)))
    np.testing.assert_allclose(dist, oracle, atol=1e-9)


def _nearly_resolving_pair(eta=5e-11):
    """``diag(1 + eta, 0)`` and the identity's rest: idempotent within the
    projector tolerance, an exact resolution of the identity, yet the two
    overlap by ``eta``."""
    p = np.diag([1.0 + eta, 0.0])
    return [p, np.eye(2) - p]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ProjectiveObservable(2, [0.5], np.zeros((1, 2))), DimensionMismatchError,
         "u0 and u must have shapes (K,) and (K, 3), got (1,) and (1, 2)"),
        (lambda: observable_from_matrices([np.eye(3)], cached_basis(2)), DimensionMismatchError,
         "projector must be (2, 2), got (3, 3)"),
        (lambda: observable_from_matrices([], cached_basis(2)), InvalidObservableError,
         "an observable needs at least one outcome"),
        (lambda: observable_from_matrices([np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 0.0])],
                                          cached_basis(2)),
         DimensionMismatchError, "projector must be (2, 2), got (3, 3)"),
        (lambda: observable_from_matrices(_nearly_resolving_pair(), cached_basis(2)),
         InvalidObservableError, "outcomes 0 and 1 are not orthogonal (deviation 5.000e-11)"),
        (lambda: observable_from_matrices([np.diag([1.0, 0.0])], cached_basis(2)),
         InvalidObservableError, "outcomes do not resolve the identity"),
        (lambda: observable_from_basis(np.eye(3), cached_basis(2)), DimensionMismatchError,
         "expected vectors of length 2, got shape (3, 3)"),
        (lambda: observable_from_basis(np.eye(2)[:1], cached_basis(2)), InvalidObservableError,
         "need 2 vectors to resolve the identity, got 1"),
        (lambda: outcome_probabilities(computational_observable(3), BlochState(2, np.zeros(3))),
         DimensionMismatchError, "observable dim 3 != state dim 2"),
        (lambda: conditional_state(singlet_state(), computational_observable(3), 0),
         DimensionMismatchError, "observable dim 3 != second subsystem dim 2"),
    ],
    ids=["projector-length", "projector-matrix-shape", "no-outcome", "mixed-dims",
         "not-orthogonal", "not-complete", "basis-vector-length", "too-few-vectors", "born-dims",
         "collapse-dims"],
)
def test_each_malformed_observable_or_pairing_raises_its_error(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("u0, u", [
    ([0.5, 0.5], np.zeros((2, 2))),
    ([0.5, 0.5], np.zeros((3, 3))),
    ([0.5, 0.5], np.zeros(3)),
    ([[0.5, 0.5]], np.zeros((2, 3))),
], ids=["row-length", "row-count", "one-row", "u0-not-a-vector"])
def test_an_observable_refuses_outcome_coordinates_of_another_shape(u0, u):
    with pytest.raises(DimensionMismatchError,
                       match=r"^u0 and u must have shapes \(K,\) and \(K, 3\), got "):
        ProjectiveObservable(2, u0, u)


def test_an_observable_holds_read_only_copies_of_its_coordinates():
    u0, u = np.full(2, 0.5), np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]])
    obs = ProjectiveObservable(2, u0, u)
    u[0, 2] = 1.0  # the caller's arrays stay the caller's
    assert obs.u[0, 2] == 0.5
    derived = (computational_observable(3), fourier_observable(3),
               rotate_observable(obs, 0.5 * cached_basis(2).matrices[0], 0.4))
    for array in (obs.u0, obs.u, *(a for o in derived for a in (o.u0, o.u))):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert obs.to_json() == [{"u0": 0.5, "u": [0.0, 0.0, 0.5]},
                             {"u0": 0.5, "u": [0.0, 0.0, -0.5]}]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_matrices_of_an_observable_build_it_again(n):
    rng = np.random.default_rng(60 + n)
    basis = cached_basis(n)
    observables = [computational_observable(n), fourier_observable(n),
                   rotate_observable(fourier_observable(n), reference_direction(rng, n), 0.9)]
    if n > 2:  # a rank-2 outcome beside a rank n - 2 one
        vecs = reference_haar_unitary(rng, n).T
        pair = np.outer(vecs[0], vecs[0].conj()) + np.outer(vecs[1], vecs[1].conj())
        observables.append(observable_from_matrices([pair, np.eye(n) - pair], basis))
    for obs in observables:
        again = observable_from_matrices(obs.matrices(basis), basis)
        np.testing.assert_allclose(again.u0, obs.u0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(again.u, obs.u, rtol=0, atol=1e-12)
