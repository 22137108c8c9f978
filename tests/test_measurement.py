"""Projector coordinates, Born rule, collapse, and branch-averaged statistics."""

import math
import re

import numpy as np
import pytest

from blochsig.bloch import BlochState, joint_to_bloch, pack_coords
from blochsig.dynamics import BlochHamiltonian, linear_law
from blochsig.errors import (
    DimensionMismatchError,
    InvalidObservableError,
    InvalidProjectorError,
    PerturbationInfeasibleError,
    ZeroProbabilityBranchError,
)
from blochsig.measurement import (
    Projector,
    _member_distributions,
    computational_observable,
    conditional_state,
    fourier_observable,
    local_distribution,
    observable_from_basis,
    observable_from_matrices,
    observable_from_projectors,
    outcome_probabilities,
    projector_from_matrix,
    rotate_observable,
)
from blochsig.nosignal_audit import ObservableFamily, polesink_law
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
    p = projector_from_matrix(np.diag([1.0, 0.0]), cached_basis(2))
    assert p.u0 == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(p.u, [0.0, 0.0, 0.5], atol=1e-15)
    assert p.rank == 1


def test_identity_projector_coordinates():
    p = projector_from_matrix(np.eye(2), cached_basis(2))
    assert p.u0 == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(p.u, 0.0, atol=1e-15)
    assert p.rank == 2


def test_qutrit_rank2_projector_roundtrip():
    basis = cached_basis(3)
    mat = np.diag([1.0, 1.0, 0.0]).astype(complex)
    p = projector_from_matrix(mat, basis)
    assert p.u0 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert np.max(np.abs(p.matrix(basis) - mat)) <= 1e-12


def test_invalid_projector_rejected():
    basis = cached_basis(2)
    with pytest.raises(InvalidProjectorError):
        projector_from_matrix(np.array([[0.5, 0.0], [0.0, 0.0]]), basis)  # not idempotent
    with pytest.raises(InvalidProjectorError):
        projector_from_matrix(np.array([[1.0, 0.2], [0.0, 0.0]]), basis)  # not Hermitian


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
        p = projector_from_matrix(mat, basis)
        lhs0 = p.u0
        rhs0 = p.u0**2 + 0.5 * dim * float(p.u @ p.u)
        assert lhs0 == pytest.approx(rhs0, abs=1e-12)
        quad = np.einsum("ijk,i,j->k", g, p.u, p.u)
        resid = 0.5 * dim * p.u - dim * p.u0 * p.u - 0.25 * dim**2 * quad
        assert np.max(np.abs(resid)) <= 1e-12


def test_computational_observable_qubit():
    obs = computational_observable(2)
    np.testing.assert_allclose(obs.u0_vector(), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(obs.u_matrix(), [[0, 0, 0.5], [0, 0, -0.5]], atol=1e-15)


def test_fourier_observable_qubit_is_hadamard_pair():
    obs = fourier_observable(2)
    np.testing.assert_allclose(obs.u0_vector(), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(
        np.sort(obs.u_matrix()[:, 0]), [-0.5, 0.5], atol=1e-12
    )
    np.testing.assert_allclose(obs.u_matrix()[:, 1:], 0.0, atol=1e-12)


def test_qutrit_observable_completeness():
    obs = computational_observable(3)
    assert len(obs) == 3
    assert sum(p.u0 for p in obs.outcomes) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(np.sum(obs.u_matrix(), axis=0))) <= 1e-14


def test_non_orthonormal_vectors_rejected():
    with pytest.raises(InvalidObservableError):
        observable_from_basis(np.array([[1.0, 0.0], [1.0, 0.0]]), cached_basis(2))


def test_rotated_observable_stays_valid():
    basis = cached_basis(2)
    direction = 0.5 * basis.matrices[1]
    obs = rotate_observable(computational_observable(2), direction, 0.7)
    assert sum(p.u0 for p in obs.outcomes) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(np.sum(obs.u_matrix(), axis=0))) <= 1e-12


def _assert_same_observable(obs, ref, atol=1e-12):
    assert obs.dim == ref.dim and len(obs) == len(ref)
    np.testing.assert_allclose(obs.u0_vector(), ref.u0_vector(), rtol=0, atol=atol)
    np.testing.assert_allclose(obs.u_matrix(), ref.u_matrix(), rtol=0, atol=atol)


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
    coarse = observable_from_matrices([pair, np.eye(n) - pair], basis)  # a rank-2 outcome
    assert coarse.outcomes[0].rank == 2
    for obs in (rank1, coarse, fourier_observable(n)):
        for theta in (0.3, -1.7, 2 * math.pi / 3):
            direction = reference_direction(rng, n)
            rotated = rotate_observable(obs, direction, theta)
            _assert_same_observable(rotated, reference_rotate_observable(obs, direction, theta))
            assert [p.rank for p in rotated.outcomes] == [p.rank for p in obs.outcomes]


def test_observable_validators_reject_nonfinite_input():
    basis = cached_basis(2)
    with pytest.raises(InvalidProjectorError, match="finite"):
        projector_from_matrix(np.full((2, 2), np.nan), basis)
    with pytest.raises(InvalidProjectorError, match="finite"):
        projector_from_matrix(np.diag([1.0, np.inf]), basis)
    with pytest.raises(InvalidObservableError, match="finite"):
        observable_from_basis(np.array([[1.0, 0.0], [0.0, np.nan]]), basis)
    nan_outcome = Projector(2, np.nan, [0.0, 0.0, 0.5])
    up = projector_from_matrix(np.diag([1.0, 0.0]), basis)
    with pytest.raises(InvalidObservableError, match="finite"):
        observable_from_projectors([up, nan_outcome], basis)
    with pytest.raises(InvalidObservableError, match="finite"):
        observable_from_projectors([up, Projector(2, 0.5, [0.0, np.nan, -0.5])], basis)


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
        oracle = [float(np.real(np.trace(rho @ p.matrix(basis)))) for p in obs.outcomes]
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
    k_minus = int(np.argmin(obs_x.u_matrix()[:, 0]))
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
    x = pack_coords(joint_to_bloch(np.diag([1.0, 0.0, 0.0, 0.0]), b, b))
    rows = np.tile(x.astype(complex), (2, 1))
    rows[0, 3] += 1e-30j  # r2[0]
    rows[1, 5] += 1e-30j  # r2[2]
    obs = computational_observable(2)
    [(dist, failures)] = _member_distributions(
        [(rows, obs.u0_vector(), obs.u_matrix(), obs, None)], linear_law(),
        BlochHamiltonian((2, 2)), [0.0])
    assert np.all(np.isfinite(dist[:, 0])) and not np.any(dist[:, 0].imag)
    assert list(failures) == [(0, 1)]  # (time index, row)
    assert isinstance(failures[0, 1], PerturbationInfeasibleError)
    assert re.match(r"^perturbation of row 1 moves remote outcome 1 of weight 0\.000e\+00",
                    str(failures[0, 1]))


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
            prob_oracle, reduced_oracle = collapse_reduced(rho, dims, obs.outcomes[k].matrix(b2))
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
        float(np.real(np.trace(trace_out(rho, (2, 3), 1) @ p.matrix(b1))))
        for p in obs1.outcomes
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
    plus = int(np.argmax(fourier_observable(2).u_matrix()[:, 0]))
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
        for idx, proj in enumerate(obs1.outcomes):
            oracle[idx] += p * float(np.real(np.trace(evolved @ proj.matrix(b))))
    np.testing.assert_allclose(dist, oracle, atol=1e-9)


def _half_identity():
    return Projector(2, 0.5, np.zeros(3))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Projector(2, 0.5, np.zeros(2)), DimensionMismatchError,
         "u must have length 3, got (2,)"),
        (lambda: projector_from_matrix(np.eye(3), cached_basis(2)), DimensionMismatchError,
         "projector must be (2, 2), got (3, 3)"),
        (lambda: observable_from_projectors([]), InvalidObservableError,
         "an observable needs at least one outcome"),
        (lambda: observable_from_projectors([_half_identity(), Projector(3, 0.5, np.zeros(8))]),
         DimensionMismatchError, "all outcomes must share one dimension"),
        # two halves of the identity resolve it, but I/2 @ I/2 = I/4
        (lambda: observable_from_projectors([_half_identity(), _half_identity()]),
         InvalidObservableError, "outcomes 0 and 1 are not orthogonal (deviation 2.500e-01)"),
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
         "not-orthogonal", "basis-vector-length", "too-few-vectors", "born-dims",
         "collapse-dims"],
)
def test_each_malformed_observable_or_pairing_raises_its_error(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
