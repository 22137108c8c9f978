"""Linear flow vs commutator oracle, weighted nonlinear family, reduced flows."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsig import dynamics
from blochsig.bloch import (
    JointBlochState,
    from_bloch,
    joint_from_bloch,
    joint_to_bloch,
    purity,
    to_bloch,
)
from blochsig.dynamics import (
    BlochHamiltonian,
    EvolutionLaw,
    XiFunctions,
    evolve,
    evolve_path,
    hamiltonian_from_matrix,
    linear_generator,
    linear_law,
    pack_coords,
    random_hamiltonian,
    reduced_flow,
    reduced_generator,
    reduced_propagator_fit,
    unpack_coords,
    vector_field,
    xi_law,
    xi_preset,
)
from blochsig.errors import (
    DimensionMismatchError,
    IntegrationFailureError,
    NonFiniteGeneratorError,
    NonlinearityEvaluationError,
)
from blochsig.integrate import IntegratorOptions
from blochsig.nosignal_audit import polesink_law
from blochsig.sampling import random_density, random_interior_joint
from blochsig.su_basis import cached_basis, cached_constants

from helpers import coord_distance, trace_out, unitary_evolve


def _flat(parts):
    return np.concatenate([parts[0], parts[1], parts[2].ravel()])


def _random_joint_state(rng, dims):
    b1, b2 = cached_basis(dims[0]), cached_basis(dims[1])
    return joint_to_bloch(random_density(rng, dims[0] * dims[1]), b1, b2)


# ---------------------------------------------------------------------------
# Hamiltonians


def test_hamiltonian_matrix_is_hermitian():
    rng = np.random.default_rng(1)
    h = random_hamiltonian(rng, (2, 3))
    m = h.matrix()
    assert np.max(np.abs(m - m.conj().T)) <= 1e-13


def test_hamiltonian_matrix_roundtrip():
    rng = np.random.default_rng(2)
    h = random_hamiltonian(rng, (2, 3))
    for dims in ((2, 3), [2, 3]):
        back = hamiltonian_from_matrix(h.matrix(), dims)
        assert back.h0 == pytest.approx(h.h0, abs=1e-13)
        np.testing.assert_allclose(back.h1, h.h1, atol=1e-13)
        np.testing.assert_allclose(back.h2, h.h2, atol=1e-13)
        np.testing.assert_allclose(back.h12, h.h12, atol=1e-13)


def test_interaction_free_predicate_is_exact():
    h = BlochHamiltonian((2, 2), h12=np.zeros((3, 3)))
    assert h.is_interaction_free
    h12 = np.zeros((3, 3))
    h12[1, 2] = 1e-300
    assert not BlochHamiltonian((2, 2), h12=h12).is_interaction_free
    assert BlochHamiltonian((2, 2), h12=h12).interaction_free().is_interaction_free


def test_hamiltonian_shape_validation():
    with pytest.raises(DimensionMismatchError):
        BlochHamiltonian((2, 2), h1=np.zeros(8))
    with pytest.raises(DimensionMismatchError):
        hamiltonian_from_matrix(np.eye(5), (2, 2))


# ---------------------------------------------------------------------------
# Linear generator (commutator route)


def test_zero_hamiltonian_gives_zero_generator():
    gen = linear_generator(BlochHamiltonian((2, 2)))
    assert np.max(np.abs(gen)) == 0.0


def test_qubit_precession_rate_is_twice_the_coefficient():
    h = BlochHamiltonian((2, 2), h1=[0.0, 0.0, 0.7])
    gen = linear_generator(h)
    x = pack_coords(
        joint_to_bloch(
            np.kron(0.5 * (np.eye(2) + np.array([[0, 1], [1, 0]])), np.eye(2) / 2),
            cached_basis(2),
            cached_basis(2),
        )
    )
    dx = gen @ x
    # d/dt r1 = (0, 2h, 0) for r1 = (1, 0, 0)
    np.testing.assert_allclose(dx[:3], [0.0, 1.4, 0.0], atol=1e-13)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_generator_matches_unitary_oracle_derivative(dims):
    rng = np.random.default_rng(10 * dims[1])
    b1, b2 = cached_basis(dims[0]), cached_basis(dims[1])
    h = random_hamiltonian(rng, dims)
    rho0 = random_density(rng, dims[0] * dims[1])
    state0 = joint_to_bloch(rho0, b1, b2)
    gen = linear_generator(h)
    eps = 1e-5
    hmat = h.matrix()
    plus = pack_coords(joint_to_bloch(unitary_evolve(hmat, rho0, +eps), b1, b2))
    minus = pack_coords(joint_to_bloch(unitary_evolve(hmat, rho0, -eps), b1, b2))
    fd = (plus - minus) / (2 * eps)
    assert np.max(np.abs(gen @ pack_coords(state0) - fd)) <= 1e-8


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_weighted_field_with_unit_weights_equals_commutator_route(dims):
    rng = np.random.default_rng(sum(dims))
    for _ in range(10):
        h = random_hamiltonian(rng, dims, scale=0.8)
        state = random_interior_joint(rng, dims)
        gen = linear_generator(h)
        for law in (xi_law("one"), linear_law()):
            field = _flat(vector_field(law, h, state))
            assert np.max(np.abs(field - gen @ pack_coords(state))) <= 1e-11


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), seed=st.integers(0, 2**16),
       scale=st.floats(0.05, 2.0))
def test_compiled_generator_equals_the_commutator_generator(dims, seed, scale):
    h = random_hamiltonian(np.random.default_rng(seed), dims, scale=scale)
    loc, lint = dynamics._generators(h)
    assert np.max(np.abs(loc + lint - linear_generator(h))) <= 1e-12
    # the local block alone is the generator of the interaction-free Hamiltonian
    assert np.max(np.abs(loc - linear_generator(h.interaction_free()))) <= 1e-12


def test_a_second_hamiltonian_of_the_same_dims_reuses_the_compiled_map(monkeypatch):
    rng = np.random.default_rng(27)
    dims = (3, 2)
    dynamics._generator_map.cache_clear()
    vector_field(linear_law(), random_hamiltonian(rng, dims), random_interior_joint(rng, dims))
    first = dynamics._generator_map.cache_info()
    runs = [(law, random_hamiltonian(rng, dims), random_interior_joint(rng, dims))
            for law in (linear_law(), xi_law("corrnorm"))]
    # a new Hamiltonian is one scatter: no contraction search, no Kronecker product
    searched = []
    monkeypatch.setattr(np, "einsum", lambda *a, **k: searched.append("einsum"))
    monkeypatch.setattr(np, "einsum_path", lambda *a, **k: searched.append("einsum_path"))
    monkeypatch.setattr(np, "kron", lambda *a, **k: searched.append("kron"))
    for law, h, state in runs:
        vector_field(law, h, state)
    again = dynamics._generator_map.cache_info()
    assert (first.misses, again.misses, again.hits - first.hits) == (1, 1, 2)
    assert searched == []
    position, coefficient, value = dynamics._generator_map(dims)
    assert not (position.flags.writeable or coefficient.flags.writeable or value.flags.writeable)
    size = len(pack_coords(state))
    assert position.size < 0.1 * size**3  # sparse: no (coefficients x size x size) tensor


@pytest.mark.parametrize("block", ["h1", "h2", "h12"])
@pytest.mark.parametrize("bad", [1e308, math.nan, math.inf])
def test_a_hamiltonian_with_a_non_finite_generator_is_refused_where_it_is_built(block, bad):
    h = random_hamiltonian(np.random.default_rng(28), (2, 3))
    coefficients = {name: np.array(getattr(h, name)) for name in ("h1", "h2", "h12")}
    coefficients[block].flat[1] = bad
    h = BlochHamiltonian((2, 3), 0.0, **coefficients)
    state = random_interior_joint(np.random.default_rng(29), (2, 3))
    for law in (linear_law(), xi_law("corrnorm"), xi_law(xi_preset("corrnorm").as_indexed())):
        with pytest.raises(NonFiniteGeneratorError, match="Hamiltonian of dims"):
            evolve(law, h, state, 0.5)
    if block != "h12":
        dim = 2 if block == "h1" else 3
        with pytest.raises(NonFiniteGeneratorError, match=f"local Hamiltonian of a {dim}-level"):
            reduced_flow(linear_law(), coefficients[block], dim)
    if block == "h1":
        with pytest.raises(NonFiniteGeneratorError, match="non-finite generator"):
            reduced_propagator_fit(linear_law(), h)


def test_a_finite_generator_whose_trajectory_overflows_fails_to_integrate():
    h = BlochHamiltonian((2, 2), h1=[1e150, 0.0, 0.0])
    state = random_interior_joint(np.random.default_rng(30), (2, 2))
    with pytest.raises(IntegrationFailureError, match="step size underflow"):
        evolve(linear_law(), h, state, 1.0)
    with pytest.raises(IntegrationFailureError, match="rk4 propagator at t=1 is not finite"):
        reduced_propagator_fit(linear_law(), h)


def test_linear_law_field_equals_unit_weight_field():
    rng = np.random.default_rng(3)
    h = random_hamiltonian(rng, (2, 3))
    for _ in range(5):
        state = random_interior_joint(rng, (2, 3))
        a = _flat(vector_field(linear_law(), h, state))
        b = _flat(vector_field(xi_law("one"), h, state))
        assert np.max(np.abs(a - b)) <= 1e-12


def _sparse_hamiltonian(rng, dims):
    """A random Hamiltonian with about half of its h12 elements zeroed."""
    h = random_hamiltonian(rng, dims)
    h12 = np.where(rng.random(h.h12.shape) < 0.5, 0.0, h.h12)
    assert 0 < np.count_nonzero(h12) < h12.size
    return BlochHamiltonian(dims, 0.0, h.h1, h.h2, h12)


@pytest.mark.parametrize("sparse", [False, True], ids=["full", "sparse"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_indexed_weight_route_matches_scalar_route(dims, sparse):
    rng = np.random.default_rng(4)
    h = _sparse_hamiltonian(rng, dims) if sparse else random_hamiltonian(rng, dims)
    scalar_law = xi_law("corrnorm")
    indexed_law = xi_law(xi_preset("corrnorm").as_indexed())
    for _ in range(3):
        state = random_interior_joint(rng, dims)
        a = _flat(vector_field(scalar_law, h, state))
        b = _flat(vector_field(indexed_law, h, state))
        assert np.max(np.abs(a - b)) <= 1e-13


def _expected_weight_calls(h12):
    """Per family, the (out, open) indices whose unweighted contribution is
    nonzero, counted from the structure constants and h12 alone."""
    n1, n2 = (round(math.sqrt(d + 1)) for d in h12.shape)
    sc1, sc2 = cached_constants(n1), cached_constants(n2)
    nz = h12 != 0.0  # [a, b]
    f1 = (sc1.f != 0.0).any(axis=1)  # [a, k]: some f1[a, i, k] != 0
    f2 = (sc2.f != 0.0).any(axis=1)  # [b, l]: some f2[b, j, l] != 0
    # [a, b, p, q]: some (i, j) with g1_aip f2_bjq + f1_aip g2_bjq != 0
    gf = np.einsum("aip,bjq->abpqij", sc1.g, sc2.f) + np.einsum("aip,bjq->abpqij", sc1.f, sc2.g)
    bilinear = (gf != 0.0).any(axis=(4, 5))
    return {
        "xi1": np.count_nonzero(nz[:, :, None] & f1[:, None, :]),  # (a, b, k)
        "xi2": np.count_nonzero(nz[:, :, None] & f2[None, :, :]),  # (a, b, l)
        "xi12_bilinear": np.count_nonzero(nz[:, :, None, None] & bilinear),  # (a, b, p, q)
        "xi12_local1": np.count_nonzero(nz[:, None, :] & f1[:, :, None]),  # (a, p, q)
        "xi12_local2": np.count_nonzero(nz[:, :, None] & f2[None, :, :]),  # (p, b, q)
    }


@pytest.mark.parametrize("dims", [(2, 3), (2, 2)])
def test_sparse_interaction_indexed_weights_only_where_their_term_is_nonzero(dims):
    rng = np.random.default_rng(25)
    h = _sparse_hamiltonian(rng, dims)
    h12 = h.h12
    scale = rng.uniform(0.5, 1.5, h12.shape)
    corrnorm = xi_preset("corrnorm").uniform
    # the interaction element each family's call weights, from its leading args
    element = {
        "xi1": lambda k, a, b: (a, b),
        "xi2": lambda l, a, b: (a, b),
        "xi12_bilinear": lambda p, q, a, b: (a, b),
        "xi12_local1": lambda p, q, a: (a, q),
        "xi12_local2": lambda p, q, b: (p, b),
    }
    calls = dict.fromkeys(element, 0)

    def weight(family):
        def fn(*args):
            ab = element[family](*args[:-3])
            assert h12[ab] != 0.0
            calls[family] += 1
            return scale[ab] * corrnorm(*args[-3:])

        return fn

    # weighting element ab by scale[ab] rescales h12[ab] in the scalar route
    indexed = xi_law(XiFunctions(**{family: weight(family) for family in element}))
    state = random_interior_joint(rng, dims)
    a = _flat(vector_field(indexed, h, state))
    h_scaled = BlochHamiltonian(dims, 0.0, h.h1, h.h2, scale * h12)
    b = _flat(vector_field(xi_law("corrnorm"), h_scaled, state))
    assert np.max(np.abs(a - b)) <= 1e-13
    assert calls == _expected_weight_calls(h12)
    # g vanishes for su(2): a qubit pair's bilinear term is zero, so never weighted
    assert (calls["xi12_bilinear"] == 0) == (dims == (2, 2))


def test_a_bilinear_weight_is_checked_only_where_its_term_is_nonzero():
    one = XiFunctions.constant(1.0).as_indexed()
    nan_bilinear = xi_law(replace(one, xi12_bilinear=lambda *args: math.nan))
    rng = np.random.default_rng(26)
    # a qubit pair's bilinear term is zero, so its weight is never called
    h, state = random_hamiltonian(rng, (2, 2)), random_interior_joint(rng, (2, 2))
    a = _flat(vector_field(nan_bilinear, h, state))
    np.testing.assert_array_equal(a, _flat(vector_field(xi_law(one), h, state)))
    h, state = random_hamiltonian(rng, (2, 3)), random_interior_joint(rng, (2, 3))
    with pytest.raises(NonlinearityEvaluationError, match="non-finite value nan"):
        vector_field(nan_bilinear, h, state)


def test_weights_never_evaluated_without_interaction():
    calls = {"n": 0}

    def counting(*args):
        calls["n"] += 1
        return 1.0

    xi = XiFunctions(
        xi1=counting, xi2=counting, xi12_bilinear=counting,
        xi12_local1=counting, xi12_local2=counting,
    )
    law = xi_law(xi)
    rng = np.random.default_rng(6)
    state = random_interior_joint(rng, (2, 2))
    h_free = random_hamiltonian(rng, (2, 2), interaction=False)
    vector_field(law, h_free, state)
    assert calls["n"] == 0
    h_int = random_hamiltonian(rng, (2, 2), interaction=True)
    vector_field(law, h_int, state)
    assert calls["n"] > 0


def test_uniform_weight_not_called_without_interaction():
    calls = {"n": 0}

    def uniform(r1, r2, r12):
        calls["n"] += 1
        return 1.0

    law = xi_law(XiFunctions(uniform=uniform))
    rng = np.random.default_rng(7)
    state = random_interior_joint(rng, (2, 2))
    vector_field(law, random_hamiltonian(rng, (2, 2), interaction=False), state)
    assert calls["n"] == 0


def test_trajectories_independent_of_weights_without_interaction():
    rng = np.random.default_rng(8)
    h = random_hamiltonian(rng, (2, 2), interaction=False)
    state = random_interior_joint(rng, (2, 2))
    opts = IntegratorOptions(method="rk4", step=0.02)
    a = evolve(xi_law("one"), h, state, 0.7, opts).state
    b = evolve(xi_law("corrnorm"), h, state, 0.7, opts).state
    np.testing.assert_array_equal(a.r1, b.r1)
    np.testing.assert_array_equal(a.r2, b.r2)
    np.testing.assert_array_equal(a.r12, b.r12)


def test_nonfinite_weight_raises():
    law = xi_law(XiFunctions(uniform=lambda r1, r2, r12: float("nan")))
    rng = np.random.default_rng(9)
    h = random_hamiltonian(rng, (2, 2), interaction=True)
    state = random_interior_joint(rng, (2, 2))
    with pytest.raises(NonlinearityEvaluationError):
        vector_field(law, h, state)


def test_nonfinite_indexed_weight_raises_for_the_first_in_call_order():
    def one_bad_index(value, at):
        # the last three args are the state
        return lambda *args: value if args[:-3] == at else 1.0

    # local1 is called before local2, so its nan is the value reported
    xi = XiFunctions(
        xi1=lambda *args: 1.0,
        xi2=lambda *args: 1.0,
        xi12_bilinear=lambda *args: 1.0,
        xi12_local1=one_bad_index(float("nan"), (1, 2, 0)),
        xi12_local2=one_bad_index(float("inf"), (0, 0, 1)),
    )
    rng = np.random.default_rng(9)
    h = random_hamiltonian(rng, (2, 2), interaction=True)
    state = random_interior_joint(rng, (2, 2))
    with pytest.raises(NonlinearityEvaluationError, match="non-finite value nan"):
        vector_field(xi_law(xi), h, state)
    only_inf = replace(xi, xi12_local1=lambda *args: 1.0)
    with pytest.raises(NonlinearityEvaluationError, match="non-finite value inf"):
        vector_field(xi_law(only_inf), h, state)


def test_zero_hamiltonian_zero_field_for_any_weights():
    rng = np.random.default_rng(11)
    state = random_interior_joint(rng, (2, 2))
    h = BlochHamiltonian((2, 2))
    for law in (linear_law(), xi_law("corrnorm"), xi_law("purity1")):
        assert np.max(np.abs(_flat(vector_field(law, h, state)))) == 0.0


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        xi_preset("unknown")


def test_xi_functions_requires_complete_family():
    with pytest.raises(ValueError):
        XiFunctions(xi1=lambda *a: 1.0)


# ---------------------------------------------------------------------------
# Joint evolution


def test_evolve_zero_time_is_identity():
    rng = np.random.default_rng(12)
    h = random_hamiltonian(rng, (2, 2))
    state = random_interior_joint(rng, (2, 2))
    result = evolve(linear_law(), h, state, 0.0)
    np.testing.assert_array_equal(result.state.r1, state.r1)
    np.testing.assert_array_equal(result.state.r12, state.r12)
    assert result.physical


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_evolve_linear_matches_unitary_oracle(dims):
    rng = np.random.default_rng(13 + dims[1])
    b1, b2 = cached_basis(dims[0]), cached_basis(dims[1])
    for _ in range(3):
        h = random_hamiltonian(rng, dims, scale=0.6)
        rho0 = random_density(rng, dims[0] * dims[1])
        state0 = joint_to_bloch(rho0, b1, b2)
        t = 1.0
        result = evolve(linear_law(), h, state0, t)
        ref = joint_to_bloch(unitary_evolve(h.matrix(), rho0, t), b1, b2)
        assert coord_distance(result.state, ref) <= 1e-6


def test_unit_weight_trajectory_tracks_linear_trajectory():
    rng = np.random.default_rng(14)
    h = random_hamiltonian(rng, (2, 2), scale=0.6)
    state0 = random_interior_joint(rng, (2, 2))
    a = evolve(linear_law(), h, state0, 1.0).state
    b = evolve(xi_law("one"), h, state0, 1.0).state
    assert coord_distance(a, b) <= 1e-9


def test_evolve_step_budget_error():
    rng = np.random.default_rng(15)
    h = random_hamiltonian(rng, (2, 2))
    state = random_interior_joint(rng, (2, 2))
    with pytest.raises(IntegrationFailureError):
        evolve(linear_law(), h, state, 10.0, IntegratorOptions(max_steps=3))


@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=["linear", "polesink"])
def test_reduced_rk4_step_budget_error(law):
    flow = reduced_flow(law, [0.0, 0.0, 0.3], 2)
    options = IntegratorOptions(method="rk4", step=0.01, max_steps=10)
    r0 = np.array([[0.1, 0.2, 0.3], [-0.2, 0.0, 0.4]])
    assert flow.sample(r0, [0.05], options)[0].shape == r0.shape
    with pytest.raises(IntegrationFailureError, match=r"100 steps \(> max_steps=10\)"):
        flow.sample(r0, [1.0], options)


def test_evolve_path_monotone_times_required():
    rng = np.random.default_rng(16)
    h = random_hamiltonian(rng, (2, 2))
    state = random_interior_joint(rng, (2, 2))
    with pytest.raises(ValueError):
        evolve_path(linear_law(), h, state, [0.5, 0.2])
    samples = evolve_path(linear_law(), h, state, [0.0, 0.3, 0.6])
    assert [t for t, _ in samples] == [0.0, 0.3, 0.6]
    np.testing.assert_array_equal(samples[0][1].state.r1, state.r1)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_nonfinite_evolution_time_rejected(t):
    rng = np.random.default_rng(16)
    h = random_hamiltonian(rng, (2, 2))
    state = random_interior_joint(rng, (2, 2))
    rk4 = IntegratorOptions(method="rk4", step=0.01)
    message = "evolution times must be finite, nonnegative and ascending"
    for options in (None, rk4):
        with pytest.raises(ValueError, match=message):
            evolve(xi_law("corrnorm"), h, state, t, options)
        with pytest.raises(ValueError, match=message):
            evolve_path(linear_law(), h, state, [0.0, 0.5, t], options)
    for law in (linear_law(), polesink_law(0.1)):
        with pytest.raises(ValueError, match=message):
            reduced_flow(law, h.h1, 2).sample(state.r1, [0.5, t], rk4)


def test_linear_evolution_preserves_purity():
    rng = np.random.default_rng(17)
    b = cached_basis(2)
    h = random_hamiltonian(rng, (2, 2), scale=0.7)
    rho0 = random_density(rng, 4)
    state0 = joint_to_bloch(rho0, b, b)
    result = evolve(linear_law(), h, state0, 1.0)
    x0, x1 = pack_coords(state0), pack_coords(result.state)
    # Tr(rho^2) is a fixed quadratic in the packed coordinates
    p0 = (1.0 + 2.0 * float(x0 @ x0) / 4.0) / 4.0
    p1 = (1.0 + 2.0 * float(x1 @ x1) / 4.0) / 4.0
    assert abs(p0 - p1) <= 1e-9


def test_interaction_free_linear_flow_preserves_product_form():
    rng = np.random.default_rng(18)
    b = cached_basis(2)
    rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
    state0 = joint_to_bloch(np.kron(rho1, rho2), b, b)
    h = random_hamiltonian(rng, (2, 2), interaction=False)
    # tight integration so the residual reflects the law, not the stepper
    opts = IntegratorOptions(atol=1e-12, rtol=1e-10)
    result = evolve(linear_law(), h, state0, 1.0, opts).state
    assert np.max(np.abs(result.r12 - np.outer(result.r1, result.r2))) <= 1e-9


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_the_purity1_weight_is_the_purity_of_party_one(dims):
    n1, n2 = dims
    rho = random_density(np.random.default_rng(23), n1 * n2)
    state = joint_to_bloch(rho, cached_basis(n1), cached_basis(n2))
    rho1 = trace_out(rho, dims, keep=1)
    weight = xi_preset("purity1").uniform(state.r1, state.r2, state.r12)
    assert weight == pytest.approx(float(np.real(np.trace(rho1 @ rho1))), rel=0, abs=1e-12)


def test_a_purity1_trajectory_keeps_the_spectrum():
    # the weighted field is a commutator with H_loc + w H_int at every instant
    rng = np.random.default_rng(24)
    b1, b2 = cached_basis(2), cached_basis(3)
    h = random_hamiltonian(rng, (2, 3), scale=0.6)
    rho0 = random_density(rng, 6)
    opts = IntegratorOptions(atol=1e-12, rtol=1e-10)
    result = evolve(xi_law("purity1"), h, joint_to_bloch(rho0, b1, b2), 1.0, opts)
    rho = joint_from_bloch(result.state, b1, b2, check=False)
    np.testing.assert_allclose(np.linalg.eigvalsh(rho), np.linalg.eigvalsh(rho0), rtol=0, atol=1e-6)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_the_polesink_joint_flow_is_logistic_on_the_polar_axis(dims):
    eps, t, z1, z2 = 0.3, 1.5, 0.4, -0.2
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    r1, r2 = np.zeros(d1), np.zeros(d2)
    r1[-1], r2[-1] = z1, z2
    r12 = 0.1 * np.random.default_rng(25).standard_normal((d1, d2))
    opts = IntegratorOptions(atol=1e-12, rtol=1e-10)
    out = evolve(polesink_law(eps), BlochHamiltonian(dims), JointBlochState(dims, r1, r2, r12),
                 t, opts).state
    for r, z0 in ((out.r1, z1), (out.r2, z2)):
        expected = np.zeros_like(r)
        expected[-1] = math.tanh(eps * t + math.atanh(z0))
        np.testing.assert_allclose(r, expected, rtol=0, atol=1e-8)
    np.testing.assert_array_equal(out.r12, r12)


def test_physicality_is_reported_not_enforced():
    # a law that blows the coordinates out of the physical set must be
    # reported as unphysical, with the eigenvalue attached
    from blochsig.sampling import singlet_state

    blow = EvolutionLaw(
        kind="custom",
        name="inflate",
        joint_field_fn=lambda h, r1, r2, r12: (r1, r2, r12 + 0.5 * np.eye(3)),
    )
    result = evolve(
        blow, BlochHamiltonian((2, 2)), singlet_state(), 1.0,
        IntegratorOptions(method="rk4", step=0.1),
    )
    assert not result.physical
    assert result.min_eigenvalue < -1e-6


# ---------------------------------------------------------------------------
# Reduced flows


def test_reduced_precession_closed_form():
    h = 0.45
    r0 = [1.0, 0.0, 0.0]
    for t in (0.0, 0.4, 1.3):
        out = reduced_flow(linear_law(), [0.0, 0.0, h], 2).sample(r0, [t])[0]
        expected = [math.cos(2 * h * t), math.sin(2 * h * t), 0.0]
        np.testing.assert_allclose(out, expected, atol=1e-8)


def test_reduced_zero_hamiltonian_is_static():
    r0 = np.concatenate([[0.3, -0.1], np.zeros(6)])
    out = reduced_flow(linear_law(), np.zeros(8), 3).sample(r0, [2.0])[0]
    np.testing.assert_allclose(out, r0, atol=1e-14)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: hamiltonian_from_matrix(np.triu(np.ones((4, 4))), (2, 2)), ValueError,
         "matrix is not Hermitian (deviation 1.000e+00)"),
        (lambda: vector_field(linear_law(), BlochHamiltonian((2, 2)), random_interior_joint(
            np.random.default_rng(1), (2, 3))), DimensionMismatchError,
         "state dims (2, 3) != Hamiltonian dims (2, 2)"),
        (lambda: evolve_path(linear_law(), BlochHamiltonian((3, 2)), random_interior_joint(
            np.random.default_rng(1), (2, 3)), [1.0]), DimensionMismatchError,
         "state dims (2, 3) != Hamiltonian dims (3, 2)"),
        (lambda: reduced_generator(np.zeros(8), 2), DimensionMismatchError,
         "local Hamiltonian must have length 3"),
    ],
    ids=["non-hermitian-matrix", "field-dims", "path-dims", "generator-length"],
)
def test_each_mismatched_argument_raises_its_error(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_an_indexed_weight_set_is_its_own_indexed_expansion():
    indexed = xi_preset("corrnorm").as_indexed()
    assert indexed.uniform is None
    assert indexed.as_indexed() is indexed


def test_reduced_generator_is_antisymmetric():
    rng = np.random.default_rng(19)
    for dim in (2, 3):
        gen = reduced_generator(rng.standard_normal(dim**2 - 1), dim)
        assert np.max(np.abs(gen + gen.T)) <= 1e-12


def test_propagator_fit_linear_law():
    rng = np.random.default_rng(20)
    h = random_hamiltonian(rng, (2, 2), interaction=False)
    a, residual = reduced_propagator_fit(linear_law(), h, t=1.0)
    assert residual <= 1e-8
    np.testing.assert_allclose(a.T @ a, np.eye(3), atol=1e-6)


def test_propagator_fit_weighted_law_interaction_free():
    rng = np.random.default_rng(21)
    h = random_hamiltonian(rng, (2, 3), interaction=False)
    # party 2's fit is party 1's fit of the Hamiltonian with the parties swapped
    swapped = BlochHamiltonian((3, 2), h1=h.h2)
    _, residual = reduced_propagator_fit(xi_law("corrnorm"), swapped, t=1.0)
    assert residual <= 1e-8


def test_propagator_fit_flags_polesink():
    h = BlochHamiltonian((2, 2))
    _, residual = reduced_propagator_fit(polesink_law(0.1), h, t=1.0)
    assert residual >= 1e-2


@pytest.mark.parametrize("law", [linear_law(), xi_law("corrnorm"), polesink_law(0.1)],
                         ids=lambda law: law.name)
def test_propagator_fit_of_an_interacting_hamiltonian_is_its_interaction_free_fit(law):
    # branches feel only party 1's block, so the fit reads h1 of any Hamiltonian
    rng = np.random.default_rng(22)
    h = random_hamiltonian(rng, (2, 3), interaction=True)
    a, residual = reduced_propagator_fit(law, h)
    free_a, free_residual = reduced_propagator_fit(law, h.interaction_free())
    assert np.array_equal(a, free_a)
    assert residual == free_residual


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(23)
    state = random_interior_joint(rng, (2, 3))
    for dims in ((2, 3), [2, 3]):
        back = unpack_coords(pack_coords(state), dims)
        np.testing.assert_array_equal(back.r1, state.r1)
        np.testing.assert_array_equal(back.r2, state.r2)
        np.testing.assert_array_equal(back.r12, state.r12)


def test_reconstructed_purity_helper_consistency():
    # purity() in coordinates equals the matrix value for reduced states too
    rng = np.random.default_rng(24)
    b = cached_basis(2)
    rho = random_density(rng, 2)
    state = to_bloch(rho, b)
    assert purity(state) == pytest.approx(float(np.real(np.trace(rho @ rho))), abs=1e-13)
    np.testing.assert_allclose(from_bloch(state, b), rho, atol=1e-13)
