"""Linear flow vs commutator oracle, weighted nonlinear family, reduced flows."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsig import dynamics
from blochsig.bloch import (
    BlochState,
    JointBlochState,
    from_bloch,
    joint_from_bloch,
    joint_to_bloch,
    partial_trace,
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
    InvalidDimensionError,
    NonFiniteGeneratorError,
    NonlinearityEvaluationError,
)
from blochsig.integrate import DEFAULT_OPTIONS, IntegratorOptions
from blochsig.nosignal_audit import polesink_law
from blochsig.sampling import interior_joint_state, random_density, random_interior_joint
from blochsig.su_basis import cached_basis, cached_constants

from helpers import (
    coord_distance,
    reference_indexed_field,
    tilted_xi,
    trace_out,
    unitary_evolve,
)


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
    # numpy integers are dimensions, kept as ints
    built = [BlochHamiltonian((np.int64(2), np.uint8(3))), JointBlochState(
        (np.int32(2), 2), np.zeros(3), np.zeros(3), np.zeros((3, 3)))]
    assert [type(n) for b in built for n in b.dims] == [int] * 4
    assert type(BlochState(np.int64(3), np.zeros(8)).dim) is int


@pytest.mark.parametrize("bad", [1, 0, -1, True, 2.0, 2.5, None], ids=repr)
@pytest.mark.parametrize("build", [
    lambda n: BlochHamiltonian((n, 2)),
    lambda n: BlochHamiltonian((3, n)),
    lambda n: random_hamiltonian(np.random.default_rng(0), (n, 2)),
    lambda n: BlochState(n, np.zeros(3)),
    lambda n: JointBlochState((2, n), np.zeros(3), [], np.zeros((3, 0))),
    lambda n: hamiltonian_from_matrix(np.eye(4), (n, 2)),
    lambda n: partial_trace(np.eye(4), (2, n), 1),
    lambda n: interior_joint_state(np.eye(4) / 4, (n, 2), 0.2),
    lambda n: random_interior_joint(np.random.default_rng(0), (2, n)),
], ids=["hamiltonian-party-1", "hamiltonian-party-2", "random-hamiltonian", "state",
        "joint-state", "hamiltonian-from-matrix", "partial-trace", "interior-joint-state",
        "random-interior-joint"])
def test_a_dimension_that_is_no_integer_of_at_least_two_is_refused_where_it_is_built(build, bad):
    # the rule of build_generators, applied before any array is shaped by it
    with pytest.raises(InvalidDimensionError, match=re.escape(f"must be >= 2, got {bad!r}")):
        build(bad)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2,), (), 2, None], ids=repr)
@pytest.mark.parametrize("build", [
    BlochHamiltonian,
    lambda dims: random_hamiltonian(np.random.default_rng(0), dims),
    lambda dims: JointBlochState(dims, np.zeros(3), np.zeros(3), np.zeros((3, 3))),
    lambda dims: hamiltonian_from_matrix(np.eye(4), dims),
    lambda dims: partial_trace(np.eye(4), dims, 1),
    lambda dims: interior_joint_state(np.eye(4) / 4, dims, 0.2),
    lambda dims: random_interior_joint(np.random.default_rng(0), dims),
], ids=["hamiltonian", "random-hamiltonian", "joint-state", "hamiltonian-from-matrix",
        "partial-trace", "interior-joint-state", "random-interior-joint"])
def test_dims_that_are_no_pair_are_refused_by_name(build, dims):
    # Python's own unpacking errors used to escape: "too many values to unpack"
    # for (2, 2, 2), "not enough values" for (2,), "not iterable" for 2
    with pytest.raises(InvalidDimensionError,
                       match=re.escape(f"dims must be a pair of dimensions, got {dims!r}")):
        build(dims)


@pytest.mark.parametrize("build, message", [
    (lambda: partial_trace(np.eye(4), (2, 3), 1), "must be (6, 6), got (4, 4)"),
    (lambda: partial_trace(np.arange(16.0), (2, 2), 1), "must be (4, 4), got (16,)"),
    (lambda: interior_joint_state(np.eye(4) / 4, (2, 3), 0.2), "must be (6, 6), got (4, 4)"),
], ids=["partial-trace", "partial-trace-flat", "interior-joint-state"])
def test_a_joint_matrix_that_does_not_fit_its_dims_is_refused_naming_both_shapes(build, message):
    # numpy's reshape and broadcast errors used to escape, and a flat array
    # of the right size was traced as if it were the matrix
    with pytest.raises(DimensionMismatchError, match=re.escape(message)):
        build()


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
    position, coefficient, value, ends = dynamics._generator_map(dims)
    assert not (position.flags.writeable or coefficient.flags.writeable or value.flags.writeable)
    # where each of the nine terms' entries end: no per-entry array beside the three
    assert len(ends) == 10 and ends[0] == 0 and ends[-1] == position.size == value.size
    assert list(ends) == sorted(ends)
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


@pytest.mark.parametrize("probes, seed, message", [
    (-1, 1, "^probes must be >= 0"),
    (1.5, 1, r"^probes must be an integer, got 1\.5"),
    (True, 1, "^probes must be an integer, got True"),
    (2, -1, "^seed must be >= 0"),
    (2, 2.0, r"^seed must be an integer, got 2\.0"),
    (2, np.bool_(False), "^seed must be an integer"),
])
def test_a_fit_refuses_probes_or_a_seed_that_is_no_count(probes, seed, message):
    with pytest.raises(ValueError, match=message):
        reduced_propagator_fit(linear_law(), BlochHamiltonian((2, 2)), 1.0, probes, seed)
    # numpy integers count, and no probes leaves a residual of 0
    _, residual = reduced_propagator_fit(linear_law(), BlochHamiltonian((2, 2)), 1.0,
                                         np.int64(0), np.uint8(3))
    assert residual == 0.0


def test_linear_law_field_equals_unit_weight_field():
    # linear is the xi law of the shared constant weight 1: same field and
    # trajectory, bit for bit
    assert linear_law().xi is xi_preset("one") and linear_law() == linear_law()
    rng = np.random.default_rng(3)
    for dims in ((2, 2), (2, 3), (3, 3)):
        h = random_hamiltonian(rng, dims)
        for _ in range(5):
            state = random_interior_joint(rng, dims)
            a = _flat(vector_field(linear_law(), h, state))
            b = _flat(vector_field(xi_law("one"), h, state))
            np.testing.assert_array_equal(a, b)
        a, b = (evolve(law, h, state, 0.7).state for law in (linear_law(), xi_law("one")))
        np.testing.assert_array_equal(pack_coords(a), pack_coords(b))


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


def _graded_xi():
    """Indexed weights that tell every index tuple apart: each family's weight
    grows with its indices, and with the correlations."""
    def graded(*args):
        index, r12 = args[:-3], args[-1]
        return 1.0 + 0.05 * sum((k + 1) * i for k, i in enumerate(index)) * np.tanh(np.sum(r12))

    families = ("xi1", "xi2", "xi12_bilinear", "xi12_local1", "xi12_local2")
    return XiFunctions(**dict.fromkeys(families, graded), name="graded")


@pytest.mark.parametrize("xi", [tilted_xi(), _graded_xi()], ids=lambda xi: xi.name)
@pytest.mark.parametrize("sparse", [False, True], ids=["full", "sparse"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_the_indexed_field_matches_the_per_tuple_reference(dims, sparse, xi):
    rng = np.random.default_rng(31)
    h = _sparse_hamiltonian(rng, dims) if sparse else random_hamiltonian(rng, dims)
    for _ in range(2):
        state = random_interior_joint(rng, dims)
        got = _flat(vector_field(xi_law(xi), h, state))
        assert np.max(np.abs(got - _flat(reference_indexed_field(xi, h, state)))) <= 1e-13
    # with unit weights the reference is the commutator flow
    one = _flat(reference_indexed_field(XiFunctions.constant(1.0).as_indexed(), h, state))
    assert np.max(np.abs(one - linear_generator(h) @ pack_coords(state))) <= 1e-13


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


@pytest.mark.parametrize("dims", [(2, 3), (2, 2), (3, 3)])
def test_sparse_interaction_indexed_weights_only_where_their_term_is_nonzero(dims):
    rng = np.random.default_rng(25)
    h = _sparse_hamiltonian(rng, dims)
    h12 = h.h12
    scale = rng.uniform(0.5, 1.5, h12.shape)
    corrnorm = xi_preset("corrnorm").uniform
    # the interaction element each family's tuples weight, from their leading index arrays
    element = {
        "xi1": lambda k, a, b: (a, b),
        "xi2": lambda l, a, b: (a, b),
        "xi12_bilinear": lambda p, q, a, b: (a, b),
        "xi12_local1": lambda p, q, a: (a, q),
        "xi12_local2": lambda p, q, b: (p, b),
    }
    calls = {family: [] for family in element}  # per call, its number of index tuples

    def weight(family):
        def fn(*args):
            index = args[:-3]
            assert all(i.dtype.kind == "i" and i.shape == index[0].shape for i in index)
            ab = element[family](*index)
            assert np.all(h12[ab] != 0.0)
            calls[family].append(len(index[0]))
            return scale[ab] * corrnorm(*args[-3:])

        return fn

    # weighting element ab by scale[ab] rescales h12[ab] in the scalar route
    indexed = xi_law(XiFunctions(**{family: weight(family) for family in element}))
    state = random_interior_joint(rng, dims)
    a = _flat(vector_field(indexed, h, state))
    h_scaled = BlochHamiltonian(dims, 0.0, h.h1, h.h2, scale * h12)
    b = _flat(vector_field(xi_law("corrnorm"), h_scaled, state))
    assert np.max(np.abs(a - b)) <= 1e-13
    # one evaluation calls each family at most once, with every tuple at once
    assert all(len(sizes) <= 1 for sizes in calls.values())
    assert {family: sum(sizes) for family, sizes in calls.items()} == _expected_weight_calls(h12)
    # g vanishes for su(2): a qubit pair's bilinear term is zero, so never weighted
    assert (calls["xi12_bilinear"] == []) == (dims == (2, 2))


def test_a_bilinear_weight_is_checked_only_where_its_term_is_nonzero():
    calls = []

    def nan_weights(p, q, a, b, r1, r2, r12):
        calls.append(len(p))
        return np.full(len(p), math.nan)

    one = XiFunctions.constant(1.0).as_indexed()
    nan_bilinear = xi_law(replace(one, xi12_bilinear=nan_weights))
    rng = np.random.default_rng(26)
    # a qubit pair's bilinear term is zero, so its weight is never called, not even
    # with empty index arrays
    h, state = random_hamiltonian(rng, (2, 2)), random_interior_joint(rng, (2, 2))
    a = _flat(vector_field(nan_bilinear, h, state))
    np.testing.assert_array_equal(a, _flat(vector_field(xi_law(one), h, state)))
    assert calls == []
    h, state = random_hamiltonian(rng, (2, 3)), random_interior_joint(rng, (2, 3))
    with pytest.raises(NonlinearityEvaluationError, match="non-finite value nan"):
        vector_field(nan_bilinear, h, state)
    assert len(calls) == 1 and calls[0] > 0


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


@pytest.mark.parametrize("wrap", [np.float64, np.array], ids=["float64", "0-d-array"])
def test_a_finite_uniform_weight_that_is_no_python_float_gives_the_float_weights_field(wrap):
    rng = np.random.default_rng(34)
    h, state = random_hamiltonian(rng, (2, 3)), random_interior_joint(rng, (2, 3))
    corrnorm = xi_preset("corrnorm").uniform
    law = xi_law(XiFunctions(uniform=lambda r1, r2, r12: wrap(corrnorm(r1, r2, r12))))
    np.testing.assert_array_equal(_flat(vector_field(law, h, state)),
                                  _flat(vector_field(xi_law("corrnorm"), h, state)))
    np.testing.assert_array_equal(pack_coords(evolve(law, h, state, 0.5).state),
                                  pack_coords(evolve(xi_law("corrnorm"), h, state, 0.5).state))


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


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_a_constant_weight_is_the_linear_law_with_a_scaled_interaction(monkeypatch, dims, c):
    rng = np.random.default_rng(33)
    h, state = random_hamiltonian(rng, dims), random_interior_joint(rng, dims)
    xi = XiFunctions.constant(c)
    calls, call = [], type(xi.uniform).__call__

    def counting(self, *r):
        calls.append(r)
        return call(self, *r)

    monkeypatch.setattr(type(xi.uniform), "__call__", counting)
    got = evolve(xi_law(xi), h, state, 0.7).state
    scaled = BlochHamiltonian(dims, 0.0, h.h1, h.h2, c * h.h12)
    assert coord_distance(got, evolve(linear_law(), scaled, state, 0.7).state) <= 1e-12
    field = _flat(vector_field(xi_law(xi), h, state))
    if c == 1.0:  # bit for bit the linear law's, field and trajectory
        np.testing.assert_array_equal(field, _flat(vector_field(linear_law(), h, state)))
        linear = evolve(linear_law(), h, state, 0.7).state
        np.testing.assert_array_equal(pack_coords(got), pack_coords(linear))
    # the compiled field never calls the weight; its indexed form calls it once
    # per family with tuples (a qubit pair's bilinear family has none)
    assert calls == []
    indexed = _flat(vector_field(xi_law(xi.as_indexed()), h, state))
    assert len(calls) == (4 if dims == (2, 2) else 5)
    assert np.max(np.abs(indexed - field)) <= 1e-13


@pytest.mark.parametrize("xi", [
    XiFunctions(uniform=lambda r1, r2, r12: float("nan")),
    XiFunctions.constant(math.nan),
    XiFunctions.constant(math.inf),
    XiFunctions.constant(-math.inf),
], ids=["nan", "constant-nan", "constant-inf", "constant-minus-inf"])
def test_nonfinite_weight_raises(xi):
    law = xi_law(xi)
    value = xi.uniform(None, None, None)  # each of these ignores the state
    message = re.escape(f"weight evaluated to non-finite value {value!r}")
    rng = np.random.default_rng(9)
    h = random_hamiltonian(rng, (2, 2), interaction=True)
    state = random_interior_joint(rng, (2, 2))
    with pytest.raises(NonlinearityEvaluationError, match=message):
        vector_field(law, h, state)
    with pytest.raises(NonlinearityEvaluationError, match=message):
        evolve(law, h, state, 0.5)
    # with h12 = 0 the weight is never evaluated: the law is the linear law
    free = h.interaction_free()
    np.testing.assert_array_equal(_flat(vector_field(law, free, state)),
                                  _flat(vector_field(linear_law(), free, state)))
    got, linear = (evolve(a, free, state, 0.5).state for a in (law, linear_law()))
    np.testing.assert_array_equal(pack_coords(got), pack_coords(linear))


def test_nonfinite_indexed_weight_raises_for_the_first_in_call_order():
    def bad_at(**values):
        # weight 1 but for the given tuples, named like "t120" for (1, 2, 0)
        def fn(*args):
            tuples = list(zip(*(i.tolist() for i in args[:-3])))
            w = np.ones(len(tuples))
            for name, value in values.items():
                w[tuples.index(tuple(int(c) for c in name[1:]))] = value
            return w

        return fn

    one = XiFunctions.constant(1.0).as_indexed()
    rng = np.random.default_rng(9)
    h = random_hamiltonian(rng, (2, 2), interaction=True)
    state = random_interior_joint(rng, (2, 2))
    # family order first: local1 is called before local2, so its nan is the value
    # reported, though local2's inf sits at a tuple that comes earlier
    xi = replace(one, xi12_local1=bad_at(t120=math.nan), xi12_local2=bad_at(t001=math.inf))
    with pytest.raises(NonlinearityEvaluationError, match="non-finite value nan"):
        vector_field(xi_law(xi), h, state)
    only_inf = replace(xi, xi12_local1=one.xi12_local1)
    with pytest.raises(NonlinearityEvaluationError, match="non-finite value inf"):
        vector_field(xi_law(only_inf), h, state)
    # then array order: in one family, the tuple (0, 0, 1) comes before (1, 2, 0)
    both = replace(one, xi12_local1=bad_at(t120=math.nan, t001=math.inf))
    with pytest.raises(NonlinearityEvaluationError, match="non-finite value inf"):
        vector_field(xi_law(both), h, state)


def test_zero_hamiltonian_zero_field_for_any_weights():
    rng = np.random.default_rng(11)
    state = random_interior_joint(rng, (2, 2))
    h = BlochHamiltonian((2, 2))
    for law in (linear_law(), xi_law("corrnorm"), xi_law("purity1")):
        assert np.max(np.abs(_flat(vector_field(law, h, state)))) == 0.0


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        xi_preset("unknown")


def test_a_law_is_its_fields():
    assert [f.name for f in fields(EvolutionLaw)] == ["name", "xi", "joint_field_fn",
                                                       "reduced_field_fn"]
    field = lambda *args: args[-1]  # noqa: E731
    # a law's kind is no longer an argument: each of these is refused when built
    for bad in ({"kind": "xi", "name": "x"}, {"kind": "bogus", "name": "b"},
                {"kind": "linear", "name": "linear", "joint_field_fn": field}):
        with pytest.raises(TypeError, match="kind"):
            EvolutionLaw(**bad)
    # a xi law sets its weights alone, and they are an XiFunctions
    with pytest.raises(ValueError, match="xi must be an XiFunctions"):
        EvolutionLaw("x", xi=lambda *a: 1.0)
    for own in ({"joint_field_fn": field}, {"reduced_field_fn": field},
                {"joint_field_fn": field, "reduced_field_fn": field}):
        with pytest.raises(ValueError, match="sets xi beside a field of its own"):
            EvolutionLaw("linear", xi=xi_preset("one"), **own)
    assert xi_law("one").xi is xi_preset("one") and xi_law("one") == xi_law("one")


def test_xi_functions_requires_complete_family():
    with pytest.raises(ValueError, match="either `uniform` or all five indexed weights"):
        XiFunctions(xi1=lambda *a: 1.0)


def test_xi_functions_refuses_a_uniform_weight_beside_indexed_ones():
    indexed = dict(xi1=lambda *a: 1.0, xi2=lambda *a: 1.0, xi12_bilinear=lambda *a: 1.0,
                   xi12_local1=lambda *a: 1.0, xi12_local2=lambda *a: 1.0)
    for given in (["xi1"], list(indexed)):
        with pytest.raises(ValueError, match="either `uniform` or all five indexed weights"):
            XiFunctions(uniform=lambda r1, r2, r12: 1.0, **{k: indexed[k] for k in given})
    with pytest.raises(ValueError, match="either `uniform`"):
        replace(XiFunctions.constant(1.0), xi1=indexed["xi1"])


@pytest.mark.parametrize("returned", [
    lambda n: (2,), lambda n: (1,), lambda n: (n + 1,), lambda n: (1, n), lambda n: (n, 1),
], ids=["2", "1", "n+1", "1xn", "nx1"])
def test_an_indexed_weight_of_the_wrong_shape_names_its_family_and_both_shapes(returned):
    one = XiFunctions.constant(1.0).as_indexed()
    wrong = replace(one, xi12_local1=lambda p, q, a, r1, r2, r12: np.ones(returned(len(p))))
    rng = np.random.default_rng(27)
    h, state = random_hamiltonian(rng, (2, 3)), random_interior_joint(rng, (2, 3))
    n = int(_expected_weight_calls(h.h12)["xi12_local1"])
    with pytest.raises(NonlinearityEvaluationError) as excinfo:
        vector_field(xi_law(wrong), h, state)
    assert str(excinfo.value) == (
        f"weight xi12_local1 returned shape {returned(n)}, not () or ({n},)"
    )


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
        out = reduced_flow(linear_law(), [0.0, 0.0, h], 2).sample(r0, [t], DEFAULT_OPTIONS)[0]
        expected = [math.cos(2 * h * t), math.sin(2 * h * t), 0.0]
        np.testing.assert_allclose(out, expected, atol=1e-8)


def test_reduced_zero_hamiltonian_is_static():
    r0 = np.concatenate([[0.3, -0.1], np.zeros(6)])
    out = reduced_flow(linear_law(), np.zeros(8), 3).sample(r0, [2.0], DEFAULT_OPTIONS)[0]
    np.testing.assert_allclose(out, r0, atol=1e-14)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: hamiltonian_from_matrix(np.triu(np.ones((4, 4))), (2, 2)), ValueError,
         "matrix is not Hermitian (deviation 1.000e+00)"),
        # a NaN fails no deviation test, and an inf diagonal warns in the trace
        (lambda: hamiltonian_from_matrix(np.full((4, 4), np.nan), (2, 2)), ValueError,
         "matrix entries must be finite"),
        (lambda: hamiltonian_from_matrix(np.diag([np.inf, 0.0, 0.0, 0.0]), (2, 2)), ValueError,
         "matrix entries must be finite"),
        (lambda: vector_field(linear_law(), BlochHamiltonian((2, 2)), random_interior_joint(
            np.random.default_rng(1), (2, 3))), DimensionMismatchError,
         "state dims (2, 3) != Hamiltonian dims (2, 2)"),
        (lambda: evolve_path(linear_law(), BlochHamiltonian((3, 2)), random_interior_joint(
            np.random.default_rng(1), (2, 3)), [1.0]), DimensionMismatchError,
         "state dims (2, 3) != Hamiltonian dims (3, 2)"),
        (lambda: reduced_generator(np.zeros(8), 2), DimensionMismatchError,
         "local Hamiltonian must have length 3"),
    ],
    ids=["non-hermitian-matrix", "nan-matrix", "inf-diagonal-matrix", "field-dims", "path-dims",
         "generator-length"],
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


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_a_stack_of_local_hamiltonians_gives_each_its_own_generator_bit_for_bit(dim):
    h = np.random.default_rng(19).standard_normal((4, 3, dim**2 - 1))
    stack = reduced_generator(h, dim)
    assert stack.shape == (4, 3, dim**2 - 1, dim**2 - 1)
    alone = np.array([[reduced_generator(row, dim) for row in rows] for rows in h])
    assert [v.hex() for v in stack.ravel()] == [v.hex() for v in alone.ravel()]
    h[2, 1, 0] = math.inf  # one non-finite member refuses the stack
    with pytest.raises(NonFiniteGeneratorError, match=f"local Hamiltonian of a {dim}-level"):
        reduced_generator(h, dim)
    with pytest.raises(DimensionMismatchError, match="local Hamiltonian must have length"):
        reduced_generator(h[..., 1:], dim)


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
