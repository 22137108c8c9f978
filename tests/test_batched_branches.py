"""Batched branch propagation: one rk4 trajectory per complex-step
component, covering every remote outcome and every audit time.

The references here are the branch-by-branch loop (one one-row solve per
remote outcome, integrated from 0 for each time) and the one-time,
one-member, one-component ``d_*`` calls.  Polesink runs the same arithmetic row by row, so it must
match bit for bit; linear and xi flows multiply a batch by the step matrix
in another order and may differ at round-off.
"""

import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsig import dynamics, integrate, measurement, nosignal_audit
from blochsig.dynamics import (
    BlochHamiltonian,
    custom_law,
    linear_law,
    random_hamiltonian,
    reduced_flow,
    reduced_propagator_fit,
    xi_law,
)
from blochsig.bloch import JointBlochState, joint_to_bloch, pack_coords
from blochsig.errors import (
    DimensionMismatchError,
    IntegrationFailureError,
    PerturbationInfeasibleError,
)
from blochsig.integrate import IntegratorOptions
from blochsig.jsonio import dumps
from blochsig.measurement import (
    EPS_PROB,
    computational_observable,
    fourier_observable,
    local_distribution,
    observable_from_basis,
    observable_from_matrices,
)
from blochsig.nosignal_audit import (
    DEFAULT_BRANCH_OPTIONS,
    AuditConfig,
    ObservableFamily,
    audit,
    d_correlations,
    d_remote_observable,
    d_remote_state,
    polesink_law,
)
from blochsig.sampling import random_density, random_interior_joint, singlet_state
from blochsig.su_basis import cached_basis

from helpers import (
    branchwise_member_distributions,
    channel_label,
    reference_direction,
    reference_haar_unitary,
)

DEFAULT_TIMES = (0.25, 0.5, 1.0)
NON_NESTING_TIMES = (0.3, 0.7)
EPS = nosignal_audit._EPS


def _member(dims, seed):
    rng = np.random.default_rng(seed)
    state = random_interior_joint(rng, dims)
    obs2 = observable_from_basis(reference_haar_unitary(rng, dims[1]).T, cached_basis(dims[1]))
    obs1 = observable_from_basis(reference_haar_unitary(rng, dims[0]).T, cached_basis(dims[0]))
    family = ObservableFamily(obs2, reference_direction(rng, dims[1]))
    return state, obs2, obs1, family


def _sensitivities(law, h, member, times):
    """Every component of the three channels of one member, one ``d_*`` call
    each with ``times``: one list per component, one value per time."""
    state, obs2, obs1, family = member
    d1, d2 = state.dims[0] ** 2 - 1, state.dims[1] ** 2 - 1
    one = ([state], [obs2], [obs1])
    values = [d_remote_state(law, h, *one, times, [k])[0][0] for k in range(d2)]
    values += [
        d_correlations(law, h, *one, times, [(i, j)])[0][0]
        for i in range(d1)
        for j in range(d2)
    ]
    values.append(d_remote_observable(law, h, [state], [family], [obs1], times)[0][0])
    return values


def _one_time(law, h, member, t):
    """:func:`_sensitivities` at the one time ``t``, one float per component."""
    return [v for (v,) in _sensitivities(law, h, member, [t])]


def _branchwise_distribution(joint, obs2, obs1, law, t, x=None):
    """Party 1's distribution from one one-row solve per remote outcome, of
    ``joint`` or of its packed coordinates ``x`` (complex for a complex
    step)."""
    n1, n2 = joint.dims
    d1, d2 = n1**2 - 1, n2**2 - 1
    x = pack_coords(joint) if x is None else x
    r1, r2, r12 = x[:d1], x[d1 : d1 + d2], x[d1 + d2 :].reshape(d1, d2)
    h_local = np.zeros(d1)
    branches = []
    for proj in obs2.outcomes:
        p = proj.u0 + proj.u @ r2
        if p.real <= EPS_PROB:
            continue
        r = (proj.u0 * r1 + r12 @ proj.u) / p
        field = lambda y: law.reduced_field_fn(h_local, y)  # noqa: E731
        branches.append((p, integrate.solve(field, r, t, DEFAULT_BRANCH_OPTIONS)))
    out = np.zeros(len(obs1.outcomes), dtype=x.dtype)
    for idx, proj in enumerate(obs1.outcomes):
        total = 0.0
        for p, r in branches:
            # the array loop of a complex product may fuse its multiply-adds
            # where the scalar one does not; np.multiply takes the array loop
            total += np.multiply(p, proj.u0 + proj.u @ r)
        out[idx] = total
    return out


def _branchwise_remote_state(law, member, t, k):
    """The complex step of ``r2[k]``, branch by branch."""
    state, obs2, obs1, _ = member
    x = pack_coords(state).astype(complex)
    x[state.dims[0] ** 2 - 1 + k] += 1j * EPS
    return float(np.max(np.abs(_branchwise_distribution(state, obs2, obs1, law, t, x).imag)) / EPS)


@pytest.mark.parametrize("times", [DEFAULT_TIMES, NON_NESTING_TIMES], ids=["nesting", "non-nesting"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_polesink_time_sequence_is_bit_identical_to_scalar_calls(dims, times):
    law, h = polesink_law(0.1), BlochHamiltonian(dims)
    member = _member(dims, 40 + dims[1])
    batched = _sensitivities(law, h, member, times)
    per_time = [_one_time(law, h, member, t) for t in times]
    assert all(isinstance(v, list) and len(v) == len(times) for v in batched)
    assert all(isinstance(v, float) for row in per_time for v in row)
    for i, t in enumerate(times):
        assert [v[i] for v in batched] == per_time[i]
        # the branch-by-branch solve of each complex row: the tangent route
        # reads the same first-order step off d1 tangent rows per branch
        reference = [_branchwise_remote_state(law, member, t, k) for k in range(dims[1] ** 2 - 1)]
        np.testing.assert_allclose([v[i] for v in batched[: len(reference)]], reference,
                                   rtol=0, atol=1e-15)


# Zeros, repeats, nesting (0.25/0.5/1.0 at step 0.01), non-nesting
# (0.3/0.7) and any other times, in any ascending mix.
_sample_times = st.lists(
    st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0]),
              st.floats(0.0, 1.0, allow_subnormal=False)),
    max_size=5,
).map(sorted)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(times=_sample_times, dim=st.integers(2, 3), seed=st.integers(0, 2**16))
def test_every_sample_is_the_solve_from_zero_bit_for_bit(times, dim, seed):
    rng = np.random.default_rng(seed)
    d = dim**2 - 1
    h_local = 0.6 * rng.standard_normal(d)
    r0 = rng.uniform(-0.2, 0.2, (2, d))
    for law, options in ((polesink_law(0.1), DEFAULT_BRANCH_OPTIONS),  # stepping, rk4
                         (polesink_law(0.1), IntegratorOptions(method="rkf45")),  # stepping
                         (linear_law(), DEFAULT_BRANCH_OPTIONS)):  # matrix
        flow = reduced_flow(law, h_local, dim)
        reference = [flow.sample(r0, [t], options)[0] for t in times]
        np.testing.assert_array_equal(
            flow.sample(r0, times, options),
            np.array(reference).reshape(len(times), *r0.shape),
            strict=True,
        )


def test_rk4_past_max_steps_raises():
    options = IntegratorOptions(method="rk4", max_steps=60)
    with pytest.raises(IntegrationFailureError, match="max_steps=60"):
        integrate.rk4_continues(0.25, 1.0, options)
    with pytest.raises(IntegrationFailureError, match="max_steps=60"):
        reduced_flow(polesink_law(0.1), None, 2).sample(np.zeros(3), [0.25, 1.0], options)


@pytest.mark.parametrize("options", [DEFAULT_BRANCH_OPTIONS, IntegratorOptions(method="rkf45")],
                         ids=["rk4", "rkf45"])
@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=lambda law: law.name)
@pytest.mark.parametrize("shape", [(3,), (2, 3)])
def test_no_times_give_no_samples_on_every_route(law, options, shape):
    flow = reduced_flow(law, None, 2)
    assert flow.sample(np.zeros(shape), [], options).shape == (0, *shape)
    assert flow.sample(np.zeros(shape, dtype=complex), [], options).dtype == complex


@pytest.mark.parametrize(
    "law", [linear_law(), xi_law("corrnorm"), xi_law("purity1")], ids=lambda law: law.name
)
@pytest.mark.parametrize("times", [DEFAULT_TIMES, NON_NESTING_TIMES], ids=["nesting", "non-nesting"])
def test_linear_and_xi_time_sequences_match_scalar_calls(law, times):
    h = random_hamiltonian(np.random.default_rng(31), (2, 3), scale=0.6)
    member = _member((2, 3), 32)
    batched = _sensitivities(law, h, member, times)
    for i, t in enumerate(times):
        scalar = _one_time(law, h, member, t)
        np.testing.assert_allclose([v[i] for v in batched], scalar, rtol=0, atol=1e-12)


def _scalar_audit_rows(law, hamiltonian, config):
    """Each row's value from one one-time ``d_*`` call per component and time."""
    dims = hamiltonian.dims
    s_members, _ = np.random.SeedSequence(config.seed).spawn(2)
    columns = nosignal_audit._ensemble(dims, config, np.random.default_rng(s_members))
    rows = []
    for member in zip(*columns):
        d2 = dims[1] ** 2 - 1
        for t in config.times:
            values = _one_time(law, hamiltonian, member, t)
            rows += [max(values[:d2]), max(values[d2:-1]), values[-1]]
    return rows


@pytest.mark.parametrize(
    "dims, config",
    [
        ((2, 2), AuditConfig(seed=3, ensemble_size=2)),
        ((2, 3), AuditConfig(seed=5, ensemble_size=1, times=NON_NESTING_TIMES)),
    ],
    ids=["2x2-default-times", "2x3-non-nesting"],
)
def test_polesink_audit_values_are_bit_identical_to_scalar_calls(dims, config):
    law, h = polesink_law(0.1), BlochHamiltonian(dims)
    report = audit(law, h, config)
    assert [row["value"] for row in report.cases] == _scalar_audit_rows(law, h, config)
    assert report.max_d_remote_observable == max(
        row["value"] for row in report.cases if row["channel"] == "d_remote_observable"
    )
    assert report.verdict == "signaling-detected"


@pytest.mark.parametrize("law", [linear_law(), xi_law("corrnorm")], ids=lambda law: law.name)
def test_linear_and_xi_audit_values_match_scalar_calls(law):
    h = random_hamiltonian(np.random.default_rng(33), (2, 2), scale=0.6)
    config = AuditConfig(seed=8, ensemble_size=2)
    report = audit(law, h, config)
    np.testing.assert_allclose(
        [row["value"] for row in report.cases], _scalar_audit_rows(law, h, config),
        rtol=0, atol=1e-12,
    )
    assert report.verdict == "pass"


def test_unsorted_audit_times_keep_their_row_order():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    shuffled = audit(law, h, AuditConfig(seed=3, ensemble_size=1, times=(1.0, 0.25, 0.5)))
    ordered = audit(law, h, AuditConfig(seed=3, ensemble_size=1, times=(0.25, 0.5, 1.0)))
    assert [row["time"] for row in shuffled.cases[:3]] == [1.0, 1.0, 1.0]
    by_key = {(r["time"], r["channel"]): r["value"] for r in ordered.cases}
    assert all(by_key[(r["time"], r["channel"])] == r["value"] for r in shuffled.cases)


def test_rkf45_branch_options_audit_passes():
    h = random_hamiltonian(np.random.default_rng(34), (2, 2), scale=0.5)
    config = AuditConfig(
        seed=6, ensemble_size=2, times=(0.5,), branch_options=IntegratorOptions(method="rkf45")
    )
    assert audit(linear_law(), h, config).verdict == "pass"


@pytest.mark.parametrize("law", [linear_law(), xi_law("corrnorm")], ids=lambda law: law.name)
def test_rkf45_branches_of_a_generator_law_read_at_rounding(law):
    # every row goes through one propagator, so the branch cancellations hold
    h = random_hamiltonian(np.random.default_rng(0), (2, 2), interaction=False)
    rkf45 = IntegratorOptions(method="rkf45")
    config = AuditConfig(ensemble_size=4, seed=1, pass_tolerance=1e-12, branch_options=rkf45)
    report = audit(law, h, config)
    assert report.verdict == "pass"
    assert max(report.residuals().values()) <= 1e-12
    flagged = audit(polesink_law(0.1), BlochHamiltonian((2, 2)), replace(config, ensemble_size=2))
    assert flagged.verdict == "signaling-detected"


@pytest.mark.parametrize("dim", [2, 3])
def test_rkf45_propagator_is_one_solve_of_the_flattened_identity(dim):
    h_local = 0.6 * np.random.default_rng(37).standard_normal(dim**2 - 1)
    flow = reduced_flow(linear_law(), h_local, dim)
    options = IntegratorOptions(method="rkf45")
    rows = np.random.default_rng(38).uniform(-0.2, 0.2, (3, dim**2 - 1))
    flow._propagator.cache_clear()
    samples = flow.sample(rows, [0.0, 0.4, 0.9], options)
    assert flow._propagator.cache_info().misses == 2  # one per nonzero time
    propagator = flow._propagator(0.9, options)
    np.testing.assert_array_equal(samples[2], rows @ propagator.T)
    np.testing.assert_array_equal(samples[0], rows)
    # the map stays within the tolerance of the exact rotation exp(L t)
    w, v = np.linalg.eig(flow.generator * 0.9)
    exact = ((v * np.exp(w)) @ np.linalg.inv(v)).real
    assert np.max(np.abs(propagator - exact)) <= 1e-7
    # and a row on its own takes the same map
    alone = flow.sample(rows[1], [0.9], options)[0]
    np.testing.assert_allclose(alone, samples[2][1], rtol=0, atol=1e-15)


def test_rkf45_polesink_sequence_matches_scalar_calls():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    state, obs2, obs1, _ = _member((2, 2), 35)
    options = IntegratorOptions(method="rkf45")
    one = ([state], [obs2], [obs1])
    batched = d_remote_state(law, h, *one, (0.3, 0.6), [2], options=options)
    assert batched == [[[
        d_remote_state(law, h, *one, [t], [2], options=options)[0][0][0] for t in (0.3, 0.6)
    ]]]


def test_rk4_solve_batch_rows_match_single_rows():
    field = polesink_law(0.2).reduced_field_fn
    rows = np.random.default_rng(36).uniform(-0.5, 0.5, size=(5, 3))
    batch = integrate.solve(lambda r: field(None, r), rows, 0.7, DEFAULT_BRANCH_OPTIONS)
    single = [integrate.solve(lambda r: field(None, r), row, 0.7, DEFAULT_BRANCH_OPTIONS)
              for row in rows]
    assert np.array_equal(batch, np.stack(single))


def test_rkf45_rejects_a_batch():
    rows = np.zeros((2, 3))
    with pytest.raises(ValueError, match="rkf45"):
        integrate.solve(lambda r: -r, rows, 1.0, IntegratorOptions(method="rkf45"))


def test_scalar_only_reduced_field_is_rejected_when_its_flow_is_built():
    def one_row_polesink(h_local, r):
        r = np.asarray(r, dtype=float)
        e = np.zeros_like(r)
        e[-1] = 1.0
        return 0.1 * (e - r[-1] * r)

    law = custom_law("one-row", reduced_field=one_row_polesink)
    with pytest.raises(ValueError, match="one-row.*last axis"):
        reduced_flow(law, None, 2)


def test_custom_flow_is_built_and_probed_once_per_law_and_hamiltonian():
    calls = []

    def field(h_local, r):
        calls.append(np.shape(r))
        return polesink_law(0.1).reduced_field_fn(h_local, r)

    law = custom_law("counted", reduced_field=field)
    flow = reduced_flow(law, None, 2)
    # the two-row probe: the batch, each row, then a complex step and a
    # central difference of the batch
    assert calls == [(2, 3), (3,), (3,), (2, 3), (2, 3), (2, 3)]
    assert reduced_flow(law, np.zeros(3), 2) is flow
    h = BlochHamiltonian((2, 2))
    state, obs2, obs1, _ = _member((2, 2), 57)
    for _ in range(2):
        d_remote_state(law, h, [state], [obs2], [obs1], DEFAULT_TIMES, [0, 1, 2])
    assert (3,) not in calls[6:]  # channel calls reuse the probed flow
    assert reduced_flow(law, [0.0, 0.0, 0.1], 2) is not flow


def _expanding_law():
    # r grows as exp(0.2 t) and turns NaN past norm 0.97: branches collapsed
    # to norm 0.8 stay finite at t = 0.5 and fail before t = 1.
    def field(h_local, r):
        r = np.asarray(r)
        return np.where(np.linalg.norm(r.real, axis=-1, keepdims=True) > 0.97, np.nan, 0.2 * r)

    return custom_law("expanding", reduced_field=field)


def test_integration_failure_at_a_late_time_leaves_earlier_times_checked():
    report = audit(
        _expanding_law(), BlochHamiltonian((2, 2)),
        AuditConfig(seed=3, ensemble_size=1, fit_probes=0),
    )
    status = {(row["time"], row["channel"]): row["status"] for row in report.cases}
    assert all(status[(t, ch)] == "ok" for t in (0.25, 0.5) for ch in
               ("d_remote_state", "d_correlations", "d_remote_observable"))
    assert status[(1.0, "d_remote_observable")] == "integration-failure"
    assert report.failures and {f["time"] for f in report.failures} == {1.0}
    assert all(f["reason"] == "rk4 result at t=1 is not finite" for f in report.failures)
    assert report.verdict == "signaling-detected"


def test_nonfinite_linearity_residual_is_a_failure(monkeypatch):
    # A NaN Hamiltonian is refused where its generator is built, so the
    # non-finite residual is crafted.
    monkeypatch.setattr(nosignal_audit, "reduced_propagator_fit", lambda *a, **k: (None, math.nan))
    h = BlochHamiltonian((2, 2), h1=[0.3, 0.0, 0.0])
    report = audit(linear_law(), h, AuditConfig(seed=0, ensemble_size=1, times=(0.5,)))
    linearity = [f for f in report.failures if f["channel"] == "linearity"]
    assert len(linearity) == 1 and linearity[0]["status"] == "non-finite"
    assert report.verdict == "signaling-detected"


# ---------------------------------------------------------------------------
# Every component of a channel in one ``d_*`` call.


def _per_component_values(law, h, member, times):
    """Every component of the two state channels, one ``d_*`` call each."""
    state, obs2, obs1, _ = member
    d1, d2 = state.dims[0] ** 2 - 1, state.dims[1] ** 2 - 1
    one = ([state], [obs2], [obs1])
    single = [d_remote_state(law, h, *one, times, [k])[0][0] for k in range(d2)]
    pairs = [(i, j) for i in range(d1) for j in range(d2)]
    return single, [d_correlations(law, h, *one, times, [c])[0][0] for c in pairs], pairs


def _batched_values(law, h, member, times, pairs):
    state, obs2, obs1, _ = member
    d2 = state.dims[1] ** 2 - 1
    one = ([state], [obs2], [obs1])
    return (
        d_remote_state(law, h, *one, times, list(range(d2)))[0],
        d_correlations(law, h, *one, times, np.array(pairs))[0],
    )


@pytest.mark.parametrize("times", [DEFAULT_TIMES, NON_NESTING_TIMES, (0.5,)],
                         ids=["nesting", "non-nesting", "one-time"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_polesink_component_sequences_are_bit_identical_to_per_component_calls(dims, times):
    law, h = polesink_law(0.1), BlochHamiltonian(dims)
    member = _member(dims, 50 + dims[1])
    single_state, single_corr, pairs = _per_component_values(law, h, member, times)
    batch_state, batch_corr = _batched_values(law, h, member, times, pairs)
    assert len(batch_state) == len(single_state) and len(batch_corr) == len(pairs)
    assert batch_state == single_state
    assert batch_corr == single_corr
    assert any(v != 0.0 for v in np.ravel(batch_corr))


@pytest.mark.parametrize(
    "law", [linear_law(), xi_law("corrnorm"), xi_law("purity1")], ids=lambda law: law.name
)
@pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
def test_linear_and_xi_component_sequences_match_per_component_calls(law, dims):
    h = random_hamiltonian(np.random.default_rng(51), dims, scale=0.6)
    member = _member(dims, 52)
    single_state, single_corr, pairs = _per_component_values(law, h, member, DEFAULT_TIMES)
    batch_state, batch_corr = _batched_values(law, h, member, DEFAULT_TIMES, pairs)
    np.testing.assert_allclose(batch_state, single_state, rtol=0, atol=1e-12)
    np.testing.assert_allclose(batch_corr, single_corr, rtol=0, atol=1e-12)


def _bare_forms():
    """Each bare member, time or component, as ``(label, d_* call)``: a call
    that differs from a valid one only there."""
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    state, obs2, obs1, family = _member((2, 2), 53)
    times = [0.5]
    calls = {
        "bare-joint": (d_remote_state, state, [obs2], [obs1], times, [1]),
        "bare-obs2": (d_remote_state, [state], obs2, [obs1], times, [1]),
        "bare-obs1": (d_correlations, [state], [obs2], obs1, times, [(2, 1)]),
        "bare-family": (d_remote_observable, [state], family, [obs1], times),
        "scalar-time-state": (d_remote_state, [state], [obs2], [obs1], 0.5, [1]),
        "scalar-time-correlations": (d_correlations, [state], [obs2], [obs1], 0.5, [(2, 1)]),
        "scalar-time-observable": (d_remote_observable, [state], [family], [obs1], 0.5),
        "bare-index": (d_remote_state, [state], [obs2], [obs1], times, 1),
        "nested-index": (d_remote_state, [state], [obs2], [obs1], times, [[1]]),
        "bare-pair": (d_correlations, [state], [obs2], [obs1], times, (2, 1)),
        "bare-pair-list": (d_correlations, [state], [obs2], [obs1], times, [2, 1]),
        "bare-int-pair": (d_correlations, [state], [obs2], [obs1], times, 2),
        "triple": (d_correlations, [state], [obs2], [obs1], times, [(2, 1, 0)]),
    }
    return {label: (fn, law, h, *args) for label, (fn, *args) in calls.items()}


@pytest.mark.parametrize("label", list(_bare_forms()))
def test_a_bare_member_time_or_component_is_a_value_error(label):
    # not a TypeError, and never a silently reshaped result
    fn, *args = _bare_forms()[label]
    with pytest.raises(ValueError, match="must be (a |nonempty )?sequences? of"):
        fn(*args)


def test_sequence_component_forms():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    state, obs2, obs1, _ = _member((2, 2), 53)
    one = ([state], [obs2], [obs1])
    [[value]] = d_remote_state(law, h, *one, [0.5], [1])
    assert isinstance(value, list) and isinstance(value[0], float)
    assert d_correlations(law, h, *one, (0.5,), [(2, 1)]) == d_correlations(
        law, h, *one, [0.5], np.array([[2, 1]]))
    assert d_remote_state(law, h, *one, [0.5], []) == [[]]
    assert d_correlations(law, h, *one, [0.5], []) == [[]]
    assert d_remote_state(law, h, *one, [], [0, 1]) == [[[], []]]
    with pytest.raises(ValueError, match="component"):
        d_remote_state(law, h, *one, [0.5], [0, 3])
    with pytest.raises(ValueError, match="component"):
        d_correlations(law, h, *one, [0.5], [(0, 0), (3, 0)])


@pytest.mark.parametrize("fn, component", [
    (d_remote_state, [1.7]),
    (d_remote_state, [True]),
    (d_remote_state, ["1"]),
    (d_remote_state, [np.float64(1.0)]),
    (d_remote_state, [np.bool_(True)]),
    (d_correlations, [(0.9, 2.2)]),
    (d_correlations, [(0, True)]),
    (d_correlations, [("0", 2)]),
    (d_correlations, np.array([[0.0, 2.0]])),
])
def test_a_component_that_is_not_an_integer_is_a_value_error(fn, component):
    # never cast to the coordinate it truncates to
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    state, obs2, obs1, _ = _member((2, 2), 53)
    with pytest.raises(ValueError, match=r"^component\[0\](\[[01]\])? must be an integer"):
        fn(law, h, [state], [obs2], [obs1], [0.5], component)


def test_numpy_integer_components_read_the_same_coordinates_as_python_ones():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    state, obs2, obs1, _ = _member((2, 2), 53)
    one = ([state], [obs2], [obs1])
    assert d_remote_state(law, h, *one, [0.5], [np.int64(1), np.int32(2)]) == d_remote_state(
        law, h, *one, [0.5], [1, 2])
    assert d_correlations(law, h, *one, [0.5], [(np.int64(0), np.uint8(2))]) == d_correlations(
        law, h, *one, [0.5], [(0, 2)])


def _zero_weight_member():
    """|00> measured computationally on party 2: outcome 1 has weight 0, so
    r2[2], which moves that weight, and r12[0,2], r12[1,2] and r12[2,2],
    which move its collapsed state, have one-sided derivatives only; every
    other component is two-sided."""
    b = cached_basis(2)
    state = joint_to_bloch(np.diag([1.0, 0.0, 0.0, 0.0]), b, b)
    obs1 = observable_from_basis(reference_haar_unitary(np.random.default_rng(54), 2).T, b)
    return state, computational_observable(2), obs1


def test_one_batched_call_gives_each_outcome_its_single_component_value_or_error():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    state, obs2, obs1 = _zero_weight_member()
    call = partial(d_remote_state, law, h, [state], [obs2], [obs1], list(DEFAULT_TIMES))
    [together] = call([0, 1, 2])
    alone = [call([k])[0][0] for k in (0, 1, 2)]
    assert _described([together]) == _described([alone])
    assert together[:2] == alone[:2]
    assert all(isinstance(e, PerturbationInfeasibleError) and "r2[2]" in str(e)
               for e in together[2])


def _per_component_audit(monkeypatch, law, h, config):
    """The audit with every member and component in its own public ``d_*``
    call: each row of the audit's coordinate sweep (``r2[k]``, ``r12[i,j]``)
    and each member of its observable channel is run alone, and the fit's
    rows that ride in the sweep (``extra``) propagate alone too."""
    channel = nosignal_audit._channel

    def one_by_one(law, h, joints, obs2s, obs1s, t, plan, options, extra=None):
        if extra is not None:
            ends = reduced_flow(law, h.h1, h.dims[0]).sample(extra, t, options)
            return one_by_one(law, h, joints, obs2s, obs1s, t, plan, options), ends
        with pytest.MonkeyPatch.context() as inner:  # the public calls run the real channel
            inner.setattr(nosignal_audit, "_channel", channel)
            out = []
            for joint, obs2, obs1 in zip(joints, obs2s, obs1s):
                rows = []
                for name in plan(joint, obs2)[3]:
                    which, label = channel_label(name)
                    member = (law, h, [joint], [obs2], [obs1], t)
                    if which == "d_remote_state":
                        [[row]] = d_remote_state(*member, [int(label)], options=options)
                    elif which == "d_correlations":
                        pair = tuple(map(int, label.split(",")))
                        [[row]] = d_correlations(*member, [pair], options=options)
                    else:
                        [[row]] = d_remote_observable(*member, options=options)
                    rows.append(row)
                out.append(rows)
            return out

    with monkeypatch.context() as m:
        m.setattr(nosignal_audit, "_channel", one_by_one)
        return audit(law, h, config)


def _with_zero_weight_anchor(monkeypatch):
    """Make the anchor of every ensemble :func:`_zero_weight_member`."""
    ensemble = nosignal_audit._ensemble

    def patched(dims, config, rng):
        states, remotes, locals_, families = ensemble(dims, config, rng)
        state, obs2, obs1 = _zero_weight_member()
        return ([state, *states[1:]], [obs2, *remotes[1:]], [obs1, *locals_[1:]],
                [ObservableFamily(obs2, families[0].direction), *families[1:]])

    monkeypatch.setattr(nosignal_audit, "_ensemble", patched)


def test_zero_weight_audit_with_infeasible_components_equals_per_component_audit(monkeypatch):
    h = BlochHamiltonian((2, 2), h1=[0.1, 0.0, 0.5], h2=[0.0, 0.2, 0.3], h12=0.3 * np.eye(3))
    config = AuditConfig(seed=0, ensemble_size=2, mix_weight=0.0)
    _with_zero_weight_anchor(monkeypatch)
    report = audit(linear_law(), h, config)
    reference = _per_component_audit(monkeypatch, linear_law(), h, config)
    # r2[2] and r12[i,2] of the anchor, at each audit time
    assert [(e["channel"], e["component"]) for e in report.infeasible] == [
        ("d_remote_state", "2"), ("d_correlations", "0,2"), ("d_correlations", "1,2"),
        ("d_correlations", "2,2")] * len(config.times)
    assert {e["member"] for e in report.infeasible} == {0}
    assert dumps(report.to_dict()) == dumps(reference.to_dict())
    assert report.verdict == "pass"


def test_late_integration_failure_inside_a_member_batch_keeps_the_failure_records(monkeypatch):
    law, h = _expanding_law(), BlochHamiltonian((2, 2))
    config = AuditConfig(seed=3, ensemble_size=2, fit_probes=0)
    report = audit(law, h, config)
    reference = _per_component_audit(monkeypatch, law, h, config)
    assert report.failures and {f["time"] for f in report.failures} == {1.0}
    assert report.failures == reference.failures
    assert dumps(report.to_dict()) == dumps(reference.to_dict())



def _sweep_names(dims):
    """The rows of the audit's coordinate sweep: ``r2``, then row-major ``r12``."""
    d1, d2 = (n**2 - 1 for n in dims)
    return (*(f"r2[{k}]" for k in range(d2)),
            *(f"r12[{i},{j}]" for i in range(d1) for j in range(d2)))


def _recorded_propagations(monkeypatch):
    """Record each branch propagation of the audit as (members, times, the
    set of the members' row names)."""
    calls, original = [], nosignal_audit._member_distributions

    def recorded(members, law, hamiltonian, times, options=None, extra=None):
        members = list(members)
        calls.append((len(members), tuple(times), {tuple(m[-1]) for m in members}))
        return original(members, law, hamiltonian, times, options, extra)

    monkeypatch.setattr(nosignal_audit, "_member_distributions", recorded)
    return calls


def test_an_integration_failure_still_makes_one_propagation_per_sweep(monkeypatch):
    calls = _recorded_propagations(monkeypatch)
    report = audit(_expanding_law(), BlochHamiltonian((2, 2)),
                   AuditConfig(seed=3, ensemble_size=2, fit_probes=0))
    grid = DEFAULT_TIMES
    # member 0 fails at t = 1, inside the one batch over both members and every time
    assert calls == [(2, grid, {_sweep_names((2, 2))}), (2, grid, {("theta",)})]
    assert {f["member"] for f in report.failures} == {0}


def test_an_rkf45_branch_that_gives_up_fails_only_its_own_outcomes(monkeypatch):
    # rkf45 gives up on a branch just before t = 1; that row reads NaN, so
    # its outcomes at t = 1 fail and every earlier outcome is checked
    calls = _recorded_propagations(monkeypatch)
    config = AuditConfig(seed=3, ensemble_size=3, fit_probes=0,
                         branch_options=IntegratorOptions(method="rkf45"))
    report = audit(_expanding_law(), BlochHamiltonian((2, 2)), config)
    assert report.failures and {f["time"] for f in report.failures} == {1.0}
    assert all(f["reason"] == "rkf45 result at t=1 is not finite" for f in report.failures)
    assert all(row["status"] == "ok" for row in report.cases if row["time"] < 1.0)
    assert [names for *_, names in calls] == [{_sweep_names((2, 2))}, {("theta",)}]


def test_audit_makes_two_channel_propagations_each_over_every_member_and_time(monkeypatch):
    calls = _recorded_propagations(monkeypatch)
    audit(polesink_law(0.1), BlochHamiltonian((2, 3)),
          AuditConfig(seed=1, ensemble_size=3, times=(1.0, 0.25, 0.5, 0.25)))
    grid = DEFAULT_TIMES
    assert len(_sweep_names((2, 3))) == 8 + 24
    assert calls == [(3, grid, {_sweep_names((2, 3))}), (3, grid, {("theta",)})]


def _scalar_loop_distributions(pairs, obs1, law, times):
    return np.array(
        [[_branchwise_distribution(joint, obs2, obs1, law, t) for joint, obs2 in pairs]
         for t in times]
    )


def test_zero_probability_branches_and_uneven_branch_counts_match_the_scalar_loop():
    dims = (2, 3)
    b1, b2 = cached_basis(2), cached_basis(3)
    rng = np.random.default_rng(55)
    remote_zero = np.diag([1.0, 0.0, 0.0])  # party 2 in |0>: outcomes 1 and 2 never occur
    product = joint_to_bloch(np.kron(random_density(rng, 2), remote_zero), b1, b2)
    generic = random_interior_joint(rng, dims)
    three = observable_from_basis(reference_haar_unitary(rng, 3).T, b2)
    computational = computational_observable(3)
    p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    two = observable_from_matrices([p0, np.eye(3) - p0], b2)  # a rank-2 outcome
    pairs = [(product, computational), (generic, three), (generic, two), (product, three)]
    obs1 = observable_from_basis(reference_haar_unitary(rng, 2).T, b1)
    law = polesink_law(0.1)
    members = [(pack_coords(joint)[None], obs2.u0_vector(), obs2.u_matrix(), obs1, None)
               for joint, obs2 in pairs]  # one batch of uneven branch counts
    dists = measurement._member_distributions(members, law, BlochHamiltonian(dims),
                                              DEFAULT_TIMES, DEFAULT_BRANCH_OPTIONS)
    assert not any(failures for _, failures in dists)
    batched = np.concatenate([dist for dist, _ in dists], axis=1)
    assert batched.shape == (len(DEFAULT_TIMES), len(pairs), 2)
    assert np.array_equal(batched, _scalar_loop_distributions(pairs, obs1, law, DEFAULT_TIMES))
    # the channel demo is the two-pair case at one time
    delta, (pa, pb) = nosignal_audit.signaling_channel_demo(
        law, generic, three, two, obs1, 0.5
    )
    expected = _scalar_loop_distributions([(generic, three), (generic, two)], obs1, law, [0.5])
    assert np.array_equal(pa, expected[0, 0]) and np.array_equal(pb, expected[0, 1])
    assert delta == 0.5 * float(np.sum(np.abs(expected[0, 0] - expected[0, 1])))


def test_channel_demo_rejects_a_remote_observable_of_another_dim():
    joint = random_interior_joint(np.random.default_rng(56), (2, 2))
    local = computational_observable(2)
    for remote in ((computational_observable(2), computational_observable(3)),
                   (computational_observable(3), computational_observable(3))):
        with pytest.raises(DimensionMismatchError, match="do not fit dims"):
            nosignal_audit.signaling_channel_demo(polesink_law(0.1), joint, *remote, local, 0.5)


@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=lambda law: law.name)
def test_a_local_hamiltonian_of_another_length_is_rejected_for_every_law(law):
    # the branch functions take a Hamiltonian, whose h1 always has its
    # dims' length; the shape check sits in the reduced flow they read it through
    with pytest.raises(DimensionMismatchError, match="local Hamiltonian must have length 3"):
        reduced_flow(law, [0.3], 2)
    with pytest.raises(DimensionMismatchError, match="local Hamiltonian must have length 3"):
        reduced_flow(law, np.zeros((3, 1)), 2)


@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=lambda law: law.name)
@pytest.mark.parametrize("dims", [(3, 2), (2, 3)])
def test_a_hamiltonian_of_other_dims_than_the_state_is_rejected_for_every_law(law, dims):
    singlet, comp, fourier = singlet_state(), computational_observable(2), fourier_observable(2)
    hamiltonian = BlochHamiltonian(dims)
    with pytest.raises(DimensionMismatchError, match=re.escape(f"do not fit dims {dims}")):
        local_distribution(singlet, fourier, comp, law, 1.0, hamiltonian=hamiltonian)
    with pytest.raises(DimensionMismatchError, match=re.escape(f"do not fit dims {dims}")):
        nosignal_audit.signaling_channel_demo(law, singlet, comp, fourier, comp, 1.0,
                                              hamiltonian=hamiltonian)


def test_local_distribution_defaults_to_the_audit_branch_integrator():
    law, singlet = polesink_law(0.1), singlet_state()
    comp, fourier = computational_observable(2), fourier_observable(2)
    _, (_, pb) = nosignal_audit.signaling_channel_demo(law, singlet, comp, fourier, comp, 1.0)
    assert np.array_equal(local_distribution(singlet, fourier, comp, law, 1.0), pb)


# ---------------------------------------------------------------------------
# One batched propagation per channel: every ensemble member in one ``d_*``
# call, the result gaining a leading member axis.


def _columns(members):
    """Member tuples to per-argument lists."""
    return [list(column) for column in zip(*members)]


@pytest.mark.parametrize("options", [DEFAULT_BRANCH_OPTIONS, IntegratorOptions(method="rkf45")],
                         ids=["rk4", "rkf45"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize(
    "law", [linear_law(), xi_law("corrnorm"), polesink_law(0.1)], ids=lambda law: law.name
)
def test_member_batch_is_bit_identical_to_single_member_calls(law, dims, options):
    h = random_hamiltonian(np.random.default_rng(60), dims, scale=0.6)
    members = [_member(dims, 61 + m) for m in range(3)]  # each with its own obs1
    states, remote, local, families = _columns(members)
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    if options.method == "rkf45":  # one solve per branch row and time
        times, ks, pairs = (0.5,), [0, d2 - 1], [(0, 0), (d1 - 1, d2 - 1)]
    else:
        times, ks, pairs = DEFAULT_TIMES, list(range(d2)), [(i, j) for i in range(d1)
                                                            for j in range(d2)]
    fd = {"options": options}
    assert d_remote_state(law, h, states, remote, local, times, ks, **fd) == [
        d_remote_state(law, h, [state], [obs2], [obs1], times, ks, **fd)[0]
        for state, obs2, obs1, _ in members
    ]
    assert d_correlations(law, h, states, remote, local, times, pairs, **fd) == [
        d_correlations(law, h, [state], [obs2], [obs1], times, pairs, **fd)[0]
        for state, obs2, obs1, _ in members
    ]
    assert d_remote_observable(law, h, states, families, local, times, **fd) == [
        d_remote_observable(law, h, [state], [family], [obs1], times, **fd)[0]
        for state, _, obs1, family in members
    ]


def test_member_batch_forms():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    members = [_member((2, 2), 62 + m) for m in range(2)]
    states, remote, local, families = _columns(members)
    one = d_remote_state(law, h, states, remote, local, [0.5], [1])
    assert len(one) == 2 and all(isinstance(v, float) for [[v]] in one)
    assert d_remote_state(law, h, states, remote, local, [0.5], []) == [[], []]
    observable = d_remote_observable(law, h, tuple(states), families, local, (0.5,))
    assert len(observable) == 2 and all(np.shape(v) == (1, 1) for v in observable)
    with pytest.raises(ValueError):
        d_remote_state(law, h, states, remote[:1], local, [0.5], [1])
    with pytest.raises(ValueError, match="nonempty sequences"):
        d_remote_observable(law, h, [], [], [], [0.5])


def _described(outcomes):
    """Outcome lists with each error replaced by its type and message."""
    return [[[repr(v) if isinstance(v, Exception) else v for v in per_time] for per_time in row]
            for row in outcomes]


@pytest.mark.parametrize("failure", ["infeasible", "late-integration-failure"])
def test_a_failing_member_leaves_every_member_of_the_batch_its_own_outcomes(failure):
    if failure == "infeasible":
        law, error = polesink_law(0.1), PerturbationInfeasibleError
        members = [_zero_weight_member(), _member((2, 2), 63)[:3]]
    else:
        # the anchor of this ensemble fails at t = 1, the other member passes
        law, error = _expanding_law(), IntegrationFailureError
        config = AuditConfig(seed=3, ensemble_size=2)
        rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[0])
        states, remotes, locals_, _ = nosignal_audit._ensemble((2, 2), config, rng)
        members = list(zip(states, remotes, locals_))
    h, times, components = BlochHamiltonian((2, 2)), list(DEFAULT_TIMES), [0, 1, 2]

    def call(ms, cs):
        return d_remote_state(law, h, *_columns([members[m] for m in ms]), times, cs)

    # one batched call gives each outcome its single-member, single-component one
    together = call([0, 1], components)
    alone = [[call([m], [c])[0][0] for c in components] for m in (0, 1)]
    assert _described(together) == _described(alone)
    assert any(isinstance(v, error) for per_time in together[0] for v in per_time)
    assert together[1] == call([1], components)[0]


def test_a_row_that_is_not_finite_leaves_the_other_rows_their_numbers():
    # product states whose party-1 parts have norms 0.9 and 0.5: under the
    # expanding law the first turns NaN between t = 0.25 and t = 1
    law, dims, times = _expanding_law(), (2, 2), [0.25, 1.0]
    x = np.stack([pack_coords(JointBlochState(dims, [0.0, 0.0, r], np.zeros(3), np.zeros((3, 3))))
                  for r in (0.9, 0.5)])
    remote, local = computational_observable(2), computational_observable(2)
    [(dist, failures)] = measurement._member_distributions(
        [(x, remote.u0_vector(), remote.u_matrix(), local, None)], law, BlochHamiltonian(dims),
        times)
    assert list(failures) == [(1, 0)]  # (time index, row)
    assert isinstance(failures[1, 0], IntegrationFailureError)
    assert str(failures[1, 0]) == "rk4 result at t=1 is not finite"
    [(alone, none)] = measurement._member_distributions(
        [(x[1:], remote.u0_vector(), remote.u_matrix(), local, None)], law,
        BlochHamiltonian(dims), times)
    assert not none and np.array_equal(dist[:, 1:], alone)
    # the one-row call raises the failure in place of its distribution
    joint = JointBlochState(dims, x[0, :3], np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(IntegrationFailureError, match="^rk4 result at t=1 is not finite$"):
        local_distribution(joint, remote, local, law, 1.0)
    # and so does the channel demo, whose two one-row members both fail there
    with pytest.raises(IntegrationFailureError, match="^rk4 result at t=1 is not finite$"):
        nosignal_audit.signaling_channel_demo(law, joint, remote, fourier_observable(2), local,
                                              1.0)


# ---------------------------------------------------------------------------
# The tangent route: complex rows under a flow without a generator are read
# off K d1 tangent rows per member, checked against propagating every row.


def _audit_members(dims, config):
    """The audit's members as ``_member_distributions`` takes them: each
    member's coordinate-sweep rows, then each member's observable row."""
    s_members, _ = np.random.SeedSequence(config.seed).spawn(2)
    states, remotes, locals_, families = nosignal_audit._ensemble(
        dims, config, np.random.default_rng(s_members))
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    sweep = nosignal_audit._coordinate_plan(range(d2), [(i, j) for i in range(d1)
                                                        for j in range(d2)])
    coordinates = [(x, u0, u, obs1, names) for (x, u0, u, names), obs1 in zip(
        map(sweep, states, remotes), locals_)]
    theta = [(pack_coords(s)[None], f.base.u0_vector(),
              f.base.u_matrix() + 1j * EPS * f.tangent(), obs1, ["theta"])
             for s, f, obs1 in zip(states, families, locals_)]
    return coordinates, theta


def _assert_matches_branchwise(members, law, h, times, options):
    tangent = measurement._member_distributions(members, law, h, times, options)
    branchwise = branchwise_member_distributions(members, law, h, times, options)
    for (dist, failures), (ref, ref_failures) in zip(tangent, branchwise, strict=True):
        assert {k: repr(e) for k, e in failures.items()} == {
            k: repr(e) for k, e in ref_failures.items()}
        np.testing.assert_allclose(dist.real, ref.real, rtol=0, atol=1e-15, equal_nan=True)
        np.testing.assert_allclose(dist.imag / EPS, ref.imag / EPS, rtol=0, atol=1e-15,
                                   equal_nan=True)
    return tangent


@pytest.mark.parametrize("options", [DEFAULT_BRANCH_OPTIONS, IntegratorOptions(method="rkf45")],
                         ids=["rk4", "rkf45"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_tangent_route_matches_propagating_every_complex_row(dims, options):
    law, h = polesink_law(0.1), BlochHamiltonian(dims)
    rkf45 = options.method == "rkf45"  # one solve per branch row and time
    config = AuditConfig(seed=70, ensemble_size=2 if rkf45 else 3,
                         times=(0.5,) if rkf45 else DEFAULT_TIMES)
    coordinates, theta = _audit_members(dims, config)
    if rkf45:
        coordinates = [(x[::5], u0, u, obs1, names[::5]) for x, u0, u, obs1, names in coordinates]
    for members in (coordinates, theta):
        tangent = _assert_matches_branchwise(members, law, h, list(config.times), options)
        assert all(not failures for _, failures in tangent)
        assert any(np.abs(dist.imag).max() > 1e-6 * EPS for dist, _ in tangent)


@pytest.mark.parametrize("options", [DEFAULT_BRANCH_OPTIONS, IntegratorOptions(method="rkf45")],
                         ids=["rk4", "rkf45"])
def test_tangent_route_keeps_the_failure_records_of_propagating_every_row(options):
    # the anchor of this ensemble fails at t = 1 under the expanding law
    config = AuditConfig(seed=3, ensemble_size=2)
    coordinates, theta = _audit_members((2, 2), config)
    for members in (coordinates, theta):
        tangent = _assert_matches_branchwise(members, _expanding_law(), BlochHamiltonian((2, 2)),
                                             list(DEFAULT_TIMES), options)
        assert {i for i, _ in tangent[0][1]} == {2} and not tangent[1][1]


def test_tangent_route_keeps_infeasible_rows_and_zero_weight_branches():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    state, obs2, obs1 = _zero_weight_member()
    x, u0, u, names = nosignal_audit._coordinate_plan(range(3), [(i, 2) for i in range(3)])(
        state, obs2)
    tangent = _assert_matches_branchwise([(x, u0, u, obs1, names)], law, h, [0.5], None)
    assert sorted(row for _, row in tangent[0][1]) == [2, 3, 4, 5]


def test_complex_rows_of_a_member_must_share_one_real_part_under_a_field_flow():
    state, obs2, obs1, _ = _member((2, 2), 71)
    x = np.tile(pack_coords(state).astype(complex), (2, 1))
    x[:, 3] += [1j * EPS, 2j * EPS]
    member = (x, obs2.u0_vector(), obs2.u_matrix(), obs1, None)
    h = BlochHamiltonian((2, 2))
    measurement._member_distributions([member], polesink_law(0.1), h, [0.5])
    x[1, 0] += 0.01
    with pytest.raises(ValueError, match="complex rows of a member must share one real part"):
        measurement._member_distributions([member], polesink_law(0.1), h, [0.5])
    # a generator flow propagates every row, and real rows stay free
    measurement._member_distributions([member], linear_law(), h, [0.5])
    real = (x.real.copy(), *member[1:])
    measurement._member_distributions([real], polesink_law(0.1), h, [0.5])


def test_a_member_without_rows_gives_no_distributions_on_the_tangent_route():
    state, obs2, obs1, _ = _member((2, 2), 72)
    x = pack_coords(state).astype(complex)[None] + 1j * EPS
    empty = (x[:0], obs2.u0_vector(), obs2.u_matrix(), obs1, None)
    full = (x, obs2.u0_vector(), obs2.u_matrix(), obs1, None)
    for law in (polesink_law(0.1), linear_law()):
        (none, no_failures), (dist, _) = measurement._member_distributions(
            [empty, full], law, BlochHamiltonian((2, 2)), DEFAULT_TIMES)
        assert none.shape == (3, 0, 2) and not no_failures
        [(alone, _)] = measurement._member_distributions(
            [full], law, BlochHamiltonian((2, 2)), DEFAULT_TIMES)
        assert np.array_equal(dist, alone)


def _counted_polesink():
    """Polesink's reduced field, counting the rows of each call."""
    calls = []

    def field(h_local, r):
        calls.append(np.shape(r))
        return polesink_law(0.1).reduced_field_fn(h_local, r)

    return custom_law("counted-polesink", reduced_field=field), calls


def test_an_audit_propagates_its_branches_once_through_one_linearization():
    dims, h = (2, 3), BlochHamiltonian((2, 3))
    config = AuditConfig(seed=1, ensemble_size=3)
    law, calls = _counted_polesink()
    first = audit(law, h, config)
    # the flow's probe, on a law of its own, whose flow is built there
    alone, probe = _counted_polesink()
    reduced_flow(alone, h.h1, dims[0])
    # then one propagation for the fit and both channels: rk4 to t = 1 at
    # step 0.01, four stages a step, each over the fit's 1 + d1 + fit_probes
    # start rows and the K d1 = 9 tangent rows of each of the 3 members
    assert len(probe) == 6
    assert calls == probe + [((1 + 3 + config.fit_probes) + 3 * 9, 3)] * 400
    [(real, tangents)] = measurement._LINEARIZED.values()
    assert real.shape == (3, 9, 3) and tangents.shape == (3, 9, 3, 3)
    assert not (real.flags.writeable or tangents.flags.writeable)
    # the same audit again keeps that linearization: only the fit's rows propagate
    calls.clear()
    again = audit(law, h, config)
    assert calls == [(1 + 3 + config.fit_probes, 3)] * 400
    assert dumps(again.to_dict()) == dumps(first.to_dict())


def _audit_fit_seed(config):
    """The seed the audit hands its linearity fit."""
    _, s_fit = np.random.SeedSequence(config.seed).spawn(2)
    return int(s_fit.generate_state(1)[0])


@pytest.mark.parametrize("dims, options", [
    ((2, 2), DEFAULT_BRANCH_OPTIONS),
    ((2, 3), DEFAULT_BRANCH_OPTIONS),
    ((3, 3), DEFAULT_BRANCH_OPTIONS),
    ((2, 2), IntegratorOptions(method="rkf45")),
], ids=["2x2", "2x3", "3x3", "2x2-rkf45"])
def test_the_audits_linearity_residual_is_the_standalone_fit(dims, options):
    # under rk4 the fit's rows ride in the branch linearization as complex
    # rows of zero imaginary part; under rkf45 the fit runs alone
    law, h = polesink_law(0.1), BlochHamiltonian(dims)
    config = AuditConfig(seed=5, ensemble_size=2, branch_options=options)
    report = audit(law, h, config)
    _, residual = reduced_propagator_fit(law, h, max(config.times), config.fit_probes,
                                         _audit_fit_seed(config), options)
    assert residual > config.pass_tolerance
    assert report.linearity_residual.hex() == residual.hex()


def test_nan_tangent_rows_leave_the_fit_that_rides_with_them_unchanged():
    law, h, times = polesink_law(0.1), BlochHamiltonian((2, 2)), DEFAULT_TIMES
    flow = reduced_flow(law, h.h1, 2)
    starts = dynamics._fit_starts(2, 20, 7)
    bases = np.array([[0.1, 0.2, 0.3], [0.0, 0.5, np.nan]])  # the second member is NaN
    _, tangents, ridden = measurement._linearization(
        flow, bases, times, DEFAULT_BRANCH_OPTIONS, starts)
    assert np.isnan(tangents[:, 1]).all() and np.isfinite(tangents[:, 0]).all()
    assert ridden.shape == (3, len(starts), 3) and not ridden.imag.any()
    a, residual = dynamics._fit_read_off(starts, ridden[-1], 1.0, DEFAULT_BRANCH_OPTIONS)
    alone_a, alone = reduced_propagator_fit(law, h, 1.0, 20, 7)
    assert np.array_equal(a, alone_a) and residual.hex() == alone.hex()
