"""Batched branch propagation: one rk4 trajectory per channel call,
covering every member, remote outcome and audit time.

The references here are the branch-by-branch loop (one one-row solve per
remote outcome, integrated from 0 for each time) and the one-time,
one-member, one-component ``d_*`` calls.  Polesink runs the same arithmetic row by row, so it must
match bit for bit; linear and xi flows multiply a batch by the step matrix
in another order and may differ at round-off.  A stacked call's channel
values are also checked against ``helpers.reference_audit``.
"""

import math
import re
from collections import Counter
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
from blochsig.bloch import JointBlochState, joint_from_bloch, joint_to_bloch, pack_coords
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
    EPS,
    assert_outcomes_match,
    channel_outcomes,
    expanding_law,
    reference_audit,
    reference_direction,
    reference_ensemble,
    reference_haar_unitary,
)

DEFAULT_TIMES = (0.25, 0.5, 1.0)
NON_NESTING_TIMES = (0.3, 0.7)


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
    for u0, u in zip(obs2.u0, obs2.u):
        p = u0 + u @ r2
        if p.real <= EPS_PROB:
            continue
        r = (u0 * r1 + r12 @ u) / p
        field = lambda y: law.reduced_field_fn(h_local, y)  # noqa: E731
        branches.append((p, integrate.solve(field, r, t, DEFAULT_BRANCH_OPTIONS)))
    out = np.zeros(len(obs1), dtype=x.dtype)
    for idx, (v0, v) in enumerate(zip(obs1.u0, obs1.u)):
        total = 0.0
        for p, r in branches:
            # the array loop of a complex product may fuse its multiply-adds
            # where the scalar one does not; np.multiply takes the array loop
            total += np.multiply(p, v0 + v @ r)
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
        # the branch-by-branch solve of each complex row: the chain rule
        # reads the same derivative off d1 tangent rows per branch
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
        flow = reduced_flow(law, BlochHamiltonian((dim, 2), h1=h_local))
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
        flow = reduced_flow(polesink_law(0.1), BlochHamiltonian((2, 2)))
        flow.sample(np.zeros(3), [0.25, 1.0], options)


@pytest.mark.parametrize("options", [DEFAULT_BRANCH_OPTIONS, IntegratorOptions(method="rkf45")],
                         ids=["rk4", "rkf45"])
@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=lambda law: law.name)
@pytest.mark.parametrize("shape", [(3,), (2, 3)])
def test_no_times_give_no_samples_on_every_route(law, options, shape):
    flow = reduced_flow(law, BlochHamiltonian((2, 2)))
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
    columns, _ = nosignal_audit._ensemble(dims, config, np.random.default_rng(s_members))
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
def test_rkf45_propagator_is_one_solve_of_the_flattened_identity(dim, monkeypatch):
    d = dim**2 - 1
    h = BlochHamiltonian((dim, 2), h1=0.6 * np.random.default_rng(37).standard_normal(d))
    # a flow of its own, so that no other test has built its propagators
    flow = dynamics.ReducedFlow(None, dim**2 - 1, reduced_flow(linear_law(), h).generator)
    options = IntegratorOptions(method="rkf45")
    solves, solve_linear = [], integrate.solve_linear

    def counted(generator, y0, t, opts):
        solves.append((t, y0.shape))
        return solve_linear(generator, y0, t, opts)

    monkeypatch.setattr(integrate, "solve_linear", counted)
    rows = np.random.default_rng(38).uniform(-0.2, 0.2, (3, d))
    samples = flow.sample(rows, [0.0, 0.4, 0.9], options)
    assert solves == [(0.9, (d, d)), (0.4, (d, d))]  # one per nonzero time, last time first
    stack = flow.propagators([0.0, 0.4, 0.9], options)
    assert len(solves) == 2 and not stack.flags.writeable  # kept, not built again
    np.testing.assert_array_equal(stack[0], np.eye(d), strict=True)
    propagator = stack[2]
    np.testing.assert_array_equal(samples[2], rows @ propagator.T)
    np.testing.assert_array_equal(samples[0], rows)
    # the map stays within the tolerance of the exact rotation exp(L t)
    w, v = np.linalg.eig(flow.generator * 0.9)
    exact = ((v * np.exp(w)) @ np.linalg.inv(v)).real
    assert np.max(np.abs(propagator - exact)) <= 1e-7
    # and a row on its own takes the same map
    alone = flow.sample(rows[1], [0.9], options)[0]
    np.testing.assert_allclose(alone, samples[2][1], rtol=0, atol=1e-15)


def test_a_flow_keeps_the_propagators_of_its_last_times_alone():
    h = random_hamiltonian(np.random.default_rng(39), (12, 2))
    flow = reduced_flow(linear_law(), h)
    r0 = np.zeros((2, 143))
    flow.sample(r0, np.linspace(0.0, 1.0, 300), DEFAULT_BRANCH_OPTIONS)
    flow.sample(r0, DEFAULT_TIMES, DEFAULT_BRANCH_OPTIONS)
    key, stack = flow._propagators
    assert key == (DEFAULT_TIMES, DEFAULT_BRANCH_OPTIONS)
    assert stack.shape == (3, 143, 143) and not stack.flags.writeable


@pytest.mark.parametrize("options", [DEFAULT_BRANCH_OPTIONS, IntegratorOptions(method="rkf45")],
                         ids=["rk4", "rkf45"])
def test_a_generator_flows_jacobians_are_its_transposed_propagators(options):
    h = random_hamiltonian(np.random.default_rng(40), (3, 2), scale=0.6)
    flow = reduced_flow(linear_law(), h)
    rows = np.random.default_rng(41).uniform(-0.2, 0.2, (9, 8))
    bases, extra = rows[:4], rows[4:]
    states, jt, ridden = flow.linearize(bases, DEFAULT_TIMES, options, extra)
    stack = flow.propagators(DEFAULT_TIMES, options)
    assert jt.shape == (3, 1, 8, 8) and jt.flags.c_contiguous
    assert jt[:, 0].tobytes() == stack.transpose(0, 2, 1).tobytes()
    assert states.tobytes() == flow.sample(bases, DEFAULT_TIMES, options).tobytes()
    assert ridden.tobytes() == flow.sample(extra, DEFAULT_TIMES, options).tobytes()


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
        reduced_flow(law, BlochHamiltonian((2, 2)))


def test_custom_flow_is_built_and_probed_once_per_law_and_hamiltonian():
    calls = []

    def field(h_local, r):
        calls.append(np.shape(r))
        return polesink_law(0.1).reduced_field_fn(h_local, r)

    law = custom_law("counted", reduced_field=field)
    flow = reduced_flow(law, BlochHamiltonian((2, 2)))
    # the two-row probe: the batch, each row, then a complex step and a
    # central difference of the batch
    assert calls == [(2, 3), (3,), (3,), (2, 3), (2, 3), (2, 3)]
    assert reduced_flow(law, BlochHamiltonian((2, 3))) is flow  # party 1's block alone
    h = BlochHamiltonian((2, 2))
    state, obs2, obs1, _ = _member((2, 2), 57)
    for _ in range(2):
        d_remote_state(law, h, [state], [obs2], [obs1], DEFAULT_TIMES, [0, 1, 2])
    assert (3,) not in calls[6:]  # channel calls reuse the probed flow
    assert reduced_flow(law, BlochHamiltonian((2, 2), h1=[0.0, 0.0, 0.1])) is not flow



def test_integration_failure_at_a_late_time_leaves_earlier_times_checked():
    report = audit(
        expanding_law(), BlochHamiltonian((2, 2)),
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
    # non-finite residual is crafted where the audit reads its fit off.
    monkeypatch.setattr(nosignal_audit, "_fit_read_off", lambda *a, **k: (None, math.nan))
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


def _counted(law):
    """``law``'s reduced field as a law of its own that records the shape and
    dtype kind of the rows of each call."""
    calls = []

    def field(h_local, r):
        calls.append((np.shape(r), np.asarray(r).dtype.kind))
        return law.reduced_field_fn(h_local, r)

    return custom_law(f"counted {law.name}", reduced_field=field), calls


def test_an_integration_failure_still_makes_one_propagation_per_sweep():
    law, calls = _counted(expanding_law())
    report = audit(law, BlochHamiltonian((2, 2)), AuditConfig(seed=3, ensemble_size=2, fit_probes=0))
    # member 0 fails at t = 1, inside the one rk4 propagation after the
    # flow's 6-call probe: the fit's 1 + d1 start rows and the K d1 = 6
    # tangent rows of each member, to t = 1 at step 0.01, four stages a step
    assert calls[6:] == [((4 + 2 * 6, 3), "c")] * 400
    assert {f["member"] for f in report.failures} == {0}


def test_an_rkf45_branch_that_gives_up_fails_only_its_own_outcomes():
    # rkf45 gives up on a branch just before t = 1; that row reads NaN, so
    # its outcomes at t = 1 fail and every earlier outcome is checked
    rkf45 = IntegratorOptions(method="rkf45")
    config = AuditConfig(seed=3, ensemble_size=3, fit_probes=0, branch_options=rkf45)
    law, calls = _counted(expanding_law())
    report = audit(law, BlochHamiltonian((2, 2)), config)
    assert report.failures and {f["time"] for f in report.failures} == {1.0}
    assert all(f["reason"] == "rkf45 result at t=1 is not finite" for f in report.failures)
    assert all(row["status"] == "ok" for row in report.cases if row["time"] < 1.0)
    # no real row propagates: the fit's rows ride the linearization as
    # complex rows, solved from 0 at every audit time beside the branches
    # that a d_remote_observable call alone propagates
    s_members, _ = np.random.SeedSequence(config.seed).spawn(2)
    (states, _, locals_, families), _ = nosignal_audit._ensemble((2, 2), config,
                                                            np.random.default_rng(s_members))
    alone, alone_calls = _counted(expanding_law())
    d_remote_observable(alone, BlochHamiltonian((2, 2)), states, families, locals_,
                        DEFAULT_TIMES, options=rkf45)
    fit, fit_calls = _counted(expanding_law())
    flow = reduced_flow(fit, BlochHamiltonian((2, 2)))
    fit_calls.clear()  # the flow's probe
    flow.sample(dynamics._fit_starts(2, 0, 0), DEFAULT_TIMES, rkf45)
    assert [c for c in calls if c[1] != "c"] == [c for c in alone_calls if c[1] != "c"]  # probe
    complex_calls = Counter(c for c in calls if c[1] == "c")
    assert complex_calls == Counter(c for c in alone_calls if c[1] == "c") + Counter(
        (shape, "c") for shape, _ in fit_calls)


def test_an_audit_propagates_every_member_and_time_in_one_batch():
    law, calls = _counted(polesink_law(0.1))
    audit(law, BlochHamiltonian((2, 3)),
          AuditConfig(seed=1, ensemble_size=3, times=(1.0, 0.25, 0.5, 0.25)))
    # after the flow's probe: one rk4 propagation to t = 1 of the fit's
    # 1 + d1 + fit_probes start rows and the K d1 = 9 tangent rows of each
    # of the 3 members, every audit time read off it
    assert calls[6:] == [((1 + 3 + 20 + 3 * 9, 3), "c")] * 400


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
    # one batch of uneven branch counts: the rank-2 observable is padded
    x = np.stack([pack_coords(joint) for joint, _ in pairs])
    remote = measurement._outcomes([obs2 for _, obs2 in pairs], dims, 2)
    dist, failures = measurement._member_distributions(
        x, remote, measurement._outcomes([obs1] * len(pairs), dims, 1), law,
        BlochHamiltonian(dims), DEFAULT_TIMES, DEFAULT_BRANCH_OPTIONS)
    assert not failures
    batched = dist
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
@pytest.mark.parametrize("dims", [(3, 2), (2, 3)])
def test_a_hamiltonian_of_other_dims_than_the_state_is_rejected_for_every_law(law, dims):
    # the observables fit the Hamiltonian's dims, so the 2x2 singlet's
    # packed state (15 coordinates) is what does not fit
    singlet, (n1, n2) = singlet_state(), dims
    remote, local = fourier_observable(n2), computational_observable(n1)
    hamiltonian = BlochHamiltonian(dims)
    state = re.escape(f"rows of lengths {n1**2 - 1}, {n2**2 - 1}, 15 do not fit dims {dims}")
    with pytest.raises(DimensionMismatchError, match=state):
        local_distribution(singlet, remote, local, law, 1.0, hamiltonian=hamiltonian)
    with pytest.raises(DimensionMismatchError, match=state):
        nosignal_audit.signaling_channel_demo(law, singlet, computational_observable(n2), remote,
                                              local, 1.0, hamiltonian=hamiltonian)
    # a channel checks its members' dims first
    with pytest.raises(DimensionMismatchError,
                       match=re.escape(f"member dims (2, 2) do not fit dims {dims}")):
        nosignal_audit.d_remote_state(law, hamiltonian, [singlet], [remote], [local], [1.0],
                                      [0])


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
        law, error = expanding_law(), IntegrationFailureError
        config = AuditConfig(seed=3, ensemble_size=2)
        rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[0])
        (states, remotes, locals_, _), _ = nosignal_audit._ensemble((2, 2), config, rng)
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


def test_a_member_that_is_not_finite_leaves_the_other_members_their_numbers():
    # product states whose party-1 parts have norms 0.9 and 0.5: under the
    # expanding law the first turns NaN between t = 0.25 and t = 1
    law, dims, times = expanding_law(), (2, 2), [0.25, 1.0]
    x = np.stack([pack_coords(JointBlochState(dims, [0.0, 0.0, r], np.zeros(3), np.zeros((3, 3))))
                  for r in (0.9, 0.5)])
    remote, local = computational_observable(2), computational_observable(2)
    outcomes = (measurement._outcomes([remote] * 2, dims, 2),
                measurement._outcomes([local] * 2, dims, 1))
    dist, failures = measurement._member_distributions(
        x, *outcomes, law, BlochHamiltonian(dims), times)
    assert list(failures) == [(0, 1)]  # (member, time index)
    assert isinstance(failures[0, 1], IntegrationFailureError)
    assert str(failures[0, 1]) == "rk4 result at t=1 is not finite"
    alone, none = measurement._member_distributions(
        x[1:], *[(u0[1:], u[1:]) for u0, u in outcomes], law, BlochHamiltonian(dims), times)
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
# The chain rule: a stepped call reads the gradient along every packed
# coordinate of party 2 off the branch Jacobians, under a flow without a
# generator off K d1 tangent rows per member, and every public channel is a
# view of it (``tests/test_reference_audit.py`` checks them against the
# density-matrix reference).


def _stepped(law, h, states, remotes, locals_):
    """One stepped ``_member_distributions`` call on the members at the
    default times: the gradient, the failures and the Born weights."""
    x = np.stack([pack_coords(state) for state in states])
    return measurement._member_distributions(
        x, measurement._outcomes(remotes, h.dims, 2), measurement._outcomes(locals_, h.dims, 1),
        law, h, list(DEFAULT_TIMES), stepped=True)


def test_a_stepped_call_gives_the_gradient_along_every_coordinate_of_party_two():
    states, remotes, locals_, _ = _columns([_member((2, 3), 72 + m) for m in range(2)])
    for law in (polesink_law(0.1), linear_law()):
        grad, failures, weights = _stepped(law, BlochHamiltonian((2, 3)), states, remotes,
                                           locals_)
        # (time, member, local outcome, packed coordinate of party 2: 8 + 3 x 8)
        assert grad.shape == (3, 2, 2, 32) and not failures and weights.shape == (2, 3)
        assert law.name == "linear" or np.abs(grad).max() > 1e-3


@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=lambda law: law.name)
@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
def test_each_public_channel_is_a_view_of_one_gradient_call(law, dims):
    h = random_hamiltonian(np.random.default_rng(74), dims, scale=0.6)
    states, remotes, locals_, families = _columns([_member(dims, 75 + m) for m in range(3)])
    grad, failures, _ = _stepped(law, h, states, remotes, locals_)
    assert not failures
    d1, d2 = (n**2 - 1 for n in dims)
    ks, pairs = [d2 - 1, 0, d2 - 1, 1], [(d1 - 1, 0), (0, d2 - 1), (d1 - 1, 0), (0, 0)]

    def view(values):  # [member][component][time] of the largest |value| over party 1's outcomes
        return np.max(np.abs(values), axis=2).transpose(1, 2, 0).tolist()

    one = (law, h, states, remotes, locals_, DEFAULT_TIMES)
    assert d_remote_state(*one, ks) == view(grad[..., ks])
    assert d_correlations(*one, pairs) == view(grad[..., [d2 + i * d2 + j for i, j in pairs]])
    # theta contracts the gradient with R L_G, R = [r2; r12]
    generators = nosignal_audit._rotation_generators([f.direction for f in families], dims[1])
    r = np.stack([pack_coords(state)[d1:].reshape(1 + d1, d2) for state in states])
    turn = (r @ generators).reshape(len(states), 1, -1)
    assert d_remote_observable(law, h, states, families, locals_, DEFAULT_TIMES) == view(
        measurement._dots(grad, turn)[..., None])


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
def test_a_familys_tangent_rows_give_its_theta_view(dims):
    # tangent() is du_k/dtheta of the rotated outcome rows (a central
    # difference of rotate_observable), and the shift dR = R T U^+ of party
    # 2's coordinates, which moves each R u_k by R du_k/dtheta (the rows u_k
    # of a basis sum to zero, and so do their tangents), is the theta view
    law, h = polesink_law(0.1), random_hamiltonian(np.random.default_rng(76), dims, scale=0.6)
    states, remotes, locals_, families = _columns([_member(dims, 77 + m) for m in range(3)])
    grad, failures, _ = _stepped(law, h, states, remotes, locals_)
    d1, d2 = (n**2 - 1 for n in dims)
    shifts = []
    for state, family in zip(states, families):
        tangent = family.tangent()
        ends = [measurement.rotate_observable(family.base, family.direction, a).u
                for a in (1e-6, -1e-6)]
        np.testing.assert_allclose(tangent, (ends[0] - ends[1]) / 2e-6, atol=1e-8)
        r = pack_coords(state)[d1:].reshape(1 + d1, d2)
        shifts.append(r @ tangent.T @ np.linalg.pinv(family.base.u.T))
    values = measurement._dots(grad, np.reshape(shifts, (len(states), 1, -1)))
    theta = d_remote_observable(law, h, states, families, locals_, DEFAULT_TIMES)
    np.testing.assert_allclose(theta, np.max(np.abs(values), axis=2).T[:, None], rtol=1e-12)


@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=lambda law: law.name)
def test_an_audit_checks_each_member_once(law, monkeypatch):
    checked = []

    def counted(state, *bases, **kwargs):
        checked.append(state)
        return joint_from_bloch(state, *bases, **kwargs)

    monkeypatch.setattr(nosignal_audit, "joint_from_bloch", counted)
    audit(law, BlochHamiltonian((2, 2)), AuditConfig(seed=1, ensemble_size=8))
    assert len(checked) == 8


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
    reduced_flow(alone, h)
    # then one propagation for the fit and both channels: rk4 to t = 1 at
    # step 0.01, four stages a step, each over the fit's 1 + d1 + fit_probes
    # start rows and the K d1 = 9 tangent rows of each of the 3 members
    assert len(probe) == 6
    assert calls == probe + [((1 + 3 + config.fit_probes) + 3 * 9, 3)] * 400
    _, (real, tangents) = reduced_flow(law, h)._linearized
    assert real.shape == (3, 9, 3) and tangents.shape == (3, 9, 3, 3)
    assert not (real.flags.writeable or tangents.flags.writeable)
    # the same audit again propagates that one batch again, the fit's rows
    # with it, and reports the same bytes
    calls.clear()
    again = audit(law, h, config)
    assert calls == [((1 + 3 + config.fit_probes) + 3 * 9, 3)] * 400
    assert dumps(again.to_dict()) == dumps(first.to_dict())


def _audit_fit_seed(config):
    """The seed the audit hands its linearity fit."""
    _, s_fit = np.random.SeedSequence(config.seed).spawn(2)
    return int(s_fit.generate_state(1)[0])


_FIT_CASES = [(law, dims, options) for law in (polesink_law(0.1), linear_law(), xi_law("corrnorm"))
              for options in (DEFAULT_BRANCH_OPTIONS, IntegratorOptions(method="rkf45"))
              for dims in ((2, 2), (2, 3), (3, 3))]


@pytest.mark.parametrize("law, dims, options", _FIT_CASES, ids=[
    f"{'' if law.xi is None else law.name + '-'}{dims[0]}x{dims[1]}"
    f"{'-rkf45' if options.method == 'rkf45' else ''}" for law, dims, options in _FIT_CASES])
def test_the_audits_linearity_residual_is_the_standalone_fit(law, dims, options):
    # the fit's rows ride in the sweep's batch: after the unit rows under a
    # flow with a generator, as complex rows of zero imaginary part in the
    # branch linearization otherwise
    h = random_hamiltonian(np.random.default_rng(5), dims, scale=1.0)
    config = AuditConfig(seed=5, ensemble_size=2, branch_options=options)
    report = audit(law, h, config)
    _, residual = reduced_propagator_fit(law, h, max(config.times), config.fit_probes,
                                         _audit_fit_seed(config), options)
    assert (residual > config.pass_tolerance) == (law.xi is None)
    assert report.linearity_residual.hex() == residual.hex()


@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=lambda law: law.name)
def test_an_audit_past_max_steps_ends_with_the_fits_message(law):
    # 25 steps reach t = 0.25; t = 0.5 needs 50, and the fit's time, t = 1, 100
    options = IntegratorOptions(method="rk4", step=0.01, max_steps=30)
    h = BlochHamiltonian((2, 2), h1=[0.3, 0.0, 0.0])
    with pytest.raises(IntegrationFailureError) as alone:
        reduced_propagator_fit(law, h, 1.0, options=options)
    with pytest.raises(IntegrationFailureError) as swept:
        audit(law, h, AuditConfig(seed=1, ensemble_size=2, branch_options=options))
    assert str(swept.value) == str(alone.value) == "rk4 would need 100 steps (> max_steps=30)"


def test_an_audit_whose_propagator_overflows_ends_with_the_fits_message():
    # the rk4 step map of this generator overflows at every time; the
    # propagators are built from the last time down, so the audit fails at
    # t = 1, as the fit alone does, not at t = 0.25
    h = BlochHamiltonian((2, 2), h1=[1e150, 0.0, 0.0])
    with pytest.raises(IntegrationFailureError) as alone:
        reduced_propagator_fit(linear_law(), h, 1.0)
    with pytest.raises(IntegrationFailureError) as swept:
        audit(linear_law(), h, AuditConfig(seed=1, ensemble_size=2))
    assert str(swept.value) == str(alone.value) == "rk4 propagator at t=1 is not finite"


def test_nan_tangent_rows_leave_the_fit_that_rides_with_them_unchanged():
    law, h, times = polesink_law(0.1), BlochHamiltonian((2, 2)), DEFAULT_TIMES
    flow = reduced_flow(law, h)
    starts = dynamics._fit_starts(2, 20, 7)
    bases = np.array([[0.1, 0.2, 0.3], [0.0, 0.5, np.nan]])  # the second member is NaN
    _, tangents, ridden = flow.linearize(bases, times, DEFAULT_BRANCH_OPTIONS, starts)
    assert np.isnan(tangents[:, 1]).all() and np.isfinite(tangents[:, 0]).all()
    assert ridden.shape == (3, len(starts), 3) and not ridden.imag.any()
    a, residual = dynamics._fit_read_off(starts, ridden[-1], 1.0, DEFAULT_BRANCH_OPTIONS)
    alone_a, alone = reduced_propagator_fit(law, h, 1.0, 20, 7)
    assert np.array_equal(a, alone_a) and residual.hex() == alone.hex()


# ---------------------------------------------------------------------------
# A stacked call: every member gets the bits of its call alone.


def _stack_member(kind, dims, seed):
    """One member of ``kind`` at ``dims``: its state, remote and local
    observables and rotation family.  ``anchor`` is the audit's anchor,
    ``random`` an interior member, ``zero-weight`` a product state with
    party 2 in |0> measured computationally (outcomes of weight 0),
    ``rank-2`` a member whose remote observable has one rank-2 outcome (one
    outcome fewer), and ``expanding`` a product state whose party 1 has
    norm 0.9 (along its third axis), which the expanding law drives
    non-finite before t = 1."""
    rng = np.random.default_rng(seed)
    b1, b2 = cached_basis(dims[0]), cached_basis(dims[1])
    if kind == "anchor":
        state, obs2, obs1, direction = reference_ensemble(dims, AuditConfig(ensemble_size=1), rng)[0]
        return state, obs2, obs1, ObservableFamily(obs2, direction)
    state, obs2, obs1, family = _member(dims, seed)
    if kind in ("zero-weight", "expanding"):
        remote = np.zeros((dims[1], dims[1]))
        remote[0, 0] = 1.0
        if kind == "zero-weight":
            state = joint_to_bloch(np.kron(random_density(rng, dims[0]), remote), b1, b2)
            obs2 = computational_observable(dims[1])
        else:
            r1 = np.zeros(dims[0] ** 2 - 1)
            r1[2] = 0.9  # a state for a qutrit as for a qubit
            state = JointBlochState(dims, r1, np.zeros(dims[1] ** 2 - 1),
                                    np.zeros((len(r1), dims[1] ** 2 - 1)))
    elif kind == "rank-2":
        u = reference_haar_unitary(rng, dims[1])
        obs2 = observable_from_matrices([v @ v.conj().T for v in np.split(u, [2], axis=1)
                                         if v.size], b2)
    return state, obs2, obs1, ObservableFamily(obs2, family.direction)


_STACK_KINDS = st.sampled_from(["anchor", "random", "zero-weight", "rank-2", "expanding"])


def _bits(a):
    return [v.hex() for v in np.ravel(a)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dims=st.sampled_from([(2, 3), (3, 2)]), route=st.sampled_from(["generator", "tangent"]),
       kinds=st.lists(st.tuples(_STACK_KINDS, st.integers(0, 2**16)), min_size=2, max_size=5))
def test_a_stacked_call_gives_each_member_the_bits_of_its_call_alone(dims, route, kinds):
    law = linear_law() if route == "generator" else expanding_law()
    h = random_hamiltonian(np.random.default_rng(73), dims, scale=0.6)
    members = [_stack_member(kind, dims, seed) for kind, seed in kinds]
    grad, failures, weights = _stepped(law, h, *_columns(members)[:3])
    members = [(state, obs2, obs1, family.direction) for state, obs2, obs1, family in members]
    channels = channel_outcomes(law, h, members, DEFAULT_TIMES)
    for m, (state, obs2, obs1, direction) in enumerate(members):
        own_grad, own_failures, own_weights = _stepped(law, h, [state], [obs2], [obs1])
        assert _bits(grad[:, m, : len(obs1)]) == _bits(own_grad[:, 0])  # its local outcomes
        assert _bits(weights[m, : len(obs2)]) == _bits(own_weights[0])  # its remote outcomes
        assert {i: repr(e) for (n, i), e in failures.items() if n == m} == {
            i: repr(e) for (_, i), e in own_failures.items()}
        # and each column and theta view of the member is that of its lone call
        alone = channel_outcomes(law, h, [(state, obs2, obs1, direction)], DEFAULT_TIMES)
        assert {key[1:]: v for key, v in channels.items() if key[0] == m} == {
            key[1:]: v for key, v in alone.items()}
    # and every member's channels in the stacked calls are those of the
    # density-matrix reference
    assert_outcomes_match(channels, reference_audit(law, h, members, DEFAULT_TIMES), atol=1e-15)


@pytest.mark.parametrize("options", [DEFAULT_BRANCH_OPTIONS, IntegratorOptions(method="rkf45")],
                         ids=["rk4", "rkf45"])
@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=lambda law: law.name)
def test_views_of_ragged_remote_outcome_counts_are_the_reference_audit(law, options):
    # a rank-2 outcome at n2 = 3 (two outcomes, padded to three) beside a rank-1 basis
    dims = (2, 3)
    h = random_hamiltonian(np.random.default_rng(76), dims, scale=0.6)
    members = [_stack_member(kind, dims, 77) for kind in ("rank-2", "random", "zero-weight")]
    members = [(state, obs2, obs1, family.direction) for state, obs2, obs1, family in members]
    assert [len(obs2) for _, obs2, *_ in members] == [2, 3, 3]
    outcomes = reference_audit(law, h, members, DEFAULT_TIMES, options)
    assert "infeasible" in outcomes.values()
    assert_outcomes_match(channel_outcomes(law, h, members, DEFAULT_TIMES, options), outcomes)


@pytest.mark.parametrize("seed", range(6))
def test_a_stepped_call_gives_f_ordered_members_the_bits_of_c_ordered_ones(seed):
    # a gather such as x[..., order] hands the call an F-ordered stack;
    # the branch products must not round it otherwise
    law, h = polesink_law(0.1), random_hamiltonian(np.random.default_rng(seed), (2, 2), 0.6)
    states, remotes, locals_, _ = _columns([_member((2, 2), 90 + 4 * seed + m) for m in range(4)])
    x = np.stack([pack_coords(state) for state in states])
    outcomes = (measurement._outcomes(remotes, h.dims, 2), measurement._outcomes(locals_, h.dims, 1))
    c_order, f_order = (
        measurement._member_distributions(rows, *outcomes, law, h, list(DEFAULT_TIMES),
                                          stepped=True)
        for rows in (np.ascontiguousarray(x), np.asfortranarray(x))
    )
    assert np.array_equal(c_order[0], f_order[0]) and np.array_equal(c_order[2], f_order[2])
    assert not c_order[1] and not f_order[1]
