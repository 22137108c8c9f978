"""Batched branch propagation: one rk4 trajectory per complex-step
component, covering every remote outcome and every audit time.

The references here are the branch-by-branch loop (one one-row solve per
remote outcome, integrated from 0 for each time) and the scalar per-time
``d_*`` calls.  Polesink runs the same arithmetic row by row, so it must
match bit for bit; linear and xi flows multiply a batch by the step matrix
in another order and may differ at round-off.
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsig import integrate, nosignal_audit
from blochsig.dynamics import (
    BlochHamiltonian,
    custom_law,
    linear_law,
    random_hamiltonian,
    reduced_flow,
    reduced_propagator_fit,
    xi_law,
)
from blochsig.bloch import joint_to_bloch, pack_coords
from blochsig.errors import (
    DimensionMismatchError,
    IntegrationFailureError,
    PerturbationInfeasibleError,
)
from blochsig.integrate import IntegratorOptions
from blochsig.jsonio import dumps
from blochsig.measurement import (
    EPS_PROB,
    _outcome_rows,
    computational_observable,
    fourier_observable,
    local_distribution,
    observable_from_basis,
    observable_from_matrices,
    packed_distributions,
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
from blochsig.sampling import (
    random_density,
    random_hermitian_direction,
    random_interior_joint,
    random_orthonormal_basis,
    singlet_state,
)
from blochsig.su_basis import cached_basis

DEFAULT_TIMES = (0.25, 0.5, 1.0)
NON_NESTING_TIMES = (0.3, 0.7)
EPS = nosignal_audit._EPS


def _member(dims, seed):
    rng = np.random.default_rng(seed)
    state = random_interior_joint(rng, dims)
    obs2 = observable_from_basis(random_orthonormal_basis(rng, dims[1]), cached_basis(dims[1]))
    obs1 = observable_from_basis(random_orthonormal_basis(rng, dims[0]), cached_basis(dims[0]))
    family = ObservableFamily(obs2, random_hermitian_direction(rng, dims[1]))
    return state, obs2, obs1, family


def _sensitivities(law, h, member, times):
    """Every component of the three channels, called once with ``times``
    (a float or a sequence)."""
    state, obs2, obs1, family = member
    d1, d2 = state.dims[0] ** 2 - 1, state.dims[1] ** 2 - 1
    values = [d_remote_state(law, h, state, obs2, obs1, times, k) for k in range(d2)]
    values += [
        d_correlations(law, h, state, obs2, obs1, times, (i, j))
        for i in range(d1)
        for j in range(d2)
    ]
    values.append(d_remote_observable(law, h, state, family, obs1, times))
    return values


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
    per_time = [_sensitivities(law, h, member, t) for t in times]
    assert all(isinstance(v, list) and len(v) == len(times) for v in batched)
    assert all(isinstance(v, float) for row in per_time for v in row)
    for i, t in enumerate(times):
        assert [v[i] for v in batched] == per_time[i]
        reference = [_branchwise_remote_state(law, member, t, k) for k in range(dims[1] ** 2 - 1)]
        assert [v[i] for v in batched[: len(reference)]] == reference


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


@pytest.mark.parametrize(
    "law", [linear_law(), xi_law("corrnorm"), xi_law("purity1")], ids=lambda law: law.name
)
@pytest.mark.parametrize("times", [DEFAULT_TIMES, NON_NESTING_TIMES], ids=["nesting", "non-nesting"])
def test_linear_and_xi_time_sequences_match_scalar_calls(law, times):
    h = random_hamiltonian(np.random.default_rng(31), (2, 3), scale=0.6)
    member = _member((2, 3), 32)
    batched = _sensitivities(law, h, member, times)
    for i, t in enumerate(times):
        scalar = _sensitivities(law, h, member, t)
        np.testing.assert_allclose([v[i] for v in batched], scalar, rtol=0, atol=1e-12)


def _scalar_audit_rows(law, hamiltonian, config):
    """Each row's value from one scalar ``d_*`` call per component and time."""
    dims = hamiltonian.dims
    s_members, _ = np.random.SeedSequence(config.seed).spawn(2)
    cases = nosignal_audit._ensemble(dims, config, np.random.default_rng(s_members))
    rows = []
    for case in cases:
        member = (case.state, case.obs_remote, case.obs_local,
                  ObservableFamily(case.obs_remote, case.direction))
        d2 = dims[1] ** 2 - 1
        for t in config.times:
            values = _sensitivities(law, hamiltonian, member, t)
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


def test_rkf45_polesink_sequence_matches_scalar_calls():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    state, obs2, obs1, _ = _member((2, 2), 35)
    options = IntegratorOptions(method="rkf45")
    batched = d_remote_state(law, h, state, obs2, obs1, (0.3, 0.6), 2, options=options)
    assert batched == [
        d_remote_state(law, h, state, obs2, obs1, t, 2, options=options) for t in (0.3, 0.6)
    ]


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
        d_remote_state(law, h, state, obs2, obs1, DEFAULT_TIMES, [0, 1, 2])
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


def test_nonfinite_linearity_residual_is_a_failure():
    h = BlochHamiltonian((2, 2), h1=[math.nan, 0.0, 0.0])
    _, residual = reduced_propagator_fit(linear_law(), h)
    assert math.isnan(residual)
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
    single = [d_remote_state(law, h, state, obs2, obs1, times, k) for k in range(d2)]
    pairs = [(i, j) for i in range(d1) for j in range(d2)]
    return single, [d_correlations(law, h, state, obs2, obs1, times, c) for c in pairs], pairs


def _batched_values(law, h, member, times, pairs):
    state, obs2, obs1, _ = member
    d2 = state.dims[1] ** 2 - 1
    return (
        d_remote_state(law, h, state, obs2, obs1, times, list(range(d2))),
        d_correlations(law, h, state, obs2, obs1, times, np.array(pairs)),
    )


@pytest.mark.parametrize("times", [DEFAULT_TIMES, NON_NESTING_TIMES, 0.5],
                         ids=["nesting", "non-nesting", "scalar"])
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


def test_single_and_sequence_component_forms():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    state, obs2, obs1, _ = _member((2, 2), 53)
    assert isinstance(d_remote_state(law, h, state, obs2, obs1, 0.5, 1), float)
    assert d_remote_state(law, h, state, obs2, obs1, 0.5, [1]) == [
        d_remote_state(law, h, state, obs2, obs1, 0.5, 1)
    ]
    assert d_correlations(law, h, state, obs2, obs1, (0.5,), [(2, 1)]) == [
        d_correlations(law, h, state, obs2, obs1, (0.5,), (2, 1))
    ]
    assert d_remote_state(law, h, state, obs2, obs1, 0.5, []) == []
    with pytest.raises(ValueError, match="component"):
        d_remote_state(law, h, state, obs2, obs1, 0.5, [0, 3])
    with pytest.raises(ValueError, match="component"):
        d_correlations(law, h, state, obs2, obs1, 0.5, [(0, 0), (3, 0)])


def _zero_weight_member():
    """|00> measured computationally on party 2: outcome 1 has weight 0, so
    r2[2], which moves that weight, and r12[0,2], r12[1,2] and r12[2,2],
    which move its collapsed state, have one-sided derivatives only; every
    other component is two-sided."""
    b = cached_basis(2)
    state = joint_to_bloch(np.diag([1.0, 0.0, 0.0, 0.0]), b, b)
    obs1 = observable_from_basis(random_orthonormal_basis(np.random.default_rng(54), 2), b)
    return state, computational_observable(2), obs1


def test_one_infeasible_component_sends_the_channel_to_per_component_calls():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    state, obs2, obs1 = _zero_weight_member()
    with pytest.raises(PerturbationInfeasibleError, match=r"r2\[2\]"):
        d_remote_state(law, h, state, obs2, obs1, DEFAULT_TIMES, [0, 1, 2])
    call = partial(d_remote_state, law, h, state, obs2, obs1)
    [outcomes] = nosignal_audit._outcomes(
        lambda ms, ts, cs: [call(ts, cs)], [0], [0, 1, 2], list(DEFAULT_TIMES)
    )
    assert outcomes[:2] == [call(list(DEFAULT_TIMES), k) for k in (0, 1)]
    assert all(isinstance(e, PerturbationInfeasibleError) for e in outcomes[2])


def _per_component_audit(monkeypatch, law, h, config):
    """The audit with every component in its own ``d_*`` call."""
    outcomes = nosignal_audit._outcomes

    def one_by_one(call, members, components, times):
        return [[outcomes(call, [m], [c], times)[0][0] for c in components] for m in members]

    with monkeypatch.context() as m:
        m.setattr(nosignal_audit, "_outcomes", one_by_one)
        return audit(law, h, config)


def _with_zero_weight_anchor(monkeypatch):
    """Make the anchor of every ensemble :func:`_zero_weight_member`."""
    ensemble = nosignal_audit._ensemble

    def patched(dims, config, rng):
        cases = ensemble(dims, config, rng)
        state, obs2, obs1 = _zero_weight_member()
        return [replace(cases[0], state=state, obs_remote=obs2, obs_local=obs1), *cases[1:]]

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



def _recorded_d_calls(monkeypatch):
    """Record each ``d_*`` call as (channel, members, times, component count,
    ``None`` for the observable channel)."""
    calls = []
    for name in ("d_remote_state", "d_correlations", "d_remote_observable"):
        original = getattr(nosignal_audit, name)

        def recorded(*args, _name=name, _fn=original, **kwargs):
            calls.append((_name, len(args[2]), tuple(args[5]),
                          len(args[6]) if len(args) > 6 else None))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(nosignal_audit, name, recorded)
    return calls


def test_integration_failure_reruns_each_member_then_each_time_then_components(monkeypatch):
    calls = _recorded_d_calls(monkeypatch)
    report = audit(_expanding_law(), BlochHamiltonian((2, 2)),
                   AuditConfig(seed=3, ensemble_size=2, fit_probes=0))
    grid = DEFAULT_TIMES
    channels = (("d_remote_state", 3), ("d_correlations", 9), ("d_remote_observable", None))
    # per channel: one batch over both members fails; member 0 (failing at
    # t = 1) then makes one batch, one rerun per time with every component
    # and one rerun per component at t = 1 only; member 1 makes one batch
    expected = [
        call
        for name, count in channels
        for call in [(name, 2, grid, count), (name, 1, grid, count),
                     *[(name, 1, (t,), count) for t in grid],
                     *[(name, 1, (1.0,), 1)] * (count or 0), (name, 1, grid, count)]
    ]
    assert calls == expected
    assert len(expected) == 3 + 24 + 3  # per channel 1, then 1 + T + C and 1
    assert {f["member"] for f in report.failures} == {0}


def test_audit_makes_three_d_calls_each_over_every_member(monkeypatch):
    calls = _recorded_d_calls(monkeypatch)
    audit(polesink_law(0.1), BlochHamiltonian((2, 3)), AuditConfig(seed=1, ensemble_size=3))
    grid = DEFAULT_TIMES
    assert calls == [("d_remote_state", 3, grid, 8), ("d_correlations", 3, grid, 24),
                     ("d_remote_observable", 3, grid, None)]


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
    three = observable_from_basis(random_orthonormal_basis(rng, 3), b2)
    computational = computational_observable(3)
    p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    two = observable_from_matrices([p0, np.eye(3) - p0], b2)  # a rank-2 outcome
    pairs = [(product, computational), (generic, three), (generic, two), (product, three)]
    obs1 = observable_from_basis(random_orthonormal_basis(rng, 2), b1)
    law = polesink_law(0.1)
    x = np.stack([pack_coords(joint) for joint, _ in pairs])
    u0, u = _outcome_rows([obs2 for _, obs2 in pairs], 3)
    batched = packed_distributions(x, u0, u, dims, obs1, law, DEFAULT_TIMES,
                                   options=DEFAULT_BRANCH_OPTIONS)
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
        with pytest.raises(DimensionMismatchError, match="remote observables must have dim 2"):
            nosignal_audit.signaling_channel_demo(polesink_law(0.1), joint, *remote, local, 0.5)


@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=lambda law: law.name)
def test_a_local_hamiltonian_of_another_length_is_rejected_for_every_law(law):
    singlet, comp, fourier = singlet_state(), computational_observable(2), fourier_observable(2)
    with pytest.raises(DimensionMismatchError, match="local Hamiltonian must have length 3"):
        local_distribution(singlet, fourier, comp, law, 1.0, h_local=[0.3])
    with pytest.raises(DimensionMismatchError, match="local Hamiltonian must have length 3"):
        nosignal_audit.signaling_channel_demo(law, singlet, comp, fourier, comp, 1.0,
                                              h_local=np.zeros((3, 1)))


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
        d_remote_state(law, h, state, obs2, obs1, times, ks, **fd)
        for state, obs2, obs1, _ in members
    ]
    assert d_correlations(law, h, states, remote, local, times, pairs, **fd) == [
        d_correlations(law, h, state, obs2, obs1, times, pairs, **fd)
        for state, obs2, obs1, _ in members
    ]
    assert d_remote_observable(law, h, states, families, local, times, **fd) == [
        d_remote_observable(law, h, state, family, obs1, times, **fd)
        for state, _, obs1, family in members
    ]


def test_member_batch_forms():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    members = [_member((2, 2), 62 + m) for m in range(2)]
    states, remote, local, families = _columns(members)
    one = d_remote_state(law, h, states, remote, local, 0.5, 1)
    assert len(one) == 2 and all(isinstance(v, float) for v in one)
    assert d_correlations(law, h, states[:1], remote[:1], local[:1], 0.5, (0, 1)) == [
        d_correlations(law, h, states[0], remote[0], local[0], 0.5, (0, 1))
    ]
    assert d_remote_state(law, h, states, remote, local, 0.5, []) == [[], []]
    observable = d_remote_observable(law, h, tuple(states), families, local, (0.5,))
    assert len(observable) == 2 and all(len(v) == 1 for v in observable)
    with pytest.raises(ValueError):
        d_remote_state(law, h, states, remote[:1], local, 0.5, 1)
    with pytest.raises(ValueError, match="at least one member"):
        d_remote_observable(law, h, [], [], [], 0.5)


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
        members = [(c.state, c.obs_remote, c.obs_local)
                   for c in nosignal_audit._ensemble((2, 2), config, rng)]
    h, times, components = BlochHamiltonian((2, 2)), list(DEFAULT_TIMES), [0, 1, 2]

    def call(ms, ts, cs):
        return d_remote_state(law, h, *_columns([members[m] for m in ms]), ts, cs)

    with pytest.raises(error):
        call([0, 1], times, components)
    together = nosignal_audit._outcomes(call, [0, 1], components, times)
    alone = [nosignal_audit._outcomes(call, [m], components, times)[0] for m in (0, 1)]
    assert _described(together) == _described(alone)
    assert any(isinstance(v, error) for per_time in together[0] for v in per_time)
    assert together[1] == d_remote_state(law, h, *members[1], times, components)
