"""Batched branch propagation: one rk4 trajectory per finite-difference
component, covering both signs, every remote outcome and every audit time.

The references here are the branch-by-branch loop (one one-row solve per
remote outcome, integrated from 0 for each time) and the scalar per-time
``d_*`` calls.  Polesink runs the same arithmetic row by row, so it must
match bit for bit; linear and xi flows multiply a batch by the step matrix
in another order and may differ at round-off.
"""

import math
from functools import partial

import numpy as np
import pytest

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
from blochsig.bloch import joint_to_bloch
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
    local_distributions,
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
from blochsig.sampling import (
    random_density,
    random_hermitian_direction,
    random_interior_joint,
    random_orthonormal_basis,
)
from blochsig.su_basis import cached_basis

DEFAULT_TIMES = (0.25, 0.5, 1.0)
NON_NESTING_TIMES = (0.3, 0.7)
FD_STEP = 1e-5


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


def _branchwise_distribution(joint, obs2, obs1, law, t):
    """Party 1's distribution from one one-row solve per remote outcome."""
    h_local = np.zeros(joint.dims[0] ** 2 - 1)
    branches = []
    for proj in obs2.outcomes:
        p = proj.u0 + float(proj.u @ joint.r2)
        if p <= EPS_PROB:
            continue
        r = (proj.u0 * joint.r1 + joint.r12 @ proj.u) / p
        field = lambda y: law.reduced_field_fn(h_local, y)  # noqa: E731
        branches.append((p, integrate.solve(field, r, t, DEFAULT_BRANCH_OPTIONS)))
    out = np.zeros(len(obs1.outcomes))
    for idx, proj in enumerate(obs1.outcomes):
        total = 0.0
        for p, r in branches:
            total += p * (proj.u0 + float(proj.u @ r))
        out[idx] = total
    return out


def _branchwise_remote_state(law, member, t, k):
    state, obs2, obs1, _ = member
    pair = []
    for delta in (+FD_STEP, -FD_STEP):
        r2 = state.r2.copy()
        r2[k] += delta
        pair.append(_branchwise_distribution(state.replace(r2=r2), obs2, obs1, law, t))
    return float(np.max(np.abs(pair[0] - pair[1])) / (2.0 * FD_STEP))


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


def test_nesting_and_non_nesting_times_take_their_own_routes():
    rk4 = DEFAULT_BRANCH_OPTIONS
    assert integrate.rk4_spans(list(DEFAULT_TIMES), rk4) == [0.25, 0.25, 0.5]
    assert integrate.rk4_spans([0.0, 0.5, 0.5], rk4) == [0.0, 0.5, 0.0]
    assert integrate.rk4_spans(list(NON_NESTING_TIMES), rk4) is None
    with pytest.raises(IntegrationFailureError, match="max_steps=60"):
        integrate.rk4_spans([0.25, 1.0], IntegratorOptions(method="rk4", max_steps=60))


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


def _expanding_law():
    # r grows as exp(0.2 t) and turns NaN past norm 0.97: branches collapsed
    # to norm 0.8 stay finite at t = 0.5 and fail before t = 1.
    def field(h_local, r):
        r = np.asarray(r, dtype=float)
        return np.where(np.linalg.norm(r, axis=-1, keepdims=True) > 0.97, np.nan, 0.2 * r)

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
# One batched propagation per member and channel: every component of a
# channel in one ``d_*`` call.


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


def _rank_three_member():
    """A 2x2 state with the product vector |00> in its kernel: r2[2] and
    r12[2,2] are infeasible directions, every other component is not."""
    b = cached_basis(2)
    state = joint_to_bloch((np.eye(4) - np.diag([1.0, 0.0, 0.0, 0.0])) / 3.0, b, b)
    rng = np.random.default_rng(54)
    obs2 = observable_from_basis(random_orthonormal_basis(rng, 2), b)
    obs1 = observable_from_basis(random_orthonormal_basis(rng, 2), b)
    return state, obs2, obs1


def test_one_infeasible_component_sends_the_channel_to_per_component_calls():
    law, h = polesink_law(0.1), BlochHamiltonian((2, 2))
    state, obs2, obs1 = _rank_three_member()
    with pytest.raises(PerturbationInfeasibleError, match=r"r2\[2\]"):
        d_remote_state(law, h, state, obs2, obs1, DEFAULT_TIMES, [0, 1, 2])
    call = partial(d_remote_state, law, h, state, obs2, obs1)
    outcomes = nosignal_audit._outcomes(call, [0, 1, 2], list(DEFAULT_TIMES))
    assert outcomes[:2] == [call(list(DEFAULT_TIMES), k) for k in (0, 1)]
    assert all(isinstance(e, PerturbationInfeasibleError) for e in outcomes[2])


def _per_component_audit(monkeypatch, law, h, config):
    """The audit with every component in its own ``d_*`` call."""
    outcomes = nosignal_audit._outcomes

    def one_by_one(call, components, times):
        return [outcomes(call, [c], times)[0] for c in components]

    with monkeypatch.context() as m:
        m.setattr(nosignal_audit, "_outcomes", one_by_one)
        return audit(law, h, config)


def test_pure_singlet_audit_with_infeasible_components_equals_per_component_audit(monkeypatch):
    h = BlochHamiltonian((2, 2), h1=[0.1, 0.0, 0.5], h2=[0.0, 0.2, 0.3], h12=0.3 * np.eye(3))
    config = AuditConfig(seed=0, ensemble_size=2, mix_weight=0.0)
    report = audit(linear_law(), h, config)
    reference = _per_component_audit(monkeypatch, linear_law(), h, config)
    assert len(report.infeasible) == 36  # every state component of the singlet
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



def test_integration_failure_reruns_each_time_then_components_at_a_failing_time(monkeypatch):
    calls = []  # (channel, times, component count or None for the observable)
    for name in ("d_remote_state", "d_correlations", "d_remote_observable"):
        original = getattr(nosignal_audit, name)

        def recorded(*args, _name=name, _fn=original, **kwargs):
            calls.append((_name, tuple(args[5]), len(args[6]) if len(args) > 6 else None))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(nosignal_audit, name, recorded)
    report = audit(_expanding_law(), BlochHamiltonian((2, 2)),
                   AuditConfig(seed=3, ensemble_size=2, fit_probes=0))
    grid = DEFAULT_TIMES
    channels = (("d_remote_state", 3), ("d_correlations", 9), ("d_remote_observable", None))
    # member 0 fails at t = 1 on every channel: one batch, one rerun per time
    # with every component, then one rerun per component at t = 1 only
    failing = [
        call
        for name, count in channels
        for call in [(name, grid, count), *[(name, (t,), count) for t in grid],
                     *[(name, (1.0,), 1)] * (count or 0)]
    ]
    passing = [(name, grid, count) for name, count in channels]
    assert calls == failing + passing
    assert len(failing) == 24  # 1 + T + C per channel; splitting components first made 54
    assert {f["member"] for f in report.failures} == {0}


def test_audit_makes_three_d_calls_per_member(monkeypatch):
    calls = []
    for name in ("d_remote_state", "d_correlations", "d_remote_observable"):
        original = getattr(nosignal_audit, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(nosignal_audit, name, counted)
    audit(polesink_law(0.1), BlochHamiltonian((2, 3)), AuditConfig(seed=1, ensemble_size=3))
    assert calls == ["d_remote_state", "d_correlations", "d_remote_observable"] * 3


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
    batched = local_distributions(pairs, obs1, law, DEFAULT_TIMES, options=DEFAULT_BRANCH_OPTIONS)
    assert batched.shape == (len(DEFAULT_TIMES), len(pairs), 2)
    assert np.array_equal(batched, _scalar_loop_distributions(pairs, obs1, law, DEFAULT_TIMES))
    # the channel demo is the two-pair case at one time
    delta, (pa, pb) = nosignal_audit.signaling_channel_demo(
        law, generic, three, two, obs1, 0.5
    )
    expected = _scalar_loop_distributions([(generic, three), (generic, two)], obs1, law, [0.5])
    assert np.array_equal(pa, expected[0, 0]) and np.array_equal(pb, expected[0, 1])
    assert delta == 0.5 * float(np.sum(np.abs(expected[0, 0] - expected[0, 1])))


def test_local_distributions_rejects_pairs_of_different_dims():
    rng = np.random.default_rng(56)
    a = (random_interior_joint(rng, (2, 2)), computational_observable(2))
    b = (random_interior_joint(rng, (2, 3)), computational_observable(3))
    with pytest.raises(DimensionMismatchError, match="every pair"):
        local_distributions([a, b], computational_observable(2), polesink_law(0.1), [0.5])
