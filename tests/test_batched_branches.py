"""Batched branch propagation: one rk4 trajectory per finite-difference
component, covering both signs, every remote outcome and every audit time.

The references here are the branch-by-branch loop (one one-row solve per
remote outcome, integrated from 0 for each time) and the scalar per-time
``d_*`` calls.  Polesink runs the same arithmetic row by row, so it must
match bit for bit; linear and xi flows multiply a batch by the step matrix
in another order and may differ at round-off.
"""

import math

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
from blochsig.errors import IntegrationFailureError
from blochsig.integrate import IntegratorOptions
from blochsig.measurement import EPS_PROB, observable_from_basis
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
