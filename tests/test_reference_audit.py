"""The audit's channels against ``helpers.reference_audit``, an audit built
on density matrices alone: complex steps taken in matrix space, Lüders
collapse by projector matrices and party 1 evolved by a stepper of its own.

Every component of ``d_remote_state``, ``d_correlations`` and
``d_remote_observable`` must match it to 1e-12, with the same infeasible
and failure statuses; the audit's report must be the one the reference's
outcomes give.  Nothing here reads a private name of the library.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsig.bloch import JointBlochState, joint_to_bloch
from blochsig.dynamics import BlochHamiltonian, linear_law, random_hamiltonian, xi_law
from blochsig.integrate import IntegratorOptions
from blochsig.measurement import computational_observable, observable_from_basis
from blochsig.nosignal_audit import DEFAULT_BRANCH_OPTIONS, AuditConfig, audit, polesink_law
from blochsig.sampling import interior_joint_state, random_density, random_pure_density
from blochsig.su_basis import cached_basis

from helpers import (
    CHANNELS,
    STATUS,
    assert_outcomes_match,
    channel_outcomes,
    expanding_law,
    reference_audit,
    reference_direction,
    reference_ensemble,
    reference_haar_unitary,
    reference_report,
)


def _distinct_audits(paths):
    """The first of ``paths`` (golden audit files) for each distinct audit:
    files whose configs differ only in their channel demo run one audit."""
    first = {}
    for path in paths:
        config = json.loads(path.read_text())["config"]
        config.pop("channel_demo", None)
        first.setdefault(json.dumps(config, sort_keys=True), path)
    return list(first.values())


GOLDEN = _distinct_audits(
    sorted((Path(__file__).resolve().parent / "golden").glob("audit_*.json")))
RKF45 = IntegratorOptions(method="rkf45")


def _audit_members(dims, config):
    """The audit's members, drawn as the audit draws them."""
    s_members, _ = np.random.SeedSequence(config.seed).spawn(2)
    return reference_ensemble(dims, config, np.random.default_rng(s_members))


def _labels(dims):
    d1, d2 = dims[0] ** 2 - 1, dims[1] ** 2 - 1
    return ([str(k) for k in range(d2)], [f"{i},{j}" for i in range(d1) for j in range(d2)],
            ["theta"])


def _as_runs(outcomes, members, times, dims):
    """The outcomes of the first ``members`` as the audit's runs (per channel,
    ``[member][component][time]``), each status an error of its kind."""
    errors = {status: kind(status) for kind, status in STATUS.items()}
    return [[[[errors.get(outcomes[m, t, channel, label], outcomes[m, t, channel, label])
               for t in times] for label in labels] for m in range(members)]
            for channel, labels in zip(CHANNELS, _labels(dims))]


def _assert_report_is_the_reference_one(report, outcomes, config):
    """The report's cases, residuals, infeasible and failed components are
    those the reference outcomes of its members give (a case's component
    label picks among values at rounding level on a linear law, so it is
    not compared)."""
    runs = _as_runs(outcomes, config.ensemble_size, sorted(set(config.times)), report.dims)
    expected = reference_report(runs, config.times, _labels(report.dims),
                                report.linearity_residual)

    def where(entries):
        return [{k: v for k, v in e.items() if k != "reason"} for e in entries]

    assert where(report.infeasible) == where(expected["infeasible"])
    assert where(report.failures) == where(expected["failures"])
    assert len(report.cases) == len(expected["cases"])
    for row, want in zip(report.cases, expected["cases"]):
        assert [row[k] for k in ("member", "time", "channel", "status")] == [
            want[k] for k in ("member", "time", "channel", "status")]
        np.testing.assert_allclose(row["value"], want["value"], rtol=0, atol=1e-12)
    for channel in CHANNELS:
        assert abs(report.residuals()[channel] - expected["residuals"][channel]) <= 1e-12


def _golden_audit(path):
    """The law, Hamiltonian and audit config of a golden audit case."""
    cfg = json.loads(path.read_text())["config"]
    dims, law = tuple(cfg["dims"]), cfg["law"]
    law = {"linear": linear_law, "xi": lambda: xi_law(law.get("preset")),
           "polesink": lambda: polesink_law(law.get("epsilon"))}[law["name"]]()
    h = BlochHamiltonian(dims, **{k.lower(): v for k, v in cfg.get("hamiltonian", {}).items()})
    knobs = dict(cfg["audit"])
    options = replace(DEFAULT_BRANCH_OPTIONS, **knobs.pop("integrator", {}))
    return law, h, AuditConfig(**knobs, branch_options=options)


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_every_golden_audit_is_the_reference_audit(path):
    law, h, config = _golden_audit(path)
    members = _audit_members(h.dims, config)
    times = sorted(set(config.times))
    outcomes = reference_audit(law, h, members, times, config.branch_options)
    assert_outcomes_match(channel_outcomes(law, h, members, times, config.branch_options),
                          outcomes)
    _assert_report_is_the_reference_one(audit(law, h, config), outcomes, config)


@pytest.mark.parametrize("options", [DEFAULT_BRANCH_OPTIONS, RKF45], ids=["rk4", "rkf45"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=lambda d: "%dx%d" % d)
@pytest.mark.parametrize("law", [linear_law(), xi_law("corrnorm"), polesink_law(0.1)],
                         ids=lambda law: law.name)
def test_seeded_eight_member_channels_are_the_reference_audit(law, dims, options):
    h = random_hamiltonian(np.random.default_rng(5), dims, scale=1.0)
    config = AuditConfig(ensemble_size=8, seed=1, branch_options=options)
    members = _audit_members(dims, config)
    outcomes = reference_audit(law, h, members, config.times, options)
    assert_outcomes_match(channel_outcomes(law, h, members, config.times, options), outcomes)
    if law.xi is None:  # polesink signals on every channel
        assert all(max(v for (_, _, ch, _), v in outcomes.items() if ch == channel) > 1e-3
                   for channel in CHANNELS)


def _random_member(rng, dims, pure):
    """A pure (vector) or mixed (Hilbert-Schmidt) member with Haar remote
    and local bases and a random rotation direction."""
    n1, n2 = dims
    rho = random_pure_density(rng, n1 * n2) if pure else random_density(rng, n1 * n2)
    remote = observable_from_basis(reference_haar_unitary(rng, n2).T, cached_basis(n2))
    local = observable_from_basis(reference_haar_unitary(rng, n1).T, cached_basis(n1))
    return interior_joint_state(rho, dims, 0.0), remote, local, reference_direction(rng, n2)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       law=st.sampled_from([linear_law(), polesink_law(0.1)]),
       pure=st.lists(st.booleans(), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_random_mixed_and_pure_members_are_the_reference_audit(dims, law, pure, seed):
    rng = np.random.default_rng(seed)
    members = [_random_member(rng, dims, p) for p in pure]
    h = random_hamiltonian(rng, dims, scale=0.6)
    times = (0.25, 0.5, 1.0)
    assert_outcomes_match(channel_outcomes(law, h, members, times),
                          reference_audit(law, h, members, times))


def _zero_weight_member(dims=(2, 2), seed=54):
    """|0><0| x |0><0| measured computationally on party 2 (outcomes 1.. of
    weight 0), with a Haar local basis and a random rotation direction."""
    rng = np.random.default_rng(seed)
    b1, b2 = cached_basis(dims[0]), cached_basis(dims[1])
    ket = np.zeros(dims[0] * dims[1])
    ket[0] = 1.0
    state = joint_to_bloch(np.outer(ket, ket), b1, b2)
    local = observable_from_basis(reference_haar_unitary(rng, dims[0]).T, b1)
    return state, computational_observable(dims[1]), local, reference_direction(rng, dims[1])


@pytest.mark.parametrize("options", [DEFAULT_BRANCH_OPTIONS, RKF45], ids=["rk4", "rkf45"])
@pytest.mark.parametrize("law", [linear_law(), polesink_law(0.1)], ids=lambda law: law.name)
def test_zero_weight_branches_are_infeasible_exactly_where_the_reference_says(law, options):
    # r2[2] moves the weight of the dropped outcome 1, r12[i,2] its
    # collapsed state; every other component, and the rotation, is two-sided
    h = BlochHamiltonian((2, 2), h1=[0.1, 0.0, 0.5], h2=[0.0, 0.2, 0.3], h12=0.3 * np.eye(3))
    config = AuditConfig(seed=0, ensemble_size=2, mix_weight=0.0)
    members = [_zero_weight_member(), _audit_members((2, 2), config)[1]]
    outcomes = reference_audit(law, h, members, config.times, options)
    assert_outcomes_match(channel_outcomes(law, h, members, config.times, options), outcomes)
    assert sorted({(ch, label) for (m, _, ch, label), v in outcomes.items()
                   if v == "infeasible"}) == [("d_correlations", f"{i},2") for i in range(3)] + [
        ("d_remote_state", "2")]
    assert {m for (m, *_), v in outcomes.items() if isinstance(v, str)} == {0}



@pytest.mark.parametrize("options", [DEFAULT_BRANCH_OPTIONS, RKF45], ids=["rk4", "rkf45"])
def test_late_integration_failures_are_where_the_reference_fails(options):
    # under the expanding law the anchor of this ensemble fails at t = 1, a
    # product state with |r1| = 0.9 from t = 0.5 on, and a pure product
    # state at every time, but in its infeasible rows
    law, h = expanding_law(), BlochHamiltonian((2, 2))
    config = AuditConfig(seed=3, ensemble_size=2)
    r1 = JointBlochState((2, 2), [0.0, 0.0, 0.9], np.zeros(3), np.zeros((3, 3)))
    _, remote, local, direction = _audit_members((2, 2), config)[1]
    members = [*_audit_members((2, 2), config), (r1, remote, local, direction),
               _zero_weight_member()]
    outcomes = reference_audit(law, h, members, config.times, options)
    assert_outcomes_match(channel_outcomes(law, h, members, config.times, options), outcomes)
    failed = {(m, t) for (m, t, *_), v in outcomes.items() if v == "integration-failure"}
    assert failed == {(0, 1.0), (2, 0.5), (2, 1.0), (3, 0.25), (3, 0.5), (3, 1.0)}
    assert {m for (m, *_), v in outcomes.items() if v == "infeasible"} == {3}
    # the audit of the first two members reports those failures
    config = replace(config, fit_probes=0, branch_options=options)
    _assert_report_is_the_reference_one(audit(law, h, config), outcomes, config)
