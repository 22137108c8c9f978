"""A register of false passes: laws that the audit passes though they
signal or leave the state space (ROADMAP items 3, 10, 11 and 21).

Each item's "done when" is one test under a strict xfail whose reason names
the item, so the suite fails when a fix makes it pass and the marker must
go.  The half of each blind spot that holds today is asserted unmarked.
Every audit here runs on ``random_hamiltonian(default_rng(5), dims,
scale=1.0)``.
"""

import numpy as np
import pytest

from blochsig.bloch import joint_to_bloch
from blochsig.dynamics import evolve, linear_law, random_hamiltonian, xi_law
from blochsig.nosignal_audit import VERDICT_SIGNALING, AuditConfig, audit
from blochsig.sampling import random_pure_density
from blochsig.su_basis import cached_basis

from helpers import corr_drift_law, hidden_law, qutrit_sink_law, tilted_xi

SMALL = AuditConfig(ensemble_size=8, seed=1)


def _hamiltonian(dims):
    return random_hamiltonian(np.random.default_rng(5), dims, scale=1.0)


def _channel_max(report):
    return max(report.max_d_remote_state, report.max_d_correlations,
               report.max_d_remote_observable)


def _party_one_mean(law, hamiltonian, rho, basis, t):
    """Party 1's mean ``r1`` at ``t`` after party 2 measures in the columns
    of ``basis`` and each branch evolves under the law's joint field, with
    the interaction off as in the audit's window."""
    n1, n2 = hamiltonian.dims
    free, mean = hamiltonian.interaction_free(), 0.0
    for v in basis.T:
        big = np.kron(np.eye(n1), np.outer(v, v.conj()))
        branch = big @ rho @ big
        p = np.trace(branch).real
        state = joint_to_bloch(branch / p, cached_basis(n1), cached_basis(n2))
        mean = mean + p * evolve(law, free, state, t).state.r1
    return mean


# ---------------------------------------------------------------------------
# Item 3: the audit reads the declared reduced field, never the joint one


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
def test_a_law_that_signals_through_the_correlations_is_flagged():
    assert audit(corr_drift_law(), _hamiltonian((2, 2)), SMALL).verdict == VERDICT_SIGNALING


def test_the_correlation_drift_signals_under_its_joint_field():
    # party 2 measures z or x on a pure entangled state; only the nonlinear
    # joint law moves party 1's average with that choice
    h, rho = _hamiltonian((2, 2)), random_pure_density(np.random.default_rng(0), 4)
    bases = np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

    def gap(law):
        z, x = (_party_one_mean(law, h, rho, basis, 1.0) for basis in bases)
        return np.max(np.abs(z - x))

    assert gap(corr_drift_law()) > 1e-4
    assert gap(linear_law()) <= 1e-8


# ---------------------------------------------------------------------------
# Item 10: no member lies where a drift switched on near the pure states acts


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10")
def test_a_drift_near_the_pure_states_is_flagged_by_a_channel():
    law = hidden_law(0.98)
    for dims in ((2, 2), (2, 3)):
        for seed in range(5):
            report = audit(law, _hamiltonian(dims), AuditConfig(seed=seed))
            assert _channel_max(report) > report.config.pass_tolerance, (dims, seed)


def test_a_drift_near_the_pure_states_is_flagged_at_seed_0_by_linearity_alone():
    report = audit(hidden_law(0.98), _hamiltonian((2, 2)), AuditConfig(seed=0))
    assert report.verdict == VERDICT_SIGNALING
    assert report.linearity_residual > report.config.pass_tolerance
    assert _channel_max(report) <= report.config.pass_tolerance


# ---------------------------------------------------------------------------
# Item 11: no audit asks whether the joint law keeps states states


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 11")
def test_a_law_that_leaves_the_state_space_is_reported_inadmissible():
    report = audit(xi_law(tilted_xi()), _hamiltonian((2, 2)), SMALL).to_dict()
    assert report.get("admissibility", {}).get("admissible") is False


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_per_term_weights_drive_a_pure_state_out_of_the_state_space(dims):
    h = random_hamiltonian(np.random.default_rng(2), dims, scale=1.0)
    rho = random_pure_density(np.random.default_rng(3), dims[0] * dims[1])
    state = joint_to_bloch(rho, *map(cached_basis, dims))
    assert evolve(xi_law(tilted_xi()), h, state, 0.5).min_eigenvalue < -0.1
    assert evolve(linear_law(), h, state, 0.5).min_eigenvalue > -1e-6  # the integrator's share


# ---------------------------------------------------------------------------
# Item 21: the audit reads party 1's statistics only


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 21")
def test_a_drift_on_party_2_alone_is_flagged():
    assert audit(qutrit_sink_law(), _hamiltonian((2, 3)), SMALL).verdict == VERDICT_SIGNALING


def test_a_drift_on_party_1_is_flagged():
    report = audit(qutrit_sink_law(), _hamiltonian((3, 2)), SMALL)
    assert report.verdict == VERDICT_SIGNALING
    assert report.max_d_correlations > 0.01
