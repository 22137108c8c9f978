"""A register of false passes: laws that the audit passes though they
signal or leave the state space (ROADMAP items 3, 10, 11, 16, 21 and 24).

Each item's "done when" is one test under a strict xfail whose reason names
the item, so the suite fails when a fix makes it pass and the marker must
go (item 24's waits for that item, which decides the audit's API for a
composite party).  The half of each blind spot that holds today is asserted
unmarked.
Every audit here runs on ``random_hamiltonian(default_rng(5), dims,
scale=1.0)``.
"""

import numpy as np
import pytest

from blochsig.bloch import joint_to_bloch
from blochsig.dynamics import evolve, linear_law, random_hamiltonian, xi_law
from blochsig.nosignal_audit import VERDICT_SIGNALING, AuditConfig, audit
from blochsig.sampling import random_pure_density, singlet_density
from blochsig.su_basis import cached_basis

from helpers import (
    ancilla_trace_distance,
    connected_drift_law,
    corr_drift_law,
    corr_drift_mirror_law,
    hidden_law,
    qutrit_sink_law,
    tilted_xi,
)

SMALL = AuditConfig(ensemble_size=8, seed=1)


def _hamiltonian(dims):
    return random_hamiltonian(np.random.default_rng(5), dims, scale=1.0)


def _channel_max(report):
    return max(report.max_d_remote_state, report.max_d_correlations,
               report.max_d_remote_observable)


def _unmeasured_mean(law, hamiltonian, rho, basis, t, measured=2):
    """The other party's mean Bloch vector at ``t`` after party ``measured``
    measures in the columns of ``basis`` and each branch evolves under the
    law's joint field, with the interaction off as in the audit's window."""
    n1, n2 = hamiltonian.dims
    free, mean = hamiltonian.interaction_free(), 0.0
    for v in basis.T:
        projector = np.outer(v, v.conj())
        big = np.kron(np.eye(n1), projector) if measured == 2 else np.kron(projector, np.eye(n2))
        branch = big @ rho @ big
        p = np.trace(branch).real
        state = joint_to_bloch(branch / p, cached_basis(n1), cached_basis(n2))
        end = evolve(law, free, state, t).state
        mean = mean + p * (end.r1 if measured == 2 else end.r2)
    return mean


def _fourier(n):
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


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
        z, x = (_unmeasured_mean(law, h, rho, basis, 1.0) for basis in bases)
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
# Item 16: the audit's remote choices are complete measurements alone


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 16")
def test_a_drift_of_the_connected_correlations_is_flagged():
    for dims in ((2, 2), (2, 3)):
        report = audit(connected_drift_law(), _hamiltonian(dims), SMALL)
        assert report.verdict == VERDICT_SIGNALING, dims


def test_the_connected_drift_signals_to_a_choice_not_to_measure():
    # left unmeasured, the singlet (r12 = -I) drifts party 1 by 0.3 tanh(3)
    # along x; each branch of party 2's z measurement is a product and stays
    h, rho = _hamiltonian((2, 2)), singlet_density()
    qubit = cached_basis(2)

    def delta(law):
        """The total variation of party 1's x outcomes, half its x gap."""
        nothing = evolve(law, h.interaction_free(), joint_to_bloch(rho, qubit, qubit), 1.0)
        z = _unmeasured_mean(law, h, rho, np.eye(2), 1.0)
        return 0.5 * abs(nothing.state.r1[0] - z[0])

    assert delta(connected_drift_law()) >= 0.1
    assert delta(linear_law()) <= 1e-8


# ---------------------------------------------------------------------------
# Item 21: the audit reads party 1's statistics only


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 21")
def test_a_drift_on_party_2_alone_is_flagged():
    assert audit(qutrit_sink_law(), _hamiltonian((2, 3)), SMALL).verdict == VERDICT_SIGNALING


def test_a_drift_on_party_1_is_flagged():
    report = audit(qutrit_sink_law(), _hamiltonian((3, 2)), SMALL)
    assert report.verdict == VERDICT_SIGNALING
    assert report.max_d_correlations > 0.01


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 21 (after item 3)")
def test_the_mirror_of_the_correlation_drift_is_flagged():
    for dims in ((2, 2), (2, 3), (3, 2)):
        report = audit(corr_drift_mirror_law(), _hamiltonian(dims), SMALL)
        assert report.verdict == VERDICT_SIGNALING, dims


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_the_mirror_of_the_correlation_drift_signals_to_party_2(dims):
    # party 1 measures z or Fourier on a pure state; only the mirror moves
    # party 2's average with that choice
    h = _hamiltonian(dims)
    rho = random_pure_density(np.random.default_rng(0), dims[0] * dims[1])
    bases = np.eye(dims[0]), _fourier(dims[0])

    def gap(law):
        z, f = (_unmeasured_mean(law, h, rho, basis, 1.0, measured=1) for basis in bases)
        return np.max(np.abs(z - f))

    assert gap(corr_drift_mirror_law()) > 1e-3
    assert gap(linear_law()) <= 1e-8


# ---------------------------------------------------------------------------
# Item 24: the audit splits the world into two parties, one of them measured


@pytest.mark.parametrize("preset", ["corrnorm", "purity1"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_interacting_pair_under_a_xi_law_signals_to_a_remote_ancilla(preset, seed):
    """Lab B's choice of basis moves lab A's mixture.  The strict xfail of
    the audit that should see this waits for item 24, whose PR decides the
    composite audit's API."""
    assert ancilla_trace_distance(xi_law(preset), seed) >= 0.05


@pytest.mark.parametrize("law, interaction", [
    (linear_law(), True), (xi_law("corrnorm"), False), (xi_law("purity1"), False),
], ids=["linear", "corrnorm-h12-0", "purity1-h12-0"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_linear_or_non_interacting_pair_does_not_signal_to_the_ancilla(law, interaction, seed):
    assert ancilla_trace_distance(law, seed, interaction=interaction) <= 1e-7
