"""Complex-step sensitivities, the ensemble audit, and the channel demo."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsig.bloch import joint_to_bloch, to_bloch
from blochsig.dynamics import (
    BlochHamiltonian,
    custom_law,
    evolve,
    linear_law,
    random_hamiltonian,
    reduced_flow,
    reduced_propagator_fit,
    xi_law,
)
from blochsig.errors import IntegrationFailureError, PerturbationInfeasibleError
from blochsig.integrate import DEFAULT_OPTIONS, IntegratorOptions
from blochsig.jsonio import dumps
from blochsig.measurement import computational_observable, fourier_observable, rotate_observable
from blochsig import nosignal_audit
from blochsig.nosignal_audit import (
    AuditConfig,
    ObservableFamily,
    audit,
    d_correlations,
    d_remote_observable,
    d_remote_state,
    polesink_law,
    signaling_channel_demo,
)
from blochsig.sampling import (
    interior_joint_state,
    random_density,
    random_interior_joint,
    singlet_density,
    singlet_state,
)
from blochsig.su_basis import cached_basis

from helpers import (
    amplitude_damping_law,
    assert_outcomes_match,
    channel_outcomes,
    gksl_coordinate_field,
    reference_audit,
    reference_report,
)


def _y_anchor_family(anchor_angle=math.pi / 4.0):
    direction = 0.5 * cached_basis(2).matrices[1]
    base = rotate_observable(computational_observable(2), direction, anchor_angle)
    return ObservableFamily(base, direction)


# ---------------------------------------------------------------------------
# Positive-control law


def test_polesink_axis_flow_is_logistic():
    law = polesink_law(0.1)
    for z0 in (-0.6, 0.0, 0.4):
        out = reduced_flow(law, None, 2).sample([0.0, 0.0, z0], [1.0], DEFAULT_OPTIONS)[0]
        expected = math.tanh(0.1 * 1.0 + math.atanh(z0))
        assert out[2] == pytest.approx(expected, abs=1e-9)
        assert abs(out[0]) <= 1e-12 and abs(out[1]) <= 1e-12


def test_polesink_preserves_the_unit_sphere():
    law = polesink_law(0.2)
    r0 = np.array([0.8, 0.36, math.sqrt(1 - 0.8**2 - 0.36**2)])
    fine = IntegratorOptions(method="rk4", step=0.001)
    out = reduced_flow(law, None, 2).sample(r0, [2.0], fine)[0]
    assert float(out @ out) == pytest.approx(1.0, abs=1e-9)


def test_polesink_poles_are_fixed_points():
    law = polesink_law(0.1)
    for sign in (+1.0, -1.0):
        out = reduced_flow(law, None, 2).sample([0.0, 0.0, sign], [1.5], DEFAULT_OPTIONS)[0]
        np.testing.assert_allclose(out, [0.0, 0.0, sign], atol=1e-12)


# ---------------------------------------------------------------------------
# Negative control: an affine local map


def test_amplitude_damping_field_is_the_gksl_generator():
    jump = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|
    rng = np.random.default_rng(70)
    rows = np.stack([to_bloch(random_density(rng, 2), cached_basis(2)).r for _ in range(6)])
    field = amplitude_damping_law(0.3).reduced_field_fn(None, rows)
    expected = np.stack([gksl_coordinate_field([jump], 0.3, r) for r in rows])
    np.testing.assert_allclose(field, expected, rtol=0.0, atol=1e-12)


def test_amplitude_damping_fit_is_affine():
    gamma, t = 0.3, 1.0
    a, residual = reduced_propagator_fit(amplitude_damping_law(gamma), BlochHamiltonian((2, 2)))
    assert residual <= 1e-12
    decay = np.exp(-gamma * t * np.array([0.5, 0.5, 1.0]))
    np.testing.assert_allclose(a, np.diag(decay), rtol=0.0, atol=1e-9)


def test_amplitude_damping_passes_the_audit():
    report = audit(
        amplitude_damping_law(0.3), BlochHamiltonian((2, 2)), AuditConfig(ensemble_size=6, seed=3)
    )
    assert report.passed and not report.failures
    assert report.linearity_residual <= 1e-12
    assert max(report.residuals().values()) <= 1e-9


# ---------------------------------------------------------------------------
# Channel demo


def test_channel_demo_linear_singlet_is_silent():
    delta, (pa, pb) = signaling_channel_demo(
        linear_law(), singlet_state(),
        computational_observable(2), fourier_observable(2), computational_observable(2),
        t=1.0, hamiltonian=BlochHamiltonian((2, 2), h1=[0.2, -0.4, 0.6]),
    )
    assert delta <= 1e-9
    np.testing.assert_allclose(pa, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(pb, [0.5, 0.5], atol=1e-9)


def test_channel_demo_any_law_silent_at_t0():
    rng = np.random.default_rng(1)
    state = random_interior_joint(rng, (2, 2))
    for law in (linear_law(), xi_law("corrnorm"), polesink_law(0.3)):
        delta, _ = signaling_channel_demo(
            law, state, computational_observable(2), fourier_observable(2),
            computational_observable(2), t=0.0,
        )
        assert delta <= 1e-12


def test_channel_demo_polesink_closed_form():
    delta, _ = signaling_channel_demo(
        polesink_law(0.1), singlet_state(),
        computational_observable(2), fourier_observable(2), computational_observable(2),
        t=1.0,
    )
    assert delta == pytest.approx(math.tanh(0.1) / 2.0, abs=1e-4)


# ---------------------------------------------------------------------------
# Complex-step sensitivities


def test_remote_state_sensitivity_linear_law_vanishes():
    rng = np.random.default_rng(2)
    h = random_hamiltonian(rng, (2, 2), scale=0.6)
    state = random_interior_joint(rng, (2, 2))
    for k in range(3):
        [[[value]]] = d_remote_state(
            linear_law(), h, [state],
            [computational_observable(2)], [fourier_observable(2)], [1.0], [k],
        )
        assert value <= 1e-6


def test_all_sensitivities_vanish_at_t0_for_any_law():
    rng = np.random.default_rng(3)
    h = random_hamiltonian(rng, (2, 2), scale=0.6)
    state = random_interior_joint(rng, (2, 2))
    family = _y_anchor_family()
    local = [computational_observable(2)]
    for law in (linear_law(), xi_law("corrnorm"), polesink_law(0.1)):
        h_use = h if law.xi is not None else BlochHamiltonian((2, 2))
        [[[value]]] = d_remote_state(law, h_use, [state], [family.base], local, [0.0], [2])
        assert value <= 1e-10
        [[[value]]] = d_correlations(law, h_use, [state], [family.base], local, [0.0], [(2, 2)])
        assert value <= 1e-10
        [[[value]]] = d_remote_observable(law, h_use, [state], [family], local, [0.0])
        assert value <= 1e-10


def test_remote_state_sensitivity_flags_polesink():
    state = interior_joint_state(singlet_density(), (2, 2), 0.2)
    [[[value]]] = d_remote_state(
        polesink_law(0.1), BlochHamiltonian((2, 2)), [state],
        [computational_observable(2)], [computational_observable(2)], [1.0], [2],
    )
    assert value > 1e-3


def test_correlation_sensitivity_linear_law_vanishes():
    rng = np.random.default_rng(4)
    h = random_hamiltonian(rng, (2, 2), scale=0.6)
    state = random_interior_joint(rng, (2, 2))
    values = [
        d_correlations(
            linear_law(), h, [state],
            [computational_observable(2)], [fourier_observable(2)], [1.0], [(i, j)],
        )[0][0][0]
        for i in range(3)
        for j in range(3)
    ]
    assert max(values) <= 1e-6


def test_correlation_sensitivity_product_state_weighted_law():
    rng = np.random.default_rng(5)
    b = cached_basis(2)
    from blochsig.sampling import random_density

    rho = np.kron(random_density(rng, 2), random_density(rng, 2))
    state = joint_to_bloch(0.8 * rho + 0.2 * np.eye(4) / 4.0, b, b)
    h = random_hamiltonian(rng, (2, 2), interaction=False)
    values = [
        d_correlations(
            xi_law("corrnorm"), h, [state],
            [computational_observable(2)], [fourier_observable(2)], [1.0], [(i, j)],
        )[0][0][0]
        for i in range(3)
        for j in range(3)
    ]
    assert max(values) <= 1e-8


def test_correlation_sensitivity_flags_polesink():
    state = interior_joint_state(singlet_density(), (2, 2), 0.2)
    [[[value]]] = d_correlations(
        polesink_law(0.1), BlochHamiltonian((2, 2)), [state],
        [computational_observable(2)], [computational_observable(2)], [1.0], [(2, 2)],
    )
    assert value > 1e-3


def test_observable_sensitivity_linear_law_vanishes():
    rng = np.random.default_rng(6)
    h = random_hamiltonian(rng, (2, 2), scale=0.6)
    state = random_interior_joint(rng, (2, 2))
    [[[value]]] = d_remote_observable(
        linear_law(), h, [state], [_y_anchor_family()], [fourier_observable(2)], [1.0]
    )
    assert value <= 1e-6


def test_observable_sensitivity_flags_polesink_on_anchored_family():
    state = interior_joint_state(singlet_density(), (2, 2), 0.2)
    [[[value]]] = d_remote_observable(
        polesink_law(0.1), BlochHamiltonian((2, 2)), [state],
        [_y_anchor_family()], [computational_observable(2)], [1.0],
    )
    assert value > 1e-2


def test_complex_step_residual_of_linear_law_is_at_rounding_level():
    rng = np.random.default_rng(7)
    h = random_hamiltonian(rng, (2, 2), scale=0.6)
    state = random_interior_joint(rng, (2, 2))
    [values] = d_remote_state(
        linear_law(), h, [state], [computational_observable(2)],
        [fourier_observable(2)], [1.0], [0, 1, 2],
    )
    # nothing is subtracted, so no eps/h noise floor: rounding only
    assert max(v for [v] in values) <= 1e-14


def _zero_weight_state():
    """|00>: measured computationally on party 2, outcome 1 has weight 0."""
    b = cached_basis(2)
    return joint_to_bloch(np.diag([1.0, 0.0, 0.0, 0.0]), b, b)


def test_zero_weight_branch_perturbation_is_infeasible():
    args = (linear_law(), BlochHamiltonian((2, 2)), [_zero_weight_state()],
            [computational_observable(2)], [computational_observable(2)], [1.0])
    # each error stands in place of its value
    [[[error]]] = d_remote_state(*args, [2])
    assert isinstance(error, PerturbationInfeasibleError)
    assert re.match(r"^perturbation of r2\[2\] moves remote outcome 1 of weight .*one-sided",
                    str(error))
    [[[error]]] = d_correlations(*args, [(1, 2)])
    assert isinstance(error, PerturbationInfeasibleError) and "r12[1,2]" in str(error)
    # components that leave the zero-weight branch alone stay two-sided
    [[[value]]] = d_remote_state(*args, [0])
    assert value <= 1e-14
    [[[value]]] = d_correlations(*args, [(1, 1)])
    assert value <= 1e-14


# ---------------------------------------------------------------------------
# Ensemble audit


def test_audit_linear_law_passes():
    rng = np.random.default_rng(8)
    h = random_hamiltonian(rng, (2, 2), scale=0.6)
    report = audit(linear_law(), h, AuditConfig(seed=1, ensemble_size=8))
    assert report.verdict == "pass"
    assert report.passed
    assert max(report.residuals().values()) <= 1e-6
    assert not report.infeasible and not report.failures


def test_audit_weighted_law_passes_with_tiny_linearity_residual():
    rng = np.random.default_rng(9)
    h = random_hamiltonian(rng, (2, 2), scale=0.6, interaction=True)
    report = audit(xi_law("corrnorm"), h, AuditConfig(seed=2, ensemble_size=8))
    assert report.verdict == "pass"
    assert report.linearity_residual <= 1e-8


def test_audit_flags_polesink():
    report = audit(polesink_law(0.1), BlochHamiltonian((2, 2)), AuditConfig(seed=3, ensemble_size=8))
    assert report.verdict == "signaling-detected"
    assert not report.passed
    assert report.max_d_remote_observable > 1e-2
    assert report.linearity_residual > 1e-2
    assert report.worst_case["channel"] in (
        "d_remote_state", "d_correlations", "d_remote_observable", "linearity",
    )


def test_audit_is_deterministic_given_seed():
    rng = np.random.default_rng(10)
    h = random_hamiltonian(rng, (2, 2), scale=0.6)
    cfg = AuditConfig(seed=11, ensemble_size=6)
    a = audit(xi_law("purity1"), h, cfg).to_dict()
    b = audit(xi_law("purity1"), h, cfg).to_dict()
    assert a == b


def test_every_xi_law_gets_the_linear_report_but_its_name():
    # the audit reads a law's branch flow alone, and every xi law shares the
    # linear rotation: its report is linear_law()'s except for `law`
    h = random_hamiltonian(np.random.default_rng(23), (2, 3), scale=0.6)
    cfg = AuditConfig(seed=24, ensemble_size=4)
    linear = audit(linear_law(), h, cfg).to_dict()
    assert linear.pop("law") == "linear"
    for law in (xi_law("one"), xi_law("corrnorm"), xi_law("purity1")):
        report = audit(law, h, cfg).to_dict()
        assert report.pop("law") == law.name
        assert report == linear


def test_audit_seed_changes_draws_not_verdict():
    rng = np.random.default_rng(12)
    h = random_hamiltonian(rng, (2, 2), scale=0.6)
    a = audit(linear_law(), h, AuditConfig(seed=1, ensemble_size=6))
    b = audit(linear_law(), h, AuditConfig(seed=2, ensemble_size=6))
    assert a.verdict == b.verdict == "pass"
    assert a.to_dict() != b.to_dict()


def test_pure_state_audit_has_no_infeasible_components():
    # with no smoothing the (2, 2) anchor is the pure singlet: no +-h
    # neighbour of it is physical, but the complex step needs none
    report = audit(
        linear_law(), BlochHamiltonian((2, 2)),
        AuditConfig(seed=4, ensemble_size=1, mix_weight=0.0, times=(0.5,)),
    )
    assert not report.infeasible and not report.failures
    assert all(row["status"] == "ok" for row in report.cases)
    assert max(report.residuals().values()) <= 1e-14
    assert report.verdict == "pass"


def test_audit_records_infeasible_components_of_a_zero_weight_branch():
    # a member with a zero-weight remote outcome: the components that move
    # that branch are flagged, as the density-matrix reference flags them;
    # the rotation channel still runs, so the report carries flags instead
    # of the audit dying
    law, h, config = linear_law(), BlochHamiltonian((2, 2)), AuditConfig(ensemble_size=1,
                                                                           times=(0.5,))
    direction = 0.5 * cached_basis(2).matrices[1]
    member = (_zero_weight_state(), computational_observable(2), computational_observable(2),
              direction)
    outcomes = channel_outcomes(law, h, [member], config.times)
    assert_outcomes_match(outcomes, reference_audit(law, h, [member], config.times))
    state, remote, local, _ = member
    runs = (d_remote_state(law, h, [state], [remote], [local], config.times, range(3)),
            d_correlations(law, h, [state], [remote], [local], config.times,
                           [(i, j) for i in range(3) for j in range(3)]),
            d_remote_observable(law, h, [state], [ObservableFamily(remote, direction)], [local],
                                config.times))
    report = nosignal_audit._report(law.name, (2, 2), config, *_arrays(runs), 0.0)
    assert [e["component"] for e in report.infeasible] == ["2", "0,2", "1,2", "2,2"]
    assert report.max_d_remote_observable <= 1e-6
    assert [row["status"] for row in report.cases] == ["partial:infeasible"] * 2 + ["ok"]
    assert report.verdict == "pass"


def test_audit_report_dict_and_csv_shapes():
    rng = np.random.default_rng(13)
    h = random_hamiltonian(rng, (2, 2), scale=0.5)
    cfg = AuditConfig(seed=5, ensemble_size=4, times=(0.5, 1.0))
    report = audit(linear_law(), h, cfg)
    payload = report.to_dict()
    for key in ("version", "law", "residuals", "verdict", "config", "cases"):
        assert key in payload
    assert payload["residuals"]["linearity"] == report.linearity_residual
    rows = report.csv_rows()
    assert rows[0] == ["member", "time", "channel", "component", "value", "status"]
    # 4 members x 2 times x 3 channels
    assert len(rows) == 1 + 4 * 2 * 3


def test_audit_config_validation():
    with pytest.raises(ValueError):
        AuditConfig(pass_tolerance=0.0)
    with pytest.raises(ValueError):
        AuditConfig(ensemble_size=0)
    with pytest.raises(ValueError):
        AuditConfig(times=())
    with pytest.raises(ValueError):
        AuditConfig(mix_weight=1.0)
    for bad in ({"pass_tolerance": math.inf}, {"pass_tolerance": math.nan}, {"times": (math.nan,)}):
        with pytest.raises(ValueError):
            AuditConfig(**bad)


@pytest.mark.parametrize("field", ["ensemble_size", "seed", "fit_probes"])
@pytest.mark.parametrize("bad", [2.5, 3.0, math.inf, True])
def test_audit_config_integer_fields_must_be_integers(field, bad):
    # a float used to fail inside audit with TypeError, and True ran as 1
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        AuditConfig(**{field: bad})
    assert getattr(AuditConfig(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize(
    "make, field",
    [(AuditConfig, "pass_tolerance"), (AuditConfig, "mix_weight"), (AuditConfig, "times"),
     (IntegratorOptions, "step"), (IntegratorOptions, "atol"), (IntegratorOptions, "rtol")],
)
@pytest.mark.parametrize("bad", [True, False, "0.5", None])
def test_float_config_fields_must_be_real_numbers(make, field, bad):
    # a bool used to be kept (True ran as 1), and a numeric string became a time
    name = "times[1]" if field == "times" else field
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number")):
        make(**{field: (0.5, bad) if field == "times" else bad})
    good = (0.5, np.float64(0.25), 1) if field == "times" else np.float64(0.5)
    assert make(**{field: good})


def test_branch_integrator_override_still_passes():
    rng = np.random.default_rng(14)
    h = random_hamiltonian(rng, (2, 2), scale=0.5)
    cfg = AuditConfig(
        seed=6, ensemble_size=4,
        branch_options=IntegratorOptions(method="rk4", step=0.005),
    )
    assert audit(linear_law(), h, cfg).verdict == "pass"


@pytest.mark.parametrize(
    "law",
    [
        custom_law("nan", reduced_field=lambda h, r: np.full_like(r, np.nan)),
        polesink_law(math.nan),
    ],
    ids=["nan-field", "polesink-nan-epsilon"],
)
def test_nonfinite_law_never_passes(law):
    cfg = AuditConfig(seed=0, ensemble_size=2, times=(0.5,))
    with pytest.raises(IntegrationFailureError, match="not finite"):
        audit(law, BlochHamiltonian((2, 2)), cfg)


def _polesink_field(r):
    e = np.zeros(r.shape[-1])
    e[-1] = 1.0
    return 0.1 * (e - r[..., -1:] * r)


@pytest.mark.parametrize(
    "field",
    [
        lambda h, r: _polesink_field(np.asarray(r, dtype=float)),
        lambda h, r: _polesink_field(np.asarray(r)) * (1.0 + np.abs(np.asarray(r)[..., -1:])),
        lambda h, r: _polesink_field(np.asarray(r).real),
    ],
    ids=["float-cast", "abs", "real-part"],
)
def test_a_non_analytic_custom_law_is_refused_not_passed(field):
    # its complex steps would read zero (or garbage), and a signaling drift
    # would pass; the flow's probe refuses the law by name instead
    law = custom_law("cast-polesink", reduced_field=field)
    with pytest.raises(ValueError, match="'cast-polesink' must be complex-analytic"):
        audit(law, BlochHamiltonian((2, 2)), AuditConfig(seed=3, ensemble_size=2))


def test_a_custom_law_without_the_field_a_run_needs_is_refused_by_name():
    polesink = polesink_law(0.1)
    joint_only = custom_law("joint-only", joint_field=polesink.joint_field_fn)
    with pytest.raises(ValueError, match="^law 'joint-only' provides no reduced flow$"):
        audit(joint_only, BlochHamiltonian((2, 2)), AuditConfig(seed=0, ensemble_size=1))
    reduced_only = custom_law("reduced-only", reduced_field=polesink.reduced_field_fn)
    with pytest.raises(ValueError, match="^law 'reduced-only' provides no joint field$"):
        evolve(reduced_only, BlochHamiltonian((2, 2)), singlet_state(), 0.5)


# ---------------------------------------------------------------------------
# Aggregation rules, on crafted outcomes


_CHANNELS = ("d_remote_state", "d_correlations", "d_remote_observable")


def _runs(dims, config, outcome):
    """Crafted channel outcomes as the audit's channels give them,
    ``[member][component][time]`` per channel: ``outcome(channel, member,
    label, t)`` is one component's value or error at one of the sorted
    distinct times."""
    d1, d2 = (n**2 - 1 for n in dims)
    labels = ([str(k) for k in range(d2)],
              [f"{i},{j}" for i in range(d1) for j in range(d2)], ["theta"])
    grid = sorted(set(config.times))
    return tuple([[[outcome(ch, m, label, t) for t in grid] for label in names]
                  for m in range(config.ensemble_size)] for ch, names in zip(_CHANNELS, labels))


def _arrays(runs):
    """Channel outcomes ``[member][component][time]`` per channel as
    ``nosignal_audit._report`` takes them: the ``(T, M, C)`` values over the
    columns of every channel in turn (NaN in place of an error) and the
    ``{(time index, member, column): error}`` map."""
    columns = [[per_time for per_member in outcomes for per_time in per_member]
               for outcomes in zip(*runs)]
    errors = {(i, m, c): x for m, per_column in enumerate(columns)
              for c, per_time in enumerate(per_column)
              for i, x in enumerate(per_time) if isinstance(x, Exception)}
    values = np.array([[[math.nan if isinstance(x, Exception) else x for x in per_time]
                        for per_time in per_column] for per_column in columns])
    return values.transpose(2, 0, 1), errors


def _crafted_report(dims, config, outcome, linearity=0.0):
    """The report ``nosignal_audit._report`` reads off crafted outcomes."""
    return nosignal_audit._report("crafted", dims, config,
                                  *_arrays(_runs(dims, config, outcome)), linearity)


def test_nonfinite_sensitivities_are_failures_and_block_a_pass():
    # A NaN Hamiltonian is refused where its generator is built, so every
    # sensitivity is crafted NaN.
    report = _crafted_report((2, 2), AuditConfig(seed=0, ensemble_size=2, times=(0.5,)),
                             lambda ch, m, label, t: math.nan)
    assert report.verdict != "pass"
    assert report.failures
    assert all(row["status"] == "non-finite" for row in report.cases)


def test_report_aggregation_rules():
    infeasible = PerturbationInfeasibleError("r12[0,0] leaves the physical set")
    late = IntegrationFailureError("gave up at t=1")

    def state(member, label, t):
        if member == 0 and t == 1.0:
            return {"0": math.nan, "1": 0.3, "2": 0.3}[label]
        return 0.1 if member == 0 else 0.3

    def correlations(member, label, t):
        if member == 1:
            return infeasible if label == "0,0" else late if t == 1.0 else 0.05
        return 0.2 if (label, t) == ("1,1", 0.5) else 0.05

    plans = {"d_remote_state": state, "d_correlations": correlations,
             "d_remote_observable": lambda m, label, t: 0.0}
    config = AuditConfig(seed=2, ensemble_size=2, times=(1.0, 0.5), fit_probes=4)
    report = _crafted_report((2, 2), config, lambda ch, *args: plans[ch](*args))

    # A channel's worst case is its first largest value, and an all-zero
    # channel keeps no worst case.
    assert report.residuals()["d_remote_state"] == 0.3
    assert report.per_channel_worst == {
        "d_remote_state": {"member": 0, "time": 1.0, "component": "1", "value": 0.3},
        "d_correlations": {"member": 0, "time": 0.5, "component": "1,1", "value": 0.2},
        "d_remote_observable": {},
    }
    assert report.max_d_remote_observable == 0.0
    assert report.worst_case == {"channel": "d_remote_state", **report.per_channel_worst["d_remote_state"]}
    # A row's worst case is its last largest value; a row with no value reads
    # "-" and nan with the status of its last failure.
    rows = [
        (r["member"], r["time"], r["channel"], r["component"],
         "nan" if math.isnan(r["value"]) else r["value"], r["status"])
        for r in report.cases
    ]
    assert rows == [
        (0, 1.0, "d_remote_state", "2", 0.3, "partial:non-finite"),
        (0, 1.0, "d_correlations", "2,2", 0.05, "ok"),
        (0, 1.0, "d_remote_observable", "theta", 0.0, "ok"),
        (0, 0.5, "d_remote_state", "2", 0.1, "ok"),
        (0, 0.5, "d_correlations", "1,1", 0.2, "ok"),
        (0, 0.5, "d_remote_observable", "theta", 0.0, "ok"),
        (1, 1.0, "d_remote_state", "2", 0.3, "ok"),
        (1, 1.0, "d_correlations", "-", "nan", "integration-failure"),
        (1, 1.0, "d_remote_observable", "theta", 0.0, "ok"),
        (1, 0.5, "d_remote_state", "2", 0.3, "ok"),
        (1, 0.5, "d_correlations", "2,2", 0.05, "partial:infeasible"),
        (1, 0.5, "d_remote_observable", "theta", 0.0, "ok"),
    ]
    # Records follow member, time (config order), channel, component order.
    assert report.infeasible == tuple(
        {"member": 1, "time": t, "channel": "d_correlations", "component": "0,0",
         "reason": str(infeasible)}
        for t in (1.0, 0.5)
    )
    assert report.failures == (
        {"member": 0, "time": 1.0, "channel": "d_remote_state", "component": "0",
         "reason": "sensitivity is not finite (nan)", "status": "non-finite"},
    ) + tuple(
        {"member": 1, "time": 1.0, "channel": "d_correlations", "component": f"{i},{j}",
         "reason": str(late), "status": "integration-failure"}
        for i in range(3) for j in range(3) if (i, j) != (0, 0)
    )
    assert report.verdict == "signaling-detected"


# Ties among few values (0.0 among them), every kind of failure, and more
# values than failures, so rows and channels often have several largest.
_GRID_OUTCOMES = st.sampled_from(
    [0.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5, math.nan, math.inf, -math.inf,
     PerturbationInfeasibleError("a branch of zero weight moves"),
     IntegrationFailureError("gave up")]
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    members=st.integers(1, 4),
    times=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=4),
    data=st.data(),
)
def test_one_walk_reads_the_report_the_outcome_table_gives(dims, members, times, data):
    """Random outcome grids in place of the audit's channel outcomes: the
    report equals the one read off a table of every outcome."""
    config = AuditConfig(seed=3, ensemble_size=members, times=tuple(times), fit_probes=0)
    runs = _runs(dims, config, lambda *_: data.draw(_GRID_OUTCOMES))
    linearity = data.draw(st.sampled_from([0.0, 0.25, 0.75]))
    report = nosignal_audit._report("crafted", dims, config, *_arrays(runs), linearity)
    d1, d2 = (n**2 - 1 for n in dims)
    labels = ([str(k) for k in range(d2)],
              [f"{i},{j}" for i in range(d1) for j in range(d2)], ["theta"])
    expected = reference_report(list(runs), times, labels, linearity)
    actual = {"infeasible": report.infeasible, "failures": report.failures,
              "per_channel_worst": report.per_channel_worst, "worst_case": report.worst_case,
              "residuals": report.residuals(), "cases": report.cases}
    assert dumps(actual) == dumps(expected)
