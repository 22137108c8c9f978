"""Stepper behaviour on problems with known solutions."""

import math

import numpy as np
import pytest

from blochsig.dynamics import (
    BlochHamiltonian,
    _flat_field,
    custom_law,
    evolve,
    pack_coords,
    random_hamiltonian,
    xi_law,
    xi_preset,
)
from blochsig.errors import IntegrationFailureError
from blochsig.integrate import DEFAULT_OPTIONS, IntegratorOptions, solve
from blochsig.sampling import random_interior_joint, singlet_state

from helpers import reference_rkf45


def rotation_field(omega):
    m = np.array([[0.0, -omega], [omega, 0.0]])
    return lambda y: m @ y


def test_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(method="euler")
    with pytest.raises(ValueError):
        IntegratorOptions(step=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(atol=-1.0)
    with pytest.raises(ValueError):
        IntegratorOptions(max_steps=0)
    for bad in ({"step": math.nan}, {"atol": math.inf}, {"rtol": math.nan}):
        with pytest.raises(ValueError):
            IntegratorOptions(**bad)


@pytest.mark.parametrize("bad", [math.inf, 2.5, 3.0, True, "10"])
def test_max_steps_must_be_an_integer(bad):
    # rkf45 used to accept these and then fail inside solve with TypeError
    with pytest.raises(ValueError, match="max_steps must be an integer"):
        IntegratorOptions(method="rkf45", max_steps=bad)
    assert IntegratorOptions(max_steps=np.int64(3)).max_steps == 3


def test_zero_time_returns_copy():
    y0 = np.array([1.0, 2.0])
    y = solve(rotation_field(1.0), y0, 0.0, DEFAULT_OPTIONS)
    np.testing.assert_array_equal(y, y0)
    assert y is not y0


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        solve(rotation_field(1.0), np.ones(2), -0.1)


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_nonfinite_time_rejected_before_any_step(method, t):
    calls = []

    def field(y):
        calls.append(y)
        return -y

    with pytest.raises(ValueError, match="integration time must be finite and nonnegative"):
        solve(field, np.ones(2), t, IntegratorOptions(method=method))
    assert calls == []


@pytest.mark.parametrize("method,tol", [("rk4", 1e-8), ("rkf45", 1e-8)])
def test_rotation_closed_form(method, tol):
    omega, t = 1.7, 2.0
    opts = IntegratorOptions(method=method, step=0.01)
    y = solve(rotation_field(omega), np.array([1.0, 0.0]), t, opts)
    expected = np.array([math.cos(omega * t), math.sin(omega * t)])
    assert np.max(np.abs(y - expected)) <= tol


def stiff_decay(y):
    # y' = -50 (y - cos t), autonomized by carrying time as a coordinate;
    # the solution hugs cos t after a fast transient
    return np.array([1.0, -50.0 * (y[1] - math.cos(y[0]))])


def test_rkf45_adapts_on_stiff_decay():
    y = solve(stiff_decay, np.array([0.0, 0.0]), 3.0, IntegratorOptions(method="rkf45"))
    assert abs(y[0] - 3.0) <= 1e-12
    exact = (
        50.0 * (50.0 * math.cos(3.0) + math.sin(3.0)) / 2501.0
        - 2500.0 / 2501.0 * math.exp(-150.0)
    )
    assert abs(y[1] - exact) <= 1e-6


def test_rkf45_step_budget_exceeded():
    with pytest.raises(IntegrationFailureError):
        solve(
            rotation_field(10.0),
            np.array([1.0, 0.0]),
            50.0,
            IntegratorOptions(method="rkf45", max_steps=5),
        )


def test_rkf45_step_size_underflow():
    # y' = y^2 from y = 1 blows up at t = 1: the step shrinks until it underflows
    with pytest.raises(IntegrationFailureError, match="step size underflow"):
        solve(lambda y: y * y, [1.0], 2.0, IntegratorOptions(method="rkf45"))


@pytest.mark.parametrize("t", [1e13, 1e20])
def test_rkf45_starts_a_long_span_at_its_step_floor(t):
    # the floor 1e-14 * t is above the 0.01 first step: a zero field takes
    # steps from the floor up (each 5x the last) and returns its start
    y = solve(np.zeros_like, [1.0, 2.0], t, IntegratorOptions(method="rkf45"))
    np.testing.assert_array_equal(y, [1.0, 2.0])


def test_rkf45_over_a_long_span_still_underflows_at_a_blow_up():
    # y' = y^2 from y = 1 blows up at t = 1, far inside a 1e13 span whose
    # step floor is 0.1: the step shrinks below that floor
    with pytest.raises(IntegrationFailureError, match="step size underflow"):
        solve(lambda y: y * y, [1.0], 1e13, IntegratorOptions(method="rkf45"))


def test_rkf45_takes_a_span_shorter_than_its_step_floor():
    y = solve(lambda y: -y, [1.0, 2.0], 1e-20, IntegratorOptions(method="rkf45"))
    np.testing.assert_array_equal(y, [1.0, 2.0])


def _xi_corrnorm_3x3():
    rng = np.random.default_rng(31)
    h = random_hamiltonian(rng, (3, 3))
    return _flat_field(xi_law("corrnorm"), h), pack_coords(random_interior_joint(rng, (3, 3))), 0.8


def _xi_corrnorm_indexed_2x2():
    rng = np.random.default_rng(32)
    h = random_hamiltonian(rng, (2, 2))
    law = xi_law(xi_preset("corrnorm").as_indexed())
    return _flat_field(law, h), pack_coords(random_interior_joint(rng, (2, 2))), 0.6


def _stiff_decay():
    return stiff_decay, np.array([0.0, 0.0]), 3.0


def _complex_row():
    # a complex step of y' = -y + 0.3 y**2 whose imaginary part is not negligible
    y0 = np.array([0.4, -0.2, 0.7]) + 1e-3j * np.array([1.0, 0.5, -0.3])
    return (lambda y: -y + 0.3 * y * y), y0, 1.3


@pytest.mark.parametrize(
    "problem", [_xi_corrnorm_3x3, _xi_corrnorm_indexed_2x2, _stiff_decay, _complex_row],
    ids=["xi-corrnorm-3x3", "xi-corrnorm-indexed-2x2", "stiff-decay", "complex-row"],
)
def test_rkf45_takes_the_steps_of_the_per_stage_reference(problem):
    field, y0, t = problem()
    counts = {"solve": 0, "reference": 0}

    def counting(name):
        def f(y):
            counts[name] += 1
            return field(y)

        return f

    opts = IntegratorOptions(method="rkf45")
    y = solve(counting("solve"), y0, t, opts)
    ref = reference_rkf45(counting("reference"), y0, t, opts)
    assert counts["solve"] == counts["reference"] > 6
    assert np.max(np.abs(y - ref)) <= 1e-13


@pytest.mark.parametrize("method, y0", [
    ("rkf45", np.array([0.4, -0.2, 0.7])),
    ("rkf45", np.array([0.4, -0.2, 0.7]) + 1e-3j),
    ("rk4", np.array([0.4, -0.2, 0.7])),
    ("rk4", np.array([[0.4, -0.2, 0.7], [0.1, 0.3, -0.5]])),
])
def test_a_stepper_never_writes_an_array_it_handed_to_the_field(method, y0):
    # the field keeps every input it gets; none may change after the call,
    # and the result may share memory with none of them
    seen = []

    def field(y):
        seen.append((y, y.copy()))
        return -y + 0.3 * y * y

    start = y0.copy()
    y = solve(field, y0, 1.3, IntegratorOptions(method=method, step=0.05))
    assert len(seen) > 6
    for given, copy in seen:
        assert np.array_equal(given, copy)
        assert not np.shares_memory(y, given)
    assert np.array_equal(y0, start) and not np.shares_memory(y, y0)
    assert y.flags.owndata


def test_rk4_step_budget_exceeded():
    with pytest.raises(IntegrationFailureError):
        solve(
            rotation_field(1.0),
            np.array([1.0, 0.0]),
            1.0,
            IntegratorOptions(method="rk4", step=1e-6, max_steps=100),
        )


@pytest.mark.parametrize("t, step", [(1e308, 0.01), (1.0, 1e-320)])
def test_rk4_with_an_infinite_step_count_exceeds_max_steps(t, step):
    # t / step overflows to inf: more steps than any budget, not an OverflowError
    with pytest.raises(IntegrationFailureError,
                       match=r"^rk4 would need inf steps \(> max_steps=200000\)$"):
        solve(rotation_field(1.0), np.array([1.0, 0.0]), t,
              IntegratorOptions(method="rk4", step=step))


def test_rk4_flow_is_linear_in_initial_condition():
    # rk4 of a linear field is a fixed matrix map: superposition must hold
    # to rounding, which the audit's cancellations rely on.
    field = rotation_field(0.9)
    opts = IntegratorOptions(method="rk4", step=0.01)
    a = solve(field, np.array([1.0, 0.0]), 1.0, opts)
    b = solve(field, np.array([0.0, 1.0]), 1.0, opts)
    c = solve(field, np.array([0.3, -0.7]), 1.0, opts)
    assert np.max(np.abs(0.3 * a - 0.7 * b - c)) <= 1e-14


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_nonfinite_result_raises(method):
    # solve hands a non-finite rk4 result to its caller, and rkf45 gives up
    # itself; evolve refuses either
    options = IntegratorOptions(method=method, step=0.1, max_steps=1000)
    if method == "rk4":
        assert np.isnan(solve(lambda y: np.full_like(y, np.nan), np.zeros(2), 1.0, options)).all()
    else:
        with pytest.raises(IntegrationFailureError, match="step size underflow"):
            solve(lambda y: np.full_like(y, np.nan), np.zeros(2), 1.0, options)
    law = custom_law("nan", joint_field=lambda h, *blocks: [np.full_like(b, np.nan) for b in blocks])
    with pytest.raises(IntegrationFailureError,
                       match="rk4 result at t=1 is not finite" if method == "rk4" else "underflow"):
        evolve(law, BlochHamiltonian((2, 2)), singlet_state(), 1.0, options)


@pytest.mark.parametrize("method", ["rk4", "rkf45"])
def test_a_complex_row_keeps_its_real_solve_and_carries_its_derivative(method):
    # y' = -y + 0.3 y**2 per entry: the complex step y0 + i eps v gives the
    # real solve in its real part (rkf45 steps on the real part only) and
    # eps times the derivative along v in its imaginary part
    def field(y):
        return -y + 0.3 * y * y

    opts = IntegratorOptions(method=method, step=0.05)
    y0, v, eps, h = np.array([0.4, -0.2, 0.7]), np.array([1.0, 0.5, -0.3]), 1e-30, 1e-6
    real = solve(field, y0, 1.3, opts)
    stepped = solve(field, y0 + 1j * eps * v, 1.3, opts)
    assert stepped.dtype == complex
    np.testing.assert_allclose(stepped.real, real, rtol=1e-15, atol=0)
    central = (solve(field, y0 + h * v, 1.3, opts) - solve(field, y0 - h * v, 1.3, opts)) / (2 * h)
    np.testing.assert_allclose(stepped.imag / eps, central, rtol=0, atol=1e-8)
