"""Stepper behaviour on problems with known solutions."""

import math

import numpy as np
import pytest

from blochsig import integrate
from blochsig.dynamics import (
    BlochHamiltonian,
    XiFunctions,
    _flat_field,
    custom_law,
    evolve,
    linear_law,
    pack_coords,
    random_hamiltonian,
    reduced_generator,
    xi_law,
    xi_preset,
)
from blochsig.errors import IntegrationFailureError
from blochsig.integrate import DEFAULT_OPTIONS, IntegratorOptions, solve, solve_linear
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
    field, _ = _flat_field(xi_law("corrnorm"), h)
    return field, pack_coords(random_interior_joint(rng, (3, 3))), 0.8


def _xi_corrnorm_indexed_2x2():
    rng = np.random.default_rng(32)
    h = random_hamiltonian(rng, (2, 2))
    law = xi_law(xi_preset("corrnorm").as_indexed())
    field, _ = _flat_field(law, h)
    return field, pack_coords(random_interior_joint(rng, (2, 2))), 0.6


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


# ---------------------------------------------------------------------------
# The linear route: Fehlberg's pair as a polynomial in z = hG


def test_the_linear_coefficients_are_the_tableaus_stability_polynomials():
    # h k_s = z u_s(z) y, where stage s's input is u_s(z) y: u_0 = 1 and
    # u_s = 1 + sum_j a_sj z u_j; y5 and h err are rows 5 and 6 of the same
    # recursion.  A polynomial is its 7 coefficients from z^0 up.
    def times_z(poly):
        assert poly[-1] == 0.0  # no stage reaches degree 7
        return np.concatenate(([0.0], poly[:-1]))

    def combine(row, z_u):
        return row[0] * np.eye(7)[0] + sum(a * zu for a, zu in zip(row[1:], z_u))

    tableau = integrate._TABLEAU
    z_u = [times_z(np.eye(7)[0])]  # stage 0's input is the state: u_0 = 1
    for row in tableau[:5]:  # the inputs of stages 1 ... 5
        z_u.append(times_z(combine(row, z_u)))
    derived = [combine(row, z_u) for row in tableau[5:]]
    closed = [[1, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 2080], [0, 0, 0, 0, 0, -1 / 780, 1 / 2080]]
    np.testing.assert_allclose(derived, closed, rtol=1e-14, atol=1e-16)
    np.testing.assert_array_equal(integrate._LINEAR, closed)


def _generator(dims, weight):
    h = random_hamiltonian(np.random.default_rng(sum(dims) + 17), dims)
    law = linear_law() if weight == 1.0 else xi_law(XiFunctions.constant(weight))
    _, generator = _flat_field(law, h)
    assert generator is not None
    return generator


def _trial_steps(generator, y0, t, options):
    calls = []

    def field(y):
        calls.append(1)
        return generator @ y

    reference_rkf45(field, y0, t, options)
    assert len(calls) % 6 == 0
    return len(calls) // 6


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)], ids=lambda d: "%dx%d" % d)
@pytest.mark.parametrize("weight", [1.0, 0.37])
@pytest.mark.parametrize("complex_row", [False, True], ids=["real", "complex"])
def test_the_linear_route_takes_the_steps_of_the_per_stage_reference(dims, weight, complex_row):
    generator = _generator(dims, weight)
    y0 = np.linspace(-0.5, 0.6, len(generator))
    if complex_row:
        y0 = y0 + 1e-3j * np.cos(np.arange(len(generator)))
    t, options = 1.3, IntegratorOptions(method="rkf45")
    y = solve_linear(generator, y0, t, options)
    assert y.dtype == y0.dtype
    assert np.max(np.abs(y - reference_rkf45(lambda v: generator @ v, y0, t, options))) <= 1e-13
    # the smallest step budget that suffices is the same on both routes: one
    # loop pass per trial step, and one more that finds the span done
    trials = _trial_steps(generator, y0, t, options)
    assert trials > 3
    for route in (lambda o: solve_linear(generator, y0, t, o),
                  lambda o: solve(lambda v: generator @ v, y0, t, o)):
        route(IntegratorOptions(method="rkf45", max_steps=trials + 1))
        with pytest.raises(IntegrationFailureError, match=f"max_steps={trials} exceeded"):
            route(IntegratorOptions(method="rkf45", max_steps=trials))


def _failure(run):
    with pytest.raises(IntegrationFailureError) as info:
        run()
    return str(info.value)


@pytest.mark.parametrize("case", ["nan-start", "h1-1e20", "h1-1e150", "max-steps"])
def test_the_linear_route_fails_as_the_stage_route_does(case):
    scale = {"h1-1e20": 1e20, "h1-1e150": 1e150}.get(case, 1.0)
    h = BlochHamiltonian((2, 2), h1=[scale, 0.3 * scale, 0.0], h12=0.2 * np.eye(3))
    _, generator = _flat_field(linear_law(), h)
    y0 = np.full(15, np.nan) if case == "nan-start" else np.linspace(-0.3, 0.3, 15)
    options = IntegratorOptions(method="rkf45", max_steps=5 if case == "max-steps" else 200_000)
    linear = _failure(lambda: solve_linear(generator, y0, 1.0, options))
    assert linear == _failure(lambda: solve(lambda v: generator @ v, y0, 1.0, options))
    expected = ("max_steps=5 exceeded at t=" if case == "max-steps"
                else "step size underflow at t=0 (h=2.621e-15)")
    assert linear.startswith(expected)


def test_a_matrix_state_is_one_state_whose_columns_the_generator_acts_on():
    # the rkf45 propagator of a reduced flow: the identity as one (d, d)
    # state, stepped as its flattened row under the field G Y
    generator = reduced_generator(np.random.default_rng(41).standard_normal(8), 3)
    eye = np.eye(8)
    flat = solve(lambda y: (generator @ y.reshape(8, 8)).ravel(), eye.ravel(), 2.0,
                 IntegratorOptions(method="rkf45"))
    power = solve_linear(generator, eye, 2.0, IntegratorOptions(method="rkf45"))
    assert power.shape == (8, 8)
    assert np.max(np.abs(power - flat.reshape(8, 8))) <= 1e-13
    np.testing.assert_array_equal(eye, np.eye(8))
    assert not np.shares_memory(power, eye)


def test_under_rk4_the_linear_route_is_the_stage_route_bit_for_bit():
    generator, options = _generator((2, 3), 0.37), IntegratorOptions(method="rk4", step=0.05)
    y0 = np.linspace(-0.5, 0.6, len(generator))
    np.testing.assert_array_equal(solve_linear(generator, y0, 1.3, options),
                                  solve(lambda v: generator @ v, y0, 1.3, options))


def test_the_linear_route_checks_its_span_and_shapes():
    generator = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="integration time must be finite"):
        solve_linear(generator, np.ones(2), math.inf)
    for bad in (np.ones(3), np.ones((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="does not act on a state"):
            solve_linear(generator, bad, 1.0)
    y0 = np.array([1.0, 0.0])
    y = solve_linear(generator, y0, 0.0)
    np.testing.assert_array_equal(y, y0)
    assert y is not y0


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
