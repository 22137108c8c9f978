"""Explicit ODE steppers used by the dynamics module.

Two methods are provided:

* ``rk4`` — classical fixed-step Runge-Kutta.  The number of steps depends
  only on the time span, so the numerical flow is a smooth (for linear
  fields: exactly linear) function of the initial condition.  This is the
  method of choice whenever trajectories are differenced against each
  other, as in the no-signaling audits.  ``y0`` may be a ``(B, d)`` batch
  of independent rows when the field acts on the last axis: every
  operation of the step is elementwise, so each row gets exactly the
  numbers it would get alone.  Complex rows stay complex, so a complex
  step ``y0 + i eps v`` carries the derivative of the flow along ``v``.
* ``rkf45`` — Fehlberg 4(5) embedded pair with adaptive step control.  The
  higher-order solution is propagated; the embedded difference drives the
  step size.  Default error weights are ``atol + rtol * |y|``.  The step
  size is shared by the whole state, so ``y0`` must be one row; a complex
  row takes the steps its real part takes.  A step is a few products over
  one ``(7, D)`` stack holding the state and the six stages: stage 0's
  input is a copy of the state itself, each later stage input is one
  product of its tableau row, scaled by h, with the rows above it, and one
  ``(2, 7)`` product gives the propagated solution and h times the error
  estimate.  Only the tableau's stage columns are scaled at each step; its
  state column is set once per solve, as are the stack and the other
  buffers.  The field only ever receives a fresh array, and the result is
  one too.

:func:`solve` steps any field; :func:`solve_linear` steps a linear field
``y -> G y`` given as its matrix G.  Under ``rkf45`` the pair is then
exactly a polynomial in ``z = hG``, so a trial step is one ``(2, 7)``
product of the polynomials' coefficients, scaled by the powers of h, with
the stack ``G^m y`` (m = 0 ... 6): six matrix-vector products per accepted
state and none for a rejected step, which reuses the stack.  Step control,
its failures and its error norm are the same code on both routes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import IntegrationFailureError

__all__ = ["IntegratorOptions", "DEFAULT_OPTIONS", "solve", "solve_linear", "rk4_continues"]


def _require_number(kind, **fields) -> None:
    """Raise ``ValueError`` unless every value is a ``kind``, ``Integral`` or
    ``Real``; a bool is neither, though Python counts it as both."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, kind):
            what = "an integer" if kind is Integral else "a real number"
            raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class IntegratorOptions:
    method: str = "rkf45"
    step: float = 0.01          # fixed step for rk4; initial guess for rkf45
    atol: float = 1e-10
    rtol: float = 1e-8
    max_steps: int = 200_000

    def __post_init__(self):
        if self.method not in ("rk4", "rkf45"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        _require_number(Real, step=self.step, atol=self.atol, rtol=self.rtol)
        if not all(math.isfinite(v) and v > 0 for v in (self.step, self.atol, self.rtol)):
            raise ValueError("step and tolerances must be positive and finite")
        _require_number(Integral, max_steps=self.max_steps)
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


DEFAULT_OPTIONS = IntegratorOptions()

# Fehlberg tableau, one row per product over the stage stack (the state,
# then the six stages): rows 0-4 give the inputs of stages 1-5 (stage 0's
# is the state itself), row 5 the propagated (5th-order) solution and row 6
# the local error estimate b5 - b4.  Column 0 is the state's and is never
# scaled: 1, and 0 in the error row.  With the other columns scaled by h,
# stage s is ``c[s-1, :s+1] @ yk[:s+1]``.
_TABLEAU = np.array((
    (1, 1 / 4, 0, 0, 0, 0, 0),
    (1, 3 / 32, 9 / 32, 0, 0, 0, 0),
    (1, 1932 / 2197, -7200 / 2197, 7296 / 2197, 0, 0, 0),
    (1, 439 / 216, -8, 3680 / 513, -845 / 4104, 0, 0),
    (1, -8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40, 0),
    (1, 16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55),
    (0, 1 / 360, 0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55),
))


def rk4_grid(t: float, options: IntegratorOptions) -> tuple[int, float]:
    """Number of fixed rk4 steps and their common size for a span of t,
    checked against ``max_steps`` (an infinite ``t / step`` needs ``inf``)."""
    ratio = t / options.step - 1e-12
    n = max(1, math.ceil(ratio)) if ratio < math.inf else ratio
    if n > options.max_steps:
        raise IntegrationFailureError(
            f"rk4 would need {n} steps (> max_steps={options.max_steps})"
        )
    return n, t / n


def rk4_continues(done: float, t: float, options: IntegratorOptions) -> bool:
    """Whether rk4 from ``done`` to ``t`` repeats the last steps of the solve
    from 0 to ``t``, so that carrying the state at ``done`` on to ``t`` gives
    the numbers of that solve bit for bit.  Raises
    ``IntegrationFailureError`` when ``t`` needs more than ``max_steps``
    steps from 0.
    """
    n, h = rk4_grid(t, options)
    n_done, h_done = rk4_grid(done, options) if done > 0 else (0, h)
    n_span, h_span = rk4_grid(t - done, options)
    return h_done == h_span == h and n_done + n_span == n


def _rk4(field, y0, t, options):
    n, h = rk4_grid(t, options)
    y = y0
    for _ in range(n):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _fehlberg(trial, y, ends, t, options):
    """Fehlberg step control from 0 to t, shared by both routes.

    ``y`` is the flat state, updated in place; ``trial(h, moved)`` fills
    ``ends`` with the propagated solution and h times the error estimate of
    a step h from ``y`` (``moved``: ``y`` changed since the last trial).
    Error weights are ``atol + rtol * max(|y|, |y5|)`` on real parts only.
    """
    n = y.size
    y5 = ends[0]
    y5_real, err_real = ends.real  # only real parts set the step
    ay, a5, q = np.empty((3, n))  # |y|, |y5| and the scaled error
    np.abs(y.real, out=ay)
    x, moved = 0.0, True
    hmin = 1e-14 * t  # relative to the span, so a short span's first step clears it
    h = min(t, max(options.step, 1e-6, hmin))  # and a long span's first step is not below it
    for _ in range(options.max_steps):
        if x >= t:
            return y.copy()
        h = min(h, t - x)
        if h < hmin:
            raise IntegrationFailureError(f"step size underflow at t={x:.6g} (h={h:.3e})")
        trial(h, moved)
        np.abs(y5_real, out=a5)
        np.maximum(ay, a5, out=q)
        q *= options.rtol
        q += options.atol
        np.divide(err_real, q, out=q)
        # A NaN norm fails the test below and shrinks the step by 0.2.
        errnorm = math.sqrt(q @ q / n)
        moved = errnorm <= 1.0
        if moved:
            x += h
            y[...] = y5
            ay, a5 = a5, ay
        factor = 5.0 if errnorm == 0.0 else 0.9 * errnorm ** (-0.2)
        h *= min(5.0, max(0.2, factor))
    raise IntegrationFailureError(f"max_steps={options.max_steps} exceeded at t={x:.6g}")


def _rkf45(field, y0, t, options):
    n = y0.size
    yk = np.empty((7, n), dtype=y0.dtype)  # the state, then the six stages
    c = _TABLEAU.copy()  # the tableau, its stage columns scaled by the step
    scaled, unscaled = c[:, 1:], _TABLEAU[:, 1:]
    ends = np.empty((2, n), dtype=y0.dtype)  # y5 and h * err
    y, final = yk[0], c[5:]
    k0, stages = yk[1], [(c[s - 1, : s + 1], yk[: s + 1], yk[s + 1]) for s in range(1, 6)]
    y[...] = y0

    def trial(h, moved):
        np.multiply(unscaled, h, out=scaled)
        # Each stage input is a fresh array (a copy of the state, then a
        # product), so the field never holds a buffer that a later stage or
        # step overwrites.
        k0[...] = field(y.copy())
        for weights, done, stage in stages:
            stage[...] = field(np.dot(weights, done))
        np.dot(final, yk, out=ends)

    return _fehlberg(trial, y, ends, t, options)


# For a linear field y' = G y, the Fehlberg pair is a polynomial in z = hG:
# row 0 is the propagated solution (the degree-5 Taylor polynomial plus
# z^6/2080), row 1 h times the error estimate, the coefficients of
# z^0 ... z^6 (tests/test_integrate.py derives both from _TABLEAU).
_LINEAR = np.array((
    (1, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 2080),
    (0, 0, 0, 0, 0, -1 / 780, 1 / 2080),
))
_POWERS = np.arange(7.0)


def _rkf45_linear(generator, y0, t, options):
    krylov = np.empty((7, *y0.shape), dtype=y0.dtype)  # G^m y for m = 0 ... 6
    flat = krylov.reshape(7, -1)
    c = np.empty_like(_LINEAR)  # _LINEAR, column m scaled by h^m
    ends = np.empty((2, y0.size), dtype=y0.dtype)  # y5 and h * err
    krylov[0] = y0

    def trial(h, moved):
        if moved:  # a rejected step keeps the stack and rescales its coefficients
            for m in range(1, 7):
                np.dot(generator, krylov[m - 1], out=krylov[m])
        np.multiply(_LINEAR, h**_POWERS, out=c)
        np.dot(c, flat, out=ends)

    return _fehlberg(trial, flat[0], ends, t, options).reshape(y0.shape)


def _start(y0, t, options):
    """``y0`` as a complex or float array and the options (``None``: the
    default), once the span t is checked."""
    if not 0 <= t < math.inf:
        raise ValueError("integration time must be finite and nonnegative")
    y0 = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float)
    return y0, options or DEFAULT_OPTIONS


def _quietly(stepper, *args):
    # A trial step that overflows is rejected (rkf45) or left to the caller,
    # so the overflow itself needs no warning.  A warnings filter costs once
    # per solve; np.errstate would slow every ufunc of the field (~8 %).
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return stepper(*args)


def solve(field, y0: np.ndarray, t: float, options: IntegratorOptions | None = None) -> np.ndarray:
    """Integrate dy/dt = field(y) from 0 to a finite t >= 0.

    Under ``rk4``, ``y0`` may be a ``(B, d)`` batch of independent rows
    (the field must then act on the last axis); ``rkf45`` takes one row.
    A complex ``y0`` stays complex; any other is taken as float.  Raises
    ``IntegrationFailureError`` when the stepper gives up; a result that is
    not finite is returned for the caller to check, and a ``RuntimeWarning``
    on the way (numpy's overflow) is not shown.
    """
    y0, options = _start(y0, t, options)
    if options.method == "rkf45" and y0.ndim != 1:
        raise ValueError("rkf45 shares one step size across the state; pass one row")
    if t == 0.0:
        return y0.copy()
    return _quietly(_rk4 if options.method == "rk4" else _rkf45, field, y0, t, options)


def solve_linear(generator: np.ndarray, y0: np.ndarray, t: float,
                 options: IntegratorOptions | None = None) -> np.ndarray:
    """Integrate the linear field dy/dt = G y from 0 to a finite t >= 0.

    ``y0`` is one state: a row ``(D,)``, or a matrix ``(D, k)`` whose
    columns G acts on, stepped as one state (one shared step size, its error
    norm over all ``D k`` entries).  Under ``rkf45`` each trial step is
    Fehlberg's pair as a polynomial in ``hG`` over the stack ``G^m y``;
    under ``rk4`` the stages are products with G.  Errors, dtypes and
    warnings are those of :func:`solve`, and the steps those it takes for
    the field ``y -> G @ y``.
    """
    y0, options = _start(y0, t, options)
    generator = np.asarray(generator, dtype=np.result_type(generator, y0))
    if y0.ndim not in (1, 2) or generator.shape != (len(y0), len(y0)):
        raise ValueError(f"generator of shape {generator.shape} does not act on a state of "
                         f"shape {y0.shape}")
    y0 = y0.astype(generator.dtype, copy=False)
    if t == 0.0:
        return y0.copy()
    if options.method == "rk4":
        return _quietly(_rk4, lambda y: generator @ y, y0, t, options)
    return _quietly(_rkf45_linear, generator, y0, t, options)
