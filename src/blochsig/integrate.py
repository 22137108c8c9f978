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
  one ``(7, D)`` stack holding the state and the six stages: the tableau
  is scaled by h once, each stage input is one product of its scaled row
  with the rows above it, and one ``(2, 7)`` product gives the propagated
  solution and h times the error estimate.  The stack and the other
  buffers are built once per solve; the field only ever receives a fresh
  array, and the result is one too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import IntegrationFailureError

__all__ = ["IntegratorOptions", "DEFAULT_OPTIONS", "solve", "rk4_continues"]


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
# then the six stages): rows 0-5 give the input of each stage, row 6 the
# propagated (5th-order) solution and row 7 the local error estimate
# b5 - b4.  Scaled by h once per step, with the state's column kept at 1
# (0 in the error row), stage s is ``c[s, :s+1] @ yk[:s+1]``.
_TABLEAU = np.array((
    (0, 0, 0, 0, 0, 0, 0),
    (0, 1 / 4, 0, 0, 0, 0, 0),
    (0, 3 / 32, 9 / 32, 0, 0, 0, 0),
    (0, 1932 / 2197, -7200 / 2197, 7296 / 2197, 0, 0, 0),
    (0, 439 / 216, -8, 3680 / 513, -845 / 4104, 0, 0),
    (0, -8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40, 0),
    (0, 16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55),
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


def _rkf45(field, y0, t, options):
    n = y0.size
    yk = np.empty((7, n), dtype=y0.dtype)  # the state, then the six stages
    c = np.empty((8, 7))  # the tableau scaled by the step
    ends = np.empty((2, n), dtype=y0.dtype)  # y5 and h * err
    ay, a5, q = np.empty((3, n))  # |y|, |y5| and the scaled error, real parts only
    y, y5, final = yk[0], ends[0], c[6:]
    y5_real, err_real = ends.real  # only real parts set the step
    stages = [(c[s, : s + 1], yk[: s + 1], yk[s + 1]) for s in range(6)]
    y[...] = y0
    np.abs(y.real, out=ay)
    x = 0.0
    hmin = 1e-14 * t  # relative to the span, so a short span's first step clears it
    h = min(t, max(options.step, 1e-6, hmin))  # and a long span's first step is not below it
    for _ in range(options.max_steps):
        if x >= t:
            return y.copy()
        h = min(h, t - x)
        if h < hmin:
            raise IntegrationFailureError(f"step size underflow at t={x:.6g} (h={h:.3e})")
        np.multiply(_TABLEAU, h, out=c)
        c[:7, 0] = 1.0  # the state's column; the error row keeps its 0
        # Each stage input is a fresh product, so the field never holds a
        # buffer that a later stage or step overwrites.
        for weights, done, stage in stages:
            stage[...] = field(np.dot(weights, done))
        np.dot(final, yk, out=ends)
        np.abs(y5_real, out=a5)
        np.maximum(ay, a5, out=q)
        q *= options.rtol
        q += options.atol
        np.divide(err_real, q, out=q)
        # A NaN norm fails the test below and shrinks the step by 0.2.
        errnorm = math.sqrt(q @ q / n)
        if errnorm <= 1.0:
            x += h
            y[...] = y5
            ay, a5 = a5, ay
        factor = 5.0 if errnorm == 0.0 else 0.9 * errnorm ** (-0.2)
        h *= min(5.0, max(0.2, factor))
    raise IntegrationFailureError(f"max_steps={options.max_steps} exceeded at t={x:.6g}")


def solve(field, y0: np.ndarray, t: float, options: IntegratorOptions | None = None) -> np.ndarray:
    """Integrate dy/dt = field(y) from 0 to a finite t >= 0.

    Under ``rk4``, ``y0`` may be a ``(B, d)`` batch of independent rows
    (the field must then act on the last axis); ``rkf45`` takes one row.
    A complex ``y0`` stays complex; any other is taken as float.  Raises
    ``IntegrationFailureError`` when the stepper gives up; a result that is
    not finite is returned for the caller to check, and a ``RuntimeWarning``
    on the way (numpy's overflow) is not shown.
    """
    if not 0 <= t < math.inf:
        raise ValueError("integration time must be finite and nonnegative")
    options = options or DEFAULT_OPTIONS
    y0 = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float)
    if options.method == "rkf45" and y0.ndim != 1:
        raise ValueError("rkf45 shares one step size across the state; pass one row")
    if t == 0.0:
        return y0.copy()
    stepper = _rk4 if options.method == "rk4" else _rkf45
    # A trial step that overflows is rejected (rkf45) or left to the caller,
    # so the overflow itself needs no warning.  A warnings filter costs once
    # per solve; np.errstate would slow every ufunc of the field (~8 %).
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return stepper(field, y0, t, options)
