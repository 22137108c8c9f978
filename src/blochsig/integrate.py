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
  row takes the steps its real part takes.
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

# Fehlberg tableau.
_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8, 3680 / 513, -845 / 4104),
    (-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
# b5 - b4: local truncation error estimate of the propagated solution.
_E = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)
# Stage s takes y + h * (_A_ROWS[s] @ k[:s]); one product gives the
# propagated increment and the error estimate.
_A_ROWS = tuple(np.array(row) for row in _A)
_B5_E = np.array((_B5, _E))


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


def _rkf45(field, y, t, options):
    k = np.empty((6, y.size), dtype=y.dtype)  # the six stages, one row each
    x = 0.0
    hmin = 1e-14 * t  # relative to the span, so a short span's first step clears it
    h = min(t, max(options.step, 1e-6, hmin))  # and a long span's first step is not below it
    for _ in range(options.max_steps):
        if x >= t:
            return y
        h = min(h, t - x)
        if h < hmin:
            raise IntegrationFailureError(f"step size underflow at t={x:.6g} (h={h:.3e})")
        k[0] = field(y)
        for s in range(1, 6):
            k[s] = field(y + h * (_A_ROWS[s] @ k[:s]))
        increment, err = _B5_E @ k
        y5 = y + h * increment
        q = h * err.real / (options.atol + options.rtol * np.maximum(np.abs(y.real),
                                                                     np.abs(y5.real)))
        # A NaN norm fails the test below and shrinks the step by 0.2.
        errnorm = math.sqrt(q @ q / q.size)
        if errnorm <= 1.0:
            x += h
            y = y5
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
