"""Tracing from outside the library: wrappers, spans and the per-layer table.

The tracer replaces public functions at the module attributes their callers
look up at call time, records one span per call, and puts the original
attributes back afterwards.  Nothing under ``src/`` knows about it.

Field evaluations are too many to keep one span each (a nonlinear audit makes
~10^5 of them), so the ``field`` callable handed to ``integrate.solve`` is
wrapped too and its calls are counted and timed on the enclosing solve span.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  Each attribute is the one the caller reads
# at call time: ``dynamics`` calls ``integrate.solve``, ``measurement`` calls
# ``dynamics.reduced_flow``, ``nosignal_audit`` calls its own module globals,
# ``cli`` calls its imported ``audit`` and ``jsonio.dumps``, and the benchmark
# calls ``cli.main``, ``nosignal_audit.audit`` and
# ``nosignal_audit.signaling_channel_demo``.
TARGETS = (
    ("blochsig.integrate", "solve", "integrate.solve"),
    ("blochsig.dynamics", "reduced_flow", "dynamics.reduced_flow"),
    ("blochsig.nosignal_audit", "local_distribution", "measurement.local_distribution"),
    ("blochsig.nosignal_audit", "joint_from_bloch", "bloch.joint_from_bloch"),
    ("blochsig.nosignal_audit", "d_remote_state", "nosignal_audit.d_remote_state"),
    ("blochsig.nosignal_audit", "d_correlations", "nosignal_audit.d_correlations"),
    ("blochsig.nosignal_audit", "d_remote_observable", "nosignal_audit.d_remote_observable"),
    ("blochsig.nosignal_audit", "reduced_propagator_fit", "dynamics.reduced_propagator_fit"),
    ("blochsig.nosignal_audit", "audit", "nosignal_audit.audit"),
    ("blochsig.nosignal_audit", "signaling_channel_demo", "nosignal_audit.signaling_channel_demo"),
    ("blochsig.cli", "audit", "nosignal_audit.audit"),
    ("blochsig.cli", "main", "cli.main"),
    ("blochsig.jsonio", "dumps", "jsonio.dumps"),
)

FD_SPANS = (
    "nosignal_audit.d_remote_state",
    "nosignal_audit.d_correlations",
    "nosignal_audit.d_remote_observable",
)

# Per-layer metrics: name -> (unit, better).
LAYER_METRICS = {
    "dynamics.field_evals": ("count", "lower"),
    "dynamics.field_s": ("s", "lower"),
    "dynamics.us_per_field_eval": ("us", "lower"),
    "integrate.solves": ("count", "lower"),
    "integrate.self_s": ("s", "lower"),
    "integrate.evals_per_solve": ("count", "lower"),
    "bloch.physicality_checks": ("count", "lower"),
    "bloch.self_s": ("s", "lower"),
    "bloch.us_per_check": ("us", "lower"),
    "measurement.branch_propagations": ("count", "lower"),
    "measurement.self_s": ("s", "lower"),
    "measurement.us_per_propagation": ("us", "lower"),
    "dynamics.reduced_flows_built": ("count", "lower"),
    "dynamics.fit_s": ("s", "lower"),
    "nosignal_audit.fd_components": ("count", "lower"),
    "nosignal_audit.ok_ratio": ("ratio", "higher"),
    "nosignal_audit.infeasible": ("count", "lower"),
    "nosignal_audit.self_s": ("s", "lower"),
    "nosignal_audit.us_per_component": ("us", "lower"),
    "su_basis.calls": ("count", "lower"),
    "su_basis.time_s": ("s", "lower"),
    "sampling.time_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "jsonio.dumps_s": ("s", "lower"),
    "jsonio.bytes": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    status: str = "ok"
    field_evals: int = 0
    field_s: float = 0.0
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``installed()`` swaps the wrappers in and out."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = 0

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self):
        """Root span of one benchmark operation; its spans share an op id."""
        self.op += 1
        span = self._open("op")
        try:
            yield
        except BaseException as exc:
            span.status = type(exc).__name__
            raise
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.status = type(exc).__name__
                raise
            finally:
                self._close(span)
            if isinstance(result, str):
                span.nbytes = len(result.encode("utf-8"))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_solve(self, solve):
        def traced_solve(field, y0, t, options=None):
            span = self._open("integrate.solve")

            def counted_field(y):
                t0 = perf_counter()
                out = field(y)
                span.field_s += perf_counter() - t0
                span.field_evals += 1
                return out

            try:
                return solve(counted_field, y0, t, options)
            except BaseException as exc:
                span.status = type(exc).__name__
                raise
            finally:
                self._close(span)

        traced_solve.__wrapped__ = solve
        return traced_solve

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                if name == "integrate.solve":
                    setattr(module, attr, self._wrap_solve(original))
                else:
                    setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Duration minus the time covered by child spans and field calls."""
        covered = [span.field_s for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def write(self, path: Path, table: dict) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        columns = ["name", "start_s", "end_s", "parent", "op", "status",
                   "field_evals", "field_s", "bytes"]
        rows = [
            [s.name, s.start - origin, s.end - origin, s.parent, s.op, s.status,
             s.field_evals, s.field_s, s.nbytes]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"per_layer": table, "columns": columns, "spans": rows}),
            encoding="utf-8",
        )


def _per(total: float, count: int, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def layer_table(tracer: Tracer, setup_layers: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``setup_layers`` holds the set-up figures the benchmark times around its
    own calls (``su_basis.*``, ``sampling.time_s``).
    """
    spans = tracer.spans
    self_s = tracer.self_times()

    def pick(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    solves = pick("integrate.solve")
    evals = sum(spans[i].field_evals for i in solves)
    field_s = sum(spans[i].field_s for i in solves)
    checks = pick("bloch.joint_from_bloch")
    props = pick("measurement.local_distribution")
    flows = pick("dynamics.reduced_flow")
    fits = pick("dynamics.reduced_propagator_fit")
    fds = pick(*FD_SPANS)
    audits = pick("nosignal_audit.audit")
    infeasible = sum(spans[i].status == "PerturbationInfeasibleError" for i in fds)
    ok = sum(spans[i].status == "ok" for i in fds)
    dumps = pick("jsonio.dumps")

    values = {
        "dynamics.field_evals": evals,
        "dynamics.field_s": field_s,
        "dynamics.us_per_field_eval": _per(field_s, evals, 1e6),
        "integrate.solves": len(solves),
        "integrate.self_s": sum(self_s[i] for i in solves),
        "integrate.evals_per_solve": _per(evals, len(solves)),
        "bloch.physicality_checks": len(checks),
        "bloch.self_s": sum(self_s[i] for i in checks),
        "bloch.us_per_check": _per(sum(spans[i].duration for i in checks), len(checks), 1e6),
        "measurement.branch_propagations": len(props),
        "measurement.self_s": sum(self_s[i] for i in props),
        "measurement.us_per_propagation": _per(
            sum(spans[i].duration for i in props), len(props), 1e6
        ),
        "dynamics.reduced_flows_built": len(flows),
        "dynamics.fit_s": sum(spans[i].duration for i in fits),
        "nosignal_audit.fd_components": len(fds),
        "nosignal_audit.ok_ratio": _per(ok, len(fds)),
        "nosignal_audit.infeasible": infeasible,
        "nosignal_audit.self_s": sum(self_s[i] for i in fds + audits),
        "nosignal_audit.us_per_component": _per(
            sum(spans[i].duration for i in fds), len(fds), 1e6
        ),
        "su_basis.calls": setup_layers["su_basis.calls"],
        "su_basis.time_s": setup_layers["su_basis.time_s"],
        "sampling.time_s": setup_layers["sampling.time_s"],
        "cli.self_s": sum(self_s[i] for i in pick("cli.main")),
        "jsonio.dumps_s": sum(spans[i].duration for i in dumps),
        "jsonio.bytes": sum(spans[i].nbytes for i in dumps),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()}


def self_time_shares(tracer: Tracer) -> dict:
    """Share of all traced self time per span name (for the printed table)."""
    totals: dict[str, float] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        totals[span.name] = totals.get(span.name, 0.0) + own
    for span in tracer.spans:
        if span.field_evals:
            totals["dynamics.field"] = totals.get("dynamics.field", 0.0) + span.field_s
    grand = sum(totals.values()) or 1.0
    return {name: t / grand for name, t in sorted(totals.items(), key=lambda kv: -kv[1])}
