"""Set-up, closed loop, metrics and result line of the blochsig benchmark.

``run.py`` pins the BLAS threads and the import path before importing this
module.  One process runs one workload.  End-to-end metrics come from an
untraced run, with every timing scaled to a reference host speed (see
``hostspeed``); a traced run replays fixed rounds and reports per layer in
plain seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import spans
import workloads
from blochsig.su_basis import cached_basis, cached_constants

# Kept out of every run while a benchmark change is being written, so that a
# claimed gain can be confirmed on inputs nobody tuned against.
HELDOUT_SEED = 7919
# Set-up is sampled this many times per run (this process plus fresh child
# processes spread evenly over the timed loop) and reported as the median.
SETUP_SAMPLES = 5
# The host-speed kernel is timed again after at least this much op time.
KERNEL_EVERY_S = 1.0
# Rounds replayed by a traced run: fixed, so its counts repeat exactly.
TRACE_ROUNDS = {"evolve_joint": 3, "audit_linear": 1, "audit_nonlinear": 1}
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    durations: list = field(default_factory=list)
    fingerprints: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return len(self.failures)


def environment(root: Path) -> dict:
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _git_sha(root: Path) -> str | None:
    """HEAD commit from ``.git`` in the checkout; None in a plain export."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "blochsig").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def peak_rss_mb() -> float:
    """High-water resident set of this process image (VmHWM).

    ``ru_maxrss`` would also carry the peak of the process that spawned this
    one, because Linux keeps it across exec.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    first_round: list
    setup_s: float
    kernel_s: float
    layers: dict
    warmup: Tally


def setup(workload, seed: int, size, workdir: Path, t_start: float) -> Prepared:
    """Basis and structure constants, round-0 inputs and one warm-up op."""
    t0 = perf_counter()
    calls = 0
    for n in sorted({n for dims in workload.dims_in_use(size) for n in dims}):
        cached_basis(n)
        cached_constants(n)
        calls += 2
    t1 = perf_counter()
    first_round = workload.make_round(seed, 0, size, workdir)
    t2 = perf_counter()
    warmup = Tally()
    run_round(first_round[:1], warmup)
    layers = {"su_basis.calls": calls, "su_basis.time_s": t1 - t0, "sampling.time_s": t2 - t1}
    setup_s = perf_counter() - t_start
    return Prepared(first_round, setup_s, hostspeed.kernel_seconds(), layers, warmup)


def run_round(ops, tally: Tally, tracer: spans.Tracer | None = None) -> None:
    """Run each op to completion (one client), then check it untimed."""
    for op in ops:
        scope = tracer.operation() if tracer else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with scope:
                result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.durations.append(perf_counter() - t0)
            tally.fingerprints.append(None)
            tally.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        tally.durations.append(perf_counter() - t0)
        try:
            ok, fingerprint = op.check(result)
            reason = "check failed"
        except Exception as exc:  # e.g. the CLI wrote no report
            ok, fingerprint, reason = False, None, f"check raised {type(exc).__name__}: {exc}"
        tally.fingerprints.append(fingerprint)
        if not ok:
            tally.failures.append(f"{op.label}: {reason}")


def _setup_sample(args, root: Path) -> tuple[float, float]:
    """Set-up time and kernel time of a fresh child process."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=150,
                         check=True)
    sample = json.loads(out.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["kernel_s"]


def _measure(args, workload, size, workdir, root: Path,
             prep: Prepared) -> tuple[Tally, dict, dict]:
    """Run whole rounds for ``args.seconds``, one op at a time.

    The host-speed kernel is timed before the first op and again after every
    ``KERNEL_EVERY_S`` of op time; each op is scaled by the mean of the two
    kernel times around it.  Set-up is sampled again in child processes at
    even steps of the loop, so set-up and ops see the same host phases; the
    time the children take does not count towards ``args.seconds``.
    """
    tally = Tally()
    setups = [(prep.setup_s, prep.kernel_s)]
    kernels = [prep.kernel_s]
    scaled = []
    pending = 0  # ops timed since the last kernel measurement
    children_s = 0.0
    ops, rounds = prep.first_round, 0
    start = perf_counter()

    def rescale():
        nonlocal pending
        kernels.append(hostspeed.kernel_seconds())
        f = hostspeed.factor((kernels[-2] + kernels[-1]) / 2.0)
        scaled.extend(f * d for d in tally.durations[len(tally.durations) - pending:])
        pending = 0

    while True:
        for op in ops:
            run_round([op], tally)
            pending += 1
            if sum(tally.durations[len(tally.durations) - pending:]) >= KERNEL_EVERY_S:
                rescale()
        rounds += 1
        elapsed = perf_counter() - start - children_s
        while (len(setups) < SETUP_SAMPLES
               and elapsed >= args.seconds * len(setups) / SETUP_SAMPLES):
            t0 = perf_counter()
            setups.append(_setup_sample(args, root))
            children_s += perf_counter() - t0
        if elapsed >= args.seconds:
            break
        ops = workload.make_round(args.seed, rounds, size, workdir)
    if pending:
        rescale()
    wall = perf_counter() - start
    done = tally.attempted - tally.failed
    ms = sorted(1e3 * d for d in scaled)
    raw_ms = sorted(1e3 * d for d in tally.durations)
    setup_scaled = [s * hostspeed.factor(k) for s, k in setups]
    metrics = {
        "ops_per_s": done / sum(scaled),
        "op_p50_ms": statistics.median(ms),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "rounds": rounds,
        "ops": tally.attempted,
        "loop_wall_s": wall,
        "op_busy_s": sum(tally.durations),
        "op_ms": [1e3 * d for d in scaled],
        "fail_ratio": tally.failed / tally.attempted,
        # Needs >= 10 samples beyond it; otherwise not reported.
        "op_p90_ms": (statistics.quantiles(ms, n=10)[-1]
                      if len(ms) >= P90_MIN_SAMPLES else None),
        "setup_samples_s": setup_scaled,
        "host_kernel_s": {"reference": hostspeed.REFERENCE_S,
                          "median": statistics.median(kernels),
                          "min": min(kernels), "max": max(kernels), "n": len(kernels)},
        # The same figures in plain wall time, not scaled to the reference speed.
        "unscaled": {
            "ops_per_s": done / sum(tally.durations),
            "op_p50_ms": statistics.median(raw_ms),
            "setup_s": statistics.median(s for s, _ in setups),
        },
    }
    return tally, metrics, extra


def _trace(args, workload, size, workdir, prep: Prepared, root: Path):
    rounds = [prep.first_round] + [
        workload.make_round(args.seed, i, size, workdir)
        for i in range(1, 1 if args.tiny else TRACE_ROUNDS[args.workload])
    ]
    plain, traced = Tally(), Tally()
    tracer = spans.Tracer()
    # Each op runs untraced and then traced, back to back, so both sides of
    # the overhead ratio see the same contention from other tenants.
    for op in (op for ops in rounds for op in ops):
        run_round([op], plain)
        with tracer.installed():
            run_round([op], traced, tracer)
    overhead = sum(traced.durations) / sum(plain.durations)
    table = spans.layer_table(tracer, prep.layers, overhead)
    path = root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(path, table)
    for name, entry in table.items():
        print(f"{name:<36} {entry['value']:>16.6g} {entry['unit']}")
    print("self-time share by span:")
    for name, share in spans.self_time_shares(tracer).items():
        print(f"  {name:<42} {share:7.1%}")
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(root)}")
    same = plain.fingerprints == traced.fingerprints
    if not same:
        print("FAIL traced outputs differ from untraced outputs")
    merged = Tally(plain.durations + traced.durations, [],
                   plain.failures + traced.failures)
    extra = {"rounds": len(rounds), "ops": plain.attempted, "outputs_identical": same}
    return merged, {k: v["value"] for k, v in table.items()}, extra, same


def main(args, root: Path, t_start: float) -> int:
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.TINY if args.tiny else workloads.FULL
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"{args.workload}-") as tmp:
        workdir = Path(tmp)
        prep = setup(workload, args.seed, size, workdir, t_start)
        if args.setup_only:
            print(json.dumps({"setup_s": prep.setup_s, "kernel_s": prep.kernel_s}))
            return 0
        if args.trace:
            tally, values, extra, same = _trace(args, workload, size, workdir, prep, root)
            units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
        else:
            tally, values, extra = _measure(args, workload, size, workdir, root, prep)
            units = END_TO_END_UNITS
            same = True
    failures = prep.warmup.failures + tally.failures
    for line in failures:
        print(f"FAIL {line}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "client": "closed loop, 1 client",
        "environment": environment(root),
        "metrics": metrics,
        **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures and same,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0
