"""Benchmark entry point: one workload, one closed-loop client, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload evolve_joint --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
replays a fixed number of rounds, each op untraced and then traced, and
reports the per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The library
is imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Tiny problems: extra BLAS threads only add hand-off cost, and one thread
# keeps the reductions in a fixed order.  Always <= nproc.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("evolve_joint", "audit_linear", "audit_nonlinear"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes (for the benchmark's own tests)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (internal)")
    return p.parse_args(argv)


def _import_library() -> None:
    """Make ``import blochsig`` resolve to this checkout's sources only."""
    init = SRC / "blochsig" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no blochsig sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import blochsig

    if Path(blochsig.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: blochsig imported from {blochsig.__file__}, not {init}")


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    _import_library()
    import bench

    return bench.main(args, ROOT, T_START)


if __name__ == "__main__":
    sys.exit(main())
