"""Benchmark entry point.

    python3 perfbench/run.py --workload direct-circle --seed 0 --seconds 40 --trace 0

runs one workload in this process and prints its metrics, one per line with
its unit, then a one-line JSON summary as the last line.  ``--trace 1``
reports the per-layer metrics of a traced run instead of the end-to-end ones.
Without ``--workload`` every benchmark workload runs, one after the other,
each in a fresh process.  The full record of each run, with an environment
record and, when traced, every span, is written to ``perfbench/out/``.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# BLAS and OpenMP read these when NumPy loads: one thread per process.
THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                            "NUMEXPR_NUM_THREADS")}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload; default: all of them")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _run_all(args) -> int:
    from workloads import BENCHMARK_WORKLOADS
    status = 0
    for name in BENCHMARK_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def _import_program():
    """Import flowshape from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "flowshape" / "__init__.py").is_file():
        sys.exit(f"error: no flowshape sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flowshape
    if Path(flowshape.__file__).resolve().parent != SRC / "flowshape":
        sys.exit(f"error: flowshape imported from {flowshape.__file__}")


def main(argv=None) -> int:
    args = _args(argv)
    os.environ.update(THREADS)
    if args.workload is None:
        return _run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    _import_program()
    import harness
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    harness.print_result(result, harness.write_result(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
