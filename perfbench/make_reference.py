"""Record the final dissipation of each benchmark workload for seeds 0..N-1.

    python3 perfbench/make_reference.py --seeds 32

The values go to ``perfbench/reference.json``.  Run it only on the commit
whose results are the reference: the harness checks every later run of a
recorded seed against them, within the workload's ``j_rtol``.
"""

import argparse
import json
import os
import sys

from run import THREADS, _import_program


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=32)
    ap.add_argument("--workload", action="append",
                    help="limit to this workload (repeatable)")
    args = ap.parse_args(argv)
    os.environ.update(THREADS)
    _import_program()
    import harness
    from workloads import BENCHMARK_WORKLOADS, WORKLOADS

    path = harness.REFERENCE
    for name in args.workload or BENCHMARK_WORKLOADS:
        for seed in range(args.seeds):
            case = harness.Case(WORKLOADS[name], seed)
            case.setup()
            _, log = case.solve()
            value = log.records[-1].dissipation
            print(f"{name} seed {seed}: {value!r}", flush=True)
            # merge into the file as it is now: several of these may run
            table = json.loads(path.read_text()) if path.exists() else {}
            table.setdefault(name, {})[str(seed)] = value
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
