"""Map how deep the direct continuation gets, seed by seed.

    python3 tools/deep_alpha_map.py [--seed K ...] [--output DEEP_ALPHA_MAP.json]

runs ``run_direct`` on the mesh and parameters of the ``direct-circle``
benchmark workload (``perfbench/workloads.py``), from alpha 1e-4 down to
1e-10 by factors of 10, once per seed (default 0 to 31; seed k > 0 jitters
both semi-axes of the obstacle).  The record, printed or written to
``--output``, holds per seed:

- ``semi_axes`` and ``a_over_b``, the streamwise over the cross-stream
  semi-axis;
- ``converged`` (every level) and ``last_converged_alpha`` (None when the
  first level fails);
- ``failure``: the ``SolverError`` kind and message, or None;
- ``cycling``: for a stall whose determinant-penalty active set cycles, the
  element(s) at the kink that the ``SolverError`` names, each with its
  index among the extension elements and the centroid of its reference
  triangle, else an empty list;
- ``min_det``: the smallest det(DF) over the extension elements at the
  last converged level;
- ``solve_kkt_attempts``: the calls of ``solve_kkt``, bisection midpoints
  and failed attempts included;
- ``wall_s``: the wall time of the ``run_direct`` call.

``converged`` in the header counts the seeds that converge at every level.
One seed takes one to seven seconds, so the map takes about two minutes;
it does not belong in the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import flowshape.optimize as optimize  # noqa: E402
from flowshape import meshgen  # noqa: E402
from flowshape.kkt import KktParams  # noqa: E402
from flowshape.lagrangian import Spaces  # noqa: E402
from flowshape.newton import SolverError  # noqa: E402
from flowshape.transform import element_kinematics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD = "direct-circle"
ALPHA_INIT, ALPHA_DEC, ALPHA_TARGET = 1e-4, 0.1, 1e-10


class _Watch:
    """Counts the ``solve_kkt`` calls of one run and keeps, per alpha, the
    min det of its last successful solve."""

    def __init__(self):
        self.attempts = 0
        self.min_det = {}
        self._solve = optimize.solve_kkt

    def __enter__(self):
        def solve(mesh, y, params, spaces=None, *args, **kwargs):
            self.attempts += 1
            y, history = self._solve(mesh, y, params, spaces, *args, **kwargs)
            _, det, _ = element_kinematics(spaces.geo_ext, y.w)
            self.min_det[params.alpha] = float(det.min())
            return y, history

        optimize.solve_kkt = solve
        return self

    def __exit__(self, *exc):
        optimize.solve_kkt = self._solve


def map_seed(seed: int) -> dict:
    wl = WORKLOADS[WORKLOAD]
    a, b = wl.obstacle(seed)
    mesh = meshgen.tunnel_mesh(semi_axes=(a, b), **wl.mesh)
    spaces = Spaces.build(mesh)
    params = KktParams(**wl.params)
    schedule = optimize.ContinuationSchedule(ALPHA_INIT, ALPHA_DEC,
                                             ALPHA_TARGET)
    failure, cycling = None, []
    with _Watch() as watch:
        t0 = time.perf_counter()
        try:
            _, log = optimize.run_direct(mesh, params, schedule, spaces)
        except SolverError as err:
            log = err.log
            failure = {"kind": err.kind, "message": str(err)}
            cycling = [{"element": e,
                        "centroid": spaces.geo_ext.centroid[e].tolist()}
                       for e in err.cycling]
        wall = time.perf_counter() - t0
    last = log.records[-1].alpha if log.records else None
    return {
        "seed": seed,
        "semi_axes": [a, b],
        "a_over_b": a / b,
        "converged": failure is None,
        "last_converged_alpha": last,
        "failure": failure,
        "cycling": cycling,
        "min_det": None if last is None else watch.min_det[last],
        "solve_kkt_attempts": watch.attempts,
        "wall_s": round(wall, 3),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", action="append", type=int)
    ap.add_argument("--output", type=Path)
    args = ap.parse_args(argv)
    seeds = args.seed if args.seed is not None else list(range(32))
    if min(seeds) < 0:
        ap.error("seeds must be >= 0")
    rows = []
    for seed in seeds:
        row = map_seed(seed)
        rows.append(row)
        outcome = ("converged" if row["converged"]
                   else row["failure"]["message"][:60])
        print(f"seed {seed:2d}  a/b {row['a_over_b']:.4f}  last "
              f"{row['last_converged_alpha']}  {row['wall_s']:6.2f} s  "
              f"{outcome}", file=sys.stderr)
    record = {
        "description": (f"run_direct on the {WORKLOAD} workload's mesh and "
                        f"parameters, alpha {ALPHA_INIT:g} down to "
                        f"{ALPHA_TARGET:g} by {ALPHA_DEC:g}, one run "
                        "per seed"),
        "command": "python3 tools/deep_alpha_map.py " + " ".join(
            sys.argv[1:] if argv is None else argv),
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "cpu_count": os.cpu_count(),
                        "machine": platform.machine()},
        "converged": sum(row["converged"] for row in rows),
        "seeds": rows,
    }
    text = json.dumps(record, indent=1)
    if args.output is None:
        print(text)
    else:
        args.output.write_text(text + "\n")
        print(f"{record['converged']} of {len(rows)} seeds converged; "
              f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
