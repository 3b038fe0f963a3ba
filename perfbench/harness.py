"""Run one workload, check its outputs and report its metrics.

Untraced (``trace=False``) the run repeats passes in a closed loop for the
given seconds: each pass times a fixed calibration workload, sets up the mesh
and spaces several times, then times one continuation call.  It reports the
end-to-end metrics, with times scaled to a reference speed by the
calibration (see ``Calibration``).  Traced, it sets up once, then alternates
an untraced and a traced continuation call and reports the per-layer metrics;
the tracing overhead is the traced solve time minus the untraced one.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from flowshape import meshgen
from flowshape.flow import FlowParams, SolverError, dissipation, solve_state
from flowshape.kkt import KktParams, barycenter_residual, volume_residual
from flowshape.lagrangian import Spaces
from flowshape.mesh import MeshError, deform_mesh, signed_areas
from flowshape.optimize import ContinuationSchedule, run_direct, run_iterative
from flowshape.transform import element_kinematics

from tracing import Tracer, newton_steps, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 5
# Calibration time that defines one reference second (see ``Calibration``).
CAL_REF_S = 0.05
CONSTRAINT_TOL = 1e-7
INNER_CAP = 50          # run_iterative's default cap on passes per level

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_dissipation": "1",
}

PER_LAYER = {
    "meshgen.tunnel_mesh.s": "s",
    "lagrangian.Spaces.build.s": "s",
    "lagrangian.hessian_blocks.calls": "count",
    "lagrangian.hessian_blocks.self_s": "s",
    "lagrangian.gradient_blocks.calls": "count",
    "lagrangian.gradient_blocks.self_s": "s",
    "kkt.kkt_matrix.calls": "count",
    "kkt.kkt_matrix.self_s": "s",
    "kkt.kkt_matrix.nnz": "count",
    "kkt.kkt_residual.calls": "count",
    "kkt.kkt_residual.self_s": "s",
    "kkt.splu.calls": "count",
    "kkt.splu.s": "s",
    "kkt.splu.fill_nnz": "count",
    "kkt.lu_solve.calls": "count",
    "kkt.lu_solve.s": "s",
    "kkt.factorizations_per_step": "1",
    "kkt.solve_kkt.calls": "count",
    "kkt.solve_kkt.newton_steps": "count",
    "kkt.solve_kkt.failed": "count",
    "kkt.line_search.trials": "count",
    "kkt.line_search.full_step_ratio": "1",
    "flow.solve_state.calls": "count",
    "flow.solve_state.self_s": "s",
    "flow.solve_adjoint.calls": "count",
    "flow.solve_adjoint.self_s": "s",
    "flow.splu.calls": "count",
    "flow.splu.s": "s",
    "flow.dissipation.calls": "count",
    "flow.dissipation.s": "s",
    "optimize.levels": "count",
    "optimize.bisections": "count",
    "optimize.outer_iters": "count",
    "optimize.splu.calls": "count",
    "optimize.splu.s": "s",
    "optimize.diagnostics.s": "s",
    "transform.penalty_active_elements": "count",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}


# -- inputs -------------------------------------------------------------------
class Case:
    """A workload at one seed: the generated mesh and the continuation call."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.semi_axes = workload.obstacle(seed)
        self.params = KktParams(**workload.params)
        self.schedule = ContinuationSchedule(*workload.schedule)
        self.mesh = self.spaces = None

    def setup(self) -> float:
        t0 = time.perf_counter()
        # through the module, so that the tracer's rebinding applies
        self.mesh = meshgen.tunnel_mesh(semi_axes=self.semi_axes,
                                        **self.workload.mesh)
        self.spaces = Spaces.build(self.mesh)
        return time.perf_counter() - t0

    def solve(self):
        run = {"direct": run_direct, "iterative": run_iterative}[
            self.workload.method]
        return run(self.mesh, self.params, self.schedule,
                   spaces=self.spaces, **self.workload.options)

    @cached_property
    def initial_dissipation(self) -> float:
        return self.dissipation_at(np.zeros_like(self.mesh.vertices))

    def dissipation_at(self, w) -> float:
        """Dissipation of a fresh flow solve on the mesh deformed by ``w``."""
        fp = FlowParams(nu=self.params.nu, mu=self.params.mu,
                        delta=self.params.delta, inflow=self.params.inflow)
        state = solve_state(self.mesh, w, fp, self.spaces)
        return dissipation(self.mesh, w, state, self.params.nu)


# -- output checks ------------------------------------------------------------
def reference_dissipation(workload: str, seed: int) -> float | None:
    """Final dissipation recorded at the seed commit, if this seed has one."""
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    value = table.get(workload, {}).get(str(seed))
    return None if value is None else float(value)


def check_run(case: Case, y, log, ref: float | None) -> dict:
    """Named output checks of one finished continuation run (True = pass)."""
    wl, mesh, spaces = case.workload, case.mesh, case.spaces
    levels = case.schedule.levels()
    per_level = np.bincount([r.k for r in log.records], minlength=len(levels))
    checks = {"levels_done": bool(len(per_level) == len(levels)
                                  and np.all(per_level > 0))}
    if wl.method == "iterative":
        checks["inner_converged"] = bool(np.all(per_level < INNER_CAP))
    checks["volume"] = abs(volume_residual(mesh, y.w, spaces)) < CONSTRAINT_TOL
    checks["barycenter"] = bool(
        np.abs(barycenter_residual(mesh, y.w, spaces)).max() < CONSTRAINT_TOL)
    _, det, _ = element_kinematics(spaces.geo_ext, y.w)
    checks["min_det_positive"] = bool(det.min() > 0.0)
    try:
        moved = deform_mesh(mesh, y.w)
        checks["no_inverted_triangle"] = bool(
            np.all(signed_areas(moved.vertices, mesh.triangles) > 0.0))
    except MeshError:
        checks["no_inverted_triangle"] = False
    j = log.records[-1].dissipation
    if ref is not None:
        checks["dissipation_matches_reference"] = bool(
            abs(j - ref) <= wl.j_rtol * abs(ref))
    if wl.check_drop:
        checks["dissipation_drop"] = bool(
            case.dissipation_at(y.w) < case.initial_dissipation)
    if wl.outer_iters is not None:
        lo, hi = wl.outer_iters
        checks["outer_iters_in_range"] = lo <= log.total_iterations <= hi
    return checks


# -- environment record -------------------------------------------------------
def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- measurement --------------------------------------------------------------
class Calibration:
    """Times a fixed workload that runs no flowshape code.

    On a shared host the speed of a core drifts by tens of percent over
    minutes, with the load of other tenants.  ``solve_s`` and ``setup_s``
    are therefore wall times scaled by ``CAL_REF_S / t``, where ``t`` is this
    workload's time around the same pass: seconds on a machine that runs the
    calibration in ``CAL_REF_S``.  A change to flowshape does not touch the
    calibration, so it moves the scaled times as it moves the wall times.
    The kernel mixes the two kinds of work the program does: a SuperLU
    factorization and solve of a 2D Laplacian, and small-tensor einsum
    contractions.
    """

    def __init__(self):
        n = 110
        t = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sparse.identity(n)
        self.matrix = (sparse.kron(eye, t) + sparse.kron(t, eye)).tocsc()
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((30000, 3, 2))
        self.y = rng.standard_normal((30000, 3, 2))

    def _once(self) -> None:
        spla.splu(self.matrix).solve(np.ones(self.matrix.shape[0]))
        for _ in range(5):
            np.einsum("tla,tlb->tab", self.x, self.y).sum()

    def __call__(self) -> float:
        """Mean time of nine runs: the host's speed over about half a second,
        which follows its drift better than a single short sample."""
        t0 = time.perf_counter()
        for _ in range(9):
            self._once()
        return (time.perf_counter() - t0) / 9


def _quartiles(xs: list) -> dict:
    q = (statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3)
    return {"n": len(xs), "q1": q[0], "median": statistics.median(xs),
            "q3": q[2]}


def _closed_loop(seconds: float, one_pass) -> None:
    """Call ``one_pass`` until ``seconds`` would be exceeded (at least once).

    A new pass starts only when the previous one's duration still fits, so
    a run lasts about ``seconds`` rather than up to one pass longer.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def _timed_solve(case: Case):
    t0 = time.perf_counter()
    try:
        y, log = case.solve()
    except SolverError as exc:
        return time.perf_counter() - t0, None, None, repr(exc)
    return time.perf_counter() - t0, y, log, None


def _layer_metrics(tracer: Tracer, run: str, case: Case, y, log) -> dict:
    rows = summarize(tracer.spans, run)

    def row(name, key):
        return rows.get(name, {}).get(key, 0)

    spans = [s for s in tracer.spans if s.run == run]
    solves = [s for s in spans if s.name == "kkt.solve_kkt"]
    steps = newton_steps(tracer.spans, run)
    n_steps = sum(s.attrs.get("steps", sum(1 for t in steps
                                            if t["solve"] == s.id))
                  for s in solves)
    failed = sum("error" in s.attrs for s in solves)
    splus = [s.attrs["fill_nnz"] for s in spans if s.name == "kkt.splu"]
    nnz = [s.attrs["nnz"] for s in spans if s.name == "kkt.kkt_matrix"]
    _, det, _ = element_kinematics(case.spaces.geo_ext, y.w)
    m = {}
    for name in ("lagrangian.hessian_blocks", "lagrangian.gradient_blocks",
                 "kkt.kkt_matrix", "kkt.kkt_residual", "flow.solve_state",
                 "flow.solve_adjoint"):
        m[f"{name}.calls"] = row(name, "calls")
        m[f"{name}.self_s"] = row(name, "self_s")
    for name in ("kkt.splu", "kkt.lu_solve", "flow.splu", "flow.dissipation",
                 "optimize.splu"):
        m[f"{name}.calls"] = row(name, "calls")
        m[f"{name}.s"] = row(name, "s")
    m.update({
        "kkt.kkt_matrix.nnz": max(nnz, default=0),
        "kkt.splu.fill_nnz": max(splus, default=0),
        "kkt.factorizations_per_step": (row("kkt.splu", "calls") / n_steps
                                        if n_steps else 0.0),
        "kkt.solve_kkt.calls": len(solves),
        "kkt.solve_kkt.newton_steps": n_steps,
        "kkt.solve_kkt.failed": failed,
        "kkt.line_search.trials": sum(t["trials"] for t in steps),
        "kkt.line_search.full_step_ratio": (
            sum(t["full"] for t in steps) / len(steps) if steps else 0.0),
        "optimize.levels": len({r.k for r in log.records}),
        "optimize.bisections": failed,
        "optimize.outer_iters": log.total_iterations,
        "optimize.diagnostics.s": row("optimize.diagnostics", "s"),
        "transform.penalty_active_elements": int(
            np.sum(det < case.params.eta_det)),
    })
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result record (see ``print_result``)."""
    case = Case(WORKLOADS[workload_name], seed)
    ref = reference_dissipation(workload_name, seed)
    tracer = Tracer()
    runs, layer_runs, setup_samples, cals = [], [], [], []
    calibrate = Calibration()

    def finish(seconds_taken, y, log, err):
        if err is not None:
            runs.append({"wall_s": seconds_taken, "ok": False,
                         "error": err})
            return None
        checks = check_run(case, y, log, ref)
        runs.append({"wall_s": seconds_taken, "ok": all(checks.values()),
                     "checks": checks,
                     "final_dissipation": log.records[-1].dissipation,
                     "outer_iters": log.total_iterations,
                     "newton_iters": sum(r.newton_iters for r in log.records)})
        return y, log

    def untraced_pass():
        cals.append(calibrate())
        # set-ups spread over the run sample the machine as the solves do
        setup_samples.append([case.setup() for _ in range(SETUP_REPEATS)])
        return finish(*_timed_solve(case))

    def traced_pair():
        finish(*_timed_solve(case))
        untraced_s = runs[-1]["wall_s"]
        tracer.run = f"run-{len(layer_runs) + 1}"
        with tracer.installed():
            taken = _timed_solve(case)
        out = finish(*taken)   # checks run untraced
        traced_s = runs[-1]["wall_s"]
        runs[-1]["traced"] = True
        if out is not None:
            m = _layer_metrics(tracer, tracer.run, case, *out)
            m["trace.solve_s"] = traced_s
            m["trace.overhead_s"] = traced_s - untraced_s
            layer_runs.append(m)

    if trace:
        with tracer.installed():
            case.setup()
        _closed_loop(seconds, traced_pair)
    else:
        _closed_loop(seconds, untraced_pass)
        cals.append(calibrate())
        # each pass is scaled by the mean calibration before and after it
        for r, a, b in zip(runs, cals, cals[1:]):
            r["calibration_s"] = (a + b) / 2
            r["solve_s"] = r["wall_s"] * CAL_REF_S / r["calibration_s"]

    ok_runs = [r for r in runs if r["ok"]]
    failed = len(runs) - len(ok_runs)
    js = [r["final_dissipation"] for r in runs if "final_dissipation" in r]
    repeatable = all(abs(j - js[0]) <= 1e-12 * abs(js[0]) for j in js)
    result = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": trace, "semi_axes": list(case.semi_axes),
        "num_vertices": int(case.mesh.num_vertices),
        "reference_dissipation": ref,
        "environment": environment(seed),
        "runs": runs,
        "attempted": len(runs), "failed": failed,
        "failed_share": failed / len(runs),
        "repeatable": repeatable,
    }
    if trace:
        metrics = _median_layer_metrics(layer_runs)
        setup = summarize(tracer.spans, "setup")
        metrics["meshgen.tunnel_mesh.s"] = setup["meshgen.tunnel_mesh"]["s"]
        metrics["lagrangian.Spaces.build.s"] = (
            setup["lagrangian.Spaces.build"]["s"])
        result["complete_counts"] = _counts_complete(case, layer_runs)
        result["spans"] = [s.as_dict() for s in tracer.spans]
        result["metrics"] = {k: metrics.get(k) for k in PER_LAYER}
        result["units"] = PER_LAYER
    else:
        scales = [CAL_REF_S / r["calibration_s"] for r in runs]
        result["timings"] = t = {
            "solve_s": _quartiles([r["solve_s"] for r in runs]),
            "setup_s": _quartiles([x * f for xs, f in zip(setup_samples, scales)
                                   for x in xs]),
            "solve_wall_s": _quartiles([r["wall_s"] for r in runs]),
            "setup_wall_s": _quartiles([x for xs in setup_samples for x in xs]),
        }
        result["metrics"] = {
            "solve_s": t["solve_s"]["median"],
            "setup_s": t["setup_s"]["median"],
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "final_dissipation": js[-1] if js else None,
        }
        result["units"] = END_TO_END
    result["correct"] = bool(failed == 0 and repeatable
                             and result.get("complete_counts", True)
                             and all(v is not None
                                     for v in result["metrics"].values()))
    return result


def _median_layer_metrics(layer_runs: list) -> dict:
    """Median of each per-layer value over the traced runs."""
    if not layer_runs:
        return {}
    return {k: statistics.median(m[k] for m in layer_runs)
            for k in layer_runs[0]}


def _counts_complete(case: Case, layer_runs: list) -> bool:
    """Every traced run counts the same calls, and with the direct method each
    KKT assembly is followed by exactly one KKT factorization."""
    if not layer_runs:
        return False
    counts = [{k: v for k, v in m.items() if k.endswith(".calls")}
              for m in layer_runs]
    same = all(c == counts[0] for c in counts)
    if case.workload.method == "direct":
        same = same and all(m["kkt.splu.calls"] == m["kkt.kkt_matrix.calls"]
                            for m in layer_runs)
    return same


# -- reporting ----------------------------------------------------------------
def write_result(result: dict) -> Path:
    """Write the full record (with spans, when traced) under ``out/``."""
    OUT.mkdir(exist_ok=True)
    name = (f"{result['workload']}-seed{result['seed']}"
            f"-trace{int(result['trace'])}.json")
    path = OUT / name
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def print_result(result: dict, path: Path) -> None:
    """Human-readable lines, then the one-line JSON summary last."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"semi_axes {result['semi_axes'][0]:.4f} {result['semi_axes'][1]:.4f}"
          f"  vertices {result['num_vertices']}")
    timings = result.get("timings", {})
    for name, q in timings.items():
        print(f"  {name} = {q['median']:.6g} s  (median of {q['n']}; "
              f"q1 {q['q1']:.6g}, q3 {q['q3']:.6g})")
    for name, value in result["metrics"].items():
        if name not in timings:
            print(f"  {name} = {value} {result['units'][name]}")
    print(f"  failed_share = {result['failed_share']:.4f} 1  "
          f"({result['failed']} of {result['attempted']} runs)")
    for r in result["runs"]:
        bad = [k for k, v in r.get("checks", {}).items() if not v]
        if not r["ok"]:
            print(f"  FAILED run: {r.get('error') or ', '.join(bad)}")
    if not result["repeatable"]:
        print("  FAILED: repeated runs gave different final dissipation")
    if not result.get("complete_counts", True):
        print("  FAILED: traced call counts are incomplete or differ")
    print(f"  result file: {path.relative_to(ROOT)}")
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }
    print(json.dumps(summary))
