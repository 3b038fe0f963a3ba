"""Outer continuation drivers and parameter-sweep harnesses.

Two strategies shrink the control regularization alpha geometrically and
warm-start each level from the previous one.  The direct driver solves the
monolithic optimality system once per level.  The iterative driver replaces
that solve by a fixpoint sweep: flow state, adjoint, then the shape subsystem
(deformation, boundary datum, control and the geometric multipliers) with the
flow fields frozen, repeated until the control stops moving; each pass
is solved only to the accuracy of that stop test, and one more shape solve
and flow solves at its deformation finish the result.  The direct driver
solves every level but the last only as far as the next level's start
needs it.  Both call
:func:`flowshape.kkt.solve_kkt`: the direct driver on all eleven blocks, the
iterative one on the seven blocks of the shape subsystem.  Within one driver
call, factorizations are handed on by the rule of :mod:`flowshape.newton`:
the KKT factorization from level to level (moved exactly to the new
alpha), and in the iterative driver the shape factorization from pass to
pass and the flow factorization from each state solve to the adjoint
solve and the next state solve.  Nothing is kept between calls, so a
repeated call repeats its results bit for bit.  Sweep harnesses
rerun the optimization over ranges of the extension strength or the
determinant threshold and tabulate mesh quality and penalty activity.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .flow import SolverError, solve_adjoint, solve_state
from .kkt import KktParams, KktVector, penalty_active_set, solve_kkt
from .lagrangian import Spaces, control_spaces, gradient_blocks, value_terms
from .mesh import Mesh, worst_quality
from .newton import Kept

__all__ = [
    "ContinuationSchedule", "RunRecord", "RunLog", "run_direct",
    "run_iterative", "quality_sweep", "det_sweep",
]

_SHAPE_BLOCKS = ("w", "b", "c", "lam_w", "lam_b", "lam_vol", "lam_bc")


@dataclass(frozen=True)
class ContinuationSchedule:
    """Geometric alpha sequence alpha_init * alpha_dec**k down to alpha_target."""

    alpha_init: float = 1e-4
    alpha_dec: float = 0.1
    alpha_target: float = 1e-10

    def __post_init__(self):
        if not self.alpha_init > 0.0:
            raise ValueError("alpha_init must be positive")
        if not 0.0 < self.alpha_dec < 1.0:
            raise ValueError("alpha_dec must lie in (0, 1)")
        if not 0.0 < self.alpha_target <= self.alpha_init:
            raise ValueError("alpha_target must lie in (0, alpha_init]")

    def levels(self) -> list:
        alphas, a = [], self.alpha_init
        while a >= self.alpha_target * (1.0 - 1e-12):
            alphas.append(a)
            a *= self.alpha_dec
        return alphas


@dataclass(frozen=True)
class RunRecord:
    """One logged iteration of a continuation run."""

    k: int
    ell: int
    alpha: float
    objective: float
    dissipation: float
    penalty: float
    control_norm: float
    volume_residual: float
    barycenter_residual: tuple
    newton_iters: int
    wall_time: float

    def as_line(self) -> str:
        bx, by = self.barycenter_residual
        return (f"{self.k} {self.ell} {self.alpha:.6e} {self.objective:.10e} "
                f"{self.dissipation:.10e} {self.penalty:.6e} "
                f"{self.control_norm:.6e} {self.volume_residual:.3e} "
                f"{bx:.3e} {by:.3e} {self.newton_iters} {self.wall_time:.3f}")


@dataclass
class RunLog:
    """Append-only trace of a continuation run."""

    records: list = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return self.records[-1].ell if self.records else 0

    def write(self, path) -> None:
        header = ("k ell alpha objective dissipation penalty control_norm "
                  "volume_residual barycenter_x barycenter_y newton_iters "
                  "wall_time")
        lines = [header] + [r.as_line() for r in self.records]
        Path(path).write_text("\n".join(lines) + "\n")


def _diagnostics(spaces: Spaces, params: KktParams, y: KktVector):
    """Objective, dissipation, penalty, control norm and constraint
    residuals at y: the term engine's value terms and the negated gradient
    blocks of the geometric multipliers."""
    z = y.as_dict()
    terms = value_terms(spaces, params, z)
    grad = gradient_blocks(spaces, params, z, names=("lam_vol", "lam_bc"))
    j = float(terms["dissipation"])
    cnorm = float(np.sqrt(y.c @ (spaces.curve.mass @ y.c)))
    bary = -grad["lam_bc"]
    return (j + float(terms["control"]), j, float(terms["penalty"]), cnorm,
            float(-grad["lam_vol"][0]), (float(bary[0]), float(bary[1])))


def _record(spaces, params, y, k, ell, iters, t0) -> RunRecord:
    obj, j, pen, cnorm, vol, bary = _diagnostics(spaces, params, y)
    return RunRecord(k, ell, params.alpha, obj, j, pen, cnorm, vol, bary,
                     iters, time.time() - t0)


def run_direct(mesh: Mesh, params: KktParams,
               schedule: ContinuationSchedule | None = None,
               spaces: Spaces | None = None):
    """Monolithic continuation: one coupled KKT solve per alpha level.

    On divergence at some level the driver recursively bisects the alpha gap
    (geometrically) and approaches the level through intermediate solves; the
    partial log is attached to the raised error when that fails too.  The
    bisection is at most five levels deep, so one alpha level costs at most
    63 ``solve_kkt`` attempts (1 + 2 + 4 + ... + 32); it has no time budget.
    A solve whose determinant-penalty active set cycles (``err.cycling``
    names elements) is not bisected: a smaller alpha step does not move the
    kink it stalls on, so the error is raised at once.

    Every level but the last only gives the next one its start, so it is
    solved to the relative target ``rtol`` of :mod:`flowshape.newton` that
    equals the factor by which alpha falls to the next level
    (``alpha_dec``).  Alpha weighs only the control rows, so at a level's
    solution the next level's residual is about that factor times the
    residual the level started from: a smaller leftover would be swamped
    by the next alpha step.  Such a level's log record is taken at the
    inexact point, and its ``newton_iters`` counts the iterations to get
    there.  The last level is solved to ``newton_tol``, so the returned
    ``y`` and the last record are converged.
    """
    schedule = schedule or ContinuationSchedule()
    spaces = control_spaces(mesh, spaces)
    log = RunLog()
    y = KktVector.zeros(spaces)
    # seed the velocity and pressure blocks with the flow at the undeformed
    # shape: the coupled Newton is far more reliable from a converged state
    state = solve_state(mesh, y.w, params, spaces)
    y.v, y.p = state.v, state.p
    t0 = time.time()
    factor = Kept()  # of the KKT system, through levels and bisections
    prev_alpha = None
    levels = schedule.levels()
    for k, alpha in enumerate(levels):
        pk = replace(params, alpha=alpha)
        try:
            y, hist = _advance(mesh, params, spaces, factor, y, prev_alpha,
                               alpha, depth=5,
                               rtol=(schedule.alpha_dec
                                     if k + 1 < len(levels) else 0.0))
        except SolverError as err:
            err.log = log
            raise
        log.records.append(_record(spaces, pk, y, k, k + 1, len(hist), t0))
        prev_alpha = alpha
    return y, log


# Not nested in run_direct: a nested function that calls itself is a
# reference cycle, which would keep the kept factorization alive after the
# driver returns, until the garbage collector runs.
def _advance(mesh, params, spaces, factor, y, a_prev, a_next, depth, rtol):
    """``solve_kkt`` at alpha ``a_next`` from y, kept factorization
    ``factor``, to the relative target ``rtol``; on a failure that is not a
    cycling stall, ``depth`` more times approached through the geometric
    midpoint from ``a_prev``.  A midpoint is only a start: like a level of
    ``run_direct`` it is solved to the factor by which alpha falls to the
    next solve, ``a_next / mid``; ``a_next`` keeps its own target."""
    try:
        return solve_kkt(mesh, y, replace(params, alpha=a_next), spaces,
                         kept=factor, rtol=rtol)
    except SolverError as err:
        if depth == 0 or a_prev is None or err.cycling:
            raise
        mid = float(np.sqrt(a_prev * a_next))
        y_mid, _ = _advance(mesh, params, spaces, factor, y, a_prev, mid,
                            depth - 1, a_next / mid)
        return _advance(mesh, params, spaces, factor, y_mid, mid, a_next,
                        depth - 1, rtol)


def run_iterative(mesh: Mesh, params: KktParams,
                  schedule: ContinuationSchedule | None = None,
                  eps: float = 1e-2, inner_cap: int = 50,
                  spaces: Spaces | None = None):
    """Decoupled continuation: state, adjoint, shape fixpoint per alpha level.

    The inner loop at each level stops when the relative change of the
    control drops below ``eps`` (absolute change when the control vanishes).
    Each pass is inexact to the same accuracy: its state, adjoint and shape
    solves stop once they have reduced their initial residual by ``eps``
    (the relative target ``rtol`` of :mod:`flowshape.newton`).  After the
    last level one more shape solve, to ``newton_tol``, finishes the
    result, so that its geometric constraints hold to that tolerance, and
    a state and an adjoint solve to their own tolerance (1e-10) at its
    deformation give the returned flow blocks, so that they belong to the
    returned control.  With these flow fields the shape rows of the
    returned ``y`` hold only to the accuracy of the fixpoint (residual
    7.4e-5 on the test suite's circle, 4.0e-5 on the ``iterative-ellipse``
    benchmark workload, against 3.0e-2 and 9.4e-2 at the start of the
    run); to ``newton_tol`` they hold with the flow fields that the
    finishing shape solve was given.  The log's last record is taken
    there, in place of one for the last pass, and counts the iterations
    of both shape solves.
    A level that spends ``inner_cap`` passes without getting there raises a
    ``divergence`` :class:`SolverError` naming alpha, the pass count and the
    last ratio of successive control changes (the observed contraction rate
    of the fixpoint; near or above 1 it does not converge at that alpha).
    Every raised error carries the partial log as ``err.log``.
    """
    schedule = schedule or ContinuationSchedule(1.0, 0.5, 2e-7)
    spaces = control_spaces(mesh, spaces)
    log = RunLog()
    t0 = time.time()
    y = KktVector.zeros(spaces)
    ell = 0
    state = None
    shape_factor, flow_factor = Kept(), Kept()
    levels = schedule.levels()
    try:
        for k, alpha in enumerate(levels):
            pk = replace(params, alpha=alpha)
            changes = []
            for _ in range(inner_cap):
                state = _solve_flow(mesh, pk, spaces, flow_factor, y, state,
                                    eps)
                c_old = y.c.copy()
                y, hist = solve_kkt(mesh, y, pk, spaces, _SHAPE_BLOCKS,
                                    kept=shape_factor, rtol=eps)
                ell += 1
                denom = np.linalg.norm(y.c)
                change = np.linalg.norm(y.c - c_old)
                changes.append(change)
                done = change < (eps * denom if denom > 0.0 else eps)
                if not done or k < len(levels) - 1:
                    log.records.append(_record(spaces, pk, y, k, ell,
                                               len(hist), t0))
                if done:
                    break
            else:
                prev = changes[-2] if len(changes) > 1 else 0.0
                ratio = changes[-1] / prev if prev > 0.0 else float("nan")
                raise SolverError(
                    f"iterative fixpoint at alpha = {alpha:.3e}: {inner_cap} "
                    f"passes without a relative control change below "
                    f"{eps:g}; last ratio of successive control changes "
                    f"{ratio:.3f}", kind="divergence")
        y, finish = solve_kkt(mesh, y, pk, spaces, _SHAPE_BLOCKS,
                              kept=shape_factor)
        _solve_flow(mesh, pk, spaces, flow_factor, y, state, 0.0)
        log.records.append(_record(spaces, pk, y, k, ell,
                                   len(hist) + len(finish), t0))
    except SolverError as err:
        err.log = log
        raise
    return y, log


def _solve_flow(mesh, params, spaces, factor, y, state, rtol):
    """State and adjoint at ``y.w``, from the state ``state`` and the kept
    flow factorization ``factor``, to the relative target ``rtol``; writes
    them into the flow blocks of y and returns the state."""
    state = solve_state(mesh, y.w, params, spaces, initial=state,
                        kept=factor, rtol=rtol)
    adj = solve_adjoint(mesh, y.w, state, params, spaces, kept=factor,
                        rtol=rtol)
    y.v, y.p = state.v, state.p
    y.lam_v, y.lam_p = adj.lam_v, adj.lam_p
    return state


def quality_sweep(mesh: Mesh, params: KktParams, eta_ext_values,
                  schedule: ContinuationSchedule | None = None,
                  csv_path=None, spaces: Spaces | None = None):
    """Optimize at each extension strength and record the worst mesh quality.

    Returns rows (eta_ext, worst_quality); a failed point stores NaN and the
    sweep continues.  ``csv_path`` additionally writes the table with header
    ``eta_ext,worst_quality``.  A value that ``KktParams`` rejects (a
    negative one) raises before any run.
    """
    spaces = spaces or Spaces.build(mesh)
    points = [replace(params, eta_ext=float(eta)) for eta in eta_ext_values]
    rows = []
    for point in points:
        eta = point.eta_ext
        try:
            y, _ = run_direct(mesh, point, schedule, spaces)
            rows.append((eta, worst_quality(mesh, y.w)))
        except SolverError:
            rows.append((eta, float("nan")))
    if csv_path is not None:
        _write_csv(csv_path, ["eta_ext", "worst_quality"],
                   [(f"{eta:.6g}", f"{q:.10g}") for eta, q in rows])
    return rows


def det_sweep(mesh: Mesh, params: KktParams, eta_det_values,
              schedule: ContinuationSchedule | None = None,
              output_dir=None, csv_path=None,
              spaces: Spaces | None = None):
    """Optimize at each determinant threshold and flag penalty activity.

    A point is ``active`` when the smallest element determinant at the
    optimum lies below its eta_det.  The deformed obstacle polyline of each
    successful point is exported next to the table when ``output_dir`` is
    given.  Returns rows (eta_det, active, path).  A value that
    ``KktParams`` rejects raises before any run.
    """
    spaces = spaces or Spaces.build(mesh)
    points = [replace(params, eta_det=float(eta)) for eta in eta_det_values]
    rows = []
    for point in points:
        eta = point.eta_det
        try:
            y, _ = run_direct(mesh, point, schedule, spaces)
        except SolverError:
            rows.append((eta, "failed", ""))
            continue
        active = penalty_active_set(spaces, y.w, eta).any()
        path = ""
        if output_dir is not None:
            loop = spaces.curve.loop
            pts = mesh.vertices[loop] + y.w[loop]
            path = str(Path(output_dir) / f"shape_eta_det_{eta:g}.csv")
            _write_csv(path, ["x", "y"],
                       [(f"{x:.10g}", f"{yv:.10g}") for x, yv in pts])
        rows.append((eta, bool(active), path))
    if csv_path is not None:
        _write_csv(csv_path, ["eta_det", "active", "path"],
                   [(f"{eta:.6g}", str(active).lower(), path)
                    for eta, active, path in rows])
    return rows


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
