"""Outer continuation drivers and parameter-sweep harnesses.

Two strategies shrink the control regularization alpha geometrically and
warm-start each level from the previous one.  The direct driver solves the
monolithic optimality system once per level.  The iterative driver replaces
that solve by a fixpoint sweep: flow state, adjoint, then the shape subsystem
(deformation, boundary datum, control and the geometric multipliers) with the
flow fields frozen, repeated until the control stops moving.  Sweep harnesses
rerun the optimization over ranges of the extension strength or the
determinant threshold and tabulate mesh quality and penalty activity.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .flow import (FlowParams, FlowState, SolverError, dissipation,
                   solve_adjoint, solve_state)
from .kkt import (KktParams, KktVector, _dirichlet, _StateElimination,
                  barycenter_residual, kkt_matrix, kkt_residual,
                  penalty_active_set, solve_kkt, volume_residual)
from .lagrangian import Spaces
from .mesh import Mesh, worst_quality
from .newton import semismooth_newton
from .transform import det_penalty, element_kinematics

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
        if self.alpha_init <= 0.0:
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

    def append(self, record: RunRecord) -> None:
        self.records.append(record)

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
    """Dissipation, control cost, penalty and constraint residuals at y."""
    mesh = spaces.mesh
    j = dissipation(mesh, y.w, FlowState(y.v, y.p), params.nu, spaces)
    if spaces.curve is not None and len(y.c):
        cnorm = float(np.sqrt(y.c @ (spaces.curve.mass @ y.c)))
    else:
        cnorm = 0.0
    pen = det_penalty(spaces.geo_ext, y.w, params.eta_det, params.beta)
    vol = volume_residual(mesh, y.w, spaces)
    bary = barycenter_residual(mesh, y.w, spaces)
    obj = j + 0.5 * params.alpha * cnorm ** 2
    return obj, j, pen, cnorm, vol, (float(bary[0]), float(bary[1]))


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
    A solve whose determinant-penalty active set cycles (``err.cycling`` > 0)
    is not bisected: a smaller alpha step does not move the kink it stalls
    on, so the error is raised at once.
    """
    schedule = schedule or ContinuationSchedule()
    spaces = spaces or Spaces.build(mesh)
    log = RunLog()
    y = KktVector.zeros(spaces)
    # seed the velocity and pressure blocks with the flow at the undeformed
    # shape: the coupled Newton is far more reliable from a converged state
    fp = FlowParams(nu=params.nu, mu=params.mu, delta=params.delta,
                    inflow=params.inflow)
    state = solve_state(mesh, y.w, fp, spaces)
    y.v, y.p = state.v, state.p
    t0 = time.time()
    def advance(y, a_prev, a_next, depth):
        try:
            return solve_kkt(mesh, y, replace(params, alpha=a_next), spaces,
                             return_info=True)
        except SolverError as err:
            if depth == 0 or a_prev is None or err.cycling:
                raise
            mid = float(np.sqrt(a_prev * a_next))
            y_mid, _ = advance(y, a_prev, mid, depth - 1)
            return advance(y_mid, mid, a_next, depth - 1)

    prev_alpha = None
    for k, alpha in enumerate(schedule.levels()):
        pk = replace(params, alpha=alpha)
        try:
            y, hist = advance(y, prev_alpha, alpha, depth=5)
        except SolverError as err:
            err.log = log
            raise
        log.append(_record(spaces, pk, y, k, k + 1, len(hist), t0))
        prev_alpha = alpha
    return y, log


def _shape_subsolve(spaces: Spaces, params: KktParams,
                    y: KktVector) -> KktVector:
    """Semismooth Newton on the shape subsystem with frozen flow fields.

    The unknowns are the blocks of ``_SHAPE_BLOCKS``; the flow fields and
    their adjoints are taken from ``y`` and held fixed.  Residual and matrix
    are those of :func:`flowshape.kkt.kkt_residual` and
    :func:`flowshape.kkt.kkt_matrix` on the shape layout: only the shape
    gradient blocks are evaluated and the matrix is assembled at the
    subsystem's size.  Returns ``y`` with the solved shape blocks.  Damping,
    the determinant-penalty kink, the stop test and the block elimination
    of the Newton matrix (states ``w`` and ``b``) are those of
    :func:`flowshape.kkt.solve_kkt`.
    """
    mesh = spaces.mesh
    dm, dofs, _ = _dirichlet(spaces, params, _SHAPE_BLOCKS)
    elimination = _StateElimination(dm, dofs)
    wslice = dm.block_slice("w")

    def residual(x):
        return kkt_residual(mesh, dm.unpack(x, y), params, spaces,
                            names=_SHAPE_BLOCKS)

    def factorize(x, active):
        return elimination.factorize(kkt_matrix(
            mesh, dm.unpack(x, y), params, spaces, active,
            names=_SHAPE_BLOCKS))

    def penalty_active(x):
        return penalty_active_set(spaces, x[wslice].reshape(-1, 2),
                                  params.eta_det)

    x, _ = semismooth_newton(residual, factorize, dm.pack(y),
                             params.newton_tol, params.newton_max_iter,
                             "shape subsystem", penalty_active)
    return dm.unpack(x, y)


def run_iterative(mesh: Mesh, params: KktParams,
                  schedule: ContinuationSchedule | None = None,
                  eps: float = 1e-2, inner_cap: int = 50,
                  spaces: Spaces | None = None):
    """Decoupled continuation: state, adjoint, shape fixpoint per alpha level.

    The inner loop at each level stops when the relative change of the
    control drops below ``eps`` (absolute change when the control vanishes).
    A level that spends ``inner_cap`` passes without getting there raises a
    ``divergence`` :class:`SolverError` naming alpha, the pass count and the
    last ratio of successive control changes (the observed contraction rate
    of the fixpoint; near or above 1 it does not converge at that alpha).
    Every raised error carries the partial log as ``err.log``.
    """
    schedule = schedule or ContinuationSchedule(1.0, 0.5, 2e-7)
    spaces = spaces or Spaces.build(mesh)
    log = RunLog()
    t0 = time.time()
    fp = FlowParams(nu=params.nu, mu=params.mu, delta=params.delta,
                    inflow=params.inflow)
    y = KktVector.zeros(spaces)
    ell = 0
    state = None
    try:
        for k, alpha in enumerate(schedule.levels()):
            pk = replace(params, alpha=alpha)
            changes = []
            for _ in range(inner_cap):
                state = solve_state(mesh, y.w, fp, spaces, initial=state)
                adj = solve_adjoint(mesh, y.w, state, fp, spaces)
                y.v, y.p = state.v, state.p
                y.lam_v, y.lam_p = adj.lam_v, adj.lam_p
                c_old = y.c.copy()
                y = _shape_subsolve(spaces, pk, y)
                ell += 1
                log.append(_record(spaces, pk, y, k, ell, 1, t0))
                denom = np.linalg.norm(y.c)
                change = np.linalg.norm(y.c - c_old)
                changes.append(change)
                if (change < eps * denom) if denom > 0.0 else (change < eps):
                    break
            else:
                prev = changes[-2] if len(changes) > 1 else 0.0
                ratio = changes[-1] / prev if prev > 0.0 else float("nan")
                raise SolverError(
                    f"iterative fixpoint at alpha = {alpha:.3e}: {inner_cap} "
                    f"passes without a relative control change below "
                    f"{eps:g}; last ratio of successive control changes "
                    f"{ratio:.3f}", kind="divergence")
    except SolverError as err:
        err.log = log
        raise
    return y, log


def _min_det(spaces: Spaces, w: np.ndarray) -> float:
    _, J, _ = element_kinematics(spaces.geo_ext, w)
    return float(J.min())


def quality_sweep(mesh: Mesh, params: KktParams, eta_ext_values,
                  schedule: ContinuationSchedule | None = None,
                  csv_path=None, spaces: Spaces | None = None):
    """Optimize at each extension strength and record the worst mesh quality.

    Returns rows (eta_ext, worst_quality); a failed point stores NaN and the
    sweep continues.  ``csv_path`` additionally writes the table with header
    ``eta_ext,worst_quality``.
    """
    spaces = spaces or Spaces.build(mesh)
    rows = []
    for eta in eta_ext_values:
        if eta < 0.0:
            raise ValueError("eta_ext values must be >= 0")
        try:
            y, _ = run_direct(mesh, replace(params, eta_ext=float(eta)),
                              schedule, spaces)
            rows.append((float(eta), worst_quality(mesh, y.w)))
        except SolverError:
            rows.append((float(eta), float("nan")))
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eta_ext", "worst_quality"])
            for eta, q in rows:
                writer.writerow([f"{eta:.6g}", f"{q:.10g}"])
    return rows


def det_sweep(mesh: Mesh, params: KktParams, eta_det_values,
              schedule: ContinuationSchedule | None = None,
              output_dir=None, csv_path=None,
              spaces: Spaces | None = None):
    """Optimize at each determinant threshold and flag penalty activity.

    A point is ``active`` when the smallest element determinant at the
    optimum lies below its eta_det.  The deformed obstacle polyline of each
    successful point is exported next to the table when ``output_dir`` is
    given.  Returns rows (eta_det, active, path).
    """
    spaces = spaces or Spaces.build(mesh)
    rows = []
    for eta in eta_det_values:
        try:
            y, _ = run_direct(mesh, replace(params, eta_det=float(eta)),
                              schedule, spaces)
        except SolverError:
            rows.append((float(eta), "failed", ""))
            continue
        active = _min_det(spaces, y.w) < float(eta)
        path = ""
        if output_dir is not None and spaces.curve is not None:
            loop = spaces.curve.loop
            pts = mesh.vertices[loop] + y.w[loop]
            path = str(Path(output_dir) / f"shape_eta_det_{eta:g}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "y"])
                for x, yv in pts:
                    writer.writerow([f"{x:.10g}", f"{yv:.10g}"])
        rows.append((float(eta), bool(active), path))
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eta_det", "active", "path"])
            for eta, active, path in rows:
                writer.writerow([f"{eta:.6g}", str(active).lower(), path])
    return rows
