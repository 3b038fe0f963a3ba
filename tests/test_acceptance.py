"""End-to-end acceptance suite.

Each test is one acceptance criterion of the toolkit, run at desk scale
(meshes of a few thousand triangles, minutes per run).  The suite is
ordered from cheap derivative checks to full continuation runs and
parameter sweeps; wall-clock budgets are asserted alongside the numerical
targets.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from flowshape.extension import solve_laplace_beltrami
from flowshape.flow import (FlowParams, SolverError, dissipation,
                            reduced_gradient, solve_adjoint, solve_state)
from flowshape.kkt import (KktParams, KktVector, barycenter_residual,
                           gradient_fd_slopes, volume_residual)
from flowshape.lagrangian import Spaces
from flowshape.mesh import deform_mesh
from flowshape.meshgen import tunnel_mesh
from flowshape.optimize import (ContinuationSchedule, run_direct,
                                run_iterative, quality_sweep)
from flowshape.transform import displacement_gradient, element_kinematics

from conftest import unit_square_mesh

pytestmark = pytest.mark.slow

BENCH = dict(h=0.35, n_obstacle=48, n_rings=3)
BENCH_PARAMS = dict(nu=0.01, beta=100.0, eta_det=5e-2, eta_ext=3.0)
DEFAULT_SCHEDULE = ContinuationSchedule(1e-4, 0.1, 1e-10)


@pytest.fixture(scope="module")
def bench_spaces():
    return Spaces.build(tunnel_mesh(**BENCH))


@pytest.fixture(scope="module")
def bench_run(bench_spaces):
    """Shared full continuation run on the circle benchmark (criteria 5, 6)."""
    mesh = bench_spaces.mesh
    t0 = time.time()
    y, log = run_direct(mesh, KktParams(**BENCH_PARAMS), DEFAULT_SCHEDULE,
                        spaces=bench_spaces)
    return y, log, time.time() - t0


def test_01_gradient_consistency_all_blocks(bench_spaces):
    t0 = time.time()
    mesh = bench_spaces.mesh
    rng = np.random.default_rng(7)
    y = KktVector.zeros(bench_spaces)
    for name, val in y.as_dict().items():
        arr = 0.5 * rng.standard_normal(np.shape(val))
        if name == "w":
            # probe rule: max over elements of |Dw|_2 = 1/2, which keeps
            # det(I + Dw) >= (1 - 1/2)^2 = 1/4 on every element
            dw = displacement_gradient(bench_spaces.geo_ext, arr)
            arr *= 0.5 / np.linalg.norm(dw, ord=2, axis=(1, 2)).max()
        setattr(y, name, arr if np.ndim(val) else float(arr))
    _, dets, _ = element_kinematics(bench_spaces.geo_ext, y.w)
    assert dets.min() > 0.0
    params = KktParams(alpha=0.3, beta=7.0, eta_det=float(dets.max()) + 0.5,
                       eta_ext=2.0, nu=0.01)
    slopes = gradient_fd_slopes(mesh, y, params, steps=(1e-4, 1e-5, 1e-6),
                                n_directions=20, spaces=bench_spaces)
    assert len(slopes) == 11
    for name, slope in slopes.items():
        assert slope >= 1.9, f"block {name}: slope {slope:.3f}"
    assert time.time() - t0 < 120.0


def test_02_adjoint_reduced_gradient(bench_spaces):
    t0 = time.time()
    mesh = bench_spaces.mesh
    rng = np.random.default_rng(11)
    params = FlowParams(nu=0.1)
    nv = mesh.num_vertices
    w = np.zeros((nv, 2))
    state = solve_state(mesh, w, params, spaces=bench_spaces)
    adj = solve_adjoint(mesh, w, state, params, spaces=bench_spaces)
    grad = reduced_gradient(mesh, w, state, adj, params, spaces=bench_spaces)

    free = np.setdiff1d(np.arange(nv), mesh.outer_boundary_vertices())
    picks = rng.choice(free, size=5, replace=False)

    def j(field):
        st = solve_state(mesh, field, params, spaces=bench_spaces,
                         initial=state)
        return dissipation(mesh, field, st, params.nu)

    for vertex in picks:
        comp = int(rng.integers(2))
        exact = grad[vertex, comp]
        best = np.inf
        for h in (1e-5, 1e-6, 1e-7):
            wp = w.copy(); wp[vertex, comp] += h
            wm = w.copy(); wm[vertex, comp] -= h
            fd = (j(wp) - j(wm)) / (2.0 * h)
            best = min(best, abs(exact - fd) / max(abs(fd), 1e-300))
        assert best < 1e-4, f"dof ({vertex},{comp}): best rel err {best:.2e}"
    assert time.time() - t0 < 180.0


def test_03_mms_flow_convergence_rate():
    t0 = time.time()
    sy = pytest.importorskip("sympy")
    x, yv = sy.symbols("x y")
    psi = (x * (1 - x) * yv * (1 - yv)) ** 2
    u = sy.diff(psi, yv)
    v = -sy.diff(psi, x)
    p = x * yv - sy.Rational(1, 4)
    nu = sy.Rational(1, 10)
    fx = -nu * (sy.diff(u, x, 2) + sy.diff(u, yv, 2)) \
        + u * sy.diff(u, x) + v * sy.diff(u, yv) + sy.diff(p, x)
    fy = -nu * (sy.diff(v, x, 2) + sy.diff(v, yv, 2)) \
        + u * sy.diff(v, x) + v * sy.diff(v, yv) + sy.diff(p, yv)
    lam = sy.lambdify((x, yv), [u, v, p, fx, fy], "numpy")

    errs = []
    for n in (8, 16, 32):
        mesh = unit_square_mesh(n)
        spaces = Spaces.build(mesh)
        state = solve_state(
            mesh, np.zeros((mesh.num_vertices, 2)), FlowParams(nu=0.1),
            spaces=spaces,
            body_force=lambda pts: np.column_stack(lam(pts[:, 0], pts[:, 1])[3:]),
            dirichlet_override=lambda xp: np.array(lam(xp[0], xp[1])[:2]),
            pin_pressure=(0, float(lam(*mesh.vertices[0])[2])))
        diff = state.v - np.column_stack(lam(mesh.vertices[:, 0],
                                             mesh.vertices[:, 1])[:2])
        area = np.zeros(mesh.num_vertices)
        np.add.at(area, spaces.geo_fluid.tri,
                  np.repeat(spaces.geo_fluid.area[:, None] / 3.0, 3, axis=1))
        errs.append(np.sqrt(np.sum(area[:, None] * diff ** 2)))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for rate in rates:
        assert 1.8 <= rate <= 2.2, f"observed rates {rates}"
    assert time.time() - t0 < 300.0


def test_04_laplace_beltrami_circle_closed_form():
    mesh = tunnel_mesh(h=0.35, n_obstacle=512, n_rings=3)
    spaces = Spaces.build(mesh)
    b = solve_laplace_beltrami(mesh, np.ones(spaces.num_loop), spaces)
    exact = 0.2 * spaces.normals
    assert np.abs(b - exact).max() < 1e-3


def test_05_geometric_constraints_at_optimum(bench_spaces, bench_run):
    y, _, elapsed = bench_run
    mesh = bench_spaces.mesh
    assert abs(volume_residual(mesh, y.w, bench_spaces)) < 1e-7
    bary = barycenter_residual(mesh, y.w, bench_spaces)
    assert np.abs(bary).max() < 1e-7
    assert elapsed < 900.0


def test_06_penalty_activity(bench_spaces, bench_run):
    y, _, _ = bench_run
    mesh = bench_spaces.mesh
    _, dets, _ = element_kinematics(bench_spaces.geo_ext, y.w)
    assert dets.min() > 5e-2  # threshold inactive on the benchmark run

    params = KktParams(**{**BENCH_PARAMS, "eta_det": 0.5})
    y2, _ = run_direct(mesh, params, DEFAULT_SCHEDULE, spaces=bench_spaces)
    _, dets2, _ = element_kinematics(bench_spaces.geo_ext, y2.w)
    assert dets2.min() < 0.5  # the raised threshold is attained: penalty active


def test_07_quality_trend(bench_spaces):
    t0 = time.time()
    mesh = bench_spaces.mesh
    params = KktParams(nu=0.01, beta=100.0, eta_det=5e-2, eta_ext=0.0)
    rows = quality_sweep(mesh, params, [0.0, 0.5, 1.0, 1.5, 2.0, 3.0],
                         ContinuationSchedule(1e-4, 0.1, 1e-6),
                         spaces=bench_spaces)
    q = dict(rows)
    assert all(np.isfinite(v) for v in q.values()), q
    assert q[1.5] < q[0.0]
    values = [q[e] for e in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)]
    for a, b in zip(values, values[1:]):
        assert b <= 1.05 * a, f"quality increased beyond noise band: {values}"
    assert abs(q[2.0] - q[3.0]) < 0.15 * q[3.0]
    assert time.time() - t0 < 3600.0


def test_08_iterative_algorithm_behavior():
    mesh = tunnel_mesh(h=0.35, n_obstacle=48, n_rings=3,
                       semi_axes=(0.35, 0.7))
    spaces = Spaces.build(mesh)
    params = KktParams(nu=0.1, beta=100.0, eta_det=5e-2, eta_ext=1.5)
    w0 = np.zeros((mesh.num_vertices, 2))
    state0 = solve_state(mesh, w0, FlowParams(nu=params.nu), spaces=spaces)
    d0 = dissipation(mesh, w0, state0, params.nu)

    schedule = ContinuationSchedule(1.0, 0.5, 2e-7)
    y, log = run_iterative(mesh, params, schedule, 1e-2, spaces=spaces)

    assert 30 <= log.total_iterations <= 110
    state1 = solve_state(mesh, y.w, FlowParams(nu=params.nu), spaces=spaces)
    d1 = dissipation(mesh, y.w, state1, params.nu)
    assert d1 < 0.9 * d0
    alphas = np.array([rec.alpha for rec in log.records])
    ks = np.round(np.log(alphas / schedule.alpha_init)
                  / np.log(schedule.alpha_dec))
    assert np.allclose(alphas, schedule.alpha_init
                       * schedule.alpha_dec ** ks, rtol=1e-12)
    assert np.all(np.diff(ks) >= 0)


def test_09_cross_algorithm_consistency(bench_spaces):
    t0 = time.time()
    mesh = bench_spaces.mesh
    params = KktParams(**BENCH_PARAMS)
    schedule = ContinuationSchedule(1e-4, 0.1, 1e-6)
    eps = 1e-2
    yd, _ = run_direct(mesh, params, schedule, spaces=bench_spaces)
    yi, _ = run_iterative(mesh, params, schedule, eps, spaces=bench_spaces)
    mass = bench_spaces.curve.mass
    diff = yd.c - yi.c
    rel = np.sqrt(diff @ (mass @ diff)) / np.sqrt(yd.c @ (mass @ yd.c))
    assert rel < 5.0 * eps, f"relative control difference {rel:.3e}"
    assert time.time() - t0 < 1800.0


def test_10_holdall_injectivity_variant():
    mesh = tunnel_mesh(h=0.35, n_obstacle=48, n_rings=3,
                       semi_axes=(0.35, 0.7), holdall=True)
    spaces = Spaces.build(mesh)
    params = KktParams(nu=0.01, beta=100.0, eta_det=5e-2, eta_ext=1.5)
    y, _ = run_direct(mesh, params, ContinuationSchedule(1e-4, 0.1, 1e-6),
                      spaces=spaces)
    _, dets, _ = element_kinematics(spaces.geo_ext, y.w)
    assert dets.min() > params.eta_det

    moved = deform_mesh(mesh, y.w)
    e1 = moved.vertices[moved.triangles[:, 1]] - moved.vertices[moved.triangles[:, 0]]
    e2 = moved.vertices[moved.triangles[:, 2]] - moved.vertices[moved.triangles[:, 0]]
    signed = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    assert int(np.sum(signed <= 0.0)) == 0

    # The fluid-only extension on the same configuration is not required to
    # keep the deformation injective; its outcome is informational only.
    fluid_mesh = tunnel_mesh(h=0.35, n_obstacle=48, n_rings=3,
                             semi_axes=(0.35, 0.7))
    try:
        run_direct(fluid_mesh, params, ContinuationSchedule(1e-4, 0.1, 1e-6))
    except SolverError:
        pass
