"""Tests for the pulled-back Navier-Stokes state and adjoint solvers."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import flowshape.flow as flow_module
import flowshape.lagrangian as lagrangian_module
from flowshape.fem import LU_OPTIONS, eliminate_dirichlet
from flowshape.flow import (
    AdjointFlowState,
    FlowParams,
    FlowState,
    SolverError,
    dissipation,
    inflow_profile,
    reduced_gradient,
    solve_adjoint,
    solve_state,
    state_residual,
    velocity_dirichlet,
)
from flowshape.lagrangian import (Spaces, block_matrix, dirichlet_dofs,
                                  zero_blocks)
from flowshape.mesh import BoundaryTag, deform_mesh

from conftest import unit_square_mesh


def _smooth_w(mesh, scale=0.02):
    x, y = mesh.vertices.T
    return scale * np.column_stack([np.sin(x) * np.cos(y),
                                    np.cos(0.7 * x) * np.sin(0.9 * y)])


# ---------------------------------------------------------------------------
# inflow profile


def test_inflow_paper_cosine_values():
    x = np.array([[-7.0, 0.0], [-7.0, 2.0]])
    got = inflow_profile(x, delta=6.0)
    r = np.hypot(x[:, 0], x[:, 1])
    expected = np.cos(2.0 * np.pi * r / 6.0)
    assert np.allclose(got[:, 0], expected, atol=1e-14)
    assert np.all(got[:, 1] == 0.0)


def test_inflow_parabolic_values():
    x = np.array([[-7.0, 0.0], [-7.0, 1.5], [-7.0, 4.0]])
    got = inflow_profile(x, delta=6.0, kind="parabolic")
    assert np.allclose(got[:, 0], [1.0, 0.75, 0.0], atol=1e-14)
    assert np.all(got[:, 1] == 0.0)


def test_inflow_unknown_kind_raises():
    with pytest.raises(ValueError):
        inflow_profile(np.zeros((1, 2)), delta=6.0, kind="plug")


def test_wall_wins_at_corners(circle_mesh):
    params = FlowParams(nu=0.1)
    verts, vals = velocity_dirichlet(circle_mesh, params)
    inflow = set(circle_mesh.vertices_with_tag(BoundaryTag.INFLOW))
    wall = set(circle_mesh.vertices_with_tag(BoundaryTag.WALL))
    corners = sorted(inflow & wall)
    assert corners
    lookup = {v: val for v, val in zip(verts, vals)}
    for vtx in corners:
        assert np.all(lookup[vtx] == 0.0)


# ---------------------------------------------------------------------------
# residual oracle at w = 0 (independent per-element assembly)


def _naive_residual_flat(mesh, state, nu, mu):
    """Per-element loop assembly of the unstabilized terms plus PSPG."""
    nv = mesh.num_vertices
    rv = np.zeros((nv, 2))
    rp = np.zeros(nv)
    for t in mesh.fluid_cells:
        tri = mesh.triangles[t]
        pts = mesh.vertices[tri]
        e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
        det = e1[0] * e2[1] - e1[1] * e2[0]
        area = 0.5 * det
        # P1 shape gradients
        g = np.linalg.inv(np.column_stack([np.ones(3), pts]))[1:].T  # (3, 2)
        v = state.v[tri]
        p = state.p[tri]
        Dv = v.T @ g                                    # (2, 2)
        gp = g.T @ p                                    # (2,)
        h2 = max(np.linalg.norm(pts[1] - pts[0]),
                 np.linalg.norm(pts[2] - pts[1]),
                 np.linalg.norm(pts[0] - pts[2])) ** 2
        for l in range(3):
            # momentum rows, negated to match the Lagrangian sign convention
            rv[tri[l]] -= nu * area * Dv @ g[l]
            mom = area / 12.0 * (v.sum(axis=0) + v[l])
            rv[tri[l]] -= Dv @ mom
            rv[tri[l]] += area * p.mean() * g[l]
            # continuity: int phi_l div v
            rp[tri[l]] += area / 3.0 * np.trace(Dv)
            # PSPG: mu h^2 grad p . grad phi_l * area
            rp[tri[l]] += mu * h2 * area * gp @ g[l]
    return np.concatenate([rv.ravel(), rp])


def test_state_residual_matches_naive_oracle(circle_mesh, rng):
    params = FlowParams(nu=0.07, mu=0.13)
    nv = circle_mesh.num_vertices
    state = FlowState(0.3 * rng.standard_normal((nv, 2)),
                      0.4 * rng.standard_normal(nv))
    got = state_residual(circle_mesh, np.zeros((nv, 2)), state, params)
    want = _naive_residual_flat(circle_mesh, state, params.nu, params.mu)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# trivial and manufactured solutions


def test_zero_inflow_gives_rest_state(circle_mesh):
    params = FlowParams(nu=0.1)
    override = lambda x: np.zeros(2)
    state = solve_state(circle_mesh, np.zeros((circle_mesh.num_vertices, 2)),
                        params, dirichlet_override=override)
    assert np.abs(state.v).max() <= 1e-10
    assert np.abs(state.p).max() <= 1e-8
    assert dissipation(circle_mesh, np.zeros((circle_mesh.num_vertices, 2)),
                       state, params.nu) <= 1e-20


def test_state_budget_exhausted_is_divergence(circle_mesh):
    """One Newton step from rest does not reach the tolerance: the solve
    raises a divergence error that carries the residual history."""
    params = FlowParams(nu=0.01, newton_max_iter=1)
    with pytest.raises(SolverError) as info:
        solve_state(circle_mesh, np.zeros((circle_mesh.num_vertices, 2)),
                    params)
    assert info.value.kind == "divergence"
    assert len(info.value.history) == 1
    assert info.value.history[0] > params.newton_tol


def _mms_fields():
    """Enclosed-cavity manufactured solution on the unit square."""
    import sympy as sy

    x, y = sy.symbols("x y")
    psi = (x * (1 - x) * y * (1 - y)) ** 2
    u = sy.diff(psi, y)
    v = -sy.diff(psi, x)
    p = x * y - sy.Rational(1, 4)
    nu = sy.Rational(1, 10)
    fx = -nu * (sy.diff(u, x, 2) + sy.diff(u, y, 2)) \
        + u * sy.diff(u, x) + v * sy.diff(u, y) + sy.diff(p, x)
    fy = -nu * (sy.diff(v, x, 2) + sy.diff(v, y, 2)) \
        + u * sy.diff(v, x) + v * sy.diff(v, y) + sy.diff(p, y)
    lam = sy.lambdify((x, y), [u, v, p, fx, fy], "numpy")
    return lam


def test_mms_velocity_convergence_rate():
    lam = _mms_fields()

    def body_force(pts):
        _, _, _, fx, fy = lam(pts[:, 0], pts[:, 1])
        return np.column_stack([fx, fy])

    def exact_v(pts):
        u, v, _, _, _ = lam(pts[:, 0], pts[:, 1])
        return np.column_stack([u, v])

    def exact_v_point(x):
        u, v, _, _, _ = lam(x[0], x[1])
        return np.array([u, v])

    errs = []
    for n in (8, 16, 32):
        mesh = unit_square_mesh(n)
        params = FlowParams(nu=0.1)
        state = solve_state(
            mesh, np.zeros((mesh.num_vertices, 2)), params,
            body_force=body_force, dirichlet_override=exact_v_point,
            pin_pressure=(0, float(lam(*mesh.vertices[0])[2])))
        spaces = Spaces.build(mesh)
        diff = state.v - exact_v(mesh.vertices)
        area = np.zeros(mesh.num_vertices)
        np.add.at(area, spaces.geo_fluid.tri,
                  np.repeat(spaces.geo_fluid.area[:, None] / 3.0, 3, axis=1))
        errs.append(np.sqrt(np.sum(area[:, None] * diff ** 2)))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rate) >= 1.7


# ---------------------------------------------------------------------------
# pull-back consistency


def test_pullback_residual_identity_without_stabilization(circle_mesh, rng):
    params = FlowParams(nu=0.05, mu=0.0)
    nv = circle_mesh.num_vertices
    w = _smooth_w(circle_mesh)
    state = FlowState(0.2 * rng.standard_normal((nv, 2)),
                      0.3 * rng.standard_normal(nv))
    pulled = state_residual(circle_mesh, w, state, params)
    moved = deform_mesh(circle_mesh, w)
    direct = state_residual(moved, np.zeros((nv, 2)), state, params)
    scale = np.abs(direct).max()
    assert np.abs(pulled - direct).max() <= 1e-12 * scale


def test_pullback_dissipation_change_of_variables(circle_mesh, rng):
    nv = circle_mesh.num_vertices
    w = _smooth_w(circle_mesh)
    state = FlowState(rng.standard_normal((nv, 2)), np.zeros(nv))
    a = dissipation(circle_mesh, w, state, 0.05)
    b = dissipation(deform_mesh(circle_mesh, w), np.zeros((nv, 2)), state, 0.05)
    assert abs(a - b) <= 1e-13 * abs(b)


def test_pullback_full_solves_agree_modulo_stabilization(circle_mesh):
    params = FlowParams(nu=0.1)
    nv = circle_mesh.num_vertices
    w = _smooth_w(circle_mesh)
    pulled = solve_state(circle_mesh, w, params)
    direct = solve_state(deform_mesh(circle_mesh, w), np.zeros((nv, 2)), params)
    rel = np.abs(pulled.v - direct.v).max() / np.abs(direct.v).max()
    assert rel < 0.05
    d_pulled = dissipation(circle_mesh, w, pulled, params.nu)
    d_direct = dissipation(deform_mesh(circle_mesh, w), np.zeros((nv, 2)),
                           direct, params.nu)
    assert abs(d_pulled - d_direct) < 0.02 * abs(d_direct)


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_satisfies_transposed_system(circle_mesh, rng):
    params = FlowParams(nu=0.1)
    nv = circle_mesh.num_vertices
    w = np.zeros((nv, 2))
    state = solve_state(circle_mesh, w, params)
    adj = solve_adjoint(circle_mesh, w, state, params)
    # directional identity: for a perturbation z vanishing on Dirichlet rows,
    # z' J^T lam = z' (-dJdis/du)
    spaces = Spaces.build(circle_mesh)
    z = zero_blocks(spaces)
    z["w"], z["v"], z["p"] = w, state.v, state.p
    A = block_matrix(spaces, params, z, ("lam_v", "lam_p"), ("v", "p"))
    dofs, _ = dirichlet_dofs(spaces, ("lam_v", "lam_p"),
                             velocity_dirichlet(circle_mesh, params))
    At = eliminate_dirichlet(A.T, dofs)
    lam = np.concatenate([adj.lam_v.ravel(), adj.lam_p])
    h = 1e-7
    z = rng.standard_normal(3 * nv)
    z[dofs] = 0.0

    def dis(u):
        st = FlowState(u[:2 * nv].reshape(nv, 2), u[2 * nv:])
        return dissipation(circle_mesh, w, st, params.nu)

    u0 = np.concatenate([state.v.ravel(), state.p])
    fd = (dis(u0 + h * z) - dis(u0 - h * z)) / (2 * h)
    lhs = float(z @ (At @ lam))
    assert abs(lhs + fd) <= 1e-5 * max(1.0, abs(fd))


def test_reduced_gradient_matches_finite_differences(circle_mesh, rng):
    params = FlowParams(nu=0.1)
    nv = circle_mesh.num_vertices
    w = _smooth_w(circle_mesh, scale=0.01)
    spaces = Spaces.build(circle_mesh)
    state = solve_state(circle_mesh, w, params, spaces=spaces)
    adj = solve_adjoint(circle_mesh, w, state, params, spaces=spaces)
    grad = reduced_gradient(circle_mesh, w, state, adj, params, spaces=spaces)
    free = np.setdiff1d(np.arange(nv), circle_mesh.outer_boundary_vertices())
    direction = np.zeros((nv, 2))
    direction[free] = rng.standard_normal((len(free), 2))
    h = 1e-6

    def j(field):
        st = solve_state(circle_mesh, field, params, spaces=spaces,
                         initial=state)
        return dissipation(circle_mesh, field, st, params.nu)

    fd = (j(w + h * direction) - j(w - h * direction)) / (2 * h)
    got = float(np.sum(grad * direction))
    assert abs(got - fd) <= 1e-4 * abs(fd)


@pytest.mark.parametrize("mesh_name", ["circle_mesh", "holdall_mesh"])
def test_dirichlet_rows_hold_exact_values(request, mesh_name):
    """The state takes the velocity data exactly, and on a holdall mesh
    every flow field of the state and adjoint solves vanishes inside the
    obstacle."""
    mesh = request.getfixturevalue(mesh_name)
    params = FlowParams(nu=0.1)
    w = np.zeros((mesh.num_vertices, 2))
    state = solve_state(mesh, w, params)
    verts, vals = velocity_dirichlet(mesh, params)
    assert np.array_equal(state.v[verts], vals)
    adj = solve_adjoint(mesh, w, state, params)
    pins = mesh.obstacle_interior_vertices()
    assert len(pins) > 0 or not mesh.is_holdall
    for field in (state.v, state.p, adj.lam_v, adj.lam_p):
        assert np.all(field[pins] == 0.0)


def test_flow_solves_request_only_the_flow_blocks(circle_mesh, spy):
    """The state and adjoint solves must not fall back to full evaluation."""
    flow_pairs = {("v", "lam_v"), ("v", "lam_p"), ("p", "lam_v"),
                  ("p", "lam_p")}
    params = FlowParams(nu=0.1)
    spaces = Spaces.build(circle_mesh)
    w = _smooth_w(circle_mesh)
    hess = spy(lagrangian_module, "hessian_blocks")
    grad = spy(flow_module, "gradient_blocks")
    state = solve_state(circle_mesh, w, params, spaces)
    assert hess and grad
    assert all(set(c["pairs"]) == flow_pairs for c in hess)
    assert all(tuple(c["names"]) == ("lam_v", "lam_p") for c in grad)
    hess.clear()
    grad.clear()
    solve_adjoint(circle_mesh, w, state, params, spaces)
    assert len(hess) == 1 and set(hess[0]["pairs"]) == flow_pairs
    assert len(grad) == 1 and tuple(grad[0]["names"]) == ("v", "p")


def test_newton_evaluates_the_residual_once_per_iterate(circle_mesh,
                                                        monkeypatch):
    """The line search's residual at the accepted trial is reused, so a
    solve makes one residual evaluation plus one per line-search trial,
    and never two at the same point."""
    points, solves, factorizations = [], [], []
    real = flow_module.semismooth_newton

    def counting(residual, factorize, x, *args, **kwargs):
        def counted_residual(u):
            points.append(u.tobytes())
            return residual(u)

        def counted_factorize(u, active):
            factorizations.append(u)
            linsolve = factorize(u, active)

            def counted(rhs):
                solves.append(rhs)
                return linsolve(rhs)

            return counted

        return real(counted_residual, counted_factorize, x, *args, **kwargs)

    monkeypatch.setattr(flow_module, "semismooth_newton", counting)
    solve_state(circle_mesh, _smooth_w(circle_mesh), FlowParams(nu=0.1))
    trials = len(solves) - len(factorizations)
    assert len(factorizations) >= 3 and trials >= len(factorizations) - 1
    assert len(points) == 1 + trials
    assert len(set(points)) == len(points)


def test_lu_policy_fills_the_flow_jacobian_no_more_than_the_default(
        circle_mesh_fine):
    """At the converged flow on the undeformed finer circle mesh, the
    program's LU policy fills the Newton matrix of the state solve no more
    than SciPy's default ordering does."""
    params = FlowParams()
    spaces = Spaces.build(circle_mesh_fine)
    state = solve_state(circle_mesh_fine,
                        np.zeros((circle_mesh_fine.num_vertices, 2)), params,
                        spaces=spaces)
    dofs, _ = dirichlet_dofs(spaces, ("v", "p"),
                             velocity_dirichlet(circle_mesh_fine, params))
    z = zero_blocks(spaces)
    z["v"], z["p"] = state.v, state.p
    A = block_matrix(spaces, params, z, ("lam_v", "lam_p"), ("v", "p"),
                     fixed=dofs).tocsc()
    assert spla.splu(A, **LU_OPTIONS).nnz <= spla.splu(A).nnz
