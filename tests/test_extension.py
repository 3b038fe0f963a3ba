"""Tests for the boundary lift and the nonlinear advective extension."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import flowshape.lagrangian as lagrangian_module
from flowshape.extension import solve_extension, solve_laplace_beltrami
from flowshape.lagrangian import (KktParams, Spaces, gradient_blocks,
                                  hessian_blocks, zero_blocks)


def _loop_normals(spaces):
    return spaces.normals


def _extension_residual(spaces, w, b, eta_ext):
    """The lam_w gradient of the term engine: the extension equation at w
    with the boundary datum b."""
    z = zero_blocks(spaces)
    z["w"], z["b"] = w, b
    return gradient_blocks(spaces, KktParams(eta_ext=eta_ext), z,
                           names=("lam_w",))["lam_w"].ravel()


def test_laplace_beltrami_circle_closed_form(circle_mesh):
    """On a circle of radius r the normal field satisfies
    -Delta_G n = n / r^2, so constant data c gives b = c r^2/(r^2+1) n.
    The obstacle here has r = 1/2, making b = 0.2 n for c = 1."""
    spaces = Spaces.build(circle_mesh)
    c = np.ones(spaces.num_loop)
    b = solve_laplace_beltrami(circle_mesh, c, spaces)
    want = 0.2 * _loop_normals(spaces)
    assert np.abs(b - want).max() < 1e-3


def test_laplace_beltrami_is_linear(circle_mesh, rng):
    spaces = Spaces.build(circle_mesh)
    m = spaces.num_loop
    c1, c2 = rng.standard_normal(m), rng.standard_normal(m)
    b1 = solve_laplace_beltrami(circle_mesh, c1, spaces)
    b2 = solve_laplace_beltrami(circle_mesh, c2, spaces)
    b12 = solve_laplace_beltrami(circle_mesh, 2.0 * c1 - 3.0 * c2, spaces)
    assert np.abs(b12 - (2.0 * b1 - 3.0 * b2)).max() <= 1e-12


def test_extension_is_linear_laplace_at_zero_advection(circle_mesh, rng):
    """With eta_ext = 0 the operator is linear elasticity-like; solving twice
    with scaled data scales the solution."""
    spaces = Spaces.build(circle_mesh)
    params = KktParams(eta_ext=0.0)
    b = 0.05 * rng.standard_normal((spaces.num_loop, 2))
    w1 = solve_extension(circle_mesh, b, params, spaces=spaces)
    w2 = solve_extension(circle_mesh, 2.0 * b, params, spaces=spaces)
    assert np.abs(w2 - 2.0 * w1).max() <= 1e-10


def test_extension_residual_zero_at_solution(circle_mesh, rng):
    spaces = Spaces.build(circle_mesh)
    params = KktParams(eta_ext=2.0)
    b = 0.05 * rng.standard_normal((spaces.num_loop, 2))
    w = solve_extension(circle_mesh, b, params, spaces=spaces)
    r = _extension_residual(spaces, w, b, params.eta_ext)
    outer = circle_mesh.outer_boundary_vertices()
    free = np.ones(circle_mesh.num_vertices, bool)
    free[outer] = False
    mask = np.repeat(free, 2)
    assert np.abs(r[mask]).max() <= 1e-9
    assert np.abs(w[outer]).max() == 0.0


def test_linearization_matches_finite_differences(circle_mesh, rng):
    """The Newton matrix of the extension (the transposed (w, lam_w) block)
    and the boundary load M b are the derivatives of the extension residual
    (the lam_w gradient) in w and in b."""
    spaces = Spaces.build(circle_mesh)
    params = KktParams(eta_ext=2.0)
    nv = circle_mesh.num_vertices
    m = spaces.num_loop
    w = 0.02 * rng.standard_normal((nv, 2))
    b = 0.05 * rng.standard_normal((m, 2))

    def residual(w, b):
        return _extension_residual(spaces, w, b, params.eta_ext)

    z = zero_blocks(spaces)
    z["w"] = w
    jac_w = hessian_blocks(spaces, params, z, pairs=[("w", "lam_w")])[
        ("w", "lam_w")].T
    h = 1e-5
    dw = rng.standard_normal((nv, 2))
    db = rng.standard_normal((m, 2))
    fd_w = (residual(w + h * dw, b) - residual(w - h * dw, b)) / (2 * h)
    fd_b = (residual(w, b + h * db) - residual(w, b - h * db)) / (2 * h)
    got_w = jac_w @ dw.ravel()
    got_b = np.zeros((nv, 2))
    got_b[spaces.curve.loop] = spaces.curve.mass @ db
    got_b = got_b.ravel()
    assert np.abs(got_w - fd_w).max() <= 1e-6 * max(1.0, np.abs(fd_w).max())
    assert np.abs(got_b - fd_b).max() <= 1e-9 * max(1.0, np.abs(fd_b).max())


def test_linear_extension_takes_one_factorization(circle_mesh, rng,
                                                  monkeypatch):
    """At eta_ext = 0 the first Newton step solves the linear problem, and
    the simplified step of its line search confirms convergence."""
    spaces = Spaces.build(circle_mesh)
    b = 0.05 * rng.standard_normal((spaces.num_loop, 2))
    calls = []
    splu = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    solve_extension(circle_mesh, b, KktParams(eta_ext=0.0),
                    spaces=spaces)
    assert len(calls) == 1


def test_extension_solve_builds_no_fluid_arrays(circle_mesh, rng, spy):
    """The extension solve requests only the extension blocks, and the
    term engine builds no fluid frame for them."""
    spaces = Spaces.build(circle_mesh)
    b = 0.05 * rng.standard_normal((spaces.num_loop, 2))
    hess = spy(lagrangian_module, "hessian_blocks")
    frames = spy(lagrangian_module, "_fluid_frame")
    solve_extension(circle_mesh, b, KktParams(eta_ext=2.0),
                    spaces=spaces)
    assert hess and all(tuple(c["pairs"]) == (("w", "lam_w"),)
                        for c in hess)
    assert not frames


def test_nonlinearity_is_quadratic_in_data(circle_mesh, rng):
    """The advective term makes w(s b) deviate from s w(b) at order s^2."""
    spaces = Spaces.build(circle_mesh)
    params = KktParams(eta_ext=2.0)
    b = 0.05 * rng.standard_normal((spaces.num_loop, 2))
    ratios = []
    for s in (1.0, 0.5, 0.25):
        w1 = solve_extension(circle_mesh, s * b, params, spaces=spaces)
        w0 = solve_extension(circle_mesh, s * b,
                             KktParams(eta_ext=0.0), spaces=spaces)
        ratios.append(np.abs(w1 - w0).max() / s ** 2)
    ratios = np.asarray(ratios)
    assert np.abs(ratios - ratios[0]).max() <= 0.15 * abs(ratios[0])


def test_extension_handles_holdall_domain(holdall_mesh, rng):
    spaces = Spaces.build(holdall_mesh)
    params = KktParams(eta_ext=1.0)
    b = 0.05 * rng.standard_normal((spaces.num_loop, 2))
    w = solve_extension(holdall_mesh, b, params, spaces=spaces)
    assert np.all(np.isfinite(w))
    assert np.abs(w[holdall_mesh.outer_boundary_vertices()]).max() == 0.0


def test_negative_eta_rejected():
    with pytest.raises(ValueError, match="eta_ext must be >= 0"):
        KktParams(eta_ext=-1.0)
