import numpy as np
import pytest

from flowshape.fem import P1Geometry
from flowshape.lagrangian import (KktParams, Spaces, gradient_blocks,
                                  hessian_blocks, value_terms, zero_blocks)
from flowshape.transform import element_kinematics


def linear_field(mesh, mat):
    return mesh.vertices @ np.asarray(mat).T


def element_at(mesh, w, index):
    """DF and det(DF) of one triangle."""
    DF, det, _ = element_kinematics(P1Geometry.build(mesh), w)
    return DF[index], det[index]


def test_identity_transform(circle_mesh):
    DF, det = element_at(circle_mesh, np.zeros_like(circle_mesh.vertices), 0)
    assert np.allclose(DF, np.eye(2))
    assert det == 1.0


def test_uniform_dilation(circle_mesh):
    w = 0.1 * circle_mesh.vertices
    DF, det = element_at(circle_mesh, w, 5)
    assert np.allclose(DF, 1.1 * np.eye(2), atol=1e-12)
    assert abs(det - 1.21) < 1e-12


def test_shear(circle_mesh):
    w = linear_field(circle_mesh, [[0.0, 0.2], [0.0, 0.0]])
    DF, det = element_at(circle_mesh, w, 3)
    assert np.allclose(DF, [[1.0, 0.2], [0.0, 1.0]], atol=1e-12)
    assert abs(det - 1.0) < 1e-12


def test_inverse_identity(circle_mesh, rng):
    geo = P1Geometry.build(circle_mesh)
    w = 0.002 * rng.standard_normal(circle_mesh.vertices.shape)
    DF, det, inv = element_kinematics(geo, w)
    prod = np.einsum("tab,tbc->tac", DF, inv)
    eye = np.broadcast_to(np.eye(2), prod.shape)
    assert np.abs(prod - eye).max() < 1e-12


def test_det_derivative_identity(circle_mesh, rng):
    # (det(D(F + h wt)) - det(DF))/h -> Tr((DF)^-1 Dwt) det(DF), O(h) slope
    geo = P1Geometry.build(circle_mesh)
    w = 0.002 * rng.standard_normal(circle_mesh.vertices.shape)
    wt = rng.standard_normal(circle_mesh.vertices.shape)
    _, det, inv = element_kinematics(geo, w)
    Dwt = np.einsum("tla,tlb->tab", wt[geo.tri], geo.grads)
    exact = np.einsum("tba,tab->t", inv, Dwt) * det
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        _, det_h, _ = element_kinematics(geo, w + h * wt)
        errs.append(np.abs((det_h - det) / h - exact).max())
    slopes = np.diff(np.log(errs)) / np.diff(np.log([1e-3, 1e-4, 1e-5]))
    assert np.all(slopes > 0.9)


def test_inverse_derivative_identity(circle_mesh, rng):
    geo = P1Geometry.build(circle_mesh)
    w = 0.002 * rng.standard_normal(circle_mesh.vertices.shape)
    wt = rng.standard_normal(circle_mesh.vertices.shape)
    _, _, inv = element_kinematics(geo, w)
    Dwt = np.einsum("tla,tlb->tab", wt[geo.tri], geo.grads)
    exact = -np.einsum("tab,tbc,tcd->tad", inv, Dwt, inv)
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        _, _, inv_h = element_kinematics(geo, w + h * wt)
        errs.append(np.abs((inv_h - inv) / h - exact).max())
    slopes = np.diff(np.log(errs)) / np.diff(np.log([1e-3, 1e-4, 1e-5]))
    assert np.all(slopes > 0.9)


def test_volume_transport(circle_mesh, rng):
    from flowshape.mesh import deform_mesh, signed_areas

    geo = P1Geometry.build(circle_mesh)
    w = 0.002 * rng.standard_normal(circle_mesh.vertices.shape)
    _, det, _ = element_kinematics(geo, w)
    total = float(np.sum(det * geo.area))
    deformed = deform_mesh(circle_mesh, w)
    assert abs(total - signed_areas(deformed.vertices, deformed.triangles).sum()) < 1e-12


# -- penalty ----------------------------------------------------------------------
#
# The penalty's value and derivatives are terms of the engine.  Where every
# block but w is zero, every other term of the w gradient and of the (w, w)
# block vanishes, so there they are the derivatives of the ``penalty`` value
# term: the gradient bit for bit, the Hessian up to the order of its sums.


def _penalty_point(spaces, w, eta, beta):
    z = zero_blocks(spaces)
    z["w"] = w
    return KktParams(eta_det=eta, beta=beta), z


def penalty_value(spaces, w, eta, beta):
    """The engine's ``penalty`` value term at ``w``."""
    params, z = _penalty_point(spaces, w, eta, beta)
    return value_terms(spaces, params, z)["penalty"]


def penalty_gradient(spaces, w, eta, beta):
    """The engine's w gradient at ``w``, every other block zero, (nv, 2)."""
    params, z = _penalty_point(spaces, w, eta, beta)
    return gradient_blocks(spaces, params, z, names=("w",))["w"]


def penalty_hessian(spaces, w, eta, beta):
    """The engine's (w, w) block at ``w``, every other block zero."""
    params, z = _penalty_point(spaces, w, eta, beta)
    return hessian_blocks(spaces, params, z, pairs=(("w", "w"),))[("w", "w")]


def test_penalty_inactive(circle_mesh):
    spaces = Spaces.build(circle_mesh)
    w = np.zeros_like(circle_mesh.vertices)
    assert penalty_value(spaces, w, 0.9, 7.0) == 0.0
    assert np.all(penalty_gradient(spaces, w, 0.9, 7.0) == 0.0)


def test_penalty_uniform_compression(circle_mesh):
    spaces = Spaces.build(circle_mesh)
    w = -0.5 * circle_mesh.vertices  # det = 0.25 everywhere
    area = float(spaces.geo_ext.area.sum())
    val = penalty_value(spaces, w, 0.5, 1.0)
    assert abs(val - 0.5 * 0.25**2 * area) < 1e-10 * area


def test_penalty_matches_loop_oracle(circle_mesh, rng):
    spaces = Spaces.build(circle_mesh)
    geo = spaces.geo_ext
    w = 0.1 * rng.standard_normal(circle_mesh.vertices.shape)
    eta, beta = 1.02, 3.0  # active on many elements
    val = penalty_value(spaces, w, eta, beta)
    _, det, _ = element_kinematics(geo, w)
    oracle = 0.0
    for t in range(len(geo.tri)):
        gap = max(eta - det[t], 0.0)
        oracle += 0.5 * beta * geo.area[t] * gap * gap
    assert abs(val - oracle) <= 1e-13 * max(1.0, abs(oracle))


def _fd_gradient_check(spaces, w, eta, beta, rng, steps=(1e-5, 1e-6)):
    g = penalty_gradient(spaces, w, eta, beta)
    d = rng.standard_normal(w.shape)
    exact = float(np.sum(g * d))
    errs = []
    for h in steps:
        fp = penalty_value(spaces, w + h * d, eta, beta)
        fm = penalty_value(spaces, w - h * d, eta, beta)
        errs.append(abs((fp - fm) / (2 * h) - exact))
    return exact, errs


def test_penalty_gradient_fd(circle_mesh, rng):
    spaces = Spaces.build(circle_mesh)
    w = -0.3 * circle_mesh.vertices  # det = 0.49: fully active for eta = 0.6
    exact, errs = _fd_gradient_check(spaces, w, 0.6, 2.0, rng)
    assert errs[0] < 1e-6 * max(1.0, abs(exact))


def test_penalty_gradient_one_sided_at_kink(circle_mesh, rng):
    spaces = Spaces.build(circle_mesh)
    w = np.zeros_like(circle_mesh.vertices)  # det = 1 = eta exactly: at the kink
    eta, beta = 1.0, 2.0
    g = penalty_gradient(spaces, w, eta, beta)
    assert np.all(g == 0.0)  # ties inactive
    d = rng.standard_normal(w.shape)
    h = 1e-6
    fd = (penalty_value(spaces, w + h * d, eta, beta)
          - penalty_value(spaces, w, eta, beta)) / h
    # one-sided difference from the active side is O(h) because value is O(h^2)
    assert abs(fd) < 1e-3


def hessian_action(spaces, w, d, eta, beta):
    """Generalized second derivative of the penalty applied to d, (nv, 2)."""
    H = penalty_hessian(spaces, w, eta, beta)
    return (H @ d.ravel()).reshape(w.shape)


def test_penalty_hessian_fd_fully_active(circle_mesh, rng):
    spaces = Spaces.build(circle_mesh)
    w = -0.3 * circle_mesh.vertices
    eta, beta = 0.6, 2.0
    d = rng.standard_normal(w.shape)
    act = hessian_action(spaces, w, d, eta, beta)
    h = 1e-6
    gp = penalty_gradient(spaces, w + h * d, eta, beta)
    gm = penalty_gradient(spaces, w - h * d, eta, beta)
    fd = (gp - gm) / (2 * h)
    assert np.abs(fd - act).max() < 1e-6 * max(1.0, np.abs(act).max())


def test_penalty_hessian_inactive_zero(circle_mesh, rng):
    spaces = Spaces.build(circle_mesh)
    w = np.zeros_like(circle_mesh.vertices)
    H = penalty_hessian(spaces, w, 0.5, 2.0)
    assert np.abs(H.data).max() == 0.0


def test_penalty_hessian_fd_mixed(circle_mesh, rng):
    spaces = Spaces.build(circle_mesh)
    # random displacement: some elements active, some not
    w = 0.08 * rng.standard_normal(circle_mesh.vertices.shape)
    eta, beta = 1.0, 2.0
    _, det, _ = element_kinematics(spaces.geo_ext, w)
    step = 1e-6
    # mask out elements near the kink
    far = np.abs(det - eta) > 10 * step
    d = rng.standard_normal(w.shape)
    act = hessian_action(spaces, w, d, eta, beta)
    gp = penalty_gradient(spaces, w + step * d, eta, beta)
    gm = penalty_gradient(spaces, w - step * d, eta, beta)
    fd = (gp - gm) / (2 * step)
    if np.all(far):
        assert np.abs(fd - act).max() < 1e-5 * max(1.0, np.abs(act).max())


def test_collapsed_element_has_det_zero_and_a_finite_inverse(square_mesh):
    """An element collapsed onto a line has det(DF) exactly 0; its inverse
    is the finite adjugate, computed without a division by zero.

    On the unit-square mesh every hat gradient is exact in binary, and so
    is the displacement of one vertex by -g / |g|^2 (g its hat gradient)
    onto the opposite edge, which makes det(DF) = 1 + w . g exactly 0."""
    import warnings

    geo = P1Geometry.build(square_mesh)
    g = geo.grads[0, 2]
    w = np.zeros_like(square_mesh.vertices)
    w[geo.tri[0, 2]] = -g / (g @ g)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        DF, det, inv = element_kinematics(geo, w)
    assert det[0] == 0.0
    assert np.all(np.isfinite(inv[0]))
    assert np.array_equal(inv[0], [[DF[0, 1, 1], -DF[0, 0, 1]],
                                   [-DF[0, 1, 0], DF[0, 0, 0]]])
