import numpy as np
import scipy.sparse as sp

from flowshape.fem import (
    P1Geometry,
    assemble_boundary_curve,
    eliminate_dirichlet,
    quadrature_triangle,
)
from flowshape.mesh import BoundaryTag, Mesh
from flowshape.meshgen import tunnel_mesh

from conftest import unit_square_mesh


def test_scatter_is_bitwise_add_at():
    """P1Geometry.scatter sums in its documented order -- local dof by local
    dof, within each in element order -- bit for bit as np.add.at does, for
    vector and scalar element contributions of magnitudes that make the
    summation order visible."""
    mesh = tunnel_mesh(h=0.5, n_obstacle=24)
    geo = P1Geometry.build(mesh)
    nt, n = len(geo.tri), mesh.num_vertices
    rng = np.random.default_rng(7)
    for shape in ((3, 2, nt), (3, nt)):
        loc = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        # (3, nt, ...) contributions in the documented order
        ordered = np.moveaxis(loc, -1, 1)
        expected = np.zeros((n,) + shape[1:-1])
        np.add.at(expected, geo.tri.T, ordered)
        got = geo.scatter(loc, n)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        # the order matters at these magnitudes: a sorted sum differs
        shuffled = np.zeros((n,) + shape[1:-1])
        np.add.at(shuffled, geo.tri.T[::-1, ::-1], ordered[::-1, ::-1])
        assert not np.array_equal(shuffled, expected)


def test_quadrature_weights():
    _, w = quadrature_triangle()
    assert abs(w.sum() - 1.0) < 1e-14
    assert np.all(w > 0)


def test_quadrature_exactness():
    # reference triangle (0,0),(1,0),(0,1): integral of x^p y^q = p! q! / (p+q+2)!
    from math import factorial

    pts, w = quadrature_triangle()
    maxdeg = 4
    xy = pts[:, 1:]  # barycentric (l0, l1, l2) -> (x, y) = (l1, l2)
    for p in range(maxdeg + 1):
        for q in range(maxdeg + 1 - p):
            exact = factorial(p) * factorial(q) / factorial(p + q + 2)
            approx = 0.5 * np.sum(w * xy[:, 0] ** p * xy[:, 1] ** q)
            assert abs(approx - exact) < 1e-14, (p, q)


def test_p1_gradients_reference():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    segs = np.array([[0, 1], [1, 2], [2, 0]])
    tags = np.array([BoundaryTag.WALL] * 3, dtype=object)
    m = Mesh(verts, np.array([[0, 1, 2]]), segs, tags)
    g = P1Geometry.build(m).grads[0]
    assert np.allclose(g, [[-1, -1], [1, 0], [0, 1]])


def test_p1_gradients_partition(circle_mesh):
    geo = P1Geometry.build(circle_mesh)
    assert np.abs(geo.grads.sum(axis=1)).max() < 1e-12


def test_p1_gradients_reconstruct_linear(circle_mesh, rng):
    a = rng.standard_normal(2)
    vals = circle_mesh.vertices @ a
    geo = P1Geometry.build(circle_mesh)
    grad = np.einsum("tl,tld->td", vals[geo.tri], geo.grads)
    assert np.abs(grad - a).max() < 1e-10


# -- curve operators --------------------------------------------------------------


def test_curve_mass_total_length(circle_mesh):
    ops = assemble_boundary_curve(circle_mesh)
    assert abs(ops.mass.sum() - ops.seg_length.sum()) < 1e-12


def test_curve_perimeter_converges_to_pi():
    errs = []
    for n in (32, 64, 128):
        m = tunnel_mesh(h=1.0, n_obstacle=n, n_rings=1)
        ops = assemble_boundary_curve(m)
        errs.append(abs(ops.seg_length.sum() - np.pi))
    # O(n^-2) perimeter defect
    assert errs[2] < errs[0] * (32 / 128) ** 2 * 2.0


def test_curve_stiffness_kills_constants(circle_mesh):
    ops = assemble_boundary_curve(circle_mesh)
    c = np.ones(len(ops.loop))
    assert np.abs(ops.stiffness @ c).max() < 1e-13


# -- Dirichlet --------------------------------------------------------------------


def _laplace(mesh):
    """P1 stiffness matrix of the homogeneous Laplacian."""
    geo = P1Geometry.build(mesh)
    loc = geo.area[:, None, None] * np.einsum("tla,tma->tlm", geo.grads,
                                              geo.grads)
    rows = np.repeat(geo.tri, 3, axis=1).ravel()
    cols = np.tile(geo.tri, (1, 3)).ravel()
    n = mesh.num_vertices
    return sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def test_dirichlet_all_dofs(circle_mesh):
    n = circle_mesh.num_vertices
    A = eliminate_dirichlet(_laplace(circle_mesh), np.arange(n))
    assert abs(A - sp.identity(n)).max() == 0.0


def test_dirichlet_harmonic_reproduction(square_mesh):
    """One Newton step with the eliminated matrix, from an iterate that holds
    the boundary values, reproduces the harmonic function x."""
    K = _laplace(square_mesh)
    bverts = np.unique(square_mesh.boundary_segments)
    u = np.zeros(square_mesh.num_vertices)
    u[bverts] = square_mesh.vertices[bverts, 0]
    r = K @ u
    r[bverts] = 0.0
    u += sp.linalg.spsolve(eliminate_dirichlet(K, bverts).tocsc(), -r)
    assert np.abs(u - square_mesh.vertices[:, 0]).max() < 1e-12


def test_dirichlet_empty_noop(circle_mesh):
    K = _laplace(circle_mesh)
    A = eliminate_dirichlet(K, [])
    assert abs(A - K).max() == 0.0


def test_dirichlet_symmetry(square_mesh):
    K = _laplace(square_mesh)
    bverts = np.unique(square_mesh.boundary_segments)
    A = eliminate_dirichlet(K, bverts)
    assert abs((A - A.T).toarray()).max() < 1e-14


def test_dirichlet_keeps_stored_zeros():
    """The elimination acts on the stored entries: an explicit zero stays
    stored, and every value is that of D A D + (I - D)."""
    A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0, 2.0],
                                [1.0, 5.0, 3.0, 0.0],
                                [0.0, 3.0, 6.0, 1.0],
                                [2.0, 0.0, 1.0, 7.0]]))
    A[0, 1] = 0.0  # an explicit zero: its place stays in the pattern
    A[1, 0] = 0.0
    assert A.nnz == 12
    dofs = [2]
    D = np.diag([1.0, 1.0, 0.0, 1.0])
    want = D @ A.toarray() @ D + np.eye(4) - D
    got = eliminate_dirichlet(A, dofs)
    assert got.nnz == 12 - 4  # row and column 2 keep only the unit diagonal
    assert np.array_equal(got.toarray(), want)
    assert got[0, 1] == 0.0 and 1 in got.indices[got.indptr[0]:got.indptr[1]]
