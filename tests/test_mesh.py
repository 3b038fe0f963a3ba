import math

import numpy as np
import pytest

from flowshape import mesh as M
from flowshape.mesh import (
    BoundaryTag,
    Mesh,
    MeshError,
    boundary_normals,
    deform_mesh,
    load_msh,
    element_qualities,
    obstacle_loop,
    worst_quality,
    write_msh,
    write_vtk,
)
from flowshape.meshgen import tunnel_mesh


def read_vtk_points(path) -> np.ndarray:
    """Read back the POINTS block of a legacy VTK file."""
    with open(path) as fh:
        lines = fh.readlines()
    for i, ln in enumerate(lines):
        if ln.startswith("POINTS"):
            n = int(ln.split()[1])
            pts = np.array([[float(x) for x in lines[i + 1 + k].split()] for k in range(n)])
            return pts[:, :2]
    raise ValueError("no POINTS block found")


def triangle_quality(a, b, c) -> float:
    """Radius ratio R/r of one triangle, read from ``element_qualities``."""
    mesh = Mesh(np.array([a, b, c], dtype=float), [[0, 1, 2]],
                np.empty((0, 2), dtype=int), [])
    return float(element_qualities(mesh)[0])


def polygon_area_moment(points: np.ndarray) -> tuple[float, np.ndarray]:
    """Area and first moment of a closed polygon given by ordered vertices."""
    x, y = points[:, 0], points[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    mx = np.sum((x + xn) * cross) / 6.0
    my = np.sum((y + yn) * cross) / 6.0
    if area < 0:
        area, mx, my = -area, -mx, -my
    return float(area), np.array([mx, my])


def _single_triangle_msh(path, flip=False):
    conn = "1 3 2" if flip else "1 2 3"
    path.write_text(
        "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
        "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
        "$Elements\n4\n"
        "1 1 2 1 1 1 2\n"
        "2 1 2 2 2 2 3\n"
        "3 1 2 3 3 3 1\n"
        f"4 2 2 10 10 {conn}\n"
        "$EndElements\n"
    )


def test_load_msh_hand_built(tmp_path):
    p = tmp_path / "tri.msh"
    _single_triangle_msh(p)
    m = load_msh(p)
    assert (m.num_vertices, m.num_triangles, len(m.boundary_segments)) == (3, 1, 3)
    assert m.segment_tags[0] == BoundaryTag.INFLOW


def test_load_msh_orientation_repair(tmp_path):
    p = tmp_path / "tri.msh"
    _single_triangle_msh(p, flip=True)
    m = load_msh(p)
    assert m.num_triangles == 1
    assert M.signed_areas(m.vertices, m.triangles)[0] > 0


def test_load_msh_unknown_tag(tmp_path):
    p = tmp_path / "bad.msh"
    p.write_text(
        "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
        "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
        "$Elements\n1\n1 1 2 99 99 1 2\n$EndElements\n"
    )
    with pytest.raises(M.MshParseError, match="physical tag 99"):
        load_msh(p)


def test_msh_roundtrip_counts(tmp_path, circle_mesh):
    p = tmp_path / "tunnel.msh"
    write_msh(circle_mesh, p)
    m = load_msh(p)
    assert m.num_vertices == circle_mesh.num_vertices
    assert m.num_triangles == circle_mesh.num_triangles
    assert len(m.boundary_segments) == len(circle_mesh.boundary_segments)
    assert np.allclose(m.vertices, circle_mesh.vertices)


def test_holdall_roundtrip(tmp_path, holdall_mesh):
    p = tmp_path / "holdall.msh"
    write_msh(holdall_mesh, p)
    m = load_msh(p)
    assert len(m.obstacle_cells) == len(holdall_mesh.obstacle_cells)


def test_vtk_roundtrip(tmp_path, circle_mesh):
    p = tmp_path / "out.vtk"
    write_vtk(circle_mesh, {"v": np.zeros((circle_mesh.num_vertices, 2))}, p)
    pts = read_vtk_points(p)
    assert np.abs(pts - circle_mesh.vertices).max() < 1e-12
    text = p.read_text()
    assert "POINT_DATA" in text and "UNSTRUCTURED_GRID" in text


def test_vtk_no_fields(tmp_path, circle_mesh):
    p = tmp_path / "geom.vtk"
    write_vtk(circle_mesh, None, p)
    assert "POINT_DATA" not in p.read_text()


# -- normals ----------------------------------------------------------------------


def test_normals_point_into_obstacle(circle_mesh):
    loop = obstacle_loop(circle_mesh)
    n = boundary_normals(circle_mesh)
    v = circle_mesh.vertices[loop]
    radial = v / np.linalg.norm(v, axis=1)[:, None]
    # outward of the fluid = toward the circle center
    assert np.abs(n + radial).max() < 1e-3


def test_normal_square_corner():
    # square ring of fluid around a unit square obstacle
    verts = np.array(
        [
            [-1.0, -1.0], [2.0, -1.0], [2.0, 2.0], [-1.0, 2.0],  # outer
            [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],      # inner (obstacle)
        ]
    )
    tris = np.array(
        [
            [0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5],
            [2, 3, 7], [2, 7, 6], [3, 0, 4], [3, 4, 7],
        ]
    )
    segs = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6], [6, 7], [7, 4]])
    tags = np.array(
        [BoundaryTag.INFLOW, BoundaryTag.WALL, BoundaryTag.OUTFLOW, BoundaryTag.WALL]
        + [BoundaryTag.OBSTACLE] * 4,
        dtype=object,
    )
    m = Mesh(verts, tris, segs, tags)
    loop = obstacle_loop(m)
    n = boundary_normals(m)
    at = {tuple(verts[v]): n[i] for i, v in enumerate(loop)}
    s = math.sqrt(0.5)
    assert np.allclose(at[(0.0, 0.0)], [s, s], atol=1e-12)
    assert np.allclose(at[(1.0, 1.0)], [-s, -s], atol=1e-12)


def _irregular_annulus(n, seed=7):
    # inner circle r=0.5 (obstacle) with jittered angles, outer square ring
    rng = np.random.default_rng(seed)
    th = np.sort(2 * np.pi * (np.arange(n) + 0.35 * rng.random(n)) / n)
    inner = 0.5 * np.column_stack([np.cos(th), np.sin(th)])
    outer = 1.5 * np.column_stack([np.cos(2 * np.pi * np.arange(n) / n),
                                   np.sin(2 * np.pi * np.arange(n) / n)])
    verts = np.vstack([inner, outer])
    tris, segs, tags = [], [], []
    for i in range(n):
        j = (i + 1) % n
        tris.append([i, n + i, n + j])
        tris.append([i, n + j, j])
        segs.append([i, j])
        tags.append(BoundaryTag.OBSTACLE)
        segs.append([n + i, n + j])
        tags.append(BoundaryTag.WALL)
    return Mesh(verts, np.array(tris), np.array(segs), np.array(tags, dtype=object))


def test_normal_refinement_order_h():
    errs = []
    for n in (16, 32, 64):
        m = _irregular_annulus(n)
        loop = obstacle_loop(m)
        nrm = boundary_normals(m)
        v = m.vertices[loop]
        exact = -v / np.linalg.norm(v, axis=1)[:, None]
        ang = np.arccos(np.clip(np.sum(nrm * exact, axis=1), -1, 1))
        errs.append(ang.max())
    assert errs[1] < 0.7 * errs[0] and errs[2] < 0.7 * errs[1]


def test_closed_curve_identity(circle_mesh):
    loop = obstacle_loop(circle_mesh)
    pts = circle_mesh.vertices[loop]
    seg = np.roll(pts, -1, axis=0) - pts
    normals = np.column_stack([seg[:, 1], -seg[:, 0]])  # length-weighted
    assert np.abs(normals.sum(axis=0)).max() < 1e-12


# -- quality ----------------------------------------------------------------------


def test_quality_equilateral():
    a, b, c = (0, 0), (1, 0), (0.5, math.sqrt(3) / 2)
    assert abs(triangle_quality(a, b, c) - 2.0) < 1e-12


def test_quality_right_isosceles():
    assert abs(triangle_quality((0, 0), (1, 0), (0, 1)) - (1 + math.sqrt(2))) < 1e-12


def test_quality_needle():
    assert triangle_quality((0, 0), (1, 0), (0.5, 1e-3)) > 100


def test_quality_lower_bound(circle_mesh):
    from flowshape.mesh import element_qualities

    assert element_qualities(circle_mesh).min() >= 2 - 1e-12


def test_worst_quality_identity_and_shift(circle_mesh):
    w0 = np.zeros_like(circle_mesh.vertices)
    q0 = worst_quality(circle_mesh, w0)
    assert q0 == worst_quality(circle_mesh)
    shift = np.full_like(circle_mesh.vertices, 0.37)
    assert abs(worst_quality(circle_mesh, shift) - q0) < 1e-10


# -- deformation ------------------------------------------------------------------


def test_deform_shift(circle_mesh):
    w = np.zeros_like(circle_mesh.vertices)
    w[:, 0] = 0.1
    m2 = deform_mesh(circle_mesh, w)
    assert np.allclose(m2.vertices[:, 0], circle_mesh.vertices[:, 0] + 0.1)
    assert np.array_equal(m2.triangles, circle_mesh.triangles)


def test_deform_roundtrip(circle_mesh, rng):
    w = 0.002 * rng.standard_normal(circle_mesh.vertices.shape)
    m2 = deform_mesh(circle_mesh, w)
    m3 = deform_mesh(m2, -w)
    assert np.abs(m3.vertices - circle_mesh.vertices).max() < 1e-12


def test_deform_detects_inversion(circle_mesh):
    w = np.zeros_like(circle_mesh.vertices)
    t0 = circle_mesh.triangles[0]
    # collapse triangle 0 far past its opposite edge
    w[t0[0]] = 10 * (circle_mesh.vertices[t0[1]] - circle_mesh.vertices[t0[0]])
    with pytest.raises(MeshError, match="inverts"):
        deform_mesh(circle_mesh, w)


def test_deform_areas_match_det(circle_mesh, rng):
    from flowshape.fem import P1Geometry
    from flowshape.transform import element_kinematics

    w = 0.002 * rng.standard_normal(circle_mesh.vertices.shape)
    geo = P1Geometry.build(circle_mesh)
    _, det, _ = element_kinematics(geo, w)
    m2 = deform_mesh(circle_mesh, w)
    areas2 = M.signed_areas(m2.vertices, m2.triangles)
    assert np.abs(areas2 - det * geo.area).max() < 1e-12


# -- partition of the holdall -----------------------------------------------------


def test_area_partition(circle_mesh):
    fluid_area = M.signed_areas(circle_mesh.vertices, circle_mesh.triangles).sum()
    loop = obstacle_loop(circle_mesh)
    poly_area, _ = polygon_area_moment(circle_mesh.vertices[loop])
    assert abs(fluid_area + poly_area - 84.0) / 84.0 < 1e-8


def test_open_obstacle_rejected(circle_mesh):
    tags = circle_mesh.segment_tags.copy()
    idx = np.nonzero(tags == BoundaryTag.OBSTACLE)[0][0]
    tags[idx] = BoundaryTag.WALL
    with pytest.raises(MeshError):
        Mesh(
            circle_mesh.vertices,
            circle_mesh.triangles,
            circle_mesh.boundary_segments,
            tags,
        )
