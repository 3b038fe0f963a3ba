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


# a node line and an element line of the single-triangle file, each with
# one token that is not a number
MALFORMED_MSH = [
    pytest.param("$Nodes", "2 1 x 0", "4 2 2 10 10 1 2 3", id="nodes"),
    pytest.param("$Elements", "2 1 0 0", "4 2 2 10 ten 1 2 3", id="elements")]


def malformed_msh(path, node, element):
    path.write_text(
        "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
        f"$Nodes\n3\n1 0 0 0\n{node}\n3 0 1 0\n$EndNodes\n"
        f"$Elements\n1\n{element}\n$EndElements\n")


@pytest.mark.parametrize("section, node, element", MALFORMED_MSH)
def test_load_msh_rejects_a_malformed_number(tmp_path, section, node,
                                             element):
    """A token that is not a number is a parse error that names the section
    and the line, not a bare ValueError."""
    p = tmp_path / "bad.msh"
    malformed_msh(p, node, element)
    line = 2 if section == "$Nodes" else 1
    with pytest.raises(M.MshParseError,
                       match=rf"malformed \{section} line {line}: "):
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
    assert circle_mesh.boundary_segments[idx].tolist() == [1, 2]
    # of the two open ends, 2 comes first among the obstacle segments
    with pytest.raises(MeshError, match=r"^obstacle boundary is not a closed "
                                        r"polyline \(vertex 2\)$"):
        Mesh(
            circle_mesh.vertices,
            circle_mesh.triangles,
            circle_mesh.boundary_segments,
            tags,
        )


# -- validation errors, each with its first offending index ----------------------


def _square_ring():
    """A fluid ring between the box [-1, 2]^2 and the unit square obstacle:
    vertices, triangles, segments and tags, the obstacle loop 4, 5, 6, 7."""
    verts = np.array([[-1.0, -1.0], [2.0, -1.0], [2.0, 2.0], [-1.0, 2.0],
                      [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5],
                     [2, 3, 7], [2, 7, 6], [3, 0, 4], [3, 4, 7]])
    segs = np.array([[0, 1], [1, 2], [2, 3], [3, 0],
                     [4, 5], [5, 6], [6, 7], [7, 4]])
    tags = np.array([BoundaryTag.INFLOW, BoundaryTag.WALL, BoundaryTag.OUTFLOW,
                     BoundaryTag.WALL] + [BoundaryTag.OBSTACLE] * 4,
                    dtype=object)
    return verts, tris, segs, tags


def test_square_ring_is_valid():
    m = Mesh(*_square_ring())
    assert obstacle_loop(m).tolist() == [4, 5, 6, 7]


def test_triangle_index_out_of_range_rejected():
    verts, tris, segs, tags = _square_ring()
    for bad in (8, -1):
        tris[5, 1] = bad
        with pytest.raises(MeshError,
                           match="^triangle vertex index out of range$"):
            Mesh(verts, tris, segs, tags)


def test_inverted_triangle_rejected_with_first_index():
    verts, tris, segs, tags = _square_ring()
    tris[[3, 6]] = tris[[3, 6]][:, ::-1]
    with pytest.raises(MeshError,
                       match=r"^non-positive signed area in triangle 3$"):
        Mesh(verts, tris, segs, tags)


def test_segment_index_out_of_range_rejected():
    verts, tris, segs, tags = _square_ring()
    for bad in (8, -1):
        segs[2, 0] = bad
        with pytest.raises(MeshError, match="^boundary segment vertex index "
                                            "out of range$"):
            Mesh(verts, tris, segs, tags)


def test_segment_off_the_triangulation_rejected_with_first_index():
    verts, tris, segs, tags = _square_ring()
    segs[1] = [2, 1]   # reversed, still an edge
    segs[6] = [4, 6]   # across the obstacle
    segs[7] = [1, 3]   # across the fluid
    with pytest.raises(MeshError,
                       match=r"^boundary segment 6 is not a triangle edge$"):
        Mesh(verts, tris, segs, tags)


def test_open_obstacle_rejected_at_its_first_open_vertex():
    verts, tris, segs, tags = _square_ring()
    tags[4] = BoundaryTag.WALL   # drop (4, 5) from the loop
    # the obstacle vertices in order of appearance: 5, 6, 7, 4; 5 and 4 open
    with pytest.raises(MeshError, match=r"^obstacle boundary is not a closed "
                                        r"polyline \(vertex 5\)$"):
        Mesh(verts, tris, segs, tags)


def test_obstacle_of_several_loops_rejected():
    verts, tris, segs, _ = _square_ring()
    tags = np.array([BoundaryTag.OBSTACLE] * 8, dtype=object)
    with pytest.raises(MeshError, match="^obstacle polyline has several "
                                        "loops$"):
        Mesh(verts, tris, segs, tags)


def test_obstacle_touching_outer_boundary_rejected_at_least_vertex():
    verts, tris, segs, tags = _square_ring()
    segs = np.vstack([segs, [[1, 5], [0, 4]]])
    tags = np.concatenate([tags, np.array([BoundaryTag.INFLOW,
                                           BoundaryTag.WALL], dtype=object)])
    with pytest.raises(MeshError, match="^obstacle boundary touches outer "
                                        "boundary at vertex 4$"):
        Mesh(verts, tris, segs, tags)


def test_degenerate_obstacle_segment_rejected_with_its_loop_index():
    m = Mesh(*_square_ring())
    verts = m.vertices.copy()
    verts[6] = verts[5]   # only the normals see it: the areas are checked
    object.__setattr__(m, "vertices", verts)
    with pytest.raises(MeshError, match="^degenerate obstacle segment 1$"):
        boundary_normals(m)


def test_obstacle_segment_without_fluid_triangle_rejected():
    verts, tris, segs, tags = _square_ring()
    m = Mesh(verts, tris, segs, tags, obstacle_cells=[3])   # (1, 6, 5)
    with pytest.raises(MeshError, match=r"^obstacle segment \(5,6\) has no "
                                        r"adjacent fluid triangle$"):
        boundary_normals(m)


# -- generated meshes -------------------------------------------------------------


def _edge_loop_boundary(mesh):
    """Boundary segments and tags of ``mesh`` by one dict pass over the
    triangles' edges (i, j), (j, k), (k, i): each edge of one triangle,
    tagged by the box side it lies on (x = -7 inflow, x = 7 outflow,
    y = +-3 wall) or else as the obstacle, and each edge between an
    obstacle and a fluid triangle; in the order of first occurrence."""
    inside = np.zeros(len(mesh.triangles), dtype=bool)
    inside[mesh.obstacle_cells] = True
    edges = {}
    for t, (i, j, k) in enumerate(mesh.triangles):
        for e in ((i, j), (j, k), (k, i)):
            edges.setdefault((min(e), max(e)), []).append(t)
    sides = ((0, -7.0, BoundaryTag.INFLOW), (0, 7.0, BoundaryTag.OUTFLOW),
             (1, -3.0, BoundaryTag.WALL), (1, 3.0, BoundaryTag.WALL))
    segments, tags = [], []
    for (i, j), tris in edges.items():
        p, q = mesh.vertices[i], mesh.vertices[j]
        if len(tris) == 1:
            tag = next((tag for axis, x, tag in sides
                        if abs(p[axis] - x) < 1e-9 and abs(q[axis] - x) < 1e-9),
                       BoundaryTag.OBSTACLE)
        elif len(tris) == 2 and inside[tris[0]] != inside[tris[1]]:
            tag = BoundaryTag.OBSTACLE
        else:
            continue
        segments.append((i, j))
        tags.append(tag)
    return np.array(segments), tags


def _mesh_digest(mesh) -> str:
    import hashlib

    h = hashlib.sha256()
    for a in (mesh.vertices, mesh.triangles, mesh.boundary_segments):
        h.update(np.ascontiguousarray(a, a.dtype.newbyteorder("<")).tobytes())
    h.update(" ".join(t.value for t in mesh.segment_tags).encode())
    return h.hexdigest()[:16]


# The fixture meshes and the seed-0 meshes of the benchmark workloads
# (perfbench/workloads.py), whose reference values (perfbench/reference.json)
# rest on these exact vertices, triangles, segments and tags.
PINNED_MESHES = [
    (dict(h=0.5, n_obstacle=64), "20318bab088fc8e1"),
    (dict(h=0.35, n_obstacle=96), "1152ec2fb28f6dc5"),
    (dict(h=0.5, n_obstacle=64, holdall=True), "5bd2f2b12a376b9b"),
    (dict(h=0.35, n_obstacle=48, n_rings=3), "53e07c24d10e3975"),
    (dict(h=0.175, n_obstacle=48, n_rings=3), "272fd7991d0cd88b"),
    (dict(h=0.35, n_obstacle=48, n_rings=3, semi_axes=(0.35, 0.7)),
     "2923f4b52fa5c45f"),
]


@pytest.mark.parametrize("keywords, digest", PINNED_MESHES,
                         ids=[str(i) for i in range(len(PINNED_MESHES))])
def test_tunnel_mesh_is_pinned(keywords, digest):
    mesh = tunnel_mesh(**keywords)
    segments, tags = _edge_loop_boundary(mesh)
    assert np.array_equal(mesh.boundary_segments, segments)
    assert list(mesh.segment_tags) == tags
    assert _mesh_digest(mesh) == digest


def _normals_digest(normals) -> str:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(
        normals, normals.dtype.newbyteorder("<")).tobytes()).hexdigest()[:16]


# The obstacle normals of the PINNED_MESHES, in the same order: the flow's
# slip condition and the boundary control rest on these exact bits.
PINNED_NORMALS = ["415f6c529ba65048", "c4539a2cf87c572a", "0e936a9f32c6fec1",
                  "59fc6e2e798467a8", "18762a568973afbf", "b659ea8861cd20b7"]


@pytest.mark.parametrize("keywords, digest",
                         [(k, d) for (k, _), d in zip(PINNED_MESHES,
                                                      PINNED_NORMALS)],
                         ids=[str(i) for i in range(len(PINNED_MESHES))])
def test_boundary_normals_are_pinned(keywords, digest):
    assert _normals_digest(boundary_normals(tunnel_mesh(**keywords))) == digest
