"""Triangle mesh representation, Gmsh MSH 2.2 I/O, legacy VTK export and quality metrics.

The mesh is the fixed reference configuration: a triangulated flow tunnel with a
tagged boundary (inflow, wall, outflow, obstacle).  In holdall mode the obstacle
interior is discretized as well and its cells are recorded in ``obstacle_cells``;
the obstacle boundary then lies on the interface between fluid and obstacle cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "BoundaryTag",
    "Mesh",
    "MeshError",
    "MshParseError",
    "load_msh",
    "write_msh",
    "write_vtk",
    "boundary_normals",
    "obstacle_loop",
    "element_qualities",
    "worst_quality",
    "deform_mesh",
    "signed_areas",
]


class BoundaryTag(Enum):
    INFLOW = "inflow"
    WALL = "wall"
    OUTFLOW = "outflow"
    OBSTACLE = "obstacle"


# mapping of Gmsh physical ids to boundary groups / surfaces
DEFAULT_PHYSICAL_TAGS = {
    1: BoundaryTag.INFLOW,
    2: BoundaryTag.WALL,
    3: BoundaryTag.OUTFLOW,
    4: BoundaryTag.OBSTACLE,
}
FLUID_SURFACE_TAG = 10
OBSTACLE_SURFACE_TAG = 11


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class MshParseError(MeshError):
    """Malformed MSH file."""


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulated 2D domain with tagged boundary polylines.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, positively oriented
    boundary_segments : (ns, 2) int array of vertex pairs
    segment_tags : (ns,) array of BoundaryTag
    obstacle_cells : (k,) int array of triangle indices inside the obstacle
        (empty in fluid-only meshes)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_segments: np.ndarray
    segment_tags: np.ndarray
    obstacle_cells: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=int))
        object.__setattr__(self, "boundary_segments", np.asarray(self.boundary_segments, dtype=int).reshape(-1, 2))
        object.__setattr__(self, "segment_tags", np.asarray(self.segment_tags, dtype=object).reshape(-1))
        object.__setattr__(self, "obstacle_cells", np.asarray(self.obstacle_cells, dtype=int).reshape(-1))
        self._validate()

    # -- basic derived quantities -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def fluid_cells(self) -> np.ndarray:
        """Triangle indices of the fluid domain (all cells minus obstacle cells)."""
        if len(self.obstacle_cells) == 0:
            return np.arange(self.num_triangles)
        mask = np.ones(self.num_triangles, dtype=bool)
        mask[self.obstacle_cells] = False
        return np.nonzero(mask)[0]

    @property
    def is_holdall(self) -> bool:
        return len(self.obstacle_cells) > 0

    def segments_with_tag(self, tag: BoundaryTag) -> np.ndarray:
        return self.boundary_segments[self.segment_tags == tag]

    def vertices_with_tag(self, tag: BoundaryTag) -> np.ndarray:
        """Sorted unique vertex indices lying on segments of the given tag."""
        return np.unique(self.segments_with_tag(tag))

    def outer_boundary_vertices(self) -> np.ndarray:
        """Vertices on inflow, wall or outflow."""
        segs = self.boundary_segments[self.segment_tags != BoundaryTag.OBSTACLE]
        return np.unique(segs)

    def obstacle_interior_vertices(self) -> np.ndarray:
        """Vertices strictly inside the obstacle (holdall mode only)."""
        if not self.is_holdall:
            return np.empty(0, dtype=int)
        obs_verts = np.unique(self.triangles[self.obstacle_cells])
        on_interface = self.vertices_with_tag(BoundaryTag.OBSTACLE)
        return np.setdiff1d(obs_verts, on_interface)

    # -- validation ---------------------------------------------------------------

    def _validate(self):
        nv = self.num_vertices
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= nv):
            raise MeshError("triangle vertex index out of range")
        areas = signed_areas(self.vertices, self.triangles)
        bad = np.nonzero(areas <= 0.0)[0]
        if len(bad):
            raise MeshError(f"non-positive signed area in triangle {bad[0]}")
        if self.boundary_segments.size and (
            self.boundary_segments.min() < 0 or self.boundary_segments.max() >= nv
        ):
            raise MeshError("boundary segment vertex index out of range")
        # every boundary segment must be an edge of the triangulation
        near = self.triangles[_triangles_near(self.triangles, self.boundary_segments, nv)]
        off = np.flatnonzero(~np.isin(_edge_keys(self.boundary_segments, nv),
                                      _edge_keys(_triangle_edges(near), nv)))
        if len(off):
            raise MeshError(f"boundary segment {off[0]} is not a triangle edge")
        # obstacle boundary must form one closed polyline
        obs = self.segments_with_tag(BoundaryTag.OBSTACLE)
        if len(obs):
            ends = obs.ravel()
            open_ends = np.flatnonzero(np.bincount(ends)[ends] != 2)
            if len(open_ends):
                raise MeshError(
                    f"obstacle boundary is not a closed polyline (vertex {ends[open_ends[0]]})"
                )
            obstacle_loop(self)  # raises if disconnected into several loops
        # obstacle tag never touches the outer boundary groups
        touching = np.intersect1d(obs, self.outer_boundary_vertices())
        if len(touching):
            raise MeshError(f"obstacle boundary touches outer boundary at vertex {touching[0]}")


def _triangle_edges(triangles: np.ndarray) -> np.ndarray:
    """The edges (a, b), (b, c), (c, a) of every triangle, in that order."""
    return triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)


def _triangles_near(triangles: np.ndarray, vertices: np.ndarray, nv: int) -> np.ndarray:
    """Indices of the triangles with two or more of ``vertices``, in order:
    the only ones that can have an edge between two of them."""
    on = np.zeros(nv, dtype=bool)
    on[vertices] = True
    return np.flatnonzero(on[triangles].sum(axis=1) >= 2)


def _edge_keys(edges: np.ndarray, nv: int) -> np.ndarray:
    """Key i * nv + j, i < j, of every undirected edge (i, j) or (j, i)."""
    edges = np.sort(edges, axis=1)
    return edges[:, 0] * nv + edges[:, 1]


def signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed area of every triangle, positive for counterclockwise orientation."""
    p = np.asarray(vertices)[np.asarray(triangles)]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


# -- MSH 2.2 reader / writer -----------------------------------------------------


def load_msh(path) -> Mesh:
    """Read an ASCII Gmsh MSH 2.2 file.

    Line elements (type 1) carry the boundary tags, triangles (type 2) the
    surfaces.  ``DEFAULT_PHYSICAL_TAGS`` maps physical ids of line elements
    to :class:`BoundaryTag`; triangles with physical id
    ``OBSTACLE_SURFACE_TAG`` become obstacle cells.  Negatively oriented
    triangles are flipped.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    sections: dict[str, list[str]] = {}
    i = 0
    while i < len(lines):
        ln = lines[i]
        if ln.startswith("$") and not ln.startswith("$End"):
            name = ln[1:]
            end = f"$End{name}"
            try:
                j = lines.index(end, i + 1)
            except ValueError:
                raise MshParseError(f"missing {end}") from None
            sections[name] = lines[i + 1 : j]
            i = j + 1
        else:
            i += 1
    if "MeshFormat" not in sections or not sections["MeshFormat"]:
        raise MshParseError("missing $MeshFormat section")
    version = sections["MeshFormat"][0].split()
    if not version or not version[0].startswith("2.2"):
        raise MshParseError(f"unsupported MSH version {version[:1]}")
    if "Nodes" not in sections or "Elements" not in sections:
        raise MshParseError("missing $Nodes or $Elements section")

    node_lines = sections["Nodes"]
    try:
        n_nodes = int(node_lines[0])
    except (IndexError, ValueError):
        raise MshParseError("malformed node count") from None
    if len(node_lines) - 1 != n_nodes:
        raise MshParseError(f"expected {n_nodes} nodes, found {len(node_lines) - 1}")
    ids = np.empty(n_nodes, dtype=int)
    coords = np.empty((n_nodes, 2))
    for k, ln in enumerate(node_lines[1:]):
        parts = ln.split()
        try:
            ids[k] = int(parts[0])
            coords[k] = (float(parts[1]), float(parts[2]))
        except (IndexError, ValueError):
            parts = []
        if len(parts) < 4:
            raise MshParseError(f"malformed $Nodes line {k + 1}: {ln!r}")
    id_to_index = {int(v): k for k, v in enumerate(ids)}

    elem_lines = sections["Elements"]
    try:
        n_elems = int(elem_lines[0])
    except (IndexError, ValueError):
        raise MshParseError("malformed element count") from None
    if len(elem_lines) - 1 != n_elems:
        raise MshParseError(f"expected {n_elems} elements, found {len(elem_lines) - 1}")

    triangles, tri_phys = [], []
    segments, seg_tags = [], []
    for k, ln in enumerate(elem_lines[1:]):
        try:
            parts = [int(x) for x in ln.split()]
        except ValueError:
            parts = []
        if len(parts) < 3:
            raise MshParseError(f"malformed $Elements line {k + 1}: {ln!r}")
        etype, ntags = parts[1], parts[2]
        phys = parts[3] if ntags >= 1 else 0
        conn = parts[3 + ntags :]
        try:
            conn = [id_to_index[c] for c in conn]
        except KeyError as exc:
            raise MshParseError(f"element {k} references unknown node {exc}") from None
        if etype == 1:
            if len(conn) != 2:
                raise MshParseError(f"line element {k} has {len(conn)} nodes")
            if phys not in DEFAULT_PHYSICAL_TAGS:
                raise MshParseError(f"line element {k} carries unknown physical tag {phys}")
            segments.append(conn)
            seg_tags.append(DEFAULT_PHYSICAL_TAGS[phys])
        elif etype == 2:
            if len(conn) != 3:
                raise MshParseError(f"triangle element {k} has {len(conn)} nodes")
            triangles.append(conn)
            tri_phys.append(phys)
        else:
            raise MshParseError(f"unsupported element type {etype} in element {k}")

    triangles = np.asarray(triangles, dtype=int).reshape(-1, 3)
    tri_phys = np.asarray(tri_phys, dtype=int)
    # orientation auto-repair: flip clockwise triangles
    areas = signed_areas(coords, triangles)
    flip = areas < 0
    triangles[flip] = triangles[flip][:, ::-1]
    obstacle_cells = np.nonzero(tri_phys == OBSTACLE_SURFACE_TAG)[0]
    return Mesh(coords, triangles, np.asarray(segments, dtype=int).reshape(-1, 2),
                np.asarray(seg_tags, dtype=object), obstacle_cells)


def write_msh(mesh: Mesh, path) -> None:
    """Write the mesh as ASCII MSH 2.2 (inverse of :func:`load_msh`)."""
    inv = {v: k for k, v in DEFAULT_PHYSICAL_TAGS.items()}
    obstacle = set(mesh.obstacle_cells.tolist())
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{mesh.num_vertices}\n")
        for k, (x, y) in enumerate(mesh.vertices, start=1):
            fh.write(f"{k} {x:.16g} {y:.16g} 0\n")
        fh.write("$EndNodes\n")
        n_elem = len(mesh.boundary_segments) + mesh.num_triangles
        fh.write(f"$Elements\n{n_elem}\n")
        eid = 1
        for (a, b), tag in zip(mesh.boundary_segments, mesh.segment_tags):
            phys = inv[tag]
            fh.write(f"{eid} 1 2 {phys} {phys} {a + 1} {b + 1}\n")
            eid += 1
        for t, (a, b, c) in enumerate(mesh.triangles):
            phys = OBSTACLE_SURFACE_TAG if t in obstacle else FLUID_SURFACE_TAG
            fh.write(f"{eid} 2 2 {phys} {phys} {a + 1} {b + 1} {c + 1}\n")
            eid += 1
        fh.write("$EndElements\n")


# -- legacy VTK writer ------------------------------------------------------------


def write_vtk(mesh: Mesh, fields: dict[str, np.ndarray] | None, path) -> None:
    """Write a legacy ASCII VTK unstructured grid with nodal point data.

    Scalar fields have shape (nv,), vector fields (nv, 2); vectors are padded
    with a zero z-component.
    """
    fields = fields or {}
    nv, nt = mesh.num_vertices, mesh.num_triangles
    for name, f in fields.items():
        if len(np.asarray(f)) != nv:
            raise ValueError(f"field '{name}' has {len(f)} values for {nv} vertices")
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nflowshape output\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {nv} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.16e} {y:.16e} 0.0\n")
        fh.write(f"CELLS {nt} {4 * nt}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        if fields:
            fh.write(f"POINT_DATA {nv}\n")
            for name, f in fields.items():
                f = np.asarray(f, dtype=float)
                if f.ndim == 1:
                    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    for v in f:
                        fh.write(f"{v:.16e}\n")
                else:
                    fh.write(f"VECTORS {name} double\n")
                    for vx, vy in f:
                        fh.write(f"{vx:.16e} {vy:.16e} 0.0\n")


# -- obstacle boundary geometry ---------------------------------------------------


def obstacle_loop(mesh: Mesh) -> np.ndarray:
    """Ordered vertex indices of the closed obstacle polyline.

    The loop is returned without repeating the first vertex and oriented so
    that consecutive segments agree with adjacency; raises MeshError if the
    obstacle segments do not form a single closed loop.
    """
    segs = mesh.segments_with_tag(BoundaryTag.OBSTACLE)
    if len(segs) == 0:
        raise MeshError("mesh has no obstacle boundary")
    adj: dict[int, list[int]] = {}
    for a, b in segs:
        adj.setdefault(int(a), []).append(int(b))
        adj.setdefault(int(b), []).append(int(a))
    for v, nbrs in adj.items():
        if len(nbrs) != 2:
            raise MeshError(f"obstacle polyline not closed at vertex {v}")
    start = int(segs[0, 0])
    loop = [start]
    prev, cur = None, start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        loop.append(nxt)
        prev, cur = cur, nxt
        if len(loop) > len(segs):
            raise MeshError("obstacle polyline has several loops")
    if len(loop) != len(segs):
        raise MeshError("obstacle polyline has several loops")
    return np.asarray(loop, dtype=int)


def _segment_outward_normals(mesh: Mesh, loop: np.ndarray) -> np.ndarray:
    """Unit normal per loop segment pointing out of the fluid domain."""
    verts = mesh.vertices
    nxt = np.roll(loop, -1)
    tang = verts[nxt] - verts[loop]
    lengths = np.linalg.norm(tang, axis=1)
    if np.any(lengths == 0.0):
        raise MeshError(f"degenerate obstacle segment {int(np.argmin(lengths))}")
    tang = tang / lengths[:, None]
    normals = np.column_stack([tang[:, 1], -tang[:, 0]])
    # fix sign per segment using the adjacent fluid triangle, the last one
    # in the order of the triangles' edges (a, b), (b, c), (c, a)
    nv, fluid = mesh.num_vertices, mesh.fluid_cells
    fluid = fluid[_triangles_near(mesh.triangles[fluid], loop, nv)]
    keys = _edge_keys(_triangle_edges(mesh.triangles[fluid]), nv)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    want = _edge_keys(np.column_stack([loop, nxt]), nv)
    found = np.isin(want, keys)
    if not found.all():
        s = int(np.argmin(found))
        raise MeshError(f"obstacle segment ({loop[s]},{nxt[s]}) has no adjacent fluid triangle")
    last = order[np.searchsorted(keys, want, side="right") - 1]
    centroids = verts[mesh.triangles[fluid[last // 3]]].mean(axis=1)
    mids = 0.5 * (verts[loop] + verts[nxt])
    flip = np.sum(normals * (centroids - mids), axis=1) > 0.0
    normals[flip] = -normals[flip]
    return normals


def boundary_normals(mesh: Mesh) -> np.ndarray:
    """Outward (of the fluid) unit normal at every obstacle-loop vertex.

    The vertex normal is the normalized unweighted average of the two adjacent
    segment normals; entries follow the order of :func:`obstacle_loop`.
    """
    loop = obstacle_loop(mesh)
    seg_n = _segment_outward_normals(mesh, loop)
    vert_n = seg_n + np.roll(seg_n, 1, axis=0)  # segment s-1 and s meet at loop vertex s
    norms = np.linalg.norm(vert_n, axis=1)
    if np.any(norms < 1e-14):
        raise MeshError("degenerate vertex normal on obstacle boundary")
    return vert_n / norms[:, None]


# -- quality metrics --------------------------------------------------------------


def _radius_ratio(a, b, c):
    la = np.linalg.norm(b - c, axis=-1)
    lb = np.linalg.norm(c - a, axis=-1)
    lc = np.linalg.norm(a - b, axis=-1)
    d1 = b - a
    d2 = c - a
    area = 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
    if np.any(area <= 0.0):
        raise MeshError(f"non-positive area in triangle {int(np.argmin(area))}")
    s = 0.5 * (la + lb + lc)
    R = la * lb * lc / (4.0 * area)
    r = area / s
    return R / r


def element_qualities(mesh: Mesh, displacement: np.ndarray | None = None) -> np.ndarray:
    """R/r quality of every triangle, optionally after moving vertices by w."""
    verts = mesh.vertices if displacement is None else mesh.vertices + displacement
    p = verts[mesh.triangles]
    return _radius_ratio(p[:, 0], p[:, 1], p[:, 2])


def worst_quality(mesh: Mesh, displacement: np.ndarray | None = None) -> float:
    """Quality of the worst element of the (deformed) mesh."""
    return float(element_qualities(mesh, displacement).max())


def deform_mesh(mesh: Mesh, displacement: np.ndarray) -> Mesh:
    """Move vertices by the nodal displacement field; connectivity and tags kept.

    Raises MeshError if any element inverts.
    """
    w = np.asarray(displacement, dtype=float)
    if w.shape != mesh.vertices.shape:
        raise ValueError(f"displacement shape {w.shape} != vertices shape {mesh.vertices.shape}")
    new_verts = mesh.vertices + w
    areas = signed_areas(new_verts, mesh.triangles)
    bad = np.nonzero(areas <= 0.0)[0]
    if len(bad):
        raise MeshError(f"deformation inverts triangle {bad[0]}")
    return Mesh(new_verts, mesh.triangles, mesh.boundary_segments,
                mesh.segment_tags, mesh.obstacle_cells)
