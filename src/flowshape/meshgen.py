"""Delaunay-based generators for the benchmark geometries.

These produce the tunnel-with-obstacle meshes consumed by the demos and the
test suite: a rectangular flow tunnel [-7,7]x[-3,3] with a circular or
elliptical specimen, in fluid-only or holdall (obstacle interior discretized)
variants.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay

from .mesh import (
    Mesh,
    BoundaryTag,
    signed_areas,
)

__all__ = ["tunnel_mesh"]

BOX = (-7.0, 7.0, -3.0, 3.0)


def _box_points(h: float) -> np.ndarray:
    x0, x1, y0, y1 = BOX
    nx = max(2, int(round((x1 - x0) / h)))
    ny = max(2, int(round((y1 - y0) / h)))
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    pts = [np.column_stack([xs, np.full_like(xs, y0)]),
           np.column_stack([xs, np.full_like(xs, y1)]),
           np.column_stack([np.full_like(ys[1:-1], x0), ys[1:-1]]),
           np.column_stack([np.full_like(ys[1:-1], x1), ys[1:-1]])]
    return np.concatenate(pts)


def _interior_grid(h: float) -> np.ndarray:
    x0, x1, y0, y1 = BOX
    xs = np.arange(x0 + h, x1 - 0.5 * h, h)
    ys = np.arange(y0 + h, y1 - 0.5 * h, h)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    # stagger alternate rows for better-shaped triangles
    pts[:, 0] += 0.25 * h * (np.round((pts[:, 1] - y0) / h) % 2)
    return pts


def tunnel_mesh(
    h: float = 0.5,
    n_obstacle: int = 64,
    holdall: bool = False,
    semi_axes: tuple[float, float] = (0.5, 0.5),
    n_rings: int = 3,
) -> Mesh:
    """Tunnel [-7,7]x[-3,3] with an elliptical obstacle centered at the origin.

    Parameters
    ----------
    h : background element size
    n_obstacle : number of segments on the obstacle boundary
    holdall : also discretize the obstacle interior and mark its cells
    semi_axes : (a, b) of the obstacle ellipse; (r, r) gives the circle
    n_rings : graded point rings around the obstacle boundary
    """
    a, b = semi_axes
    theta = _equal_arc_angles(a, b, n_obstacle)
    bnd = np.column_stack([a * np.cos(theta), b * np.sin(theta)])
    seg_len = np.linalg.norm(np.roll(bnd, -1, axis=0) - bnd, axis=1)
    local_h = 0.5 * (seg_len + np.roll(seg_len, 1))

    # unit outward normal of the ellipse at the boundary points
    nrm = np.column_stack([bnd[:, 0] / a**2, bnd[:, 1] / b**2])
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]

    # curvature radius caps the normal offset so rings cannot self-intersect
    rho = (a**2 * np.sin(theta) ** 2 + b**2 * np.cos(theta) ** 2) ** 1.5 / (a * b)

    pts = [bnd]
    t = np.zeros(n_obstacle)
    ring_extent = np.zeros(n_obstacle)
    for k in range(n_rings):
        t = np.minimum(t + local_h * (1.3**k), 0.7 * rho + k * local_h)
        keep = slice(None, None, 1 + k // 2)  # thin out distant rings
        pts.append(bnd[keep] + t[keep, None] * nrm[keep])
        ring_extent = t
    outer = np.concatenate(pts[1:]) if n_rings else np.empty((0, 2))

    grid = _interior_grid(h)
    # keep grid points away from the obstacle/ring region
    d = _ellipse_distance(grid, a, b)
    margin = float(ring_extent.max()) + 0.7 * h if n_rings else 0.7 * h
    grid = grid[d > margin]

    if holdall:
        inner = [np.zeros((1, 2))]
        for s in (0.3, 0.55, 0.8):
            step = max(1, int(round(1.0 / s)))
            inner.append(s * bnd[::step])
        interior_obs = np.concatenate(inner)
        # drop interior points too close to the boundary polygon
        d_in = _ellipse_distance(interior_obs, a, b)
        interior_obs = interior_obs[d_in < -0.4 * float(np.median(local_h))]
    else:
        interior_obs = np.empty((0, 2))

    fixed = np.concatenate([bnd, _box_points(h)])
    free = np.concatenate([outer, grid, interior_obs])
    free = _dedupe(np.concatenate([fixed, free]), 0.35 * min(h, float(local_h.min())))[len(fixed):]
    points = np.concatenate([fixed, free])
    free_inside = np.zeros(len(points), dtype=bool)
    free_inside[len(points) - len(interior_obs):] = len(interior_obs) > 0
    points = _smooth(points, n_fixed=len(fixed), rounds=6,
                     a=a, b=b, inside_mask=free_inside,
                     clearance=0.3 * float(np.median(local_h)))

    tri = Delaunay(points)
    simplices = tri.simplices.copy()
    centroids = points[simplices].mean(axis=1)
    inside = _ellipse_distance(centroids, a, b) < 0.0

    if holdall:
        keep = np.ones(len(simplices), dtype=bool)
    else:
        keep = ~inside
    simplices = simplices[keep]
    inside = inside[keep]

    # drop unreferenced points and reindex
    used = np.unique(simplices)
    remap = -np.ones(len(points), dtype=int)
    remap[used] = np.arange(len(used))
    points = points[used]
    simplices = remap[simplices]

    areas = signed_areas(points, simplices)
    simplices[areas < 0] = simplices[areas < 0][:, ::-1]

    segments, tags = _classify_boundary(points, simplices, inside, a, b)
    obstacle_cells = np.nonzero(inside)[0] if holdall else np.empty(0, dtype=int)
    return Mesh(points, simplices, segments, tags, obstacle_cells)


def _equal_arc_angles(a: float, b: float, n: int) -> np.ndarray:
    """Parameter angles giving n approximately equal arc-length boundary points."""
    t = np.linspace(0.0, 2.0 * np.pi, 40 * n + 1)
    ds = np.sqrt((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (ds[1:] + ds[:-1]) * np.diff(t))])
    targets = np.linspace(0.0, s[-1], n, endpoint=False)
    return np.interp(targets, s, t)


def _ellipse_distance(p: np.ndarray, a: float, b: float) -> np.ndarray:
    """Approximate signed distance to the ellipse (negative inside)."""
    q = np.sqrt((p[:, 0] / a) ** 2 + (p[:, 1] / b) ** 2)
    return (q - 1.0) * min(a, b)


def _dedupe(points: np.ndarray, tol: float) -> np.ndarray:
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    pairs = tree.query_pairs(tol)
    drop = set(max(i, j) for i, j in pairs)
    mask = np.ones(len(points), dtype=bool)
    mask[list(drop)] = False
    return points[mask]


def _smooth(points, n_fixed, rounds, a, b, inside_mask, clearance):
    """Laplacian smoothing of the free points with re-triangulation per round.

    Free points are kept on their side of the obstacle boundary with a small
    clearance so the hole polygon survives the carving step.
    """
    pts = points.copy()
    n = len(pts)
    for _ in range(rounds):
        tri = Delaunay(pts)
        acc = np.zeros_like(pts)
        cnt = np.zeros(n)
        for e in ((0, 1), (1, 2), (2, 0)):
            i, j = tri.simplices[:, e[0]], tri.simplices[:, e[1]]
            np.add.at(acc, i, pts[j])
            np.add.at(acc, j, pts[i])
            np.add.at(cnt, i, 1.0)
            np.add.at(cnt, j, 1.0)
        new = acc / np.maximum(cnt, 1.0)[:, None]
        pts[n_fixed:] = 0.5 * (pts[n_fixed:] + new[n_fixed:])
        q = np.sqrt((pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2)
        qmin = 1.0 + clearance / min(a, b)
        qmax = 1.0 - clearance / min(a, b)
        outer_bad = (~inside_mask) & (q < qmin)
        outer_bad[:n_fixed] = False
        pts[outer_bad] *= (qmin / q[outer_bad])[:, None]
        inner_bad = inside_mask & (q > qmax)
        inner_bad[:n_fixed] = False
        pts[inner_bad] *= (qmax / q[inner_bad])[:, None]
    return pts


def _classify_boundary(points, simplices, inside, a, b):
    x0, x1, y0, y1 = BOX
    edge_count: dict[tuple, list] = {}
    for t, (i, j, k) in enumerate(simplices):
        for e in ((i, j), (j, k), (k, i)):
            key = (min(e), max(e))
            edge_count.setdefault(key, []).append(t)
    segments, tags = [], []
    for (i, j), tris in edge_count.items():
        if len(tris) == 1:
            seg_tag = _outer_tag(points[i], points[j], x0, x1, y0, y1)
            if seg_tag is None:
                seg_tag = BoundaryTag.OBSTACLE  # hole boundary (fluid-only mode)
            segments.append((i, j))
            tags.append(seg_tag)
        elif len(tris) == 2 and inside[tris[0]] != inside[tris[1]]:
            segments.append((i, j))
            tags.append(BoundaryTag.OBSTACLE)
    return np.asarray(segments, dtype=int), np.asarray(tags, dtype=object)


def _outer_tag(p, q, x0, x1, y0, y1, tol=1e-9):
    if abs(p[0] - x0) < tol and abs(q[0] - x0) < tol:
        return BoundaryTag.INFLOW
    if abs(p[0] - x1) < tol and abs(q[0] - x1) < tol:
        return BoundaryTag.OUTFLOW
    if (abs(p[1] - y0) < tol and abs(q[1] - y0) < tol) or (
        abs(p[1] - y1) < tol and abs(q[1] - y1) < tol
    ):
        return BoundaryTag.WALL
    return None
