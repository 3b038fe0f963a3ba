"""P1 finite-element machinery: quadrature, per-triangle geometry, the sum
of element contributions at the vertices, curve operators on the
arc-length parameterized obstacle polyline, the Dirichlet elimination of a
sparse system and the one sparse LU policy of the program.
All matrices are scipy CSR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh, MeshError, obstacle_loop

__all__ = [
    "quadrature_triangle",
    "P1Geometry",
    "CurveOperators",
    "assemble_boundary_curve",
    "eliminate_dirichlet",
    "LU_OPTIONS",
]

# Keyword arguments of every ``scipy.sparse.linalg.splu`` in the program.
# Each matrix it factorizes (the extension and flow Jacobians, also the
# diagonal blocks of the KKT state Jacobian, and the curve operator) has a
# nonzero diagonal, so a minimum-degree ordering of A^T + A with threshold
# partial pivoting that prefers the diagonal suits it (X. S. Li, "An
# overview of SuperLU", ACM TOMS 31, 2005).  On the whole state Jacobian of
# the 29k-dof circle mesh it cut the L+U fill of SciPy's default (COLAMD,
# threshold 1) by 40% and the factorization time by half.  Both keywords
# matter: at threshold 1 the same ordering fills many times more, and
# without ``SymmetricMode`` it fills more than COLAMD on the flow Jacobian.
LU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                  options=dict(SymmetricMode=True))

# The degree-4 Dunavant rule on the reference triangle in barycentric
# coordinates, with weights normalized to sum to one.
_QUAD_POINTS = np.array(
    [
        [0.108103018168070, 0.445948490915965, 0.445948490915965],
        [0.445948490915965, 0.108103018168070, 0.445948490915965],
        [0.445948490915965, 0.445948490915965, 0.108103018168070],
        [0.816847572980459, 0.091576213509771, 0.091576213509771],
        [0.091576213509771, 0.816847572980459, 0.091576213509771],
        [0.091576213509771, 0.091576213509771, 0.816847572980459],
    ]
)
_QUAD_WEIGHTS = np.array(
    [
        0.223381589678011,
        0.223381589678011,
        0.223381589678011,
        0.109951743655322,
        0.109951743655322,
        0.109951743655322,
    ]
)


def quadrature_triangle():
    """Barycentric points and weights of a rule exact to degree 4; the
    weights sum to 1."""
    return _QUAD_POINTS.copy(), _QUAD_WEIGHTS.copy()


@dataclass(frozen=True)
class P1Geometry:
    """Precomputed per-triangle data for vectorized assembly.

    grads[t, l] is the gradient of local hat function l on triangle t; h is the
    longest edge of the reference element (used by the PSPG stabilization).
    """

    tri: np.ndarray        # (nt, 3)
    grads: np.ndarray      # (nt, 3, 2)
    area: np.ndarray       # (nt,)
    h: np.ndarray          # (nt,)
    centroid: np.ndarray   # (nt, 2)

    @classmethod
    def build(cls, mesh: Mesh, cells: np.ndarray | None = None) -> "P1Geometry":
        tri = mesh.triangles if cells is None else mesh.triangles[cells]
        p = mesh.vertices[tri]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(det <= 0.0):
            raise MeshError(f"degenerate triangle {int(np.argmin(det))}")
        g1 = np.column_stack([d2[:, 1], -d2[:, 0]]) / det[:, None]
        g2 = np.column_stack([-d1[:, 1], d1[:, 0]]) / det[:, None]
        grads = np.stack([-g1 - g2, g1, g2], axis=1)
        edges = np.stack(
            [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1
        )
        h = np.linalg.norm(edges, axis=2).max(axis=1)
        return cls(tri, grads, 0.5 * det, h, p.mean(axis=1))

    @cached_property
    def grads_last(self) -> np.ndarray:
        """``grads`` with the element axis last, a contiguous (3, 2, nt)."""
        return np.ascontiguousarray(np.moveaxis(self.grads, 0, -1))

    @cached_property
    def dofs(self) -> tuple:
        """Flat indices of the vertex dofs of each element: (3, nt) into a
        scalar field (n,) and (3, 2, nt) into a vector field (n, 2)."""
        tri = np.ascontiguousarray(self.tri.T)
        return tri, 2 * tri[:, None] + np.arange(2)[:, None]

    def gather(self, field) -> np.ndarray:
        """A nodal scalar (n,) or vector (n, 2) field at the vertices of
        each element, (3, nt) or (3, 2, nt); dtype follows ``field``."""
        return np.take(field, self.dofs[np.ndim(field) - 1])

    def scatter(self, loc, n: int) -> np.ndarray:
        """Sum at the n vertices, float (n,) or (n, 2), of element
        contributions ``loc`` (3, nt) or (3, 2, nt): one ``np.bincount``
        adds each entry's contributions in the order of ``loc`` raveled,
        local dof by local dof and within each in element order."""
        shape = (n,) + loc.shape[1:-1]
        return np.bincount(self.dofs[loc.ndim - 2].ravel(),
                           loc.astype(float, copy=False).ravel(),
                           minlength=int(np.prod(shape))).reshape(shape)


# -- curve operators on the obstacle polyline -------------------------------------


@dataclass(frozen=True)
class CurveOperators:
    """1D P1 mass/stiffness on the closed obstacle polyline.

    ``loop`` maps curve dof index -> mesh vertex index; matrices are (m, m).
    """

    loop: np.ndarray
    seg_length: np.ndarray      # length of segment (loop[s], loop[s+1])
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix

    @cached_property
    def factor(self):
        """Sparse LU of the curve operator M + K, built on first use."""
        return spla.splu((self.mass + self.stiffness).tocsc(), **LU_OPTIONS)


def assemble_boundary_curve(mesh: Mesh) -> CurveOperators:
    """Curve mass and stiffness for the closed obstacle polyline."""
    loop = obstacle_loop(mesh)
    m = len(loop)
    pts = mesh.vertices[loop]
    seg = np.roll(pts, -1, axis=0) - pts
    length = np.linalg.norm(seg, axis=1)
    if np.any(length == 0.0):
        raise MeshError(f"degenerate obstacle segment {int(np.argmin(length))}")
    i = np.arange(m)
    j = (i + 1) % m
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    mvals = np.concatenate([length / 3, length / 3, length / 6, length / 6])
    kvals = np.concatenate([1 / length, 1 / length, -1 / length, -1 / length])
    mass = sp.coo_matrix((mvals, (rows, cols)), shape=(m, m)).tocsr()
    stiff = sp.coo_matrix((kvals, (rows, cols)), shape=(m, m)).tocsr()
    return CurveOperators(loop, length, mass, stiff)


# -- Dirichlet conditions ---------------------------------------------------------


def eliminate_dirichlet(matrix: sp.spmatrix, dofs) -> sp.csr_matrix:
    """Symmetric elimination D A D + (I - D) of the rows and columns ``dofs``.

    D is the diagonal 0/1 mask of the free dofs, so each constrained dof
    keeps a unit diagonal and decouples.  A Newton step with the eliminated
    matrix and a residual that vanishes on ``dofs`` leaves the Dirichlet
    values of the iterate unchanged.

    The elimination acts on the stored entries: those in a constrained row
    or column are dropped and every other one keeps its value, an explicit
    zero included.  So the pattern of the result depends only on the pattern
    of ``matrix``, not on entries that happen to round to zero.  The data
    keeps its dtype, so integer data can number the stored entries.
    """
    A = sp.csr_matrix(matrix)
    free = np.ones(A.shape[0], dtype=bool)
    free[np.asarray(dofs, dtype=int)] = False
    fixed = np.flatnonzero(~free)
    keep = np.repeat(free, np.diff(A.indptr)) & free[A.indices]
    # a constrained row keeps nothing but its unit diagonal
    kept_before = np.concatenate([[0], np.cumsum(keep)])[A.indptr]
    indptr = np.concatenate([[0], np.cumsum(np.diff(kept_before) + ~free)])
    unit = np.zeros(indptr[-1], dtype=bool)
    unit[indptr[fixed]] = True
    data = np.ones(indptr[-1], dtype=A.data.dtype)
    data[~unit] = A.data[keep]
    indices = np.empty(indptr[-1], dtype=A.indices.dtype)
    indices[unit] = fixed
    indices[~unit] = A.indices[keep]
    return sp.csr_matrix((data, indices, indptr), shape=A.shape)
