"""Shared per-element term engine for the coupled optimality system.

Every functional of the problem -- dissipation, control regularization,
determinant penalty, the state/extension/boundary constraint pairings and the
geometric constraints -- has a closed-form element integral for P1 fields,
because the transformation data (DF)^-1 and det(DF) are constant per triangle.
This module evaluates the value term by term (``value_terms``, whose sum
is ``total_value``), the gradient with respect to every variable block, and
all second-derivative blocks, from one set of shared per-element arrays.
The flow and KKT solvers and the run diagnostics are thin wrappers around
these routines, which keeps the state equation, the adjoint equation, the
coupled Newton matrix and the reported values consistent by construction.

A caller that needs only some blocks names them: ``gradient_blocks(...,
names=...)`` takes names from ``BLOCK_NAMES`` and ``hessian_blocks(...,
pairs=...)`` takes (row, column) pairs from ``HESSIAN_PAIRS``, the seventeen
nonzero pairs of the upper block triangle.  Each returns exactly the
requested keys and builds only the per-element arrays those blocks read; the
flow solves, for instance, never build the displacement terms.
Omitting the selection evaluates every block.  ``block_matrix`` places the
pairs that a block layout (ordered row and column names) touches into one
sparse matrix; the KKT matrix, the shape subsystem's matrix, the flow
state and adjoint matrices and the extension Jacobian are all built through
it.  The residuals of the solves are gradient blocks likewise: the extension
equation is the lam_w block, and its Jacobian the (w, lam_w) pair, both
from the one per-element frame of the extension operator.  The
determinant penalty's gradient and generalized Hessian are terms here
too; they read det(DF) and the pushed gradients of that frame, which
builds them from its own Dw on first use.
A block layout and its boundary conditions are kept here too, for every
solve: ``DofMap`` packs a layout's blocks into one flat vector and reads
them back, and ``dirichlet_dofs`` is its table of constrained dofs and
values, with the velocity data built here, once per ``Spaces``.

Every per-element array has the element axis last, following Cuvelier,
Japhet & Scarella ("An efficient way to assemble finite element matrices
in vector languages", BIT 56, 2016): (2, 2, t) for (DF)^-1, M and N,
(3, 2, t) for pushed gradients and nodal vector data, (3, t) for nodal
scalar data, (t,) for per-element scalars and (3, 2, 3, 2, t) for the
element matrices between vector fields.  Nodal fields are gathered by the
flat dof indices of ``P1Geometry.dofs``, built once per ``Spaces``, and
each contraction is a two-operand ``np.einsum`` over contiguous element
vectors; per-element scalars broadcast against the rest as they are.

Assembly follows a scatter plan, because the sparsity depends only on the
mesh (the same reference).  The CSR pattern of each Hessian block, and the
stored position of each element entry in it, are worked out once per
``Spaces``; a block is then one ``np.bincount`` of its element entries.
Gradient and Hessian blocks alike sum their element contributions in the
order of the element array raveled: local entry by local entry, and
within each in element order.  For each layout and set of
constrained dofs, ``block_matrix`` builds on its first call the pattern
of the eliminated matrix and the position of every entry of every placed
block in it, and each later call is one indexed assignment per placed
block.  The plans live in the ``Spaces`` they were built for.

Conventions: a displacement dof is a pair (vertex m, component c); for a unit
perturbation of that dof the transformation derivatives are

    d det(DF)        =  det(DF) * gt_m[c]
    d gt_l[a]        = -gt_l[c] * gt_m[a]
    d (DF)^-1[r, s]  = -(DF)^-1[r, c] * gt_m[s]

with gt the pushed gradients of transform.pushed_gradients.  The Hessian
formulas below follow from these by the product rule; each is symmetric under
exchange of the two dofs, which the assembled matrix inherits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sparse

from .fem import (P1Geometry, CurveOperators, assemble_boundary_curve,
                  eliminate_dirichlet)
from .mesh import BoundaryTag, Mesh, MeshError, boundary_normals
from .transform import deformation, kinematics, pushed_gradients

__all__ = ["BLOCK_NAMES", "HESSIAN_PAIRS", "KktParams", "Spaces",
           "KktVector", "DofMap", "control_spaces", "inflow_profile",
           "velocity_dirichlet", "dirichlet_dofs", "zero_blocks", "value_terms",
           "total_value", "gradient_blocks", "hessian_blocks", "block_matrix"]

# integral of phi_l phi_m over a triangle is area * S12[l, m]
_S12 = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0

BLOCK_NAMES = ("w", "v", "p", "b", "c", "lam_w", "lam_v", "lam_p", "lam_b",
               "lam_vol", "lam_bc")

# the (row, column) pairs of the upper block triangle that carry second
# derivatives; every other pair, and every reversed one, is zero
HESSIAN_PAIRS = (
    ("w", "w"), ("w", "v"), ("w", "lam_v"), ("w", "p"), ("w", "lam_p"),
    ("w", "lam_w"), ("w", "lam_vol"), ("w", "lam_bc"),
    ("v", "v"), ("v", "lam_v"), ("v", "lam_p"), ("p", "lam_v"), ("p", "lam_p"),
    ("c", "c"), ("c", "lam_b"), ("b", "lam_b"), ("b", "lam_w"))


@dataclass(frozen=True)
class KktParams:
    """Physical and algorithmic parameters of the optimality system.

    alpha weights the control cost, beta the determinant penalty with
    threshold eta_det, eta_ext the nonlinear extension's advection, nu the
    viscosity, mu the pressure stabilization, delta the inflow scale and
    newton_tol the KKT solve's stop tolerance.  Each must be positive (beta,
    eta_ext and mu may be 0); NaN or a value out of range raises ValueError.
    """

    alpha: float = 1e-2
    beta: float = 100.0
    eta_det: float = 5e-2
    eta_ext: float = 1.0
    nu: float = 0.01
    mu: float = 0.1
    delta: float = 6.0
    inflow: str = "paper-cosine"
    newton_tol: float = 1e-9

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("control weight alpha must be positive")
        if not self.beta >= 0.0:
            raise ValueError("penalty weight beta must be >= 0")
        if not self.eta_det > 0.0:
            raise ValueError("penalty threshold eta_det must be positive")
        if not self.eta_ext >= 0.0:
            raise ValueError("advection strength eta_ext must be >= 0")
        if not self.nu > 0.0:
            raise ValueError("viscosity nu must be positive")
        if not self.mu >= 0.0:
            raise ValueError("stabilization coefficient mu must be >= 0")
        if not self.delta > 0.0:
            raise ValueError("inflow scale delta must be positive")
        if not self.newton_tol > 0.0:
            raise ValueError("Newton tolerance newton_tol must be positive")


@dataclass(frozen=True)
class Spaces:
    """Fixed discrete structure shared by all evaluations on one mesh.

    geo_fluid covers the flow domain; geo_ext covers the extension domain,
    which additionally includes the obstacle interior when the mesh discretizes
    the full holdall.  The stored first moment makes the barycenter residual
    vanish exactly at w = 0.
    """

    mesh: Mesh
    geo_fluid: P1Geometry
    geo_ext: P1Geometry
    curve: CurveOperators | None
    normals: np.ndarray       # (m, 2) nodal normals along the obstacle loop
    moment: np.ndarray        # (2,) first moment of the undeformed fluid domain

    @classmethod
    def build(cls, mesh: Mesh) -> "Spaces":
        geo_fluid = P1Geometry.build(mesh, mesh.fluid_cells)
        geo_ext = P1Geometry.build(mesh) if mesh.is_holdall else geo_fluid
        has_obstacle = np.any(mesh.segment_tags == BoundaryTag.OBSTACLE)
        curve = assemble_boundary_curve(mesh) if has_obstacle else None
        normals = (boundary_normals(mesh) if has_obstacle
                   else np.empty((0, 2)))
        moment = (geo_fluid.area[:, None] * geo_fluid.centroid).sum(axis=0)
        return cls(mesh, geo_fluid, geo_ext, curve, normals, moment)

    @property
    def num_loop(self) -> int:
        return 0 if self.curve is None else len(self.curve.loop)

    @cached_property
    def block_shapes(self) -> dict:
        """The shape of each of the eleven blocks, by name."""
        vec, scalar = (self.mesh.num_vertices, 2), (self.mesh.num_vertices,)
        loop, loop_scalar = (self.num_loop, 2), (self.num_loop,)
        return dict(zip(BLOCK_NAMES, (vec, vec, scalar, loop, loop_scalar,
                                      vec, vec, scalar, loop, (1,), (2,))))

    @cached_property
    def _fluid_cells(self):
        """The fluid cells among the extension cells (all: a slice)."""
        return self.mesh.fluid_cells if self.mesh.is_holdall else slice(None)

    @cached_property
    def _patterns(self) -> dict:
        """Scatter indices, assembly plans (see :func:`block_matrix`) and
        other tables that depend only on the mesh, built on first use."""
        return {}


def control_spaces(mesh: Mesh, spaces: Spaces | None = None) -> Spaces:
    """``spaces`` (built from ``mesh`` when None) of a mesh that carries a
    boundary control; a mesh without an obstacle boundary raises
    ``MeshError``."""
    spaces = spaces or Spaces.build(mesh)
    if spaces.curve is None:
        raise MeshError("the mesh has no obstacle boundary, so there is no "
                        "boundary control")
    return spaces


def zero_blocks(spaces: Spaces, dtype=float) -> dict:
    return {name: np.zeros(shape, dtype)
            for name, shape in spaces.block_shapes.items()}


@dataclass
class KktVector:
    """All eleven solution blocks, vertex-based fields in (n, 2) or (n,)."""

    w: np.ndarray
    v: np.ndarray
    p: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lam_w: np.ndarray
    lam_v: np.ndarray
    lam_p: np.ndarray
    lam_b: np.ndarray
    lam_vol: np.ndarray
    lam_bc: np.ndarray

    @classmethod
    def zeros(cls, spaces: Spaces) -> "KktVector":
        return cls(**zero_blocks(spaces))

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in BLOCK_NAMES}


class DofMap:
    """Flat packing of a block layout: the blocks ``names`` (default: all
    eleven) in that order, ``offsets[name]`` being where each starts and
    ``total`` the length of the flat vector."""

    def __init__(self, spaces: Spaces, names=BLOCK_NAMES):
        self.spaces = spaces
        self.names = tuple(names)
        self.sizes = {name: math.prod(spaces.block_shapes[name])
                      for name in self.names}
        starts = np.cumsum([0] + list(self.sizes.values()))
        self.offsets = dict(zip(self.names, starts[:-1].tolist()))
        self.total = int(starts[-1])

    def block_slice(self, name: str) -> slice:
        off = self.offsets[name]
        return slice(off, off + self.sizes[name])

    def pack(self, y) -> np.ndarray:
        """The flat vector of the layout's blocks of ``y``, a dict or a
        dataclass of blocks such as :class:`KktVector`."""
        data = y if isinstance(y, dict) else vars(y)
        out = np.zeros(self.total)
        for name in self.names:
            out[self.block_slice(name)] = np.ravel(data[name])
        return out

    def blocks(self, vec: np.ndarray) -> dict:
        """The blocks of the layout read from ``vec``, copied, in their
        shapes."""
        shapes = self.spaces.block_shapes
        return {name: vec[self.block_slice(name)].reshape(shapes[name]).copy()
                for name in self.names}

    def unpack(self, vec: np.ndarray, frozen: KktVector | None = None
               ) -> KktVector:
        """The blocks of the layout read from ``vec``; a layout of fewer
        than eleven blocks takes the others from ``frozen``."""
        blocks = self.blocks(vec)
        return (KktVector(**blocks) if frozen is None
                else replace(frozen, **blocks))


def inflow_profile(x, delta: float, kind: str = "paper-cosine") -> np.ndarray:
    """Inflow velocity at the points x, (n, 2).

    ``paper-cosine`` is (cos(2 pi |x| / delta), 0); ``parabolic`` is the
    clamped channel profile (max(0, 1 - (2 y / delta)^2), 0) with delta as
    the channel height.
    """
    pts = np.asarray(x, dtype=float)
    out = np.zeros_like(pts)
    if kind == "paper-cosine":
        r = np.linalg.norm(pts, axis=1)
        out[:, 0] = np.cos(2.0 * np.pi * r / delta)
    elif kind == "parabolic":
        out[:, 0] = np.maximum(0.0, 1.0 - (2.0 * pts[:, 1] / delta) ** 2)
    else:
        raise ValueError(f"unknown inflow profile {kind!r}")
    return out


def _tag_vertices(mesh: Mesh, *tags) -> np.ndarray:
    segs = [mesh.vertices_with_tag(t).reshape(-1) for t in tags]
    return np.unique(np.concatenate(segs)) if segs else np.empty(0, dtype=int)


def velocity_dirichlet(mesh: Mesh, params, override=None):
    """Constrained velocity vertices and their values.

    Inflow vertices carry the profile of ``params.delta`` and
    ``params.inflow``, wall and obstacle vertices carry zero; a vertex on
    both (tunnel corner) is treated as wall.  ``override`` replaces the
    rule by a callable x -> velocity applied on the whole outer boundary
    and the obstacle (used by manufactured-solution runs).
    """
    if override is not None:
        verts = np.unique(np.concatenate(
            [mesh.outer_boundary_vertices(),
             _tag_vertices(mesh, BoundaryTag.OBSTACLE)]))
        return verts, np.asarray([override(x) for x in mesh.vertices[verts]],
                                 dtype=float)
    v_in = _tag_vertices(mesh, BoundaryTag.INFLOW)
    v_zero = _tag_vertices(mesh, BoundaryTag.WALL, BoundaryTag.OBSTACLE)
    verts = np.concatenate([v_in, v_zero])
    vals = np.zeros((len(verts), 2))
    vals[:len(v_in)] = inflow_profile(mesh.vertices[v_in], params.delta,
                                      params.inflow)
    # wall wins at shared corners
    keep = np.concatenate([~np.isin(v_in, v_zero), np.ones(len(v_zero), bool)])
    return verts[keep], vals[keep]


def dirichlet_dofs(spaces: Spaces, names, params=None, override=None,
                   pressure=None):
    """Constrained flat dofs, and their values, of the block layout ``names``.

    The deformation and its adjoint vanish on the outer boundary.  The
    velocity takes the data of :func:`velocity_dirichlet` at ``params``
    and ``override``, and its adjoint vanishes there; ``pressure``, an
    optional (vertex, value) tuple, pins the pressure likewise.  On a
    holdall mesh every flow field vanishes at the obstacle-interior
    vertices.  Conditions on blocks outside the layout are left out, so
    ``params`` is needed only by a layout with a velocity block.

    The table is built once per ``spaces``, layout, inflow data and
    ``pressure``, and kept there read-only; one with an ``override`` is
    built on every call and not kept.
    """
    key = ("dirichlet", tuple(names),
           None if params is None else (params.delta, params.inflow),
           pressure)
    if override is None and key in spaces._patterns:
        return spaces._patterns[key]
    mesh = spaces.mesh
    offsets = DofMap(spaces, names).offsets
    dofs, values = [], []

    def add(name, verts, vals):
        if name in offsets:
            verts, vals = np.asarray(verts), np.asarray(vals, float)
            if vals.ndim == 2:
                verts = np.repeat(2 * verts, 2) + np.tile([0, 1], len(verts))
            dofs.append(offsets[name] + verts)
            values.append(vals.ravel())

    outer = mesh.outer_boundary_vertices()
    for name in ("w", "lam_w"):
        add(name, outer, np.zeros((len(outer), 2)))
    if "v" in offsets or "lam_v" in offsets:
        verts, vals = velocity_dirichlet(mesh, params, override)
        add("v", verts, vals)
        add("lam_v", verts, np.zeros_like(vals))
    pins = mesh.obstacle_interior_vertices()
    for name in ("v", "lam_v"):
        add(name, pins, np.zeros((len(pins), 2)))
    for name in ("p", "lam_p"):
        add(name, pins, np.zeros(len(pins)))
    if pressure is not None:
        vertex, value = pressure
        add("p", [vertex], [value])
        add("lam_p", [vertex], [0.0])
    table = np.concatenate(dofs), np.concatenate(values)
    for array in table:
        array.flags.writeable = False
    if override is None:
        spaces._patterns[key] = table
    return table


# -- per-element working arrays ---------------------------------------------------


class _FluidFrame(SimpleNamespace):
    """Per-element arrays of the fluid terms at one point, element axis last.

    The fields set by :func:`_fluid_frame`, the kinematics of w, are always
    built.  The gathered flow fields and the contractions below are cached
    properties, built on first use, so an evaluation of a few blocks
    computes only the ones those blocks read: the geometric constraints
    read no flow field and no pushed gradient.
    """

    @cached_property
    def g(self):
        return pushed_gradients(self.geo, self.A)      # (l, a, t)

    @cached_property
    def vloc(self):
        return self.geo.gather(self.z["v"])

    @cached_property
    def lvloc(self):
        return self.geo.gather(self.z["lam_v"])

    @cached_property
    def ploc(self):
        return self.geo.gather(self.z["p"])

    @cached_property
    def lploc(self):
        return self.geo.gather(self.z["lam_p"])

    @cached_property
    def M(self):
        return np.einsum("lat,lbt->abt", self.vloc, self.g)  # Dv (DF)^-1

    @cached_property
    def trM(self):
        return self.M[0, 0] + self.M[1, 1]

    @cached_property
    def pbar(self):
        return self.ploc.mean(axis=0)

    @cached_property
    def lpbar(self):
        return self.lploc.mean(axis=0)

    @cached_property
    def N(self):
        return np.einsum("lat,lbt->abt", self.lvloc, self.g)

    @cached_property
    def trN(self):
        return self.N[0, 0] + self.N[1, 1]

    @cached_property
    def gradp(self):
        return np.einsum("lt,lat->at", self.ploc, self.G)

    @cached_property
    def gradlp(self):
        return np.einsum("lt,lat->at", self.lploc, self.G)

    @cached_property
    def ghp(self):
        return np.einsum("rst,st->rt", self.A, self.gradp)  # (DF)^-1 grad p

    @cached_property
    def ghlp(self):
        return np.einsum("rst,st->rt", self.A, self.gradlp)

    @cached_property
    def MM(self):
        return np.einsum("abt,abt->t", self.M, self.M)

    @cached_property
    def MN(self):
        return np.einsum("abt,abt->t", self.M, self.N)

    @cached_property
    def K(self):
        return np.einsum("cat,cbt->abt", self.M, self.M)

    @cached_property
    def B(self):
        MtN = np.einsum("cat,cbt->abt", self.M, self.N)
        return MtN + MtN.transpose(1, 0, 2)

    @cached_property
    def Mv(self):
        return np.einsum("lbt,abt->lat", self.vloc, self.M)

    @cached_property
    def conv(self):
        return self.area * np.einsum("lat,lat->t", _S12_dot(self.Mv),
                                     self.lvloc)

    @cached_property
    def P(self):
        return self.area * np.einsum("lat,lbt->abt", self.vloc,
                                     _S12_dot(self.lvloc))

    @cached_property
    def R(self):
        return np.einsum("abt,bct->act", self.P, self.M)

    @cached_property
    def gg(self):
        return np.einsum("lat,mat->lmt", self.g, self.g)

    @cached_property
    def Mg(self):
        return np.einsum("lbt,abt->lat", self.g, self.M)  # (M gt_n)[a]

    @cached_property
    def Ng(self):
        return np.einsum("lbt,abt->lat", self.g, self.N)

    @cached_property
    def MTg(self):
        return np.einsum("lat,act->lct", self.g, self.M)  # (M^T gt_m)[c]

    @cached_property
    def NTg(self):
        return np.einsum("lat,act->lct", self.g, self.N)

    @cached_property
    def sgp(self):
        return np.einsum("lat,at->lt", self.g, self.gradp)

    @cached_property
    def sglp(self):
        return np.einsum("lat,at->lt", self.g, self.gradlp)

    @cached_property
    def agp(self):
        # (DF)^-1[:, c] . ghp
        return np.einsum("rt,rct->ct", self.ghp, self.A)

    @cached_property
    def aglp(self):
        return np.einsum("rt,rct->ct", self.ghlp, self.A)

    @cached_property
    def T(self):
        return np.einsum("rat,rbt->abt", self.A, self.A)

    @cached_property
    def AG(self):
        return np.einsum("lst,rst->lrt", self.G, self.A)

    @cached_property
    def TG(self):
        return np.einsum("lbt,abt->lat", self.G, self.T)

    @cached_property
    def gG(self):
        return np.einsum("lat,mat->lmt", self.g, self.G)

    @cached_property
    def gP(self):
        return np.einsum("lat,abt->lbt", self.g, self.P)

    @cached_property
    def Q1(self):
        return self.area * _S12_dot(np.einsum("lat,abt->lbt", self.lvloc,
                                              self.M))

    @cached_property
    def Q5(self):
        return self.area * _S12_dot(np.einsum("lat,mat->lmt", self.vloc,
                                              self.g))

    @cached_property
    def cent(self):
        # the deformed element centroids, (2, t)
        return self.geo.centroid.T + self.geo.gather(self.z["w"]).mean(axis=0)


def _S12_dot(loc):
    """_S12 applied to the local-vertex axis of a (3, ..., t) array."""
    return (_S12 @ loc.reshape(3, -1)).reshape(loc.shape)


def _fluid_frame(spaces: Spaces, z: dict) -> _FluidFrame:
    geo = spaces.geo_fluid
    _, J, A = kinematics(geo, z["w"])
    return _FluidFrame(geo=geo, area=geo.area, h=geo.h, J=J, A=A,
                       G=geo.grads_last, z=z)


class _ExtFrame(SimpleNamespace):
    """Per-element arrays of the extension pairing and the determinant
    penalty at one point on the extension domain, element axis last; every
    extension term of the value, the gradient and the Hessian reads them.
    det(DF) ``J`` and the pushed gradients ``g`` follow from Dw on first use.
    """

    @cached_property
    def _deformation(self):
        return deformation(self.Dw)

    @property
    def J(self):
        return self._deformation[1]

    @cached_property
    def g(self):
        return pushed_gradients(self.geo, self._deformation[2])


def _ext_frame(spaces: Spaces, z: dict) -> _ExtFrame:
    geo = spaces.geo_ext
    G = geo.grads_last
    wloc, lwloc = geo.gather(z["w"]), geo.gather(z["lam_w"])
    return _ExtFrame(
        geo=geo, area=geo.area, G=G, wloc=wloc,
        Dw=np.einsum("lat,lbt->abt", wloc, G),
        Dlw=np.einsum("lat,lbt->abt", lwloc, G),
        Lam=geo.area * _S12_dot(lwloc),               # integral of phi_n lam_w
        W=geo.area * _S12_dot(wloc))                  # integral of phi_n w


# The dof maps of the element matrices of the Hessian blocks, by the key of
# their cached pattern: vector ("v", the (3, 2, t) flat dofs of
# P1Geometry.dofs as (6, t)) and scalar ("s", the vertices) fields on the
# fluid cells, vector fields on the extension cells ("ext"), and the fluid
# vector dofs against lam_vol ("vol") and lam_bc ("bc").  Blocks with the
# same dof maps share one pattern.


def _block_pattern(spaces: Spaces, kind, rows, cols, shape) -> tuple:
    """CSR pattern of a Hessian block of shape ``shape`` assembled from
    (R, C, t) element matrices whose row dofs are ``rows`` (R, t) and
    column dofs ``cols`` (C, t): the stored position of every element
    entry, and the pattern's column indices and row pointer.  It depends
    only on the mesh, so it is built once per ``spaces`` and ``kind``, the
    key of the dof maps."""
    key = ("block", kind)
    if key not in spaces._patterns:
        where, inverse = np.unique(
            (rows[:, None].astype(np.int64) * shape[1] + cols).ravel(),
            return_inverse=True)
        r, c = np.divmod(where, shape[1])
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(r, minlength=shape[0]))])
        spaces._patterns[key] = (inverse.astype(np.int32),
                                 c.astype(np.int32), indptr.astype(np.int32))
    return spaces._patterns[key]


def _scatter(spaces: Spaces, kind, loc, rows, cols, shape) -> sparse.csr_matrix:
    """The sum of the element matrices ``loc``, (R, C, t) with the row and
    column dofs possibly split as (3, 2), as a CSR matrix of shape
    ``shape`` (see :func:`_block_pattern`).  Each entry sums its element
    entries in the order of ``loc`` raveled."""
    inverse, indices, indptr = _block_pattern(spaces, kind, rows, cols,
                                              shape)
    return sparse.csr_matrix(
        (np.bincount(inverse, loc.ravel(), minlength=len(indices)),
         indices, indptr), shape=shape)


def _symmetric_scatter(spaces: Spaces, kind, half, dofs, n) -> sparse.csr_matrix:
    """S + S^T for the sum S of the element matrices ``half`` (R, R, t) on
    the dofs ``dofs`` (R, t), as :func:`_scatter` gives it.

    An entry is s_ij + s_ji, each s summed in the same order, and so
    equals its transposed entry bit for bit.
    """
    S = _scatter(spaces, kind, half, dofs, dofs, (n, n))
    key = ("transpose", kind)
    if key not in spaces._patterns:
        r = np.repeat(np.arange(n, dtype=np.int64), np.diff(S.indptr))
        where = r * n + S.indices
        spaces._patterns[key] = np.searchsorted(where, S.indices * np.int64(n)
                                                + r)
    S.data += S.data[spaces._patterns[key]]
    return S


# Element matrices (3, 2, 3, 2, t) between two vector P1 fields: row dof
# (m, c) is component c at local vertex m, column dof (n, d) likewise.


def _dof_outer(a, b):
    """Entry a[m, c] b[n, d], for (3, 2, t) arrays a and b."""
    return a[:, :, None, None] * b


def _dof_swap(a, b):
    """Entry a[m, d] b[n, c], for (3, 2, t) arrays a and b."""
    return a[:, None, None] * np.swapaxes(b, 0, 1)[None, :, :, None]


def _dof_kron(*pairs):
    """Entry sum_k A_k[m, n] B_k[c, d] over pairs of a (3, 3, t) A_k and a
    (2, 2, t) or shared (2, 2, 1) B_k."""
    return sum(a[:, None, :, None] * b[:, None] for a, b in pairs)


# -- value ------------------------------------------------------------------------


def value_terms(spaces: Spaces, params, z: dict) -> dict:
    """The terms of the functional by name: the ``dissipation``, the
    ``penalty``, the ``control`` cost, and the ``flow``, ``extension``
    (with the load M b), ``loop`` (Laplace-Beltrami) and ``geometry``
    constraints paired with their multipliers.  Their dtype follows the
    input blocks: extended-precision input stays extended, which
    finite-difference verification of the gradient relies on.
    """
    f = _fluid_frame(spaces, z)
    e = _ext_frame(spaces, z)
    nu = params.nu
    aJ = f.area * f.J
    plus = np.maximum(params.eta_det - e.J, 0.0)
    Mc, Kc, loop = _obstacle_loop(spaces)
    Mb = Mc @ z["b"]
    return {
        "dissipation": 0.5 * nu * np.sum(aJ * f.MM),
        "flow": (np.sum(aJ * f.pbar * f.trN - nu * aJ * f.MN - f.J * f.conv)
                 + np.sum(aJ * f.lpbar * f.trM)
                 + params.mu * np.sum(f.h * f.h * f.area * f.ghp * f.ghlp)),
        "penalty": 0.5 * params.beta * np.sum(e.area * plus * plus),
        "extension": (
            np.sum(z["lam_w"][loop] * Mb)
            - np.sum(e.area * (e.Dw + np.swapaxes(e.Dw, 0, 1)) * e.Dlw)
            - params.eta_ext * np.sum(
                np.einsum("abt,lbt->lat", e.Dw, e.wloc) * e.Lam)),
        "control": 0.5 * params.alpha * (z["c"] @ (Mc @ z["c"])),
        "loop": np.sum(z["lam_b"] * (
            Mc @ (z["c"][:, None] * spaces.normals) - Mb - Kc @ z["b"])),
        "geometry": -(z["lam_bc"] @ (f.cent @ aJ - spaces.moment)
                      + z["lam_vol"][0] * np.sum(f.area * (f.J - 1.0))),
    }


def total_value(spaces: Spaces, params, z: dict):
    """Scalar value of the full functional, the sum of :func:`value_terms`."""
    return sum(value_terms(spaces, params, z).values())


# -- block selection --------------------------------------------------------------


def _select(requested, known, what) -> tuple:
    """The requested keys in the order of ``known``; None selects them all."""
    if requested is None:
        return known
    want = set(requested)
    unknown = want.difference(known)
    if unknown:
        raise ValueError(f"unknown {what}(s): {sorted(unknown, key=str)}")
    return tuple(k for k in known if k in want)


def _obstacle_loop(spaces: Spaces):
    """Mass and stiffness matrices and vertices of the obstacle loop (empty
    when the mesh has no obstacle)."""
    if spaces.curve is None:
        empty = sparse.csr_matrix((0, 0))
        return empty, empty, np.empty(0, dtype=int)
    return spaces.curve.mass, spaces.curve.stiffness, spaces.curve.loop


# -- gradient ---------------------------------------------------------------------


def gradient_blocks(spaces: Spaces, params, z: dict, names=None) -> dict:
    """First-derivative blocks, without boundary conditions, keyed by name.

    ``names`` selects blocks from ``BLOCK_NAMES`` (None: all eleven); the
    result holds exactly those keys, in that order, and only what they read
    is evaluated: the extension frame only for "w" or "lam_w", with det(DF)
    and the pushed gradients of the penalty only for "w", the fluid frame
    for any block but "lam_w" and the boundary blocks.  An unknown name
    raises ``ValueError``.
    """
    want = _select(names, BLOCK_NAMES, "block name")
    nu, mu = params.nu, params.mu
    nv = spaces.mesh.num_vertices
    out = {}
    if set(want) - {"lam_w", "b", "c", "lam_b"}:
        f = _fluid_frame(spaces, z)
        area, J, h, geo = f.area, f.J, f.h, f.geo
        aJ = area * J
        mh2 = mu * h * h * area
    Mc, Kc, loop = _obstacle_loop(spaces)
    if "w" in want or "lam_w" in want:
        e = _ext_frame(spaces, z)

    if "w" in want:
        # the fluid and constraint terms, then the extension pairing's w
        # gradient on the extension domain, where the fluid cells sit at
        # mesh.fluid_cells (all cells on a mesh without a holdall)
        wt = _w_terms(f, params, z)
        gw = wt.S * f.g - np.einsum("lat,act->lct", f.g, wt.Q) - wt.V - wt.L
        ge = -e.area * np.einsum("lat,act->lct", e.G,
                                 e.Dlw + np.swapaxes(e.Dlw, 0, 1))
        ge -= params.eta_ext * (
            np.einsum("lat,act->lct", e.G,
                      np.einsum("lat,lct->act", e.wloc, e.Lam))
            + np.einsum("lat,act->lct", e.Lam, e.Dw))
        ge[..., spaces._fluid_cells] += gw
        out["w"] = e.geo.scatter(ge, nv)
        # the determinant penalty: -beta area (eta_det - J)_+ J gt_m[c]
        plus = np.maximum(params.eta_det - e.J, 0.0)
        out["w"] += e.geo.scatter(
            -params.beta * e.area * plus * e.J * e.g, nv)

    if "lam_w" in want:
        # the extension equation: minus the symmetrized-gradient form and
        # the advection eta_ext (Dw w), tested with each hat function over
        # the extension domain, plus the boundary load M b on the loop
        glw = -e.area * np.einsum("lat,act->lct", e.G,
                                  e.Dw + np.swapaxes(e.Dw, 0, 1))
        glw -= params.eta_ext * np.einsum("lat,cat->lct", e.W, e.Dw)
        out["lam_w"] = e.geo.scatter(glw, nv)
        out["lam_w"][loop] += Mc @ z["b"]

    if "v" in want:
        gv = aJ * (nu * (f.Mg - f.Ng) + f.lpbar * f.g) - J * (f.gP + f.Q1)
        out["v"] = geo.scatter(gv, nv)

    if "p" in want:
        gp = aJ * f.trN / 3.0 + mh2 * np.einsum("lrt,rt->lt", f.AG, f.ghlp)
        out["p"] = geo.scatter(gp, nv)

    if "lam_v" in want:
        # the state momentum equation
        glv = aJ * (f.pbar * f.g - nu * f.Mg - _S12_dot(f.Mv))
        out["lam_v"] = geo.scatter(glv, nv)

    if "lam_p" in want:
        # the state continuity equation with stabilization
        glp = aJ * f.trM / 3.0 + mh2 * np.einsum("lrt,rt->lt", f.AG, f.ghp)
        out["lam_p"] = geo.scatter(glp, nv)

    # boundary blocks on the obstacle loop
    if "b" in want:
        out["b"] = Mc @ (z["lam_w"][loop] - z["lam_b"]) - Kc @ z["lam_b"]
    if "c" in want:
        out["c"] = params.alpha * (Mc @ z["c"]) + np.einsum(
            "ma,ma->m", spaces.normals, Mc @ z["lam_b"])
    if "lam_b" in want:
        out["lam_b"] = Mc @ (z["c"][:, None] * spaces.normals - z["b"]) - (
            Kc @ z["b"])

    # geometric constraint residuals
    if "lam_vol" in want:
        out["lam_vol"] = -np.array([np.sum(area * (J - 1.0))])
    if "lam_bc" in want:
        out["lam_bc"] = -(f.cent @ aJ - spaces.moment)
    return {name: out[name] for name in want}


# -- Hessian ----------------------------------------------------------------------


def _w_terms(f: _FluidFrame, params, z: dict) -> SimpleNamespace:
    """Per-element coefficients of the fluid and geometric-constraint terms
    in w, shared by the w gradient and the (w, w) block.

    Each such term is J s for an invariant s of (DF)^-1, whose derivative by
    the dof (m, c) is J (s gt_m[c] - (gt_m Q_s)[c]).  Summed over the terms,
    the w gradient is S gt_m[c] - (gt_m Q)[c] - V[m, c] - L[c] on each
    element, where V is the stabilization's and L the barycenter's part.
    X is the sum of the terms' quadratic couplings of (DF)^-1.
    """
    nu = params.nu
    aJ = f.area * f.J
    lbc = z["lam_bc"]
    S = aJ * (0.5 * nu * f.MM - nu * f.MN + f.pbar * f.trN + f.lpbar * f.trM
              - lbc @ f.cent - z["lam_vol"][0]) - f.J * f.conv
    X = nu * aJ * (f.K - f.B)
    Q = X + aJ * (f.pbar * f.N + f.lpbar * f.M) - f.J * f.R
    mh2 = params.mu * f.h * f.h * f.area
    V = mh2 * (f.sgp[:, None] * f.aglp + f.sglp[:, None] * f.agp)
    return SimpleNamespace(S=S, Q=Q, X=X, V=V, L=aJ / 3.0 * lbc[:, None])


# the Hessian blocks that read no fluid arrays: the extension linearization
# and the blocks of the obstacle loop
_FRAMELESS_PAIRS = {("w", "lam_w"), ("c", "c"), ("c", "lam_b"),
                    ("b", "lam_b"), ("b", "lam_w")}


def hessian_blocks(spaces: Spaces, params, z: dict, active=None,
                   pairs=None) -> dict:
    """Second-derivative blocks as CSR matrices keyed by block-name pairs.

    A block's pattern is every position that an element touches, zeros
    included, so it depends only on the mesh; each entry sums its element
    entries in the order the module docstring states.  Only one
    triangle of the block structure is produced; the assembled system
    matrix places each off-diagonal block together with its transpose.  The
    penalty contribution uses the generalized derivative with the active set
    {det(DF) < eta_det} (ties inactive), making the result an element of the
    generalized Jacobian of the gradient; ``active`` overrides that set with
    a boolean mask over the extension-domain elements.

    ``pairs`` selects blocks from ``HESSIAN_PAIRS`` (None: all seventeen);
    the result holds exactly those keys, in that order, and only the
    per-element arrays they read are built: the extension frame only for
    ("w", "w") or ("w", "lam_w"), with det(DF) and the pushed gradients of
    the penalty only for ("w", "w"), the fluid frame for any pair but
    ("w", "lam_w") and those of the loop.
    An unknown pair, a reversed one included, raises ``ValueError``.
    """
    want = _select(pairs, HESSIAN_PAIRS, "Hessian block pair")
    nu, mu = params.nu, params.mu
    sizes = {name: math.prod(shape)
             for name, shape in spaces.block_shapes.items()}
    eye = np.eye(2)[:, :, None]
    if set(want) - _FRAMELESS_PAIRS:
        f = _fluid_frame(spaces, z)
        area, J, g, h = f.area, f.J, f.g, f.h
        aJ = area * J
        mh2 = mu * h * h * area
        ftri, fdofs = f.geo.dofs
        fdofs = fdofs.reshape(6, -1)

    blocks = {}
    if ("w", "w") in want or ("w", "lam_w") in want:
        e = _ext_frame(spaces, z)
        edofs = e.geo.dofs[1].reshape(6, -1)

    # -- (w, w): every J-carrying term plus stabilization, advection, penalty
    if ("w", "w") in want:
        # half of the extension pairing's advection and of the penalty, on
        # the extension domain, whose cells include the fluid cells at
        # mesh.fluid_cells; the assembled half plus its transpose is exactly
        # symmetric, whatever order the sparse sum takes.  With chi the
        # active indicator, the penalty's generalized second derivative is
        #   beta area [chi J^2 gt_m[c] gt_n[d]
        #              - (eta_det - J)_+ J (gt_m[c] gt_n[d] - gt_m[d] gt_n[c])]
        # This half comes before the fluid half: the other way round, the
        # frame's arrays are allocated among the fluid temporaries, and the
        # block page-faulted on every call in a measured process.
        Ke = _dof_swap(e.G, -params.eta_ext * e.Lam)
        plus = np.maximum(params.eta_det - e.J, 0.0)
        chi = plus > 0.0 if active is None else np.asarray(active, dtype=bool)
        c1 = params.beta * e.area * chi * e.J * e.J
        c2 = params.beta * e.area * plus * e.J
        outer = _dof_outer(e.g, e.g)
        Ke += 0.5 * ((c1 - c2) * outer + c2 * outer.transpose(0, 3, 2, 1, 4))
        # With Y = gt Q, the second derivative of the terms of _w_terms is
        #   S (gt_m[c] gt_n[d] - gt_m[d] gt_n[c]) + X[c, d] (gt_m . gt_n)
        #   - gt_m[c] (Y + L)[n, d] + gt_m[d] (Y + V)[n, c]
        #   + mh2 (gt_m . grad p) (gt_n . grad lam_p) T[c, d]
        # plus the transpose of the last two lines.  K holds half of it.
        wt = _w_terms(f, params, z)
        Y = np.einsum("lat,act->lct", g, wt.Q)
        half_Sg = 0.5 * wt.S * g
        K = _dof_outer(g, half_Sg - Y - wt.L)
        K += _dof_swap(g, Y + wt.V - half_Sg)
        K += _dof_kron((0.5 * f.gg, wt.X),
                       (mh2 * f.sgp[:, None] * f.sglp, f.T))
        Ke[..., spaces._fluid_cells] += K
        blocks[("w", "w")] = _symmetric_scatter(
            spaces, "ext", Ke, edofs, sizes["w"])

    # -- (w, v)
    if ("w", "v") in want:
        Da = aJ * (nu * (f.Mg - f.Ng) + f.lpbar * g)
        Hwv = _dof_outer(g, Da - J * (f.gP + f.Q1))
        Hwv -= _dof_swap(Da - J * f.gP, g)
        Hwv += _dof_swap(J * g, f.Q1)
        Hwv -= _dof_kron((f.gg, nu * aJ * np.swapaxes(f.M - f.N, 0, 1)))
        blocks[("w", "v")] = _scatter(spaces, "vv", Hwv, fdofs, fdofs,
                                      (sizes["w"], sizes["v"]))

    # -- (w, lam_v)
    if ("w", "lam_v") in want:
        Fa = aJ * (f.pbar * g - nu * f.Mg)
        Hwl = _dof_outer(g, Fa - aJ * _S12_dot(f.Mv)) - _dof_swap(Fa, g)
        Hwl += _dof_kron((nu * aJ * f.gg + J * np.swapaxes(f.Q5, 0, 1),
                          np.swapaxes(f.M, 0, 1)))
        blocks[("w", "lam_v")] = _scatter(spaces, "vv", Hwl, fdofs,
                                          fdofs, (sizes["w"], sizes["lam_v"]))

    # -- (w, p) and (w, lam_p)
    if ("w", "p") in want:
        Hwp = (aJ / 3.0 * (f.trN * g - f.NTg))[:, :, None] - mh2 * (
            f.gG[:, None] * f.aglp[:, None]
            + f.sglp[:, None, None] * np.swapaxes(f.TG, 0, 1))
        blocks[("w", "p")] = _scatter(spaces, "vs", Hwp, fdofs, ftri,
                                      (sizes["w"], sizes["p"]))
    if ("w", "lam_p") in want:
        Hwlp = (aJ / 3.0 * (f.trM * g - f.MTg))[:, :, None] - mh2 * (
            f.gG[:, None] * f.agp[:, None]
            + f.sgp[:, None, None] * np.swapaxes(f.TG, 0, 1))
        blocks[("w", "lam_p")] = _scatter(spaces, "vs", Hwlp, fdofs,
                                          ftri, (sizes["w"], sizes["lam_p"]))

    # -- (w, lam_w): the extension linearization, the transposed derivative
    # of the extension equation (the lam_w gradient) by w; the pairing is
    # linear in lam_w, so the block applied to lam_w is its w gradient
    if ("w", "lam_w") in want:
        # entry (m, c), (n, a): -area G_m[a] G_n[c] - eta_ext Dw[a, c] area
        # S12[m, n] - delta_ca K[m, n]
        eta, G, earea = params.eta_ext, e.G, e.area
        K = (earea * np.einsum("lat,mat->lmt", G, G)
             + eta * np.einsum("lat,mat->lmt", G, e.W))
        Hwlw = -_dof_swap(earea * G, G) - _dof_kron(
            (eta * earea * _S12[:, :, None], np.swapaxes(e.Dw, 0, 1)),
            (K, eye))
        blocks[("w", "lam_w")] = _scatter(spaces, "ext", Hwlw, edofs, edofs,
                                          (sizes["w"], sizes["lam_w"]))

    # -- (w, lam_vol) and (w, lam_bc)
    if ("w", "lam_vol") in want:
        blocks[("w", "lam_vol")] = _scatter(
            spaces, "vol", -(aJ * g), fdofs,
            np.zeros((1, fdofs.shape[1]), dtype=int), (sizes["w"], 1))
    if ("w", "lam_bc") in want:
        Hwbc = -aJ * (g[:, :, None] * f.cent + eye / 3.0)
        bccols = np.broadcast_to(np.arange(2)[:, None], (2, fdofs.shape[1]))
        blocks[("w", "lam_bc")] = _scatter(spaces, "bc", Hwbc,
                                           fdofs, bccols, (sizes["w"], 2))

    # -- (v, v), (v, lam_v), (v, lam_p), (p, lam_v), (p, lam_p)
    if ("v", "v") in want:
        Lamv = area * _S12_dot(f.lvloc)
        Hvv = _dof_kron((nu * aJ * f.gg, eye))
        Hvv -= _dof_swap(J * g, Lamv) + _dof_swap(Lamv, J * g)
        blocks[("v", "v")] = _scatter(spaces, "vv", Hvv, fdofs, fdofs,
                                      (sizes["v"], sizes["v"]))
    if ("v", "lam_v") in want:
        Hvlv = -_dof_kron((nu * aJ * f.gg + J * np.swapaxes(f.Q5, 0, 1), eye),
                          (aJ * _S12[:, :, None], np.swapaxes(f.M, 0, 1)))
        blocks[("v", "lam_v")] = _scatter(spaces, "vv", Hvlv, fdofs,
                                          fdofs, (sizes["v"], sizes["lam_v"]))
    if ("v", "lam_p") in want:
        Hvlp = np.repeat((aJ / 3.0 * g)[:, :, None], 3, axis=2)
        blocks[("v", "lam_p")] = _scatter(spaces, "vs", Hvlp, fdofs,
                                          ftri, (sizes["v"], sizes["lam_p"]))
    if ("p", "lam_v") in want:
        Hplv = np.repeat((aJ / 3.0 * g)[None], 3, axis=0)
        blocks[("p", "lam_v")] = _scatter(spaces, "sv", Hplv, ftri,
                                          fdofs, (sizes["p"], sizes["lam_v"]))
    if ("p", "lam_p") in want:
        Hplp = mh2 * np.einsum("lrt,mrt->lmt", f.AG, f.AG)
        blocks[("p", "lam_p")] = _scatter(spaces, "ss", Hplp, ftri,
                                          ftri, (sizes["p"], sizes["lam_p"]))

    # -- boundary blocks on the obstacle loop
    if ("c", "c") in want:
        blocks[("c", "c")] = params.alpha * _obstacle_loop(spaces)[0]
    if ("loop",) not in spaces._patterns:
        spaces._patterns[("loop",)] = _loop_blocks(spaces, sizes)
    blocks.update((k, v.copy()) for k, v in spaces._patterns[("loop",)].items()
                  if k in want)
    return {k: blocks[k].tocsr() for k in want}


def _loop_blocks(spaces: Spaces, sizes) -> dict:
    """The Hessian blocks of the obstacle loop that do not scale with
    alpha: constants of the mesh, built once per ``spaces``."""
    Mc, Kc, loop = _obstacle_loop(spaces)
    m = spaces.num_loop
    Mcoo = Mc.tocoo()
    lb_cols = 2 * Mcoo.col[:, None] + np.arange(2)[None, :]
    vals = Mcoo.data[:, None] * spaces.normals[Mcoo.row]
    lw_cols = 2 * loop[Mcoo.col][:, None] + np.arange(2)[None, :]
    b_rows = 2 * Mcoo.row[:, None] + np.arange(2)[None, :]
    return {("c", "lam_b"): sparse.csr_matrix(
                (vals.ravel(), (np.repeat(Mcoo.row, 2), lb_cols.ravel())),
                shape=(m, 2 * m)),
            ("b", "lam_b"): -sparse.kron(
                (Mc + Kc), sparse.identity(2, format="csr"), format="csr"),
            ("b", "lam_w"): sparse.csr_matrix(
                (np.repeat(Mcoo.data, 2), (b_rows.ravel(), lw_cols.ravel())),
                shape=(2 * m, sizes["lam_w"]))}


def block_matrix(spaces: Spaces, params, z: dict, rows, cols=None,
                 active=None, fixed=None) -> sparse.csr_matrix:
    """Second-derivative matrix of the Lagrangian on a block layout.

    ``rows`` and ``cols`` (default: ``rows``) are ordered tuples of block
    names, and block (r, c) of the result, at the offsets of
    :class:`DofMap`, is the second derivative with respect to r and c.
    Only the pairs of ``HESSIAN_PAIRS`` that the layout touches are
    evaluated; an off-diagonal pair also fills its transposed position.
    ``active`` is passed to :func:`hessian_blocks`.  ``fixed`` lists
    constrained dofs of a square layout: their rows and columns are
    eliminated as by :func:`flowshape.fem.eliminate_dirichlet`, which
    leaves a unit diagonal.

    The blocks come summed, one entry per stored position, so each entry
    has one place in the result: the matrix is filled by one indexed
    assignment per placed block, through a plan built on the first call
    per ``spaces``, layout and ``fixed`` and cached in ``spaces``.  A
    stored value is thus the same in every layout, the transposed entry of
    a placed block equals the entry bit for bit, and stored zeros stay.
    """
    cols = rows if cols is None else cols
    rmap, cmap = DofMap(spaces, rows), DofMap(spaces, cols)
    roff, nr, coff, nc = rmap.offsets, rmap.total, cmap.offsets, cmap.total
    pairs = tuple((a, b) for a, b in HESSIAN_PAIRS
                  if (a in roff and b in coff) or (b in roff and a in coff))
    blocks = hessian_blocks(spaces, params, z, active, pairs=pairs)
    if fixed is not None:
        fixed = np.unique(np.asarray(fixed, dtype=np.int64))
    key = ("plan", tuple(rows), tuple(cols),
           None if fixed is None else fixed.tobytes())
    if key not in spaces._patterns:
        spaces._patterns[key] = _build_plan(spaces, blocks, rows, cols, fixed)
    plan = spaces._patterns[key]
    nnz = len(plan.indices)
    values = np.empty(nnz + 1)
    for pair, slots in plan.placements:
        values[slots] = blocks[pair].data
    values[plan.unit] = 1.0
    return sparse.csr_matrix((values[:nnz], plan.indices, plan.indptr),
                             shape=(nr, nc))


@dataclass(frozen=True)
class _AssemblyPlan:
    """Where the entries of the Hessian blocks go in a layout's matrix.

    ``placements`` pairs each placed block (an off-diagonal one placed
    twice appears twice) with the stored position of every entry of the
    block, ``len(indices)`` for an eliminated one.  ``unit`` holds the
    unit diagonals of the constrained dofs; ``indptr`` and ``indices`` are
    the CSR pattern.
    """

    placements: tuple
    unit: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


def _build_plan(spaces: Spaces, blocks: dict, rows, cols,
                fixed) -> _AssemblyPlan:
    """The plan of the layout (rows, cols) with the constrained dofs
    ``fixed`` (sorted), from the CSR patterns of ``blocks``."""
    rmap, cmap = DofMap(spaces, rows), DofMap(spaces, cols)
    roff, nr, coff, nc = rmap.offsets, rmap.total, cmap.offsets, cmap.total
    placed = []
    for (a, b), mat in blocks.items():
        # the data numbers the block's entries, so that the transposed
        # pattern tells where each one goes
        ids = sparse.csr_matrix((np.arange(mat.nnz), mat.indices,
                                 mat.indptr), shape=mat.shape)
        for r, c, part in ((a, b, ids), (b, a, ids.T.tocsr()))[:1 + (a != b)]:
            if r in roff and c in coff:
                placed.append(((a, b), part, roff[r], coff[c]))
    # a row of the layout lists the rows of its blocks left to right
    placed.sort(key=lambda p: p[3])
    counts = np.zeros(nr, dtype=np.int64)
    for _, part, r0, _ in placed:
        counts[r0:r0 + part.shape[0]] += np.diff(part.indptr)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.empty(indptr[-1], dtype=np.int32)
    filled = indptr[:-1].copy()
    slots = []
    for _, part, r0, c0 in placed:
        local = np.repeat(np.arange(part.shape[0]), np.diff(part.indptr))
        where = (filled[r0 + local] + np.arange(part.nnz)
                 - part.indptr[local])
        filled[r0:r0 + part.shape[0]] += np.diff(part.indptr)
        indices[where] = part.indices + c0
        slot = np.empty(part.nnz, dtype=np.int64)
        slot[part.data] = where
        slots.append(slot)
    # likewise the pattern's data numbers its stored entries, so that the
    # elimination tells where each one goes
    pattern = sparse.csr_matrix(
        (np.arange(len(indices), dtype=np.int32), indices, indptr),
        shape=(nr, nc))
    unit = np.zeros(0, dtype=np.int64)
    if fixed is not None:
        pattern = eliminate_dirichlet(pattern, fixed)
        unit = pattern.indptr[fixed]
    kept = np.ones(pattern.nnz, dtype=bool)
    kept[unit] = False
    target = np.full(len(indices), pattern.nnz, dtype=np.int32)
    target[pattern.data[kept]] = np.flatnonzero(kept)
    # the matrices share the pattern's arrays, so they must not change
    indptr = pattern.indptr.astype(np.int32)
    indices = pattern.indices.astype(np.int32)
    indptr.flags.writeable = indices.flags.writeable = False
    return _AssemblyPlan(
        tuple((pair, target[slot]) for (pair, *_), slot in zip(placed, slots)),
        unit, indptr, indices)
