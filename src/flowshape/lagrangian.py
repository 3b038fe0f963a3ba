"""Shared per-element term engine for the coupled optimality system.

Every functional of the problem -- dissipation, control regularization,
determinant penalty, the state/extension/boundary constraint pairings and the
geometric constraints -- has a closed-form element integral for P1 fields,
because the transformation data (DF)^-1 and det(DF) are constant per triangle.
This module evaluates the total value, the gradient with respect to every
variable block, and all second-derivative blocks, from one set of shared
per-element arrays.  The flow and KKT solvers are thin wrappers around these
routines, which keeps the state equation, the adjoint equation and the coupled
Newton matrix consistent by construction.

A caller that needs only some blocks names them: ``gradient_blocks(...,
names=...)`` takes names from ``BLOCK_NAMES`` and ``hessian_blocks(...,
pairs=...)`` takes (row, column) pairs from ``HESSIAN_PAIRS``, the seventeen
nonzero pairs of the upper block triangle.  Each returns exactly the
requested keys and builds only the per-element arrays those blocks read; the
flow solves, for instance, never build the 5-index displacement tensors.
Omitting the selection evaluates every block.  ``block_matrix`` places the
pairs that a block layout (ordered row and column names) touches into one
sparse matrix; the KKT matrix, the shape subsystem's matrix and the flow
state and adjoint matrices are all built through it.

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

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sparse

from .fem import P1Geometry, CurveOperators, assemble_boundary_curve
from .mesh import BoundaryTag, Mesh, boundary_normals
from .transform import (element_kinematics, pushed_gradients,
                        det_penalty_gradient, det_penalty_hessian)

__all__ = ["BLOCK_NAMES", "HESSIAN_PAIRS", "Spaces", "block_sizes",
           "block_offsets", "zero_blocks", "extension_terms", "total_value",
           "gradient_blocks", "hessian_blocks", "block_matrix"]

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


def zero_blocks(spaces: Spaces, dtype=float) -> dict:
    nv = spaces.mesh.num_vertices
    m = spaces.num_loop
    return {"w": np.zeros((nv, 2), dtype), "v": np.zeros((nv, 2), dtype),
            "p": np.zeros(nv, dtype), "b": np.zeros((m, 2), dtype),
            "c": np.zeros(m, dtype), "lam_w": np.zeros((nv, 2), dtype),
            "lam_v": np.zeros((nv, 2), dtype), "lam_p": np.zeros(nv, dtype),
            "lam_b": np.zeros((m, 2), dtype), "lam_vol": np.zeros(1, dtype),
            "lam_bc": np.zeros(2, dtype)}


def block_sizes(spaces: Spaces) -> dict:
    return {name: block.size for name, block in zero_blocks(spaces).items()}


def block_offsets(spaces: Spaces, names) -> tuple:
    """Start of each block in a flat vector that holds the blocks ``names``
    in that order, and the vector's length."""
    sizes = block_sizes(spaces)
    starts = np.cumsum([0] + [sizes[name] for name in names])
    return dict(zip(names, starts[:-1].tolist())), int(starts[-1])


# -- per-element working arrays ---------------------------------------------------


class _FluidFrame(SimpleNamespace):
    """Per-element arrays of the fluid terms at one point.

    The fields set by :func:`_fluid_frame` are always built.  The
    contractions below are cached properties, built on first use, so an
    evaluation of a few blocks computes only the ones those blocks read.
    """

    @cached_property
    def N(self):
        return np.einsum("tla,tlb->tab", self.lvloc, self.g)

    @cached_property
    def trN(self):
        return self.N[:, 0, 0] + self.N[:, 1, 1]

    @cached_property
    def gradp(self):
        return np.einsum("tl,tla->ta", self.ploc, self.geo.grads)

    @cached_property
    def gradlp(self):
        return np.einsum("tl,tla->ta", self.lploc, self.geo.grads)

    @cached_property
    def ghp(self):
        return np.einsum("tab,tb->ta", self.A, self.gradp)  # (DF)^-1 grad p

    @cached_property
    def ghlp(self):
        return np.einsum("tab,tb->ta", self.A, self.gradlp)

    @cached_property
    def MM(self):
        return np.einsum("tab,tab->t", self.M, self.M)

    @cached_property
    def MN(self):
        return np.einsum("tab,tab->t", self.M, self.N)

    @cached_property
    def K(self):
        return np.einsum("tab,tac->tbc", self.M, self.M)

    @cached_property
    def B(self):
        return (np.einsum("tab,tac->tbc", self.M, self.N)
                + np.einsum("tab,tac->tbc", self.N, self.M))

    @cached_property
    def Mv(self):
        return np.einsum("tab,tlb->tla", self.M, self.vloc)

    @cached_property
    def conv(self):
        return self.area * np.einsum("lm,tla,tma->t", _S12, self.Mv,
                                     self.lvloc)

    @cached_property
    def P(self):
        return self.area[:, None, None] * np.einsum(
            "lm,tla,tmb->tab", _S12, self.vloc, self.lvloc)

    @cached_property
    def R(self):
        return np.einsum("tab,tbc->tac", self.P, self.M)

    @cached_property
    def gg(self):
        return np.einsum("tma,tna->tmn", self.g, self.g)

    @cached_property
    def Kg(self):
        return np.einsum("tbc,tmb->tmc", self.K, self.g)

    @cached_property
    def Bg(self):
        return np.einsum("tbc,tmb->tmc", self.B, self.g)

    @cached_property
    def Rg(self):
        return np.einsum("trc,tmr->tmc", self.R, self.g)

    @cached_property
    def Mg(self):
        return np.einsum("tab,tnb->tna", self.M, self.g)    # (M gt_n)[a]

    @cached_property
    def Ng(self):
        return np.einsum("tab,tnb->tna", self.N, self.g)

    @cached_property
    def MTg(self):
        return np.einsum("tac,tma->tmc", self.M, self.g)    # (M^T gt_m)[c]

    @cached_property
    def NTg(self):
        return np.einsum("tac,tma->tmc", self.N, self.g)

    @cached_property
    def sgp(self):
        return np.einsum("tma,ta->tm", self.g, self.gradp)

    @cached_property
    def sglp(self):
        return np.einsum("tma,ta->tm", self.g, self.gradlp)

    @cached_property
    def agp(self):
        # (DF)^-1[:, c] . ghp
        return np.einsum("trc,tr->tc", self.A, self.ghp)

    @cached_property
    def aglp(self):
        return np.einsum("trc,tr->tc", self.A, self.ghlp)

    @cached_property
    def T(self):
        return np.einsum("tra,trb->tab", self.A, self.A)

    @cached_property
    def AG(self):
        return np.einsum("trs,tls->tlr", self.A, self.geo.grads)

    @cached_property
    def TG(self):
        return np.einsum("tcs,tns->tnc", self.T, self.geo.grads)

    @cached_property
    def gG(self):
        return np.einsum("tma,tna->tmn", self.g, self.geo.grads)

    @cached_property
    def antiJ(self):
        return (np.einsum("tmc,tnd->tmcnd", self.g, self.g)
                - np.einsum("tmd,tnc->tmcnd", self.g, self.g))

    @cached_property
    def gP(self):
        return np.einsum("tnr,tra->tna", self.g, self.P)

    @cached_property
    def Mtlam(self):
        return np.einsum("tba,tkb->tka", self.M, self.lvloc)

    @cached_property
    def Q1(self):
        return self.area[:, None, None] * np.einsum("nk,tka->tna", _S12,
                                                    self.Mtlam)

    @cached_property
    def Q5(self):
        gv = np.einsum("tla,tma->tlm", self.vloc, self.g)
        return self.area[:, None, None] * np.einsum("ln,tlm->tnm", _S12, gv)


def _fluid_frame(spaces: Spaces, z: dict) -> _FluidFrame:
    geo = spaces.geo_fluid
    tri = geo.tri
    _, J, A = element_kinematics(geo, z["w"])
    g = pushed_gradients(geo, A)                       # (t, l, a)
    vloc, lvloc = z["v"][tri], z["lam_v"][tri]
    ploc, lploc = z["p"][tri], z["lam_p"][tri]
    M = np.einsum("tla,tlb->tab", vloc, g)             # Dv (DF)^-1
    return _FluidFrame(
        geo=geo, tri=tri, area=geo.area, h=geo.h, J=J, A=A, g=g,
        vloc=vloc, lvloc=lvloc, ploc=ploc, lploc=lploc, M=M,
        trM=M[:, 0, 0] + M[:, 1, 1],
        pbar=ploc.mean(axis=1), lpbar=lploc.mean(axis=1),
        wbar=z["w"][tri].mean(axis=1),
    )


def _ext_frame(spaces: Spaces, z: dict) -> SimpleNamespace:
    geo = spaces.geo_ext
    tri = geo.tri
    wloc = z["w"][tri]
    lwloc = z["lam_w"][tri]
    Dw = np.einsum("tla,tlb->tab", wloc, geo.grads)
    Dlw = np.einsum("tla,tlb->tab", lwloc, geo.grads)
    J = (1.0 + Dw[:, 0, 0]) * (1.0 + Dw[:, 1, 1]) - Dw[:, 0, 1] * Dw[:, 1, 0]
    return SimpleNamespace(geo=geo, tri=tri, area=geo.area, G=geo.grads,
                           wloc=wloc, lwloc=lwloc, Dw=Dw, Dlw=Dlw, J=J)


def _scalar(value) -> float:
    """Accept a bare float or a length-one array for the volume multiplier."""
    return float(np.ravel(value)[0]) if np.ndim(value) else float(value)


def _curve_mass_pair(seg_length, u, v):
    """integral of u.v along the closed polyline, both nodal P1 fields."""
    u = u[:, None] if u.ndim == 1 else u
    v = v[:, None] if v.ndim == 1 else v
    u2 = np.roll(u, -1, axis=0)
    v2 = np.roll(v, -1, axis=0)
    s = seg_length[:, None]
    return np.sum(s / 6.0 * (2.0 * u * v + 2.0 * u2 * v2 + u * v2 + u2 * v))


def _curve_stiff_pair(seg_length, u, v):
    du = np.roll(u, -1, axis=0) - u
    dv = np.roll(v, -1, axis=0) - v
    return np.sum(du * dv / seg_length[:, None])


def _vdofs(tri):
    return (2 * tri[:, :, None] + np.arange(2)[None, None, :]).reshape(len(tri), 6)


def _scatter(loc, rows, cols, nr, nc) -> sparse.coo_matrix:
    t, R, C = loc.shape
    r = np.repeat(rows, C, axis=1).ravel()
    c = np.tile(cols, (1, R)).ravel()
    return sparse.coo_matrix((loc.reshape(t, R * C).ravel(), (r, c)),
                             shape=(nr, nc))


# -- extension operator -----------------------------------------------------------


def extension_terms(spaces: Spaces, w: np.ndarray, eta_ext: float):
    """Interior residual of the extension equation and its (w, lam_w) block.

    The residual is the interior part of the lam_w gradient, (nv, 2): minus
    the symmetrized-gradient form and the advection eta_ext (Dw w), tested
    with each hat function over the extension domain; the boundary load on
    the obstacle loop is not included.  The block, with rows w and columns
    lam_w, is the transposed derivative of that residual with respect to w,
    as a sparse COO matrix.  The extension pairing is linear in lam_w, so
    the block applied to lam_w is the pairing's w gradient.
    """
    geo = spaces.geo_ext
    tri, G, area = geo.tri, geo.grads, geo.area
    wloc = w[tri]
    Dw = np.einsum("tla,tlb->tab", wloc, G)
    W = area[:, None, None] * (_S12 @ wloc)           # integral of phi_n w
    loc = -area[:, None, None] * (G @ (Dw + np.swapaxes(Dw, 1, 2)))
    loc -= eta_ext * (W @ np.swapaxes(Dw, 1, 2))
    residual = np.zeros((spaces.mesh.num_vertices, 2))
    np.add.at(residual, tri, loc)

    # H[t, m, c, n, a]: row dof (vertex m, component c) of w, column dof
    # (n, a) of lam_w; the terms with delta_ca share the factor K[m, n]
    K = (area[:, None, None] * (G @ np.swapaxes(G, 1, 2))
         + eta_ext * (G @ np.swapaxes(W, 1, 2)))
    aS12 = area[:, None, None] * _S12
    H = np.empty((len(tri), 3, 2, 3, 2))
    for c in range(2):
        for a in range(2):
            H[:, :, c, :, a] = -(area[:, None, None] * G[:, :, a, None]
                                 * G[:, None, :, c]
                                 + eta_ext * Dw[:, a, c, None, None] * aS12)
        H[:, :, c, :, c] -= K
    dofs = _vdofs(tri)
    n = 2 * spaces.mesh.num_vertices
    return residual, _scatter(H.reshape(-1, 6, 6), dofs, dofs, n, n)


# -- value ------------------------------------------------------------------------


def total_value(spaces: Spaces, params, z: dict):
    """Scalar value of the full functional; dtype follows the input blocks.

    With extended-precision input blocks the whole evaluation stays in that
    precision, which finite-difference verification of the gradient relies on
    at small steps.
    """
    f = _fluid_frame(spaces, z)
    e = _ext_frame(spaces, z)
    nu, mu = params.nu, params.mu
    area = f.area

    val = 0.5 * nu * np.sum(area * f.J * f.MM)
    val -= np.sum(nu * area * f.J * f.MN + f.J * f.conv
                  - area * f.J * f.pbar * f.trN)
    val += np.sum(area * f.J * f.lpbar * f.trM)
    val += mu * np.sum(f.h * f.h * area * np.einsum("ta,ta->t", f.ghp, f.ghlp))

    # determinant penalty over the extension domain
    plus = np.maximum(params.eta_det - e.J, 0.0)
    val += 0.5 * params.beta * np.sum(e.area * plus * plus)

    # extension constraint pairing
    sym = e.Dw + np.swapaxes(e.Dw, 1, 2)
    Dww = np.einsum("tab,tlb->tla", e.Dw, e.wloc)
    val -= np.sum(e.area * np.einsum("tab,tab->t", sym, e.Dlw))
    val -= params.eta_ext * np.sum(
        e.area * np.einsum("lm,tla,tma->t", _S12, Dww, e.lwloc))

    # boundary pairings on the obstacle loop
    if spaces.curve is not None:
        seg = spaces.curve.seg_length
        lw_loop = z["lam_w"][spaces.curve.loop]
        val += _curve_mass_pair(seg, z["b"], lw_loop)
        val += 0.5 * params.alpha * _curve_mass_pair(seg, z["c"], z["c"])
        val -= _curve_mass_pair(seg, z["b"], z["lam_b"])
        val -= _curve_stiff_pair(seg, z["b"], z["lam_b"])
        val += _curve_mass_pair(seg, z["c"][:, None] * spaces.normals,
                                z["lam_b"])

    # geometric constraints (fluid domain)
    cent = f.geo.centroid + f.wbar
    bary = np.einsum("t,ta->a", area * f.J, cent) - spaces.moment
    val -= z["lam_bc"] @ bary
    val -= _scalar(z["lam_vol"]) * np.sum(area * (f.J - 1.0))
    return val


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
    is evaluated: the extension terms and the penalty gradient only for "w"
    or "lam_w".  An unknown name raises ``ValueError``.
    """
    want = _select(names, BLOCK_NAMES, "block name")
    f = _fluid_frame(spaces, z)
    nu, mu = params.nu, params.mu
    zero = zero_blocks(spaces)
    out = {name: zero[name] for name in want}
    area, J, g, h = f.area, f.J, f.g, f.h
    aJ = area * J
    mh2 = mu * h * h * area
    Mc, Kc, loop = _obstacle_loop(spaces)

    if "w" in want or "lam_w" in want:
        ext, Hwlw = extension_terms(spaces, z["w"], params.eta_ext)

    if "w" in want:
        # fluid terms
        gw = aJ[:, None, None] * (
            nu * (0.5 * f.MM[:, None, None] * g - f.Kg)
            + nu * (f.Bg - f.MN[:, None, None] * g)
            + f.pbar[:, None, None] * (f.trN[:, None, None] * g - f.NTg)
            + f.lpbar[:, None, None] * (f.trM[:, None, None] * g - f.MTg))
        gw += J[:, None, None] * f.Rg - (J * f.conv)[:, None, None] * g
        gw -= mh2[:, None, None] * (np.einsum("tm,tc->tmc", f.sgp, f.aglp)
                                    + np.einsum("tm,tc->tmc", f.sglp, f.agp))
        lbcw = np.einsum("a,ta->t", z["lam_bc"], f.geo.centroid + f.wbar)
        gw -= (area * J * lbcw)[:, None, None] * g
        gw -= (area * J / 3.0)[:, None, None] * z["lam_bc"][None, None, :]
        gw -= _scalar(z["lam_vol"]) * aJ[:, None, None] * g
        np.add.at(out["w"], f.tri, gw)
        # the extension pairing's w gradient and the penalty
        out["w"] += (Hwlw @ z["lam_w"].ravel()).reshape(-1, 2)
        out["w"] += det_penalty_gradient(spaces.geo_ext, z["w"],
                                         params.eta_det, params.beta)

    if "lam_w" in want:
        # extension equation and its boundary load
        out["lam_w"] += ext
        out["lam_w"][loop] += Mc @ z["b"]

    if "v" in want:
        gv = aJ[:, None, None] * (nu * (f.Mg - f.Ng)
                                  + f.lpbar[:, None, None] * g)
        gv -= J[:, None, None] * (f.gP + f.Q1)
        np.add.at(out["v"], f.tri, gv)

    if "p" in want:
        gp = np.repeat((aJ * f.trN / 3.0)[:, None], 3, axis=1)
        gp += mh2[:, None] * np.einsum("tnr,tr->tn", f.AG, f.ghlp)
        np.add.at(out["p"], f.tri, gp)

    if "lam_v" in want:
        # the state momentum equation
        glv = -nu * aJ[:, None, None] * f.Mg
        glv -= (J * area)[:, None, None] * np.einsum("ln,tla->tna", _S12,
                                                     f.Mv)
        glv += aJ[:, None, None] * f.pbar[:, None, None] * g
        np.add.at(out["lam_v"], f.tri, glv)

    if "lam_p" in want:
        # the state continuity equation with stabilization
        glp = np.repeat((aJ * f.trM / 3.0)[:, None], 3, axis=1)
        glp += mh2[:, None] * np.einsum("tnr,tr->tn", f.AG, f.ghp)
        np.add.at(out["lam_p"], f.tri, glp)

    # boundary blocks on the obstacle loop
    if "b" in want:
        out["b"] = Mc @ z["lam_w"][loop] - (Mc + Kc) @ z["lam_b"]
    if "c" in want:
        out["c"] = params.alpha * (Mc @ z["c"]) + np.einsum(
            "ma,ma->m", spaces.normals, Mc @ z["lam_b"])
    if "lam_b" in want:
        out["lam_b"] = -(Mc + Kc) @ z["b"] + Mc @ (
            z["c"][:, None] * spaces.normals)

    # geometric constraint residuals
    if "lam_vol" in want:
        out["lam_vol"] = -np.array([np.sum(area * (J - 1.0))])
    if "lam_bc" in want:
        cent = f.geo.centroid + f.wbar
        out["lam_bc"] = -(np.einsum("t,ta->a", aJ, cent) - spaces.moment)
    return out


# -- Hessian ----------------------------------------------------------------------


def _wpat(g, antiJ, s, Y, X=None, gg=None):
    """Recurring displacement-Hessian pattern of J-weighted invariants.

    Second derivative of J*s for scalars s whose dof-derivative is -(Y_m)[c],
    optionally with the extra quadratic coupling X[c,d] (gt_m . gt_n).
    """
    out = antiJ * s[:, None, None, None, None]
    out -= np.einsum("tmc,tnd->tmcnd", g, Y) + np.einsum("tnd,tmc->tmcnd", g, Y)
    out += np.einsum("tnc,tmd->tmcnd", g, Y) + np.einsum("tmd,tnc->tmcnd", g, Y)
    if X is not None:
        out += np.einsum("tcd,tmn->tmcnd", X, gg)
    return out


def hessian_blocks(spaces: Spaces, params, z: dict, active=None,
                   pairs=None) -> dict:
    """Second-derivative blocks as sparse matrices keyed by block-name pairs.

    Only one triangle of the block structure is produced; the assembled system
    matrix places each off-diagonal block together with its transpose.  The
    penalty contribution uses the generalized derivative with the active set
    {det(DF) < eta_det} (ties inactive), making the result an element of the
    generalized Jacobian of the gradient; ``active`` overrides that set with
    a boolean mask over the extension-domain elements.

    ``pairs`` selects blocks from ``HESSIAN_PAIRS`` (None: all seventeen);
    the result holds exactly those keys, in that order, and only the
    per-element arrays they read are built: the 5-index displacement
    tensors, the extension frame and the penalty Hessian only for ("w", "w").
    An unknown pair, a reversed one included, raises ``ValueError``.
    """
    want = _select(pairs, HESSIAN_PAIRS, "Hessian block pair")
    f = _fluid_frame(spaces, z)
    nu, mu = params.nu, params.mu
    nvert = spaces.mesh.num_vertices
    sizes = block_sizes(spaces)
    area, J, g, h = f.area, f.J, f.g, f.h
    aJ = area * J
    mh2 = mu * h * h * area
    eye = np.eye(2)

    blocks = {}
    fdofs = _vdofs(f.tri)
    ftri = f.tri

    # -- (w, w): every J-carrying term plus stabilization, advection, penalty
    if ("w", "w") in want:
        e = _ext_frame(spaces, z)
        edofs = _vdofs(e.tri)
        antiJ, gg = f.antiJ, f.gg
        Hww = 0.5 * nu * _wpat(g, antiJ, f.MM, 2.0 * f.Kg, 2.0 * f.K, gg)
        Hww -= nu * _wpat(g, antiJ, f.MN, f.Bg, f.B, gg)
        Hww += f.pbar[:, None, None, None, None] * _wpat(g, antiJ, f.trN,
                                                         f.NTg)
        Hww += f.lpbar[:, None, None, None, None] * _wpat(g, antiJ, f.trM,
                                                          f.MTg)
        Hww *= aJ[:, None, None, None, None]
        Hww -= J[:, None, None, None, None] * _wpat(g, antiJ, f.conv, f.Rg)
        lbcw = np.einsum("a,ta->t", z["lam_bc"], f.geo.centroid + f.wbar)
        shape5 = Hww.shape
        Hww -= (area * J * lbcw)[:, None, None, None, None] * antiJ
        Hww -= (area * J / 3.0)[:, None, None, None, None] * (
            np.broadcast_to(np.einsum("tmc,d->tmcd", g, z["lam_bc"])
                            [:, :, :, None, :], shape5)
            + np.broadcast_to(np.einsum("tnd,c->tcnd", g, z["lam_bc"])
                              [:, None, :, :, :], shape5))
        Hww -= _scalar(z["lam_vol"]) * aJ[:, None, None, None, None] * antiJ
        sgp, sglp, agp, aglp, T = f.sgp, f.sglp, f.agp, f.aglp, f.T
        Hww += mh2[:, None, None, None, None] * (
            np.einsum("tmd,tn,tc->tmcnd", g, sgp, aglp)
            + np.einsum("tnc,tm,td->tmcnd", g, sgp, aglp)
            + np.einsum("tm,tn,tcd->tmcnd", sgp, sglp, T)
            + np.einsum("tm,tn,tcd->tmcnd", sglp, sgp, T)
            + np.einsum("tmd,tn,tc->tmcnd", g, sglp, agp)
            + np.einsum("tnc,tm,td->tmcnd", g, sglp, agp))
        ww = _scatter(Hww.reshape(-1, 6, 6), fdofs, fdofs, sizes["w"],
                      sizes["w"])

        Lam = e.area[:, None, None] * np.einsum("mn,tnb->tmb", _S12, e.lwloc)
        Hwwe = -params.eta_ext * (np.einsum("tmd,tnc->tmcnd", e.G, Lam)
                                  + np.einsum("tnc,tmd->tmcnd", e.G, Lam))
        ww = ww + _scatter(Hwwe.reshape(-1, 6, 6), edofs, edofs,
                           sizes["w"], sizes["w"])
        blocks[("w", "w")] = ww.tocsr() + det_penalty_hessian(
            spaces.geo_ext, z["w"], params.eta_det, params.beta, nvert,
            active)

    # -- (w, v)
    if ("w", "v") in want:
        Mg, Ng, gg = f.Mg, f.Ng, f.gg
        Hwv = nu * (np.einsum("tmc,tna->tmcna", g, Mg)
                    - np.einsum("tac,tmn->tmcna", f.M, gg)
                    - np.einsum("tnc,tma->tmcna", g, Mg))
        Hwv -= nu * (np.einsum("tmc,tna->tmcna", g, Ng)
                     - np.einsum("tac,tmn->tmcna", f.N, gg)
                     - np.einsum("tnc,tma->tmcna", g, Ng))
        Hwv += f.lpbar[:, None, None, None, None] * (
            np.einsum("tmc,tna->tmcna", g, g)
            - np.einsum("tnc,tma->tmcna", g, g))
        Hwv *= aJ[:, None, None, None, None]
        gP, Q1 = f.gP, f.Q1
        Hwv += J[:, None, None, None, None] * (
            np.einsum("tnc,tma->tmcna", g, gP)
            - np.einsum("tmc,tna->tmcna", g, gP)
            + np.einsum("tma,tnc->tmcna", g, Q1)
            - np.einsum("tmc,tna->tmcna", g, Q1))
        blocks[("w", "v")] = _scatter(Hwv.reshape(-1, 6, 6), fdofs, fdofs,
                                      sizes["w"], sizes["v"])

    # -- (w, lam_v)
    if ("w", "lam_v") in want:
        Mg, gg, Q5 = f.Mg, f.gg, f.Q5
        Hwl = -nu * aJ[:, None, None, None, None] * (
            np.einsum("tmc,tna->tmcna", g, Mg)
            - np.einsum("tac,tmn->tmcna", f.M, gg)
            - np.einsum("tnc,tma->tmcna", g, Mg))
        Q3 = area[:, None, None] * np.einsum("ln,tla->tna", _S12, f.Mv)
        Hwl += J[:, None, None, None, None] * (
            np.einsum("tac,tnm->tmcna", f.M, Q5)
            - np.einsum("tmc,tna->tmcna", g, Q3))
        Hwl += (aJ * f.pbar)[:, None, None, None, None] * (
            np.einsum("tmc,tna->tmcna", g, g)
            - np.einsum("tnc,tma->tmcna", g, g))
        blocks[("w", "lam_v")] = _scatter(Hwl.reshape(-1, 6, 6), fdofs,
                                          fdofs, sizes["w"], sizes["lam_v"])

    # -- (w, p) and (w, lam_p)
    if ("w", "p") in want:
        Hwp = np.repeat(((aJ[:, None, None] / 3.0)
                         * (f.trN[:, None, None] * g - f.NTg))[:, :, :, None],
                        3, axis=3)
        Hwp -= mh2[:, None, None, None] * (
            np.einsum("tmn,tc->tmcn", f.gG, f.aglp)
            + np.einsum("tm,tnc->tmcn", f.sglp, f.TG))
        blocks[("w", "p")] = _scatter(Hwp.reshape(-1, 6, 3), fdofs, ftri,
                                      sizes["w"], sizes["p"])
    if ("w", "lam_p") in want:
        Hwlp = np.repeat(((aJ[:, None, None] / 3.0)
                          * (f.trM[:, None, None] * g - f.MTg))[:, :, :, None],
                         3, axis=3)
        Hwlp -= mh2[:, None, None, None] * (
            np.einsum("tmn,tc->tmcn", f.gG, f.agp)
            + np.einsum("tm,tnc->tmcn", f.sgp, f.TG))
        blocks[("w", "lam_p")] = _scatter(Hwlp.reshape(-1, 6, 3), fdofs,
                                          ftri, sizes["w"], sizes["lam_p"])

    # -- (w, lam_w): the extension linearization
    if ("w", "lam_w") in want:
        blocks[("w", "lam_w")] = extension_terms(spaces, z["w"],
                                                 params.eta_ext)[1]

    # -- (w, lam_vol) and (w, lam_bc)
    if ("w", "lam_vol") in want:
        blocks[("w", "lam_vol")] = _scatter(
            -(aJ[:, None, None] * g).reshape(-1, 6, 1), fdofs,
            np.zeros((len(ftri), 1), dtype=int), sizes["w"], 1)
    if ("w", "lam_bc") in want:
        cent = f.geo.centroid + f.wbar
        Hwbc = -(area[:, None, None, None]
                 * (np.einsum("t,tmc,d->tmcd", J, g, np.ones(2))
                    * cent[:, None, None, :]
                    + (J[:, None, None, None] / 3.0) * eye[None, None, :, :]))
        bccols = np.broadcast_to(np.arange(2)[None, :], (len(ftri), 2)).copy()
        blocks[("w", "lam_bc")] = _scatter(Hwbc.reshape(-1, 6, 2), fdofs,
                                           bccols, sizes["w"], 2)

    # -- (v, v), (v, lam_v), (v, lam_p), (p, lam_v), (p, lam_p)
    if ("v", "v") in want:
        Lamv = area[:, None, None] * np.einsum("mk,tka->tma", _S12, f.lvloc)
        Hvv = nu * aJ[:, None, None, None, None] * np.einsum(
            "tmn,ca->tmcna", f.gg, eye)
        Hvv -= J[:, None, None, None, None] * (
            np.einsum("tma,tnc->tmcna", g, Lamv)
            + np.einsum("tnc,tma->tmcna", g, Lamv))
        blocks[("v", "v")] = _scatter(Hvv.reshape(-1, 6, 6), fdofs, fdofs,
                                      sizes["v"], sizes["v"])
    if ("v", "lam_v") in want:
        Hvlv = -nu * aJ[:, None, None, None, None] * np.einsum(
            "tmn,ca->tmcna", f.gg, eye)
        Hvlv -= J[:, None, None, None, None] * (
            np.einsum("tnm,ca->tmcna", f.Q5, eye)
            + np.einsum("tmn,tac->tmcna", area[:, None, None] * _S12[None],
                        f.M))
        blocks[("v", "lam_v")] = _scatter(Hvlv.reshape(-1, 6, 6), fdofs,
                                          fdofs, sizes["v"], sizes["lam_v"])
    if ("v", "lam_p") in want:
        Hvlp = np.repeat(((aJ[:, None, None] / 3.0) * g)[:, :, :, None], 3,
                         axis=3)
        blocks[("v", "lam_p")] = _scatter(Hvlp.reshape(-1, 6, 3), fdofs,
                                          ftri, sizes["v"], sizes["lam_p"])
    if ("p", "lam_v") in want:
        Hplv = np.repeat(((aJ[:, None, None] / 3.0) * g)[:, None, :, :], 3,
                         axis=1)
        blocks[("p", "lam_v")] = _scatter(Hplv.reshape(-1, 3, 6), ftri,
                                          fdofs, sizes["p"], sizes["lam_v"])
    if ("p", "lam_p") in want:
        Hplp = mh2[:, None, None] * np.einsum("tmr,tnr->tmn", f.AG, f.AG)
        blocks[("p", "lam_p")] = _scatter(Hplp, ftri, ftri,
                                          sizes["p"], sizes["lam_p"])

    # -- boundary blocks on the obstacle loop
    Mc, Kc, loop = _obstacle_loop(spaces)
    m = spaces.num_loop
    Mcoo = Mc.tocoo()
    if ("c", "c") in want:
        blocks[("c", "c")] = params.alpha * Mc
    if ("c", "lam_b") in want:
        lb_cols = 2 * Mcoo.col[:, None] + np.arange(2)[None, :]
        vals = Mcoo.data[:, None] * spaces.normals[Mcoo.row]
        blocks[("c", "lam_b")] = sparse.coo_matrix(
            (vals.ravel(), (np.repeat(Mcoo.row, 2), lb_cols.ravel())),
            shape=(m, 2 * m))
    if ("b", "lam_b") in want:
        blocks[("b", "lam_b")] = -sparse.kron(
            (Mc + Kc), sparse.identity(2, format="csr"), format="csr")
    if ("b", "lam_w") in want:
        lw_cols = 2 * loop[Mcoo.col][:, None] + np.arange(2)[None, :]
        b_rows = 2 * Mcoo.row[:, None] + np.arange(2)[None, :]
        blocks[("b", "lam_w")] = sparse.coo_matrix(
            (np.repeat(Mcoo.data, 2), (b_rows.ravel(), lw_cols.ravel())),
            shape=(2 * m, sizes["lam_w"]))
    return {k: blocks[k].tocsr() for k in want}


def block_matrix(spaces: Spaces, params, z: dict, rows, cols=None,
                 active=None) -> sparse.csr_matrix:
    """Second-derivative matrix of the Lagrangian on a block layout.

    ``rows`` and ``cols`` (default: ``rows``) are ordered tuples of block
    names, and block (r, c) of the result, at the offsets of
    :func:`block_offsets`, is the second derivative with respect to r and
    c.  Only the pairs of ``HESSIAN_PAIRS`` that the layout touches are
    evaluated; an off-diagonal pair also fills its transposed position.
    ``active`` is passed to :func:`hessian_blocks`.
    """
    cols = rows if cols is None else cols
    roff, nr = block_offsets(spaces, rows)
    coff, nc = block_offsets(spaces, cols)
    pairs = tuple((a, b) for a, b in HESSIAN_PAIRS
                  if (a in roff and b in coff) or (b in roff and a in coff))
    H = hessian_blocks(spaces, params, z, active, pairs=pairs)
    H.update({(b, a): mat.T for (a, b), mat in H.items() if a != b})
    placed = [(roff[r], coff[c], mat.tocoo()) for (r, c), mat in H.items()
              if r in roff and c in coff]
    return sparse.coo_matrix(
        (np.concatenate([m.data for _, _, m in placed]),
         (np.concatenate([m.row + r for r, _, m in placed]),
          np.concatenate([m.col + c for _, c, m in placed]))),
        shape=(nr, nc)).tocsr()
