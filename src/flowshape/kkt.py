"""Monolithic first-order optimality system of the shape problem.

The unknown is one long vector holding eleven blocks: the deformation ``w``,
flow state ``v, p``, Neumann datum ``b`` of the extension, boundary control
``c``, their adjoints ``lam_w, lam_v, lam_p, lam_b``, and the two geometric
multipliers ``lam_vol`` (volume) and ``lam_bc`` (barycenter).  Residual and
matrix come from the term engine in :mod:`flowshape.lagrangian`; this module
adds the degree-of-freedom bookkeeping and the boundary conditions, and
solves the system with the damped semismooth Newton method of
:mod:`flowshape.newton` (the determinant penalty makes the map piecewise
smooth, with an active-set generalized derivative).  A solve stops when the
residual norm is below ``newton_tol`` and the Newton correction is at most
``sqrt(newton_tol) * (1 + |u|)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .fem import eliminate_dirichlet
from .flow import velocity_dirichlet
from .lagrangian import (BLOCK_NAMES, Spaces, block_sizes, gradient_blocks,
                         hessian_blocks, total_value, zero_blocks)
from .mesh import Mesh
from .newton import semismooth_newton

__all__ = [
    "KktParams", "KktVector", "DofMap", "volume_residual",
    "barycenter_residual", "lagrangian_value", "penalty_active_set",
    "kkt_residual", "kkt_matrix", "gradient_fd_slopes", "solve_kkt",
]


@dataclass(frozen=True)
class KktParams:
    """Physical and algorithmic parameters of the optimality system.

    alpha weights the control cost, beta the determinant penalty with
    threshold eta_det, eta_ext is the advection weight of the nonlinear
    extension, and delta scales the inflow profile.  A Newton solve stops
    when the residual norm is below newton_tol and the Newton correction is
    at most sqrt(newton_tol) * (1 + |u|).
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
    newton_max_iter: int = 60

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("control weight alpha must be positive")
        if self.beta < 0.0:
            raise ValueError("penalty weight beta must be >= 0")
        if self.eta_det <= 0.0:
            raise ValueError("penalty threshold eta_det must be positive")


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
    lam_vol: float
    lam_bc: np.ndarray

    @classmethod
    def zeros(cls, spaces: Spaces) -> "KktVector":
        z = zero_blocks(spaces)
        return cls(**{k: (float(np.ravel(v)[0]) if k == "lam_vol" else v)
                      for k, v in z.items()})

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in BLOCK_NAMES}

    def copy(self) -> "KktVector":
        return KktVector(**{
            k: (float(v) if np.isscalar(v) or np.ndim(v) == 0 else np.array(v))
            for k, v in self.as_dict().items()})


class DofMap:
    """Flat packing of the eleven blocks in their canonical order."""

    def __init__(self, spaces: Spaces):
        self.spaces = spaces
        self.sizes = block_sizes(spaces)
        self.offsets = {}
        total = 0
        for name in BLOCK_NAMES:
            self.offsets[name] = total
            total += self.sizes[name]
        self.total = total

    def block_slice(self, name: str) -> slice:
        off = self.offsets[name]
        return slice(off, off + self.sizes[name])

    def pack(self, y) -> np.ndarray:
        data = y.as_dict() if isinstance(y, KktVector) else y
        out = np.zeros(self.total)
        for name in BLOCK_NAMES:
            out[self.block_slice(name)] = np.ravel(data[name])
        return out

    def unpack(self, vec: np.ndarray) -> KktVector:
        m = self.spaces.mesh
        nv, nloop = m.num_vertices, self.spaces.num_loop
        shapes = {"w": (nv, 2), "v": (nv, 2), "p": (nv,), "b": (nloop, 2),
                  "c": (nloop,), "lam_w": (nv, 2), "lam_v": (nv, 2),
                  "lam_p": (nv,), "lam_b": (nloop, 2), "lam_bc": (2,)}
        blocks = {}
        for name in BLOCK_NAMES:
            seg = vec[self.block_slice(name)]
            blocks[name] = (float(seg[0]) if name == "lam_vol"
                            else seg.reshape(shapes[name]).copy())
        return KktVector(**blocks)


def volume_residual(mesh: Mesh, w: np.ndarray,
                    spaces: Spaces | None = None) -> float:
    """Volume of the deformed fluid domain minus the reference volume."""
    spaces = spaces or Spaces.build(mesh)
    from .transform import element_kinematics
    _, J, _ = element_kinematics(spaces.geo_fluid, np.asarray(w, float))
    return float(np.sum(spaces.geo_fluid.area * (J - 1.0)))


def barycenter_residual(mesh: Mesh, w: np.ndarray,
                        spaces: Spaces | None = None) -> np.ndarray:
    """First moment of the deformed fluid domain minus the reference moment."""
    spaces = spaces or Spaces.build(mesh)
    from .transform import element_kinematics
    geo = spaces.geo_fluid
    w = np.asarray(w, float)
    _, J, _ = element_kinematics(geo, w)
    cdef = geo.centroid + w[geo.tri].mean(axis=1)
    return (geo.area * J) @ cdef - spaces.moment


def lagrangian_value(mesh: Mesh, y: KktVector, params: KktParams,
                     spaces: Spaces | None = None) -> float:
    """Value of the full Lagrangian (objective, penalty, all pairings)."""
    spaces = spaces or Spaces.build(mesh)
    return float(total_value(spaces, params, y.as_dict()))


def penalty_active_set(spaces: Spaces, w: np.ndarray,
                       eta_det: float) -> np.ndarray:
    """Determinant-penalty active set {det(DF) < eta_det} over the extension
    elements (ties inactive, as in the generalized derivative)."""
    from .transform import element_kinematics
    _, J, _ = element_kinematics(spaces.geo_ext, w)
    return J < eta_det


def _dirichlet(spaces: Spaces, params: KktParams):
    """Constrained flat dofs and values of the coupled system.

    The deformation and its adjoint vanish on the whole outer boundary, the
    velocity carries inflow/no-slip data with a homogeneous adjoint, and on a
    holdall mesh every flow field is pinned at obstacle-interior vertices.
    """
    mesh = spaces.mesh
    dm = DofMap(spaces)
    dofs, values = [], []

    def add(name, verts, vals):
        off = dm.offsets[name]
        if np.ndim(vals) == 2:
            dofs.append(off + np.repeat(2 * verts, 2) + np.tile([0, 1], len(verts)))
            values.append(np.asarray(vals, float).ravel())
        else:
            dofs.append(off + np.asarray(verts))
            values.append(np.asarray(vals, float))

    outer = mesh.outer_boundary_vertices()
    zero2 = np.zeros((len(outer), 2))
    add("w", outer, zero2)
    add("lam_w", outer, zero2)
    vverts, vvals = velocity_dirichlet(mesh, params)
    add("v", vverts, vvals)
    add("lam_v", vverts, np.zeros_like(vvals))
    if mesh.is_holdall:
        pins = mesh.obstacle_interior_vertices()
        z2, z1 = np.zeros((len(pins), 2)), np.zeros(len(pins))
        for name in ("v", "lam_v"):
            add(name, pins, z2)
        for name in ("p", "lam_p"):
            add(name, pins, z1)
    return dm, np.concatenate(dofs), np.concatenate(values)


def kkt_residual(mesh: Mesh, y: KktVector, params: KktParams,
                 spaces: Spaces | None = None) -> np.ndarray:
    """Flat residual of the optimality system, with Dirichlet rows replaced
    by the constraint mismatch ``y - y_D``."""
    spaces = spaces or Spaces.build(mesh)
    dm, dofs, values = _dirichlet(spaces, params)
    grad = gradient_blocks(spaces, params, y.as_dict())
    r = dm.pack(grad)
    r[dofs] = dm.pack(y)[dofs] - values
    return r


def kkt_matrix(mesh: Mesh, y: KktVector, params: KktParams,
               spaces: Spaces | None = None, active=None,
               pairs=None) -> sparse.csr_matrix:
    """Generalized derivative of the residual, with symmetric elimination of
    the Dirichlet rows and columns (unit diagonal on constrained dofs).

    ``active`` optionally fixes the determinant-penalty active set (a boolean
    mask over the extension elements) instead of {det(DF) < eta_det} at y.
    ``pairs`` assembles only those Hessian block pairs (see
    :func:`flowshape.lagrangian.hessian_blocks`) and their transposes; the
    other blocks are left out.
    """
    spaces = spaces or Spaces.build(mesh)
    dm, dofs, _ = _dirichlet(spaces, params)
    return eliminate_dirichlet(_assemble(spaces, params, y, dm, active, pairs),
                               dofs)


def _assemble(spaces: Spaces, params: KktParams, y: KktVector,
              dm: DofMap, active=None, pairs=None) -> sparse.csr_matrix:
    H = hessian_blocks(spaces, params, y.as_dict(), active, pairs)
    rows, cols, vals = [], [], []
    for (rb, cb), mat in H.items():
        coo = sparse.coo_matrix(mat)
        rows.append(coo.row + dm.offsets[rb])
        cols.append(coo.col + dm.offsets[cb])
        vals.append(coo.data)
        if rb != cb:
            rows.append(coo.col + dm.offsets[cb])
            cols.append(coo.row + dm.offsets[rb])
            vals.append(coo.data)
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dm.total, dm.total)).tocsr()


def gradient_fd_slopes(mesh: Mesh, y: KktVector, params: KktParams,
                       steps=(1e-4, 1e-5, 1e-6), n_directions: int = 20,
                       seed: int = 0, spaces: Spaces | None = None) -> dict:
    """Observed FD convergence slope per residual block, worst direction.

    Compares each gradient block against central finite differences of the
    Lagrangian value in random directions for the given step sequence and
    fits the error decay slope; a clean second-order implementation shows
    slopes near 2.  Values are computed in extended precision so the
    smallest steps stay above the rounding floor.
    """
    spaces = spaces or Spaces.build(mesh)
    z = {k: np.asarray(v, dtype=np.longdouble)
         for k, v in y.as_dict().items()}
    z["lam_vol"] = np.atleast_1d(np.asarray(y.lam_vol, dtype=np.longdouble))
    grad = gradient_blocks(spaces, params, {k: np.asarray(v, float)
                                            for k, v in z.items()})
    rng = np.random.default_rng(seed)
    logh = np.log(np.asarray(steps, float))
    vref = abs(float(total_value(spaces, params, z))) + 1.0
    eps_ld = float(np.finfo(np.longdouble).eps)
    slopes = {}
    for name in BLOCK_NAMES:
        worst = np.inf
        for _ in range(n_directions):
            d = rng.standard_normal(z[name].shape).astype(np.longdouble)
            exact = float(np.sum(np.asarray(grad[name]).reshape(-1)
                                 * np.asarray(d, float).reshape(-1)))
            errs, floors = [], []
            for h in steps:
                zp = dict(z)
                zp[name] = z[name] + h * d
                vp = total_value(spaces, params, zp)
                zp[name] = z[name] - h * d
                vm = total_value(spaces, params, zp)
                fd = float((vp - vm) / (2.0 * np.longdouble(h)))
                errs.append(max(abs(fd - exact), 1e-30))
                floors.append(100.0 * eps_ld * vref / h)
            if all(e < f for e, f in zip(errs, floors)):
                continue  # value is (at most) quadratic here: FD is exact
            if max(errs) < 1e-9 * max(1.0, abs(exact)):
                # rounding noise: a genuine gradient defect would leave a
                # step-independent error at the scale of the derivative
                continue
            slope = float(np.polyfit(logh, np.log(np.asarray(errs)), 1)[0])
            worst = min(worst, slope)
        slopes[name] = worst if np.isfinite(worst) else float("inf")
    return slopes


def _factorize(A):
    """Solver for ``A x = b`` from an equilibrated LU factorization.

    Symmetric diagonal equilibration: the control stationarity rows carry a
    factor alpha, so for small alpha the raw matrix spans many orders of
    magnitude and the factorization loses digits.  One pass of iterative
    refinement recovers the rest.
    """
    A = A.tocsc()
    rowmax = np.abs(A).max(axis=1).toarray().ravel()
    d = 1.0 / np.sqrt(np.where(rowmax > 0.0, rowmax, 1.0))
    lu = spla.splu((sparse.diags(d) @ A @ sparse.diags(d)).tocsc())

    def linsolve(rhs):
        x = d * lu.solve(d * rhs)
        x += d * lu.solve(d * (rhs - A @ x))
        return x

    return linsolve


def solve_kkt(mesh: Mesh, y0: KktVector, params: KktParams,
              spaces: Spaces | None = None,
              return_info: bool = False):
    """Damped semismooth Newton solve of the coupled optimality system.

    Starts from ``y0`` projected onto the Dirichlet data and factorizes the
    generalized derivative with a sparse direct solver.  See
    :func:`flowshape.newton.semismooth_newton` for globalization and the stop
    test.  Raises a classified :class:`SolverError` on a singular matrix, a
    stall or divergence.
    """
    spaces = spaces or Spaces.build(mesh)
    dm, dofs, values = _dirichlet(spaces, params)
    u = dm.pack(y0)
    u[dofs] = values
    wslice = dm.block_slice("w")

    def residual(uvec):
        return kkt_residual(mesh, dm.unpack(uvec), params, spaces)

    def factorize(uvec, active):
        return _factorize(kkt_matrix(mesh, dm.unpack(uvec), params, spaces,
                                     active))

    def penalty_active(uvec):
        return penalty_active_set(spaces, uvec[wslice].reshape(-1, 2),
                                  params.eta_det)

    u, history = semismooth_newton(residual, factorize, u, params.newton_tol,
                                   params.newton_max_iter, "KKT",
                                   penalty_active)
    y = dm.unpack(u)
    return (y, history) if return_info else y
