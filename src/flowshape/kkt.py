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

Only the control is free: ``w``, ``b`` and ``(v, p)`` are states, each fixed
by its own equation (extension, Laplace-Beltrami, flow).  A Newton step is
therefore solved by null-space block elimination (Hinze, Pinnau, Ulbrich &
Ulbrich, *Optimization with PDE Constraints*, 2009, ch. 2): one sparse LU of
the state Jacobian, which is about half the size of the layout and carries
no alpha, and one dense LU of the reduced system in the control and the
geometric multipliers.  The shape subsystem of the iterative driver, a
layout of seven blocks, is solved the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .fem import eliminate_dirichlet
from .flow import velocity_dirichlet
from .lagrangian import (BLOCK_NAMES, Spaces, block_matrix, block_offsets,
                         block_sizes, gradient_blocks, total_value,
                         zero_blocks)
from .mesh import Mesh
from .newton import semismooth_newton
from .transform import element_kinematics

__all__ = [
    "KktParams", "KktVector", "DofMap", "volume_residual",
    "barycenter_residual", "penalty_active_set",
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


class DofMap:
    """Flat packing of a block layout: the blocks ``names`` (default: all
    eleven) in that order, at the offsets that
    :func:`flowshape.lagrangian.block_matrix` gives the same layout."""

    def __init__(self, spaces: Spaces, names=BLOCK_NAMES):
        self.spaces = spaces
        self.names = tuple(names)
        self.sizes = block_sizes(spaces)
        self.offsets, self.total = block_offsets(spaces, self.names)

    def block_slice(self, name: str) -> slice:
        off = self.offsets[name]
        return slice(off, off + self.sizes[name])

    def pack(self, y) -> np.ndarray:
        data = y.as_dict() if isinstance(y, KktVector) else y
        out = np.zeros(self.total)
        for name in self.names:
            out[self.block_slice(name)] = np.ravel(data[name])
        return out

    def unpack(self, vec: np.ndarray, frozen: KktVector | None = None
               ) -> KktVector:
        """The blocks of the layout read from ``vec``; a layout of fewer
        than eleven blocks takes the others from ``frozen``."""
        zero = zero_blocks(self.spaces)
        blocks = {}
        for name in self.names:
            seg = vec[self.block_slice(name)]
            blocks[name] = (float(seg[0]) if name == "lam_vol"
                            else seg.reshape(zero[name].shape).copy())
        return (KktVector(**blocks) if frozen is None
                else replace(frozen, **blocks))


def volume_residual(mesh: Mesh, w: np.ndarray,
                    spaces: Spaces | None = None) -> float:
    """Volume of the deformed fluid domain minus the reference volume."""
    spaces = spaces or Spaces.build(mesh)
    _, J, _ = element_kinematics(spaces.geo_fluid, np.asarray(w, float))
    return float(np.sum(spaces.geo_fluid.area * (J - 1.0)))


def barycenter_residual(mesh: Mesh, w: np.ndarray,
                        spaces: Spaces | None = None) -> np.ndarray:
    """First moment of the deformed fluid domain minus the reference moment."""
    spaces = spaces or Spaces.build(mesh)
    geo = spaces.geo_fluid
    w = np.asarray(w, float)
    _, J, _ = element_kinematics(geo, w)
    cdef = geo.centroid + w[geo.tri].mean(axis=1)
    return (geo.area * J) @ cdef - spaces.moment


def penalty_active_set(spaces: Spaces, w: np.ndarray,
                       eta_det: float) -> np.ndarray:
    """Determinant-penalty active set {det(DF) < eta_det} over the extension
    elements (ties inactive, as in the generalized derivative)."""
    _, J, _ = element_kinematics(spaces.geo_ext, w)
    return J < eta_det


def _dirichlet(spaces: Spaces, params: KktParams, names=BLOCK_NAMES):
    """Layout of ``names`` and its constrained flat dofs and values.

    The deformation and its adjoint vanish on the whole outer boundary, the
    velocity carries inflow/no-slip data with a homogeneous adjoint, and on a
    holdall mesh every flow field is pinned at obstacle-interior vertices.
    Conditions on blocks outside the layout are left out.
    """
    mesh = spaces.mesh
    dm = DofMap(spaces, names)
    dofs, values = [], []

    def add(name, verts, vals):
        if name not in dm.offsets:
            return
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
                 spaces: Spaces | None = None,
                 names=BLOCK_NAMES) -> np.ndarray:
    """Flat residual of the optimality system on the block layout ``names``
    (default: all eleven blocks), with Dirichlet rows replaced by the
    constraint mismatch ``y - y_D``.

    Only the gradient blocks of the layout are evaluated; the other blocks
    of ``y`` enter as fixed data.
    """
    spaces = spaces or Spaces.build(mesh)
    dm, dofs, values = _dirichlet(spaces, params, names)
    grad = gradient_blocks(spaces, params, y.as_dict(), names=dm.names)
    r = dm.pack(grad)
    r[dofs] = dm.pack(y)[dofs] - values
    return r


def kkt_matrix(mesh: Mesh, y: KktVector, params: KktParams,
               spaces: Spaces | None = None, active=None,
               names=BLOCK_NAMES) -> sparse.csr_matrix:
    """Generalized derivative of :func:`kkt_residual` on the layout ``names``,
    with symmetric elimination of the Dirichlet rows and columns (unit
    diagonal on constrained dofs).

    The matrix is assembled at the layout's size by
    :func:`flowshape.lagrangian.block_matrix`, from the Hessian blocks whose
    rows and columns both lie in the layout.  ``active`` optionally fixes
    the determinant-penalty active set (a boolean mask over the extension
    elements) instead of {det(DF) < eta_det} at y.
    """
    spaces = spaces or Spaces.build(mesh)
    dm, dofs, _ = _dirichlet(spaces, params, names)
    return eliminate_dirichlet(
        block_matrix(spaces, params, y.as_dict(), dm.names, active=active),
        dofs)


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


_STATES = ("w", "v", "p", "b")
_ADJOINTS = ("lam_w", "lam_v", "lam_p", "lam_b")
_MULTIPLIERS = ("lam_vol", "lam_bc")


class _StateElimination:
    """Newton steps on a block layout by null-space block elimination.

    Each primal block but the control ``c`` is a state fixed by its own
    state equation, so the Jacobian A_y of the state equations (the adjoint
    rows) with respect to the states (the state columns) is square and
    nonsingular, and carries no alpha.  With Z = -A_y^-1 A_c, the
    constraint-preserving steps are (Z dc, dc); projecting the primal rows
    onto them leaves a dense saddle-point system in the control and the
    geometric multipliers, with the reduced Hessian Z^T H Z + alpha M and
    the reduced geometric constraints G Z.  A solve is then a forward solve
    with A_y, a dense reduced solve and an adjoint solve with A_y^T (the
    layout matrix is symmetric), and one pass of iterative refinement
    against the full matrix.  This relies on no second derivative joining
    two multipliers (see ``HESSIAN_PAIRS``): the adjoint and geometric rows
    have no entries in multiplier columns.

    The index sets hold the free dofs (Dirichlet dofs are decoupled by unit
    diagonals and solved directly) of the states, their adjoints, the
    control and the geometric multipliers.  They depend only on the layout;
    one that has no control, or whose states and adjoints differ in number,
    raises ``RuntimeError``.
    """

    def __init__(self, dm: DofMap, dofs):
        free = np.ones(dm.total, dtype=bool)
        free[dofs] = False
        owner = np.repeat(np.array(dm.names), [dm.sizes[n] for n in dm.names])

        def select(names):
            return np.flatnonzero(free & np.isin(owner, names))

        self.fixed = np.flatnonzero(~free)
        self.states, self.adjoints = select(_STATES), select(_ADJOINTS)
        self.control, self.multipliers = select(("c",)), select(_MULTIPLIERS)
        if not self.control.size:
            raise RuntimeError("block elimination needs a layout with the "
                               "control c")
        if self.states.size != self.adjoints.size:
            raise RuntimeError(
                f"{self.states.size} free state dofs but "
                f"{self.adjoints.size} free adjoint dofs")

    def factorize(self, A):
        """Solver for ``A x = b``: one sparse LU of A_y and one dense LU of
        the reduced system.  A singular factor raises ``RuntimeError``."""
        Y, L, C, M = self.states, self.adjoints, self.control, self.multipliers
        rows = A[L]
        lu = spla.splu(rows[:, Y].tocsc())
        k = C.size
        basis = np.zeros((A.shape[0], k))
        basis[Y] = -lu.solve(rows[:, C].toarray())
        basis[C, np.arange(k)] = 1.0
        image = A @ basis
        reduced = np.zeros((k + M.size, k + M.size))
        reduced[:k, :k] = basis.T @ image
        reduced[k:, :k] = image[M]
        reduced[:k, k:] = image[M].T
        factor = linalg.lu_factor(reduced, check_finite=False)
        if not np.all(np.diag(factor[0])):
            raise RuntimeError("reduced KKT matrix is exactly singular")

        def solve_once(rhs):
            x = np.zeros_like(rhs)
            x[self.fixed] = rhs[self.fixed]
            x[Y] = lu.solve(rhs[L])
            r = rhs - A @ x
            sol = linalg.lu_solve(factor, np.concatenate([basis.T @ r, r[M]]),
                                  check_finite=False)
            x += basis @ sol[:k]
            x[M] = sol[k:]
            x[L] = lu.solve((rhs - A @ x)[Y], trans="T")
            return x

        def linsolve(rhs):
            x = solve_once(rhs)
            return x + solve_once(rhs - A @ x)

        return linsolve


def solve_kkt(mesh: Mesh, y0: KktVector, params: KktParams,
              spaces: Spaces | None = None,
              return_info: bool = False):
    """Damped semismooth Newton solve of the coupled optimality system.

    Starts from ``y0`` projected onto the Dirichlet data.  Each Newton
    matrix, the generalized derivative at the iterate, is factorized by
    block elimination: one sparse LU of the state Jacobian and one dense LU
    of the reduced system in the control and the geometric multipliers (a
    singular factor is a ``singular`` failure).  See
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

    elimination = _StateElimination(dm, dofs)

    def factorize(uvec, active):
        return elimination.factorize(
            kkt_matrix(mesh, dm.unpack(uvec), params, spaces, active))

    def penalty_active(uvec):
        return penalty_active_set(spaces, uvec[wslice].reshape(-1, 2),
                                  params.eta_det)

    u, history = semismooth_newton(residual, factorize, u, params.newton_tol,
                                   params.newton_max_iter, "KKT",
                                   penalty_active)
    y = dm.unpack(u)
    return (y, history) if return_info else y
