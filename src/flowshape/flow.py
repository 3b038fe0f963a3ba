"""Stationary incompressible Navier-Stokes on the transformed domain.

State and adjoint are posed entirely on the reference mesh: all integrals see
the deformation only through the per-element (DF)^-1 and det(DF).  Both
equations, and the Newton matrix of the state solve, are extracted from the
shared term engine in :mod:`flowshape.lagrangian`: the state residual is the
adjoint-multiplier gradient of the functional, its Jacobian is the transpose
pairing of the corresponding second-derivative blocks, and the adjoint matrix
is the transpose of the state Jacobian at the converged state.  Equal-order
P1-P1 velocity/pressure is stabilized by the element-wise pressure term with
coefficient mu and the longest reference edge as length scale.  State and
adjoint are solved by the damped Newton method of :mod:`flowshape.newton`,
with its stop test and hand-on rule.  The boundary conditions of both
solves are the Dirichlet table :func:`flowshape.lagrangian.dirichlet_dofs`
of the layouts ``(v, p)`` and ``(lam_v, lam_p)``, with the velocity data of
:func:`velocity_dirichlet`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .fem import LU_OPTIONS, quadrature_triangle
from .lagrangian import (KktParams, Spaces, block_matrix, dirichlet_dofs,
                         gradient_blocks, zero_blocks)
from .mesh import BoundaryTag, Mesh
from .newton import SolverError, semismooth_newton
from .transform import element_kinematics, kinematics, pushed_gradients

__all__ = [
    "SolverError", "FlowParams", "FlowState", "AdjointFlowState",
    "inflow_profile", "velocity_dirichlet", "state_residual", "solve_state",
    "dissipation", "solve_adjoint", "reduced_gradient", "factorize_flow",
]


@dataclass(frozen=True)
class FlowParams:
    """Viscosity, stabilization and Newton controls of the flow solves
    (tolerance of the stop test of :mod:`flowshape.newton` and budget)."""

    nu: float = 0.01
    mu: float = 0.1
    delta: float = 6.0
    inflow: str = "paper-cosine"
    newton_tol: float = 1e-10
    newton_max_iter: int = 25

    def __post_init__(self):
        if self.nu <= 0.0:
            raise ValueError("viscosity nu must be positive")
        if self.mu < 0.0:
            raise ValueError("stabilization coefficient mu must be >= 0")


@dataclass(frozen=True)
class FlowState:
    """Nodal velocity (nv, 2) and pressure (nv,)."""

    v: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class AdjointFlowState:
    lam_v: np.ndarray
    lam_p: np.ndarray


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

    Inflow vertices carry the profile, wall and obstacle vertices carry zero;
    a vertex on both (tunnel corner) is treated as wall.  ``override`` replaces
    the rule by a callable x -> velocity applied on the whole outer boundary
    and the obstacle (used by manufactured-solution runs).  The adjoint
    velocity vanishes on the same vertices
    (:func:`flowshape.lagrangian.dirichlet_dofs`).
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


# block layouts of the adjoint and the state unknowns, the rows and columns
# of the state Jacobian (the adjoint matrix is its transpose); their Hessian
# blocks read only nu and mu, so the flow parameters go to the engine as
# they are
_STATE_ROWS, _STATE_COLS = ("lam_v", "lam_p"), ("v", "p")


def _state_blocks(spaces: Spaces, w, v, p):
    z = zero_blocks(spaces)
    z["w"], z["v"], z["p"] = w, v, p
    return z


def _forcing(spaces: Spaces, body_force) -> np.ndarray:
    """Nodal load vector of an optional manufactured body force (nv, 2)."""
    geo = spaces.geo_fluid
    qp, qw = quadrature_triangle()
    pts = np.einsum("ql,tlx->tqx", qp, spaces.mesh.vertices[geo.tri])
    nt, nq = pts.shape[:2]
    vals = np.asarray(body_force(pts.reshape(-1, 2)), dtype=float).reshape(nt, nq, 2)
    loc = geo.area * np.einsum("q,ql,tqa->lat", qw, qp, vals)
    return geo.scatter(loc, spaces.mesh.num_vertices)


def state_residual(mesh: Mesh, w: np.ndarray, state: FlowState, params,
                   spaces: Spaces | None = None, body_force=None) -> np.ndarray:
    """Weak residual of momentum and stabilized continuity, concatenated.

    Layout: 2*nv velocity entries (vertex-major) followed by nv pressure
    entries.  Dirichlet rows are not altered here.
    """
    spaces = spaces or Spaces.build(mesh)
    z = _state_blocks(spaces, w, state.v, state.p)
    grad = gradient_blocks(spaces, params, z, names=("lam_v", "lam_p"))
    rv = grad["lam_v"]
    if body_force is not None:
        rv = rv + _forcing(spaces, body_force)
    return np.concatenate([rv.ravel(), grad["lam_p"]])


def factorize_flow(matrix):
    """Sparse LU with ``LU_OPTIONS`` of a flow Jacobian (the state Newton
    matrix or the flow block of a KKT state Jacobian); a singular matrix
    raises a ``singular`` :class:`SolverError`."""
    try:
        return spla.splu(matrix.tocsc(), **LU_OPTIONS)
    except RuntimeError as exc:
        raise SolverError(f"flow matrix: {exc}", kind="singular") from exc


class _FlowSolve:
    """Solves with the LU ``lu`` of a state Jacobian, or with ``trans="T"``
    with its transpose, the adjoint matrix."""

    def __init__(self, lu, trans):
        self.lu, self.trans = lu, trans

    def __call__(self, rhs):
        return self.lu.solve(rhs, trans=self.trans)


def _orient(kept, trans):
    """Make the flow factorization in the holder ``kept`` solve with
    ``trans``; the holder keeps the only reference to it."""
    if kept is not None and kept.solve is not None:
        kept.solve = _FlowSolve(kept.solve.lu, trans)


def solve_state(mesh: Mesh, w: np.ndarray, params,
                spaces: Spaces | None = None, body_force=None,
                dirichlet_override=None, pin_pressure=None,
                initial=None, kept=None) -> FlowState:
    """Damped Newton solve of the pulled-back stationary flow equations.

    ``pin_pressure`` is a (vertex, value) pair fixing the pressure level for
    fully enclosed configurations; the tunnel's open outflow needs none.  The
    flow Jacobian is factorized at the first iterate and wherever the
    Newton loop stops reusing the last factorization for chord steps.
    ``kept`` is a :class:`flowshape.newton.Kept` holder of the flow
    factorization, shared with the state and adjoint solves of the same
    boundary data.  :mod:`flowshape.newton` states the stop test and the
    hand-on rule; a failure raises a classified :class:`SolverError` that
    carries the residual history.
    """
    spaces = spaces or Spaces.build(mesh)
    _, det, _ = element_kinematics(spaces.geo_fluid, np.asarray(w, float))
    if np.any(det <= 0.0):
        import warnings
        warnings.warn("non-positive det(DF); state solve attempted anyway")
    nv = mesh.num_vertices
    dofs, values = dirichlet_dofs(
        spaces, _STATE_COLS,
        velocity_dirichlet(mesh, params, dirichlet_override), pin_pressure)
    u = np.zeros(3 * nv)
    if initial is not None:
        u[:2 * nv] = initial.v.ravel()
        u[2 * nv:] = initial.p
    u[dofs] = values

    def residual(uvec):
        st = FlowState(uvec[:2 * nv].reshape(nv, 2), uvec[2 * nv:])
        r = state_residual(mesh, w, st, params, spaces, body_force)
        r[dofs] = 0.0
        return r

    def factorize(uvec, active):
        z = _state_blocks(spaces, w, uvec[:2 * nv].reshape(nv, 2),
                          uvec[2 * nv:])
        return _FlowSolve(factorize_flow(block_matrix(
            spaces, params, z, _STATE_ROWS, _STATE_COLS, fixed=dofs)), "N")

    _orient(kept, "N")
    u, _ = semismooth_newton(residual, factorize, u, params.newton_tol,
                             params.newton_max_iter, "state", kept=kept)
    return FlowState(u[:2 * nv].reshape(nv, 2).copy(), u[2 * nv:].copy())


def dissipation(mesh: Mesh, w: np.ndarray, state: FlowState, nu: float,
                spaces: Spaces | None = None) -> float:
    """Pulled-back energy dissipation (nu/2) integral |Dv (DF)^-1|^2 det(DF)."""
    geo = (spaces or Spaces.build(mesh)).geo_fluid
    _, J, A = kinematics(geo, np.asarray(w, float))
    M = np.einsum("lat,lbt->abt", geo.gather(state.v),
                  pushed_gradients(geo, A))
    return 0.5 * nu * float(np.sum(geo.area * J * M * M))


def solve_adjoint(mesh: Mesh, w: np.ndarray, state: FlowState, params,
                  spaces: Spaces | None = None,
                  kept=None) -> AdjointFlowState:
    """Linear adjoint solve at a converged state.

    The matrix A is the transpose of the state Jacobian; the right-hand side
    g is the derivative of the dissipation with respect to velocity and
    pressure.  The linear residual A lam - g is solved from zero by the
    Newton routine of :func:`solve_state`.  A state Jacobian's
    factorization in the holder ``kept`` is solved transposed, by the
    hand-on rule of :mod:`flowshape.newton`; the transpose of A is
    factorized where it is refused.
    """
    spaces = spaces or Spaces.build(mesh)
    nv = mesh.num_vertices
    z = _state_blocks(spaces, w, state.v, state.p)
    dofs, _ = dirichlet_dofs(spaces, _STATE_ROWS,
                             velocity_dirichlet(mesh, params))
    A = block_matrix(spaces, params, z, _STATE_COLS, _STATE_ROWS, fixed=dofs)
    grad = gradient_blocks(spaces, params, z, names=("v", "p"))
    rhs = -np.concatenate([grad["v"].ravel(), grad["p"]])
    rhs[dofs] = 0.0

    def factorize(lam, active):
        return _FlowSolve(factorize_flow(A.T), "T")

    _orient(kept, "T")
    sol, _ = semismooth_newton(lambda lam: A @ lam - rhs, factorize,
                               np.zeros(3 * nv), params.newton_tol,
                               params.newton_max_iter, "adjoint", kept=kept)
    return AdjointFlowState(sol[:2 * nv].reshape(nv, 2).copy(),
                            sol[2 * nv:].copy())


def reduced_gradient(mesh: Mesh, w: np.ndarray, state: FlowState,
                     adjoint: AdjointFlowState, params,
                     spaces: Spaces | None = None) -> np.ndarray:
    """Adjoint-based derivative of the dissipation with respect to w, (nv, 2).

    Only the flow terms contribute: the shape multipliers are zero and the
    engine gets the penalty weight beta = 0.
    """
    spaces = spaces or Spaces.build(mesh)
    z = _state_blocks(spaces, w, state.v, state.p)
    z["lam_v"], z["lam_p"] = adjoint.lam_v, adjoint.lam_p
    grad = gradient_blocks(spaces, KktParams(nu=params.nu, mu=params.mu,
                                             beta=0.0), z, names=("w",))
    return grad["w"]
