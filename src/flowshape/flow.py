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
with its hand-on rule and its stop test at 1e-10 (not ``newton_tol``).
Both solves are posed on block layouts of the term engine, ``(v, p)`` and
``(lam_v, lam_p)``: their unknowns are packed and read by
:class:`flowshape.lagrangian.DofMap`, and their boundary conditions are the
layouts' Dirichlet tables (:func:`flowshape.lagrangian.dirichlet_dofs`),
built once per ``Spaces``.  The dissipation is the engine's
``dissipation`` value term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse.linalg as spla

from .fem import LU_OPTIONS, quadrature_triangle
from .lagrangian import (DofMap, KktParams, Spaces, block_matrix,
                         dirichlet_dofs, gradient_blocks, value_terms,
                         zero_blocks)
from .mesh import Mesh
from .newton import SolverError, semismooth_newton
from .transform import element_kinematics

__all__ = [
    "SolverError", "FlowState", "AdjointFlowState",
    "state_residual", "solve_state", "dissipation", "solve_adjoint",
    "reduced_gradient", "factorize_flow",
]


FlowParams = KktParams  # the name the benchmark harness imports

# stop tolerance and iteration budget of a state or adjoint solve
_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-10, 25


@dataclass(frozen=True)
class FlowState:
    """Nodal velocity (nv, 2) and pressure (nv,)."""

    v: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class AdjointFlowState:
    lam_v: np.ndarray
    lam_p: np.ndarray


# block layouts of the adjoint and the state unknowns, the rows and columns
# of the state Jacobian (the adjoint matrix is its transpose)
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
    """Weak residual of momentum and stabilized continuity, packed in the
    layout ``(lam_v, lam_p)``: 2*nv velocity entries (vertex-major) followed
    by nv pressure entries.  Dirichlet rows are not altered here.
    """
    spaces = spaces or Spaces.build(mesh)
    z = _state_blocks(spaces, w, state.v, state.p)
    grad = gradient_blocks(spaces, params, z, names=_STATE_ROWS)
    if body_force is not None:
        grad["lam_v"] = grad["lam_v"] + _forcing(spaces, body_force)
    return DofMap(spaces, _STATE_ROWS).pack(grad)


def factorize_flow(matrix):
    """Sparse LU with ``LU_OPTIONS`` of a flow Jacobian (the state Newton
    matrix or the flow block of a KKT state Jacobian); a singular one is a
    ``singular`` failure of the caller's Newton loop."""
    return spla.splu(matrix.tocsc(), **LU_OPTIONS)


def _orient(kept, trans):
    """Make the flow factorization in the holder ``kept`` (a ``partial`` of
    an LU's ``solve``) solve with ``trans``; the holder keeps the only
    reference to it."""
    if kept is not None and kept.solve is not None:
        kept.solve = partial(kept.solve.func, trans=trans)


def solve_state(mesh: Mesh, w: np.ndarray, params: KktParams,
                spaces: Spaces | None = None, body_force=None,
                dirichlet_override=None, pin_pressure=None,
                initial=None, kept=None, rtol=0.0) -> FlowState:
    """Damped Newton solve of the pulled-back stationary flow equations.

    ``pin_pressure`` is a (vertex, value) tuple fixing the pressure level for
    fully enclosed configurations; the tunnel's open outflow needs none.
    It and the callable ``dirichlet_override`` are keys of the Dirichlet
    table kept in ``spaces`` (:func:`flowshape.lagrangian.dirichlet_dofs`).
    The flow Jacobian is factorized at the first iterate and wherever the
    Newton loop stops reusing the last factorization for chord steps.
    ``kept`` is a :class:`flowshape.newton.Kept` holder of the flow
    factorization, shared with the state and adjoint solves of the same
    boundary data.  :mod:`flowshape.newton` states the stop test, with its
    relative target ``rtol`` (0: solve to 1e-10, not to ``newton_tol``),
    and the hand-on rule; a failure raises a classified
    :class:`SolverError` that carries the residual history.
    """
    spaces = spaces or Spaces.build(mesh)
    _, det, _ = element_kinematics(spaces.geo_fluid, np.asarray(w, float))
    if np.any(det <= 0.0):
        import warnings
        warnings.warn("non-positive det(DF); state solve attempted anyway")
    dm = DofMap(spaces, _STATE_COLS)
    dofs, values = dirichlet_dofs(spaces, _STATE_COLS, params,
                                  dirichlet_override, pin_pressure)
    u = np.zeros(dm.total) if initial is None else dm.pack(initial)
    u[dofs] = values

    def residual(uvec):
        r = state_residual(mesh, w, FlowState(**dm.blocks(uvec)), params,
                           spaces, body_force)
        r[dofs] = 0.0
        return r

    def factorize(uvec, active):
        z = _state_blocks(spaces, w, **dm.blocks(uvec))
        return partial(factorize_flow(block_matrix(
            spaces, params, z, _STATE_ROWS, _STATE_COLS, fixed=dofs)).solve,
            trans="N")

    _orient(kept, "N")
    u, _ = semismooth_newton(residual, factorize, u, _NEWTON_TOL,
                             _NEWTON_MAX_ITER, "state", kept=kept, rtol=rtol)
    return FlowState(**dm.blocks(u))


def dissipation(mesh: Mesh, w: np.ndarray, state: FlowState, nu: float,
                spaces: Spaces | None = None) -> float:
    """Pulled-back energy dissipation (nu/2) integral |Dv (DF)^-1|^2 det(DF),
    the ``dissipation`` term of :func:`flowshape.lagrangian.value_terms`."""
    spaces = spaces or Spaces.build(mesh)
    z = _state_blocks(spaces, np.asarray(w, float), state.v, state.p)
    return float(value_terms(spaces, KktParams(nu=nu), z)["dissipation"])


def solve_adjoint(mesh: Mesh, w: np.ndarray, state: FlowState,
                  params: KktParams, spaces: Spaces | None = None,
                  kept=None, rtol=0.0) -> AdjointFlowState:
    """Linear adjoint solve at a converged state.

    The matrix A is the transpose of the state Jacobian; the right-hand side
    g is the derivative of the dissipation with respect to velocity and
    pressure.  The linear residual A lam - g is solved from zero by the
    Newton routine of :func:`solve_state`.  A state Jacobian's
    factorization in the holder ``kept`` is solved transposed, by the
    hand-on rule of :mod:`flowshape.newton`; the transpose of A is
    factorized where it is refused.  ``rtol`` is the relative target of the
    stop test there: with it the solve stops once |A lam - g| is at most
    ``rtol * |g|`` (0: at 1e-10, as in :func:`solve_state`).
    """
    spaces = spaces or Spaces.build(mesh)
    dm = DofMap(spaces, _STATE_ROWS)
    z = _state_blocks(spaces, w, state.v, state.p)
    dofs, _ = dirichlet_dofs(spaces, _STATE_ROWS, params)
    A = block_matrix(spaces, params, z, _STATE_COLS, _STATE_ROWS, fixed=dofs)
    grad = gradient_blocks(spaces, params, z, names=_STATE_COLS)
    rhs = -DofMap(spaces, _STATE_COLS).pack(grad)
    rhs[dofs] = 0.0

    def factorize(lam, active):
        return partial(factorize_flow(A.T).solve, trans="T")

    _orient(kept, "T")
    sol, _ = semismooth_newton(lambda lam: A @ lam - rhs, factorize,
                               np.zeros(dm.total), _NEWTON_TOL,
                               _NEWTON_MAX_ITER, "adjoint", kept=kept,
                               rtol=rtol)
    return AdjointFlowState(**dm.blocks(sol))


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
