"""Control-to-deformation map: boundary control to domain displacement.

Two stages.  A Laplace-Beltrami solve on the closed obstacle polyline turns
the scalar control c into a vector boundary datum b (componentwise curve
mass-plus-stiffness system with right-hand side c n).  A nonlinear advective
elliptic solve then extends b into a displacement w on the extension domain
of the mesh (the fluid domain, or the whole holdall), with the
symmetrized-gradient principal part and the advection term eta_ext (Dw w)
that lets cells trade volume under large deformations.  Setting eta_ext to
zero recovers a plain linear-elastic-style extension.  The residual and its
derivative come from the term engine: the lam_w block of
:func:`flowshape.lagrangian.gradient_blocks` and the (lam_w, w) block of
:func:`flowshape.lagrangian.block_matrix`.  The nonlinear solve is the
damped Newton method of :mod:`flowshape.newton`, with its stop test.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .fem import LU_OPTIONS
from .lagrangian import (DofMap, KktParams, Spaces, block_matrix,
                         control_spaces, dirichlet_dofs, gradient_blocks,
                         zero_blocks)
from .mesh import Mesh
from .newton import semismooth_newton

__all__ = ["solve_laplace_beltrami", "solve_extension"]

# tolerance of the stop test of :mod:`flowshape.newton` and iteration budget
# of an extension solve
_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-10, 30


def solve_laplace_beltrami(mesh: Mesh, c: np.ndarray,
                           spaces: Spaces | None = None) -> np.ndarray:
    """Boundary datum b from the control c on the obstacle loop, (m, 2).

    Solves (M + K) b = M (c n) componentwise with the cached factor of the
    curve operator, which is symmetric positive definite.  A mesh without
    an obstacle boundary raises ``MeshError``.
    """
    spaces = control_spaces(mesh, spaces)
    curve = spaces.curve
    c = np.asarray(c, dtype=float)
    return curve.factor.solve(curve.mass @ (c[:, None] * spaces.normals))


def solve_extension(mesh: Mesh, b: np.ndarray, params: KktParams,
                    spaces: Spaces | None = None) -> np.ndarray:
    """Damped Newton solve of the nonlinear extension, returns w (nv, 2).

    Of ``params`` the solve reads only the advection strength ``eta_ext``.
    The residual is the lam_w gradient of the term engine at the boundary
    datum b: the extension equation plus the load M b on the obstacle loop.
    The displacement vanishes on the whole outer boundary and is free on the
    obstacle loop (and, on a holdall mesh, inside the obstacle).  The
    Jacobian is factorized at the first iterate and wherever the Newton loop
    stops reusing the last factorization for chord steps (see
    :func:`flowshape.newton.semismooth_newton`); for eta_ext = 0 the problem
    is linear and one factorization converges.  A mesh without an obstacle
    boundary raises ``MeshError``.
    """
    spaces = control_spaces(mesh, spaces)
    dm, rows = DofMap(spaces, ("w",)), DofMap(spaces, ("lam_w",))
    fixed, _ = dirichlet_dofs(spaces, dm.names)
    z = zero_blocks(spaces)
    z["b"] = np.asarray(b, dtype=float)

    def residual(x):
        z.update(dm.blocks(x))
        r = rows.pack(gradient_blocks(spaces, params, z, names=rows.names))
        r[fixed] = 0.0
        return r

    def factorize(x, active):
        z.update(dm.blocks(x))
        A = block_matrix(spaces, params, z, rows.names, dm.names, fixed=fixed)
        return spla.splu(A.tocsc(), **LU_OPTIONS).solve

    w, _ = semismooth_newton(residual, factorize, np.zeros(dm.total),
                             _NEWTON_TOL, _NEWTON_MAX_ITER, "extension")
    return dm.blocks(w)["w"]
