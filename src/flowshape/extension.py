"""Control-to-deformation map: boundary control to domain displacement.

Two stages.  A Laplace-Beltrami solve on the closed obstacle polyline turns
the scalar control c into a vector boundary datum b (componentwise curve
mass-plus-stiffness system with right-hand side c n).  A nonlinear advective
elliptic solve then extends b into a displacement w on the extension domain
of the mesh (the fluid domain, or the whole holdall), with the
symmetrized-gradient principal part and the advection term eta_ext (Dw w)
that lets cells trade volume under large deformations.  Setting eta_ext to
zero recovers a plain linear-elastic-style extension.  The residual and its
derivative come from the term engine
(:func:`flowshape.lagrangian.extension_residual`, and the (lam_w, w) block
of :func:`flowshape.lagrangian.block_matrix`); the nonlinear solve is the
damped Newton method of :mod:`flowshape.newton`, which stops when the
residual norm is below ``newton_tol`` and the Newton correction is at most
``sqrt(newton_tol) * (1 + |w|)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .fem import LU_OPTIONS
from .lagrangian import (KktParams, Spaces, block_matrix, control_spaces,
                         dirichlet_dofs, extension_residual, zero_blocks)
from .mesh import Mesh
from .newton import semismooth_newton

__all__ = ["ExtensionParams", "solve_laplace_beltrami", "solve_extension"]


@dataclass(frozen=True)
class ExtensionParams:
    """Advection strength and Newton controls of the extension solve.

    The solve stops when the residual norm is below newton_tol and the
    Newton correction is at most sqrt(newton_tol) * (1 + |w|).
    """

    eta_ext: float = 1.0
    newton_tol: float = 1e-10
    newton_max_iter: int = 30

    def __post_init__(self):
        if self.eta_ext < 0.0:
            raise ValueError("advection strength eta_ext must be >= 0")


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


def solve_extension(mesh: Mesh, b: np.ndarray, params: ExtensionParams,
                    spaces: Spaces | None = None,
                    initial: np.ndarray | None = None) -> np.ndarray:
    """Damped Newton solve of the nonlinear extension, returns w (nv, 2).

    The residual is the lam_w gradient of the term engine: its interior
    extension residual plus the boundary load M b on the obstacle loop.  The
    displacement vanishes on the whole outer boundary and is free on the
    obstacle loop (and, on a holdall mesh, inside the obstacle).  For
    eta_ext = 0 the problem is linear and one factorization converges.  A
    mesh without an obstacle boundary raises ``MeshError``.
    """
    spaces = control_spaces(mesh, spaces)
    nv = mesh.num_vertices
    fixed, _ = dirichlet_dofs(spaces, ("w",))
    engine = KktParams(eta_ext=params.eta_ext)
    z = zero_blocks(spaces)
    load = np.zeros((nv, 2))
    load[spaces.curve.loop] = spaces.curve.mass @ np.asarray(b, dtype=float)
    w = (np.zeros(2 * nv) if initial is None
         else np.array(initial, dtype=float).ravel())
    w[fixed] = 0.0

    def residual(x):
        r = (extension_residual(spaces, x.reshape(nv, 2), params.eta_ext)
             + load).ravel()
        r[fixed] = 0.0
        return r

    def factorize(x, active):
        z["w"] = x.reshape(nv, 2)
        A = block_matrix(spaces, engine, z, ("lam_w",), ("w",), fixed=fixed)
        return spla.splu(A.tocsc(), **LU_OPTIONS).solve

    w, _ = semismooth_newton(residual, factorize, w, params.newton_tol,
                             params.newton_max_iter, "extension")
    return w.reshape(nv, 2)
