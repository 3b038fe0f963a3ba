"""Monolithic first-order optimality system of the shape problem.

The unknown is one long vector holding eleven blocks: the deformation ``w``,
flow state ``v, p``, Neumann datum ``b`` of the extension, boundary control
``c``, their adjoints ``lam_w, lam_v, lam_p, lam_b``, and the two geometric
multipliers ``lam_vol`` (volume) and ``lam_bc`` (barycenter).  Residual and
matrix come from the term engine in :mod:`flowshape.lagrangian`, and so
do the boundary conditions (:func:`flowshape.lagrangian.dirichlet_dofs`);
this module adds the degree-of-freedom bookkeeping and solves the system
with the damped semismooth Newton method of :mod:`flowshape.newton` (the
determinant penalty makes the map piecewise smooth, with an active-set
generalized derivative).  A solve stops when the residual norm is below
``newton_tol`` and the Newton correction is at most
``sqrt(newton_tol) * (1 + |u|)``.

Only the control is free: ``w``, ``b`` and ``(v, p)`` are states, each fixed
by its own equation (extension, Laplace-Beltrami, flow).  A Newton step is
therefore solved by null-space block elimination (Hinze, Pinnau, Ulbrich &
Ulbrich, *Optimization with PDE Constraints*, 2009, ch. 2): the state
Jacobian is factorized by its diagonal blocks, one per state, with the
program's one sparse LU policy :data:`flowshape.fem.LU_OPTIONS`, and the
reduced system in the control and the geometric multipliers by one dense
LU.  :func:`solve_kkt` solves any block layout that holds the control; the
shape subsystem of the iterative driver is the layout of seven blocks
whose flow fields are held fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .fem import LU_OPTIONS
from .flow import factorize_flow, velocity_dirichlet
from .lagrangian import (BLOCK_NAMES, KktParams, Spaces, block_matrix,
                         block_offsets, block_sizes, control_spaces,
                         dirichlet_dofs, gradient_blocks, total_value,
                         zero_blocks)
from .mesh import Mesh
from .newton import semismooth_newton
from .transform import element_kinematics

__all__ = [
    "KktParams", "KktVector", "DofMap", "volume_residual",
    "barycenter_residual", "penalty_active_set",
    "kkt_residual", "kkt_matrix", "gradient_fd_slopes", "solve_kkt",
]


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
        blocks = {name: vec[self.block_slice(name)].reshape(
            zero[name].shape).copy() for name in self.names}
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
    dm = DofMap(spaces, names)
    dofs, values = dirichlet_dofs(spaces, names,
                                  velocity_dirichlet(mesh, params))
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
    dofs, _ = dirichlet_dofs(spaces, names, velocity_dirichlet(mesh, params))
    return block_matrix(spaces, params, y.as_dict(), names, active=active,
                        fixed=dofs)


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

    A_y is block lower bidiagonal in the state groups (b, w, (v, p)): its
    solves substitute through the groups, forward for A_y and backward for
    A_y^T, and only its diagonal blocks are factorized (Duff, Erisman &
    Reid, *Direct Methods for Sparse Matrices*, 2017), that of b, the curve
    operator -kron(M + K, I_2), once per mesh.  The free dofs (Dirichlet
    dofs are decoupled by unit diagonals and solved directly) depend only
    on the layout; one without the control, or with a group whose free
    states and adjoints differ in number, raises ``RuntimeError``.
    """

    def __init__(self, dm: DofMap, dofs):
        free = np.ones(dm.total, dtype=bool)
        free[dofs] = False
        owner = np.repeat(np.array(dm.names), [dm.sizes[n] for n in dm.names])

        def select(names):
            return np.flatnonzero(free & np.isin(owner, names))

        self.fixed = np.flatnonzero(~free)
        self.control = select(("c",))
        self.multipliers = select(("lam_vol", "lam_bc"))
        if not self.control.size:
            raise RuntimeError("block elimination needs a layout with the "
                               "control c")
        lu = dm.spaces.curve.factor  # of M + K, which is symmetric
        # -kron(M + K, I_2) on the vertex-major b: a constant of the mesh
        self.curve_solve = lambda r, trans="N": -lu.solve(
            r.reshape(lu.shape[0], -1)).reshape(r.shape)
        # (names, states, adjoints, coupled columns) per group, the coupled
        # columns being the control and the states of the group before
        self.groups, coupled = [], self.control
        for names in (("b",), ("w",), ("v", "p")):
            Y, L = select(names), select(["lam_" + n for n in names])
            if Y.size != L.size:
                raise RuntimeError(f"{Y.size} free {'/'.join(names)} dofs "
                                   f"but {L.size} free adjoint dofs")
            if Y.size:
                self.groups.append((names, Y, L, coupled))
                coupled = np.concatenate([self.control, Y])

    def factorize(self, A):
        """Solver for ``A x = b`` by the diagonal blocks of A_y and a dense
        LU of the reduced system; a singular one raises ``RuntimeError``."""
        C, M, k = self.control, self.multipliers, self.control.size
        steps = []  # index sets, coupling and its transpose, diagonal solve
        for names, Y, L, K in self.groups:
            if names == ("b",):
                solve = self.curve_solve
            elif names == ("w",):
                solve = spla.splu(A[L][:, Y].tocsc(), **LU_OPTIONS).solve
            else:
                solve = factorize_flow(A[L][:, Y]).solve
            coupling = A[L][:, K]
            steps.append((Y, L, K, coupling, coupling.T, solve))

        def forward(x, rhs):
            """x[states] = A_y^-1 (r - A_c x[control]), r[L] = ``rhs(L)``."""
            for Y, L, K, coupling, _, solve in steps:
                x[Y] = solve(rhs(L) - coupling @ x[K])

        def backward(x, s):
            """x[adjoints] = A_y^-T s[states]."""
            carry = 0.0
            for Y, L, _, _, transposed, solve in reversed(steps):
                x[L] = solve(s[Y] - carry, trans="T")
                carry = (transposed @ x[L])[k:]  # past the control columns

        basis = np.zeros((A.shape[0], k))
        basis[C, np.arange(k)] = 1.0
        forward(basis, lambda L: 0.0)
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
            forward(x, lambda L: rhs[L])
            r = rhs - A @ x
            sol = linalg.lu_solve(factor, np.concatenate([basis.T @ r, r[M]]),
                                  check_finite=False)
            x += basis @ sol[:k]
            x[M] = sol[k:]
            backward(x, rhs - A @ x)
            return x

        def linsolve(rhs):
            x = solve_once(rhs)
            return x + solve_once(rhs - A @ x)

        return linsolve


def solve_kkt(mesh: Mesh, y0: KktVector, params: KktParams,
              spaces: Spaces | None = None, names=BLOCK_NAMES):
    """Damped semismooth Newton solve of the optimality system on the block
    layout ``names``; returns ``(y, residual_history)``.

    The default layout is the coupled system of all eleven blocks.  A
    smaller one, such as the shape subsystem of the iterative driver, is
    solved with the other blocks of ``y0`` held fixed, and ``y`` takes them
    from ``y0``.  The solve starts from ``y0`` projected onto the Dirichlet
    data.  Each Newton matrix, the generalized derivative at the iterate, is
    factorized by block elimination: the diagonal blocks of the state
    Jacobian and one dense LU of the reduced system in the control and the
    geometric multipliers (a singular factor is a ``singular`` failure).  See
    :func:`flowshape.newton.semismooth_newton` for globalization and the stop
    test.  Raises a classified :class:`SolverError` on a singular matrix, a
    stall or divergence, and ``MeshError`` on a mesh without an obstacle
    boundary, which carries no control.
    """
    spaces = control_spaces(mesh, spaces)
    dm = DofMap(spaces, names)
    dofs, values = dirichlet_dofs(spaces, names,
                                  velocity_dirichlet(mesh, params))
    u = dm.pack(y0)
    u[dofs] = values
    wslice = dm.block_slice("w")

    def residual(uvec):
        return kkt_residual(mesh, dm.unpack(uvec, y0), params, spaces, names)

    elimination = _StateElimination(dm, dofs)

    def factorize(uvec, active):
        return elimination.factorize(kkt_matrix(
            mesh, dm.unpack(uvec, y0), params, spaces, active, names))

    def penalty_active(uvec):
        return penalty_active_set(spaces, uvec[wslice].reshape(-1, 2),
                                  params.eta_det)

    what = ("KKT" if dm.names == BLOCK_NAMES
            else f"KKT on {', '.join(dm.names)}")
    u, history = semismooth_newton(residual, factorize, u, params.newton_tol,
                                   params.newton_max_iter, what,
                                   penalty_active)
    return dm.unpack(u, y0), history
