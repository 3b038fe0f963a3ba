"""Monolithic first-order optimality system of the shape problem.

The unknown is one long vector holding eleven blocks: the deformation ``w``,
flow state ``v, p``, Neumann datum ``b`` of the extension, boundary control
``c``, their adjoints ``lam_w, lam_v, lam_p, lam_b``, and the two geometric
multipliers ``lam_vol`` (volume) and ``lam_bc`` (barycenter).  Residual and
matrix come from the term engine in :mod:`flowshape.lagrangian`, and so do
the layout's packing (:class:`DofMap`, which this module re-exports) and
its cached boundary conditions
(:func:`flowshape.lagrangian.dirichlet_dofs`).  This module solves the
system with the damped semismooth Newton method of :mod:`flowshape.newton`,
with its stop test and hand-on rule (the determinant penalty makes the map
piecewise smooth, with an active-set generalized derivative).

Only the control is free: ``w``, ``b`` and ``(v, p)`` are states, each fixed
by its own equation (extension, Laplace-Beltrami, flow).  A Newton step is
therefore solved by null-space block elimination (Hinze, Pinnau, Ulbrich &
Ulbrich, *Optimization with PDE Constraints*, 2009, ch. 2): the state
Jacobian is factorized by its diagonal blocks, one per state, with the
program's one sparse LU policy :data:`flowshape.fem.LU_OPTIONS`, and the
reduced system in the control and the geometric multipliers by one dense
LU, refined only where a first pass misses ``newton_tol``.
:func:`solve_kkt` solves any block layout that holds the control; the
shape subsystem of the iterative driver is the layout of seven blocks
whose flow fields are held fixed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .fem import LU_OPTIONS
from .flow import factorize_flow
from .lagrangian import (BLOCK_NAMES, DofMap, KktParams, KktVector, Spaces,
                         block_matrix, control_spaces, dirichlet_dofs,
                         gradient_blocks, total_value, zero_blocks)
from .mesh import Mesh
from .newton import semismooth_newton
from .transform import element_kinematics

__all__ = [
    "KktParams", "KktVector", "DofMap", "volume_residual",
    "barycenter_residual", "penalty_active_set",
    "kkt_residual", "kkt_matrix", "gradient_fd_slopes", "solve_kkt",
]

_NEWTON_MAX_ITER = 60  # the iteration budget of a KKT solve


def volume_residual(mesh: Mesh, w: np.ndarray,
                    spaces: Spaces | None = None) -> float:
    """Volume of the deformed fluid domain minus the reference volume: the
    negated ``lam_vol`` gradient block of the term engine."""
    return float(-_constraint_block(mesh, w, spaces, "lam_vol")[0])


def barycenter_residual(mesh: Mesh, w: np.ndarray,
                        spaces: Spaces | None = None) -> np.ndarray:
    """First moment of the deformed fluid domain minus the reference moment:
    the negated ``lam_bc`` gradient block of the term engine."""
    return -_constraint_block(mesh, w, spaces, "lam_bc")


def _constraint_block(mesh, w, spaces, name) -> np.ndarray:
    """The gradient block ``name`` of a geometric multiplier at w."""
    spaces = spaces or Spaces.build(mesh)
    z = dict(zero_blocks(spaces), w=np.asarray(w, float))
    return gradient_blocks(spaces, KktParams(), z, names=(name,))[name]


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
    dofs, values = dirichlet_dofs(spaces, names, params)
    grad = gradient_blocks(spaces, params, y.as_dict(), names=dm.names)
    r = dm.pack(grad)
    r[dofs] = dm.pack(y)[dofs] - values
    return r


def _state_elimination(spaces: Spaces, names, params) -> "_StateElimination":
    """The :class:`_StateElimination` of a layout, kept in ``spaces`` beside
    its Dirichlet table; it refers to no ``Spaces``."""
    key = ("elimination", tuple(names), params.delta, params.inflow)
    if key not in spaces._patterns:
        dofs, _ = dirichlet_dofs(spaces, names, params)
        spaces._patterns[key] = _StateElimination(DofMap(spaces, names), dofs)
    return spaces._patterns[key]


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
    dofs, _ = dirichlet_dofs(spaces, names, params)
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
    layout matrix is symmetric), and a second such pass against the full
    matrix where the first misses the solve's target.  This relies on no
    second derivative joining two multipliers (see ``HESSIAN_PAIRS``): the
    adjoint and geometric rows have no entries in multiplier columns.

    A_y is block lower bidiagonal in the state groups (b, w, (v, p)): its
    solves substitute through the groups, forward for A_y and backward for
    A_y^T, and only its diagonal blocks are factorized (Duff, Erisman &
    Reid, *Direct Methods for Sparse Matrices*, 2017), that of b, the curve
    operator -kron(M + K, I_2), once per mesh.  The free dofs (Dirichlet
    dofs are decoupled by unit diagonals and solved directly) depend only
    on the layout; one without the control, or with a group whose free
    states and adjoints differ in number, raises ``RuntimeError``.  The
    blocks A[L][:, Y], A[L][:, K] and A[read][:, primal] are cut from
    ``A.data`` at positions kept per pattern: :func:`block_matrix`
    assembles every Newton matrix of a layout on the same pattern arrays.
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
        # the rows of A @ basis that the reduced system reads: the basis is
        # zero off the control and the free states, and G Z sits in the
        # multiplier rows; the adjoint rows are never read
        self.primal = np.concatenate([self.control]
                                     + [Y for _, Y, _, _ in self.groups])
        self.read = np.concatenate([self.primal, self.multipliers])
        own = self.control - dm.offsets["c"]
        self.mass = dm.spaces.curve.mass[own][:, own].tocoo()  # A_cc / alpha
        self.pattern, self.plan = (None, None), None

    def cut(self, A):
        """A[L][:, Y] and A[L][:, K] of each group, then A[read][:, primal].
        """
        # SciPy keeps a view of the indices a matrix is built from
        indices = A.indices if A.indices.base is None else A.indices.base
        pattern = (A.indptr, indices)
        if any(a is not b for a, b in zip(pattern, self.pattern)):
            # the data numbers the stored entries, so that each part's data
            # tells where its entries sit in A.data
            numbered = sparse.csr_matrix((np.arange(A.nnz, dtype=np.int32),
                                          A.indices, A.indptr), A.shape)
            parts = [(L, c) for _, Y, L, K in self.groups for c in (Y, K)]
            self.plan = [numbered[rows][:, cols] for rows, cols
                         in parts + [(self.read, self.primal)]]
            self.pattern = pattern
        return [sparse.csr_matrix((A.data[p.data], p.indices, p.indptr),
                                  p.shape) for p in self.plan]

    def factorize(self, A, alpha, target=0.0):
        """Solver for ``A x = b``, A being the Newton matrix at ``alpha``, by
        the diagonal blocks of A_y and a dense LU of the reduced system; a
        singular one raises ``RuntimeError``.  ``target`` is the absolute
        residual below which a solve skips its second pass (0: never)."""
        blocks = self.cut(A)
        steps = []  # index sets, coupling and its transpose, diagonal solve
        for (names, Y, L, K), block, coupling in zip(self.groups, blocks[::2],
                                                      blocks[1::2]):
            if names == ("b",):
                solve = self.curve_solve
            elif names == ("w",):
                solve = spla.splu(block.tocsc(), **LU_OPTIONS).solve
            else:
                solve = factorize_flow(block).solve
            steps.append((Y, L, K, coupling, coupling.T, solve))
        return _BlockFactor(self, A, steps, alpha, blocks[-1], target)


class _BlockFactor:
    """A Newton matrix A factorized by :class:`_StateElimination`; calling
    it with ``rhs`` solves ``A x = rhs``, by a second pass only where the
    first leaves a residual norm above ``target``.

    alpha enters A only as alpha M in the (c, c) block, and A_y carries
    none, so :meth:`shift` moves the factorization exactly to another
    alpha: it adds the change of alpha M to the dense reduced matrix and,
    in place, to the matrix of the refinement pass, and factorizes the
    reduced matrix again; the state factors, Z and Z^T H Z are kept, and
    so is the target of the second pass.
    """

    def __init__(self, elimination, A, steps, alpha, read, target):
        self.elimination, self.A, self.steps = elimination, A, steps
        C, P = elimination.control, elimination.primal
        k, m = C.size, elimination.multipliers.size
        self.basis = basis = np.zeros((A.shape[0], k))
        basis[C, np.arange(k)] = 1.0
        self._forward(basis, lambda L: 0.0)
        image = read @ basis[P]  # the basis is zero off the primal columns
        self.reduced = np.zeros((k + m, k + m))
        self.reduced[:k, :k] = basis[P].T @ image[:P.size]
        self.reduced[k:, :k] = image[P.size:]
        self.reduced[:k, k:] = image[P.size:].T
        self.alpha, self.target = alpha, target
        self.shift(alpha)

    def shift(self, alpha):
        """Move the factorization to ``alpha`` and factorize the reduced
        matrix; a singular one raises ``RuntimeError``."""
        if alpha != self.alpha:
            C, M = self.elimination.control, self.elimination.mass
            change, A = alpha - self.alpha, self.A
            self.reduced[:C.size, :C.size] += change * M.toarray()
            # A is assembled on a fixed pattern that stores every entry of M
            where = [A.indptr[i] + np.flatnonzero(
                A.indices[A.indptr[i]:A.indptr[i + 1]] == j)[0]
                for i, j in zip(C[M.row], C[M.col])]
            A.data[where] += change * M.data
            self.alpha = alpha
        self.factor = linalg.lu_factor(self.reduced, check_finite=False)
        if not np.all(np.diag(self.factor[0])):
            raise RuntimeError("reduced KKT matrix is exactly singular")

    def _forward(self, x, rhs):
        """x[states] = A_y^-1 (r - A_c x[control]), r[L] = ``rhs(L)``."""
        for Y, L, K, coupling, _, solve in self.steps:
            x[Y] = solve(rhs(L) - coupling @ x[K])

    def _backward(self, x, s):
        """x[adjoints] = A_y^-T s[states]."""
        carry, k = 0.0, self.elimination.control.size
        for Y, L, _, _, transposed, solve in reversed(self.steps):
            x[L] = solve(s[Y] - carry, trans="T")
            carry = (transposed @ x[L])[k:]  # past the control columns

    def _solve_once(self, rhs):
        A, basis, M = self.A, self.basis, self.elimination.multipliers
        k = basis.shape[1]
        x = np.zeros_like(rhs)
        x[self.elimination.fixed] = rhs[self.elimination.fixed]
        self._forward(x, lambda L: rhs[L])
        r = rhs - A @ x
        sol = linalg.lu_solve(self.factor,
                              np.concatenate([basis.T @ r, r[M]]),
                              check_finite=False)
        x += basis @ sol[:k]
        x[M] = sol[k:]
        self._backward(x, rhs - A @ x)
        return x

    def __call__(self, rhs):
        x = self._solve_once(rhs)
        r = rhs - self.A @ x
        if np.linalg.norm(r) <= self.target:
            return x
        return x + self._solve_once(r)


def solve_kkt(mesh: Mesh, y0: KktVector, params: KktParams,
              spaces: Spaces | None = None, names=BLOCK_NAMES, kept=None,
              rtol=0.0):
    """Damped semismooth Newton solve of the optimality system on the block
    layout ``names``; returns ``(y, residual_history)``.

    The default layout is the coupled system of all eleven blocks.  A
    smaller one, such as the shape subsystem of the iterative driver, is
    solved with the other blocks of ``y0`` held fixed, and ``y`` takes them
    from ``y0``.  The solve starts from ``y0`` projected onto the Dirichlet
    data.  A Newton matrix, the generalized derivative at the iterate, is
    assembled and factorized by block elimination only where the Newton loop
    does not reuse the last one for a chord step: the diagonal blocks of the
    state Jacobian and one dense LU of the reduced system in the control and
    the geometric multipliers (a singular factor is a ``singular`` failure).
    A linear solve stops after a first pass that leaves a residual of at
    most ``newton_tol``, which the stop test cannot tell from an exact step.
    ``kept`` is a :class:`flowshape.newton.Kept` holder shared by the solves
    on the same layout, mesh and parameters but for alpha; a factorization
    it hands on is first moved exactly to ``params.alpha``.
    :mod:`flowshape.newton` states the stop test, with its relative target
    ``rtol`` (0: solve to ``newton_tol``), and the hand-on rule.
    Raises a classified :class:`SolverError` on a
    singular matrix, a stall or divergence, and ``MeshError`` on a mesh
    without an obstacle boundary, which carries no control.
    """
    spaces = control_spaces(mesh, spaces)
    dm = DofMap(spaces, names)
    dofs, values = dirichlet_dofs(spaces, names, params)
    u = dm.pack(y0)
    u[dofs] = values
    wslice = dm.block_slice("w")

    def residual(uvec):
        return kkt_residual(mesh, dm.unpack(uvec, y0), params, spaces, names)

    elimination = _state_elimination(spaces, names, params)

    def factorize(uvec, active):
        return elimination.factorize(kkt_matrix(
            mesh, dm.unpack(uvec, y0), params, spaces, active, names),
            params.alpha, params.newton_tol)

    if kept is not None and kept.solve is not None:
        try:
            kept.solve.shift(params.alpha)
        except RuntimeError:  # singular at this alpha: start afresh
            kept.solve = kept.active = None

    def penalty_active(uvec):
        return penalty_active_set(spaces, uvec[wslice].reshape(-1, 2),
                                  params.eta_det)

    what = ("KKT" if dm.names == BLOCK_NAMES
            else f"KKT on {', '.join(dm.names)}")
    u, history = semismooth_newton(residual, factorize, u, params.newton_tol,
                                   _NEWTON_MAX_ITER, what, penalty_active,
                                   kept, rtol)
    return dm.unpack(u, y0), history
