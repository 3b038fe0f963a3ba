"""Tests for the coupled first-order optimality system."""

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from dataclasses import replace

from flowshape.flow import solve_state, solve_adjoint
from flowshape import kkt
from flowshape.fem import LU_OPTIONS
from flowshape.kkt import (
    DofMap,
    KktParams,
    KktVector,
    barycenter_residual,
    gradient_fd_slopes,
    kkt_matrix,
    kkt_residual,
    penalty_active_set,
    solve_kkt,
    volume_residual,
    _StateElimination,
)
from flowshape.lagrangian import (BLOCK_NAMES, Spaces, block_matrix,
                                  dirichlet_dofs, gradient_blocks,
                                  total_value)
from flowshape.optimize import _SHAPE_BLOCKS
from flowshape.transform import element_kinematics


@pytest.fixture(scope="module")
def spaces(circle_mesh):
    return Spaces.build(circle_mesh)


def _random_vector(spaces, rng, w_scale=0.01, scale=0.5):
    y = KktVector.zeros(spaces)
    for name in ("w", "v", "p", "b", "c", "lam_w", "lam_v", "lam_p",
                 "lam_b", "lam_bc"):
        field = getattr(y, name)
        s = w_scale if name == "w" else scale
        setattr(y, name, s * rng.standard_normal(np.shape(field)))
    y.lam_vol = scale * rng.standard_normal(1)
    return y


def _dirichlet(spaces, params, names=BLOCK_NAMES):
    """Layout map and Dirichlet table of the KKT layout ``names``."""
    dofs, values = dirichlet_dofs(spaces, names, params)
    return DofMap(spaces, names), dofs, values


def test_params_validation():
    with pytest.raises(ValueError):
        KktParams(alpha=0.0)
    with pytest.raises(ValueError):
        KktParams(beta=-1.0)
    with pytest.raises(ValueError):
        KktParams(eta_det=0.0)
    with pytest.raises(ValueError):
        KktParams(nu=0.0)
    with pytest.raises(ValueError):
        KktParams(mu=-1.0)
    with pytest.raises(ValueError):
        KktParams(delta=0.0)
    with pytest.raises(ValueError):
        KktParams(newton_tol=0.0)
    for name in ("alpha", "beta", "eta_det", "eta_ext", "nu", "mu", "delta",
                 "newton_tol"):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            KktParams(**{name: float("nan")})


def test_dofmap_roundtrip(spaces, rng):
    dm = DofMap(spaces)
    y = _random_vector(spaces, rng)
    u = dm.pack(y)
    z = dm.unpack(u)
    for name, val in y.as_dict().items():
        assert np.array_equal(np.asarray(val), np.asarray(getattr(z, name)))


def test_volume_and_barycenter_vanish_at_identity(circle_mesh):
    w = np.zeros((circle_mesh.num_vertices, 2))
    assert abs(volume_residual(circle_mesh, w)) <= 1e-12
    assert np.abs(barycenter_residual(circle_mesh, w)).max() <= 1e-12


def test_control_stationarity_row_is_alpha_mass(spaces, rng):
    """The c-block of the gradient is alpha M_G c plus the lam_b coupling."""
    params = KktParams(alpha=0.37)
    y = KktVector.zeros(spaces)
    y.c = rng.standard_normal(spaces.num_loop)
    grad = gradient_blocks(spaces, params, y.as_dict())
    want = 0.37 * (spaces.curve.mass @ y.c)
    assert np.abs(grad["c"] - want).max() <= 1e-13


def test_residual_matches_gradient_on_free_rows(circle_mesh, spaces, rng):
    """Away from Dirichlet rows the KKT residual is the Lagrangian gradient."""
    params = KktParams()
    dm = DofMap(spaces)
    y = _random_vector(spaces, rng)
    r = kkt_residual(circle_mesh, y, params, spaces)
    grad = gradient_blocks(spaces, params, y.as_dict())
    flat = dm.pack({k: np.asarray(v) for k, v in grad.items()})
    _, dofs, _ = _dirichlet(spaces, params)
    free = np.setdiff1d(np.arange(dm.total), dofs)
    assert np.array_equal(r[free], flat[free])


def test_matrix_matches_residual_fd(circle_mesh, spaces, rng):
    params = KktParams(alpha=0.3, beta=7.0, eta_det=1.5, eta_ext=2.0)
    dm = DofMap(spaces)
    u = dm.pack(_random_vector(spaces, rng))
    A = kkt_matrix(circle_mesh, dm.unpack(u), params, spaces)
    h = np.longdouble(1e-7)
    d = rng.standard_normal(dm.total)
    # Dirichlet columns are eliminated from the matrix, so do not perturb them
    _, dofs, _ = _dirichlet(spaces, params)
    d[dofs] = 0.0
    ul = u.astype(np.longdouble)
    fd = (kkt_residual(circle_mesh, dm.unpack(ul + h * d), params, spaces)
          - kkt_residual(circle_mesh, dm.unpack(ul - h * d), params,
                         spaces)) / (2 * h)
    got = A @ d
    assert np.abs(got - fd.astype(float)).max() <= 1e-6 * np.abs(fd).max()


def test_matrix_is_symmetric(circle_mesh, spaces, rng):
    params = KktParams(alpha=0.3, beta=7.0, eta_det=1.5, eta_ext=2.0)
    y = _random_vector(spaces, rng)
    A = kkt_matrix(circle_mesh, y, params, spaces)
    asym = abs(A - A.T).max()
    assert asym <= 1e-12 * abs(A).max()


def _same_csr(a, b):
    a, b = a.tocsr(), b.tocsr()
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


@pytest.mark.parametrize("mesh_name", ["circle_mesh", "holdall_mesh"])
def test_block_layouts_restrict_the_full_system_exactly(request, mesh_name,
                                                        rng):
    """A layout's matrix and residual are the rows and columns of the full
    system at that layout, bit for bit, and the state layout is the
    transpose of the adjoint layout."""
    mesh = request.getfixturevalue(mesh_name)
    sp = Spaces.build(mesh)
    params = KktParams(alpha=0.3, beta=7.0, eta_det=1.2, eta_ext=2.0)
    y = _random_vector(sp, rng)
    dm = DofMap(sp)
    sel = np.concatenate([np.arange(dm.total)[dm.block_slice(name)]
                          for name in _SHAPE_BLOCKS])
    full = kkt_matrix(mesh, y, params, sp)
    shape = kkt_matrix(mesh, y, params, sp, names=_SHAPE_BLOCKS)
    assert _same_csr(shape, full[sel][:, sel])
    assert np.array_equal(
        kkt_residual(mesh, y, params, sp, names=_SHAPE_BLOCKS),
        kkt_residual(mesh, y, params, sp)[sel])
    z = y.as_dict()
    state = block_matrix(sp, params, z, ("lam_v", "lam_p"), ("v", "p"))
    adjoint = block_matrix(sp, params, z, ("v", "p"), ("lam_v", "lam_p"))
    assert state.nnz > 0
    assert _same_csr(state, adjoint.T)
    # a block that no pair in the layout touches still takes its rows
    m = sp.num_loop
    assert block_matrix(sp, params, z, ("c", "lam_vol")).shape == (m + 1,) * 2


def test_gradient_fd_slopes_all_blocks(circle_mesh, spaces, rng):
    params = KktParams(alpha=0.3, beta=7.0, eta_det=1.5, eta_ext=2.0)
    y = _random_vector(spaces, rng, w_scale=0.01, scale=0.5)
    slopes = gradient_fd_slopes(circle_mesh, y, params, n_directions=5,
                                seed=1, spaces=spaces)
    assert set(slopes) == {"w", "v", "p", "b", "c", "lam_w", "lam_v",
                           "lam_p", "lam_b", "lam_vol", "lam_bc"}
    for name, slope in slopes.items():
        assert slope >= 1.9, (name, slope)


def test_lagrangian_value_finite(circle_mesh, spaces, rng):
    params = KktParams()
    y = _random_vector(spaces, rng)
    val = total_value(spaces, params, y.as_dict())
    assert np.isfinite(val)


@pytest.mark.parametrize("names", [BLOCK_NAMES, _SHAPE_BLOCKS])
def test_tables_kept_in_spaces_do_not_keep_it_alive(circle_mesh, rng, names):
    """What the residual, the matrix and the engine keep in a ``Spaces``
    refers to no ``Spaces``: a dropped one is freed at once, without the
    cycle collector, so a continuation per mesh does not pile them up."""
    import gc
    import weakref

    sp = Spaces.build(circle_mesh)
    y = _random_vector(sp, rng)
    kkt_residual(circle_mesh, y, KktParams(), sp, names)
    kkt_matrix(circle_mesh, y, KktParams(), sp, names=names)
    assert sp._patterns
    ref = weakref.ref(sp)
    gc.disable()
    try:
        del sp
        assert ref() is None
    finally:
        gc.enable()


def test_solve_kkt_large_alpha_keeps_shape_fixed(circle_mesh, spaces):
    """With a huge control cost the optimum is the unperturbed shape."""
    params = KktParams(alpha=1e6, nu=0.05)
    y0 = KktVector.zeros(spaces)
    state = solve_state(circle_mesh, y0.w, params, spaces=spaces)
    y0.v, y0.p = state.v, state.p
    y, _ = solve_kkt(circle_mesh, y0, params, spaces)
    assert np.abs(y.c).max() <= 1e-6
    assert np.abs(y.w).max() <= 1e-6
    assert abs(volume_residual(circle_mesh, y.w, spaces)) <= 1e-9


def test_solve_kkt_reaches_tolerance_and_constraints(circle_mesh, spaces):
    params = KktParams(alpha=1e-2, nu=0.05)
    y0 = KktVector.zeros(spaces)
    state = solve_state(circle_mesh, y0.w, params, spaces=spaces)
    y0.v, y0.p = state.v, state.p
    y, hist = solve_kkt(circle_mesh, y0, params, spaces)
    assert hist[-1] < 10 * params.newton_tol or hist[-1] < params.newton_tol
    r = kkt_residual(circle_mesh, y, params, spaces)
    assert np.linalg.norm(r) < params.newton_tol
    assert abs(volume_residual(circle_mesh, y.w, spaces)) <= 1e-9
    assert np.abs(barycenter_residual(circle_mesh, y.w, spaces)).max() <= 1e-9
    # the flow blocks solve the state equation at the optimal shape
    st = solve_state(circle_mesh, y.w, params, spaces=spaces, initial=None)
    assert np.abs(st.v - y.v).max() <= 1e-6


def test_solve_kkt_warm_start_is_cheaper(circle_mesh, spaces):
    params = KktParams(alpha=1e-2, nu=0.05)
    y0 = KktVector.zeros(spaces)
    state = solve_state(circle_mesh, y0.w, params, spaces=spaces)
    y0.v, y0.p = state.v, state.p
    y, hist_cold = solve_kkt(circle_mesh, y0, params, spaces)
    y2, hist_warm = solve_kkt(circle_mesh, y, replace(params, alpha=5e-3),
                              spaces)
    assert len(hist_warm) <= len(hist_cold)


def test_adjoint_blocks_match_standalone_adjoint(circle_mesh, spaces):
    """At the KKT solution the flow multipliers solve the adjoint system
    driven by the dissipation only (the shape rows carry the rest)."""
    params = KktParams(alpha=1e-2, nu=0.05)
    y0 = KktVector.zeros(spaces)
    state = solve_state(circle_mesh, y0.w, params, spaces=spaces)
    y0.v, y0.p = state.v, state.p
    y, _ = solve_kkt(circle_mesh, y0, params, spaces)
    st = solve_state(circle_mesh, y.w, params, spaces=spaces)
    adj = solve_adjoint(circle_mesh, y.w, st, params, spaces=spaces)
    assert np.abs(adj.lam_v - y.lam_v).max() <= 1e-5 * max(
        1.0, np.abs(y.lam_v).max())


def test_kink_linearization_matches_one_sided_derivative(circle_mesh, spaces):
    """An element whose det(DF) sits exactly on eta_det: along a step that
    compresses it, the linearization with the trial point's active set is the
    one-sided derivative (the tie-inactive default is not), and the Newton
    solve converges from that point."""
    params = KktParams(alpha=1e-2, nu=0.05)
    y0 = KktVector.zeros(spaces)
    state = solve_state(circle_mesh, y0.w, params, spaces=spaces)
    y0.v, y0.p = state.v, state.p
    y, _ = solve_kkt(circle_mesh, y0, params, spaces)
    _, dets, _ = element_kinematics(spaces.geo_ext, y.w)
    kink = int(np.argmin(dets))
    params = replace(params, alpha=2e-3, eta_det=float(dets[kink]))

    dm = DofMap(spaces)
    u, wslice = dm.pack(y), dm.block_slice("w")
    r = kkt_residual(circle_mesh, y, params, spaces)
    step = spla.spsolve(kkt_matrix(circle_mesh, y, params, spaces).tocsc(), -r)
    h = 1e-6
    trial = u + h * step
    active = penalty_active_set(spaces, trial[wslice].reshape(-1, 2),
                                params.eta_det)
    assert np.flatnonzero(active).tolist() == [kink]  # the step crosses it
    fd = (kkt_residual(circle_mesh, dm.unpack(trial), params, spaces) - r) / h

    def mismatch(A):
        return np.linalg.norm(A @ step - fd) / np.linalg.norm(fd)

    assert mismatch(kkt_matrix(circle_mesh, y, params, spaces, active)) < 1e-5
    assert mismatch(kkt_matrix(circle_mesh, y, params, spaces)) > 0.1

    _, hist = solve_kkt(circle_mesh, y, params, spaces)
    assert hist[-1] < params.newton_tol


@pytest.mark.parametrize("mesh_name", ["circle_mesh", "holdall_mesh"])
@pytest.mark.parametrize("names", [BLOCK_NAMES, _SHAPE_BLOCKS],
                         ids=["full", "shape"])
@pytest.mark.parametrize("alpha", [1e-2, 1e-8])
def test_block_elimination_matches_direct_lu(request, mesh_name, names,
                                             alpha, rng):
    """At a random admissible point (Dirichlet data held, det(DF) > 0.5 on
    every element), the block elimination's Newton step agrees with a
    sparse direct solve of the same layout matrix in every block.

    The reference is ``spsolve`` with one step of iterative refinement: at
    alpha = 1e-8 an unrefined sparse LU is itself off by up to 5e-9 in
    single blocks at such points.
    """
    mesh = request.getfixturevalue(mesh_name)
    sp = Spaces.build(mesh)
    params = KktParams(alpha=alpha)
    dm, dofs, values = _dirichlet(sp, params, names)
    y = _random_vector(sp, rng, w_scale=1e-3)
    u = dm.pack(y)
    u[dofs] = values
    y = dm.unpack(u, y)
    _, dets, _ = element_kinematics(sp.geo_ext, y.w)
    assert dets.min() > 0.5
    A = kkt_matrix(mesh, y, params, sp, names=names)
    rhs = -kkt_residual(mesh, y, params, sp, names=names)

    step = _StateElimination(dm, dofs).factorize(A, alpha)(rhs)
    ref = spla.spsolve(A.tocsc(), rhs)
    ref += spla.spsolve(A.tocsc(), rhs - A @ ref)
    for name in dm.names:
        s = dm.block_slice(name)
        assert (np.abs(step[s] - ref[s]).max()
                <= 1e-9 * np.abs(ref[s]).max()), name
    assert np.linalg.norm(A @ step - rhs) <= 1e-9 * np.linalg.norm(rhs)


def _elimination_case(mesh, names, alpha, rng):
    """The layout, matrix and Newton right-hand side of
    ``test_block_elimination_matches_direct_lu`` at (mesh, names, alpha)."""
    sp = Spaces.build(mesh)
    params = KktParams(alpha=alpha)
    dm, dofs, values = _dirichlet(sp, params, names)
    y = _random_vector(sp, rng, w_scale=1e-3)
    u = dm.pack(y)
    u[dofs] = values
    y = dm.unpack(u, y)
    A = kkt_matrix(mesh, y, params, sp, names=names)
    return dm, dofs, A, -kkt_residual(mesh, y, params, sp, names=names)


def test_a_solve_refines_only_where_its_first_pass_misses_the_target(
        request, rng, monkeypatch):
    """At the points and alphas of ``test_block_elimination_matches_direct_lu``
    a factorization with the target ``newton_tol`` returns either the
    two-pass step of the default target 0 bit for bit, or the first pass's
    step, whose residual meets the target; both happen."""
    passes = [0]
    solve_once = kkt._BlockFactor._solve_once

    def counted(self, rhs):
        passes[0] += 1
        return solve_once(self, rhs)

    monkeypatch.setattr(kkt._BlockFactor, "_solve_once", counted)
    start, target, taken = rng.bit_generator.state, KktParams().newton_tol, []
    for mesh_name in ("circle_mesh", "holdall_mesh"):
        for names in (BLOCK_NAMES, _SHAPE_BLOCKS):
            for alpha in (1e-2, 1e-8):
                rng.bit_generator.state = start  # the parametrized test's rng
                dm, dofs, A, rhs = _elimination_case(
                    request.getfixturevalue(mesh_name), names, alpha, rng)
                elimination = _StateElimination(dm, dofs)
                both = elimination.factorize(A, alpha)(rhs)
                passes[0] = 0
                step = elimination.factorize(A, alpha, target)(rhs)
                taken.append(passes[0])
                if passes[0] == 1:
                    assert np.linalg.norm(A @ step - rhs) <= target
                else:
                    assert passes[0] == 2 and np.array_equal(step, both)
    assert set(taken) == {1, 2}, taken


def test_blocks_are_cut_by_a_plan_kept_per_pattern(circle_mesh, spaces, rng):
    """The blocks a factorization reads, cut from ``A.data`` by the kept
    plan, equal SciPy's A[L][:, Y] and A[L][:, K] and the image and reduced
    matrix of A[read] @ basis bit for bit: at the first factorization, at a
    later one on the same pattern, which keeps the plan, and on a copy of
    the matrix, whose new arrays get a new plan."""
    params = KktParams(alpha=1e-3)
    dm, dofs, values = _dirichlet(spaces, params)
    elimination = _StateElimination(dm, dofs)
    plans = []
    for w_scale in (1e-3, 2e-3, None):
        if w_scale is not None:
            y = _random_vector(spaces, rng, w_scale=w_scale)
            u = dm.pack(y)
            u[dofs] = values
            A = kkt_matrix(circle_mesh, dm.unpack(u, y), params, spaces)
        else:
            A = A.copy()
        factor = elimination.factorize(A, params.alpha)
        plans.append(elimination.plan)
        blocks = elimination.cut(A)
        for i, (_, Y, L, K) in enumerate(elimination.groups):
            assert _same_csr(blocks[2 * i], A[L][:, Y])
            assert _same_csr(blocks[2 * i + 1], A[L][:, K])
        basis, P = factor.basis, elimination.primal
        image = A[elimination.read] @ basis
        assert np.array_equal(blocks[-1] @ basis[P], image)
        k = elimination.control.size
        assert np.array_equal(factor.reduced[:k, :k],
                              basis[P].T @ image[:P.size])
        assert np.array_equal(factor.reduced[k:, :k], image[P.size:])
    assert plans[0] is plans[1] and plans[2] is not plans[1]


@pytest.mark.parametrize("names", [BLOCK_NAMES, _SHAPE_BLOCKS],
                         ids=["full", "shape"])
def test_shifted_factorization_matches_a_fresh_one(circle_mesh, spaces,
                                                    names, rng):
    """alpha enters the Newton matrix only as alpha M on the control, so a
    factorization moved from one alpha to another solves like one made at
    the second alpha at the same point."""
    y = _random_vector(spaces, rng, w_scale=1e-3)
    first, second = KktParams(alpha=1e-2), KktParams(alpha=1e-5)
    dm, dofs, values = _dirichlet(spaces, first, names)
    u = dm.pack(y)
    u[dofs] = values
    y = dm.unpack(u, y)
    elimination = _StateElimination(dm, dofs)
    shifted = elimination.factorize(
        kkt_matrix(circle_mesh, y, first, spaces, names=names), first.alpha)
    shifted.shift(second.alpha)
    fresh = elimination.factorize(
        kkt_matrix(circle_mesh, y, second, spaces, names=names),
        second.alpha)
    assert shifted.alpha == fresh.alpha == second.alpha
    assert abs(shifted.A - fresh.A).max() <= 1e-15 * abs(fresh.A).max()
    for rhs in (-kkt_residual(circle_mesh, y, second, spaces, names=names),
                rng.standard_normal(dm.total)):
        expected = fresh(rhs)
        assert (np.linalg.norm(shifted(rhs) - expected)
                <= 1e-12 * np.linalg.norm(expected))


def _free_groups(dm, dofs):
    """Free (states, adjoints) of the state groups b, w and (v, p) that the
    layout holds, in the order of block forward substitution."""
    free = np.ones(dm.total, dtype=bool)
    free[dofs] = False

    def select(names):
        idx = [np.arange(dm.total)[dm.block_slice(n)] for n in names
               if n in dm.names]
        idx = np.concatenate(idx) if idx else np.zeros(0, dtype=int)
        return idx[free[idx]]

    groups = [(select(g), select(["lam_" + n for n in g]))
              for g in (("b",), ("w",), ("v", "p"))]
    return [(Y, L) for Y, L in groups if Y.size]


def test_newton_factorizes_only_the_state_jacobian(circle_mesh, spaces,
                                                   spy):
    """Each KKT or shape-subsystem assembly is followed by exactly one
    sparse LU in ``kkt``, of the free (lam_w, w) block, and on the full
    layout by one flow-block factorization; the curve operator's factor is
    built once per mesh.  The diagonal blocks cover the free state dofs,
    and no LU sees the whole state Jacobian.  A layout without the control
    cannot be eliminated."""
    params = KktParams(alpha=1e-2)
    curve_lu = spaces.curve.factor
    spy(kkt, "kkt_matrix")
    spy(kkt, "factorize_flow")
    spy(spla, "splu")
    y, _ = solve_kkt(circle_mesh, KktVector.zeros(spaces), params, spaces)
    solved = len(spy.order)
    solve_kkt(circle_mesh, y, replace(params, alpha=1e-3), spaces,
              _SHAPE_BLOCKS)
    assert spaces.curve.factor is curve_lu
    for names, calls in ((BLOCK_NAMES, spy.order[:solved]),
                         (_SHAPE_BLOCKS, spy.order[solved:])):
        dm, dofs, _ = _dirichlet(spaces, params, names)
        groups = _free_groups(dm, dofs)
        n_state = sum(Y.size for Y, _ in groups)
        sizes = [Y.size for Y, _ in groups]
        assert sizes[0] == 2 * spaces.num_loop
        per_assembly = (["kkt_matrix", "splu", "factorize_flow", "splu"]
                        if names == BLOCK_NAMES else ["kkt_matrix", "splu"])
        assert [name for name, _ in calls] == (
            per_assembly * (len(calls) // len(per_assembly)))
        assert len(calls) >= 2 * len(per_assembly)
        factored = []
        for i in range(0, len(calls), len(per_assembly)):
            assembly = calls[i][1]
            Y, L = groups[1]
            block = kkt_matrix(**assembly)[L][:, Y]
            assert _same_csr(calls[i + 1][1]["A"], block)
            factored.append([calls[j][1]["A"].shape[0] for j in
                             range(i + 1, i + len(per_assembly), 2)])
        assert all(f == sizes[1:] for f in factored)
        assert sum(sizes) == n_state < dm.total
        assert all(arguments["A"].shape != (n_state, n_state)
                   for name, arguments in calls if name == "splu")

    names = ("w", "b", "lam_w", "lam_b")
    dm, dofs, _ = _dirichlet(spaces, params, names)
    with pytest.raises(RuntimeError, match="control"):
        _StateElimination(dm, dofs).factorize(
            kkt_matrix(circle_mesh, y, params, spaces, names=names),
            params.alpha)


@pytest.mark.parametrize("mesh_name", ["circle_mesh", "holdall_mesh"])
@pytest.mark.parametrize("names", [BLOCK_NAMES, _SHAPE_BLOCKS],
                         ids=["full", "shape"])
def test_state_jacobian_is_block_lower_triangular(request, mesh_name, names,
                                                  rng):
    """At a random point with the Dirichlet data held, the state Jacobian
    A_y stores entries only in its diagonal blocks and the blocks just below
    them, in the group order (b, w, (v, p)), and its (lam_b, b) block is
    -kron(M + K, I_2) bit for bit: the block substitution and the cached
    curve factor rest on both."""
    mesh = request.getfixturevalue(mesh_name)
    sp = Spaces.build(mesh)
    params = KktParams(alpha=1e-2)
    dm, dofs, values = _dirichlet(sp, params, names)
    y = _random_vector(sp, rng, w_scale=1e-3)
    u = dm.pack(y)
    u[dofs] = values
    A = kkt_matrix(mesh, dm.unpack(u, y), params, sp, names=names)
    groups = _free_groups(dm, dofs)
    assert len(groups) == (3 if names == BLOCK_NAMES else 2)
    for i, (_, L) in enumerate(groups):
        for j, (Y, _) in enumerate(groups):
            if j > i or j < i - 1:
                assert A[L][:, Y].nnz == 0, (i, j)
    Y, L = groups[0]
    curve = sp.curve
    expected = -sparse.kron(curve.mass + curve.stiffness, sparse.identity(2))
    assert np.array_equal(A[L][:, Y].toarray(), expected.toarray())


def _first_direct_matrix(mesh):
    """Spaces, layout, Dirichlet dofs and matrix of the first Newton step of
    the direct driver at alpha 1e-4: no deformation, the converged flow."""
    sp = Spaces.build(mesh)
    params = KktParams(alpha=1e-4)
    y = KktVector.zeros(sp)
    state = solve_state(mesh, y.w, params, spaces=sp)
    y.v, y.p = state.v, state.p
    dm, dofs, _ = _dirichlet(sp, params)
    return sp, dm, dofs, kkt_matrix(mesh, y, params, sp)


def _state_jacobian(A, dm, dofs):
    """A_y whole, CSC: the free adjoint rows and state columns of ``A`` in
    layout order."""
    Y, L = (np.sort(np.concatenate(idx))
            for idx in zip(*_free_groups(dm, dofs)))
    return A[L][:, Y].tocsc()


def test_lu_policy_fills_the_state_jacobian_no_more_than_the_default(
        circle_mesh_fine):
    """At the first Newton matrix of the direct driver on the finer circle
    mesh (no deformation, the converged flow, alpha 1e-4), the program's LU
    policy fills the state Jacobian A_y no more than SciPy's default
    ordering does; the speed of the factorization rests on that."""
    _, dm, dofs, A = _first_direct_matrix(circle_mesh_fine)
    A_y = _state_jacobian(A, dm, dofs)
    assert spla.splu(A_y, **LU_OPTIONS).nnz <= spla.splu(A_y).nnz


def test_block_factors_fill_less_than_the_whole_state_jacobian(
        circle_mesh_fine):
    """At the same matrix, the L+U factors of the diagonal blocks of A_y
    (curve operator, extension, flow) hold fewer entries together than the
    factors of A_y whole; the block elimination's speed rests on that."""
    sp, dm, dofs, A = _first_direct_matrix(circle_mesh_fine)
    A_y = _state_jacobian(A, dm, dofs)
    _, (Yw, Lw), (Yf, Lf) = _free_groups(dm, dofs)
    blocks = (sp.curve.factor.nnz
              + spla.splu(A[Lw][:, Yw].tocsc(), **LU_OPTIONS).nnz
              + spla.splu(A[Lf][:, Yf].tocsc(), **LU_OPTIONS).nnz)
    assert blocks < spla.splu(A_y, **LU_OPTIONS).nnz


@pytest.mark.parametrize("names", [BLOCK_NAMES, _SHAPE_BLOCKS],
                         ids=["full", "shape"])
def test_state_elimination_is_built_once_per_layout(circle_mesh, names,
                                                    monkeypatch):
    """Every Newton solve on a layout of one ``Spaces`` shares one block
    elimination, kept there beside the layout's Dirichlet table; it refers
    to no ``Spaces``, so a dropped one is freed without the cycle
    collector."""
    import gc
    import weakref

    built = []

    class Counted(_StateElimination):
        def __init__(self, *args):
            built.append(names)
            super().__init__(*args)

    monkeypatch.setattr(kkt, "_StateElimination", Counted)
    sp = Spaces.build(circle_mesh)
    params = KktParams(alpha=1e6, nu=0.05)
    y0 = KktVector.zeros(sp)
    state = solve_state(circle_mesh, y0.w, params, spaces=sp)
    y0.v, y0.p = state.v, state.p
    y, _ = solve_kkt(circle_mesh, y0, params, sp, names)
    solve_kkt(circle_mesh, y, replace(params, alpha=1e5), sp, names)
    assert built == [names]
    ref = weakref.ref(sp)
    gc.disable()
    try:
        del sp
        assert ref() is None
    finally:
        gc.enable()
