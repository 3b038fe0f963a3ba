"""Tests of the shared term engine against independent slow evaluations."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse

from flowshape import lagrangian as lagrangian_module
from flowshape.fem import P1Geometry, eliminate_dirichlet
from flowshape.kkt import DofMap, KktParams
from flowshape.lagrangian import (BLOCK_NAMES, HESSIAN_PAIRS, Spaces,
                                  block_matrix, dirichlet_dofs,
                                  gradient_blocks, hessian_blocks,
                                  total_value, value_terms, zero_blocks)


@pytest.fixture(scope="module")
def spaces(circle_mesh):
    return Spaces.build(circle_mesh)


@pytest.fixture(scope="module", params=["circle_mesh", "holdall_mesh"])
def mesh_spaces(request):
    """Spaces on a mesh without and with a holdall; on the holdall the
    extension domain (geo_ext) is larger than the flow domain (geo_fluid)."""
    return Spaces.build(request.getfixturevalue(request.param))


@pytest.fixture(scope="module")
def params():
    return KktParams(nu=0.05, alpha=0.3, beta=7.0, eta_det=1.2, eta_ext=2.0)


def random_point(spaces, seed=3, w_scale=0.01, scale=0.7):
    rng = np.random.default_rng(seed)
    z = zero_blocks(spaces)
    for name in BLOCK_NAMES:
        z[name] = scale * rng.standard_normal(z[name].shape)
    z["w"] *= w_scale / scale
    return z


# -- independent naive evaluation of the full functional --------------------------

_Q2_PTS = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6],
                    [1 / 6, 1 / 6, 2 / 3]])
_Q2_WTS = np.array([1 / 3, 1 / 3, 1 / 3])


def _naive_value(spaces, params, z):
    mesh = spaces.mesh
    verts = mesh.vertices
    total = 0.0

    def cell_frame(tri):
        xs = verts[tri]
        E = np.column_stack([xs[1] - xs[0], xs[2] - xs[0]])
        area = 0.5 * abs(np.linalg.det(E))
        # P1 gradients via the barycentric chain rule, solved numerically
        grads = np.column_stack([np.linalg.solve(E.T, np.array([-1.0, -1.0])),
                                 np.linalg.solve(E.T, np.array([1.0, 0.0])),
                                 np.linalg.solve(E.T, np.array([0.0, 1.0]))]).T
        return xs, area, grads

    lam_vol = float(np.ravel(z["lam_vol"])[0])
    moment = np.zeros(2)
    vol_int = 0.0
    bary_int = np.zeros(2)
    for tri in spaces.geo_fluid.tri:
        xs, area, grads = cell_frame(tri)
        Dw = sum(np.outer(z["w"][n], grads[i]) for i, n in enumerate(tri))
        DF = np.eye(2) + Dw
        J = np.linalg.det(DF)
        A = np.linalg.inv(DF)
        Dv = sum(np.outer(z["v"][n], grads[i]) for i, n in enumerate(tri))
        Dlv = sum(np.outer(z["lam_v"][n], grads[i])
                  for i, n in enumerate(tri))
        gradp = sum(z["p"][n] * grads[i] for i, n in enumerate(tri))
        gradlp = sum(z["lam_p"][n] * grads[i] for i, n in enumerate(tri))
        M, N = Dv @ A, Dlv @ A
        total += 0.5 * params.nu * np.sum(M * M) * J * area
        total -= params.nu * np.sum(M * N) * J * area
        # quadratic terms by order-2 quadrature
        for lam, wq in zip(_Q2_PTS, _Q2_WTS):
            vq = sum(l * z["v"][n] for l, n in zip(lam, tri))
            lvq = sum(l * z["lam_v"][n] for l, n in zip(lam, tri))
            lpq = sum(l * z["lam_p"][n] for l, n in zip(lam, tri))
            xq = sum(l * verts[n] for l, n in zip(lam, tri))
            wqf = sum(l * z["w"][n] for l, n in zip(lam, tri))
            total -= wq * area * ((M @ vq) @ lvq) * J
            total += wq * area * lpq * np.trace(M) * J
            bary_int += wq * area * (xq + wqf) * J
        pbar = np.mean(z["p"][tri])
        lpbar = np.mean(z["lam_p"][tri])
        total += pbar * np.trace(N) * J * area
        # element sign: T4 carries +p tr(DlvA) inside the bracket with -
        # overall, i.e. +p tr; T5 handled in the loop above
        h = max(np.linalg.norm(verts[tri[1]] - verts[tri[0]]),
                np.linalg.norm(verts[tri[2]] - verts[tri[1]]),
                np.linalg.norm(verts[tri[0]] - verts[tri[2]]))
        total += params.mu * h * h * area * ((A @ gradp) @ (A @ gradlp))
        vol_int += (J - 1.0) * area
        moment += area * np.mean(verts[tri], axis=0)
    total -= lam_vol * vol_int
    total -= z["lam_bc"] @ (bary_int - spaces.moment)

    for tri in spaces.geo_ext.tri:
        xs, area, grads = cell_frame(tri)
        Dw = sum(np.outer(z["w"][n], grads[i]) for i, n in enumerate(tri))
        Dlw = sum(np.outer(z["lam_w"][n], grads[i])
                  for i, n in enumerate(tri))
        total -= np.sum((Dw + Dw.T) * Dlw) * area
        for lam, wq in zip(_Q2_PTS, _Q2_WTS):
            wqf = sum(l * z["w"][n] for l, n in zip(lam, tri))
            lwq = sum(l * z["lam_w"][n] for l, n in zip(lam, tri))
            total -= wq * area * params.eta_ext * ((Dw @ wqf) @ lwq)
        J = np.linalg.det(np.eye(2) + Dw)
        total += 0.5 * params.beta * area * max(params.eta_det - J, 0.0) ** 2

    loop = spaces.curve.loop
    m = len(loop)
    gauss = (np.array([0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)]),
             np.array([0.5, 0.5]))
    for i in range(m):
        j = (i + 1) % m
        length = np.linalg.norm(verts[loop[j]] - verts[loop[i]])
        for t, wq in zip(*gauss):
            phi = np.array([1.0 - t, t])
            cq = phi[0] * z["c"][i] + phi[1] * z["c"][j]
            bq = phi[0] * z["b"][i] + phi[1] * z["b"][j]
            lwq = phi[0] * z["lam_w"][loop[i]] + phi[1] * z["lam_w"][loop[j]]
            lbq = phi[0] * z["lam_b"][i] + phi[1] * z["lam_b"][j]
            cn = (phi[0] * z["c"][i] * spaces.normals[i]
                  + phi[1] * z["c"][j] * spaces.normals[j])
            total += wq * length * (bq @ lwq)
            total += wq * length * 0.5 * params.alpha * cq * cq
            total -= wq * length * (bq @ lbq)
            total += wq * length * (cn @ lbq)
        dbds = (z["b"][j] - z["b"][i]) / length
        dlbds = (z["lam_b"][j] - z["lam_b"][i]) / length
        total -= length * (dbds @ dlbds)
    return total


def test_value_is_the_sum_of_its_terms(mesh_spaces, params):
    z = random_point(mesh_spaces)
    terms = value_terms(mesh_spaces, params, z)
    assert list(terms) == ["dissipation", "flow", "penalty", "extension",
                           "control", "loop", "geometry"]
    assert total_value(mesh_spaces, params, z) == sum(terms.values())
    # the control cost alone depends on alpha, and linearly
    doubled = value_terms(mesh_spaces, replace(params, alpha=2 * params.alpha),
                          z)
    for name, term in terms.items():
        want = 2 * term if name == "control" else term
        assert doubled[name] == pytest.approx(want, rel=1e-15), name


def test_value_matches_naive_oracle(mesh_spaces, params):
    z = random_point(mesh_spaces)
    fast = total_value(mesh_spaces, params, z)
    slow = _naive_value(mesh_spaces, params, z)
    assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


def test_value_zero_at_origin(spaces):
    quiet = KktParams(nu=0.05, alpha=0.3, beta=7.0, eta_det=5e-2,
                      eta_ext=2.0)
    assert total_value(spaces, quiet, zero_blocks(spaces)) == 0.0


def test_value_dtype_follows_input(mesh_spaces, params):
    z = random_point(mesh_spaces)
    zl = {k: np.asarray(v, dtype=np.longdouble) for k, v in z.items()}
    val = total_value(mesh_spaces, params, zl)
    assert np.asarray(val).dtype == np.longdouble


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is double precision here")
def test_value_keeps_extended_precision_of_the_multipliers(spaces):
    """A shift of a geometric multiplier below double precision moves the
    extended-precision value by the shift times the constraint residual.

    Only w and the multiplier are nonzero, so the value is that product
    alone and its rounding error is far below the shift's effect."""
    rng = np.random.default_rng(2)
    z = zero_blocks(spaces, np.longdouble)
    z["w"] = np.longdouble(0.01) * rng.standard_normal(z["w"].shape)
    params = KktParams(beta=0.0)
    grad = gradient_blocks(spaces, params, {k: np.asarray(v, float)
                                            for k, v in z.items()})
    shift = np.longdouble(2.0) ** -55   # 1 + shift rounds to 1 in double
    for name in ("lam_vol", "lam_bc"):
        z0, z1 = dict(z), dict(z)
        z0[name] = np.ones_like(z[name])
        z1[name] = z0[name].copy()
        z1[name][0] += shift
        change = total_value(spaces, params, z1) - total_value(spaces,
                                                               params, z0)
        assert float(change / shift) == pytest.approx(
            float(grad[name][0]), rel=1e-2), name


def test_gradient_matches_fd_of_value(mesh_spaces, params):
    z = random_point(mesh_spaces)
    grad = gradient_blocks(mesh_spaces, params, z)
    zl = {k: np.asarray(v, dtype=np.longdouble) for k, v in z.items()}
    rng = np.random.default_rng(8)
    h = 1e-7
    for name in BLOCK_NAMES:
        d = rng.standard_normal(np.shape(z[name]))
        zp = dict(zl)
        zp[name] = zl[name] + h * d
        vp = total_value(mesh_spaces, params, zp)
        zp[name] = zl[name] - h * d
        vm = total_value(mesh_spaces, params, zp)
        fd = float((vp - vm) / (2 * np.longdouble(h)))
        exact = float(np.sum(np.asarray(grad[name]).reshape(-1) * d.reshape(-1)))
        assert fd == pytest.approx(exact, rel=1e-7, abs=1e-9), name


def test_hessian_matches_fd_of_gradient(mesh_spaces, params):
    z = random_point(mesh_spaces)
    H = hessian_blocks(mesh_spaces, params, z)
    rng = np.random.default_rng(4)
    h = 1e-7
    for (row, col), mat in H.items():
        d = rng.standard_normal(np.shape(z[col]))
        zp = dict(z)
        zp[col] = z[col] + h * d
        gp = gradient_blocks(mesh_spaces, params, zp)[row]
        zp[col] = z[col] - h * d
        gm = gradient_blocks(mesh_spaces, params, zp)[row]
        fd = (np.asarray(gp) - np.asarray(gm)).reshape(-1) / (2 * h)
        an = mat @ d.reshape(-1)
        scale = max(1.0, np.abs(an).max())
        assert np.abs(fd - an).max() <= 2e-5 * scale, (row, col)


def test_hessian_transpose_pairs_with_fd_of_gradient(spaces, params):
    """The transposed block must predict the reversed directional derivative."""
    z = random_point(spaces)
    H = hessian_blocks(spaces, params, z)
    rng = np.random.default_rng(5)
    h = 1e-7
    for (row, col) in [("w", "v"), ("w", "lam_p"), ("w", "lam_w"),
                       ("b", "lam_w"), ("c", "lam_b")]:
        mat = H[(row, col)]
        d = rng.standard_normal(np.shape(z[row]))
        zp = dict(z)
        zp[row] = z[row] + h * d
        gp = gradient_blocks(spaces, params, zp)[col]
        zp[row] = z[row] - h * d
        gm = gradient_blocks(spaces, params, zp)[col]
        fd = (np.asarray(gp) - np.asarray(gm)).reshape(-1) / (2 * h)
        an = mat.T @ d.reshape(-1)
        scale = max(1.0, np.abs(an).max())
        assert np.abs(fd - an).max() <= 2e-5 * scale, (row, col)


def test_diagonal_hessian_blocks_symmetric(mesh_spaces, params):
    z = random_point(mesh_spaces)
    H = hessian_blocks(mesh_spaces, params, z)
    for key in [("w", "w"), ("v", "v"), ("c", "c")]:
        mat = H[key]
        assert abs(mat - mat.T).max() <= 1e-11, key


def test_gradient_zero_blocks_at_origin(spaces):
    quiet = KktParams(nu=0.05, alpha=0.3, beta=7.0, eta_det=5e-2,
                      eta_ext=2.0)
    grad = gradient_blocks(spaces, quiet, zero_blocks(spaces))
    for name in ("w", "v", "p", "b", "c", "lam_w", "lam_v", "lam_p", "lam_b"):
        assert np.allclose(np.asarray(grad[name]), 0.0), name


# -- block selection ----------------------------------------------------------------

FLOW_PAIRS = [("v", "lam_v"), ("v", "lam_p"), ("p", "lam_v"), ("p", "lam_p")]
SHAPE_BLOCKS = {"w", "b", "c", "lam_w", "lam_b", "lam_vol", "lam_bc"}
SHAPE_PAIRS = [pair for pair in HESSIAN_PAIRS if set(pair) <= SHAPE_BLOCKS]


@pytest.mark.parametrize("mesh_name", ["circle_mesh", "holdall_mesh"])
def test_selected_hessian_blocks_equal_full_evaluation(request, mesh_name,
                                                       params):
    sp = Spaces.build(request.getfixturevalue(mesh_name))
    z = random_point(sp, seed=11)
    full = hessian_blocks(sp, params, z)
    assert list(full) == list(HESSIAN_PAIRS)
    assert len(SHAPE_PAIRS) == 8
    for pairs in (FLOW_PAIRS, SHAPE_PAIRS, [("w", "lam_p")], None):
        sel = hessian_blocks(sp, params, z, pairs=pairs)
        expected = list(HESSIAN_PAIRS) if pairs is None else list(pairs)
        assert list(sel) == expected
        for key, mat in sel.items():
            assert mat.shape == full[key].shape, key
            assert (mat != full[key]).nnz == 0, key


@pytest.mark.parametrize("mesh_name", ["circle_mesh", "holdall_mesh"])
def test_selected_gradient_blocks_equal_full_evaluation(request, mesh_name,
                                                        params):
    sp = Spaces.build(request.getfixturevalue(mesh_name))
    z = random_point(sp, seed=12)
    full = gradient_blocks(sp, params, z)
    assert list(full) == list(BLOCK_NAMES)
    for names in (("lam_v", "lam_p"), ("v", "p"), ("w",),
                  tuple(SHAPE_BLOCKS), None):
        sel = gradient_blocks(sp, params, z, names=names)
        expected = (list(BLOCK_NAMES) if names is None
                    else [n for n in BLOCK_NAMES if n in names])
        assert list(sel) == expected
        for name, block in sel.items():
            assert np.array_equal(block, full[name]), name


def test_penalty_reads_the_extension_frame(holdall_mesh, params, spy):
    """The w gradient and the (w, w) block gather w on the extension domain
    once, for the extension frame, whose det(DF) and pushed gradients the
    determinant penalty reads; the lam_w residual builds neither."""
    sp = Spaces.build(holdall_mesh)
    z = random_point(sp, seed=5)
    gathers = spy(P1Geometry, "gather")

    def ext_gathers_of_w():
        count = sum(c["self"] is sp.geo_ext and c["field"] is z["w"]
                    for c in gathers)
        gathers.clear()
        return count

    gradient_blocks(sp, params, z, names=("w",))
    assert ext_gathers_of_w() == 1
    hessian_blocks(sp, params, z, pairs=(("w", "w"),))
    assert ext_gathers_of_w() == 1
    frames = spy(lagrangian_module, "deformation")
    gradient_blocks(sp, params, z, names=("lam_w",))
    assert ext_gathers_of_w() == 1 and not frames


def test_unknown_blocks_are_rejected(spaces, params):
    z = random_point(spaces)
    for pairs in ([("lam_v", "v")], [("w", "w"), ("w", "x")], [("v", "p")]):
        with pytest.raises(ValueError):
            hessian_blocks(spaces, params, z, pairs=pairs)
    for names in (["x"], ["w", "lam_x"]):
        with pytest.raises(ValueError):
            gradient_blocks(spaces, params, z, names=names)


# -- assembly plan ------------------------------------------------------------------

SHAPE_LAYOUT = ("w", "b", "c", "lam_w", "lam_b", "lam_vol", "lam_bc")


def _layouts(sp, params):
    """(rows, cols, fixed) of the full, shape, state and adjoint layouts."""
    state, adjoint = ("v", "p"), ("lam_v", "lam_p")
    return {"full": (BLOCK_NAMES, BLOCK_NAMES,
                     dirichlet_dofs(sp, BLOCK_NAMES, params)[0]),
            "shape": (SHAPE_LAYOUT, SHAPE_LAYOUT,
                      dirichlet_dofs(sp, SHAPE_LAYOUT)[0]),
            "state": (adjoint, state,
                      dirichlet_dofs(sp, state, params)[0]),
            "adjoint": (state, adjoint,
                        dirichlet_dofs(sp, adjoint, params)[0])}


def test_dirichlet_tables_with_an_override_are_not_kept(circle_mesh):
    """A table built with an override is built on every call and not kept,
    so fresh callables leave the cache of ``spaces`` as it was; the table
    without one is kept."""
    sp = Spaces.build(circle_mesh)
    params = KktParams()
    kept = dirichlet_dofs(sp, ("v", "p"), params)
    size = len(sp._patterns)
    for k in range(5):
        _, values = dirichlet_dofs(sp, ("v", "p"), params,
                                   override=lambda x, k=k: [k, -k])
        assert np.all(values.reshape(-1, 2) == [k, -k])
    assert len(sp._patterns) == size
    assert dirichlet_dofs(sp, ("v", "p"), params) is kept


def _reference_matrix(sp, params, z, rows, cols, fixed, active):
    """The layout's matrix by COO-to-CSR conversion of every block and its
    transpose, then the Dirichlet elimination."""
    rmap, cmap = DofMap(sp, rows), DofMap(sp, cols)
    roff, nr, coff, nc = rmap.offsets, rmap.total, cmap.offsets, cmap.total
    placed = []
    for (a, b), mat in hessian_blocks(sp, params, z, active).items():
        mat = mat.tocoo()
        for r, c, i, j in ((a, b, mat.row, mat.col),
                           (b, a, mat.col, mat.row))[:1 + (a != b)]:
            if r in roff and c in coff:
                placed.append((mat.data, i + roff[r], j + coff[c]))
    A = sparse.coo_matrix(
        (np.concatenate([d for d, _, _ in placed]),
         (np.concatenate([i for _, i, _ in placed]),
          np.concatenate([j for _, _, j in placed]))), shape=(nr, nc))
    return eliminate_dirichlet(A.tocsr(), fixed)


@pytest.mark.parametrize("with_active", [False, True])
@pytest.mark.parametrize("layout", ["full", "shape", "state", "adjoint"])
def test_assembly_plan_matches_reference_assembly(mesh_spaces, params,
                                                  layout, with_active):
    sp = mesh_spaces
    z = random_point(sp, seed=21)
    active = None
    if with_active:
        active = np.random.default_rng(5).random(
            len(sp.geo_ext.tri)) < 0.3
    rows, cols, fixed = _layouts(sp, params)[layout]
    got = block_matrix(sp, params, z, rows, cols, active, fixed)
    want = _reference_matrix(sp, params, z, rows, cols, fixed, active)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.abs(got.data - want.data).max() <= 1e-14 * np.abs(
        want.data).max()
    if "w" in rows:
        w = slice(0, DofMap(sp, ("w",)).total)
        ww = got[w, w]
        assert ww.nnz > 0 and (ww != ww.T).nnz == 0


def test_assembly_plan_is_built_once_per_spaces_and_layout(circle_mesh,
                                                           params, spy):
    builds = spy(lagrangian_module, "_build_plan")
    for _ in range(2):
        sp = Spaces.build(circle_mesh)
        layouts = _layouts(sp, params)
        for k in range(3):
            z = random_point(sp, seed=k)
            for rows, cols, fixed in layouts.values():
                block_matrix(sp, params, z, rows, cols, fixed=fixed)
            block_matrix(sp, params, z, SHAPE_LAYOUT)
    layouts = [(tuple(c["rows"]), tuple(c["cols"]),
                c["fixed"] is None) for c in builds]
    assert len(builds) == 10 and len(set(layouts)) == 5
    assert layouts[:5] == layouts[5:]
