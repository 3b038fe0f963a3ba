"""Tests for the continuation drivers and the parameter sweeps."""

from dataclasses import replace

import numpy as np
import pytest

import flowshape.kkt as kkt_module
import flowshape.lagrangian as lagrangian_module
import flowshape.optimize as optimize_module
from flowshape.extension import solve_extension, solve_laplace_beltrami
from flowshape.flow import (FlowState, SolverError, dissipation,
                            solve_adjoint, solve_state)
from flowshape.kkt import (KktParams, KktVector, barycenter_residual,
                           solve_kkt, volume_residual)
from flowshape.lagrangian import (BLOCK_NAMES, Spaces, dirichlet_dofs,
                                  value_terms)
from flowshape.mesh import MeshError
from flowshape.optimize import (
    ContinuationSchedule,
    RunLog,
    RunRecord,
    det_sweep,
    quality_sweep,
    run_direct,
    run_iterative,
)

from conftest import unit_square_mesh


@pytest.fixture(scope="module")
def spaces(circle_mesh):
    return Spaces.build(circle_mesh)


def test_schedule_levels_are_geometric():
    sched = ContinuationSchedule(1.0, 0.5, 1.0 / 16.0)
    levels = sched.levels()
    assert levels == [1.0, 0.5, 0.25, 0.125, 0.0625]
    ratios = np.diff(np.log(levels))
    assert np.allclose(ratios, np.log(0.5), atol=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ContinuationSchedule(alpha_dec=1.5)
    with pytest.raises(ValueError):
        ContinuationSchedule(alpha_init=-1.0)
    with pytest.raises(ValueError):
        ContinuationSchedule(alpha_init=1e-4, alpha_target=1e-3)


def test_runlog_roundtrip(tmp_path):
    log = RunLog()
    log.records.append(RunRecord(0, 1, 1e-4, 0.5, 0.4, 0.0, 1.0, 1e-9,
                                 (1e-9, -2e-9), 7, 1.25))
    path = tmp_path / "run.log"
    log.write(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("k ell alpha objective")
    assert len(lines) == 2
    assert lines[1].split()[10] == "7"


def test_diagnostics_read_the_term_engine(circle_mesh, spaces):
    """The logged values are the engine's: dissipation and penalty its value
    terms, the objective adds the control cost, and the residuals are those
    of the public functions, all bit for bit."""
    rng = np.random.default_rng(4)
    z = {name: 0.05 * rng.standard_normal(block.shape)
         for name, block in KktVector.zeros(spaces).as_dict().items()}
    z["w"] *= 0.1   # det(DF) stays positive, and near 1
    y = KktVector(**z)
    params = KktParams(nu=0.05, alpha=0.3, beta=7.0, eta_det=1.0)
    obj, j, pen, cnorm, vol, bary = optimize_module._diagnostics(
        spaces, params, y)
    terms = value_terms(spaces, params, z)
    assert (j, pen) == (terms["dissipation"], terms["penalty"])
    assert j > 0.0 and pen > 0.0
    assert obj == terms["dissipation"] + terms["control"]
    assert cnorm ** 2 == pytest.approx(2.0 * terms["control"] / params.alpha,
                                       rel=1e-14)
    assert j == dissipation(circle_mesh, y.w, FlowState(y.v, y.p), params.nu,
                            spaces)
    assert vol == volume_residual(circle_mesh, y.w, spaces)
    assert bary == tuple(barycenter_residual(circle_mesh, y.w, spaces))


def test_run_direct_converges_and_logs(circle_mesh, spaces):
    params = KktParams(nu=0.05, eta_ext=1.0)
    sched = ContinuationSchedule(1e-2, 0.1, 1e-4)
    y, log = run_direct(circle_mesh, params, sched, spaces=spaces)
    assert len(log.records) == 3
    alphas = [r.alpha for r in log.records]
    assert alphas == sched.levels()
    # dissipation decreases as the control cost is relaxed
    assert log.records[-1].dissipation < log.records[0].dissipation
    assert abs(log.records[-1].volume_residual) < 1e-8
    assert max(abs(b) for b in log.records[-1].barycenter_residual) < 1e-8


def test_run_iterative_staircase_and_descent(circle_mesh, spaces):
    params = KktParams(nu=0.05, eta_ext=1.0)
    sched = ContinuationSchedule(1e-1, 0.5, 2e-2)
    y, log = run_iterative(circle_mesh, params, sched, eps=1e-2,
                           spaces=spaces)
    alphas = np.array([r.alpha for r in log.records])
    # exactly geometric staircase: every value is alpha_init * 0.5**k
    ks = np.round(np.log(alphas / 0.1) / np.log(0.5))
    assert np.allclose(alphas, 0.1 * 0.5 ** ks, rtol=1e-12)
    assert np.all(np.diff(ks) >= 0)
    assert log.total_iterations == len(log.records)
    assert log.records[-1].objective < log.records[0].objective


def test_run_iterative_logs_the_shape_iterations_and_keeps_factors(
        circle_mesh, spaces, spy, monkeypatch):
    """Each logged pass counts the iterations of its shape solve, chord
    steps included, the last one those of the finishing solve too, and the
    shape factorization handed from pass to pass and level to level leaves
    fewer KKT factorizations than passes."""
    histories = []
    real = optimize_module.solve_kkt

    def recording(*args, **kwargs):
        y, history = real(*args, **kwargs)
        histories.append(len(history))
        return y, history

    monkeypatch.setattr(optimize_module, "solve_kkt", recording)
    assembled = spy(kkt_module, "kkt_matrix")
    _, log = run_iterative(circle_mesh, KktParams(nu=0.05, eta_ext=1.0),
                           ContinuationSchedule(1e-1, 0.5, 2e-2), eps=1e-2,
                           spaces=spaces)
    assert len(histories) == len(log.records) + 1
    assert ([r.newton_iters for r in log.records]
            == histories[:-2] + [histories[-2] + histories[-1]])
    assert len(log.records) >= 3 and max(histories) > 1
    assert len(assembled) < len(log.records)


def test_run_iterative_computes_one_diagnostics_record_per_log_record(
        circle_mesh, spaces, spy):
    """The run diagnostics are computed once per log record: the last pass
    gets the record of the finishing solve, at the returned point, and no
    record of its own."""
    calls = spy(optimize_module, "_diagnostics")
    y, log = run_iterative(circle_mesh, KktParams(nu=0.05, eta_ext=1.0),
                           ContinuationSchedule(1e-1, 0.5, 2e-2), eps=1e-2,
                           spaces=spaces)
    assert len(calls) == len(log.records) >= 3
    assert calls[-1]["y"] is y


def test_run_iterative_passes_are_inexact_and_the_last_shape_solve_exact(
        circle_mesh, spaces, spy):
    """Every pass asks its state, adjoint and shape solves for a reduction
    by eps; one more shape solve, without a relative target, follows the
    last pass and gives the deformation of the result: its shape residual,
    with the flow fields it was solved with, is below ``newton_tol``, and
    its constraints hold.  A state and an adjoint solve without a relative
    target then give the returned flow blocks, at the returned deformation.
    The direct driver asks for a relative target only below its last
    level."""
    states = spy(optimize_module, "solve_state")
    adjoints = spy(optimize_module, "solve_adjoint")
    shapes = spy(optimize_module, "solve_kkt")
    params = KktParams(nu=0.05, eta_ext=1.0)
    y, log = run_iterative(circle_mesh, params,
                           ContinuationSchedule(1e-1, 0.5, 2e-2), eps=1e-2,
                           spaces=spaces)
    passes = len(log.records)
    assert passes >= 3 and len(states) == len(adjoints) == passes + 1
    assert len(shapes) == passes + 1
    for call in states[:-1] + adjoints[:-1] + shapes[:-1]:
        assert call["rtol"] == 1e-2
    for call in (states[-1], adjoints[-1], shapes[-1]):
        assert call.get("rtol", 0.0) == 0.0
    assert states[-1]["w"] is y.w and adjoints[-1]["w"] is y.w
    assert shapes[-1]["names"] == optimize_module._SHAPE_BLOCKS
    final = replace(params, alpha=log.records[-1].alpha)
    frozen = shapes[-1]["y0"]
    solved = replace(y, v=frozen.v, p=frozen.p, lam_v=frozen.lam_v,
                     lam_p=frozen.lam_p)
    residual = kkt_module.kkt_residual(circle_mesh, solved, final, spaces,
                                       optimize_module._SHAPE_BLOCKS)
    assert np.linalg.norm(residual) < params.newton_tol
    assert abs(volume_residual(circle_mesh, y.w, spaces)) < 1e-9
    assert np.abs(barycenter_residual(circle_mesh, y.w, spaces)).max() < 1e-9
    shapes.clear()
    run_direct(circle_mesh, params, ContinuationSchedule(1e-2, 0.1, 1e-3),
               spaces=spaces)
    assert [call.get("rtol") for call in shapes] == [0.1, 0.0]


def test_run_iterative_returns_the_flow_of_the_returned_deformation(
        circle_mesh, spaces, monkeypatch):
    """The returned flow blocks solve the state and adjoint equations at the
    returned deformation to the flow solves' tolerance (1e-10), and the
    last record's dissipation is the one of that state.  With these flow
    fields the shape rows hold only to the accuracy of the fixpoint: their
    residual (7.4e-5 here) is below eps times the initial shape residual
    of the run (3.0e-2)."""
    initial = []
    real = optimize_module.solve_kkt

    def recording(*args, **kwargs):
        y, history = real(*args, **kwargs)
        initial.append(history[0])
        return y, history

    monkeypatch.setattr(optimize_module, "solve_kkt", recording)
    params = KktParams(nu=0.05, eta_ext=1.0)
    eps = 1e-2
    y, log = run_iterative(circle_mesh, params,
                           ContinuationSchedule(1e-1, 0.5, 2e-2), eps=eps,
                           spaces=spaces)
    final = replace(params, alpha=log.records[-1].alpha)
    for rows in (("lam_v", "lam_p"), ("v", "p")):
        residual = kkt_module.kkt_residual(circle_mesh, y, final, spaces,
                                           rows)
        assert np.linalg.norm(residual) < 1e-10, rows
    shape = kkt_module.kkt_residual(circle_mesh, y, final, spaces,
                                    optimize_module._SHAPE_BLOCKS)
    assert np.linalg.norm(shape) < eps * initial[0]
    assert log.records[-1].dissipation == dissipation(
        circle_mesh, y.w, FlowState(y.v, y.p), params.nu, spaces)


def test_run_iterative_builds_the_velocity_data_once_per_layout(
        circle_mesh, spy):
    """However many state and adjoint solves one iterative run makes, the
    velocity Dirichlet data are built once per flow layout of its
    ``Spaces``, and the Dirichlet tables it keeps there are read-only."""
    sp = Spaces.build(circle_mesh)
    built = spy(lagrangian_module, "velocity_dirichlet")
    states = spy(optimize_module, "solve_state")
    adjoints = spy(optimize_module, "solve_adjoint")
    params = KktParams(nu=0.05, eta_ext=1.0)
    _, log = run_iterative(circle_mesh, params,
                           ContinuationSchedule(1e-1, 0.5, 2e-2), eps=1e-2,
                           spaces=sp)
    assert len(states) == len(adjoints) == len(log.records) + 1 >= 4
    assert len(built) == 2
    for names in (("v", "p"), ("lam_v", "lam_p"),
                  optimize_module._SHAPE_BLOCKS):
        for table in dirichlet_dofs(sp, names, params):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
    assert len(built) == 2


@pytest.mark.parametrize("driver", [run_direct, run_iterative])
def test_repeated_driver_calls_repeat_their_logs(circle_mesh, spaces,
                                                 driver):
    """Factorizations are kept only within one call: a second call on the
    same ``Spaces`` gives the same log and solution bit for bit."""
    params = KktParams(nu=0.05, eta_ext=1.0)
    sched = ContinuationSchedule(1e-2, 0.1, 1e-4)
    runs = [driver(circle_mesh, params, sched, spaces=spaces)
            for _ in range(2)]
    (y1, log1), (y2, log2) = runs
    assert ([replace(r, wall_time=0.0) for r in log1.records]
            == [replace(r, wall_time=0.0) for r in log2.records])
    for name, block in y1.as_dict().items():
        assert np.array_equal(block, getattr(y2, name)), name


def test_run_iterative_reports_a_level_at_the_pass_cap(circle_mesh, spaces):
    params = KktParams(nu=0.05, eta_ext=1.0)
    sched = ContinuationSchedule(1e-1, 0.5, 5e-2)
    with pytest.raises(SolverError) as info:
        run_iterative(circle_mesh, params, sched, eps=1e-12, inner_cap=2,
                      spaces=spaces)
    err = info.value
    assert err.kind == "divergence" and err.cycling == ()
    assert "alpha = 1.000e-01: 2 passes" in str(err)
    assert "last ratio of successive control changes" in str(err)
    assert [r.alpha for r in err.log.records] == [1e-1, 1e-1]


def test_direct_and_iterative_agree(circle_mesh, spaces):
    """Same continuation target must give the same control either way."""
    params = KktParams(nu=0.05, eta_ext=1.0)
    sched = ContinuationSchedule(1e-2, 0.5, 2.5e-3)
    y_d, _ = run_direct(circle_mesh, params, sched, spaces=spaces)
    y_i, _ = run_iterative(circle_mesh, params, sched, eps=1e-3,
                           spaces=spaces)
    denom = np.abs(y_d.c).max()
    assert np.abs(y_d.c - y_i.c).max() <= 0.01 * denom


def test_quality_sweep_csv(circle_mesh, spaces, tmp_path):
    params = KktParams(nu=0.05)
    sched = ContinuationSchedule(1e-2, 0.1, 1e-3)
    path = tmp_path / "quality.csv"
    rows = quality_sweep(circle_mesh, params, [0.0, 1.0], schedule=sched,
                         csv_path=path, spaces=spaces)
    text = path.read_text().strip().split("\n")
    assert text[0] == "eta_ext,worst_quality"
    assert len(text) == 3
    got = {float(line.split(",")[0]): float(line.split(",")[1])
           for line in text[1:]}
    assert set(got) == {0.0, 1.0}
    # radius-ratio quality: 2 for equilateral, larger is worse
    assert all(q >= 2.0 for q in got.values())


def test_det_sweep_csv_and_shapes(circle_mesh, spaces, tmp_path):
    params = KktParams(nu=0.05, beta=100.0)
    sched = ContinuationSchedule(1e-2, 0.1, 1e-3)
    path = tmp_path / "det.csv"
    rows = det_sweep(circle_mesh, params, [5e-2, 0.9], schedule=sched,
                     output_dir=tmp_path, csv_path=path, spaces=spaces)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "eta_det,active,path"
    assert len(lines) == 3
    import pathlib

    for line in lines[1:]:
        eta, active, shape_path = line.split(",")
        assert active in ("true", "false")
        assert pathlib.Path(shape_path).exists()
    # a threshold close to 1 must force the penalty to act
    assert lines[2].split(",")[1] == "true"


@pytest.mark.parametrize("sweep, values", [
    (quality_sweep, [0.5, 1.0, -1.0]),
    (det_sweep, [5e-2, 0.9, -1e-2]),
    (det_sweep, [5e-2, 0.0]),
])
def test_sweeps_reject_a_bad_value_before_any_run(circle_mesh, spaces, spy,
                                                  sweep, values):
    """A bad value anywhere in the list raises before the first point's
    optimization, so no finished point is lost."""
    runs = spy(optimize_module, "run_direct")
    with pytest.raises(ValueError):
        sweep(circle_mesh, KktParams(nu=0.05), values, spaces=spaces)
    assert runs == []


def test_shape_subsolve_requests_only_shape_blocks(circle_mesh, spaces, spy):
    """The shape subsystem of the iterative driver must not fall back to the
    full Hessian."""
    shape = {"w", "b", "c", "lam_w", "lam_b", "lam_vol", "lam_bc"}
    params = KktParams(nu=0.05, eta_ext=1.0, alpha=1e-1)
    y = KktVector.zeros(spaces)
    state = solve_state(circle_mesh, y.w, params, spaces)
    adj = solve_adjoint(circle_mesh, y.w, state, params, spaces)
    y.v, y.p, y.lam_v, y.lam_p = state.v, state.p, adj.lam_v, adj.lam_p
    # the flow solves call the engine too, so spy on the shape solve alone
    calls = spy(lagrangian_module, "hessian_blocks")
    solve_kkt(circle_mesh, y, params, spaces, optimize_module._SHAPE_BLOCKS)
    assert calls
    for call in calls:
        assert call.get("pairs") is not None
        assert all(set(pair) <= shape for pair in call["pairs"])


def _fake_solve_kkt(stall_alpha, cycling, attempts):
    """A solve_kkt that converges in place, except at ``stall_alpha``, where
    it stalls with the elements ``cycling`` cycling."""

    def solve(mesh, y, params, spaces=None, names=BLOCK_NAMES, kept=None,
              rtol=0.0):
        attempts.append(params.alpha)
        if np.isclose(params.alpha, stall_alpha, rtol=1e-12):
            raise SolverError("KKT active set cycles at residual 1.000e-05: "
                              f"{len(cycling)} element(s) at the "
                              "determinant-penalty kink cross eta_det back "
                              "and forth", kind="stall", cycling=cycling)
        return y, [0.0]

    return solve


def test_run_direct_does_not_bisect_a_cycling_stall(circle_mesh, spaces,
                                                     monkeypatch):
    attempts = []
    monkeypatch.setattr(optimize_module, "solve_kkt",
                        _fake_solve_kkt(1e-3, (7,), attempts))
    with pytest.raises(SolverError) as info:
        run_direct(circle_mesh, KktParams(nu=0.05),
                   ContinuationSchedule(1e-2, 0.1, 1e-3), spaces)
    assert info.value.kind == "stall" and info.value.cycling == (7,)
    assert attempts == pytest.approx([1e-2, 1e-3], rel=1e-12)
    assert [r.alpha for r in info.value.log.records] == [1e-2]


def test_run_direct_bisects_a_stall_without_cycling(circle_mesh, spaces,
                                                     monkeypatch):
    attempts = []
    monkeypatch.setattr(optimize_module, "solve_kkt",
                        _fake_solve_kkt(1e-3, (), attempts))
    with pytest.raises(SolverError) as info:
        run_direct(circle_mesh, KktParams(nu=0.05),
                   ContinuationSchedule(1e-2, 0.1, 1e-3), spaces)
    assert info.value.cycling == ()
    at_level = [a for a in attempts if np.isclose(a, 1e-3, rtol=1e-12)]
    between = [a for a in attempts if 1e-3 * (1 + 1e-9) < a < 1e-2]
    assert len(at_level) > 1 and between


def test_run_direct_solves_only_the_last_level_to_newton_tol(
        circle_mesh, spaces, spy):
    """Every level but the last is solved to a residual reduction by the
    factor by which alpha falls to the next level; the last one to
    ``newton_tol``, so the returned point has a KKT residual below it."""
    calls = spy(optimize_module, "solve_kkt")
    params = KktParams(nu=0.05, eta_ext=1.0)
    sched = ContinuationSchedule(1e-2, 0.1, 1e-4)
    y, log = run_direct(circle_mesh, params, sched, spaces=spaces)
    assert [call["params"].alpha for call in calls] == sched.levels()
    assert [call.get("rtol") for call in calls] == [0.1, 0.1, 0.0]
    final = replace(params, alpha=sched.alpha_target)
    assert (np.linalg.norm(kkt_module.kkt_residual(circle_mesh, y, final,
                                                   spaces))
            < params.newton_tol)


def test_run_direct_takes_the_same_path_without_one_pass_solves(
        circle_mesh, spaces, monkeypatch):
    """With the second pass of every KKT solve forced (target 0), a
    three-level run makes the same Newton iterations and factorizations as
    with the default target ``newton_tol``, and J agrees to 1e-12."""
    params = KktParams(nu=0.05, eta_ext=1.0)
    sched = ContinuationSchedule(1e-2, 0.1, 1e-4)
    factorize = kkt_module._StateElimination.factorize
    runs = []
    for forced in (False, True):
        made = []

        def counted(self, A, alpha, target=0.0):
            made.append(target)
            return factorize(self, A, alpha, 0.0 if forced else target)

        monkeypatch.setattr(kkt_module._StateElimination, "factorize",
                            counted)
        _, log = run_direct(circle_mesh, params, sched, spaces=spaces)
        assert made and set(made) == {params.newton_tol}
        runs.append(([r.newton_iters for r in log.records], len(made),
                     log.records[-1].objective))
    (iters, made, j), (iters0, made0, j0) = runs
    assert iters == iters0 and made == made0
    assert abs(j - j0) <= 1e-12 * abs(j0)


@pytest.mark.parametrize("failing, expected", [
    (1e-3, [(1e-2, 0.1), (1e-3, 0.1), (10 ** -2.5, 10 ** -0.5), (1e-3, 0.1),
            (1e-4, 0.0)]),
    (1e-4, [(1e-2, 0.1), (1e-3, 0.1), (1e-4, 0.0), (10 ** -3.5, 10 ** -0.5),
            (1e-4, 0.0)]),
])
def test_run_direct_solves_bisection_midpoints_inexactly(
        circle_mesh, spaces, monkeypatch, failing, expected):
    """A bisection midpoint is only a start, so it is solved to the factor
    by which alpha falls from it to the level it leads to; that level keeps
    its own target, ``newton_tol`` at the last level."""
    attempts = []

    def solve(mesh, y, params, spaces=None, names=BLOCK_NAMES, kept=None,
              rtol=0.0):
        first = not any(np.isclose(a, params.alpha, rtol=1e-12)
                        for a, _ in attempts)
        attempts.append((params.alpha, rtol))
        if first and np.isclose(params.alpha, failing, rtol=1e-12):
            raise SolverError("KKT line search needs a damping below "
                              "9.8e-04 at residual 1.000e-05", kind="stall")
        return y, [0.0]

    monkeypatch.setattr(optimize_module, "solve_kkt", solve)
    _, log = run_direct(circle_mesh, KktParams(nu=0.05),
                        ContinuationSchedule(1e-2, 0.1, 1e-4), spaces)
    assert [r.alpha for r in log.records] == [1e-2, 1e-3, 1e-4]
    assert [a for a, _ in attempts] == pytest.approx(
        [a for a, _ in expected], rel=1e-12)
    assert [r for _, r in attempts] == pytest.approx(
        [r for _, r in expected], rel=1e-12)


@pytest.mark.parametrize("entry", ["run_direct", "run_iterative", "solve_kkt",
                                   "solve_laplace_beltrami",
                                   "solve_extension"])
def test_entry_points_reject_a_mesh_without_obstacle(entry):
    """Every driver of the control gives the CLI's mesh error on a mesh
    without an obstacle boundary."""
    mesh = unit_square_mesh(6)
    params = KktParams()
    calls = {
        "run_direct": lambda: run_direct(mesh, params),
        "run_iterative": lambda: run_iterative(mesh, params),
        "solve_kkt": lambda: solve_kkt(
            mesh, KktVector.zeros(Spaces.build(mesh)), params),
        "solve_laplace_beltrami": lambda: solve_laplace_beltrami(
            mesh, np.zeros(0)),
        "solve_extension": lambda: solve_extension(
            mesh, np.zeros((0, 2)), params),
    }
    with pytest.raises(MeshError, match="no obstacle boundary, so there "
                                        "is no boundary control"):
        calls[entry]()
