"""Tests for the continuation drivers and the parameter sweeps."""

import numpy as np
import pytest

import flowshape.lagrangian as lagrangian_module
import flowshape.optimize as optimize_module
from flowshape.extension import (ExtensionParams, solve_extension,
                                 solve_laplace_beltrami)
from flowshape.flow import FlowParams, SolverError, solve_adjoint, solve_state
from flowshape.kkt import KktParams, KktVector, solve_kkt
from flowshape.lagrangian import BLOCK_NAMES, Spaces
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
    log.append(RunRecord(0, 1, 1e-4, 0.5, 0.4, 0.0, 1.0, 1e-9, (1e-9, -2e-9),
                         7, 1.25))
    path = tmp_path / "run.log"
    log.write(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("k ell alpha objective")
    assert len(lines) == 2
    assert lines[1].split()[10] == "7"


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


def test_run_iterative_reports_a_level_at_the_pass_cap(circle_mesh, spaces):
    params = KktParams(nu=0.05, eta_ext=1.0)
    sched = ContinuationSchedule(1e-1, 0.5, 5e-2)
    with pytest.raises(SolverError) as info:
        run_iterative(circle_mesh, params, sched, eps=1e-12, inner_cap=2,
                      spaces=spaces)
    err = info.value
    assert err.kind == "divergence" and err.cycling == 0
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


def test_shape_subsolve_requests_only_shape_blocks(circle_mesh, spaces, spy):
    """The shape subsystem of the iterative driver must not fall back to the
    full Hessian."""
    shape = {"w", "b", "c", "lam_w", "lam_b", "lam_vol", "lam_bc"}
    params = KktParams(nu=0.05, eta_ext=1.0, alpha=1e-1)
    fp = FlowParams(nu=params.nu)
    y = KktVector.zeros(spaces)
    state = solve_state(circle_mesh, y.w, fp, spaces)
    adj = solve_adjoint(circle_mesh, y.w, state, fp, spaces)
    y.v, y.p, y.lam_v, y.lam_p = state.v, state.p, adj.lam_v, adj.lam_p
    # the flow solves call the engine too, so spy on the shape solve alone
    calls = spy(lagrangian_module, "hessian_blocks")
    solve_kkt(circle_mesh, y, params, spaces, optimize_module._SHAPE_BLOCKS)
    assert calls
    for call in calls:
        assert call.get("pairs") is not None
        assert all(set(pair) <= shape for pair in call["pairs"])


def _fake_solve_kkt(stall_alpha, cycling, attempts):
    """A solve_kkt that converges in place, except at ``stall_alpha``."""

    def solve(mesh, y, params, spaces=None, names=BLOCK_NAMES):
        attempts.append(params.alpha)
        if np.isclose(params.alpha, stall_alpha, rtol=1e-12):
            raise SolverError("KKT active set cycles at residual 1.000e-05: "
                              f"{cycling} element(s) at the "
                              "determinant-penalty kink cross eta_det back "
                              "and forth", kind="stall", cycling=cycling)
        return y, [0.0]

    return solve


def test_run_direct_does_not_bisect_a_cycling_stall(circle_mesh, spaces,
                                                     monkeypatch):
    attempts = []
    monkeypatch.setattr(optimize_module, "solve_kkt",
                        _fake_solve_kkt(1e-3, 1, attempts))
    with pytest.raises(SolverError) as info:
        run_direct(circle_mesh, KktParams(nu=0.05),
                   ContinuationSchedule(1e-2, 0.1, 1e-3), spaces)
    assert info.value.kind == "stall" and info.value.cycling == 1
    assert attempts == pytest.approx([1e-2, 1e-3], rel=1e-12)
    assert [r.alpha for r in info.value.log.records] == [1e-2]


def test_run_direct_bisects_a_stall_without_cycling(circle_mesh, spaces,
                                                     monkeypatch):
    attempts = []
    monkeypatch.setattr(optimize_module, "solve_kkt",
                        _fake_solve_kkt(1e-3, 0, attempts))
    with pytest.raises(SolverError) as info:
        run_direct(circle_mesh, KktParams(nu=0.05),
                   ContinuationSchedule(1e-2, 0.1, 1e-3), spaces)
    assert info.value.cycling == 0
    at_level = [a for a in attempts if np.isclose(a, 1e-3, rtol=1e-12)]
    between = [a for a in attempts if 1e-3 * (1 + 1e-9) < a < 1e-2]
    assert len(at_level) > 1 and between


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
            mesh, np.zeros((0, 2)), ExtensionParams()),
    }
    with pytest.raises(MeshError, match="no obstacle boundary, so there "
                                        "is no boundary control"):
        calls[entry]()
