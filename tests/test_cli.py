"""Tests for the command-line driver."""

import numpy as np
import pytest

from flowshape.cli import (
    EXIT_CONFIG,
    EXIT_MESH,
    EXIT_SOLVER,
    main,
)
from flowshape.mesh import write_msh

from conftest import unit_square_mesh


def _write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


SMALL_MESH = "mesh_h = 0.5\nmesh_n_obstacle = 24\nmesh_n_rings = 2\n"


def test_check_mesh_runs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_MESH)
    assert main(["check-mesh", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "vertices:" in out
    assert "worst quality:" in out


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "nu = -1\n")
    assert main(["check-mesh", "--config", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_config_exit_code(capsys):
    assert main(["check-mesh", "--config", "/no/such.cfg"]) == EXIT_CONFIG


def test_solve_flow_writes_vtk(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_MESH + "nu = 0.1\n")
    out = tmp_path / "out"
    assert main(["solve-flow", "--config", cfg, "--output", str(out)]) == 0
    assert (out / "flow.vtk").exists()
    text = capsys.readouterr().out
    assert "dissipation:" in text


def test_solve_flow_is_deterministic(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_MESH + "nu = 0.1\n")
    out = tmp_path / "out"
    main(["solve-flow", "--config", cfg, "--output", str(out)])
    first = capsys.readouterr().out
    main(["solve-flow", "--config", cfg, "--output", str(out)])
    second = capsys.readouterr().out
    assert first.splitlines()[0] == second.splitlines()[0]


def test_optimize_direct_writes_artifacts(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_MESH + (
        "nu = 0.05\neta_ext = 1.0\nalpha_init = 1e-2\n"
        "alpha_dec = 0.1\nalpha_target = 1e-3\n"))
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--output", str(out)]) == 0
    assert (out / "run.log").exists()
    assert (out / "optimum.vtk").exists()
    header = (out / "run.log").read_text().splitlines()[0]
    assert header.split()[:3] == ["k", "ell", "alpha"]


def test_optimize_iterative_flag(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_MESH + (
        "nu = 0.05\neta_ext = 1.0\nalpha_init = 1e-2\n"
        "alpha_dec = 0.5\nalpha_target = 5e-3\n"))
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--output", str(out),
                 "--algorithm", "iterative"]) == 0
    lines = (out / "run.log").read_text().strip().splitlines()
    alphas = {float(l.split()[2]) for l in lines[1:]}
    assert alphas == {1e-2, 5e-3}


def test_grad_check_passes(tmp_path, capsys):
    # the FD probe needs the regular benchmark resolution to resolve the
    # quadratic decay; the very coarse test mesh is too noisy for it
    cfg = _write_cfg(tmp_path, "")
    assert main(["grad-check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_deform_exports_mesh(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_MESH + "eta_ext = 1.0\n")
    out = tmp_path / "out"
    assert main(["deform", "--config", cfg, "--output", str(out)]) == 0
    assert (out / "deformed.vtk").exists()
    text = capsys.readouterr().out
    assert "inverted elements after deformation: 0" in text


def test_quality_sweep_single_point(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_MESH + (
        "nu = 0.05\nalpha_init = 1e-2\nalpha_dec = 0.1\n"
        "alpha_target = 1e-3\n"))
    out = tmp_path / "out"
    assert main(["quality-sweep", "--config", cfg, "--output", str(out),
                 "--eta-ext", "1.0"]) == 0
    table = (out / "quality_sweep.csv").read_text().splitlines()
    assert table[0] == "eta_ext,worst_quality"
    assert len(table) == 2


def test_det_sweep_single_point(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_MESH + (
        "nu = 0.05\nalpha_init = 1e-2\nalpha_dec = 0.1\n"
        "alpha_target = 1e-3\n"))
    out = tmp_path / "out"
    assert main(["det-sweep", "--config", cfg, "--output", str(out),
                 "--eta-det", "0.05"]) == 0
    table = (out / "det_sweep.csv").read_text().splitlines()
    assert table[0] == "eta_det,active,path"
    assert len(table) == 2


def test_bad_eta_list_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_MESH)
    assert main(["quality-sweep", "--config", cfg, "--eta-ext",
                 "0.5,banana"]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["deform", "optimize"])
def test_mesh_without_obstacle_is_mesh_error(tmp_path, capsys, command):
    """A mesh file without an obstacle has no boundary control to optimize
    or to deform with."""
    path = tmp_path / "square.msh"
    write_msh(unit_square_mesh(6), path)
    cfg = _write_cfg(tmp_path, f"mesh = {path}\n")
    assert main([command, "--config", cfg, "--output",
                 str(tmp_path / "out")]) == EXIT_MESH
    assert "mesh error:" in capsys.readouterr().err
