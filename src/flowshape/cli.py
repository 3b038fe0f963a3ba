"""Command-line entry point.

Subcommands: ``check-mesh``, ``solve-flow``, ``optimize``, ``quality-sweep``,
``det-sweep``, ``grad-check``, ``deform``.  Every subcommand reads an optional
``key = value`` config file (see :mod:`flowshape.config`) and writes its
artifacts under the output directory.  Exit codes distinguish failure modes:
1 configuration, 2 mesh, 3 solver divergence, 4 verification failure.  A mesh
without an obstacle carries no control, so ``optimize``, ``quality-sweep``,
``det-sweep`` and ``deform`` reject it as a mesh error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .extension import solve_extension, solve_laplace_beltrami
from .flow import SolverError, dissipation, solve_state
from .kkt import DofMap, gradient_fd_slopes
from .lagrangian import Spaces, control_spaces
from .mesh import (Mesh, MeshError, load_msh, signed_areas, worst_quality,
                   write_vtk)
from .meshgen import tunnel_mesh
from .optimize import det_sweep, quality_sweep, run_direct, run_iterative
from .transform import displacement_gradient, element_kinematics

__all__ = ["main"]

EXIT_CONFIG, EXIT_MESH, EXIT_SOLVER, EXIT_VERIFY = 1, 2, 3, 4


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "output", None):
        overrides["output"] = args.output
    if getattr(args, "algorithm", None):
        overrides["algorithm"] = args.algorithm
    if overrides:
        cfg = replace(cfg, **overrides)
        cfg.validate()
    return cfg


def _load_mesh(cfg: RunConfig) -> Mesh:
    if cfg.mesh:
        return load_msh(cfg.mesh)
    return tunnel_mesh(h=cfg.mesh_h, n_obstacle=cfg.mesh_n_obstacle,
                       holdall=(cfg.mode == "holdall"),
                       n_rings=cfg.mesh_n_rings)


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_check_mesh(cfg: RunConfig) -> int:
    mesh = _load_mesh(cfg)
    areas = signed_areas(mesh.vertices, mesh.triangles)
    print(f"vertices:           {mesh.num_vertices}")
    print(f"triangles:          {mesh.num_triangles}")
    print(f"boundary segments:  {len(mesh.boundary_segments)}")
    print(f"obstacle cells:     {len(mesh.obstacle_cells)}")
    print(f"min signed area:    {areas.min():.6e}")
    print(f"worst quality:      {worst_quality(mesh):.6f}")
    return 0


def cmd_solve_flow(cfg: RunConfig) -> int:
    mesh = _load_mesh(cfg)
    spaces = Spaces.build(mesh)
    w = np.zeros((mesh.num_vertices, 2))
    state = solve_state(mesh, w, cfg.kkt_params(), spaces=spaces)
    j = dissipation(mesh, w, state, cfg.nu, spaces)
    out = _outdir(cfg)
    path = out / "flow.vtk"
    write_vtk(mesh, {"velocity": state.v, "pressure": state.p}, path)
    print(f"dissipation: {j:.10e}")
    print(f"fields written to {path}")
    return 0


def cmd_optimize(cfg: RunConfig) -> int:
    mesh = _load_mesh(cfg)
    spaces = control_spaces(mesh)
    params, schedule = cfg.kkt_params(), cfg.schedule()
    if cfg.algorithm == "iterative":
        y, log = run_iterative(mesh, params, schedule, eps=cfg.eps,
                               spaces=spaces)
    else:
        y, log = run_direct(mesh, params, schedule, spaces=spaces)
    out = _outdir(cfg)
    log.write(out / "run.log")
    write_vtk(mesh, {"displacement": y.w, "velocity": y.v, "pressure": y.p},
              out / "optimum.vtk")
    deformed = mesh.vertices + y.w
    if signed_areas(deformed, mesh.triangles).min() <= 0.0:
        print("verification failed: inverted element in deformed mesh",
              file=sys.stderr)
        return EXIT_VERIFY
    rec = log.records[-1]
    print(f"levels: {rec.k + 1}  iterations: {rec.ell}")
    print(f"objective: {rec.objective:.10e}  dissipation: "
          f"{rec.dissipation:.10e}")
    print(f"worst quality after deformation: "
          f"{worst_quality(mesh, y.w):.6f}")
    print(f"artifacts in {out}")
    return 0


def _parse_float_list(text: str, flag: str):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"invalid {flag} list: {text!r}")


def cmd_quality_sweep(cfg: RunConfig, eta_ext_list) -> int:
    mesh = _load_mesh(cfg)
    spaces = control_spaces(mesh)
    values = eta_ext_list or [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    out = _outdir(cfg)
    rows = quality_sweep(mesh, cfg.kkt_params(), values, cfg.schedule(),
                         csv_path=out / "quality_sweep.csv", spaces=spaces)
    for eta, q in rows:
        print(f"eta_ext = {eta:g}: worst_quality = {q:.6f}")
    print(f"table written to {out / 'quality_sweep.csv'}")
    return 0


def cmd_det_sweep(cfg: RunConfig, eta_det_list) -> int:
    mesh = _load_mesh(cfg)
    spaces = control_spaces(mesh)
    values = eta_det_list or [0.5, 0.25, 0.2, 0.1]
    out = _outdir(cfg)
    rows = det_sweep(mesh, cfg.kkt_params(), values, cfg.schedule(),
                     output_dir=out, csv_path=out / "det_sweep.csv",
                     spaces=spaces)
    for eta, active, path in rows:
        print(f"eta_det = {eta:g}: active = {active}  {path}")
    print(f"table written to {out / 'det_sweep.csv'}")
    return 0


def cmd_grad_check(cfg: RunConfig) -> int:
    mesh = _load_mesh(cfg)
    spaces = Spaces.build(mesh)
    dm = DofMap(spaces)
    rng = np.random.default_rng(cfg.seed)
    u = 0.5 * rng.standard_normal(dm.total)
    # keep every element determinant well clear of zero, where near-singular
    # elements wreck the decay order: scaling the probe deformation to
    # max |Dw|_2 = 1/2 over the elements gives det(I + Dw) >= 1/4
    wslice = dm.block_slice("w")
    dw = displacement_gradient(spaces.geo_ext, u[wslice].reshape(-1, 2))
    u[wslice] *= 0.5 / np.linalg.norm(dw, ord=2, axis=(1, 2)).max()
    # keep the det penalty active on every element so the probe sits in a
    # smooth region of the max function; a kink inside the step range would
    # genuinely degrade the observed decay order
    _, dets, _ = element_kinematics(spaces.geo_ext, u[wslice].reshape(-1, 2))
    params = replace(cfg.kkt_params(), alpha=0.3, beta=7.0,
                     eta_det=float(dets.max()) + 0.5, eta_ext=2.0)
    slopes = gradient_fd_slopes(mesh, dm.unpack(u), params,
                                n_directions=20, seed=cfg.seed,
                                spaces=spaces)
    ok = True
    for name, slope in slopes.items():
        passed = slope >= 1.9
        ok = ok and passed
        label = "exact" if np.isinf(slope) else f"{slope:.3f}"
        print(f"{name:8s} slope {label:>6s}  "
              f"{'PASS' if passed else 'FAIL'}")
    return 0 if ok else EXIT_VERIFY


def cmd_deform(cfg: RunConfig) -> int:
    """Apply the extension operator to the unit control and export the mesh."""
    mesh = _load_mesh(cfg)
    spaces = control_spaces(mesh)
    c = np.ones(spaces.num_loop)
    b = solve_laplace_beltrami(mesh, c, spaces)
    w = solve_extension(mesh, b, cfg.kkt_params(), spaces=spaces)
    out = _outdir(cfg)
    path = out / "deformed.vtk"
    write_vtk(mesh, {"displacement": w}, path)
    deformed = mesh.vertices + w
    bad = int(np.sum(signed_areas(deformed, mesh.triangles) <= 0.0))
    print(f"max displacement: {np.abs(w).max():.6e}")
    print(f"inverted elements after deformation: {bad}")
    print(f"written to {path}")
    return EXIT_VERIFY if bad else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowshape",
        description="Shape optimization of obstacles in stationary "
                    "Navier-Stokes flow by the method of mappings.")
    sub = parser.add_subparsers(dest="command", required=True)
    names = ["check-mesh", "solve-flow", "optimize", "quality-sweep",
             "det-sweep", "grad-check", "deform"]
    for name in names:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="path to a key = value config file")
        sp.add_argument("--output", default=None,
                        help="output directory (overrides config)")
        if name == "optimize":
            sp.add_argument("--algorithm", choices=["direct", "iterative"],
                            default=None)
        if name == "quality-sweep":
            sp.add_argument("--eta-ext", default=None,
                            help="comma-separated eta_ext values")
        if name == "det-sweep":
            sp.add_argument("--eta-det", default=None,
                            help="comma-separated eta_det values")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "check-mesh":
            return cmd_check_mesh(cfg)
        if args.command == "solve-flow":
            return cmd_solve_flow(cfg)
        if args.command == "optimize":
            return cmd_optimize(cfg)
        if args.command == "quality-sweep":
            values = (_parse_float_list(args.eta_ext, "--eta-ext")
                      if args.eta_ext else None)
            return cmd_quality_sweep(cfg, values)
        if args.command == "det-sweep":
            values = (_parse_float_list(args.eta_det, "--eta-det")
                      if args.eta_det else None)
            return cmd_det_sweep(cfg, values)
        if args.command == "grad-check":
            return cmd_grad_check(cfg)
        if args.command == "deform":
            return cmd_deform(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MeshError as err:
        print(f"mesh error: {err}", file=sys.stderr)
        return EXIT_MESH
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
