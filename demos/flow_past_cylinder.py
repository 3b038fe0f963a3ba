"""Stationary flow around a circular obstacle in a channel.

Builds the reference tunnel mesh, solves the PSPG-stabilized Navier-Stokes
system at Re ~ 100, reports the energy dissipation of the solution, and
exports velocity and pressure to a legacy VTK file for ParaView.

Run from the repository root:

    python3 demos/flow_past_cylinder.py
"""

import numpy as np

from flowshape.flow import dissipation, solve_state
from flowshape.lagrangian import KktParams, Spaces
from flowshape.mesh import write_vtk
from flowshape.meshgen import tunnel_mesh


def main():
    mesh = tunnel_mesh(h=0.35, n_obstacle=48, n_rings=3)
    spaces = Spaces.build(mesh)
    print(f"mesh: {mesh.vertices.shape[0]} vertices, "
          f"{mesh.triangles.shape[0]} triangles")

    params = KktParams(nu=0.01)
    w = np.zeros_like(mesh.vertices)
    state = solve_state(mesh, w, params, spaces)
    print(f"Newton converged, |v|_max = {np.abs(state.v).max():.4f}")

    d = dissipation(mesh, w, state, params.nu)
    print(f"energy dissipation: {d:.6f}")

    write_vtk(mesh, {"velocity": state.v, "pressure": state.p}, "flow.vtk")
    print("wrote flow.vtk")


if __name__ == "__main__":
    main()
