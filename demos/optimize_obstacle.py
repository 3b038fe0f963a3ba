"""Shape optimization of the circular obstacle by continuation.

Runs the one-shot driver on the circle benchmark with a short alpha
schedule, reports the dissipation decrease and the geometric constraint
residuals at the optimum, and exports the deformed mesh.  The full
benchmark schedule continues down to alpha = 1e-10; this demo stops at
1e-6 so it finishes in about a minute on a laptop.

Run from the repository root:

    python3 demos/optimize_obstacle.py
"""

import numpy as np

from flowshape.flow import dissipation, solve_state
from flowshape.kkt import KktParams, barycenter_residual, volume_residual
from flowshape.lagrangian import Spaces
from flowshape.mesh import deform_mesh, write_vtk
from flowshape.meshgen import tunnel_mesh
from flowshape.optimize import ContinuationSchedule, run_direct


def main():
    mesh = tunnel_mesh(h=0.35, n_obstacle=48, n_rings=3)
    spaces = Spaces.build(mesh)
    params = KktParams(nu=0.01, eta_ext=3.0, eta_det=5e-2, beta=100.0)

    w0 = np.zeros_like(mesh.vertices)
    state0 = solve_state(mesh, w0, params, spaces)
    d0 = dissipation(mesh, w0, state0, params.nu)
    print(f"initial dissipation: {d0:.6f}")

    schedule = ContinuationSchedule(1e-4, 0.1, 1e-6)
    y, log = run_direct(mesh, params, schedule, spaces=spaces)

    state1 = solve_state(mesh, y.w, params, spaces)
    d1 = dissipation(mesh, y.w, state1, params.nu)
    print(f"final dissipation:   {d1:.6f}  ({100 * (d0 - d1) / d0:.1f}% lower)")
    print(f"continuation levels: {[f'{r.alpha:.1e}' for r in log.records]}")
    print(f"volume residual:     {volume_residual(mesh, y.w, spaces):.2e}")
    bx, by = barycenter_residual(mesh, y.w, spaces)
    print(f"barycenter residual: ({bx:.2e}, {by:.2e})")

    write_vtk(deform_mesh(mesh, y.w),
              {"velocity": y.v, "pressure": y.p}, "optimum.vtk")
    print("wrote optimum.vtk (deformed configuration)")


if __name__ == "__main__":
    main()
