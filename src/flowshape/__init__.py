"""2D shape optimization of Navier-Stokes obstacles by the method of mappings.

The package works on a fixed reference mesh: a scalar control on the obstacle
boundary is turned into a domain deformation by a Laplace-Beltrami solve
followed by a nonlinear advective extension, the stationary flow equations
are pulled back through the deformation, and the coupled first-order
optimality system is solved monolithically (or by a decoupled fixpoint) under
a continuation schedule for the control regularization.
"""

from .config import ConfigError, RunConfig, parse_config
from .extension import (ExtensionParams, solve_extension,
                        solve_laplace_beltrami)
from .flow import (AdjointFlowState, FlowParams, FlowState, SolverError,
                   dissipation, inflow_profile, reduced_gradient,
                   solve_adjoint, solve_state, state_residual)
from .kkt import (DofMap, KktParams, KktVector, barycenter_residual,
                  gradient_fd_slopes, kkt_matrix, kkt_residual, solve_kkt,
                  volume_residual)
from .lagrangian import Spaces
from .mesh import (BoundaryTag, Mesh, MeshError, boundary_normals,
                   deform_mesh, element_qualities, load_msh, obstacle_loop,
                   worst_quality, write_msh, write_vtk)
from .meshgen import tunnel_mesh
from .optimize import (ContinuationSchedule, RunLog, RunRecord, det_sweep,
                       quality_sweep, run_direct, run_iterative)

__version__ = "0.1.0"
