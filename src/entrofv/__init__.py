"""Structure-preserving finite volume solvers for boundary-driven
convection-diffusion problems, with entropy-decay diagnostics."""

from .mesh import (BoundarySpec, Mesh, Segment, AdmissibilityReport,
                   MeshError, MeshFormatError,
                   load_mesh, reference_mesh, save_mesh, validate,
                   LEFT, RIGHT, TOP, BOTTOM, INTERIOR, DIRICHLET, NEUMANN)
from .linalg import (FactorStore, NonConvergence,
                     LinAlgError, SingularMatrixError,
                     check_m_matrix_structure, newton_solve, solve_linear)
from .schemes import (BScheme, DdData, TransportData, DataError, AssemblyError,
                      PecletError, UPWIND, CENTERED, SCHARFETTER_GUMMEL, SCHEMES,
                      advection_from_potential, assemble_dd_residual,
                      assemble_fp_operator, assemble_pme_residual,
                      assemble_poisson, discretize_coefficients,
                      edge_steady_weight, peclet_guard, transport_data)
from .entropy import (DEFAULT_POINCARE, EntropyTrace, FitResult, PHI1, PHI2,
                      PhiFunction, dd_entropy, entrophy, entrophy_dissipation,
                      fit_decay_rate, lp_distance, phi_dissipation, phi_mean,
                      relative_phi_entropy, steady_edge_factors,
                      theoretical_rate_fp, theoretical_rate_pme)
from .solvers import (DdProblem, DdState, FpProblem, PmeProblem, SolverError,
                      StepperConfig, TransientResult, adaptive_time_loop,
                      run_transient, solve_dd_steady, solve_dd_thermal,
                      solve_fp_steady, solve_pme_steady, step_dd, step_pme)

__version__ = "0.1.0"
