"""Low-order virtual element solver for plane elasticity in the mixed
stress/displacement formulation on general polygonal meshes.

Stresses are approximated with a-priori symmetric virtual fields carrying
three traction DOFs per edge (constant tangential, affine normal component);
displacements are cellwise rigid motions.  The package covers mesh
generation for the benchmark families, local element operators, saddle-point
assembly and direct solution, error norms and the benchmark drivers.
"""

from .assembly import (DisplacementBC, DofMap, GlobalSystem, Solution,
                       SolverError, TractionBC, assemble, load_solution,
                       save_solution, solve)
from .element import (STABILIZATIONS, CellGroup, body_load_vector,
                      cell_groups, divergence_field, interpolate_global,
                      projection_field)
from .generators import MESH_KINDS, UNIT_SQUARE, generate_mesh
from .material import (IsotropicMaterial, from_lame,
                       from_young_poisson_plane_strain,
                       von_mises_plane_strain)
from .mesh import (PolyMesh, QualityReport, build_topology, check_assumptions,
                   cook_domain, load_mesh, mesh_checksum, save_mesh)
from .postproc import (convergence_rates, equilibrium_residuals, error_div,
                       error_sigma, error_u, probe_displacement,
                       von_mises_field, write_convergence_csv,
                       write_vtk_polydata)
from .problems import (ProblemSpec, problem_cook, problem_test_a,
                       problem_test_b, problem_test_incompressible,
                       verify_exact_bundle)
from .quadrature import QUADRATURE_DEGREE, mesh_polygon_quadrature
from .runner import RunConfig, run_convergence, run_cook

__version__ = "0.1.0"
