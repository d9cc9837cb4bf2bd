"""End-to-end benchmark drivers: convergence studies and the cantilever run.

A refinement level n means n subdivisions per direction for grid-based mesh
kinds and n^2 seeds for the Voronoi kinds, which roughly matches the mean
edge lengths across families.  All runs are deterministic given the config
(fixed seeds, fixed formats), so repeated runs produce identical CSV bytes.
"""

import io
import numbers
from dataclasses import dataclass

import numpy as np

from . import postproc
from .assembly import SOLVER_TOL, SolverError, assemble, solve
from .element import STABILIZATIONS, projection_field
from .generators import MESH_KINDS, _is_count, generate_mesh
from .mesh import cook_domain
from .postproc import von_mises_field, write_vtk_polydata
from .problems import COOK_PROBE_POINT, problem_cook, problem_test_a, \
    problem_test_b, problem_test_incompressible, verify_exact_bundle
from .quadrature import mesh_polygon_quadrature

__all__ = [
    "RunConfig",
    "PROBLEM_IDS",
    "COOK_KINDS",
    "make_problem",
    "mesh_for_level",
    "convergence_study",
    "run_convergence",
    "run_cook",
    "cook_csv_text",
]

PROBLEM_IDS = ("test-a", "test-b", "test-inc", "cook")

COOK_KINDS = {"quad": "quad_structured",
              "cvor": "poly_voronoi_cvt",
              "rvor": "poly_voronoi_random"}

ORACLE_TOL = 1e-8


@dataclass(frozen=True)
class RunConfig:
    problem: str = "test-a"
    kind: str = "quad_structured"
    levels: tuple = (8, 16, 32, 64)
    cook_kinds: tuple = ("quad", "cvor", "rvor")
    cook_nus: tuple = (1.0 / 3.0, 0.499995)
    stabilization: str = "stab1"
    seed: int = 0
    csv_path: str = None
    vtk_path: str = None

    solver_tol = SOLVER_TOL  # not a field: every solve uses this tolerance

    def validate(self):
        if self.problem not in PROBLEM_IDS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.kind not in MESH_KINDS:
            raise ValueError(f"unknown mesh kind {self.kind!r}")
        if not isinstance(self.levels, tuple) or not self.levels \
                or not all(map(_is_count, self.levels)) \
                or any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be a non-empty tuple of strictly "
                             "increasing positive integers, not "
                             f"{self.levels!r}")
        if not isinstance(self.cook_kinds, tuple) or not self.cook_kinds \
                or not all(k in tuple(COOK_KINDS) for k in self.cook_kinds):
            raise ValueError("cook_kinds must be a non-empty tuple of "
                             f"{'/'.join(COOK_KINDS)} names, not "
                             f"{self.cook_kinds!r}")
        if not isinstance(self.cook_nus, tuple) or not self.cook_nus \
                or not all(_is_real(nu) and 0.0 <= nu < 0.5
                           for nu in self.cook_nus):
            raise ValueError("cook_nus must be a non-empty tuple of Poisson "
                             f"ratios in [0, 0.5), not {self.cook_nus!r}")
        if not (isinstance(self.seed, numbers.Integral) and _is_real(self.seed)
                and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer, not "
                             f"{self.seed!r}")
        if self.stabilization not in STABILIZATIONS:
            raise ValueError(f"unknown stabilization {self.stabilization!r}")
        return self

    def to_text(self) -> str:
        """Flat key = value serialization, written alongside outputs."""
        lines = []
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = ",".join(repr(v) if isinstance(v, float) else str(v)
                                 for v in value)
            lines.append(f"{name} = {value}")
        return "\n".join(lines) + "\n"


def _is_real(x):
    """True for a real number, numpy scalars included (not bools)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def make_problem(problem_id, nu=None):
    """The problem of an id; ``nu`` is the Poisson ratio of ``cook``
    (1/3 when None) and must be None for every other problem."""
    if problem_id == "cook":
        return problem_cook() if nu is None else problem_cook(nu)
    if nu is not None:
        raise ValueError(f"a Poisson ratio applies only to the cook problem, "
                         f"not to {problem_id!r}")
    if problem_id == "test-a":
        return problem_test_a()
    if problem_id == "test-b":
        return problem_test_b()
    if problem_id == "test-inc":
        return problem_test_incompressible()
    raise ValueError(f"unknown problem {problem_id!r}")


def mesh_for_level(kind, level, domain=None, seed=0):
    """Generate the level-n mesh of a family (n^2 seeds for Voronoi kinds)."""
    return generate_mesh(kind, _resolution(kind, level), domain=domain,
                         seed=seed)


def _resolution(kind, level):
    return level * level if kind.startswith("poly_voronoi") else level


def convergence_study(problems, kind, levels, config: RunConfig):
    """One refinement sweep of several manufactured problems on one mesh
    family; returns one ``(rows, failures)`` pair per problem, in order.

    All levels come from one ``generate_mesh`` call (the Voronoi kinds clip
    their levels together), and each level's mesh is shared by every
    problem, so its cell groups and fan rule are built once.  If that call
    raises ``ValueError`` (a ``MeshError`` included), the levels are
    generated one at a time, so a bad mesh fails its level alone, for every
    problem; a singular system fails one (problem, level).  The problems
    must share a domain, and the exact bundle of each problem that has one
    must pass ``verify_exact_bundle`` (D sigma = eps(u) and div sigma = -f,
    by complex step) within ``ORACLE_TOL`` before any mesh is built (a
    ValueError naming the problem otherwise).

    Each row carries the three error norms plus equilibrium by-products:
    the largest per-cell norm of div sigma_h + Pi_RM f and the L2 norm of
    the body load (for relative equilibrium checks).
    """
    problems = list(problems)
    if not problems:
        raise ValueError("a convergence study needs at least one problem")
    domain = problems[0].domain
    if not all(np.array_equal(p.domain, domain) for p in problems[1:]):
        raise ValueError("the problems of one study must share a domain")
    for problem in problems:
        if problem.exact is not None:
            report = verify_exact_bundle(problem)
            if max(report["sigma_vs_fd"],
                   report["div_sigma_plus_f"]) > ORACLE_TOL:
                raise ValueError(f"exact bundle of {problem.name} "
                                 f"inconsistent: {report}")
    try:
        meshes = generate_mesh(
            kind, tuple(_resolution(kind, level) for level in levels),
            domain=domain, seed=config.seed)
    except ValueError:
        meshes = None
    results = [([], []) for _ in problems]
    for i, level in enumerate(levels):
        if meshes is None:
            try:
                mesh = mesh_for_level(kind, level, domain=domain,
                                      seed=config.seed)
            except ValueError as exc:
                # a bad mesh fails this level only, for every problem
                for _, failures in results:
                    failures.append((level, f"{type(exc).__name__}: {exc}"))
                continue
        else:
            mesh, meshes[i] = meshes[i], None  # released with its rows
        for problem, (rows, failures) in zip(problems, results):
            try:
                solution = solve(assemble(mesh, problem,
                                          stabilization=config.stabilization))
            except (ValueError, SolverError) as exc:
                # a singular system fails this (problem, level) only
                failures.append((level, f"{type(exc).__name__}: {exc}"))
                continue
            rows.append(_study_row(mesh, problem, solution, level))
    return results


def _study_row(mesh, problem, solution, level):
    f_l2 = 0.0
    if problem.body_force is not None:
        pts, wts, _ = mesh_polygon_quadrature(mesh)
        fv = problem.body_force(pts)
        f_l2 = float(np.sqrt(wts @ (fv**2).sum(axis=1)))
    row = {
        "level": level,
        "h_bar": mesh.mean_edge_length,
        "n_dof": solution.report.n_dof,
        "equilibrium_max": float(postproc.equilibrium_residuals(
            mesh, solution, problem.body_force).max()),
        "f_l2": f_l2,
    }
    if problem.exact is not None:
        row["E_sigma"] = postproc.error_sigma(
            mesh, solution, problem.exact.stress, problem.material)
        row["E_sigma_div"] = postproc.error_div(
            mesh, solution, problem.body_force)
        row["E_u"] = postproc.error_u(
            mesh, solution, problem.exact.displacement)
    return row


def run_convergence(config: RunConfig):
    """Solve a manufactured problem over a refinement sequence and collect
    the three error norms; returns (rows, RateTable, failures) and writes
    the CSV.  The study is the one-problem case of
    :func:`convergence_study`: the exact bundle is checked first, then all
    levels come from one ``generate_mesh`` call."""
    config.validate()
    problem = make_problem(config.problem)
    if problem.exact is None:
        raise ValueError(f"problem {config.problem} has no exact solution")
    [(rows, failures)] = convergence_study([problem], config.kind,
                                           config.levels, config)
    if config.csv_path:
        postproc.write_convergence_csv(config.csv_path, rows)
        _write_sidecar_config(config)
    if failures and not rows:
        raise RuntimeError(f"all levels failed: {failures}")
    table = postproc.convergence_rates(
        [r["h_bar"] for r in rows],
        {k: [r[k] for r in rows] for k in ("E_sigma", "E_sigma_div", "E_u")})
    return rows, table, failures


def run_cook(config: RunConfig):
    """Tip-displacement refinement study over the requested mesh families and
    Poisson ratios; writes the CSV and a von Mises VTK per finest mesh.

    All levels of a family come from one ``generate_mesh`` call (the
    Voronoi kinds clip and relax their levels together), and each mesh is
    shared by every Poisson ratio.  A failing level fails the whole study;
    :func:`convergence_study` falls back to one level at a time, so there a
    failing level fails alone."""
    config.validate()
    rows = []
    for short in config.cook_kinds:
        kind = COOK_KINDS[short]
        meshes = generate_mesh(
            kind, tuple(_resolution(kind, level) for level in config.levels),
            domain=cook_domain(), seed=config.seed)
        for nu in config.cook_nus:
            problem = problem_cook(nu)
            for i, (level, mesh) in enumerate(zip(config.levels, meshes)):
                solution = solve(assemble(
                    mesh, problem, stabilization=config.stabilization))
                va = postproc.probe_displacement(mesh, solution,
                                                 COOK_PROBE_POINT)[1]
                rows.append({"kind": short, "nu": nu, "level": level,
                             "h_bar": mesh.mean_edge_length,
                             "n_dof": solution.report.n_dof,
                             "v_A": float(va)})
                if config.vtk_path and i == len(config.levels) - 1:
                    vm = von_mises_field(mesh, solution, problem.material)
                    path = _suffixed(config.vtk_path, f"{short}_nu{nu:g}")
                    proj = projection_field(mesh, solution.edge_dofs)
                    write_vtk_polydata(path, mesh, {
                        "displacement": solution.cell_motions[:, :2],
                        "von_mises": vm,
                        "sigma_11": proj[:, 0],
                        "sigma_22": proj[:, 1],
                        "sigma_12": proj[:, 2],
                    }, title=f"cook {short} nu={nu:g} level={level}")
    if config.csv_path:
        with open(config.csv_path, "w", newline="") as fh:
            fh.write(cook_csv_text(rows))
        _write_sidecar_config(config)
    return rows


def cook_csv_text(rows) -> str:
    buf = io.StringIO()
    buf.write("kind,nu,level,h_bar,n_dof,v_A\n")
    for r in rows:
        buf.write(f"{r['kind']},{r['nu']:.12g},{r['level']},"
                  f"{r['h_bar']:.12e},{r['n_dof']},{r['v_A']:.12e}\n")
    return buf.getvalue()


def _suffixed(path, tag):
    if path.endswith(".vtk"):
        return f"{path[:-4]}_{tag}.vtk"
    return f"{path}_{tag}"


def _write_sidecar_config(config: RunConfig):
    with open(config.csv_path + ".cfg", "w") as fh:
        fh.write(config.to_text())
