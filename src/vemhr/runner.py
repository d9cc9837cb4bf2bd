"""End-to-end benchmark drivers: convergence studies and the cantilever run.

A refinement level n means n subdivisions per direction for grid-based mesh
kinds and n^2 seeds for the Voronoi kinds, which roughly matches the mean
edge lengths across families.  All runs are deterministic given the config
(fixed seeds, fixed formats), so repeated runs produce identical CSV bytes.
"""

import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from . import postproc
from .assembly import SOLVER_TOL, SolverError, assemble, solve
from .element import STABILIZATIONS, projection_field
from .generators import MESH_KINDS, _is_count, _is_seed, generate_mesh
from .postproc import von_mises_field, write_vtk_polydata
from .problems import COOK_PROBE_POINT, problem_cook, problem_test_a, \
    problem_test_b, problem_test_incompressible, verify_exact_bundle

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

_PROBLEMS = {"test-a": problem_test_a,
             "test-b": problem_test_b,
             "test-inc": problem_test_incompressible,
             "cook": problem_cook}
PROBLEM_IDS = tuple(_PROBLEMS)

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

    def __post_init__(self):
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
                or not all(k in tuple(COOK_KINDS) for k in self.cook_kinds) \
                or len(set(self.cook_kinds)) < len(self.cook_kinds):
            raise ValueError("cook_kinds must be a non-empty tuple of "
                             f"distinct {'/'.join(COOK_KINDS)} names, not "
                             f"{self.cook_kinds!r}")
        if not isinstance(self.cook_nus, tuple) or not self.cook_nus \
                or not all(_is_real(nu) and 0.0 <= nu < 0.5
                           for nu in self.cook_nus) \
                or len({f"{nu:g}" for nu in self.cook_nus}) \
                < len(self.cook_nus):
            # a ratio's VTK file and summary line name it with :g
            raise ValueError("cook_nus must be a non-empty tuple of distinct "
                             "Poisson ratios in [0, 0.5) that also differ in "
                             f"6 significant digits, not {self.cook_nus!r}")
        # Python floats, so that the sidecar writes them as numbers
        object.__setattr__(self, "cook_nus", tuple(map(float, self.cook_nus)))
        if not _is_seed(self.seed):
            raise ValueError("seed must be a non-negative integer, not "
                             f"{self.seed!r}")
        if self.stabilization not in STABILIZATIONS:
            raise ValueError(f"unknown stabilization {self.stabilization!r}")
        for name in ("csv_path", "vtk_path"):
            if getattr(self, name) == "":
                raise ValueError(f"{name} must be a path or None, not ''")


def _is_real(x):
    """True for a real number, numpy scalars included (not bools)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def make_problem(problem_id, nu=None):
    """The problem of an id; ``nu`` is the Poisson ratio of ``cook``
    (1/3 when None) and must be None for every other problem."""
    if problem_id not in _PROBLEMS:
        raise ValueError(f"unknown problem {problem_id!r}")
    if nu is None:
        return _PROBLEMS[problem_id]()
    if problem_id != "cook":
        raise ValueError(f"a Poisson ratio applies only to the cook problem, "
                         f"not to {problem_id!r}")
    return problem_cook(nu)


def mesh_for_level(kind, level, domain=None, seed=0):
    """The level-n mesh of a family: n subdivisions per direction, or n^2
    seeds for the Voronoi kinds.  A tuple of levels gives the list of their
    meshes from one ``generate_mesh`` call, as a tuple of resolutions does."""
    levels = level if isinstance(level, tuple) else (level,)
    if kind.startswith("poly_voronoi"):
        levels = tuple(n * n for n in levels)
    return generate_mesh(kind, levels if isinstance(level, tuple)
                         else levels[0], domain=domain, seed=seed)


def convergence_study(problems, kind, levels, seed=0, stabilization="stab1",
                      row=postproc.convergence_row):
    """One refinement sweep of several problems on one mesh family; returns
    one ``(rows, failures)`` pair per problem, in order, each row built by
    ``row(problem, system, solution, level)`` (by default the error row
    ``postproc.convergence_row``) from the problem's assembled system
    (whose ``mesh`` is the level's) and its solution.

    All levels come from one :func:`mesh_for_level` call (the Voronoi kinds
    clip their levels together), and each level's mesh is shared by every
    problem, so its cell groups and fan rule are built once.  Within a
    level the problems of one material share their local blocks, and
    those that also hold the same DOFs fixed share the local inverses and
    the multiplier factor (``assemble``'s ``shared`` memo, one per level);
    all of it is released with the level's rows, and each row is still one
    ``solve(system)``.  A mesh that cannot be built fails the study; a
    singular system fails one (problem, level), listed as
    ``(level, exception)``.  The problems must share a domain, the
    stabilization must be one of ``STABILIZATIONS``, and the exact bundle
    of each problem that has one must pass ``verify_exact_bundle``
    (D sigma = eps(u) and div sigma = -f, by complex step) within
    ``ORACLE_TOL`` before any mesh is built (a ValueError naming the
    problem otherwise).
    """
    problems = list(problems)
    if not problems:
        raise ValueError("a convergence study needs at least one problem")
    domain = problems[0].domain
    if not all(np.array_equal(p.domain, domain) for p in problems[1:]):
        raise ValueError("the problems of one study must share a domain")
    if stabilization not in STABILIZATIONS:
        raise ValueError(f"unknown stabilization {stabilization!r}")
    for problem in problems:
        if problem.exact is not None:
            report = verify_exact_bundle(problem)
            if max(report["sigma_vs_fd"],
                   report["div_sigma_plus_f"]) > ORACLE_TOL:
                raise ValueError(f"exact bundle of {problem.name} "
                                 f"inconsistent: {report}")
    meshes = mesh_for_level(kind, tuple(levels), domain=domain, seed=seed)
    results = [([], []) for _ in problems]

    def solve_level(mesh, level):
        shared = {}  # the level's blocks and factors, released on return
        for problem, (rows, failures) in zip(problems, results):
            try:
                system = assemble(mesh, problem, stabilization=stabilization,
                                  shared=shared)
                solution = solve(system)
            except (ValueError, SolverError) as exc:
                # a singular system fails this (problem, level) only
                failures.append((level, exc))
                continue
            rows.append(row(problem, system, solution, level))

    for i, level in enumerate(levels):
        solve_level(meshes[i], level)
        meshes[i] = None  # released with its rows
    return results


def run_convergence(config: RunConfig):
    """Solve a manufactured problem over a refinement sequence and collect
    the three error norms; returns (rows, RateTable, failures) and writes
    the CSV.  It is the one-problem :func:`convergence_study`, so a singular
    system fails its level only; if every level fails, the first level's
    exception is raised and nothing is written."""
    _check_directories(config.csv_path)
    problem = make_problem(config.problem)
    if problem.exact is None:
        raise ValueError(f"problem {config.problem} has no exact solution")
    [(rows, failures)] = convergence_study(
        [problem], config.kind, config.levels, seed=config.seed,
        stabilization=config.stabilization)
    if not rows:
        raise failures[0][1]
    _write_run(config, postproc.convergence_csv_text(rows))
    table = postproc.convergence_rates(
        [r["h_bar"] for r in rows],
        {k: [r[k] for r in rows] for k in ("E_sigma", "E_sigma_div", "E_u")})
    return rows, table, failures


def run_cook(config: RunConfig):
    """Tip-displacement refinement study over the requested mesh families and
    Poisson ratios; writes the CSV and a von Mises VTK per finest mesh.

    Each family is a :func:`convergence_study` of the Cook problems with
    the probe row ``{kind, nu, level, h_bar, n_dof, v_A}``, so the rows come
    in (kind, nu as given, level) order.  A singular system fails the run
    with the solve's own exception, and no CSV is written."""
    _check_directories(config.csv_path, config.vtk_path)
    problems = [problem_cook(nu) for nu in config.cook_nus]
    nus = {id(problem): nu for problem, nu in zip(problems, config.cook_nus)}
    rows = []
    for short in config.cook_kinds:
        def probe_row(problem, system, solution, level):
            mesh, nu = system.mesh, nus[id(problem)]
            va = postproc.probe_displacement(mesh, solution,
                                             COOK_PROBE_POINT)[1]
            if config.vtk_path and level == config.levels[-1]:
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
            return {"kind": short, "nu": nu, "level": level,
                    "h_bar": mesh.mean_edge_length,
                    "n_dof": solution.report.n_dof, "v_A": float(va)}

        for nu_rows, failures in convergence_study(
                problems, COOK_KINDS[short], config.levels, seed=config.seed,
                stabilization=config.stabilization, row=probe_row):
            if failures:
                raise failures[0][1]
            rows += nu_rows
    _write_run(config, cook_csv_text(rows))
    return rows


def cook_csv_text(rows) -> str:
    return "kind,nu,level,h_bar,n_dof,v_A\n" + "".join(
        f"{r['kind']},{r['nu']:.12g},{r['level']},{r['h_bar']:.12e},"
        f"{r['n_dof']},{r['v_A']:.12e}\n" for r in rows)


def _check_directories(*paths):
    """A ValueError unless the directory of every given output path exists:
    a run fails before its first mesh, not after its last solve."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"the directory of {path!r} does not exist")


def _suffixed(path, tag):
    if path.endswith(".vtk"):
        return f"{path[:-4]}_{tag}.vtk"
    return f"{path}_{tag}"


def _write_run(config: RunConfig, csv_text):
    """Write the CSV, then its ``.cfg`` sidecar, if the run has a CSV path.
    The sidecar has a ``key = value`` line per field, which ``--config``
    replays."""
    if config.csv_path:
        with open(config.csv_path, "w", newline="") as fh:
            fh.write(csv_text)
        with open(config.csv_path + ".cfg", "w") as fh:
            for field in fields(config):
                value = getattr(config, field.name)
                if isinstance(value, tuple):
                    value = ",".join(map(str, value))
                fh.write(f"{field.name} = {value}\n")
