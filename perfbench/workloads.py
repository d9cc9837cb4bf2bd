"""The benchmark workloads: their inputs, the vemhr calls one case makes, and
the checks on each case's outputs.

Every workload is a closed loop: one caller runs its cases back to back, and
one pass over ``cases()`` is what a user waits for (the rate tables of a
study, a solution file, the tip-displacement tables of a Cook study).  The seed only changes the inputs
(Voronoi seeds, grid jitter); the benchmark code and sizes stay fixed.

Checks that hold for any seed: the solver residual is within the solver
tolerance, the per-cell equilibrium residual is at round-off relative to
the load, E_sigma falls with the level, and output files re-read
consistently.  For ``DEFAULT_SEED`` the results must also match the pinned
values in ``references.json`` to ``REF_RTOL``.
"""

import hashlib
import json
import os

import numpy as np

from vemhr import cli, postproc, problems, runner
from vemhr.assembly import load_solution
from vemhr.mesh import cook_domain, load_mesh

DEFAULT_SEED = 0
REF_RTOL = 1e-8
# Equilibrium holds up to the solver residual; 1e-9 of the load scale is far
# above round-off and far below any discretisation error.
EQ_RTOL = 1e-9
SOLVER_TOL = runner.RunConfig().solver_tol
NU_INCOMPRESSIBLE = 0.499995

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "references.json")
with open(REFERENCES_PATH) as _fh:
    REFERENCES = json.load(_fh)


# test-a's exact divergence is zero, so its E_sigma_div is solver round-off;
# values this far below the O(1) errors of the studies compare as equal.
REF_FLOOR = 1e-10


def case_label(case):
    return "/".join(map(str, case))


def _close(value, ref):
    return abs(value - ref) <= REF_RTOL * abs(ref) + REF_FLOOR


def _equilibrium_errors(mesh, solution, body_force, f_l2, label):
    """Per-cell equilibrium at round-off relative to the load scale: the
    body-load L2 norm or, for traction-loaded problems, the largest edge
    traction (both have units of stress in 2D)."""
    eq = float(postproc.equilibrium_residuals(mesh, solution,
                                              body_force).max())
    scale = max(f_l2, float(np.abs(solution.edge_dofs[:, :2]).max()))
    if not eq <= EQ_RTOL * scale:
        return [f"{label}: equilibrium residual {eq:.3e} above "
                f"{EQ_RTOL:.0e} x load scale {scale:.3e}"]
    return []


def _residual_errors(solution, label):
    rep = solution.report
    if not rep.residual <= SOLVER_TOL:
        return [f"{label}: solver residual {rep.residual:.3e} above "
                f"{SOLVER_TOL:.0e}"]
    return []


class StudyConv:
    """Convergence studies of the three manufactured problems on two
    unstructured families: many small meshes, each rebuilt per problem."""

    name = "study_conv"
    problems = ("test-a", "test-b", "test-inc")
    kinds = ("poly_voronoi_random", "tri_unstructured")
    levels = (4, 8, 12)
    captures_solves = True

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed

    def setup(self):
        for pid in self.problems:
            problem = runner.make_problem(pid)
            report = problems.verify_exact_bundle(problem)
            if max(report["sigma_vs_fd"],
                   report["div_sigma_plus_f"]) > runner.ORACLE_TOL:
                raise ValueError(f"exact bundle of {pid} inconsistent")

    def cases(self):
        return [(pid, kind) for kind in self.kinds for pid in self.problems]

    def _csv(self, case):
        return os.path.join(self.workdir, f"conv_{case[0]}_{case[1]}.csv")

    def run(self, case):
        pid, kind = case
        return runner.run_convergence(runner.RunConfig(
            problem=pid, kind=kind, levels=self.levels, seed=self.seed,
            csv_path=self._csv(case)))

    def verify(self, case, result, solutions):
        rows, _table, failures = result
        label = case_label(case)
        errors = [f"{label}: level {lv} failed: {why}" for lv, why in failures]
        if [r["level"] for r in rows] != list(self.levels):
            return errors + [f"{label}: levels {[r['level'] for r in rows]}"]
        if len(solutions) != len(rows):
            return errors + [f"{label}: {len(solutions)} solves for "
                             f"{len(rows)} levels"]
        body_force = runner.make_problem(case[0]).body_force
        for row, sol in zip(rows, solutions):
            tag = f"{label}/L{row['level']}"
            errors += _residual_errors(sol, tag)
            errors += _equilibrium_errors(sol.mesh, sol, body_force,
                                          row["f_l2"], tag)
        e_sigma = [r["E_sigma"] for r in rows]
        if not all(b < a for a, b in zip(e_sigma, e_sigma[1:])):
            errors.append(f"{label}: E_sigma does not fall with level: "
                          f"{e_sigma}")
        with open(self._csv(case)) as fh:
            lines = fh.read().splitlines()[1:]
        written = [float(ln.split(",")[3]) for ln in lines]
        if len(written) != len(rows) or not all(
                abs(w - e) <= 1e-11 * e for w, e in zip(written, e_sigma)):
            errors.append(f"{label}: CSV does not hold the computed E_sigma")
        if self.seed == DEFAULT_SEED:
            ref = REFERENCES[self.name][label]
            for key in ("E_sigma", "E_sigma_div", "E_u"):
                got = [r[key] for r in rows]
                if not all(map(_close, got, ref[key])):
                    errors.append(f"{label}: {key} {got} != pinned {ref[key]}")
        return errors

    def pinned(self, case, result, solutions):
        rows = result[0]
        return {key: [r[key] for r in rows]
                for key in ("E_sigma", "E_sigma_div", "E_u")}


class SolveLarge:
    """File-in/file-out solve of the nearly incompressible Cook membrane on
    a jittered quad mesh the benchmark writes itself."""

    name = "solve_large"
    n = 64
    jitter = 0.2
    captures_solves = False

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        self.mesh_path = os.path.join(workdir, "cook_quad.msh")
        self.out_path = os.path.join(workdir, "cook_solution.txt")
        self.mesh = None

    def setup(self):
        runner.make_problem("cook", NU_INCOMPRESSIBLE)
        text = cook_mesh_text(self.n, self.seed, self.jitter)
        with open(self.mesh_path, "w") as fh:
            fh.write(text)
        self.mesh_sha256 = hashlib.sha256(text.encode()).hexdigest()

    def cases(self):
        return [("cook", NU_INCOMPRESSIBLE)]

    def run(self, case):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        return cli.main(["solve", "--problem", "cook",
                         "--nu", repr(NU_INCOMPRESSIBLE),
                         "--mesh", self.mesh_path, "--out", self.out_path])

    def verify(self, case, result, solutions):
        if result != cli.EXIT_OK:
            return [f"solve exited with code {result}"]
        if self.mesh is None:
            self.mesh = load_mesh(self.mesh_path)
        try:
            sol = load_solution(self.out_path, self.mesh)
        except ValueError as exc:
            return [f"solution file does not re-read: {exc}"]
        with open(self.out_path) as fh:
            fh.readline()
            checksum = fh.readline().split()[1]
        errors = []
        if checksum != self.mesh_sha256:
            errors.append("solution file names another mesh checksum")
        if sol.report.n_dof != 3 * (self.mesh.n_edges + self.mesh.n_cells):
            errors.append(f"solution has {sol.report.n_dof} DOFs")
        errors += _residual_errors(sol, self.name)
        errors += _equilibrium_errors(self.mesh, sol, None, 0.0, self.name)
        v_a = self._v_a(sol)
        if not np.isfinite(v_a):
            errors.append(f"v_A is {v_a}")
        if self.seed == DEFAULT_SEED:
            ref = REFERENCES[self.name]["v_A"]
            if not _close(v_a, ref):
                errors.append(f"v_A {v_a!r} != pinned {ref!r}")
        return errors

    def _v_a(self, sol):
        return float(postproc.probe_displacement(
            self.mesh, sol, problems.COOK_PROBE_POINT)[1])

    def pinned(self, case, result, solutions):
        self.mesh = load_mesh(self.mesh_path)
        return {"v_A": self._v_a(load_solution(self.out_path, self.mesh))}


def cook_mesh_text(n, seed, jitter):
    """``vemhr-mesh v1`` text of an n x n quad mesh of the Cook membrane
    whose interior vertices move by up to ``jitter`` of a grid step."""
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    xi = (ii / n).ravel()
    eta = (jj / n).ravel()
    interior = ((ii % n != 0) & (jj % n != 0)).ravel()
    rng = np.random.default_rng(seed)
    for coord in (xi, eta):
        coord[interior] += rng.uniform(-jitter / n, jitter / n,
                                       interior.sum())
    c00, c10, c11, c01 = cook_domain()
    verts = (np.outer((1 - xi) * (1 - eta), c00) + np.outer(xi * (1 - eta), c10)
             + np.outer(xi * eta, c11) + np.outer((1 - xi) * eta, c01))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    base = (i * (n + 1) + j).ravel()
    quads = np.stack([base, base + n + 1, base + n + 2, base + 1], axis=1)
    lines = ["vemhr-mesh v1", str(len(verts))]
    lines += [f"{x:.17g} {y:.17g}" for x, y in verts]
    lines.append(str(len(quads)))
    lines += [" ".join(map(str, q)) for q in quads.tolist()]
    return "\n".join(lines) + "\n"


class CookCvt:
    """Cook membrane tip-displacement study on centroidal Voronoi meshes,
    with CSV and VTK export.  One case per Poisson ratio, so the same meshes
    are rebuilt for both."""

    name = "cook_cvt"
    kind = "cvor"
    nus = (1.0 / 3.0, NU_INCOMPRESSIBLE)
    levels = (4, 8, 12)
    captures_solves = True

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        self.vtk_path = os.path.join(workdir, "cook.vtk")

    def setup(self):
        for nu in self.nus:
            runner.make_problem("cook", nu)

    def cases(self):
        return [(self.kind, nu) for nu in self.nus]

    def _csv(self, case):
        return os.path.join(self.workdir, f"cook_nu{case[1]:g}.csv")

    def run(self, case):
        kind, nu = case
        return runner.run_cook(runner.RunConfig(
            problem="cook", cook_kinds=(kind,), cook_nus=(nu,),
            levels=self.levels, seed=self.seed, csv_path=self._csv(case),
            vtk_path=self.vtk_path))

    def verify(self, case, result, solutions):
        kind, nu = case
        rows = result
        label = case_label(case)
        errors = []
        if [(r["nu"], r["level"]) for r in rows] != \
                [(nu, lv) for lv in self.levels]:
            return [f"{label}: rows {[(r['nu'], r['level']) for r in rows]}"]
        if len(solutions) != len(rows):
            return [f"{label}: {len(solutions)} solves for {len(rows)} rows"]
        for row, sol in zip(rows, solutions):
            tag = f"{label}/L{row['level']}"
            errors += _residual_errors(sol, tag)
            errors += _equilibrium_errors(sol.mesh, sol, None, 0.0, tag)
            if not np.isfinite(row["v_A"]):
                errors.append(f"{tag}: v_A is {row['v_A']}")
        with open(self._csv(case)) as fh:
            if fh.read() != runner.cook_csv_text(rows):
                errors.append(f"{label}: CSV does not hold the computed rows")
        path = self.vtk_path[:-4] + f"_{kind}_nu{nu:g}.vtk"
        with open(path) as fh:
            text = fh.read()
        if f"POLYGONS {solutions[-1].mesh.n_cells} " not in text or \
                "SCALARS von_mises" not in text:
            errors.append(f"{path} lacks the finest mesh's fields")
        if self.seed == DEFAULT_SEED:
            ref = REFERENCES[self.name][label]["v_A"]
            got = [r["v_A"] for r in rows]
            if not all(map(_close, got, ref)):
                errors.append(f"{label}: v_A {got} != pinned {ref}")
        return errors

    def pinned(self, case, result, solutions):
        return {"v_A": [r["v_A"] for r in result]}


WORKLOADS = {w.name: w for w in (StudyConv, SolveLarge, CookCvt)}
