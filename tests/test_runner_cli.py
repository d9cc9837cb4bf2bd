import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vemhr
from vemhr import assembly, postproc, quadrature, runner
from vemhr.assembly import (SolverError, TractionBC, assemble, load_solution,
                            solve)
from vemhr.cli import main
from vemhr.material import from_lame
from vemhr.generators import UNIT_SQUARE, generate_mesh
from vemhr.mesh import (MeshError, cook_domain, load_mesh, save_mesh,
                        shoelace)
from vemhr.postproc import CSV_HEADER, ROUNDOFF_FLOOR, probe_displacement
from vemhr.problems import COOK_PROBE_POINT, ProblemSpec, problem_cook, \
    problem_test_a, problem_test_b, problem_test_incompressible
from vemhr.runner import (COOK_KINDS, RunConfig, convergence_study,
                          cook_csv_text, make_problem, mesh_for_level,
                          run_convergence, run_cook)

from polygons import holed_quad_mesh, u_tiling

STUDY_KINDS = ("quad_structured", "hex_structured", "tri_unstructured",
               "poly_voronoi_random", "poly_voronoi_cvt")
LEVELS = (2, 3, 4)


def sweep_problems():
    """The four problems of the acceptance sweep: test-a and test-b share a
    material, and neither holds a DOF fixed."""
    return [problem_test_a(), problem_test_b(), problem_test_incompressible(),
            dataclasses.replace(problem_test_incompressible(),
                                material=from_lame(1.0, 0.5))]


def hex_rows(rows):
    """Rows with every float in hex, so equal means bit for bit."""
    return [{k: v.hex() if isinstance(v, float) else v for k, v in r.items()}
            for r in rows]


def _fail_one_cook_solve(monkeypatch):
    """Make ``runner.solve`` raise SolverError on the level-2 (4-cell) quad
    mesh at nu = 0.49 only."""
    assembled, solve_, assemble_ = [], runner.solve, runner.assemble

    def assemble(mesh, problem, **kw):
        assembled.append((problem.name, mesh.n_cells))
        return assemble_(mesh, problem, **kw)

    def failing(system):
        if assembled[-1] == ("cook-nu0.49", 4):
            raise SolverError("synthetic singular system")
        return solve_(system)

    monkeypatch.setattr(runner, "assemble", assemble)
    monkeypatch.setattr(runner, "solve", failing)


class TestRunner:
    def test_voronoi_level_mapping(self):
        mesh = mesh_for_level("poly_voronoi_random", 5, seed=0)
        assert mesh.n_cells == 25
        mesh = mesh_for_level("quad_structured", 5)
        assert mesh.n_cells == 25

    def test_convergence_writes_csv(self, tmp_path):
        csv = tmp_path / "conv.csv"
        cfg = RunConfig(problem="test-a", kind="quad_structured",
                        levels=(2, 4, 8), csv_path=str(csv))
        rows, table, failures = run_convergence(cfg)
        assert not failures
        assert len(rows) == 3
        text = csv.read_text()
        assert text.startswith("level,h_bar,n_dof,E_sigma")
        assert len(text.strip().split("\n")) == 4
        assert np.isfinite(table.slopes["E_sigma"])
        sidecar = (tmp_path / "conv.csv.cfg").read_text()
        assert "problem = test-a" in sidecar
        assert "levels = 2,4,8" in sidecar

    def test_determinism(self, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            cfg = RunConfig(problem="test-b", kind="poly_voronoi_random",
                            levels=(2, 4), seed=3,
                            csv_path=str(tmp_path / name))
            run_convergence(cfg)
            texts.append((tmp_path / name).read_bytes())
        assert texts[0] == texts[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(problem="test-z")
        with pytest.raises(ValueError):
            RunConfig(kind="bad")
        with pytest.raises(ValueError):
            RunConfig(levels=())
        with pytest.raises(ValueError):
            run_convergence(RunConfig(problem="cook"))
        with pytest.raises(ValueError):
            make_problem("test-a", 0.3)
        with pytest.raises(ValueError, match="unknown problem 'test-z'"):
            make_problem("test-z")
        with pytest.raises(ValueError, match="unknown stabilization 'stab2'"):
            RunConfig(stabilization="stab2")
        cook = make_problem("cook").material
        assert (cook.lam, cook.mu) == (problem_cook().material.lam,
                                       problem_cook().material.mu)

    @pytest.mark.parametrize("name", ["csv_path", "vtk_path"])
    def test_empty_output_path(self, name):
        # None means no file; an empty path would write nothing silently
        with pytest.raises(ValueError, match=f"{name} must be a path or None"):
            RunConfig(**{name: ""})

    @pytest.mark.parametrize("levels", [
        (2.0, 4.0), (2, 4.0), (2, 0), (True, 2), [2, 4], 4, ("2", "4"),
        (4, 2), (2, 2)],
        ids=["floats", "float", "zero", "bool", "list", "int", "str",
             "decreasing", "repeated"])
    def test_levels_not_integers(self, levels):
        with pytest.raises(ValueError, match="levels must be") as exc:
            RunConfig(kind="poly_voronoi_random", levels=levels)
        assert repr(levels) in str(exc.value)

    def test_numpy_integer_levels(self):
        rows, _, failures = run_convergence(RunConfig(
            kind="poly_voronoi_random", levels=(np.int64(2), np.int32(3))))
        assert not failures and [r["level"] for r in rows] == [2, 3]

    @pytest.mark.parametrize("seed", [1.5, -1, True, "0", None],
                             ids=["float", "negative", "bool", "str", "none"])
    def test_seed_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be") as exc:
            RunConfig(kind="poly_voronoi_random", levels=(2,), seed=seed)
        assert repr(seed) in str(exc.value)

    @pytest.mark.parametrize("nus", [
        ("0.3",), (0.6,), (-0.1,), (0.5,), (float("nan"),), (True,), (),
        [0.3], 0.3, (0.3, 0.3), (0.3, np.float64(0.3)), (0, 0.0),
        (0.499995, 0.4999951)],
        ids=["str", "above", "negative", "half", "nan", "bool", "empty",
             "list", "float", "repeated", "repeated_numpy", "repeated_zero",
             "print_alike"])
    def test_cook_nus_not_poisson_ratios(self, nus):
        with pytest.raises(ValueError, match="cook_nus must be") as exc:
            RunConfig(problem="cook", cook_kinds=("quad",), levels=(2,),
                      cook_nus=nus)
        assert repr(nus) in str(exc.value)

    @pytest.mark.parametrize("nus", [
        (1.0 / 3.0, 0.499995), (0.49, 0.3), (1.0 / 3.0, 0.49)])
    def test_cook_nus_in_use_print_apart(self, nus):
        # a ratio's VTK file and summary line show it to 6 digits (:g)
        assert RunConfig(problem="cook", cook_nus=nus).cook_nus == nus

    @pytest.mark.parametrize("kinds", [
        (), ("tri",), ["quad"], "quad", ("quad", "quad"),
        ("quad", "cvor", "quad")],
        ids=["empty", "unknown", "list", "str", "repeated", "repeated_apart"])
    def test_cook_kinds_not_kind_names(self, kinds):
        with pytest.raises(ValueError, match="cook_kinds must be") as exc:
            RunConfig(problem="cook", cook_kinds=kinds, levels=(2,))
        assert repr(kinds) in str(exc.value)

    def test_numpy_seed_and_nus(self):
        rows = run_cook(RunConfig(problem="cook", cook_kinds=("cvor",),
                                  levels=(2,), seed=np.int64(3),
                                  cook_nus=(np.float64(0.3), 0)))
        assert [r["nu"] for r in rows] == [0.3, 0]
        assert rows == run_cook(RunConfig(problem="cook", cook_kinds=("cvor",),
                                          levels=(2,), seed=3,
                                          cook_nus=(0.3, 0.0)))

    def test_cook_rows_and_vtk(self, tmp_path):
        cfg = RunConfig(problem="cook", cook_kinds=("quad",),
                        levels=(2, 4), cook_nus=(1.0 / 3.0,),
                        csv_path=str(tmp_path / "cook.csv"),
                        vtk_path=str(tmp_path / "cook.vtk"))
        rows = run_cook(cfg)
        assert len(rows) == 2
        assert rows[-1]["v_A"] > rows[0]["v_A"] > 0  # stiffness relaxes
        text = (tmp_path / "cook.csv").read_text()
        assert text.startswith("kind,nu,level,h_bar,n_dof,v_A")
        vtks = list(tmp_path.glob("cook_*.vtk"))
        assert len(vtks) == 1
        body = vtks[0].read_text()
        assert "SCALARS von_mises" in body
        assert "SCALARS sigma_11" in body

    def test_cook_vtk_path_without_extension(self, tmp_path):
        # the tag goes after the whole path
        run_cook(RunConfig(problem="cook", cook_kinds=("quad",), levels=(2,),
                           cook_nus=(0.3,), vtk_path=str(tmp_path / "out")))
        assert [p.name for p in tmp_path.iterdir()] == ["out_quad_nu0.3"]
        body = (tmp_path / "out_quad_nu0.3").read_text()
        assert body.startswith("# vtk DataFile")

    def test_cook_builds_each_mesh_once(self, monkeypatch, tmp_path):
        # one generate_mesh call per family for all its levels; the rows
        # follow the Poisson ratios in the order given
        built = []
        build = runner.generate_mesh
        monkeypatch.setattr(runner, "generate_mesh", lambda kind, res, **kw:
                            built.append((kind, res)) or build(kind, res, **kw))
        for nus in ((1.0 / 3.0, 0.49), (0.49, 1.0 / 3.0)):
            out = tmp_path / f"nus_{nus[0]:g}"
            out.mkdir()
            built.clear()
            rows = run_cook(RunConfig(
                problem="cook", cook_kinds=("quad", "rvor"), levels=(2, 3),
                cook_nus=nus, csv_path=str(out / "cook.csv"),
                vtk_path=str(out / "cook.vtk")))
            assert built == [("quad_structured", (2, 3)),
                             ("poly_voronoi_random", (4, 9))]
            assert [(r["kind"], r["nu"], r["level"]) for r in rows] == [
                (k, nu, lv) for k in ("quad", "rvor") for nu in nus
                for lv in (2, 3)]
            assert sorted(p.name for p in out.glob("*.vtk")) == [
                "cook_quad_nu0.333333.vtk", "cook_quad_nu0.49.vtk",
                "cook_rvor_nu0.333333.vtk", "cook_rvor_nu0.49.vtk"]

    def test_cook_rows_equal_fresh_solves(self):
        # two-nu, two-kind rows bitwise equal to one-nu runs and to fresh
        # per-level meshes: sharing the meshes changes no number
        kinds, levels, nus = ("quad", "rvor"), (2, 3), (0.49, 1.0 / 3.0)
        rows = run_cook(RunConfig(problem="cook", cook_kinds=kinds,
                                  levels=levels, cook_nus=nus, seed=1))
        assert rows == [row for short in kinds for nu in nus
                        for row in run_cook(RunConfig(
                            problem="cook", cook_kinds=(short,),
                            levels=levels, cook_nus=(nu,), seed=1))]
        fresh = []
        for short in kinds:
            for nu in nus:
                problem = problem_cook(nu)
                for level in levels:
                    mesh = mesh_for_level(COOK_KINDS[short], level,
                                          domain=problem.domain, seed=1)
                    solution = solve(assemble(mesh, problem))
                    va = probe_displacement(mesh, solution, COOK_PROBE_POINT)
                    fresh.append({"kind": short, "nu": nu, "level": level,
                                  "h_bar": mesh.mean_edge_length,
                                  "n_dof": solution.report.n_dof,
                                  "v_A": float(va[1])})
        assert rows == fresh

    def test_singular_cook_system_fails_the_run(self, monkeypatch, tmp_path):
        # unlike a study's level, a singular Cook system fails the whole
        # run with the solve's own exception, and no CSV is written
        _fail_one_cook_solve(monkeypatch)
        csv = tmp_path / "k.csv"
        with pytest.raises(SolverError, match="synthetic singular system"):
            run_cook(RunConfig(problem="cook", cook_kinds=("quad",),
                               levels=(2, 3), cook_nus=(1.0 / 3.0, 0.49),
                               csv_path=str(csv)))
        assert list(tmp_path.iterdir()) == []

    def test_roundoff_rate_is_blank(self, tmp_path):
        # test-a's exact divergence is zero, so E_sigma_div is round-off
        csv = tmp_path / "a.csv"
        rows, _, _ = run_convergence(RunConfig(
            problem="test-a", kind="poly_voronoi_random", levels=(2, 3, 4),
            csv_path=str(csv)))
        assert max(r["E_sigma_div"] for r in rows) <= ROUNDOFF_FLOOR
        for line in csv.read_text().splitlines()[2:]:
            rate_sigma, rate_div, rate_u = line.split(",")[-3:]
            assert rate_div == ""
            assert rate_sigma and rate_u

    def test_rates_above_floor_unchanged(self, tmp_path):
        csv = tmp_path / "b.csv"
        rows, _, _ = run_convergence(RunConfig(
            problem="test-b", kind="poly_voronoi_random", levels=(2, 3, 4),
            seed=3, csv_path=str(csv)))
        keys = ("E_sigma", "E_sigma_div", "E_u")
        lines = [",".join(CSV_HEADER)]
        for prev, row in zip([None] + rows[:-1], rows):
            rates = [""] * 3
            if prev is not None:
                dh = np.log(row["h_bar"] / prev["h_bar"])
                rates = [f"{np.log(row[k] / prev[k]) / dh:.6f}" for k in keys]
            lines.append(",".join([str(row["level"]), f"{row['h_bar']:.12e}",
                                   str(row["n_dof"])]
                                  + [f"{row[k]:.12e}" for k in keys] + rates))
        assert csv.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_cook_csv_format(self):
        text = cook_csv_text([{"kind": "quad", "nu": 1 / 3, "level": 2,
                               "h_bar": 10.0, "n_dof": 51, "v_A": 1.25}])
        assert "quad,0.333333333333,2,1.000000000000e+01,51," in text

    def test_cook_kind_names(self):
        assert set(COOK_KINDS) == {"quad", "cvor", "rvor"}

    def test_study_builds_one_fan_rule_per_mesh(self, monkeypatch):
        # loads, f_l2, equilibrium residuals and both L2 norms share it
        built = []
        fan_rule = quadrature._fan_rule
        monkeypatch.setattr(quadrature, "_fan_rule",
                            lambda *a: built.append(1) or fan_rule(*a))
        results = convergence_study([problem_test_b(), problem_test_a()],
                                    "quad_structured", (2, 3))
        assert [(len(rows), failures) for rows, failures in results] == [
            (2, []), (2, [])]
        assert len(built) == 2

    def test_solver_error_is_a_failed_level(self):
        # tractions on every edge out of equilibrium: singular system
        bc = TractionBC(traction=lambda p: np.broadcast_to(
            np.array([1.0, 0.0]), p.shape))
        problem = ProblemSpec(name="bad", domain=UNIT_SQUARE,
                              material=from_lame(1.0, 1.0), body_force=None,
                              boundary=lambda m, e: bc, exact=None)
        [(rows, failures)] = convergence_study([problem], "quad_structured",
                                               (1, 2))
        assert rows == []
        assert [lv for lv, _ in failures] == [1, 2]
        assert all(isinstance(exc, SolverError) for _, exc in failures)

    def test_programming_error_propagates(self):
        def boundary(mesh, edge):
            raise TypeError("classifier bug")

        problem = ProblemSpec(name="bug", domain=UNIT_SQUARE,
                              material=from_lame(1.0, 1.0), body_force=None,
                              boundary=boundary, exact=None)
        with pytest.raises(TypeError, match="classifier bug"):
            convergence_study([problem], "quad_structured", (1,))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", STUDY_KINDS)
    def test_shared_study_equals_single_studies(self, kind, seed):
        # rows bitwise equal to one-problem studies and to fresh per-level
        # meshes and systems: sharing the meshes, the local blocks and the
        # factors changes no number
        problems = sweep_problems()
        shared = convergence_study(problems, kind, LEVELS, seed=seed)
        for problem, (rows, failures) in zip(problems, shared):
            assert failures == []
            [(single, failures)] = convergence_study([problem], kind, LEVELS,
                                                     seed=seed)
            assert failures == [] and hex_rows(single) == hex_rows(rows)
            fresh = []
            for level in LEVELS:
                system = assemble(mesh_for_level(kind, level, seed=seed),
                                  problem)
                fresh.append(postproc.convergence_row(
                    problem, system, solve(system), level))
            assert hex_rows(fresh) == hex_rows(rows)

    @pytest.mark.parametrize("problem", [problem_test_a(), problem_test_b()],
                             ids=["no-load", "load"])
    def test_row_is_the_postproc_norms(self, problem):
        # the row's shared evaluations give postproc's numbers bit for bit
        mesh = mesh_for_level("poly_voronoi_random", 4)
        system = assemble(mesh, problem)
        solution = solve(system)
        row = postproc.convergence_row(problem, system, solution, 4)
        f, exact = problem.body_force, problem.exact
        pts, wts, _ = quadrature.mesh_polygon_quadrature(mesh)
        fv = np.zeros_like(pts) if f is None else f(pts)
        assert hex_rows([row]) == hex_rows([{
            "level": 4, "h_bar": mesh.mean_edge_length,
            "n_dof": solution.report.n_dof,
            "equilibrium_max": float(postproc.equilibrium_residuals(
                mesh, solution, f).max()),
            "f_l2": float(np.sqrt(wts @ (fv**2).sum(axis=1))),
            "E_sigma": postproc.error_sigma(mesh, solution, exact.stress,
                                            problem.material),
            "E_sigma_div": postproc.error_div(mesh, solution, f),
            "E_u": postproc.error_u(mesh, solution, exact.displacement)}])

    def test_load_evaluated_once_per_row(self):
        # the load vector, f_l2, the equilibrium residuals and E_sigma_div
        # share one evaluation; the exact bundle's check makes one more
        problem = problem_test_b()
        f, calls = problem.body_force, []
        counted = dataclasses.replace(
            problem, body_force=lambda p: calls.append(len(p)) or f(p))
        [(rows, failures)] = convergence_study([counted], "quad_structured",
                                               (2, 4))
        assert len(rows) == 2 and failures == []
        assert len(calls) == 3

    def test_list_valued_load(self):
        # a load that returns nested lists is read as floats once, and its
        # rows are the array load's, bit for bit
        problem = problem_test_b()
        f = problem.body_force
        listed = dataclasses.replace(problem,
                                     body_force=lambda p: f(p).tolist())
        [(rows, failures)] = convergence_study([listed], "quad_structured",
                                               (2, 4))
        [(ref, _)] = convergence_study([problem], "quad_structured", (2, 4))
        assert failures == [] and hex_rows(rows) == hex_rows(ref)

    def test_one_factor_per_key(self, monkeypatch):
        # per level, test-a and test-b (one material, no fixed DOF) are
        # solved from one factor, and each test-inc material has its own:
        # 3 factors a level, not 4
        factored = []
        splu = assembly.spla.splu
        monkeypatch.setattr(assembly.spla, "splu", lambda S, **kw:
                            factored.append(S.shape) or splu(S, **kw))
        results = convergence_study(sweep_problems(), "quad_structured",
                                    (2, 4))
        assert [(len(rows), failures) for rows, failures in results] == [
            (2, [])] * 4
        assert len(factored) == 6

    def test_study_builds_each_mesh_once(self, monkeypatch):
        # one generate_mesh call per study; every problem gets that mesh
        built, given = [], []
        build, assemble_ = runner.generate_mesh, runner.assemble
        monkeypatch.setattr(runner, "generate_mesh", lambda kind, res, **kw:
                            built.append((kind, res)) or build(kind, res, **kw))
        monkeypatch.setattr(runner, "assemble", lambda mesh, problem, **kw:
                            given.append((problem.name, mesh))
                            or assemble_(mesh, problem, **kw))
        results = convergence_study(
            [problem_test_a(), problem_test_b(), problem_test_incompressible()],
            "poly_voronoi_random", (2, 3))
        assert [len(rows) for rows, _ in results] == [2, 2, 2]
        assert built == [("poly_voronoi_random", (4, 9))]
        assert [name for name, _ in given] == ["test-a", "test-b",
                                               "test-inc"] * 2
        meshes = [mesh for _, mesh in given]
        assert all(m is meshes[0] for m in meshes[:3])
        assert all(m is meshes[3] for m in meshes[3:])
        assert meshes[0].n_cells == 4 and meshes[3].n_cells == 9

    def test_study_meshes_freed_by_reference_count(self):
        # no reference cycle keeps a level's mesh once the study returns
        meshes = []

        def row(problem, system, solution, level):
            meshes.append(weakref.ref(system.mesh))
            return level

        gc.collect()
        gc.disable()
        try:
            convergence_study([problem_test_a()], "poly_voronoi_random",
                              (2, 3), row=row)
            alive = [ref for ref in meshes if ref() is not None]
        finally:
            gc.enable()
        assert len(meshes) == 2 and alive == []

    def test_mesh_error_fails_the_study(self, monkeypatch, tmp_path):
        # a mesh that cannot be built is no failed level: the study fails,
        # and the run writes neither a CSV nor a sidecar
        build = runner.generate_mesh

        def failing(kind, res, **kw):
            if res == 9 or (isinstance(res, tuple) and 9 in res):
                raise MeshError("generated cells do not tile the domain")
            return build(kind, res, **kw)

        monkeypatch.setattr(runner, "generate_mesh", failing)
        with pytest.raises(MeshError, match="do not tile the domain"):
            convergence_study([problem_test_a(), problem_test_b()],
                              "poly_voronoi_random", LEVELS)
        config = RunConfig(kind="poly_voronoi_random", levels=LEVELS,
                           csv_path=str(tmp_path / "c.csv"))
        with pytest.raises(MeshError, match="do not tile the domain"):
            run_convergence(config)
        assert list(tmp_path.iterdir()) == []

    def test_study_rejects_an_unknown_stabilization(self, monkeypatch):
        # a misspelt stabilization fails the study before any mesh is
        # built, not every level one by one
        monkeypatch.setattr(runner, "generate_mesh",
                            lambda *a, **kw: pytest.fail("mesh built"))
        with pytest.raises(ValueError, match="unknown stabilization 'stab2'"):
            convergence_study([problem_test_a()], "quad_structured", (1,),
                              stabilization="stab2")

    def test_study_reads_its_seed_and_stabilization(self):
        # the keywords reach the meshes and the local matrices: each one
        # changes the numbers on its own, and the defaults are seed 0, stab1
        problem = problem_test_b()
        kind = "poly_voronoi_random"
        [(default, _)] = convergence_study([problem], kind, (2, 3))
        assert convergence_study([problem], kind, (2, 3), seed=0,
                                 stabilization="stab1") == [(default, [])]
        for settings in ({"seed": 1}, {"stabilization": "stab1bis"}):
            [(rows, failures)] = convergence_study([problem], kind, (2, 3),
                                                   **settings)
            assert failures == [] and rows != default

    def test_study_rejects_an_inconsistent_bundle(self, monkeypatch):
        # test-b with its load doubled: the stated stress no longer balances
        # the load, and the study fails before it builds a mesh
        problem = problem_test_b()
        f = problem.body_force
        doubled = dataclasses.replace(problem,
                                      body_force=lambda p: 2.0 * f(p))
        monkeypatch.setattr(runner, "generate_mesh",
                            lambda *a, **kw: pytest.fail("mesh built"))
        with pytest.raises(ValueError,
                           match="test-b inconsistent.*div_sigma_plus_f"):
            convergence_study([problem_test_a(), doubled], "quad_structured",
                              (4, 8))

    def test_study_problems_share_a_domain(self):
        with pytest.raises(ValueError, match="share a domain"):
            convergence_study([problem_test_a(), problem_cook(1.0 / 3.0)],
                              "quad_structured", (1,))
        with pytest.raises(ValueError, match="at least one problem"):
            convergence_study([], "quad_structured", (1,))
        # equal corners are one domain, whatever array holds them
        free = ProblemSpec(name="free",
                           domain=np.array([[0.0, 0.0], [1.0, 0.0],
                                            [1.0, 1.0], [0.0, 1.0]]),
                           material=from_lame(1.0, 1.0), body_force=None,
                           boundary=problem_test_a().boundary, exact=None)
        results = convergence_study([free, problem_test_a()],
                                    "quad_structured", (1,))
        assert [(len(rows), failures) for rows, failures in results] == [
            (1, []), (1, [])]


class TestCli:
    def test_mesh_gen_and_solve(self, tmp_path, capsys):
        mesh_path = tmp_path / "m.msh"
        out_path = tmp_path / "s.txt"
        assert main(["mesh", "gen", "--kind", "quad_structured", "--n", "4",
                     "--out", str(mesh_path)]) == 0
        mesh = load_mesh(mesh_path)
        assert mesh.n_cells == 16
        assert main(["solve", "--problem", "test-a", "--mesh", str(mesh_path),
                     "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("vemhr-solution v1")
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"wrote .*: residual \S+, \d+ DOFs, "
                            r"peak RSS \d+\.\d MiB, ordering mmd", last)

    def test_mesh_gen_on_the_cook_domain(self, tmp_path):
        path = tmp_path / "cook.msh"
        assert main(["mesh", "gen", "--kind", "quad_structured", "--n", "4",
                     "--domain", "cook", "--out", str(path)]) == 0
        mesh = load_mesh(path)
        assert mesh.n_cells == 16
        assert mesh.vertices.max(axis=0).tolist() == [48.0, 60.0]
        assert_allclose(mesh.areas.sum(), shoelace(cook_domain())[0][0])

    def test_nu_only_with_cook(self, tmp_path, capsys):
        mesh_path = tmp_path / "m.msh"
        save_mesh(mesh_path, generate_mesh("quad_structured", 2,
                                           domain=cook_domain()))
        out = tmp_path / "s.txt"
        solve_args = ["--mesh", str(mesh_path), "--out", str(out)]
        assert main(["solve", "--problem", "test-a", "--nu", "0.7",
                     *solve_args]) == 2
        assert "only to the cook problem" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = test-b\nnu = 0.3\n")
        assert main(["solve", "--config", str(cfg), *solve_args]) == 2
        assert not out.exists()
        # without --nu, cook solves at nu = 1/3
        assert main(["solve", "--problem", "cook", *solve_args]) == 0
        default = out.read_bytes()
        assert main(["solve", "--problem", "cook", "--nu", repr(1.0 / 3.0),
                     *solve_args]) == 0
        assert out.read_bytes() == default

    @pytest.mark.parametrize("problem, domain", [
        pytest.param("cook", UNIT_SQUARE, id="square_mesh_for_cook"),
        pytest.param("test-b", cook_domain(), id="cook_mesh_for_test_b"),
        # the unit square shifted by half a side has the domain's area, so
        # only its vertices show that it does not tile the domain
        pytest.param("test-a", UNIT_SQUARE + [0.5, 0.0], id="shifted_square"),
    ])
    def test_mesh_off_the_domain_writes_nothing(self, tmp_path, capsys,
                                                problem, domain):
        mesh_path = tmp_path / "m.msh"
        save_mesh(mesh_path, generate_mesh("quad_structured", 4,
                                           domain=domain))
        out = tmp_path / "s.txt"
        assert main(["solve", "--problem", problem, "--mesh", str(mesh_path),
                     "--out", str(out)]) == 2
        assert "do not tile the domain" in capsys.readouterr().err
        assert not out.exists()

    def test_holed_mesh_writes_nothing(self, tmp_path, capsys):
        # the areas add up and every vertex is inside, but a hole's edges
        # would take the domain's boundary data
        mesh_path, out = tmp_path / "holed.msh", tmp_path / "s.txt"
        save_mesh(mesh_path, holed_quad_mesh())
        assert main(["solve", "--problem", "test-b", "--mesh", str(mesh_path),
                     "--out", str(out)]) == 2
        assert "is not on its boundary" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["convergence", "--problem", "test-a", "--kind", "quad_structured",
         "--levels", "2,4", "--csv", ""],
        ["cook", "--kinds", "quad", "--levels", "2", "--nus", "0.3",
         "--csv", "k.csv", "--vtk", ""]], ids=["csv", "vtk"])
    def test_empty_output_path_writes_nothing(self, tmp_path, monkeypatch,
                                              capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "must be a path or None" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["poly_voronoi_random", "hex_structured"])
    def test_negative_mesh_seed_writes_nothing(self, tmp_path, capsys, kind):
        out = tmp_path / "neg.msh"
        assert main(["mesh", "gen", "--kind", kind, "--n", "4", "--seed",
                     "-1", "--out", str(out)]) == 2
        assert ("seed must be a non-negative integer, not -1"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_convergence_command(self, tmp_path):
        csv = tmp_path / "c.csv"
        assert main(["convergence", "--problem", "test-a", "--kind",
                     "quad_structured", "--levels", "2,4", "--csv",
                     str(csv)]) == 0
        assert csv.exists()

    def test_decreasing_levels_write_nothing(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        assert main(["convergence", "--problem", "test-a", "--kind",
                     "quad_structured", "--levels", "8,4", "--csv",
                     str(csv)]) == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error,code", [
        pytest.param(SolverError, 3, id="solver"),
        pytest.param(ValueError, 2, id="validation")])
    def test_convergence_with_every_level_failed(self, tmp_path, monkeypatch,
                                                 capsys, error, code):
        # no row: the first level's exception fails the run before anything
        # is written, with that exception's exit code
        def failing(system):
            raise error(f"synthetic failure at {system.mesh.n_cells} cells")

        monkeypatch.setattr(runner, "solve", failing)
        assert main(["convergence", "--problem", "test-a", "--kind",
                     "quad_structured", "--levels", "2,4", "--csv",
                     str(tmp_path / "c.csv")]) == code
        assert "synthetic failure at 4 cells" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_convergence_names_a_failed_level(self, tmp_path, monkeypatch,
                                             capsys):
        solve_ = runner.solve

        def failing(system):
            if system.mesh.n_cells == 4:
                raise SolverError("synthetic failure")
            return solve_(system)

        monkeypatch.setattr(runner, "solve", failing)
        csv = tmp_path / "c.csv"
        assert main(["convergence", "--problem", "test-a", "--kind",
                     "quad_structured", "--levels", "2,4,8", "--csv",
                     str(csv)]) == 0
        assert "level 2 failed: SolverError: synthetic failure" in \
            capsys.readouterr().err
        assert [ln.split(",")[0] for ln in csv.read_text().splitlines()] == [
            "level", "4", "8"]

    def test_singular_cook_system_exit_code(self, tmp_path, monkeypatch,
                                            capsys):
        _fail_one_cook_solve(monkeypatch)
        assert main(["cook", "--kinds", "quad", "--levels", "2,3", "--nus",
                     "0.3333333333333333,0.49", "--csv",
                     str(tmp_path / "k.csv")]) == 3
        assert "synthetic singular system" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_mesh_file_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "big.msh"
        bad.write_text("vemhr-mesh v1\n4\n0 0\n1e308 0\n1 1\n0 1\n1\n"
                       "0 1 2 3\n")
        out = tmp_path / "o.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--problem", "test-a", "--mesh", str(bad),
                         "--out", str(out)]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_cook_command(self, tmp_path):
        csv = tmp_path / "k.csv"
        assert main(["cook", "--kinds", "quad", "--levels", "2,4", "--nus",
                     "0.3333333333333333", "--csv", str(csv)]) == 0
        assert csv.read_text().count("\n") == 3

    @pytest.mark.parametrize("flags", [
        ("--kinds", "quad,quad", "--nus", "0.3"),
        ("--kinds", "quad", "--nus", "0.3,0.3"),
        ("--kinds", "quad", "--nus", "0.499995,0.4999951")],
        ids=["kinds", "nus", "nus_print_alike"])
    def test_cook_repeated_setting_writes_nothing(self, tmp_path, capsys,
                                                  flags):
        assert main(["cook", *flags, "--levels", "2", "--csv",
                     str(tmp_path / "dup.csv"), "--vtk",
                     str(tmp_path / "dup.vtk")]) == 2
        assert "of distinct" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_cook_nus_out_of_range(self, tmp_path, capsys):
        csv = tmp_path / "k.csv"
        assert main(["cook", "--kinds", "quad", "--levels", "2", "--nus",
                     "0.6", "--csv", str(csv)]) == 2
        assert "cook_nus must be" in capsys.readouterr().err
        assert not csv.exists()

    def test_validation_exit_code(self, tmp_path):
        # unknown mesh kind is an argparse choice error -> SystemExit(2)
        with pytest.raises(SystemExit) as exc:
            main(["mesh", "gen", "--kind", "nope", "--n", "2", "--out",
                  str(tmp_path / "x.msh")])
        assert exc.value.code == 2

    def test_missing_required_flag(self, tmp_path):
        assert main(["mesh", "gen", "--kind", "quad_structured",
                     "--n", "2"]) == 2

    @pytest.mark.parametrize("argv, match", [
        (["solve", "--problem", "test-a"], "solve requires"),
        (["convergence", "--problem", "test-a"], "convergence requires"),
        (["cook", "--kinds", "quad"], "cook requires --csv")],
        ids=["solve", "convergence", "cook"])
    def test_solve_and_study_required_flags(self, capsys, argv, match):
        assert main(argv) == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("kind = quad_structured\nn 3\n", "bad config line: n 3"),
        # argparse checks --domain, but not a config file's value
        ("kind = quad_structured\nn = 3\ndomain = moon\n",
         "unknown domain 'moon'")], ids=["no_equals", "unknown_domain"])
    def test_bad_mesh_gen_config(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "m.msh"
        assert main(["mesh", "gen", "--config", str(cfg), "--out",
                     str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_u_tiling_solve(self, tmp_path):
        # half the cells are not star-shaped about their centroid
        mesh_path, out = tmp_path / "u.msh", tmp_path / "s.txt"
        save_mesh(mesh_path, u_tiling(4))
        assert main(["solve", "--problem", "test-b", "--mesh", str(mesh_path),
                     "--out", str(out)]) == 0
        mesh = load_mesh(mesh_path)
        assert load_solution(out, mesh).edge_dofs.shape == (mesh.n_edges, 3)


    @pytest.mark.parametrize("text", [
        pytest.param("garbage\n", id="garbage"),
        pytest.param("vemhr-mesh v1\n", id="header_only"),
        pytest.param("vemhr-mesh v1\n4\n0 0\n1 0\n", id="cut_vertices"),
        pytest.param("vemhr-mesh v1\n4\n0 0\n1 0\n1 1\n0 1\n",
                     id="no_cell_count"),
        pytest.param("vemhr-mesh v1\n4\n0 0\n1 0\n1 1\n0 1\n1\n",
                     id="cut_cells"),
        pytest.param("vemhr-mesh v1\n4\n0 0\n1 0\n1 x\n0 1\n1\n0 1 2 3\n",
                     id="non_numeric"),
        pytest.param("vemhr-mesh v1\n4\n0 0\n1 0\n1 1\n0 1\n1\n0 1 2 7\n",
                     id="vertex_id_range"),
        pytest.param("vemhr-mesh v1\n4\n0 0 0\n1 0\n1 1\n0 1\n1\n0 1 2 3\n",
                     id="ragged_vertex"),
        pytest.param("vemhr-mesh v1\n4\n0 0\n1 0\n1 1\n0 1\n1\n0 1 2.5 3\n",
                     id="float_vertex_id"),
    ])
    def test_bad_mesh_file(self, tmp_path, text):
        bad = tmp_path / "bad.msh"
        bad.write_text(text)
        assert main(["solve", "--problem", "test-a", "--mesh", str(bad),
                     "--out", str(tmp_path / "o.txt")]) == 2

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch):
        from vemhr import cli
        from vemhr.assembly import SolverError

        def boom(*a, **k):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "solve", boom)
        mesh_path = tmp_path / "m.msh"
        main(["mesh", "gen", "--kind", "quad_structured", "--n", "2",
              "--out", str(mesh_path)])
        assert main(["solve", "--problem", "test-a", "--mesh", str(mesh_path),
                     "--out", str(tmp_path / "o.txt")]) == 3

    def test_config_file_merge(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = quad_structured\n# comment\nn = 3\n"
                       "  # indented comment\n")
        out = tmp_path / "m.msh"
        assert main(["mesh", "gen", "--config", str(cfg), "--out",
                     str(out)]) == 0
        assert load_mesh(out).n_cells == 9

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = quad_structured\nn = 3\n")
        out = tmp_path / "m.msh"
        assert main(["mesh", "gen", "--config", str(cfg), "--n", "2",
                     "--out", str(out)]) == 0
        assert load_mesh(out).n_cells == 4

    def test_convergence_sidecar_replays(self, tmp_path):
        csv = tmp_path / "a.csv"
        assert main(["convergence", "--problem", "test-b", "--kind",
                     "poly_voronoi_random", "--levels", "2,4", "--stab",
                     "stab1bis", "--seed", "3", "--csv", str(csv)]) == 0
        first = csv.read_bytes()
        sidecar = (tmp_path / "a.csv.cfg").read_text()
        assert "stabilization = stab1bis" in sidecar
        csv.unlink()
        # the sidecar alone names the CSV and every setting of the run
        assert main(["convergence", "--config",
                     str(tmp_path / "a.csv.cfg")]) == 0
        assert csv.read_bytes() == first
        # stab1 gives other numbers, so the replay did not fall back to it
        stab1 = tmp_path / "b.csv"
        assert main(["convergence", "--config", str(tmp_path / "a.csv.cfg"),
                     "--stab", "stab1", "--csv", str(stab1)]) == 0
        assert stab1.read_bytes() != first

    def test_sidecar_with_hash_in_path_replays(self, tmp_path):
        # '#' inside a value is part of it: only a line that starts with '#'
        # is a comment
        csv = tmp_path / "run#1.csv"
        assert main(["convergence", "--problem", "test-a", "--kind",
                     "quad_structured", "--levels", "2,4", "--csv",
                     str(csv)]) == 0
        first = csv.read_bytes()
        csv.unlink()
        assert main(["convergence", "--config",
                     str(tmp_path / "run#1.csv.cfg")]) == 0
        assert csv.read_bytes() == first
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run#1.csv", "run#1.csv.cfg"]

    def test_cook_sidecar_replays(self, tmp_path):
        csv, vtk = tmp_path / "k.csv", tmp_path / "k.vtk"
        assert main(["cook", "--kinds", "quad,rvor", "--levels", "2,3",
                     "--nus", "0.3333333333333333", "--seed", "2",
                     "--csv", str(csv), "--vtk", str(vtk)]) == 0
        first = {p.name: p.read_bytes() for p in tmp_path.glob("k*.*")
                 if p.suffix != ".cfg"}
        assert len(first) == 3  # the CSV and a VTK per kind
        for name in first:
            (tmp_path / name).unlink()
        assert main(["cook", "--config", str(tmp_path / "k.csv.cfg")]) == 0
        assert {p.name: p.read_bytes() for p in tmp_path.glob("k*.*")
                if p.suffix != ".cfg"} == first

    def test_numpy_nus_sidecar_replays(self, tmp_path):
        # numpy ratios are kept as Python floats, so the sidecar holds
        # numbers, and a float32 ratio's material is computed in double
        csv = tmp_path / "k.csv"
        config = RunConfig(problem="cook", cook_kinds=("quad",), levels=(2,),
                           cook_nus=(np.float64(0.3), np.float32(0.499995)),
                           csv_path=str(csv))
        assert [type(nu) for nu in config.cook_nus] == [float, float]
        run_cook(config)
        first = csv.read_bytes()
        csv.unlink()
        assert main(["cook", "--config", str(csv) + ".cfg"]) == 0
        assert csv.read_bytes() == first

    @pytest.mark.parametrize("argv", [
        ["convergence", "--problem", "test-a", "--kind", "quad_structured",
         "--levels", "2,4", "--csv", "nodir/c.csv"],
        ["cook", "--kinds", "quad,rvor", "--levels", "2,4", "--nus", "0.3",
         "--csv", "nodir/k.csv", "--vtk", "k.vtk"],
        ["cook", "--kinds", "quad", "--levels", "2", "--nus", "0.3",
         "--csv", "k.csv", "--vtk", "nodir/k.vtk"]],
        ids=["convergence", "cook-csv", "cook-vtk"])
    def test_missing_output_directory_writes_nothing(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     argv):
        # the run fails before its first mesh, and writes no file
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(runner, "generate_mesh", no_mesh)
        assert main(argv) == 2
        assert "nodir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_none_reads_as_none(self, tmp_path):
        csv = tmp_path / "k.csv"
        assert main(["cook", "--kinds", "quad", "--levels", "2",
                     "--nus", "0.3", "--csv", str(csv)]) == 0
        assert "vtk_path = None" in (tmp_path / "k.csv.cfg").read_text()
        csv.unlink()
        assert main(["cook", "--config", str(tmp_path / "k.csv.cfg")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["k.csv", "k.csv.cfg"]

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = quad_structured\nn = 3\nseeed = 5\n")
        out = tmp_path / "m.msh"
        assert main(["mesh", "gen", "--config", str(cfg), "--out",
                     str(out)]) == 2
        assert "seeed" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicated_config_key(self, tmp_path, capsys):
        # the last value does not silently win: nothing runs
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = test-a\nkind = quad_structured\n"
                       "levels = 2,4\nlevels = 4,8\n")
        csv = tmp_path / "c.csv"
        assert main(["convergence", "--config", str(cfg), "--csv",
                     str(csv)]) == 2
        assert "key levels given twice" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_run_config_fields(self):
        assert [f for f in RunConfig.__dataclass_fields__] == [
            "problem", "kind", "levels", "cook_kinds", "cook_nus",
            "stabilization", "seed", "csv_path", "vtk_path"]
        assert RunConfig().solver_tol == 1e-10


# A fresh interpreter imports vemhr, solves Cook on mesh files through the
# CLI (each solution next to its mesh), records which scipy modules are
# loaded, then generates meshes.
COLD_START = """
import contextlib, io, json, sys
import numpy as np
import vemhr, vemhr.cli, vemhr.runner

*mesh_paths, arrays_path = sys.argv[1:]
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    codes = [vemhr.cli.main(["solve", "--problem", "cook", "--mesh", path,
                             "--out", path[:-4] + ".txt"])
             for path in mesh_paths]
after_solve = [m for m in MODULES if m in sys.modules]
meshes = [vemhr.generate_mesh(kind, n) for kind, n in KINDS]
np.savez(arrays_path, **{f"{i}_{name}": getattr(mesh, name)
                         for i, mesh in enumerate(meshes) for name in ARRAYS})
print(json.dumps({"exit": codes, "printed": printed.getvalue().splitlines(),
                  "after_solve": after_solve,
                  "after_generate": [m for m in MODULES if m in sys.modules]}))
"""
# the Cook meshes solved cold: 16 cells under minimum degree, 1024 cells
# under nested dissection
COLD_MESHES = (("quad_structured", 4), ("quad_unstructured", 32))
COLD_KINDS = (("poly_voronoi_cvt", 9), ("hex_structured", 4))
MESH_ARRAYS = ("vertices", "cell_offsets", "cell_vertex_ids", "cell_edge_ids",
               "edge_nodes")
GENERATOR_MODULES = ("scipy.spatial", "scipy.sparse.csgraph")
# loads with the first shape-regularity report, neither with a solve nor
# with a mesh
REPORT_MODULE = "scipy.optimize"


class TestColdStart:
    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cold")
        mesh_paths = [str(tmp / f"cook_{kind}_{n}.msh")
                      for kind, n in COLD_MESHES]
        for path, (kind, n) in zip(mesh_paths, COLD_MESHES):
            save_mesh(path, generate_mesh(kind, n, domain=cook_domain()))
        script = (f"KINDS = {COLD_KINDS!r}\nARRAYS = {MESH_ARRAYS!r}\n"
                  f"MODULES = {GENERATOR_MODULES + (REPORT_MODULE,)!r}\n"
                  + COLD_START)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(vemhr.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, *mesh_paths,
             str(tmp / "meshes.npz")],
            env=env, capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        return report, tmp, mesh_paths

    def test_solve_loads_no_generator_modules(self, cold):
        report, _, mesh_paths = cold
        assert report["exit"] == [0, 0]
        for path in mesh_paths:
            with open(path[:-4] + ".txt") as fh:
                assert fh.readline() == "vemhr-solution v1\n"
        assert [line.rsplit(", ", 1)[1] for line in report["printed"]] == [
            "ordering mmd", "ordering nested_dissection"]
        assert report["after_solve"] == []

    def test_generation_after_cold_solve(self, cold):
        report, tmp, _ = cold
        # the generator modules load with the meshes, REPORT_MODULE does not
        assert report["after_generate"] == list(GENERATOR_MODULES)
        with np.load(tmp / "meshes.npz") as arrays:
            for i, (kind, n) in enumerate(COLD_KINDS):
                mesh = generate_mesh(kind, n)
                for name in MESH_ARRAYS:
                    ref = getattr(mesh, name)
                    got = arrays[f"{i}_{name}"]
                    assert got.dtype == ref.dtype, (kind, name)
                    assert np.array_equal(got, ref), (kind, name)
