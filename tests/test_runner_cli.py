import numpy as np
import pytest

from vemhr import quadrature, runner
from vemhr.assembly import TractionBC
from vemhr.cli import main
from vemhr.material import from_lame
from vemhr.mesh import load_mesh
from vemhr.postproc import CSV_HEADER, ROUNDOFF_FLOOR
from vemhr.problems import ProblemSpec, problem_test_b
from vemhr.runner import (COOK_KINDS, RunConfig, convergence_study,
                          cook_csv_text, mesh_for_level, run_convergence,
                          run_cook)


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
            RunConfig(problem="test-z").validate()
        with pytest.raises(ValueError):
            RunConfig(kind="bad").validate()
        with pytest.raises(ValueError):
            RunConfig(levels=()).validate()
        with pytest.raises(ValueError):
            run_convergence(RunConfig(problem="cook"))

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

    def test_cook_builds_each_mesh_once(self, monkeypatch, tmp_path):
        # one generate_mesh call per family for all its levels
        built = []
        build = runner.generate_mesh
        monkeypatch.setattr(runner, "generate_mesh", lambda kind, res, **kw:
                            built.append((kind, res)) or build(kind, res, **kw))
        cfg = RunConfig(problem="cook", cook_kinds=("quad", "rvor"),
                        levels=(2, 3), cook_nus=(1.0 / 3.0, 0.49),
                        csv_path=str(tmp_path / "cook.csv"),
                        vtk_path=str(tmp_path / "cook.vtk"))
        rows = run_cook(cfg)
        assert built == [("quad_structured", (2, 3)),
                         ("poly_voronoi_random", (4, 9))]
        assert [(r["kind"], r["nu"], r["level"]) for r in rows] == [
            (k, nu, lv) for k in ("quad", "rvor") for nu in (1.0 / 3.0, 0.49)
            for lv in (2, 3)]
        assert sorted(p.name for p in tmp_path.glob("*.vtk")) == [
            "cook_quad_nu0.333333.vtk", "cook_quad_nu0.49.vtk",
            "cook_rvor_nu0.333333.vtk", "cook_rvor_nu0.49.vtk"]

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
        rows, failures = convergence_study(problem_test_b(), "quad_structured",
                                           (2, 3), RunConfig())
        assert not failures and len(rows) == 2
        assert len(built) == 2

    def test_solver_error_is_a_failed_level(self):
        # tractions on every edge out of equilibrium: singular system
        bc = TractionBC(traction=lambda p: np.broadcast_to(
            np.array([1.0, 0.0]), p.shape))
        problem = ProblemSpec(name="bad", domain=None,
                              material=from_lame(1.0, 1.0), body_force=None,
                              boundary=lambda m, e: bc, exact=None)
        rows, failures = convergence_study(problem, "quad_structured", (1, 2),
                                           RunConfig())
        assert rows == []
        assert [lv for lv, _ in failures] == [1, 2]
        assert all(why.startswith("SolverError") for _, why in failures)

    def test_programming_error_propagates(self):
        def boundary(mesh, edge):
            raise TypeError("classifier bug")

        problem = ProblemSpec(name="bug", domain=None,
                              material=from_lame(1.0, 1.0), body_force=None,
                              boundary=boundary, exact=None)
        with pytest.raises(TypeError, match="classifier bug"):
            convergence_study(problem, "quad_structured", (1,), RunConfig())


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

    def test_convergence_command(self, tmp_path):
        csv = tmp_path / "c.csv"
        assert main(["convergence", "--problem", "test-a", "--kind",
                     "quad_structured", "--levels", "2,4", "--csv",
                     str(csv)]) == 0
        assert csv.exists()

    def test_cook_command(self, tmp_path):
        csv = tmp_path / "k.csv"
        assert main(["cook", "--kinds", "quad", "--levels", "2,4", "--nus",
                     "0.3333333333333333", "--csv", str(csv)]) == 0
        assert csv.read_text().count("\n") == 3

    def test_validation_exit_code(self, tmp_path):
        # unknown mesh kind is an argparse choice error -> SystemExit(2)
        with pytest.raises(SystemExit) as exc:
            main(["mesh", "gen", "--kind", "nope", "--n", "2", "--out",
                  str(tmp_path / "x.msh")])
        assert exc.value.code == 2

    def test_missing_required_flag(self, tmp_path):
        assert main(["mesh", "gen", "--kind", "quad_structured",
                     "--n", "2"]) == 2

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
        cfg.write_text("kind = quad_structured\nn = 3\n# comment\n")
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

    def test_run_config_fields(self):
        assert [f for f in RunConfig.__dataclass_fields__] == [
            "problem", "kind", "levels", "cook_kinds", "cook_nus",
            "stabilization", "seed", "csv_path", "vtk_path"]
        assert RunConfig().solver_tol == 1e-10
