from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vemhr.assembly import DisplacementBC, Solution, assemble, solve
from vemhr.element import interpolate_global
from vemhr.generators import UNIT_SQUARE, generate_mesh
from vemhr.material import from_lame
from vemhr.mesh import build_topology
from vemhr.postproc import (ROUNDOFF_FLOOR, RateTable, convergence_csv_text,
                            convergence_rates, equilibrium_residuals,
                            error_div, error_sigma, error_u,
                            least_squares_slope, probe_displacement,
                            von_mises_field, write_convergence_csv,
                            write_vtk_polydata)
from vemhr.problems import ProblemSpec, problem_test_a, problem_test_b

UNIT = build_topology([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])


def const_field(vec):
    vec = np.asarray(vec, dtype=float)
    return lambda p: np.broadcast_to(vec, p.shape[:-1] + (len(vec),))


def dofs_solution(mesh, edge_dofs=None, cell_motions=None):
    """A solution holding the given DOF tables (zeros where not given)."""
    return Solution(
        mesh=mesh,
        edge_dofs=(np.zeros((mesh.n_edges, 3)) if edge_dofs is None
                   else np.asarray(edge_dofs, dtype=float)),
        cell_motions=(np.zeros((mesh.n_cells, 3)) if cell_motions is None
                      else np.asarray(cell_motions, dtype=float)),
        report=None)


def dirichlet_problem(u, material=None):
    bc = DisplacementBC(g=u)
    return ProblemSpec(name="t", domain=UNIT_SQUARE,
                       material=material or from_lame(1.0, 1.0),
                       body_force=None, boundary=lambda m, e: bc, exact=None)


class TestErrorSigma:
    def test_exact_constant_gives_zero(self):
        sigma = np.array([1.0, -2.0, 0.5])
        sol = dofs_solution(UNIT, interpolate_global(UNIT, const_field(sigma)))
        material = from_lame(1.0, 1.0)
        assert error_sigma(UNIT, sol, const_field(sigma), material) < 1e-13

    def test_single_edge_contribution(self):
        # (sigma - sigma_h) n = n on one unit edge: term kappa * |e| * 1
        broken = interpolate_global(UNIT, const_field([1.0, 1.0, 0.0]))
        broken[0] = 0.0
        # removing edge 0's DOFs leaves misfit c = sigma n_e, |misfit| = 1
        for material in (from_lame(1.0, 1.0), from_lame(2.0, 0.5)):
            err = error_sigma(UNIT, dofs_solution(UNIT, broken),
                              const_field([1.0, 1.0, 0.0]), material)
            assert_allclose(err, np.sqrt(material.kappa), rtol=1e-13)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        mesh = generate_mesh("poly_voronoi_random", 10, seed=6)
        problem = problem_test_a()
        sol = solve(assemble(mesh, problem))
        e1 = error_sigma(mesh, sol, problem.exact.stress, problem.material)
        # rebuild the same mesh with permuted cell order
        order = rng.permutation(mesh.n_cells)
        loops = np.split(mesh.cell_vertex_ids, mesh.cell_offsets[1:-1])
        permuted = build_topology(mesh.vertices, [loops[c] for c in order])
        sol2 = solve(assemble(permuted, problem))
        e2 = error_sigma(permuted, sol2, problem.exact.stress,
                         problem.material)
        assert_allclose(e1, e2, rtol=1e-10)


class TestErrorU:
    def test_projection_remainder(self):
        # u = (x, 0), u_h = (0.5, 0): error^2 = int (x - 1/2)^2 = 1/12
        sol = dofs_solution(UNIT, cell_motions=[[0.5, 0.0, 0.0]])
        u = lambda p: np.stack([p[..., 0], 0 * p[..., 1]], axis=-1)
        assert_allclose(error_u(UNIT, sol, u), np.sqrt(1.0 / 12.0),
                        rtol=1e-13)

    def test_rigid_exact_solution_zero_error(self):
        mesh = generate_mesh("quad_structured", 3)
        u = lambda p: np.stack([0.3 + 0.7 * (p[..., 1] - 0.5),
                                -0.7 * (p[..., 0] - 0.5)], axis=-1)
        sol = solve(assemble(mesh, dirichlet_problem(u)))
        assert error_u(mesh, sol, u) < 1e-12


class TestPatchErrorsVanish:
    @pytest.mark.parametrize("kind,n", [("quad_structured", 3),
                                        ("hex_structured", 3),
                                        ("poly_voronoi_random", 9)])
    def test_rigid_patch_all_norms(self, kind, n):
        # rigid exact state: constant (zero) stress, displacement in the
        # discrete space; every error measure must vanish to solver precision
        mesh = generate_mesh(kind, n, seed=0)
        u = lambda p: np.stack([0.4 - 1.3 * (p[..., 1] - 0.2),
                                0.1 + 1.3 * (p[..., 0] - 0.2)], axis=-1)
        sol = solve(assemble(mesh, dirichlet_problem(u)))
        zero3 = const_field([0.0, 0.0, 0.0])
        assert error_sigma(mesh, sol, zero3, from_lame(1.0, 1.0)) < 1e-9
        assert error_div(mesh, sol, None) < 1e-9
        assert error_u(mesh, sol, u) < 1e-9


class TestErrorDiv:
    def test_zero_load_machine_precision(self):
        problem = problem_test_a()
        mesh = generate_mesh("quad_structured", 8)
        sol = solve(assemble(mesh, problem))
        assert error_div(mesh, sol, problem.body_force) < 1e-11

    def test_rigid_motion_load_exact(self):
        # f in RM(E) per cell: div sigma_h = -Pi_RM f = -f up to solver tol
        mesh = generate_mesh("quad_structured", 4)
        f = const_field([0.7, -0.3])
        bc = DisplacementBC(g=None)
        problem = ProblemSpec(name="rm-load", domain=UNIT_SQUARE,
                              material=from_lame(1.0, 1.0), body_force=f,
                              boundary=lambda m, e: bc, exact=None)
        sol = solve(assemble(mesh, problem))
        assert error_div(mesh, sol, f) < 1e-10


class TestSolutionOfAnotherMesh:
    """Every norm, probe and field takes a solution of the mesh it is given
    (the same object); another mesh's DOFs would be read against the wrong
    edges and cells, into an index error or a plausible wrong number."""

    READERS = {
        "error_sigma": lambda mesh, sol, p: error_sigma(
            mesh, sol, p.exact.stress, p.material),
        "error_div": lambda mesh, sol, p: error_div(mesh, sol, p.body_force),
        "error_u": lambda mesh, sol, p: error_u(mesh, sol,
                                                p.exact.displacement),
        "equilibrium_residuals": lambda mesh, sol, p: equilibrium_residuals(
            mesh, sol, p.body_force),
        "probe_displacement": lambda mesh, sol, p: probe_displacement(
            mesh, sol, [0.3, 0.6]),
        "von_mises_field": lambda mesh, sol, p: von_mises_field(
            mesh, sol, p.material),
    }

    @pytest.fixture(scope="class")
    def solved(self):
        problem = problem_test_b()
        mesh = generate_mesh("quad_structured", 4)
        return problem, mesh, solve(assemble(mesh, problem))

    @pytest.mark.parametrize("other", [
        ("quad_structured", 8), ("quad_structured", 2),
        ("quad_unstructured", 4), ("quad_structured", 4)],
        ids=["finer", "coarser", "same_size", "equal_copy"])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_rejected(self, solved, reader, other):
        problem, mesh, solution = solved
        self.READERS[reader](mesh, solution, problem)  # its own mesh reads
        with pytest.raises(ValueError, match="another mesh"):
            self.READERS[reader](generate_mesh(*other), solution, problem)


class TestRates:
    def test_linear_synthetic(self):
        h = np.array([0.4, 0.2, 0.1, 0.05])
        table = convergence_rates(h, {"e": 3.0 * h})
        assert_allclose(table.slopes["e"], 1.0, rtol=1e-12)

    def test_quadratic_synthetic(self):
        h = np.array([0.4, 0.2, 0.1, 0.05])
        table = convergence_rates(h, {"e": 0.7 * h**2})
        assert_allclose(table.slopes["e"], 2.0, rtol=1e-12)

    def test_zero_level_excluded(self):
        h = np.array([0.4, 0.2, 0.1])
        table = convergence_rates(h, {"e": np.array([0.4, 0.0, 0.1])})
        assert table.excluded["e"] == [1]
        assert np.isfinite(table.slopes["e"])

    def test_roundoff_levels_excluded(self):
        # test-a's E_sigma_div on quad_structured levels 4, 8, 16: a slope
        # through round-off is noise, as the CSV's blank rates say
        h = np.array([0.25, 0.125, 0.0625])
        table = convergence_rates(h, {"e": np.array([3.5e-15, 6.6e-15,
                                                     1.5e-14])})
        assert np.isnan(table.slopes["e"])
        assert table.excluded["e"] == [0, 1, 2]

    def test_window(self):
        h = np.array([0.8, 0.4, 0.2, 0.1])
        e = np.array([10.0, 1.0, 0.5, 0.25])  # slope 1 on the last 3
        table = convergence_rates(h, {"e": e})
        assert_allclose(table.slopes["e"], 1.0, rtol=1e-12)

    @pytest.mark.parametrize("name", ["slopes", "excluded"])
    def test_fit_results_are_not_arguments(self, name):
        # the fit fills them; a handed-in entry would outlive it
        with pytest.raises(TypeError, match=name):
            RateTable(np.array([0.4, 0.2]), {"e": [0.4, 0.2]},
                      **{name: {"E_u": 2.0}})

    def test_nonmonotone_h_rejected(self):
        with pytest.raises(ValueError):
            convergence_rates([0.1, 0.2], {"e": [1.0, 2.0]})

    @pytest.mark.parametrize("h", [[np.nan, 0.5, 0.25], [1.0, 0.0, -1.0]])
    def test_non_finite_or_non_positive_h_rejected(self, h):
        # a NaN h compares false with everything, so it passed the order test
        with pytest.raises(ValueError, match="h sequence must be positive"):
            convergence_rates(h, {"e": [1.0, 0.5, 0.25]})

    def test_length_mismatch_names_the_key(self):
        with pytest.raises(ValueError, match="E: 1 errors for 2 levels"):
            convergence_rates([0.5, 0.25], {"E": [1.0]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_non_finite_or_negative_error_names_the_key(self, bad):
        # a NaN level used to be dropped as round-off and left out of the fit
        with pytest.raises(ValueError, match="E_u: errors must be finite"):
            convergence_rates([0.5, 0.25, 0.125],
                              {"E_sigma": [1.0, 0.5, 0.25],
                               "E_u": [1.0, bad, 0.1]})

    def test_least_squares_slope_needs_two(self):
        with pytest.raises(ValueError):
            least_squares_slope([0.1], [1.0])


class TestProbe:
    def test_patch_value(self):
        u = lambda p: np.stack([p[..., 0], 0 * p[..., 1]], axis=-1)
        sol = solve(assemble(UNIT, dirichlet_problem(u)))
        assert_allclose(probe_displacement(UNIT, sol, [0.5, 0.5]),
                        [0.5, 0.0], atol=1e-12)

    def test_nearest_centroid_selection(self):
        mesh = generate_mesh("quad_structured", 2)
        cm = np.arange(mesh.n_cells * 3, dtype=float).reshape(-1, 3)
        val = probe_displacement(mesh, dofs_solution(mesh, cell_motions=cm),
                                 [0.9, 0.9])
        c = int(np.argmin(((mesh.centroids - [0.9, 0.9]) ** 2).sum(1)))
        assert_allclose(val, cm[c, :2])


class TestVonMisesField:
    def test_zero_stress(self):
        mesh = generate_mesh("quad_structured", 2)
        assert_allclose(von_mises_field(mesh, dofs_solution(mesh),
                                        from_lame(1.0, 1.0)),
                        np.zeros(mesh.n_cells))

    def test_pure_shear_constant(self):
        # u = gamma (y, x): sigma = (0, 0, 2 mu gamma) everywhere
        gamma = 0.25
        mat = from_lame(1.0, 1.0)
        mesh = generate_mesh("tri_structured", 3)
        u = lambda p: gamma * np.stack([p[..., 1], p[..., 0]], axis=-1)
        sol = solve(assemble(mesh, dirichlet_problem(u, mat)))
        vm = von_mises_field(mesh, sol, mat)
        assert_allclose(vm, np.sqrt(3.0) * 2 * mat.mu * gamma, rtol=1e-10)


class TestWriters:
    def test_csv_schema_and_rates(self):
        rows = [{"level": 8, "h_bar": 0.2, "n_dof": 100, "E_sigma": 1.0,
                 "E_sigma_div": 0.5, "E_u": 2.0},
                {"level": 16, "h_bar": 0.1, "n_dof": 400, "E_sigma": 0.5,
                 "E_sigma_div": 0.125, "E_u": 1.0}]
        text = convergence_csv_text(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ("level,h_bar,n_dof,E_sigma,E_sigma_div,E_u,"
                            "rate_sigma,rate_div,rate_u")
        assert lines[1].endswith(",,,")  # no rates on the first level
        rates = lines[2].split(",")[-3:]
        assert_allclose([float(r) for r in rates], [1.0, 2.0, 1.0],
                        atol=1e-12)

    def test_write_convergence_csv(self, tmp_path):
        rows = [{"level": 4, "h_bar": 0.25, "n_dof": 40, "E_sigma": 0.3,
                 "E_sigma_div": 1e-15, "E_u": 0.2},
                {"level": 8, "h_bar": 0.125, "n_dof": 160, "E_sigma": 0.15,
                 "E_sigma_div": 2e-15, "E_u": 0.1}]
        path = tmp_path / "c.csv"
        write_convergence_csv(path, rows)
        assert path.read_bytes() == convergence_csv_text(rows).encode()

    def test_csv_roundoff_errors_written_as_zero(self):
        # test-a's E_sigma_div is solver round-off: values that differ only
        # in their last digits must give the same bytes
        def rows(div):
            return [{"level": n, "h_bar": h, "n_dof": 10 * n, "E_sigma": e,
                     "E_sigma_div": d, "E_u": 2 * e}
                    for n, h, e, d in zip((8, 16), (0.2, 0.1), (1.0, 0.5),
                                          div)]
        text = convergence_csv_text(rows((3.0147e-14, 2.1e-14)))
        assert text == convergence_csv_text(rows((3.0149e-14, 2.3e-14)))
        assert text == convergence_csv_text(rows((ROUNDOFF_FLOOR, 0.0)))
        for line in text.strip().split("\n")[1:]:
            fields = line.split(",")
            assert fields[4] == "0.000000000000e+00"
            assert fields[7] == ""  # rate_div
        above = convergence_csv_text(rows((2.0 * ROUNDOFF_FLOOR, 0.5)))
        assert above.split("\n")[1].split(",")[4] == "2.000000000000e-10"

    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 3), (4, 1), (4, 2, 1),
                                       ()])
    def test_vtk_cell_data_shape_checked(self, tmp_path, shape):
        mesh = generate_mesh("quad_structured", 2)  # 4 cells
        path = tmp_path / "out.vtk"
        with pytest.raises(ValueError, match="cell data 'bad'"):
            write_vtk_polydata(path, mesh, {"ok": np.zeros(mesh.n_cells),
                                            "bad": np.ones(shape)})
        assert not path.exists()

    def test_vtk_structure(self, tmp_path):
        mesh = generate_mesh("quad_structured", 2)
        path = tmp_path / "out.vtk"
        write_vtk_polydata(path, mesh, {
            "displacement": np.zeros((mesh.n_cells, 2)),
            "von_mises": np.arange(mesh.n_cells, dtype=float),
        })
        text = path.read_text().split("\n")
        assert text[0].startswith("# vtk DataFile")
        assert f"POINTS {mesh.n_vertices} double" in text
        assert f"CELL_DATA {mesh.n_cells}" in text
        assert "VECTORS displacement double" in text
        assert "SCALARS von_mises double 1" in text
        polys = text.index(f"POLYGONS {mesh.n_cells} "
                           f"{len(mesh.cell_vertex_ids) + mesh.n_cells}")
        first = text[polys + 1].split()
        assert int(first[0]) == mesh.cell_offsets[1]

    @staticmethod
    def vtk_reference(mesh, cell_data, title):
        """The VTK text built one value at a time with ``f"{v:.12e}"``."""
        offsets = mesh.cell_offsets
        loops = [mesh.cell_vertex_ids[a:b]
                 for a, b in zip(offsets[:-1], offsets[1:])]
        lines = ["# vtk DataFile Version 3.0", title, "ASCII",
                 "DATASET POLYDATA", f"POINTS {mesh.n_vertices} double"]
        lines += [f"{x:.12e} {y:.12e} 0.0" for x, y in mesh.vertices]
        lines.append(f"POLYGONS {mesh.n_cells} "
                     f"{sum(len(loop) + 1 for loop in loops)}")
        lines += [" ".join([str(len(loop))] + [str(int(v)) for v in loop])
                  for loop in loops]
        lines.append(f"CELL_DATA {mesh.n_cells}")
        for name, arr in cell_data.items():
            if arr.ndim == 2:
                lines.append(f"VECTORS {name} double")
                lines += [f"{r[0]:.12e} {r[1]:.12e} 0.0" for r in arr]
            else:
                lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
                lines += [f"{v:.12e}" for v in arr]
        return "\n".join(lines) + "\n"

    def test_vtk_matches_per_value_reference(self, tmp_path):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308,
                            -1e-300, 1.0 / 3.0])
        mesh = generate_mesh("poly_voronoi_random", 9, seed=0)
        # write_vtk_polydata only reads the flat arrays, so a stand-in can
        # hold vertices build_topology would reject
        vertices = mesh.vertices.copy()
        vertices.ravel()[:len(special)] = special
        stand_in = SimpleNamespace(
            vertices=vertices, cell_offsets=mesh.cell_offsets,
            cell_vertex_ids=mesh.cell_vertex_ids, n_vertices=mesh.n_vertices,
            n_cells=mesh.n_cells)
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((mesh.n_cells, 2)) * 10.0 ** \
            rng.integers(-30, 30, (mesh.n_cells, 2))
        vectors.ravel()[:len(special)] = special[::-1]
        scalars = np.linspace(-1.0, 1.0, mesh.n_cells)
        scalars[:len(special)] = special
        cell_data = {"displacement": vectors, "von_mises": scalars}
        for m in (mesh, stand_in):
            path = tmp_path / "out.vtk"
            write_vtk_polydata(path, m, cell_data, title="reference")
            assert path.read_text() == self.vtk_reference(
                m, cell_data, "reference")
