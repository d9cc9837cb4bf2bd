from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vemhr.assembly import DisplacementBC, assemble, solve
from vemhr.element import constant_stress_dofs
from vemhr.generators import generate_mesh
from vemhr.material import from_lame
from vemhr.mesh import build_topology
from vemhr.postproc import (convergence_csv_text, convergence_rates,
                            error_div, error_sigma, error_u,
                            least_squares_slope, probe_displacement,
                            von_mises_field, write_vtk_polydata)
from vemhr.problems import ProblemSpec, problem_test_a

UNIT = build_topology([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])


def const_field(vec):
    vec = np.asarray(vec, dtype=float)
    return lambda p: np.broadcast_to(vec, p.shape[:-1] + (len(vec),))


def dirichlet_problem(u, material=None):
    bc = DisplacementBC(g=u)
    return ProblemSpec(name="t", domain=None,
                       material=material or from_lame(1.0, 1.0),
                       body_force=None, boundary=lambda m, e: bc, exact=None)


class TestErrorSigma:
    def test_exact_constant_gives_zero(self):
        sigma = np.array([1.0, -2.0, 0.5])
        table = constant_stress_dofs(UNIT, sigma)
        assert error_sigma(UNIT, table, const_field(sigma), kappa=1.0) < 1e-13

    def test_single_edge_contribution(self):
        # (sigma - sigma_h) n = n on one unit edge, kappa = 1: term |e| * 1
        table = constant_stress_dofs(UNIT, [1.0, 1.0, 0.0])
        broken = table.copy()
        broken[0] = 0.0
        # removing edge 0's DOFs leaves misfit c = sigma n_e, |misfit| = 1
        err = error_sigma(UNIT, broken, const_field([1.0, 1.0, 0.0]), kappa=1.0)
        assert_allclose(err, 1.0, rtol=1e-13)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        mesh = generate_mesh("poly_voronoi_random", 10, seed=6)
        problem = problem_test_a()
        sol = solve(assemble(mesh, problem))
        e1 = error_sigma(mesh, sol, problem.exact.stress,
                         problem.material.kappa)
        # rebuild the same mesh with permuted cell order
        order = rng.permutation(mesh.n_cells)
        permuted = build_topology(mesh.vertices,
                                  [mesh.cell_vertices[c] for c in order])
        sol2 = solve(assemble(permuted, problem))
        e2 = error_sigma(permuted, sol2, problem.exact.stress,
                         problem.material.kappa)
        assert_allclose(e1, e2, rtol=1e-10)


class TestErrorU:
    def test_projection_remainder(self):
        # u = (x, 0), u_h = (0.5, 0): error^2 = int (x - 1/2)^2 = 1/12
        cm = np.array([[0.5, 0.0, 0.0]])
        u = lambda p: np.stack([p[..., 0], 0 * p[..., 1]], axis=-1)
        assert_allclose(error_u(UNIT, cm, u), np.sqrt(1.0 / 12.0), rtol=1e-13)

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
        zero2 = lambda p: np.zeros(p.shape)
        assert error_sigma(mesh, sol, zero3, kappa=1.0) < 1e-9
        assert error_div(mesh, sol, zero2) < 1e-9
        assert error_u(mesh, sol, u) < 1e-9


class TestErrorDiv:
    def test_zero_load_machine_precision(self):
        problem = problem_test_a()
        mesh = generate_mesh("quad_structured", 8)
        sol = solve(assemble(mesh, problem))
        assert error_div(mesh, sol, problem.exact.divergence) < 1e-11

    def test_rigid_motion_load_exact(self):
        # f in RM(E) per cell: div sigma_h = -Pi_RM f = -f up to solver tol
        mesh = generate_mesh("quad_structured", 4)
        f = const_field([0.7, -0.3])
        bc = DisplacementBC(g=None)
        problem = ProblemSpec(name="rm-load", domain=None,
                              material=from_lame(1.0, 1.0), body_force=f,
                              boundary=lambda m, e: bc, exact=None)
        sol = solve(assemble(mesh, problem))
        div_exact = lambda p: -f(p)
        assert error_div(mesh, sol, div_exact) < 1e-10


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

    def test_window(self):
        h = np.array([0.8, 0.4, 0.2, 0.1])
        e = np.array([10.0, 1.0, 0.5, 0.25])  # slope 1 on the last 3
        table = convergence_rates(h, {"e": e})
        assert_allclose(table.slopes["e"], 1.0, rtol=1e-12)

    def test_nonmonotone_h_rejected(self):
        with pytest.raises(ValueError):
            convergence_rates([0.1, 0.2], {"e": [1.0, 2.0]})

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
        val = probe_displacement(mesh, cm, [0.9, 0.9])
        c = int(np.argmin(((mesh.centroids - [0.9, 0.9]) ** 2).sum(1)))
        assert_allclose(val, cm[c, :2])


class TestVonMisesField:
    def test_zero_stress(self):
        mesh = generate_mesh("quad_structured", 2)
        table = np.zeros((mesh.n_edges, 3))
        assert_allclose(von_mises_field(mesh, table, from_lame(1.0, 1.0)),
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
                           f"{sum(len(l) + 1 for l in mesh.cell_vertices)}")
        first = text[polys + 1].split()
        assert int(first[0]) == len(mesh.cell_vertices[0])

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
