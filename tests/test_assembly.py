import os
import tempfile

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from vemhr import assembly
from vemhr.assembly import (DisplacementBC, DofMap, GlobalSystem, Solution,
                            SolveReport, SolverError, TractionBC, _Hybrid,
                            _scatter_blocks, apply_essential_traction,
                            assemble, inf_sup_constant, load_solution,
                            save_solution, solve, write_solution_text)
from vemhr.element import STABILIZATIONS, constant_stress_dofs
from vemhr.generators import MESH_KINDS, generate_mesh
from vemhr.material import from_lame
from vemhr.mesh import MeshError, build_topology, cook_domain
from vemhr.postproc import equilibrium_residuals
from vemhr.quadrature import mesh_polygon_quadrature
from vemhr.problems import ProblemSpec, problem_cook, problem_test_a, \
    problem_test_b

UNIT = generate_mesh("quad_structured", 1)


def patch_problem(u=None):
    """Homogeneous material with weak displacement data u on every edge."""
    if u is None:
        u = lambda p: np.stack([p[..., 0], 0 * p[..., 1]], axis=-1)
    bc = DisplacementBC(g=u)
    return ProblemSpec(name="patch", domain=None, material=from_lame(1.0, 1.0),
                       body_force=None, boundary=lambda m, e: bc, exact=None), u


class TestDofMap:
    def test_single_cell_square(self):
        problem, _ = patch_problem()
        system = assemble(UNIT, problem)
        assert system.dofmap.size == 15  # 12 stress + 3 displacement

    def test_two_cell_strip(self):
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        mesh = build_topology(verts, [[0, 1, 4, 3], [1, 2, 5, 4]])
        problem, _ = patch_problem()
        system = assemble(mesh, problem)
        assert system.dofmap.size == 3 * 7 + 3 * 2

    def test_contiguous_bijection(self):
        dm = DofMap(n_edges=5, n_cells=2)
        seen = np.concatenate([dm.edge_dofs(e) for e in range(5)]
                              + [dm.cell_dofs(c) for c in range(2)])
        assert np.array_equal(np.sort(seen), np.arange(dm.size))


class TestAssemble:
    def test_matrix_symmetric(self):
        problem, _ = patch_problem()
        mesh = generate_mesh("poly_voronoi_random", 12, seed=1)
        system = assemble(mesh, problem)
        assert abs(system.matrix - system.matrix.T).max() == 0.0

    def test_constant_stress_in_b_kernel(self):
        # interface rows of B vanish on any constant global stress field
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        mesh = build_topology(verts, [[0, 1, 4, 3], [1, 2, 5, 4]])
        problem, _ = patch_problem()
        system = assemble(mesh, problem)
        dm = system.dofmap
        x = np.zeros(dm.size)
        x[:dm.n_stress] = constant_stress_dofs(mesh, [2.0, 1.0, -0.5]).ravel()
        assert np.abs((system.matrix @ x)[dm.n_stress:]).max() < 1e-13


class TestPatchExactness:
    @pytest.mark.parametrize("kind,n", [("quad_structured", 3),
                                        ("tri_unstructured", 3),
                                        ("poly_voronoi_cvt", 9)])
    def test_general_linear_displacement(self, kind, n):
        mesh = generate_mesh(kind, n, seed=0)
        grad = np.array([[1.0, 2.0], [0.5, -0.7]])
        shift = np.array([0.3, -0.2])
        u = lambda p: shift + p @ grad.T
        problem, _ = patch_problem(u)
        solution = solve(assemble(mesh, problem))
        eps = np.array([grad[0, 0], grad[1, 1],
                        0.5 * (grad[0, 1] + grad[1, 0])])
        sigma0 = problem.material.stress(eps)
        assert_allclose(solution.edge_dofs,
                        constant_stress_dofs(mesh, sigma0), atol=1e-11)

    def test_rigid_motion_gives_zero_stress(self):
        mesh = generate_mesh("quad_structured", 3)
        u = lambda p: np.stack([1.0 + 2.0 * (p[..., 1] - 0.5),
                                -2.0 * (p[..., 0] - 0.5)], axis=-1)
        problem, _ = patch_problem(u)
        solution = solve(assemble(mesh, problem))
        assert np.abs(solution.edge_dofs).max() < 1e-11


class TestEquilibrium:
    def test_zero_load_divergence_machine_precision(self):
        problem = problem_test_a()
        mesh = generate_mesh("hex_structured", 8)
        solution = solve(assemble(mesh, problem))
        assert equilibrium_residuals(mesh, solution).max() < 1e-11

    def test_loaded_equilibrium_relative(self):
        problem = problem_test_b()
        mesh = generate_mesh("quad_structured", 8)
        solution = solve(assemble(mesh, problem))
        res = equilibrium_residuals(mesh, solution, problem.body_force)
        f_norm = np.pi**2 * 4.0  # scale of the load
        assert res.max() < 1e-10 * f_norm


class TestEssentialTraction:
    def test_traction_free_edge_zeroed(self):
        problem, _ = patch_problem()
        system = assemble(UNIT, problem)
        e = int(UNIT.boundary_edges[0])
        system.constrained_dofs = np.empty(0, dtype=int)
        system.constrained_values = np.empty(0)
        apply_essential_traction(system, e, None)
        assert_allclose(system.constrained_values, np.zeros(3))

    def test_cantilever_loaded_edge_moments(self):
        # constant traction (0, q) on the right edge: c = (0, q), d = 0
        mesh = generate_mesh("quad_structured", 4, domain=cook_domain())
        problem = problem_cook(1.0 / 3.0)
        system = assemble(mesh, problem)
        dm = system.dofmap
        right = [e for e in mesh.boundary_edges
                 if abs(mesh.edge_midpoints[e, 0] - 48.0) < 1e-9]
        assert right
        constrained = list(system.constrained_dofs)
        for e in right:
            idx = [constrained.index(d) for d in dm.edge_dofs(e)]
            assert_allclose(system.constrained_values[idx],
                            [0.0, 6.25, 0.0], atol=1e-12)

    def test_linear_normal_traction_moment(self):
        problem, _ = patch_problem()
        system = assemble(UNIT, problem)
        system.constrained_dofs = np.empty(0, dtype=int)
        system.constrained_values = np.empty(0)
        e = 0
        n = UNIT.edge_normals[e]
        mid = UNIT.edge_midpoints[e]
        sign = UNIT.boundary_sign(e)

        def traction(p):
            s = (p - mid) @ UNIT.edge_tangents[e]
            return sign * s[..., None] * n  # outward sense

        apply_essential_traction(system, e, traction)
        assert_allclose(system.constrained_values, [0.0, 0.0, 1.0],
                        atol=1e-13)

    def test_mixed_bc_patch_with_negative_sign_edge(self):
        # exact patch state imposed as traction on the left edge (whose
        # canonical normal points inward, sign -1) and displacement data on
        # the rest; checks the outward-sign folding of prescribed tractions
        mesh = generate_mesh("quad_structured", 3)
        mat = from_lame(1.0, 1.0)
        u = lambda p: np.stack([p[..., 0], 0 * p[..., 1]], axis=-1)
        sigma0 = mat.stress([1.0, 0.0, 0.0])  # (3, 1, 0)
        left_traction = lambda p: np.broadcast_to(
            np.array([-sigma0[0], 0.0]), p.shape)  # sigma . (-1, 0)

        def boundary(m, e):
            if abs(m.edge_midpoints[e, 0]) < 1e-12:
                return TractionBC(traction=left_traction)
            return DisplacementBC(g=u)

        problem = ProblemSpec(name="mixed-patch", domain=None, material=mat,
                              body_force=None, boundary=boundary, exact=None)
        solution = solve(assemble(mesh, problem))
        assert_allclose(solution.edge_dofs,
                        constant_stress_dofs(mesh, sigma0), atol=1e-11)

    def test_interior_edge_rejected(self):
        verts = [[0, 0], [1, 0], [0, 1], [1, 1]]
        mesh = build_topology(verts, [[0, 1, 2], [1, 3, 2]])
        problem, _ = patch_problem()
        system = assemble(mesh, problem)
        e = int(mesh.interior_edges[0])
        with pytest.raises(MeshError, match=f"edge {e} is interior"):
            apply_essential_traction(system, [0, e], None)

    def test_double_constraint_rejected(self):
        problem, _ = patch_problem()
        system = assemble(UNIT, problem)
        system.constrained_dofs = np.empty(0, dtype=int)
        system.constrained_values = np.empty(0)
        apply_essential_traction(system, 0, None)
        with pytest.raises(ValueError, match="edge 0 already constrained"):
            apply_essential_traction(system, [1, 0], None)
        with pytest.raises(ValueError, match="edge 2 already constrained"):
            apply_essential_traction(system, [2, 3, 2], None)
        assert_allclose(system.constrained_dofs, [0, 1, 2])

    def test_equal_conditions_evaluated_once(self):
        # a classifier returning a fresh but equal condition per edge still
        # batches: one traction evaluation for all its edges
        calls = []

        def traction(p):
            calls.append(p.shape)
            return np.zeros(p.shape)

        mesh = generate_mesh("quad_structured", 3)
        problem = ProblemSpec(
            name="t", domain=None, material=from_lame(1.0, 1.0),
            body_force=None, exact=None,
            boundary=lambda m, e: (TractionBC(traction=traction)
                                   if m.edge_midpoints[e, 1] > 1 - 1e-12
                                   else DisplacementBC()))
        system = assemble(mesh, problem)
        assert len(calls) == 1
        assert len(system.constrained_dofs) == 3 * 3


class TestSolve:
    def test_report_residual(self):
        problem = problem_test_a()
        mesh = generate_mesh("quad_structured", 8)
        solution = solve(assemble(mesh, problem))
        assert solution.report.residual < 1e-10
        assert solution.report.n_dof == 3 * (mesh.n_edges + mesh.n_cells)

    def test_inconsistent_all_essential_detected(self):
        # prescribing tractions on every edge out of equilibrium leaves
        # zero rows for the displacement tests: singular system
        mat = from_lame(1.0, 1.0)
        bc = TractionBC(traction=lambda p: np.broadcast_to(
            np.array([1.0, 0.0]), p.shape))
        problem = ProblemSpec(name="bad", domain=None, material=mat,
                              body_force=None, boundary=lambda m, e: bc,
                              exact=None)
        with pytest.raises(SolverError):
            solve(assemble(UNIT, problem))

    @pytest.mark.parametrize("balanced", [True, False],
                             ids=["balanced", "unbalanced"])
    @pytest.mark.parametrize("kind,n", [("quad_structured", 4),
                                        ("poly_voronoi_random", 16),
                                        ("tri_structured", 3)])
    def test_pure_traction_detected(self, kind, n, balanced):
        # sigma = I gives the traction n_out on every side: the loads are
        # in equilibrium, and only the rigid-motion kernel is left to make
        # the system singular
        mesh = generate_mesh(kind, n, seed=0)
        problem = pure_traction_problem(balanced)
        with pytest.raises(SolverError):
            solve(assemble(mesh, problem))

    def test_pure_traction_names_rigid_motions(self):
        mesh = generate_mesh("quad_structured", 4)
        with pytest.raises(SolverError, match="rigid motions are a kernel"):
            solve(assemble(mesh, pure_traction_problem(True)))

    def test_singular_local_block_reported(self):
        mesh = generate_mesh("quad_structured", 3)
        system = assemble(mesh, problem_test_a())
        g, A, B = system.blocks[0]
        system.blocks[0] = (g, A, np.zeros_like(B))
        with pytest.raises(SolverError, match="singular local saddle point"):
            solve(system)

    def test_single_cell_has_no_multipliers(self):
        problem, _ = patch_problem()
        solution = solve(assemble(UNIT, problem))
        assert solution.report.lu_nnz == 0
        assert_allclose(solution.edge_dofs, constant_stress_dofs(
            UNIT, problem.material.stress([1.0, 0.0, 0.0])), atol=1e-13)

    def test_factor_seconds_reported(self):
        solution = solve(assemble(generate_mesh("quad_structured", 8),
                                  problem_test_a()))
        assert 0.0 < solution.report.factor_s < 60.0
        problem, _ = patch_problem()
        assert solve(assemble(UNIT, problem)).report.factor_s == 0.0

    def test_lu_nnz_counts_both_factors(self):
        hybrid = _Hybrid(assemble(generate_mesh("quad_unstructured", 6, seed=1),
                                  problem_test_b()))
        assert hybrid.lu_nnz == hybrid.lu.L.nnz + hybrid.lu.U.nnz > 0

    def test_lu_nnz_below_saddle_colamd(self):
        mesh = generate_mesh("quad_structured", 32)
        system = assemble(mesh, problem_test_b())
        solution = solve(system)
        lu = spla.splu(system.eliminated()[0].tocsc(), permc_spec="COLAMD")
        assert 0 < solution.report.lu_nnz < lu.L.nnz + lu.U.nnz


UNIT_SIDE_NORMALS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0],
                              [0.0, 1.0]])


def unit_side(mesh, e):
    """Side of the unit square holding boundary edge e: left, right,
    bottom, top as 0..3 (the rows of UNIT_SIDE_NORMALS)."""
    x, y = mesh.edge_midpoints[e]
    return int(np.argmin([x, 1.0 - x, y, 1.0 - y]))


def constant_traction(t):
    return TractionBC(traction=lambda p: np.broadcast_to(t, p.shape))


def pure_traction_problem(balanced):
    """Prescribed traction on every boundary edge of the unit square:
    sigma = I (traction n_out per side) or the net force (1, 0) per unit
    length everywhere."""
    if balanced:
        bcs = [constant_traction(n) for n in UNIT_SIDE_NORMALS]
        boundary = lambda m, e: bcs[unit_side(m, e)]
    else:
        bc = constant_traction(np.array([1.0, 0.0]))
        boundary = lambda m, e: bc
    return ProblemSpec(name="pure-traction", domain=None,
                       material=from_lame(1.0, 1.0), body_force=None,
                       boundary=boundary, exact=None)


class TestHybridSolve:
    """The hybridised solve against a dense solve of the eliminated saddle
    point, with weak displacement data on the right and top sides,
    prescribed tractions on the left and bottom ones, and a body load."""

    SIZES = {"tri_structured": 3, "quad_structured": 3, "hex_structured": 3,
             "tri_unstructured": 3, "quad_unstructured": 3,
             "poly_voronoi_random": 16, "poly_voronoi_cvt": 16}

    @staticmethod
    def mixed_problem():
        left = TractionBC(traction=lambda p: np.stack(
            [np.sin(p[..., 1]), p[..., 1] ** 2], axis=-1))
        bottom = TractionBC(traction=lambda p: np.stack(
            [p[..., 0], 1.0 - p[..., 0]], axis=-1))
        disp = DisplacementBC(g=lambda p: np.stack(
            [p[..., 1] ** 2, np.sin(p[..., 0])], axis=-1))
        bcs = [left, disp, bottom, disp]
        return ProblemSpec(
            name="mixed", domain=None, material=from_lame(2.0, 1.0),
            body_force=lambda p: np.stack(
                [1.0 + p[..., 0], p[..., 0] * p[..., 1]], axis=-1),
            boundary=lambda m, e: bcs[unit_side(m, e)], exact=None)

    @pytest.mark.parametrize("stabilization", STABILIZATIONS)
    @pytest.mark.parametrize("kind", MESH_KINDS)
    def test_matches_dense_solve(self, kind, stabilization):
        mesh = generate_mesh(kind, self.SIZES[kind], seed=0)
        system = assemble(mesh, self.mixed_problem(), stabilization)
        traction_edges = np.unique(system.constrained_dofs // 3)
        assert (mesh.boundary_sign(traction_edges) < 0).any()
        solution = solve(system)
        m, rhs = system.eliminated()
        dense = m.toarray()
        # one refinement step keeps the reference's own round-off (up to
        # 3e-13 relative here, at condition numbers near 5e5) off the bound
        ref = np.linalg.solve(dense, rhs)
        ref += np.linalg.solve(dense, rhs - dense @ ref)
        x = np.concatenate([solution.edge_dofs.ravel(),
                            solution.cell_motions.ravel()])
        scale = np.abs(ref).max()
        assert np.abs(x - ref).max() <= 1e-12 * scale

        # the two torn copies of every interior edge's DOFs agree
        lo = np.full(system.dofmap.n_stress, np.inf)
        hi = np.full(system.dofmap.n_stress, -np.inf)
        for (g, _, _), y in zip(system.blocks,
                                _Hybrid(system).local_solutions(rhs)):
            gdof = 3 * g.edge_ids[:, :, None] + np.arange(3)
            np.minimum.at(lo, gdof.ravel(), y[:, :g.ndof].ravel())
            np.maximum.at(hi, gdof.ravel(), y[:, :g.ndof].ravel())
        assert (hi - lo).max() <= 1e-12 * scale


class TestBlockOperator:
    """The solve path applies the eliminated saddle point from the local
    blocks; the global matrix is built only when asked for."""

    def test_solve_never_forms_global_matrix(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("global matrix formed")

        mesh = generate_mesh("poly_voronoi_random", 16, seed=0)
        system = assemble(mesh, TestHybridSolve.mixed_problem())
        assert len(system.constrained_dofs) > 0
        monkeypatch.setattr(assembly, "_scatter_blocks", boom)
        monkeypatch.setattr(GlobalSystem, "eliminated", boom)
        solution = solve(system)
        assert solution.report.residual < 1e-10
        assert "matrix" not in vars(system)

    @pytest.mark.parametrize("stabilization", STABILIZATIONS)
    @pytest.mark.parametrize("kind", MESH_KINDS)
    def test_matches_eliminated_matrix(self, kind, stabilization):
        mesh = generate_mesh(kind, TestHybridSolve.SIZES[kind], seed=0)
        system = assemble(mesh, TestHybridSolve.mixed_problem(),
                          stabilization)
        assert len(system.constrained_dofs) > 0
        m, rhs = system.eliminated()
        hybrid = _Hybrid(system)
        x = np.random.default_rng(5).standard_normal(system.dofmap.size)
        ref = m @ x
        assert (np.abs(hybrid.apply(x) - ref).max()
                <= 1e-14 * np.abs(ref).max())
        assert np.abs(hybrid.rhs - rhs).max() <= 1e-14 * np.abs(rhs).max()

    @pytest.mark.parametrize("kind", ["quad_structured",
                                      "poly_voronoi_random"])
    def test_lazy_matrix_equals_scatter(self, kind):
        mesh = generate_mesh(kind, 16 if kind.startswith("poly") else 4,
                             seed=0)
        system = assemble(mesh, problem_test_b())
        ref = _scatter_blocks(mesh, system.blocks).tocsr()
        matrix = system.matrix
        assert matrix is system.matrix  # built once
        for name in ("indptr", "indices", "data"):
            a, b = getattr(matrix, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestInfSup:
    def test_no_collapse_under_refinement(self):
        mat = from_lame(1.0, 1.0)
        values = [inf_sup_constant(generate_mesh("quad_structured", n), mat)
                  for n in (2, 4, 8)]
        assert all(v > 0 for v in values)
        for coarse, fine in zip(values, values[1:]):
            assert fine > 1e-3 * coarse  # no degeneration across levels


class TestSolutionIO:
    def test_roundtrip(self, tmp_path):
        problem = problem_test_a()
        mesh = generate_mesh("quad_structured", 3)
        solution = solve(assemble(mesh, problem))
        path = tmp_path / "sol.txt"
        save_solution(path, solution)
        back = load_solution(path, mesh)
        assert np.array_equal(back.edge_dofs, solution.edge_dofs)
        assert np.array_equal(back.cell_motions, solution.cell_motions)
        assert back.report.residual == solution.report.residual

    def test_factor_seconds_not_stored(self, tmp_path):
        mesh = generate_mesh("quad_structured", 3)
        path = tmp_path / "sol.txt"
        save_solution(path, solve(assemble(mesh, problem_test_a())))
        assert np.isnan(load_solution(path, mesh).report.factor_s)

    @settings(max_examples=30, deadline=None)
    @given(edge=arrays(float, st.tuples(st.integers(1, 6), st.just(3))),
           cells=arrays(float, st.tuples(st.integers(1, 4), st.just(3))),
           residual=st.floats(0.0, 1e-8), n_constrained=st.integers(0, 99))
    def test_roundtrip_property(self, edge, cells, residual, n_constrained):
        """Any float arrays (nan, infinities, subnormals, -0.0 included)
        read back bit for bit; a nan reads back as a nan."""
        report = SolveReport(n_dof=3 * (len(edge) + len(cells)),
                             n_constrained=n_constrained, residual=residual,
                             tolerance=1e-10, lu_nnz=0, factor_s=0.0)
        text = write_solution_text(
            Solution(mesh=None, edge_dofs=edge, cell_motions=cells,
                     report=report), checksum="abc")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sol.txt")
            with open(path, "w") as fh:
                fh.write(text)
            back = load_solution(path)
        for a, b in ((back.edge_dofs, edge), (back.cell_motions, cells)):
            assert a.shape == b.shape
            assert np.array_equal(np.isnan(a), np.isnan(b))
            ok = ~np.isnan(b)
            assert a[ok].tobytes() == b[ok].tobytes()
        assert back.report.residual == residual
        assert back.report.n_constrained == n_constrained

    def test_text_matches_per_value_reference(self, tmp_path):
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, -1e308,
                   1e-300, 1.0 / 3.0]
        rng = np.random.default_rng(2)
        edge = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(
            -30, 30, (7, 3))
        edge.ravel()[:len(special)] = special
        cells = np.array([[0.1, -0.0, 2.0], [np.nan, 1e-320, -7.0]])
        report = SolveReport(n_dof=27, n_constrained=3, residual=2.5e-15,
                             tolerance=1e-10, lu_nnz=0, factor_s=0.0)
        text = write_solution_text(
            Solution(mesh=None, edge_dofs=edge, cell_motions=cells,
                     report=report), checksum="abc")
        lines = ["vemhr-solution v1", "mesh_checksum abc",
                 f"residual {2.5e-15:.17g}", "n_constrained 3", "7"]
        lines += [" ".join(f"{v:.17g}" for v in row) for row in edge]
        lines.append("2")
        lines += [" ".join(f"{v:.17g}" for v in row) for row in cells]
        assert text == "\n".join(lines) + "\n"
        path = tmp_path / "sol.txt"
        path.write_text(text)
        back = load_solution(path)
        assert back.edge_dofs.tobytes() == edge.tobytes()
        assert np.array_equal(back.cell_motions, cells, equal_nan=True)

    @pytest.mark.parametrize("cut", ["header_only", "rows", "non_numeric",
                                     "count_vs_rows", "count_vs_mesh",
                                     "ragged_row"])
    def test_malformed_rejected(self, tmp_path, cut):
        mesh = generate_mesh("quad_structured", 3)
        solution = solve(assemble(mesh, problem_test_a()))
        path = tmp_path / "sol.txt"
        save_solution(path, solution)
        lines = path.read_text().splitlines()
        ne = mesh.n_edges
        if cut == "header_only":
            lines = lines[:2]
        elif cut == "rows":
            lines = lines[:10]
        elif cut == "non_numeric":
            lines[7] = "1.0 x 2.0"
        elif cut == "count_vs_rows":
            lines[4] = str(ne - 1)
        elif cut == "ragged_row":
            lines[7] = "1.0 2.0"
        else:  # consistent file, one edge short of the mesh
            lines = (lines[:4] + [str(ne - 1)] + lines[5:4 + ne]
                     + lines[5 + ne:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_solution(path, mesh)

    def test_checksum_mismatch_rejected(self, tmp_path):
        problem = problem_test_a()
        mesh = generate_mesh("quad_structured", 3)
        solution = solve(assemble(mesh, problem))
        path = tmp_path / "sol.txt"
        save_solution(path, solution)
        other = generate_mesh("quad_structured", 4)
        with pytest.raises(ValueError, match="does not match"):
            load_solution(path, other)


class TestNonStarCell:
    """A U-shaped cell (not star-shaped about its centroid) plus the cell
    filling its notch."""

    VERTS = [[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1], [1, 2], [0, 2]]
    CELLS = [list(range(8)), [5, 4, 3, 6]]

    def test_exact_geometry(self):
        mesh = build_topology(self.VERTS, self.CELLS)
        assert_allclose(mesh.areas, [5.0, 1.0], rtol=1e-15)
        assert_allclose(mesh.centroids[0], [1.5, 0.9], rtol=1e-15)
        assert_allclose(mesh.moment_tensors[0],
                        np.diag([53.0 / 12.0, 97.0 / 60.0]), rtol=1e-14,
                        atol=1e-15)

    def test_linear_displacement_patch(self):
        mesh = build_topology(self.VERTS, self.CELLS)
        grad = np.array([[1.0, 2.0], [0.5, -0.7]])
        problem, _ = patch_problem(lambda p: np.array([0.3, -0.2])
                                   + p @ grad.T)
        solution = solve(assemble(mesh, problem))
        eps = np.array([grad[0, 0], grad[1, 1],
                        0.5 * (grad[0, 1] + grad[1, 0])])
        assert_allclose(solution.edge_dofs, constant_stress_dofs(
            mesh, problem.material.stress(eps)), rtol=0, atol=1e-12)
        assert equilibrium_residuals(mesh, solution).max() < 1e-13

    def test_fan_quadrature_rejects_it(self):
        mesh = build_topology(self.VERTS, self.CELLS)
        with pytest.raises(ValueError, match="star-shaped"):
            mesh_polygon_quadrature(mesh, 2)
