import os
import tempfile
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from vemhr import assembly
from vemhr.assembly import (DisplacementBC, DofMap, GlobalSystem, Solution,
                            SolveReport, SolverError, TractionBC, _Hybrid,
                            _scatter_blocks, assemble, load_solution,
                            save_solution, solve, write_solution_text)
from vemhr.element import STABILIZATIONS, interpolate_global
from vemhr.generators import MESH_KINDS, UNIT_SQUARE, generate_mesh
from vemhr.material import from_lame
from vemhr.mesh import _dissection, build_topology, cook_domain, mesh_checksum
from vemhr.postproc import equilibrium_residuals
from vemhr.quadrature import mesh_polygon_quadrature
from vemhr.problems import ProblemSpec, problem_cook, problem_test_a, \
    problem_test_b

UNIT = generate_mesh("quad_structured", 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def constant_stress_table(mesh, sigma):
    """Edge DOFs of a constant stress: its edge-moment interpolant."""
    sigma = np.asarray(sigma, dtype=float)
    return interpolate_global(
        mesh, lambda p: np.broadcast_to(sigma, p.shape[:-1] + (3,)))


def patch_problem(u=None):
    """Homogeneous material with weak displacement data u on every edge."""
    if u is None:
        u = lambda p: np.stack([p[..., 0], 0 * p[..., 1]], axis=-1)
    bc = DisplacementBC(g=u)
    return ProblemSpec(name="patch", domain=UNIT_SQUARE,
                       material=from_lame(1.0, 1.0), body_force=None,
                       boundary=lambda m, e: bc, exact=None), u


def one_traction_edge_problem(edge, traction=None):
    """Homogeneous material with a prescribed traction on one boundary edge
    and zero weak displacement data on the others."""
    bc = TractionBC(traction=traction)
    return ProblemSpec(name="one-traction-edge", domain=UNIT_SQUARE,
                       material=from_lame(1.0, 1.0), body_force=None,
                       boundary=lambda m, e: bc if e == edge
                       else DisplacementBC(), exact=None)


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
        # 3 stress DOFs per edge, then 3 displacement DOFs per cell
        assert (dm.n_stress, dm.n_displacement, dm.size) == (15, 6, 21)


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
        x[:dm.n_stress] = constant_stress_table(mesh, [2.0, 1.0, -0.5]).ravel()
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
        # lam tr(eps) I + 2 mu eps at lam = mu = 1: eps = (1, -0.7, 1.25)
        sigma0 = [2.3, -1.1, 2.5]
        assert_allclose(solution.edge_dofs,
                        constant_stress_table(mesh, sigma0), atol=1e-11)

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
        e = int(UNIT.boundary_edges[0])
        system = assemble(UNIT, one_traction_edge_problem(e))
        assert_allclose(system.constrained_dofs, 3 * e + np.arange(3))
        assert_allclose(system.rhs[system.constrained_dofs], np.zeros(3))

    def test_cantilever_loaded_edge_moments(self):
        # constant traction (0, q) on the right edge: c = (0, q), d = 0
        mesh = generate_mesh("quad_structured", 4, domain=cook_domain())
        problem = problem_cook(1.0 / 3.0)
        system = assemble(mesh, problem)
        right = [e for e in mesh.boundary_edges
                 if abs(mesh.edge_midpoints[e, 0] - 48.0) < 1e-9]
        assert right
        constrained = list(system.constrained_dofs)
        values = system.rhs[system.constrained_dofs]
        for e in right:
            # the stress DOFs of edge e are 3e, 3e + 1, 3e + 2
            idx = [constrained.index(d) for d in range(3 * e, 3 * e + 3)]
            assert_allclose(values[idx], [0.0, 6.25, 0.0], atol=1e-12)

    def test_each_traction_edge_fixed_once(self):
        # the classifier gives every boundary edge one condition: the
        # constrained DOFs are the 3 DOFs of each traction edge, each once
        mesh = generate_mesh("quad_structured", 4, domain=cook_domain())
        problem = problem_cook(1.0 / 3.0)
        edges = [e for e in mesh.boundary_edges
                 if isinstance(problem.boundary(mesh, int(e)), TractionBC)]
        system = assemble(mesh, problem)
        dofs = system.constrained_dofs
        assert len(np.unique(dofs)) == len(dofs)
        assert np.array_equal(np.sort(dofs), (3 * np.sort(edges)[:, None]
                                              + np.arange(3)).ravel())

    def test_linear_normal_traction_moment(self):
        e = 0
        n = UNIT.edge_normals[e]
        mid = UNIT.edge_midpoints[e]
        sign = UNIT.boundary_sign(e)

        def traction(p):
            s = (p - mid) @ UNIT.edge_tangents[e]
            return sign * s[..., None] * n  # outward sense

        system = assemble(UNIT, one_traction_edge_problem(e, traction))
        assert_allclose(system.constrained_dofs, [0, 1, 2])
        assert_allclose(system.rhs[system.constrained_dofs], [0.0, 0.0, 1.0],
                        atol=1e-13)

    def test_mixed_bc_patch_with_negative_sign_edge(self):
        # exact patch state imposed as traction on the left edge (whose
        # canonical normal points inward, sign -1) and displacement data on
        # the rest; checks the outward-sign folding of prescribed tractions
        mesh = generate_mesh("quad_structured", 3)
        mat = from_lame(1.0, 1.0)
        u = lambda p: np.stack([p[..., 0], 0 * p[..., 1]], axis=-1)
        sigma0 = [3.0, 1.0, 0.0]  # of eps = (1, 0, 0) at lam = mu = 1
        left_traction = lambda p: np.broadcast_to(
            np.array([-sigma0[0], 0.0]), p.shape)  # sigma . (-1, 0)

        def boundary(m, e):
            if abs(m.edge_midpoints[e, 0]) < 1e-12:
                return TractionBC(traction=left_traction)
            return DisplacementBC(g=u)

        problem = ProblemSpec(name="mixed-patch", domain=UNIT_SQUARE,
                              material=mat, body_force=None,
                              boundary=boundary, exact=None)
        solution = solve(assemble(mesh, problem))
        assert_allclose(solution.edge_dofs,
                        constant_stress_table(mesh, sigma0), atol=1e-11)

    def test_equal_conditions_evaluated_once(self):
        # a classifier returning a fresh but equal condition per edge still
        # batches: one traction evaluation for all its edges
        calls = []

        def traction(p):
            calls.append(p.shape)
            return np.zeros(p.shape)

        mesh = generate_mesh("quad_structured", 3)
        problem = ProblemSpec(
            name="t", domain=UNIT_SQUARE, material=from_lame(1.0, 1.0),
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
        problem = ProblemSpec(name="bad", domain=UNIT_SQUARE, material=mat,
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
        g, dofs, K = system.blocks[0]
        K = K.copy()
        K[:, g.ndof:, :] = 0.0
        K[:, :, g.ndof:] = 0.0
        system.blocks[0] = (g, dofs, K)
        with pytest.raises(SolverError, match="singular local saddle point"):
            solve(system)

    def test_single_cell_has_no_multipliers(self):
        problem, _ = patch_problem()
        solution = solve(assemble(UNIT, problem))
        assert solution.report.lu_nnz == 0
        assert solution.report.ordering == ""
        assert_allclose(solution.edge_dofs, constant_stress_table(
            UNIT, [3.0, 1.0, 0.0]), atol=1e-13)  # of u = (x, 0)

    def test_factor_seconds_reported(self):
        solution = solve(assemble(generate_mesh("quad_structured", 8),
                                  problem_test_a()))
        assert 0.0 < solution.report.factor_s < 60.0
        problem, _ = patch_problem()
        assert solve(assemble(UNIT, problem)).report.factor_s == 0.0

    def test_peak_rss_reported(self):
        solution = solve(assemble(generate_mesh("quad_structured", 8),
                                  problem_test_a()))
        assert np.isfinite(solution.report.peak_rss_mb)
        assert solution.report.peak_rss_mb > 0.0

    def test_rhs_read_as_assembled(self):
        # solve writes nothing to the assembled rhs, so a second solve of
        # the same system gives the same bytes
        system = TestHybridSetUp.mixed_system("poly_voronoi_cvt")
        rhs = system.rhs.tobytes()
        first = solve(system)
        assert system.rhs.tobytes() == rhs
        second = solve(system)
        assert first.edge_dofs.tobytes() == second.edge_dofs.tobytes()
        assert first.cell_motions.tobytes() == second.cell_motions.tobytes()
        assert first.report.residual == second.report.residual

    def test_lu_nnz_counts_both_factors(self):
        system = assemble(generate_mesh("quad_unstructured", 6, seed=1),
                          problem_test_b())
        hybrid = _Hybrid(system.mesh, system.blocks, system.constrained_dofs)
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
    return ProblemSpec(name="pure-traction", domain=UNIT_SQUARE,
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
            name="mixed", domain=UNIT_SQUARE, material=from_lame(2.0, 1.0),
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
        hybrid = _Hybrid(system.mesh, system.blocks, system.constrained_dofs)
        for (g, dofs, _), y in zip(system.blocks,
                                   hybrid.local_solutions(rhs)):
            gdof = dofs[:, :g.ndof].ravel()
            np.minimum.at(lo, gdof, y[:, :g.ndof].ravel())
            np.maximum.at(hi, gdof, y[:, :g.ndof].ravel())
        assert (hi - lo).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["cook"] + list(MESH_KINDS))
    def test_fixed_dofs_hold_prescribed_values(self, kind):
        # the multipliers of the fixed DOFs hold them at their values
        system = (cook_l32_system() if kind == "cook"
                  else TestHybridSetUp.mixed_system(kind))
        solution = solve(system)
        values = system.rhs[system.constrained_dofs]
        got = solution.edge_dofs.ravel()[system.constrained_dofs]
        assert np.abs(got - values).max() <= 1e-13 * np.abs(values).max()


def cook_l32_system():
    """The nearly incompressible Cook membrane on 32 x 32 quads."""
    mesh = generate_mesh("quad_structured", 32, domain=cook_domain())
    return assemble(mesh, problem_cook(0.499995))


def dummy_slot_multipliers(hybrid):
    """S from the hybrid's own inverses, scattered the plain way: every
    cell's edge DOFs in the COO lists, the unglued ones at a dummy slot
    n_lam, the lists concatenated, converted and the slot sliced off."""
    rows, cols, vals = [], [], []
    for _, _, ldof, sign, Kinv in hybrid.groups:
        m, nd = ldof.shape
        rows.append(np.broadcast_to(ldof[:, :, None], (m, nd, nd)).ravel())
        cols.append(np.broadcast_to(ldof[:, None, :], (m, nd, nd)).ravel())
        vals.append((sign[:, :, None] * Kinv[:, :nd, :nd]
                     * sign[:, None, :]).ravel())
    n = hybrid.n_lam + 1
    return sps.csc_matrix((np.concatenate(vals), (np.concatenate(rows),
                           np.concatenate(cols))), shape=(n, n))[:-1, :-1]


class TestHybridSetUp:
    """``_Hybrid.__init__`` inverts each group's local saddle points once,
    and writes S once into preallocated buffers; the inverses and S are
    bitwise those of the plain construction."""

    @staticmethod
    def mixed_system(kind):
        mesh = generate_mesh(kind, TestHybridSolve.SIZES[kind], seed=0)
        return assemble(mesh, TestHybridSolve.mixed_problem())

    @pytest.mark.parametrize("kind", MESH_KINDS)
    def test_one_inverse_per_group(self, kind, monkeypatch):
        system = self.mixed_system(kind)
        assert len(system.constrained_dofs) > 0
        inverted = []
        local_inverse = assembly._local_inverse

        def spy(g, K):
            inverted.append(K)
            return local_inverse(g, K)

        monkeypatch.setattr(assembly, "_local_inverse", spy)
        hybrid = _Hybrid(system.mesh, system.blocks, system.constrained_dofs)
        assert len(inverted) == len(system.blocks)
        for (_, _, K), K_inverted, (*_, Kinv) in zip(system.blocks, inverted,
                                                     hybrid.groups):
            assert K_inverted is K
            assert np.linalg.inv(K).tobytes() == Kinv.tobytes()

    @pytest.mark.parametrize("kind", ["cook"] + list(MESH_KINDS))
    def test_multiplier_matrix_bytes(self, kind, monkeypatch):
        system = (cook_l32_system() if kind == "cook"
                  else self.mixed_system(kind))
        factored = []
        splu = spla.splu

        def spy(S, **kwargs):
            factored.append(S)
            return splu(S, **kwargs)

        monkeypatch.setattr(assembly.spla, "splu", spy)
        hybrid = _Hybrid(system.mesh, system.blocks, system.constrained_dofs)
        (S,) = factored
        ref = dummy_slot_multipliers(hybrid)
        assert S.shape == ref.shape == (hybrid.n_lam, hybrid.n_lam)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(S, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["cook", "tri_unstructured",
                                      "hex_structured", "poly_voronoi_random"])
    def test_fixed_dof_order_irrelevant(self, kind, monkeypatch):
        # the fixed DOFs in assembly order and sorted give the same S and
        # the same solution, byte for byte
        system = (cook_l32_system() if kind == "cook"
                  else self.mixed_system(kind))
        held = system.constrained_dofs
        assert not np.array_equal(held, np.sort(held))
        factored = []
        splu = spla.splu

        def spy(S, **kwargs):
            factored.append(S)
            return splu(S, **kwargs)

        monkeypatch.setattr(assembly.spla, "splu", spy)
        solutions = [solve(system)]
        monkeypatch.setattr(assembly, "_Hybrid", lambda mesh, blocks, held:
                            _Hybrid(mesh, blocks, np.sort(held)))
        solutions.append(solve(system))
        S, ref = factored
        for name in ("indptr", "indices", "data"):
            assert getattr(S, name).tobytes() == getattr(ref, name).tobytes()
        a, b = solutions
        assert a.edge_dofs.tobytes() == b.edge_dofs.tobytes()
        assert a.cell_motions.tobytes() == b.cell_motions.tobytes()
        assert a.report.residual == b.report.residual

    def test_set_up_transients_bounded(self):
        # numpy's traced peak over the set-up less what the hybrid keeps;
        # SuperLU's own allocations are not traced.  On this mesh, masking
        # a copy of every cell and concatenating int64 COO lists takes
        # 9.6 MiB; one inverse per cell and preallocated int32/float64
        # buffers take 4.8 MiB.
        system = cook_l32_system()
        tracemalloc.start()
        try:
            hybrid = _Hybrid(system.mesh, system.blocks,
                             system.constrained_dofs)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hybrid.lu is not None
        assert peak - retained <= 6.5 * 2**20


ROTATED_SQUARE = np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]])


def multiplier_edges(hybrid):
    """The edge of every multiplier of a hybrid."""
    edges = np.zeros(hybrid.n_lam + 1, dtype=int)
    for dofs, _, ldof, _, _ in hybrid.groups:
        edges[ldof] = dofs[:, :ldof.shape[1]] // 3
    return edges[:-1]


def tree_nodes(mesh):
    """(level, index) of every edge's node in the cells' dissection tree,
    level by level from the leaves: the deepest node that holds both of
    the edge's cells (a boundary edge's cell's leaf)."""
    depth, leaf = _dissection(mesh)
    cells = mesh.edge_cells
    cells = np.where(cells < 0, cells.max(axis=1)[:, None], cells)
    la, lb = leaf[cells[:, 0]], leaf[cells[:, 1]]
    level = np.full(mesh.n_edges, -1)
    for up in range(depth + 1):
        level[(level < 0) & (la >> up == lb >> up)] = depth - up
    return level, la >> (depth - level)


class TestNestedDissection:
    """On quad meshes of at least ``_DISSECTION_MIN_CELLS`` cells the
    multipliers are numbered in a postorder of their edges' nodes in the
    cells' dissection tree, and S is factored in that numbering."""

    CASES = {"cook_quad": ("quad_unstructured", 32, cook_domain()),
             "rotated_quad": ("quad_unstructured", 48, ROTATED_SQUARE)}

    @staticmethod
    def system(kind, n, domain, problem=None):
        """The nearly incompressible Cook membrane on the Cook domain, and
        ``problem`` (by default the mixed one) on any other."""
        if domain is not None and np.array_equal(domain, cook_domain()):
            problem = problem_cook(0.499995)
        mesh = generate_mesh(kind, n, domain=domain)
        return assemble(mesh, problem or TestHybridSolve.mixed_problem())

    @pytest.mark.parametrize("case", CASES)
    def test_separator_property(self, case):
        system = self.system(*self.CASES[case])
        assert len(system.constrained_dofs) > 0
        hybrid = _Hybrid(system.mesh, system.blocks, system.constrained_dofs)
        assert hybrid.ordering == "nested_dissection"
        level, index = tree_nodes(system.mesh)
        edges = multiplier_edges(hybrid)
        S = dummy_slot_multipliers(hybrid).tocoo()
        # every coupling joins a node and one of its ancestors
        li, ji = level[edges[S.row]], index[edges[S.row]]
        lj, jj = level[edges[S.col]], index[edges[S.col]]
        top, low = np.minimum(li, lj), np.maximum(li, lj)
        j_top = np.where(li <= lj, ji, jj)
        j_low = np.where(li <= lj, jj, ji)
        assert np.all(j_low >> (low - top) == j_top)
        # numbered in postorder: at every level, the multipliers of each
        # node's subtree form one run of multiplier numbers, and the
        # node's own multipliers end it
        depth, _ = _dissection(system.mesh)
        level, index = level[edges], index[edges]
        for top in range(depth + 1):
            # the level-top node of every multiplier at or below that level
            node = np.where(level >= top,
                            index >> np.maximum(level - top, 0), -1)
            starts = node[np.flatnonzero(np.diff(node, prepend=-2))]
            assert np.bincount(starts[starts >= 0]).max() == 1
            own = level == top
            assert not np.any(own[:-1] & ~own[1:] & (node[:-1] == node[1:]))

    @pytest.mark.parametrize("n, domain", [(64, cook_domain()),
                                           (48, ROTATED_SQUARE)],
                             ids=["cook", "rotated"])
    def test_fill_below_mmd(self, n, domain, monkeypatch):
        # the Cook membrane at nu = 0.499995; test-b on the rotated square
        system = self.system("quad_unstructured", n, domain, problem_test_b())
        dissected = _Hybrid(system.mesh, system.blocks,
                            system.constrained_dofs)
        monkeypatch.setattr(assembly, "_DISSECTION_MIN_CELLS", 10**9)
        mmd = _Hybrid(system.mesh, system.blocks, system.constrained_dofs)
        assert (dissected.ordering, mmd.ordering) == ("nested_dissection",
                                                      "mmd")
        assert dissected.lu_nnz <= 0.9 * mmd.lu_nnz

    @pytest.mark.parametrize("case", CASES)
    def test_matches_mmd_solve(self, case, monkeypatch):
        system = self.system(*self.CASES[case])
        dissected = solve(system)
        monkeypatch.setattr(assembly, "_DISSECTION_MIN_CELLS", 10**9)
        mmd = solve(system)
        assert dissected.report.ordering == "nested_dissection"
        assert mmd.report.ordering == "mmd"
        x, ref = [np.concatenate([s.edge_dofs.ravel(),
                                  s.cell_motions.ravel()])
                  for s in (dissected, mmd)]
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("kind, n, ordering", [
        ("quad_structured", 31, "mmd"),  # 961 cells
        ("quad_structured", 32, "nested_dissection"),  # 1024
        ("quad_unstructured", 32, "nested_dissection"),
        ("tri_unstructured", 23, "mmd"),  # 1058
        ("tri_structured", 32, "mmd"),  # 2048
        ("poly_voronoi_random", 1024, "mmd"),
        ("hex_structured", 32, "mmd")])  # 1067
    def test_rule(self, kind, n, ordering):
        order = assembly._edge_order(generate_mesh(kind, n))
        assert (order is None) == (ordering == "mmd")


class TestBlockOperator:
    """The solve path applies the constrained saddle point from the local
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
        # the global matrix with identity rows on the fixed DOFs; it differs
        # from the eliminated matrix only in the fixed columns
        keep = np.ones(system.dofmap.size)
        keep[system.constrained_dofs] = 0.0
        m = sps.diags(keep) @ system.matrix + sps.diags(1.0 - keep)
        hybrid = _Hybrid(system.mesh, system.blocks, system.constrained_dofs)
        x = np.random.default_rng(5).standard_normal(system.dofmap.size)
        ref = m @ x
        y = hybrid.apply(x)
        assert np.abs(y - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.abs(hybrid(y) - x).max() <= 1e-12 * np.abs(x).max()
        free = keep * x
        ref = system.eliminated()[0] @ free
        assert (np.abs(hybrid.apply(free) - ref).max()
                <= 1e-14 * np.abs(ref).max())

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


def inf_sup_constant(mesh, problem):
    """Smallest singular value of the divergence coupling measured in the
    discrete norms: beta_h^2 = lambda_min(B H^-1 B^T, M_u) with H the
    energy-plus-divergence Gram matrix of the stress space and M_u the
    displacement mass matrix.  Dense, on the assembled matrix."""
    ns = 3 * mesh.n_edges
    full = assemble(mesh, problem).matrix.toarray()
    A, B = full[:ns, :ns], full[ns:, :ns]
    mu_diag = np.column_stack([mesh.areas, mesh.areas,
                               mesh.second_moments]).ravel()
    H = A + B.T @ (B / mu_diag[:, None])
    S = B @ sla.solve(H, B.T, assume_a="pos")
    evals = sla.eigh(S, np.diag(mu_diag), eigvals_only=True)
    return float(np.sqrt(max(evals.min(), 0.0)))


class TestInfSup:
    def test_no_collapse_under_refinement(self):
        problem = problem_test_a()  # unit Lame pair
        values = [inf_sup_constant(generate_mesh("quad_structured", n),
                                   problem) for n in (2, 4, 8)]
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

    def test_peak_rss_not_stored(self, tmp_path):
        mesh = generate_mesh("quad_structured", 3)
        path = tmp_path / "sol.txt"
        save_solution(path, solve(assemble(mesh, problem_test_a())))
        assert np.isnan(load_solution(path, mesh).report.peak_rss_mb)

    def test_ordering_not_stored(self, tmp_path):
        mesh = generate_mesh("quad_structured", 3)
        path = tmp_path / "sol.txt"
        solution = solve(assemble(mesh, problem_test_a()))
        assert solution.report.ordering == "mmd"
        save_solution(path, solution)
        assert load_solution(path, mesh).report.ordering is None

    @settings(max_examples=30, deadline=None)
    @given(edge=arrays(float, (UNIT.n_edges, 3), elements=FINITE),
           cells=arrays(float, (UNIT.n_cells, 3), elements=FINITE),
           residual=st.floats(0.0, 1e-8), n_constrained=st.integers(0, 99))
    def test_roundtrip_property(self, edge, cells, residual, n_constrained):
        """Any finite float tables (subnormals, -0.0 and the largest
        values included) read back bit for bit."""
        report = SolveReport(n_dof=3 * (len(edge) + len(cells)),
                             n_constrained=n_constrained, residual=residual,
                             lu_nnz=0, factor_s=0.0,
                             peak_rss_mb=0.0, ordering="")
        text = write_solution_text(
            Solution(mesh=UNIT, edge_dofs=edge, cell_motions=cells,
                     report=report))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sol.txt")
            with open(path, "w") as fh:
                fh.write(text)
            back = load_solution(path, UNIT)
        assert back.edge_dofs.tobytes() == edge.tobytes()
        assert back.cell_motions.tobytes() == cells.tobytes()
        assert back.report.residual == residual
        assert back.report.n_constrained == n_constrained

    def test_text_matches_per_value_reference(self, tmp_path):
        special = [-0.0, 5e-324, 1e308, -1e308, 1e-300, 1.0 / 3.0]
        rng = np.random.default_rng(2)
        edge = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(
            -30, 30, (4, 3))
        edge.ravel()[:len(special)] = special
        cells = np.array([[0.1, -0.0, 1e-320]])
        report = SolveReport(n_dof=15, n_constrained=3, residual=2.5e-15,
                             lu_nnz=0, factor_s=0.0,
                             peak_rss_mb=0.0, ordering="")
        text = write_solution_text(
            Solution(mesh=UNIT, edge_dofs=edge, cell_motions=cells,
                     report=report))
        lines = ["vemhr-solution v1", f"mesh_checksum {mesh_checksum(UNIT)}",
                 f"residual {2.5e-15:.17g}", "n_constrained 3", "4"]
        lines += [" ".join(f"{v:.17g}" for v in row) for row in edge]
        lines.append("1")
        lines += [" ".join(f"{v:.17g}" for v in row) for row in cells]
        assert text == "\n".join(lines) + "\n"
        path = tmp_path / "sol.txt"
        path.write_text(text)
        back = load_solution(path, UNIT)
        assert back.edge_dofs.tobytes() == edge.tobytes()
        assert back.cell_motions.tobytes() == cells.tobytes()

    @pytest.mark.parametrize("line, text", [
        (5, "nan inf -inf"), (5, "0.0 nan 0.0"), (-1, "0.0 0.0 -inf"),
        (2, "residual nan"), (2, "residual inf"), (2, "residual -1e-12"),
        (3, "n_constrained -5")])
    def test_values_no_solve_writes_rejected(self, tmp_path, line, text):
        # a solve writes finite DOFs, a finite residual >= 0 and counts >= 0
        mesh = generate_mesh("quad_structured", 3)
        path = tmp_path / "sol.txt"
        save_solution(path, solve(assemble(mesh, problem_test_a())))
        lines = path.read_text().splitlines()
        lines[line] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-finite|negative"):
            load_solution(path, mesh)

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
        # lam tr(eps) I + 2 mu eps at lam = mu = 1: eps = (1, -0.7, 1.25)
        assert_allclose(solution.edge_dofs, constant_stress_table(
            mesh, [2.3, -1.1, 2.5]), rtol=0, atol=1e-12)
        assert equilibrium_residuals(mesh, solution).max() < 1e-13

    def test_fan_quadrature_rejects_it(self):
        mesh = build_topology(self.VERTS, self.CELLS)
        with pytest.raises(ValueError, match="star-shaped"):
            mesh_polygon_quadrature(mesh)
