import numpy as np
import pytest
from numpy.testing import assert_allclose

from vemhr.assembly import DisplacementBC, assemble
from vemhr.element import (body_load_vector, cell_groups,
                           constant_stress_dofs, divergence_field,
                           interpolate_global, projection_field)
from vemhr.material import from_lame, sym_dot
from vemhr.mesh import MeshError, build_topology, perp
from vemhr.postproc import error_u
from vemhr.problems import ProblemSpec
from vemhr.quadrature import polygon_rule
from vemhr.generators import generate_mesh

SQUARE = build_topology([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])


def random_polygon_mesh(seed, n_min=3, n_max=9):
    """One random star-shaped polygon as a mesh (radial perturbation of a
    regular polygon keeps it star-shaped w.r.t. its centroid)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(n_min, n_max + 1))
    ang = 2 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
    rad = rng.uniform(0.5, 1.5) * (1.0 + rng.uniform(-0.25, 0.25, k))
    center = rng.uniform(-2, 2, 2)
    verts = center + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    return build_topology(verts, [list(range(k))])


def table_of(mesh, dofs):
    """Global (n_edges, 3) DOF table of a one-cell mesh from its cell-local
    DOF vector: the edge ids of a single cell follow its loop order."""
    assert np.array_equal(mesh.cell_edges[0], np.arange(mesh.n_edges))
    return np.asarray(dofs, dtype=float).reshape(-1, 3)


def div_moments(mesh, table):
    """Per-cell (|E| alpha_x, |E| alpha_y, J_E beta) of a DOF table."""
    dv = divergence_field(mesh, table)
    return np.column_stack([mesh.areas[:, None] * dv[:, :2],
                            mesh.second_moments * dv[:, 2]])


def a_matrix(mesh, material, stabilization="stab1", kappa=None):
    """Energy matrix of a one-cell mesh."""
    return cell_groups(mesh)[0].a_matrices(material, stabilization, kappa)[0]


def b_matrix(mesh):
    """Divergence coupling of a one-cell mesh."""
    return cell_groups(mesh)[0].b_matrices()[0]


def rm_field(mesh, cell, which):
    """Rigid-motion basis field: (1, 0), (0, 1) or perp(x - x_C)."""
    if which < 2:
        return lambda p: np.broadcast_to(np.eye(2)[which], p.shape)
    return lambda p: perp(p - mesh.centroids[cell])


def boundary_rm_integral(mesh, cell, dofs, which):
    """Independent oracle: sum_e int_e phi_out . r by dense edge quadrature."""
    r = rm_field(mesh, cell, which)
    x, w = np.polynomial.legendre.leggauss(8)
    s = 0.5 * x
    w = 0.5 * w
    total = 0.0
    for k, e in enumerate(mesh.cell_edges[cell]):
        sign = mesh.cell_signs[cell][k]
        pe, qe = mesh.vertices[mesh.edge_nodes[e]]
        pts = mesh.edge_midpoints[e] + s[:, None] * (qe - pe)
        c = dofs[3 * k:3 * k + 2]
        d = dofs[3 * k + 2]
        tra = sign * (c + d * s[:, None] * mesh.edge_normals[e])
        total += mesh.edge_lengths[e] * (w @ np.einsum("qa,qa->q", tra, r(pts)))
    return total


def edge_moments_oracle(mesh, tau):
    """Independent oracle for the edge-moment interpolation: per edge, the
    mean of tau n and d = 12 int s (tau n) . n by dense Gauss quadrature."""
    x, w = np.polynomial.legendre.leggauss(8)
    s, w = 0.5 * x, 0.5 * w
    out = np.empty((mesh.n_edges, 3))
    for e in range(mesh.n_edges):
        pe, qe = mesh.vertices[mesh.edge_nodes[e]]
        n = mesh.edge_normals[e]
        t = tau(mesh.edge_midpoints[e] + s[:, None] * (qe - pe))
        tn = np.column_stack([t[:, 0] * n[0] + t[:, 2] * n[1],
                              t[:, 2] * n[0] + t[:, 1] * n[1]])
        out[e, :2] = w @ tn
        out[e, 2] = 12.0 * (w @ (s * (tn @ n)))
    return out


def dirichlet_rhs(mesh, edge, g):
    """Weak displacement data of one edge, read off the assembled rhs."""
    bc = DisplacementBC(g=g)
    problem = ProblemSpec(name="t", domain=None, material=from_lame(1.0, 1.0),
                          body_force=None, boundary=lambda m, e: bc,
                          exact=None)
    return assemble(mesh, problem).rhs[3 * edge:3 * edge + 3]


class TestRigidMotionBasis:
    def test_rotation_value(self):
        # the rotational rigid motion is perp(x - x_C) with perp(c1, c2) =
        # (c2, -c1), anchored at the centroid
        xc = SQUARE.centroids[0]
        assert_allclose(perp(np.array([1.0, 1.0]) - xc), [0.5, -0.5])
        assert error_u(SQUARE, np.array([[0.0, 0.0, 1.0]]),
                       lambda p: perp(p - xc)) < 1e-15

    def test_orthogonality(self):
        # translations are L2-orthogonal to the rotation about the centroid
        f = lambda p: np.broadcast_to(np.array([1.0, 0.0]), p.shape)
        assert abs(body_load_vector(SQUARE, f)[0, 2]) < 1e-15

    def test_rotation_mass_is_second_moment(self):
        xc = SQUARE.centroids[0]
        val = error_u(SQUARE, np.zeros((1, 3)), lambda p: perp(p - xc))
        assert_allclose(val**2, 1.0 / 6.0, rtol=1e-14)
        assert_allclose(SQUARE.second_moments[0], 1.0 / 6.0, rtol=1e-14)


class TestDivReconstruction:
    def test_identity_tractions_divergence_free(self):
        table = constant_stress_dofs(SQUARE, [1, 1, 0])
        assert_allclose(divergence_field(SQUARE, table)[0], np.zeros(3),
                        atol=1e-14)

    def test_single_edge_mean_traction(self):
        # c = (1, 0) on the right edge only: matches tau = [[x,0],[0,0]]
        table = np.zeros((4, 3))
        right = [e for e in range(4)
                 if np.allclose(SQUARE.edge_midpoints[e], [1.0, 0.5])]
        table[right, 0] = 1.0
        assert_allclose(divergence_field(SQUARE, table)[0], [1.0, 0.0, 0.0],
                        atol=1e-14)

    def test_constant_matrix_tractions_alpha_vanishes(self):
        # tractions of a constant (non-symmetric) matrix close up: the
        # discrete divergence theorem kills the mean part
        mesh = random_polygon_mesh(42)
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        table = np.zeros((mesh.n_edges, 3))
        table[:, :2] = mesh.edge_normals @ m.T
        assert_allclose(divergence_field(mesh, table)[0, :2], [0.0, 0.0],
                        atol=1e-13)

    @pytest.mark.parametrize("seed", range(25))
    def test_compatibility_against_quadrature(self, seed):
        # int_E div . r equals the signed boundary integral of the traction
        mesh = random_polygon_mesh(seed)
        rng = np.random.default_rng(1000 + seed)
        dofs = rng.standard_normal(3 * len(mesh.cell_edges[0]))
        lhs = div_moments(mesh, table_of(mesh, dofs))[0]
        rhs = np.array([boundary_rm_integral(mesh, 0, dofs, i)
                        for i in range(3)])
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


class TestMeanStress:
    def test_reproduces_constants(self):
        sigma = np.array([1.0, 2.0, 0.0])
        table = constant_stress_dofs(SQUARE, sigma)
        assert_allclose(projection_field(SQUARE, table)[0], sigma, atol=1e-14)

    def test_linear_field_mean(self):
        tau = lambda p: np.stack([p[..., 0], 0 * p[..., 0], 0 * p[..., 0]],
                                 axis=-1)
        table = interpolate_global(SQUARE, tau)
        assert_allclose(projection_field(SQUARE, table)[0], [0.5, 0.0, 0.0],
                        atol=1e-14)

    def test_zero(self):
        assert_allclose(projection_field(SQUARE, np.zeros((4, 3)))[0],
                        np.zeros(3))

    @pytest.mark.parametrize("seed", range(15))
    def test_constant_reproduction_random_polygons(self, seed):
        mesh = random_polygon_mesh(200 + seed)
        rng = np.random.default_rng(seed)
        sigma = rng.standard_normal(3)
        table = constant_stress_dofs(mesh, sigma)
        assert_allclose(projection_field(mesh, table)[0], sigma, rtol=1e-12,
                        atol=1e-13)
        assert_allclose(divergence_field(mesh, table)[0], np.zeros(3),
                        atol=1e-12)


class TestCellGroupMaps:
    @staticmethod
    def per_edge_reference(g):
        """alpha, beta and the mean-stress map filled edge by edge."""
        mesh, cells, n = g.mesh, g.cells, g.n_edges
        eid, sg, L = g.edge_ids, g.signs, g.lengths
        N, T = mesh.edge_normals[eid], mesh.edge_tangents[eid]
        R = mesh.edge_midpoints[eid] - g.centroids[:, None, :]
        sL, rperp, mE = sg * L, perp(R), g.second_moments
        m = len(cells)
        alpha = np.zeros((m, 2, 3 * n))
        beta = np.zeros((m, 3 * n))
        K = np.zeros((m, 2, 2, 3 * n))
        for j in range(n):
            alpha[:, 0, 3 * j] = sL[:, j] / g.areas
            alpha[:, 1, 3 * j + 1] = sL[:, j] / g.areas
            beta[:, 3 * j] = sL[:, j] * rperp[:, j, 0] / mE
            beta[:, 3 * j + 1] = sL[:, j] * rperp[:, j, 1] / mE
            beta[:, 3 * j + 2] = sg[:, j] * L[:, j] ** 2 / (12.0 * mE)
            K[:, 0, 0, 3 * j] = sL[:, j] * R[:, j, 0]
            K[:, 0, 1, 3 * j] = sL[:, j] * R[:, j, 1]
            K[:, 1, 0, 3 * j + 1] = sL[:, j] * R[:, j, 0]
            K[:, 1, 1, 3 * j + 1] = sL[:, j] * R[:, j, 1]
            w = sg[:, j] * L[:, j] ** 2 / 12.0
            for a in range(2):
                for b in range(2):
                    K[:, a, b, 3 * j + 2] = w * N[:, j, a] * T[:, j, b]
        return alpha, beta, K

    @pytest.mark.parametrize("kind", ["hex_structured", "poly_voronoi_random",
                                      "tri_unstructured"])
    def test_maps_match_per_edge_reference(self, kind):
        # same arithmetic per entry: bit for bit
        mesh = generate_mesh(kind, 16 if kind.startswith("poly") else 3,
                             seed=4)
        for g in cell_groups(mesh):
            alpha, beta, K = self.per_edge_reference(g)
            assert np.array_equal(g.alpha_map, alpha)
            assert np.array_equal(g.beta_map, beta)
            Q = mesh.moment_tensors[g.cells]
            J = np.stack([Q[:, 1], -Q[:, 0]], axis=1)
            K -= J[:, :, :, None] * beta[:, None, None, :]
            P = np.stack([K[:, 0, 0], K[:, 1, 1],
                          0.5 * (K[:, 0, 1] + K[:, 1, 0])], axis=1)
            assert np.array_equal(g.projection_map,
                                  P / g.areas[:, None, None])


class TestLocalEnergyMatrix:
    def test_symmetry(self):
        A = a_matrix(SQUARE, from_lame(1.0, 1.0))
        assert np.abs(A - A.T).max() < 1e-13

    def test_consistency_on_constants(self):
        # stabilization annihilates constants: exact energy pairing remains
        mat = from_lame(1.0, 1.0)
        rng = np.random.default_rng(0)
        for mesh in (SQUARE, random_polygon_mesh(7)):
            A = a_matrix(mesh, mat)
            s0 = rng.standard_normal(3)
            t0 = rng.standard_normal(3)
            ds = constant_stress_dofs(mesh, s0).ravel()
            dt = constant_stress_dofs(mesh, t0).ravel()
            exact = mesh.areas[0] * sym_dot(mat.strain(s0), t0)
            assert_allclose(ds @ A @ dt, exact, rtol=1e-12)

    def test_identity_energy_value(self):
        # |E| (D Id : Id) = 1/2 on the unit square with unit Lame pair
        mat = from_lame(1.0, 1.0)
        d = constant_stress_dofs(SQUARE, [1, 1, 0]).ravel()
        assert_allclose(d @ a_matrix(SQUARE, mat) @ d, 0.5, rtol=1e-13)

    @pytest.mark.parametrize("variant", ["stab1", "stab1bis"])
    @pytest.mark.parametrize("seed", range(10))
    def test_positive_definite(self, variant, seed):
        mesh = random_polygon_mesh(300 + seed)
        A = a_matrix(mesh, from_lame(1.0, 1.0), variant)
        np.linalg.cholesky(A)  # raises if not SPD

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            a_matrix(SQUARE, from_lame(1.0, 1.0), "stab2")

    def test_kappa_override_scales_stabilization(self):
        mat = from_lame(1.0, 1.0)
        base = a_matrix(SQUARE, mat, kappa=0.0)
        one = a_matrix(SQUARE, mat, kappa=1.0)
        two = a_matrix(SQUARE, mat, kappa=2.0)
        assert_allclose(two - base, 2.0 * (one - base), rtol=1e-13,
                        atol=1e-14)
        assert_allclose(a_matrix(SQUARE, mat),
                        base + mat.kappa * (one - base), rtol=1e-13,
                        atol=1e-14)

    @staticmethod
    def per_edge_reference(g, material, stabilization):
        """A_E cell by cell and edge by edge, as the formula reads."""
        out = []
        for c in range(len(g.cells)):
            P = g.projection_map[c]
            A = g.areas[c] * P.T @ material.energy_matrix @ P
            for j in range(g.n_edges):
                nx, ny = g.normals[c, j]
                tm = -np.array([nx * P[0] + ny * P[2], nx * P[2] + ny * P[1]])
                tm[0, 3 * j] += 1.0
                tm[1, 3 * j + 1] += 1.0
                h = (g.diameters[c] if stabilization == "stab1"
                     else g.lengths[c, j])
                w = material.kappa * h * g.lengths[c, j]
                A += w * tm.T @ tm
                A[3 * j + 2, 3 * j + 2] += w / 12.0
            out.append(0.5 * (A + A.T))
        return np.array(out)

    @pytest.mark.parametrize("variant", ["stab1", "stab1bis"])
    @pytest.mark.parametrize("kind", ["hex_structured", "poly_voronoi_random"])
    def test_matches_per_edge_reference(self, kind, variant):
        # the batched products sum in another order: round-off only
        mesh = generate_mesh(kind, 16 if kind.startswith("poly") else 3,
                             seed=4)
        mat = from_lame(2.0, 0.7)
        for g in cell_groups(mesh):
            ref = self.per_edge_reference(g, mat, variant)
            A = g.a_matrices(mat, variant)
            assert np.abs(A - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("scale", [0.1, 3.0, 40.0])
    def test_dimensional_scaling(self, scale):
        # A_E(c * mesh) = c^2 A_E(mesh) for a fixed material
        mesh = random_polygon_mesh(11)
        scaled = build_topology(scale * mesh.vertices, [mesh.cell_vertices[0]])
        mat = from_lame(2.0, 0.7)
        assert_allclose(a_matrix(scaled, mat),
                        scale**2 * a_matrix(mesh, mat), rtol=1e-12)


class TestLocalCoupling:
    def test_unit_divergence(self):
        tau = lambda p: np.stack([p[..., 0], 0 * p[..., 0], 0 * p[..., 0]],
                                 axis=-1)
        dofs = interpolate_global(SQUARE, tau).ravel()
        assert_allclose(b_matrix(SQUARE) @ dofs, [1.0, 0.0, 0.0], atol=1e-14)

    def test_rotational_divergence(self):
        # field with div = perp(x - x_C): tests the second-moment row
        xc = SQUARE.centroids[0]

        def tau(p):
            x, y = p[..., 0] - xc[0], p[..., 1] - xc[1]
            return np.stack([0 * x, -x * y, 0.5 * y**2], axis=-1)

        dofs = interpolate_global(SQUARE, tau).ravel()
        assert_allclose(b_matrix(SQUARE) @ dofs, [0.0, 0.0, 1.0 / 6.0],
                        atol=1e-14)

    def test_constants_in_kernel(self):
        dofs = constant_stress_dofs(SQUARE, [3.0, -1.0, 2.0]).ravel()
        assert_allclose(b_matrix(SQUARE) @ dofs, np.zeros(3), atol=1e-13)

    def test_full_rank(self):
        for seed in range(5):
            mesh = random_polygon_mesh(400 + seed)
            assert np.linalg.matrix_rank(b_matrix(mesh)) == 3


class TestLocalLoad:
    def test_constant_load(self):
        f = lambda p: np.broadcast_to(np.array([1.0, 0.0]), p.shape)
        assert_allclose(body_load_vector(SQUARE, f)[0], [1.0, 0.0, 0.0],
                        atol=1e-14)

    def test_rotational_load(self):
        xc = SQUARE.centroids[0]
        f = lambda p: perp(p - xc)
        assert_allclose(body_load_vector(SQUARE, f)[0], [0.0, 0.0, 1.0 / 6.0],
                        rtol=1e-13, atol=1e-15)

    def test_zero_load(self):
        f = lambda p: np.zeros(p.shape)
        assert_allclose(body_load_vector(SQUARE, f)[0], np.zeros(3))


class TestDirichletBoundaryTerm:
    def bottom_edge(self):
        for e in SQUARE.boundary_edges:
            if np.allclose(SQUARE.edge_midpoints[e], [0.5, 0.0]):
                return int(e)

    def test_zero_data(self):
        g = lambda p: np.zeros(p.shape)
        assert_allclose(dirichlet_rhs(SQUARE, self.bottom_edge(), g),
                        np.zeros(3))

    def test_constant_data(self):
        # mean-traction DOFs pick up c . v |e|; the moment DOF sees nothing
        g = lambda p: np.broadcast_to(np.array([0.7, -0.2]), p.shape)
        vals = dirichlet_rhs(SQUARE, self.bottom_edge(), g)
        assert_allclose(vals, [0.7, -0.2, 0.0], atol=1e-15)

    def test_linear_normal_data(self):
        # g = s n against the moment basis: int s^2 |e| = |e|/12
        e = self.bottom_edge()
        n = SQUARE.edge_normals[e]
        mid = SQUARE.edge_midpoints[e]

        def g(p):
            s = (p - mid) @ SQUARE.edge_tangents[e]
            return s[..., None] * n

        vals = dirichlet_rhs(SQUARE, e, g)
        assert_allclose(vals, [0.0, 0.0, 1.0 / 12.0], atol=1e-15)

    def test_interior_edge_rejected(self):
        # the classifier is only asked about boundary edges, and the
        # outward sign the boundary terms use rejects interior ones by name
        mesh = build_topology([[0, 0], [1, 0], [0, 1], [1, 1]],
                              [[0, 1, 2], [1, 3, 2]])
        asked = []
        bc = DisplacementBC(g=lambda p: np.zeros(p.shape))
        problem = ProblemSpec(name="t", domain=None,
                              material=from_lame(1.0, 1.0), body_force=None,
                              boundary=lambda m, e: asked.append(e) or bc,
                              exact=None)
        assemble(mesh, problem)
        assert sorted(asked) == sorted(mesh.boundary_edges.tolist())
        e = int(mesh.interior_edges[0])
        with pytest.raises(MeshError, match=f"edge {e} is interior"):
            mesh.boundary_sign(np.append(mesh.boundary_edges, e))


class TestInterpolation:
    def test_constant_exact(self):
        sigma = np.array([2.0, -1.0, 0.5])
        tau = lambda p: np.broadcast_to(sigma, p.shape[:-1] + (3,))
        assert_allclose(interpolate_global(SQUARE, tau),
                        constant_stress_dofs(SQUARE, sigma), atol=1e-14)

    def test_moment_coefficient(self):
        # traction s n on a unit edge: c = 0, d = 1 (coefficient |e|^2/12);
        # tau = s (n x n) has exactly that traction on the edge
        e = 0
        n = SQUARE.edge_normals[e]
        mid = SQUARE.edge_midpoints[e]

        def tau(p):
            s = (p - mid) @ SQUARE.edge_tangents[e]
            return s[..., None] * np.array([n[0]**2, n[1]**2, n[0] * n[1]])

        c_d = interpolate_global(SQUARE, tau)[e]
        assert_allclose(c_d[:2], [0.0, 0.0], atol=1e-15)
        assert_allclose(c_d[2], 1.0, rtol=1e-13)

    def test_global_matches_local(self):
        mesh = generate_mesh("poly_voronoi_random", 12, seed=4)
        tau = lambda p: np.stack([p[..., 0] ** 2, p[..., 0] * p[..., 1],
                                  p[..., 1] ** 2], axis=-1)
        assert_allclose(interpolate_global(mesh, tau),
                        edge_moments_oracle(mesh, tau), atol=1e-13)

    def test_commuting_divergence_moments(self):
        # int_E div(I_E tau) . r = int_E div tau . r for all rigid motions;
        # oracle computes the right side by polygon quadrature
        mesh = generate_mesh("poly_voronoi_random", 9, seed=8)

        def tau(p):
            x, y = p[..., 0], p[..., 1]
            return np.stack([x * y**2, x**3 - y**2, x**2 + 0.5 * y**3],
                            axis=-1)

        def div_tau(p):
            x, y = p[..., 0], p[..., 1]
            return np.stack([2.5 * y**2, 2 * x - 2 * y], axis=-1)

        lhs = div_moments(mesh, interpolate_global(mesh, tau))
        for c in range(mesh.n_cells):
            rule = polygon_rule(mesh.cell_coords(c), 8,
                                centroid=mesh.centroids[c])
            fv = div_tau(rule.points)
            xi = perp(rule.points - mesh.centroids[c])
            rhs = np.array([rule.weights @ fv[:, 0], rule.weights @ fv[:, 1],
                            rule.weights @ np.einsum("qa,qa->q", fv, xi)])
            assert_allclose(lhs[c], rhs, rtol=1e-10, atol=1e-12)


class TestFieldHelpers:
    def test_projection_field_matches_per_cell(self):
        # batched over the whole mesh vs each cell as its own one-cell mesh
        # (same vertex ids, so the same canonical edge frames)
        mesh = generate_mesh("quad_unstructured", 3, seed=2)
        rng = np.random.default_rng(3)
        table = rng.standard_normal((mesh.n_edges, 3))
        proj = projection_field(mesh, table)
        for c in range(mesh.n_cells):
            alone = build_topology(mesh.vertices, [mesh.cell_vertices[c]])
            assert_allclose(proj[c], projection_field(
                alone, table[mesh.cell_edges[c]])[0], atol=1e-13)
