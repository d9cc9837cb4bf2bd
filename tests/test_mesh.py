import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from vemhr.generators import MESH_KINDS, generate_mesh
from vemhr.mesh import (MeshError, build_topology, check_assumptions,
                        cook_domain, load_mesh, mesh_checksum, perp,
                        polygon_metrics, save_mesh, write_mesh_text)
from vemhr.quadrature import polygon_rule

SQUARE_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def unit_square_mesh():
    return build_topology(SQUARE_VERTS, [[0, 1, 2, 3]])


class TestPolygonMetrics:
    def test_unit_square(self):
        area, centroid, diameter, m = polygon_metrics(SQUARE_VERTS)
        assert_allclose(area, 1.0)
        assert_allclose(centroid, [0.5, 0.5])
        assert_allclose(diameter, np.sqrt(2.0))
        # analytic: 2 * int_0^1 (x - 1/2)^2 dx = 1/6
        assert_allclose(m, 1.0 / 6.0, rtol=1e-14)

    def test_right_triangle(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        area, centroid, _, _ = polygon_metrics(tri)
        assert_allclose(area, 0.5)
        assert_allclose(centroid, [1.0 / 3.0, 1.0 / 3.0])

    def test_clockwise_rejected(self):
        with pytest.raises(MeshError):
            polygon_metrics(SQUARE_VERTS[::-1])

    @pytest.mark.parametrize("kind", MESH_KINDS)
    def test_mesh_geometry_matches_fan_quadrature(self, kind):
        # reference: degree-2 centroid-fan rule, exact for these integrands
        mesh = generate_mesh(kind, 16 if kind.startswith("poly") else 4,
                             seed=2)
        for c in range(mesh.n_cells):
            rule = polygon_rule(mesh.cell_coords(c), 2)
            area = rule.weights.sum()
            xi = rule.points - mesh.centroids[c]
            q = np.einsum("q,qa,qb->ab", rule.weights, xi, xi)
            h = mesh.diameters[c]
            assert_allclose(mesh.areas[c], area, rtol=1e-13)
            assert_allclose(mesh.centroids[c],
                            rule.weights @ rule.points / area,
                            rtol=0, atol=1e-13 * h)
            assert_allclose(mesh.moment_tensors[c], q, rtol=0,
                            atol=1e-13 * np.trace(q))


class TestBuildTopology:
    def test_single_square(self):
        mesh = unit_square_mesh()
        assert mesh.n_cells == 1
        assert mesh.n_edges == 4
        assert len(mesh.boundary_edges) == 4
        assert set(np.abs(mesh.cell_signs[0])) == {1.0}

    def test_two_quads(self):
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        mesh = build_topology(verts, [[0, 1, 4, 3], [1, 2, 5, 4]])
        assert mesh.n_edges == 7
        # edges are numbered in order of first appearance along the loops
        # (solution files depend on it)
        assert mesh.edge_nodes.tolist() == [[0, 1], [1, 4], [3, 4], [0, 3],
                                             [1, 2], [2, 5], [4, 5]]
        assert mesh.edge_cells.tolist() == [[0, -1], [0, 1], [-1, 0],
                                            [-1, 0], [1, -1], [1, -1],
                                            [-1, 1]]
        interior = mesh.interior_edges
        assert len(interior) == 1
        e = interior[0]
        assert set(mesh.edge_cells[e]) == {0, 1}  # one cell on each side

    def test_shared_edge_signs_opposite(self):
        # both triangles listed CCW; orientation consistency via signs
        verts = [[0, 0], [1, 0], [0, 1], [1, 1]]
        mesh = build_topology(verts, [[0, 1, 2], [1, 3, 2]])
        e = mesh.interior_edges[0]
        signs = []
        for c in range(2):
            k = list(mesh.cell_edges[c]).index(e)
            signs.append(mesh.cell_signs[c][k])
        assert sorted(signs) == [-1.0, 1.0]

    def test_nonmanifold_rejected(self):
        verts = [[0, 0], [1, 0], [0, 1], [1, 1], [-1, 1]]
        with pytest.raises(MeshError):
            build_topology(verts, [[0, 1, 2], [1, 3, 2], [0, 2, 4], [0, 1, 2]])

    @pytest.mark.parametrize("bad", [7, -1])
    def test_vertex_id_out_of_range_rejected(self, bad):
        with pytest.raises(MeshError, match="outside"):
            build_topology(SQUARE_VERTS, [[0, 1, 2, bad]])

    def test_clockwise_cell_rejected(self):
        with pytest.raises(MeshError, match="counterclockwise"):
            build_topology(SQUARE_VERTS, [[0, 3, 2, 1]])

    def test_zero_length_edge_rejected(self):
        verts = [[0, 0], [1, 0], [1, 0], [0, 1]]
        with pytest.raises(MeshError):
            build_topology(verts, [[0, 1, 2, 3]])

    def test_self_intersecting_rejected(self):
        verts = [[0, 0], [1, 1], [1, 0], [0, 1]]
        with pytest.raises(MeshError):
            build_topology(verts, [[0, 1, 2, 3]])

    def test_discrete_divergence_theorem(self):
        # sum of sign * |e| * n over each cell boundary vanishes
        mesh = generate_mesh("poly_voronoi_random", 25, seed=3)
        for c in range(mesh.n_cells):
            e = mesh.cell_edges[c]
            s = mesh.cell_signs[c]
            flux = (s[:, None] * mesh.edge_lengths[e, None]
                    * mesh.edge_normals[e]).sum(0)
            assert np.abs(flux).max() < 1e-13

    def test_edge_frames(self):
        mesh = unit_square_mesh()
        t = mesh.edge_tangents
        n = mesh.edge_normals
        assert_allclose((t**2).sum(1), 1.0)
        assert_allclose((n**2).sum(1), 1.0)
        assert_allclose((t * n).sum(1), 0.0, atol=1e-15)
        assert_allclose(n, perp(t))


class TestQuality:
    def test_unit_square_ratios(self):
        report = check_assumptions(unit_square_mesh())
        # kernel of a convex cell is the cell; inscribed radius 1/2
        assert_allclose(report.vertex_ratio[0], 1.0 / np.sqrt(2.0), rtol=1e-9)
        assert_allclose(report.star_ratio[0], 0.5 / np.sqrt(2.0), rtol=1e-6)

    def test_regular_hexagon(self):
        ang = 2 * np.pi * np.arange(6) / 6
        verts = np.column_stack([np.cos(ang), np.sin(ang)])
        mesh = build_topology(verts, [list(range(6))])
        report = check_assumptions(mesh)
        # apothem / diameter = (sqrt(3)/2) / 2
        assert_allclose(report.star_ratio[0], np.sqrt(3.0) / 4.0, rtol=1e-6)

    def test_convex_cells_positive_ratio(self):
        mesh = generate_mesh("poly_voronoi_cvt", 16, seed=1)
        report = check_assumptions(mesh)
        assert report.min_star_ratio > 0.0
        assert report.min_vertex_ratio > 0.0
        assert report.ok

    def test_thresholds_flag_cells(self):
        report = check_assumptions(unit_square_mesh(), gamma_min=0.9,
                                   c_min=0.9)
        assert report.violations == [0]


class TestCookDomain:
    def test_geometry(self):
        dom = cook_domain()
        # left edge 44 tall, right edge 16 tall
        assert_allclose(np.linalg.norm(dom[3] - dom[0]), 44.0)
        assert_allclose(np.linalg.norm(dom[2] - dom[1]), 16.0)
        nxt = np.roll(dom, -1, axis=0)
        area = 0.5 * (dom[:, 0] * nxt[:, 1] - nxt[:, 0] * dom[:, 1]).sum()
        assert area > 0


class TestMeshIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        mesh = generate_mesh("quad_unstructured", 3, seed=11)
        path = tmp_path / "m.msh"
        save_mesh(path, mesh)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert all(np.array_equal(a, b) for a, b in
                   zip(back.cell_vertices, mesh.cell_vertices))
        assert mesh_checksum(back) == mesh_checksum(mesh)
        save_mesh(tmp_path / "m2.msh", back)
        assert (tmp_path / "m.msh").read_text() == \
            (tmp_path / "m2.msh").read_text()

    @staticmethod
    def reference_text(mesh):
        """The format written value by value."""
        lines = ["vemhr-mesh v1", str(mesh.n_vertices)]
        lines += [" ".join(f"{v:.17g}" for v in row) for row in mesh.vertices]
        lines.append(str(mesh.n_cells))
        lines += [" ".join(str(int(v)) for v in loop)
                  for loop in mesh.cell_vertices]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("kind", MESH_KINDS)
    def test_text_matches_per_value_reference(self, kind, tmp_path):
        mesh = generate_mesh(kind, 16 if kind.startswith("poly") else 4,
                             seed=3)
        assert write_mesh_text(mesh) == self.reference_text(mesh)
        path = tmp_path / "m.msh"
        save_mesh(path, mesh)
        back = load_mesh(path)
        assert back.vertices.tobytes() == mesh.vertices.tobytes()
        assert np.array_equal(back.cell_vertex_ids, mesh.cell_vertex_ids)
        assert np.array_equal(back.cell_offsets, mesh.cell_offsets)

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(MESH_KINDS), n=st.integers(1, 4),
           seed=st.integers(0, 2**16),
           scale=st.floats(1e-2, 1e2), shift=st.floats(-10.0, 10.0))
    def test_roundtrip_property(self, kind, n, seed, scale, shift):
        """Any mesh (an affine image of a generated one, so its coordinates
        use all 17 digits) reads back bit for bit with the same topology."""
        mesh = generate_mesh(kind, n * n if kind.startswith("poly") else n,
                             seed=seed)
        try:
            mesh = build_topology(scale * mesh.vertices + shift,
                                  mesh.cell_vertices)
        except MeshError:
            assume(False)  # the map rounded a tiny edge away
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.msh")
            save_mesh(path, mesh)
            back = load_mesh(path)
        assert back.vertices.tobytes() == mesh.vertices.tobytes()
        for name in ("cell_offsets", "cell_vertex_ids", "cell_edge_ids",
                     "cell_edge_signs", "edge_nodes"):
            assert np.array_equal(getattr(back, name), getattr(mesh, name))
        assert write_mesh_text(back) == write_mesh_text(mesh)

    def test_special_values_match_reference(self):
        # write_mesh_text only reads the flat arrays, so a stand-in can hold
        # values build_topology would reject
        values = np.array([[np.nan, np.inf], [-np.inf, -0.0], [5e-324, 1e308],
                           [-1e-300, 0.1], [1.0 / 3.0, -2.5e-7]])
        offsets = np.array([0, 3, 5])
        ids = np.array([0, 1, 2, 4, 3])
        stand_in = SimpleNamespace(
            vertices=values, cell_offsets=offsets, cell_vertex_ids=ids,
            n_vertices=len(values), n_cells=len(offsets) - 1,
            cell_vertices=[ids[:3], ids[3:]])
        assert write_mesh_text(stand_in) == self.reference_text(stand_in)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text("not a mesh\n")
        with pytest.raises(MeshError):
            load_mesh(path)
