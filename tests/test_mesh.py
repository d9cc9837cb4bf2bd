import os
import tempfile
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from vemhr.generators import MESH_KINDS, generate_mesh
from vemhr.mesh import (_MAX_COORDINATE, MeshError, build_topology,
                        check_assumptions, cook_domain, load_mesh,
                        mesh_checksum, perp, save_mesh, write_mesh_text)
from vemhr.quadrature import mesh_polygon_quadrature

SQUARE_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def unit_square_mesh():
    return build_topology(SQUARE_VERTS, [[0, 1, 2, 3]])


def per_cell(mesh, flat):
    """Per-cell pieces of a flat CSR array (``cell_vertex_ids`` etc.)."""
    return np.split(flat, mesh.cell_offsets[1:-1])


def one_cell(coords):
    return build_topology(coords, [list(range(len(coords)))])


class TestPolygonMetrics:
    def test_unit_square(self):
        mesh = one_cell(SQUARE_VERTS)
        assert_allclose(mesh.areas[0], 1.0)
        assert_allclose(mesh.centroids[0], [0.5, 0.5])
        assert_allclose(mesh.diameters[0], np.sqrt(2.0))
        # analytic: 2 * int_0^1 (x - 1/2)^2 dx = 1/6
        assert_allclose(mesh.second_moments[0], 1.0 / 6.0, rtol=1e-14)

    def test_right_triangle(self):
        mesh = one_cell(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert_allclose(mesh.areas[0], 0.5)
        assert_allclose(mesh.centroids[0], [1.0 / 3.0, 1.0 / 3.0])

    def test_clockwise_rejected(self):
        with pytest.raises(MeshError):
            one_cell(SQUARE_VERTS[::-1])

    @pytest.mark.parametrize("kind", MESH_KINDS)
    def test_mesh_geometry_matches_fan_quadrature(self, kind):
        # reference: the centroid-fan rule, exact for these integrands
        mesh = generate_mesh(kind, 16 if kind.startswith("poly") else 4,
                             seed=2)
        points, weights, cells = mesh_polygon_quadrature(mesh)
        area = np.bincount(cells, weights)
        centroid = np.column_stack(
            [np.bincount(cells, weights * points[:, a]) for a in range(2)])
        xi = points - mesh.centroids[cells]
        q = np.zeros((mesh.n_cells, 2, 2))
        np.add.at(q, cells, weights[:, None, None] * xi[:, :, None]
                  * xi[:, None, :])
        assert_allclose(mesh.areas, area, rtol=1e-13)
        assert np.all(np.abs(mesh.centroids - centroid / area[:, None])
                      <= 1e-13 * mesh.diameters[:, None])
        trace = np.trace(q, axis1=1, axis2=2)
        assert np.all(np.abs(mesh.moment_tensors - q)
                      <= 1e-13 * trace[:, None, None])


class TestBuildTopology:
    def test_single_square(self):
        mesh = unit_square_mesh()
        assert mesh.n_cells == 1
        assert mesh.n_edges == 4
        assert len(mesh.boundary_edges) == 4
        assert set(np.abs(mesh.cell_edge_signs)) == {1.0}

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
        for edges, cell_signs in zip(per_cell(mesh, mesh.cell_edge_ids),
                                     per_cell(mesh, mesh.cell_edge_signs)):
            signs.append(cell_signs[list(edges).index(e)])
        assert sorted(signs) == [-1.0, 1.0]

    def test_nonmanifold_rejected(self):
        verts = [[0, 0], [1, 0], [0, 1], [1, 1], [-1, 1]]
        with pytest.raises(MeshError):
            build_topology(verts, [[0, 1, 2], [1, 3, 2], [0, 2, 4], [0, 1, 2]])

    @pytest.mark.parametrize("bad", [7, -1])
    def test_vertex_id_out_of_range_rejected(self, bad):
        with pytest.raises(MeshError, match="outside"):
            build_topology(SQUARE_VERTS, [[0, 1, 2, bad]])

    def test_no_cells_rejected(self):
        with pytest.raises(MeshError, match="no cells"):
            build_topology(SQUARE_VERTS, [])

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

    @pytest.mark.parametrize("x", [1e308, 1e77])
    def test_overflowing_coordinate_rejected(self, x):
        # products of such coordinates overflow: the error names that, before
        # the orientation check and with no numpy warning
        verts = SQUARE_VERTS.copy()
        verts[1, 0] = x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="overflows"):
                build_topology(verts, [[0, 1, 2, 3]])

    def test_largest_coordinate_builds(self):
        # at the bound, the topology and every geometric array are finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = build_topology(SQUARE_VERTS * _MAX_COORDINATE,
                                  [[0, 1, 2, 3]])
            for name in ("areas", "centroids", "diameters", "moment_tensors",
                         "second_moments", "edge_lengths", "edge_normals"):
                assert np.all(np.isfinite(getattr(mesh, name))), name

    def test_discrete_divergence_theorem(self):
        # sum of sign * |e| * n over each cell boundary vanishes to
        # round-off in the cell's perimeter, at any scale and offset: it is
        # the sum of perp(v_{k+1} - v_k) around a closed loop
        rng = np.random.default_rng(5)
        ang = np.sort(rng.uniform(0.0, 2 * np.pi, 300))
        r = rng.uniform(0.5, 1.0, 300)  # a star-shaped 300-gon
        for base in (generate_mesh("poly_voronoi_random", 25, seed=3),
                     one_cell(np.column_stack([r * np.cos(ang),
                                               r * np.sin(ang)]))):
            loops = per_cell(base, base.cell_vertex_ids)
            for scale, shift in ((1.0, 0.0), (1e-8, 0.0), (1e8, 0.0),
                                 (1.0, 1e6)):
                mesh = build_topology(base.vertices * scale + shift, loops)
                e, starts = mesh.cell_edge_ids, mesh.cell_offsets[:-1]
                flux = np.add.reduceat(
                    (mesh.cell_edge_signs * mesh.edge_lengths[e])[:, None]
                    * mesh.edge_normals[e], starts)
                perimeter = np.add.reduceat(mesh.edge_lengths[e], starts)
                assert np.all(np.abs(flux).max(axis=1)
                              < 1e-14 * perimeter), (scale, shift)

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
        assert report.star_ratio.min() > 0.0
        assert report.vertex_ratio.min() > 0.0

    def test_arrow_cell(self):
        # star-shaped, not convex: the kernel is the triangle (0,0), (2,0),
        # (1,1), inradius sqrt(2) - 1; h_E = 2 sqrt(2)
        mesh = one_cell(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0],
                                  [1.0, 1.0], [0.0, 2.0]]))
        report = check_assumptions(mesh)
        assert_allclose(report.star_ratio[0],
                        (np.sqrt(2.0) - 1.0) / (2.0 * np.sqrt(2.0)),
                        rtol=1e-12)
        assert_allclose(report.vertex_ratio[0], 0.5, rtol=1e-15)

    def test_u_cell_has_an_empty_kernel(self):
        # the inner sides x = 1 and x = 2 face away from each other
        mesh = one_cell(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0],
                                  [2.0, 3.0], [2.0, 1.0], [1.0, 1.0],
                                  [1.0, 3.0], [0.0, 3.0]]))
        assert check_assumptions(mesh).star_ratio[0] == 0.0

    def test_one_lp_per_mesh(self, monkeypatch):
        import scipy.optimize

        calls = []
        linprog = scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *args, **kw: calls.append(1)
                            or linprog(*args, **kw))
        for kind in ("quad_structured", "hex_structured", "poly_voronoi_cvt"):
            mesh = generate_mesh(kind, 8)
            report = check_assumptions(mesh)
            assert report.star_ratio.shape == (mesh.n_cells,)
        assert len(calls) == 3

    @pytest.mark.parametrize("kind", ["quad_structured",
                                      "poly_voronoi_random"])
    def test_report_is_scale_free(self, kind):
        # each cell's LP is in its own units, so coordinates near the
        # largest a mesh accepts reach no solver bound
        mesh = generate_mesh(kind, 4 if kind == "quad_structured" else 16,
                             seed=0)
        ref = check_assumptions(mesh)
        for scale in (1e20, _MAX_COORDINATE / np.abs(mesh.vertices).max()):
            report = check_assumptions(build_topology(
                scale * mesh.vertices, per_cell(mesh, mesh.cell_vertex_ids)))
            assert_allclose(report.star_ratio, ref.star_ratio, rtol=0,
                            atol=1e-12)
            assert_allclose(report.vertex_ratio, ref.vertex_ratio, rtol=0,
                            atol=1e-12)


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
                   zip(per_cell(back, back.cell_vertex_ids),
                       per_cell(mesh, mesh.cell_vertex_ids)))
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
                  for loop in per_cell(mesh, mesh.cell_vertex_ids)]
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
                                  per_cell(mesh, mesh.cell_vertex_ids))
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
            n_vertices=len(values), n_cells=len(offsets) - 1)
        assert write_mesh_text(stand_in) == self.reference_text(stand_in)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text("not a mesh\n")
        with pytest.raises(MeshError):
            load_mesh(path)
