import numpy as np
import pytest
from numpy.testing import assert_allclose

from vemhr import generators
from vemhr.generators import MESH_KINDS, generate_mesh, lloyd, voronoi_cells
from vemhr.mesh import (MeshError, build_topology, check_assumptions,
                        cook_domain, perp, shoelace)

from polygons import holed_quad_mesh

ALL_KINDS = list(MESH_KINDS)


def _clip(poly, n, b):
    """Keep the part of a polygon with n.x <= b (Sutherland-Hodgman step):
    the arithmetic of the clipping core, one cell and one line at a time."""
    if len(poly) == 0:
        return poly
    d = poly @ n - b
    if np.all(d <= 0.0):
        return poly
    out = []
    k = len(poly)
    for i in range(k):
        j = (i + 1) % k
        if d[i] <= 0.0:
            out.append(poly[i])
        if (d[i] <= 0.0) != (d[j] <= 0.0):
            t = d[i] / (d[i] - d[j])
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.array(out) if out else np.empty((0, 2))


class TestCounts:
    def test_quad_structured_2x2(self):
        mesh = generate_mesh("quad_structured", 2)
        assert (mesh.n_cells, mesh.n_edges, mesh.n_vertices) == (4, 12, 9)

    def test_tri_structured_1(self):
        mesh = generate_mesh("tri_structured", 1)
        assert (mesh.n_cells, mesh.n_edges) == (2, 5)

    def test_voronoi_cell_count_and_partition(self):
        mesh = generate_mesh("poly_voronoi_cvt", 64, seed=0)
        assert mesh.n_cells == 64
        assert abs(mesh.areas.sum() - 1.0) < 1e-12

    def test_hex_mix(self):
        mesh = generate_mesh("hex_structured", 6)
        sizes = set(np.diff(mesh.cell_offsets).tolist())
        assert 6 in sizes            # hexagons in the interior
        assert sizes <= {3, 4, 5, 6, 7}  # quads/pentagons at the boundary


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_all_kinds_valid(kind):
    n = 16 if kind.startswith("poly_voronoi") else 4
    mesh = generate_mesh(kind, n, seed=0)
    assert abs(mesh.areas.sum() - 1.0) < 1e-10
    report = check_assumptions(mesh)
    assert report.star_ratio.min() > 0.05
    assert report.vertex_ratio.min() > 0.01
    assert mesh.mean_edge_length > 0
    assert mesh.metadata["kind"] == kind


def _star_ratio_reference(coords, h):
    """Cell by cell: clip the cell by each of its own edge lines (the
    visibility kernel), then the Chebyshev radius of that polygon from its
    own LP, over h; 0 when the kernel is empty."""
    from scipy.optimize import linprog

    poly = coords
    for a, b in zip(coords, np.roll(coords, -1, axis=0)):
        n = perp(b - a)  # outward for a CCW loop
        poly = _clip(poly, n, float(n @ a))
        if len(poly) < 3:
            return 0.0
    t = np.roll(poly, -1, axis=0) - poly
    lengths = np.linalg.norm(t, axis=1)
    keep = lengths > 1e-12 * lengths.max()  # clipping may repeat vertices
    poly, t, lengths = poly[keep], t[keep], lengths[keep]
    if len(poly) < 3:
        return 0.0
    n = perp(t) / lengths[:, None]
    res = linprog([0.0, 0.0, -1.0], A_ub=np.column_stack([n, np.ones(len(n))]),
                  b_ub=np.einsum("ij,ij->i", n, poly),
                  bounds=[(None, None)] * 3, method="highs")
    return max(res.x[2], 0.0) / h if res.success else 0.0


@pytest.mark.parametrize("domain", [None, cook_domain()], ids=["square", "cook"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_report_matches_cell_by_cell_reference(kind, domain):
    mesh = generate_mesh(kind, 16 if kind.startswith("poly_voronoi") else 4,
                         domain=domain)
    report = check_assumptions(mesh)
    for c, ids in enumerate(np.split(mesh.cell_vertex_ids,
                                     mesh.cell_offsets[1:-1])):
        coords = mesh.vertices[ids]
        h = mesh.diameters[c]
        dist = np.sqrt(((coords[:, None, :] - coords[None, :, :])**2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        assert report.vertex_ratio[c] == dist.min() / h
        ref = _star_ratio_reference(coords, h)
        assert ref > 0.0
        assert abs(report.star_ratio[c] - ref) <= 1e-10 * ref


@pytest.mark.parametrize("kind, n", [
    pytest.param("quad_structured", 4, id="quad_structured"),
    pytest.param("poly_voronoi_random", 16, id="poly_voronoi_random"),
    pytest.param("poly_voronoi_cvt", 16, id="poly_voronoi_cvt"),
    # clipped honeycomb cells here reach down to 1.6e-7 of a hexagon
    pytest.param("hex_structured", 4, id="hex_structured-4"),
    pytest.param("hex_structured", 19, id="hex_structured-19"),
    pytest.param("hex_structured", 64, id="hex_structured-64"),
])
def test_cook_domain_generation(kind, n):
    mesh = generate_mesh(kind, n, domain=cook_domain(), seed=0)
    assert_allclose(mesh.areas.sum(), 1440.0, rtol=1e-12)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate_mesh("poly_voronoi_random", 30, seed=5)
        b = generate_mesh("poly_voronoi_random", 30, seed=5)
        assert np.array_equal(a.vertices, b.vertices)

    def test_different_seed_differs(self):
        a = generate_mesh("quad_unstructured", 4, seed=1)
        b = generate_mesh("quad_unstructured", 4, seed=2)
        assert not np.array_equal(a.vertices, b.vertices)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown mesh kind"):
            generate_mesh("hexahedral", 4)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            generate_mesh("quad_structured", 0)

    @pytest.mark.parametrize("resolution", [
        [4, 8], 4.0, (4, 8.0), True, "4", (4, 0), np.float64(4)],
        ids=["list", "float", "float_in_tuple", "bool", "str",
             "zero_in_tuple", "numpy_float"])
    def test_resolution_not_an_integer(self, resolution):
        with pytest.raises(ValueError, match="resolution must be a positive "
                           "integer") as exc:
            generate_mesh("poly_voronoi_cvt", resolution)
        assert repr(resolution) in str(exc.value)

    @pytest.mark.parametrize("domain, match", [
        ([[0, 0], [0, 1], [1, 1], [1, 0]], "corners are clockwise"),
        ([[0, 0], [1, 0], [2, 0], [1, 1]], "corner 1 is collinear"),
        ([[0, 0], [1, 0], [0.3, 0.3], [0, 1]], "corner 2 is reflex")],
        ids=["clockwise", "collinear", "non_convex"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bad_quad_domain_rejected(self, kind, domain, match):
        # a clockwise square leaves the Voronoi seed sampler no inside point
        with pytest.raises(ValueError, match=match):
            generate_mesh(kind, 4, domain=domain)

    @pytest.mark.parametrize("kind", ["quad_structured", "tri_structured",
                                      "quad_unstructured", "tri_unstructured"])
    def test_grid_kind_needs_a_quadrilateral(self, kind):
        with pytest.raises(ValueError, match="quadrilateral domain"):
            generate_mesh(kind, 4, domain=[[0, 0], [1, 0], [0, 1]])

    def test_cells_short_of_the_domain_area(self):
        # every vertex lies in the unit square, but the cells cover half
        half = build_topology([[0, 0], [1, 0], [1, 0.5], [0, 0.5]],
                              [[0, 1, 2, 3]])
        with pytest.raises(MeshError, match="areas add up to 0.5, not 1"):
            generators._check_partition(half, generators.UNIT_SQUARE)

    def test_hole_and_overlap(self):
        # vertices inside and areas matching, but boundary edges inside
        mesh = holed_quad_mesh()
        assert_allclose(mesh.areas.sum(), 1.0, rtol=1e-15)
        with pytest.raises(MeshError, match="boundary edge .* is not on its "
                                            "boundary"):
            generators._check_partition(mesh, generators.UNIT_SQUARE)

    def test_voronoi_cells_and_lloyd_check_the_domain(self):
        clockwise = [[0, 0], [0, 1], [1, 1], [1, 0]]
        seeds = np.array([[0.3, 0.4], [0.6, 0.5]])
        with pytest.raises(ValueError, match="corners are clockwise"):
            voronoi_cells(seeds, clockwise)
        with pytest.raises(ValueError, match="corners are clockwise"):
            lloyd(seeds, clockwise, 5)

    @pytest.mark.parametrize("domain, match", [
        ([[0, 0], [1, 0]], r"\(n, 2\) array of n >= 3 finite"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], r"\(n, 2\) array"),
        ([[0, 0], [1, np.nan], [0, 1]], "finite corners, not .*nan"),
        ([[0, 0], [1, 0], [1, 1], [1, 1], [0, 1]], "corner 2 is collinear"),
        ([[0, 0], [0, 0], [0, 0]], "corner 0 is collinear"),
        ([[np.cos(t), np.sin(t)] for t in 0.8 * np.pi * np.arange(5)],
         "winds 2 times")],
        ids=["two_corners", "three_columns", "nan", "repeated_corner",
             "zero_area", "pentagram"])
    def test_domain_defect_named(self, domain, match):
        with pytest.raises(ValueError, match=match):
            generate_mesh("poly_voronoi_random", 4, domain=domain)

    @pytest.mark.parametrize("domain", [generators.UNIT_SQUARE.tolist(),
                                        cook_domain()], ids=["square", "cook"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_convex_ccw_domain_accepted(self, kind, domain):
        mesh = generate_mesh(kind, 3, domain=domain)
        area = shoelace(np.asarray(domain, dtype=float))[0][0]
        assert_allclose(mesh.areas.sum(), area, rtol=1e-12)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"],
                             ids=["negative", "float", "bool", "str"])
    @pytest.mark.parametrize("kind", ["poly_voronoi_random",
                                      "hex_structured"])
    def test_seed_not_a_non_negative_integer(self, kind, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative "
                           "integer") as exc:
            generate_mesh(kind, 4, seed=seed)
        assert repr(seed) in str(exc.value)

    def test_numpy_integer_resolutions(self):
        meshes = generate_mesh("poly_voronoi_random",
                               (np.int32(4), np.int64(9)), seed=1)
        for mesh, ref in zip(meshes, generate_mesh("poly_voronoi_random",
                                                   (4, 9), seed=1)):
            _assert_same_mesh(mesh, ref)
        assert generate_mesh("quad_structured", np.uint8(3)).n_cells == 9


class TestVoronoi:
    def test_cells_partition_domain(self):
        rng = np.random.default_rng(0)
        seeds = rng.uniform(0.05, 0.95, size=(40, 2))
        domain = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        cells = voronoi_cells(seeds, domain)
        total = 0.0
        for seed, poly in zip(seeds, cells):
            assert poly is not None
            nxt = np.roll(poly, -1, axis=0)
            area = 0.5 * (poly[:, 0] * nxt[:, 1] - nxt[:, 0] * poly[:, 1]).sum()
            assert area > 0
            total += area
            # the seed lies in its own cell
            t = nxt - poly
            rel = seed - poly
            assert np.all(t[:, 0] * rel[:, 1] - t[:, 1] * rel[:, 0] > -1e-12)
        assert_allclose(total, 1.0, rtol=1e-12)

    def test_lloyd_moves_seeds_to_centroids(self):
        # Lloyd converges linearly; after enough sweeps every seed sits at
        # its cell centroid to a small tolerance
        rng = np.random.default_rng(2)
        domain = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        seeds = rng.uniform(0.1, 0.9, size=(9, 2))
        relaxed, info = lloyd(seeds, domain, 800)
        assert info["lloyd_last_move"] < 1e-5
        cells = voronoi_cells(relaxed, domain)
        for seed, poly in zip(relaxed, cells):
            nxt = np.roll(poly, -1, axis=0)
            cross = poly[:, 0] * nxt[:, 1] - nxt[:, 0] * poly[:, 1]
            area = 0.5 * cross.sum()
            centroid = (poly + nxt).T @ cross / (6 * area)
            assert np.linalg.norm(centroid - seed) < 1e-5

    def test_cvt_metadata(self):
        mesh = generate_mesh("poly_voronoi_cvt", 16, seed=0)
        assert mesh.metadata["lloyd_iterations"] <= 50
        assert "lloyd_converged" in mesh.metadata


def _area_and_moment(poly):
    """Area and first moment (area times centroid) of a CCW loop; an empty
    cell has both zero."""
    if poly is None:
        return 0.0, np.zeros(2)
    nxt = np.roll(poly, -1, axis=0)
    cross = poly[:, 0] * nxt[:, 1] - nxt[:, 0] * poly[:, 1]
    return 0.5 * cross.sum(), (poly + nxt).T @ cross / 6.0


def _oracle_cell(seeds, i, domain):
    """The domain clipped by the bisectors of seed i with every other seed."""
    poly = np.asarray(domain, dtype=float)
    p = seeds[i]
    for j in range(len(seeds)):
        if j != i:
            half = seeds[j] - p
            poly = _clip(poly, half, float(half @ (0.5 * (seeds[j] + p))))
    return poly if len(poly) >= 3 else None


def _assert_matches_oracle(seeds, domain):
    """Areas, first moments and (for cells that are not round-off slivers)
    centroids of voronoi_cells against brute-force clipping, to 1e-12 of
    the domain's size."""
    seeds = np.asarray(seeds, dtype=float)
    dom = np.asarray(domain, dtype=float)
    scale = np.linalg.norm(dom.max(axis=0) - dom.min(axis=0))
    cells = voronoi_cells(seeds, domain)
    assert len(cells) == len(seeds)
    for i, cell in enumerate(cells):
        assert cell is None or len(cell) >= 3
        area, moment = _area_and_moment(cell)
        ref_area, ref_moment = _area_and_moment(_oracle_cell(seeds, i, dom))
        assert abs(area - ref_area) <= 1e-12 * scale**2
        assert np.abs(moment - ref_moment).max() <= 1e-12 * scale**3
        if ref_area > 1e-9 * scale**2:
            assert np.abs(moment / area - ref_moment / ref_area).max() \
                <= 1e-12 * scale
    return cells


class TestVoronoiOracle:
    @pytest.mark.parametrize("m", [3, 40, 200])
    def test_random_unit_square(self, m):
        seeds = np.random.default_rng(m).uniform(0.0, 1.0, size=(m, 2))
        cells = _assert_matches_oracle(seeds, generators.UNIT_SQUARE)
        assert all(c is not None for c in cells)

    @pytest.mark.parametrize("m", [5, 64, 150])
    def test_random_cook_domain(self, m):
        rng = np.random.default_rng(m)
        seeds = generators._sample_seeds(cook_domain(), m, rng)
        _assert_matches_oracle(seeds, cook_domain())

    @pytest.mark.parametrize("domain", [generators.UNIT_SQUARE, cook_domain()],
                             ids=["square", "cook"])
    def test_honeycomb_lattice(self, domain):
        # co-circular seeds, seeds outside the domain, zero-width slivers
        seeds = generators._honeycomb_seeds(domain, 5)
        cells = _assert_matches_oracle(seeds, domain)
        assert any(c is None for c in cells)

    def test_one_seed_is_the_domain(self):
        cells = _assert_matches_oracle([[0.3, 0.4]], generators.UNIT_SQUARE)
        assert_allclose(cells[0], generators.UNIT_SQUARE, rtol=0, atol=0)

    def test_two_seeds(self):
        cells = _assert_matches_oracle([[0.25, 0.5], [0.75, 0.5]],
                                       generators.UNIT_SQUARE)
        assert_allclose([_area_and_moment(c)[0] for c in cells], [0.5, 0.5],
                        atol=1e-15)

    def test_domain_as_plain_list(self):
        seeds = np.random.default_rng(1).uniform(0.0, 1.0, size=(12, 2))
        cells = _assert_matches_oracle(seeds, generators.UNIT_SQUARE.tolist())
        ref = voronoi_cells(seeds, generators.UNIT_SQUARE)
        assert all(np.array_equal(a, b) for a, b in zip(cells, ref))

    def test_far_seed_widens_the_neighbour_query(self, monkeypatch):
        # the far seed's cell is half the square: no bisector of the 60
        # clustered seeds certifies it, so it needs all of them
        rng = np.random.default_rng(4)
        seeds = np.vstack([0.5 + 0.01 * rng.standard_normal((60, 2)),
                           [[0.02, 0.98]]])
        ks = []
        nearest = generators._nearest
        monkeypatch.setattr(generators, "_nearest",
                            lambda tree, pts, k: ks.append(k)
                            or nearest(tree, pts, k))
        _assert_matches_oracle(seeds, generators.UNIT_SQUARE)
        assert ks[0] == generators._NEIGHBOURS and max(ks) == len(seeds)


def _clip_sets_reference(seed_sets, domain):
    """Seed by seed: the domain clipped with :func:`_clip` by the bisectors
    of its set's seeds in rank order, until the security-radius
    certificate holds, re-querying with k doubled past the last rank and
    taking the neighbours not used yet."""
    from scipy.spatial import cKDTree

    domain = np.asarray(domain, dtype=float)
    ids, loops, first = [], [], 0
    for seeds in seed_sets:
        seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
        tree = cKDTree(seeds)
        m = len(seeds)
        for i, p in enumerate(seeds):
            k = min(m, generators._NEIGHBOURS)
            dists, nbrs = generators._nearest(tree, p[None], k)
            poly, rank = domain, 1
            while len(poly) >= 3:
                if rank == k < m:
                    # ranks below k stay; then the unused new neighbours
                    k = min(2 * k, m)
                    d, nb = generators._nearest(tree, p[None], k)
                    fresh = ~np.isin(nb[0], nbrs[0, :rank])
                    dists = np.concatenate(
                        [dists[0, :rank], d[0, fresh][:k - rank]])[None]
                    nbrs = np.concatenate(
                        [nbrs[0, :rank], nb[0, fresh][:k - rank]])[None]
                dist = dists[0, rank] if rank < k else np.inf
                if dist**2 > 4.0 * ((poly - p)**2).sum(axis=1).max():
                    ids.append(first + i)
                    loops.append(poly)
                    break
                q = seeds[nbrs[0, rank]]
                half = q - p
                poly = _clip(poly, half, float(half @ (0.5 * (q + p))))
                rank += 1
        first += m
    return (np.array(ids), np.concatenate(loops),
            np.array([len(loop) for loop in loops]))


def _assert_core_matches_reference(seed_sets, domain):
    got = generators._clip_sets(seed_sets, domain)
    ref = _clip_sets_reference(seed_sets, domain)
    for name, x, y in zip(("ids", "points", "counts"), got, ref):
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("domain", [None, cook_domain()], ids=["square", "cook"])
def test_hex_mesh_does_not_depend_on_the_first_query_size(monkeypatch, domain):
    # equidistant lattice neighbours come in (distance, seed id) order, so
    # the honeycomb cells are clipped in the same order whatever k is
    meshes = {}
    for k in (8, 12, 24):
        monkeypatch.setattr(generators, "_NEIGHBOURS", k)
        meshes[k] = [generate_mesh("hex_structured", n, domain=domain)
                     for n in (3, 8, 16, 33)]
    for k in (8, 12):
        for mesh, ref in zip(meshes[k], meshes[24]):
            _assert_same_mesh(mesh, ref)


@pytest.mark.parametrize("domain", [None, cook_domain()], ids=["square", "cook"])
def test_hex_mesh_with_a_small_first_query(monkeypatch, domain):
    # below rank 7 the lattice cells re-query; equidistant neighbours that
    # straddle the first k are each used once, so the honeycomb is the same
    # up to the order of the clipping steps
    meshes = {}
    for k in (2, 3, 6, 8, 12):
        monkeypatch.setattr(generators, "_NEIGHBOURS", k)
        meshes[k] = [generate_mesh("hex_structured", n, domain=domain)
                     for n in (3, 8, 16, 33)]
    for k in (2, 3, 6, 8):
        for mesh, ref in zip(meshes[k], meshes[12]):
            assert (mesh.n_cells, mesh.n_edges) == (ref.n_cells, ref.n_edges)
            assert np.abs(np.sort(mesh.areas) - np.sort(ref.areas)).max() \
                <= 1e-12 * ref.areas.max()


class TestClipCoreLoopReference:
    """The vectorised clipping core equals a cell-by-cell loop, bit for bit."""

    @pytest.mark.parametrize("neighbours", [None, 3], ids=["first-k", "k3"])
    @pytest.mark.parametrize("m", [1, 2, 40, 200])
    @pytest.mark.parametrize("domain", [generators.UNIT_SQUARE, cook_domain()],
                             ids=["square", "cook"])
    def test_random_seeds(self, monkeypatch, domain, m, neighbours):
        # k = 3 sends most cells through the doubled re-query
        if neighbours is not None:
            monkeypatch.setattr(generators, "_NEIGHBOURS", neighbours)
        seeds = generators._sample_seeds(domain, m, np.random.default_rng(m))
        _assert_core_matches_reference([seeds], domain)

    @pytest.mark.parametrize("n", [5, 12])
    @pytest.mark.parametrize("domain", [generators.UNIT_SQUARE, cook_domain()],
                             ids=["square", "cook"])
    def test_honeycomb_lattice(self, domain, n):
        _assert_core_matches_reference([generators._honeycomb_seeds(domain, n)],
                                       domain)

    @pytest.mark.parametrize("domain", [generators.UNIT_SQUARE, cook_domain()],
                             ids=["square", "cook"])
    def test_honeycomb_lattice_re_query(self, monkeypatch, domain):
        # k = 3 ends the first query inside runs of equidistant neighbours
        monkeypatch.setattr(generators, "_NEIGHBOURS", 3)
        _assert_core_matches_reference([generators._honeycomb_seeds(domain, 8)],
                                       domain)

    def test_far_seed(self):
        rng = np.random.default_rng(4)
        seeds = np.vstack([0.5 + 0.01 * rng.standard_normal((60, 2)),
                           [[0.02, 0.98]]])
        _assert_core_matches_reference([seeds], generators.UNIT_SQUARE)

    def test_several_sets(self):
        domain = cook_domain()
        sets = [generators._sample_seeds(domain, n, np.random.default_rng(n))
                for n in (1, 16, 144)]
        _assert_core_matches_reference(sets, domain)


def _assert_same_mesh(a, b):
    for name in ("vertices", "cell_offsets", "cell_vertex_ids",
                 "cell_edge_ids", "cell_edge_signs", "edge_nodes"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a.metadata == b.metadata


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("levels", [(16, 64, 144), (64, 256)],
                         ids=["16-64-144", "64-256"])
@pytest.mark.parametrize("domain", [None, cook_domain()], ids=["square", "cook"])
@pytest.mark.parametrize("kind", ["poly_voronoi_cvt", "poly_voronoi_random",
                                  "hex_structured"])
def test_resolution_tuple_equals_separate_calls(kind, domain, levels, seed):
    if kind == "hex_structured":
        # the levels are seed counts: a honeycomb of n**2 cells has n
        levels = tuple(int(np.sqrt(n)) for n in levels)
    meshes = generate_mesh(kind, levels, domain=domain, seed=seed)
    assert len(meshes) == len(levels)
    for n, mesh in zip(levels, meshes):
        _assert_same_mesh(mesh, generate_mesh(kind, n, domain=domain,
                                              seed=seed))


@pytest.mark.parametrize("domain", [None, cook_domain()], ids=["square", "cook"])
def test_hex_tuple_one_core_call(monkeypatch, domain):
    levels = (2, 5, 9)
    reference = [generate_mesh("hex_structured", n, domain=domain)
                 for n in levels]
    calls = []
    core = generators._clip_sets
    monkeypatch.setattr(generators, "_clip_sets",
                        lambda sets, dom: calls.append(len(sets))
                        or core(sets, dom))
    meshes = generate_mesh("hex_structured", levels, domain=domain)
    assert calls == [len(levels)]
    for mesh, ref in zip(meshes, reference):
        _assert_same_mesh(mesh, ref)
        assert mesh.metadata["lloyd_iterations"] == 0
        assert mesh.metadata["lloyd_converged"] is True


@pytest.mark.parametrize("domain, levels, sweeps", [
    (None, (1, 16), (2, 50)),
    (cook_domain(), (1, 2, 16), (2, 45, 50)),
], ids=["square", "cook"])
def test_cvt_one_core_call_per_sweep(monkeypatch, domain, levels, sweeps):
    # sets relax together, each stops on its own test: one clipping-core
    # call per sweep of the longest set, plus one for all final cells
    reference = [generate_mesh("poly_voronoi_cvt", n, domain=domain)
                 for n in levels]
    calls = []
    core = generators._clip_sets
    monkeypatch.setattr(generators, "_clip_sets",
                        lambda sets, dom: calls.append(len(sets))
                        or core(sets, dom))
    meshes = generate_mesh("poly_voronoi_cvt", levels, domain=domain)
    assert [m.metadata["lloyd_iterations"] for m in meshes] == list(sweeps)
    assert len(calls) == max(sweeps) + 1
    # a set leaves the sweeps once it stops; the final call clips them all
    assert calls[:-1] == [sum(s > it for s in sweeps)
                          for it in range(max(sweeps))]
    assert calls[-1] == len(levels)
    for mesh, ref in zip(meshes, reference):
        lloyd_keys = {k for k in mesh.metadata if k.startswith("lloyd_")}
        assert lloyd_keys == {"lloyd_iterations", "lloyd_converged",
                              "lloyd_last_move"}
        _assert_same_mesh(mesh, ref)


def _grid_mesh_reference(domain, n, triangles, jitter_seed=None):
    """Quad by quad, one random draw per quad with two valid splits."""
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    xi = (ii / n).ravel()
    eta = (jj / n).ravel()
    rng = None
    if jitter_seed is not None:
        rng = np.random.default_rng(jitter_seed)
        interior = (ii.ravel() % n != 0) & (jj.ravel() % n != 0)
        dxi = np.zeros_like(xi)
        deta = np.zeros_like(eta)
        step = generators._JITTER / n
        dxi[interior] = rng.uniform(-step, step, interior.sum())
        deta[interior] = rng.uniform(-step, step, interior.sum())
        xi = xi + dxi
        eta = eta + deta
    verts = generators._bilinear(domain, xi, eta)

    def area(tri):
        a, b, c = verts[list(tri)]
        return 0.5 * ((b[0] - a[0]) * (c[1] - a[1])
                      - (b[1] - a[1]) * (c[0] - a[0]))

    loops = []
    for i in range(n):
        for j in range(n):
            q = [i * (n + 1) + j, (i + 1) * (n + 1) + j,
                 (i + 1) * (n + 1) + j + 1, i * (n + 1) + j + 1]
            if not triangles:
                loops.append(q)
                continue
            splits = ([(q[0], q[1], q[2]), (q[0], q[2], q[3])],
                      [(q[0], q[1], q[3]), (q[1], q[2], q[3])])
            if rng is None:
                choice = splits[0]
            else:
                valid = [s for s in splits if all(area(t) > 0 for t in s)]
                choice = valid[rng.integers(len(valid))]
            loops.extend(list(t) for t in choice)
    return build_topology(verts, loops)


@pytest.mark.parametrize("domain", [generators.UNIT_SQUARE, cook_domain()],
                         ids=["square", "cook"])
@pytest.mark.parametrize("kind", ["tri_structured", "quad_structured",
                                  "tri_unstructured", "quad_unstructured"])
def test_grid_mesh_matches_loop_reference(kind, domain):
    jittered = kind.endswith("_unstructured")
    for n in range(1, 13):
        for seed in range(5):
            mesh = generate_mesh(kind, n, domain=domain, seed=seed)
            ref = _grid_mesh_reference(domain, n, kind.startswith("tri"),
                                       seed if jittered else None)
            ref.metadata.update(mesh.metadata)
            _assert_same_mesh(mesh, ref)


def test_quad_without_valid_split_is_rejected(monkeypatch):
    # jitter of several grid steps tangles quads beyond either diagonal
    monkeypatch.setattr(generators, "_JITTER", 5.0)
    with pytest.raises(ValueError):
        generate_mesh("tri_unstructured", 8, seed=0)
