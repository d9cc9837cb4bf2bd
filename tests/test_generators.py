import numpy as np
import pytest
from numpy.testing import assert_allclose

from vemhr import generators
from vemhr.generators import MESH_KINDS, generate_mesh, lloyd, voronoi_cells
from vemhr.mesh import _clip, build_topology, check_assumptions, cook_domain

ALL_KINDS = list(MESH_KINDS)


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
        sizes = {len(loop) for loop in mesh.cell_vertices}
        assert 6 in sizes            # hexagons in the interior
        assert sizes <= {3, 4, 5, 6, 7}  # quads/pentagons at the boundary


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_all_kinds_valid(kind):
    n = 16 if kind.startswith("poly_voronoi") else 4
    mesh = generate_mesh(kind, n, seed=0)
    assert abs(mesh.areas.sum() - 1.0) < 1e-10
    report = check_assumptions(mesh)
    assert report.min_star_ratio > 0.05
    assert report.min_vertex_ratio > 0.01
    assert mesh.mean_edge_length > 0
    assert mesh.metadata["kind"] == kind


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
        assert ks[0] == 24 and max(ks) == len(seeds)


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
@pytest.mark.parametrize("kind", ["poly_voronoi_cvt", "poly_voronoi_random"])
def test_resolution_tuple_equals_separate_calls(kind, domain, levels, seed):
    meshes = generate_mesh(kind, levels, domain=domain, seed=seed)
    assert len(meshes) == len(levels)
    for n, mesh in zip(levels, meshes):
        _assert_same_mesh(mesh, generate_mesh(kind, n, domain=domain,
                                              seed=seed))


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
