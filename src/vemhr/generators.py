"""Mesh generators for the benchmark families.

Seven kinds are provided.  Structured and jittered kinds interpret
``resolution`` as the number of subdivisions per direction of the reference
square; Voronoi kinds interpret it as the number of seeds.  All randomized
generators are deterministic given the seed, which is recorded in the mesh
metadata together with the kind, the resolution and the Lloyd iteration
record.  Shape-regularity is not checked here: call
:func:`vemhr.mesh.check_assumptions` on the mesh for that report.

The hexagonal kind is realized as the Voronoi diagram of a regular
triangular lattice clipped to the domain: hexagons in the interior, quads
and pentagons along the boundary.  It goes through the Voronoi driver with
lattice seed sets and no Lloyd sweep.

Every Voronoi kind, and every Lloyd sweep behind the centroidal one, goes
through one clipping core, :func:`_clip_sets`: it clips all cells of
several seed sets together, one vectorised Sutherland-Hodgman half-plane
step per neighbour rank, each cell cut only by bisectors of its own set.
A tuple of resolutions therefore costs one rank loop per Lloyd sweep for
all its meshes: ``generate_mesh(kind, (16, 64, 144))`` relaxes the three
seed sets together and clips their final cells in one call, with the same
meshes, bit for bit, as three separate calls.  At each rank the cells that
the security radius certifies final retire before the clip step, so only
the others are cut.  Neighbours come from a first k-nearest query of
k = 12, equidistant seeds in seed-id order; the cells that need more query
again with k doubled and take, from the rank they reached on, the new
neighbours they have not used yet.  So every neighbour is used once, and
the honeycomb cells depend neither on the query size nor on the tree's
tie-breaking.  The core equals, bit for bit, a cell-by-cell loop of the
scalar Sutherland-Hodgman step ``_clip`` in ``tests/test_generators.py``,
the tests' oracle.  :func:`voronoi_cells` and :func:`lloyd` are one-set
views of the same core.

``scipy.spatial`` and ``scipy.sparse.csgraph`` are imported by the two
functions that use them, :func:`_clip_sets` and :func:`_mesh_from_cells`,
so importing vemhr and solving on a mesh file loads neither: they load with
the first Voronoi or honeycomb mesh.
"""

import numbers

import numpy as np

from .mesh import (MeshError, _next_slot, _offsets, _orient, build_topology,
                   shoelace)
# Re-exported: perfbench/tracing.py wraps the shape report under this name.
from .mesh import check_assumptions  # noqa: F401

__all__ = ["MESH_KINDS", "UNIT_SQUARE", "generate_mesh", "voronoi_cells", "lloyd"]

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

MESH_KINDS = (
    "tri_structured",
    "quad_structured",
    "hex_structured",
    "tri_unstructured",
    "quad_unstructured",
    "poly_voronoi_random",
    "poly_voronoi_cvt",
)

_JITTER = 0.2  # fraction of the grid step used by the unstructured kinds
_LLOYD_ITERS = 50
_NEIGHBOURS = 12  # first k of the nearest-neighbour query in _clip_sets
_MIN_WIDTH = 1e-6  # least width of a domain over its diameter


def generate_mesh(kind, resolution, domain=None, seed=0):
    """Generate one of the benchmark meshes on a convex polygonal domain.

    Parameters
    ----------
    kind : str
        One of :data:`MESH_KINDS`.
    resolution : int or tuple of int
        Subdivisions per direction (grid-based kinds) or seed count
        (Voronoi kinds): a positive integer, numpy integers included;
        anything else (a float, a bool, a list) is a ValueError.  A tuple
        gives one mesh per entry, returned as a list in the same order and
        equal to the meshes of separate calls; the Voronoi kinds build them
        together (see the module docstring).
    domain : array_like, optional
        CCW corners of a strictly convex domain, else a ValueError; defaults
        to the unit square.  Grid-based kinds require a quadrilateral.
    seed : int
        Non-negative RNG seed for the randomized kinds (checked on every kind);
        every mesh of a tuple draws from its own generator seeded with it.

    The centroidal kind runs up to 50 Lloyd sweeps; the honeycomb, like the
    random kind, records none (``lloyd_iterations = 0``, converged).
    """
    if kind not in MESH_KINDS:
        raise ValueError(f"unknown mesh kind {kind!r}; expected one of {MESH_KINDS}")
    resolutions = resolution if isinstance(resolution, tuple) else (resolution,)
    if not all(map(_is_count, resolutions)):
        raise ValueError("resolution must be a positive integer or a tuple "
                         f"of them, not {resolution!r}")
    if not _is_seed(seed):
        raise ValueError(f"seed must be a non-negative integer, not {seed!r}")
    domain = UNIT_SQUARE if domain is None else _convex_domain(domain)

    if kind == "hex_structured":
        meshes = _voronoi_meshes(
            domain, [_honeycomb_seeds(domain, n) for n in resolutions], 0)
    elif kind.startswith("poly_voronoi"):
        meshes = _voronoi_meshes(
            domain, [_sample_seeds(domain, n, np.random.default_rng(seed))
                     for n in resolutions],
            _LLOYD_ITERS if kind == "poly_voronoi_cvt" else 0)
    else:
        jitter_seed = seed if kind.endswith("_unstructured") else None
        meshes = [_grid_mesh(domain, n, triangles=kind.startswith("tri"),
                             jitter_seed=jitter_seed) for n in resolutions]

    for mesh, n in zip(meshes, resolutions):
        mesh.metadata.update(kind=kind, resolution=int(n), seed=int(seed))
        _check_partition(mesh, domain)
    return meshes if isinstance(resolution, tuple) else meshes[0]


def _is_count(n):
    """True for a positive integer, numpy integers included (not bools)."""
    return _is_seed(n) and n >= 1


def _is_seed(n):
    """True for a non-negative integer, numpy ints included (not bools)."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) \
        and n >= 0


def _convex_domain(domain):
    """The corners as floats, checked: an (n, 2) array of n >= 3 finite
    corners, each a strict left turn, the turns adding up to one turn, and
    a width (the least, over the sides, of the farthest corner's distance
    from the side's line) of at least ``_MIN_WIDTH`` of the diameter.

    The floor is three orders above the generators' tolerances: the seed
    sampler keeps seeds farther than 1e-9 of the bounding box's diagonal
    (at most sqrt(2) diameters) from every side, and ``_check_partition``
    puts vertices within 1e-9 of the diameter on a side.  A convex domain's
    inradius is at least a third of its width, so above the floor the
    sampler's region keeps over 99 % of the domain's area and the bands
    never cover it; a width near the tolerances leaves the sampler no
    room, and it would draw forever."""
    domain = np.asarray(domain, dtype=float)
    if domain.ndim != 2 or domain.shape[1] != 2 or len(domain) < 3 \
            or not np.all(np.isfinite(domain)):
        raise ValueError("domain must be an (n, 2) array of n >= 3 finite "
                         f"corners, not {domain.tolist()}")
    into = domain - np.roll(domain, 1, axis=0)  # the sides into each corner
    out = np.roll(into, -1, axis=0)  # and out of it
    cross = into[:, 0] * out[:, 1] - into[:, 1] * out[:, 0]
    turns = np.arctan2(cross, (into * out).sum(axis=1)).sum() / (2 * np.pi)
    if np.all(cross < 0):
        defect = "its corners are clockwise"
    elif np.any(cross <= 0):
        i = int(np.argmax(cross <= 0))
        kind = "reflex" if cross[i] < 0 else "collinear with its neighbours"
        defect = f"corner {i} is {kind}"
    elif not np.isclose(turns, 1.0):
        defect = f"its boundary winds {turns:.0f} times"
    else:
        width = _side_distances(domain, domain).max(axis=0).min()
        diameter = np.linalg.norm(domain[:, None] - domain, axis=-1).max()
        if width < _MIN_WIDTH * diameter:
            raise ValueError(f"domain is too thin: its width {width:.3g} is "
                             f"below {_MIN_WIDTH:g} of its diameter "
                             f"{diameter:.3g}")
        return domain
    raise ValueError(f"domain must be strictly convex and counterclockwise: "
                     f"{defect}")


def _side_distances(points, domain):
    """Signed distance of each point from each side's line of the CCW
    ``domain``, positive inside; (n_points, n_sides)."""
    side = np.roll(domain, -1, axis=0) - domain
    rel = points[:, None, :] - domain
    return ((side[:, 0] * rel[..., 1] - side[:, 1] * rel[..., 0])
            / np.hypot(side[:, 0], side[:, 1]))


def _check_partition(mesh, domain):
    """MeshError unless the cells tile the convex ``domain``: every vertex
    lies in it, within 1e-9 of its diameter, the cell areas add up to its
    area, and both ends of every boundary edge lie on one of its sides.
    The cells are counterclockwise, so then they cover it exactly once (a
    hole or an overlap leaves boundary edges inside the domain)."""
    dist = _side_distances(mesh.vertices, domain)
    tol = 1e-9 * np.linalg.norm(domain[:, None] - domain, axis=-1).max()
    if np.any(dist < -tol):
        v = int(np.argmin(dist.min(axis=1)))
        raise MeshError("the cells do not tile the domain: vertex "
                        f"{v} at {mesh.vertices[v].tolist()} lies outside it")
    target = shoelace(domain)[0][0]
    if abs(mesh.areas.sum() - target) > 1e-10 * target:
        raise MeshError("the cells do not tile the domain: their areas add "
                        f"up to {mesh.areas.sum():.12g}, not {target:.12g}")
    on = np.abs(dist) <= tol
    ends = mesh.edge_nodes[mesh.boundary_edges]
    off = ~(on[ends[:, 0]] & on[ends[:, 1]]).any(axis=1)
    if np.any(off):
        i = int(np.argmax(off))
        raise MeshError("the cells do not tile the domain: boundary edge "
                        f"{mesh.boundary_edges[i]} (vertices "
                        f"{ends[i].tolist()}) is not on its boundary")


def _bilinear(domain, xi, eta):
    c00, c10, c11, c01 = domain
    return (np.outer((1 - xi) * (1 - eta), c00) + np.outer(xi * (1 - eta), c10)
            + np.outer(xi * eta, c11) + np.outer((1 - xi) * eta, c01))


# The two diagonal splits of a quad (corner slots 0-3 CCW), two triangles each.
_SPLITS = np.array([[[0, 1, 2], [0, 2, 3]], [[0, 1, 3], [1, 2, 3]]])


def _grid_mesh(domain, n, triangles, jitter_seed=None):
    if len(domain) != 4:
        raise ValueError("grid-based kinds need a quadrilateral domain")
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    xi = (ii / n).ravel()
    eta = (jj / n).ravel()
    rng = None
    if jitter_seed is not None:
        rng = np.random.default_rng(jitter_seed)
        interior = (ii.ravel() % n != 0) & (jj.ravel() % n != 0)
        dxi = np.zeros_like(xi)
        deta = np.zeros_like(eta)
        dxi[interior] = rng.uniform(-_JITTER / n, _JITTER / n, interior.sum())
        deta[interior] = rng.uniform(-_JITTER / n, _JITTER / n, interior.sum())
        xi = xi + dxi
        eta = eta + deta
    verts = _bilinear(domain, xi, eta)

    base = ii[:n, :n].ravel() * (n + 1) + jj[:n, :n].ravel()
    quads = np.stack([base, base + n + 1, base + n + 2, base + 1], axis=1)
    if not triangles:
        return build_topology(verts, quads)
    choice = np.zeros(len(quads), dtype=int)
    if rng is not None:
        # a split is valid when both its triangles have positive area; a
        # quad with two valid splits draws one, in quad order
        valid = [np.all([_orient(*verts[quads[:, t]].transpose(1, 0, 2)) > 0
                         for t in split], axis=0) for split in _SPLITS]
        if not np.all(valid[0] | valid[1]):
            raise MeshError("a jittered quad has no valid triangle split")
        both = valid[0] & valid[1]
        choice[valid[1]] = 1
        choice[both] = rng.integers(2, size=int(both.sum()))
    tris = quads[np.arange(len(quads))[:, None, None], _SPLITS[choice]]
    return build_topology(verts, tris.reshape(-1, 3))


def _honeycomb_seeds(domain, n):
    """Triangular-lattice seeds covering the domain's bounding box with a
    margin, row by row: their Voronoi cells are hexagons of area
    ``area / n**2``."""
    area = shoelace(domain)[0][0]
    spacing = np.sqrt(2.0 * area / (np.sqrt(3.0) * n * n))
    lo = domain.min(axis=0) - 1.5 * spacing
    hi = domain.max(axis=0) + 1.5 * spacing
    rows = int(np.ceil((hi[1] - lo[1]) / (spacing * np.sqrt(3.0) / 2.0))) + 1
    cols = int(np.ceil((hi[0] - lo[0]) / spacing)) + 1
    r = np.arange(rows)[:, None]
    x = lo[0] + np.where(r % 2, 0.5 * spacing, 0.0) + np.arange(cols) * spacing
    y = lo[1] + r * spacing * np.sqrt(3.0) / 2.0
    return np.stack(np.broadcast_arrays(x, y), axis=-1).reshape(-1, 2)


def _sample_seeds(domain, count, rng):
    """``count`` uniform seeds in the domain, each farther than 1e-9 of its
    bounding box's diagonal from every side."""
    lo = domain.min(axis=0)
    hi = domain.max(axis=0)
    margin = 1e-9 * np.linalg.norm(hi - lo)
    out = []
    while len(out) < count:
        pts = rng.uniform(lo, hi, size=(4 * (count - len(out)), 2))
        inside = (_side_distances(pts, domain) > margin).all(axis=1)
        out.extend(pts[inside])
    return np.array(out[:count])


def _voronoi_meshes(domain, sets, lloyd_iters):
    """One Voronoi mesh per seed set: the sets are relaxed together and
    their final cells clipped in one call, then each mesh is welded on its
    own.  Cells of area at most 1e-12 of the domain's over their set's size
    are dropped: round-off slivers, which lattice seeds mirrored across a
    boundary line make (below 2.1e-16 of a hexagon for n up to 128), while
    real clipped cells can be far smaller than a hexagon (1.6e-7 of one on
    the Cook domain at n = 4).  A missing random cell leaves a hole, which
    ``_check_partition`` reports."""
    metas = [{"lloyd_iterations": 0, "lloyd_converged": True} for _ in sets]
    if lloyd_iters > 0:
        sets, infos = _relax(sets, domain, lloyd_iters)
        for meta, info in zip(metas, infos):
            meta.update(info)
    ids, points, counts = _clip_sets(sets, domain)
    offsets = _offsets(counts)
    areas = shoelace(points, offsets)[0]
    sliver = 1e-12 * shoelace(domain)[0][0]
    # ids ascend, so each set's cells are one contiguous block
    bounds = np.searchsorted(ids, _offsets([len(s) for s in sets]))
    meshes = []
    for s, meta, lo, hi in zip(sets, metas, bounds[:-1], bounds[1:]):
        keep = areas[lo:hi] > sliver / len(s)
        mesh = _mesh_from_cells(
            points[offsets[lo]:offsets[hi]][np.repeat(keep, counts[lo:hi])],
            counts[lo:hi][keep], domain)
        mesh.metadata.update(meta)
        meshes.append(mesh)
    return meshes


def voronoi_cells(seeds, domain):
    """Clipped Voronoi cells of the seed points inside a convex CCW domain.

    All cells are clipped together by :func:`_clip_sets`.  Returns one CCW
    coordinate loop per seed, or None for empty cells.
    """
    ids, points, counts = _clip_sets([seeds], _convex_domain(domain))
    cells = [None] * len(seeds)
    for i, loop in zip(ids, np.split(points, np.cumsum(counts)[:-1])):
        cells[i] = loop
    return cells


def _clip_sets(seed_sets, domain):
    """Clipped Voronoi cells of several seed sets inside one convex CCW
    domain, each cell cut only by the bisectors of its own set.

    The seeds of all sets are numbered one after the other, and all their
    cells are clipped together.  Every cell starts as the domain, and at
    neighbour rank c = 1, 2, ... each active cell first meets the
    security-radius certificate, ``dist_c**2 > 4 max |v - p|**2``: no seed
    at distance ``dist_c`` or farther can reach a vertex of it, so a cell
    that passes is final and retires before the clip step.  The others are
    cut by the bisector half-plane of the c-th nearest seed of their set in
    one array step (:func:`_clip_all`, the Sutherland-Hodgman arithmetic
    of the tests' oracle ``_clip``; a bisector that cuts nothing leaves the
    cell as it is).  A cell cut below 3 vertices is empty.  Neighbours
    come from one k-nearest query per set (k = 12, at most the set's size),
    ordered by distance and then by seed id; the cells of a set still
    active after k ranks query again with k doubled, up to all of its
    seeds.  They keep their first k ranks, and the ranks from k on are the
    new query's neighbours that the cell has not used yet, in the same
    order, so an equidistant seed that the first query left out is used
    once and none twice.  Past its last seed a set's distances read
    infinite, so its remaining cells are final as they stand.

    Returns flat CSR arrays ``(ids, points, counts)``: the global seed ids
    of the non-empty cells in ascending order, their CCW loops one after
    the other, and the vertex count of each loop.  The arithmetic of a cell
    does not depend on the other sets, so its loop is the same, bit for
    bit, whichever sets it is clipped with.
    """
    from scipy.spatial import cKDTree

    sets = [np.asarray(s, dtype=float).reshape(-1, 2) for s in seed_sets]
    sizes = [len(s) for s in sets]
    first = _offsets(sizes)
    m = int(first[-1])
    if m == 0:
        return np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros(0, dtype=int)
    seeds = np.concatenate(sets)
    trees = [cKDTree(s) for s in sets]
    # The active cells (seed ids, ascending), their seeds, their closed CCW
    # loops padded to a common width (see _clip_all), the squared distance
    # of each loop vertex from the seed (zero on padding) and the vertex
    # counts; the squared distances and ids of every seed's sorted
    # neighbours by rank (rank 0 is the seed itself; past its set's k,
    # distance inf and the seed itself).
    ids = np.arange(m)
    p = seeds
    loops = np.broadcast_to(_items(np.vstack([domain, domain[:1]])),
                            (m, len(domain) + 1)).copy()
    rad2 = _squared_distance(_xy(loops), p[:, None, :])
    rad2[:, -1] = 0.0
    counts = np.full(m, len(domain))
    k = [min(n, _NEIGHBOURS) for n in sizes]
    dist2 = np.full((max(k) + 1, m), np.inf)
    nbrs = np.repeat(ids[None, :], max(k) + 1, axis=0)
    for s, (tree, pts) in enumerate(zip(trees, sets)):
        rows = slice(first[s], first[s + 1])
        dist, nbr = _nearest(tree, pts, k[s])
        dist2[:k[s], rows] = (dist ** 2).T
        nbrs[:k[s], rows] = nbr.T + first[s]
    finished = []  # (ids, loop items, counts) of the cells done at each rank
    rank = 1
    while len(ids):
        for s in range(len(sets)):
            if not k[s] == rank < sizes[s]:
                continue
            lo, hi = np.searchsorted(ids, first[s:s + 2])
            if lo == hi:
                continue
            k[s] = min(2 * k[s], sizes[s])
            extra = k[s] + 1 - len(dist2)
            if extra > 0:
                dist2 = np.vstack([dist2, np.full((extra, m), np.inf)])
                nbrs = np.vstack([nbrs, np.repeat(np.arange(m)[None, :], extra,
                                                  axis=0)])
            rows = ids[lo:hi]
            dist, nbr = _nearest(trees[s], seeds[rows], k[s])
            nbr += first[s]
            # ranks below ``rank`` stay; the rest are the new neighbours
            # the row has not used yet, in canonical order
            used = (nbr[:, :, None] == nbrs[:rank, rows].T[:, None, :]).any(2)
            new = np.argsort(used, axis=1, kind="stable")[:, :k[s] - rank]
            dist2[rank:k[s], rows] = (np.take_along_axis(dist, new, 1) ** 2).T
            nbrs[rank:k[s], rows] = np.take_along_axis(nbr, new, 1).T
        done = dist2[rank].take(ids) > 4.0 * rad2.max(axis=1)
        if done.any():
            out = done.nonzero()[0]
            n = counts[out]
            finished.append((ids[out], loops[out][_valid(n, loops.shape[1])],
                             n))
            live = (~done).nonzero()[0]
            ids, p, loops, rad2, counts = (
                a.take(live, axis=0) for a in (ids, p, loops, rad2, counts))
        q = seeds.take(nbrs[rank].take(ids), axis=0)
        half = q - p
        # half . midpoint by matmul: rounded like a single ``half @ mid``
        b = np.matmul(half[:, None, :], (0.5 * (q + p))[:, :, None])[:, 0, 0]
        loops, rad2, counts = _clip_all(loops, rad2, counts, p, half, b)
        live = counts >= 3  # the rest are empty
        if not live.all():
            live = live.nonzero()[0]
            ids, p, loops, rad2, counts = (
                a.take(live, axis=0) for a in (ids, p, loops, rad2, counts))
        rank += 1
    ids, items, counts = (np.concatenate(a) for a in zip(*finished))
    order = np.argsort(ids)
    starts = _offsets(counts)[:-1][order]
    counts = counts[order]
    offsets = _offsets(counts)
    take = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts)
    return ids[order], _xy(items[take]), counts


def _nearest(tree, points, k):
    """Distances and indices of the k nearest seeds, always (n, k),
    each row ordered by distance and then by seed id.

    Only rows with an exact tie are sorted again, so that the order of
    equidistant (lattice) seeds depends neither on the query size nor on
    the tree's tie-breaking."""
    dists, nbrs = tree.query(points, k=k)
    dists, nbrs = dists.reshape(len(points), k), nbrs.reshape(len(points), k)
    tied = (dists[:, 1:] == dists[:, :-1]).any(axis=1).nonzero()[0]
    if len(tied):
        order = np.lexsort((nbrs[tied], dists[tied]))
        dists[tied] = np.take_along_axis(dists[tied], order, axis=1)
        nbrs[tied] = np.take_along_axis(nbrs[tied], order, axis=1)
    return dists, nbrs


def _items(points):
    """A contiguous (..., 2) float array as (...) complex128 items, one per
    point (x + iy): numpy gathers and scatters one item per point much
    faster than a row of two floats.  No complex arithmetic is done on
    them."""
    return points.view(np.complex128)[..., 0]


def _xy(items):
    """The (..., 2) float view of :func:`_items`."""
    return items.view(np.float64).reshape(items.shape + (2,))


def _squared_distance(a, b):
    """|a - b|**2 over the last axis, rounded as (dx * dx) + (dy * dy)."""
    e = a - b
    e *= e
    return e[..., 0] + e[..., 1]


def _valid(counts, width):
    """(len(counts), width) mask of the first ``counts[i]`` slots of row i."""
    return np.arange(width) < counts[:, None]


def _clip_all(loops, rad2, counts, seeds, normals, b):
    """Keep the part n_i . x <= b_i of every loop i: one Sutherland-Hodgman
    step per row, vertex by vertex as the tests' scalar oracle ``_clip``
    (a kept vertex, then the crossing point on its outgoing edge).

    ``loops`` holds the vertices as :func:`_items`.  Row i holds its
    ``counts[i]`` vertices, then its first vertex again, then padding, so
    on the flat slots the successor of slot j is j + 1, and ``rad2`` holds
    the squared distance of each vertex from ``seeds[i]`` (zero on
    padding).  Returns the rows laid out the same way, their ``rad2`` and
    their new counts."""
    rows, width_in = loops.shape
    xy = _xy(loops)
    # matmul rounds each product like the oracle's ``poly @ n``
    d = (np.matmul(xy, normals[:, :, None])[:, :, 0] - b[:, None]).ravel()
    valid = _valid(counts, width_in).ravel()
    inside = d <= 0.0
    keep = valid & inside
    cross = np.zeros_like(valid)
    np.not_equal(inside[:-1], inside[1:], out=cross[:-1])
    cross &= valid
    emitted = np.add(keep, cross, dtype=int)
    ends = np.cumsum(emitted.reshape(rows, width_in), axis=1)
    new_counts = ends[:, -1]
    width = new_counts.max(initial=0) + 1
    # flat output slot of each vertex's first emitted point; zero padding
    base = np.arange(rows) * width
    slot = (base[:, None] + ends).ravel() - emitted
    out = np.zeros(rows * width, dtype=np.complex128)
    out_rad2 = np.zeros(rows * width)
    i = keep.nonzero()[0]
    j = slot[i]
    out[j] = loops.ravel()[i]
    out_rad2[j] = rad2.ravel()[i]
    i = cross.nonzero()[0]
    t = d[i] / (d[i] - d[i + 1])
    pts = xy.reshape(-1, 2)
    p0 = pts.take(i, axis=0)
    new = p0 + t[:, None] * (pts.take(i + 1, axis=0) - p0)
    j = slot[i] + keep[i]
    out[j] = _items(new)
    out_rad2[j] = _squared_distance(new, seeds.take(i // width_in, axis=0))
    out[base + new_counts] = out[base]  # close each loop
    return out.reshape(rows, width), out_rad2.reshape(rows, width), new_counts


def lloyd(seeds, domain, iterations):
    """Move each seed to its clipped Voronoi cell centroid, ``iterations``
    times or until no seed moves by 1e-12 of the domain's diagonal.

    Returns the relaxed seeds and a diagnostics dict; non-convergence is not
    an error, the best iterate is returned with ``lloyd_converged=False``
    (a last move above 1e-6 of the diagonal).
    """
    (relaxed,), (info,) = _relax([seeds], _convex_domain(domain), iterations)
    return relaxed, info


def _relax(seed_sets, domain, iterations):
    """:func:`lloyd` on several seed sets at once: each sweep clips the
    cells of every set still moving in one :func:`_clip_sets` call.  Each
    set keeps its own stopping test and diagnostics; returns the list of
    relaxed sets and the list of their dicts."""
    sets = [np.asarray(s, dtype=float).copy() for s in seed_sets]
    scale = np.linalg.norm(domain.max(axis=0) - domain.min(axis=0))
    move = [np.inf] * len(sets)
    done = [0] * len(sets)
    active = list(range(len(sets)))
    for it in range(iterations):
        if not active:
            break
        new = np.concatenate([sets[s] for s in active])
        ids, points, counts = _clip_sets([sets[s] for s in active], domain)
        new[ids] = shoelace(points, _offsets(counts))[1]
        lo, moving = 0, []
        for s in active:
            hi = lo + len(sets[s])
            move[s] = np.abs(new[lo:hi] - sets[s]).max()
            sets[s] = new[lo:hi]
            done[s] = it + 1
            lo = hi
            if not move[s] < 1e-12 * scale:
                moving.append(s)
        active = moving
    infos = [{"lloyd_iterations": n,
              "lloyd_converged": bool(mv < 1e-6 * scale),
              "lloyd_last_move": float(mv)} for n, mv in zip(done, move)]
    return sets, infos


def _mesh_from_cells(pts, counts, domain):
    """Weld CCW coordinate loops, laid out flat with their vertex counts,
    into a conforming mesh."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    scale = np.linalg.norm(domain.max(axis=0) - domain.min(axis=0))
    tol = 1e-9 * scale
    offsets = _offsets(counts)
    # Points closer than tol are one vertex, numbered by their lowest index.
    pairs = cKDTree(pts).query_pairs(tol, output_type="ndarray")
    n_verts, inverse = connected_components(coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
        shape=(len(pts), len(pts))), directed=False)
    verts = np.column_stack([np.bincount(inverse, pts[:, k], minlength=n_verts)
                             for k in (0, 1)])
    verts /= np.bincount(inverse)[:, None]
    # Drop repeats of a vertex along a loop (cyclically), keeping the first.
    keep = inverse != inverse[_next_slot(offsets)]
    counts = np.add.reduceat(keep.astype(int), offsets[:-1])
    if np.any(counts < 3):
        raise MeshError("degenerate Voronoi cell after clipping")
    loops = np.split(inverse[keep], np.cumsum(counts)[:-1])
    return build_topology(verts, loops)
