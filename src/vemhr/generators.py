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
and pentagons along the boundary.

Every Voronoi kind, and every Lloyd sweep behind the centroidal one, goes
through one clipping core, :func:`_clip_sets`: it clips all cells of
several seed sets together, one vectorised Sutherland-Hodgman half-plane
step per neighbour rank over the cells not yet certified final by the
security radius, each cell cut only by bisectors of its own set.  A tuple
of resolutions therefore costs one rank loop per Lloyd sweep for all its
meshes: ``generate_mesh(kind, (16, 64, 144))`` relaxes the three seed sets
together and clips their final cells in one call, with the same meshes,
bit for bit, as three separate calls.  :func:`voronoi_cells` and
:func:`lloyd` are one-set views of the same core.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .mesh import MeshError, _next_slot, build_topology, shoelace
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
_NEIGHBOURS = 24  # first k of the nearest-neighbour query in voronoi_cells


def generate_mesh(kind, resolution, domain=None, seed=0):
    """Generate one of the benchmark meshes on a convex polygonal domain.

    Parameters
    ----------
    kind : str
        One of :data:`MESH_KINDS`.
    resolution : int or tuple of int
        Subdivisions per direction (grid-based kinds) or seed count
        (Voronoi kinds).  A tuple gives one mesh per entry, returned as a
        list in the same order and equal to the meshes of separate calls;
        the Voronoi kinds build them together (see the module docstring).
    domain : array_like, optional
        CCW corners of a convex domain; defaults to the unit square.
        Grid-based kinds require a quadrilateral.
    seed : int
        RNG seed for the randomized kinds; every mesh of a tuple draws from
        its own generator seeded with it.

    The centroidal kind runs up to 50 Lloyd sweeps.
    """
    if kind not in MESH_KINDS:
        raise ValueError(f"unknown mesh kind {kind!r}; expected one of {MESH_KINDS}")
    resolutions = resolution if isinstance(resolution, tuple) else (resolution,)
    if any(n < 1 for n in resolutions):
        raise ValueError("resolution must be >= 1")
    domain = UNIT_SQUARE if domain is None else np.asarray(domain, dtype=float)

    if kind.startswith("poly_voronoi"):
        meshes = _voronoi_meshes(domain, resolutions, seed,
                                 _LLOYD_ITERS if kind == "poly_voronoi_cvt" else 0)
    elif kind == "hex_structured":
        meshes = [_honeycomb_mesh(domain, n) for n in resolutions]
    else:
        jitter_seed = seed if kind.endswith("_unstructured") else None
        meshes = [_grid_mesh(domain, n, triangles=kind.startswith("tri"),
                             jitter_seed=jitter_seed) for n in resolutions]

    for mesh, n in zip(meshes, resolutions):
        mesh.metadata.update(kind=kind, resolution=int(n), seed=int(seed))
        _check_partition(mesh, domain)
    return meshes if isinstance(resolution, tuple) else meshes[0]


def _check_partition(mesh, domain):
    target = shoelace(domain)[0][0]
    if abs(mesh.areas.sum() - target) > 1e-10 * target:
        raise MeshError("generated cells do not tile the domain")


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
        valid = [np.all([_tri_areas(verts, quads[:, t]) > 0 for t in split],
                        axis=0) for split in _SPLITS]
        if not np.all(valid[0] | valid[1]):
            raise MeshError("a jittered quad has no valid triangle split")
        both = valid[0] & valid[1]
        choice[valid[1]] = 1
        choice[both] = rng.integers(2, size=int(both.sum()))
    tris = quads[np.arange(len(quads))[:, None, None], _SPLITS[choice]]
    return build_topology(verts, tris.reshape(-1, 3))


def _tri_areas(verts, tris):
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


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


def _honeycomb_mesh(domain, n):
    _, points, counts = _clip_sets([_honeycomb_seeds(domain, n)], domain)
    # Lattice seeds mirrored across a boundary line make zero-width sliver
    # cells (pure roundoff of an empty region, below 2.1e-16 of a hexagon
    # for n up to 128); drop them by area.  Real clipped cells can be far
    # smaller than a hexagon (1.6e-7 of one on the Cook domain at n = 4),
    # so the cut sits at round-off scale.
    areas = shoelace(points, _offsets(counts))[0]
    hex_area = shoelace(domain)[0][0] / (n * n)
    keep = areas > 1e-12 * hex_area
    return _mesh_from_cells(points[np.repeat(keep, counts)], counts[keep],
                            domain)


def _sample_seeds(domain, count, rng):
    lo = domain.min(axis=0)
    hi = domain.max(axis=0)
    margin = 1e-9 * np.linalg.norm(hi - lo)
    nxt = np.roll(domain, -1, axis=0)
    tang = nxt - domain
    out = []
    while len(out) < count:
        pts = rng.uniform(lo, hi, size=(4 * (count - len(out)), 2))
        rel = pts[:, None, :] - domain[None, :, :]
        cross = tang[None, :, 0] * rel[:, :, 1] - tang[None, :, 1] * rel[:, :, 0]
        inside = (cross > margin).all(axis=1)
        out.extend(pts[inside])
    return np.array(out[:count])


def _voronoi_meshes(domain, sizes, seed, lloyd_iters):
    """One Voronoi mesh per seed count, each from its own seeded generator:
    the seed sets are relaxed together and their final cells clipped in
    one call, then each mesh is welded on its own."""
    sets = [_sample_seeds(domain, n, np.random.default_rng(seed))
            for n in sizes]
    metas = [{"lloyd_iterations": 0, "lloyd_converged": True} for _ in sets]
    if lloyd_iters > 0:
        sets, infos = _relax(sets, domain, lloyd_iters)
        for meta, info in zip(metas, infos):
            meta.update(info)
    ids, points, counts = _clip_sets(sets, domain)
    offsets = _offsets(counts)
    # ids ascend, so each set's cells are one contiguous block
    bounds = np.searchsorted(ids, np.cumsum([0] + [len(s) for s in sets]))
    meshes = []
    for size, meta, lo, hi in zip(sizes, metas, bounds[:-1], bounds[1:]):
        if hi - lo != size:
            raise MeshError("degenerate Voronoi cell after clipping")
        mesh = _mesh_from_cells(points[offsets[lo]:offsets[hi]],
                                counts[lo:hi], domain)
        mesh.metadata.update(meta)
        meshes.append(mesh)
    return meshes


def voronoi_cells(seeds, domain):
    """Clipped Voronoi cells of the seed points inside a convex CCW domain.

    All cells are clipped together by :func:`_clip_sets`.  Returns one CCW
    coordinate loop per seed, or None for empty cells.
    """
    ids, points, counts = _clip_sets([seeds], domain)
    cells = [None] * len(seeds)
    for i, loop in zip(ids, np.split(points, np.cumsum(counts)[:-1])):
        cells[i] = loop
    return cells


def _clip_sets(seed_sets, domain):
    """Clipped Voronoi cells of several seed sets inside one convex CCW
    domain, each cell cut only by the bisectors of its own set.

    The seeds of all sets are numbered one after the other, and all their
    cells are clipped together.  Every cell starts as the domain, and at
    neighbour rank c = 1, 2, ... each active cell is cut by the bisector
    half-plane of the c-th nearest seed of its set in one array step (the
    same Sutherland-Hodgman arithmetic as :func:`vemhr.mesh._clip`; a
    bisector that cuts nothing leaves the cell as it is).  A cell is final
    once the security-radius certificate holds, ``dist_c**2 > 4 max |v -
    p|**2``: no seed at distance ``dist_c`` or farther can reach a vertex
    of it.  A cell cut below 3 vertices is empty.  Neighbours come from one
    k-nearest query per set (k = 24, at most the set's size); the cells of
    a set still active after k ranks query again with k doubled, up to all
    of its seeds.  Past its last seed a set's distances read infinite, so
    its remaining cells are final as they stand.

    Returns flat CSR arrays ``(ids, points, counts)``: the global seed ids
    of the non-empty cells in ascending order, their CCW loops one after
    the other, and the vertex count of each loop.  The arithmetic of a cell
    does not depend on the other sets, so its loop is the same, bit for
    bit, whichever sets it is clipped with.
    """
    domain = np.asarray(domain, dtype=float)
    sets = [np.asarray(s, dtype=float).reshape(-1, 2) for s in seed_sets]
    sizes = np.array([len(s) for s in sets], dtype=int)
    first = np.concatenate([[0], np.cumsum(sizes)])
    m = int(first[-1])
    if m == 0:
        return np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros(0, dtype=int)
    seeds = np.concatenate(sets)
    trees = [cKDTree(s) for s in sets]
    # The active cells (seed ids, ascending), their CCW loops padded to a
    # common width and their vertex counts; the sorted neighbour lists of
    # every seed (rank 0 is the seed itself; past its set's k, distance inf
    # and the seed itself).
    ids = np.arange(m)
    polys = np.broadcast_to(domain, (m,) + domain.shape).copy()
    counts = np.full(m, len(domain))
    k = np.minimum(sizes, _NEIGHBOURS)
    dists = np.full((m, k.max() + 1), np.inf)
    nbrs = np.repeat(ids[:, None], k.max() + 1, axis=1)
    for s in range(len(sets)):
        rows = slice(first[s], first[s + 1])
        dists[rows, :k[s]], nbrs[rows, :k[s]] = _nearest(trees[s], sets[s], k[s])
        nbrs[rows, :k[s]] += first[s]
    finished = []  # (ids, points, counts) of the cells done at each rank
    rank = 1
    while len(ids):
        for s in np.flatnonzero((k == rank) & (k < sizes)):
            lo, hi = np.searchsorted(ids, first[s:s + 2])
            if lo == hi:
                continue
            k[s] = min(2 * k[s], sizes[s])
            extra = k[s] + 1 - dists.shape[1]
            if extra > 0:
                dists = np.hstack([dists, np.full((m, extra), np.inf)])
                nbrs = np.hstack([nbrs, np.repeat(np.arange(m)[:, None], extra,
                                                  axis=1)])
            rows = ids[lo:hi]
            dists[rows, :k[s]], nbrs[rows, :k[s]] = _nearest(trees[s], seeds[rows],
                                                             k[s])
            nbrs[rows, :k[s]] += first[s]
        p = seeds[ids]
        valid = np.arange(polys.shape[1]) < counts[:, None]
        sq = polys - p[:, None, :]
        sq *= sq
        r2 = np.where(valid, sq[:, :, 0] + sq[:, :, 1], 0.0).max(axis=1)
        done = dists[ids, rank] ** 2 > 4.0 * r2
        if done.any():
            finished.append((ids[done], polys[done][valid[done]], counts[done]))
        q = seeds[nbrs[ids, rank]]
        half = q - p
        # half . midpoint by matmul: rounded like a single ``half @ mid``
        b = np.matmul(half[:, None, :], (0.5 * (q + p))[:, :, None])[:, 0, 0]
        polys, counts = _clip_all(polys, counts, valid, half, b)
        live = ~done & (counts >= 3)  # the rest are finished or empty
        if not live.all():
            ids, polys, counts = ids[live], polys[live], counts[live]
        rank += 1
    ids, points, counts = (np.concatenate(a) for a in zip(*finished))
    order = np.argsort(ids)
    starts = _offsets(counts)[:-1][order]
    counts = counts[order]
    offsets = _offsets(counts)
    take = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts)
    return ids[order], points[take], counts


def _offsets(counts):
    """CSR offsets of loops with the given vertex counts."""
    offsets = np.zeros(len(counts) + 1, dtype=int)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _nearest(tree, points, k):
    """Distances and indices of the k nearest seeds, always (n, k)."""
    dists, nbrs = tree.query(points, k=k)
    return dists.reshape(len(points), k), nbrs.reshape(len(points), k)


def _clip_all(polys, counts, valid, normals, b):
    """Keep the part n_i . x <= b_i of every padded loop i: one
    Sutherland-Hodgman step per row, vertex by vertex as in ``mesh._clip``
    (a kept vertex, then the crossing point on its outgoing edge).
    ``valid`` marks the first ``counts[i]`` slots of each row."""
    rows = len(polys)
    row = np.arange(rows)
    # matmul rounds each product like the ``poly @ n`` of mesh._clip
    d = np.matmul(polys, normals[:, :, None])[:, :, 0] - b[:, None]
    inside = d <= 0.0
    # inside at the next vertex along each loop (padding slots are unused)
    inside_next = np.empty_like(inside)
    inside_next[:, :-1] = inside[:, 1:]
    inside_next[row, counts - 1] = inside[:, 0]
    keep = valid & inside
    cross = valid & (inside != inside_next)
    emitted = keep.astype(int) + cross
    ends = np.cumsum(emitted, axis=1)
    new_counts = ends[:, -1]
    width = new_counts.max(initial=1)
    # flat output slot of each vertex's first emitted point; zero padding
    # (the unused slots still go through the arithmetic)
    first = (row * width)[:, None] + ends - emitted
    out = np.zeros((rows * width, 2))
    out[first[keep]] = polys[keep]
    r, s = np.nonzero(cross)
    s1 = s + 1
    s1[s1 == counts[r]] = 0
    t = d[r, s] / (d[r, s] - d[r, s1])
    p0, p1 = polys[r, s], polys[r, s1]
    out[first[r, s] + keep[r, s]] = p0 + t[:, None] * (p1 - p0)
    return out.reshape(rows, width, 2), new_counts


def lloyd(seeds, domain, iterations):
    """Move each seed to its clipped Voronoi cell centroid, ``iterations``
    times or until no seed moves by 1e-12 of the domain's diagonal.

    Returns the relaxed seeds and a diagnostics dict; non-convergence is not
    an error, the best iterate is returned with ``lloyd_converged=False``
    (a last move above 1e-6 of the diagonal).
    """
    (relaxed,), (info,) = _relax([seeds], domain, iterations)
    return relaxed, info


def _relax(seed_sets, domain, iterations):
    """:func:`lloyd` on several seed sets at once: each sweep clips the
    cells of every set still moving in one :func:`_clip_sets` call.  Each
    set keeps its own stopping test and diagnostics; returns the list of
    relaxed sets and the list of their dicts."""
    domain = np.asarray(domain, dtype=float)
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
    if not len(counts):
        raise MeshError("no cells to mesh")
    scale = np.linalg.norm(domain.max(axis=0) - domain.min(axis=0))
    tol = 1e-9 * scale
    offsets = _offsets(counts)
    # Points closer than tol are one vertex, numbered by their lowest index.
    pairs = cKDTree(pts).query_pairs(tol, output_type="ndarray")
    n_verts, inverse = connected_components(coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
        shape=(len(pts), len(pts))), directed=False)
    verts = np.zeros((n_verts, 2))
    np.add.at(verts, inverse, pts)
    verts /= np.bincount(inverse)[:, None]
    # Drop repeats of a vertex along a loop (cyclically), keeping the first.
    keep = inverse != inverse[_next_slot(offsets)]
    counts = np.add.reduceat(keep.astype(int), offsets[:-1])
    if np.any(counts < 3):
        raise MeshError("degenerate Voronoi cell after clipping")
    loops = np.split(inverse[keep], np.cumsum(counts)[:-1])
    return build_topology(verts, loops)
