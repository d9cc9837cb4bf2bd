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
through :func:`voronoi_cells`, which clips all cells at once: one
vectorised Sutherland-Hodgman half-plane step per neighbour rank over the
cells not yet certified final by the security radius.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .mesh import MeshError, _flatten, _next_slot, build_topology, shoelace
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
    resolution : int
        Subdivisions per direction (grid-based kinds) or seed count
        (Voronoi kinds).
    domain : array_like, optional
        CCW corners of a convex domain; defaults to the unit square.
        Grid-based kinds require a quadrilateral.
    seed : int
        RNG seed for the randomized kinds.

    The centroidal kind runs up to 50 Lloyd sweeps.
    """
    if kind not in MESH_KINDS:
        raise ValueError(f"unknown mesh kind {kind!r}; expected one of {MESH_KINDS}")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    domain = UNIT_SQUARE if domain is None else np.asarray(domain, dtype=float)

    if kind == "quad_structured":
        mesh = _grid_mesh(domain, resolution, triangles=False)
    elif kind == "tri_structured":
        mesh = _grid_mesh(domain, resolution, triangles=True)
    elif kind == "quad_unstructured":
        mesh = _grid_mesh(domain, resolution, triangles=False, jitter_seed=seed)
    elif kind == "tri_unstructured":
        mesh = _grid_mesh(domain, resolution, triangles=True, jitter_seed=seed)
    elif kind == "hex_structured":
        mesh = _honeycomb_mesh(domain, resolution)
    else:
        mesh = _voronoi_mesh(domain, resolution, seed,
                             _LLOYD_ITERS if kind == "poly_voronoi_cvt" else 0)

    mesh.metadata.update(kind=kind, resolution=int(resolution), seed=int(seed))
    _check_partition(mesh, domain)
    return mesh


def _check_partition(mesh, domain):
    target = shoelace(domain)[0][0]
    if abs(mesh.areas.sum() - target) > 1e-10 * target:
        raise MeshError("generated cells do not tile the domain")


def _bilinear(domain, xi, eta):
    c00, c10, c11, c01 = domain
    return (np.outer((1 - xi) * (1 - eta), c00) + np.outer(xi * (1 - eta), c10)
            + np.outer(xi * eta, c11) + np.outer((1 - xi) * eta, c01))


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

    def vid(i, j):
        return i * (n + 1) + j

    loops = []
    for i in range(n):
        for j in range(n):
            quad = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
            if not triangles:
                loops.append(quad)
                continue
            splits = ([(quad[0], quad[1], quad[2]), (quad[0], quad[2], quad[3])],
                      [(quad[0], quad[1], quad[3]), (quad[1], quad[2], quad[3])])
            if rng is None:
                choice = splits[0]
            else:
                valid = [s for s in splits if all(_tri_area(verts, t) > 0 for t in s)]
                choice = valid[rng.integers(len(valid))]
            loops.extend(list(t) for t in choice)
    return build_topology(verts, loops)


def _tri_area(verts, tri):
    a, b, c = verts[list(tri)]
    return 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


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
    cells = [c for c in voronoi_cells(_honeycomb_seeds(domain, n), domain)
             if c is not None]
    # Lattice seeds mirrored across a boundary line make zero-width sliver
    # cells (pure roundoff of an empty region, below 2.1e-16 of a hexagon
    # for n up to 128); drop them by area.  Real clipped cells can be far
    # smaller than a hexagon (1.6e-7 of one on the Cook domain at n = 4),
    # so the cut sits at round-off scale.
    offsets, points = _flatten(cells)
    areas = shoelace(points, offsets)[0]
    hex_area = shoelace(domain)[0][0] / (n * n)
    return _mesh_from_cells(
        [c for c, a in zip(cells, areas) if a > 1e-12 * hex_area], domain)


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


def _voronoi_mesh(domain, n_seeds, seed, lloyd_iters):
    rng = np.random.default_rng(seed)
    seeds = _sample_seeds(domain, n_seeds, rng)
    meta = {"lloyd_iterations": 0, "lloyd_converged": True}
    if lloyd_iters > 0:
        seeds, info = lloyd(seeds, domain, lloyd_iters)
        meta.update(info)
    cells = voronoi_cells(seeds, domain)
    if any(c is None for c in cells):
        raise MeshError("degenerate Voronoi cell after clipping")
    mesh = _mesh_from_cells(cells, domain)
    mesh.metadata.update(meta)
    return mesh


def voronoi_cells(seeds, domain):
    """Clipped Voronoi cells of the seed points inside a convex CCW domain.

    All cells are clipped together.  Every cell starts as the domain, and
    at neighbour rank c = 1, 2, ... each active cell is cut by the bisector
    half-plane of its c-th nearest seed in one array step (the same
    Sutherland-Hodgman arithmetic as :func:`vemhr.mesh._clip`; a bisector
    that cuts nothing leaves the cell as it is).  A cell is final once the
    security-radius certificate holds, ``dist_c**2 > 4 max |v - p|**2``:
    no seed at distance ``dist_c`` or farther can reach a vertex of it.  A
    cell cut below 3 vertices is empty.  Neighbours come from one k-nearest
    query (k = 24); cells still active after k ranks query again with k
    doubled, up to all seeds.  Returns one CCW coordinate loop per seed, or
    None for empty cells.
    """
    seeds = np.asarray(seeds, dtype=float)
    domain = np.asarray(domain, dtype=float)
    m = len(seeds)
    if m == 0:
        return []
    tree = cKDTree(seeds)
    # The active cells: seed ids, CCW loops padded to a common width, vertex
    # counts and the sorted neighbour lists (rank 0 is the seed itself).
    ids = np.arange(m)
    polys = np.broadcast_to(domain, (m,) + domain.shape).copy()
    counts = np.full(m, len(domain))
    finished = []  # (ids, points, counts) of the cells done at each rank
    k = min(m, _NEIGHBOURS)
    dists, nbrs = _nearest(tree, seeds, k)
    rank = 1
    while len(ids):
        if rank == k:
            if k == m:
                break
            k = min(2 * k, m)
            dists, nbrs = _nearest(tree, seeds[ids], k)
        p = seeds[ids]
        valid = np.arange(polys.shape[1]) < counts[:, None]
        r2 = np.where(valid, ((polys - p[:, None, :]) ** 2).sum(axis=2),
                      0.0).max(axis=1)
        done = dists[:, rank] ** 2 > 4.0 * r2
        finished.append((ids[done], polys[done][valid[done]], counts[done]))
        q = seeds[nbrs[:, rank]]
        half = q - p
        # half . midpoint by matmul: rounded like a single ``half @ mid``
        b = np.matmul(half[:, None, :], (0.5 * (q + p))[:, :, None])[:, 0, 0]
        polys, counts = _clip_all(polys, counts, half, b)
        live = ~done & (counts >= 3)  # the rest are finished or empty
        ids, polys, counts = ids[live], polys[live], counts[live]
        dists, nbrs = dists[live], nbrs[live]
        rank += 1
    valid = np.arange(polys.shape[1]) < counts[:, None]
    finished.append((ids, polys[valid], counts))
    ids, points, counts = (np.concatenate(a) for a in zip(*finished))
    cells = [None] * m
    for i, loop in zip(ids, np.split(points, np.cumsum(counts)[:-1])):
        cells[i] = loop
    return cells


def _nearest(tree, points, k):
    """Distances and indices of the k nearest seeds, always (n, k)."""
    dists, nbrs = tree.query(points, k=k)
    return dists.reshape(len(points), k), nbrs.reshape(len(points), k)


def _clip_all(polys, counts, normals, b):
    """Keep the part n_i . x <= b_i of every padded loop i: one
    Sutherland-Hodgman step per row, vertex by vertex as in ``mesh._clip``
    (a kept vertex, then the crossing point on its outgoing edge)."""
    rows, width = polys.shape[:2]
    slot = np.arange(width)
    valid = slot < counts[:, None]
    # matmul rounds each product like the ``poly @ n`` of mesh._clip
    d = np.matmul(polys, normals[:, :, None])[:, :, 0] - b[:, None]
    nxt = np.where(slot + 1 < counts[:, None], slot + 1, 0)
    d_next = np.take_along_axis(d, nxt, axis=1)
    keep = valid & (d <= 0.0)
    cross = valid & ((d <= 0.0) != (d_next <= 0.0))
    emitted = keep.astype(int) + cross
    start = np.cumsum(emitted, axis=1) - emitted
    new_counts = emitted.sum(axis=1)
    # zero padding: the unused slots still go through the arithmetic
    out = np.zeros((rows, new_counts.max(initial=1), 2))
    r, s = np.nonzero(keep)
    out[r, start[r, s]] = polys[r, s]
    r, s = np.nonzero(cross)
    t = d[r, s] / (d[r, s] - d_next[r, s])
    p0, p1 = polys[r, s], polys[r, nxt[r, s]]
    out[r, start[r, s] + keep[r, s]] = p0 + t[:, None] * (p1 - p0)
    return out, new_counts


def lloyd(seeds, domain, iterations):
    """Move each seed to its clipped Voronoi cell centroid, ``iterations``
    times or until no seed moves by 1e-12 of the domain's diagonal.

    Returns the relaxed seeds and a diagnostics dict; non-convergence is not
    an error, the best iterate is returned with ``lloyd_converged=False``
    (a last move above 1e-6 of the diagonal).
    """
    seeds = np.asarray(seeds, dtype=float).copy()
    scale = np.linalg.norm(domain.max(axis=0) - domain.min(axis=0))
    move = np.inf
    done = 0
    for it in range(iterations):
        cells = voronoi_cells(seeds, domain)
        found = [i for i, poly in enumerate(cells) if poly is not None]
        offsets, points = _flatten([cells[i] for i in found])
        new = seeds.copy()
        new[found] = shoelace(points, offsets)[1]
        move = np.abs(new - seeds).max()
        seeds = new
        done = it + 1
        if move < 1e-12 * scale:
            break
    info = {"lloyd_iterations": done,
            "lloyd_converged": bool(move < 1e-6 * scale),
            "lloyd_last_move": float(move)}
    return seeds, info


def _mesh_from_cells(cell_polys, domain):
    """Weld the per-cell coordinate loops into a conforming mesh."""
    if not cell_polys:
        raise MeshError("no cells to mesh")
    scale = np.linalg.norm(domain.max(axis=0) - domain.min(axis=0))
    tol = 1e-9 * scale
    offsets, pts = _flatten(cell_polys)
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
