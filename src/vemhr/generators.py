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
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .mesh import (MeshError, _clip, _flatten, _next_slot, build_topology,
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


def generate_mesh(kind, resolution, domain=None, seed=0, lloyd_iters=_LLOYD_ITERS):
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
                             lloyd_iters if kind == "poly_voronoi_cvt" else 0)

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


def _honeycomb_mesh(domain, n):
    area = shoelace(domain)[0][0]
    spacing = np.sqrt(2.0 * area / (np.sqrt(3.0) * n * n))
    lo = domain.min(axis=0) - 1.5 * spacing
    hi = domain.max(axis=0) + 1.5 * spacing
    rows = int(np.ceil((hi[1] - lo[1]) / (spacing * np.sqrt(3.0) / 2.0))) + 1
    cols = int(np.ceil((hi[0] - lo[0]) / spacing)) + 1
    seeds = []
    for r in range(rows):
        y = lo[1] + r * spacing * np.sqrt(3.0) / 2.0
        off = 0.5 * spacing if r % 2 else 0.0
        for c in range(cols):
            seeds.append((lo[0] + off + c * spacing, y))
    cells = [c for c in voronoi_cells(np.array(seeds), domain)
             if c is not None]
    # Lattice seeds mirrored across a boundary line make zero-width sliver
    # cells (pure roundoff of an empty region); drop them by area.
    offsets, points = _flatten(cells)
    areas = shoelace(points, offsets)[0]
    hex_area = area / (n * n)
    return _mesh_from_cells(
        [c for c, a in zip(cells, areas) if a > 1e-6 * hex_area], domain)


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

    Each cell is computed by clipping the domain with the bisector
    half-planes of nearby seeds, processed in order of increasing distance
    until the security radius certifies no farther seed can cut the cell.
    Returns one CCW coordinate loop per seed, or None for empty cells.
    """
    seeds = np.asarray(seeds, dtype=float)
    m = len(seeds)
    if m == 1:
        return [domain.copy()]
    tree = cKDTree(seeds)
    k0 = min(m, 24)
    cells = []
    for i in range(m):
        p = seeds[i]
        poly = domain
        k = k0
        checked = 1  # position 0 of the sorted neighbor list is the seed itself
        dists, idx = tree.query(p, k=k)
        while True:
            if checked == len(idx):
                if k == m:
                    break
                k = min(2 * k, m)
                dists, idx = tree.query(p, k=k)
            j = idx[checked]
            r2 = ((poly - p) ** 2).sum(axis=1).max()
            if dists[checked] ** 2 > 4.0 * r2:
                break
            half = seeds[j] - p
            poly = _clip(poly, half, float(half @ (0.5 * (seeds[j] + p))))
            checked += 1
            if len(poly) < 3:
                poly = np.empty((0, 2))
                break
        cells.append(poly if len(poly) >= 3 else None)
    return cells


def lloyd(seeds, domain, iterations, tol=1e-12):
    """Move each seed to its clipped Voronoi cell centroid, ``iterations`` times.

    Returns the relaxed seeds and a diagnostics dict; non-convergence is not
    an error, the best iterate is returned with ``lloyd_converged=False``.
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
        if move < tol * scale:
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
