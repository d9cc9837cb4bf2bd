"""Polygonal meshes with globally oriented edges.

Edges are stored once, oriented from the lower to the higher global vertex
index.  The unit tangent t points from p to q and the unit normal is the
clockwise rotation n = (t_y, -t_x).  A cell that traverses the edge in the
canonical direction on its CCW boundary walk sees n as its outward normal
and gets sign +1; the neighbour on the other side gets -1.  Traction degrees
of freedom attached to an edge are therefore shared verbatim by both cells,
which is what makes the stress space H(div)-conforming.

Cells are stored flat (CSR): cell c owns positions ``cell_offsets[c]`` to
``cell_offsets[c + 1]`` of ``cell_vertex_ids``, ``cell_edge_ids`` and
``cell_edge_signs``; position k holds the edge from vertex k to the next.
"""

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "perp",
    "shoelace",
    "loop_groups",
    "polygon_metrics",
    "PolyMesh",
    "build_topology",
    "MeshError",
    "QualityReport",
    "check_assumptions",
    "cook_domain",
    "save_mesh",
    "load_mesh",
    "write_mesh_text",
    "mesh_checksum",
]

MESH_FORMAT_HEADER = "vemhr-mesh v1"


class MeshError(ValueError):
    """Raised for topological or geometric defects in a mesh definition."""


def perp(v):
    """Rotation (c1, c2) -> (c2, -c1), applied to the last axis."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = v[..., 1]
    out[..., 1] = -v[..., 0]
    return out


def _reject(bad, message):
    """Raise MeshError naming the first cell flagged in ``bad``."""
    if np.any(bad):
        raise MeshError(message.format(int(np.argmax(bad))))


def _flatten(loops):
    """CSR offsets and the concatenation of a sequence of per-cell arrays."""
    offsets = np.zeros(len(loops) + 1, dtype=int)
    np.cumsum([len(loop) for loop in loops], out=offsets[1:])
    return offsets, np.concatenate(loops)


def _slot_cells(offsets):
    """Owning cell of every CSR position."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _next_slot(offsets):
    """CSR position of the next loop entry, wrapping within each cell."""
    nxt = np.arange(1, offsets[-1] + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    return nxt


def loop_groups(offsets):
    """Yield ``(k, cells, slots)`` per loop length k, shortest first: the
    cells with k entries (increasing) and their (len(cells), k) positions."""
    counts = np.diff(offsets)
    for k in np.unique(counts):
        cells = np.nonzero(counts == k)[0]
        yield int(k), cells, offsets[cells][:, None] + np.arange(k)


def shoelace(points, offsets=None):
    """Signed areas (m,) and centroids (m, 2) of the polygons
    ``points[offsets[c]:offsets[c + 1]]`` (one polygon if ``offsets`` is
    None); CCW is positive, zero-area centroids are not finite."""
    points = np.asarray(points, dtype=float)
    offsets = np.array([0, len(points)]) if offsets is None else offsets
    nxt = points[_next_slot(offsets)]
    cross = points[:, 0] * nxt[:, 1] - nxt[:, 0] * points[:, 1]
    areas = 0.5 * np.add.reduceat(cross, offsets[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return areas, (np.add.reduceat((points + nxt) * cross[:, None],
                                       offsets[:-1]) / (6.0 * areas[:, None]))


def _cell_geometry(points, offsets):
    """Areas, centroids, diameters and centered second-moment tensors of
    CCW polygons laid out as in :func:`shoelace`; the tensors are exact
    Green's-theorem edge sums about the centroid (no star-shape needed)."""
    areas, centroids = shoelace(points, offsets)
    _reject(areas <= 0.0, "degenerate polygon {}: signed area <= 0")
    r = points - centroids[_slot_cells(offsets)]
    s = r[_next_slot(offsets)]
    t = r + s
    terms = (t[:, :, None] * t[:, None, :] + r[:, :, None] * r[:, None, :]
             + s[:, :, None] * s[:, None, :])
    cross = r[:, 0] * s[:, 1] - s[:, 0] * r[:, 1]
    tensors = np.add.reduceat(terms * cross[:, None, None] / 24.0,
                              offsets[:-1])
    diameters = np.empty(len(areas))
    for _, cells, slots in loop_groups(offsets):
        p = points[slots]
        diffs = p[:, :, None, :] - p[:, None, :, :]
        diameters[cells] = np.sqrt((diffs**2).sum(-1).max(axis=(1, 2)))
    return areas, centroids, diameters, tensors


def polygon_metrics(coords):
    """Area, centroid, diameter and second moment of a simple CCW polygon:
    the one-cell case of the mesh geometry, exact for any simple polygon."""
    coords = np.asarray(coords, dtype=float)
    a, c, h, q = _cell_geometry(coords, np.array([0, len(coords)]))
    return float(a[0]), c[0], float(h[0]), float(np.trace(q[0]))


class PolyMesh:
    """Immutable polygonal mesh with signed cell/edge incidence tables.

    Construction is done by :func:`build_topology`; all derived geometric
    quantities (areas, centroids, diameters, second moments, edge frames)
    are precomputed here from the flat cell arrays.  ``cell_vertices``,
    ``cell_edges`` and ``cell_signs`` give per-cell views into them.
    """

    def __init__(self, vertices, cell_offsets, cell_vertex_ids, cell_edge_ids,
                 cell_edge_signs, edge_nodes, edge_cells):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cell_offsets = np.asarray(cell_offsets, dtype=int)
        self.cell_vertex_ids = np.asarray(cell_vertex_ids, dtype=int)
        self.cell_edge_ids = np.asarray(cell_edge_ids, dtype=int)
        self.cell_edge_signs = np.asarray(cell_edge_signs, dtype=float)
        self.edge_nodes = np.asarray(edge_nodes, dtype=int)
        self.edge_cells = np.asarray(edge_cells, dtype=int)
        self.metadata = {}  # filled in by the generators

        p = self.vertices[self.edge_nodes[:, 0]]
        q = self.vertices[self.edge_nodes[:, 1]]
        d = q - p
        self.edge_lengths = np.sqrt((d**2).sum(1))
        if np.any(self.edge_lengths <= 0.0):
            raise MeshError("zero-length edge")
        self.edge_tangents = d / self.edge_lengths[:, None]
        self.edge_normals = perp(self.edge_tangents)
        self.edge_midpoints = 0.5 * (p + q)

        (self.areas, self.centroids, self.diameters,
         self.moment_tensors) = _cell_geometry(
            self.vertices[self.cell_vertex_ids], self.cell_offsets)
        self.second_moments = np.trace(self.moment_tensors, axis1=1, axis2=2)

    @cached_property
    def cell_vertices(self):
        """Per-cell CCW vertex loops (views into ``cell_vertex_ids``)."""
        return np.split(self.cell_vertex_ids, self.cell_offsets[1:-1])

    @cached_property
    def cell_edges(self):
        """Per-cell edge ids in loop order (views into ``cell_edge_ids``)."""
        return np.split(self.cell_edge_ids, self.cell_offsets[1:-1])

    @cached_property
    def cell_signs(self):
        """Per-cell edge signs (views into ``cell_edge_signs``)."""
        return np.split(self.cell_edge_signs, self.cell_offsets[1:-1])

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cell_offsets) - 1

    @property
    def n_edges(self):
        return len(self.edge_nodes)

    @property
    def boundary_edges(self):
        return np.nonzero((self.edge_cells < 0).any(axis=1))[0]

    @property
    def interior_edges(self):
        return np.nonzero((self.edge_cells >= 0).all(axis=1))[0]

    @property
    def mean_edge_length(self):
        return float(self.edge_lengths.mean())

    def cell_coords(self, c):
        o = self.cell_offsets
        return self.vertices[self.cell_vertex_ids[o[c]:o[c + 1]]]

    def boundary_sign(self, e):
        """Outward sign of the single cell incident to a boundary edge (or
        to each of an array of them); MeshError names an interior edge."""
        cells = self.edge_cells[e]
        interior = (cells >= 0).all(axis=-1)
        if np.any(interior):
            raise MeshError(f"edge {np.asarray(e)[interior].flat[0]} is "
                            "interior")
        return np.where(cells[..., 0] >= 0, 1.0, -1.0)

    def __repr__(self):
        return (f"PolyMesh(vertices={self.n_vertices}, cells={self.n_cells}, "
                f"edges={self.n_edges})")


def _orient(p, q, r):
    return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
            - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))


def _self_intersecting(points, offsets):
    """Flag cells whose loop has two properly crossing non-adjacent sides."""
    bad = np.zeros(len(offsets) - 1, dtype=bool)
    for k, cells, slots in loop_groups(offsets):
        i, j = np.triu_indices(k, 2)
        keep = j - i < k - 1  # sides k-1 and 0 share a vertex
        i, j = i[keep], j[keep]
        a = points[slots]
        b = np.roll(a, -1, axis=1)
        a_i, b_i, a_j, b_j = a[:, i], b[:, i], a[:, j], b[:, j]
        bad[cells] = ((_orient(a_i, b_i, a_j) * _orient(a_i, b_i, b_j) < 0)
                      & (_orient(a_j, b_j, a_i) * _orient(a_j, b_j, b_i) < 0)
                      ).any(axis=1)
    return bad


def build_topology(vertices, cell_vertex_loops):
    """Build a :class:`PolyMesh` from vertex coordinates and CCW cell loops.

    Edges are deduplicated with canonical lower-index-first orientation and
    numbered in order of first appearance along the loops (solution files
    rely on it); cell-side signs follow the traversal direction.  Raises
    :class:`MeshError` on cells with fewer than 3, out-of-range or repeated
    vertices, cells wound clockwise or self-crossing,
    non-manifold edges or inconsistently oriented neighbours, zero-length
    edges, and open cell boundaries.
    """
    vertices = np.asarray(vertices, dtype=float)
    if not np.all(np.isfinite(vertices)):
        raise MeshError("non-finite vertex coordinates")
    loops = list(cell_vertex_loops)
    if not loops:
        raise MeshError("mesh has no cells")
    offsets, ids = _flatten(loops)
    ids = ids.astype(int)
    nv = len(vertices)
    cell = _slot_cells(offsets)
    _reject(np.diff(offsets) < 3, "cell {} has fewer than 3 vertices")
    _reject(np.logical_or.reduceat((ids < 0) | (ids >= nv), offsets[:-1]),
            f"cell {{}} has a vertex id outside [0, {nv})")
    keys = np.sort(cell * nv + ids)  # stays grouped by cell
    _reject(np.logical_or.reduceat(np.diff(keys, prepend=-1) == 0,
                                   offsets[:-1]), "cell {} repeats a vertex")
    points = vertices[ids]
    _reject(shoelace(points, offsets)[0] <= 0.0,
            "cell {} is not counterclockwise")
    _reject(_self_intersecting(points, offsets),
            "cell {} is self-intersecting")

    a, b = ids, ids[_next_slot(offsets)]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    _, first, inverse = np.unique(lo * nv + hi, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)  # unique edges in order of first appearance
    edge_ids = np.argsort(order)[inverse]
    edge_nodes = np.column_stack([lo[first[order]], hi[first[order]]])
    side = (a > b).astype(int)  # 0 where traversed canonically (sign +1)
    uses = np.bincount(2 * edge_ids + side, minlength=2 * len(order))
    if np.any(uses > 1):
        e = edge_nodes[int(np.argmax(uses > 1)) // 2]
        raise MeshError(f"edge {tuple(e.tolist())} has inconsistent "
                        f"orientation or more than two incident cells")
    edge_cells = np.full((len(order), 2), -1)
    edge_cells[edge_ids, side] = cell
    mesh = PolyMesh(vertices, offsets, ids, edge_ids, 1.0 - 2.0 * side,
                    edge_nodes, edge_cells)

    # Discrete divergence theorem for constants: closed signed boundary.
    flux = np.add.reduceat(
        (mesh.cell_edge_signs * mesh.edge_lengths[edge_ids])[:, None]
        * mesh.edge_normals[edge_ids], offsets[:-1])
    _reject(np.abs(flux).max(axis=1) > 1e-10 * np.maximum(mesh.diameters, 1.0),
            "cell {} boundary is not closed")
    return mesh


@dataclass
class QualityReport:
    """Shape-regularity diagnostics against the mesh assumptions.

    ``vertex_ratio`` is the minimum pairwise vertex distance over h_E, and
    ``star_ratio`` estimates (inscribed-ball radius of the visibility
    kernel) / h_E.  Cells below the supplied thresholds are listed in
    ``violations``.
    """

    vertex_ratio: np.ndarray
    star_ratio: np.ndarray
    gamma_min: float
    c_min: float
    violations: list = field(default_factory=list)

    @property
    def min_vertex_ratio(self):
        return float(self.vertex_ratio.min())

    @property
    def min_star_ratio(self):
        return float(self.star_ratio.min())

    @property
    def ok(self):
        return not self.violations


def _kernel_polygon(coords):
    """Visibility kernel: clip the polygon by each of its own edge lines."""
    poly = coords
    for i in range(len(coords)):
        a = coords[i]
        b = coords[(i + 1) % len(coords)]
        t = b - a
        n = perp(t)  # outward for a CCW loop
        poly = _clip(poly, n, float(n @ a))
        if len(poly) < 3:
            return None
    return poly


def _clip(poly, n, b):
    """Keep the part of a polygon with n.x <= b (Sutherland-Hodgman step)."""
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


def _inscribed_radius(coords):
    """Chebyshev radius of a convex polygon via a small LP."""
    from scipy.optimize import linprog

    a = coords
    b = np.roll(coords, -1, axis=0)
    t = b - a
    lengths = np.linalg.norm(t, axis=1)
    keep = lengths > 1e-12 * lengths.max()  # clipping may duplicate vertices
    a, t, lengths = a[keep], t[keep], lengths[keep]
    k = len(a)
    if k < 3:
        return 0.0
    n = perp(t) / lengths[:, None]
    # maximize r subject to n_i . x + r <= n_i . a_i
    A_ub = np.column_stack([n, np.ones(k)])
    b_ub = np.einsum("ij,ij->i", n, a)
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * 3, method="highs")
    if not res.success:
        return 0.0
    return max(res.x[2], 0.0)


def check_assumptions(mesh, gamma_min=0.0, c_min=0.0):
    """Per-cell shape-regularity report (reporting only, never raises)."""
    nc = mesh.n_cells
    vr = np.empty(nc)
    sr = np.empty(nc)
    for c in range(nc):
        coords = mesh.cell_coords(c)
        h = mesh.diameters[c]
        diffs = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diffs**2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        vr[c] = dist.min() / h
        kernel = _kernel_polygon(coords)
        sr[c] = 0.0 if kernel is None else _inscribed_radius(kernel) / h
    report = QualityReport(vertex_ratio=vr, star_ratio=sr,
                           gamma_min=gamma_min, c_min=c_min)
    bad = np.nonzero((sr < gamma_min) | (vr < c_min))[0]
    report.violations = [int(c) for c in bad]
    return report


def cook_domain():
    """Tapered cantilever quadrilateral: vertices (0,0), (48,44), (48,60), (0,44)."""
    return np.array([[0.0, 0.0], [48.0, 44.0], [48.0, 60.0], [0.0, 44.0]])


def _format_rows(values, fmt="%.17g", end="\n"):
    """One line per row of a 2D array, each value as ``fmt % v`` and ``end``
    closing the row; a single ``%`` call formats the whole array."""
    n, k = values.shape
    return ((" ".join([fmt] * k) + end) * n) % tuple(values.ravel().tolist())


def _format_loops(ids, offsets):
    """One line of integers per CSR row ``ids[offsets[i]:offsets[i + 1]]``,
    formatted with a single ``%`` call."""
    ends = np.zeros(len(ids), dtype=bool)
    ends[offsets[1:] - 1] = True
    return "".join(np.where(ends, "%d\n", "%d ").tolist()) % tuple(
        ids.tolist())


def write_mesh_text(mesh) -> str:
    """Serialize to the versioned text format (17 significant digits)."""
    return (f"{MESH_FORMAT_HEADER}\n{mesh.n_vertices}\n"
            + _format_rows(mesh.vertices)
            + f"{mesh.n_cells}\n"
            + _format_loops(mesh.cell_vertex_ids, mesh.cell_offsets))


def save_mesh(path, mesh):
    with open(path, "w") as fh:
        fh.write(write_mesh_text(mesh))


def load_mesh(path):
    """Load a mesh file and rebuild the full topology (MeshError if the
    file is truncated, overlong or non-numeric)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != MESH_FORMAT_HEADER:
        raise MeshError(f"not a '{MESH_FORMAT_HEADER}' file: {path}")
    try:
        nv = int(lines[1])
        verts = np.array([ln.split() for ln in lines[2:2 + nv]], dtype=float)
        nc = int(lines[2 + nv])
        loops = [np.array(ln.split(), dtype=int)
                 for ln in lines[3 + nv:3 + nv + nc]]
    except (IndexError, ValueError) as exc:
        raise MeshError(f"malformed mesh file {path}: {exc}") from exc
    if verts.shape != (nv, 2) or len(lines) != 3 + nv + nc:
        raise MeshError(f"truncated or overlong mesh file: {path}")
    return build_topology(verts, loops)


def mesh_checksum(mesh) -> str:
    """SHA-256 of the canonical text serialization."""
    return hashlib.sha256(write_mesh_text(mesh).encode()).hexdigest()
