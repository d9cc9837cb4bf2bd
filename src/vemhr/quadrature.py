"""Gauss quadrature on edges and polygons.

Edges use a dimensionless arc coordinate s in [-1/2, 1/2] with s = 0 at the
midpoint, so edge weights sum to 1 and physical integrals carry an extra
factor |e|.  Polygons are integrated by fanning triangles out of the centroid
and applying a symmetric Gauss rule on each triangle; this requires the
polygon to be star-shaped with respect to its centroid.  Meshes may contain
cells that are not (their geometry is exact without quadrature); the rules
here raise ``ValueError`` on such cells.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import _next_slot, _slot_cells, shoelace

__all__ = [
    "QUADRATURE_DEGREE",
    "EdgeRule",
    "PolygonRule",
    "edge_rule",
    "triangle_rule",
    "polygon_rule",
    "mesh_polygon_quadrature",
]

# Degree of every load, boundary-data, interpolation and error-norm rule.
QUADRATURE_DEGREE = 6


@dataclass(frozen=True)
class EdgeRule:
    """Gauss-Legendre rule on s in [-1/2, 1/2]; weights sum to 1."""

    degree: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class PolygonRule:
    """Quadrature points inside a polygon; weights sum to the polygon area."""

    degree: int
    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def edge_rule(degree: int) -> EdgeRule:
    """Gauss-Legendre rule exact for polynomials in s up to ``degree``."""
    if degree < 0:
        raise ValueError(f"quadrature degree must be >= 0, got {degree}")
    n = max(1, -(-(degree + 1) // 2))
    x, w = np.polynomial.legendre.leggauss(n)
    rule = EdgeRule(degree=degree, nodes=0.5 * x, weights=0.5 * w)
    rule.nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


# Symmetric triangle rules with positive weights (barycentric coordinates,
# weights normalized to sum to 1 over the reference triangle).
_TRI_RULES = {
    1: ([(1 / 3, 1 / 3, 1 / 3)], [1.0]),
    2: (_orbit3(1 / 6), [1 / 3] * 3),
    4: (
        _orbit3(0.445948490915965) + _orbit3(0.091576213509771),
        [0.223381589678011] * 3 + [0.109951743655322] * 3,
    ),
    5: (
        [(1 / 3, 1 / 3, 1 / 3)]
        + _orbit3(0.470142064105115)
        + _orbit3(0.101286507323456),
        [0.225]
        + [0.132394152788506] * 3
        + [0.125939180544827] * 3,
    ),
    6: (
        _orbit3(0.249286745170910)
        + _orbit3(0.063089014491502)
        + _orbit6(0.310352451033785, 0.053145049844816),
        [0.116786275726379] * 3
        + [0.050844906370207] * 3
        + [0.082851075618374] * 6,
    ),
}


@lru_cache(maxsize=None)
def triangle_rule(degree: int):
    """Barycentric points and weights (summing to 1) exact up to ``degree``.

    Degrees above 6 fall back to a Duffy-collapsed tensor Gauss rule, which
    keeps all weights positive at the cost of extra points.
    """
    if degree < 0:
        raise ValueError(f"quadrature degree must be >= 0, got {degree}")
    for d in sorted(_TRI_RULES):
        if d >= degree:
            bary, w = _TRI_RULES[d]
            return np.array(bary), np.array(w)
    # Duffy map x = u, y = v(1-u): integrand picks up a (1-u) Jacobian.
    n = -(-(degree + 2) // 2)
    xu, wu = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (xu + 1.0)
    wu = 0.5 * wu
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - uu)
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    return bary, 2.0 * ww.ravel()


def _fan_rule(points, offsets, centroids, degree):
    """Centroid-fan rule for polygons laid out as in :func:`shoelace`, as
    ``(points, weights, cell_ids)`` ordered by cell, fan triangle, rule point.
    Fan triangles below 1e-14 of the polygon area are skipped; a negative
    one means the polygon is not star-shaped with respect to its centroid.
    """
    bary, tw = triangle_rule(degree)
    cell = _slot_cells(offsets)
    fan = centroids[cell]
    nxt = points[_next_slot(offsets)]
    d1, d2 = points - fan, nxt - fan
    tri_areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    total = np.bincount(cell, tri_areas, len(offsets) - 1)
    if np.any(total <= 0.0):
        raise ValueError("degenerate polygon: non-positive area")
    tol = 1e-14 * total[cell]
    if np.any(tri_areas < -tol):
        raise ValueError("polygon is not star-shaped w.r.t. the fan point")
    keep = tri_areas >= tol
    pts = (
        bary[None, :, 0, None] * fan[keep][:, None, :]
        + bary[None, :, 1, None] * points[keep][:, None, :]
        + bary[None, :, 2, None] * nxt[keep][:, None, :]
    ).reshape(-1, 2)
    wts = (tri_areas[keep][:, None] * tw[None, :]).reshape(-1)
    return pts, wts, np.repeat(cell[keep], len(tw))


def polygon_rule(coords, degree: int, centroid=None) -> PolygonRule:
    """Fan-triangulation rule on a polygon given by CCW vertex coordinates
    (the one-cell case of :func:`mesh_polygon_quadrature`)."""
    coords = np.asarray(coords, dtype=float)
    if centroid is None:
        centroid = shoelace(coords)[1][0]
    pts, wts, _ = _fan_rule(coords, np.array([0, len(coords)]),
                            np.asarray(centroid, dtype=float)[None], degree)
    return PolygonRule(degree=degree, points=pts, weights=wts)


def mesh_polygon_quadrature(mesh, degree: int):
    """Batched fan-triangulation rule over all cells of a mesh.

    Returns ``(points, weights, cell_ids)`` with one flat read-only array
    per field so integrands can be evaluated in a single vectorized call;
    per-cell sums are recovered by grouping on ``cell_ids`` (the ids are
    nondecreasing).  Cached on the mesh per degree (meshes are immutable).
    """
    cached = getattr(mesh, "_fan_rules", None)
    if cached is None:
        cached = mesh._fan_rules = {}
    if degree not in cached:
        rule = _fan_rule(mesh.vertices[mesh.cell_vertex_ids],
                         mesh.cell_offsets, mesh.centroids, degree)
        for array in rule:
            array.setflags(write=False)
        cached[degree] = rule
    return cached[degree]
