"""The Gauss quadrature of every load, boundary-data, interpolation and
error-norm integral: one rule on edges and one on polygons.

Edges use a dimensionless arc coordinate s in [-1/2, 1/2] with s = 0 at the
midpoint, so edge weights sum to 1 and physical integrals carry an extra
factor |e|.  Polygons are integrated by fanning triangles out of the centroid
and applying a symmetric Gauss rule on each triangle, weighted by the
triangle's signed area.  The signed triangles add up to the polygon, so the
rule holds on any simple polygon, star-shaped or not.  On a cell that is not
star-shaped about its centroid some weights are negative, and a point may lie
outside the cell, but never outside its convex hull.
"""

import numpy as np

from .mesh import _next_slot, _slot_cells

__all__ = [
    "QUADRATURE_DEGREE",
    "EDGE_NODES",
    "EDGE_WEIGHTS",
    "TRIANGLE_POINTS",
    "TRIANGLE_WEIGHTS",
    "mesh_polygon_quadrature",
]

# Polynomial degree the polygon rule integrates exactly (the edge rule
# reaches 7).
QUADRATURE_DEGREE = 6


def _frozen(values):
    array = np.asarray(values, dtype=float)
    array.setflags(write=False)
    return array


# 4-point Gauss-Legendre rule on s in [-1/2, 1/2]; weights sum to 1.
EDGE_NODES, EDGE_WEIGHTS = (
    _frozen(0.5 * a) for a in np.polynomial.legendre.leggauss(4))


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


# Symmetric 12-point triangle rule with positive weights: barycentric
# coordinates, weights normalized to sum to 1 over the reference triangle.
TRIANGLE_POINTS = _frozen(
    _orbit3(0.249286745170910)
    + _orbit3(0.063089014491502)
    + _orbit6(0.310352451033785, 0.053145049844816))
TRIANGLE_WEIGHTS = _frozen(
    [0.116786275726379] * 3
    + [0.050844906370207] * 3
    + [0.082851075618374] * 6)


def _fan_rule(points, offsets, centroids):
    """Centroid-fan rule for polygons laid out as in :func:`shoelace`, as
    ``(points, weights, cell_ids)`` ordered by cell, fan triangle, rule point.
    Each triangle's weights carry its signed area, so a triangle that folds
    back over a notch counts negatively and the triangles add up to the
    polygon: the rule is exact to degree 6 on any simple polygon.
    """
    bary, tw = TRIANGLE_POINTS, TRIANGLE_WEIGHTS
    cell = _slot_cells(offsets)
    fan = centroids[cell]
    nxt = points[_next_slot(offsets)]
    d1, d2 = points - fan, nxt - fan
    tri_areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    pts = (
        bary[None, :, 0, None] * fan[:, None, :]
        + bary[None, :, 1, None] * points[:, None, :]
        + bary[None, :, 2, None] * nxt[:, None, :]
    ).reshape(-1, 2)
    wts = (tri_areas[:, None] * tw[None, :]).reshape(-1)
    return pts, wts, np.repeat(cell, len(tw))


def mesh_polygon_quadrature(mesh):
    """Fan-triangulation rule over all cells of a mesh.

    Returns ``(points, weights, cell_ids)`` with one flat read-only array
    per field so integrands can be evaluated in a single vectorized call;
    per-cell sums are recovered by grouping on ``cell_ids`` (the ids are
    nondecreasing).  Built once and cached on the mesh (meshes are
    immutable).
    """
    rule = getattr(mesh, "_quadrature_rule", None)
    if rule is None:
        rule = _fan_rule(mesh.vertices[mesh.cell_vertex_ids],
                         mesh.cell_offsets, mesh.centroids)
        for array in rule:
            array.setflags(write=False)
        mesh._quadrature_rule = rule
    return rule
