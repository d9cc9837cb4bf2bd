import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from numpy.testing import assert_allclose

from vemhr.generators import generate_mesh
from vemhr.mesh import build_topology
from vemhr.quadrature import (EDGE_NODES, EDGE_WEIGHTS, QUADRATURE_DEGREE,
                              TRIANGLE_POINTS, TRIANGLE_WEIGHTS,
                              mesh_polygon_quadrature)

from polygons import skyline_polygons


def edge_monomial_integral(p):
    # int_{-1/2}^{1/2} s^p ds
    return 0.0 if p % 2 else 2.0 * 0.5 ** (p + 1) / (p + 1)


def tri_monomial_integral(p, q):
    # int over the unit right triangle of x^p y^q = p! q! / (p + q + 2)!
    from math import factorial
    return factorial(p) * factorial(q) / factorial(p + q + 2)


def polygon_monomial_integral(coords, p, q):
    """Independent oracle: Gauss-Green reduction of int x^p y^q over a polygon
    to exact 1D Gauss integration along the boundary segments."""
    x, w = np.polynomial.legendre.leggauss(p + q + 3)
    t = 0.5 * (x + 1.0)
    total = 0.0
    for i in range(len(coords)):
        a = coords[i]
        b = coords[(i + 1) % len(coords)]
        pts = a + t[:, None] * (b - a)
        integrand = pts[:, 0] ** (p + 1) * pts[:, 1] ** q / (p + 1)
        total += 0.5 * (b[1] - a[1]) * (w @ integrand)
    return total


class TestEdgeRule:
    def test_s_squared(self):
        assert_allclose(EDGE_WEIGHTS @ EDGE_NODES**2, 1.0 / 12.0, rtol=1e-14)

    def test_odd_integrand_vanishes(self):
        assert_allclose(EDGE_WEIGHTS @ EDGE_NODES, 0.0, atol=1e-16)

    @pytest.mark.parametrize("p", range(9))
    def test_monomial_exactness(self, p):
        # the 4-point Gauss rule is exact through s^7 and misses s^8
        assert np.all(EDGE_WEIGHTS > 0)
        assert_allclose(EDGE_WEIGHTS.sum(), 1.0, rtol=1e-14)
        error = abs(EDGE_WEIGHTS @ EDGE_NODES**p - edge_monomial_integral(p))
        if p <= 7:
            assert error <= 1e-15
        else:
            assert error > 1e-6


class TestTriangleRule:
    @pytest.mark.parametrize("degree", range(1, 9))
    def test_monomial_exactness(self, degree):
        # exact for every monomial up to QUADRATURE_DEGREE, for none above
        w = TRIANGLE_WEIGHTS
        assert len(w) == 12
        assert np.all(w > 0)
        assert_allclose(w.sum(), 1.0, rtol=1e-12)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts = TRIANGLE_POINTS @ verts

        def relative_error(p, q):
            ref = tri_monomial_integral(p, q)
            val = 0.5 * (w @ (pts[:, 0] ** p * pts[:, 1] ** q))
            return abs(val - ref) / ref

        if degree <= QUADRATURE_DEGREE:
            for p in range(degree + 1):
                for q in range(degree + 1 - p):
                    assert relative_error(p, q) <= 2e-13
        else:
            assert all(relative_error(p, degree - p) > 1e-6
                       for p in range(degree + 1))


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def regular_polygon(k, r=1.0, center=(0.3, -0.2)):
    ang = 2 * np.pi * np.arange(k) / k
    return np.column_stack([center[0] + r * np.cos(ang),
                            center[1] + r * np.sin(ang)])


def one_cell_rule(coords):
    """Points and weights of the mesh rule on a one-cell mesh."""
    mesh = build_topology(coords, [list(range(len(coords)))])
    points, weights, cells = mesh_polygon_quadrature(mesh)
    assert not cells.any()
    return points, weights


class TestPolygonRule:
    def test_unit_square_area(self):
        _, weights = one_cell_rule(SQUARE)
        assert_allclose(weights.sum(), 1.0, rtol=1e-14)
        assert np.all(weights > 0)

    def test_unit_square_second_moment(self):
        # int |x - x_C|^2 = 2 * int_0^1 (x - 1/2)^2 dx = 1/6
        points, weights = one_cell_rule(SQUARE)
        xi = points - [0.5, 0.5]
        assert_allclose(weights @ (xi**2).sum(1), 1.0 / 6.0, rtol=1e-14)

    def test_pentagon_centroid_symmetry(self):
        points, weights = one_cell_rule(regular_polygon(5))
        centroid = points.T @ weights / weights.sum()
        moments = weights @ (points - centroid)
        assert_allclose(moments, [0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_monomial_exactness_vs_gauss_green(self, degree, k):
        # x^p y^q with p + q <= degree on a jittered k-gon
        rng = np.random.default_rng(100 * degree + k)
        poly = regular_polygon(k)
        poly += rng.uniform(-0.08, 0.08, poly.shape)
        points, weights = one_cell_rule(poly)
        assert np.all(weights > 0)
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                val = weights @ (points[:, 0] ** p * points[:, 1] ** q)
                ref = polygon_monomial_integral(poly, p, q)
                assert_allclose(val, ref, rtol=1e-12, atol=1e-14)


class TestMeshRuleCache:
    def test_built_once_per_degree_read_only(self):
        # one rule per mesh: built on the first request, then shared
        mesh = generate_mesh("quad_structured", 3)
        rule = mesh_polygon_quadrature(mesh)
        assert mesh_polygon_quadrature(mesh) is rule
        assert len(rule[1]) == 12 * 4 * mesh.n_cells
        for array in rule:
            with pytest.raises(ValueError):
                array[0] = 0


class TestNonStarPolygons:
    """Fan triangles weighted by their signed areas add up to any simple
    polygon, so the rule stays exact to degree 6 where some are negative."""

    # U-shaped: not star-shaped about its centroid (1.5, 0.9)
    U = np.array([[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1], [1, 2],
                  [0, 2]], dtype=float)

    def test_u_cell_exact_to_degree_6(self):
        points, weights = one_cell_rule(self.U)
        assert weights.min() < 0
        for p in range(QUADRATURE_DEGREE + 1):
            for q in range(QUADRATURE_DEGREE + 1 - p):
                val = weights @ (points[:, 0] ** p * points[:, 1] ** q)
                assert_allclose(val, polygon_monomial_integral(self.U, p, q),
                                rtol=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(coords=skyline_polygons())
    def test_skylines_exact_to_degree_6(self, coords):
        points, weights = one_cell_rule(coords)
        for p in range(QUADRATURE_DEGREE + 1):
            for q in range(QUADRATURE_DEGREE + 1 - p):
                f = points[:, 0] ** p * points[:, 1] ** q
                error = abs(weights @ f
                            - polygon_monomial_integral(coords, p, q))
                assert error <= 1e-13 * (np.abs(weights) @ np.abs(f))

    def test_skylines_reach_negative_weights(self):
        # the property above covers cells that are not star-shaped
        find(skyline_polygons(), lambda c: one_cell_rule(c)[1].min() < 0,
             settings=settings(database=None, phases=[Phase.generate]))
