import numpy as np
import pytest
from numpy.testing import assert_allclose

from vemhr.generators import generate_mesh
from vemhr.mesh import build_topology
from vemhr.quadrature import (edge_rule, mesh_polygon_quadrature,
                              polygon_rule, triangle_rule)


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
    def test_degree_one_is_midpoint(self):
        rule = edge_rule(1)
        assert_allclose(rule.nodes, [0.0])
        assert_allclose(rule.weights, [1.0])

    def test_s_squared(self):
        rule = edge_rule(3)
        assert_allclose(rule.weights @ rule.nodes**2, 1.0 / 12.0, rtol=1e-14)

    def test_odd_integrand_vanishes(self):
        rule = edge_rule(3)
        assert_allclose(rule.weights @ rule.nodes, 0.0, atol=1e-16)

    @pytest.mark.parametrize("degree", range(9))
    def test_monomial_exactness(self, degree):
        rule = edge_rule(degree)
        assert np.all(rule.weights > 0)
        assert_allclose(rule.weights.sum(), 1.0, rtol=1e-14)
        for p in range(degree + 1):
            assert_allclose(rule.weights @ rule.nodes**p,
                            edge_monomial_integral(p), atol=1e-15)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            edge_rule(-1)


class TestTriangleRule:
    @pytest.mark.parametrize("degree", range(1, 9))
    def test_monomial_exactness(self, degree):
        bary, w = triangle_rule(degree)
        assert np.all(w > 0)
        assert_allclose(w.sum(), 1.0, rtol=1e-12)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts = bary @ verts
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                val = 0.5 * (w @ (pts[:, 0] ** p * pts[:, 1] ** q))
                assert_allclose(val, tri_monomial_integral(p, q), rtol=2e-13,
                                atol=1e-16)


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def regular_polygon(k, r=1.0, center=(0.3, -0.2)):
    ang = 2 * np.pi * np.arange(k) / k
    return np.column_stack([center[0] + r * np.cos(ang),
                            center[1] + r * np.sin(ang)])


class TestPolygonRule:
    def test_unit_square_area(self):
        rule = polygon_rule(SQUARE, 2)
        assert_allclose(rule.weights.sum(), 1.0, rtol=1e-14)
        assert np.all(rule.weights > 0)

    def test_unit_square_second_moment(self):
        # int |x - x_C|^2 = 2 * int_0^1 (x - 1/2)^2 dx = 1/6
        rule = polygon_rule(SQUARE, 2)
        xi = rule.points - [0.5, 0.5]
        assert_allclose(rule.weights @ (xi**2).sum(1), 1.0 / 6.0, rtol=1e-14)

    def test_pentagon_centroid_symmetry(self):
        poly = regular_polygon(5)
        rule = polygon_rule(poly, 3)
        centroid = rule.points.T @ rule.weights / rule.weights.sum()
        moments = rule.weights @ (rule.points - centroid)
        assert_allclose(moments, [0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_monomial_exactness_vs_gauss_green(self, degree, k):
        rng = np.random.default_rng(100 * degree + k)
        poly = regular_polygon(k)
        poly += rng.uniform(-0.08, 0.08, poly.shape)
        rule = polygon_rule(poly, degree)
        assert np.all(rule.weights > 0)
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                val = rule.weights @ (rule.points[:, 0] ** p
                                      * rule.points[:, 1] ** q)
                ref = polygon_monomial_integral(poly, p, q)
                assert_allclose(val, ref, rtol=1e-12, atol=1e-14)

    def test_clockwise_polygon_rejected(self):
        with pytest.raises(ValueError):
            polygon_rule(SQUARE[::-1], 2)


class TestMeshRuleCache:
    def test_built_once_per_degree_read_only(self):
        mesh = generate_mesh("quad_structured", 3)
        rule = mesh_polygon_quadrature(mesh, 6)
        assert mesh_polygon_quadrature(mesh, 6) is rule
        assert len(mesh_polygon_quadrature(mesh, 2)[1]) < len(rule[1])
        for array in rule:
            with pytest.raises(ValueError):
                array[0] = 0

    def test_failure_not_cached(self):
        # U-shaped cell: not star-shaped about its centroid, so the fan rule
        # fails on every request rather than returning a stale value
        mesh = build_topology(
            [[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1], [1, 2], [0, 2]],
            [list(range(8))])
        for _ in range(2):
            with pytest.raises(ValueError, match="star-shaped"):
                mesh_polygon_quadrature(mesh, 6)
