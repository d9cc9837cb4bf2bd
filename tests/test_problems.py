import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vemhr.assembly import DisplacementBC, TractionBC
from vemhr.generators import UNIT_SQUARE, generate_mesh
from vemhr.material import from_lame
from vemhr.mesh import cook_domain
from vemhr.problems import (COOK_TRACTION, grad_complex_step, problem_cook,
                            problem_test_a, problem_test_b,
                            problem_test_incompressible, verify_exact_bundle)

ORACLE_TOL = 1e-8


@pytest.mark.parametrize("factory", [problem_test_a, problem_test_b,
                                     problem_test_incompressible])
def test_exact_bundles_self_consistent(factory):
    report = verify_exact_bundle(factory())
    assert set(report) == {"sigma_vs_fd", "div_sigma_plus_f", "div_u_max"}
    assert report["sigma_vs_fd"] < ORACLE_TOL
    assert report["div_sigma_plus_f"] < ORACLE_TOL


class TestBundleDomain:
    def test_clockwise_domain_rejected(self):
        clockwise = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="clockwise"):
            dataclasses.replace(problem_test_a(), domain=clockwise)

    def test_missing_domain_rejected(self):
        # every built-in problem carries its corners; None is not a domain
        problem = problem_test_a()
        assert np.array_equal(problem.domain, UNIT_SQUARE)
        with pytest.raises(ValueError, match="domain must be an"):
            dataclasses.replace(problem, domain=None)


class TestProblemA:
    def test_zero_body_force(self):
        assert problem_test_a().body_force is None

    def test_displacement_value(self):
        u = problem_test_a().exact.displacement
        assert_allclose(u(np.array([[1.0, 0.0]])), [[1.0, 0.0]])

    def test_divergence_free_stress(self):
        # zero load: the stated stress is divergence free
        prob = problem_test_a()
        pts = np.random.default_rng(0).uniform(0, 1, (30, 2))
        grad_s = grad_complex_step(prob.exact.stress, pts)
        div = np.stack([grad_s[:, 0, 0] + grad_s[:, 2, 1],
                        grad_s[:, 2, 0] + grad_s[:, 1, 1]], axis=-1)
        assert np.abs(div).max() < 1e-12

    def test_nonhomogeneous_dirichlet(self):
        prob = problem_test_a()
        mesh = generate_mesh("quad_structured", 2)
        bc = prob.boundary(mesh, int(mesh.boundary_edges[0]))
        assert isinstance(bc, DisplacementBC)
        assert bc.g is prob.exact.displacement


class TestProblemB:
    def test_boundary_values_vanish(self):
        u = problem_test_b().exact.displacement
        t = np.linspace(0, 1, 13)
        edge_pts = np.concatenate([
            np.column_stack([t, 0 * t]), np.column_stack([t, 0 * t + 1]),
            np.column_stack([0 * t, t]), np.column_stack([0 * t + 1, t])])
        assert np.abs(u(edge_pts)).max() < 1e-14

    def test_printed_load_at_center(self):
        # 3 mu + lam = 4 and the cosine factor vanishes at the center
        f = problem_test_b().body_force
        val = f(np.array([[0.5, 0.5]]))
        assert_allclose(val, [[4 * np.pi**2, 4 * np.pi**2]], rtol=1e-14)

    def test_strong_form_at_point(self):
        # -div(C eps(u)) = f, finite differences of the displacement alone
        prob = problem_test_b()
        pts = np.array([[0.3, 0.7]])
        grad_s = grad_complex_step(prob.exact.stress, pts)[0]
        div = np.array([grad_s[0, 0] + grad_s[2, 1],
                        grad_s[2, 0] + grad_s[1, 1]])
        assert_allclose(-div, prob.body_force(pts)[0], rtol=1e-8)


class TestProblemIncompressible:
    def test_lame_ratio(self):
        prob = problem_test_incompressible()
        assert_allclose(prob.material.lam, 1e5)
        assert_allclose(prob.material.mu, 0.5)
        assert_allclose(prob.material.lam / prob.material.mu, 2e5)

    def test_divergence_free_displacement(self):
        prob = problem_test_incompressible()
        pts = np.random.default_rng(7).uniform(0, 1, (20, 2))
        grad = grad_complex_step(prob.exact.displacement, pts)
        div_u = grad[:, 0, 0] + grad[:, 1, 1]
        assert np.abs(div_u).max() < 1e-10

    def test_boundary_values_vanish(self):
        u = problem_test_incompressible().exact.displacement
        t = np.linspace(0, 1, 17)
        edge_pts = np.concatenate([
            np.column_stack([t, 0 * t]), np.column_stack([t, 0 * t + 1]),
            np.column_stack([0 * t, t]), np.column_stack([0 * t + 1, t])])
        assert np.abs(u(edge_pts)).max() < 1e-13

    def test_lambda_independent_bundle(self):
        # div u = 0 makes stress and load independent of lambda, so the
        # bundle holds at another lambda with the same mu, and not at
        # another mu
        prob = problem_test_incompressible()
        for lam in (1.0, 1e5):
            other = dataclasses.replace(prob, material=from_lame(lam, 0.5))
            assert verify_exact_bundle(other)["sigma_vs_fd"] < ORACLE_TOL
            wrong_mu = dataclasses.replace(prob, material=from_lame(lam, 1.0))
            assert verify_exact_bundle(wrong_mu)["sigma_vs_fd"] \
                > 100 * ORACLE_TOL


class TestProblemCook:
    def test_total_applied_load(self):
        # q * H2 = 6.25 * 16 = 100
        assert_allclose(COOK_TRACTION * 16.0, 100.0)

    def test_material(self):
        prob = problem_cook(0.499995)
        assert prob.material.lam / prob.material.mu > 1e4
        mat = problem_cook(1.0 / 3.0).material
        young = mat.mu * (3 * mat.lam + 2 * mat.mu) / (mat.lam + mat.mu)
        assert_allclose(young, 70.0, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["quad_structured", "poly_voronoi_random"])
    def test_boundary_coverage(self, kind):
        prob = problem_cook(1.0 / 3.0)
        n = 16 if kind.startswith("poly") else 4
        mesh = generate_mesh(kind, n, domain=cook_domain(), seed=0)
        kinds = {"clamped": 0, "loaded": 0, "free": 0}
        for e in mesh.boundary_edges:
            bc = prob.boundary(mesh, int(e))
            if isinstance(bc, DisplacementBC):
                kinds["clamped"] += 1
            elif isinstance(bc, TractionBC):
                kinds["loaded" if bc.traction is not None else "free"] += 1
        assert kinds["clamped"] > 0
        assert kinds["loaded"] > 0
        assert kinds["free"] > 0
        assert sum(kinds.values()) == len(mesh.boundary_edges)
        # loaded edges integrate to the full applied force
        total = sum(mesh.edge_lengths[e] * COOK_TRACTION
                    for e in mesh.boundary_edges
                    if isinstance(prob.boundary(mesh, int(e)), TractionBC)
                    and prob.boundary(mesh, int(e)).traction is not None)
        assert_allclose(total, 100.0, rtol=1e-9)

    def test_no_exact_bundle(self):
        assert problem_cook(1.0 / 3.0).exact is None
        with pytest.raises(ValueError):
            verify_exact_bundle(problem_cook(1.0 / 3.0))
