import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vemhr.material import (CONTRACTION_WEIGHTS, IsotropicMaterial, from_lame,
                            from_young_poisson_plane_strain,
                            von_mises_plane_strain)


def stiffness(lam, mu):
    """The closed-form plane-strain stiffness in triple coordinates: it maps
    strain triples to stress triples, so its shear entry is 2 mu."""
    return np.array([[2 * mu + lam, lam, 0.0],
                     [lam, 2 * mu + lam, 0.0],
                     [0.0, 0.0, 2 * mu]])


class TestFromLame:
    def test_unit_lame_stress(self):
        # the inverse of the unit Lame stiffness [[3, 1, 0], [1, 3, 0],
        # [0, 0, 2]], by hand
        assert_allclose(from_lame(1.0, 1.0).D,
                        [[0.375, -0.125, 0.0], [-0.125, 0.375, 0.0],
                         [0.0, 0.0, 0.5]], rtol=1e-15)

    def test_inverse_consistency(self):
        mat = from_lame(1.0, 1.0)
        assert_allclose(mat.strain([3.0, 1.0, 0.0]), [1.0, 0.0, 0.0],
                        atol=1e-14)

    def test_zero_lambda_half_mu(self):
        mat = from_lame(0.0, 0.5)
        assert_allclose(mat.strain([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            from_lame(1.0, 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_compliance_inverts_stiffness(self, seed):
        # tolerance relative to the lam/mu cancellation scale of the product
        rng = np.random.default_rng(seed)
        lam = 10 ** rng.uniform(-2, 6)
        mu = 10 ** rng.uniform(-2, 6)
        mat = from_lame(lam, mu)
        assert_allclose(mat.D @ stiffness(lam, mu), np.eye(3),
                        atol=1e-12 * (1.0 + lam / mu))

    @pytest.mark.parametrize("seed", range(20))
    def test_energy_positivity(self, seed):
        rng = np.random.default_rng(100 + seed)
        mat = from_lame(10 ** rng.uniform(-2, 6), 10 ** rng.uniform(-2, 6))
        t = rng.standard_normal(3)
        assert (mat.strain(t) * t * CONTRACTION_WEIGHTS).sum() > 0


class TestIdentity:
    def test_a_material_is_its_lame_pair(self):
        assert [f.name for f in dataclasses.fields(IsotropicMaterial)] == [
            "lam", "mu"]
        mat = from_lame(1.0, 1.0)
        assert not mat.D.flags.writeable
        assert mat.D is mat.D

    def test_equal_pairs_are_one_key(self):
        a, b = from_lame(1, 1), from_lame(1.0, 1.0)
        assert a == b and hash(a) == hash(b)
        assert {a: "factor"}[b] == "factor"
        assert len({a, b, from_lame(1.0, 2.0)}) == 2
        assert a != from_lame(2.0, 1.0)


class TestPlaneStrainConversion:
    def test_cantilever_material(self):
        mat = from_young_poisson_plane_strain(70.0, 1.0 / 3.0)
        assert_allclose(mat.mu, 26.25)
        assert_allclose(mat.lam, 52.5)

    def test_nearly_incompressible(self):
        mat = from_young_poisson_plane_strain(70.0, 0.499995)
        assert_allclose(mat.mu, 23.3334, rtol=1e-5)
        assert_allclose(mat.lam, 2.3333e6, rtol=1e-4)
        assert mat.lam / mat.mu > 1e4

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        lam = 10 ** rng.uniform(-1, 3)
        mu = 10 ** rng.uniform(-1, 3)
        mat = from_lame(lam, mu)
        young = mu * (3 * lam + 2 * mu) / (lam + mu)
        back = from_young_poisson_plane_strain(young, 0.5 * lam / (lam + mu))
        assert_allclose((back.lam, back.mu), (lam, mu), rtol=1e-12)

    def test_incompressible_limit_rejected(self):
        with pytest.raises(ValueError):
            from_young_poisson_plane_strain(70.0, 0.5)


class TestNonFiniteRejected:
    # NaN passes every sign check, so without the finiteness test these
    # would build materials whose kappa is NaN
    @pytest.mark.parametrize("lam, mu", [(np.nan, 1.0), (1.0, np.nan),
                                         (np.inf, 1.0), (1.0, np.inf)])
    def test_lame(self, lam, mu):
        with pytest.raises(ValueError, match="finite"):
            from_lame(lam, mu)

    @pytest.mark.parametrize("young, nu", [(np.nan, 0.3), (np.inf, 0.3),
                                           (70.0, np.nan)])
    def test_young_poisson(self, young, nu):
        with pytest.raises(ValueError):
            from_young_poisson_plane_strain(young, nu)

    def test_overflowing_lame_rejected(self):
        # a finite but huge Young modulus overflows lam to inf
        with pytest.raises(ValueError, match="finite"):
            from_young_poisson_plane_strain(1e308, 0.49)


class TestKappa:
    def test_unit_lame_value(self):
        # invert C = [[3,1,0],[1,3,0],[0,0,2]] by hand: tr(D) = 3/8+3/8+1/2
        assert_allclose(from_lame(1.0, 1.0).kappa, 0.625)

    def test_stiff_limit(self):
        assert from_lame(1.0, 1e8).kappa < 1e-7

    def test_inverse_scaling(self):
        base = from_lame(2.0, 3.0)
        scaled = from_lame(20.0, 30.0)
        assert_allclose(scaled.kappa, base.kappa / 10.0, rtol=1e-13)

    @pytest.mark.parametrize("seed", range(10))
    def test_comparable_to_compliance_norm(self, seed):
        # any norm of D is admissible; kappa must stay within a fixed factor
        rng = np.random.default_rng(seed)
        mat = from_lame(10 ** rng.uniform(-2, 6), 10 ** rng.uniform(-2, 6))
        norm = np.linalg.norm(mat.D, 2)
        assert 0.4 * norm <= mat.kappa <= 1.6 * norm


class TestVonMises:
    def test_pure_shear(self):
        mat = from_lame(1.0, 1.0)
        assert_allclose(von_mises_plane_strain([0.0, 0.0, 2.5], mat),
                        np.sqrt(3.0) * 2.5)

    def test_uniaxial_zero_lambda(self):
        mat = from_lame(0.0, 1.0)
        assert_allclose(von_mises_plane_strain([4.0, 0.0, 0.0], mat), 4.0)

    def test_incompressible_hydrostatic_vanishes(self):
        mat = from_lame(1e12, 1.0)  # nu_eff -> 1/2
        vm = von_mises_plane_strain([5.0, 5.0, 0.0], mat)
        assert vm < 1e-4

    def test_batched(self):
        mat = from_lame(1.0, 1.0)
        vals = von_mises_plane_strain(np.array([[0.0, 0.0, 1.0],
                                                [0.0, 0.0, 2.0]]), mat)
        assert_allclose(vals, np.sqrt(3.0) * np.array([1.0, 2.0]))
