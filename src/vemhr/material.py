"""Plane-strain isotropic elasticity algebra.

Symmetric 2x2 tensors are stored as triples (t11, t22, t12) with the double
contraction s : t = s11 t11 + s22 t22 + 2 s12 t12, i.e. the weight matrix
diag(1, 1, 2).  The compliance matrix D maps stress triples to strain
triples, so its shear entry is 1/(2 mu) (not 1/mu).  The method is written
in the compliance alone, a(sigma, tau) = D sigma : tau, so there is no
stiffness matrix.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "CONTRACTION_WEIGHTS",
    "tensor_to_matrix",
    "IsotropicMaterial",
    "from_lame",
    "from_young_poisson_plane_strain",
    "von_mises_plane_strain",
]

CONTRACTION_WEIGHTS = np.array([1.0, 1.0, 2.0])


def tensor_to_matrix(t):
    """Triple (t11, t22, t12) -> 2x2 symmetric matrix (batched on leading axes)."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape[:-1] + (2, 2))
    out[..., 0, 0] = t[..., 0]
    out[..., 1, 1] = t[..., 1]
    out[..., 0, 1] = t[..., 2]
    out[..., 1, 0] = t[..., 2]
    return out


@dataclass(frozen=True)
class IsotropicMaterial:
    """A Lame pair; the compliance D and kappa are derived from it, so a
    material compares and hashes by (lam, mu).

    ``kappa`` is half the trace of the 3x3 compliance matrix in the triple
    convention; it sets the scale of the boundary stabilization and of the
    traction error norm.
    """

    lam: float
    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError("shear modulus must be positive and finite, "
                             f"got {self.mu}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError("first Lame parameter must be finite and >= 0, "
                             f"got {self.lam}")

    @cached_property
    def D(self):
        """The compliance in triple coordinates, read-only.  The closed-form
        inverse of the 2x2 volumetric block of the stiffness is immune to
        its conditioning at extreme lam/mu ratios."""
        lam, mu = self.lam, self.mu
        det = 2.0 * mu * (2.0 * mu + 2.0 * lam)
        d = np.array([[(2 * mu + lam) / det, -lam / det, 0.0],
                      [-lam / det, (2 * mu + lam) / det, 0.0],
                      [0.0, 0.0, 0.5 / mu]])
        d.setflags(write=False)
        return d

    @property
    def kappa(self):
        return 0.5 * float(np.trace(self.D))

    def strain(self, stress):
        """Apply D to stress triples (batched on leading axes)."""
        return np.asarray(stress, dtype=float) @ self.D.T

    @property
    def energy_matrix(self):
        """Matrix G with sigma^T G tau = D sigma : tau in triple coordinates."""
        return self.D.T * CONTRACTION_WEIGHTS[None, :]


def from_lame(lam, mu) -> IsotropicMaterial:
    return IsotropicMaterial(lam=float(lam), mu=float(mu))


def from_young_poisson_plane_strain(young, nu) -> IsotropicMaterial:
    """Plane-strain conversion; requires 0 <= nu < 1/2."""
    if not (np.isfinite(young) and young > 0.0):
        raise ValueError("Young modulus must be positive and finite, "
                         f"got {young}")
    if not 0.0 <= nu < 0.5:
        raise ValueError(f"Poisson ratio must lie in [0, 0.5), got {nu}")
    lam = young * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = young / (2.0 * (1.0 + nu))
    return IsotropicMaterial(lam=lam, mu=mu)


def von_mises_plane_strain(sigma, mat: IsotropicMaterial):
    """Von Mises equivalent stress with the plane-strain out-of-plane recovery
    s33 = lam/(2(lam+mu)) * (s11 + s22).  Batched on leading axes."""
    sigma = np.asarray(sigma, dtype=float)
    s11, s22, s12 = sigma[..., 0], sigma[..., 1], sigma[..., 2]
    s33 = mat.lam / (2.0 * (mat.lam + mat.mu)) * (s11 + s22)
    return np.sqrt(np.maximum(
        s11**2 + s22**2 + s33**2 - s11 * s22 - s22 * s33 - s11 * s33
        + 3.0 * s12**2, 0.0))
