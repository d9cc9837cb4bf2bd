"""Benchmark problem definitions with hand-coded exact bundles.

Each problem bundles the domain, the material, the body load, a boundary
classifier, and (where available) the exact displacement and stress.  The
exact stress is in equilibrium with the load, div sigma = -f, so the load
states its divergence.  The closed forms are hand-derived;
``verify_exact_bundle`` cross-checks them against derivative oracles, so a
transcription slip in any field is caught before a solve:

* central finite differences (step 1e-5) validate sigma = C eps(u) and
  div sigma + f = 0 at a tolerance relative to the constitutive scale,
* a complex-step derivative (machine-precision for these entire functions)
  validates pointwise constraints such as div u = 0.

Vector fields map an array of points (..., 2) to values (..., 2); stress
fields return triples (..., 3) in the (s11, s22, s12) convention.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import DisplacementBC, TractionBC
from .material import IsotropicMaterial, from_lame, \
    from_young_poisson_plane_strain
from .mesh import cook_domain
from .generators import UNIT_SQUARE, _convex_domain, _sample_seeds

__all__ = [
    "ExactSolution",
    "ProblemSpec",
    "problem_test_a",
    "problem_test_b",
    "problem_test_incompressible",
    "problem_cook",
    "COOK_TRACTION",
    "COOK_PROBE_POINT",
    "verify_exact_bundle",
    "grad_complex_step",
    "grad_central",
]

COOK_TRACTION = 6.25
COOK_PROBE_POINT = np.array([48.0, 60.0])
CENTRAL_STEP = 1e-5  # of grad_central
COMPLEX_STEP = 1e-200  # of grad_complex_step


@dataclass(frozen=True)
class ExactSolution:
    displacement: object
    stress: object  # in equilibrium with the body force: div sigma = -f


@dataclass(frozen=True)
class ProblemSpec:
    """``domain`` holds the corners as an (n, 2) float array, checked like
    ``generate_mesh``'s (ValueError unless strictly convex and
    counterclockwise)."""

    name: str
    domain: np.ndarray
    material: IsotropicMaterial
    body_force: object
    boundary: object
    exact: ExactSolution = None

    def __post_init__(self):
        object.__setattr__(self, "domain", _convex_domain(self.domain))


def _dirichlet(g):
    bc = DisplacementBC(g=g)
    return lambda mesh, edge: bc


def problem_test_a() -> ProblemSpec:
    """Cubic displacement, zero load, nonhomogeneous Dirichlet data."""
    mat = from_lame(1.0, 1.0)
    mu = mat.mu

    def u(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([x**3 - 3 * x * y**2, y**3 - 3 * x**2 * y], axis=-1)

    def sigma(p):
        # tr(eps) = 0, so sigma = 2 mu eps regardless of lambda
        x, y = p[..., 0], p[..., 1]
        return np.stack([2 * mu * (3 * x**2 - 3 * y**2),
                         2 * mu * (3 * y**2 - 3 * x**2),
                         -12 * mu * x * y], axis=-1)

    return ProblemSpec(name="test-a", domain=UNIT_SQUARE.copy(), material=mat,
                       body_force=None, boundary=_dirichlet(u),
                       exact=ExactSolution(u, sigma))


def problem_test_b() -> ProblemSpec:
    """Trigonometric displacement, trigonometric load, homogeneous Dirichlet."""
    mat = from_lame(1.0, 1.0)
    lam, mu = mat.lam, mat.mu
    pi = np.pi

    def u(p):
        x, y = p[..., 0], p[..., 1]
        s = np.sin(pi * x) * np.sin(pi * y)
        return np.stack([s, s], axis=-1)

    def sigma(p):
        x, y = p[..., 0], p[..., 1]
        m1 = np.cos(pi * x) * np.sin(pi * y)
        m2 = np.sin(pi * x) * np.cos(pi * y)
        return np.stack([pi * ((2 * mu + lam) * m1 + lam * m2),
                         pi * (lam * m1 + (2 * mu + lam) * m2),
                         pi * mu * (m1 + m2)], axis=-1)

    def f(p):
        x, y = p[..., 0], p[..., 1]
        val = -pi**2 * (-(3 * mu + lam) * np.sin(pi * x) * np.sin(pi * y)
                        + (mu + lam) * np.cos(pi * x) * np.cos(pi * y))
        return np.stack([val, val], axis=-1)

    return ProblemSpec(name="test-b", domain=UNIT_SQUARE.copy(), material=mat,
                       body_force=f, boundary=_dirichlet(None),
                       exact=ExactSolution(u, sigma))


def problem_test_incompressible() -> ProblemSpec:
    """Divergence-free displacement with the nearly incompressible Lame pair
    (1e5, 0.5).  The exact stress and load do not depend on lambda, so a
    material of another lambda and the same mu shares the manufactured
    solution."""
    mat = from_lame(1e5, 0.5)
    mu = mat.mu
    pi = np.pi

    def u(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([
            0.5 * np.sin(2 * pi * x)**2 * np.sin(2 * pi * y) * np.cos(2 * pi * y),
            -0.5 * np.sin(2 * pi * y)**2 * np.sin(2 * pi * x) * np.cos(2 * pi * x),
        ], axis=-1)

    def sigma(p):
        x, y = p[..., 0], p[..., 1]
        s4x, s4y = np.sin(4 * pi * x), np.sin(4 * pi * y)
        c4x, c4y = np.cos(4 * pi * x), np.cos(4 * pi * y)
        diag = mu * pi * s4x * s4y
        shear = 0.5 * mu * pi * ((1 - c4x) * c4y - (1 - c4y) * c4x)
        return np.stack([diag, -diag, shear], axis=-1)

    def f(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([
            2 * mu * pi**2 * np.sin(4 * pi * y) * (1 - 2 * np.cos(4 * pi * x)),
            -2 * mu * pi**2 * np.sin(4 * pi * x) * (1 - 2 * np.cos(4 * pi * y)),
        ], axis=-1)

    return ProblemSpec(name="test-inc", domain=UNIT_SQUARE.copy(), material=mat,
                       body_force=f, boundary=_dirichlet(None),
                       exact=ExactSolution(u, sigma))


def problem_cook(nu=1.0 / 3.0) -> ProblemSpec:
    """Tapered cantilever under a constant tangential edge traction.

    The left edge is clamped (weak zero displacement data), the right edge
    carries the prescribed traction (0, q), top and bottom are traction-free.
    No exact bundle; accuracy is judged against an overkill run.
    """
    mat = from_young_poisson_plane_strain(70.0, nu)
    domain = cook_domain()
    right = domain[:, 0].max()

    clamped = DisplacementBC(g=None)
    loaded = TractionBC(traction=lambda p: np.broadcast_to(
        np.array([0.0, COOK_TRACTION]), p.shape[:-1] + (2,)))
    free = TractionBC(traction=None)

    def boundary(mesh, edge):
        x = mesh.edge_midpoints[edge, 0]
        if abs(x) < 1e-9 * right:
            return clamped
        if abs(x - right) < 1e-9 * right:
            return loaded
        return free

    return ProblemSpec(name=f"cook-nu{nu:g}", domain=domain, material=mat,
                       body_force=None, boundary=boundary, exact=None)


def grad_central(field, points):
    """Central finite-difference gradient; returns (..., comp, deriv)."""
    points = np.asarray(points, dtype=float)
    cols = []
    for k in range(2):
        dp = np.zeros_like(points)
        dp[..., k] = CENTRAL_STEP
        cols.append((np.asarray(field(points + dp))
                     - np.asarray(field(points - dp))) / (2 * CENTRAL_STEP))
    return np.stack(cols, axis=-1)


def grad_complex_step(field, points):
    """Complex-step gradient, exact to machine precision for entire fields."""
    points = np.asarray(points, dtype=float)
    cols = []
    for k in range(2):
        dp = np.zeros(points.shape, dtype=complex)
        dp[..., k] = 1j * COMPLEX_STEP
        cols.append(np.imag(np.asarray(field(points + dp))) / COMPLEX_STEP)
    return np.stack(cols, axis=-1)


def verify_exact_bundle(problem):
    """Cross-check the hand-coded bundle against derivative oracles on 20
    random interior points (RNG seed 1234) of the problem's domain.
    Returns the worst relative deviations of the stress from C eps(u)
    (``sigma_vs_fd``) and of its divergence from -f
    (``div_sigma_plus_f``), both by central differences, and the largest
    |div u| by complex step (``div_u_max``).

    The constitutive check is measured relative to the scale (lam + 2 mu)
    max|eps|, which keeps the finite-difference oracle meaningful when
    lambda amplifies round-off in tr(eps) (nearly incompressible runs).
    """
    if problem.exact is None:
        raise ValueError(f"problem {problem.name} has no exact bundle")
    pts = _sample_seeds(problem.domain, 20, np.random.default_rng(1234))
    exact = problem.exact
    mat = problem.material

    grad_fd = grad_central(exact.displacement, pts)
    eps = np.stack([grad_fd[:, 0, 0], grad_fd[:, 1, 1],
                    0.5 * (grad_fd[:, 0, 1] + grad_fd[:, 1, 0])], axis=-1)
    sig_fd = mat.stress(eps)
    sig = np.asarray(exact.stress(pts))
    scale = max(np.abs(sig).max(),
                (mat.lam + 2 * mat.mu) * np.abs(eps).max(), 1e-300)
    dev_sigma = np.abs(sig_fd - sig).max() / scale

    grad_sig = grad_central(exact.stress, pts)
    div_fd = np.stack([grad_sig[:, 0, 0] + grad_sig[:, 2, 1],
                       grad_sig[:, 2, 0] + grad_sig[:, 1, 1]], axis=-1)
    fv = (np.zeros_like(div_fd) if problem.body_force is None
          else np.asarray(problem.body_force(pts)))
    # f = 0 under zero load; normalize by the stress-gradient scale too
    dscale = max(np.abs(fv).max(), np.abs(grad_sig).max(), 1e-300)
    dev_f = np.abs(div_fd + fv).max() / dscale

    grad_cs = grad_complex_step(exact.displacement, pts)
    div_u = grad_cs[:, 0, 0] + grad_cs[:, 1, 1]
    return {
        "sigma_vs_fd": float(dev_sigma),
        "div_sigma_plus_f": float(dev_f),
        "div_u_max": float(np.abs(div_u).max()),
    }
