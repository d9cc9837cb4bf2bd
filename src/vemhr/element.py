"""Per-polygon element operators for the stress/displacement pair.

A cell with n edges carries 3n stress degrees of freedom: per edge, the mean
traction vector c = (c_x, c_y) in the global edge frame and the coefficient
d of the linear-in-s normal component, so the traction seen from a cell is
sign * (c + d s n) with the cell-side sign folding in the outward direction.
Everything the scheme needs is a linear map of these DOFs:

* the divergence reconstruction (alpha, beta) with div = alpha + beta*perp(x - x_C),
* the mean-stress projection onto constant symmetric tensors,
* the stabilized energy matrix A_E and the divergence coupling B_E.

The maps are assembled for groups of cells sharing an edge count, so the
whole-mesh computation is a handful of einsums per group.
"""

from dataclasses import dataclass

import numpy as np

from .material import tensor_to_matrix
from .mesh import loop_groups, perp
from .quadrature import edge_rule, mesh_polygon_quadrature, polygon_rule

__all__ = [
    "RigidMotion",
    "CellGroup",
    "cell_groups",
    "rm_basis",
    "div_reconstruction",
    "mean_stress",
    "local_a_h",
    "local_b",
    "local_load",
    "dirichlet_boundary_term",
    "edge_traction_moments",
    "interpolate_local",
    "interpolate_global",
    "cell_dof_values",
    "constant_stress_dofs",
    "divergence_field",
    "projection_field",
    "body_load_vector",
]

STABILIZATIONS = ("stab1", "stab1bis")


@dataclass(frozen=True)
class RigidMotion:
    """Displacement a + b * perp(x - center) with perp(c1, c2) = (c2, -c1)."""

    a: np.ndarray
    b: float
    center: np.ndarray

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        return self.a + self.b * perp(points - self.center)

    @property
    def coefficients(self):
        return np.array([self.a[0], self.a[1], self.b])


class CellGroup:
    """Vectorized element maps for cells that share an edge count."""

    def __init__(self, mesh, cell_ids):
        cells = np.asarray(cell_ids, dtype=int)
        n = int(np.diff(mesh.cell_offsets)[cells[0]])
        slots = mesh.cell_offsets[cells][:, None] + np.arange(n)
        eid, sg = mesh.cell_edge_ids[slots], mesh.cell_edge_signs[slots]
        L = mesh.edge_lengths[eid]
        N = mesh.edge_normals[eid]
        T = mesh.edge_tangents[eid]
        xc = mesh.centroids[cells]
        R = mesh.edge_midpoints[eid] - xc[:, None, :]

        self.mesh = mesh
        self.cells = cells
        self.n_edges = n
        self.ndof = 3 * n
        self.edge_ids = eid
        self.signs = sg
        self.lengths = L
        self.normals = N
        self.areas = mesh.areas[cells]
        self.diameters = mesh.diameters[cells]
        self.second_moments = mesh.second_moments[cells]
        self.centroids = xc

        m = len(cells)
        sL = sg * L

        # div tau = alpha + beta * perp(x - x_C): exact edge integrals of the
        # affine traction against the rigid-motion test fields.
        alpha = np.zeros((m, 2, self.ndof))
        beta = np.zeros((m, self.ndof))
        rperp = perp(R)
        mE = self.second_moments
        for j in range(n):
            alpha[:, 0, 3 * j] = sL[:, j] / self.areas
            alpha[:, 1, 3 * j + 1] = sL[:, j] / self.areas
            beta[:, 3 * j] = sL[:, j] * rperp[:, j, 0] / mE
            beta[:, 3 * j + 1] = sL[:, j] * rperp[:, j, 1] / mE
            # n . perp(t) = 1, so the s-moment of the d-basis is |e|^2/12
            beta[:, 3 * j + 2] = sg[:, j] * L[:, j] ** 2 / (12.0 * mE)
        self.alpha_map = alpha
        self.beta_map = beta

        # Mean stress via the boundary identity
        #   int_E tau = int_dE (tau n) x (x - x_C) - int_E (div tau) x (x - x_C),
        # symmetrized; the interior part reduces to beta * int_E perp(xi) x xi.
        K = np.zeros((m, 2, 2, self.ndof))
        for j in range(n):
            K[:, 0, 0, 3 * j] = sL[:, j] * R[:, j, 0]
            K[:, 0, 1, 3 * j] = sL[:, j] * R[:, j, 1]
            K[:, 1, 0, 3 * j + 1] = sL[:, j] * R[:, j, 0]
            K[:, 1, 1, 3 * j + 1] = sL[:, j] * R[:, j, 1]
            w = sg[:, j] * L[:, j] ** 2 / 12.0
            for a in range(2):
                for b in range(2):
                    K[:, a, b, 3 * j + 2] = w * N[:, j, a] * T[:, j, b]
        Q = mesh.moment_tensors[cells]
        J = np.empty((m, 2, 2))
        J[:, 0, 0] = Q[:, 1, 0]
        J[:, 0, 1] = Q[:, 1, 1]
        J[:, 1, 0] = -Q[:, 0, 0]
        J[:, 1, 1] = -Q[:, 0, 1]
        K -= J[:, :, :, None] * beta[:, None, None, :]
        P = np.empty((m, 3, self.ndof))
        P[:, 0] = K[:, 0, 0]
        P[:, 1] = K[:, 1, 1]
        P[:, 2] = 0.5 * (K[:, 0, 1] + K[:, 1, 0])
        P /= self.areas[:, None, None]
        self.projection_map = P

    def a_matrices(self, material, stabilization="stab1", kappa=None):
        """Stabilized local energy matrices, shape (m, 3n, 3n).

        Consistency part |E| * (D Pi_i : Pi_j) plus the boundary penalty
        kappa * w_e * int_e [(chi_i - Pi_i) n] . [(chi_j - Pi_j) n] with
        w_e = h_E ("stab1") or w_e = h_e ("stab1bis").  The cell-side signs
        cancel inside the penalty, so it is evaluated in the global frame.
        ``kappa`` defaults to the material's compliance-trace scale.
        """
        if stabilization not in STABILIZATIONS:
            raise ValueError(f"unknown stabilization {stabilization!r}")
        P = self.projection_map
        G = material.energy_matrix
        A = np.einsum("mak,ab,mbl->mkl", P, G, P) * self.areas[:, None, None]
        if kappa is None:
            kappa = material.kappa
        for j in range(self.n_edges):
            n_j = self.normals[:, j]
            theta = np.empty((len(self.cells), 2, self.ndof))
            theta[:, 0] = P[:, 0] * n_j[:, 0, None] + P[:, 2] * n_j[:, 1, None]
            theta[:, 1] = P[:, 2] * n_j[:, 0, None] + P[:, 1] * n_j[:, 1, None]
            tm = -theta
            tm[:, 0, 3 * j] += 1.0
            tm[:, 1, 3 * j + 1] += 1.0
            contrib = np.einsum("mak,mal->mkl", tm, tm)
            contrib[:, 3 * j + 2, 3 * j + 2] += 1.0 / 12.0
            if stabilization == "stab1":
                w = kappa * self.diameters * self.lengths[:, j]
            else:
                w = kappa * self.lengths[:, j] ** 2
            A += w[:, None, None] * contrib
        return 0.5 * (A + A.transpose(0, 2, 1))

    def b_matrices(self):
        """Divergence coupling against the rigid-motion basis, (m, 3, 3n)."""
        B = np.empty((len(self.cells), 3, self.ndof))
        B[:, :2] = self.areas[:, None, None] * self.alpha_map
        B[:, 2] = self.second_moments[:, None] * self.beta_map
        return B

    def local_dofs(self, edge_dof_table):
        """Gather per-cell DOF vectors from a global (n_edges, 3) table."""
        return edge_dof_table[self.edge_ids].reshape(len(self.cells), self.ndof)


def cell_groups(mesh):
    """Cells grouped by edge count; cached on the mesh (meshes are immutable)."""
    cached = getattr(mesh, "_cell_groups", None)
    if cached is None:
        cached = [CellGroup(mesh, cells)
                  for _, cells, _ in loop_groups(mesh.cell_offsets)]
        mesh._cell_groups = cached
    return cached


def _single(mesh, cell):
    return CellGroup(mesh, [cell])


def rm_basis(mesh, cell):
    """The three rigid motions (1,0), (0,1), perp(x - x_C) anchored at the
    centroid, hence mutually L2-orthogonal on the cell."""
    xc = mesh.centroids[cell]
    return (RigidMotion(np.array([1.0, 0.0]), 0.0, xc),
            RigidMotion(np.array([0.0, 1.0]), 0.0, xc),
            RigidMotion(np.array([0.0, 0.0]), 1.0, xc))


def div_reconstruction(mesh, cell, dofs) -> RigidMotion:
    """Divergence of the virtual stress with the given cell-local DOFs.

    ``dofs`` is the length-3n vector in the cell's CCW edge order, global
    frame; the cell-side signs are applied internally.
    """
    g = _single(mesh, cell)
    dofs = np.asarray(dofs, dtype=float)
    return RigidMotion(g.alpha_map[0] @ dofs, float(g.beta_map[0] @ dofs),
                       mesh.centroids[cell])


def mean_stress(mesh, cell, dofs):
    """Projection of the virtual stress onto constant symmetric tensors,
    returned as a (s11, s22, s12) triple."""
    g = _single(mesh, cell)
    return g.projection_map[0] @ np.asarray(dofs, dtype=float)


def local_a_h(mesh, cell, material, stabilization="stab1", kappa=None):
    return _single(mesh, cell).a_matrices(material, stabilization, kappa)[0]


def local_b(mesh, cell):
    return _single(mesh, cell).b_matrices()[0]


def local_load(mesh, cell, f, degree=6):
    """Load vector against the rigid-motion basis by polygon quadrature."""
    rule = polygon_rule(mesh.cell_coords(cell), degree,
                        centroid=mesh.centroids[cell])
    fv = np.asarray(f(rule.points), dtype=float)
    xi = rule.points - mesh.centroids[cell]
    return np.array([
        rule.weights @ fv[:, 0],
        rule.weights @ fv[:, 1],
        rule.weights @ np.einsum("qa,qa->q", fv, perp(xi)),
    ])


def _edge_points(mesh, edges, nodes):
    delta = (mesh.vertices[mesh.edge_nodes[edges, 1]]
             - mesh.vertices[mesh.edge_nodes[edges, 0]])
    return (mesh.edge_midpoints[edges][..., None, :]
            + nodes[:, None] * delta[..., None, :])


def dirichlet_boundary_term(mesh, edge, g, degree=6):
    """Weak displacement data on a boundary edge: int_e g . (chi_k n_out)
    for the edge's three DOF basis fields, in global DOF order."""
    sign = mesh.boundary_sign(edge)
    rule = edge_rule(degree)
    pts = _edge_points(mesh, edge, rule.nodes)
    gv = np.asarray(g(pts), dtype=float)
    L = mesh.edge_lengths[edge]
    n = mesh.edge_normals[edge]
    gn = gv @ n
    return sign * L * np.array([
        rule.weights @ gv[:, 0],
        rule.weights @ gv[:, 1],
        rule.weights @ (rule.nodes * gn),
    ])


def edge_traction_moments(mesh, edge, traction, degree=6):
    """Moments (c, d) of a traction profile along an edge, i.e. the DOFs of
    its best representative with constant tangential and affine normal part.

    ``traction`` maps points to the global-frame traction tau n_e.  The mean
    gives c; the first moment against perp(x - midpoint) gives d through the
    coefficient |e|^2/12 (n . perp(t) = 1 for straight edges).
    """
    rule = edge_rule(degree)
    pts = _edge_points(mesh, edge, rule.nodes)
    tv = np.asarray(traction(pts), dtype=float)
    c = rule.weights @ tv
    arm = perp(pts - mesh.edge_midpoints[edge])
    d = 12.0 / mesh.edge_lengths[edge] * (
        rule.weights @ np.einsum("qa,qa->q", tv - c, arm))
    return c, float(d)


def interpolate_local(mesh, cell, tau, degree=6):
    """Edge-moment interpolation of an analytic symmetric tensor field
    (triple-valued) onto the cell's DOFs, in cell-local order."""
    out = np.empty(3 * len(mesh.cell_edges[cell]))
    for k, e in enumerate(mesh.cell_edges[cell]):
        n = mesh.edge_normals[e]
        c, d = edge_traction_moments(
            mesh, e, lambda p: tensor_to_matrix(tau(p)) @ n, degree)
        out[3 * k:3 * k + 2] = c
        out[3 * k + 2] = d
    return out


def interpolate_global(mesh, tau, degree=6):
    """Edge-moment interpolation on every edge at once; returns (n_edges, 3)."""
    rule = edge_rule(degree)
    edges = np.arange(mesh.n_edges)
    pts = _edge_points(mesh, edges, rule.nodes)
    tv = tensor_to_matrix(tau(pts.reshape(-1, 2)).reshape(mesh.n_edges,
                                                          len(rule.nodes), 3))
    tn = np.einsum("eqab,eb->eqa", tv, mesh.edge_normals)
    c = np.einsum("q,eqa->ea", rule.weights, tn)
    arm = perp(pts - mesh.edge_midpoints[:, None, :])
    d = 12.0 / mesh.edge_lengths * np.einsum(
        "q,eqa->e", rule.weights, (tn - c[:, None, :]) * arm)
    return np.column_stack([c, d])


def cell_dof_values(mesh, cell, edge_dof_table):
    """Cell-local DOF vector gathered from a global (n_edges, 3) table."""
    return np.asarray(edge_dof_table)[mesh.cell_edges[cell]].reshape(-1)


def constant_stress_dofs(mesh, sigma):
    """Global DOF table of a constant stress: c_e = sigma n_e, d_e = 0."""
    smat = tensor_to_matrix(np.asarray(sigma, dtype=float))
    table = np.zeros((mesh.n_edges, 3))
    table[:, :2] = mesh.edge_normals @ smat.T
    return table


def divergence_field(mesh, edge_dof_table):
    """Per-cell divergence coefficients (alpha_x, alpha_y, beta), (n_cells, 3)."""
    out = np.empty((mesh.n_cells, 3))
    for g in cell_groups(mesh):
        dofs = g.local_dofs(np.asarray(edge_dof_table, dtype=float))
        out[g.cells, :2] = np.einsum("mak,mk->ma", g.alpha_map, dofs)
        out[g.cells, 2] = np.einsum("mk,mk->m", g.beta_map, dofs)
    return out


def projection_field(mesh, edge_dof_table):
    """Per-cell mean-stress triples, (n_cells, 3)."""
    out = np.empty((mesh.n_cells, 3))
    for g in cell_groups(mesh):
        dofs = g.local_dofs(np.asarray(edge_dof_table, dtype=float))
        out[g.cells] = np.einsum("mak,mk->ma", g.projection_map, dofs)
    return out


def body_load_vector(mesh, f, degree=6):
    """Loads of all cells against their rigid-motion bases, (n_cells, 3)."""
    pts, wts, owner = mesh_polygon_quadrature(mesh, degree)
    fv = np.asarray(f(pts), dtype=float)
    xi = perp(pts - mesh.centroids[owner])
    out = np.zeros((mesh.n_cells, 3))
    np.add.at(out[:, 0], owner, wts * fv[:, 0])
    np.add.at(out[:, 1], owner, wts * fv[:, 1])
    np.add.at(out[:, 2], owner, wts * np.einsum("qa,qa->q", fv, xi))
    return out
