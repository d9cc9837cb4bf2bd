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
whole-mesh computation is a handful of batched matrix products per group.
Edge data (the interpolation of a stress field, prescribed tractions,
displacement data) goes through one edge-moment kernel over arrays of edges.
"""

import numpy as np

from .material import tensor_to_matrix
from .mesh import loop_groups, perp
from .quadrature import QUADRATURE_DEGREE, edge_rule, mesh_polygon_quadrature

__all__ = [
    "STABILIZATIONS",
    "CellGroup",
    "cell_groups",
    "interpolate_global",
    "constant_stress_dofs",
    "divergence_field",
    "projection_field",
    "body_load_vector",
]

STABILIZATIONS = ("stab1", "stab1bis")


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
        mE = self.second_moments[:, None]
        c, d = 3 * np.arange(n), 3 * np.arange(n) + 2
        alpha[:, 0, c] = sL / self.areas[:, None]
        alpha[:, 1, c + 1] = sL / self.areas[:, None]
        beta[:, c] = sL * rperp[:, :, 0] / mE
        beta[:, c + 1] = sL * rperp[:, :, 1] / mE
        # n . perp(t) = 1, so the s-moment of the d-basis is |e|^2/12
        beta[:, d] = sg * L ** 2 / (12.0 * mE)
        self.alpha_map = alpha
        self.beta_map = beta

        # Mean stress via the boundary identity
        #   int_E tau = int_dE (tau n) x (x - x_C) - int_E (div tau) x (x - x_C),
        # symmetrized; the interior part reduces to beta * int_E perp(xi) x xi.
        K = np.zeros((m, 2, 2, self.ndof))
        K[:, 0, 0, c] = sL * R[:, :, 0]
        K[:, 0, 1, c] = sL * R[:, :, 1]
        K[:, 1, 0, c + 1] = sL * R[:, :, 0]
        K[:, 1, 1, c + 1] = sL * R[:, :, 1]
        w = sg * L ** 2 / 12.0
        K[:, :, :, d] = (w[:, None, None, :] * N.transpose(0, 2, 1)[:, :, None, :]
                         * T.transpose(0, 2, 1)[:, None, :, :])
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
        A = P.transpose(0, 2, 1) @ (G @ P) * self.areas[:, None, None]
        if kappa is None:
            kappa = material.kappa
        # rows 2j, 2j + 1 of T: (chi - Pi) n_j on edge j, (m, 2n, 3n)
        m, n = len(self.cells), self.n_edges
        N = self.normals
        Nmat = np.zeros((m, n, 2, 3))
        Nmat[:, :, 0, 0] = Nmat[:, :, 1, 2] = N[:, :, 0]
        Nmat[:, :, 1, 1] = Nmat[:, :, 0, 2] = N[:, :, 1]
        T = -(Nmat.reshape(m, 2 * n, 3) @ P)
        j = np.arange(n)
        T[:, 2 * j, 3 * j] += 1.0
        T[:, 2 * j + 1, 3 * j + 1] += 1.0
        if stabilization == "stab1":
            w = kappa * self.diameters[:, None] * self.lengths
        else:
            w = kappa * self.lengths ** 2
        A += T.transpose(0, 2, 1) @ (np.repeat(w, 2, axis=1)[:, :, None] * T)
        A[:, 3 * j + 2, 3 * j + 2] += w / 12.0
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


def _edge_points(mesh, edges, nodes):
    delta = (mesh.vertices[mesh.edge_nodes[edges, 1]]
             - mesh.vertices[mesh.edge_nodes[edges, 0]])
    return (mesh.edge_midpoints[edges][..., None, :]
            + nodes[:, None] * delta[..., None, :])


def _edge_moments(mesh, edges, field):
    """Moments (c_x, c_y, d) of vector profiles along edges, (len(edges), 3):
    the DOFs of their best representatives with constant tangential and
    affine normal part.

    ``field`` maps the (len(edges), q, 2) edge-rule points to values of the
    same shape.  The mean gives c; the first moment against
    perp(x - midpoint) gives d through the coefficient |e|^2/12
    (n . perp(t) = 1 for straight edges).
    """
    rule = edge_rule(QUADRATURE_DEGREE)
    pts = _edge_points(mesh, edges, rule.nodes)
    tv = field(pts)
    c = np.einsum("q,eqa->ea", rule.weights, tv)
    arm = perp(pts - mesh.edge_midpoints[edges][:, None, :])
    d = 12.0 / mesh.edge_lengths[edges] * np.einsum(
        "q,eqa->e", rule.weights, (tv - c[:, None, :]) * arm)
    return np.column_stack([c, d])


def _sample(field, points):
    """A vectorized field evaluated on an (..., 2) point array in one flat
    call; returns (..., k)."""
    values = np.asarray(field(points.reshape(-1, 2)), dtype=float)
    return values.reshape(points.shape[:-1] + values.shape[-1:])


def interpolate_global(mesh, tau):
    """Edge-moment interpolation of an analytic symmetric tensor field
    (triple-valued) on every edge at once; returns (n_edges, 3)."""
    return _edge_moments(mesh, np.arange(mesh.n_edges), lambda p: np.einsum(
        "eqab,eb->eqa", tensor_to_matrix(_sample(tau, p)), mesh.edge_normals))


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


def body_load_vector(mesh, f):
    """Loads of all cells against their rigid-motion bases, (n_cells, 3)."""
    pts, wts, owner = mesh_polygon_quadrature(mesh, QUADRATURE_DEGREE)
    fv = np.asarray(f(pts), dtype=float)
    xi = perp(pts - mesh.centroids[owner])
    out = np.zeros((mesh.n_cells, 3))
    np.add.at(out[:, 0], owner, wts * fv[:, 0])
    np.add.at(out[:, 1], owner, wts * fv[:, 1])
    np.add.at(out[:, 2], owner, wts * np.einsum("qa,qa->q", fv, xi))
    return out
