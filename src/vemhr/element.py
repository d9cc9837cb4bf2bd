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
from .quadrature import EDGE_NODES, EDGE_WEIGHTS, mesh_polygon_quadrature

__all__ = [
    "STABILIZATIONS",
    "CellGroup",
    "cell_groups",
    "interpolate_global",
    "divergence_field",
    "projection_field",
    "body_load_vector",
]

STABILIZATIONS = ("stab1", "stab1bis")


class CellGroup:
    """Vectorized element maps for cells that share an edge count, from
    their (m, n) CSR positions ``slots``; no reference to the mesh is kept.
    Built once per mesh, the group also holds its cells' global DOFs
    ``dofs`` (m, 3n + 3; edges in loop order, then the rigid motion), the
    cell-side sign of each edge DOF ``dof_signs`` (m, 3n) and each row's
    ``shares`` (m, 3n + 3): 1/2 on an interior edge's rows, else 1."""

    def __init__(self, mesh, cells, slots):
        m, n = slots.shape
        eid, sg = mesh.cell_edge_ids[slots], mesh.cell_edge_signs[slots]
        L = mesh.edge_lengths[eid]
        N = mesh.edge_normals[eid]
        T = mesh.edge_tangents[eid]
        R = mesh.edge_midpoints[eid] - mesh.centroids[cells][:, None, :]

        self.cells = cells
        self.n_edges = n
        self.ndof = 3 * n
        items = np.column_stack([eid, mesh.n_edges + cells])
        self.dofs = (3 * items[:, :, None] + np.arange(3)).reshape(m, -1)
        self.dof_signs = np.repeat(sg, 3, axis=1)
        shares = np.where((mesh.edge_cells[eid] >= 0).all(axis=2), 0.5, 1.0)
        self.shares = np.repeat(np.c_[shares, np.ones(m)], 3, axis=1)
        self.lengths = L
        self.normals = N
        self.areas = mesh.areas[cells]
        self.diameters = mesh.diameters[cells]
        self.second_moments = mesh.second_moments[cells]

        sL = sg * L

        # div tau = alpha + beta * perp(x - x_C), rows (alpha_x, alpha_y,
        # beta): exact edge integrals of the affine traction against the
        # rigid-motion test fields.
        D = np.zeros((m, 3, self.ndof))
        rperp = perp(R)
        mE = self.second_moments[:, None]
        c, d = 3 * np.arange(n), 3 * np.arange(n) + 2
        D[:, 0, c] = sL / self.areas[:, None]
        D[:, 1, c + 1] = sL / self.areas[:, None]
        D[:, 2, c] = sL * rperp[:, :, 0] / mE
        D[:, 2, c + 1] = sL * rperp[:, :, 1] / mE
        # n . perp(t) = 1, so the s-moment of the d-basis is |e|^2/12
        D[:, 2, d] = sg * L ** 2 / (12.0 * mE)
        self.divergence_map = D

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
        K -= J[:, :, :, None] * D[:, 2, None, None, :]
        P = np.empty((m, 3, self.ndof))
        P[:, 0] = K[:, 0, 0]
        P[:, 1] = K[:, 1, 1]
        P[:, 2] = 0.5 * (K[:, 0, 1] + K[:, 1, 0])
        P /= self.areas[:, None, None]
        self.projection_map = P

    def a_matrices(self, material, stabilization="stab1"):
        """Stabilized local energy matrices, shape (m, 3n, 3n).

        Consistency part |E| * (D Pi_i : Pi_j) plus the boundary penalty
        kappa * w_e * int_e [(chi_i - Pi_i) n] . [(chi_j - Pi_j) n] with
        w_e = h_E ("stab1") or w_e = h_e ("stab1bis") and kappa the
        material's compliance-trace scale.  The cell-side signs cancel
        inside the penalty, so it is evaluated in the global frame.
        """
        if stabilization not in STABILIZATIONS:
            raise ValueError(f"unknown stabilization {stabilization!r}")
        P = self.projection_map
        G = material.energy_matrix
        A = P.transpose(0, 2, 1) @ (G @ P) * self.areas[:, None, None]
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
        scale = np.column_stack([self.areas, self.areas, self.second_moments])
        return scale[:, :, None] * self.divergence_map


def cell_groups(mesh):
    """Cells grouped by edge count; cached on the mesh (meshes are immutable)."""
    cached = getattr(mesh, "_cell_groups", None)
    if cached is None:
        cached = [CellGroup(mesh, cells, slots)
                  for _, cells, slots in loop_groups(mesh.cell_offsets)]
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
    pts = _edge_points(mesh, edges, EDGE_NODES)
    tv = field(pts)
    c = np.einsum("q,eqa->ea", EDGE_WEIGHTS, tv)
    arm = perp(pts - mesh.edge_midpoints[edges][:, None, :])
    d = 12.0 / mesh.edge_lengths[edges] * np.einsum(
        "q,eqa->e", EDGE_WEIGHTS, (tv - c[:, None, :]) * arm)
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


def _cell_field(mesh, edge_dof_table, name):
    """Every cell's DOFs through its group's map ``name``, (n_cells, 3)."""
    table = np.asarray(edge_dof_table, dtype=float)
    if table.shape != (mesh.n_edges, 3):
        raise ValueError(f"edge DOF table must be ({mesh.n_edges}, 3), not "
                         f"{table.shape}")
    table = table.ravel()
    out = np.empty((mesh.n_cells, 3))
    for g in cell_groups(mesh):
        out[g.cells] = np.einsum("mak,mk->ma", getattr(g, name),
                                 table[g.dofs[:, :g.ndof]])
    return out


def divergence_field(mesh, edge_dof_table):
    """Per-cell divergence coefficients (alpha_x, alpha_y, beta), (n_cells, 3)."""
    return _cell_field(mesh, edge_dof_table, "divergence_map")


def projection_field(mesh, edge_dof_table):
    """Per-cell mean-stress triples, (n_cells, 3)."""
    return _cell_field(mesh, edge_dof_table, "projection_map")


def body_load_vector(mesh, f):
    """Loads of all cells against their rigid-motion bases, (n_cells, 3)."""
    pts, wts, owner = mesh_polygon_quadrature(mesh)
    fv = np.asarray(f(pts), dtype=float)
    xi = perp(pts - mesh.centroids[owner])
    return np.column_stack([
        np.bincount(owner, w, minlength=mesh.n_cells)
        for w in (wts * fv[:, 0], wts * fv[:, 1],
                  wts * np.einsum("qa,qa->q", fv, xi))])
