"""Global saddle-point assembly and its hybridised direct solution.

Unknown ordering: the 3 traction DOFs of every edge first (c_x, c_y, d per
edge), then the 3 rigid-motion DOFs of every cell (a_x, a_y, b).  The system
is the symmetric indefinite block matrix [[A, B^T], [B, 0]] with right-hand
side [G, -F]: G collects weak displacement (Dirichlet) boundary data and F
the body load against the rigid-motion bases.  Prescribed tractions are
essential conditions on edge DOFs: the assembled system has identity rows
on the fixed DOFs and the prescribed values on their right-hand side rows.

The constrained system is solved by hybridisation (Fraeijs de Veubeke;
Arnold & Brezzi, M2AN 19, 1985): every cell keeps its own copy of the
traction DOFs of its edges, the two copies on an interior edge are glued by
a multiplier, the 3 displacement moments conjugate to them, and a multiplier
of the same kind holds each fixed DOF at its prescribed value.  The local
saddle points are inverted cell group by cell group, the multipliers solve a
symmetric positive definite system, and one step of iterative refinement
against the constrained system follows.  The multiplier system is factored
in a nested-dissection order of the cells on large quad meshes, and under
minimum degree on every other mesh.  The solve never forms the global
matrix: it works from the local saddle points alone.
"""

import resource
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .element import _edge_moments, _load_moments, _sample, cell_groups
from .mesh import _format_rows, mesh_checksum
from .quadrature import mesh_polygon_quadrature

__all__ = [
    "DofMap",
    "DisplacementBC",
    "TractionBC",
    "GlobalSystem",
    "Solution",
    "SolveReport",
    "SolverError",
    "SOLVER_TOL",
    "assemble",
    "solve",
    "save_solution",
    "load_solution",
]


# Largest normwise backward error a solve accepts (see ``solve``).
SOLVER_TOL = 1e-10


class SolverError(RuntimeError):
    """Singular or badly solved linear system."""


@dataclass(frozen=True)
class DofMap:
    """Contiguous numbering: 3 stress DOFs per edge, then 3 per cell."""

    n_edges: int
    n_cells: int

    @property
    def n_stress(self):
        return 3 * self.n_edges

    @property
    def n_displacement(self):
        return 3 * self.n_cells

    @property
    def size(self):
        return self.n_stress + self.n_displacement


@dataclass(frozen=True)
class DisplacementBC:
    """Weak (natural) displacement data on a boundary edge; None means zero."""

    g: object = None


@dataclass(frozen=True)
class TractionBC:
    """Prescribed outward traction on a boundary edge (essential on the edge
    DOFs); None means traction-free."""

    traction: object = None


@dataclass
class GlobalSystem:
    """The constrained system: identity rows on the fixed DOFs
    ``constrained_dofs``, whose ``rhs`` rows hold their prescribed values.

    ``blocks`` holds the (CellGroup, K) of every cell group (see
    ``_local_blocks``); ``solve`` works from them, ``rhs`` and the fixed
    DOFs alone.  ``load_values`` is the body force at the points of
    ``mesh_polygon_quadrature``, from which the load rows of ``rhs`` were
    integrated (None without a body force).  ``factors``, when not None,
    maps sorted fixed DOFs to the ``_Hybrid`` of these blocks, and is shared
    by every system of the same ``assemble(..., shared=...)`` memo and
    blocks.  The global CSR ``matrix`` and ``eliminated`` are the reference
    for tests and diagnostics; the matrix is scattered from the blocks only
    when first asked for.
    """

    mesh: object
    rhs: np.ndarray
    constrained_dofs: np.ndarray
    blocks: list
    load_values: np.ndarray = None
    factors: dict = None

    @property
    def dofmap(self):
        return DofMap(self.mesh.n_edges, self.mesh.n_cells)

    @property
    def loads(self):
        """The negated load rows of ``rhs``, (n_cells, 3): bit for bit
        ``body_load_vector`` of the body force, None without one."""
        if self.load_values is not None:
            return -self.rhs[self.dofmap.n_stress:].reshape(-1, 3)

    @cached_property
    def matrix(self):
        return _scatter_blocks(self.mesh, self.blocks).tocsr()

    def eliminated(self):
        """Symmetric elimination of the essential DOFs.

        Constrained columns are moved to the right-hand side, the rows are
        replaced by the identity, and the prescribed values stay the rhs
        entries, so the reduced matrix stays symmetric.
        """
        m = self.matrix
        rhs = self.rhs.copy()
        idx = self.constrained_dofs
        if len(idx) == 0:
            return m, rhs
        x0 = np.zeros(self.dofmap.size)
        x0[idx] = rhs[idx]
        rhs -= m @ x0
        keep = np.ones(self.dofmap.size)
        keep[idx] = 0.0
        Z = sps.diags(keep)
        m = (Z @ m @ Z + sps.diags(1.0 - keep)).tocsr()
        rhs[idx] = x0[idx]
        return m, rhs


@dataclass
class SolveReport:
    """``residual`` is the backward error omega (see ``solve``) of the
    constrained system: K the saddle point with identity rows on the fixed
    DOFs, rhs the assembled right-hand side with the prescribed values on
    those rows.  ``lu_nnz`` is L.nnz + U.nnz of the multiplier factor and
    ``factor_s`` the seconds its ``splu`` took, with the minimum-degree
    ordering but not the dissection keys, which ``_edge_order`` caches
    (0 and 0.0 only when the mesh has no interior edge and no traction
    edge; -1 and NaN when read back from a solution file).
    ``peak_rss_mb`` is the process's resident-set high-water mark in MiB,
    read right after the factor (``ru_maxrss``, which Linux gives in KiB;
    NaN when read back).  ``ordering`` names how the multipliers were
    ordered for the factor: ``"nested_dissection"`` or ``"mmd"`` (see
    ``_Hybrid``), ``""`` when there is no multiplier, None when read
    back."""

    n_dof: int
    n_constrained: int
    residual: float
    lu_nnz: int
    factor_s: float
    peak_rss_mb: float
    ordering: str


@dataclass
class Solution:
    """Stress DOFs per edge and rigid-motion coefficients per cell."""

    mesh: object
    edge_dofs: np.ndarray
    cell_motions: np.ndarray
    report: SolveReport


def assemble(mesh, problem, stabilization="stab1",
             shared=None) -> GlobalSystem:
    """Assemble the constrained saddle-point system of a problem on a mesh.

    ``problem`` provides ``material``, ``body_force`` (vectorized field or
    None) and ``boundary(mesh, edge) -> DisplacementBC | TractionBC`` for
    boundary edges.  Local matrices are computed group-wise with the
    cell-side signs already folded in and kept as ``blocks``; the global
    matrix is scattered from them on request.  Boundary edges are grouped
    by their (hashable) condition and each field is evaluated once over its
    group, into the rhs rows of the group's edges.  The body force is
    evaluated once, at the points of ``mesh_polygon_quadrature``, and its
    values are kept as ``load_values``.

    ``shared`` is a dict that one caller keeps for one mesh, and drops with
    it.  The problems assembled with one memo share their local blocks when
    their (material, stabilization) match, and ``solve`` shares their
    ``_Hybrid`` (local inverses and multiplier factor) when their sorted
    fixed DOFs match too.  Without it each system builds its own, and
    ``solve`` drops the ``_Hybrid`` when it returns.
    """
    dm = DofMap(mesh.n_edges, mesh.n_cells)
    if shared is None:
        blocks, factors = _local_blocks(mesh, problem.material,
                                        stabilization), None
    else:
        key = (problem.material, stabilization)
        if key not in shared:
            shared[key] = (_local_blocks(mesh, problem.material,
                                         stabilization), {})
        blocks, factors = shared[key]

    rhs = np.zeros(dm.size)
    load_values = None
    if problem.body_force is not None:
        load_values = _sample(problem.body_force,
                              mesh_polygon_quadrature(mesh)[0])
        rhs[dm.n_stress:] = -_load_moments(mesh, load_values).reshape(-1)

    groups = {}
    for e in mesh.boundary_edges:
        bc = problem.boundary(mesh, int(e))
        if not isinstance(bc, (DisplacementBC, TractionBC)):
            raise TypeError(f"unsupported boundary condition {bc!r}")
        groups.setdefault(bc, []).append(e)
    fixed = [np.empty(0, dtype=int)]
    for bc, edges in groups.items():
        edges = np.array(edges)
        sign = mesh.boundary_sign(edges)
        if isinstance(bc, TractionBC):
            # sigma n is given against the outward normal, the DOFs in the
            # canonical edge frame: the cell-side sign is folded in
            fixed.append((3 * edges[:, None] + np.arange(3)).ravel())
            if bc.traction is not None:
                rhs[:dm.n_stress].reshape(-1, 3)[edges] = _edge_moments(
                    mesh, edges, lambda p: (
                        sign[:, None, None] * _sample(bc.traction, p)))
        elif bc.g is not None:
            # int_e g . (chi_k n_out) for the three DOF basis fields:
            # |e| times the mean of g and |e| times int s g.n = d / 12
            scale = sign * mesh.edge_lengths[edges]
            moments = _edge_moments(mesh, edges, lambda p: _sample(bc.g, p))
            moments[:, 2] /= 12.0
            rhs[:dm.n_stress].reshape(-1, 3)[edges] = scale[:, None] * moments
    return GlobalSystem(mesh=mesh, rhs=rhs,
                        constrained_dofs=np.concatenate(fixed), blocks=blocks,
                        load_values=load_values, factors=factors)


def _local_blocks(mesh, material, stabilization):
    """(CellGroup, K) per cell group: the cells' saddle points
    K_E = [[A_E, B_E^T], [B_E, 0]], (m, 3n + 3, 3n + 3), with the cell-side
    signs folded in, so K acts on the global DOFs ``g.dofs``."""
    blocks = []
    for g in cell_groups(mesh):
        m, nd = len(g.cells), g.ndof
        K = np.zeros((m, nd + 3, nd + 3))
        K[:, :nd, :nd] = g.a_matrices(material, stabilization)
        K[:, nd:, :nd] = g.b_matrices()
        K[:, :nd, nd:] = K[:, nd:, :nd].transpose(0, 2, 1)
        if not np.all(np.isfinite(K)):
            raise SolverError("non-finite local matrix entries")
        blocks.append((g, K))
    return blocks


def _scatter_blocks(mesh, blocks):
    """The saddle-point matrix [[A, B^T], [B, 0]] as COO: the local blocks
    scattered to the global DOFs, without their zero cell-cell block."""
    dm = DofMap(mesh.n_edges, mesh.n_cells)
    rows, cols, vals = [], [], []
    for g, K in blocks:
        dofs, m, nd = g.dofs, len(g.cells), g.ndof
        rows.append(np.broadcast_to(dofs[:, :, None], (m, nd + 3, nd)).ravel())
        cols.append(np.broadcast_to(dofs[:, None, :nd], (m, nd + 3, nd)).ravel())
        vals.append(K[:, :, :nd].ravel())
        rows.append(np.broadcast_to(dofs[:, :nd, None], (m, nd, 3)).ravel())
        cols.append(np.broadcast_to(dofs[:, None, nd:], (m, nd, 3)).ravel())
        vals.append(K[:, :nd, nd:].ravel())
    return sps.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dm.size, dm.size))


def _local_inverse(g, K):
    """K^-1 of a stack of local saddle points of the group g."""
    try:
        return np.linalg.inv(K)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular local saddle point on the "
                          f"{g.n_edges}-gon cells: {exc}") from exc


def _batch_matvec(M, v):
    """M[i] @ v[i] for stacks of matrices (m, k, l) and vectors (m, l)."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


def _apply_blocks(blocks, x):
    """sum_E K_E x_E: per cell group, the local blocks applied to the
    gathered DOFs of x, summed over the cells."""
    y = np.zeros(len(x))
    for g, K in blocks:
        y += np.bincount(g.dofs.ravel(), _batch_matvec(K, x[g.dofs]).ravel(),
                         minlength=len(x))
    return y


def _hop_coordinates(mesh):
    """(n_cells, 2) hop distances in the cell-adjacency graph (cells that
    share an edge) from the cells on two straight boundary sides, n_cells
    where unreachable.

    A side is the boundary edges that share one outward normal.  The first
    side's normal has the smallest x component, the second's is the one
    closest to orthogonal to the first's; ties go to the side whose edge
    midpoints average to the smaller x, then y.  One product of the sparse
    adjacency matrix with the two frontiers advances both searches by a
    hop, so no graph module is loaded.
    """
    nc = mesh.n_cells
    a, b = mesh.edge_cells[mesh.interior_edges].T
    adjacency = sps.csr_matrix((np.ones(2 * len(a)),
                                (np.r_[a, b], np.r_[b, a])), shape=(nc, nc))
    bnd = mesh.boundary_edges
    normals = mesh.boundary_sign(bnd)[:, None] * mesh.edge_normals[bnd]
    normal, side = np.unique(np.round(normals, 9), axis=0,
                             return_inverse=True)
    side = side.ravel()
    scale = np.abs(mesh.vertices).max()
    centre = np.round(np.column_stack([
        np.bincount(side, mesh.edge_midpoints[bnd, k]) for k in (0, 1)])
        / (np.bincount(side)[:, None] * scale), 9)
    first = np.lexsort((centre[:, 1], centre[:, 0], normal[:, 0]))[0]
    tilt = np.round(np.abs(normal @ normal[first]), 9)
    tilt[first] = np.inf
    second = np.lexsort((centre[:, 1], centre[:, 0], tilt))[0]

    hops = np.full((nc, 2), nc)
    for k, s in enumerate((first, second)):
        hops[mesh.edge_cells[bnd[side == s]].max(axis=1), k] = 0
    frontier = (hops == 0).astype(float)
    hop = 0
    while frontier.any():
        hop += 1
        reached = (adjacency @ frontier > 0) & (hops == nc)
        hops[reached] = hop
        frontier = reached.astype(float)
    return hops


def _dissection(mesh):
    """Nested dissection of the cells: ``(depth, leaf)``, the depth D of a
    binary tree and the leaf (0 to 2**D - 1) of every cell.

    Node (l, j) of level l = 0 .. D holds the cells with ``leaf >> (D - l)
    == j``; its children are (l + 1, 2j) and (l + 1, 2j + 1).  D is
    floor(log2(n_cells / 2)), so a leaf holds about two to four cells.

    Two multipliers of ``_Hybrid`` are coupled only when their edges share
    a cell, so the interior edges a split cuts separate them, one edge
    thick: George's nested dissection of a finite-element mesh (SIAM J.
    Numer. Anal. 10, 1973), applied to the cells.  Each part splits at the
    median of whichever hop coordinate of ``_hop_coordinates`` cuts fewer
    of its interior edges (the first on a tie); the cells are ordered by
    that coordinate, then the other, then cell id.  All parts of a level
    split together: each coordinate keeps one order of the cells, sorted by
    part and by the coordinate within a part, and is re-sorted stably by
    the new parts.
    """
    nc = mesh.n_cells
    a, b = mesh.edge_cells[mesh.interior_edges].T
    hops = _hop_coordinates(mesh)
    depth = max(int(np.log2(nc / 2)), 0)
    orders = [np.argsort(hops[:, k] * (nc + 1) + hops[:, 1 - k],
                         kind="stable") for k in (0, 1)]
    part = np.zeros(nc, dtype=int)
    ranks = np.arange(nc)
    upper = np.empty((nc, 2), dtype=int)  # 1 above the part's median
    for level in range(depth):
        counts = np.bincount(part, minlength=2**level)
        start = np.cumsum(counts) - counts
        for k, order in enumerate(orders):
            p = part[order]
            upper[order, k] = ranks - start[p] >= counts[p] // 2
        cut = np.column_stack([
            np.bincount(part[a], upper[a, k] != upper[b, k],
                        minlength=2**level) for k in (0, 1)])
        part = 2 * part + upper[ranks, np.argmin(cut, axis=1)[part]]
        inside = part[a] == part[b]
        a, b = a[inside], b[inside]
        orders = [order[np.argsort(part[order], kind="stable")]
                  for order in orders]
    return depth, part


# Fewest cells of a quad mesh whose multipliers are ordered by nested
# dissection; smaller meshes, and meshes with a cell of other than four
# sides, keep SuperLU's minimum degree.  Set at the measured crossover of
# factor plus ordering time.
_DISSECTION_MIN_CELLS = 1024


def _edge_order(mesh):
    """The postorder key of every edge in the cells' dissection tree
    (``_dissection``), computed once per mesh and cached on it, on meshes
    of at least ``_DISSECTION_MIN_CELLS`` cells that all have four sides;
    else None.  An edge's node (l, j) is the deepest node that holds both
    its cells (a boundary edge's cell's leaf), and its key is
    r (D + 1) + (D - l), r = (j + 1) 2**(D - l) - 1 the rightmost leaf
    under the node.  So the nodes are in postorder (Liu, SIAM J. Matrix
    Anal. Appl. 11, 1990): each subtree is one run of keys that ends with
    its root, after its descendants.
    """
    if (mesh.n_cells < _DISSECTION_MIN_CELLS
            or np.any(np.diff(mesh.cell_offsets) != 4)):
        return None
    if not hasattr(mesh, "_edge_order_key"):
        depth, leaf = _dissection(mesh)
        cells = mesh.edge_cells
        ends = leaf[np.where(cells < 0, cells[:, ::-1], cells)]
        up = np.frexp(ends[:, 0] ^ ends[:, 1])[1]  # D - l
        mesh._edge_order_key = ((ends[:, 0] | ((1 << up) - 1)) * (depth + 1)
                                + up)
    return mesh._edge_order_key


class _Hybrid:
    """The constrained saddle point of local blocks and the indices of the
    fixed DOFs (in any order), applied and inverted by hybridisation.

    Each cell E holds its local saddle point K_E = [[A_E, B_E^T], [B_E, 0]];
    scattered over the cells, the K_E are the global saddle point, and the
    constrained system replaces its fixed rows by identity rows.  Each
    group's K_E is inverted once, and only the inverses are kept.  S is
    written once into int32 row and column and float64 value buffers sized
    to its glued pairs, and the buffers go before ``splu``; with neither an
    interior edge nor a fixed DOF there is no multiplier, nothing is
    factored and ``lu_nnz`` stays 0.

    Called on a global vector r, each cell solves K_E y_E = r_E - C_E lam
    for its own (torn) traction DOFs and rigid motion.  C_E puts a
    multiplier on the rows of every interior-edge DOF and every fixed DOF,
    with the cell-side sign.  The two signs of an interior edge cancel, so
    the glued copies satisfy the global equations.  A fixed DOF j lies on
    one boundary edge, so one cell holds it, and its multiplier imposes
    sign_j y_j = sign_j r_j; it also takes up the entry r_j of the row it
    replaces.  The multipliers solve the SPD system S lam = sum_E C_E^T
    K_E^-1 r_E - g, S = sum_E C_E^T K_E^-1 C_E, g the signed r_j of the
    fixed DOFs.  r is split into the r_E by the groups' ``shares`` (half an
    interior edge's row to each of its cells, every other row whole to its
    one cell), which also average the two copies of an interior edge back
    into one vector; per solve only ``ldof``, the K_E^-1 and S are built.

    Where ``_edge_order`` gives keys, a postorder of the cells' nested
    dissection, the multipliers are numbered by their edge's key, then by
    DOF, and S is written and factored in that numbering (SuperLU's
    ``NATURAL`` column order).  Where it gives None they are numbered in
    DOF order and SuperLU orders S by minimum degree (``MMD_AT_PLUS_A``).
    ``ordering`` records which, ``""`` without a multiplier.
    """

    def __init__(self, mesh, blocks, held):
        # multiplier index per edge DOF, for the interior and fixed ones;
        # every other DOF points at one dummy slot n_lam, which
        # local_solutions drops and S never holds
        has_lam = np.zeros(3 * mesh.n_edges, dtype=bool)
        has_lam[held] = True
        has_lam.reshape(-1, 3)[mesh.interior_edges] = True
        n_lam = int(np.count_nonzero(has_lam))
        lam_dofs = np.flatnonzero(has_lam)
        order = _edge_order(mesh) if n_lam else None
        if order is None:
            permc_spec, self.ordering = "MMD_AT_PLUS_A", "mmd" if n_lam else ""
        else:
            permc_spec, self.ordering = "NATURAL", "nested_dissection"
            lam_dofs = lam_dofs[np.argsort(order[lam_dofs // 3],
                                           kind="stable")]
        lam_of = np.full(len(has_lam), n_lam)
        lam_of[lam_dofs] = np.arange(n_lam)
        self.blocks = blocks
        self.held = held
        self.held_lam = lam_of[self.held]
        self.held_sign = mesh.boundary_sign(self.held // 3)
        self.n_lam = n_lam
        self.groups = []
        nnz = 0
        for g, K in blocks:
            ldof = lam_of[g.dofs[:, :g.ndof]]
            self.groups.append((g, ldof, _local_inverse(g, K)))
            glued = np.count_nonzero(ldof < n_lam, axis=1)
            nnz += int(glued @ glued)
        self.lu = None
        self.lu_nnz = 0
        self.factor_s = 0.0
        if n_lam:
            # S = sum_E C_E^T K_E^-1 C_E as COO triplets of the glued pairs,
            # written group by group into buffers allocated once
            rows = np.empty(nnz, dtype=np.int32)
            cols = np.empty(nnz, dtype=np.int32)
            vals = np.empty(nnz)
            at = 0
            for g, ldof, Kinv in self.groups:
                nd, sign = g.ndof, g.dof_signs
                glued = ldof < n_lam
                pair = glued[:, :, None] & glued[:, None, :]
                end = at + np.count_nonzero(pair)
                rows[at:end] = np.broadcast_to(ldof[:, :, None],
                                               pair.shape)[pair]
                cols[at:end] = np.broadcast_to(ldof[:, None, :],
                                               pair.shape)[pair]
                vals[at:end] = (sign[:, :, None] * Kinv[:, :nd, :nd]
                                * sign[:, None, :])[pair]
                at = end
            S = sps.csc_matrix((vals, (rows, cols)), shape=(n_lam, n_lam))
            del rows, cols, vals  # the COO triplets need not outlive S
            t0 = time.perf_counter()
            try:
                self.lu = spla.splu(S, permc_spec=permc_spec,
                                    diag_pivot_thresh=0,
                                    options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise SolverError(f"singular multiplier system: {exc}") \
                    from exc
            self.factor_s = time.perf_counter() - t0
            self.lu_nnz = int(self.lu.nnz)  # L.nnz + U.nnz, no factor copies

    def apply(self, x):
        """The constrained saddle point times x: the blocks on x, with
        identity rows on the fixed DOFs."""
        y = _apply_blocks(self.blocks, x)
        y[self.held] = x[self.held]
        return y

    def local_solutions(self, r):
        """Per cell group, the torn local solutions y_E (m, 3n + 3) for the
        global right-hand side r."""
        z, b = [], np.zeros(self.n_lam + 1)
        for g, ldof, Kinv in self.groups:
            z.append(_batch_matvec(Kinv, g.shares * r[g.dofs]))
            b += np.bincount(ldof.ravel(),
                             (g.dof_signs * z[-1][:, :g.ndof]).ravel(),
                             minlength=self.n_lam + 1)
        b[self.held_lam] -= self.held_sign * r[self.held]
        lam = np.zeros(self.n_lam + 1)
        if self.lu is not None:
            lam[:-1] = self.lu.solve(b[:-1])
        return [zg - _batch_matvec(Kinv[:, :, :g.ndof],
                                   g.dof_signs * lam[ldof])
                for (g, ldof, Kinv), zg in zip(self.groups, z)]

    def __call__(self, r):
        x = np.zeros(len(r))
        for (g, *_), y in zip(self.groups, self.local_solutions(r)):
            x += np.bincount(g.dofs.ravel(), (g.shares * y).ravel(),
                             minlength=len(r))
        return x


def solve(system) -> Solution:
    """Hybridised solve of the constrained saddle point, one refinement step
    against it, backward-error check.  The ``_Hybrid`` of the system's
    blocks and fixed DOFs is the operator and its inverse, and the
    right-hand side is ``system.rhs`` as assembled (never written), so the
    global matrix is never formed.  The reported residual is the normwise
    backward error omega = norm(rhs - K x) / (norm(|K| |x|) + norm(rhs))
    of that constrained system, |.| entrywise (after Rigal & Gaches, J. ACM
    14, 1967), 0 when rhs and x are both zero.  Unlike norm(rhs - K x) /
    norm(rhs) it does not grow with the mesh's units.  A solve fails when
    omega is above ``SOLVER_TOL`` or NaN.

    Where ``system.factors`` is a dict, the ``_Hybrid`` of the sorted fixed
    DOFs is taken from it, or built and left in it for the next system of
    the same blocks; the report then gives that shared factor's
    ``lu_nnz``, ``factor_s`` and ordering.

    A pure traction problem (no boundary edge left without a prescribed
    traction) has the rigid motions as a kernel and raises SolverError.
    """
    mesh, dm, rhs = system.mesh, system.dofmap, system.rhs
    if np.isin(3 * mesh.boundary_edges, system.constrained_dofs).all():
        raise SolverError("singular system: every boundary edge carries a "
                          "prescribed traction, so the global rigid motions "
                          "are a kernel (pure traction problem)")
    held = system.constrained_dofs
    if system.factors is None:
        hybrid = _Hybrid(mesh, system.blocks, held)
    else:
        key = np.sort(held).tobytes()
        if key not in system.factors:
            system.factors[key] = _Hybrid(mesh, system.blocks, held)
        hybrid = system.factors[key]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    x = hybrid(rhs)
    # Near incompressibility the first pass leaves a relative residual up to
    # about 3e-8 (Cook membrane, nu = 0.499995, 64 x 64 quads); one
    # refinement step brings it to round-off.
    x += hybrid(rhs - hybrid.apply(x))
    # |K| |x|: each group's |K_E| on |x|, formed only while it is applied,
    # and |x_j| on the identity rows of the fixed DOFs
    magnitude = _apply_blocks(((g, np.abs(K)) for g, K in system.blocks),
                              np.abs(x))
    magnitude[hybrid.held] = np.abs(x[hybrid.held])
    scale = np.linalg.norm(magnitude) + np.linalg.norm(rhs)
    residual = np.linalg.norm(rhs - hybrid.apply(x)) / (scale or 1.0)
    if not residual <= SOLVER_TOL:
        raise SolverError(f"solver backward error {residual:.3e} above "
                          f"{SOLVER_TOL:.1e}")
    return Solution(
        mesh=system.mesh,
        edge_dofs=x[:dm.n_stress].reshape(dm.n_edges, 3),
        cell_motions=x[dm.n_stress:].reshape(dm.n_cells, 3),
        report=SolveReport(n_dof=dm.size,
                           n_constrained=len(system.constrained_dofs),
                           residual=float(residual), lu_nnz=hybrid.lu_nnz,
                           factor_s=hybrid.factor_s,
                           peak_rss_mb=peak_rss_mb,
                           ordering=hybrid.ordering))


SOLUTION_FORMAT_HEADER = "vemhr-solution v1"


def write_solution_text(solution) -> str:
    report = solution.report
    return (f"{SOLUTION_FORMAT_HEADER}\n"
            f"mesh_checksum {mesh_checksum(solution.mesh)}\n"
            f"residual {report.residual:.17g}\n"
            f"n_constrained {report.n_constrained}\n"
            f"{len(solution.edge_dofs)}\n"
            + _format_rows(solution.edge_dofs)
            + f"{len(solution.cell_motions)}\n"
            + _format_rows(solution.cell_motions))


def save_solution(path, solution):
    with open(path, "w") as fh:
        fh.write(write_solution_text(solution))


def load_solution(path, mesh):
    """Read the solution file of a mesh: a ValueError if the file is
    truncated, overlong or non-numeric, holds a negative count or residual
    or a non-finite DOF or residual (no solve writes one), or does not
    match the mesh's checksum and sizes."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != SOLUTION_FORMAT_HEADER:
        raise ValueError(f"not a '{SOLUTION_FORMAT_HEADER}' file: {path}")
    try:
        checksum = lines[1].split()[1]
        residual = float(lines[2].split()[1])
        n_constrained = int(lines[3].split()[1])
        ne = int(lines[4])
        edge = np.array([ln.split() for ln in lines[5:5 + ne]], dtype=float)
        nc = int(lines[5 + ne])
        cells = np.array([ln.split() for ln in lines[6 + ne:6 + ne + nc]],
                         dtype=float)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed solution file {path}: {exc}") from exc
    if min(n_constrained, ne, nc, residual) < 0:
        raise ValueError(f"negative count or residual in solution file "
                         f"{path}")
    if (edge.shape != (ne, 3) or cells.shape != (nc, 3)
            or len(lines) != 6 + ne + nc):
        raise ValueError(f"truncated or overlong solution file: {path}")
    if not (np.isfinite(residual) and np.isfinite(edge).all()
            and np.isfinite(cells).all()):
        raise ValueError(f"non-finite value in solution file {path}")
    if (mesh_checksum(mesh) != checksum
            or (ne, nc) != (mesh.n_edges, mesh.n_cells)):
        raise ValueError("solution file does not match the mesh")
    report = SolveReport(n_dof=3 * (ne + nc), n_constrained=n_constrained,
                         residual=residual, lu_nnz=-1,
                         factor_s=np.nan, peak_rss_mb=np.nan,
                         ordering=None)
    return Solution(mesh=mesh, edge_dofs=edge, cell_motions=cells,
                    report=report)
