"""Global saddle-point assembly and its hybridised direct solution.

Unknown ordering: the 3 traction DOFs of every edge first (c_x, c_y, d per
edge), then the 3 rigid-motion DOFs of every cell (a_x, a_y, b).  The system
is the symmetric indefinite block matrix [[A, B^T], [B, 0]] with right-hand
side [G, -F]: G collects weak displacement (Dirichlet) boundary data and F
the body load against the rigid-motion bases.  Prescribed tractions are
essential conditions on edge DOFs and are imposed by symmetric elimination.

The eliminated saddle point is solved by hybridisation (Fraeijs de Veubeke;
Arnold & Brezzi, M2AN 19, 1985): every cell keeps its own copy of the
traction DOFs of its edges, and the two copies on an interior edge are glued
by a multiplier, the 3 displacement moments conjugate to them.  The local
saddle points are inverted cell group by cell group, the multipliers solve a
symmetric positive definite system on the interior edges, and one step of
iterative refinement against the eliminated system follows.  The solve never
forms the global matrix: the masked local saddle points it inverts, scattered
over the cells, are the eliminated saddle point, and it applies them as such.
"""

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from . import element
from .element import _edge_moments, _sample, cell_groups
from .mesh import _format_rows, mesh_checksum

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
    "apply_essential_traction",
    "solve",
    "inf_sup_constant",
    "save_solution",
    "load_solution",
]


# Largest relative residual a solve accepts.
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

    def edge_dofs(self, e):
        return np.arange(3 * e, 3 * e + 3)

    def cell_dofs(self, c):
        base = self.n_stress + 3 * c
        return np.arange(base, base + 3)


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
    """Assembled raw system plus the essential-constraint bookkeeping.

    ``blocks`` holds the local (CellGroup, A_E, B_E) of every cell group;
    ``solve`` works from them alone: its masked local saddle points are the
    eliminated system.  The global CSR ``matrix`` and ``eliminated`` are the
    reference for tests and diagnostics; the matrix is scattered from the
    blocks only when first asked for.
    """

    mesh: object
    dofmap: DofMap
    rhs: np.ndarray
    constrained_dofs: np.ndarray
    constrained_values: np.ndarray
    blocks: list

    @cached_property
    def matrix(self):
        return _scatter_blocks(self.mesh, self.blocks).tocsr()

    def eliminated(self):
        """Symmetric elimination of the essential DOFs.

        Constrained columns are moved to the right-hand side, the rows are
        replaced by the identity, and the prescribed values become the rhs
        entries, so the reduced matrix stays symmetric.
        """
        m = self.matrix
        rhs = self.rhs.copy()
        idx = self.constrained_dofs
        if len(idx) == 0:
            return m, rhs
        x0 = np.zeros(self.dofmap.size)
        x0[idx] = self.constrained_values
        rhs -= m @ x0
        keep = np.ones(self.dofmap.size)
        keep[idx] = 0.0
        Z = sps.diags(keep)
        m = (Z @ m @ Z + sps.diags(1.0 - keep)).tocsr()
        rhs[idx] = self.constrained_values
        return m, rhs


@dataclass
class SolveReport:
    """``lu_nnz`` is L.nnz + U.nnz of the multiplier factor and ``factor_s``
    the seconds its ``splu`` took (0 and 0.0 without interior edges; -1 and
    NaN when read back from a solution file)."""

    n_dof: int
    n_constrained: int
    residual: float
    tolerance: float
    lu_nnz: int
    factor_s: float


@dataclass
class Solution:
    """Stress DOFs per edge and rigid-motion coefficients per cell."""

    mesh: object
    edge_dofs: np.ndarray
    cell_motions: np.ndarray
    report: SolveReport


def assemble(mesh, problem, stabilization="stab1") -> GlobalSystem:
    """Assemble the saddle-point system of a problem on a mesh.

    ``problem`` provides ``material``, ``body_force`` (vectorized field or
    None) and ``boundary(mesh, edge) -> DisplacementBC | TractionBC`` for
    boundary edges.  Local matrices are computed group-wise with the
    cell-side signs already folded in and kept as ``blocks``; the global
    matrix is scattered from them on request.  Boundary edges are grouped
    by their (hashable) condition and each field is evaluated once over its
    group.
    """
    dm = DofMap(mesh.n_edges, mesh.n_cells)
    blocks = _local_blocks(mesh, problem.material, stabilization)

    rhs = np.zeros(dm.size)
    if problem.body_force is not None:
        loads = element.body_load_vector(mesh, problem.body_force)
        rhs[dm.n_stress:] = -loads.reshape(-1)

    system = GlobalSystem(mesh=mesh, dofmap=dm, rhs=rhs,
                          constrained_dofs=np.empty(0, dtype=int),
                          constrained_values=np.empty(0), blocks=blocks)

    groups = {}
    for e in mesh.boundary_edges:
        bc = problem.boundary(mesh, int(e))
        if not isinstance(bc, (DisplacementBC, TractionBC)):
            raise TypeError(f"unsupported boundary condition {bc!r}")
        groups.setdefault(bc, []).append(e)
    for bc, edges in groups.items():
        edges = np.array(edges)
        if isinstance(bc, TractionBC):
            apply_essential_traction(system, edges, bc.traction)
        elif bc.g is not None:
            # int_e g . (chi_k n_out) for the three DOF basis fields:
            # |e| times the mean of g and |e| times int s g.n = d / 12
            scale = mesh.boundary_sign(edges) * mesh.edge_lengths[edges]
            moments = _edge_moments(mesh, edges, lambda p: _sample(bc.g, p))
            moments[:, 2] /= 12.0
            rhs[:dm.n_stress].reshape(-1, 3)[edges] = scale[:, None] * moments
    return system


def _local_blocks(mesh, material, stabilization):
    """(CellGroup, A_E, B_E) of every cell group; the cell-side signs are
    folded in, so the blocks act on the global edge DOFs directly."""
    blocks = []
    for g in cell_groups(mesh):
        A = g.a_matrices(material, stabilization)
        B = g.b_matrices()
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(B)):
            raise SolverError("non-finite local matrix entries")
        blocks.append((g, A, B))
    return blocks


def _group_dofs(g, dm):
    """Global DOFs of a cell group: edge DOFs (m, 3n), cell DOFs (m, 3)."""
    gdof = (3 * g.edge_ids[:, :, None] + np.arange(3)).reshape(len(g.cells),
                                                               g.ndof)
    cdof = dm.n_stress + 3 * g.cells[:, None] + np.arange(3)
    return gdof, cdof


def _scatter_blocks(mesh, blocks):
    """The saddle-point matrix [[A, B^T], [B, 0]] as COO: the local blocks
    scattered to the global DOFs."""
    dm = DofMap(mesh.n_edges, mesh.n_cells)
    rows, cols, vals = [], [], []
    for g, A, B in blocks:
        m, nd = A.shape[0], A.shape[1]
        gdof, cdof = _group_dofs(g, dm)

        rows.append(np.broadcast_to(gdof[:, :, None], (m, nd, nd)).ravel())
        cols.append(np.broadcast_to(gdof[:, None, :], (m, nd, nd)).ravel())
        vals.append(A.ravel())
        rows.append(np.broadcast_to(cdof[:, :, None], (m, 3, nd)).ravel())
        cols.append(np.broadcast_to(gdof[:, None, :], (m, 3, nd)).ravel())
        vals.append(B.ravel())
        rows.append(np.broadcast_to(gdof[:, :, None], (m, nd, 3)).ravel())
        cols.append(np.broadcast_to(cdof[:, None, :], (m, nd, 3)).ravel())
        vals.append(B.transpose(0, 2, 1).ravel())
    return sps.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dm.size, dm.size))


def apply_essential_traction(system, edges, traction):
    """Fix the three DOFs of each given boundary edge to the moments of a
    prescribed outward traction (None means traction-free).

    The field gives sigma n against the domain's outward normal; the stored
    DOFs live in the canonical edge frame, so the cell-side sign of each
    edge's single incident cell is folded in.  An interior edge raises
    ``MeshError``, an edge constrained twice ``ValueError``.
    """
    mesh = system.mesh
    edges = np.asarray(edges, dtype=int).reshape(-1)
    sign = mesh.boundary_sign(edges)
    ids, counts = np.unique(np.concatenate(
        [np.unique(system.constrained_dofs // 3), edges]), return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"edge {ids[np.argmax(counts > 1)]} already "
                         "constrained")
    if traction is None:
        values = np.zeros((len(edges), 3))
    else:
        values = _edge_moments(mesh, edges, lambda p: sign[:, None, None]
                               * _sample(traction, p))
    system.constrained_dofs = np.concatenate(
        [system.constrained_dofs, (3 * edges[:, None] + np.arange(3)).ravel()])
    system.constrained_values = np.concatenate(
        [system.constrained_values, values.ravel()])
    return system


def _batch_matvec(M, v):
    """M[i] @ v[i] for stacks of matrices (m, k, l) and vectors (m, l)."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


class _Hybrid:
    """The eliminated saddle point of a system, applied and inverted from its
    local blocks by hybridisation.

    Each cell E holds its local saddle point K_E = [[A_E, B_E^T], [B_E, 0]]
    with the essential-traction DOFs as identity rows and their columns
    removed.  Scattered over the cells, these K_E are the eliminated saddle
    point of ``GlobalSystem.eliminated`` (a fixed DOF lies on one boundary
    edge, so its identity row is counted once): ``apply(x)`` is its product
    with x, and ``rhs`` the eliminated right-hand side, whose lift of the
    prescribed values comes from the K_E before they are masked.

    Called on a global vector r, each cell solves K_E y_E = r_E - C_E lam
    for its own (torn) traction DOFs and rigid motion.  C_E puts the
    multiplier lam_e of each interior edge on the edge's rows with the
    cell-side sign, so the two signs of an interior edge cancel and the
    glued copies satisfy the global equations.  The multipliers solve the
    SPD system S lam = sum_E C_E^T K_E^-1 r_E, S = sum_E C_E^T K_E^-1 C_E.
    r is split into the r_E with ``weight``: an interior edge's row half to
    each of its two cells, every other row whole to its one cell; the same
    weights average the two copies of an interior edge back into one global
    vector.
    """

    def __init__(self, system):
        mesh, dm = system.mesh, system.dofmap
        idx, values = system.constrained_dofs, system.constrained_values
        fixed = np.zeros(dm.size, dtype=bool)
        fixed[idx] = True
        x0 = np.zeros(dm.size)
        x0[idx] = values
        interior = mesh.interior_edges
        n_lam = 3 * len(interior)
        # multiplier index per edge; the DOFs of unglued edges point at one
        # dummy slot n_lam, whose row and column of S are dropped
        lam_of = np.full(mesh.n_edges, len(interior))
        lam_of[interior] = np.arange(len(interior))
        half = np.ones(mesh.n_edges)
        half[interior] = 0.5
        self.size = dm.size
        self.n_lam = n_lam
        self.groups = []
        lift = np.zeros(dm.size)
        rows, cols, vals = [], [], []
        for g, A, B in system.blocks:
            m, nd = A.shape[0], A.shape[1]
            dofs = np.concatenate(_group_dofs(g, dm), axis=1)
            K = np.zeros((m, nd + 3, nd + 3))
            K[:, :nd, :nd] = A
            K[:, nd:, :nd] = B
            K[:, :nd, nd:] = B.transpose(0, 2, 1)
            lift += np.bincount(dofs.ravel(),
                                _batch_matvec(K, x0[dofs]).ravel(),
                                minlength=dm.size)
            cell, slot = np.nonzero(fixed[dofs])
            K[cell, slot, :] = 0.0
            K[cell, :, slot] = 0.0
            K[cell, slot, slot] = 1.0
            try:
                Kinv = np.linalg.inv(K)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular local saddle point on the "
                                  f"{g.n_edges}-gon cells: {exc}") from exc
            ldof = np.minimum(3 * lam_of[g.edge_ids][:, :, None]
                              + np.arange(3), n_lam).reshape(m, nd)
            sign = np.repeat(g.signs, 3, axis=1)
            weight = np.ones((m, nd + 3))
            weight[:, :nd] = np.repeat(half[g.edge_ids], 3, axis=1)
            rows.append(np.broadcast_to(ldof[:, :, None], (m, nd, nd)).ravel())
            cols.append(np.broadcast_to(ldof[:, None, :], (m, nd, nd)).ravel())
            vals.append((sign[:, :, None] * Kinv[:, :nd, :nd]
                         * sign[:, None, :]).ravel())
            self.groups.append((dofs, weight, ldof, sign, K, Kinv))
        self.rhs = system.rhs - lift
        self.rhs[idx] = values
        self.lu = None
        self.lu_nnz = 0
        self.factor_s = 0.0
        if n_lam:
            S = sps.csc_matrix((np.concatenate(vals), (np.concatenate(rows),
                                np.concatenate(cols))),
                               shape=(n_lam + 1, n_lam + 1))[:-1, :-1]
            del rows, cols, vals  # the COO triplets need not outlive S
            t0 = time.perf_counter()
            try:
                self.lu = spla.splu(S, permc_spec="MMD_AT_PLUS_A",
                                    diag_pivot_thresh=0,
                                    options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise SolverError(f"singular multiplier system: {exc}") \
                    from exc
            self.factor_s = time.perf_counter() - t0
            self.lu_nnz = int(self.lu.nnz)  # L.nnz + U.nnz, no factor copies

    def apply(self, x):
        """The eliminated saddle point times x: per cell group, the masked
        K_E applied to the gathered DOFs and summed over the cells."""
        y = np.zeros(self.size)
        for dofs, _, _, _, K, _ in self.groups:
            y += np.bincount(dofs.ravel(), _batch_matvec(K, x[dofs]).ravel(),
                             minlength=self.size)
        return y

    def local_solutions(self, r):
        """Per cell group, the torn local solutions y_E (m, 3n + 3) for the
        global right-hand side r."""
        z, b = [], np.zeros(self.n_lam + 1)
        for dofs, weight, ldof, sign, _, Kinv in self.groups:
            z.append(_batch_matvec(Kinv, weight * r[dofs]))
            b += np.bincount(ldof.ravel(),
                             (sign * z[-1][:, :ldof.shape[1]]).ravel(),
                             minlength=self.n_lam + 1)
        lam = np.zeros(self.n_lam + 1)
        if self.lu is not None:
            lam[:-1] = self.lu.solve(b[:-1])
        return [zg - _batch_matvec(Kinv[:, :, :ldof.shape[1]],
                                   sign * lam[ldof])
                for (_, _, ldof, sign, _, Kinv), zg in zip(self.groups, z)]

    def __call__(self, r):
        x = np.zeros(self.size)
        for (dofs, weight, *_), y in zip(self.groups, self.local_solutions(r)):
            x += np.bincount(dofs.ravel(), (weight * y).ravel(),
                             minlength=self.size)
        return x


def solve(system) -> Solution:
    """Hybridised solve of the eliminated saddle point, one refinement step
    against it, relative-residual check.  One ``_Hybrid`` gives the
    eliminated rhs, the operator and its inverse, all from
    ``system.blocks``, so the global matrix is never formed.

    A pure traction problem (no boundary edge left without a prescribed
    traction) has the rigid motions as a kernel and raises SolverError.
    """
    mesh = system.mesh
    if np.all(np.isin(mesh.boundary_edges, system.constrained_dofs // 3)):
        raise SolverError("singular system: every boundary edge carries a "
                          "prescribed traction, so the global rigid motions "
                          "are a kernel (pure traction problem)")
    hybrid = _Hybrid(system)
    rhs = hybrid.rhs
    x = hybrid(rhs)
    # Near incompressibility the first pass leaves a relative residual up to
    # about 3e-8 (Cook membrane, nu = 0.499995, 64 x 64 quads); one
    # refinement step brings it to round-off.
    x += hybrid(rhs - hybrid.apply(x))
    if not np.all(np.isfinite(x)):
        bad = np.nonzero(~np.isfinite(x))[0]
        raise SolverError(f"singular system: non-finite solution at DOFs "
                          f"{bad[:5].tolist()}...")
    scale = np.linalg.norm(rhs) or 1.0
    residual = np.linalg.norm(hybrid.apply(x) - rhs) / scale
    if residual > SOLVER_TOL:
        raise SolverError(f"solver residual {residual:.3e} above "
                          f"{SOLVER_TOL:.1e}")
    dm = system.dofmap
    return Solution(
        mesh=system.mesh,
        edge_dofs=x[:dm.n_stress].reshape(dm.n_edges, 3),
        cell_motions=x[dm.n_stress:].reshape(dm.n_cells, 3),
        report=SolveReport(n_dof=dm.size,
                           n_constrained=len(system.constrained_dofs),
                           residual=float(residual),
                           tolerance=SOLVER_TOL, lu_nnz=hybrid.lu_nnz,
                           factor_s=hybrid.factor_s))


def inf_sup_constant(mesh, material, stabilization="stab1"):
    """Smallest singular value of the divergence coupling measured in the
    discrete norms: beta_h^2 = lambda_min(B H^-1 B^T, M_u) with H the
    energy-plus-divergence Gram matrix of the stress space and M_u the
    displacement mass matrix.  Dense; intended as a diagnostic on modest
    meshes."""
    import scipy.linalg as sla

    ns = 3 * mesh.n_edges
    full = _scatter_blocks(
        mesh, _local_blocks(mesh, material, stabilization)).toarray()
    A, B = full[:ns, :ns], full[ns:, :ns]
    mu_diag = np.column_stack([mesh.areas, mesh.areas,
                               mesh.second_moments]).ravel()
    H = A + B.T @ (B / mu_diag[:, None])
    S = B @ sla.solve(H, B.T, assume_a="pos")
    evals = sla.eigh(S, np.diag(mu_diag), eigvals_only=True)
    return float(np.sqrt(max(evals.min(), 0.0)))


SOLUTION_FORMAT_HEADER = "vemhr-solution v1"


def write_solution_text(solution, checksum=None) -> str:
    report = solution.report
    return (f"{SOLUTION_FORMAT_HEADER}\n"
            f"mesh_checksum {checksum or mesh_checksum(solution.mesh)}\n"
            f"residual {report.residual:.17g}\n"
            f"n_constrained {report.n_constrained}\n"
            f"{len(solution.edge_dofs)}\n"
            + _format_rows(solution.edge_dofs)
            + f"{len(solution.cell_motions)}\n"
            + _format_rows(solution.cell_motions))


def save_solution(path, solution):
    with open(path, "w") as fh:
        fh.write(write_solution_text(solution))


def load_solution(path, mesh=None):
    """Read a solution file (ValueError if truncated, overlong or
    non-numeric); if a mesh is given, its checksum and sizes are verified."""
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
    if (edge.shape != (ne, 3) or cells.shape != (nc, 3)
            or len(lines) != 6 + ne + nc):
        raise ValueError(f"truncated or overlong solution file: {path}")
    if mesh is not None and (mesh_checksum(mesh) != checksum
                             or (ne, nc) != (mesh.n_edges, mesh.n_cells)):
        raise ValueError("solution file does not match the mesh")
    report = SolveReport(n_dof=3 * (ne + nc), n_constrained=n_constrained,
                         residual=residual, tolerance=np.nan, lu_nnz=-1,
                         factor_s=np.nan)
    return Solution(mesh=mesh, edge_dofs=edge, cell_motions=cells,
                    report=report)
