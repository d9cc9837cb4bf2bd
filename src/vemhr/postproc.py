"""Error norms, convergence rates, probes, von Mises fields and exporters.

The traction error sums kappa * |e| * int_e |(sigma - sigma_h) n|^2 over all
mesh edges (an energy-like measure), the divergence and displacement errors
are plain L2 sums over cells.  Interior stress values are only ever reported
through the cellwise mean projection, which is the one pointwise-known part
of the discrete stress.  Every norm, probe and field reads the stress and
displacement DOFs from a ``Solution`` of the same mesh object, else a
``ValueError``.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .element import (_edge_points, _sample, body_load_vector,
                      divergence_field, projection_field)
from .material import tensor_to_matrix, von_mises_plane_strain
from .mesh import _format_loops, _format_rows, perp
from .quadrature import EDGE_NODES, EDGE_WEIGHTS, mesh_polygon_quadrature

__all__ = [
    "RateTable",
    "error_sigma",
    "error_div",
    "error_u",
    "rm_projection",
    "equilibrium_residuals",
    "convergence_rates",
    "least_squares_slope",
    "probe_displacement",
    "von_mises_field",
    "write_convergence_csv",
    "write_vtk_polydata",
]


def _check_same_mesh(mesh, solution):
    if solution.mesh is not mesh:
        raise ValueError("the solution belongs to another mesh")


def error_sigma(mesh, solution, sigma_exact, material):
    """Energy-scaled traction error over all mesh edges.

    ``sigma_exact`` maps points to stress triples; the discrete traction on
    an edge is c + d s n in the canonical frame.  The scale is the
    ``material.kappa`` of the stabilization (homogeneous material).
    """
    _check_same_mesh(mesh, solution)
    table = solution.edge_dofs
    pts = _edge_points(mesh, np.arange(mesh.n_edges), EDGE_NODES)
    smat = tensor_to_matrix(_sample(sigma_exact, pts))
    t_exact = np.einsum("eqab,eb->eqa", smat, mesh.edge_normals)
    t_h = (table[:, None, :2]
           + table[:, 2, None, None] * EDGE_NODES[None, :, None]
           * mesh.edge_normals[:, None, :])
    misfit = ((t_exact - t_h) ** 2).sum(axis=2) @ EDGE_WEIGHTS
    kappa = material.kappa
    return float(np.sqrt((kappa * mesh.edge_lengths**2 * misfit).sum()))


def _rigid_motion_l2_error(mesh, motions, exact):
    """L2 norm of ``exact`` (a vectorized field) minus the per-cell rigid
    motions a + b perp(x - x_C), rows (a_x, a_y, b)."""
    pts, wts, owner = mesh_polygon_quadrature(mesh)
    approx = (motions[owner, :2]
              + motions[owner, 2, None] * perp(pts - mesh.centroids[owner]))
    exact = np.asarray(exact(pts))
    return float(np.sqrt((wts * ((exact - approx) ** 2).sum(axis=1)).sum()))


def error_div(mesh, solution, f=None):
    """L2 norm of div(sigma - sigma_h) for an exact stress in equilibrium
    with the body force f (zero f allowed), so div sigma = -f; the discrete
    divergence is the exact per-cell rigid motion reconstructed from the
    stress DOFs."""
    _check_same_mesh(mesh, solution)
    return _rigid_motion_l2_error(
        mesh, divergence_field(mesh, solution.edge_dofs),
        lambda p: np.zeros(p.shape) if f is None else -np.asarray(f(p)))


def error_u(mesh, solution, u_exact):
    """L2 displacement error against the per-cell rigid motions."""
    _check_same_mesh(mesh, solution)
    return _rigid_motion_l2_error(mesh, solution.cell_motions, u_exact)


def rm_projection(mesh, field):
    """Per-cell L2 projection Pi_RM of a vectorized field onto the rigid
    motions a + b perp(x - x_C), rows (a_x, a_y, b): the loads against the
    rigid-motion bases over (|E|, |E|, I_E), I_E the polar second moment
    about x_C."""
    return body_load_vector(mesh, field) / np.column_stack(
        [mesh.areas, mesh.areas, mesh.second_moments])


def equilibrium_residuals(mesh, solution, f=None):
    """Per-cell L2 norms of div sigma_h + Pi_RM f (zero f allowed).

    By construction of the scheme these vanish up to the solver residual;
    they are reported as a cheap a-posteriori sanity check.
    """
    _check_same_mesh(mesh, solution)
    delta = divergence_field(mesh, solution.edge_dofs)
    if f is not None:
        delta = delta + rm_projection(mesh, f)
    return np.sqrt(mesh.areas * (delta[:, :2] ** 2).sum(axis=1)
                   + mesh.second_moments * delta[:, 2] ** 2)


def least_squares_slope(h, e):
    """Slope of log(e) against log(h)."""
    h = np.asarray(h, dtype=float)
    e = np.asarray(e, dtype=float)
    if len(h) < 2:
        raise ValueError("need at least two levels for a rate")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


# Rates are fitted over the last this many levels.
RATE_WINDOW = 3

# Errors at or below this are solver round-off (test-a's E_sigma_div, whose
# exact divergence is zero, sits near 1e-14), not discretisation error.
ROUNDOFF_FLOOR = 1e-10


@dataclass
class RateTable:
    """Per-level errors plus least-squares slopes over the last
    ``RATE_WINDOW`` levels (levels with errors at or below ``ROUNDOFF_FLOOR``
    are excluded from the fit and recorded in ``excluded``).  ``h_bar``
    must be positive, finite and strictly decreasing, and every error list
    must hold one finite, non-negative value per level."""

    h_bar: np.ndarray
    errors: dict
    slopes: dict = field(init=False, default_factory=dict)
    excluded: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        h_bar = np.asarray(self.h_bar)
        if not np.all(np.isfinite(h_bar) & (h_bar > 0)) \
                or np.any(np.diff(h_bar) >= 0):
            raise ValueError("h sequence must be positive, finite and "
                             f"strictly decreasing, got {h_bar.tolist()}")
        for name, e in self.errors.items():
            e = np.asarray(e, dtype=float)
            if e.shape != h_bar.shape:
                raise ValueError(f"{name}: {e.size} errors for "
                                 f"{h_bar.size} levels")
            if not np.all(np.isfinite(e) & (e >= 0)):
                raise ValueError(f"{name}: errors must be finite and "
                                 f"non-negative, got {e.tolist()}")
            keep = e > ROUNDOFF_FLOOR
            self.excluded[name] = np.nonzero(~keep)[0].tolist()
            h = h_bar[keep][-RATE_WINDOW:]
            ee = e[keep][-RATE_WINDOW:]
            self.slopes[name] = (least_squares_slope(h, ee)
                                 if len(ee) >= 2 else float("nan"))


def convergence_rates(h_bar, errors) -> RateTable:
    return RateTable(h_bar=np.asarray(h_bar, dtype=float),
                     errors={k: np.asarray(v, dtype=float)
                             for k, v in errors.items()})


def probe_displacement(mesh, solution, point):
    """Displacement at the centroid of the cell whose centroid is nearest to
    the probe point (the rigid motion evaluated at its own centroid)."""
    _check_same_mesh(mesh, solution)
    if mesh.n_cells == 0:
        raise ValueError("empty mesh")
    point = np.asarray(point, dtype=float)
    c = int(np.argmin(((mesh.centroids - point) ** 2).sum(axis=1)))
    return solution.cell_motions[c, :2].copy()


def von_mises_field(mesh, solution, material):
    """Von Mises stress of the per-cell mean projection, one value per cell."""
    _check_same_mesh(mesh, solution)
    return von_mises_plane_strain(
        projection_field(mesh, solution.edge_dofs), material)


CSV_HEADER = ("level", "h_bar", "n_dof", "E_sigma", "E_sigma_div", "E_u",
              "rate_sigma", "rate_div", "rate_u")


def convergence_csv_text(rows) -> str:
    """Serialize per-level dicts with the fixed schema.  An error at or
    below ``ROUNDOFF_FLOOR`` is written as zero, and incremental rates are
    blank on the first level and wherever either of the two errors is at or
    below the floor: round-off values and the rates between them are noise,
    and their digits would change with any last-bit change of the solve."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    prev = None
    for row in rows:
        rates = ["", "", ""]
        if prev is not None:
            dh = np.log(row["h_bar"] / prev["h_bar"])
            for k, key in enumerate(("E_sigma", "E_sigma_div", "E_u")):
                if min(row[key], prev[key]) > ROUNDOFF_FLOOR:
                    rates[k] = f"{np.log(row[key] / prev[key]) / dh:.6f}"
        errors = [row[key] if row[key] > ROUNDOFF_FLOOR else 0.0
                  for key in ("E_sigma", "E_sigma_div", "E_u")]
        writer.writerow([row["level"], f"{row['h_bar']:.12e}", row["n_dof"],
                         *(f"{e:.12e}" for e in errors), *rates])
        prev = row
    return buf.getvalue()


def write_convergence_csv(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write(convergence_csv_text(rows))


def write_vtk_polydata(path, mesh, cell_data=None, title="vemhr output"):
    """Legacy ASCII VTK polydata with per-cell data.

    2-column arrays are written as VECTORS (zero-padded to 3 components),
    1-dimensional arrays as SCALARS; each array has one row per cell.
    """
    offsets = mesh.cell_offsets
    # each polygon line is the vertex count followed by the vertex ids
    polygons = np.insert(mesh.cell_vertex_ids, offsets[:-1], np.diff(offsets))
    parts = [f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET POLYDATA\n"
             f"POINTS {mesh.n_vertices} double\n",
             _format_rows(mesh.vertices, "%.12e", " 0.0\n"),
             f"POLYGONS {mesh.n_cells} {len(polygons)}\n",
             _format_loops(polygons, offsets + np.arange(len(offsets)))]
    if cell_data:
        parts.append(f"CELL_DATA {mesh.n_cells}\n")
        for name, arr in cell_data.items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape not in ((mesh.n_cells,), (mesh.n_cells, 2)):
                raise ValueError(f"cell data {name!r} of shape {arr.shape}: "
                                 f"need ({mesh.n_cells},) or "
                                 f"({mesh.n_cells}, 2)")
            if arr.ndim == 2:
                parts += [f"VECTORS {name} double\n",
                          _format_rows(arr, "%.12e", " 0.0\n")]
            else:
                parts += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                          _format_rows(arr.reshape(-1, 1), "%.12e")]
    with open(path, "w") as fh:
        fh.write("".join(parts))
