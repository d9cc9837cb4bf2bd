"""Spans around the calls into each vemhr layer, installed from outside.

A span is recorded for every call through one of the ``TARGETS`` below:
the public function on the name the *calling* module resolves (for
example ``vemhr.runner.generate_mesh`` rather than
``vemhr.generators.generate_mesh``, because the runner imported it by
name).  Spans are kept in memory with their parent ids; self time is a
span's duration minus the durations of its direct children.  Nothing under
``src/`` is modified: wrappers are attributes set on the imported modules
for the duration of one case and restored afterwards.
"""

import importlib
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("generators", "mesh", "quadrature", "element", "assembly",
          "postproc", "problems", "runner", "cli")


def _count_mesh(tracer, mesh):
    tracer.counts["mesh.cells"] += mesh.n_cells
    tracer.counts["mesh.edges"] += mesh.n_edges


def _count_quadrature(tracer, result):
    tracer.counts["quadrature.points"] += len(result[1])


def _count_lloyd(tracer, result):
    tracer.counts["generators.lloyd_iterations"] += \
        result[1]["lloyd_iterations"]


def _count_system(tracer, system):
    tracer.counts["assembly.n_dof"] += system.dofmap.size
    tracer.counts["assembly.matrix_nnz"] += system.matrix.nnz
    tracer.counts["assembly.n_constrained"] += len(system.constrained_dofs)
    tracer.systems.append(system)


# (owner as "module" or "module:Class", attribute, layer, counter applied
# to the return value)
TARGETS = (
    ("vemhr.runner", "run_convergence", "runner", None),
    ("vemhr.runner", "run_cook", "runner", None),
    ("vemhr.cli", "main", "cli", None),
    ("vemhr.runner", "generate_mesh", "generators", None),
    ("vemhr.generators", "lloyd", "generators", _count_lloyd),
    ("vemhr.generators", "voronoi_cells", "generators", None),
    ("vemhr.generators", "check_assumptions", "mesh", None),
    ("vemhr.generators", "build_topology", "mesh", _count_mesh),
    ("vemhr.mesh", "build_topology", "mesh", _count_mesh),
    ("vemhr.cli", "load_mesh", "mesh", None),
    ("vemhr.quadrature", "mesh_polygon_quadrature", "quadrature",
     _count_quadrature),
    ("vemhr.element", "mesh_polygon_quadrature", "quadrature",
     _count_quadrature),
    ("vemhr.postproc", "mesh_polygon_quadrature", "quadrature",
     _count_quadrature),
    ("vemhr.assembly", "cell_groups", "element", None),
    ("vemhr.element", "cell_groups", "element", None),
    ("vemhr.element:CellGroup", "a_matrices", "element", None),
    ("vemhr.element", "body_load_vector", "element", None),
    ("vemhr.postproc", "divergence_field", "element", None),
    ("vemhr.postproc", "projection_field", "element", None),
    ("vemhr.runner", "projection_field", "element", None),
    ("vemhr.runner", "assemble", "assembly", _count_system),
    ("vemhr.cli", "assemble", "assembly", _count_system),
    ("vemhr.runner", "solve", "assembly", None),
    ("vemhr.cli", "solve", "assembly", None),
    ("vemhr.cli", "save_solution", "assembly", None),
    ("vemhr.postproc", "error_sigma", "postproc", None),
    ("vemhr.postproc", "error_div", "postproc", None),
    ("vemhr.postproc", "error_u", "postproc", None),
    ("vemhr.postproc", "equilibrium_residuals", "postproc", None),
    ("vemhr.postproc", "convergence_rates", "postproc", None),
    ("vemhr.postproc", "probe_displacement", "postproc", None),
    ("vemhr.postproc", "write_convergence_csv", "postproc", None),
    ("vemhr.runner", "von_mises_field", "postproc", None),
    ("vemhr.runner", "write_vtk_polydata", "postproc", None),
    ("vemhr.runner", "verify_exact_bundle", "problems", None),
)

# Per-layer metrics that sum the full durations of the named spans.
DURATIONS = {
    "generators.voronoi_cells_s": ("generators.voronoi_cells",),
    "generators.lloyd_s": ("generators.lloyd",),
    "mesh.check_assumptions_s": ("mesh.check_assumptions",),
    "mesh.build_topology_s": ("mesh.build_topology",),
    "mesh.load_mesh_s": ("mesh.load_mesh",),
    "quadrature.mesh_polygon_quadrature_s": (
        "quadrature.mesh_polygon_quadrature",),
    "element.cell_groups_s": ("element.cell_groups",),
    "element.a_matrices_s": ("element.a_matrices",),
    "element.body_load_vector_s": ("element.body_load_vector",),
    "assembly.assemble_s": ("assembly.assemble",),
    "assembly.solve_s": ("assembly.solve",),
    "assembly.save_solution_s": ("assembly.save_solution",),
    "postproc.error_norms_s": ("postproc.error_sigma", "postproc.error_div",
                               "postproc.error_u"),
    "postproc.equilibrium_residuals_s": ("postproc.equilibrium_residuals",),
    "postproc.export_s": ("postproc.write_vtk_polydata",
                          "postproc.write_convergence_csv"),
    "problems.verify_exact_bundle_s": ("problems.verify_exact_bundle",),
}

# Per-layer metrics that count spans.
CALLS = {
    "generators.voronoi_cells_calls": "generators.voronoi_cells",
    "quadrature.calls": "quadrature.mesh_polygon_quadrature",
}

# Per-layer self times; layers whose self time equals one of the DURATIONS
# (quadrature, problems) are left out.
SELF_TIMES = tuple(f"{layer}.self_s" for layer in LAYERS
                   if layer not in ("quadrature", "problems"))

COUNTERS = ("mesh.cells", "mesh.edges", "quadrature.points",
            "generators.lloyd_iterations", "assembly.n_dof",
            "assembly.matrix_nnz", "assembly.n_constrained")


def metric_unit(name):
    if name == "peak_rss_mb":
        return "MiB"
    if name == "trace.coverage":
        return "fraction"
    return "s" if name.endswith("_s") else "count"


def _resolve(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans = []   # [id, parent id, layer, name, start, end]
        self.counts = {name: 0 for name in COUNTERS}
        self.systems = []
        self._stack = []

    def _wrap(self, layer, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, layer, name,
                      perf_counter(), 0.0]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, result)
            return result

        return traced

    def replacements(self):
        out = []
        for path, attr, layer, counter in TARGETS:
            owner = _resolve(path)
            fn = getattr(owner, attr)
            out.append((owner, attr,
                        self._wrap(layer, f"{layer}.{attr}", fn, counter)))
        return out

    def self_times(self):
        """Self time of every span, indexed like ``self.spans``."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[5] - s[4]
        return own

    def layer_metrics(self, wall):
        """Per-layer metrics of this pass; ``wall`` is the pass wall time."""
        own = self.self_times()
        out = {name: 0.0 for name in (*DURATIONS, *SELF_TIMES)}
        by_layer = {layer: 0.0 for layer in LAYERS}
        for span, s in zip(self.spans, own):
            by_layer[span[2]] += s
        for layer in LAYERS:
            if f"{layer}.self_s" in out:
                out[f"{layer}.self_s"] = by_layer[layer]
        for metric, names in DURATIONS.items():
            out[metric] = sum(s[5] - s[4] for s in self.spans
                              if s[3] in names)
        for metric, name in CALLS.items():
            out[metric] = sum(1 for s in self.spans if s[3] == name)
        out.update(self.counts)
        out["trace.coverage"] = sum(by_layer.values()) / wall
        return out
