"""The benchmark tracer wraps vemhr functions by module attribute name
(``perfbench/tracing.py``, ``TARGETS``); a renamed or deleted name there
makes every traced benchmark case fail, so every target must resolve.  The
public names of the package and of each module's ``__all__`` must exist too,
and so must the parts of an assembled system that the traced runs read.

The benchmark also counts calls through the runner's names: its solve
capture wraps ``vemhr.runner.solve`` and expects one solution per study row,
and its tracer charges ``vemhr.runner.generate_mesh`` to the generators
layer.  Both break silently if a study solves or builds meshes another way.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps

import vemhr
from vemhr import runner
from vemhr.assembly import assemble
from vemhr.generators import generate_mesh
from vemhr.mesh import cook_domain
from vemhr.problems import problem_cook, problem_test_a, problem_test_b, \
    problem_test_incompressible

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()


@pytest.mark.parametrize("path,attr", [
    pytest.param(path, attr, id=f"{path}.{attr}")
    for path, attr, _, _ in TRACING.TARGETS])
def test_trace_target_resolves(path, attr):
    assert callable(getattr(TRACING._resolve(path), attr))


def test_tracer_replacements_build():
    assert len(TRACING.Tracer().replacements()) == len(TRACING.TARGETS)


def test_package_exports_exist():
    tree = ast.parse(Path(vemhr.__file__).read_text())
    names = [alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(vemhr, n)] == []


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(vemhr.__path__)))
def test_module_all_exists(name):
    module = importlib.import_module(f"vemhr.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_system_fields_read_by_tracer():
    # perfbench/tracing.py counts matrix.nnz, dofmap.size and
    # constrained_dofs; perfbench/child.py factors eliminated()[0]
    mesh = generate_mesh("quad_structured", 2, domain=cook_domain())
    system = assemble(mesh, problem_cook(1.0 / 3.0))
    size = system.dofmap.size
    assert size == 3 * (mesh.n_edges + mesh.n_cells)
    assert system.matrix.nnz > 0
    assert len(system.constrained_dofs) > 0
    matrix, rhs = system.eliminated()
    assert sps.issparse(matrix) and matrix.shape == (size, size)
    assert isinstance(rhs, np.ndarray) and rhs.shape == (size,)


def _study_rows(problems, kind, **settings):
    results = runner.convergence_study(problems, kind, (2, 3), **settings)
    assert all(failures == [] for _, failures in results)
    return [row for rows, _ in results for row in rows]


def _one_problem_study():
    return _study_rows([problem_test_b()], "poly_voronoi_random")


def _shared_study():
    return _study_rows(
        [problem_test_a(), problem_test_b(), problem_test_incompressible()],
        "tri_unstructured", seed=1)


def _cook_study():
    return runner.run_cook(runner.RunConfig(
        problem="cook", cook_kinds=("quad", "cvor"), levels=(2, 3),
        cook_nus=(1.0 / 3.0, 0.49)))


@pytest.mark.parametrize("study,n_rows", [
    pytest.param(_one_problem_study, 2, id="one-problem"),
    pytest.param(_shared_study, 6, id="shared"),
    pytest.param(_cook_study, 8, id="cook")])
def test_runner_names_see_every_row(monkeypatch, study, n_rows):
    # one runner.solve per row, on a mesh from runner.generate_mesh
    generated, solutions = [], []
    build, solve = runner.generate_mesh, runner.solve

    def generating(*args, **kwargs):
        meshes = build(*args, **kwargs)
        generated.extend(meshes if isinstance(meshes, list) else [meshes])
        return meshes

    monkeypatch.setattr(runner, "generate_mesh", generating)
    monkeypatch.setattr(runner, "solve", lambda *a, **kw:
                        solutions.append(solve(*a, **kw)) or solutions[-1])
    rows = study()
    assert len(rows) == len(solutions) == n_rows
    assert all(any(s.mesh is m for m in generated) for s in solutions)
