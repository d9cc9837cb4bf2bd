"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The convergence criteria share one session-scoped sweep of every problem and
mesh family at levels {8, 16, 32, 64}, one study per family with all four
problems on each mesh; the cantilever criterion runs its own deeper quad
sequence plus the overkill reference.  Slow end: the whole module takes
36-50 s single-threaded on a 2-vCPU x86-64 VM, most of it in the sweep.

Known red: the rate gates (criteria 3, 4, 5) pin the window [0.8, 1.2] at
the levels above, and on symmetric meshes (and for the displacement error of
the oscillatory incompressible solution) the fitted slopes measure 1.2-1.4
there -- the solved error is still descending to the edge-interpolation
floor, i.e. converging faster than required.  The assertions are left
faithful to the stated window rather than widened; deep-refinement fits
(levels up to 128) land inside it.  Failure messages carry the full slope
tables.
"""

import dataclasses

import numpy as np
import pytest

from vemhr.assembly import Solution, assemble, solve
from vemhr.element import (divergence_field, interpolate_global,
                           projection_field)
from vemhr.generators import MESH_KINDS, UNIT_SQUARE, generate_mesh
from vemhr.material import from_lame
from vemhr.mesh import build_topology, cook_domain, perp
from vemhr.postproc import (convergence_rates, error_sigma,
                            least_squares_slope, probe_displacement)
from vemhr.problems import (COOK_PROBE_POINT, ProblemSpec, problem_cook,
                            problem_test_a, problem_test_b,
                            problem_test_incompressible)
from vemhr.quadrature import mesh_polygon_quadrature
from vemhr.runner import (RunConfig, convergence_study, mesh_for_level,
                          run_cook)
from vemhr.assembly import DisplacementBC

RATE_LO, RATE_HI = 0.8, 1.2
LEVELS = (8, 16, 32, 64)
SQUARE_FAMILIES = ("tri_structured", "quad_structured", "hex_structured",
                   "tri_unstructured", "quad_unstructured",
                   "poly_voronoi_random")
COOK_LEVELS = (16, 32, 64, 96)


def report(criterion, ok, detail=""):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="session")
def base_config():
    return RunConfig()


@pytest.fixture(scope="session")
def sweep(base_config):
    """(problem id, family) -> convergence rows for the shared criteria."""
    problems = {
        "test-a": problem_test_a(),
        "test-b": problem_test_b(),
        "test-inc": problem_test_incompressible(),
        "test-inc-lam1": dataclasses.replace(problem_test_incompressible(),
                                             material=from_lame(1.0, 0.5)),
    }
    data = {}
    for kind in SQUARE_FAMILIES:
        # one study per family: each mesh is built once for all problems
        results = convergence_study(problems.values(), kind, LEVELS,
                                    base_config)
        for pid, (rows, failures) in zip(problems, results):
            assert not failures, f"{pid}/{kind} failed: {failures}"
            data[pid, kind] = rows
    return data


@pytest.fixture(scope="session")
def cook_runs():
    """Quad tip-displacement curves for both Poisson ratios + overkill."""
    cfg = RunConfig(problem="cook", cook_kinds=("quad",), levels=COOK_LEVELS)
    rows = run_cook(cfg)
    # overkill tip displacement on the 128 x 128 structured quad mesh
    mesh = generate_mesh("quad_structured", 128, domain=cook_domain())
    refs = {}
    for nu in cfg.cook_nus:
        solution = solve(assemble(mesh, problem_cook(nu)))
        refs[nu] = float(probe_displacement(mesh, solution,
                                            COOK_PROBE_POINT)[1])
    return rows, refs


def constant_stress_table(mesh, sigma):
    """Edge DOFs of a constant stress: its edge-moment interpolant."""
    sigma = np.asarray(sigma, dtype=float)
    return interpolate_global(
        mesh, lambda p: np.broadcast_to(sigma, p.shape[:-1] + (3,)))


def rm_projection(mesh, u):
    pts, wts, owner = mesh_polygon_quadrature(mesh)
    uv = u(pts)
    out = np.zeros((mesh.n_cells, 3))
    np.add.at(out[:, 0], owner, wts * uv[:, 0])
    np.add.at(out[:, 1], owner, wts * uv[:, 1])
    np.add.at(out[:, 2], owner,
              wts * np.einsum("qa,qa->q", uv, perp(pts - mesh.centroids[owner])))
    out[:, :2] /= mesh.areas[:, None]
    out[:, 2] /= mesh.second_moments
    return out


def test_criterion_1_patch_all_families():
    """Constant-stress patch test on every mesh kind at n = 4."""
    mat = from_lame(1.0, 1.0)
    grad = np.array([[1.0, 0.0], [0.0, 0.0]])  # u = (x, 0)
    u = lambda p: p @ grad.T
    sigma0 = np.array([3.0, 1.0, 0.0])  # of eps = (1, 0, 0) at lam = mu = 1
    bc = DisplacementBC(g=u)
    problem = ProblemSpec(name="patch", domain=UNIT_SQUARE, material=mat,
                          body_force=None, boundary=lambda m, e: bc,
                          exact=None)
    worst = {}
    for kind in MESH_KINDS:
        n = 16 if kind.startswith("poly_voronoi") else 4
        mesh = generate_mesh(kind, n, seed=0)
        solution = solve(assemble(mesh, problem))
        dof_err = (np.abs(solution.edge_dofs
                          - constant_stress_table(mesh, sigma0)).max()
                   / np.abs(sigma0).max())
        proj = rm_projection(mesh, u)
        delta = solution.cell_motions - proj
        u_err = (np.sqrt(mesh.areas * (delta[:, :2] ** 2).sum(1)
                         + mesh.second_moments * delta[:, 2] ** 2).max()
                 / np.sqrt(mesh.areas * (proj[:, :2] ** 2).sum(1)).max())
        worst[kind] = max(dof_err, u_err)
    ok = all(v < 1e-9 for v in worst.values())
    report(1, ok, "worst relative error per kind: "
           + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))
    assert ok


def test_criterion_2_discrete_equilibrium(sweep, cook_runs):
    """div sigma_h + Pi_RM f vanishes on every solved benchmark."""
    bad = []
    for (pid, kind), rows in sweep.items():
        for r in rows:
            if pid == "test-a":
                if r["equilibrium_max"] > 1e-10:
                    bad.append((pid, kind, r["level"], r["equilibrium_max"]))
            elif r["equilibrium_max"] > 1e-8 * r["f_l2"]:
                bad.append((pid, kind, r["level"], r["equilibrium_max"]))
    # zero-load cantilever: absolute bound scaled by the applied traction
    cfg = RunConfig(problem="cook", cook_kinds=("quad",), levels=(16,))
    problem = problem_cook(1.0 / 3.0)
    mesh = mesh_for_level("quad_structured", 16, domain=problem.domain)
    solution = solve(assemble(mesh, problem))
    from vemhr.postproc import equilibrium_residuals
    res = equilibrium_residuals(mesh, solution).max()
    if res > 1e-9:
        bad.append(("cook", "quad", 16, res))
    report(2, not bad, f"violations: {bad if bad else 'none'}")
    assert not bad


def _window_check(sweep, pid, keys):
    slopes = {}
    out = []
    for kind in SQUARE_FAMILIES:
        rows = sweep[pid, kind]
        table = convergence_rates([r["h_bar"] for r in rows],
                                  {k: [r[k] for r in rows] for k in keys})
        for k in keys:
            slopes[kind, k] = table.slopes[k]
            if not RATE_LO <= table.slopes[k] <= RATE_HI:
                out.append((kind, k, round(table.slopes[k], 3)))
    return slopes, out


def test_criterion_3_test_a_convergence(sweep):
    """First-order rates for the zero-load polynomial problem."""
    slopes, out = _window_check(sweep, "test-a", ("E_sigma", "E_u"))
    detail = "; ".join(f"{kind}:{k}={v:.3f}" for (kind, k), v in slopes.items())
    report(3, not out, f"out of [{RATE_LO},{RATE_HI}]: {out or 'none'} | {detail}")
    assert not out, (f"rates outside [{RATE_LO},{RATE_HI}]: {out} "
                     "(all overshoots: pre-asymptotic superconvergence toward "
                     "the interpolation floor on symmetric meshes)")


def test_criterion_4_test_b_convergence(sweep):
    """First-order rates, all three norms, trigonometric problem."""
    slopes, out = _window_check(sweep, "test-b",
                                ("E_sigma", "E_sigma_div", "E_u"))
    detail = "; ".join(f"{kind}:{k}={v:.3f}" for (kind, k), v in slopes.items())
    report(4, not out, f"out of [{RATE_LO},{RATE_HI}]: {out or 'none'} | {detail}")
    assert not out


def test_criterion_5_incompressible_robustness(sweep):
    """Rates as criterion 4 at lambda = 1e5, errors within 10x of lambda = 1."""
    slopes, out = _window_check(sweep, "test-inc",
                                ("E_sigma", "E_sigma_div", "E_u"))
    ratio_bad = []
    for kind in SQUARE_FAMILIES:
        stiff = sweep["test-inc", kind]
        soft = sweep["test-inc-lam1", kind]
        for rs, rl in zip(stiff, soft):
            for key in ("E_sigma", "E_sigma_div", "E_u"):
                ratio = rs[key] / rl[key]
                if not (0.1 <= ratio <= 10.0):
                    ratio_bad.append((kind, key, rs["level"], round(ratio, 2)))
    ok = not out and not ratio_bad
    detail = (f"out-of-window: {out or 'none'}; locking ratios out of "
              f"[0.1,10]: {ratio_bad or 'none'}")
    report(5, ok, detail)
    assert not ratio_bad, f"locking blow-up: {ratio_bad}"
    assert not out, (f"rates outside [{RATE_LO},{RATE_HI}]: {out} "
                     "(overshoots only; see criterion 3)")


def test_criterion_6_cook_membrane(cook_runs):
    """Tip displacement converges to the overkill value without locking."""
    rows, refs = cook_runs
    curves = {}
    for r in rows:
        curves.setdefault(r["nu"], []).append(r["v_A"])
    problems = []
    details = []
    for nu, vals in curves.items():
        ref = refs[nu]
        tol = 0.01 if nu < 0.4 else 0.05
        final_dev = abs(vals[-1] - ref) / abs(ref)
        plateau = abs(vals[-1] - vals[-2]) / abs(vals[-1])
        details.append(f"nu={nu:g}: v_A={vals[-1]:.4f} ref={ref:.4f} "
                       f"dev={final_dev:.2%} plateau-step={plateau:.2%}")
        if final_dev > tol:
            problems.append(f"nu={nu:g} deviation {final_dev:.2%} > {tol:.0%}")
        if plateau > 0.01:
            problems.append(f"nu={nu:g} last step {plateau:.2%} > 1%")
        if not all(b > a for a, b in zip(vals, vals[1:])):
            problems.append(f"nu={nu:g} curve not monotone: {vals}")
    report(6, not problems, "; ".join(details + problems))
    assert not problems


def test_criterion_7_interpolation_operator():
    """Edge-moment interpolation: first-order traction accuracy and exact
    commuting divergence moments."""
    problem = problem_test_a()
    slope_bad = []
    slopes = {}
    for kind in ("quad_structured", "poly_voronoi_random"):
        hs, es = [], []
        for n in LEVELS:
            mesh = mesh_for_level(kind, n, seed=0)
            table = interpolate_global(mesh, problem.exact.stress)
            hs.append(mesh.mean_edge_length)
            interpolant = Solution(mesh=mesh, edge_dofs=table,
                                   cell_motions=None, report=None)
            es.append(error_sigma(mesh, interpolant, problem.exact.stress,
                                  problem.material))
        slopes[kind] = least_squares_slope(hs[-3:], es[-3:])
        if not RATE_LO <= slopes[kind] <= RATE_HI:
            slope_bad.append((kind, slopes[kind]))

    # commuting moments: div sigma = 0 for this field, so the interpolant's
    # divergence moments must vanish identically on every cell
    mesh = mesh_for_level("poly_voronoi_random", 16, seed=0)
    table = interpolate_global(mesh, problem.exact.stress)
    scale = np.abs(table).max()
    dv = divergence_field(mesh, table)
    moments = np.column_stack([mesh.areas[:, None] * dv[:, :2],
                               mesh.second_moments * dv[:, 2]])
    worst = np.abs(moments).max() / scale
    ok = not slope_bad and worst < 1e-9
    report(7, ok, f"slopes: {slopes}; worst commuting moment {worst:.1e}")
    assert worst < 1e-9
    assert not slope_bad


def random_star_polygon(rng):
    k = int(rng.integers(3, 10))
    ang = 2 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
    rad = rng.uniform(0.3, 2.0) * (1.0 + rng.uniform(-0.25, 0.25, k))
    center = rng.uniform(-5, 5, 2)
    verts = center + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    return build_topology(verts, [list(range(k))])


def test_criterion_8_unisolvence_and_compatibility():
    """1000 random polygons: DOF-to-moment map invertible, divergence
    reconstruction compatible with the boundary integrals, constants
    reproduced exactly."""
    rng = np.random.default_rng(20260808)
    x, w = np.polynomial.legendre.leggauss(4)
    s, w = 0.5 * x, 0.5 * w
    worst_compat = 0.0
    worst_const = 0.0
    worst_solve = 0.0
    for trial in range(1000):
        mesh = random_star_polygon(rng)
        ne = mesh.n_edges
        assert np.array_equal(mesh.cell_edge_ids, np.arange(ne))
        # moment matrix: DOFs -> (mean, rotational first moment) per edge
        M = np.zeros((3 * ne, 3 * ne))
        xc = mesh.centroids[0]
        for k, e in enumerate(mesh.cell_edge_ids):
            L = mesh.edge_lengths[e]
            n = mesh.edge_normals[e]
            pe, qe = mesh.vertices[mesh.edge_nodes[e]]
            pts = mesh.edge_midpoints[e] + s[:, None] * (qe - pe)
            arm = perp(pts - xc)
            M[3 * k, 3 * k] = L
            M[3 * k + 1, 3 * k + 1] = L
            M[3 * k + 2, 3 * k:3 * k + 2] = L * (w @ arm)
            M[3 * k + 2, 3 * k + 2] = L * (w @ (s * np.einsum("qa,a->q", arm, n)))
        rhs = rng.standard_normal(3 * ne)
        sol = np.linalg.solve(M, rhs)
        worst_solve = max(worst_solve,
                          np.abs(M @ sol - rhs).max() / np.abs(rhs).max())

        # compatibility of the divergence reconstruction; on one cell the
        # edge ids follow the loop, so the cell-local DOFs are the table rows
        dofs = rng.standard_normal(3 * ne)
        dv = divergence_field(mesh, dofs.reshape(ne, 3))[0]
        lhs = np.array([mesh.areas[0] * dv[0], mesh.areas[0] * dv[1],
                        mesh.second_moments[0] * dv[2]])
        ref = np.zeros(3)
        for k, (e, sign) in enumerate(zip(mesh.cell_edge_ids,
                                          mesh.cell_edge_signs)):
            L = mesh.edge_lengths[e]
            n = mesh.edge_normals[e]
            pe, qe = mesh.vertices[mesh.edge_nodes[e]]
            pts = mesh.edge_midpoints[e] + s[:, None] * (qe - pe)
            tra = sign * (dofs[3 * k:3 * k + 2] + dofs[3 * k + 2] * s[:, None] * n)
            # rigid-motion basis (1, 0), (0, 1), perp(x - x_C)
            ref[:2] += L * (w @ tra)
            ref[2] += L * (w @ np.einsum("qa,qa->q", tra, perp(pts - xc)))
        scale = max(np.abs(ref).max(), np.abs(lhs).max(), 1e-30)
        worst_compat = max(worst_compat, np.abs(lhs - ref).max() / scale)

        # constant reproduction
        sigma = rng.standard_normal(3)
        table = constant_stress_table(mesh, sigma)
        dev = max(np.abs(divergence_field(mesh, table)[0]).max()
                  / np.abs(sigma).max(),
                  np.abs(projection_field(mesh, table)[0] - sigma).max()
                  / np.abs(sigma).max())
        worst_const = max(worst_const, dev)
    ok = max(worst_compat, worst_const, worst_solve) < 1e-12
    report(8, ok, f"worst: compatibility {worst_compat:.1e}, constants "
                  f"{worst_const:.1e}, unisolvence solve {worst_solve:.1e}")
    assert ok


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV outputs."""
    outputs = []
    for tag in ("one", "two"):
        csv = tmp_path / f"conv_{tag}.csv"
        from vemhr.runner import run_convergence
        run_convergence(RunConfig(problem="test-b", kind="poly_voronoi_cvt",
                                  levels=(2, 4), seed=11, csv_path=str(csv)))
        outputs.append(csv.read_bytes())
    cook_outputs = []
    for tag in ("one", "two"):
        csv = tmp_path / f"cook_{tag}.csv"
        run_cook(RunConfig(problem="cook", cook_kinds=("rvor",),
                           levels=(2, 3), cook_nus=(1.0 / 3.0,), seed=7,
                           csv_path=str(csv)))
        cook_outputs.append(csv.read_bytes())
    ok = outputs[0] == outputs[1] and cook_outputs[0] == cook_outputs[1]
    report(9, ok, f"convergence CSV bytes {len(outputs[0])}, "
                  f"cook CSV bytes {len(cook_outputs[0])}")
    assert ok
