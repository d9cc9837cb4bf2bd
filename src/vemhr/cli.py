"""Command-line driver.

Subcommands: ``mesh gen``, ``solve``, ``convergence`` and ``cook``.  Every
flag can also be given in a flat ``key = value`` config file passed with
``--config``, keyed by the flag's destination (the :class:`RunConfig` field
name, so the ``.cfg`` sidecar of a run replays it; a key given twice is a
validation error); explicit flags win over config values.  Exit codes: 0 on
success, 2 for validation errors, 3 for solver failures.
"""

import argparse
import dataclasses
import sys

from .assembly import SolverError, assemble, save_solution, solve
from .element import STABILIZATIONS
from .generators import MESH_KINDS, _check_partition, generate_mesh
from .mesh import MeshError, cook_domain, load_mesh, save_mesh
from .runner import PROBLEM_IDS, RunConfig, run_convergence, run_cook

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _read_config(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (t.strip() for t in line.split("=", 1))
            key = key.replace("-", "_")
            if key in values:
                raise ValueError(f"key {key} given twice in config file "
                                 f"{path}")
            values[key] = val
    return values


def _comma_list(cast):
    """The parser of a comma-separated list flag: the tuple of its items,
    each read with ``cast``."""
    def parse(text):
        return tuple(cast(t) for t in text.split(",") if t)
    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _domain(name):
    if name in (None, "unit-square"):
        return None
    if name == "cook":
        return cook_domain()
    raise ValueError(f"unknown domain {name!r} (use unit-square or cook)")


def _build_parser():
    """The parser and the subparser of each command."""
    parser = argparse.ArgumentParser(
        prog="vemhr",
        description="Mixed stress/displacement virtual element benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    mesh_p = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = mesh_p.add_subparsers(dest="subcommand", required=True)
    gen = mesh_sub.add_parser("gen", help="generate a benchmark mesh")
    gen.add_argument("--config")
    gen.add_argument("--kind", choices=MESH_KINDS)
    gen.add_argument("--n", type=int)
    gen.add_argument("--domain", default="unit-square",
                     choices=("unit-square", "cook"))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=False)

    sol = sub.add_parser("solve", help="solve a benchmark problem on a mesh")
    sol.add_argument("--config")
    sol.add_argument("--problem", choices=PROBLEM_IDS)
    sol.add_argument("--nu", type=float)  # cook only; None means 1/3
    sol.add_argument("--mesh")
    sol.add_argument("--stab", dest="stabilization", choices=STABILIZATIONS,
                     default="stab1")
    sol.add_argument("--out")

    conv = sub.add_parser("convergence", help="manufactured-solution study")
    cook = sub.add_parser("cook", help="tapered-cantilever benchmark")
    for study in (conv, cook):  # no defaults here: RunConfig's apply
        study.add_argument("--config")
        study.add_argument("--levels", type=_comma_list(int))
        study.add_argument("--stab", dest="stabilization",
                           choices=STABILIZATIONS)
        study.add_argument("--seed", type=int)
        study.add_argument("--csv", dest="csv_path")
    conv.add_argument("--problem", choices=("test-a", "test-b", "test-inc"))
    conv.add_argument("--kind", choices=MESH_KINDS)
    cook.add_argument("--kinds", dest="cook_kinds", type=_comma_list(str))
    cook.add_argument("--nus", dest="cook_nus", type=_comma_list(float))
    cook.add_argument("--vtk", dest="vtk_path")
    return parser, {"mesh": gen, "solve": sol, "convergence": conv,
                    "cook": cook}


def _merge_config(parser, subparser, args, argv):
    """Parse again with the config file's values as the command's defaults,
    so that explicit flags still win and each value goes through its flag's
    type.  ``None`` reads as None.  Keys that are :class:`RunConfig` fields
    the command does not take are skipped (a sidecar lists every field);
    any other unknown key is a ValueError."""
    if not args.config:
        return args
    values = _read_config(args.config)
    dests = set(vars(args)) - {"command", "subcommand", "config"}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(values) - dests - fields)
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)} in config "
                         f"file {args.config}")
    subparser.set_defaults(**{key: None if val == "None" else val
                              for key, val in values.items() if key in dests})
    return parser.parse_args(argv)


def _cmd_mesh_gen(args):
    if args.kind is None or args.n is None or args.out is None:
        raise ValueError("mesh gen requires --kind, --n and --out")
    mesh = generate_mesh(args.kind, args.n, domain=_domain(args.domain),
                         seed=args.seed)
    save_mesh(args.out, mesh)
    print(f"wrote {args.out}: {mesh}")
    return EXIT_OK


def _cmd_solve(args):
    from .runner import make_problem

    if args.problem is None or args.mesh is None or args.out is None:
        raise ValueError("solve requires --problem, --mesh and --out")
    problem = make_problem(args.problem, args.nu)
    mesh = load_mesh(args.mesh)
    _check_partition(mesh, problem.domain)
    system = assemble(mesh, problem, stabilization=args.stabilization)
    solution = solve(system)
    save_solution(args.out, solution)
    report = solution.report
    print(f"wrote {args.out}: residual {report.residual:.3e}, "
          f"{report.n_dof} DOFs, peak RSS {report.peak_rss_mb:.1f} MiB, "
          f"ordering {report.ordering or 'none'}")
    return EXIT_OK


def _run_config(args, **settings):
    """The RunConfig of ``settings`` and the study flags that were given;
    every other field keeps its default."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return RunConfig(**settings, **{
        key: val for key, val in vars(args).items()
        if key in fields and val is not None})


def _cmd_convergence(args):
    if args.problem is None or args.kind is None or args.csv_path is None:
        raise ValueError("convergence requires --problem, --kind and --csv")
    rows, table, failures = run_convergence(_run_config(args))
    for name, slope in table.slopes.items():
        print(f"{name}: rate {slope:.3f}")
    for level, reason in failures:
        print(f"level {level} failed: {reason}", file=sys.stderr)
    print(f"wrote {args.csv_path}")
    return EXIT_OK


def _cmd_cook(args):
    if args.csv_path is None:
        raise ValueError("cook requires --csv")
    rows = run_cook(_run_config(args, problem="cook"))
    finest = {}
    for r in rows:
        finest[(r["kind"], r["nu"])] = r["v_A"]
    for (kind, nu), va in finest.items():
        print(f"{kind} nu={nu:g}: v_A = {va:.6f}")
    print(f"wrote {args.csv_path}")
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(parser, subparsers[args.command], args, argv)
        if args.command == "mesh":
            return _cmd_mesh_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        if args.command == "cook":
            return _cmd_cook(args)
        raise ValueError(f"unknown command {args.command!r}")
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, MeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
