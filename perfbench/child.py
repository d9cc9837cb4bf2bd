"""One workload in one process: set up, run passes for a fixed time, verify
every case, and write the results as JSON.

Started by ``run.py`` with the thread caps and ``PYTHONPATH`` already in its
environment; see that file for the metrics.  The process pins itself to one
CPU, so that the speed kernel of ``speed.SpeedClock`` runs where the timed
work runs.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORT_PROBE = "import vemhr, vemhr.cli, vemhr.runner"
HERE = os.path.dirname(os.path.abspath(__file__))


def _setup_once(workload_cls, workdir, seed):
    """Fresh-interpreter import of vemhr plus the workload's own set-up."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                   stdout=subprocess.DEVNULL)
    t1 = time.perf_counter()
    workload = workload_cls(workdir, seed)
    workload.setup()
    return time.perf_counter() - t0, t1 - t0, workload


def _lu_nnz(systems):
    import scipy.sparse.linalg as spla

    total = 0
    for system in systems:
        lu = spla.splu(system.eliminated()[0].tocsc(), permc_spec="COLAMD")
        total += lu.L.nnz + lu.U.nnz
    return total


def capture_solves(solutions):
    """Keep what ``vemhr.runner.solve`` returns, for checks after the case."""
    from vemhr import runner

    solve = runner.solve

    def capturing(*args, **kwargs):
        solution = solve(*args, **kwargs)
        solutions.append(solution)
        return solution

    return [(runner, "solve", capturing)]


def _run_case(workload, case, tracer):
    """Wall seconds of one case and the list of its failed checks."""
    from tracing import patched

    solutions = []
    capture = capture_solves(solutions) if workload.captures_solves else []
    t0 = time.perf_counter()
    try:
        with patched(capture):
            # Resolved after the capture hook is in place, so spans wrap it.
            with patched(tracer.replacements() if tracer else []):
                t0 = time.perf_counter()
                result = workload.run(case)
                elapsed = time.perf_counter() - t0
    except Exception:
        return time.perf_counter() - t0, [traceback.format_exc()]
    try:
        return elapsed, workload.verify(case, result, solutions)
    except Exception:
        return elapsed, [traceback.format_exc()]


def _trace_schedule():
    """Untraced and traced passes in A B B A order."""
    while True:
        yield from (False, True, True, False)


def run(args):
    import vemhr
    from speed import SpeedClock
    from workloads import WORKLOADS
    from tracing import Tracer

    src = os.path.join(os.path.dirname(HERE), "src")
    if os.path.dirname(os.path.dirname(vemhr.__file__)) != src:
        sys.exit(f"error: imported vemhr from {vemhr.__file__}, not {src}")
    workload_cls = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(usable)})
    clock = SpeedClock()
    setups = []          # (wall s, import wall s, scaled s)
    for _ in range(SETUP_REPEATS):
        wall, import_s, workload = _setup_once(workload_cls, args.workdir,
                                               args.seed)
        setups.append((wall, import_s, clock.scale(wall)))
    cases = workload.cases()

    schedule = _trace_schedule() if args.trace else itertools.repeat(False)
    passes = []          # {"traced", "case_s", "case_scaled_s", "layers"}
    pass_s = []          # wall time of each pass, speed kernels included
    failures = []
    attempted = 0
    spans_out = []
    start = time.perf_counter()
    # Stop before a pass that would end past --seconds (after MIN_PASSES).
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + statistics.median(pass_s)
           <= args.seconds):
        pass_start = time.perf_counter()
        traced = next(schedule)
        tracer = Tracer() if traced else None
        case_s = []
        case_scaled_s = []
        for case in cases:
            attempted += 1
            elapsed, errors = _run_case(workload, case, tracer)
            case_s.append(elapsed)
            case_scaled_s.append(clock.scale(elapsed))
            if errors:
                failures.append({"pass": len(passes), "case": list(case),
                                 "errors": errors})
                for err in errors:
                    print(f"{args.workload} {case}: {err}", file=sys.stderr)
        record = {"traced": traced, "case_s": case_s,
                  "case_scaled_s": case_scaled_s}
        if traced:
            wall = sum(case_s)
            record["layers"] = tracer.layer_metrics(wall)
            if not any(p["traced"] for p in passes):
                record["layers"]["assembly.lu_nnz"] = _lu_nnz(tracer.systems)
            own = tracer.self_times()
            spans_out += [{"pass": len(passes), "id": s[0], "parent": s[1],
                           "layer": s[2], "name": s[3], "start": s[4],
                           "end": s[5], "self": o}
                          for s, o in zip(tracer.spans, own)]
        passes.append(record)
        pass_s.append(time.perf_counter() - pass_start)

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "setup_s": statistics.median(s[2] for s in setups),
        "setup_wall_s": statistics.median(s[0] for s in setups),
        "setup_import_wall_s": statistics.median(s[1] for s in setups),
        "setup_runs": setups,
        "speed_kernel_s": clock.kernel_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "env": environment(len(usable), min(usable)),
    }
    results.update(summarise(passes, len(cases)))
    if args.trace:
        with open(args.spans, "w") as fh:
            for span in spans_out:
                fh.write(json.dumps(span) + "\n")
    with open(args.result, "w") as fh:
        json.dump(results, fh, indent=1)


def summarise(passes, n_cases):
    """time_to_solution_s is the sum over cases of each case's median scaled
    time across untraced passes: the time of one typical pass at reference
    speed.  time_to_solution_wall_s is the same from unscaled wall times."""
    untraced = [p for p in passes if not p["traced"]]

    def typical_pass(key):
        return sum(statistics.median(p[key][i] for p in untraced)
                   for i in range(n_cases))

    out = {"time_to_solution_s": typical_pass("case_scaled_s"),
           "time_to_solution_wall_s": typical_pass("case_s")}
    traced = [p for p in passes if p["traced"]]
    if traced:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"] if name != "assembly.lu_nnz"}
        layers["assembly.lu_nnz"] = traced[0]["layers"]["assembly.lu_nnz"]
        traced_wall = statistics.median(sum(p["case_s"]) for p in traced)
        base = statistics.median(sum(p["case_s"]) for p in untraced)
        layers["trace.base_s"] = base
        layers["trace.overhead_s"] = traced_wall - base
        out["layers"] = layers
    return out


def environment(nproc, cpu):
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
