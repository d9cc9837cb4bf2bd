"""vemhr benchmark: runs each workload in its own process and prints every
metric by name with its unit.

Run from the repository root:

    python3 perfbench/run.py                      # all workloads, seed 0
    python3 perfbench/run.py --workload solve_large --seed 7 --trace 1

With ``--trace 0`` the end-to-end metrics are measured with no spans
installed: ``time_to_solution_s``, ``setup_s`` and ``peak_rss_mb``, plus
``cases_failed_frac`` (printed, and given as ``failed``/``attempted`` in the
last line).  The two times are wall times scaled to a reference machine
speed by ``speed.SpeedClock``; the unscaled ones are printed beside them.
With ``--trace 1`` the same passes alternate between untraced and traced,
and the per-layer metrics, all unscaled, come from the traced ones.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (seed, environment, every pass
and failure) is written to ``.bench_work/results/``.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from tracing import metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("study_conv", "solve_large", "cook_cvt")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    """Environment with ``src`` on the path and one BLAS/OpenMP thread, as
    the workload process runs on one CPU."""
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    path = [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                  if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_child(workload, seed, seconds, trace):
    """Run one workload in a fresh process; return its results or None."""
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}_seed{seed}_trace{trace}"
    result_path = results_dir / f"{stem}.json"
    workdir = WORK / f"{stem}_{os.getpid()}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir),
           "--result", str(result_path),
           "--spans", str(results_dir / f"{stem}_spans.jsonl")]
    if result_path.exists():
        result_path.unlink()
    with open(results_dir / f"{stem}.log", "w") as log:
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"{workload}: timed out after {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not result_path.exists():
        print(f"{workload}: benchmark process exited with code {code}",
              file=sys.stderr)
        return None
    with open(result_path) as fh:
        return json.load(fh)


def metrics_of(results, trace):
    if trace:
        return {name: {"value": value, "unit": metric_unit(name)}
                for name, value in results["layers"].items()}
    return {name: {"value": results[name], "unit": metric_unit(name)}
            for name in ("time_to_solution_s", "setup_s", "peak_rss_mb")}


def report(workload, results, metrics):
    env = results["env"]
    print(f"{workload}: seed {results['seed']}, "
          f"{len(results['passes'])} passes within {results['seconds']:g} s, "
          f"nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}")
    frac = results["failed"] / results["attempted"]
    print(f"{workload}: cases_failed_frac = {frac:g} fraction "
          f"({results['failed']}/{results['attempted']})")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    if "time_to_solution_s" in metrics:
        print(f"{workload}: unscaled wall times: time_to_solution "
              f"{results['time_to_solution_wall_s']:.6g} s, set-up "
              f"{results['setup_wall_s']:.6g} s")


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "vemhr" / "__init__.py").is_file():
        sys.exit(f"error: no vemhr sources under {ROOT / 'src'}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        results = run_child(name, args.seed, args.seconds, args.trace)
        if results is None:
            sys.exit(1)
        metrics = metrics_of(results, args.trace)
        report(name, results, metrics)
        summary["correct"] &= results["failed"] == 0
        summary["attempted"] += results["attempted"]
        summary["failed"] += results["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update(
            {prefix + key: m for key, m in metrics.items()})
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
