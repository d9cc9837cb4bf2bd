"""Regenerate ``references.json``, the seed-0 results the workload checks
compare against.  Re-pin only when a change of results is intended.

    PYTHONPATH=src python3 perfbench/pin_references.py
"""

import json
import tempfile

from child import capture_solves
from tracing import patched
from workloads import DEFAULT_SEED, REFERENCES_PATH, WORKLOADS, case_label


def main():
    refs = {}
    for name, workload_cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            workload = workload_cls(workdir, DEFAULT_SEED)
            workload.setup()
            for case in workload.cases():
                solutions = []
                with patched(capture_solves(solutions)
                             if workload.captures_solves else []):
                    result = workload.run(case)
                pinned = workload.pinned(case, result, solutions)
                if len(workload.cases()) == 1:
                    refs[name] = pinned
                else:
                    refs.setdefault(name, {})[case_label(case)] = pinned
    with open(REFERENCES_PATH, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
