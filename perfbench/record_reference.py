"""Record the reference output values that the benchmark checks every run
against, one entry per workload and seed, into reference.json.

    python3 perfbench/record_reference.py --seeds 0-19

Run it only at a commit whose outputs are known to be right; the values are
then the program's outputs at that commit (counts exactly, model quality with
the tolerances in workloads.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from harness import HERE, THREAD_VARS, Runner, fresh_dir
from run import ROOT, measure
from workloads import WORKLOADS


def main() -> int:
    inherited = {k: os.environ.pop(k) for k in THREAD_VARS if k in os.environ}
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="first-last, inclusive")
    p.add_argument("--workload", choices=list(WORKLOADS), action="append")
    args = p.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    path = HERE / "reference.json"
    refs = json.loads(path.read_text())
    runner = Runner(ROOT, inherited)
    for name in args.workload or WORKLOADS:
        for seed in seeds:
            run_dir = fresh_dir(ROOT / ".perfbench_runs" / f"reference-{name}-{seed}")
            try:
                m = measure(runner, WORKLOADS[name], seed, 0.0, run_dir, None)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            if m["failed"] or not m["passes"]:
                print(f"{name} seed {seed}: run failed, nothing recorded", file=sys.stderr)
                return 1
            values = {k: v for k, v in m["passes"][0]["values"].items() if k != "graph_sha256"}
            refs.setdefault(name, {})[str(seed)] = values
            print(name, seed, values, flush=True)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
