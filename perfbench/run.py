"""sitsgraph benchmark: run one workload's CLI chain for a fixed time and
print its end-to-end metrics, or (``--trace 1``) trace every workload
in-process and print the per-layer metrics.

    python3 perfbench/run.py --workload objects --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run it from anywhere inside a source checkout; it runs the program in
``src/`` of that checkout and writes only under ``.perfbench_runs/`` there.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, plus the environment of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import THREAD_VARS, Runner, fresh_dir, graph_roundtrip, input_digest, load_reference, run_setup  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Workload  # noqa: E402

SETUPS = 3  # timed set-up repeats per run; setup_s is their median
# A run that stopped after one slow pass would report that pass alone, so
# slow runs would rest on fewer samples than fast ones.
MIN_PASSES = 2
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def run_pass(runner: Runner, workload: Workload, seed: int, setup: Path, out: Path) -> tuple[dict, float, int]:
    """(wall seconds per step, highest peak RSS, failed steps) of one pass of
    the chain. When a step fails, the rest of the chain is lost too."""
    walls, rss = {}, []
    for step in workload.steps:
        wall, rc, peak = runner.run(step.args(setup=setup, out=out, seed=seed), out / f"{step.label}.log")
        walls[step.label] = wall
        rss.append(peak)
        if rc != 0:
            return walls, max(rss), 1 + len(workload.steps) - len(walls)
    return walls, max(rss), 0


def measure(runner: Runner, workload: Workload, seed: int, seconds: float, run_dir: Path, ref: dict | None) -> dict:
    """Repeat the timed chain until ``seconds`` have passed, at least
    MIN_PASSES times, and set up SETUPS times, spread over the run: before
    the first pass, after the first pass and at the end. A shared machine's
    speed drifts over seconds, so repeats taken back to back would all see
    the same state. Every pass's outputs are checked against ``ref``, or
    against the first pass where no reference is recorded."""
    # Untimed warm-up: the first set-up command compiles the package's
    # bytecode into __pycache__, as it is for users, and faults in the libraries.
    warm = fresh_dir(run_dir / "warmup")
    runner.run([a.format(setup=warm) for a in workload.setup(seed)[0]], warm / "synth.log")
    roundtrip = graph_roundtrip(runner.root) if workload.name == "objects" else None
    setup_times, digests, passes = [], [], []
    attempted = failed = 0

    def set_up() -> bool:
        nonlocal attempted, failed
        d = run_dir / f"setup{len(setup_times)}"
        wall, ok = run_setup(runner, workload, seed, d)
        attempted += 1
        failed += not ok
        setup_times.append(wall)
        digests.append(input_digest(d))
        return ok

    set_up()
    setup = run_dir / "setup0"
    first_values = None
    start = time.perf_counter()
    while failed == 0 and (len(passes) < MIN_PASSES or time.perf_counter() - start < seconds):
        out = fresh_dir(run_dir / "pass")
        walls, peak_rss, lost = run_pass(runner, workload, seed, setup, out)
        attempted += len(workload.steps)
        failed += lost
        if lost:
            break
        try:
            values = workload.check(out, ref or first_values, roundtrip)
            if first_values is not None and workload.name == "objects" and values != first_values:
                raise CheckFailed("build-graph", "outputs differ between passes of the same inputs")
        except (CheckFailed, OSError, ValueError, KeyError) as e:
            print(f"output check failed: {e}", file=sys.stderr)
            failed += 1
            break
        first_values = first_values or values
        passes.append({"walls": walls, "peak_rss_mb": peak_rss, "values": values})
        if len(setup_times) < SETUPS - 1:
            set_up()
    while failed == 0 and len(setup_times) < SETUPS:
        set_up()
    if len(set(digests)) != 1:
        print("set-up is not deterministic: inputs differ between repeats", file=sys.stderr)
        failed += 1
    return {
        "setup_times": setup_times,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "reference": "recorded" if ref else "first pass",
    }


def summarize(workload: Workload, m: dict) -> dict:
    """Every metric of one run: name -> (value, unit, sample count)."""
    out = {"setup_s": (statistics.median(m["setup_times"]), "s", len(m["setup_times"]))}
    passes = m["passes"]
    if passes:
        n = len(passes)
        out["pipeline_s"] = (statistics.median(sum(p["walls"].values()) for p in passes), "s", n)
        for stage in workload.stages:
            labels = [s.label for s in workload.steps if s.stage == stage]
            out[f"{stage}_s"] = (statistics.median(sum(p["walls"][lb] for lb in labels) for p in passes), "s", n)
        out["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in passes), "MB", n)
        for k in ("val_miou", "val_rmse"):
            if k in passes[0]["values"]:
                out[k] = (statistics.median(p["values"][k] for p in passes), "1", n)
    out["fail_ratio"] = (m["failed"] / max(1, m["attempted"]), "1", m["attempted"])
    return out


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit, n) in rows.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<7} n={n}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_workload(runner: Runner, name: str, seed: int, seconds: float, runs: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    run_dir = fresh_dir(runs / f"{name}-seed{seed}-{os.getpid()}")
    try:
        m = measure(runner, workload, seed, seconds, run_dir, load_reference(name, seed))
        rows = summarize(workload, m)
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "environment": runner.environment(),
            **m,
            "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in rows.items()},
        }
        (runs / f"{run_dir.name}.json").write_text(json.dumps(record, indent=2) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print_table(f"workload {name}  seed {seed}  passes {len(m['passes'])}  reference: {m['reference']}", rows)
    return m, rows


def main(argv: list[str] | None = None) -> int:
    inherited = {k: os.environ.pop(k) for k in THREAD_VARS if k in os.environ}
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sitsgraph" / "cli.py").is_file():
        print(f"error: no sitsgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(ROOT, inherited)
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    print("environment: " + json.dumps(runner.environment()))

    if args.trace:
        from traced import run_traced

        selected = "objects" if args.workload == "all" else args.workload
        rows, attempted, failed = run_traced(runner, selected, args.seed, runs)
        print_table(f"traced run  seed {args.seed}  overhead measured on {selected}", rows)
        print(result_line(failed == 0, attempted, failed, {k: (v, u) for k, (v, u, _) in rows.items()}))
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        m, rows = run_workload(runner, name, args.seed, args.seconds, runs)
        attempted += m["attempted"]
        failed += m["failed"]
        for k, unit in END_TO_END.items():
            value = rows[k][0] if k in rows else None  # no complete pass
            metrics[k if len(names) == 1 else f"{name}.{k}"] = (value, unit)
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
