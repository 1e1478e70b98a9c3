"""Run the benchmark's CLI chains from two source trees and compare every
output byte for byte.

    python3 tools/compare_chains.py BASE_TREE CHANGED_TREE --seed 0
    python3 tools/compare_chains.py BASE CHANGED --seed 0 1 --conv sage gcn mlp

For each seed, each workload (all three by default) and each tree, the
workload's set-up (``synth``) and then its chain of subcommands run as child
processes of ``python -m sitsgraph.cli`` with that tree's ``src/`` on
``PYTHONPATH``. The step templates are those of ``perfbench/workloads.py`` in
this checkout; ``--conv`` swaps the convolution of the classify chain's
``train`` step. Each seed runs every workload once, with the first ``--conv``;
each further ``--conv`` reruns only the chains that have a convolution.
Each tree is warmed once (its package byte-compiled) before anything runs,
and ``PYTHONDONTWRITEBYTECODE`` and the BLAS thread variables are removed
from the children's environment, as the benchmark removes them.

Every file that the set-up or the chain writes, and each step's standard
output, is then compared between the trees. ``run_config.json`` and the step
logs record the directory they were written to, so that directory is masked
in them first. Each file whose bytes differ, or that only one tree wrote, is
listed under its workload, seed and convolution; the exit code is 1 if any
file of any run differs or any step failed, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from harness import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS, Step  # noqa: E402

MASK = b"<root>"
MASKED = ("run_config.json", ".log")  # files that record the directory they were written to


def _env(tree: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(tree / "src")
    return env


def warm(tree: Path) -> None:
    """Byte-compile the tree's package, so no run pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], env=_env(tree), check=True)


def own_conv(workload: str) -> str | None:
    """The convolution that ``workload``'s chain trains with, or None when
    it trains none."""
    return next((s.argv[s.argv.index("--conv") + 1] for s in WORKLOADS[workload].steps if "--conv" in s.argv), None)


def plan(workloads: list[str], seeds: list[int], convs: list[str] | None) -> list[tuple[int, str, str | None]]:
    """The (seed, workload, conv) runs: per seed, every workload once with
    the first of ``convs`` (default: its own), then each workload with a
    convolution again for each further conv. A workload without one runs
    with conv None."""
    first, *extra = convs or [None]
    runs = []
    for seed in seeds:
        for w in workloads:
            runs.append((seed, w, (first or own_conv(w)) if own_conv(w) else None))
        runs += [(seed, w, conv) for conv in extra for w in workloads if own_conv(w)]
    return runs


def with_conv(step: Step, conv: str | None) -> Step:
    """``step`` with the value after its ``--conv`` set to ``conv``."""
    if conv is None or "--conv" not in step.argv:
        return step
    argv = list(step.argv)
    argv[argv.index("--conv") + 1] = conv
    return Step(step.stage, step.label, tuple(argv))


def run_chain(tree: Path, workload: str, seed: int, root: Path, conv: str | None) -> list[str]:
    """Run ``workload``'s set-up and chain from ``tree`` under ``root``;
    return the labels of the steps that failed."""
    w = WORKLOADS[workload]
    setup, out, logs = root / "setup", root / "out", root / "logs"
    for d in (setup, out, logs):
        d.mkdir(parents=True)
    steps = [(f"synth{i}", [a.format(setup=setup) for a in cmd]) for i, cmd in enumerate(w.setup(seed))]
    steps += [(s.label, with_conv(s, conv).args(setup=setup, out=out, seed=seed)) for s in w.steps]
    failed = []
    for label, args in steps:
        with open(logs / f"{label}.log", "wb") as log:
            rc = subprocess.run(
                [sys.executable, "-m", "sitsgraph.cli", *args], stdout=log, stderr=subprocess.STDOUT, env=_env(tree), cwd=tree
            ).returncode
        if rc != 0:
            failed.append(label)
    return failed


def _contents(path: Path, root: Path) -> bytes:
    data = path.read_bytes()
    return data.replace(str(root).encode(), MASK) if path.name.endswith(MASKED) else data


def differing(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, relative paths whose masked bytes differ or that only
    one of the two directories holds)."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diff = []
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()) or _contents(pa, a) != _contents(pb, b):
            diff.append(str(rel))
    return len(files), diff


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="source tree whose outputs are the reference")
    p.add_argument("changed", type=Path, help="source tree to compare against it")
    p.add_argument("--seed", type=int, nargs="+", default=[0])
    p.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    p.add_argument("--conv", nargs="+", choices=["sage", "gcn", "mlp"], help="convolutions of the classify chain's train step")
    p.add_argument("--work", type=Path, help="new directory for the outputs, kept afterwards (default: a temporary one)")
    args = p.parse_args(argv)
    trees = {"base": args.base.resolve(), "changed": args.changed.resolve()}
    for tree in trees.values():
        warm(tree)
    with tempfile.TemporaryDirectory(prefix="compare_chains_") as tmp:
        work = args.work.resolve() if args.work else Path(tmp)
        status = 0
        for seed, workload, conv in plan(args.workload, args.seed, args.conv):
            label = f"{workload} seed {seed} conv {conv or '-'}"
            roots = {side: work / f"seed{seed}" / f"{workload}-{conv or 'none'}" / side for side in trees}
            failed = {side: run_chain(tree, workload, seed, roots[side], conv) for side, tree in trees.items()}
            n, diff = differing(roots["base"], roots["changed"])
            for side, labels in failed.items():
                if labels:
                    print(f"{label}: {side} failed at {', '.join(labels)}")
            for rel in diff:
                print(f"{label}: differs {rel}")
            print(f"{label}: {n} files, {len(diff)} differ")
            status |= bool(diff or any(failed.values()))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
