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

Each child is reaped with ``os.wait4``, and beside the comparison each step's
peak RSS (MB of 2**20 bytes, as the benchmark's ``peak_rss_mb``) and minor
page faults are printed for both trees, then the step of the chain that sets
its peak on each tree. A child started by vfork carries its parent's peak
RSS into its own, so this process imports no NumPy: its own peak stays below
that of every step.
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


def usage_file(root: Path) -> Path:
    """Where ``run_chain`` records each step's usage: beside ``root``, so
    the comparison of the trees' files does not see it."""
    return root.with_name(root.name + ".steps.tsv")


def run_chain(tree: Path, workload: str, seed: int, root: Path, conv: str | None) -> list[str]:
    """Run ``workload``'s set-up and chain from ``tree`` under ``root``;
    return the labels of the steps that failed. Each step's label, peak RSS
    in KiB and minor faults go to ``usage_file(root)``, one step a line."""
    w = WORKLOADS[workload]
    setup, out, logs = root / "setup", root / "out", root / "logs"
    for d in (setup, out, logs):
        d.mkdir(parents=True)
    steps = [(f"synth{i}", [a.format(setup=setup) for a in cmd]) for i, cmd in enumerate(w.setup(seed))]
    steps += [(s.label, with_conv(s, conv).args(setup=setup, out=out, seed=seed)) for s in w.steps]
    failed, usage = [], []
    for label, args in steps:
        with open(logs / f"{label}.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "sitsgraph.cli", *args], stdout=log, stderr=subprocess.STDOUT, env=_env(tree), cwd=tree
            )
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        usage.append(f"{label}\t{ru.ru_maxrss}\t{ru.ru_minflt}\n")
        if proc.returncode != 0:
            failed.append(label)
    usage_file(root).write_text("".join(usage))
    return failed


def read_usage(root: Path) -> list[tuple[str, int, int]]:
    """(step label, peak RSS in KiB, minor faults) per step of the chain run
    under ``root``, or none when no usage was recorded for it."""
    path = usage_file(root)
    if not path.is_file():
        return []
    return [(label, int(kib), int(faults)) for label, kib, faults in (line.split("\t") for line in path.read_text().splitlines())]


def usage_lines(label: str, base: list[tuple[str, int, int]], changed: list[tuple[str, int, int]]) -> list[str]:
    """One line per step that both trees ran: its peak RSS and minor faults
    on the base tree, then on the changed one."""
    other = {step: (kib, faults) for step, kib, faults in changed}
    return [
        f"{label}: {step} peak {kib / 1024:.1f} -> {other[step][0] / 1024:.1f} MB, minor faults {faults} -> {other[step][1]}"
        for step, kib, faults in base
        if step in other
    ]


def peak_line(label: str, chain: set[str], base: list[tuple[str, int, int]], changed: list[tuple[str, int, int]]) -> str | None:
    """The step that sets the chain's peak RSS on the base tree and on the
    changed one, with that peak, or None when a tree recorded no step of the
    chain. Only the steps in ``chain`` count, not the set-up, as in the
    benchmark's ``peak_rss_mb``."""
    peaks = [max(((kib, step) for step, kib, _ in usage if step in chain), default=None) for usage in (base, changed)]
    if None in peaks:
        return None
    (kib_a, step_a), (kib_b, step_b) = peaks
    return f"{label}: chain peak {step_a} {kib_a / 1024:.1f} -> {step_b} {kib_b / 1024:.1f} MB"


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
            usage = [read_usage(roots[side]) for side in trees]
            for line in usage_lines(label, *usage):
                print(line)
            peak = peak_line(label, {s.label for s in WORKLOADS[workload].steps}, *usage)
            if peak:
                print(peak)
            for rel in diff:
                print(f"{label}: differs {rel}")
            print(f"{label}: {n} files, {len(diff)} differ")
            status |= bool(diff or any(failed.values()))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
