"""Shared by the timed and the traced benchmark runs: the child-process
runner, set-up and reference values."""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import Workload, sha256

HERE = Path(__file__).resolve().parent

# Removed from every child's environment (and from this process before NumPy
# loads), so the program runs with its own thread defaults.
THREAD_VARS = ("SITSGRAPH_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STEP_TIMEOUT_S = 150.0


class Runner:
    """Runs ``python -m sitsgraph.cli`` children from one checkout and
    measures each child's wall time and its own peak RSS (``os.wait4``, so a
    large set-up child cannot mask a smaller chain child)."""

    def __init__(self, root: Path, inherited: dict[str, str]):
        self.root = root
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # keep __pycache__ warm, as for users
        self.inherited = inherited

    def run(self, args: list[str], log: Path, timeout: float = STEP_TIMEOUT_S) -> tuple[float, int, float]:
        """(wall seconds, exit code, peak RSS in MB)."""
        with open(log, "wb") as f:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "sitsgraph.cli", *args],
                stdout=f,
                stderr=subprocess.STDOUT,
                env=self.env,
                cwd=self.root,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            print(f"step failed (exit {proc.returncode}): {' '.join(args)}\n  " + "\n  ".join(tail), file=sys.stderr)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def environment(self) -> dict:
        import numpy as np

        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas.get('name')} {blas.get('version')}"
        except (AttributeError, KeyError, TypeError):
            blas = "unknown"
        return {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "thread_vars_inherited": self.inherited,
            "thread_vars_in_children": {k: self.env.get(k) for k in THREAD_VARS},
            "threads_flag_passed": False,
        }


def load_reference(workload: str, seed: int) -> dict | None:
    refs = json.loads((HERE / "reference.json").read_text())
    return refs.get(workload, {}).get(str(seed))


def graph_roundtrip(root: Path):
    """import_graph then export_graph, from the checkout's own package."""
    sys.path.insert(0, str(root / "src"))
    from sitsgraph import stgraph

    return lambda blob: stgraph.export_graph(stgraph.import_graph(blob), "json")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def input_digest(setup: Path) -> str:
    """Digest of the generated inputs, without the logs and run_config.json,
    which records the output path and so differs between set-up directories."""
    files = sorted(p for p in setup.rglob("*") if p.is_file() and p.name != "run_config.json" and p.suffix != ".log")
    return "".join(f"{p.relative_to(setup)}:{sha256(p)}\n" for p in files)


def run_setup(runner: Runner, workload: Workload, seed: int, setup: Path) -> tuple[float, bool]:
    """(wall seconds, all synth runs succeeded)."""
    fresh_dir(setup)
    total, ok = 0.0, True
    for i, cmd in enumerate(workload.setup(seed)):
        wall, rc, _ = runner.run([a.format(setup=setup) for a in cmd], setup / f"synth{i}.log")
        total += wall
        ok &= rc == 0
    return total, ok
