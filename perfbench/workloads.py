"""The benchmark's three workloads: fixed chains of ``sitsgraph`` CLI
subcommands over inputs that ``synth`` generates from the benchmark seed.

Each workload is one closed-loop client: a subcommand starts only after the
previous one has exited. Why each workload exists, and which layer metric
should move which end-to-end metric on it, is written down in README.md next
to this file and in BENCHMARK.json.

Argument templates use ``{setup}`` for the directory the set-up wrote and
``{out}`` for the directory of the current pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Step:
    stage: str  # "build" | "query" | "train" | "infer"
    label: str
    argv: tuple[str, ...]

    def args(self, **fmt) -> list[str]:
        return [a.format(**fmt) for a in self.argv]


def _s(stage: str, label: str, line: str) -> Step:
    return Step(stage, label, tuple(line.split()))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], list[list[str]]]  # seed -> synth argument lists
    steps: tuple[Step, ...]
    check: Callable[[Path, "dict | None", Callable[[bytes], bytes]], dict]

    @property
    def stages(self) -> list[str]:
        return list(dict.fromkeys(s.stage for s in self.steps))


# ---------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    """An output of ``step`` is wrong."""

    def __init__(self, step: str, message: str):
        super().__init__(f"{step}: {message}")
        self.step = step


def _require(ok: bool, step: str, message: str) -> None:
    if not ok:
        raise CheckFailed(step, message)


def checkpoint_header(path: Path) -> dict:
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[:4])
    return json.loads(raw[4 : 4 + hlen])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _compare(step: str, got: dict, ref: dict | None, exact: tuple[str, ...], at_least: dict, close: dict) -> None:
    """Exact keys must match, ``at_least`` keys may fall short of the
    reference by the given amount, ``close`` keys must lie within the given
    relative tolerance."""
    if ref is None:
        return
    for k in exact:
        _require(got[k] == ref[k], step, f"{k} = {got[k]}, reference {ref[k]}")
    for k, tol in at_least.items():
        _require(got[k] >= ref[k] - tol, step, f"{k} = {got[k]:.6f} below reference {ref[k]:.6f} - {tol}")
    for k, rel in close.items():
        _require(
            abs(got[k] - ref[k]) <= rel * abs(ref[k]), step, f"{k} = {got[k]:.9f}, reference {ref[k]:.9f} (rel {rel})"
        )


def check_objects(out: Path, ref: dict | None, roundtrip) -> dict:
    """Counts from the outputs; exact match against the reference. The graph
    JSON must re-export to the same bytes after an import."""
    stats = json.loads((out / "stats" / "stats.json").read_text())
    events = json.loads((out / "events" / "events.json").read_text())
    patterns = json.loads((out / "mine" / "patterns.json").read_text())["patterns"]
    got = {
        "nodes": stats["n_nodes"],
        "edges_spatial": stats["n_edges_spatial"],
        "edges_st": stats["n_edges_st"],
        "events": len(events),
        "patterns": len(patterns),
    }
    _require(got["nodes"] > 0 and got["edges_spatial"] > 0 and got["edges_st"] > 0, "build-graph", f"empty graph {got}")
    _require(sum(stats["event_summary"].values()) == got["events"], "events", "event count differs from stats summary")
    blob = (out / "graph" / "graph.json").read_bytes()
    _require(roundtrip(blob) == blob, "build-graph", "import_graph(export_graph(g)) changed the JSON bytes")
    root = ET.parse(out / "graph.graphml").getroot()
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    n_nodes = len(root.findall(f".//{ns}node")) or len(root.findall(".//node"))
    _require(n_nodes == got["nodes"], "export-graphml", f"{n_nodes} GraphML nodes for {got['nodes']} graph nodes")
    dot = (out / "graph.dot").read_text()
    _require("graph" in dot.split("{", 1)[0] and dot.rstrip().endswith("}"), "export-dot", "not a DOT graph")
    _compare("stats", got, ref, ("nodes", "edges_spatial", "edges_st"), {}, {})
    _compare("events", got, ref, ("events",), {}, {})
    _compare("mine", got, ref, ("patterns",), {}, {})
    got["graph_sha256"] = sha256(out / "graph" / "graph.json")
    return got


MIOU_TOLERANCE = 0.02
RMSE_REL_TOLERANCE = 1e-3


def check_classify(out: Path, ref: dict | None, roundtrip) -> dict:
    """Best validation mIoU of the checkpoint may not fall short of the
    reference by more than MIOU_TOLERANCE; predictions cover every node."""
    header = checkpoint_header(out / "model" / "checkpoint.bin")
    graph = json.loads((out / "graph" / "graph.json").read_text())
    pred = json.loads((out / "pred" / "predictions.json").read_text())["node_class"]
    report = json.loads((out / "eval" / "report.json").read_text())
    got = {"val_miou": float(header["best_val_miou"]), "eval_miou": float(report["miou"]), "nodes": len(graph["nodes"])}
    _require(0.0 <= got["val_miou"] <= 1.0, "train", f"val mIoU {got['val_miou']} outside [0, 1]")
    _require(len(pred) == got["nodes"], "predict", f"{len(pred)} predictions for {got['nodes']} nodes")
    _require(0.0 <= got["eval_miou"] <= 1.0, "eval", f"mIoU {got['eval_miou']} outside [0, 1]")
    _compare("train", got, ref, ("nodes",), {"val_miou": MIOU_TOLERANCE}, {})
    _compare("eval", got, ref, (), {"eval_miou": MIOU_TOLERANCE}, {})
    return got


SCENE_SIDE = 256


def check_forecast(out: Path, ref: dict | None, roundtrip) -> dict:
    """Best validation RMSE within RMSE_REL_TOLERANCE of the reference (BLAS
    thread counts move its last digits, so bytes are not compared); the
    predicted scene frame is complete, finite and inside [-1, 1]."""
    header = checkpoint_header(out / "model" / "checkpoint.bin")
    frame = (out / "pred" / "frame.bin").read_bytes()
    report = json.loads((out / "pred" / "metrics.json").read_text())
    got = {"val_rmse": float(header["best_val_rmse"]), "scene_rmse": float(report["rmse"])}
    _require(math.isfinite(got["val_rmse"]) and got["val_rmse"] > 0, "forecast-train", f"val RMSE {got['val_rmse']}")
    _require(len(frame) == 4 * SCENE_SIDE * SCENE_SIDE, "forecast-predict", f"frame holds {len(frame)} bytes")
    values = struct.unpack(f"<{SCENE_SIDE * SCENE_SIDE}f", frame)
    _require(all(-1.0 <= v <= 1.0 for v in values), "forecast-predict", "frame values outside [-1, 1] or not finite")
    _compare("forecast-train", got, ref, (), {}, {"val_rmse": RMSE_REL_TOLERANCE})
    _compare("forecast-predict", got, ref, (), {}, {"scene_rmse": RMSE_REL_TOLERANCE})
    return got


# ---------------------------------------------------------------------------
# workloads


def _objects_setup(seed: int) -> list[list[str]]:
    return [
        f"synth --seed {seed} --t 6 --height 192 --width 192 --blobs 600 --period 6 --out {{setup}}/cube".split()
    ]


def _classify_setup(seed: int) -> list[list[str]]:
    return [f"synth --kind context --seed {seed} --cells 24 --cell-px 4 --t 4 --out {{setup}}/cube".split()]


FORECAST_SITES = 6


def _forecast_setup(seed: int) -> list[list[str]]:
    sites = [
        f"synth --seed {seed + k} --t 8 --height 64 --width 64 --blobs 12 --period 6 --out {{setup}}/site{k}".split()
        for k in range(FORECAST_SITES)
    ]
    scene = (
        f"synth --seed {seed + FORECAST_SITES} --t 8 --height 256 --width 256 --blobs 48 --period 6"
        " --out {setup}/scene"
    ).split()
    return sites + [scene]



_GRAPH = "{out}/graph/graph.json"
_SITES = " ".join(f"{{setup}}/site{k}" for k in range(FORECAST_SITES))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "objects",
            _objects_setup,
            (
                _s("build", "segment", "segment --cube {setup}/cube --scale 0.5 --min-size 10 --out {out}/seg"),
                _s(
                    "build",
                    "build-graph",
                    "build-graph --cube {setup}/cube --seg {out}/seg --spatial adjacency --spatial knn:6"
                    " --spatial sim:4 --st overlap:4 --st sim:2 --st periodic:3 --out {out}/graph",
                ),
                _s("query", "stats", f"stats --graph {_GRAPH} --out {{out}}/stats"),
                _s("query", "events", f"events --graph {_GRAPH} --out {{out}}/events"),
                _s(
                    "query",
                    "mine",
                    f"mine --graph {_GRAPH} --feature 0 --bins 6 --minsup 2 --maxlen 6 --out {{out}}/mine",
                ),
                _s("query", "export-graphml", f"export --graph {_GRAPH} --format graphml --out {{out}}/graph.graphml"),
                _s("query", "export-dot", f"export --graph {_GRAPH} --format dot --out {{out}}/graph.dot"),
            ),
            check_objects,
        ),
        Workload(
            "classify",
            _classify_setup,
            (
                _s("build", "segment", "segment --cube {setup}/cube --scale 1e-6 --min-size 1 --out {out}/seg"),
                _s(
                    "build",
                    "build-graph",
                    "build-graph --cube {setup}/cube --seg {out}/seg --spatial adjacency --st overlap:1 --out {out}/graph",
                ),
                _s(
                    "train",
                    "train",
                    f"train --graph {_GRAPH} --conv sage --hidden 64 --layers 4 --lr 1e-2 --epochs 40"
                    " --seed {seed} --out {out}/model",
                ),
                _s("infer", "predict", f"predict --checkpoint {{out}}/model/checkpoint.bin --graph {_GRAPH} --out {{out}}/pred"),
                _s(
                    "infer",
                    "eval",
                    f"eval --task classify --checkpoint {{out}}/model/checkpoint.bin --graph {_GRAPH}"
                    " --seg {out}/seg --cube {setup}/cube --out {out}/eval",
                ),
            ),
            check_classify,
        ),
        Workload(
            "forecast",
            _forecast_setup,
            (
                _s(
                    "train",
                    "forecast-train",
                    f"forecast train --cubes {_SITES} --input-len 6 --segments 128 --hidden 64 --rounds 4"
                    " --lr 1e-3 --epochs 3 --out {out}/model",
                ),
                _s(
                    "infer",
                    "forecast-predict",
                    "forecast predict --checkpoint {out}/model/checkpoint.bin --cube {setup}/scene --out {out}/pred",
                ),
            ),
            check_forecast,
        ),
    )
}

