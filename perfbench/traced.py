"""The traced run: every workload's chain executed in-process through
``sitsgraph.cli.main`` with the same arguments the CLI gets, with a span
around every call into a public function or method of the package, plus a few
probes that time one training step or one primitive directly.

Per-layer metrics are named ``<workload>.<layer>.<metric>``; the traced run
covers all three workloads, so every run reports every metric. The tracing
overhead is measured on the selected workload: its chain runs once without
spans and, right after, once with them. One pass of a chain varies by 10-20 %
on a shared machine, more than the spans cost, so the per-span cost is also
measured directly on a function that does nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

from harness import fresh_dir, graph_roundtrip, load_reference, run_setup
from spans import Tracer, instrument, self_times, wrap
from workloads import WORKLOADS, CheckFailed, Workload

PROBE_REPS = 5

# (metric, span name or names, steps the span must fall under or None for all)
SPAN_METRICS = {
    "objects": [
        ("datacube.load_cube_s", "datacube.load_cube", None),
        ("segmentation.segment_cube_s", "segmentation.segment_cube", None),
        ("segmentation.seg_io_s", ("segmentation.save_seg", "segmentation.load_seg"), None),
        ("features.band_stats_s", "features.band_stats", None),
        ("stgraph.nodes_from_seg_s", "stgraph.nodes_from_seg", None),
        ("stgraph.adjacency_s", "stgraph.adjacency_edges", None),
        ("stgraph.knn_s", "stgraph.knn_edges", None),
        ("stgraph.sim_within_s", "stgraph.similarity_edges[within-date]", None),
        ("stgraph.sim_cross_s", "stgraph.similarity_edges[cross-date]", None),
        ("stgraph.overlap_s", "stgraph.overlap_edges", None),
        ("stgraph.periodic_s", "stgraph.periodic_edges", None),
        ("stgraph.build_graph_s", "stgraph.build_graph", None),
        ("stgraph.export_json_s", "stgraph.export_graph[json]", None),
        ("stgraph.import_json_s", "stgraph.import_graph", None),
        ("stgraph.graph_stats_s", "stgraph.graph_stats", None),
        ("stgraph.export_graphml_s", "stgraph.export_graph[graphml]", None),
        ("stgraph.export_dot_s", "stgraph.export_graph[dot]", None),
        ("analysis.detect_events_s", "analysis.detect_events", None),
        ("analysis.symbolize_s", "analysis.symbolize", None),
        ("analysis.mine_frequent_s", "analysis.mine_frequent", None),
    ],
    "classify": [
        ("datacube.load_cube_s", "datacube.load_cube", None),
        ("segmentation.segment_cube_s", "segmentation.segment_cube", None),
        ("segmentation.seg_io_s", ("segmentation.save_seg", "segmentation.load_seg"), None),
        ("features.band_stats_s", "features.band_stats", None),
        ("stgraph.nodes_from_seg_s", "stgraph.nodes_from_seg", None),
        ("stgraph.adjacency_s", "stgraph.adjacency_edges", None),
        ("stgraph.overlap_s", "stgraph.overlap_edges", None),
        ("stgraph.build_graph_s", "stgraph.build_graph", None),
        ("stgraph.export_json_s", "stgraph.export_graph[json]", None),
        ("stgraph.import_json_s", "stgraph.import_graph", None),
        ("neural.train_classifier_s", "neural.train_classifier", None),
        ("neural.graph_arrays_s", "neural.graph_arrays", None),
        ("neural.predict_nodes_s", "neural.predict_nodes", ("predict", "eval")),
        ("metrics.confusion_s", "metrics.confusion", ("eval",)),
        ("checkpoint.save_s", "checkpoint.save_checkpoint", None),
        ("checkpoint.load_s", "checkpoint.load_checkpoint", None),
    ],
    "forecast": [
        ("datacube.load_cube_s", "datacube.load_cube", ("forecast-predict",)),
        ("segmentation.slic_s", "segmentation.slic", None),
        ("forecast.train_forecaster_s", "forecast.train_forecaster", None),
        ("forecast.build_mesh_scene_s", "forecast.build_mesh", ("forecast-predict",)),
        ("forecast.predict_s", "forecast.Forecaster.predict", ("forecast-predict",)),
        ("metrics.rmse_psnr_ssim_s", "metrics.rmse_psnr_ssim", None),
        ("checkpoint.save_s", "checkpoint.save_checkpoint", None),
        ("checkpoint.load_s", "checkpoint.load_checkpoint", None),
    ],
}

# layers whose self time each workload reports
SELF_TIME_LAYERS = {
    "objects": ("datacube", "segmentation", "features", "stgraph", "analysis", "cli"),
    "classify": ("datacube", "segmentation", "features", "stgraph", "neural", "metrics", "checkpoint", "cli"),
    "forecast": ("datacube", "segmentation", "neural", "forecast", "metrics", "checkpoint", "cli"),
}


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "Mpix/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def span_totals(spans, run: str) -> tuple[dict, dict]:
    """(total seconds per (span name, root step label), self seconds per layer)
    for the spans of one run."""
    selfs = self_times(spans)
    root: list[int] = []
    totals: dict[tuple[str, str], float] = {}
    layer_self: dict[str, float] = {}
    for i, s in enumerate(spans):
        root.append(i if s.parent < 0 else root[s.parent])
        if s.run != run:
            continue
        step = spans[root[i]].name.removeprefix("step.")
        totals[(s.name, step)] = totals.get((s.name, step), 0.0) + s.duration
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + selfs[i]
    return totals, layer_self


def span_metric(totals: dict, names, steps) -> float:
    names = (names,) if isinstance(names, str) else names
    return sum(v for (n, st), v in totals.items() if n in names and (steps is None or st in steps))


def run_chain(cli, workload: Workload, setup: Path, out: Path, seed: int, tracer: Tracer | None) -> tuple[float, int]:
    """(wall seconds, failed steps) of the chain run through ``cli.main``."""
    failed = 0
    t0 = time.perf_counter()
    for step in workload.steps:
        ctx = tracer.span(f"step.{step.label}") if tracer else contextlib.nullcontext()
        try:
            with ctx, contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(step.args(setup=setup, out=out, seed=seed))
        except Exception:  # the benchmark keeps going and counts the step as failed
            traceback.print_exc()
            rc = -1
        if rc != 0:
            print(f"in-process step {step.label} failed with {rc}", file=sys.stderr)
            failed += 1
    return time.perf_counter() - t0, failed


def _median_time(fn, reps: int = PROBE_REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a function that does nothing."""

    def noop():
        return None

    wrapped = wrap(Tracer(), noop, "noop", "bench")
    costs = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def probe_classify(out: Path, seed: int) -> dict:
    """One training step at the CLI's train settings, timed by phase, and a
    sage_conv forward+backward on the spatial edges at hidden 64."""
    import numpy as np
    from sitsgraph import stgraph
    from sitsgraph.neural import Adam, ClassifierConfig, STClassifier, Tape, Tensor, cross_entropy, glorot, sage_conv
    from sitsgraph.neural import autograd as ag
    from sitsgraph.neural.classifier import graph_arrays

    g = stgraph.import_graph((out / "graph" / "graph.json").read_bytes())
    x, es, est, labels = graph_arrays(g)
    cfg = ClassifierConfig(n_classes=int(labels.max()) + 1, conv="sage", hidden=64, n_layers=4, lr=1e-2, seed=seed)
    model = STClassifier(cfg, x.shape[1])
    opt = Adam(model.parameters(), lr=cfg.lr)
    fwd, bwd, adam = [], [], []
    for _ in range(PROBE_REPS):
        with Tape() as tape:
            t0 = time.perf_counter()
            loss = cross_entropy(model.forward(Tensor(x), es, est, train=True), labels)
            t1 = time.perf_counter()
            tape.backward(loss)
            t2 = time.perf_counter()
        opt.step()
        opt.zero_grad()
        t3 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
        adam.append(t3 - t2)

    rng = np.random.default_rng(seed)
    h = Tensor(rng.standard_normal((x.shape[0], 64)).astype(np.float32), requires_grad=True)
    w_self = Tensor(glorot(rng, 64, 64), requires_grad=True)
    w_neigh = Tensor(glorot(rng, 64, 64), requires_grad=True)

    def sage_step():
        with Tape() as t:
            t.backward(ag.mean_all(sage_conv(h, es, w_self, w_neigh)))

    return {
        "neural.step_forward_s": statistics.median(fwd),
        "neural.step_backward_s": statistics.median(bwd),
        "neural.adam_s": statistics.median(adam),
        "neural.tape_ops": len(tape),
        "neural.parameters": sum(p.data.size for p in model.parameters()),
        "neural.sage_conv_s": _median_time(sage_step),
    }


def _ndwi(cube):
    from sitsgraph import datacube

    if "NDWI" in cube.bands:
        return cube.values[:, cube.bands.index("NDWI")]
    return datacube.ndwi(cube).values[:, 0]


def probe_forecast(setup: Path) -> dict:
    """build_mesh and one training step on a 64x64 training window, then the
    mesh of the 256x256 scene: assembly alone (SLIC labels precomputed) and
    its traced allocation peak."""
    import numpy as np
    from sitsgraph import datacube
    from sitsgraph.forecast import ForecastConfig, Forecaster, build_mesh
    from sitsgraph.forecast.model import pixel_pos_encoding
    from sitsgraph.neural import Adam, Tape
    from sitsgraph.neural.autograd import huber
    from sitsgraph.segmentation import slic

    # the CLI's forecast train settings
    cfg = ForecastConfig(input_len=6, n_segments=128, hidden=64, processor_rounds=4, lr=1e-3, epochs=3)
    cube = datacube.load_cube(setup / "site0")
    values = _ndwi(cube)
    n = cfg.input_len
    window = values[:n].astype(np.float32)
    target = values[n].astype(np.float32)

    def mesh_of(frame, **kw):
        return build_mesh(frame[None], cfg.n_segments, cfg.compactness, cfg.slic_iters, **kw)

    out = {"forecast.build_mesh_s": _median_time(lambda: mesh_of(window[-1]))}
    mesh = mesh_of(window[-1])
    pos = pixel_pos_encoding(cube.geo, *window.shape[1:], cube.timestamps[n - 1])
    model = Forecaster(cfg)
    opt = Adam(model.parameters(), lr=cfg.lr)
    fwd, bwd = [], []
    for _ in range(PROBE_REPS):
        with Tape() as tape:
            t0 = time.perf_counter()
            loss = huber(model.forward(window, mesh, pos), target.reshape(-1, 1), delta=cfg.huber_delta)
            t1 = time.perf_counter()
            tape.backward(loss)
            t2 = time.perf_counter()
        opt.step()
        opt.zero_grad()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    out["forecast.step_forward_s"] = statistics.median(fwd)
    out["forecast.step_backward_s"] = statistics.median(bwd)
    out["forecast.parameters"] = sum(p.data.size for p in model.parameters())

    scene = _ndwi(datacube.load_cube(setup / "scene"))
    last = scene[scene.shape[0] - 2].astype(np.float32)  # the CLI's default window ends at T-1
    labels = slic(last[None], n_segments=cfg.n_segments, compactness=cfg.compactness, iters=cfg.slic_iters)
    out["forecast.mesh_assembly_s"] = _median_time(lambda: mesh_of(last, labels=labels), reps=3)
    tracemalloc.start()
    try:
        scene_mesh = mesh_of(last)
        out["forecast.mesh_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    out["forecast.mesh_regions"] = scene_mesh.n_regions
    out["forecast.m2g_edges"] = int(scene_mesh.m2g_src.size)
    return out


def output_counts(name: str, out: Path) -> dict:
    """Work done, as counts read from the traced chain's outputs."""
    c = {}
    if name in ("objects", "classify"):
        seg = json.loads((out / "seg" / "seg_meta.json").read_text())
        graph = json.loads((out / "graph" / "graph.json").read_text())
        c["segmentation.objects"] = sum(seg["counts"])
        c["stgraph.nodes"] = len(graph["nodes"])
        c["stgraph.edges_spatial"] = sum(e["kind"] == "S" for e in graph["edges"])
        c["stgraph.edges_st"] = sum(e["kind"] == "ST" for e in graph["edges"])
        c["stgraph.json_bytes"] = (out / "graph" / "graph.json").stat().st_size
    if name == "objects":
        c["analysis.events"] = len(json.loads((out / "events" / "events.json").read_text()))
        c["analysis.patterns"] = len(json.loads((out / "mine" / "patterns.json").read_text())["patterns"])
    if name in ("classify", "forecast"):
        c["checkpoint.bytes"] = (out / "model" / "checkpoint.bin").stat().st_size
    return c


def run_traced(runner, selected: str, seed: int, runs: Path) -> tuple[dict, int, int]:
    """Per-layer metrics of every workload: name -> (value, unit, samples)."""
    run_dir = fresh_dir(runs / f"traced-{selected}-seed{seed}-{os.getpid()}")
    attempted = failed = 0
    rows: dict[str, tuple[float, str, int]] = {}
    try:
        runner.run(["--version"], run_dir / "warmup.log")
        startup = [runner.run(["--version"], run_dir / "startup.log")[0] for _ in range(3)]
        rows["cli.startup_s"] = (statistics.median(startup), "s", len(startup))
        for name, w in WORKLOADS.items():
            _, ok = run_setup(runner, w, seed, run_dir / name / "setup")
            attempted += 1
            failed += not ok
        if failed:
            return rows, attempted, failed

        roundtrip = graph_roundtrip(runner.root)
        from sitsgraph import cli

        w = WORKLOADS[selected]
        untraced, f = run_chain(cli, w, run_dir / selected / "setup", fresh_dir(run_dir / selected / "untraced"), seed, None)
        attempted += len(w.steps)
        failed += f

        tracer = Tracer()
        restore = instrument(tracer)
        walls = {}
        try:
            # the selected chain first, right after its untraced run
            for name in sorted(WORKLOADS, key=lambda n: n != selected):
                w = WORKLOADS[name]
                tracer.run = name
                walls[name], f = run_chain(
                    cli, w, run_dir / name / "setup", fresh_dir(run_dir / name / "traced"), seed, tracer
                )
                attempted += len(w.steps)
                failed += f
        finally:
            restore()
        tracer.write(runs / f"{run_dir.name}.spans.jsonl")
        if failed:
            return rows, attempted, failed

        rows["trace.untraced_s"] = (untraced, "s", 1)
        rows["trace.traced_s"] = (walls[selected], "s", 1)
        rows["trace.overhead_pct"] = (100.0 * (walls[selected] - untraced) / untraced, "%", 1)
        rows["trace.spans"] = (sum(s.run == selected for s in tracer.spans), "count", 1)
        rows["trace.span_cost_us"] = (1e6 * span_cost(), "us", PROBE_REPS)

        for name, w in WORKLOADS.items():
            out = run_dir / name / "traced"
            try:
                w.check(out, load_reference(name, seed), roundtrip)
            except (CheckFailed, OSError, ValueError, KeyError) as e:
                print(f"{name}: output check failed: {e}", file=sys.stderr)
                failed += 1
            totals, layer_self = span_totals(tracer.spans, name)
            values = {m: span_metric(totals, names, steps) for m, names, steps in SPAN_METRICS[name]}
            values.update(output_counts(name, out))
            if "segmentation.segment_cube_s" in values:
                seg = json.loads((out / "seg" / "seg_meta.json").read_text())
                pixels = seg["T"] * seg["H"] * seg["W"]
                values["segmentation.mpix_per_s"] = pixels / values["segmentation.segment_cube_s"] / 1e6
            values.update({f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in SELF_TIME_LAYERS[name]})
            if name == "classify":
                values.update(probe_classify(out, seed))
            if name == "forecast":
                values.update(probe_forecast(run_dir / name / "setup"))
            for metric, v in values.items():
                rows[f"{name}.{metric}"] = (float(v), unit_of(metric), 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return rows, attempted, failed
