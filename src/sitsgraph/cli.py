"""Command-line pipeline: synth, segment, features, build-graph, stats,
events, mine, export, train, predict, forecast, eval.

Every run writes ``run_config.json`` next to its outputs; re-running the same
subcommand with ``--config run_config.json`` reproduces the run (explicit
flags still win). Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, datacube, features, metrics, segmentation, stgraph
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import SitsGraphError
from .forecast import ForecastConfig, make_site_splits, train_forecaster
from .forecast.train import ForecastSample, forecaster_from_checkpoint, predict_next_frame
from .neural import ClassifierConfig, train_classifier
from .neural.classifier import classifier_from_checkpoint, predict_nodes

_ENV_THREADS = "SITSGRAPH_THREADS"


class UsageError(Exception):
    """A bad flag combination or environment value that argparse cannot see; exit code 2."""


def _threads(args) -> int:
    if getattr(args, "threads", None):
        return max(1, args.threads)
    env = os.environ.get(_ENV_THREADS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"{_ENV_THREADS} must be an integer, got {env!r}") from None
    # serial by default: per-date segmentation is interpreter-bound, so a
    # thread pool adds memory and no speed
    return 1


def _write_run_config(args, out_dir: Path) -> None:
    skip = {"func", "config"}
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k not in skip and not k.startswith("_")
    }
    params["version"] = __version__
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run_config.json").write_text(json.dumps(params, indent=2, sort_keys=True) + "\n")


def _load_graph(path: str) -> stgraph.StGraph:
    return stgraph.import_graph(Path(path).read_bytes())


def _parse_edge_spec(spec: str, which: str):
    name, _, arg = spec.partition(":")
    try:
        if which == "spatial":
            if name == "adjacency":
                return "adjacency"
            if name == "eps":
                r = float(arg)
                if r <= 0:
                    raise ValueError("eps must be > 0")
                return ("eps", r)
            if name in ("knn", "sim"):
                k = int(arg)
                if k < 1:
                    raise ValueError(f"{name} needs k >= 1")
                return (name, k)
        else:
            if name == "overlap":
                m = int(arg) if arg else 1
                if m < 1:
                    raise ValueError("overlap min pixels must be >= 1")
                return ("overlap", m)
            if name == "sim":
                k = int(arg)
                if k < 1:
                    raise ValueError("sim needs k >= 1")
                return ("sim", k)
            if name == "periodic":
                lag = int(arg)
                if lag < 2:
                    raise ValueError("periodic lag must be >= 2")
                return ("periodic", lag)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad --{which} spec {spec!r}: {e}") from None
    raise argparse.ArgumentTypeError(f"unknown --{which} builder {spec!r}")


def _spatial_spec(spec: str):
    return _parse_edge_spec(spec, "spatial")


def _st_spec(spec: str):
    return _parse_edge_spec(spec, "st")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    out = Path(args.out)
    if args.kind == "seasonal":
        cube, labels = datacube.synth_seasonal(
            seed=args.seed,
            t=args.t,
            h=args.height,
            w=args.width,
            n_blobs=args.blobs,
            period_dates=args.period,
            sigma=args.sigma,
        )
    else:
        cube, labels = datacube.synth_context(
            seed=args.seed, cells=args.cells, cell_px=args.cell_px, t=args.t
        )
    datacube.save_cube(cube, out)
    datacube.save_labels(labels, out)
    _write_run_config(args, out)
    print(f"wrote cube {cube.shape} + labels to {out}")
    return 0


def cmd_segment(args):
    cube = datacube.load_cube(args.cube)
    if args.algo == "felzenszwalb":
        params = {"scale": args.scale, "min_size": args.min_size}
    else:
        params = {"n_segments": args.segments, "compactness": args.compactness, "iters": args.iters}
    bands = args.bands.split(",") if args.bands else None
    seg = segmentation.segment_cube(cube, args.algo, params, band_subset=bands, threads=_threads(args))
    out = Path(args.out)
    segmentation.save_seg(seg, out)
    _write_run_config(args, out)
    print(f"segmented {seg.shape[0]} dates; objects per date: {seg.counts}")
    return 0


def cmd_features(args):
    cube = datacube.load_cube(args.cube)
    seg = segmentation.load_seg(args.seg)
    fm = features.object_features(cube, seg, geometry=args.geometry)
    if args.standardize:
        fm = features.standardize(fm)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "features.csv").write_text(fm.to_csv())
    meta = {"names": fm.names, "standardization": fm.standardization}
    (out / "features_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    _write_run_config(args, out)
    print(f"wrote {fm.values.shape[0]} x {fm.dim} features to {out}")
    return 0


def cmd_build_graph(args):
    cube = datacube.load_cube(args.cube)
    seg = segmentation.load_seg(args.seg)
    fm = features.object_features(cube, seg, geometry=args.geometry)
    label_maps = None
    if datacube.has_labels(args.cube):
        t, _, h, w = cube.shape
        label_maps = datacube.load_labels(args.cube, t, h, w)
    spatial = [tuple(s) if isinstance(s, list) else s for s in args.spatial or []]
    st = [tuple(s) if isinstance(s, list) else s for s in args.st or []]

    needs_sim = any(isinstance(s, tuple) and s[0] == "sim" for s in spatial + st)
    graph_features = features.standardize(fm) if needs_sim else fm
    g = stgraph.build_graph(
        seg,
        features=graph_features,
        label_maps=label_maps,
        spatial=spatial,
        st=st,
        meta={"cube_shape": list(cube.shape), "seg": seg.provenance},
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.json").write_bytes(stgraph.export_graph(g, "json"))
    _write_run_config(args, out)
    print(f"graph: {g.n_nodes} nodes, {len(g.spatial)} spatial, {len(g.st)} temporal edges")
    return 0


def cmd_stats(args):
    g = _load_graph(args.graph)
    cube_shape = tuple(g.meta.get("cube_shape") or [])
    if args.cube:
        cube_shape = datacube.load_cube(args.cube).shape
    if len(cube_shape) != 4:
        raise SitsGraphError("cube shape unknown; pass --cube")
    f_v = g.features.dim if g.features is not None else 0
    report = stgraph.graph_stats(g, cube_shape, f_v=f_v, f_e=args.fe, map_stored=args.map_stored)
    summary: dict[str, int] = {}
    for r in analysis.detect_events(g):
        summary[r.event] = summary.get(r.event, 0) + 1
    report["event_summary"] = summary
    print(json.dumps(report, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "stats.json").write_text(json.dumps(report, indent=2) + "\n")
        _write_run_config(args, out)
    return 0


def cmd_events(args):
    g = _load_graph(args.graph)
    records = analysis.detect_events(g)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "events.csv").write_text(analysis.events_csv(records))
    (out / "events.json").write_text(
        json.dumps([dataclasses.asdict(r) for r in records], indent=2) + "\n"
    )
    _write_run_config(args, out)
    print(f"{len(records)} events -> {out}")
    return 0


def cmd_mine(args):
    g = _load_graph(args.graph)
    if g.features is None:
        raise SitsGraphError("graph carries no features to symbolize")
    symbols, edges = analysis.symbolize(g.features, args.feature, args.bins)
    patterns = analysis.mine_frequent(g, symbols, minsup=args.minsup, maxlen=args.maxlen)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "patterns.csv").write_text(analysis.patterns_csv(patterns))
    (out / "patterns.json").write_text(
        json.dumps(
            {
                "bin_edges": [float(e) for e in np.atleast_1d(edges)],
                "patterns": [
                    {"symbols": list(p.symbols), "support": p.support, "example": list(p.example)}
                    for p in patterns
                ],
            },
            indent=2,
        )
        + "\n"
    )
    _write_run_config(args, out)
    print(f"{len(patterns)} frequent patterns -> {out}")
    return 0


def cmd_export(args):
    g = _load_graph(args.graph)
    blob = stgraph.export_graph(g, args.format)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_bytes(blob)
    print(f"wrote {args.format} ({len(blob)} bytes) -> {args.out}")
    return 0


def cmd_train(args):
    g = _load_graph(args.graph)
    labels = g.label_array()
    labeled = np.nonzero(labels >= 0)[0]
    if labeled.size == 0:
        raise SitsGraphError("graph has no labeled nodes")
    n_classes = int(labels.max()) + 1
    rng = np.random.default_rng(args.seed)
    val_pick = rng.permutation(labeled)[: max(1, int(round(args.val_frac * labeled.size)))]
    val_mask = np.zeros(g.n_nodes, dtype=bool)
    val_mask[val_pick] = True
    train_mask = np.zeros(g.n_nodes, dtype=bool)
    train_mask[labeled] = True
    train_mask[val_pick] = False

    cfg = ClassifierConfig(
        n_classes=n_classes,
        conv=args.conv,
        hidden=args.hidden,
        n_layers=args.layers,
        lr=args.lr,
        epochs=args.epochs,
        seed=args.seed,
    )
    ckpt, log = train_classifier([g], [g], cfg, train_masks=[train_mask], val_masks=[val_mask])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = {k: v for k, v in ckpt.items() if k != "state"}
    save_checkpoint(out / "checkpoint.bin", header, ckpt["state"])
    (out / "metrics.json").write_text(json.dumps(log, indent=2) + "\n")
    _write_run_config(args, out)
    print(
        f"best epoch {ckpt['best_epoch']} val mIoU {ckpt['best_val_miou']:.4f} -> {out / 'checkpoint.bin'}"
    )
    return 0


def _load_classifier(path: str):
    header, params = load_checkpoint(path)
    return classifier_from_checkpoint(
        {"config": header.get("config"), "in_dim": header.get("in_dim"), "state": params}
    )


def cmd_predict(args):
    g = _load_graph(args.graph)
    model = _load_classifier(args.checkpoint)
    pred = predict_nodes(model, g)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "predictions.json").write_text(
        json.dumps({"node_class": dict(zip(map(str, g.ids.tolist()), pred.tolist()))}, indent=2) + "\n"
    )
    _write_run_config(args, out)
    print(f"predicted {len(pred)} nodes -> {out}")
    return 0


def cmd_eval(args):
    needs = ("checkpoint", "graph", "seg", "cube") if args.task == "classify" else ("pred", "target")
    missing = [f"--{k}" for k in needs if getattr(args, k) is None]
    if missing:
        raise UsageError(f"eval --task {args.task} needs {' '.join(missing)}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.task == "classify":
        g = _load_graph(args.graph)
        seg = segmentation.load_seg(args.seg)
        cube = datacube.load_cube(args.cube)
        t, _, h, w = cube.shape
        truth = datacube.load_labels(args.cube, t, h, w)
        model = _load_classifier(args.checkpoint)
        node_pred = predict_nodes(model, g)
        pixel_pred = node_pred[seg.labels]  # object id -> class, mapped back to pixels
        n_classes = max(int(truth.max()), int(node_pred.max())) + 1
        cm = metrics.confusion(truth, pixel_pred, n_classes)
        report = metrics.iou_oa(cm)
        report["majority_upper_bound"] = metrics.majority_upper_bound(seg, truth)
        report["confusion"] = cm.counts.tolist()
        header = [f"class_{c}_iou" for c in range(n_classes)] + ["miou", "oa"]
        row = ["" if v is None else f"{v:.6f}" for v in report["per_class_iou"]]
        row += [f"{report['miou']:.6f}", f"{report['oa']:.6f}"]
        (out / "per_class_iou.csv").write_text(",".join(header) + "\n" + ",".join(row) + "\n")
    else:
        pred = np.fromfile(args.pred, dtype="<f4")
        target = np.fromfile(args.target, dtype="<f4")
        if args.height:
            shape = (args.height, pred.size // args.height)
        else:
            side = int(np.sqrt(pred.size))
            shape = (side, pred.size // side)
        report = metrics.rmse_psnr_ssim(pred.reshape(shape), target.reshape(shape))
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_run_config(args, out)
    print(json.dumps({k: v for k, v in report.items() if k != "confusion"}, indent=2))
    return 0


def _cube_to_samples(cube_dir: str, input_len: int) -> list[ForecastSample]:
    cube = datacube.load_cube(cube_dir)
    values = datacube.ndwi_values(cube)
    t = values.shape[0]
    if t <= input_len:
        raise SitsGraphError(f"cube {cube_dir} holds {t} dates; need > input_len={input_len}")
    site = Path(cube_dir).name
    out = []
    for k in range(t - input_len):
        out.append(
            ForecastSample(
                window=values[k : k + input_len].astype(np.float32),
                target=values[k + input_len].astype(np.float32),
                site=site,
                geo=cube.geo,
                timestamp=cube.timestamps[k + input_len - 1],
            )
        )
    return out


def cmd_forecast_train(args):
    samples = []
    for d in args.cubes:
        samples.extend(_cube_to_samples(d, args.input_len))
    train, val, test = make_site_splits(samples, seed=args.seed)
    cfg = ForecastConfig(
        input_len=args.input_len,
        n_segments=args.segments,
        compactness=args.compactness,
        hidden=args.hidden,
        processor_rounds=args.rounds,
        lr=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        mesh_from=args.mesh_from,
    )
    ckpt, log = train_forecaster(train, val, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = {k: v for k, v in ckpt.items() if k != "state"}
    save_checkpoint(out / "checkpoint.bin", header, ckpt["state"])
    (out / "metrics.json").write_text(json.dumps(log, indent=2) + "\n")
    _write_run_config(args, out)
    print(
        f"best epoch {ckpt['best_epoch']} val RMSE {ckpt['best_val_rmse']:.4f}"
        f" ({len(train)}/{len(val)}/{len(test)} train/val/test samples) -> {out / 'checkpoint.bin'}"
    )
    return 0


def cmd_forecast_predict(args):
    header, params = load_checkpoint(args.checkpoint)
    model = forecaster_from_checkpoint({"config": header.get("config"), "state": params})
    n = model.cfg.input_len
    cube = datacube.load_cube(args.cube)
    values = datacube.ndwi_values(cube)
    t = values.shape[0]
    end = args.window_end if args.window_end is not None else (t - 1 if t > n else t)
    if end < n or end > t:
        raise SitsGraphError(f"window end {end} out of range [{n}, {t}]")
    window = values[end - n : end].astype(np.float32)
    pred = predict_next_frame(model, window, cube.geo, cube.timestamps[end - 1])
    out = Path(args.out)
    if out.suffix == ".bin":  # --out frame.bin writes siblings next to it
        frame_path, base = out, out.parent
    else:
        frame_path, base = out / "frame.bin", out
    base.mkdir(parents=True, exist_ok=True)
    frame_path.write_bytes(np.ascontiguousarray(pred, dtype="<f4").tobytes())
    report = {}
    if end < t:
        report = metrics.rmse_psnr_ssim(pred, values[end])
        (base / "metrics.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_run_config(args, base)
    print(json.dumps({"frame": str(frame_path), **report}, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(prog="sitsgraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    registry: dict[tuple, argparse.ArgumentParser] = {}

    def common(p):
        p.add_argument("--config", help="JSON file with parameter defaults (unknown keys rejected)")
        p.add_argument("--threads", type=int, default=None, help=f"per-date worker threads for segment (env {_ENV_THREADS}; default 1, serial)")

    p = sub.add_parser("synth", help="generate a synthetic labeled cube")
    p.add_argument("--kind", choices=["seasonal", "context"], default="seasonal")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t", type=int, default=8)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--blobs", type=int, default=5)
    p.add_argument("--period", type=int, default=6)
    p.add_argument("--sigma", type=float, default=0.02)
    p.add_argument("--cells", type=int, default=6)
    p.add_argument("--cell-px", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("segment", help="segment every date of a cube")
    p.add_argument("--cube", required=True)
    p.add_argument("--algo", choices=["felzenszwalb", "slic"], default="felzenszwalb")
    p.add_argument("--scale", type=float, default=100.0)
    p.add_argument("--min-size", type=int, default=5)
    p.add_argument("--segments", type=int, default=256)
    p.add_argument("--compactness", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--bands", default=None, help="comma-separated band subset")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("features", help="per-object statistics as CSV")
    p.add_argument("--cube", required=True)
    p.add_argument("--seg", required=True)
    p.add_argument("--geometry", action="store_true")
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("build-graph", help="assemble the spatio-temporal graph")
    p.add_argument("--cube", required=True)
    p.add_argument("--seg", required=True)
    p.add_argument(
        "--spatial",
        action="append",
        type=_spatial_spec,
        metavar="adjacency|eps:R|knn:K|sim:K",
    )
    p.add_argument(
        "--st",
        action="append",
        type=_st_spec,
        metavar="overlap[:MIN]|sim:K|periodic:LAG",
    )
    p.add_argument("--geometry", action="store_true")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("stats", help="size/degree report with compression ratio")
    p.add_argument("--graph", required=True)
    p.add_argument("--cube", default=None)
    p.add_argument("--fe", type=int, default=0)
    p.add_argument("--map-stored", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("events", help="degree-based event records")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_events)

    p = sub.add_parser("mine", help="frequent sequential patterns")
    p.add_argument("--graph", required=True)
    p.add_argument("--feature", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--minsup", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("export", help="serialize a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=["json", "graphml", "dot"], default="json")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("train", help="train the node classifier on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--conv", choices=["gcn", "sage", "mlp"], default="sage")
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-frac", type=float, default=0.25)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="per-node classes from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluation report")
    p.add_argument("--task", choices=["classify", "forecast"], default="classify")
    p.add_argument("--checkpoint")
    p.add_argument("--graph")
    p.add_argument("--seg")
    p.add_argument("--cube")
    p.add_argument("--pred")
    p.add_argument("--target")
    p.add_argument("--height", type=int, default=None, help="frame height for raw blobs (forecast task)")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("forecast", help="mesh-based next-frame forecasting")
    fsub = p.add_subparsers(dest="forecast_cmd", required=True)

    pt = fsub.add_parser("train")
    pt.add_argument("--cubes", nargs="+", required=True, help="cube dirs; one site each")
    pt.add_argument("--input-len", type=int, default=6)
    pt.add_argument("--segments", type=int, default=256)
    pt.add_argument("--compactness", type=float, default=0.1)
    pt.add_argument("--hidden", type=int, default=64)
    pt.add_argument("--rounds", type=int, default=4)
    pt.add_argument("--lr", type=float, default=1e-4)
    pt.add_argument("--epochs", type=int, default=50)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--mesh-from", choices=["last", "stack"], default="last")
    pt.add_argument("--out", required=True)
    common(pt)
    pt.set_defaults(func=cmd_forecast_train)

    pp = fsub.add_parser("predict")
    pp.add_argument("--checkpoint", required=True)
    pp.add_argument("--cube", required=True)
    pp.add_argument("--window-end", type=int, default=None)
    pp.add_argument("--out", required=True)
    common(pp)
    pp.set_defaults(func=cmd_forecast_predict)

    for name, sp in sub.choices.items():
        registry[(name,)] = sp
    registry[("forecast", "train")] = pt
    registry[("forecast", "predict")] = pp
    return parser, registry


def _preload_config(parser, registry, argv: list[str]) -> None:
    """Read --config and install its values as defaults on the target
    subparser; flags given on the command line keep priority."""
    if "--config" not in argv:
        return
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return  # argparse reports the missing value
    cfg = json.loads(Path(argv[idx + 1]).read_text())
    if not isinstance(cfg, dict):
        parser.error(f"--config {argv[idx + 1]} must hold a JSON object")
    positionals = [tok for tok in argv if not tok.startswith("-")]
    key = tuple(positionals[:2]) if positionals[:1] == ["forecast"] else tuple(positionals[:1])
    sp = registry.get(key)
    if sp is None:
        return
    known = {a.dest for a in sp._actions}  # noqa: SLF001 - argparse has no public dest listing
    meta = {"subcommand", "forecast_cmd", "version"}
    unknown = set(cfg) - known - meta
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    sp.set_defaults(**{k: v for k, v in cfg.items() if k not in meta})
    # defaults satisfy 'required' only if argparse sees them; drop the flag
    for action in sp._actions:  # noqa: SLF001
        if action.dest in cfg and action.required:
            action.required = False


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        _preload_config(parser, registry, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        parser.error(str(e))
    except (SitsGraphError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
