"""Command-line pipeline: synth, segment, features, build-graph, stats,
events, mine, export, train, predict, forecast, eval.

Every run writes ``run_config.json`` next to its outputs; re-running the same
subcommand with ``--config run_config.json`` reproduces the run (explicit
flags still win). Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, datacube, features, metrics, segmentation, stgraph
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigMismatch, InvalidSpec, ShapeMismatch, SitsGraphError, int_column, json_object, read_array, read_file
from .errors import write_files
from .forecast import ForecastConfig, make_site_splits, train_forecaster
from .forecast.model import MESH_SOURCES
from .forecast.train import ForecastSample, forecaster_from_checkpoint, predict_next_frame
from .neural import ClassifierConfig, train_classifier
from .neural.classifier import CONVS, classifier_from_checkpoint, predict_nodes


class UsageError(Exception):
    """A bad flag combination or config value that argparse cannot see; exit code 2."""


def _run_config(args) -> dict:
    params = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    return dict(sorted({**params, "version": __version__}.items()))


def _load_graph(path: str) -> stgraph.StGraph:
    return stgraph.import_graph(read_file(path, "--graph"), f"{path}: graph document")


def _load_labels(cube_dir: str, cube: datacube.SitsCube) -> np.ndarray:
    t, _, h, w = cube.shape
    return datacube.load_labels(cube_dir, t, h, w)


def _save_model(out: str, ckpt: dict) -> Path:
    """Write ``ckpt`` to ``out/checkpoint.bin``; returns that path."""
    path = Path(out) / "checkpoint.bin"
    save_checkpoint(path, {k: v for k, v in ckpt.items() if k != "state"}, ckpt["state"])
    return path


def _load_model(path: str, kind: str):
    """The model of the checkpoint at ``path``, whose header must name
    ``kind``: "classifier" or "forecaster"."""
    header, state = load_checkpoint(path)
    if header.get("kind") != kind:
        raise ConfigMismatch(f"checkpoint {path} holds a {header.get('kind')!r} model, not a {kind}")
    from_checkpoint = classifier_from_checkpoint if kind == "classifier" else forecaster_from_checkpoint
    return from_checkpoint({**header, "state": state})


def _int_at_least(low: int, name: str):
    """A flag ``type``: an int of at least ``low``, named ``name`` in
    argparse's and ``--config``'s messages."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value

    parse.__name__ = name
    return parse


_non_negative = _int_at_least(0, "non-negative int")  # --seed (NumPy's generators take no negative seed), stats --fe
_count = _int_at_least(1, "positive int")  # --threads (at least one worker), eval --height


def _fraction(text: str) -> float:
    """The ``type`` of ``--val-frac``: a share of the labeled nodes, in [0, 1]."""
    value = float(text)
    if not 0 <= value <= 1:
        raise ValueError(text)
    return value


_fraction.__name__ = "fraction in [0, 1]"


def _edge_spec(relation: str):
    """The ``type`` of ``--spatial``/``--st``: ``stgraph.parse_edge_spec``,
    with a bad spec a usage error."""

    def parse(spec):
        try:
            return stgraph.parse_edge_spec(spec, relation)
        except InvalidSpec as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return parse


# ---------------------------------------------------------------------------
# subcommands: each returns what ``main`` prints (text, or else JSON) and the
# files ``main`` writes into ``--out`` with ``run_config.json``, or None when
# the run has no ``--out`` directory


def cmd_synth(args):
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
    datacube.save_cube(cube, args.out)
    datacube.save_labels(labels, args.out)
    return f"wrote cube {cube.shape} + labels to {Path(args.out)}", {}


def cmd_segment(args):
    cube = datacube.load_cube(args.cube)
    if args.algo == "felzenszwalb":
        params = {"scale": args.scale, "min_size": args.min_size}
    else:
        params = {"n_segments": args.segments, "compactness": args.compactness, "iters": args.iters}
    bands = args.bands.split(",") if args.bands else None
    seg = segmentation.segment_cube(cube, args.algo, params, band_subset=bands, threads=args.threads)
    segmentation.save_seg(seg, args.out)
    return f"segmented {seg.shape[0]} dates; objects per date: {seg.counts}", {}


def cmd_features(args):
    cube = datacube.load_cube(args.cube)
    seg = segmentation.load_seg(args.seg)
    fm = features.object_features(cube, seg, geometry=args.geometry)
    if args.standardize:
        fm = features.standardize(fm)
    files = {
        "features.csv": fm.to_csv(),
        "features_meta.json": {"names": fm.names, "standardization": fm.standardization},
    }
    return f"wrote {fm.values.shape[0]} x {fm.dim} features to {Path(args.out)}", files


def cmd_build_graph(args):
    cube = datacube.load_cube(args.cube)
    seg = segmentation.load_seg(args.seg)
    fm = features.object_features(cube, seg, geometry=args.geometry)
    label_maps = _load_labels(args.cube, cube) if datacube.has_labels(args.cube) else None

    spatial, st = args.spatial or [], args.st or []
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
    line = f"graph: {g.n_nodes} nodes, {len(g.spatial)} spatial, {len(g.st)} temporal edges"
    return line, {"graph.json": stgraph.export_graph(g, "json")}


def cmd_stats(args):
    g = _load_graph(args.graph)
    if args.cube:
        cube_shape = datacube.load_cube(args.cube).shape
    else:
        shape = g.meta.get("cube_shape") or []
        cube_shape = tuple(int_column(shape, f"{args.graph} meta 'cube_shape'", ShapeMismatch).tolist())
    if len(cube_shape) != 4:
        raise SitsGraphError("cube shape unknown; pass --cube")
    f_v = g.features.dim if g.features is not None else 0
    report = stgraph.graph_stats(g, cube_shape, f_v=f_v, f_e=args.fe, map_stored=args.map_stored)
    summary: dict[str, int] = {}
    for r in analysis.detect_events(g):
        summary[r.event] = summary.get(r.event, 0) + 1
    report["event_summary"] = summary
    return report, ({"stats.json": report} if args.out else None)


def cmd_events(args):
    records = analysis.detect_events(_load_graph(args.graph))
    files = {
        "events.csv": analysis.events_csv(records),
        "events.json": [{"node": r.node, "event": r.event, "t": r.t} for r in records],
    }
    return f"{len(records)} events -> {Path(args.out)}", files


def cmd_mine(args):
    g = _load_graph(args.graph)
    if g.features is None:
        raise SitsGraphError("graph carries no features to symbolize")
    symbols, edges = analysis.symbolize(g.features, args.feature, args.bins)
    patterns = analysis.mine_frequent(g, symbols, minsup=args.minsup, maxlen=args.maxlen)
    files = {
        "patterns.csv": analysis.patterns_csv(patterns),
        "patterns.json": {
            "bin_edges": [float(e) for e in np.atleast_1d(edges)],
            "patterns": [
                {"symbols": list(p.symbols), "support": p.support, "example": list(p.example)}
                for p in patterns
            ],
        },
    }
    return f"{len(patterns)} frequent patterns -> {Path(args.out)}", files


def cmd_export(args):
    blob = stgraph.export_graph(_load_graph(args.graph), args.format)
    out = Path(args.out)  # a file, not a run directory
    write_files(out.parent, {out.name: blob})
    return f"wrote {args.format} ({len(blob)} bytes) -> {args.out}", None


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
    path = _save_model(args.out, ckpt)
    return f"best epoch {ckpt['best_epoch']} val mIoU {ckpt['best_val_miou']:.4f} -> {path}", {"metrics.json": log}


def cmd_predict(args):
    g = _load_graph(args.graph)
    pred = predict_nodes(_load_model(args.checkpoint, "classifier"), g)
    files = {"predictions.json": {"node_class": dict(zip(map(str, g.ids.tolist()), pred.tolist()))}}
    return f"predicted {len(pred)} nodes -> {Path(args.out)}", files


def cmd_eval(args):
    needs = ("checkpoint", "graph", "seg", "cube") if args.task == "classify" else ("pred", "target")
    missing = [f"--{k}" for k in needs if getattr(args, k) is None]
    if missing:
        raise UsageError(f"eval --task {args.task} needs {' '.join(missing)}")
    files = {}
    if args.task == "classify":
        g = _load_graph(args.graph)
        seg = segmentation.load_seg(args.seg)
        if g.n_nodes != seg.n_objects:
            raise ShapeMismatch(f"--graph holds {g.n_nodes} nodes for the {seg.n_objects} objects of --seg")
        cube = datacube.load_cube(args.cube)
        truth = _load_labels(args.cube, cube)
        node_pred = predict_nodes(_load_model(args.checkpoint, "classifier"), g)
        pixel_pred = node_pred[seg.labels]  # object id -> class, mapped back to pixels
        n_classes = max(int(truth.max()), int(node_pred.max())) + 1
        cm = metrics.confusion(truth, pixel_pred, n_classes)
        report = metrics.iou_oa(cm)
        report["majority_upper_bound"] = metrics.majority_upper_bound(seg, truth)
        report["confusion"] = cm.counts.tolist()
        header = [f"class_{c}_iou" for c in range(n_classes)] + ["miou", "oa"]
        row = ["" if v is None else f"{v:.6f}" for v in report["per_class_iou"]]
        row += [f"{report['miou']:.6f}", f"{report['oa']:.6f}"]
        files["per_class_iou.csv"] = ",".join(header) + "\n" + ",".join(row) + "\n"
    else:
        pred, target = read_array(args.pred, "--pred", "<f4", (-1,)), read_array(args.target, "--target", "<f4", (-1,))
        rows = int(np.sqrt(pred.size)) if args.height is None else args.height
        if rows < 1 or pred.size % rows or target.size != pred.size:
            raise ShapeMismatch(f"cannot form frames of {rows} rows from {pred.size} --pred and {target.size} --target floats")
        report = metrics.rmse_psnr_ssim(pred.reshape(rows, -1), target.reshape(rows, -1))
    files["report.json"] = report
    return {k: v for k, v in report.items() if k != "confusion"}, files


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
                window=values[k : k + input_len],
                target=values[k + input_len],
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
    path = _save_model(args.out, ckpt)
    line = (
        f"best epoch {ckpt['best_epoch']} val RMSE {ckpt['best_val_rmse']:.4f}"
        f" ({len(train)}/{len(val)}/{len(test)} train/val/test samples) -> {path}"
    )
    return line, {"metrics.json": log}


def cmd_forecast_predict(args):
    model = _load_model(args.checkpoint, "forecaster")
    n = model.cfg.input_len
    cube = datacube.load_cube(args.cube)
    values = datacube.ndwi_values(cube)
    t = values.shape[0]
    end = args.window_end if args.window_end is not None else (t - 1 if t > n else t)
    if end < n or end > t:
        raise SitsGraphError(f"window end {end} out of range [{n}, {t}]")
    window = values[end - n : end]
    pred = predict_next_frame(model, window, cube.geo, cube.timestamps[end - 1])
    files = {"frame.bin": np.ascontiguousarray(pred, dtype="<f4")}
    report = {}
    if end < t:
        report = metrics.rmse_psnr_ssim(pred, values[end])
        files["metrics.json"] = report
    return {"frame": str(Path(args.out) / "frame.bin"), **report}, files


# ---------------------------------------------------------------------------
# parser


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(prog="sitsgraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    registry: dict[tuple, argparse.ArgumentParser] = {}

    def common(p):
        p.add_argument("--config", help="JSON file with parameter defaults (unknown keys rejected)")
        p.add_argument("--threads", type=_count, default=None, help=(
            "per-date worker processes for segment (default: the usable CPUs, capped at the"
            f" dates; serial below {segmentation.POOL_MIN_PIXELS} pixels per date)"
        ))

    p = sub.add_parser("synth", help="generate a synthetic labeled cube")
    p.add_argument("--kind", choices=["seasonal", "context"], default="seasonal")
    p.add_argument("--seed", type=_non_negative, required=True)
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
        type=_edge_spec("spatial"),
        metavar="adjacency|eps:R|knn:K|sim:K",
    )
    p.add_argument(
        "--st",
        action="append",
        type=_edge_spec("st"),
        metavar="overlap[:MIN]|sim:K|periodic:LAG",
    )
    p.add_argument("--geometry", action="store_true")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("stats", help="size/degree report with compression ratio")
    p.add_argument("--graph", required=True)
    p.add_argument("--cube", default=None)
    p.add_argument("--fe", type=_non_negative, default=0)
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
    p.add_argument("--conv", choices=CONVS, default=ClassifierConfig.conv)
    p.add_argument("--hidden", type=int, default=ClassifierConfig.hidden)
    p.add_argument("--layers", type=int, default=ClassifierConfig.n_layers)
    p.add_argument("--lr", type=float, default=ClassifierConfig.lr)
    p.add_argument("--epochs", type=int, default=ClassifierConfig.epochs)
    p.add_argument("--seed", type=_non_negative, default=ClassifierConfig.seed)
    p.add_argument("--val-frac", type=_fraction, default=0.25)
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
    p.add_argument("--height", type=_count, default=None, help="frame height for raw blobs (forecast task)")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("forecast", help="mesh-based next-frame forecasting")
    fsub = p.add_subparsers(dest="forecast_cmd", required=True)

    pt = fsub.add_parser("train")
    pt.add_argument("--cubes", nargs="+", required=True, help="cube dirs; one site each")
    pt.add_argument("--input-len", type=int, default=ForecastConfig.input_len)
    pt.add_argument("--segments", type=int, default=ForecastConfig.n_segments)
    pt.add_argument("--compactness", type=float, default=ForecastConfig.compactness)
    pt.add_argument("--hidden", type=int, default=ForecastConfig.hidden)
    pt.add_argument("--rounds", type=int, default=ForecastConfig.processor_rounds)
    pt.add_argument("--lr", type=float, default=ForecastConfig.lr)
    pt.add_argument("--epochs", type=int, default=ForecastConfig.epochs)
    pt.add_argument("--seed", type=_non_negative, default=ForecastConfig.seed)
    pt.add_argument("--mesh-from", choices=MESH_SOURCES, default=ForecastConfig.mesh_from)
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


_BOOLEAN_ACTIONS = (argparse._StoreTrueAction, argparse._StoreFalseAction, argparse.BooleanOptionalAction)  # noqa: SLF001


def _config_value(action: argparse.Action, value):
    """A ``--config`` value as its flag would parse it. A switch takes only
    JSON ``true``/``false``. A repeatable (``append``) flag takes a list, and
    each element is parsed like a single value. A single value's text goes
    through the flag's ``type``, as argparse applies it to a command line;
    a JSON list is passed as it is (the edge-spec grammar reads ``["knn",
    6]``). Then the result is checked against the flag's ``choices``.
    ``null`` stays the unset default."""
    if value is None:
        return None
    if isinstance(action, _BOOLEAN_ACTIONS):
        if not isinstance(value, bool):
            raise UsageError(f"config {action.dest!r} must be true or false, got {value!r}")
        return value
    if isinstance(action, argparse._AppendAction):  # noqa: SLF001
        if not isinstance(value, list):
            raise UsageError(f"config {action.dest!r} must be a list, got {value!r}")
        return [_config_item(action, v) for v in value]
    return _config_item(action, value)


def _config_item(action: argparse.Action, value):
    parsed = value
    if action.type is not None:
        try:
            parsed = action.type(value if isinstance(value, list) else str(value))
        except argparse.ArgumentTypeError as e:
            raise UsageError(str(e)) from None
        except (TypeError, ValueError):
            kind = getattr(action.type, "__name__", "valid")
            raise UsageError(f"config {action.dest!r} must be {kind}, got {value!r}") from None
    if action.choices is not None and parsed not in action.choices:
        raise UsageError(f"config {action.dest!r} must be one of {list(action.choices)}, got {value!r}")
    return parsed


def _preload_config(parser, registry, argv: list[str]) -> dict:
    """Read --config and install its values as defaults on the target
    subparser; flags given on the command line keep priority. argparse
    appends command-line values to a copy of an ``append`` flag's default,
    so the lists of those flags are returned instead, for ``main`` to fill
    in where the command line left the flag unset."""
    # the path as argparse reads it: ``--config FILE``, ``--config=FILE`` or
    # an unambiguous prefix of the flag
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return {}  # argparse reports the missing value
    if path is None:
        return {}
    # the main parser's only options are --help and --version, so a --config
    # before the subcommand is the first token; argparse would reject it there
    # or take its file for the subcommand's name
    try:
        early = pre.parse_known_args(argv[:1])[0].config is not None
    except argparse.ArgumentError:
        early = True  # ``--config`` with its file in the next token
    if early:
        parser.error("--config goes after the subcommand, as in: sitsgraph synth --config FILE")
    cfg = json_object(read_file(path, "--config"), f"--config {path}", InvalidSpec, {})
    positionals = [tok for tok in argv if not tok.startswith("-")]
    key = tuple(positionals[:2]) if positionals[:1] == ["forecast"] else tuple(positionals[:1])
    sp = registry.get(key)
    if sp is None:
        return {}
    actions = {a.dest: a for a in sp._actions}  # noqa: SLF001 - argparse has no public dest listing
    meta = {"subcommand", "forecast_cmd", "version"}
    unknown = set(cfg) - set(actions) - meta
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    values = {k: _config_value(actions[k], v) for k, v in cfg.items() if k not in meta}
    lists = {k: values.pop(k) for k in list(values) if isinstance(actions[k], argparse._AppendAction)}  # noqa: SLF001
    sp.set_defaults(**values)
    # defaults satisfy 'required' only if argparse sees them; drop the flag
    for action in sp._actions:  # noqa: SLF001
        if action.dest in cfg and action.required:
            action.required = False
    return lists


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        lists = _preload_config(parser, registry, argv)
        args = parser.parse_args(argv)
        for dest, value in lists.items():
            if getattr(args, dest) is None:
                setattr(args, dest, value)
        shown, files = args.func(args)
        if files is not None:
            write_files(args.out, {**files, "run_config.json": _run_config(args)})
        print(shown if isinstance(shown, str) else json.dumps(shown, indent=2))
        return 0
    except UsageError as e:
        parser.error(str(e))
    except (SitsGraphError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
