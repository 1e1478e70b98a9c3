import ast
import dataclasses
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from sitsgraph import cli, stgraph
from sitsgraph.checkpoint import load_checkpoint, save_checkpoint
from sitsgraph.cli import build_parser, main
from sitsgraph.datacube import SitsCube, ndwi, save_cube, save_labels, synth_seasonal
from sitsgraph.forecast import ForecastConfig, Forecaster, ForecastSample, train_forecaster
from sitsgraph.neural import ClassifierConfig, STClassifier, nn
from sitsgraph.neural import autograd as ag
from sitsgraph.segmentation import POOL_MIN_PIXELS, date_workers


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        args = ["synth", "--kind", "seasonal", "--seed", "7", "--t", "6", "--height", "12", "--width", "12", "--blobs", "3", "--period", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a, b = _dir_bytes(tmp_path / "a"), _dir_bytes(tmp_path / "b")
        assert set(a) == set(b)
        for name in a:
            if name != "run_config.json":  # differs by the out path itself
                assert a[name] == b[name], name

    def test_run_config_written(self, tmp_path):
        main(["synth", "--seed", "1", "--t", "4", "--height", "8", "--width", "8", "--blobs", "2", "--period", "2", "--out", str(tmp_path / "c")])
        cfg = json.loads((tmp_path / "c" / "run_config.json").read_text())
        assert cfg["seed"] == 1 and cfg["subcommand"] == "synth"


class TestExitCodes:
    def test_usage_error_is_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            main(["build-graph", "--cube", "x", "--seg", "y", "--st", "periodic:0", "--out", str(tmp_path)])
        assert e.value.code == 2

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_data_error_is_1(self, tmp_path, capsys):
        assert main(["segment", "--cube", str(tmp_path / "nope"), "--out", str(tmp_path / "s")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "bogus_key": 1}))
        with pytest.raises(SystemExit) as e:
            main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert e.value.code == 2


def _cube(tmp_path: Path) -> str:
    cube, _ = synth_seasonal(seed=0, t=4, h=8, w=8, n_blobs=2, period_dates=2)
    save_cube(cube, tmp_path / "cube")
    return str(tmp_path / "cube")


def _config(tmp_path: Path, text: str) -> list[str]:
    (tmp_path / "cfg.json").write_text(text)
    return ["synth", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]


def _flag_config(tmp_path: Path, argv: str, cfg: dict) -> list[str]:
    """``argv`` with a ``--config`` that holds ``cfg``; a bad value is
    rejected before any input is read."""
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    return argv.split() + ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]


def _cube_meta(tmp_path: Path, edit) -> list[str]:
    cube = Path(_cube(tmp_path))
    meta = json.loads((cube / "meta.json").read_text())
    edit(meta)
    (cube / "meta.json").write_text(json.dumps(meta))
    return ["segment", "--cube", str(cube), "--out", str(tmp_path / "seg")]


def _seg_meta(tmp_path: Path, edit) -> list[str]:
    cube = _cube(tmp_path)
    seg = tmp_path / "seg"
    assert main(["segment", "--cube", cube, "--scale", "0.5", "--out", str(seg)]) == 0
    meta = json.loads((seg / "seg_meta.json").read_text())
    edit(meta)
    (seg / "seg_meta.json").write_text(json.dumps(meta))
    return ["features", "--cube", cube, "--seg", str(seg), "--out", str(tmp_path / "feat")]


def _graph_config(tmp_path: Path, spatial) -> list[str]:
    """A build-graph run whose ``--config`` gives ``spatial``; the spec is
    rejected before the cube or segmentation is read."""
    (tmp_path / "cfg.json").write_text(json.dumps({"spatial": spatial}))
    return ["build-graph", "--config", str(tmp_path / "cfg.json"), "--cube", "c", "--seg", "s", "--out", str(tmp_path / "g")]


def _cube_meta_not_an_object(tmp_path: Path) -> list[str]:
    argv = _cube_meta(tmp_path, lambda m: None)
    (tmp_path / "cube" / "meta.json").write_text("[4, 1, 8, 8]")
    return argv


def _seg_meta_not_an_object(tmp_path: Path) -> list[str]:
    argv = _seg_meta(tmp_path, lambda m: None)
    (tmp_path / "seg" / "seg_meta.json").write_text("true")
    return argv


def _not_utf8(argv: list[str], path: Path) -> list[str]:
    """``argv``, after a byte that is not UTF-8 is appended to ``path``."""
    path.write_bytes(path.read_bytes() + b"\x80")
    return argv


def _mine_feature(tmp_path: Path, index: int) -> list[str]:
    """A mine run on a valid two-node graph with one feature, for feature
    ``index``."""
    return [*_graph_doc(tmp_path, lambda d: None, "mine"), "--feature", str(index), "--bins", "2", "--minsup", "1",
            "--maxlen", "2", "--out", str(tmp_path / "mine")]


def _synth_sigma(tmp_path: Path, sigma: str) -> list[str]:
    return ["synth", "--seed", "0", "--t", "4", "--height", "8", "--width", "8", "--blobs", "2", "--period", "2",
            "--sigma", sigma, "--out", str(tmp_path / "o")]


def _eval_forecast(tmp_path: Path, n_pred: int, n_target: int, *flags: str) -> list[str]:
    """An eval --task forecast run on blobs of ``n_pred`` and ``n_target`` floats."""
    for name, n in (("pred", n_pred), ("target", n_target)):
        np.zeros(n, dtype="<f4").tofile(tmp_path / f"{name}.bin")
    return ["eval", "--task", "forecast", "--pred", str(tmp_path / "pred.bin"), "--target", str(tmp_path / "target.bin"),
            *flags, "--out", str(tmp_path / "r")]


def _dangling_edge(tmp_path: Path) -> list[str]:
    node = {"id": 0, "t": 0, "pixel_count": 1, "centroid": [0.0, 0.0], "features": None, "label": None}
    doc = {"nodes": [node], "edges": [{"src": 0, "dst": 99999, "kind": "ST", "w": 1.0}], "meta": {}}
    (tmp_path / "graph.json").write_text(json.dumps(doc))
    return ["events", "--graph", str(tmp_path / "graph.json"), "--out", str(tmp_path / "ev")]


def _graph_doc(tmp_path: Path, edit, *command: str) -> list[str]:
    """A run of ``command`` (stats by default) on a valid two-node graph
    document after ``edit(doc)``."""
    nodes = [
        {"id": i, "t": i, "pixel_count": 1, "centroid": [0.0, 0.0], "features": [0.5], "label": None}
        for i in range(2)
    ]
    doc = {"nodes": nodes, "edges": [{"src": 0, "dst": 1, "kind": "ST", "w": 1.0}], "meta": {}}
    edit(doc)
    (tmp_path / "graph.json").write_text(json.dumps(doc))
    return [*(command or ("stats",)), "--graph", str(tmp_path / "graph.json")]


def _truncated_checkpoint(tmp_path: Path) -> list[str]:
    (tmp_path / "c.bin").write_bytes(b"abc")
    return ["forecast", "predict", "--checkpoint", str(tmp_path / "c.bin"), "--cube", _cube(tmp_path), "--out", str(tmp_path / "p")]


def _checkpoint_shapes(tmp_path: Path, shapes) -> list[str]:
    """A forecast predict run on a hand-written checkpoint whose header lists
    ``shapes`` and whose blob is empty."""
    header = json.dumps({"kind": "forecaster", "config": dataclasses.asdict(ForecastConfig()), "shapes": shapes}).encode()
    (tmp_path / "c.bin").write_bytes(len(header).to_bytes(4, "little") + header)
    return ["forecast", "predict", "--checkpoint", str(tmp_path / "c.bin"), "--cube", _cube(tmp_path), "--out", str(tmp_path / "p")]


def _checkpoint_without_in_dim(tmp_path: Path) -> list[str]:
    node = {"id": 0, "t": 0, "pixel_count": 1, "centroid": [0.0, 0.0], "features": [0.0], "label": None}
    (tmp_path / "graph.json").write_text(json.dumps({"nodes": [node], "edges": [], "meta": {}}))
    header = {"kind": "classifier", "config": dataclasses.asdict(ClassifierConfig(n_classes=2))}
    save_checkpoint(tmp_path / "c.bin", header, [])
    return ["predict", "--checkpoint", str(tmp_path / "c.bin"), "--graph", str(tmp_path / "graph.json"), "--out", str(tmp_path / "p")]


def _classifier_checkpoint(tmp_path: Path, edit, in_dim: int = 1) -> list[str]:
    """A predict run on a checkpoint of an untrained default classifier, after
    ``edit(config, state)``, whose header declares ``in_dim``."""
    node = {"id": 0, "t": 0, "pixel_count": 1, "centroid": [0.0, 0.0], "features": [0.0], "label": None}
    (tmp_path / "graph.json").write_text(json.dumps({"nodes": [node], "edges": [], "meta": {}}))
    cfg = ClassifierConfig(n_classes=2)
    config, state = dataclasses.asdict(cfg), STClassifier(cfg, in_dim=1).state()
    edit(config, state)
    save_checkpoint(tmp_path / "c.bin", {"kind": "classifier", "config": config, "in_dim": in_dim}, state)
    return ["predict", "--checkpoint", str(tmp_path / "c.bin"), "--graph", str(tmp_path / "graph.json"), "--out", str(tmp_path / "p")]


def _forecaster_checkpoint(tmp_path: Path, edit) -> list[str]:
    """A forecast predict run on a checkpoint of an untrained default
    forecaster, after ``edit(config, state)``."""
    cfg = ForecastConfig()
    config, state = dataclasses.asdict(cfg), [p.data for p in Forecaster(cfg).parameters()]
    edit(config, state)
    save_checkpoint(tmp_path / "c.bin", {"kind": "forecaster", "config": config}, state)
    return ["forecast", "predict", "--checkpoint", str(tmp_path / "c.bin"), "--cube", _cube(tmp_path), "--out", str(tmp_path / "p")]


def _checkpoint_header_not_utf8(tmp_path: Path) -> list[str]:
    argv = _forecaster_checkpoint(tmp_path, lambda c, s: None)
    raw = (tmp_path / "c.bin").read_bytes()
    (tmp_path / "c.bin").write_bytes(raw.replace(b'"kind"', b'"kin\x80"', 1))
    return argv


def _featureless_graph(tmp_path: Path) -> str:
    """A graph of two labeled nodes, classes 0 and 1, that carry no features."""
    nodes = [
        {"id": i, "t": 0, "pixel_count": 1, "centroid": [0.0, float(i)], "features": None, "label": i} for i in range(2)
    ]
    (tmp_path / "graph.json").write_text(json.dumps({"nodes": nodes, "edges": [], "meta": {}}))
    return str(tmp_path / "graph.json")


def _predict_featureless(tmp_path: Path) -> list[str]:
    argv = _classifier_checkpoint(tmp_path, lambda c, s: None)
    _featureless_graph(tmp_path)
    return argv


def _eval_graph_of_other_seg(tmp_path: Path) -> list[str]:
    """An eval --task classify run whose --graph holds one node and whose
    --seg holds more objects, with a checkpoint and labels that load."""
    _classifier_checkpoint(tmp_path, lambda c, s: None)
    _seg_meta(tmp_path, lambda m: None)
    save_labels(synth_seasonal(seed=0, t=4, h=8, w=8, n_blobs=2, period_dates=2)[1], tmp_path / "cube")
    return ["eval", "--checkpoint", str(tmp_path / "c.bin"), "--graph", str(tmp_path / "graph.json"),
            "--seg", str(tmp_path / "seg"), "--cube", str(tmp_path / "cube"), "--out", str(tmp_path / "r")]


def _labeled_graph(tmp_path: Path, *flags: str) -> list[str]:
    """A train run with ``flags`` on a two-node graph whose nodes carry one
    feature and the classes 0 and 1."""
    argv = _graph_doc(tmp_path, lambda d: [n.update(label=n["id"]) for n in d["nodes"]], "train")
    return [*argv, *flags, "--out", str(tmp_path / "m")]


def _six_labeled_nodes(doc: dict) -> None:
    """Six nodes over two dates, two features and alternating classes each."""
    doc["nodes"] = [
        {"id": i, "t": i % 2, "pixel_count": 1, "centroid": [0.0, float(i)], "features": [0.5 * i, 1.0 - i], "label": i % 2}
        for i in range(6)
    ]
    doc["edges"] = [{"src": i, "dst": i + 1, "kind": "ST", "w": 1.0} for i in (0, 2, 4)]


def _nan_pixel(cube: SitsCube) -> SitsCube:
    cube.values[-1, 0, 3, 3] = np.nan
    return cube


def _sentinel_pixel(cube: SitsCube) -> SitsCube:
    """``_nan_pixel``'s pixel as the cube's finite nodata sentinel, a value
    the NDWI band holds nowhere else."""
    sentinel = -1.0
    assert not (cube.values == sentinel).any()
    cube.values[-1, 0, 3, 3] = sentinel
    return SitsCube(cube.values, cube.timestamps, cube.bands, cube.geo, nodata=sentinel)


def _green_nir(cube: SitsCube) -> SitsCube:
    """The NDWI cube as B03/B08 bands whose NDWI it is."""
    v = cube.values[:, 0]
    return SitsCube(np.stack([(1 + v) / 2, (1 - v) / 2], axis=1), cube.timestamps, ["B03", "B08"], cube.geo)


def _forecast_train(tmp_path: Path, *flags: str, edit=None) -> list[str]:
    """A small forecast train run with ``flags`` on three 8x8 sites of four
    dates, each site's cube saved as ``edit`` returns it."""
    cubes = []
    for s in range(3):
        cube, _ = synth_seasonal(seed=s, t=4, h=8, w=8, n_blobs=2, period_dates=2)
        save_cube(edit(cube) if edit else cube, tmp_path / f"site{s}")
        cubes.append(str(tmp_path / f"site{s}"))
    return ["forecast", "train", "--cubes", *cubes, "--input-len", "2", "--segments", "4", "--hidden", "4",
            "--rounds", "1", *flags, "--out", str(tmp_path / "fc")]


def _eval_forecast_nan_pred(tmp_path: Path) -> list[str]:
    """An eval --task forecast run whose 4x4 --pred frame holds one NaN."""
    argv = _eval_forecast(tmp_path, 16, 16)
    pred = np.zeros(16, dtype="<f4")
    pred[5] = np.nan
    pred.tofile(tmp_path / "pred.bin")
    return argv


def _predict_nan_target(tmp_path: Path) -> list[str]:
    """A forecast predict run of an untrained two-frame forecaster whose
    target frame, the cube's last date, holds ``_nan_pixel``'s NaN."""
    cfg = ForecastConfig(input_len=2, n_segments=4, hidden=4, processor_rounds=1)
    save_checkpoint(tmp_path / "c.bin", {"kind": "forecaster", "config": dataclasses.asdict(cfg)}, Forecaster(cfg).state())
    cube, _ = synth_seasonal(seed=0, t=4, h=8, w=8, n_blobs=2, period_dates=2)
    save_cube(_nan_pixel(cube), tmp_path / "cube")
    return ["forecast", "predict", "--checkpoint", str(tmp_path / "c.bin"), "--cube", str(tmp_path / "cube"),
            "--out", str(tmp_path / "p")]


def _wrong_kind(tmp_path: Path) -> list[str]:
    """A forecast predict run on a classifier checkpoint."""
    _classifier_checkpoint(tmp_path, lambda c, s: None)
    return ["forecast", "predict", "--checkpoint", str(tmp_path / "c.bin"), "--cube", _cube(tmp_path), "--out", str(tmp_path / "p")]


def _overwrite(argv: list[str], path: Path, blob: bytes) -> list[str]:
    """``argv``, after ``path`` is overwritten with ``blob``."""
    path.write_bytes(blob)
    return argv


def _checkpoint_header(tmp_path: Path, head: bytes) -> list[str]:
    """A forecast predict run on a checkpoint whose header is ``head`` and
    whose blob is empty."""
    (tmp_path / "c.bin").write_bytes(len(head).to_bytes(4, "little") + head)
    return ["forecast", "predict", "--checkpoint", str(tmp_path / "c.bin"), "--cube", _cube(tmp_path), "--out", str(tmp_path / "p")]


# JSON nested deeper than the decoder follows
DEEP = b"[" * 200_000


# (argv builder, exit code, text the error line must name)
FAILURES = {
    "config_missing_file": (lambda tmp: ["synth", "--config", str(tmp / "absent.json"), "--out", str(tmp / "o")], 1, "absent.json"),
    "config_malformed_json": (lambda tmp: _config(tmp, "{not json"), 1, "line 1"),
    "config_unknown_key": (lambda tmp: _config(tmp, json.dumps({"seed": 3, "bogus_key": 1})), 2, "bogus_key"),
    "config_spatial_knn_without_k": (lambda tmp: _graph_config(tmp, [["knn"]]), 2, "bad --spatial spec 'knn'"),
    "config_spatial_knn_not_integer": (lambda tmp: _graph_config(tmp, [["knn", "abc"]]), 2, "bad --spatial spec 'knn:abc'"),
    "config_spatial_knn_fractional": (lambda tmp: _graph_config(tmp, [["knn", 1.7]]), 2, "bad --spatial spec 'knn:1.7'"),
    "config_spatial_not_a_list": (lambda tmp: _graph_config(tmp, 5), 2, "config 'spatial' must be a list"),
    "config_float_flag_given_a_list": (lambda tmp: _flag_config(tmp, "segment --cube c", {"scale": [1]}), 2, "config 'scale' must be float"),
    "config_int_flag_given_a_fraction": (lambda tmp: _flag_config(tmp, "train --graph g", {"epochs": 2.5}), 2, "config 'epochs' must be int"),
    "config_int_flag_given_a_bool": (lambda tmp: _flag_config(tmp, "train --graph g", {"epochs": True}), 2, "config 'epochs' must be int"),
    "config_choice_not_listed": (lambda tmp: _flag_config(tmp, "segment --cube c", {"algo": "watershed"}), 2, "config 'algo' must be one of"),
    "config_switch_given_a_string": (
        lambda tmp: _flag_config(tmp, "features --cube c --seg s", {"geometry": "no"}), 2, "config 'geometry' must be true or false",
    ),
    "config_negatable_switch_given_a_string": (
        lambda tmp: _flag_config(tmp, "stats --graph g", {"map_stored": "false"}), 2, "config 'map_stored' must be true or false",
    ),
    "stats_fe_negative": (lambda tmp: [*_graph_doc(tmp, lambda d: None), "--fe", "-3"], 2, "invalid non-negative int value: '-3'"),
    "config_fe_negative": (lambda tmp: _flag_config(tmp, "stats --graph g", {"fe": -3}), 2, "config 'fe' must be non-negative int, got -3"),
    "spatial_adjacency_with_argument": (
        lambda tmp: ["build-graph", "--cube", "c", "--seg", "s", "--spatial", "adjacency:5", "--out", str(tmp / "g")],
        2, "bad --spatial spec 'adjacency:5'",
    ),
    "spatial_eps_nan": (
        lambda tmp: ["build-graph", "--cube", "c", "--seg", "s", "--spatial", "eps:nan", "--out", str(tmp / "g")],
        2, "bad --spatial spec 'eps:nan'",
    ),
    "checkpoint_truncated": (_truncated_checkpoint, 1, "3 bytes"),
    "checkpoint_without_in_dim": (_checkpoint_without_in_dim, 1, "in_dim"),
    "checkpoint_shape_not_a_list": (lambda tmp: _checkpoint_shapes(tmp, [3]), 1, "parameter 0 has shape 3"),
    "checkpoint_shape_not_integer": (lambda tmp: _checkpoint_shapes(tmp, [["a"]]), 1, "parameter 0 has shape ['a']"),
    "checkpoint_shape_negative": (lambda tmp: _checkpoint_shapes(tmp, [[2], [-1]]), 1, "parameter 1 has shape [-1]"),
    "checkpoint_shape_beyond_numpy": (lambda tmp: _checkpoint_shapes(tmp, [[0, 10**30]]), 1, "parameter 0 has shape"),
    "checkpoint_shape_beyond_numpy_within_64_bits": (
        lambda tmp: _checkpoint_shapes(tmp, [[0, 2**62]]), 1, "parameter 0 has shape [0, 4611686018427387904]: array is too big",
    ),
    "classifier_checkpoint_hidden_edited": (
        lambda tmp: _classifier_checkpoint(tmp, lambda c, s: c.update(hidden=32)), 1, "array 0:",
    ),
    "classifier_checkpoint_one_array_short": (
        lambda tmp: _classifier_checkpoint(tmp, lambda c, s: s.pop()), 1, "array 25:",
    ),
    "forecaster_checkpoint_rounds_edited": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: c.update(processor_rounds=5)), 1, "array 66:",
    ),
    "forecaster_checkpoint_value_retyped": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: c.update(input_len="x")), 1, "input_len = 'x'",
    ),
    "forecaster_checkpoint_slic_iters_zero": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: c.update(slic_iters=0)), 1, "slic_iters must be >= 1",
    ),
    "forecaster_checkpoint_slic_iters_above_ceiling": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: c.update(slic_iters=101)), 1, "slic_iters must be <= 100",
    ),
    "forecaster_checkpoint_one_array_short": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: s.pop()), 1, "array 67:",
    ),
    "segment_slic_iters_zero": (
        lambda tmp: ["segment", "--cube", _cube(tmp), "--algo", "slic", "--segments", "16", "--iters", "0", "--out", str(tmp / "seg")],
        1, "iters must be >= 1, got 0",
    ),
    "meta_without_geo": (lambda tmp: _cube_meta(tmp, lambda m: m.pop("geo")), 1, "geo"),
    "meta_count_not_integer": (lambda tmp: _cube_meta(tmp, lambda m: m.update(T="abc")), 1, "'T'"),
    "meta_geo_not_number": (lambda tmp: _cube_meta(tmp, lambda m: m["geo"].update(lat0="north")), 1, "'geo.lat0'"),
    "meta_not_an_object": (_cube_meta_not_an_object, 1, "must hold a JSON object"),
    "meta_bands_not_a_list": (lambda tmp: _cube_meta(tmp, lambda m: m.update(bands=5)), 1, "'bands' must be a list of strings"),
    "meta_timestamps_not_a_list": (
        lambda tmp: _cube_meta(tmp, lambda m: m.update(timestamps=5)), 1, "'timestamps' must be a list of strings",
    ),
    "mine_feature_beyond_dim": (lambda tmp: _mine_feature(tmp, 99), 1, "feature index 99 out of range for dim 1"),
    "mine_feature_negative": (lambda tmp: _mine_feature(tmp, -1), 1, "feature index -1 out of range for dim 1"),
    "graph_dangling_edge": (_dangling_edge, 1, "99999"),
    "graph_without_nodes": (lambda tmp: _graph_doc(tmp, lambda d: d.pop("nodes")), 1, "no 'nodes'"),
    "graph_nodes_not_a_list": (lambda tmp: _graph_doc(tmp, lambda d: d.update(nodes=3)), 1, "'nodes' must be a list"),
    "graph_edges_not_a_list": (lambda tmp: _graph_doc(tmp, lambda d: d.update(edges={})), 1, "'edges' must be a list"),
    "graph_edge_without_w": (lambda tmp: _graph_doc(tmp, lambda d: d["edges"][0].pop("w")), 1, "edge without 'w'"),
    "graph_node_without_t": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].pop("t")), 1, "node without 't'"),
    "graph_id_not_integer": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][0].update(id="abc")), 1, "'id' must be an integer, got 'abc'"),
    "graph_id_fractional": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(id=1.5)), 1, "got 1.5"),
    "graph_t_boolean": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(t=True)), 1, "'t' must be an integer, got True"),
    "graph_pixel_count_not_integer": (
        lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][0].update(pixel_count=None)), 1, "'pixel_count' must be an integer",
    ),
    "graph_pixel_count_zero_dot": (
        lambda tmp: _graph_doc(
            tmp, lambda d: [n.update(pixel_count=0) for n in d["nodes"]], "export", "--format", "dot", "--out", str(tmp / "g.dot")
        ),
        1, "node 0 has pixel_count 0",
    ),
    "graph_label_float": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(label=1.7)), 1, "'label' must be an integer, got 1.7"),
    "graph_label_string": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][0].update(label="2")), 1, "'label' must be an integer, got '2'"),
    "graph_src_not_integer": (lambda tmp: _graph_doc(tmp, lambda d: d["edges"][0].update(src="0")), 1, "'src' must be an integer, got '0'"),
    "graph_dst_not_integer": (lambda tmp: _graph_doc(tmp, lambda d: d["edges"][0].update(dst=1.0)), 1, "'dst' must be an integer, got 1.0"),
    "graph_kind_unknown": (lambda tmp: _graph_doc(tmp, lambda d: d["edges"][0].update(kind="X")), 1, "got 'X'"),
    "graph_features_ragged": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(features=[0.5, 1.0])), 1, "features"),
    "graph_features_not_numbers": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(features=["x"])), 1, "features"),
    "graph_features_partly_null": (
        lambda tmp: [*_graph_doc(tmp, lambda d: d["nodes"][1].update(features=None)), "--cube", _cube(tmp)], 1,
        "node 1 has no 'features'",
    ),
    "graph_duplicate_node_id": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(id=0)), 1, "duplicate node id 0"),
    "seg_meta_without_counts": (lambda tmp: _seg_meta(tmp, lambda m: m.pop("counts")), 1, "counts"),
    "seg_ids_outside_counts": (
        lambda tmp: _seg_meta(tmp, lambda m: m.update(counts=[1] * len(m["counts"]))), 1, "date 0",
    ),
    "seg_counts_declare_empty_object": (
        lambda tmp: _seg_meta(tmp, lambda m: m["counts"].append(m["counts"].pop() + 1)), 1, "which has no pixel",
    ),
    "eval_classify_without_graph": (
        lambda tmp: ["eval", "--task", "classify", "--checkpoint", "c.bin", "--seg", "s", "--cube", "c", "--out", str(tmp / "r")],
        2, "--graph",
    ),
    "eval_forecast_rows_do_not_divide": (
        lambda tmp: _eval_forecast(tmp, 10, 10, "--height", "3"), 1, "cannot form frames of 3 rows from 10 --pred",
    ),
    "eval_forecast_height_zero": (
        lambda tmp: _eval_forecast(tmp, 16, 16, "--height", "0"), 2, "invalid positive int value: '0'",
    ),
    "eval_forecast_height_negative": (
        lambda tmp: _eval_forecast(tmp, 16, 16, "--height", "-4"), 2, "invalid positive int value: '-4'",
    ),
    "eval_forecast_empty_pred": (lambda tmp: _eval_forecast(tmp, 0, 9), 1, "from 0 --pred and 9 --target floats"),
    "eval_forecast_empty_frames": (lambda tmp: _eval_forecast(tmp, 0, 0, "--height", "3"), 1, "the frames hold no pixel"),
    "eval_forecast_target_size_differs": (lambda tmp: _eval_forecast(tmp, 9, 16), 1, "from 9 --pred and 16 --target floats"),
    "eval_forecast_without_pred": (
        lambda tmp: ["eval", "--task", "forecast", "--target", "t.bin", "--out", str(tmp / "r")], 2, "--pred",
    ),
    "meta_not_utf8": (lambda tmp: _not_utf8(_cube_meta(tmp, lambda m: None), tmp / "cube" / "meta.json"), 1, "is not UTF-8 text"),
    "meta_dims_negative": (lambda tmp: _cube_meta(tmp, lambda m: m.update(T=-4, C=-1)), 1, "every dimension must be >= 1"),
    "meta_count_infinite": (lambda tmp: _cube_meta(tmp, lambda m: m.update(T=float("inf"))), 1, "'T' must be an integer, got inf"),
    "seg_meta_not_utf8": (lambda tmp: _not_utf8(_seg_meta(tmp, lambda m: None), tmp / "seg" / "seg_meta.json"), 1, "is not UTF-8 text"),
    "seg_meta_not_an_object": (_seg_meta_not_an_object, 1, "must hold a JSON object"),
    "seg_meta_count_infinite": (lambda tmp: _seg_meta(tmp, lambda m: m.update(T=float("inf"))), 1, "'T' must be an integer, got inf"),
    "seg_meta_size_negative": (lambda tmp: _seg_meta(tmp, lambda m: m.update(H=-8, W=-8)), 1, "each must be >= 1"),
    "seg_count_beyond_pixels": (
        lambda tmp: _seg_meta(tmp, lambda m: m["counts"].append(m["counts"].pop() + 2**40)), 1, "objects at date 3, which has 64 pixels",
    ),
    "checkpoint_header_not_utf8": (_checkpoint_header_not_utf8, 1, "header is not UTF-8 text"),
    "config_not_utf8": (lambda tmp: _not_utf8(_config(tmp, "{}"), tmp / "cfg.json"), 1, "cfg.json is not UTF-8 text"),
    "seed_negative": (lambda tmp: ["synth", "--seed", "-1", "--out", str(tmp / "o")], 2, "invalid non-negative int value: '-1'"),
    "synth_sigma_negative": (lambda tmp: _synth_sigma(tmp, "-1"), 1, "sigma must be finite and >= 0, got -1.0"),
    "synth_sigma_nan": (lambda tmp: _synth_sigma(tmp, "nan"), 1, "sigma must be finite and >= 0, got nan"),
    "synth_sigma_inf": (lambda tmp: _synth_sigma(tmp, "inf"), 1, "sigma must be finite and >= 0, got inf"),
    "forecast_train_seed_negative": (
        lambda tmp: ["forecast", "train", "--cubes", "a", "b", "c", "--seed", "-1", "--out", str(tmp / "o")],
        2, "invalid non-negative int value: '-1'",
    ),
    "config_seed_negative": (
        lambda tmp: _flag_config(tmp, "train --graph g", {"seed": -1}), 2, "config 'seed' must be non-negative int, got -1",
    ),
    "train_graph_without_features": (
        lambda tmp: ["train", "--graph", _featureless_graph(tmp), "--epochs", "1", "--out", str(tmp / "m")],
        1, "graph carries no node features",
    ),
    "predict_graph_without_features": (_predict_featureless, 1, "graph carries no node features"),
    "eval_graph_of_other_seg": (_eval_graph_of_other_seg, 1, "--graph holds 1 nodes for the"),
    "classifier_checkpoint_layers_huge": (
        lambda tmp: _classifier_checkpoint(tmp, lambda c, s: c.update(n_layers=2**40)), 1, "array 8:",
    ),
    "forecaster_checkpoint_rounds_huge": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: c.update(processor_rounds=2**40)), 1, "array 66:",
    ),
    "forecaster_checkpoint_of_a_classifier": (_wrong_kind, 1, "holds a 'classifier' model, not a forecaster"),
    "classifier_checkpoint_one_array_too_many": (
        lambda tmp: _classifier_checkpoint(tmp, lambda c, s: s.append(s[-1])), 1, "array 26: shape (1, 64), the model expects none",
    ),
    "forecaster_checkpoint_one_array_too_many": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: s.append(s[-1])), 1, "array 68: shape (1, 1), the model expects none",
    ),
    "classifier_checkpoint_hidden_huge": (
        lambda tmp: _classifier_checkpoint(tmp, lambda c, s: c.update(hidden=2**40)), 1, "array 0: shape (1, 64)",
    ),
    "classifier_checkpoint_in_dim_huge": (
        lambda tmp: _classifier_checkpoint(tmp, lambda c, s: None, in_dim=2**40), 1, "array 0: shape (1, 64)",
    ),
    "forecaster_checkpoint_hidden_huge": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: c.update(hidden=2**40)), 1, "array 0: shape (6, 32)",
    ),
    "train_epochs_zero": (lambda tmp: _labeled_graph(tmp, "--epochs", "0"), 1, "epochs must be >= 1, got 0"),
    "train_lr_nan": (lambda tmp: _labeled_graph(tmp, "--lr", "nan", "--epochs", "1"), 1, "lr must be finite and >= 0, got nan"),
    "train_val_frac_nan": (lambda tmp: _labeled_graph(tmp, "--val-frac", "nan"), 2, "invalid fraction in [0, 1] value: 'nan'"),
    "train_val_frac_inf": (lambda tmp: _labeled_graph(tmp, "--val-frac", "inf"), 2, "invalid fraction in [0, 1] value: 'inf'"),
    "forecast_train_epochs_zero": (lambda tmp: _forecast_train(tmp, "--epochs", "0"), 1, "epochs must be >= 1, got 0"),
    "forecast_train_epochs_negative": (lambda tmp: _forecast_train(tmp, "--epochs", "-1"), 1, "epochs must be >= 1, got -1"),
    "forecast_train_lr_nan": (lambda tmp: _forecast_train(tmp, "--lr", "nan"), 1, "lr must be finite and >= 0, got nan"),
    "forecast_train_lr_negative": (lambda tmp: _forecast_train(tmp, "--lr", "-0.001"), 1, "lr must be finite and >= 0, got -0.001"),
    "forecast_train_compactness_nan": (
        lambda tmp: _forecast_train(tmp, "--compactness", "nan", "--epochs", "1"), 1, "compactness must be > 0, got nan",
    ),
    "forecast_train_lr_diverges": (
        lambda tmp: _forecast_train(tmp, "--lr", "3e38", "--epochs", "2"), 1, "no epoch of 2 gave a finite validation RMSE",
    ),
    "forecast_train_nan_pixel": (
        lambda tmp: _forecast_train(tmp, "--epochs", "1", edit=_nan_pixel), 1, "holds a non-finite pixel",
    ),
    "forecast_train_cube_without_ndwi_bands": (
        lambda tmp: _forecast_train(tmp, edit=lambda c: SitsCube(c.values, c.timestamps, ["B02"], c.geo)),
        1, "cube bands ['B02'] hold neither NDWI nor B03/B08",
    ),
    "forecast_train_cube_too_short": (lambda tmp: _forecast_train(tmp, "--input-len", "4"), 1, "holds 4 dates; need > input_len=4"),
    "eval_forecast_nan_pred": (_eval_forecast_nan_pred, 1, "the predicted frame holds a non-finite sample"),
    "forecast_predict_nan_target": (_predict_nan_target, 1, "the target frame holds a non-finite sample"),
    "forecast_predict_window_end_out_of_range": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: None), 1, "window end 4 out of range [6, 4]",
    ),
    "checkpoint_missing": (
        lambda tmp: ["forecast", "predict", "--checkpoint", str(tmp / "absent.bin"), "--cube", "c", "--out", str(tmp / "p")],
        1, "missing checkpoint",
    ),
    "features_seg_missing": (
        lambda tmp: ["features", "--cube", _cube(tmp), "--seg", str(tmp / "absent"), "--out", str(tmp / "f")], 1, "seg_meta.json",
    ),
    "stats_cube_shape_unknown": (lambda tmp: _graph_doc(tmp, lambda d: None), 1, "cube shape unknown; pass --cube"),
    "mine_graph_without_features": (
        lambda tmp: [*_graph_doc(tmp, lambda d: [n.update(features=None) for n in d["nodes"]], "mine"), "--feature", "0",
                     "--bins", "2", "--minsup", "1", "--maxlen", "2", "--out", str(tmp / "mine")],
        1, "graph carries no features to symbolize",
    ),
    "train_graph_without_labels": (
        lambda tmp: [*_graph_doc(tmp, lambda d: None, "train"), "--out", str(tmp / "m")], 1, "graph has no labeled nodes",
    ),
    "train_lr_diverges": (
        lambda tmp: [*_graph_doc(tmp, _six_labeled_nodes, "train"), "--lr", "3e38", "--hidden", "4", "--layers", "2",
                     "--epochs", "3", "--out", str(tmp / "m")],
        1, "no epoch of 3 gave finite validation logits",
    ),
    "graph_not_utf8": (
        lambda tmp: _not_utf8(_graph_doc(tmp, lambda d: None), tmp / "graph.json"), 1, "graph document is not UTF-8 text",
    ),
    "graph_w_not_a_number": (lambda tmp: _graph_doc(tmp, lambda d: d["edges"][0].update(w="1.0")), 1, "edge 'w' must be a number, got '1.0'"),
    "graph_w_overflows": (lambda tmp: _graph_doc(tmp, lambda d: d["edges"][0].update(w=10**400)), 1, "edge 'w' does not fit a float"),
    "graph_feature_overflows": (
        lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][0].update(features=[10**400])), 1, "node 'features' does not fit a float",
    ),
    "config_not_an_object": (lambda tmp: _config(tmp, "[1, 2]"), 1, "cfg.json must hold a JSON object"),
    "config_without_value": (
        lambda tmp: ["synth", "--seed", "1", "--out", str(tmp / "o"), "--config"], 2, "argument --config: expected one argument",
    ),
    "config_before_subcommand": (
        lambda tmp: ["--config", _config(tmp, "{}")[2], "synth", "--seed", "1", "--out", str(tmp / "o")],
        2, "--config goes after the subcommand",
    ),
    "config_with_equals_before_subcommand": (
        lambda tmp: [f"--config={_config(tmp, '{}')[2]}", "synth", "--seed", "1", "--out", str(tmp / "o")],
        2, "--config goes after the subcommand",
    ),
    "config_with_unknown_subcommand": (lambda tmp: ["bogus", *_config(tmp, "{}")[1:]], 2, "invalid choice: 'bogus'"),
    "segment_threads_zero": (
        lambda tmp: ["segment", "--cube", "c", "--threads", "0", "--out", str(tmp / "s")], 2, "invalid positive int value: '0'",
    ),
    "segment_threads_negative": (
        lambda tmp: ["segment", "--cube", "c", "--threads", "-2", "--out", str(tmp / "s")], 2, "invalid positive int value: '-2'",
    ),
    "config_threads_zero": (
        lambda tmp: _flag_config(tmp, "segment --cube c", {"threads": 0}), 2, "config 'threads' must be positive int, got 0",
    ),
    "segment_scale_nan": (
        lambda tmp: ["segment", "--cube", _cube(tmp), "--scale", "nan", "--out", str(tmp / "seg")], 1, "scale must be > 0, got nan",
    ),
    "segment_slic_compactness_nan": (
        lambda tmp: ["segment", "--cube", _cube(tmp), "--algo", "slic", "--segments", "4", "--compactness", "nan", "--out", str(tmp / "seg")],
        1, "compactness must be > 0, got nan",
    ),
    "meta_malformed_json": (
        lambda tmp: _overwrite(_cube_meta(tmp, lambda m: None), tmp / "cube" / "meta.json", b'{"T": 4,'), 1, "meta.json is not valid JSON",
    ),
    "seg_meta_malformed_json": (
        lambda tmp: _overwrite(_seg_meta(tmp, lambda m: None), tmp / "seg" / "seg_meta.json", b'{"T": 4,'), 1, "seg_meta.json is not valid JSON",
    ),
    "graph_malformed_json": (
        lambda tmp: _overwrite(_graph_doc(tmp, lambda d: None), tmp / "graph.json", b'{"nodes": ['), 1, "graph.json: graph document is not valid JSON",
    ),
    "checkpoint_header_malformed_json": (lambda tmp: _checkpoint_header(tmp, b'{"shapes": ['), 1, "c.bin header is not valid JSON"),
    "meta_nested_too_deep": (
        lambda tmp: _overwrite(_cube_meta(tmp, lambda m: None), tmp / "cube" / "meta.json", DEEP), 1, "meta.json nests too deep to read",
    ),
    "seg_meta_nested_too_deep": (
        lambda tmp: _overwrite(_seg_meta(tmp, lambda m: None), tmp / "seg" / "seg_meta.json", DEEP), 1, "seg_meta.json nests too deep to read",
    ),
    "graph_nested_too_deep": (
        lambda tmp: _overwrite(_graph_doc(tmp, lambda d: None), tmp / "graph.json", DEEP), 1, "graph.json: graph document nests too deep to read",
    ),
    "checkpoint_header_nested_too_deep": (lambda tmp: _checkpoint_header(tmp, DEEP), 1, "c.bin header nests too deep to read"),
    "graph_integer_beyond_digit_limit": (
        lambda tmp: _overwrite(_graph_doc(tmp, lambda d: None), tmp / "graph.json", b'{"nodes": [], "edges": [], "w": 1' + b"0" * 5000 + b"}"),
        1, "graph.json: graph document is not valid JSON: Exceeds the limit (4300 digits)",
    ),
    "meta_T_fractional": (lambda tmp: _cube_meta(tmp, lambda m: m.update(T=4.9)), 1, "meta.json key 'T' must be an integer, got 4.9"),
    "meta_C_boolean": (lambda tmp: _cube_meta(tmp, lambda m: m.update(C=True)), 1, "meta.json key 'C' must be an integer, got True"),
    "meta_H_string": (lambda tmp: _cube_meta(tmp, lambda m: m.update(H="8")), 1, "meta.json key 'H' must be an integer, got '8'"),
    "meta_W_float": (lambda tmp: _cube_meta(tmp, lambda m: m.update(W=8.0)), 1, "meta.json key 'W' must be an integer, got 8.0"),
    "seg_meta_T_fractional": (
        lambda tmp: _seg_meta(tmp, lambda m: m.update(T=4.2)), 1, "seg_meta.json key 'T' must be an integer, got 4.2",
    ),
    "seg_meta_count_fractional": (
        lambda tmp: _seg_meta(tmp, lambda m: m["counts"].append(m["counts"].pop() + 0.4)), 1, "seg_meta.json key 'counts' must be an integer, got",
    ),
    "seg_count_beyond_64_bits": (
        lambda tmp: _seg_meta(tmp, lambda m: m["counts"].append(m["counts"].pop() + 2**63)), 1, "key 'counts' out of the 64-bit range",
    ),
    "eval_forecast_trailing_bytes": (
        lambda tmp: _overwrite(_eval_forecast(tmp, 1, 1), tmp / "pred.bin", bytes(5)), 1,
        "pred.bin holds 5 bytes, not a whole number of float32 values",
    ),
    "graph_centroid_not_numbers": (
        lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(centroid=["1.5", True])), 1, "node 'centroid' must be a number, got '1.5'",
    ),
    "graph_cube_shape_not_a_list": (
        lambda tmp: _graph_doc(tmp, lambda d: d["meta"].update(cube_shape=5)), 1, "graph.json meta 'cube_shape' must be integers in a list, got int",
    ),
    "graph_cube_shape_not_integers": (
        lambda tmp: _graph_doc(tmp, lambda d: d["meta"].update(cube_shape=["4", 1, 8, 8])), 1,
        "graph.json meta 'cube_shape' must be an integer, got '4'",
    ),
    "classifier_checkpoint_in_dim_boolean": (
        lambda tmp: _classifier_checkpoint(tmp, lambda c, s: None, in_dim=True), 1, "classifier checkpoint in_dim must be an integer, got True",
    ),
    "classifier_checkpoint_in_dim_zero": (
        lambda tmp: _classifier_checkpoint(tmp, lambda c, s: None, in_dim=0), 1, "needs a positive integer in_dim, got 0",
    ),
    "graph_feature_names_not_strings": (
        lambda tmp: _graph_doc(tmp, lambda d: d["meta"].update(feature_names=[5])), 1, "'meta.feature_names' must be a list of strings, got [5]",
    ),
    "graph_centroid_three_entries": (
        lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(centroid=[1.0, 2.0, 3.0])), 1,
        "node 'centroid' must be a list of two numbers, got [1.0, 2.0, 3.0]",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failure_is_one_error_line(case, tmp_path, capsys):
    build, code, named = FAILURES[case]
    argv = build(tmp_path)
    capsys.readouterr()
    try:
        got = main(argv)
    except SystemExit as e:
        got = e.code
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert got == code
    assert len(errors) == 1 and named in errors[0], err
    assert "Traceback" not in err


def test_stats_takes_the_cube_shape_from_cube_and_counts_events(tmp_path, capsys):
    # the graph's meta holds no cube shape, so only --cube gives one; node 1
    # follows node 0 and ends, and node 2 appears at the last date
    argv = [*_graph_doc(tmp_path, lambda d: d["nodes"].append({**d["nodes"][1], "id": 2, "t": 2})), "--cube", _cube(tmp_path)]
    capsys.readouterr()
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    g = stgraph.import_graph((tmp_path / "graph.json").read_bytes())
    assert report["event_summary"] == {"disappearance": 1, "appearance": 1}
    assert report == json.loads(json.dumps({**stgraph.graph_stats(g, (4, 1, 8, 8), f_v=1), "event_summary": report["event_summary"]}))


def test_stats_of_an_empty_graph_without_the_map_is_strict_json(tmp_path):
    # the ratio's denominator is 0: the report names no ratio rather than Infinity
    argv = _graph_doc(tmp_path, lambda d: d.update(nodes=[], edges=[], meta={"cube_shape": [2, 1, 4, 4]}))
    assert main([*argv, "--no-map-stored", "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "stats.json").read_text())
    json.dumps(report, allow_nan=False)
    assert report["compression_ratio"] is None


def test_forecast_train_computes_ndwi_from_green_and_nir(tmp_path):
    # sites that hold B03/B08 train the model that their NDWI cubes train
    runs = {}
    for name, edit in (("green_nir", _green_nir), ("ndwi", lambda cube: ndwi(_green_nir(cube)))):
        assert main(_forecast_train(tmp_path / name, "--epochs", "2", edit=edit)) == 0
        runs[name] = _dir_bytes(tmp_path / name / "fc")
    assert len(runs["green_nir"]["checkpoint.bin"]) > 0
    for file in ("checkpoint.bin", "metrics.json"):
        assert runs["green_nir"][file] == runs["ndwi"][file], file


def test_forecast_train_reads_the_nodata_sentinel_as_missing(tmp_path, capsys):
    # the NDWI band's sentinel pixel ends the run as the same pixel as NaN does
    errors = {}
    for name, edit in (("nan", _nan_pixel), ("sentinel", _sentinel_pixel)):
        capsys.readouterr()
        assert main(_forecast_train(tmp_path / name, "--epochs", "1", edit=edit)) == 1
        errors[name] = capsys.readouterr().err
    assert "holds a non-finite pixel" in errors["nan"]
    assert errors["sentinel"] == errors["nan"]


def test_train_logs_null_for_diverged_epochs(tmp_path):
    # at lr 3e38 only epoch 0 has finite validation logits; epoch 2 logs null
    # mIoUs, where the argmax of its NaN logits read as a perfect 1.0
    assert main(_labeled_graph(tmp_path, "--lr", "3e38", "--hidden", "4", "--layers", "2", "--epochs", "3")) == 0
    log = json.loads((tmp_path / "m" / "metrics.json").read_text())
    header, _ = load_checkpoint(tmp_path / "m" / "checkpoint.bin")
    assert header["best_epoch"] == 0 and header["best_val_miou"] == log[0]["val_miou"]
    assert log[2] == {"epoch": 2, "train_miou": None, "val_miou": None}
    json.dumps(log, allow_nan=False)


class _Built(Exception):
    """Raised in place of training; holds the config that was built."""


def _raise_built(train, val, cfg, **kwargs):
    raise _Built(cfg)


@pytest.mark.parametrize("command", ["train", "forecast train"])
def test_flag_defaults_are_the_config_defaults(command, tmp_path, monkeypatch):
    # each flag reads its default from the config field it sets, so a run
    # given only the required flags trains with the dataclass's defaults
    if command == "train":
        monkeypatch.setattr(cli, "train_classifier", _raise_built)
        argv, want = _labeled_graph(tmp_path), ClassifierConfig(n_classes=2)
    else:
        monkeypatch.setattr(cli, "train_forecaster", _raise_built)
        cubes = []
        for s in range(3):
            cube, _ = synth_seasonal(seed=s, t=ForecastConfig.input_len + 1, h=8, w=8, n_blobs=2, period_dates=2)
            save_cube(cube, tmp_path / f"site{s}")
            cubes.append(str(tmp_path / f"site{s}"))
        argv, want = ["forecast", "train", "--cubes", *cubes, "--out", str(tmp_path / "fc")], ForecastConfig()
    with pytest.raises(_Built) as e:
        main(argv)
    assert e.value.args[0] == want


def test_cli_import_leaves_xml_and_http_unloaded():
    # every subcommand pays for what importing the CLI loads
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("xml.etree.ElementTree", "xml.sax.saxutils", "urllib.request", "http.client")
    code = f"import sys, sitsgraph.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


_GLIBC = {"CS_GNU_LIBC_VERSION": 2}


def _fake_libc(monkeypatch, names=_GLIBC, version="glibc 2.36") -> list:
    """The calls a stand-in for libc's ``mallopt`` receives, with
    ``os.confstr_names`` set to ``names`` (absent for None) and
    ``os.confstr`` answering ``version``."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(nn.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    if names is None:
        monkeypatch.delattr(os, "confstr_names", raising=False)
    else:
        monkeypatch.setattr(os, "confstr_names", names, raising=False)
    monkeypatch.setattr(os, "confstr", lambda name: version, raising=False)
    return calls


def _trained_forecast_predict(tmp_path: Path) -> list[str]:
    """A forecast predict run on the first site of ``_forecast_train``,
    with the checkpoint that run wrote."""
    assert main(_forecast_train(tmp_path)) == 0
    return ["forecast", "predict", "--checkpoint", str(tmp_path / "fc" / "checkpoint.bin"), "--cube",
            str(tmp_path / "site0"), "--out", str(tmp_path / "p")]


# M_MMAP_THRESHOLD = 32 MiB, then M_TRIM_THRESHOLD = 64 MiB
_PINNED = [(-3, 32 << 20), (-1, 64 << 20)]


class TestMallocThresholds:
    def test_glibc_gets_both_thresholds(self, monkeypatch):
        calls = _fake_libc(monkeypatch)
        nn._pin_malloc_thresholds()
        assert calls == _PINNED

    def test_fit_pins_before_its_first_step(self, monkeypatch):
        calls, seen = _fake_libc(monkeypatch), []
        w = ag.Tensor(np.ones((2, 1), dtype=np.float32), requires_grad=True)

        def steps(epoch):
            seen.append(list(calls))
            yield lambda: ag.mean_all(w)

        nn.fit(types.SimpleNamespace(state=lambda: []), nn.Adam([w], lr=0.1), 2, steps, lambda epoch: (0.0, {}), "a score")
        assert seen == [_PINNED, _PINNED]

    def test_an_in_process_forecaster_training_runs_pinned(self, monkeypatch, geo):
        # no caller pins for it: train_forecaster runs outside the CLI here
        calls = _fake_libc(monkeypatch)
        frames = np.random.default_rng(0).uniform(-1, 1, (3, 3, 8, 8)).astype(np.float32)
        samples = [ForecastSample(f[:2], f[2], f"site{s}", geo, "2020-02-01") for s, f in enumerate(frames)]
        train_forecaster(samples[:2], samples[2:], ForecastConfig(input_len=2, n_segments=4, hidden=4, processor_rounds=1, epochs=1))
        assert calls == _PINNED

    @pytest.mark.parametrize("argv", [_labeled_graph, _forecast_train], ids=["train", "forecast-train"])
    def test_step_loops_run_pinned(self, monkeypatch, tmp_path, argv):
        argv = argv(tmp_path)
        calls = _fake_libc(monkeypatch)
        assert main(argv) == 0
        assert calls == _PINNED

    @pytest.mark.parametrize(
        "argv",
        [_trained_forecast_predict, lambda tmp: ["segment", "--cube", _cube(tmp), "--out", str(tmp / "o")]],
        ids=["forecast-predict", "segment"],
    )
    def test_other_subcommands_keep_the_dynamic_rule(self, monkeypatch, tmp_path, argv):
        argv = argv(tmp_path)
        calls = _fake_libc(monkeypatch)
        assert main(argv) == 0
        assert calls == []

    def test_a_usage_error_pins_nothing(self, monkeypatch):
        calls = _fake_libc(monkeypatch)
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert calls == []

    @pytest.mark.parametrize(
        "names, version",
        [({}, "glibc 2.36"), (None, "glibc 2.36"), (_GLIBC, None), (_GLIBC, "")],
        ids=["key_absent", "no_confstr_names", "confstr_none", "confstr_empty"],
    )
    def test_other_libcs_are_left_alone(self, names, version, monkeypatch):
        calls = _fake_libc(monkeypatch, names, version)
        nn._pin_malloc_thresholds()
        assert calls == []


def test_main_names_no_handler():
    # main dispatches through args.func; what a subcommand needs, such as the
    # step loops' allocator policy, belongs to the code that runs it
    tree = ast.parse(Path(cli.__file__).read_text())
    main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    named = {n.id for n in ast.walk(main_def) if isinstance(n, ast.Name) and n.id.startswith("cmd_")}
    assert named == set()


def _grid_graph(path: Path, rows: int = 40, cols: int = 20, dates: int = 2) -> None:
    """A labeled graph of ``dates`` grids of nodes, row neighbors joined
    within a date and each cell to itself at the next date."""
    rng = np.random.default_rng(0)
    per = rows * cols
    nodes = [
        {
            "id": t * per + i,
            "t": t,
            "pixel_count": 1 + i % 7,
            "centroid": [float(i // cols), float(i % cols)],
            "features": rng.normal(size=3).tolist(),
            "label": int(i % cols >= cols // 2),
        }
        for t in range(dates)
        for i in range(per)
    ]
    edges = [
        {"src": t * per + i, "dst": t * per + i + 1, "kind": "S", "w": 1.0}
        for t in range(dates)
        for i in range(per)
        if (i + 1) % cols
    ]
    edges += [{"src": i, "dst": i + per, "kind": "ST", "w": 1.0} for i in range((dates - 1) * per)]
    path.write_text(json.dumps({"nodes": nodes, "edges": edges, "meta": {}}))


def test_malloc_thresholds_leave_train_bytes_unchanged(tmp_path):
    # a process's thresholds cannot be reset once set, so each run gets its own process;
    # 1,600 nodes x 32 hidden float32 is above glibc's 128 KiB starting mmap threshold
    _grid_graph(tmp_path / "graph.json")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, sitsgraph.cli as cli, sitsgraph.neural.nn as nn\n"
        "if sys.argv[1] == 'stub':\n"
        "    nn._pin_malloc_thresholds = lambda: None\n"
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    for mode in ("pinned", "stub"):
        argv = ["train", "--graph", str(tmp_path / "graph.json"), "--conv", "sage", "--hidden", "32", "--layers", "2",
                "--lr", "1e-2", "--epochs", "4", "--seed", "0", "--out", str(tmp_path / mode)]
        subprocess.run([sys.executable, "-c", code, mode, *argv], env=env, capture_output=True, check=True)
    for name in ("checkpoint.bin", "metrics.json"):
        assert (tmp_path / "pinned" / name).read_bytes() == (tmp_path / "stub" / name).read_bytes(), name


@pytest.mark.parametrize(
    "flag, dates, pixels, want",
    [
        ([], 8, POOL_MIN_PIXELS, 5),
        ([], 3, POOL_MIN_PIXELS, 3),
        ([], 8, POOL_MIN_PIXELS - 1, 1),
        (["--threads", "3"], 8, POOL_MIN_PIXELS, 3),
        (["--threads", "3"], 1, POOL_MIN_PIXELS, 1),
        (["--threads", "3"], 8, POOL_MIN_PIXELS - 1, 1),
    ],
    ids=[
        "default-cpus", "default-capped-at-dates", "default-below-floor",
        "threads-3", "threads-3-one-date", "threads-3-below-floor",
    ],
)
def test_threads_default_rule(monkeypatch, flag, dates, pixels, want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)))
    parser, _ = build_parser()
    args = parser.parse_args(["segment", "--cube", "c", "--out", "o", *flag])
    assert date_workers(args.threads, dates, pixels) == want


@pytest.fixture(scope="module")
def replay_inputs(tmp_path_factory) -> Path:
    """Inputs for a run of every subcommand that writes a directory."""
    d = tmp_path_factory.mktemp("inputs")
    steps = [
        f"synth --kind context --seed 9 --cells 4 --cell-px 3 --t 2 --out {d}/cube",
        f"segment --cube {d}/cube --scale 1e-6 --min-size 1 --out {d}/seg",
        f"build-graph --cube {d}/cube --seg {d}/seg --spatial adjacency --st overlap:1 --out {d}/graph",
        f"train --graph {d}/graph/graph.json --hidden 8 --layers 2 --lr 1e-2 --epochs 2 --out {d}/model",
        *(f"synth --seed {s} --t 8 --height 12 --width 12 --blobs 3 --period 6 --out {d}/site{s}" for s in range(3)),
        f"forecast train --cubes {d}/site0 {d}/site1 {d}/site2 --segments 4 --hidden 8 --rounds 1 --epochs 1 --out {d}/fc",
    ]
    for step in steps:
        assert main(step.split()) == 0, step
    rng = np.random.default_rng(0)
    for name in ("pred", "target"):
        rng.random(36, dtype=np.float32).astype("<f4").tofile(d / f"{name}.bin")
    return d


# subcommand runs, without --out, over the inputs in {d}
REPLAYS = {
    "synth": "synth --seed 5 --t 4 --height 8 --width 8 --blobs 2 --period 2",
    "segment_felzenszwalb": "segment --cube {d}/cube --scale 0.5 --min-size 2",
    "segment_slic": "segment --cube {d}/cube --algo slic --segments 9 --compactness 0.5 --iters 3 --bands SIG",
    "features": "features --cube {d}/cube --seg {d}/seg --geometry --standardize",
    "build_graph": "build-graph --cube {d}/cube --seg {d}/seg --spatial knn:2 --spatial sim:1 --st overlap --st periodic:2",
    "stats": "stats --graph {d}/graph/graph.json --fe 1 --no-map-stored",
    "events": "events --graph {d}/graph/graph.json",
    "mine": "mine --graph {d}/graph/graph.json --feature 0 --bins 2 --minsup 2 --maxlen 2",
    "train": "train --graph {d}/graph/graph.json --conv gcn --hidden 8 --layers 2 --lr 1e-2 --epochs 2 --seed 1",
    "predict": "predict --checkpoint {d}/model/checkpoint.bin --graph {d}/graph/graph.json",
    "eval_classify": "eval --checkpoint {d}/model/checkpoint.bin --graph {d}/graph/graph.json --seg {d}/seg --cube {d}/cube",
    "eval_forecast": "eval --task forecast --pred {d}/pred.bin --target {d}/target.bin",
    "forecast_train": "forecast train --cubes {d}/site0 {d}/site1 {d}/site2 --segments 4 --hidden 8 --rounds 1 --epochs 1 --seed 2",
    "forecast_predict": "forecast predict --checkpoint {d}/fc/checkpoint.bin --cube {d}/site1",
}


class TestConfigReplay:
    @pytest.mark.parametrize("case", sorted(REPLAYS))
    def test_replay_writes_same_bytes(self, case, replay_inputs, tmp_path):
        argv = REPLAYS[case].format(d=replay_inputs).split()
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([*argv, "--out", str(first)]) == 0
        command = argv[:2] if argv[0] == "forecast" else argv[:1]
        assert main([*command, "--config", str(first / "run_config.json"), "--out", str(again)]) == 0
        a, b = _dir_bytes(first), _dir_bytes(again)
        assert set(a) == set(b) and "run_config.json" in a and len(a) > 1
        a["run_config.json"] = a["run_config.json"].replace(str(first).encode(), b"OUT")
        b["run_config.json"] = b["run_config.json"].replace(str(again).encode(), b"OUT")
        for name in a:
            assert a[name] == b[name], name

    def test_rerun_from_run_config(self, tmp_path):
        main(["synth", "--seed", "5", "--t", "4", "--height", "8", "--width", "8", "--blobs", "2", "--period", "2", "--out", str(tmp_path / "a")])
        rc = tmp_path / "a" / "run_config.json"
        assert main(["synth", "--config", str(rc), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "cube.bin").read_bytes() == (tmp_path / "b" / "cube.bin").read_bytes()

    @pytest.mark.parametrize("spelling", [["--config", "{rc}"], ["--config={rc}"]], ids=["space", "equals"])
    def test_config_read_in_either_spelling(self, spelling, tmp_path):
        main(["synth", "--seed", "5", "--t", "4", "--height", "8", "--width", "8", "--blobs", "2", "--period", "2", "--out", str(tmp_path / "a")])
        rc = str(tmp_path / "a" / "run_config.json")
        assert main(["synth", *(tok.format(rc=rc) for tok in spelling), "--seed", "5", "--out", str(tmp_path / "c")]) == 0
        cfg = json.loads((tmp_path / "c" / "run_config.json").read_text())
        assert (cfg["t"], cfg["height"], cfg["blobs"], cfg["period"]) == (4, 8, 2, 2)
        assert (tmp_path / "a" / "cube.bin").read_bytes() == (tmp_path / "c" / "cube.bin").read_bytes()

    def test_explicit_flag_overrides_config(self, tmp_path):
        main(["synth", "--seed", "5", "--t", "4", "--height", "8", "--width", "8", "--blobs", "2", "--period", "2", "--out", str(tmp_path / "a")])
        rc = tmp_path / "a" / "run_config.json"
        main(["synth", "--config", str(rc), "--seed", "6", "--out", str(tmp_path / "c")])
        cfg = json.loads((tmp_path / "c" / "run_config.json").read_text())
        assert cfg["seed"] == 6

    def test_build_graph_replays_to_same_bytes(self, tmp_path):
        cube = _cube(tmp_path)
        assert main(["segment", "--cube", cube, "--scale", "0.5", "--out", str(tmp_path / "seg")]) == 0
        specs = ["--spatial", "adjacency", "--spatial", "eps:3.5", "--spatial", "knn:1", "--spatial", "sim:1",
                 "--st", "overlap:1", "--st", "sim:1", "--st", "periodic:2"]
        assert main(["build-graph", "--cube", cube, "--seg", str(tmp_path / "seg"), *specs, "--out", str(tmp_path / "a")]) == 0
        rc = tmp_path / "a" / "run_config.json"
        cfg = json.loads(rc.read_text())
        assert cfg["spatial"] == ["adjacency", ["eps", 3.5], ["knn", 1], ["sim", 1]]
        assert cfg["st"] == [["overlap", 1], ["sim", 1], ["periodic", 2]]
        assert main(["build-graph", "--config", str(rc), "--out", str(tmp_path / "b")]) == 0
        graph = (tmp_path / "a" / "graph.json").read_bytes()
        assert b'"kind": "ST"' in graph and (tmp_path / "b" / "graph.json").read_bytes() == graph

    def test_explicit_append_flag_replaces_config_list(self, tmp_path):
        cube = _cube(tmp_path)
        seg = str(tmp_path / "seg")
        assert main(["segment", "--cube", cube, "--scale", "0.5", "--out", seg]) == 0
        graph = ["build-graph", "--cube", cube, "--seg", seg]
        assert main([*graph, "--spatial", "knn:1", "--st", "overlap:1", "--out", str(tmp_path / "a")]) == 0
        rc = str(tmp_path / "a" / "run_config.json")
        assert main(["build-graph", "--config", rc, "--spatial", "adjacency", "--out", str(tmp_path / "b")]) == 0
        assert main([*graph, "--spatial", "adjacency", "--st", "overlap:1", "--out", str(tmp_path / "c")]) == 0
        assert json.loads((tmp_path / "b" / "run_config.json").read_text())["spatial"] == ["adjacency"]
        assert (tmp_path / "b" / "graph.json").read_bytes() == (tmp_path / "c" / "graph.json").read_bytes()

    def test_config_value_parsed_as_its_flag(self):
        p = cli.argparse.ArgumentParser()
        typed = p.add_argument("--x", type=float)
        chosen = p.add_argument("--n", type=int, choices=[1, 2, 3])
        assert cli._config_value(typed, 2) == 2.0 and cli._config_value(typed, None) is None
        assert cli._config_value(chosen, "2") == 2
        for action, value in ((typed, "abc"), (typed, {}), (chosen, 4), (chosen, 1.5)):
            with pytest.raises(cli.UsageError, match="config '(n|x)'"):
                cli._config_value(action, value)


class TestPipeline:
    def test_segment_features_graph_export(self, tmp_path):
        cube = tmp_path / "cube"
        main(["synth", "--kind", "context", "--seed", "3", "--cells", "4", "--cell-px", "3", "--t", "2", "--out", str(cube)])
        assert main(["segment", "--cube", str(cube), "--algo", "felzenszwalb", "--scale", "1e-6", "--min-size", "1", "--out", str(tmp_path / "seg"), "--threads", "1"]) == 0
        assert main(["features", "--cube", str(cube), "--seg", str(tmp_path / "seg"), "--out", str(tmp_path / "feat")]) == 0
        header = (tmp_path / "feat" / "features.csv").read_text().splitlines()[0]
        assert header.startswith("object_id,")
        assert main(["build-graph", "--cube", str(cube), "--seg", str(tmp_path / "seg"), "--spatial", "adjacency", "--st", "overlap:1", "--out", str(tmp_path / "graph")]) == 0
        assert main(["export", "--graph", str(tmp_path / "graph" / "graph.json"), "--format", "dot", "--out", str(tmp_path / "g.dot")]) == 0
        assert (tmp_path / "g.dot").read_text().startswith("digraph")
        assert main(["events", "--graph", str(tmp_path / "graph" / "graph.json"), "--out", str(tmp_path / "ev")]) == 0
        assert (tmp_path / "ev" / "events.csv").read_text().startswith("node,event,t")
        assert main(["mine", "--graph", str(tmp_path / "graph" / "graph.json"), "--feature", "0", "--bins", "2", "--minsup", "2", "--maxlen", "2", "--out", str(tmp_path / "pat")]) == 0
        pats = json.loads((tmp_path / "pat" / "patterns.json").read_text())
        assert pats["patterns"]

    def test_train_predict_eval(self, tmp_path):
        cube = tmp_path / "cube"
        main(["synth", "--kind", "context", "--seed", "9", "--cells", "5", "--cell-px", "3", "--t", "2", "--out", str(cube)])
        main(["segment", "--cube", str(cube), "--algo", "felzenszwalb", "--scale", "1e-6", "--min-size", "1", "--out", str(tmp_path / "seg")])
        main(["build-graph", "--cube", str(cube), "--seg", str(tmp_path / "seg"), "--spatial", "adjacency", "--st", "overlap:1", "--out", str(tmp_path / "graph")])
        g = str(tmp_path / "graph" / "graph.json")
        assert main(["train", "--graph", g, "--conv", "sage", "--hidden", "8", "--layers", "2", "--lr", "1e-2", "--epochs", "10", "--seed", "0", "--out", str(tmp_path / "model")]) == 0
        ckpt = str(tmp_path / "model" / "checkpoint.bin")
        assert main(["predict", "--checkpoint", ckpt, "--graph", g, "--out", str(tmp_path / "pred")]) == 0
        preds = json.loads((tmp_path / "pred" / "predictions.json").read_text())
        assert len(preds["node_class"]) == 50
        assert main(["eval", "--task", "classify", "--checkpoint", ckpt, "--graph", g, "--seg", str(tmp_path / "seg"), "--cube", str(cube), "--out", str(tmp_path / "rep")]) == 0
        rep = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert set(rep) >= {"per_class_iou", "miou", "oa", "majority_upper_bound"}

    def test_forecast_train_predict(self, tmp_path):
        cubes = []
        for s in range(3):
            d = tmp_path / f"site{s}"
            main(["synth", "--seed", str(s), "--t", "8", "--height", "12", "--width", "12", "--blobs", "3", "--period", "6", "--out", str(d)])
            cubes.append(str(d))
        out = tmp_path / "fc"
        assert main(
            ["forecast", "train", "--cubes", *cubes, "--input-len", "6", "--segments", "4",
             "--hidden", "8", "--rounds", "1", "--lr", "1e-3", "--epochs", "2", "--seed", "0",
             "--out", str(out)]
        ) == 0
        assert main(
            ["forecast", "predict", "--checkpoint", str(out / "checkpoint.bin"), "--cube", cubes[0],
             "--out", str(tmp_path / "fp")]
        ) == 0
        frame = np.frombuffer((tmp_path / "fp" / "frame.bin").read_bytes(), dtype="<f4")
        assert frame.size == 144
        rep = json.loads((tmp_path / "fp" / "metrics.json").read_text())
        assert set(rep) == {"rmse", "psnr", "ssim"}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
