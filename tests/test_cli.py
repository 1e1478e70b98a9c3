import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sitsgraph.checkpoint import save_checkpoint
from sitsgraph.cli import _threads, build_parser, main
from sitsgraph.datacube import save_cube, synth_seasonal
from sitsgraph.forecast import ForecastConfig, Forecaster
from sitsgraph.neural import ClassifierConfig, STClassifier


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


def _dangling_edge(tmp_path: Path) -> list[str]:
    node = {"id": 0, "t": 0, "pixel_count": 1, "centroid": [0.0, 0.0], "features": None, "label": None}
    doc = {"nodes": [node], "edges": [{"src": 0, "dst": 99999, "kind": "ST", "w": 1.0}], "meta": {}}
    (tmp_path / "graph.json").write_text(json.dumps(doc))
    return ["events", "--graph", str(tmp_path / "graph.json"), "--out", str(tmp_path / "ev")]


def _graph_doc(tmp_path: Path, edit) -> list[str]:
    """A stats run on a valid two-node graph document after ``edit(doc)``."""
    nodes = [
        {"id": i, "t": i, "pixel_count": 1, "centroid": [0.0, 0.0], "features": [0.5], "label": None}
        for i in range(2)
    ]
    doc = {"nodes": nodes, "edges": [{"src": 0, "dst": 1, "kind": "ST", "w": 1.0}], "meta": {}}
    edit(doc)
    (tmp_path / "graph.json").write_text(json.dumps(doc))
    return ["stats", "--graph", str(tmp_path / "graph.json")]


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


def _classifier_checkpoint(tmp_path: Path, edit) -> list[str]:
    """A predict run on a checkpoint of an untrained default classifier, after
    ``edit(config, state)``."""
    node = {"id": 0, "t": 0, "pixel_count": 1, "centroid": [0.0, 0.0], "features": [0.0], "label": None}
    (tmp_path / "graph.json").write_text(json.dumps({"nodes": [node], "edges": [], "meta": {}}))
    cfg = ClassifierConfig(n_classes=2)
    config, state = dataclasses.asdict(cfg), STClassifier(cfg, in_dim=1).state()
    edit(config, state)
    save_checkpoint(tmp_path / "c.bin", {"kind": "classifier", "config": config, "in_dim": 1}, state)
    return ["predict", "--checkpoint", str(tmp_path / "c.bin"), "--graph", str(tmp_path / "graph.json"), "--out", str(tmp_path / "p")]


def _forecaster_checkpoint(tmp_path: Path, edit) -> list[str]:
    """A forecast predict run on a checkpoint of an untrained default
    forecaster, after ``edit(config, state)``."""
    cfg = ForecastConfig()
    config, state = dataclasses.asdict(cfg), [p.data for p in Forecaster(cfg).parameters()]
    edit(config, state)
    save_checkpoint(tmp_path / "c.bin", {"kind": "forecaster", "config": config}, state)
    return ["forecast", "predict", "--checkpoint", str(tmp_path / "c.bin"), "--cube", _cube(tmp_path), "--out", str(tmp_path / "p")]


# (argv builder, environment, exit code, text the error line must name)
FAILURES = {
    "config_missing_file": (lambda tmp: ["synth", "--config", str(tmp / "absent.json"), "--out", str(tmp / "o")], {}, 1, "absent.json"),
    "config_malformed_json": (lambda tmp: _config(tmp, "{not json"), {}, 1, "line 1"),
    "config_unknown_key": (lambda tmp: _config(tmp, json.dumps({"seed": 3, "bogus_key": 1})), {}, 2, "bogus_key"),
    "checkpoint_truncated": (_truncated_checkpoint, {}, 1, "3 bytes"),
    "checkpoint_without_in_dim": (_checkpoint_without_in_dim, {}, 1, "in_dim"),
    "checkpoint_shape_not_a_list": (lambda tmp: _checkpoint_shapes(tmp, [3]), {}, 1, "parameter 0 has shape 3"),
    "checkpoint_shape_not_integer": (lambda tmp: _checkpoint_shapes(tmp, [["a"]]), {}, 1, "parameter 0 has shape ['a']"),
    "checkpoint_shape_negative": (lambda tmp: _checkpoint_shapes(tmp, [[2], [-1]]), {}, 1, "parameter 1 has shape [-1]"),
    "checkpoint_shape_beyond_numpy": (lambda tmp: _checkpoint_shapes(tmp, [[0, 10**30]]), {}, 1, "parameter 0 has shape"),
    "classifier_checkpoint_hidden_edited": (
        lambda tmp: _classifier_checkpoint(tmp, lambda c, s: c.update(hidden=32)), {}, 1, "array 0:",
    ),
    "classifier_checkpoint_one_array_short": (
        lambda tmp: _classifier_checkpoint(tmp, lambda c, s: s.pop()), {}, 1, "array 25:",
    ),
    "forecaster_checkpoint_rounds_edited": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: c.update(processor_rounds=5)), {}, 1, "array 66:",
    ),
    "forecaster_checkpoint_value_retyped": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: c.update(input_len="x")), {}, 1, "input_len = 'x'",
    ),
    "forecaster_checkpoint_slic_iters_zero": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: c.update(slic_iters=0)), {}, 1, "slic_iters must be >= 1",
    ),
    "forecaster_checkpoint_one_array_short": (
        lambda tmp: _forecaster_checkpoint(tmp, lambda c, s: s.pop()), {}, 1, "array 67:",
    ),
    "segment_slic_iters_zero": (
        lambda tmp: ["segment", "--cube", _cube(tmp), "--algo", "slic", "--segments", "16", "--iters", "0", "--out", str(tmp / "seg")],
        {}, 1, "iters must be >= 1, got 0",
    ),
    "meta_without_geo": (lambda tmp: _cube_meta(tmp, lambda m: m.pop("geo")), {}, 1, "geo"),
    "meta_count_not_integer": (lambda tmp: _cube_meta(tmp, lambda m: m.update(T="abc")), {}, 1, "'T'"),
    "meta_geo_not_number": (lambda tmp: _cube_meta(tmp, lambda m: m["geo"].update(lat0="north")), {}, 1, "'geo.lat0'"),
    "graph_dangling_edge": (_dangling_edge, {}, 1, "99999"),
    "graph_without_nodes": (lambda tmp: _graph_doc(tmp, lambda d: d.pop("nodes")), {}, 1, "no 'nodes'"),
    "graph_nodes_not_a_list": (lambda tmp: _graph_doc(tmp, lambda d: d.update(nodes=3)), {}, 1, "'nodes' must be a list"),
    "graph_edges_not_a_list": (lambda tmp: _graph_doc(tmp, lambda d: d.update(edges={})), {}, 1, "'edges' must be a list"),
    "graph_edge_without_w": (lambda tmp: _graph_doc(tmp, lambda d: d["edges"][0].pop("w")), {}, 1, "edge without 'w'"),
    "graph_node_without_t": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].pop("t")), {}, 1, "node without 't'"),
    "graph_id_not_integer": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][0].update(id="abc")), {}, 1, "'id' must be an integer, got 'abc'"),
    "graph_id_fractional": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(id=1.5)), {}, 1, "got 1.5"),
    "graph_t_boolean": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(t=True)), {}, 1, "'t' must be an integer, got True"),
    "graph_pixel_count_not_integer": (
        lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][0].update(pixel_count=None)), {}, 1, "'pixel_count' must be an integer",
    ),
    "graph_src_not_integer": (lambda tmp: _graph_doc(tmp, lambda d: d["edges"][0].update(src="0")), {}, 1, "'src' must be an integer, got '0'"),
    "graph_dst_not_integer": (lambda tmp: _graph_doc(tmp, lambda d: d["edges"][0].update(dst=1.0)), {}, 1, "'dst' must be an integer, got 1.0"),
    "graph_kind_unknown": (lambda tmp: _graph_doc(tmp, lambda d: d["edges"][0].update(kind="X")), {}, 1, "got 'X'"),
    "graph_features_ragged": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(features=[0.5, 1.0])), {}, 1, "features"),
    "graph_features_not_numbers": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(features=["x"])), {}, 1, "features"),
    "graph_duplicate_node_id": (lambda tmp: _graph_doc(tmp, lambda d: d["nodes"][1].update(id=0)), {}, 1, "duplicate node id 0"),
    "seg_meta_without_counts": (lambda tmp: _seg_meta(tmp, lambda m: m.pop("counts")), {}, 1, "counts"),
    "seg_ids_outside_counts": (
        lambda tmp: _seg_meta(tmp, lambda m: m.update(counts=[1] * len(m["counts"]))), {}, 1, "date 0",
    ),
    "eval_classify_without_graph": (
        lambda tmp: ["eval", "--task", "classify", "--checkpoint", "c.bin", "--seg", "s", "--cube", "c", "--out", str(tmp / "r")],
        {}, 2, "--graph",
    ),
    "eval_forecast_without_pred": (
        lambda tmp: ["eval", "--task", "forecast", "--target", "t.bin", "--out", str(tmp / "r")], {}, 2, "--pred",
    ),
    "threads_env_not_integer": (
        lambda tmp: ["segment", "--cube", _cube(tmp), "--out", str(tmp / "seg")], {"SITSGRAPH_THREADS": "abc"}, 2, "SITSGRAPH_THREADS",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failure_is_one_error_line(case, tmp_path, monkeypatch, capsys):
    build, env, code, named = FAILURES[case]
    argv = build(tmp_path)
    for k, v in env.items():
        monkeypatch.setenv(k, v)
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


def test_cli_import_leaves_xml_and_http_unloaded():
    # every subcommand pays for what importing the CLI loads
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("xml.etree.ElementTree", "xml.sax.saxutils", "urllib.request", "http.client")
    code = f"import sys, sitsgraph.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "flag, env, want", [([], None, 1), (["--threads", "3"], None, 3), ([], "3", 3)]
)
def test_threads_default_serial(flag, env, want, monkeypatch):
    monkeypatch.delenv("SITSGRAPH_THREADS", raising=False)
    if env is not None:
        monkeypatch.setenv("SITSGRAPH_THREADS", env)
    parser, _ = build_parser()
    args = parser.parse_args(["segment", "--cube", "c", "--out", "o", *flag])
    assert _threads(args) == want


class TestConfigReplay:
    def test_rerun_from_run_config(self, tmp_path):
        main(["synth", "--seed", "5", "--t", "4", "--height", "8", "--width", "8", "--blobs", "2", "--period", "2", "--out", str(tmp_path / "a")])
        rc = tmp_path / "a" / "run_config.json"
        assert main(["synth", "--config", str(rc), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "cube.bin").read_bytes() == (tmp_path / "b" / "cube.bin").read_bytes()

    def test_explicit_flag_overrides_config(self, tmp_path):
        main(["synth", "--seed", "5", "--t", "4", "--height", "8", "--width", "8", "--blobs", "2", "--period", "2", "--out", str(tmp_path / "a")])
        rc = tmp_path / "a" / "run_config.json"
        main(["synth", "--config", str(rc), "--seed", "6", "--out", str(tmp_path / "c")])
        cfg = json.loads((tmp_path / "c" / "run_config.json").read_text())
        assert cfg["seed"] == 6


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
