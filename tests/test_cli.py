import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from sitsgraph.checkpoint import save_checkpoint
from sitsgraph.cli import _threads, build_parser, main
from sitsgraph.datacube import save_cube, synth_seasonal
from sitsgraph.neural import ClassifierConfig


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


def _meta_without_geo(tmp_path: Path) -> list[str]:
    cube = Path(_cube(tmp_path))
    meta = json.loads((cube / "meta.json").read_text())
    del meta["geo"]
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


def _truncated_checkpoint(tmp_path: Path) -> list[str]:
    (tmp_path / "c.bin").write_bytes(b"abc")
    return ["forecast", "predict", "--checkpoint", str(tmp_path / "c.bin"), "--cube", _cube(tmp_path), "--out", str(tmp_path / "p")]


def _checkpoint_without_in_dim(tmp_path: Path) -> list[str]:
    node = {"id": 0, "t": 0, "pixel_count": 1, "centroid": [0.0, 0.0], "features": [0.0], "label": None}
    (tmp_path / "graph.json").write_text(json.dumps({"nodes": [node], "edges": [], "meta": {}}))
    header = {"kind": "classifier", "config": dataclasses.asdict(ClassifierConfig(n_classes=2))}
    save_checkpoint(tmp_path / "c.bin", header, [])
    return ["predict", "--checkpoint", str(tmp_path / "c.bin"), "--graph", str(tmp_path / "graph.json"), "--out", str(tmp_path / "p")]


# (argv builder, environment, exit code, text the error line must name)
FAILURES = {
    "config_missing_file": (lambda tmp: ["synth", "--config", str(tmp / "absent.json"), "--out", str(tmp / "o")], {}, 1, "absent.json"),
    "config_malformed_json": (lambda tmp: _config(tmp, "{not json"), {}, 1, "line 1"),
    "config_unknown_key": (lambda tmp: _config(tmp, json.dumps({"seed": 3, "bogus_key": 1})), {}, 2, "bogus_key"),
    "checkpoint_truncated": (_truncated_checkpoint, {}, 1, "3 bytes"),
    "checkpoint_without_in_dim": (_checkpoint_without_in_dim, {}, 1, "in_dim"),
    "meta_without_geo": (_meta_without_geo, {}, 1, "geo"),
    "graph_dangling_edge": (_dangling_edge, {}, 1, "99999"),
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
