import copy
import json
import struct
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fuzz import CLI_ERRORS, damage, mutate
from sitsgraph.checkpoint import load_checkpoint
from sitsgraph.errors import ConfigMismatch, ShapeMismatch
from sitsgraph.forecast import ForecastConfig, Forecaster, build_mesh
from sitsgraph.forecast.model import pixel_pos_encoding
from sitsgraph.forecast.train import forecaster_from_checkpoint
from sitsgraph.neural import ClassifierConfig, STClassifier
from sitsgraph.neural.autograd import Tensor, no_grad
from sitsgraph.neural.classifier import classifier_from_checkpoint
from sitsgraph.neural.nn import relation

LOADERS = {
    "classifier": (classifier_from_checkpoint, ClassifierConfig(n_classes=2)),
    "forecaster": (forecaster_from_checkpoint, ForecastConfig()),
}


@pytest.mark.parametrize("model", sorted(LOADERS))
@pytest.mark.parametrize("change", ["unknown_key", "missing_key", "not_an_object"])
def test_checkpoint_config_must_hold_exactly_the_config_fields(model, change):
    load, cfg = LOADERS[model]
    config = asdict(cfg)
    if change == "unknown_key":
        config["aggregation"] = "sum"
    elif change == "missing_key":
        del config["seed"]
    else:
        config = list(config.items())
    with pytest.raises(ConfigMismatch):
        load({"config": config, "in_dim": 2, "state": []})


@pytest.mark.parametrize(
    "model, key, value",
    [
        ("classifier", "hidden", "64"),
        ("classifier", "n_classes", True),
        ("classifier", "lr", "fast"),
        ("forecaster", "input_len", "x"),
        ("forecaster", "hidden", 64.0),
        ("forecaster", "compactness", None),
        ("forecaster", "mesh_from", 0),
        ("classifier", "conv", ["sage"]),
    ],
)
def test_checkpoint_config_values_must_have_the_field_types(model, key, value):
    load, cfg = LOADERS[model]
    config = asdict(cfg)
    config[key] = value
    with pytest.raises(ConfigMismatch, match=key):
        load({"config": config, "in_dim": 2, "state": []})


@pytest.mark.parametrize("model", sorted(LOADERS))
def test_checkpoint_config_float_field_takes_a_whole_number(model):
    load, cfg = LOADERS[model]
    config = asdict(cfg)
    config["lr"] = 0
    if model == "forecaster":
        assert load({"config": config, "state": [p.data for p in Forecaster(cfg).parameters()]}).cfg.lr == 0
    else:
        assert load({"config": config, "in_dim": 2, "state": STClassifier(cfg, in_dim=2).state()}).cfg.lr == 0


@pytest.mark.parametrize(
    "key, value",
    [
        ("slic_iters", 0),
        ("slic_iters", -3),
        ("slic_iters", 101),
        ("slic_iters", 2**40),
        ("n_segments", 0),
        ("compactness", 0.0),
        ("compactness", -0.1),
        ("compactness", float("nan")),
        ("mesh_from", "first"),
    ],
)
def test_forecaster_checkpoint_mesh_settings_fail_at_load(key, value):
    config = asdict(ForecastConfig())
    config[key] = value
    with pytest.raises(ConfigMismatch, match=key):
        forecaster_from_checkpoint({"config": config, "state": []})


@pytest.mark.parametrize(
    "model, key, value, message",
    [
        ("forecaster", "input_len", 0, "input_len must be >= 1, got 0"),
        ("forecaster", "processor_rounds", 0, "processor_rounds must be >= 1, got 0"),
        ("forecaster", "hidden", 5, "hidden must be even and >= 2, got 5"),
        ("classifier", "hidden", 0, "hidden must be >= 1, got 0"),
        ("classifier", "n_layers", 1, "need at least 2 encoder layers, got 1"),
        ("classifier", "n_classes", 1, "need at least 2 classes, got 1"),
    ],
)
def test_checkpoint_architecture_settings_fail_at_load(model, key, value, message):
    load, cfg = LOADERS[model]
    config = asdict(cfg)
    config[key] = value
    with pytest.raises(ConfigMismatch, match=message):
        load({"config": config, "in_dim": 2, "state": []})


@pytest.mark.parametrize("model", sorted(LOADERS))
@pytest.mark.parametrize(
    "key, value",
    [("epochs", 0), ("epochs", -1), ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf"))],
)
def test_checkpoint_training_settings_fail_at_load(model, key, value):
    load, cfg = LOADERS[model]
    config = asdict(cfg)
    config[key] = value
    with pytest.raises(ConfigMismatch, match=f"{key} must be"):
        load({"config": config, "in_dim": 2, "state": []})


@pytest.mark.parametrize(
    "cfg, in_dim",
    [
        (ClassifierConfig(n_classes=2), 1),
        (ClassifierConfig(n_classes=5, conv="gcn", hidden=8, n_layers=6), 7),
        (ClassifierConfig(n_classes=3, conv="mlp", hidden=4, n_layers=3), 2),
        (ForecastConfig(), None),
        (ForecastConfig(input_len=3, hidden=6, processor_rounds=1), None),
    ],
    ids=["classifier_sage", "classifier_gcn", "classifier_mlp", "forecaster", "forecaster_small"],
)
def test_state_rebuilds_the_model(cfg, in_dim, geo):
    # the loaders build the model from its saved arrays through its own constructor
    rng = np.random.default_rng(7)
    model = Forecaster(cfg) if in_dim is None else STClassifier(cfg, in_dim)
    for p in model.parameters():  # off the zero and glorot starting points, so a swap shows
        p.data = rng.normal(scale=0.05, size=p.data.shape).astype(np.float32)
    if in_dim is None:
        state = [p.data.copy() for p in model.parameters()]
        again = Forecaster(cfg, state=state)
        window = rng.uniform(-0.9, 0.9, size=(cfg.input_len, 7, 9)).astype(np.float32)
        mesh = build_mesh(window[-1][None], 5, cfg.compactness)
        pos = pixel_pos_encoding(geo, 7, 9, "2020-06-01")
        outs = [m.predict(window, mesh, pos) for m in (model, again)]
        assert np.abs(outs[0] - window[-1]).max() > 0  # the weights move the output off persistence
    else:
        for norm in model.norms:
            norm.running_mean = rng.normal(size=cfg.hidden).astype(np.float32)
            norm.running_var = rng.uniform(0.5, 2.0, size=cfg.hidden).astype(np.float32)
        state = model.state()
        again = STClassifier(cfg, in_dim, state)
        assert [a.tobytes() for a in again.state()] == [a.tobytes() for a in state]
        x = rng.normal(size=(6, in_dim)).astype(np.float32)
        rel = relation(([0, 1, 2, 3], [1, 2, 3, 4]), 6)
        with no_grad():
            outs = [m.forward(Tensor(x), rel, rel, train=False).data for m in (model, again)]
    assert [p.data.tobytes() for p in again.parameters()] == [a.tobytes() for a in state[: len(model.parameters())]]
    assert outs[0].tobytes() == outs[1].tobytes()


# (loader, key, value, index of the first array that differs): configs of a
# huge model against the state of the default one
_HUGE = [
    ("classifier", "hidden", 2**30, 0),
    ("classifier", "hidden", 2**40, 0),
    ("classifier", "in_dim", 2**40, 0),
    ("classifier", "n_layers", 2**40, 8),
    ("classifier", "n_classes", 2**40, 16),
    ("forecaster", "hidden", 2**40, 0),
    ("forecaster", "input_len", 2**40, 0),
    ("forecaster", "processor_rounds", 2**30, 66),
    ("forecaster", "processor_rounds", 2**40, 66),
]


@pytest.mark.parametrize("model, key, value, index", _HUGE)
def test_huge_config_fails_before_allocating(model, key, value, index):
    load, cfg = LOADERS[model]
    checkpoint = {"config": asdict(cfg), "in_dim": 1}
    if model == "forecaster":
        checkpoint["state"] = [p.data for p in Forecaster(cfg).parameters()]
    else:
        checkpoint["state"] = STClassifier(cfg, in_dim=1).state()
    if key == "in_dim":
        checkpoint["in_dim"] = value
    else:
        checkpoint["config"][key] = value
    tracemalloc.start()
    try:
        with pytest.raises(ShapeMismatch, match=f"{model} state array {index}: shape"):
            load(checkpoint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _fuzz_checkpoint(header: dict) -> bytes:
    """A checkpoint file with ``header`` (a valid one lists shapes (2, 3) and
    (1, 3)) and the floats 0..8 as its parameters."""
    head = json.dumps(header).encode()
    return struct.pack("<I", len(head)) + head + np.arange(9, dtype="<f4").tobytes()


_FUZZ_HEADER = {"kind": "forecaster", "config": {"hidden": 2, "lr": 0.5}, "best_epoch": 3, "shapes": [[2, 3], [1, 3]]}


class TestLoadCheckpointFuzz:
    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_only_typed_errors_escape(self, data):
        header = copy.deepcopy(_FUZZ_HEADER)
        raw = damage(data, _fuzz_checkpoint(mutate(data, header) if data.draw(st.booleans()) else header))
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "c.bin").write_bytes(raw)
            try:
                header, params = load_checkpoint(Path(d) / "c.bin")
            except CLI_ERRORS:
                return
        # what loads is what the header declares, read from the file's tail
        assert [list(p.shape) for p in params] == header["shapes"]
        n = sum(p.nbytes for p in params)
        assert b"".join(p.tobytes() for p in params) == raw[len(raw) - n :]

    def test_valid_checkpoint_loads(self, tmp_path):
        (tmp_path / "c.bin").write_bytes(_fuzz_checkpoint(_FUZZ_HEADER))
        header, params = load_checkpoint(tmp_path / "c.bin")
        assert header == _FUZZ_HEADER and params[1].tolist() == [[6.0, 7.0, 8.0]]
