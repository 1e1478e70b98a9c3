from dataclasses import asdict

import pytest

from sitsgraph.errors import ConfigMismatch
from sitsgraph.forecast import ForecastConfig, Forecaster
from sitsgraph.forecast.train import forecaster_from_checkpoint
from sitsgraph.neural import ClassifierConfig, STClassifier
from sitsgraph.neural.classifier import classifier_from_checkpoint

LOADERS = {
    "classifier": (classifier_from_checkpoint, ClassifierConfig(n_classes=2)),
    "forecaster": (forecaster_from_checkpoint, ForecastConfig()),
}


@pytest.mark.parametrize("model", sorted(LOADERS))
@pytest.mark.parametrize("change", ["unknown_key", "missing_key"])
def test_checkpoint_config_must_hold_exactly_the_config_fields(model, change):
    load, cfg = LOADERS[model]
    config = asdict(cfg)
    if change == "unknown_key":
        config["aggregation"] = "sum"
    else:
        del config["seed"]
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
    "key, value", [("slic_iters", 0), ("slic_iters", -3), ("n_segments", 0), ("compactness", 0.0), ("compactness", -0.1)]
)
def test_forecaster_checkpoint_mesh_settings_fail_at_load(key, value):
    config = asdict(ForecastConfig())
    config[key] = value
    with pytest.raises(ConfigMismatch, match=key):
        forecaster_from_checkpoint({"config": config, "state": []})
